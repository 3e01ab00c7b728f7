//! Seeded, deterministic case generation: a [`CaseSpec`] names a grid, an
//! object distribution, a count and a seed, and expands — always to the
//! same bytes — into a dataset plus a query plan. The whole harness is
//! replayable from the one-line form ([`CaseSpec::to_line`] /
//! [`CaseSpec::from_line`]), which is also the corpus entry format.

use euler_geom::Rect;
use euler_grid::{DataSpace, Grid, GridRect, QuerySet, SnappedRect, Snapper};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// The object distributions the generator covers. Each targets a failure
/// mode the paper's analysis calls out: clustered data stresses the
/// loophole effect, degenerate points/segments stress the §4.2 shrink
/// rule, and boundary-snapped rectangles stress every `±1` in the
/// Euler-index algebra.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// Uniform centers, uniform extents up to ~1/3 of the space.
    Uniform,
    /// A few dense clusters plus background noise — many large/containing
    /// objects per query.
    Clustered,
    /// Degenerate point rectangles (zero width and height before
    /// snapping).
    Points,
    /// Degenerate segments: zero width *or* zero height, often lying
    /// exactly on a grid line.
    Segments,
    /// Rectangles with integer (grid-aligned) corners, including ones
    /// flush with the grid boundary — every edge triggers the shrink
    /// rule.
    Snapped,
    /// A mixture of all of the above.
    Mixed,
}

impl Distribution {
    /// All distributions, in generation order.
    pub const ALL: [Distribution; 6] = [
        Distribution::Uniform,
        Distribution::Clustered,
        Distribution::Points,
        Distribution::Segments,
        Distribution::Snapped,
        Distribution::Mixed,
    ];

    /// Stable name used in replay lines.
    pub fn name(&self) -> &'static str {
        match self {
            Distribution::Uniform => "uniform",
            Distribution::Clustered => "clustered",
            Distribution::Points => "points",
            Distribution::Segments => "segments",
            Distribution::Snapped => "snapped",
            Distribution::Mixed => "mixed",
        }
    }

    /// Inverse of [`Distribution::name`].
    pub fn from_name(name: &str) -> Option<Distribution> {
        Distribution::ALL.into_iter().find(|d| d.name() == name)
    }
}

/// One replayable conformance case: grid dimensions, an object
/// distribution, an object count and the seed that makes it
/// deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaseSpec {
    /// Seed for the dataset and the random part of the query plan.
    pub seed: u64,
    /// Object distribution.
    pub dist: Distribution,
    /// Grid columns (≥ 2).
    pub nx: usize,
    /// Grid rows (≥ 2).
    pub ny: usize,
    /// Number of objects to generate.
    pub objects: usize,
}

impl CaseSpec {
    /// The grid for this case: an `nx × ny` cell grid over the data space
    /// `[0, nx] × [0, ny]`, so data units and grid units coincide.
    pub fn grid(&self) -> Grid {
        let bounds = Rect::new(0.0, 0.0, self.nx as f64, self.ny as f64).expect("ordered bounds");
        Grid::new(DataSpace::new(bounds), self.nx, self.ny).expect("nonzero dims")
    }

    /// The raw (pre-snap) object MBRs, deterministically from the seed.
    pub fn rects(&self) -> Vec<Rect> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let (w, h) = (self.nx as f64, self.ny as f64);
        let mut out = Vec::with_capacity(self.objects);
        // Cluster centers are drawn up front so `Mixed` stays deterministic
        // regardless of how many clustered objects it interleaves.
        let centers: Vec<(f64, f64)> = (0..4)
            .map(|_| (rng.gen_range(0.0..w), rng.gen_range(0.0..h)))
            .collect();
        for i in 0..self.objects {
            let dist = match self.dist {
                Distribution::Mixed => Distribution::ALL[i % 5],
                d => d,
            };
            out.push(gen_rect(dist, &mut rng, w, h, &centers));
        }
        out
    }

    /// The snapped dataset.
    pub fn snapped(&self) -> Vec<SnappedRect> {
        let snapper = Snapper::new(self.grid());
        self.rects().iter().map(|r| snapper.snap(r)).collect()
    }

    /// The query plan: the full space, the four corner cells, every `Qₙ`
    /// tiling whose tile size divides both grid dimensions (n = 2…20),
    /// and a seeded batch of random aligned windows. Order is
    /// deterministic.
    pub fn queries(&self) -> Vec<GridRect> {
        let grid = self.grid();
        let (nx, ny) = (self.nx, self.ny);
        let mut out = vec![grid.full()];
        for (cx, cy) in [(0, 0), (nx - 1, 0), (0, ny - 1), (nx - 1, ny - 1)] {
            out.push(GridRect::unchecked(cx, cy, cx + 1, cy + 1));
        }
        for n in 2..=20usize {
            if let Ok(qs) = QuerySet::q_n(&grid, n) {
                out.extend(qs.iter());
            }
        }
        // Random aligned windows, seeded independently of the dataset.
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5EED_CA5E);
        for _ in 0..24 {
            let x0 = rng.gen_range(0..nx);
            let y0 = rng.gen_range(0..ny);
            let x1 = rng.gen_range(x0 + 1..=nx);
            let y1 = rng.gen_range(y0 + 1..=ny);
            out.push(GridRect::unchecked(x0, y0, x1, y1));
        }
        out
    }

    /// The one-line replay form, e.g.
    /// `dist=snapped nx=12 ny=9 objects=40 seed=77`.
    pub fn to_line(&self) -> String {
        format!(
            "dist={} nx={} ny={} objects={} seed={}",
            self.dist.name(),
            self.nx,
            self.ny,
            self.objects,
            self.seed
        )
    }

    /// Parses a replay line produced by [`CaseSpec::to_line`]. Unknown
    /// keys are rejected so corpus typos fail loudly.
    pub fn from_line(line: &str) -> Result<CaseSpec, String> {
        let (mut dist, mut nx, mut ny, mut objects, mut seed) = (None, None, None, None, None);
        for field in line.split_whitespace() {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("field `{field}` is not key=value"))?;
            match key {
                "dist" => {
                    dist = Some(
                        Distribution::from_name(value)
                            .ok_or_else(|| format!("unknown distribution `{value}`"))?,
                    )
                }
                "nx" => nx = Some(parse_num(key, value)?),
                "ny" => ny = Some(parse_num(key, value)?),
                "objects" => objects = Some(parse_num(key, value)?),
                "seed" => seed = Some(parse_num(key, value)?),
                other => return Err(format!("unknown key `{other}`")),
            }
        }
        let spec = CaseSpec {
            seed: seed.ok_or("missing seed")?,
            dist: dist.ok_or("missing dist")?,
            nx: nx.ok_or("missing nx")? as usize,
            ny: ny.ok_or("missing ny")? as usize,
            objects: objects.ok_or("missing objects")? as usize,
        };
        if spec.nx < 2 || spec.ny < 2 {
            return Err("grid must be at least 2x2".into());
        }
        Ok(spec)
    }
}

fn parse_num(key: &str, value: &str) -> Result<u64, String> {
    value
        .parse::<u64>()
        .map_err(|_| format!("bad number for `{key}`: `{value}`"))
}

fn gen_rect(dist: Distribution, rng: &mut StdRng, w: f64, h: f64, centers: &[(f64, f64)]) -> Rect {
    let clamp = |x0: f64, y0: f64, x1: f64, y1: f64| {
        Rect::new(
            x0.clamp(0.0, w),
            y0.clamp(0.0, h),
            x1.clamp(0.0, w),
            y1.clamp(0.0, h),
        )
        .expect("ordered after clamp")
    };
    match dist {
        Distribution::Uniform => {
            let x = rng.gen_range(0.0..w);
            let y = rng.gen_range(0.0..h);
            let dw = rng.gen_range(0.01..w / 3.0);
            let dh = rng.gen_range(0.01..h / 3.0);
            clamp(x, y, x + dw, y + dh)
        }
        Distribution::Clustered => {
            let (cx, cy) = centers[rng.gen_range(0..centers.len())];
            // Mostly tight satellites, occasionally a huge object that
            // contains or crosses many queries (the loophole population).
            let (dw, dh) = if rng.gen_bool(0.2) {
                (rng.gen_range(w / 2.0..w), rng.gen_range(h / 2.0..h))
            } else {
                (rng.gen_range(0.01..w / 6.0), rng.gen_range(0.01..h / 6.0))
            };
            clamp(cx - dw / 2.0, cy - dh / 2.0, cx + dw / 2.0, cy + dh / 2.0)
        }
        Distribution::Points => {
            // Half the points land exactly on grid vertices.
            let (x, y) = if rng.gen_bool(0.5) {
                (
                    rng.gen_range(0..=w as usize) as f64,
                    rng.gen_range(0..=h as usize) as f64,
                )
            } else {
                (rng.gen_range(0.0..w), rng.gen_range(0.0..h))
            };
            clamp(x, y, x, y)
        }
        Distribution::Segments => {
            let horizontal = rng.gen_bool(0.5);
            let on_line = rng.gen_bool(0.5);
            if horizontal {
                let y = if on_line {
                    rng.gen_range(0..=h as usize) as f64
                } else {
                    rng.gen_range(0.0..h)
                };
                let x = rng.gen_range(0.0..w);
                clamp(x, y, x + rng.gen_range(0.1..w), y)
            } else {
                let x = if on_line {
                    rng.gen_range(0..=w as usize) as f64
                } else {
                    rng.gen_range(0.0..w)
                };
                let y = rng.gen_range(0.0..h);
                clamp(x, y, x, y + rng.gen_range(0.1..h))
            }
        }
        Distribution::Snapped => {
            // Integer corners; a quarter of them flush with the boundary,
            // and some zero-width/zero-height after the clamp.
            let nx = w as usize;
            let ny = h as usize;
            let x0 = if rng.gen_bool(0.25) {
                0
            } else {
                rng.gen_range(0..nx)
            };
            let y0 = if rng.gen_bool(0.25) {
                0
            } else {
                rng.gen_range(0..ny)
            };
            let x1 = if rng.gen_bool(0.25) {
                nx
            } else {
                rng.gen_range(x0..=nx)
            };
            let y1 = if rng.gen_bool(0.25) {
                ny
            } else {
                rng.gen_range(y0..=ny)
            };
            clamp(x0 as f64, y0 as f64, x1 as f64, y1 as f64)
        }
        Distribution::Mixed => unreachable!("Mixed dispatches per object"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(dist: Distribution) -> CaseSpec {
        CaseSpec {
            seed: 7,
            dist,
            nx: 12,
            ny: 9,
            objects: 30,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for dist in Distribution::ALL {
            let a = spec(dist);
            assert_eq!(a.rects(), a.rects(), "{}", dist.name());
            assert_eq!(a.queries(), a.queries(), "{}", dist.name());
        }
    }

    #[test]
    fn snapped_objects_are_valid_for_every_distribution() {
        for dist in Distribution::ALL {
            let s = spec(dist);
            for o in s.snapped() {
                assert!(o.a() > 0.0 && o.b() < 12.0 && o.a() < o.b(), "{o:?}");
                assert!(o.c() > 0.0 && o.d() < 9.0 && o.c() < o.d(), "{o:?}");
            }
        }
    }

    #[test]
    fn query_plan_is_aligned_and_covers_tilings() {
        let s = spec(Distribution::Uniform);
        let qs = s.queries();
        assert!(qs.len() >= 30, "got {}", qs.len());
        assert_eq!(qs[0], s.grid().full());
        for q in &qs {
            assert!(q.x0 < q.x1 && q.x1 <= 12);
            assert!(q.y0 < q.y1 && q.y1 <= 9);
        }
        // Q3 divides 12x9, so its 12 tiles must be present.
        assert!(qs.contains(&GridRect::unchecked(0, 0, 3, 3)));
    }

    #[test]
    fn replay_line_round_trips() {
        for dist in Distribution::ALL {
            let s = spec(dist);
            assert_eq!(CaseSpec::from_line(&s.to_line()), Ok(s));
        }
        assert!(CaseSpec::from_line("dist=nope nx=2 ny=2 objects=1 seed=0").is_err());
        assert!(CaseSpec::from_line("nx=2 ny=2 objects=1 seed=0").is_err());
        assert!(CaseSpec::from_line("dist=uniform nx=1 ny=2 objects=1 seed=0").is_err());
        assert!(CaseSpec::from_line("dist=uniform nx=2 ny=2 objects=1 seed=0 extra=1").is_err());
    }
}
