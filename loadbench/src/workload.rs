//! The four traffic mixes and their seeded open-loop schedules.
//!
//! A workload is a server profile, a preloaded dataset size and two
//! request streams, one per connection. The seed decides the dataset, the
//! arrival times and the op sequence; everything that sets how much work a
//! request costs (which tilings are popular, the tile-count mix of cold
//! browses, write sizes) is fixed, so runs with different seeds differ in
//! data and timing but not in cost profile.

use std::time::Duration;

use spatial_histograms::datagen::{adl_like, AdlConfig, Dataset};

/// The serving grid: one cell per degree of the paper's world space.
pub const GRID: (usize, usize) = (360, 180);

/// Untimed traffic before the measured window of an end-to-end run.
pub const WARMUP: Duration = Duration::from_secs(2);

/// Objects the in-memory workloads preload: a quarter of the paper-scale
/// `adl` set, whose boot takes too long to repeat several times per run,
/// rounded to 57 × 1024 so the preload leaves no live delta behind (the live
/// histogram folds its delta every 1024 writes). Delta corrections are
/// what live-mixed measures; browse-cold measures the per-tile path alone.
const MEMORY_OBJECTS: usize = 58_368;

/// Tile sides, in cells, of the cold workload's fresh tilings.
const COLD_SIDES: [usize; 10] = [2, 3, 4, 5, 6, 8, 10, 12, 15, 20];

/// The read policy and storage the server is started with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// `--profile frozen`: refreeze-on-read, in memory.
    Frozen,
    /// The default dynamic profile: pin-current, in memory.
    Dynamic,
    /// `--data-dir D --fsync always`: every write is in the WAL before it is acked.
    Durable,
}

/// What one connection sends.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// Browses drawn Zipf(1) from the hot tilings with at most `max_tiles` tiles.
    Hot { rate: f64, max_tiles: usize },
    /// Browses of fresh seeded regions (see [`cold_view`]).
    Cold { rate: f64 },
    /// Inserts and removes, 4:1; with `browse_every = Some(k)` every k-th op
    /// is a 36×18 world browse instead.
    Writes {
        rate: f64,
        browse_every: Option<usize>,
    },
}

/// One traffic mix.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub profile: Profile,
    /// Objects in the seeded `adl_like` CSV the server preloads.
    pub objects: usize,
    pub streams: [Stream; 2],
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "browse-hot",
        why: "repeat views of a static map: the 48 hot tilings fit the cache, so wire, encode and cache lookups dominate and the engine idles",
        profile: Profile::Frozen,
        objects: MEMORY_OBJECTS,
        streams: [
            Stream::Hot { rate: 200.0, max_tiles: usize::MAX },
            Stream::Hot { rate: 200.0, max_tiles: usize::MAX },
        ],
    },
    Workload {
        name: "browse-cold",
        why: "every browse is a fresh region of 1 to 16,200 tiles, so the cache never hits and the engine's per-tile loop and reply encoding dominate",
        profile: Profile::Dynamic,
        objects: MEMORY_OBJECTS,
        streams: [Stream::Cold { rate: 75.0 }, Stream::Cold { rate: 75.0 }],
    },
    Workload {
        name: "live-mixed",
        why: "500 writes/s beside 40 small hot browses/s: every write moves the version, so browses miss the cache and race delta growth and refreezes",
        profile: Profile::Dynamic,
        objects: MEMORY_OBJECTS,
        streams: [
            Stream::Writes { rate: 500.0, browse_every: None },
            Stream::Hot { rate: 40.0, max_tiles: 648 },
        ],
    },
    Workload {
        name: "durable-feed",
        why: "two writers at 250/s each on a WAL with fsync always: append, fsync and checkpoint dominate and reads are rare",
        profile: Profile::Durable,
        objects: 11_679,
        streams: [
            Stream::Writes { rate: 250.0, browse_every: None },
            Stream::Writes { rate: 250.0, browse_every: Some(50) },
        ],
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A tiling in grid cells: `region = [x0, y0, x1, y1]`, `x1`/`y1` exclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct View {
    pub region: [usize; 4],
    pub cols: usize,
    pub rows: usize,
}

impl View {
    pub fn tiles(&self) -> usize {
        self.cols * self.rows
    }
}

/// The 36×18 world view the durable workload reads and checks across reboots.
pub const WORLD_36X18: View = View {
    region: [0, 0, GRID.0, GRID.1],
    cols: 36,
    rows: 18,
};

/// One request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    Browse(View),
    Insert([f64; 4]),
    Remove([f64; 4]),
    /// Only the traced run's wire leg sends these.
    Ping,
}

impl Op {
    /// The protocol line for this op, without the newline.
    pub fn line(&self, tenant: &str) -> String {
        match self {
            Op::Browse(v) => format!(
                r#"{{"tenant":"{tenant}","op":"browse","cols":{},"rows":{},"region":[{},{},{},{}]}}"#,
                v.cols, v.rows, v.region[0], v.region[1], v.region[2], v.region[3]
            ),
            Op::Insert(r) | Op::Remove(r) => {
                let op = if matches!(self, Op::Insert(_)) {
                    "insert"
                } else {
                    "remove"
                };
                format!(
                    r#"{{"tenant":"{tenant}","op":"{op}","rect":[{},{},{},{}]}}"#,
                    r[0], r[1], r[2], r[3]
                )
            }
            Op::Ping => format!(r#"{{"tenant":"{tenant}","op":"ping"}}"#),
        }
    }

    pub fn is_write(&self) -> bool {
        matches!(self, Op::Insert(_) | Op::Remove(_))
    }
}

/// An op and when it is due, as an offset from the schedule's start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scheduled {
    pub at: Duration,
    pub op: Op,
}

/// SplitMix64: small, seedable and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

/// The 48 hot tilings: the world view plus 11 fixed regions, each at
/// 18×9, 36×18, 54×27 and 72×36 tiles. The list order is the Zipf rank.
pub fn hot_tilings() -> Vec<View> {
    const REGIONS: [[usize; 4]; 12] = [
        [0, 0, 360, 180],
        [0, 0, 180, 90],
        [180, 0, 360, 90],
        [0, 90, 180, 180],
        [180, 90, 360, 180],
        [90, 45, 270, 135],
        [20, 100, 164, 172],
        [200, 20, 344, 92],
        [10, 50, 118, 104],
        [40, 30, 112, 66],
        [250, 120, 322, 156],
        [150, 60, 222, 96],
    ];
    let mut out = Vec::with_capacity(48);
    for region in REGIONS {
        for (cols, rows) in [(18, 9), (36, 18), (54, 27), (72, 36)] {
            out.push(View { region, cols, rows });
        }
    }
    out
}

/// The `i`-th cold tiling of a stream. The tile side cycles through
/// [`COLD_SIDES`] and the tile counts follow a fixed low-discrepancy
/// sequence, so every seed gets the same 1- to 16,200-tile browses in the
/// same order; the seed places each region.
fn cold_view(i: usize, rng: &mut Rng) -> View {
    let side = COLD_SIDES[i % COLD_SIDES.len()];
    let k = (i / COLD_SIDES.len()) as f64;
    let u = (0.5 + k * 0.754_877_666_246_692_7).fract();
    let v = (0.5 + k * 0.569_840_290_998_053_2).fract();
    let (max_cols, max_rows) = (GRID.0 / side, GRID.1 / side);
    let cols = (1 + (u * max_cols as f64) as usize).min(max_cols);
    let rows = (1 + (v * max_rows as f64) as usize).min(max_rows);
    let (w, h) = (cols * side, rows * side);
    let x0 = rng.below(GRID.0 - w + 1);
    let y0 = rng.below(GRID.1 - h + 1);
    View {
        region: [x0, y0, x0 + w, y0 + h],
        cols,
        rows,
    }
}

/// A small rectangle on a 1/64-degree lattice, so its coordinates print
/// and parse back exactly.
fn write_rect(rng: &mut Rng) -> [f64; 4] {
    let q = |x: f64| (x * 64.0).floor() / 64.0;
    let extent = |rng: &mut Rng| (rng.unit() * (4.0f64 / 0.015_625).ln()).exp() * 0.015_625;
    let (w, h) = (extent(rng), extent(rng));
    let x0 = q(rng.unit() * (GRID.0 as f64 - w));
    let y0 = q(rng.unit() * (GRID.1 as f64 - h));
    [x0, y0, x0 + q(w).max(0.015_625), y0 + q(h).max(0.015_625)]
}

/// Zipf(1) over `n` ranks, by inverse CDF.
struct Zipf(Vec<f64>);

impl Zipf {
    fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / k as f64;
                acc
            })
            .collect();
        cdf.iter_mut().for_each(|c| *c /= acc);
        Zipf(cdf)
    }

    /// The rank at quantile `u` in `[0, 1)`.
    fn at(&self, u: f64) -> usize {
        self.0.partition_point(|&c| c <= u).min(self.0.len() - 1)
    }
}

/// Arrival times over `[0, span)`: evenly spaced at `rate`, each moved by
/// up to ±1 ms (at most a quarter of the gap), uniformly at random. The
/// even spacing keeps requests from bunching, so run-to-run differences in
/// queueing do not swamp the service times being measured; the jitter
/// spreads requests over every phase of the server's ~1 ms polling tick
/// instead of locking them to one. Any window of whole seconds holds
/// exactly `rate × seconds` arrivals.
pub fn arrivals(rng: &mut Rng, rate: f64, span: Duration) -> Vec<Duration> {
    let n = (rate * span.as_secs_f64()).round() as usize;
    let jitter = (0.25 / rate).min(0.001);
    (0..n)
        .map(|i| {
            let t = (i as f64 + 0.5) / rate + jitter * (2.0 * rng.unit() - 1.0);
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// The ops of stream `index`, due over `[0, span)`. Which tilings are
/// browsed, and in what order, does not depend on the seed: hot browses
/// walk the Zipf quantiles along a golden-ratio sequence, and the two cold
/// streams run the same sequence half a side cycle apart, so their largest
/// browses do not coincide.
fn stream_schedule(stream: Stream, index: usize, seed: u64, span: Duration) -> Vec<Scheduled> {
    let mut rng = Rng::new(seed);
    let rate = match stream {
        Stream::Hot { rate, .. } | Stream::Cold { rate } | Stream::Writes { rate, .. } => rate,
    };
    let at = arrivals(&mut rng, rate, span);

    let hot: Vec<View> = match stream {
        Stream::Hot { max_tiles, .. } => hot_tilings()
            .into_iter()
            .filter(|v| v.tiles() <= max_tiles)
            .collect(),
        _ => Vec::new(),
    };
    let zipf = Zipf::new(hot.len().max(1));
    // Objects this stream inserted and has not removed yet: a remove only
    // ever targets one of them.
    let mut live: Vec<[f64; 4]> = Vec::new();

    at.into_iter()
        .enumerate()
        .map(|(i, at)| {
            let op = match stream {
                Stream::Hot { .. } => {
                    let u = (0.5 + i as f64 * 0.618_033_988_749_894_9).fract();
                    Op::Browse(hot[zipf.at(u)])
                }
                Stream::Cold { .. } => {
                    Op::Browse(cold_view(i + index * COLD_SIDES.len() / 2, &mut rng))
                }
                Stream::Writes { browse_every, .. } => {
                    if browse_every.is_some_and(|k| i % k == k - 1) {
                        Op::Browse(WORLD_36X18)
                    } else if !live.is_empty() && rng.unit() < 0.2 {
                        Op::Remove(live.swap_remove(rng.below(live.len())))
                    } else {
                        let r = write_rect(&mut rng);
                        live.push(r);
                        Op::Insert(r)
                    }
                }
            };
            Scheduled { at, op }
        })
        .collect()
}

/// Both connections' schedules over `[0, span)`.
pub fn schedule(w: &Workload, seed: u64, span: Duration) -> [Vec<Scheduled>; 2] {
    let mix = |i: u64| seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ (0x5851_f42d_4c95_7f2d * i);
    [
        stream_schedule(w.streams[0], 0, mix(1), span),
        stream_schedule(w.streams[1], 1, mix(2), span),
    ]
}

/// The seeded dataset a workload preloads, `objects / scale` records.
pub fn dataset(w: &Workload, seed: u64, scale: usize) -> Dataset {
    adl_like(&AdlConfig {
        count: (w.objects / scale.max(1)).max(1),
        seed: seed ^ 0x41_444c,
        ..AdlConfig::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_identical_schedules_and_different_seeds_differ() {
        let span = Duration::from_secs(2);
        for w in &WORKLOADS {
            let a = schedule(w, 7, span);
            assert_eq!(a, schedule(w, 7, span), "{}", w.name);
            assert_ne!(a, schedule(w, 8, span), "{}", w.name);
            assert!(a.iter().all(|s| !s.is_empty()), "{}", w.name);
        }
        assert_eq!(
            dataset(&WORKLOADS[0], 3, 100).rects(),
            dataset(&WORKLOADS[0], 3, 100).rects()
        );
        assert_ne!(
            dataset(&WORKLOADS[0], 3, 100).rects(),
            dataset(&WORKLOADS[0], 4, 100).rects()
        );
    }

    #[test]
    fn schedules_are_valid_for_the_grid() {
        for w in &WORKLOADS {
            for stream in schedule(w, 11, Duration::from_secs(3)) {
                assert!(stream.windows(2).all(|p| p[0].at <= p[1].at));
                let mut inserted = Vec::new();
                for s in stream {
                    match s.op {
                        Op::Browse(v) => {
                            let [x0, y0, x1, y1] = v.region;
                            assert!(x0 < x1 && x1 <= GRID.0 && y0 < y1 && y1 <= GRID.1);
                            assert!(v.cols <= x1 - x0 && v.rows <= y1 - y0);
                            assert!(v.tiles() <= 16_200);
                        }
                        Op::Insert(r) => {
                            assert!(r[0] < r[2] && r[1] < r[3] && r[2] <= 360.0 && r[3] <= 180.0);
                            inserted.push(r);
                        }
                        Op::Remove(r) => {
                            let at = inserted.iter().position(|x| *x == r);
                            inserted.swap_remove(at.expect("removes target this stream's inserts"));
                        }
                        Op::Ping => panic!("workload schedules send no pings"),
                    }
                }
            }
        }
    }

    #[test]
    fn the_hot_set_fits_the_cache_and_the_mixed_half_is_small() {
        let hot = hot_tilings();
        assert_eq!(hot.len(), 48);
        assert!(hot.len() <= 256);
        assert_eq!(hot.iter().filter(|v| v.tiles() <= 648).count(), 24);
    }
}
