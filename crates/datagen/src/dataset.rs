use euler_geom::Rect;
use euler_grid::{DataSpace, Grid, SnappedRect, Snapper};

/// A named spatial dataset: MBRs in a data space.
#[derive(Debug, Clone)]
pub struct Dataset {
    name: String,
    space: DataSpace,
    rects: Vec<Rect>,
}

impl Dataset {
    /// Creates a dataset. Objects are expected to lie within the space
    /// (generators guarantee it; foreign data is clamped during snapping).
    pub fn new(name: impl Into<String>, space: DataSpace, rects: Vec<Rect>) -> Dataset {
        Dataset {
            name: name.into(),
            space,
            rects,
        }
    }

    /// Dataset name ("sp_skew", …).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The enclosing data space.
    pub fn space(&self) -> &DataSpace {
        &self.space
    }

    /// The object MBRs.
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// Number of objects `|S|`.
    pub fn len(&self) -> usize {
        self.rects.len()
    }

    /// True when the dataset has no objects.
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// Snaps every object for the given grid (parallelized with scoped
    /// threads for the paper-sized datasets).
    pub fn snap(&self, grid: &Grid) -> Vec<SnappedRect> {
        let snapper = Snapper::new(*grid);
        let n = self.rects.len();
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .clamp(1, 8);
        if n < 50_000 || threads == 1 {
            return snapper.snap_all(&self.rects);
        }
        let chunk = n.div_ceil(threads);
        let mut out: Vec<SnappedRect> = Vec::with_capacity(n);
        let chunks: Vec<&[Rect]> = self.rects.chunks(chunk).collect();
        let results: Vec<Vec<SnappedRect>> = std::thread::scope(|s| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|c| s.spawn(move || snapper.snap_all(c)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("snap worker panicked"))
                .collect()
        });
        for mut r in results {
            out.append(&mut r);
        }
        out
    }

    /// Summary statistics (Figure 12-style characterization).
    pub fn stats(&self) -> DatasetStats {
        let mut stats = DatasetStats {
            count: self.rects.len(),
            ..DatasetStats::default()
        };
        if self.rects.is_empty() {
            return stats;
        }
        let mut areas: Vec<f64> = Vec::with_capacity(self.rects.len());
        let mut degenerate = 0usize;
        let mut width_sum = 0.0;
        let mut height_sum = 0.0;
        for r in &self.rects {
            areas.push(r.area());
            width_sum += r.width();
            height_sum += r.height();
            if r.is_degenerate() {
                degenerate += 1;
            }
        }
        areas.sort_by(|a, b| a.partial_cmp(b).expect("finite areas"));
        stats.degenerate = degenerate;
        stats.mean_width = width_sum / self.rects.len() as f64;
        stats.mean_height = height_sum / self.rects.len() as f64;
        stats.median_area = areas[areas.len() / 2];
        stats.p99_area = areas[((areas.len() as f64 * 0.99) as usize).min(areas.len() - 1)];
        stats.max_area = *areas.last().expect("nonempty");
        stats
    }

    /// Histogram of object widths with the given bucket edges — the data
    /// behind Figure 12(b).
    pub fn width_histogram(&self, edges: &[f64]) -> Vec<usize> {
        assert!(edges.windows(2).all(|w| w[0] < w[1]));
        let mut counts = vec![0usize; edges.len() + 1];
        for r in &self.rects {
            let w = r.width();
            let bucket = edges.partition_point(|&e| e <= w);
            counts[bucket] += 1;
        }
        counts
    }

    /// Counts of object centers per cell of an `nx × ny` grid — the data
    /// behind Figure 12(a).
    pub fn center_density(&self, nx: usize, ny: usize) -> Vec<usize> {
        let mut counts = vec![0usize; nx * ny];
        let b = self.space.bounds();
        for r in &self.rects {
            let c = r.center();
            let cx = (((c.x - b.xlo()) / self.space.width() * nx as f64) as usize).min(nx - 1);
            let cy = (((c.y - b.ylo()) / self.space.height() * ny as f64) as usize).min(ny - 1);
            counts[cy * nx + cx] += 1;
        }
        counts
    }
}

/// Summary statistics of a dataset.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DatasetStats {
    /// Number of objects.
    pub count: usize,
    /// Number of degenerate MBRs (points/segments).
    pub degenerate: usize,
    /// Mean object width (data units).
    pub mean_width: f64,
    /// Mean object height (data units).
    pub mean_height: f64,
    /// Median object area.
    pub median_area: f64,
    /// 99th-percentile object area.
    pub p99_area: f64,
    /// Largest object area.
    pub max_area: f64,
}
