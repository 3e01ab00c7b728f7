//! The §3 storage argument as a table: Theorem 3.1's `O(N²)` lower bound
//! for exact `contains` structures versus the `O(N)` Euler histogram,
//! across grid resolutions — including the paper's 360×180 @ 1°×1°
//! example (≈ 4 GB exact vs ~258 K buckets approximate) and the §2
//! "rectangles as 4-d points" prefix-sum cube.
//!
//! A second, *measured* table extends the asymptotic argument to the
//! run-compressed prefix-cube tier: dense cube bytes versus the bytes
//! the compressed tier actually holds for a sparse clustered dataset
//! and the saturating road-like mesh, and which tier the freeze
//! heuristic picks. The theorem bounds what exact answers must cost;
//! the measurement shows how far below even the linear dense cube a
//! sparse workload can sit — and where it can't (road meshes touch
//! every Euler row, so dense stays the right call).

use euler_bench::emit_report;
use euler_core::storage::{
    buckets_to_bytes, euler_histogram_buckets, exact_contains_buckets,
    exact_contains_buckets_all_types, human_bytes, point_encoding_buckets,
};
use euler_core::EulerHistogram;
use euler_cube::{Cell, PrefixSum2D};
use euler_datagen::custom::{clustered, ClusterConfig};
use euler_datagen::{road_like, RoadConfig};
use euler_grid::{DataSpace, Grid};
use euler_metrics::TextTable;

fn main() {
    let grids: [(usize, usize, &str); 5] = [
        (36, 18, "10 deg cells"),
        (72, 36, "5 deg cells"),
        (180, 90, "2 deg cells"),
        (360, 180, "1 deg cells (paper)"),
        (720, 360, "0.5 deg cells"),
    ];
    let mut body = String::new();
    body.push_str("Storage bounds (Theorem 3.1 / Section 3)\n\n");
    let mut t = TextTable::new(&[
        "grid",
        "resolution",
        "exact buckets",
        "exact bytes(4B)",
        "exact x4 types",
        "4d-point cells",
        "Euler buckets",
        "Euler bytes(4B)",
    ]);
    for (nx, ny, label) in grids {
        let dims = [nx, ny];
        let exact = exact_contains_buckets(&dims);
        let exact4 = exact_contains_buckets_all_types(&dims);
        let euler = euler_histogram_buckets(&dims);
        t.row(&[
            format!("{nx}x{ny}"),
            label.into(),
            exact.to_string(),
            human_bytes(buckets_to_bytes(exact, 4)),
            human_bytes(buckets_to_bytes(exact4, 1)),
            point_encoding_buckets(&dims).to_string(),
            euler.to_string(),
            human_bytes(buckets_to_bytes(euler, std::mem::size_of::<Cell>())),
        ]);
    }
    body.push_str(&t.render());

    let paper = exact_contains_buckets_all_types(&[360, 180]);
    body.push_str(&format!(
        "\nPaper's Section 3 example: 4 x (360*361)/2 x (180*181)/2 = {} values ~ {} \
         (the paper rounds to \"~4GB\").\n",
        paper,
        human_bytes(buckets_to_bytes(paper, 1))
    ));
    body.push_str(
        "Shape check: exact storage grows ~quadratically in the cell count\n\
         (infeasible at 1 deg), Euler histograms stay linear (a few MB).\n",
    );

    body.push_str("\nMeasured: dense vs run-compressed prefix-cube tier (50k objects)\n\n");
    let sparse = clustered(&ClusterConfig {
        count: 50_000,
        space: DataSpace::paper_world(),
        clusters: 8,
        spread: (0.5, 1.5),
        width: (0.2, 1.5),
        height: (0.2, 1.2),
        seed: 0x4855_4745,
    });
    let road = road_like(&RoadConfig {
        target_count: 50_000,
        towns: 12,
        arterial_spacing: 2.0,
        ..RoadConfig::default()
    });
    let mut m = TextTable::new(&[
        "dataset",
        "grid",
        "dense cube",
        "compressed cube",
        "ratio",
        "freeze() picks",
    ]);
    for (name, ds) in [("clustered", &sparse), ("road_like", &road)] {
        for n in [512usize, 1024, 2048] {
            let grid = Grid::new(DataSpace::paper_world(), n, n).expect("grid dims");
            let hist = EulerHistogram::build(grid, ds.snap(&grid));
            let (ew, eh) = grid.euler_dims();
            let dense = PrefixSum2D::projected_bytes(ew, eh);
            let comp = hist.freeze_compressed().storage_bytes();
            let pick = if hist.freeze().is_compressed() {
                "compressed"
            } else {
                "dense"
            };
            m.row(&[
                name.into(),
                format!("{n}x{n}"),
                human_bytes(dense as u128),
                human_bytes(comp as u128),
                format!("{:.2}x", dense as f64 / comp.max(1) as f64),
                pick.into(),
            ]);
        }
    }
    body.push_str(&m.render());
    body.push_str(
        "\nThe clustered workload's empty rows dedup away (ratio grows with the\n\
         grid); the road mesh's arterials touch every Euler row and column, so\n\
         compression saturates near 1x and the freeze heuristic (compress only\n\
         when the cube clears 2 MiB and shrinks by >= 4x) keeps it dense.\n\
         BENCH_hugegrid.json extends the curve to 4096^2/8192^2 with latency.\n",
    );
    emit_report("table_storage_bounds", &body);
}
