//! The paper's §7 future-work direction: using Level 2 estimates for
//! **spatial query optimization**. A join-order chooser picks which side
//! of a spatial selection to drive from estimated result cardinalities,
//! and Level 2 relations let it distinguish cheap `contains` candidates
//! (fully inside the window — no refinement step needed) from `overlap`
//! candidates that require exact geometry tests.
//!
//! ```sh
//! cargo run --release --example query_optimizer
//! ```

use spatial_histograms::baselines::MinSkew;
use spatial_histograms::core::{EulerHistogram, Level2Estimator, SEulerApprox};
use spatial_histograms::datagen::{adl_like, sp_skew, AdlConfig, SpSkewConfig};
use spatial_histograms::prelude::*;

/// A mock cost model: candidates that only need an MBR check (contains)
/// cost 1 unit; overlap candidates need exact-geometry refinement, 25
/// units; disjoint objects cost nothing because the index prunes them.
fn plan_cost(c: &RelationCounts) -> i64 {
    c.contains + 25 * (c.overlaps + c.contained)
}

fn main() {
    let grid = Grid::paper_default();
    let maps = adl_like(&AdlConfig {
        count: 150_000,
        ..AdlConfig::default()
    });
    let sensors = sp_skew(&SpSkewConfig {
        count: 150_000,
        ..SpSkewConfig::default()
    });

    let maps_est = SEulerApprox::new(EulerHistogram::build(grid, maps.snap(&grid)).freeze());
    let sensors_est = SEulerApprox::new(EulerHistogram::build(grid, sensors.snap(&grid)).freeze());
    // A Level 1 baseline the optimizer would have used before this paper.
    let maps_l1 = MinSkew::build(&grid, &maps.snap(&grid), 64);

    println!("window           | side     | contains | overlap | est cost | L1 intersect");
    println!("-----------------+----------+----------+---------+----------+-------------");
    for (label, q) in [
        (
            "city (2x2)",
            GridRect::new(100, 60, 102, 62, &grid).unwrap(),
        ),
        (
            "state (12x8)",
            GridRect::new(96, 56, 108, 64, &grid).unwrap(),
        ),
        (
            "continent (60x40)",
            GridRect::new(60, 40, 120, 80, &grid).unwrap(),
        ),
    ] {
        let m = maps_est.estimate(&q).clamped();
        let s = sensors_est.estimate(&q).clamped();
        for (side, c) in [("maps", &m), ("sensors", &s)] {
            println!(
                "{label:<17}| {side:<9}| {:>8} | {:>7} | {:>8} | {:>12}",
                c.contains,
                c.overlaps,
                plan_cost(c),
                if side == "maps" {
                    format!("{:.0}", maps_l1.intersect_estimate(&q))
                } else {
                    "-".into()
                }
            );
        }
        let driver = if plan_cost(&m) <= plan_cost(&s) {
            "maps"
        } else {
            "sensors"
        };
        println!("{label:<17}| -> drive the join from `{driver}`");
    }

    println!(
        "\nThe Level 1 estimate (last column) cannot separate refinement-free\n\
         `contains` candidates from expensive `overlap` ones — that is the\n\
         capability gap this paper closes (Section 2)."
    );
}
