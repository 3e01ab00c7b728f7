//! The metric catalogue `BENCHMARK.json` mirrors, and the report a run
//! fills in.

use std::collections::BTreeMap;

/// Which direction is an improvement; only `BENCHMARK.json` and the test
/// that mirrors it read this.
#[cfg_attr(not(test), allow(dead_code))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg_attr(not(test), allow(dead_code))]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
    /// End-to-end metrics only: the share of the median by which the
    /// metric may worsen before it counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Measured over TCP against the `geobrowse serve` process, tracing off.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", 0.25),
    e2e("p50_ms", "ms", 0.25),
    e2e("boot_rss_mb", "MB", 0.05),
];

/// Measured by the traced in-process run; README.md maps each to the
/// end-to-end metric and workload it should move.
pub const PER_LAYER: &[Metric] = &[
    layer("serve.wire_rtt_p50_us", "us", Lower),
    layer("serve.wire_rtt_p99_us", "us", Lower),
    layer("serve.parse_p50_us", "us", Lower),
    layer("serve.encode_p50_us", "us", Lower),
    layer("serve.encode_p99_us", "us", Lower),
    layer("serve.reply_bytes_mean", "B", Lower),
    layer("serve.handle_self_p50_us", "us", Lower),
    layer("serve.handle_self_p99_us", "us", Lower),
    layer("serve.cache_hit_ratio", "ratio", Higher),
    layer("serve.cache_evictions", "count", Lower),
    layer("serve.shed", "count", Lower),
    layer("serve.degraded", "count", Lower),
    layer("browse.pin_p50_us", "us", Lower),
    layer("browse.pin_mean_us", "us", Lower),
    layer("browse.preload_s", "s", Lower),
    layer("engine.sweep_share", "ratio", Higher),
    layer("engine.degraded_sweeps", "count", Lower),
    layer("engine.batch_mean_us", "us", Lower),
    layer("core.estimate_calls_per_browse", "count", Lower),
    layer("core.estimate_p50_us", "us", Lower),
    layer("core.estimate_mean_us", "us", Lower),
    layer("core.ns_per_tile", "ns", Lower),
    layer("core.delta_len_mean", "count", Lower),
    layer("core.refreezes", "count", Lower),
    layer("session.write_p50_us", "us", Lower),
    layer("session.write_p99_us", "us", Lower),
    layer("session.sync_us", "us", Lower),
    layer("wal.segments", "count", Lower),
    layer("wal.disk_bytes_per_write", "B", Lower),
    layer("wal.replayed", "count", Lower),
    layer("datagen.csv_load_s", "s", Lower),
    layer("loadgen.late_p99_ms", "ms", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
    layer("trace.unattributed_frac", "ratio", Lower),
];

/// The values one run measured, by metric name. A value that could not be
/// measured (too few samples for its percentile) is absent.
#[derive(Debug, Default, Clone)]
pub struct Report(pub BTreeMap<&'static str, f64>);

impl Report {
    pub fn set(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(v) = value.filter(|v| v.is_finite()) {
            self.0.insert(name, v);
        }
    }

    /// Every metric of `set`, in order, or the names of those missing.
    pub fn complete(&self, set: &[Metric]) -> Result<Vec<(Metric, f64)>, Vec<&'static str>> {
        let missing: Vec<_> = set
            .iter()
            .filter(|m| !self.0.contains_key(m.name))
            .map(|m| m.name)
            .collect();
        if missing.is_empty() {
            Ok(set.iter().map(|m| (*m, self.0[m.name])).collect())
        } else {
            Err(missing)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use spatial_histograms::serve::{parse_json, Json};

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_metric_and_workload_name_is_valid_and_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        let setup = END_TO_END[0].bound.unwrap();
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.unwrap() <= setup && setup <= 0.25));
    }

    /// `BENCHMARK.json` at the repository root lists exactly this
    /// catalogue and these workloads.
    #[test]
    fn benchmark_json_mirrors_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = parse_json(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| json.get(key).and_then(Json::as_array).unwrap().to_vec();
        let str_of = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap().to_string();

        let workloads: Vec<String> = list("workloads")
            .iter()
            .map(|w| str_of(w, "name"))
            .collect();
        let want: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, want);

        for (key, set) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let got = list(key);
            assert_eq!(got.len(), set.len(), "{key}");
            for (j, m) in got.iter().zip(set) {
                assert_eq!(str_of(j, "name"), m.name);
                assert_eq!(str_of(j, "unit"), m.unit, "{}", m.name);
                assert_eq!(str_of(j, "better"), m.better.as_str(), "{}", m.name);
                assert_eq!(j.get("bound").and_then(Json::as_f64), m.bound, "{}", m.name);
            }
        }
    }
}
