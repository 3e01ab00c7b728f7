//! Regression gate over bench JSON summaries (`browse_sweep`,
//! `ingest_throughput`, `hugegrid`): compares a candidate `BENCH_*.json`
//! against a committed baseline and fails (exit 1) when any baseline
//! entry's speedup regresses by more than 15 %, or when the candidate
//! lacks a baseline entry — a bench that stops emitting an id would
//! otherwise pass with that id unchecked. Compare a quick run with the
//! quick baseline and a full run with the full one.
//!
//! Std-only — the workspace has no JSON serializer, so both files are
//! string-parsed in the exact one-entry-per-line shape the benches
//! write. Candidate ids the baseline lacks are ignored. Absolute
//! nanosecond numbers are ignored too — machines differ — but each
//! speedup is a machine-relative ratio and must hold.
//!
//! ```text
//! bench_diff <baseline.json> <candidate.json>
//! ```

use std::process::ExitCode;

/// Allowed relative speedup loss before the gate fails.
const TOLERANCE: f64 = 0.15;

/// One parsed `browse_sweep` entry.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Configuration id, e.g. `360x180/Q10`.
    pub id: String,
    /// Sweep speedup over the per-tile loop.
    pub speedup: f64,
}

/// Extracts the string value of `"key":"..."` from a JSON entry line.
fn string_field(line: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":\"");
    let start = line.find(&needle)? + needle.len();
    let end = line[start..].find('"')?;
    Some(line[start..start + end].to_string())
}

/// Extracts the numeric value of `"key":...` from a JSON entry line.
fn number_field(line: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses every entry line of a `browse_sweep` JSON summary.
pub fn parse_entries(body: &str) -> Vec<BenchEntry> {
    body.lines()
        .filter_map(|line| {
            Some(BenchEntry {
                id: string_field(line, "id")?,
                speedup: number_field(line, "speedup")?,
            })
        })
        .collect()
}

/// Compares candidate entries against the baseline; returns one line per
/// regression or missing baseline id (empty = gate passes).
pub fn regressions(baseline: &[BenchEntry], candidate: &[BenchEntry]) -> Vec<String> {
    let mut out = Vec::new();
    for base in baseline {
        let Some(cand) = candidate.iter().find(|c| c.id == base.id) else {
            out.push(format!("{}: missing from the candidate", base.id));
            continue;
        };
        let floor = base.speedup * (1.0 - TOLERANCE);
        if cand.speedup < floor {
            out.push(format!(
                "{}: speedup {:.3}x fell below {:.3}x (baseline {:.3}x - {:.0}%)",
                base.id,
                cand.speedup,
                floor,
                base.speedup,
                TOLERANCE * 100.0
            ));
        }
    }
    out
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (Some(base_path), Some(cand_path)) = (args.next(), args.next()) else {
        eprintln!("usage: bench_diff <baseline.json> <candidate.json>");
        return ExitCode::FAILURE;
    };
    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(body) => {
            let entries = parse_entries(&body);
            if entries.is_empty() {
                eprintln!("bench_diff: no entries parsed from {path}");
                return None;
            }
            Some(entries)
        }
        Err(e) => {
            eprintln!("bench_diff: read {path}: {e}");
            None
        }
    };
    let (Some(baseline), Some(candidate)) = (read(&base_path), read(&cand_path)) else {
        return ExitCode::FAILURE;
    };

    println!(
        "bench_diff: {} baseline / {} candidate entries",
        baseline.len(),
        candidate.len()
    );

    let failures = regressions(&baseline, &candidate);
    for f in &failures {
        eprintln!("REGRESSION {f}");
    }
    if failures.is_empty() {
        println!(
            "bench_diff: every baseline speedup within {:.0}%",
            TOLERANCE * 100.0
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "bench": "browse_sweep",
  "entries": [
    {"id":"360x180/Q10","tiles":648,"per_tile_ns":100000,"sweep_ns":40000,"speedup":2.500},
    {"id":"360x180/Q2","tiles":16200,"per_tile_ns":2000000,"sweep_ns":500000,"speedup":4.000}
  ]
}
"#;

    #[test]
    fn parses_the_emitted_shape() {
        let entries = parse_entries(SAMPLE);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].id, "360x180/Q10");
        assert_eq!(entries[0].speedup, 2.5);
        assert_eq!(entries[1].speedup, 4.0);
    }

    #[test]
    fn within_tolerance_passes_and_regression_fails() {
        let baseline = parse_entries(SAMPLE);
        // 2.20 vs 2.50 baseline is a 12% loss: inside the 15% budget.
        let ok = vec![
            BenchEntry {
                id: "360x180/Q10".into(),
                speedup: 2.20,
            },
            BenchEntry {
                id: "360x180/Q2".into(),
                speedup: 4.10,
            },
        ];
        assert!(regressions(&baseline, &ok).is_empty());
        // 2.00 vs 2.50 is a 20% loss: over budget.
        let mut bad = ok;
        bad[0].speedup = 2.00;
        let fails = regressions(&baseline, &bad);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("360x180/Q10"));
    }

    #[test]
    fn unmatched_ids_are_skipped() {
        // A candidate id the baseline lacks is not gated.
        let baseline = parse_entries(SAMPLE);
        let mut candidate = baseline.clone();
        candidate.push(BenchEntry {
            id: "720x360/Q5".into(),
            speedup: 0.1,
        });
        assert!(regressions(&baseline, &candidate).is_empty());
    }

    #[test]
    fn a_baseline_id_missing_from_the_candidate_fails() {
        let baseline = parse_entries(SAMPLE);
        let fails = regressions(&baseline, &baseline[..1]);
        assert_eq!(fails, vec!["360x180/Q2: missing from the candidate"]);
        assert_eq!(regressions(&baseline, &[]).len(), 2);
    }
}
