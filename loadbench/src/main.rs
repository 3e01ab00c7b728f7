//! `loadbench` — an open-loop load benchmark of `geobrowse serve`.
//!
//! The untraced run starts the release `geobrowse` binary (found next to
//! this one), replays a seeded schedule over two TCP connections and
//! reports what a client sees. The traced run (`--trace 1`) replays the
//! same kind of schedule in process with spans around the calls into each
//! layer and reports the per-layer breakdown. Both check every answer they
//! sample against a reference rebuild and exit nonzero on a wrong one.
//! See README.md in this directory.

mod check;
mod e2e;
mod inproc;
mod metrics;
mod stats;
mod trace;
mod wire;
mod workload;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use metrics::{Metric, Report, END_TO_END, PER_LAYER};
use workload::Workload;

const USAGE: &str = "\
usage: loadbench --workload NAME --seed N [--seconds S] [--trace 0|1]
                 [--runs K] [--json PATH] [--trace-out PATH]

  --workload   browse-hot | browse-cold | live-mixed | durable-feed
  --seed       seeds the dataset, the arrival times and the ops
  --seconds    measured window (default 10)
  --trace 1    the traced in-process run: per-layer metrics
  --runs K     repeat the untraced run K times and compare the runs
  --json PATH  also write the result object to PATH
  --trace-out  write the traced run's spans to PATH as JSON lines

Run it through run.sh, which builds geobrowse and loadbench first.
";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    json: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed) = (None, None);
    let mut a = Args {
        workload: &workload::WORKLOADS[0],
        seed: 0,
        seconds: 10.0,
        trace: false,
        runs: 1,
        json: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(workload::find(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                a.seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?}, expected 0 or 1")),
                }
            }
            "--runs" => {
                a.runs = value()?.parse().map_err(|e| format!("bad --runs: {e}"))?;
                if a.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--json" => a.json = Some(value()?.into()),
            "--trace-out" => a.trace_out = Some(value()?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    a.workload = workload.ok_or("--workload is required")?;
    a.seed = seed.ok_or("--seed is required")?;
    if a.trace && a.runs > 1 {
        return Err("--runs repeats the untraced run; it cannot be combined with --trace 1".into());
    }
    Ok(a)
}

/// A scratch directory under `.loadbench/` in the working directory,
/// removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> Result<WorkDir, String> {
        let dir = Path::new(".loadbench").join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one invocation hands to the output step.
struct Outcome {
    set: &'static [Metric],
    report: Report,
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
    /// False when `--runs` found two runs further apart than a bound, or a
    /// run the generator could not keep up with.
    steady: bool,
}

fn traced(a: &Args, work: &Path) -> Result<Outcome, String> {
    let t = inproc::traced_run(a.workload, a.seed, a.seconds, 1, work)?;
    if let Some(path) = &a.trace_out {
        let mut out = String::new();
        for (thread, id, s) in &t.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"thread":{},"id":{},"parent":{parent},"req":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                thread,
                id,
                s.req,
                s.name.as_str(),
                s.start_ns,
                s.end_ns
            );
        }
        std::fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(Outcome {
        set: PER_LAYER,
        report: t.report,
        attempted: t.attempted,
        failed: t.failed,
        failures: t.failures,
        steady: true,
    })
}

fn untraced(a: &Args, work: &Path) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bin = exe.with_file_name("geobrowse");
    if !bin.is_file() {
        return Err(format!(
            "{} not found; run loadbench through run.sh",
            bin.display()
        ));
    }
    let name = a.workload.name;
    let mut runs = Vec::new();
    for r in 0..a.runs {
        let dir = work.join(format!("{r}"));
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let run = e2e::e2e_run(a.workload, a.seed, a.seconds, &bin, &dir)?;
        for (metric, value, unit) in &run.extra {
            eprintln!("{name} {metric} {value} {unit}");
        }
        if let Some(why) = &run.invalid {
            eprintln!("warning: run {r} is invalid: {why}");
        }
        runs.push(run);
    }
    // A single run that fell behind is only flagged; repeated runs must all keep up.
    let mut steady = runs.len() == 1 || runs.iter().all(|r| r.invalid.is_none());
    let mut report = Report::default();
    for m in END_TO_END {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.report.0.get(m.name).copied())
            .collect();
        let median = stats::median(&values);
        report.set(m.name, median);
        if runs.len() > 1 {
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
            let apart = hi / lo - 1.0;
            let within = m.bound.is_some_and(|b| apart <= b);
            steady &= within;
            let listed: Vec<String> = values.iter().map(f64::to_string).collect();
            println!(
                "{name} {} runs=[{}] median={} spread={:.4} bound={} {}",
                m.name,
                listed.join(" "),
                median.unwrap_or(f64::NAN),
                (hi - lo) / median.unwrap_or(f64::NAN),
                m.bound.unwrap_or(f64::NAN),
                if within { "ok" } else { "EXCEEDS BOUND" }
            );
        }
    }
    Ok(Outcome {
        set: END_TO_END,
        report,
        attempted: runs.iter().map(|r| r.attempted).sum(),
        failed: runs.iter().map(|r| r.failed).sum(),
        failures: runs.into_iter().flat_map(|r| r.failures).collect(),
        steady,
    })
}

fn run(a: &Args) -> Result<bool, String> {
    eprintln!("{}: {}", a.workload.name, a.workload.why);
    let work = WorkDir::new()?;
    let out = if a.trace {
        traced(a, &work.0)?
    } else {
        untraced(a, &work.0)?
    };
    let metrics = out
        .report
        .complete(out.set)
        .map_err(|missing| format!("too few samples to report {}", missing.join(", ")))?;
    let name = a.workload.name;
    let mut fields = Vec::new();
    for (m, v) in &metrics {
        println!("{name} {} {v} {}", m.name, m.unit);
        fields.push(format!(
            r#""{}": {{"value": {v}, "unit": "{}"}}"#,
            m.name, m.unit
        ));
    }
    for f in &out.failures {
        eprintln!("wrong answer: {f}");
    }
    let correct = out.failures.is_empty();
    let json = format!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        out.attempted,
        out.failed,
        fields.join(", ")
    );
    if let Some(path) = &a.json {
        std::fs::write(path, format!("{json}\n"))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!("{json}");
    Ok(correct && out.steady)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&a) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&args(
            "--workload live-mixed --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("live-mixed", 3, 10.0, true)
        );
        assert!(parse_args(&args("--seed 3")).is_err());
        assert!(parse_args(&args("--workload nope --seed 3")).is_err());
        assert!(parse_args(&args("--workload browse-hot --seed 3 --trace 2")).is_err());
        assert!(parse_args(&args("--workload browse-hot --seed 3 --trace 1 --runs 2")).is_err());
    }

    /// Every workload at 1/100 of its objects for 0.6 s, in process,
    /// with every answer check on.
    #[test]
    fn smoke_all_workloads_in_process() {
        let root = std::env::temp_dir().join(format!("loadbench-smoke-{}", std::process::id()));
        for w in &workload::WORKLOADS {
            let work = root.join(w.name);
            std::fs::create_dir_all(&work).unwrap();
            let t = inproc::traced_run(w, 5, 0.6, 100, &work).unwrap();
            assert!(t.failures.is_empty(), "{}: {:?}", w.name, t.failures);
            // An unoptimized build can run past a browse deadline; such a
            // browse is degraded (failed), never wrong.
            assert!(t.failed < t.attempted, "{}", w.name);
        }
        let _ = std::fs::remove_dir_all(root);
    }
}
