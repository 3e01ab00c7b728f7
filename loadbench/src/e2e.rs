//! The untraced run: the `geobrowse serve` binary driven over TCP, using
//! only its command line and wire protocol.

use std::path::Path;
use std::time::Duration;

use spatial_histograms::datagen::Dataset;
use spatial_histograms::grid::DataSpace;

use crate::check::{keep_mask, kept_answers, observed_from_json, Observed, Reference};
use crate::inproc::{grid, store_files};
use crate::metrics::Report;
use crate::stats::{mean, median, percentile, sorted};
use crate::wire::{self, round_trip, ServerProc};
use crate::workload::{
    dataset, hot_tilings, schedule, Op, Profile, View, Workload, GRID, WARMUP, WORLD_36X18,
};

/// Server starts per run; `setup_s` and `boot_rss_mb` are their medians,
/// which a burst of host load during one start does not move.
const SETUPS: usize = 5;
/// Reboots of a copy of the durable store after shutdown.
const REBOOTS: usize = 3;

pub struct E2e {
    pub report: Report,
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
    /// Set when the generator fell more than 1% behind the offered rate.
    pub invalid: Option<String>,
    /// Printed alongside the metrics: (name, value, unit).
    pub extra: Vec<(&'static str, f64, &'static str)>,
}

/// `geobrowse serve` flags for `w`; `csv` is omitted when rebooting a store.
fn server_args(w: &Workload, csv: Option<&Path>, store: &Path) -> Vec<String> {
    let mut args = vec![
        "serve".to_string(),
        "--addr".into(),
        "127.0.0.1:0".into(),
        "--grid".into(),
        format!("{}x{}", GRID.0, GRID.1),
    ];
    match w.profile {
        Profile::Frozen => args.extend(["--profile".into(), "frozen".into()]),
        Profile::Dynamic => {}
        Profile::Durable => args.extend([
            "--fsync".into(),
            "always".into(),
            "--data-dir".into(),
            store.display().to_string(),
        ]),
    }
    if let Some(csv) = csv {
        args.extend(["--data".into(), csv.display().to_string()]);
    }
    args
}

fn browse(addr: std::net::SocketAddr, v: &View) -> Result<Observed, String> {
    let line = round_trip(addr, &Op::Browse(*v).line("check"))
        .map_err(|e| format!("browse {v:?}: {e}"))?;
    observed_from_json(&line).ok_or_else(|| format!("browse {v:?}: not a complete answer: {line}"))
}

pub fn e2e_run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    bin: &Path,
    work: &Path,
) -> Result<E2e, String> {
    let csv = work.join("data.csv");
    dataset(w, seed, 1)
        .save_csv(&csv)
        .map_err(|e| format!("cannot write {}: {e}", csv.display()))?;
    let rects = Dataset::load_csv(&csv, w.name, DataSpace::paper_world())
        .map_err(|e| e.to_string())?
        .rects()
        .to_vec();

    let (mut setups, mut boot_rss) = (Vec::new(), Vec::new());
    let mut server = None;
    for k in 0..SETUPS {
        let store = work.join(format!("store{k}"));
        let args = server_args(w, Some(&csv), &store);
        let s = ServerProc::spawn(bin, &args, &work.join(format!("server{k}.err")))
            .map_err(|e| e.to_string())?;
        setups.push(s.setup.as_secs_f64());
        boot_rss.push(s.peak_rss_mb().map_err(|e| e.to_string())?);
        server = Some(s); // the previous one is dropped, which kills it
    }
    let server = server.expect("at least one setup");

    let streams = schedule(w, seed, WARMUP + Duration::from_secs_f64(seconds));
    let keep = keep_mask(w, &streams);
    let outcomes = wire::drive(server.addr, &streams, &keep)
        .map_err(|e| format!("driving the server: {e}"))?;
    let peak_rss = server.peak_rss_mb().map_err(|e| e.to_string())?;

    let mut reference = Reference::new(grid(), &rects);
    reference.record(&streams, &outcomes)?;
    let (mut answers, mut failures) = kept_answers(&streams, &outcomes, &keep);
    if w.streams
        .iter()
        .all(|s| matches!(s, crate::workload::Stream::Hot { .. }))
    {
        // Every hot tiling is checked, also those the run never asked for.
        for v in hot_tilings() {
            if !answers.iter().any(|(seen, _)| *seen == v) {
                answers.push((v, browse(server.addr, &v)?));
            }
        }
    }
    let last = if w.profile == Profile::Durable {
        let last = browse(server.addr, &WORLD_36X18)?;
        if last.version != reference.last_version() {
            failures.push(format!(
                "final browse at version {}, last acknowledged {}",
                last.version,
                reference.last_version()
            ));
        }
        answers.push((WORLD_36X18, last.clone()));
        Some(last)
    } else {
        None
    };
    failures.extend(reference.verify(&answers));
    server.shutdown().map_err(|e| format!("shutdown: {e}"))?;

    let mut extra = Vec::new();
    if let Some(last) = last {
        let store = work.join(format!("store{}", SETUPS - 1));
        let (_, bytes) = store_files(&store)?;
        let acked = reference.last_version().max(1) as f64;
        extra.push(("disk_bytes_per_write", bytes as f64 / acked, "B"));
        let mut recover = Vec::new();
        for r in 0..REBOOTS {
            let copy = work.join(format!("reboot{r}"));
            copy_dir(&store, &copy)?;
            let s = ServerProc::spawn(
                bin,
                &server_args(w, None, &copy),
                &work.join(format!("reboot{r}.err")),
            )
            .map_err(|e| e.to_string())?;
            recover.push(s.setup.as_secs_f64());
            let want = format!("= v{} (", reference.last_version());
            if !s.stderr_text().contains(&want) {
                failures.push(format!(
                    "reboot {r} did not recover version {}: {}",
                    reference.last_version(),
                    s.stderr_text().trim()
                ));
            }
            if browse(s.addr, &WORLD_36X18)? != last {
                failures.push(format!("reboot {r} answers the 36x18 browse differently"));
            }
            s.shutdown().map_err(|e| format!("reboot shutdown: {e}"))?;
        }
        extra.push(("recover_s", median(&recover).expect("reboots ran"), "s"));
    }

    // Only ops due inside the measured window count.
    let warm = WARMUP.as_nanos() as u64;
    let (mut all, mut late) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let mut shortfall: f64 = 0.0;
    for c in 0..2 {
        let mut last_due = 0;
        let mut last_sent = 0;
        for (s, o) in streams[c].iter().zip(&outcomes[c]) {
            let due = s.at.as_nanos() as u64;
            if due < warm {
                continue;
            }
            attempted += 1;
            late.push(o.sent_ns.saturating_sub(due) as f64);
            (last_due, last_sent) = (due, o.sent_ns);
            match o.latency_ns(due) {
                Some(ns) => all.push(ns as f64 / 1e6),
                None => failed += 1,
            }
        }
        if last_due > warm {
            let offered = (last_due - warm) as f64;
            shortfall = shortfall.max((last_sent.saturating_sub(warm)) as f64 / offered - 1.0);
        }
    }
    let (all, late) = (sorted(all), sorted(late));
    let mut report = Report::default();
    report.set("setup_s", median(&setups));
    report.set("p50_ms", percentile(&all, 0.5));
    report.set("boot_rss_mb", median(&boot_rss));
    // Printed but not bounded: README.md explains why.
    let shown = [
        ("mean_ms", mean(&all), "ms"),
        ("p99_ms", percentile(&all, 0.99), "ms"),
        ("peak_rss_mb", Some(peak_rss), "MB"),
        (
            "loadgen.late_p99_ms",
            percentile(&late, 0.99).map(|l| l / 1e6),
            "ms",
        ),
    ];
    extra.extend(shown.into_iter().filter_map(|(n, v, u)| Some((n, v?, u))));
    extra.push(("attempted", attempted as f64, "count"));
    extra.push(("failed", failed as f64, "count"));
    let invalid = (shortfall > 0.01).then(|| {
        format!(
            "the generator sent {:.1}% slower than the offered rate",
            100.0 * shortfall
        )
    });
    Ok(E2e {
        report,
        attempted,
        failed,
        failures,
        invalid,
        extra,
    })
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}
