//! `geobrowse` — command-line spatial dataset browsing.
//!
//! Loads a CSV of MBRs (or generates one of the paper's datasets), builds
//! an Euler histogram, runs one browsing query (a tiling), and renders the
//! per-tile counts as a terminal heat map with refinement advice. The
//! `stats` subcommand repeats the browse with telemetry on and prints the
//! telemetry readout (latency percentiles, relation totals,
//! zero-hit/mega-hit counters) instead of the heat map. The
//! `serve` subcommand starts the multi-tenant TCP admission layer
//! (line-delimited JSON; see `euler-serve`) over a browse session
//! preloaded with the dataset.
//!
//! ```sh
//! geobrowse --demo adl --tiles 36x18 --relation contains
//! geobrowse --data roads.csv --grid 360x180 --region 100,60,148,108 \
//!           --tiles 22x24 --relation overlap --estimator m --boundaries 3,10
//! geobrowse stats --demo adl --repeat 20 --threads 4
//! geobrowse serve --demo adl --addr 127.0.0.1:7878 --profile dynamic
//! ```

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use spatial_histograms::browse::{advise, render_heatmap, Relation};
use spatial_histograms::core::EulerApprox;
use spatial_histograms::core::{EulerHistogram, MEulerApprox, SEulerApprox};
use spatial_histograms::datagen::io::load_csv_histogram;
use spatial_histograms::datagen::{paper_dataset, Dataset};
use spatial_histograms::metrics::time_it;
use spatial_histograms::prelude::*;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    /// Render the heat map and advice (the default).
    Browse,
    /// Repeat the browse with telemetry on and print the readout.
    Stats,
    /// Serve concurrent browsing sessions over TCP.
    Serve,
}

#[derive(Debug, Clone, PartialEq)]
struct Options {
    command: Command,
    data: Option<String>,
    demo: Option<String>,
    scale: u32,
    grid: (usize, usize),
    tiles: (usize, usize),
    region: Option<(f64, f64, f64, f64)>,
    relation: Relation,
    estimator: String,
    boundaries: Vec<usize>,
    mega: i64,
    repeat: u32,
    threads: usize,
    addr: String,
    profile: String,
    queue: usize,
    deadline_ms: u64,
    cache: usize,
    data_dir: Option<String>,
    fsync: String,
    checkpoint_every: Option<u64>,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            command: Command::Browse,
            data: None,
            demo: None,
            scale: 10,
            grid: (360, 180),
            tiles: (36, 18),
            region: None,
            relation: Relation::Intersect,
            estimator: "s".into(),
            boundaries: vec![3, 10],
            mega: 10_000,
            repeat: 8,
            threads: 1,
            addr: "127.0.0.1:7878".into(),
            profile: "dynamic".into(),
            queue: 8,
            deadline_ms: 250,
            cache: 256,
            data_dir: None,
            fsync: "always".into(),
            checkpoint_every: None,
        }
    }
}

const USAGE: &str = "\
geobrowse — browse a spatial dataset with Euler histograms

USAGE:
  geobrowse [stats|serve] [--data FILE.csv | --demo sp_skew|sz_skew|adl|ca_road]
            [--scale N]            demo dataset size divisor (default 10)
            [--grid NXxNY]         grid cells (default 360x180)
            [--tiles CxR]          tiling columns x rows (default 36x18)
            [--region x0,y0,x1,y1] browse sub-region in data units (grid-aligned)
            [--relation contains|contained|overlap|intersect|disjoint]
            [--estimator s|euler|m]  (default s = S-EulerApprox)
            [--boundaries s1,s2,..]  M-EulerApprox group sides (default 3,10)
            [--mega N]             mega-hit threshold for advice (default 10000)

  stats mode only:
            [--repeat N]           browse passes to record (default 8)
            [--threads N]          engine worker threads (default 1)

  serve mode only (dataset optional — omit to start empty):
            [--addr HOST:PORT]     listen address (default 127.0.0.1:7878; port 0 = ephemeral)
            [--profile dynamic|frozen]  read policy (default dynamic)
            [--queue N]            per-tenant in-flight cap (default 8)
            [--deadline-ms N]      default per-request budget (default 250)
            [--cache N]            hot-tiling cache capacity (default 256)
            [--data-dir PATH]      durable store directory: replay the WAL +
                                   checkpoint on boot, log every write before
                                   acking it, drain the WAL on shutdown; a
                                   dataset seeds only an empty store
            [--fsync always|every=N|never]  WAL fsync policy (default always)
            [--checkpoint-every N] auto-checkpoint every N acknowledged writes
";

fn parse_pair<T: std::str::FromStr>(s: &str, sep: char) -> Option<(T, T)> {
    let mut it = s.split(sep);
    let a = it.next()?.trim().parse().ok()?;
    let b = it.next()?.trim().parse().ok()?;
    it.next().is_none().then_some((a, b))
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut i = 0;
    match args.first().map(String::as_str) {
        Some("stats") => {
            o.command = Command::Stats;
            i = 1;
        }
        Some("serve") => {
            o.command = Command::Serve;
            i = 1;
        }
        _ => {}
    }
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value after {}", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--data" => o.data = Some(value(&mut i)?),
            "--demo" => o.demo = Some(value(&mut i)?),
            "--scale" => {
                o.scale = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --scale: {e}"))?
            }
            "--grid" => {
                let (nx, ny) =
                    parse_pair(&value(&mut i)?, 'x').ok_or("bad --grid, expected NXxNY")?;
                // Checked here, so an oversized grid is a usage error
                // before anything allocates.
                Grid::new(DataSpace::paper_world(), nx, ny)
                    .map_err(|e| format!("bad --grid: {e}"))?;
                o.grid = (nx, ny);
            }
            "--tiles" => {
                o.tiles = parse_pair(&value(&mut i)?, 'x').ok_or("bad --tiles, expected CxR")?
            }
            "--region" => {
                let v = value(&mut i)?;
                let parts: Vec<f64> = v
                    .split(',')
                    .map(|p| p.trim().parse())
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("bad --region: {e}"))?;
                if parts.len() != 4 {
                    return Err("bad --region, expected x0,y0,x1,y1".into());
                }
                o.region = Some((parts[0], parts[1], parts[2], parts[3]));
            }
            "--relation" => {
                o.relation = match value(&mut i)?.as_str() {
                    "contains" => Relation::Contains,
                    "contained" => Relation::Contained,
                    "overlap" => Relation::Overlap,
                    "intersect" => Relation::Intersect,
                    "disjoint" => Relation::Disjoint,
                    other => return Err(format!("unknown relation {other:?}")),
                }
            }
            "--estimator" => {
                o.estimator = value(&mut i)?;
                if !["s", "euler", "m"].contains(&o.estimator.as_str()) {
                    return Err(format!("unknown estimator {:?}", o.estimator));
                }
            }
            "--boundaries" => {
                o.boundaries = value(&mut i)?
                    .split(',')
                    .map(|p| p.trim().parse())
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("bad --boundaries: {e}"))?
            }
            "--mega" => {
                o.mega = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --mega: {e}"))?
            }
            "--repeat" => {
                o.repeat = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --repeat: {e}"))?
            }
            "--threads" => {
                o.threads = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?
            }
            "--addr" => o.addr = value(&mut i)?,
            "--profile" => {
                o.profile = value(&mut i)?;
                if !["dynamic", "frozen"].contains(&o.profile.as_str()) {
                    return Err(format!("unknown profile {:?}", o.profile));
                }
            }
            "--queue" => {
                o.queue = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --queue: {e}"))?
            }
            "--deadline-ms" => {
                o.deadline_ms = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --deadline-ms: {e}"))?
            }
            "--cache" => {
                o.cache = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --cache: {e}"))?
            }
            "--data-dir" => o.data_dir = Some(value(&mut i)?),
            "--fsync" => {
                o.fsync = value(&mut i)?;
                if parse_fsync(&o.fsync).is_none() {
                    return Err(format!(
                        "bad --fsync {:?}, expected always|every=N|never",
                        o.fsync
                    ));
                }
            }
            "--checkpoint-every" => {
                let n: u64 = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --checkpoint-every: {e}"))?;
                if n == 0 {
                    return Err("--checkpoint-every must be at least 1".into());
                }
                o.checkpoint_every = Some(n);
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if o.data.is_none() && o.demo.is_none() && o.command != Command::Serve {
        return Err("one of --data or --demo is required".into());
    }
    if o.data.is_some() && o.demo.is_some() {
        return Err("--data and --demo are mutually exclusive".into());
    }
    if o.repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }
    if o.data_dir.is_some() && o.profile == "frozen" {
        return Err("--data-dir requires the dynamic profile (durable reads pin current)".into());
    }
    Ok(o)
}

/// Parses the `--fsync` flag: `always`, `never`, or `every=N` (N ≥ 1).
fn parse_fsync(s: &str) -> Option<spatial_histograms::wal::FsyncPolicy> {
    use spatial_histograms::wal::FsyncPolicy;
    match s {
        "always" => Some(FsyncPolicy::Always),
        "never" => Some(FsyncPolicy::Never),
        _ => {
            let n: u32 = s.strip_prefix("every=")?.parse().ok()?;
            (n >= 1).then_some(FsyncPolicy::EveryN(n))
        }
    }
}

/// Builds the selected estimator behind a shareable handle, timing the build.
fn build_estimator(
    o: &Options,
    grid: Grid,
    objects: &[SnappedRect],
) -> (SharedEstimator, Duration) {
    match o.estimator.as_str() {
        "m" => {
            let boundaries: Vec<f64> = MEulerApprox::boundaries_from_sides(&o.boundaries);
            let (est, t) = time_it(|| MEulerApprox::build(grid, objects, &boundaries));
            (Arc::new(est) as SharedEstimator, t)
        }
        "euler" => {
            let (est, t) =
                time_it(|| EulerApprox::new(EulerHistogram::build(grid, objects).freeze()));
            (Arc::new(est) as SharedEstimator, t)
        }
        _ => {
            let (est, t) =
                time_it(|| SEulerApprox::new(EulerHistogram::build(grid, objects).freeze()));
            (Arc::new(est) as SharedEstimator, t)
        }
    }
}

fn run(o: &Options) -> Result<(), String> {
    let space = DataSpace::paper_world();
    let grid = Grid::new(space, o.grid.0, o.grid.1).map_err(|e| e.to_string())?;

    if o.command == Command::Serve {
        return run_serve(o, grid);
    }

    let dataset: Dataset = if let Some(path) = &o.data {
        Dataset::load_csv(path, path, space).map_err(|e| e.to_string())?
    } else {
        let name = o
            .demo
            .as_deref()
            .ok_or("one of --data or --demo is required")?;
        paper_dataset(name, o.scale.max(1))
            .ok_or_else(|| format!("unknown demo dataset {name:?}"))?
    };
    eprintln!("dataset: {} objects", dataset.len());

    let region = match o.region {
        None => grid.full(),
        Some((x0, y0, x1, y1)) => {
            let r = Rect::new(x0, y0, x1, y1).map_err(|e| e.to_string())?;
            grid.align(&r, 1e-9).map_err(|e| e.to_string())?
        }
    };
    let tiling = Tiling::new(region, o.tiles.0, o.tiles.1).map_err(|e| e.to_string())?;

    let objects = dataset.snap(&grid);
    let (est, build_time) = build_estimator(o, grid, &objects);

    match o.command {
        Command::Serve => unreachable!("serve branches before dataset setup"),
        Command::Stats => run_stats(o, est, build_time, &tiling),
        Command::Browse => {
            let req = BrowseRequest::new().telemetry(false);
            let (result, query_time) =
                time_it(|| run_browse(&est, &Recorder::shared(), &tiling, &req));

            print!("{}", render_heatmap(&result, o.relation));
            let tips = advise(&result, o.relation, o.mega);
            println!(
                "tiles: {} | zero {:.0}% | mega {:.0}% | hottest {:?} | suggestion {:?}",
                tiling.len(),
                100.0 * tips.zero_fraction,
                100.0 * tips.mega_fraction,
                tips.hottest,
                tips.suggestion
            );
            println!(
                "build {:.1} ms | browse {:.3} ms ({:.1} ns/tile)",
                build_time.as_secs_f64() * 1e3,
                query_time.as_secs_f64() * 1e3,
                query_time.as_secs_f64() * 1e9 / tiling.len() as f64
            );
            Ok(())
        }
    }
}

/// `stats` subcommand: browse the tiling `--repeat` times with telemetry
/// on and print the telemetry snapshot instead of a heat map. Every pass
/// feeds the counters, the zero-hit/mega-hit advice included.
fn run_stats(
    o: &Options,
    est: SharedEstimator,
    build_time: Duration,
    tiling: &Tiling,
) -> Result<(), String> {
    if o.repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }
    let recorder = Recorder::shared();
    let req = BrowseRequest::new()
        .threads(o.threads.max(1))
        .mega_threshold(o.mega);
    let mut last_pass = Duration::ZERO;
    for _ in 0..o.repeat {
        last_pass = time_it(|| run_browse(&est, &recorder, tiling, &req)).1;
    }

    print!("{}", recorder.snapshot().render());
    println!(
        "build {:.1} ms | {} passes x {} tiles on {} thread(s) | last pass {:.1} queries/s",
        build_time.as_secs_f64() * 1e3,
        o.repeat,
        tiling.len(),
        req.effective_threads(),
        tiling.len() as f64 / last_pass.as_secs_f64().max(1e-9)
    );
    Ok(())
}

/// `serve` subcommand: preload a browse session with the dataset (if
/// any) and run the multi-tenant TCP admission layer until a tenant
/// sends `{"op":"shutdown"}`.
///
/// The preload is one bulk-built histogram, made before any session or
/// store is touched: a `--data` CSV streams line by line into it (so a
/// bad line fails boot before a store exists), and it is served at
/// epoch 1 / version N, or seeds an empty `--data-dir` store as its
/// version-N checkpoint.
fn run_serve(o: &Options, grid: Grid) -> Result<(), String> {
    use spatial_histograms::serve::{ServeConfig, ServeCore, Server};

    let preload = if let Some(path) = &o.data {
        load_csv_histogram(std::path::Path::new(path), grid).map_err(|e| e.to_string())?
    } else if let Some(name) = &o.demo {
        let dataset = paper_dataset(name, o.scale.max(1))
            .ok_or_else(|| format!("unknown demo dataset {name:?}"))?;
        let snapper = Snapper::new(grid);
        EulerHistogram::build(grid, dataset.rects().iter().map(|r| snapper.snap(r)))
    } else {
        EulerHistogram::new(grid)
    };

    let mut profile = o.profile.clone();
    let session: Arc<dyn BrowseSession> = if let Some(dir) = &o.data_dir {
        use spatial_histograms::serve::DurableSession;
        use spatial_histograms::wal::DurableConfig;

        let mut cfg = DurableConfig::default();
        cfg.wal.fsync = parse_fsync(&o.fsync).ok_or("bad --fsync")?;
        if o.checkpoint_every.is_some() {
            cfg.checkpoint_every = o.checkpoint_every;
        }
        // A fresh store is seeded with the preload as one checkpoint
        // (versions 1..=N), atomically; a recovered one keeps its own
        // (durably acknowledged) history.
        let (s, report) = DurableSession::open_preloaded(std::path::Path::new(dir), cfg, preload)
            .map_err(|e| format!("cannot open durable store {dir:?}: {e}"))?;
        eprintln!(
            "recovered {dir}: checkpoint v{} + {} replayed = v{} ({} segment(s))",
            report.checkpoint_version, report.replayed, report.version, report.segments_scanned
        );
        if let Some(tear) = &report.torn_tail {
            eprintln!(
                "warning: torn WAL tail truncated in segment {} at offset {} ({})",
                tear.segment, tear.offset, tear.reason
            );
        }
        profile = "durable".into();
        Arc::new(s)
    } else if o.profile == "frozen" {
        Arc::new(GeoBrowsingService::preloaded(preload))
    } else {
        Arc::new(DynamicGeoBrowsingService::preloaded(preload))
    };

    let config = ServeConfig {
        queue_capacity: o.queue.max(1),
        default_deadline: Duration::from_millis(o.deadline_ms.max(1)),
        cache_capacity: o.cache,
        ..ServeConfig::default()
    };
    let server = Server::start(ServeCore::new(session, config), &o.addr)
        .map_err(|e| format!("cannot listen on {}: {e}", o.addr))?;
    // Single stdout line so wrapper scripts can scrape the bound port.
    println!(
        "listening on {} ({} profile, {} objects)",
        server.addr(),
        profile,
        server.core().session().len()
    );
    server.join().map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(o) => match run(&o) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(msg) => {
            let is_help = msg.is_empty();
            if !is_help {
                eprintln!("error: {msg}\n");
            }
            eprint!("{USAGE}");
            if is_help {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let o = parse_args(&args(&[
            "--demo",
            "adl",
            "--grid",
            "180x90",
            "--tiles",
            "10x5",
            "--region",
            "0,0,180,90",
            "--relation",
            "contains",
            "--estimator",
            "m",
            "--boundaries",
            "3,5,10",
            "--mega",
            "500",
        ]))
        .unwrap();
        assert_eq!(o.command, Command::Browse);
        assert_eq!(o.demo.as_deref(), Some("adl"));
        assert_eq!(o.grid, (180, 90));
        assert_eq!(o.tiles, (10, 5));
        assert_eq!(o.region, Some((0.0, 0.0, 180.0, 90.0)));
        assert_eq!(o.relation, Relation::Contains);
        assert_eq!(o.estimator, "m");
        assert_eq!(o.boundaries, vec![3, 5, 10]);
        assert_eq!(o.mega, 500);
    }

    #[test]
    fn parses_the_stats_subcommand() {
        let o = parse_args(&args(&[
            "stats",
            "--demo",
            "adl",
            "--repeat",
            "20",
            "--threads",
            "4",
        ]))
        .unwrap();
        assert_eq!(o.command, Command::Stats);
        assert_eq!(o.repeat, 20);
        assert_eq!(o.threads, 4);
        // The subcommand keyword only counts in first position.
        assert!(parse_args(&args(&["--demo", "adl", "stats"])).is_err());
    }

    #[test]
    fn parses_the_serve_subcommand() {
        let o = parse_args(&args(&[
            "serve",
            "--demo",
            "adl",
            "--addr",
            "127.0.0.1:0",
            "--profile",
            "frozen",
            "--queue",
            "4",
            "--deadline-ms",
            "100",
            "--cache",
            "32",
        ]))
        .unwrap();
        assert_eq!(o.command, Command::Serve);
        assert_eq!(o.addr, "127.0.0.1:0");
        assert_eq!(o.profile, "frozen");
        assert_eq!((o.queue, o.deadline_ms, o.cache), (4, 100, 32));
        // serve may start without a dataset; other modes may not.
        assert!(parse_args(&args(&["serve"])).is_ok());
        assert!(parse_args(&args(&["serve", "--profile", "warm"])).is_err());
    }

    #[test]
    fn parses_the_durability_flags() {
        let o = parse_args(&args(&[
            "serve",
            "--data-dir",
            "/tmp/store",
            "--fsync",
            "every=64",
            "--checkpoint-every",
            "4096",
        ]))
        .unwrap();
        assert_eq!(o.data_dir.as_deref(), Some("/tmp/store"));
        assert_eq!(o.fsync, "every=64");
        assert_eq!(o.checkpoint_every, Some(4096));
        assert!(matches!(
            parse_fsync(&o.fsync),
            Some(spatial_histograms::wal::FsyncPolicy::EveryN(64))
        ));
        assert!(parse_args(&args(&["serve", "--fsync", "sometimes"])).is_err());
        assert!(parse_args(&args(&["serve", "--checkpoint-every", "0"])).is_err());
        // Durability pins current state on reads: the frozen profile
        // cannot be durable.
        assert!(parse_args(&args(&[
            "serve",
            "--data-dir",
            "/tmp/store",
            "--profile",
            "frozen"
        ]))
        .is_err());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&args(&[])).is_err());
        assert!(parse_args(&args(&["--demo", "adl", "--data", "x.csv"])).is_err());
        assert!(parse_args(&args(&["--demo", "adl", "--grid", "bad"])).is_err());
        assert!(parse_args(&args(&["--demo", "adl", "--relation", "nope"])).is_err());
        assert!(parse_args(&args(&["--demo"])).is_err());
        assert!(parse_args(&args(&["--bogus"])).is_err());
        assert!(parse_args(&args(&["stats", "--demo", "adl", "--repeat", "0"])).is_err());
    }

    #[test]
    fn serve_accepts_one_cell_wide_grids() {
        // The live histogram every serve profile keeps has no minimum
        // grid size.
        let o = parse_args(&args(&["serve", "--grid", "1x5"])).unwrap();
        assert_eq!(o.grid, (1, 5));
        assert!(parse_args(&args(&["serve", "--grid", "5x1", "--data-dir", "store"])).is_ok());
        assert!(parse_args(&args(&["serve", "--grid", "1x1", "--profile", "frozen"])).is_ok());
    }

    #[test]
    fn grids_past_the_bucket_cap_are_usage_errors() {
        // Refused while parsing, by arithmetic alone: nothing allocates.
        for grid in ["100000x100000", "16385x16385"] {
            let err = parse_args(&args(&["serve", "--grid", grid])).unwrap_err();
            assert!(
                err.starts_with("bad --grid") && err.contains("Euler buckets"),
                "{err}"
            );
        }
        assert!(parse_args(&args(&["--demo", "adl", "--grid", "100000x100000"])).is_err());
        assert!(parse_args(&args(&["serve", "--grid", "8192x8192"])).is_ok());
    }

    #[test]
    fn defaults_are_sane() {
        let o = parse_args(&args(&["--demo", "sp_skew"])).unwrap();
        assert_eq!(o.command, Command::Browse);
        assert_eq!(o.grid, (360, 180));
        assert_eq!(o.tiles, (36, 18));
        assert_eq!(o.relation, Relation::Intersect);
        assert_eq!(o.estimator, "s");
        assert_eq!(o.repeat, 8);
        assert_eq!(o.threads, 1);
    }
}
