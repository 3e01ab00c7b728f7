//! The streamed preload: a CSV folded line by line into one bulk build
//! gives the histogram `EulerHistogram::build` makes over the collected
//! rects, byte for byte, in every line-ending and comment variant; and a
//! `geobrowse serve --data-dir` boot either seeds an empty store at
//! version N or, on a bad line, fails with that line's number and leaves
//! the store at version 0.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use spatial_histograms::datagen::io::{load_csv_histogram, IoError};
use spatial_histograms::datagen::{adl_like, sz_skew, AdlConfig, Dataset, SzSkewConfig};
use spatial_histograms::prelude::*;
use spatial_histograms::wal::{DurableConfig, DurableLive};

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("preload-stream-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The same records as `csv`, in the layouts the reader must accept.
fn variants(csv: &str) -> Vec<(&'static str, String)> {
    let interleaved = |extra: &str| {
        csv.lines()
            .enumerate()
            .map(|(i, l)| {
                if i % 7 == 3 {
                    format!("{extra}\n{l}\n")
                } else {
                    format!("{l}\n")
                }
            })
            .collect::<String>()
    };
    vec![
        ("lf", csv.to_string()),
        ("crlf", csv.replace('\n', "\r\n")),
        ("comments", interleaved("  # a comment, with, commas")),
        ("blank lines", interleaved("   ")),
        ("no final newline", csv.trim_end().to_string()),
    ]
}

#[test]
fn the_streamed_base_equals_a_build_over_the_loaded_rects() {
    let grid = Grid::new(DataSpace::paper_world(), 90, 45).unwrap();
    let dir = fresh_dir("equiv");
    let sets = [
        adl_like(&AdlConfig {
            count: 3_000,
            seed: 11,
            ..AdlConfig::default()
        }),
        sz_skew(&SzSkewConfig {
            count: 3_000,
            seed: 12,
            ..SzSkewConfig::default()
        }),
    ];
    for set in &sets {
        let saved = dir.join(format!("{}.csv", set.name()));
        set.save_csv(&saved).unwrap();
        let csv = std::fs::read_to_string(&saved).unwrap();
        let reference = EulerHistogram::build(grid, set.snap(&grid)).to_bytes();
        for (variant, text) in variants(&csv) {
            let path = dir.join(format!("{}-{}.csv", set.name(), variant.replace(' ', "-")));
            std::fs::write(&path, text).unwrap();
            let loaded = Dataset::load_csv(&path, set.name(), *set.space()).unwrap();
            assert_eq!(loaded.rects(), set.rects(), "{} {variant}", set.name());
            let built = EulerHistogram::build(grid, loaded.snap(&grid)).to_bytes();
            let streamed = load_csv_histogram(&path, grid).unwrap();
            assert_eq!(streamed.object_count(), set.len() as u64);
            assert!(streamed.to_bytes() == built, "{} {variant}", set.name());
            assert!(built == reference, "{} {variant}", set.name());
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

const GRID_FLAG: &str = "36x18";

fn grid() -> Grid {
    Grid::new(DataSpace::paper_world(), 36, 18).unwrap()
}

fn write_csv(path: &Path, rows: usize, last: Option<&str>) {
    let mut text = String::from("# preload\n");
    for i in 0..rows {
        let (x, y) = ((i * 37 % 340) as f64, (i * 53 % 170) as f64);
        text += &format!("{x},{y},{},{}\n", x + 1.5, y + 2.5);
    }
    if let Some(line) = last {
        text += line;
    }
    std::fs::write(path, text).unwrap();
}

/// Boots `geobrowse serve --data-dir dir --data csv`, shuts it down over
/// the wire, and returns its stderr.
fn boot_and_shut_down(dir: &Path, csv: &Path) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_geobrowse"))
        .args(["serve", "--addr", "127.0.0.1:0", "--grid", GRID_FLAG])
        .arg("--data-dir")
        .arg(dir)
        .arg("--data")
        .arg(csv)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut banner = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut banner)
        .unwrap();
    let addr = banner
        .strip_prefix("listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no listening line: {banner:?}"));
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.write_all(b"{\"tenant\":\"t\",\"op\":\"shutdown\"}\n")
        .unwrap();
    let mut reply = String::new();
    BufReader::new(conn).read_line(&mut reply).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{reply}");
    String::from_utf8(out.stderr).unwrap()
}

#[test]
fn a_bad_last_line_fails_boot_and_leaves_the_store_at_version_zero() {
    let dir = fresh_dir("bad");
    let (csv, store) = (dir.join("bad.csv"), dir.join("store"));
    write_csv(&csv, 500, Some("1,2,3\n"));

    // The library preload names the line: a header, 500 rows, then it.
    assert!(matches!(
        load_csv_histogram(&csv, grid()),
        Err(IoError::Parse { line: 502, .. })
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_geobrowse"))
        .args(["serve", "--addr", "127.0.0.1:0", "--grid", GRID_FLAG])
        .arg("--data-dir")
        .arg(&store)
        .arg("--data")
        .arg(&csv)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("line 502:"), "{stderr}");

    let (reopened, report) = DurableLive::open(&store, grid(), DurableConfig::default()).unwrap();
    assert_eq!((report.checkpoint_version, report.version), (0, 0));
    assert!(reopened.is_empty());
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_good_csv_seeds_version_n_and_a_restart_ignores_the_preload() {
    let dir = fresh_dir("good");
    let (csv, other, store) = (dir.join("a.csv"), dir.join("b.csv"), dir.join("store"));
    write_csv(&csv, 300, None);
    write_csv(&other, 40, None);

    let first = boot_and_shut_down(&store, &csv);
    assert!(
        first.contains("checkpoint v300 + 0 replayed = v300"),
        "{first}"
    );
    let second = boot_and_shut_down(&store, &other);
    assert!(
        second.contains("checkpoint v300 + 0 replayed = v300"),
        "{second}"
    );

    let (reopened, report) = DurableLive::open(&store, grid(), DurableConfig::default()).unwrap();
    assert_eq!(report.version, 300);
    let expected = load_csv_histogram(&csv, grid()).unwrap().freeze();
    let tiling = Tiling::new(grid().full(), 6, 3).unwrap();
    let live = LiveSEuler::new(reopened.live().pin());
    let rebuilt = SEulerApprox::new(expected);
    for (_, tile) in tiling.iter() {
        assert_eq!(live.estimate(&tile), rebuilt.estimate(&tile));
    }
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
}
