//! Plain-text dataset I/O, so users can bring their own MBR collections
//! (e.g. a TIGER/Line extract exported to CSV) into the browsing service
//! and persist generated datasets for cross-tool comparisons.
//!
//! Format: one `xlo,ylo,xhi,yhi` record per line, `#`-prefixed comment
//! lines ignored; the first comment line written by [`save_csv`] records
//! the dataset name and space for humans. Coordinates round-trip exactly
//! (Rust's float formatting is shortest-round-trip).
//!
//! One parser, [`CsvRects`], streams the records; [`load_csv`] collects
//! it into a [`Dataset`] and [`load_csv_histogram`] folds it straight
//! into an [`EulerHistogram`] without holding the objects.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use euler_core::{EulerHistogram, MAX_OBJECTS};
use euler_geom::Rect;
use euler_grid::{DataSpace, Grid, Snapper};

use crate::Dataset;

/// Errors from dataset I/O.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// A data line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse { line, reason } => write!(f, "line {line}: {reason}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> IoError {
        IoError::Io(e)
    }
}

/// Writes a dataset as CSV.
pub fn save_csv(dataset: &Dataset, path: &Path) -> Result<(), IoError> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    let b = dataset.space().bounds();
    writeln!(
        out,
        "# spatial-histograms dataset \"{}\" in [{}, {}]x[{}, {}]; xlo,ylo,xhi,yhi",
        dataset.name(),
        b.xlo(),
        b.xhi(),
        b.ylo(),
        b.yhi()
    )?;
    for r in dataset.rects() {
        writeln!(out, "{},{},{},{}", r.xlo(), r.ylo(), r.xhi(), r.yhi())?;
    }
    out.flush()?;
    Ok(())
}

/// Longest line the CSV reader accepts: every byte before the `\n`
/// counts, a CRLF line's `\r` included. A record is four
/// shortest-round-trip `f64`s, about 100 bytes; the cap bounds what one
/// line can make the reader buffer. A longer `#` comment line is skipped
/// to its end instead, so a [`save_csv`] header with a long dataset name
/// still loads.
pub const MAX_LINE_BYTES: usize = 4096;

/// A streaming CSV reader: one `Result<Rect, IoError>` per data line,
/// parsed through one reused line buffer, so reading holds
/// `O(MAX_LINE_BYTES)` memory whatever the file size.
///
/// Rules: `#` comment lines and blank lines are skipped; every line is
/// trimmed (so CRLF files load); a data line is exactly four
/// comma-separated `xlo,ylo,xhi,yhi` fields, parsed as `f64` (exact round
/// trip) and validated by [`Rect::new`]. Each failure is an
/// [`IoError::Parse`] naming its 1-based line, and ends the iteration.
pub struct CsvRects<R> {
    reader: R,
    buf: Vec<u8>,
    line: usize,
    done: bool,
}

impl CsvRects<BufReader<std::fs::File>> {
    /// Opens `path` for streaming.
    pub fn open(path: &Path) -> Result<Self, IoError> {
        Ok(CsvRects::new(BufReader::new(std::fs::File::open(path)?)))
    }
}

impl<R: BufRead> CsvRects<R> {
    /// Streams records from `reader`.
    pub fn new(reader: R) -> Self {
        CsvRects {
            reader,
            buf: Vec::new(),
            line: 0,
            done: false,
        }
    }

    /// The next data line's record, or `None` at the end of input.
    fn next_record(&mut self) -> Result<Option<Rect>, IoError> {
        loop {
            self.buf.clear();
            let cap = MAX_LINE_BYTES as u64 + 1;
            if (&mut self.reader)
                .take(cap)
                .read_until(b'\n', &mut self.buf)?
                == 0
            {
                return Ok(None);
            }
            self.line += 1;
            let line = self.line;
            let fail = |reason: String| IoError::Parse { line, reason };
            if self.buf.len() > MAX_LINE_BYTES && self.buf.last() != Some(&b'\n') {
                // Cut off at the cap: skip the rest of a comment, refuse data.
                let head = String::from_utf8_lossy(&self.buf);
                if !head.trim_start().starts_with('#') {
                    return Err(fail(format!("line longer than {MAX_LINE_BYTES} bytes")));
                }
                self.reader.skip_until(b'\n')?;
                continue;
            }
            let text = std::str::from_utf8(&self.buf)
                .map_err(|e| fail(format!("invalid UTF-8 at byte {}", e.valid_up_to() + 1)))?;
            let trimmed = text.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            return parse_record(trimmed).map(Some).map_err(fail);
        }
    }
}

impl<R: BufRead> Iterator for CsvRects<R> {
    type Item = Result<Rect, IoError>;

    fn next(&mut self) -> Option<Result<Rect, IoError>> {
        if self.done {
            return None;
        }
        let item = self.next_record().transpose();
        self.done = !matches!(item, Some(Ok(_)));
        item
    }
}

/// Parses one trimmed data line.
fn parse_record(text: &str) -> Result<Rect, String> {
    let mut fields = [""; 4];
    let mut count = 0;
    for field in text.split(',') {
        if let Some(slot) = fields.get_mut(count) {
            *slot = field;
        }
        count += 1;
    }
    if count != 4 {
        return Err(format!("expected 4 fields, got {count}"));
    }
    let mut vals = [0f64; 4];
    for (v, p) in vals.iter_mut().zip(fields) {
        *v = p
            .trim()
            .parse()
            .map_err(|e| format!("bad number {p:?}: {e}"))?;
    }
    Rect::new(vals[0], vals[1], vals[2], vals[3]).map_err(|e| e.to_string())
}

/// Reads a dataset from CSV into the given space (records are clamped to
/// the space during snapping, not here). Collects [`CsvRects`].
pub fn load_csv(path: &Path, name: &str, space: DataSpace) -> Result<Dataset, IoError> {
    let rects = CsvRects::open(path)?.collect::<Result<Vec<_>, _>>()?;
    Ok(Dataset::new(name, space, rects))
}

/// Streams a CSV straight into a bulk-built histogram over `grid`: each
/// record is snapped and folded into the build's difference array as it
/// is read, so no `Vec` of the objects is ever held and peak memory is
/// the grid's own arrays whatever the row count. Fails with the first
/// bad line's [`IoError::Parse`] — and with one naming the first record
/// past [`MAX_OBJECTS`], the most objects a histogram can count.
pub fn load_csv_histogram(path: &Path, grid: Grid) -> Result<EulerHistogram, IoError> {
    load_csv_histogram_capped(path, grid, MAX_OBJECTS)
}

/// [`load_csv_histogram`] with the object cap as a parameter.
fn load_csv_histogram_capped(path: &Path, grid: Grid, cap: u64) -> Result<EulerHistogram, IoError> {
    let snapper = Snapper::new(grid);
    let mut rects = CsvRects::open(path)?;
    let mut error = None;
    let mut count = 0u64;
    let snapped = std::iter::from_fn(|| match rects.next()? {
        Ok(_) if count == cap => {
            let reason = format!("more than {cap} objects, the histogram's bound");
            error = Some(IoError::Parse {
                line: rects.line,
                reason,
            });
            None
        }
        Ok(r) => {
            count += 1;
            Some(snapper.snap(&r))
        }
        Err(e) => {
            error = Some(e);
            None
        }
    });
    let hist = EulerHistogram::build(grid, snapped);
    error.map_or(Ok(hist), Err)
}

impl Dataset {
    /// Writes the dataset as CSV (see [`save_csv`]).
    pub fn save_csv(&self, path: impl AsRef<Path>) -> Result<(), IoError> {
        save_csv(self, path.as_ref())
    }

    /// Reads a dataset from CSV (see [`load_csv`]).
    pub fn load_csv(
        path: impl AsRef<Path>,
        name: &str,
        space: DataSpace,
    ) -> Result<Dataset, IoError> {
        load_csv(path.as_ref(), name, space)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sp_skew, SpSkewConfig};

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "euler-datagen-test-{tag}-{}.csv",
            std::process::id()
        ));
        p
    }

    #[test]
    fn round_trip_exact() {
        let d = sp_skew(&SpSkewConfig {
            count: 500,
            ..SpSkewConfig::default()
        });
        let path = temp_path("roundtrip");
        d.save_csv(&path).unwrap();
        let back = Dataset::load_csv(&path, d.name(), *d.space()).unwrap();
        assert_eq!(d.rects(), back.rects());
        std::fs::remove_file(&path).ok();
    }

    /// A CSV past the object cap fails on the first record over it,
    /// naming its line; one at the cap loads.
    #[test]
    fn records_past_the_object_cap_are_refused() {
        let path = temp_path("cap");
        std::fs::write(&path, "# three records\n1,1,2,2\n\n3,3,4,4\n5,5,6,6\n").unwrap();
        let grid = Grid::new(crate::paper_space(), 36, 18).unwrap();
        let at_cap = load_csv_histogram_capped(&path, grid, 3).unwrap();
        assert_eq!(at_cap.object_count(), 3);
        match load_csv_histogram_capped(&path, grid, 2) {
            Err(IoError::Parse { line, reason }) => {
                assert_eq!(line, 5);
                assert!(reason.contains("more than 2 objects"), "{reason}");
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
        assert_eq!(load_csv_histogram(&path, grid).unwrap(), at_cap);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let path = temp_path("comments");
        std::fs::write(&path, "# header\n\n1,2,3,4\n # another\n5.5,6.5,7.5,8.5\n").unwrap();
        let d = Dataset::load_csv(&path, "t", crate::paper_space()).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.rects()[1], Rect::new(5.5, 6.5, 7.5, 8.5).unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let path = temp_path("bad");
        std::fs::write(&path, "1,2,3,4\n1,2,3\n").unwrap();
        match Dataset::load_csv(&path, "t", crate::paper_space()) {
            Err(IoError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        std::fs::write(&path, "9,2,3,4\n").unwrap();
        assert!(matches!(
            Dataset::load_csv(&path, "t", crate::paper_space()),
            Err(IoError::Parse { line: 1, .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    fn parse_bytes(bytes: &[u8]) -> Result<Vec<Rect>, IoError> {
        CsvRects::new(bytes).collect()
    }

    #[test]
    fn invalid_utf8_names_its_line() {
        let path = temp_path("utf8");
        std::fs::write(&path, b"# header\n1,2,3,4\n5,\xff,7,8\n").unwrap();
        match Dataset::load_csv(&path, "t", crate::paper_space()) {
            Err(IoError::Parse { line, reason }) => {
                assert_eq!(line, 3);
                assert!(reason.contains("UTF-8"), "{reason}");
            }
            other => panic!("expected a line-3 parse error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn an_overlong_line_fails_with_its_line_number() {
        let path = temp_path("long");
        std::fs::write(&path, vec![b'1'; 4 << 20]).unwrap();
        match Dataset::load_csv(&path, "t", crate::paper_space()) {
            Err(IoError::Parse { line, reason }) => {
                assert_eq!(line, 1);
                assert!(reason.contains("longer than"), "{reason}");
            }
            other => panic!("expected a line-1 parse error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();

        // The cap counts every byte before the `\n`: a record padded to
        // it loads, one byte more fails.
        let exact = format!("1,2,3,{:<1$}", 4, MAX_LINE_BYTES - 6);
        assert_eq!(exact.len(), MAX_LINE_BYTES);
        assert_eq!(
            parse_bytes(format!("{exact}\n").as_bytes()).unwrap().len(),
            1
        );
        assert_eq!(parse_bytes(exact.as_bytes()).unwrap().len(), 1);
        assert!(matches!(
            parse_bytes(format!("{exact} \n").as_bytes()),
            Err(IoError::Parse { line: 1, .. })
        ));
    }

    /// An endless line stops the reader after the cap plus one buffer
    /// fill, instead of growing a line buffer without bound.
    #[test]
    fn an_endless_line_reads_a_bounded_prefix() {
        struct Endless(usize);
        impl std::io::Read for Endless {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                buf.fill(b'7');
                self.0 += buf.len();
                Ok(buf.len())
            }
        }
        const BUF: usize = 8 << 10;
        let mut source = Endless(0);
        let mut rects = CsvRects::new(BufReader::with_capacity(BUF, &mut source));
        assert!(matches!(
            rects.next(),
            Some(Err(IoError::Parse { line: 1, .. }))
        ));
        assert!(rects.next().is_none(), "a failure ends the stream");
        drop(rects);
        assert!(
            source.0 <= MAX_LINE_BYTES + 1 + BUF,
            "read {} bytes",
            source.0
        );
    }

    #[test]
    fn a_long_comment_is_skipped_not_rejected() {
        let name = "n".repeat(3 * MAX_LINE_BYTES);
        let d = Dataset::new(
            name.clone(),
            crate::paper_space(),
            vec![Rect::new(1.0, 2.0, 3.0, 4.0).unwrap()],
        );
        let path = temp_path("longname");
        d.save_csv(&path).unwrap();
        let back = Dataset::load_csv(&path, &name, *d.space()).unwrap();
        assert_eq!(back.rects(), d.rects());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn field_count_is_checked_before_numbers() {
        match parse_bytes(b"1,2,3,4\nx,2,3,4,5\n") {
            Err(IoError::Parse { line: 2, reason }) => {
                assert_eq!(reason, "expected 4 fields, got 5")
            }
            other => panic!("{other:?}"),
        }
        match parse_bytes(b"1,2,x,4\n") {
            Err(IoError::Parse { line: 1, reason }) => {
                assert!(reason.starts_with("bad number \"x\""), "{reason}")
            }
            other => panic!("{other:?}"),
        }
    }
}
