//! Segment files: `wal-<seq>.log`, a fixed header followed by record
//! frames, plus the scanner that classifies damage as torn tail vs hard
//! corruption.

use std::path::{Path, PathBuf};

use euler_core::DeltaOp;

use crate::record::{decode_frame, FrameFailure, FRAME_LEN};
use crate::WalError;

pub(crate) const SEGMENT_MAGIC: &[u8; 4] = b"EWAL";
pub(crate) const SEGMENT_FORMAT: u32 = 1;
/// magic + format + seq + first_version.
pub(crate) const SEGMENT_HEADER_LEN: usize = 4 + 4 + 8 + 8;

/// Renders the canonical file name for segment `seq`.
pub(crate) fn segment_file_name(seq: u64) -> String {
    format!("wal-{seq:06}.log")
}

/// Parses `wal-<digits>.log` into a sequence number; `None` for any
/// other file name.
pub(crate) fn parse_segment_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Lists segment files in `dir`, sorted by sequence number. Two files
/// parsing to the same seq (e.g. `wal-7.log` and `wal-000007.log`) are
/// a hard [`WalError::DuplicateSegment`].
pub(crate) fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, WalError> {
    let mut found: Vec<(u64, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        if let Some(seq) = parse_segment_name(&name.to_string_lossy()) {
            found.push((seq, entry.path()));
        }
    }
    found.sort_by_key(|(seq, _)| *seq);
    for pair in found.windows(2) {
        if pair[0].0 == pair[1].0 {
            return Err(WalError::DuplicateSegment(pair[0].0));
        }
    }
    Ok(found)
}

/// Encodes a segment header.
pub(crate) fn encode_header(seq: u64, first_version: u64) -> [u8; SEGMENT_HEADER_LEN] {
    let mut h = [0u8; SEGMENT_HEADER_LEN];
    h[0..4].copy_from_slice(SEGMENT_MAGIC);
    h[4..8].copy_from_slice(&SEGMENT_FORMAT.to_le_bytes());
    h[8..16].copy_from_slice(&seq.to_le_bytes());
    h[16..24].copy_from_slice(&first_version.to_le_bytes());
    h
}

/// One parsed record with its position, for replay and reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScannedRecord {
    /// Write-log version the record carries.
    pub version: u64,
    /// The operation.
    pub op: DeltaOp,
    /// Byte offset of the record's frame within its segment.
    pub offset: u64,
}

/// How a segment scan ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScanEnd {
    /// The segment ends exactly on a frame boundary.
    Clean,
    /// The final segment ends in a torn write: everything from `offset`
    /// on is unparseable and nothing valid follows. The recovery path
    /// truncates the file here.
    Torn {
        /// Offset the tail should be truncated to.
        offset: u64,
        /// What the torn bytes failed as.
        reason: String,
    },
}

/// Scans one segment image. `is_last` selects the tail-tolerance rule:
/// in the last segment a trailing unparseable region with **no** valid
/// frame after it is a torn tail; anywhere else (or with a valid frame
/// after it) the same damage is hard corruption, because acknowledged
/// records demonstrably follow it. The first record must carry the
/// header's `first_version`.
pub(crate) fn scan_segment(
    bytes: &[u8],
    seq: u64,
    is_last: bool,
) -> Result<(Vec<ScannedRecord>, ScanEnd), WalError> {
    if bytes.len() < SEGMENT_HEADER_LEN {
        // A header is written in one syscall at creation; a short one on
        // the last segment is a torn creation (no records can be lost).
        if is_last {
            return Ok((
                Vec::new(),
                ScanEnd::Torn {
                    offset: 0,
                    reason: "truncated segment header".into(),
                },
            ));
        }
        return Err(WalError::Corrupt {
            segment: seq,
            offset: 0,
            what: "truncated segment header".into(),
        });
    }
    if &bytes[0..4] != SEGMENT_MAGIC {
        return Err(WalError::Corrupt {
            segment: seq,
            offset: 0,
            what: "bad segment magic".into(),
        });
    }
    let format = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if format != SEGMENT_FORMAT {
        return Err(WalError::Corrupt {
            segment: seq,
            offset: 4,
            what: format!("unsupported segment format {format}"),
        });
    }
    let header_seq = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    if header_seq != seq {
        return Err(WalError::Corrupt {
            segment: seq,
            offset: 8,
            what: format!("segment header claims seq {header_seq}"),
        });
    }
    let first_version = u64::from_le_bytes(bytes[16..24].try_into().unwrap());

    let mut records = Vec::new();
    let mut offset = SEGMENT_HEADER_LEN;
    let mut end = ScanEnd::Clean;
    while offset < bytes.len() {
        match decode_frame(&bytes[offset..]) {
            Ok(((version, op), used)) => {
                records.push(ScannedRecord {
                    version,
                    op,
                    offset: offset as u64,
                });
                offset += used;
            }
            Err(failure) => {
                end = classify_failure(bytes, seq, is_last, offset, failure)?;
                break;
            }
        }
    }
    if let Some(first) = records.first() {
        if first.version != first_version {
            return Err(WalError::Corrupt {
                segment: seq,
                offset: 16,
                what: format!(
                    "segment header claims first version {first_version}, \
                     its first record is version {}",
                    first.version
                ),
            });
        }
    }
    Ok((records, end))
}

/// An unparseable frame at `offset`: torn tail or hard corruption?
/// Hard if this is not the final segment, or if any complete valid
/// frame parses anywhere after the failure point — acknowledged records
/// follow the damage, so truncation would lose them.
fn classify_failure(
    bytes: &[u8],
    seq: u64,
    is_last: bool,
    offset: usize,
    failure: FrameFailure,
) -> Result<ScanEnd, WalError> {
    let hard = |what: String| WalError::Corrupt {
        segment: seq,
        offset: offset as u64,
        what,
    };
    if !is_last {
        return Err(hard(failure.describe()));
    }
    let resync_from = offset + 1;
    if bytes.len() >= FRAME_LEN {
        for p in resync_from..=bytes.len() - FRAME_LEN {
            if decode_frame(&bytes[p..]).is_ok() {
                return Err(hard(format!(
                    "{} with a valid record after it at offset {p}",
                    failure.describe()
                )));
            }
        }
    }
    Ok(ScanEnd::Torn {
        offset: offset as u64,
        reason: failure.describe(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::encode_frame;
    use euler_grid::SnappedRect;

    fn ops(n: u64) -> Vec<(u64, DeltaOp)> {
        (1..=n)
            .map(|v| {
                let base = v as f64;
                (
                    v,
                    DeltaOp::insert(SnappedRect::from_bounds(
                        base + 0.25,
                        base + 1.75,
                        0.25,
                        1.75,
                    )),
                )
            })
            .collect()
    }

    fn segment(seq: u64, records: &[(u64, DeltaOp)]) -> Vec<u8> {
        let first = records.first().map_or(1, |(v, _)| *v);
        let mut bytes = encode_header(seq, first).to_vec();
        for (v, op) in records {
            bytes.extend_from_slice(&encode_frame(*v, op));
        }
        bytes
    }

    #[test]
    fn names_round_trip_and_reject_noise() {
        assert_eq!(parse_segment_name(&segment_file_name(42)), Some(42));
        assert_eq!(parse_segment_name("wal-7.log"), Some(7));
        assert_eq!(parse_segment_name("wal-.log"), None);
        assert_eq!(parse_segment_name("wal-7a.log"), None);
        assert_eq!(parse_segment_name("checkpoint-7.euh"), None);
        assert_eq!(parse_segment_name("wal-7.log.tmp"), None);
    }

    #[test]
    fn clean_segments_scan_fully() {
        let recs = ops(5);
        let bytes = segment(3, &recs);
        let (scanned, end) = scan_segment(&bytes, 3, true).unwrap();
        assert_eq!(end, ScanEnd::Clean);
        assert_eq!(scanned.len(), 5);
        assert_eq!(scanned[4].version, 5);
    }

    #[test]
    fn torn_tail_at_every_offset_truncates_to_the_last_full_record() {
        let recs = ops(4);
        let full = segment(9, &recs);
        // Cut the file at every byte position past the header: scan must
        // either end clean on a frame boundary or report a torn tail at
        // the last boundary — never a hard error, never a wrong prefix.
        for cut in SEGMENT_HEADER_LEN..full.len() {
            let bytes = &full[..cut];
            let (scanned, end) = scan_segment(bytes, 9, true).unwrap();
            let whole = (cut - SEGMENT_HEADER_LEN) / FRAME_LEN;
            assert_eq!(scanned.len(), whole, "cut at {cut}");
            if (cut - SEGMENT_HEADER_LEN).is_multiple_of(FRAME_LEN) {
                assert_eq!(end, ScanEnd::Clean, "cut at {cut}");
            } else {
                let boundary = SEGMENT_HEADER_LEN + whole * FRAME_LEN;
                match end {
                    ScanEnd::Torn { offset, .. } => {
                        assert_eq!(offset as usize, boundary, "cut at {cut}")
                    }
                    other => panic!("cut at {cut}: expected torn tail, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn mid_log_corruption_is_hard_even_in_the_last_segment() {
        let recs = ops(4);
        let mut bytes = segment(2, &recs);
        // Flip a byte inside record 2's payload: records 3 and 4 still
        // parse, so this is damage before acknowledged records.
        let off = SEGMENT_HEADER_LEN + FRAME_LEN + 20;
        bytes[off] ^= 0xFF;
        match scan_segment(&bytes, 2, true) {
            Err(WalError::Corrupt { segment, .. }) => assert_eq!(segment, 2),
            other => panic!("expected hard corruption, got {other:?}"),
        }
        // The same damage in a non-final segment is also hard.
        match scan_segment(&bytes, 2, false) {
            Err(WalError::Corrupt { .. }) => {}
            other => panic!("expected hard corruption, got {other:?}"),
        }
    }

    #[test]
    fn a_header_first_version_unlike_the_first_record_is_hard() {
        let mut bytes = segment(4, &ops(3));
        bytes[16..24].copy_from_slice(&2u64.to_le_bytes());
        for is_last in [true, false] {
            match scan_segment(&bytes, 4, is_last) {
                Err(WalError::Corrupt {
                    segment, offset, ..
                }) => {
                    assert_eq!((segment, offset), (4, 16))
                }
                other => panic!("expected hard corruption, got {other:?}"),
            }
        }
    }

    #[test]
    fn crc_failing_final_record_is_a_torn_tail() {
        let recs = ops(3);
        let mut bytes = segment(1, &recs);
        let last_payload = bytes.len() - 10;
        bytes[last_payload] ^= 0x55;
        let (scanned, end) = scan_segment(&bytes, 1, true).unwrap();
        assert_eq!(scanned.len(), 2);
        match end {
            ScanEnd::Torn { offset, .. } => {
                assert_eq!(offset as usize, SEGMENT_HEADER_LEN + 2 * FRAME_LEN);
            }
            other => panic!("expected torn tail, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_seq_detection() {
        let dir = std::env::temp_dir().join(format!("euler-wal-dup-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("wal-7.log"), b"x").unwrap();
        std::fs::write(dir.join("wal-000007.log"), b"y").unwrap();
        match list_segments(&dir) {
            Err(WalError::DuplicateSegment(7)) => {}
            other => panic!("expected duplicate segment error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
