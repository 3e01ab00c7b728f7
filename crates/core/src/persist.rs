//! Binary persistence for Euler histograms.
//!
//! Building a histogram over millions of objects takes a dataset scan;
//! serving it needs only the bucket array. This module provides a small
//! versioned little-endian codec so a built histogram can be stored next
//! to the dataset (or shipped to a query front end) and reloaded without
//! re-scanning — the deployment shape of the GeoBrowsing service.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic "EULH" | version u32 | space bounds 4×f64 | nx u64 | ny u64
//! | object_count u64 | bucket_count u64 | buckets i64 × bucket_count
//! | checksum u64 (FNV-1a chain seeded with the header words)
//! ```
//!
//! The checksum is seeded with a mix of every header word (bounds bits,
//! dims, object count, bucket count) and then chains an FNV-1a step per
//! bucket value — position-sensitive, unlike a plain sum, so reshuffles
//! like `(−1, +1) → (0, 0)` that a flipped varint byte can produce are
//! caught too: a single flipped byte *anywhere* in the file — header or
//! payload — fails the decode. The decoder additionally caps the
//! attacker-controlled dimension fields (at [`MAX_EULER_BUCKETS`], the cap
//! `Grid::new` enforces) and
//! validates payload length *before* allocating, so adversarial input
//! can never force an over-allocation or a panic: `from_bytes` on
//! arbitrary bytes always returns `Ok` or a [`PersistError`].
//!
//! Buckets are stored as 64-bit words (format 1) or varints (format 2),
//! while the decoded histogram holds 32-bit cube cells. The decoder
//! therefore also refuses an object count past [`MAX_OBJECTS`], a bucket
//! outside the cell range and buckets whose prefix sums leave it, so a
//! decoded histogram always freezes without overflow.

use euler_cube::{Cell, CubeBuffer};
use euler_geom::Rect;
use euler_grid::{DataSpace, Grid, MAX_EULER_BUCKETS};

use crate::{EulerHistogram, FrozenEulerHistogram, MAX_OBJECTS};

const MAGIC: &[u8; 4] = b"EULH";
const VERSION: u32 = 1;
const VERSION_COMPRESSED: u32 = 2;

/// FNV-1a prime for the bucket-value checksum chain.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// One checksum step: FNV-1a over a bucket value. A run of `r` zeros
/// reduces to `r` multiplications by [`FNV_PRIME`] (xor with 0 is the
/// identity), which [`zero_run_checksum`] folds in `O(log r)`.
fn checksum_step(c: u64, v: i64) -> u64 {
    (c ^ v as u64).wrapping_mul(FNV_PRIME)
}

/// Folds a run of `r` zero buckets into the checksum chain without
/// touching each one: `c · FNV_PRIME^r (mod 2⁶⁴)`.
fn zero_run_checksum(c: u64, r: u64) -> u64 {
    debug_assert!(r <= u32::MAX as u64);
    c.wrapping_mul(FNV_PRIME.wrapping_pow(r as u32))
}

/// The checksum seed mixed from every header word, so header corruption
/// is caught by the same trailing checksum that guards the buckets. Each
/// word gets a distinct rotation so swapped fields don't cancel.
fn header_checksum(
    bounds: [f64; 4],
    nx: u64,
    ny: u64,
    object_count: u64,
    bucket_count: u64,
) -> u64 {
    let words = [
        bounds[0].to_bits(),
        bounds[1].to_bits(),
        bounds[2].to_bits(),
        bounds[3].to_bits(),
        nx,
        ny,
        object_count,
        bucket_count,
    ];
    let mut c = 0xE01E_5EED_0BAD_F00Du64;
    for (i, w) in words.into_iter().enumerate() {
        c = c.wrapping_add(w.rotate_left(i as u32 * 7 + 1));
    }
    c
}

/// Zigzag-encodes a signed value for varint packing.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn get_varint(data: &mut Reader<'_>) -> Result<u64, PersistError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let [byte] = data.take()?;
        if shift >= 64 {
            return Err(PersistError::Corrupt("varint overflow"));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Errors from decoding a persisted histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// Wrong magic bytes — not a persisted Euler histogram.
    BadMagic,
    /// Unsupported format version.
    UnsupportedVersion(u32),
    /// The payload ended early or has trailing garbage.
    Truncated,
    /// Header fields are inconsistent (e.g. bucket count ≠ (2nx−1)(2ny−1)).
    Corrupt(&'static str),
    /// The checksum did not match.
    ChecksumMismatch,
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::BadMagic => write!(f, "not an Euler histogram file"),
            PersistError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            PersistError::Truncated => write!(f, "payload truncated or has trailing bytes"),
            PersistError::Corrupt(what) => write!(f, "corrupt header: {what}"),
            PersistError::ChecksumMismatch => write!(f, "checksum mismatch"),
        }
    }
}

impl std::error::Error for PersistError {}

/// A little-endian read cursor over an encoded image. Every read past the
/// end is [`PersistError::Truncated`], never a panic.
struct Reader<'a> {
    data: &'a [u8],
}

impl Reader<'_> {
    fn remaining(&self) -> usize {
        self.data.len()
    }

    /// The next `N` bytes, for `from_le_bytes`.
    fn take<const N: usize>(&mut self) -> Result<[u8; N], PersistError> {
        let (head, rest) = self
            .data
            .split_first_chunk()
            .ok_or(PersistError::Truncated)?;
        self.data = rest;
        Ok(*head)
    }
}

/// Byte length of the header shared by both format versions.
const HEADER_LEN: usize = 4 + 4 + 32 + 8 * 4;

/// Appends the header for format `version` to `buf` and returns the
/// checksum seed it implies.
fn put_header(buf: &mut Vec<u8>, grid: &Grid, object_count: u64, version: u32) -> u64 {
    let (ew, eh) = grid.euler_dims();
    let b = grid.space().bounds();
    let bounds = [b.xlo(), b.ylo(), b.xhi(), b.yhi()];
    let (nx, ny) = (grid.nx() as u64, grid.ny() as u64);
    let bucket_count = (ew * eh) as u64;
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&version.to_le_bytes());
    for v in bounds {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    for w in [nx, ny, object_count, bucket_count] {
        buf.extend_from_slice(&w.to_le_bytes());
    }
    header_checksum(bounds, nx, ny, object_count, bucket_count)
}

/// The format-2 encoder, fed the buckets one row at a time in row-major
/// order — from a bucket array or differenced out of a frozen cube, the
/// bytes are the same.
struct CompressedEncoder {
    buf: Vec<u8>,
    checksum: u64,
    zero_run: u64,
}

impl CompressedEncoder {
    fn new(grid: &Grid, object_count: u64) -> CompressedEncoder {
        let mut buf = Vec::with_capacity(HEADER_LEN);
        let checksum = put_header(&mut buf, grid, object_count, VERSION_COMPRESSED);
        CompressedEncoder {
            buf,
            checksum,
            zero_run: 0,
        }
    }

    fn row<V: Copy + Into<i64>>(&mut self, row: &[V]) {
        for &v in row {
            let v: i64 = v.into();
            self.checksum = checksum_step(self.checksum, v);
            if v == 0 {
                self.zero_run += 1;
                continue;
            }
            self.flush_zero_run();
            put_varint(&mut self.buf, zigzag(v));
        }
    }

    fn flush_zero_run(&mut self) {
        if self.zero_run > 0 {
            self.buf.push(0); // zero-run marker (zigzag(v) = 0 ⇔ v = 0)
            put_varint(&mut self.buf, self.zero_run);
            self.zero_run = 0;
        }
    }

    fn finish(mut self) -> Vec<u8> {
        self.flush_zero_run();
        self.buf.extend_from_slice(&self.checksum.to_le_bytes());
        self.buf
    }
}

impl FrozenEulerHistogram {
    /// Encodes the frozen histogram in format 2, byte-identical to
    /// [`EulerHistogram::to_bytes_compressed`] on the buckets it
    /// summarizes: each bucket row is recovered by differencing adjacent
    /// prefix rows of the cube, so no bucket array is ever rebuilt. This
    /// is how a live histogram writes its checkpoint image.
    pub fn to_bytes_compressed(&self) -> Vec<u8> {
        let mut enc = CompressedEncoder::new(self.grid(), self.object_count());
        self.cum().for_each_cell_row(|row| enc.row(row));
        enc.finish()
    }
}

impl EulerHistogram {
    /// Encodes the histogram (buckets + grid) into a portable byte buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let (ew, eh) = self.grid().euler_dims();
        let mut buf = Vec::with_capacity(HEADER_LEN + 8 * ew * eh + 8);
        let mut checksum = put_header(&mut buf, self.grid(), self.object_count(), VERSION);
        for ey in 0..eh {
            for ex in 0..ew {
                let v = self.bucket(ex, ey);
                checksum = checksum_step(checksum, v);
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        buf.extend_from_slice(&checksum.to_le_bytes());
        buf
    }

    /// Encodes the histogram with zero-run + zigzag-varint compression
    /// (format version 2). Sparse datasets — which most geographic
    /// collections are at fine resolutions — shrink dramatically; the
    /// tests measure a ≥ 4× reduction on a clustered example. Decode with
    /// the same [`EulerHistogram::from_bytes`].
    pub fn to_bytes_compressed(&self) -> Vec<u8> {
        let mut enc = CompressedEncoder::new(self.grid(), self.object_count());
        for ey in 0..self.grid().euler_dims().1 {
            enc.row(self.bucket_row(ey));
        }
        enc.finish()
    }

    /// Decodes a histogram previously produced by
    /// [`EulerHistogram::to_bytes`] or
    /// [`EulerHistogram::to_bytes_compressed`].
    pub fn from_bytes(data: &[u8]) -> Result<EulerHistogram, PersistError> {
        let mut data = Reader { data };
        if &data.take::<4>()? != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let version = u32::from_le_bytes(data.take()?);
        if version != VERSION && version != VERSION_COMPRESSED {
            return Err(PersistError::UnsupportedVersion(version));
        }
        let xlo = f64::from_le_bytes(data.take()?);
        let ylo = f64::from_le_bytes(data.take()?);
        let xhi = f64::from_le_bytes(data.take()?);
        let yhi = f64::from_le_bytes(data.take()?);
        let nx64 = u64::from_le_bytes(data.take()?);
        let ny64 = u64::from_le_bytes(data.take()?);
        let object_count = u64::from_le_bytes(data.take()?);
        let bucket_count64 = u64::from_le_bytes(data.take()?);
        // Cap the attacker-controlled dimension fields *before* any
        // arithmetic on them (2·nx−1 would overflow for huge nx) and
        // before any allocation sized from them.
        if nx64 == 0 || ny64 == 0 || nx64 > MAX_EULER_BUCKETS || ny64 > MAX_EULER_BUCKETS {
            return Err(PersistError::Corrupt("grid dims"));
        }
        let (ew64, eh64) = (2 * nx64 - 1, 2 * ny64 - 1);
        if ew64 * eh64 > MAX_EULER_BUCKETS || bucket_count64 > MAX_EULER_BUCKETS {
            return Err(PersistError::Corrupt("grid exceeds decode cap"));
        }
        if bucket_count64 != ew64 * eh64 {
            return Err(PersistError::Corrupt("bucket count"));
        }
        if object_count > MAX_OBJECTS {
            return Err(PersistError::Corrupt("object count"));
        }
        let bucket_count = bucket_count64 as usize;
        let bounds =
            Rect::new(xlo, ylo, xhi, yhi).map_err(|_| PersistError::Corrupt("space bounds"))?;
        let grid = Grid::new(DataSpace::new(bounds), nx64 as usize, ny64 as usize)
            .map_err(|_| PersistError::Corrupt("grid dims"))?;
        let (ew, eh) = grid.euler_dims();
        debug_assert_eq!(bucket_count, ew * eh);
        let mut checksum = header_checksum(
            [xlo, ylo, xhi, yhi],
            nx64,
            ny64,
            object_count,
            bucket_count64,
        );
        let mut raw;
        if version == VERSION {
            // Length check first: the allocation below must never be
            // larger than the payload that was actually supplied.
            if data.remaining() != 8 * bucket_count + 8 {
                return Err(PersistError::Truncated);
            }
            raw = Vec::with_capacity(bucket_count);
            for _ in 0..bucket_count {
                let v = i64::from_le_bytes(data.take()?);
                checksum = checksum_step(checksum, v);
                raw.push(bucket_cell(v)?);
            }
        } else {
            // The compressed payload legitimately expands (zero runs), so
            // the *initial* reservation is bounded by the input size; the
            // validated runs below grow it at most to `bucket_count`,
            // which the decode cap already bounds.
            raw = Vec::with_capacity(bucket_count.min(data.remaining()));
            while raw.len() < bucket_count {
                let token = get_varint(&mut data)?;
                if token == 0 {
                    // `run` is untrusted: compare against the room left
                    // so a huge varint cannot overflow the addition.
                    let run = get_varint(&mut data)?;
                    if run == 0 || run > (bucket_count - raw.len()) as u64 {
                        return Err(PersistError::Corrupt("zero run length"));
                    }
                    raw.resize(raw.len() + run as usize, 0);
                    checksum = zero_run_checksum(checksum, run);
                } else {
                    let v = unzigzag(token);
                    checksum = checksum_step(checksum, v);
                    raw.push(bucket_cell(v)?);
                }
            }
            if data.remaining() != 8 {
                return Err(PersistError::Truncated);
            }
        }
        if u64::from_le_bytes(data.take()?) != checksum {
            return Err(PersistError::ChecksumMismatch);
        }
        let buckets = CubeBuffer::from_row_major(ew, eh, raw);
        if buckets.check_prefix().is_err() {
            return Err(PersistError::Corrupt("bucket sums"));
        }
        Ok(EulerHistogram::from_parts(grid, buckets, object_count))
    }
}

/// A decoded bucket as a cube cell, or `Corrupt` when it does not fit.
fn bucket_cell(v: i64) -> Result<Cell, PersistError> {
    Cell::try_from(v).map_err(|_| PersistError::Corrupt("bucket value"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use euler_grid::Snapper;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn sample() -> EulerHistogram {
        let grid = Grid::new(
            DataSpace::new(Rect::new(0.0, 0.0, 40.0, 30.0).unwrap()),
            40,
            30,
        )
        .unwrap();
        let s = Snapper::new(grid);
        let mut rng = StdRng::seed_from_u64(9);
        let objects: Vec<_> = (0..500)
            .map(|_| {
                let x = rng.gen_range(0.0..38.0);
                let y = rng.gen_range(0.0..28.0);
                s.snap(&Rect::new(x, y, x + 1.5, y + 1.2).unwrap())
            })
            .collect();
        EulerHistogram::build(grid, &objects)
    }

    #[test]
    fn round_trip_preserves_everything() {
        let h = sample();
        let back = EulerHistogram::from_bytes(&h.to_bytes()).unwrap();
        assert_eq!(h, back);
        // And the frozen queries agree.
        let q = euler_grid::GridRect::unchecked(5, 5, 20, 15);
        assert_eq!(
            h.freeze().intersect_count(&q),
            back.freeze().intersect_count(&q)
        );
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut raw = sample().to_bytes();
        raw[0] = b'X';
        assert_eq!(
            EulerHistogram::from_bytes(&raw),
            Err(PersistError::BadMagic)
        );
        let mut raw = sample().to_bytes();
        raw[4] = 99;
        assert_eq!(
            EulerHistogram::from_bytes(&raw),
            Err(PersistError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn rejects_truncation_and_corruption() {
        let raw = sample().to_bytes();
        assert_eq!(
            EulerHistogram::from_bytes(&raw[..raw.len() - 5]),
            Err(PersistError::Truncated)
        );
        // Flip one bucket word: checksum must catch it.
        let mut v = raw;
        let idx = HEADER_LEN + 16; // somewhere inside the buckets
        v[idx] ^= 0xFF;
        assert_eq!(
            EulerHistogram::from_bytes(&v),
            Err(PersistError::ChecksumMismatch)
        );
    }

    #[test]
    fn compressed_round_trip_and_ratio() {
        let h = sample();
        let plain = h.to_bytes();
        let packed = h.to_bytes_compressed();
        let back = EulerHistogram::from_bytes(&packed).unwrap();
        assert_eq!(h, back);
        // The 40x30 sample is sparse-ish; compression must win clearly.
        assert!(
            packed.len() * 4 < plain.len(),
            "compressed {} vs plain {}",
            packed.len(),
            plain.len()
        );
    }

    #[test]
    fn compressed_rejects_corruption() {
        let h = sample();
        let packed = h.to_bytes_compressed();
        // Truncate inside the varint stream.
        assert!(EulerHistogram::from_bytes(&packed[..packed.len() - 12]).is_err());
        // Flip a payload byte: either the varint structure breaks or the
        // checksum catches it.
        let mut v = packed;
        let idx = v.len() / 2;
        v[idx] ^= 0x2A;
        assert!(EulerHistogram::from_bytes(&v).is_err());
    }

    /// A small seeded histogram for the exhaustive-mutation test: both
    /// encodings stay a few KiB, so flipping every byte is cheap.
    fn small_sample() -> EulerHistogram {
        let grid = Grid::new(
            DataSpace::new(Rect::new(0.0, 0.0, 12.0, 9.0).unwrap()),
            12,
            9,
        )
        .unwrap();
        let s = Snapper::new(grid);
        let mut rng = StdRng::seed_from_u64(0xADE5);
        let objects: Vec<_> = (0..120)
            .map(|_| {
                let x = rng.gen_range(0.0..11.0);
                let y = rng.gen_range(0.0..8.0);
                s.snap(&Rect::new(x, y, x + 0.9, y + 0.8).unwrap())
            })
            .collect();
        EulerHistogram::build(grid, &objects)
    }

    #[test]
    fn adversarial_mutations_always_err_and_never_panic() {
        // Every single-byte flip, every truncation length, and trailing
        // extension must yield a PersistError — the header-seeded
        // checksum means no field is silently mutable. (A panic or an
        // over-allocation would fail/kill this test.)
        let h = small_sample();
        for bytes in [h.to_bytes(), h.to_bytes_compressed()] {
            for i in 0..bytes.len() {
                for pat in [0xFFu8, 0x01] {
                    let mut m = bytes.clone();
                    m[i] ^= pat;
                    assert!(
                        EulerHistogram::from_bytes(&m).is_err(),
                        "flip {pat:#04x} at offset {i} decoded successfully"
                    );
                }
            }
            for len in 0..bytes.len() {
                assert!(
                    EulerHistogram::from_bytes(&bytes[..len]).is_err(),
                    "truncation to {len} bytes decoded successfully"
                );
            }
            for extra in 1..16 {
                let mut m = bytes.clone();
                m.extend((0..extra).map(|k| (k * 37 + 11) as u8));
                assert!(
                    EulerHistogram::from_bytes(&m).is_err(),
                    "extension by {extra} bytes decoded successfully"
                );
            }
        }
    }

    #[test]
    fn adversarial_headers_are_capped_before_allocation() {
        // A handcrafted header declaring absurd dims must be rejected up
        // front — no multi-GiB reservation, no arithmetic overflow.
        // nx, ny, object_count, bucket_count.
        let buf = header(VERSION, [u64::MAX, u64::MAX, 0, u64::MAX]);
        assert_eq!(
            EulerHistogram::from_bytes(&buf),
            Err(PersistError::Corrupt("grid dims"))
        );
        // Dims just over the cap (but individually plausible) also fail.
        let buf = header(
            VERSION_COMPRESSED,
            [1 << 20, 1 << 20, 0, (1 << 20) * (1 << 20)],
        );
        assert_eq!(
            EulerHistogram::from_bytes(&buf),
            Err(PersistError::Corrupt("grid exceeds decode cap"))
        );
    }

    /// A hand-built header: magic, `version`, the paper-world bounds and
    /// the four u64 words `nx, ny, object_count, bucket_count`.
    fn header(version: u32, words: [u64; 4]) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&version.to_le_bytes());
        for b in [0.0f64, 0.0, 360.0, 180.0] {
            buf.extend_from_slice(&b.to_le_bytes());
        }
        for w in words {
            buf.extend_from_slice(&w.to_le_bytes());
        }
        buf
    }

    #[test]
    fn a_huge_zero_run_is_corrupt_not_an_overflow() {
        // A 4×4 v2 image (7×7 = 49 buckets): one non-zero token, then a
        // zero-run marker whose length is u64::MAX. `raw.len() + run`
        // would overflow; the decoder must reject the run instead.
        let grid = Grid::new(DataSpace::new(Rect::new(0.0, 0.0, 4.0, 4.0).unwrap()), 4, 4).unwrap();
        let mut v = EulerHistogram::new(grid).to_bytes_compressed();
        v.truncate(HEADER_LEN);
        put_varint(&mut v, zigzag(1));
        v.push(0);
        put_varint(&mut v, u64::MAX);
        v.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(
            EulerHistogram::from_bytes(&v),
            Err(PersistError::Corrupt("zero run length"))
        );
    }

    #[test]
    fn golden_images_are_byte_identical() {
        // Both encodings of `small_sample`, as committed in `testdata/`:
        // the encoder must keep producing them byte for byte, and they
        // must decode back to the same histogram.
        let h = small_sample();
        let plain: &[u8] = include_bytes!("../testdata/small_sample.v1.euh");
        let packed: &[u8] = include_bytes!("../testdata/small_sample.v2.euh");
        assert_eq!(h.to_bytes(), plain);
        assert_eq!(h.to_bytes_compressed(), packed);
        assert_eq!(EulerHistogram::from_bytes(plain).unwrap(), h);
        assert_eq!(EulerHistogram::from_bytes(packed).unwrap(), h);
    }

    #[test]
    fn zigzag_varint_primitives() {
        for v in [0i64, 1, -1, 2, -2, 1000, -1000, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            put_varint(&mut buf, v);
        }
        let mut data = Reader { data: &buf };
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            assert_eq!(get_varint(&mut data).unwrap(), v);
        }
    }

    #[test]
    fn round_trip_preserves_compressed_freezes() {
        // Persistence stores raw buckets, so it is tier-independent: a
        // revived histogram must freeze to the same compressed cube —
        // and answer identically — as the original.
        let h = sample();
        for bytes in [h.to_bytes(), h.to_bytes_compressed()] {
            let back = EulerHistogram::from_bytes(&bytes).unwrap();
            let fa = h.freeze_compressed();
            let fb = back.freeze_compressed();
            assert_eq!(fa, fb);
            assert!(fa.is_compressed() && fb.is_compressed());
            let q = euler_grid::GridRect::unchecked(3, 2, 31, 24);
            assert_eq!(
                fa.intersect_count(&q),
                back.freeze_dense().intersect_count(&q)
            );
        }
    }

    /// A format-2 image of a 4×4 grid (7×7 buckets) with the given
    /// object count and row-major bucket values, checksummed like a real
    /// one: what a crafted file looks like to the decoder.
    fn crafted_v2(object_count: u64, buckets: &[i64]) -> Vec<u8> {
        let grid = Grid::new(DataSpace::new(Rect::new(0.0, 0.0, 4.0, 4.0).unwrap()), 4, 4).unwrap();
        let mut enc = CompressedEncoder::new(&grid, object_count);
        let mut cells = buckets.to_vec();
        cells.resize(49, 0);
        enc.row(&cells);
        enc.finish()
    }

    /// The format-1 twin of [`crafted_v2`].
    fn crafted_v1(object_count: u64, buckets: &[i64]) -> Vec<u8> {
        let grid = Grid::new(DataSpace::new(Rect::new(0.0, 0.0, 4.0, 4.0).unwrap()), 4, 4).unwrap();
        let mut buf = Vec::new();
        let mut checksum = put_header(&mut buf, &grid, object_count, VERSION);
        let mut cells = buckets.to_vec();
        cells.resize(49, 0);
        for v in cells {
            checksum = checksum_step(checksum, v);
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf.extend_from_slice(&checksum.to_le_bytes());
        buf
    }

    /// The decoder holds histograms to 32-bit cube cells: an object
    /// count up to `MAX_OBJECTS` decodes, one past it is corrupt, and so
    /// is a bucket outside the cell range or buckets whose prefix sums
    /// leave it — in both formats, so a decoded histogram always
    /// freezes.
    #[test]
    fn images_past_the_object_bound_are_corrupt() {
        let max = i64::from(euler_cube::Cell::MAX);
        for craft in [crafted_v1, crafted_v2] {
            let at = EulerHistogram::from_bytes(&craft(MAX_OBJECTS, &[])).unwrap();
            assert_eq!(at.object_count(), MAX_OBJECTS);
            assert_eq!(at.freeze().total(), 0);
            let edge = EulerHistogram::from_bytes(&craft(1, &[max])).unwrap();
            assert_eq!(edge.freeze().total(), max);
            for (bytes, what) in [
                (craft(MAX_OBJECTS + 1, &[]), "object count"),
                (craft(u64::MAX, &[]), "object count"),
                (craft(1, &[max + 1]), "bucket value"),
                (craft(1, &[-max - 2]), "bucket value"),
                (craft(1, &[i64::MIN]), "bucket value"),
                (craft(1, &[max, 1]), "bucket sums"),
                (craft(1, &[-max, 0, 0, 0, 0, 0, 0, -2]), "bucket sums"),
            ] {
                assert_eq!(
                    EulerHistogram::from_bytes(&bytes),
                    Err(PersistError::Corrupt(what))
                );
            }
        }
    }

    proptest! {
        /// Decoding arbitrary bytes returns `Ok` or `Err`, never panics:
        /// raw noise, noise behind a valid header, and checksummed
        /// images with arbitrary buckets (whose decoded histograms must
        /// then freeze without overflow).
        #[test]
        fn arbitrary_bytes_decode_to_ok_or_err(
            noise in prop::collection::vec(0u8..u8::MAX, 0..160),
            count in 0u64..u64::MAX,
            buckets in prop::collection::vec(i64::MIN..i64::MAX, 0..49),
            small in prop::collection::vec(-3i64..4, 0..49),
        ) {
            let _ = EulerHistogram::from_bytes(&noise);
            let mut headed = crafted_v2(count % (2 * MAX_OBJECTS), &[]);
            headed.truncate(HEADER_LEN);
            headed.extend_from_slice(&noise);
            let _ = EulerHistogram::from_bytes(&headed);
            let wide = buckets.iter().map(|&v| v >> (v & 63)).collect::<Vec<_>>();
            for image in [crafted_v1(count, &wide), crafted_v2(count, &wide), crafted_v2(1, &small)] {
                if let Ok(h) = EulerHistogram::from_bytes(&image) {
                    let frozen = h.freeze();
                    prop_assert_eq!(frozen.object_count(), h.object_count());
                }
            }
        }
    }

    #[test]
    fn empty_histogram_round_trips() {
        let grid = Grid::new(DataSpace::new(Rect::new(0.0, 0.0, 4.0, 4.0).unwrap()), 4, 4).unwrap();
        let h = EulerHistogram::new(grid);
        let back = EulerHistogram::from_bytes(&h.to_bytes()).unwrap();
        assert_eq!(h, back);
    }
}
