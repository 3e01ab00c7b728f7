//! The dense loops over the blocked prefix cube.
//!
//! The sweep evaluator in `euler-core` and the clipped point lookups of
//! [`crate::PrefixSum2D`] both reduce to a handful of dense loops: gather
//! clipped prefix values into structure-of-arrays strips, combine four
//! shifted strips into per-tile sums, and clamp/lookup small batches of
//! signed coordinates. Each loop has exactly one body:
//!
//! * the elementwise combines and [`signed_sum4`] are plain indexed loops
//!   — rustc autovectorizes them as they stand. The combines first
//!   narrow every input to exactly the output's length, which is what
//!   lets the optimizer drop the per-element bounds checks (a combine
//!   indexing the unnarrowed slices measured up to ~1.4× slower at
//!   browse-tile widths);
//! * the two gathers ([`gather2`], [`gather_pairs2`]) are unrolled
//!   [`LANES`]-wide, because a gather is address-bound and the unroll is
//!   what keeps several independent loads in flight.
//!
//! All kernels share the cube's clipped-lookup convention: a signed
//! coordinate is clamped to `[-1, dim - 1]` and shifted by the zero guard
//! row/column, so out-of-range reads land on a zero plane instead of a
//! branch (see [`crate::PrefixSum2D::prefix_clipped`]).
//!
//! The gathers and [`signed_sum4`] read cube storage ([`Cell`]s) and
//! write `i64`, widening each value as it is loaded; the strip combines
//! work on those `i64` strips only.

use crate::Cell;

/// Unroll width of the gathers, in output elements.
pub const LANES: usize = 4;

/// Clamps a signed coordinate into the cube's internal (guard-shifted)
/// index range `[0, dim]`: `clip(v) = max(min(v, dim − 1) + 1, 0)`.
/// Index 0 is the zero guard plane, index `dim` the last prefix plane.
#[inline(always)]
fn clip(v: i64, dim: i64) -> usize {
    (v.min(dim - 1) + 1).max(0) as usize
}

/// Shifted four-strip combine plus a per-row constant: `out[i] =
/// a[i+1] − b[i] − c[i+1] + d[i] + k`. This is the four-corner arithmetic
/// of every per-tile signed sum, applied across a whole row of tiles at
/// once (`a`/`c` need `out.len() + 1` elements, `b`/`d` `out.len()`).
#[inline]
pub fn strip_combine_k(a: &[i64], b: &[i64], c: &[i64], d: &[i64], k: i64, out: &mut [i64]) {
    let n = out.len();
    let (a, b, c, d) = (&a[1..=n], &b[..n], &c[1..=n], &d[..n]);
    for i in 0..n {
        out[i] = a[i] - b[i] - c[i] + d[i] + k;
    }
}

/// Shifted four-strip combine plus a per-column addend: `out[i] =
/// a[i+1] − b[i] − c[i+1] + d[i] + add[i]`.
#[inline]
pub fn strip_combine_add(a: &[i64], b: &[i64], c: &[i64], d: &[i64], add: &[i64], out: &mut [i64]) {
    let n = out.len();
    let (a, b, c, d, add) = (&a[1..=n], &b[..n], &c[1..=n], &d[..n], &add[..n]);
    for i in 0..n {
        out[i] = a[i] - b[i] - c[i] + d[i] + add[i];
    }
}

/// Two independent shifted four-strip combines in one fused pass:
/// `out1[i] = a1[i+1] − b1[i] − c1[i+1] + d1[i]` and likewise `out2`
/// from `(a2, b2, c2, d2)`. The sweep's inside and closed rows read
/// disjoint corner strips of the same tile row, so fusing them halves
/// the loop overhead and keeps both output streams hot.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn strip_combine2(
    a1: &[i64],
    b1: &[i64],
    c1: &[i64],
    d1: &[i64],
    a2: &[i64],
    b2: &[i64],
    c2: &[i64],
    d2: &[i64],
    out1: &mut [i64],
    out2: &mut [i64],
) {
    let n = out1.len();
    let (a1, b1, c1, d1) = (&a1[1..=n], &b1[..n], &c1[1..=n], &d1[..n]);
    let (a2, b2, c2, d2) = (&a2[1..=n], &b2[..n], &c2[1..=n], &d2[..n]);
    let out2 = &mut out2[..n];
    for i in 0..n {
        out1[i] = a1[i] - b1[i] - c1[i] + d1[i];
        out2[i] = a2[i] - b2[i] - c2[i] + d2[i];
    }
}

/// Dual gather: `a[k] = row[ia[k]]`, `b[k] = row[ib[k]]` for `k <
/// a.len()`, widened. Used to fill the structure-of-arrays corner strips
/// from one cube row; the index pairs are adjacent Euler columns, so both
/// loads of a pair usually share a cache line.
#[inline]
pub fn gather2(row: &[Cell], ia: &[usize], ib: &[usize], a: &mut [i64], b: &mut [i64]) {
    // Gathers are address-bound, not arithmetic-bound; the win here is
    // unrolling the loop 4-wide so four independent loads are in flight
    // per iteration, with grouped stores. The index loads themselves stay
    // bounds-checked — they are data-dependent.
    let n = a.len();
    let (ia, ib) = (&ia[..n], &ib[..n]);
    let row = |i: usize| i64::from(row[i]);
    let mut ac = a.chunks_exact_mut(LANES);
    let mut bc = b.chunks_exact_mut(LANES);
    for (((oa, ob), pi), pj) in (&mut ac)
        .zip(&mut bc)
        .zip(ia.chunks_exact(LANES))
        .zip(ib.chunks_exact(LANES))
    {
        oa.copy_from_slice(&[row(pi[0]), row(pi[1]), row(pi[2]), row(pi[3])]);
        ob.copy_from_slice(&[row(pj[0]), row(pj[1]), row(pj[2]), row(pj[3])]);
    }
    let (ra, rb) = (ac.into_remainder(), bc.into_remainder());
    let start = n - ra.len();
    for (k, (oa, ob)) in ra.iter_mut().zip(rb.iter_mut()).enumerate() {
        let k = start + k;
        *oa = row(ia[k]);
        *ob = row(ib[k]);
    }
}

/// Strided quad gather for an **affine** index lattice: with
/// `j = start + k·stride`, `a0[k] = row0[j]`, `b0[k] = row0[j + 1]`,
/// `a1[k] = row1[j]`, `b1[k] = row1[j + 1]`, widened. Tiling plans produce
/// exactly this shape away from the clamped edges (closed column = open
/// column + 1, consecutive boundaries `2·w` apart), which turns the
/// gather into a strided pair copy: no index-array loads and no
/// per-element bounds checks. Requires `stride ≥ 2` and
/// `start + (len − 1)·stride + 1 < row.len()` when `len > 0`.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn gather_pairs2(
    row0: &[Cell],
    row1: &[Cell],
    start: usize,
    stride: usize,
    a0: &mut [i64],
    b0: &mut [i64],
    a1: &mut [i64],
    b1: &mut [i64],
) {
    let n = a0.len();
    if n == 0 {
        return;
    }
    // Narrow both rows to exactly the strided span, then unroll 4-wide
    // with the offsets computed from one running base — sixteen
    // independent loads in flight per iteration and no index-array
    // traffic at all.
    let end = start + (n - 1) * stride + 2;
    let (r0, r1) = (&row0[start..end], &row1[start..end]);
    let r0 = |i: usize| i64::from(r0[i]);
    let r1 = |i: usize| i64::from(r1[i]);
    let (s1, s2, s3) = (stride, 2 * stride, 3 * stride);
    let mut a0c = a0.chunks_exact_mut(LANES);
    let mut b0c = b0.chunks_exact_mut(LANES);
    let mut a1c = a1.chunks_exact_mut(LANES);
    let mut b1c = b1.chunks_exact_mut(LANES);
    let mut j = 0usize;
    for (((oa0, ob0), oa1), ob1) in (&mut a0c).zip(&mut b0c).zip(&mut a1c).zip(&mut b1c) {
        oa0.copy_from_slice(&[r0(j), r0(j + s1), r0(j + s2), r0(j + s3)]);
        ob0.copy_from_slice(&[r0(j + 1), r0(j + s1 + 1), r0(j + s2 + 1), r0(j + s3 + 1)]);
        oa1.copy_from_slice(&[r1(j), r1(j + s1), r1(j + s2), r1(j + s3)]);
        ob1.copy_from_slice(&[r1(j + 1), r1(j + s1 + 1), r1(j + s2 + 1), r1(j + s3 + 1)]);
        j += 4 * stride;
    }
    let (ra0, rb0) = (a0c.into_remainder(), b0c.into_remainder());
    let (ra1, rb1) = (a1c.into_remainder(), b1c.into_remainder());
    let start_k = n - ra0.len();
    for k in 0..ra0.len() {
        let j = (start_k + k) * stride;
        ra0[k] = r0(j);
        rb0[k] = r0(j + 1);
        ra1[k] = r1(j);
        rb1[k] = r1(j + 1);
    }
}

/// Four clipped window sums in one call over the raw cube storage (`p`
/// with row stride `stride` over a `width × height` array), one window
/// per lane: `out[l] = Σ` over the signed inclusive window `[x0[l],
/// x1[l]] × [y0[l], y1[l]]` intersected with the array, computed as the
/// four-corner combination of branchlessly clipped prefixes. For an
/// ordered lane (`x0 ≤ x1`, `y0 ≤ y1`) this equals the clipped range sum
/// (0 when clipping empties the window). An inverted lane is permitted
/// only when both bounds of the inverted axis clamp onto a common plane
/// (entirely below the array or entirely past it) — the Euler
/// boundary-window algebra produces exactly these, and they collapse
/// to 0.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn signed_sum4(
    p: &[Cell],
    stride: usize,
    width: usize,
    height: usize,
    x0: [i64; 4],
    y0: [i64; 4],
    x1: [i64; 4],
    y1: [i64; 4],
) -> [i64; 4] {
    let (w, h) = (width as i64, height as i64);
    let p = |i: usize| i64::from(p[i]);
    let mut out = [0i64; 4];
    for l in 0..4 {
        let lo_x = clip(x0[l] - 1, w);
        let hi_x = clip(x1[l], w);
        let lo_y = clip(y0[l] - 1, h) * stride;
        let hi_y = clip(y1[l], h) * stride;
        out[l] = p(hi_x + hi_y) - p(lo_x + hi_y) - p(hi_x + lo_y) + p(lo_x + lo_y);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dense2D, PrefixSum2D};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_vec(n: usize, seed: u64) -> Vec<i64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-1000..1000)).collect()
    }

    fn random_cells(n: usize, seed: u64) -> Vec<Cell> {
        random_vec(n, seed).into_iter().map(crate::narrow).collect()
    }

    /// Lengths around the unroll width: empty, sub-lane, exact-lane and
    /// ragged-tail cases.
    fn lengths() -> std::ops::RangeInclusive<usize> {
        0..=(2 * LANES + 3)
    }

    #[test]
    fn strip_combines_match_their_formulas() {
        for n in lengths() {
            let a = random_vec(n + 1, 1);
            let b = random_vec(n + 1, 2);
            let c = random_vec(n + 1, 3);
            let d = random_vec(n + 1, 4);
            let add = random_vec(n, 5);
            let plain = |a: &[i64], b: &[i64], c: &[i64], d: &[i64], i: usize| {
                a[i + 1] - b[i] - c[i + 1] + d[i]
            };
            let mut out = vec![0i64; n];

            strip_combine_k(&a, &b, &c, &d, 17, &mut out);
            let want: Vec<i64> = (0..n).map(|i| plain(&a, &b, &c, &d, i) + 17).collect();
            assert_eq!(out, want, "strip_combine_k n={n}");

            strip_combine_add(&a, &b, &c, &d, &add, &mut out);
            let want: Vec<i64> = (0..n).map(|i| plain(&a, &b, &c, &d, i) + add[i]).collect();
            assert_eq!(out, want, "strip_combine_add n={n}");

            let e = random_vec(n + 1, 6);
            let f = random_vec(n + 1, 7);
            let g = random_vec(n + 1, 8);
            let h = random_vec(n + 1, 9);
            let mut out2 = vec![0i64; n];
            strip_combine2(&a, &b, &c, &d, &e, &f, &g, &h, &mut out, &mut out2);
            let want1: Vec<i64> = (0..n).map(|i| plain(&a, &b, &c, &d, i)).collect();
            let want2: Vec<i64> = (0..n).map(|i| plain(&e, &f, &g, &h, i)).collect();
            assert_eq!((out, out2), (want1, want2), "strip_combine2 n={n}");
        }
    }

    #[test]
    fn gather2_matches_plain_indexing() {
        let row = random_cells(64, 7);
        let mut rng = StdRng::seed_from_u64(8);
        for n in lengths() {
            let ia: Vec<usize> = (0..n).map(|_| rng.gen_range(0..64)).collect();
            let ib: Vec<usize> = (0..n).map(|_| rng.gen_range(0..64)).collect();
            let (mut a, mut b) = (vec![0i64; n], vec![0i64; n]);
            gather2(&row, &ia, &ib, &mut a, &mut b);
            let want_a: Vec<i64> = ia.iter().map(|&i| row[i].into()).collect();
            let want_b: Vec<i64> = ib.iter().map(|&i| row[i].into()).collect();
            assert_eq!((a, b), (want_a, want_b), "gather2 n={n}");
        }
    }

    /// Strides from 2 (back-to-back pairs, the full-chunk edge case)
    /// upward, at several start offsets.
    #[test]
    fn gather_pairs2_matches_plain_indexing() {
        let row0 = random_cells(128, 12);
        let row1 = random_cells(128, 13);
        for stride in [2usize, 3, 5, 10] {
            for start in [0usize, 1, 4] {
                for n in lengths() {
                    if n > 0 && start + (n - 1) * stride + 1 >= 128 {
                        continue;
                    }
                    let mut got = [vec![0i64; n], vec![0i64; n], vec![0i64; n], vec![0i64; n]];
                    {
                        let [a0, b0, a1, b1] = &mut got;
                        gather_pairs2(&row0, &row1, start, stride, a0, b0, a1, b1);
                    }
                    let js: Vec<usize> = (0..n).map(|k| start + k * stride).collect();
                    let want: [Vec<i64>; 4] = [
                        js.iter().map(|&j| row0[j].into()).collect(),
                        js.iter().map(|&j| row0[j + 1].into()).collect(),
                        js.iter().map(|&j| row1[j].into()).collect(),
                        js.iter().map(|&j| row1[j + 1].into()).collect(),
                    ];
                    assert_eq!(got, want, "stride={stride} start={start} n={n}");
                }
            }
        }
    }

    /// `signed_sum4` (through [`PrefixSum2D::signed_sum4`]) equals four
    /// [`PrefixSum2D::range_sum_clipped`] calls on ordered windows that
    /// hang off every side of the array, on arrays from empty to wider
    /// than two lanes.
    #[test]
    fn signed_sum4_matches_four_clipped_range_sums() {
        let mut rng = StdRng::seed_from_u64(14);
        for w in lengths() {
            for h in [0usize, 1, 2, LANES + 1, 2 * LANES + 3] {
                let a = Dense2D::from_vec(w, h, random_vec(w * h, (w * 31 + h) as u64));
                let p = PrefixSum2D::build(&a).unwrap();
                for _ in 0..16 {
                    let (mut x0, mut y0) = ([0i64; 4], [0i64; 4]);
                    let (mut x1, mut y1) = ([0i64; 4], [0i64; 4]);
                    for l in 0..4 {
                        x0[l] = rng.gen_range(-6..w as i64 + 6);
                        y0[l] = rng.gen_range(-6..h as i64 + 6);
                        x1[l] = x0[l] + rng.gen_range(0..w as i64 + 3);
                        y1[l] = y0[l] + rng.gen_range(0..h as i64 + 3);
                    }
                    let got = p.signed_sum4(x0, y0, x1, y1);
                    for l in 0..4 {
                        assert_eq!(
                            got[l],
                            p.range_sum_clipped(x0[l], y0[l], x1[l], y1[l]),
                            "{w}x{h} lane {l}: [{},{}]x[{},{}]",
                            x0[l],
                            x1[l],
                            y0[l],
                            y1[l]
                        );
                    }
                }
            }
        }
    }
}
