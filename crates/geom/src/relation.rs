//! The spatial-relation models of the paper's §2.
//!
//! * **Level 1** — `disjoint` / `intersect`, definable from the interiors
//!   alone; this is what prior selectivity estimators support.
//! * **Level 2** — the five relations of the *interior–exterior intersection
//!   model* introduced by the paper (Equation 2): `disjoint`, `contains`,
//!   `contained`, `equals`, `overlap`.
//! * **Level 3** — the eight region relations of the 9-intersection model
//!   of Egenhofer & Herring \[EH94\].
//!
//! All classifications take `p` as the *query* and `q` as the *object*, as
//! in the paper: `Contains` means "the query contains the object" (the
//! paper's `N_cs`), `Contained` means "the query is contained in the
//! object" (`N_cd`).
//!
//! ### Degenerate objects
//!
//! Real datasets contain point and segment MBRs whose topological interior
//! is empty, which would make every Level 2/3 relation degenerate. We use
//! *relative interior* semantics instead: the interior of a point is the
//! point, the interior of a segment is the open segment. Under these
//! semantics a point strictly inside the query classifies as `Contains`,
//! matching what a browsing user expects for point data.

use crate::Rect;

/// Level 1 spatial relations (top of the paper's Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level1Relation {
    /// Interiors do not intersect.
    Disjoint,
    /// Interiors intersect.
    Intersect,
}

/// Level 2 spatial relations (interior–exterior intersection model,
/// middle of Figure 3). `p` is the query, `q` the object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level2Relation {
    /// Interiors do not intersect (includes boundary-only contact).
    Disjoint,
    /// The query contains the object (`N_cs` in the paper).
    Contains,
    /// The query is contained in the object (`N_cd`).
    Contained,
    /// Query and object coincide (eliminated by snapping, `N_eq = 0`).
    Equals,
    /// Interiors intersect and each has interior outside the other (`N_o`).
    Overlap,
}

impl Level2Relation {
    /// All five relations, in the order of the paper's Equation 8 terms.
    pub const ALL: [Level2Relation; 5] = [
        Level2Relation::Disjoint,
        Level2Relation::Contains,
        Level2Relation::Contained,
        Level2Relation::Equals,
        Level2Relation::Overlap,
    ];

    /// Collapse to the Level 1 dichotomy (Figure 3's upward arrows).
    pub fn to_level1(self) -> Level1Relation {
        match self {
            Level2Relation::Disjoint => Level1Relation::Disjoint,
            _ => Level1Relation::Intersect,
        }
    }
}

/// Level 3 spatial relations: the eight region relations of the
/// 9-intersection model (bottom of Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level3Relation {
    /// Closures do not intersect.
    Disjoint,
    /// Boundaries touch, interiors do not intersect.
    Meet,
    /// Interiors intersect, each escapes the other.
    Overlap,
    /// `q` inside `p` with boundary contact.
    Covers,
    /// `q` strictly inside `p`'s interior.
    Contains,
    /// `p` inside `q` with boundary contact.
    CoveredBy,
    /// `p` strictly inside `q`'s interior.
    Inside,
    /// `p` and `q` coincide.
    Equal,
}

/// Collapse a Level 3 relation to its Level 2 relation (the downward arrows
/// of Figure 3: boundary distinctions are dropped).
pub fn level2_of_level3(r: Level3Relation) -> Level2Relation {
    match r {
        Level3Relation::Disjoint | Level3Relation::Meet => Level2Relation::Disjoint,
        Level3Relation::Overlap => Level2Relation::Overlap,
        Level3Relation::Covers | Level3Relation::Contains => Level2Relation::Contains,
        Level3Relation::CoveredBy | Level3Relation::Inside => Level2Relation::Contained,
        Level3Relation::Equal => Level2Relation::Equals,
    }
}

/// The interior–exterior intersection matrix of the paper's Equation 2:
///
/// ```text
/// | p.i ∩ q.i    p.i ∩ q.e |
/// | p.e ∩ q.i    p.e ∩ q.e |
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InteriorExterior {
    /// `p.i ∩ q.i ≠ ∅`
    pub ii: bool,
    /// `p.i ∩ q.e ≠ ∅`
    pub ie: bool,
    /// `p.e ∩ q.i ≠ ∅`
    pub ei: bool,
    /// `p.e ∩ q.e ≠ ∅` (always true for bounded objects)
    pub ee: bool,
}

/// Does the relative interior of `q` intersect the open interior of `p`?
///
/// Per-dimension: a degenerate extent contributes the single coordinate,
/// which must fall strictly inside `p`'s extent; a full extent needs the
/// usual strict overlap.
fn rel_interior_meets_open(p: &Rect, q: &Rect) -> bool {
    let x_ok = if q.xlo() == q.xhi() {
        p.xlo() < q.xlo() && q.xlo() < p.xhi()
    } else {
        q.xlo() < p.xhi() && q.xhi() > p.xlo()
    };
    let y_ok = if q.ylo() == q.yhi() {
        p.ylo() < q.ylo() && q.ylo() < p.yhi()
    } else {
        q.ylo() < p.yhi() && q.yhi() > p.ylo()
    };
    // p itself may be degenerate in a dimension; its open extent is then
    // empty and nothing can meet it.
    let p_ok = p.xlo() < p.xhi() || q.xlo() == q.xhi();
    let p_ok_y = p.ylo() < p.yhi() || q.ylo() == q.yhi();
    x_ok && y_ok && p_ok && p_ok_y
}

impl InteriorExterior {
    /// Computes the interior–exterior matrix for query `p` and object `q`
    /// under relative-interior semantics.
    pub fn compute(p: &Rect, q: &Rect) -> InteriorExterior {
        let ii = rel_interior_meets_open(p, q) || rel_interior_meets_open(q, p);
        // Symmetric ii: for two full-dimensional rects both calls agree; for
        // mixed degeneracy the relative interior of the degenerate one must
        // sit strictly inside the open extent of the other, which only the
        // call with the degenerate rect as `q` captures. We accept either
        // orientation so the matrix is well defined for any input pair.
        let ie = !p.inside_closed(q); // p's interior escapes q's closure
        let ei = !q.inside_closed(p); // q's interior escapes p's closure
        InteriorExterior {
            ii,
            ie,
            ei,
            ee: true,
        }
    }

    /// Classify the matrix into a Level 2 relation per Figure 3.
    pub fn classify(&self) -> Level2Relation {
        match (self.ii, self.ie, self.ei) {
            (false, _, _) => Level2Relation::Disjoint,
            (true, true, false) => Level2Relation::Contains,
            (true, false, true) => Level2Relation::Contained,
            (true, false, false) => Level2Relation::Equals,
            (true, true, true) => Level2Relation::Overlap,
        }
    }
}

/// Classify the Level 2 relation of object `q` with respect to query `p`.
pub fn classify_level2(p: &Rect, q: &Rect) -> Level2Relation {
    InteriorExterior::compute(p, q).classify()
}

/// Classify the Level 1 relation of object `q` with respect to query `p`.
pub fn classify_level1(p: &Rect, q: &Rect) -> Level1Relation {
    classify_level2(p, q).to_level1()
}

/// The full 9-intersection matrix of Egenhofer & Herring \[EH94\]
/// (Equation 1 of the paper), for two full-dimensional rectangles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NineIntersection {
    /// Row-major entries: `[p.i, p.b, p.e] × [q.i, q.b, q.e]`.
    pub m: [[bool; 3]; 3],
}

/// Does the interior of `b` contain a point of `a`'s boundary ring?
/// Valid for full-dimensional rectangles only.
fn boundary_meets_interior(a: &Rect, b: &Rect) -> bool {
    // b's open interior reaches a's ring iff the open rects intersect and
    // b's closure is not confined to a's closure... more precisely: the open
    // set of b intersects the closed set of a (same predicate as open-open
    // intersection for full-dimensional rects) while b is not nested inside
    // a's closure (in which case b's interior only sees a's interior).
    a.intersects_open(b) && !b.inside_closed(a)
}

impl NineIntersection {
    /// Computes the matrix. Both rectangles must be full-dimensional
    /// (non-degenerate); degenerate inputs return `None` because a region
    /// without interior has no 9-intersection classification as a region.
    pub fn compute(p: &Rect, q: &Rect) -> Option<NineIntersection> {
        if p.is_degenerate() || q.is_degenerate() {
            return None;
        }
        let ii = p.intersects_open(q);
        let ib = boundary_meets_interior(q, p); // p.i ∩ q.b
        let ie = !p.inside_closed(q);
        let bi = boundary_meets_interior(p, q); // p.b ∩ q.i
        let bb = p.intersects_closed(q) && !p.inside_open(q) && !q.inside_open(p);
        let be = !p.inside_closed(q);
        let ei = !q.inside_closed(p);
        let eb = !q.inside_closed(p);
        let ee = true;
        Some(NineIntersection {
            m: [[ii, ib, ie], [bi, bb, be], [ei, eb, ee]],
        })
    }

    /// Classify into one of the eight Level 3 region relations.
    pub fn classify(&self) -> Level3Relation {
        let [[ii, _ib, ie], [_bi, bb, _be], [ei, _eb, _ee]] = self.m;
        match (ii, bb, ie, ei) {
            (false, false, _, _) => Level3Relation::Disjoint,
            (false, true, _, _) => Level3Relation::Meet,
            (true, _, true, true) => Level3Relation::Overlap,
            (true, bb, true, false) => {
                if bb {
                    Level3Relation::Covers
                } else {
                    Level3Relation::Contains
                }
            }
            (true, bb, false, true) => {
                if bb {
                    Level3Relation::CoveredBy
                } else {
                    Level3Relation::Inside
                }
            }
            (true, _, false, false) => Level3Relation::Equal,
        }
    }
}

/// Classify the Level 3 relation of object `q` with respect to query `p`.
/// Returns `None` for degenerate rectangles.
pub fn classify_level3(p: &Rect, q: &Rect) -> Option<Level3Relation> {
    NineIntersection::compute(p, q).map(|m| m.classify())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn r(xlo: f64, ylo: f64, xhi: f64, yhi: f64) -> Rect {
        Rect::new(xlo, ylo, xhi, yhi).unwrap()
    }

    const Q: fn() -> Rect = || r(10.0, 10.0, 20.0, 20.0);

    #[test]
    fn level3_eight_relations() {
        let p = Q();
        let cases = [
            (r(30.0, 30.0, 40.0, 40.0), Level3Relation::Disjoint),
            (r(20.0, 10.0, 30.0, 20.0), Level3Relation::Meet),
            (r(15.0, 15.0, 25.0, 25.0), Level3Relation::Overlap),
            (r(10.0, 12.0, 15.0, 18.0), Level3Relation::Covers),
            (r(12.0, 12.0, 18.0, 18.0), Level3Relation::Contains),
            (r(10.0, 5.0, 25.0, 25.0), Level3Relation::CoveredBy),
            (r(5.0, 5.0, 25.0, 25.0), Level3Relation::Inside),
            (Q(), Level3Relation::Equal),
        ];
        for (q, expect) in cases {
            assert_eq!(classify_level3(&p, &q), Some(expect), "object {q}");
        }
    }

    #[test]
    fn level3_degenerate_is_none() {
        let p = Q();
        let seg = r(12.0, 15.0, 18.0, 15.0);
        assert_eq!(classify_level3(&p, &seg), None);
    }

    #[test]
    fn level2_five_relations() {
        let p = Q();
        let cases = [
            (r(30.0, 30.0, 40.0, 40.0), Level2Relation::Disjoint),
            // Boundary-only contact is Level 2 disjoint.
            (r(20.0, 10.0, 30.0, 20.0), Level2Relation::Disjoint),
            (r(15.0, 15.0, 25.0, 25.0), Level2Relation::Overlap),
            (r(12.0, 12.0, 18.0, 18.0), Level2Relation::Contains),
            // Covers collapses to Contains at Level 2.
            (r(10.0, 12.0, 15.0, 18.0), Level2Relation::Contains),
            (r(5.0, 5.0, 25.0, 25.0), Level2Relation::Contained),
            // CoveredBy collapses to Contained.
            (r(10.0, 5.0, 25.0, 25.0), Level2Relation::Contained),
            (Q(), Level2Relation::Equals),
        ];
        for (q, expect) in cases {
            assert_eq!(classify_level2(&p, &q), expect, "object {q}");
        }
    }

    #[test]
    fn level2_point_and_segment_objects() {
        let p = Q();
        // A point strictly inside the query: the query contains it.
        let pt = r(15.0, 15.0, 15.0, 15.0);
        assert_eq!(classify_level2(&p, &pt), Level2Relation::Contains);
        // A point on the query boundary is Level 2 disjoint.
        let on_edge = r(10.0, 15.0, 10.0, 15.0);
        assert_eq!(classify_level2(&p, &on_edge), Level2Relation::Disjoint);
        // A point outside.
        let out = r(0.0, 0.0, 0.0, 0.0);
        assert_eq!(classify_level2(&p, &out), Level2Relation::Disjoint);
        // A horizontal segment crossing the query overlaps it.
        let seg = r(5.0, 15.0, 25.0, 15.0);
        assert_eq!(classify_level2(&p, &seg), Level2Relation::Overlap);
        // A segment fully inside is contained by the query.
        let seg_in = r(12.0, 15.0, 18.0, 15.0);
        assert_eq!(classify_level2(&p, &seg_in), Level2Relation::Contains);
    }

    #[test]
    fn level2_collapses_level3_consistently() {
        // For every pair where Level 3 is defined, collapsing it must agree
        // with direct Level 2 classification (Figure 3's arrows commute).
        let p = Q();
        let objects = [
            r(30.0, 30.0, 40.0, 40.0),
            r(20.0, 10.0, 30.0, 20.0),
            r(15.0, 15.0, 25.0, 25.0),
            r(10.0, 12.0, 15.0, 18.0),
            r(12.0, 12.0, 18.0, 18.0),
            r(10.0, 5.0, 25.0, 25.0),
            r(5.0, 5.0, 25.0, 25.0),
            Q(),
        ];
        for q in objects {
            let l3 = classify_level3(&p, &q).unwrap();
            assert_eq!(level2_of_level3(l3), classify_level2(&p, &q), "{q}");
        }
    }

    #[test]
    fn level1_collapse() {
        assert_eq!(
            Level2Relation::Contains.to_level1(),
            Level1Relation::Intersect
        );
        assert_eq!(
            Level2Relation::Disjoint.to_level1(),
            Level1Relation::Disjoint
        );
    }

    #[test]
    fn nine_intersection_contains_matches_figure_2() {
        // Figure 2 of the paper: when p contains q the matrix is
        // [1 0 1; 0 0 1; 0 1 1]... for rectangles strictly nested:
        // p.i∩q.i=1, p.i∩q.b=1 (q's ring lies in p's interior!),
        // p.i∩q.e=1, rest of row b: 0,0,1; row e: 0,0,1.
        let p = r(0.0, 0.0, 10.0, 10.0);
        let q = r(2.0, 2.0, 8.0, 8.0);
        let m = NineIntersection::compute(&p, &q).unwrap().m;
        assert_eq!(
            m,
            [
                [true, true, true],
                [false, false, true],
                [false, false, true]
            ]
        );
        assert_eq!(
            NineIntersection::compute(&p, &q).unwrap().classify(),
            Level3Relation::Contains
        );
    }

    proptest! {
        /// The interior-exterior matrix must always be one of the five valid
        /// Level 2 patterns for any pair of generated rectangles.
        #[test]
        fn matrix_always_classifiable(ax in 0.0..100.0f64, ay in 0.0..100.0f64,
                                      aw in 0.01..50.0f64, ah in 0.01..50.0f64,
                                      bx in 0.0..100.0f64, by in 0.0..100.0f64,
                                      bw in 0.01..50.0f64, bh in 0.01..50.0f64) {
            let p = r(ax, ay, ax + aw, ay + ah);
            let q = r(bx, by, bx + bw, by + bh);
            let rel = classify_level2(&p, &q);
            prop_assert!(Level2Relation::ALL.contains(&rel));
        }

        /// contains/contained are mirror images under argument swap.
        #[test]
        fn contains_contained_duality(ax in 0.0..100.0f64, ay in 0.0..100.0f64,
                                      aw in 0.01..50.0f64, ah in 0.01..50.0f64,
                                      bx in 0.0..100.0f64, by in 0.0..100.0f64,
                                      bw in 0.01..50.0f64, bh in 0.01..50.0f64) {
            let p = r(ax, ay, ax + aw, ay + ah);
            let q = r(bx, by, bx + bw, by + bh);
            let fwd = classify_level2(&p, &q);
            let rev = classify_level2(&q, &p);
            let expected = match fwd {
                Level2Relation::Contains => Level2Relation::Contained,
                Level2Relation::Contained => Level2Relation::Contains,
                other => other,
            };
            prop_assert_eq!(rev, expected);
        }

        /// Level 3, when defined, always collapses to the direct Level 2.
        #[test]
        fn level3_collapse_commutes(ax in 0.0..20.0f64, ay in 0.0..20.0f64,
                                    aw in 1.0..10.0f64, ah in 1.0..10.0f64,
                                    bx in 0.0..20.0f64, by in 0.0..20.0f64,
                                    bw in 1.0..10.0f64, bh in 1.0..10.0f64) {
            let p = r(ax, ay, ax + aw, ay + ah);
            let q = r(bx, by, bx + bw, by + bh);
            if let Some(l3) = classify_level3(&p, &q) {
                prop_assert_eq!(level2_of_level3(l3), classify_level2(&p, &q));
            }
        }

        /// Integer-coordinate rectangles exercise every touching/equality
        /// edge case; classification must still be total and consistent.
        #[test]
        fn integer_grid_cases(ax in 0..10i32, ay in 0..10i32, aw in 1..6i32, ah in 1..6i32,
                              bx in 0..10i32, by in 0..10i32, bw in 1..6i32, bh in 1..6i32) {
            let p = r(ax as f64, ay as f64, (ax + aw) as f64, (ay + ah) as f64);
            let q = r(bx as f64, by as f64, (bx + bw) as f64, (by + bh) as f64);
            let l3 = classify_level3(&p, &q).unwrap();
            prop_assert_eq!(level2_of_level3(l3), classify_level2(&p, &q));
            // Equal iff identical bounds.
            let eq = ax == bx && ay == by && aw == bw && ah == bh;
            prop_assert_eq!(l3 == Level3Relation::Equal, eq);
        }
    }
}
