//! What each request got back, and the reference its browse answers are
//! checked against: a clamped `SEulerApprox` over a frozen histogram
//! rebuilt from exactly the write-log prefix a reply's `version` names.

use std::collections::BTreeMap;

use spatial_histograms::core::{EulerHistogram, Level2Estimator, SEulerApprox};
use spatial_histograms::geom::Rect;
use spatial_histograms::grid::{Grid, GridRect, SnappedRect, Snapper, Tiling};
use spatial_histograms::serve::{parse_json, Json, Response};

use crate::workload::{Op, Scheduled, Stream, View, Workload};

/// A browse answer: the snapshot version it was computed at and its
/// per-tile `[disjoint, contains, contained, overlaps]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observed {
    pub version: u64,
    pub counts: Vec<[i64; 4]>,
}

/// One request's fate. Times are offsets from the schedule start.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// A complete answer or acknowledgement; false for a request that was
    /// shed, degraded, refused with an error or never answered.
    pub ok: bool,
    /// When the request was sent (over TCP) or started (in process).
    pub sent_ns: u64,
    /// When the last byte of the reply arrived, or the in-process call returned.
    pub done_ns: Option<u64>,
    /// The version a write ack or browse reply is stamped with.
    pub version: Option<u64>,
    pub reply_bytes: usize,
    /// The parsed answer, for browses picked for checking.
    pub observed: Option<Observed>,
}

impl Outcome {
    pub fn no_reply(sent_ns: u64) -> Outcome {
        Outcome {
            ok: false,
            sent_ns,
            done_ns: None,
            version: None,
            reply_bytes: 0,
            observed: None,
        }
    }

    /// From a reply line; the full JSON is parsed only when `keep`.
    pub fn from_line(line: &str, sent_ns: u64, done_ns: u64, keep: bool) -> Outcome {
        let ok = line.starts_with(r#"{"status":"ok""#);
        let version = line.find(r#""version":"#).and_then(|at| {
            let digits = &line[at + 10..];
            let end = digits
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(digits.len());
            digits[..end].parse().ok()
        });
        let observed = keep.then(|| observed_from_json(line)).flatten();
        Outcome {
            ok,
            sent_ns,
            done_ns: Some(done_ns),
            version,
            reply_bytes: line.len(),
            observed,
        }
    }

    /// From an in-process response.
    pub fn from_response(
        resp: &Response,
        bytes: usize,
        sent_ns: u64,
        done_ns: u64,
        keep: bool,
    ) -> Outcome {
        let (ok, version, observed) = match resp {
            Response::Browse(reply) => {
                let ok = reply.result.is_complete();
                let observed = (keep && ok).then(|| Observed {
                    version: reply.version,
                    counts: reply
                        .result
                        .counts()
                        .iter()
                        .map(|c| [c.disjoint, c.contains, c.contained, c.overlaps])
                        .collect(),
                });
                (ok, Some(reply.version), observed)
            }
            Response::Ack { version, .. } => (true, *version, None),
            Response::Stats(_) => (true, None, None),
            Response::Shed { .. } | Response::Error(_) => (false, None, None),
        };
        Outcome {
            ok,
            sent_ns,
            done_ns: Some(done_ns),
            version,
            reply_bytes: bytes,
            observed,
        }
    }

    /// From send (or start) to the end of the reply.
    pub fn service_ns(&self) -> Option<u64> {
        self.done_ns.map(|d| d.saturating_sub(self.sent_ns))
    }

    /// From `due_ns` to the end of a successful reply.
    pub fn latency_ns(&self, due_ns: u64) -> Option<u64> {
        self.done_ns
            .filter(|_| self.ok)
            .map(|d| d.saturating_sub(due_ns))
    }
}

/// Parses a browse reply line into its stamped version and counts.
pub fn observed_from_json(line: &str) -> Option<Observed> {
    let j = parse_json(line).ok()?;
    if j.get("status")?.as_str()? != "ok" {
        return None;
    }
    let counts = j
        .get("counts")?
        .as_array()?
        .iter()
        .map(|t| {
            let t = t.as_array()?;
            let c: Vec<i64> = t.iter().map(Json::as_i64).collect::<Option<_>>()?;
            <[i64; 4]>::try_from(c).ok()
        })
        .collect::<Option<_>>()?;
    Some(Observed {
        version: j.get("version")?.as_u64()?,
        counts,
    })
}

/// Which replies of each stream are kept and checked:
/// - a hot stream with no writer beside it: the first reply for each tiling;
/// - a hot stream beside a writer: 8 replies spread over the run;
/// - a cold stream: its first 16 replies;
/// - a writer that also browses: 4 of its browses spread over the run.
pub fn keep_mask(w: &Workload, streams: &[Vec<Scheduled>; 2]) -> [Vec<bool>; 2] {
    let writes = w.streams.iter().any(|s| matches!(s, Stream::Writes { .. }));
    let spread = |idx: &[usize], k: usize, keep: &mut [bool]| {
        for j in 0..k.min(idx.len()) {
            keep[idx[(j + 1) * idx.len() / (k + 1)]] = true;
        }
    };
    let mask = |stream: Stream, ops: &[Scheduled]| -> Vec<bool> {
        let mut keep = vec![false; ops.len()];
        let browses: Vec<usize> = (0..ops.len())
            .filter(|&i| matches!(ops[i].op, Op::Browse(_)))
            .collect();
        match stream {
            Stream::Hot { .. } if !writes => {
                let mut seen = std::collections::HashSet::new();
                for &i in &browses {
                    if let Op::Browse(v) = ops[i].op {
                        keep[i] = seen.insert(v);
                    }
                }
            }
            Stream::Hot { .. } => spread(&browses, 8, &mut keep),
            Stream::Cold { .. } => browses.iter().take(16).for_each(|&i| keep[i] = true),
            Stream::Writes { .. } => spread(&browses, 4, &mut keep),
        }
        keep
    };
    [
        mask(w.streams[0], &streams[0]),
        mask(w.streams[1], &streams[1]),
    ]
}

/// The preload plus every acknowledged write, by version.
pub struct Reference {
    grid: Grid,
    snapper: Snapper,
    preload: Vec<SnappedRect>,
    writes: BTreeMap<u64, Op>,
}

impl Reference {
    /// `rects` are applied as versions `1..=rects.len()`.
    pub fn new(grid: Grid, rects: &[Rect]) -> Reference {
        let snapper = Snapper::new(grid);
        Reference {
            grid,
            snapper,
            preload: rects.iter().map(|r| snapper.snap(r)).collect(),
            writes: BTreeMap::new(),
        }
    }

    /// Records the writes of both streams by the version their ack carries.
    pub fn record(
        &mut self,
        streams: &[Vec<Scheduled>; 2],
        outcomes: &[Vec<Outcome>; 2],
    ) -> Result<(), String> {
        for (s, o) in streams.iter().flatten().zip(outcomes.iter().flatten()) {
            if let (true, true, Some(v)) = (s.op.is_write(), o.ok, o.version) {
                if self.writes.insert(v, s.op).is_some() {
                    return Err(format!("two writes acked with version {v}"));
                }
            }
        }
        Ok(())
    }

    /// The highest version acknowledged so far.
    pub fn last_version(&self) -> u64 {
        self.writes
            .keys()
            .next_back()
            .copied()
            .unwrap_or(self.preload.len() as u64)
    }

    fn objects_at(&self, version: u64) -> Result<Vec<SnappedRect>, String> {
        let n = self.preload.len() as u64;
        if version < n {
            return Err(format!(
                "version {version} predates the end of the {n}-object preload"
            ));
        }
        let mut window: Vec<SnappedRect> = Vec::new();
        for (v, op) in self.writes.range(n + 1..=version) {
            match op {
                Op::Insert(r) => window.push(self.snap(r)),
                Op::Remove(r) => {
                    let s = self.snap(r);
                    let at = window
                        .iter()
                        .rposition(|x| *x == s)
                        .ok_or_else(|| format!("version {v} removes an object that is not live"))?;
                    window.swap_remove(at);
                }
                Op::Browse(_) | Op::Ping => {}
            }
        }
        if self.writes.range(n + 1..=version).count() as u64 != version - n {
            return Err(format!(
                "no acknowledged write log reaches version {version}"
            ));
        }
        Ok(self.preload.iter().copied().chain(window).collect())
    }

    fn snap(&self, r: &[f64; 4]) -> SnappedRect {
        let rect = Rect::new(r[0], r[1], r[2], r[3]).expect("schedules only hold valid rects");
        self.snapper.snap(&rect)
    }

    /// Checks each `(view, observed)` answer; returns one message per mismatch.
    pub fn verify(&self, answers: &[(View, Observed)]) -> Vec<String> {
        let mut by_version: BTreeMap<u64, Vec<&(View, Observed)>> = BTreeMap::new();
        for a in answers {
            by_version.entry(a.1.version).or_default().push(a);
        }
        let mut failures = Vec::new();
        for (version, group) in by_version {
            let objects = match self.objects_at(version) {
                Ok(o) => o,
                Err(e) => {
                    failures.push(e);
                    continue;
                }
            };
            let est = SEulerApprox::new(EulerHistogram::build(self.grid, &objects).freeze());
            for (view, observed) in group {
                let [x0, y0, x1, y1] = view.region;
                let tiling = GridRect::new(x0, y0, x1, y1, &self.grid)
                    .and_then(|r| Tiling::new(r, view.cols, view.rows))
                    .expect("schedules only hold valid tilings");
                let want: Vec<[i64; 4]> = est
                    .estimate_tiling(&tiling)
                    .iter()
                    .map(|c| {
                        let c = c.clamped();
                        [c.disjoint, c.contains, c.contained, c.overlaps]
                    })
                    .collect();
                if want != observed.counts {
                    failures.push(format!(
                        "browse {view:?} at version {version}: answer differs from the reference"
                    ));
                }
            }
        }
        failures
    }
}

/// Every kept answer of both streams, and a message for each kept browse
/// acknowledged as complete whose answer could not be read. A browse that
/// was shed or degraded is not checked: it already counts as failed.
pub fn kept_answers(
    streams: &[Vec<Scheduled>; 2],
    outcomes: &[Vec<Outcome>; 2],
    keep: &[Vec<bool>; 2],
) -> (Vec<(View, Observed)>, Vec<String>) {
    let (mut answers, mut failures) = (Vec::new(), Vec::new());
    for c in 0..2 {
        for ((s, o), k) in streams[c].iter().zip(&outcomes[c]).zip(&keep[c]) {
            if let (Op::Browse(v), true) = (s.op, *k) {
                match (&o.observed, o.ok) {
                    (Some(obs), _) => answers.push((v, obs.clone())),
                    (None, true) => failures.push(format!("browse {v:?}: unreadable answer")),
                    (None, _) => {}
                }
            }
        }
    }
    (answers, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_lines_classify_without_a_full_parse() {
        let ack = Outcome::from_line(r#"{"status":"ok","op":"insert","version":42}"#, 0, 5, false);
        assert_eq!((ack.ok, ack.version), (true, Some(42)));
        let shed = Outcome::from_line(r#"{"status":"shed","reason":"queue_full"}"#, 0, 5, false);
        assert_eq!((shed.ok, shed.version), (false, None));
        let line = r#"{"status":"ok","op":"browse","epoch":2,"version":9,"cache":"hit","cols":2,"rows":1,"counts":[[1,2,0,3],[4,0,0,1]]}"#;
        let browse = Outcome::from_line(line, 0, 5, true);
        assert_eq!(
            browse.observed,
            Some(Observed {
                version: 9,
                counts: vec![[1, 2, 0, 3], [4, 0, 0, 1]]
            })
        );
    }
}
