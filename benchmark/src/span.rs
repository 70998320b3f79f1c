//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! into a layer of the program: `name, start_ns, end_ns, parent, op_id`.
//! They stay in memory until the workload ends and are then written to
//! `benchmark/out/trace-<workload>.json`. A span's self time is its
//! duration minus the part of it that its children cover.

use crate::clock::now_ns;
use crate::json::Json;

/// Index of a span in its recorder; `NO_PARENT` for a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Shared by the spans of one request (its control token); 0 for
    /// spans that belong to no single request.
    pub op_id: u64,
}

/// The recorder. When `on` is false every call is a cheap no-op, so the
/// same code path serves the untraced run.
pub struct Recorder {
    pub on: bool,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            spans: Vec::new(),
        }
    }

    /// Opens a span starting now; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanId, op_id: u64) -> SpanId {
        if !self.on {
            return NO_PARENT;
        }
        let now = now_ns();
        self.push(name, now, now, parent, op_id)
    }

    pub fn end(&mut self, id: SpanId) {
        if id != NO_PARENT {
            self.spans[id as usize].end_ns = now_ns();
        }
    }

    /// Records a span whose bounds were measured by the caller.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: SpanId,
        op_id: u64,
    ) -> SpanId {
        if !self.on {
            return NO_PARENT;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Total self time and span count per name, in first-seen order.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64, u64)> {
        aggregate(&self.spans)
    }

    /// Per root span, in recording order (one root per traced
    /// repetition), the summed self time of the spans `pick` selects.
    /// `pick` sees a span's path: the names from its root down to it.
    /// Summed over a whole subtree, self times give the subtree's
    /// duration with overlapping children counted once.
    pub fn self_ns_per_root(&self, pick: impl Fn(&[&'static str]) -> bool) -> Vec<u64> {
        let self_ns = self_times(&self.spans);
        // A parent is recorded before its children, so its path and
        // root are known when the child is reached.
        let mut paths: Vec<Vec<&'static str>> = Vec::with_capacity(self.spans.len());
        let mut root_of: Vec<usize> = Vec::with_capacity(self.spans.len());
        let mut sums: Vec<u64> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let (mut path, root) = if s.parent == NO_PARENT {
                sums.push(0);
                (Vec::new(), sums.len() - 1)
            } else {
                let parent = s.parent as usize;
                (paths[parent].clone(), root_of[parent])
            };
            path.push(s.name);
            if pick(&path) {
                sums[root] += self_ns[i];
            }
            paths.push(path);
            root_of.push(root);
        }
        sums
    }

    /// Duration in ns of every span called `name`.
    pub fn durations_of(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// The trace document: a name table, the spans as rows, and the
    /// per-name self times, plus whatever `counts` the workload took at
    /// the same boundaries.
    pub fn to_json(&self, workload: &str, counts: Json) -> Json {
        let mut names: Vec<&'static str> = Vec::new();
        let rows = self
            .spans
            .iter()
            .map(|s| {
                let name_idx = names.iter().position(|n| *n == s.name).unwrap_or_else(|| {
                    names.push(s.name);
                    names.len() - 1
                });
                let parent = if s.parent == NO_PARENT {
                    -1.0
                } else {
                    f64::from(s.parent)
                };
                Json::Arr(vec![
                    Json::Num(name_idx as f64),
                    Json::Num(s.start_ns as f64),
                    Json::Num(s.end_ns as f64),
                    Json::Num(parent),
                    Json::Num(s.op_id as f64),
                ])
            })
            .collect();
        let self_times = self
            .self_time_by_name()
            .into_iter()
            .map(|(name, self_ns, count)| {
                (
                    name,
                    Json::obj([
                        ("self_ns", Json::Num(self_ns as f64)),
                        ("spans", Json::Num(count as f64)),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        Json::obj([
            ("workload", Json::Str(workload.to_string())),
            (
                "columns",
                Json::Arr(
                    ["name", "start_ns", "end_ns", "parent", "op_id"]
                        .iter()
                        .map(|c| Json::Str((*c).to_string()))
                        .collect(),
                ),
            ),
            (
                "names",
                Json::Arr(names.iter().map(|n| Json::Str((*n).to_string())).collect()),
            ),
            ("self_time", Json::obj(self_times)),
            ("counts", counts),
            ("spans", Json::Arr(rows)),
        ])
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (children of pipelined requests overlap, so a
/// plain sum would go negative).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                // Clip to the parent and to what is already covered.
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

fn aggregate(spans: &[Span]) -> Vec<(&'static str, u64, u64)> {
    let mut out: Vec<(&'static str, u64, u64)> = Vec::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        match out.iter_mut().find(|(name, _, _)| *name == s.name) {
            Some(row) => {
                row.1 += self_ns;
                row.2 += 1;
            }
            None => out.push((s.name, self_ns, 1)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let spans = [
            span("workload", 0, 1000, NO_PARENT), // 0
            span("setup", 0, 300, 0),             // 1
            span("spawn", 50, 250, 1),            // 2
            span("phase", 300, 900, 0),           // 3
            // Pipelined requests overlap: 400-600 and 500-800 cover 400.
            span("request", 400, 600, 3), // 4
            span("request", 500, 800, 3), // 5
            span("send", 400, 410, 4),    // 6
            span("recv", 590, 600, 4),    // 7
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 1000 - 300 - 600, "workload: gaps outside its phases");
        assert_eq!(st[1], 300 - 200);
        assert_eq!(st[2], 200, "a leaf keeps all of its time");
        assert_eq!(st[3], 600 - 400, "overlap is counted once");
        assert_eq!(st[4], 200 - 20);
        assert_eq!(st[5], 300);
        let by_name = aggregate(&spans);
        let request = by_name
            .iter()
            .find(|r| r.0 == "request")
            .expect("request row");
        assert_eq!((request.1, request.2), (480, 2));
        // Self times partition the root: nothing is counted twice except
        // where children genuinely overlap (the 100 ns of double request).
        let total: u64 = st.iter().sum();
        assert_eq!(total, 1000 + 100);
    }

    #[test]
    fn self_time_per_root_follows_paths() {
        let mut rec = Recorder::new(true);
        // Two repetitions, each an engine with a set-up and a stage.
        for (base, build, stage) in [(0, 30, 100), (1000, 50, 200)] {
            let root = rec.push("workload", base, base + 500, NO_PARENT, 0);
            let engine = rec.push("chord", base, base + 400, root, 0);
            let setup = rec.push("setup", base, base + build + 5, engine, 0);
            rec.push("scenario.build", base, base + build, setup, 0);
            rec.push("stage.lookup", base + 100, base + 100 + stage, engine, 0);
            let other = rec.push("pastry", base + 400, base + 500, root, 0);
            rec.push("stage.lookup", base + 400, base + 450, other, 0);
        }
        let under = |layer: &'static str, prefix: &'static str| {
            move |path: &[&'static str]| {
                path.contains(&layer) && path.iter().any(|n| n.starts_with(prefix))
            }
        };
        assert_eq!(rec.self_ns_per_root(under("chord", "setup")), [35, 55]);
        assert_eq!(rec.self_ns_per_root(under("chord", "stage.")), [100, 200]);
        assert_eq!(rec.self_ns_per_root(under("pastry", "stage.")), [50, 50]);
        assert_eq!(
            rec.self_ns_per_root(|path| path.last() == Some(&"scenario.build")),
            [30, 50]
        );
        assert_eq!(rec.durations_of("scenario.build"), [30, 50]);
    }

    #[test]
    fn a_child_that_overruns_its_parent_is_clipped() {
        let spans = [span("p", 100, 200, NO_PARENT), span("c", 150, 400, 0)];
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn a_recorder_that_is_off_records_nothing() {
        let mut rec = Recorder::new(false);
        let id = rec.begin("x", NO_PARENT, 1);
        rec.end(id);
        assert_eq!(rec.push("y", 0, 1, NO_PARENT, 0), NO_PARENT);
        assert_eq!(rec.len(), 0);

        let mut rec = Recorder::new(true);
        let root = rec.begin("root", NO_PARENT, 0);
        let kid = rec.begin("kid", root, 7);
        rec.end(kid);
        rec.end(root);
        assert_eq!(rec.len(), 2);
        let doc = rec.to_json("w", Json::obj::<&str>([]));
        assert_eq!(doc.get("spans").expect("spans").as_arr().len(), 2);
        assert_eq!(doc.get("names").expect("names").as_arr().len(), 2);
    }
}
