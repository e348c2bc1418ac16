//! In-memory spans for the traced run.
//!
//! Each load thread records its own spans into a thread-local buffer; a
//! thread with no recorder installed pays one thread-local lookup per
//! probe and records nothing, which is how the untraced phases run. Spans
//! nest by the order they open on a thread, so the parent of a span is the
//! innermost span open when it started. Counts recorded at the same
//! boundaries ride along in the same buffer.

use gpucmp_trace::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `layer.what`, e.g. `runtime.build`.
    pub name: &'static str,
    /// Start, ns since the process-wide epoch.
    pub start_ns: u64,
    /// End, ns since the process-wide epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// Load thread that recorded it.
    pub thread: u32,
    /// The operation (campaign cell, kernel case, server job) it served.
    pub req: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// What one thread recorded.
#[derive(Debug, Default)]
pub struct Recording {
    /// Spans in the order they opened.
    pub spans: Vec<Span>,
    /// Counts by name.
    pub counts: BTreeMap<&'static str, f64>,
}

struct Recorder {
    rec: Recording,
    open: Vec<usize>,
    thread: u32,
    req: u64,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Nanoseconds since the process-wide epoch.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Start recording on this thread as load thread `thread`.
pub fn start(thread: u32) {
    now_ns(); // pin the epoch before the first span
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            rec: Recording::default(),
            open: Vec::new(),
            thread,
            req: 0,
        })
    });
}

/// Stop recording on this thread and hand back what it recorded.
pub fn finish() -> Recording {
    REC.with(|r| r.borrow_mut().take())
        .map(|r| {
            assert!(r.open.is_empty(), "finish with {} spans open", r.open.len());
            r.rec
        })
        .unwrap_or_default()
}

/// Whether this thread is recording.
pub fn active() -> bool {
    REC.with(|r| r.borrow().is_some())
}

/// Tag the spans this thread opens from now on with operation `req`.
pub fn set_req(req: u64) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.req = req;
        }
    });
}

/// Run `f` inside a span named `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let idx = rec.rec.spans.len();
        rec.rec.spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent: rec.open.last().copied(),
            thread: rec.thread,
            req: rec.req,
        });
        rec.open.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = idx {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let rec = r.as_mut().expect("recorder removed inside a span");
            assert_eq!(rec.open.pop(), Some(idx), "spans closed out of order");
            rec.rec.spans[idx].end_ns = now_ns();
        });
    }
    out
}

/// Record an interval the program measured itself (it reports durations,
/// not start times) as a child of the innermost open span.
pub fn child(name: &'static str, start_ns: u64, end_ns: u64) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let parent = rec.open.last().copied();
            rec.rec.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                thread: rec.thread,
                req: rec.req,
            });
        }
    });
}

/// Add `v` to the count `name`.
pub fn count(name: &'static str, v: f64) {
    REC.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            *rec.rec.counts.entry(name).or_default() += v;
        }
    });
}

/// Put a load thread's recording under one root span covering the whole
/// phase, `[start_ns, end_ns]`: time the thread spent outside every other
/// span (waiting, or idle after its share of the work) becomes the root's
/// self time, so the self times of all spans sum to the phase's wall time
/// per load thread.
pub fn rooted(
    rec: Recording,
    name: &'static str,
    thread: u32,
    start_ns: u64,
    end_ns: u64,
) -> Recording {
    let mut spans = Vec::with_capacity(rec.spans.len() + 1);
    spans.push(Span {
        name,
        start_ns,
        end_ns,
        parent: None,
        thread,
        req: 0,
    });
    spans.extend(rec.spans.into_iter().map(|mut s| {
        s.parent = Some(s.parent.map_or(0, |p| p + 1));
        s
    }));
    Recording {
        spans,
        counts: rec.counts,
    }
}

/// Join per-thread recordings into one, re-basing parent indices.
pub fn merge(parts: Vec<Recording>) -> Recording {
    let mut all = Recording::default();
    for part in parts {
        let base = all.spans.len();
        all.spans.extend(part.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (k, v) in part.counts {
            *all.counts.entry(k).or_default() += v;
        }
    }
    all
}

/// Self time of every span: its duration minus the part of it that its
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            // Union of the children's intervals, clipped to the parent.
            let mut iv: Vec<(u64, u64)> = kids
                .iter()
                .map(|&c| {
                    let c = &spans[c];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in iv {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Totals for one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameStat {
    /// Spans with the name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// Per-name totals.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStat> {
    let mut out: BTreeMap<&'static str, NameStat> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += own;
    }
    out
}

/// The per-layer self-time table, as printed after a traced run.
pub fn table(stats: &BTreeMap<&'static str, NameStat>, traced_wall_ns: u64) -> String {
    let mut layers: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, st) in stats {
        *layers
            .entry(name.split('.').next().unwrap_or(name))
            .or_default() += st.self_ns;
    }
    let pct = |ns: u64| 100.0 * ns as f64 / traced_wall_ns.max(1) as f64;
    let mut out = format!(
        "{:<24} {:>10} {:>12} {:>12} {:>7}\n",
        "span", "count", "total_ms", "self_ms", "self%"
    );
    for (layer, self_ns) in &layers {
        out.push_str(&format!(
            "{:<24} {:>10} {:>12} {:>12.1} {:>6.1}%\n",
            format!("[{layer}]"),
            "",
            "",
            *self_ns as f64 / 1e6,
            pct(*self_ns)
        ));
        for (name, st) in stats
            .iter()
            .filter(|(n, _)| n.split('.').next() == Some(layer))
        {
            out.push_str(&format!(
                "  {:<22} {:>10} {:>12.1} {:>12.1} {:>6.1}%\n",
                name,
                st.count,
                st.total_ns as f64 / 1e6,
                st.self_ns as f64 / 1e6,
                pct(st.self_ns)
            ));
        }
    }
    out
}

/// The spans as JSON, at most `cap` of them (a fresh-kernel run records
/// hundreds of thousands).
pub fn to_json(spans: &[Span], cap: usize) -> Json {
    Json::obj([
        ("spans_recorded", Json::from(spans.len() as u64)),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .take(cap)
                    .map(|s| {
                        Json::obj([
                            ("name", Json::from(s.name)),
                            ("start_ns", Json::from(s.start_ns)),
                            ("end_ns", Json::from(s.end_ns)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                            ),
                            ("thread", Json::from(s.thread)),
                            ("req", Json::from(s.req)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            thread: 0,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = vec![
            sp("harness.root", 0, 100, None),
            sp("runtime.launch", 10, 60, Some(0)),
            sp("sim.exec", 12, 40, Some(1)),
            sp("sim.merge", 40, 45, Some(1)),
            sp("runtime.d2h", 70, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 17, 28, 5, 10]);
        // Self times partition the root: they sum to its duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        let by = by_name(&spans);
        assert_eq!(by["runtime.launch"].total_ns, 50);
        assert_eq!(by["runtime.launch"].self_ns, 17);
    }

    #[test]
    fn overlapping_or_overhanging_children_are_not_double_counted() {
        let spans = vec![
            sp("a.parent", 0, 10, None),
            sp("b.x", 2, 6, Some(0)),
            sp("b.y", 4, 8, Some(0)),
            sp("b.z", 9, 30, Some(0)),
        ];
        // Coverage is [2,8) plus [9,10): 7 of 10.
        assert_eq!(self_times(&spans)[0], 3);
    }

    #[test]
    fn recorder_nests_by_open_order_and_merges_threads() {
        start(3);
        set_req(7);
        span("harness.case", || {
            span("runtime.build", || count("compiler.builds", 1.0));
            child("sim.exec", now_ns(), now_ns());
        });
        let a = finish();
        assert!(!active());
        assert_eq!(a.spans.len(), 3);
        assert_eq!(a.spans[1].parent, Some(0));
        assert_eq!(a.spans[2].parent, Some(0));
        assert!(a.spans.iter().all(|s| s.thread == 3 && s.req == 7));
        assert_eq!(a.counts["compiler.builds"], 1.0);

        // Without a recorder nothing is kept.
        assert_eq!(span("runtime.build", || 5), 5);
        assert!(finish().spans.is_empty());

        let b = Recording {
            spans: vec![sp("x.y", 0, 1, None), sp("x.z", 0, 1, Some(0))],
            counts: BTreeMap::from([("compiler.builds", 2.0)]),
        };
        let m = merge(vec![a, b]);
        assert_eq!(m.spans[4].parent, Some(3));
        assert_eq!(m.counts["compiler.builds"], 3.0);
    }
}
