//! The benchmark's own span recorder (host clock). With `--trace 1` a
//! span is recorded around every call the benchmark makes into a layer;
//! spans stay in memory and are written to `bench/out/<workload>.trace.json`
//! when the run ends. No span is recorded inside `crates/`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. `parent` is an index into the recorder's span
/// list; spans of one benchmark op share `op_id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op_id: u64,
}

/// In-memory span recorder. Disabled, every call is a branch on a bool and
/// the host clock is never read.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op_id: u64) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.clock_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op_id,
        });
        self.stack.push(id);
        Some(id)
    }

    /// Close a span opened with [`Spans::enter`] (and anything still open
    /// inside it).
    pub fn exit(&mut self, id: Option<u32>) {
        let Some(id) = id else { return };
        let end_ns = self.clock_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top as usize].end_ns = end_ns;
            if top == id {
                break;
            }
        }
    }

    /// Record a span around `f`.
    pub fn time<T>(&mut self, name: &'static str, op_id: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, op_id);
        let out = f();
        self.exit(id);
        out
    }

    /// Self time per span name over spans starting inside `[from_ns,
    /// to_ns)`: each span's duration minus the part its direct children
    /// cover.
    pub fn self_times_between(&self, from_ns: u64, to_ns: u64) -> BTreeMap<&'static str, u64> {
        self_times(&self.spans, |s| s.start_ns >= from_ns && s.start_ns < to_ns)
    }

    /// Host nanoseconds since the recorder was created (the time base of
    /// every span).
    pub fn clock_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Serialise as a JSON array of `{name, start_ns, end_ns, parent,
    /// op_id}` objects, `parent` being the parent's array index or `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.op_id
            );
        }
        out.push_str("\n]\n");
        out
    }
}

/// Self time per name over the spans `select` accepts (a child is
/// subtracted from its parent whether or not it was itself selected).
fn self_times(all: &[Span], select: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; all.len()];
    for s in all {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, children) in all.iter().zip(child_ns) {
        if select(s) {
            *out.entry(s.name).or_default() += (s.end_ns - s.start_ns).saturating_sub(children);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // op [0,100) ⊃ publish [10,40) ⊃ storage [15,25); op ⊃ index [50,90)
        let all = vec![
            span("op", 0, 100, None),
            span("publish", 10, 40, Some(0)),
            span("storage", 15, 25, Some(1)),
            span("index", 50, 90, Some(0)),
        ];
        let t = self_times(&all, |_| true);
        assert_eq!(t["op"], 100 - 30 - 40);
        assert_eq!(t["publish"], 30 - 10);
        assert_eq!(t["storage"], 10);
        assert_eq!(t["index"], 40);
        assert_eq!(
            t.values().sum::<u64>(),
            100,
            "self times partition the root"
        );
    }

    #[test]
    fn recorder_nests_and_is_free_when_disabled() {
        let mut off = Spans::new(false);
        assert_eq!(off.time("x", 1, || 7), 7);
        assert_eq!(off.len(), 0);

        let mut on = Spans::new(true);
        let outer = on.enter("outer", 9);
        on.time("inner", 9, || std::hint::black_box(1 + 1));
        on.exit(outer);
        let spans = on.all();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = on.to_json();
        assert!(json.contains("\"name\":\"inner\"") && json.contains("\"parent\":0"));
        assert!(json.contains("\"parent\":null") && json.contains("\"op_id\":9"));
        let own = on.self_times_between(0, u64::MAX);
        let total = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(own["outer"] + own["inner"], total);
    }
}
