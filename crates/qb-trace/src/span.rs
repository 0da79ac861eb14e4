//! Spans and the [`Tracer`] that records them.
//!
//! A span is a named interval on the simulated clock with an optional
//! parent; a trace is the flat list of spans one measurement produced. The
//! tracer enforces well-nesting *by construction*: a child's start is
//! clamped into its parent's interval and every recorded end is propagated
//! up the parent chain, so `child ⊆ parent` holds for arbitrary call
//! sequences (property-tested in the crate root). Span ids are handed out
//! sequentially, timestamps come from the callers' [`SimInstant`]s, and no
//! wall clock or randomness is consulted anywhere — two runs with the same
//! seed serialize to byte-identical traces.
//!
//! The tracer is **off by default** and every entry point is a no-op while
//! disabled: it returns `None`, allocates nothing and never evaluates the
//! lazy `detail` closure, so an instrumented hot path costs one branch.

use qb_common::SimInstant;

/// Identifier of one span within a [`Trace`] (1-based, in creation order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// One named interval on the simulated clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// This span's id (1-based index into [`Trace::spans`]).
    pub id: SpanId,
    /// Enclosing span, `None` for a root.
    pub parent: Option<SpanId>,
    /// Stage name (`"query"`, `"fetch"`, `"rpc"`, ...). Static so recording
    /// a span never allocates for the name.
    pub name: &'static str,
    /// Free-form label (query text, link endpoints, term); empty unless the
    /// call site provided one.
    pub detail: String,
    /// Interval start.
    pub start: SimInstant,
    /// Interval end (`>= start`; grown automatically to cover children).
    pub end: SimInstant,
}

impl Span {
    /// Length of the interval.
    pub fn duration(&self) -> qb_common::SimDuration {
        self.end.since(self.start)
    }
}

/// Records spans against the simulated clock. Disabled by default; see the
/// module docs for the guarantees.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    /// Open spans, outermost first; the top is the default parent.
    stack: Vec<SpanId>,
}

impl Tracer {
    /// Turn recording on or off. Turning it off mid-trace keeps what was
    /// already recorded (drain with [`Tracer::take`]).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Is the tracer recording? Call sites guard expensive detail
    /// construction behind this (the lazy closures make that automatic).
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The innermost open span (the default parent of new spans).
    pub fn current(&self) -> Option<SpanId> {
        self.stack.last().copied()
    }

    /// Open a span starting at `start` under the innermost open span, with
    /// a lazy detail label (evaluated only while recording), and make it
    /// the new default parent. Returns `None` while disabled.
    pub fn open_with(
        &mut self,
        name: &'static str,
        start: SimInstant,
        detail: impl FnOnce() -> String,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let id = self.push(self.current(), name, detail(), start, start);
        self.stack.push(id);
        Some(id)
    }

    /// Close an open span at `end` (its end also covers any children that
    /// outran the requested instant). `None` ids — from calls made while
    /// disabled — are ignored.
    pub fn close(&mut self, id: Option<SpanId>, end: SimInstant) {
        let Some(id) = id else { return };
        let Some(span) = self.get_mut(id) else {
            return;
        };
        if end > span.end {
            span.end = end;
        }
        let end = span.end;
        let parent = span.parent;
        self.propagate_end(parent, end);
        if let Some(pos) = self.stack.iter().rposition(|&s| s == id) {
            self.stack.truncate(pos);
        }
    }

    /// Record a complete span. `parent` of `None` attaches it under the
    /// innermost open span (or as a root); pass an explicit parent for
    /// spans created off the stack discipline, e.g. on a virtual timeline.
    /// Returns `None` while disabled.
    pub fn record(
        &mut self,
        parent: Option<SpanId>,
        name: &'static str,
        start: SimInstant,
        end: SimInstant,
    ) -> Option<SpanId> {
        self.record_with(parent, name, start, end, String::new)
    }

    /// [`Tracer::record`] with a lazy detail label.
    pub fn record_with(
        &mut self,
        parent: Option<SpanId>,
        name: &'static str,
        start: SimInstant,
        end: SimInstant,
        detail: impl FnOnce() -> String,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let parent = parent.or_else(|| self.current());
        Some(self.push(parent, name, detail(), start, end))
    }

    /// Drain everything recorded into a [`Trace`] and reset the id counter,
    /// so consecutive measurements start their traces identically.
    pub fn take(&mut self) -> Trace {
        self.stack.clear();
        Trace {
            spans: std::mem::take(&mut self.spans),
        }
    }

    fn get_mut(&mut self, id: SpanId) -> Option<&mut Span> {
        self.spans.get_mut((id.0 as usize).checked_sub(1)?)
    }

    /// Insert a span, clamping it into its parent's interval on the start
    /// side and growing ancestors on the end side (the two halves of the
    /// nesting invariant).
    fn push(
        &mut self,
        parent: Option<SpanId>,
        name: &'static str,
        detail: String,
        start: SimInstant,
        end: SimInstant,
    ) -> SpanId {
        let mut start = start;
        if let Some(p) = parent {
            if let Some(pspan) = self.spans.get((p.0 - 1) as usize) {
                start = start.max(pspan.start);
            }
        }
        let end = end.max(start);
        let id = SpanId(self.spans.len() as u64 + 1);
        self.spans.push(Span {
            id,
            parent,
            name,
            detail,
            start,
            end,
        });
        self.propagate_end(parent, end);
        id
    }

    /// Grow every ancestor's end to cover `end`.
    fn propagate_end(&mut self, mut parent: Option<SpanId>, end: SimInstant) {
        while let Some(p) = parent {
            let Some(span) = self.spans.get_mut((p.0 - 1) as usize) else {
                return;
            };
            if span.end >= end {
                return;
            }
            span.end = end;
            parent = span.parent;
        }
    }
}

/// A completed measurement's spans, in creation (= id) order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// All recorded spans; `spans[i].id == SpanId(i + 1)`.
    pub spans: Vec<Span>,
}

impl Trace {
    /// Number of spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when the trace holds no spans.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Look a span up by id.
    pub fn get(&self, id: SpanId) -> Option<&Span> {
        self.spans.get((id.0 as usize).checked_sub(1)?)
    }

    /// Direct children of `id`, in creation order.
    pub fn children(&self, id: SpanId) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// Spans with the given stage name, in creation order.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// The root ancestor of a span (itself when it is a root).
    pub fn root_of(&self, id: SpanId) -> SpanId {
        let mut cur = id;
        while let Some(parent) = self.get(cur).and_then(|s| s.parent) {
            cur = parent;
        }
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qb_common::SimDuration;

    fn t(us: u64) -> SimInstant {
        SimInstant(us)
    }

    #[test]
    fn disabled_tracer_records_nothing_and_never_runs_detail_closures() {
        let mut tr = Tracer::default();
        assert!(!tr.is_enabled());
        let id = tr.open_with("query", t(0), || {
            unreachable!("lazy detail ran while disabled")
        });
        assert_eq!(id, None);
        let id = tr.record_with(None, "fetch", t(0), t(5), || {
            unreachable!("lazy detail ran while disabled")
        });
        assert_eq!(id, None);
        tr.close(None, t(9));
        assert!(tr.is_empty());
        assert!(tr.take().is_empty());
    }

    #[test]
    fn stack_discipline_builds_a_tree() {
        let mut tr = Tracer::default();
        tr.set_enabled(true);
        let root = tr.open_with("query", t(0), String::new);
        let fetch = tr.open_with("fetch", t(10), String::new);
        let rpc = tr.record(None, "rpc", t(10), t(40));
        tr.close(fetch, t(50));
        tr.close(root, t(60));
        let trace = tr.take();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.get(rpc.unwrap()).unwrap().parent, fetch);
        assert_eq!(trace.get(fetch.unwrap()).unwrap().parent, root);
        assert_eq!(trace.spans.iter().filter(|s| s.parent.is_none()).count(), 1);
        assert_eq!(trace.root_of(rpc.unwrap()), root.unwrap());
        assert_eq!(
            trace.get(root.unwrap()).unwrap().duration(),
            SimDuration::from_micros(60)
        );
    }

    #[test]
    fn children_grow_their_ancestors_end() {
        let mut tr = Tracer::default();
        tr.set_enabled(true);
        let root = tr.open_with("window", t(100), String::new);
        // A virtual-timeline fetch completes after the instant the caller
        // will close the window at.
        tr.record(root, "fetch", t(100), t(900));
        tr.close(root, t(100));
        let trace = tr.take();
        assert_eq!(trace.get(root.unwrap()).unwrap().end, t(900));
    }

    #[test]
    fn child_start_is_clamped_into_the_parent() {
        let mut tr = Tracer::default();
        tr.set_enabled(true);
        let root = tr.open_with("query", t(50), String::new);
        let early = tr.record(root, "fetch", t(10), t(60)).unwrap();
        tr.close(root, t(70));
        let trace = tr.take();
        assert_eq!(trace.get(early).unwrap().start, t(50));
    }

    #[test]
    fn explicit_parent_overrides_the_stack() {
        let mut tr = Tracer::default();
        tr.set_enabled(true);
        let a = tr.open_with("a", t(0), String::new);
        let b = tr.record(None, "b", t(0), t(1)).unwrap();
        tr.close(a, t(5));
        let c = tr.record(Some(b), "c", t(0), t(1)).unwrap();
        let trace = tr.take();
        assert_eq!(trace.get(c).unwrap().parent, Some(b));
    }

    #[test]
    fn take_resets_ids() {
        let mut tr = Tracer::default();
        tr.set_enabled(true);
        tr.record(None, "x", t(0), t(1));
        tr.record(None, "y", t(1), t(2));
        let first = tr.take();
        tr.record(None, "x", t(0), t(1));
        let second = tr.take();
        assert_eq!(first.spans[0].id, second.spans[0].id);
        assert_eq!(second.spans[0].id, SpanId(1));
    }
}
