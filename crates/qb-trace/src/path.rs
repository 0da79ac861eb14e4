//! Critical-path extraction over a span tree.
//!
//! The critical path answers "which stage bounded this root span's
//! duration?". Starting from the root's end, the walk repeatedly descends
//! into the child whose end is latest but not past the cursor, moves the
//! cursor to that child's start, and repeats inside the child; gaps
//! between steps are charged to the span being walked (its *self time*).
//! Summing self time per stage name gives an attribution map whose total
//! is exactly the root's duration.

use std::collections::BTreeMap;

use qb_common::{SimDuration, SimInstant};

use crate::span::{Span, SpanId, Trace};

/// One step of a critical path, in chronological order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathStep {
    /// The span this step belongs to.
    pub id: SpanId,
    /// Stage name of that span.
    pub name: &'static str,
    /// Detail label of that span.
    pub detail: String,
    /// Where this step's charged interval starts.
    pub start: SimInstant,
    /// Where this step's charged interval ends.
    pub end: SimInstant,
    /// Time charged to this span itself (excludes descendants on the path).
    pub self_time: SimDuration,
}

/// Extract the critical path of `root`: the chain of spans that bounded
/// its completion, chronological, with per-span self time. Empty when the
/// id is unknown.
pub fn critical_path(trace: &Trace, root: SpanId) -> Vec<PathStep> {
    let Some(span) = trace.get(root) else {
        return Vec::new();
    };
    let mut steps = Vec::new();
    walk(trace, span, span.end, &mut steps);
    steps.reverse();
    steps
}

/// Walk backwards from `cursor` inside `span`, pushing steps in reverse
/// chronological order.
fn walk(trace: &Trace, span: &Span, mut cursor: SimInstant, steps: &mut Vec<PathStep>) {
    let step_end = cursor;
    loop {
        // The child that finishes latest without overshooting the cursor
        // is the one the remaining interval waited on. Ties break towards
        // the later start (the tighter bound), then the higher id, so the
        // choice is deterministic.
        let next = trace
            .children(span.id)
            .filter(|c| c.end <= cursor && c.start < cursor)
            .max_by_key(|c| (c.end, c.start, c.id));
        match next {
            Some(child) => {
                walk(trace, child, child.end, steps);
                cursor = child.start;
            }
            None => {
                steps.push(PathStep {
                    id: span.id,
                    name: span.name,
                    detail: span.detail.clone(),
                    start: span.start,
                    end: step_end,
                    self_time: sum_self(trace, span, step_end),
                });
                return;
            }
        }
    }
}

/// Self time of `span` on the path ending at `end`: `end - start` minus
/// the on-path children's covered intervals.
fn sum_self(trace: &Trace, span: &Span, end: SimInstant) -> SimDuration {
    let mut cursor = end;
    let mut self_time = SimDuration::ZERO;
    loop {
        let next = trace
            .children(span.id)
            .filter(|c| c.end <= cursor && c.start < cursor)
            .max_by_key(|c| (c.end, c.start, c.id));
        match next {
            Some(child) => {
                self_time += cursor.since(child.end);
                cursor = child.start;
            }
            None => {
                self_time += cursor.since(span.start);
                return self_time;
            }
        }
    }
}

/// Sum the critical path's self time per stage name. The values add up to
/// the root span's duration.
pub fn attribution(trace: &Trace, root: SpanId) -> BTreeMap<&'static str, SimDuration> {
    let mut out: BTreeMap<&'static str, SimDuration> = BTreeMap::new();
    for step in critical_path(trace, root) {
        *out.entry(step.name).or_insert(SimDuration::ZERO) += step.self_time;
    }
    out
}

/// Render a critical path as indented text, one step per line.
pub fn render_path(steps: &[PathStep]) -> String {
    let mut out = String::new();
    for step in steps {
        let detail = if step.detail.is_empty() {
            String::new()
        } else {
            format!(" [{}]", step.detail)
        };
        out.push_str(&format!(
            "{:>10} .. {:>10}  {:<12} self={}{}\n",
            step.start.as_micros(),
            step.end.as_micros(),
            step.name,
            step.self_time,
            detail
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Tracer;

    fn t(us: u64) -> SimInstant {
        SimInstant(us)
    }

    /// query[0,100] { queue[0,30], fetch[30,90] { rpc[35,80] } }
    fn sample() -> (Trace, SpanId) {
        let mut tr = Tracer::new();
        tr.set_enabled(true);
        let q = tr.open_with("query", t(0), String::new);
        tr.record(None, "queue_wait", t(0), t(30));
        let f = tr.open_with("fetch", t(30), String::new);
        tr.record(None, "rpc", t(35), t(80));
        tr.close(f, t(90));
        tr.close(q, t(100));
        (tr.take(), q.unwrap())
    }

    #[test]
    fn path_is_chronological_and_covers_the_root() {
        let (trace, root) = sample();
        let steps = critical_path(&trace, root);
        let names: Vec<_> = steps.iter().map(|s| s.name).collect();
        assert_eq!(names, ["query", "queue_wait", "fetch", "rpc"]);
        for w in steps.windows(2) {
            assert!(w[0].start <= w[1].start);
        }
        let total: SimDuration = steps
            .iter()
            .fold(SimDuration::ZERO, |acc, s| acc + s.self_time);
        assert_eq!(total, SimDuration::from_micros(100));
    }

    #[test]
    fn attribution_sums_to_root_duration() {
        let (trace, root) = sample();
        let attr = attribution(&trace, root);
        // queue 30, fetch self = (35-30) + (90-80) = 15, rpc 45, query self = 10.
        assert_eq!(attr["queue_wait"], SimDuration::from_micros(30));
        assert_eq!(attr["rpc"], SimDuration::from_micros(45));
        assert_eq!(attr["fetch"], SimDuration::from_micros(15));
        assert_eq!(attr["query"], SimDuration::from_micros(10));
    }

    #[test]
    fn unknown_root_yields_empty_path() {
        let (trace, _) = sample();
        assert!(critical_path(&trace, SpanId(999)).is_empty());
    }

    #[test]
    fn render_mentions_every_stage() {
        let (trace, root) = sample();
        let text = render_path(&critical_path(&trace, root));
        for name in ["queue_wait", "rpc", "fetch", "query"] {
            assert!(text.contains(name), "{text}");
        }
    }
}
