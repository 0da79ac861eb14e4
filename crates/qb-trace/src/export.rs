//! Trace exporters.
//!
//! Two formats, both rendered by hand so the bytes are a pure function of
//! the trace (no map iteration order, float formatting or serializer
//! version can perturb them — same seed, same bytes):
//!
//! - [`to_json`]: the spans verbatim, for programmatic consumers.
//! - [`to_chrome_trace`]: the Chrome trace-event format (complete `"X"`
//!   events, microsecond timestamps), loadable in `chrome://tracing` or
//!   Perfetto. Each root span tree becomes one "thread" (`tid` = root span
//!   id) so concurrent queries render as parallel tracks.

use crate::span::Trace;

/// Escape a string for embedding in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Export a trace as plain JSON: `{"spans": [{id, parent, name, detail,
/// start_us, end_us}, ...]}` with `parent: 0` for roots.
pub fn to_json(trace: &Trace) -> String {
    let mut out = String::from("{\"spans\":[");
    for (i, s) in trace.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"detail\":\"{}\",\"start_us\":{},\"end_us\":{}}}",
            s.id.0,
            s.parent.map_or(0, |p| p.0),
            json_escape(s.name),
            json_escape(&s.detail),
            s.start.as_micros(),
            s.end.as_micros()
        ));
    }
    out.push_str("]}");
    out
}

/// Export a trace in the Chrome trace-event format (open the file in
/// `chrome://tracing` or <https://ui.perfetto.dev>). Spans become complete
/// (`"ph":"X"`) events; the `tid` is the id of the span's root ancestor so
/// each query/window tree gets its own track.
pub fn to_chrome_trace(trace: &Trace) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in trace.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let tid = trace.root_of(s.id).0;
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"qb\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\"args\":{{\"id\":{},\"detail\":\"{}\"}}}}",
            json_escape(s.name),
            s.start.as_micros(),
            s.end.since(s.start).as_micros(),
            tid,
            s.id.0,
            json_escape(&s.detail)
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Tracer;
    use qb_common::SimInstant;

    fn sample() -> Trace {
        let mut tr = Tracer::default();
        tr.set_enabled(true);
        let q = tr.open_with("query", SimInstant(10), || "alpha \"beta\"".to_string());
        tr.record(None, "fetch", SimInstant(12), SimInstant(40));
        tr.close(q, SimInstant(50));
        tr.take()
    }

    #[test]
    fn json_round_trips_ids_and_escapes_details() {
        let json = to_json(&sample());
        assert!(json.contains("\"id\":1"), "{json}");
        assert!(json.contains("\"parent\":0"), "{json}");
        assert!(json.contains("\"parent\":1"), "{json}");
        assert!(json.contains("alpha \\\"beta\\\""), "{json}");
        assert!(json.contains("\"start_us\":10"), "{json}");
        assert!(json.contains("\"end_us\":50"), "{json}");
    }

    #[test]
    fn chrome_trace_groups_trees_by_tid() {
        let chrome = to_chrome_trace(&sample());
        assert!(chrome.starts_with("{\"traceEvents\":["), "{chrome}");
        assert!(chrome.contains("\"ph\":\"X\""), "{chrome}");
        // Both spans share the root's tid.
        assert_eq!(chrome.matches("\"tid\":1").count(), 2, "{chrome}");
        assert!(chrome.contains("\"dur\":40"), "{chrome}");
        assert!(chrome.contains("\"dur\":28"), "{chrome}");
    }

    #[test]
    fn identical_traces_export_identical_bytes() {
        assert_eq!(to_json(&sample()), to_json(&sample()));
        assert_eq!(to_chrome_trace(&sample()), to_chrome_trace(&sample()));
    }

    #[test]
    fn empty_trace_exports_are_valid() {
        let t = Trace::default();
        assert_eq!(to_json(&t), "{\"spans\":[]}");
        assert_eq!(
            to_chrome_trace(&t),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}"
        );
    }

    #[test]
    fn control_characters_are_escaped() {
        assert_eq!(json_escape("a\nb"), "a\\nb");
        assert_eq!(json_escape("x\u{1}y"), "x\\u0001y");
        assert_eq!(json_escape("q\\t"), "q\\\\t");
    }
}
