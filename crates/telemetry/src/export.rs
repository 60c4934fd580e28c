//! Exporters: JSONL for grepping, Chrome trace-event JSON for Perfetto.
//!
//! The Chrome trace-event format (`{"traceEvents": [...]}`) is what
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load
//! directly.  [`chrome_trace`] maps the flight recorder's stream onto
//! it with one *process* track per shard and one *thread* track per
//! session, so shard pinning, blast rounds (begin/end spans) and AIMD
//! burst transitions (a counter track per session) are all visible at a
//! glance.  [`ChromeTraceBuilder`] is the reusable JSON core —
//! `blast-sim` uses it to export the paper's simulated Fig. 2/3
//! timelines into the same UI.
//!
//! The workspace builds offline with no serde; both exporters write
//! JSON by hand.

use std::fmt::Write as _;

use crate::event::{EventKind, TraceEvent};

/// Escape a string for embedding in a JSON string literal.
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// One event per line: `{"ts_ns":…,"shard":…,"session":…,"kind":"…",
/// "a":…,"b":…}` — trivially parseable, `grep`- and `jq`-friendly.
pub fn jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for ev in events {
        let _ = writeln!(
            out,
            "{{\"ts_ns\":{},\"shard\":{},\"session\":{},\"kind\":\"{}\",\"a\":{},\"b\":{}}}",
            ev.ts_ns,
            ev.shard,
            ev.session,
            ev.kind.label(),
            ev.a,
            ev.b
        );
    }
    out
}

/// Incremental builder for Chrome trace-event JSON.
///
/// Timestamps are **microseconds** (floats allowed), the format's
/// native unit.  `pid`/`tid` pick the track: Perfetto groups events
/// into one expandable process per `pid` with one thread lane per
/// `tid`; [`process_name`](Self::process_name) and
/// [`thread_name`](Self::thread_name) label them.
#[derive(Debug, Default)]
pub struct ChromeTraceBuilder {
    events: Vec<String>,
}

impl ChromeTraceBuilder {
    /// An empty trace.
    pub fn new() -> ChromeTraceBuilder {
        ChromeTraceBuilder::default()
    }

    fn push_event(&mut self, ph: char, name: &str, pid: u64, tid: u64, ts_us: f64, extra: &str) {
        let mut ev = String::with_capacity(96 + name.len() + extra.len());
        ev.push_str("{\"name\":\"");
        escape_into(&mut ev, name);
        let _ = write!(
            ev,
            "\",\"ph\":\"{ph}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts_us:.3}{extra}}}"
        );
        self.events.push(ev);
    }

    /// A complete (`ph:"X"`) event: a span of `dur_us` starting at
    /// `ts_us`.
    pub fn complete(&mut self, pid: u64, tid: u64, name: &str, ts_us: f64, dur_us: f64) {
        self.push_event('X', name, pid, tid, ts_us, &format!(",\"dur\":{dur_us:.3}"));
    }

    /// A begin (`ph:"B"`) event opening a span; pair with
    /// [`end`](Self::end) on the same track.
    pub fn begin(&mut self, pid: u64, tid: u64, name: &str, ts_us: f64, args: &[(&str, u64)]) {
        self.push_event('B', name, pid, tid, ts_us, &args_json(args));
    }

    /// An end (`ph:"E"`) event closing the innermost open span.
    pub fn end(&mut self, pid: u64, tid: u64, name: &str, ts_us: f64, args: &[(&str, u64)]) {
        self.push_event('E', name, pid, tid, ts_us, &args_json(args));
    }

    /// A thread-scoped instant (`ph:"i"`) event with numeric args.
    pub fn instant(&mut self, pid: u64, tid: u64, name: &str, ts_us: f64, args: &[(&str, u64)]) {
        let mut extra = String::from(",\"s\":\"t\"");
        extra.push_str(&args_json(args));
        self.push_event('i', name, pid, tid, ts_us, &extra);
    }

    /// A counter (`ph:"C"`) sample — Perfetto renders these as a
    /// stepped value track.
    pub fn counter(
        &mut self,
        pid: u64,
        tid: u64,
        name: &str,
        ts_us: f64,
        series: &str,
        value: u64,
    ) {
        let mut extra = String::from(",\"args\":{\"");
        escape_into(&mut extra, series);
        let _ = write!(extra, "\":{value}}}");
        self.push_event('C', name, pid, tid, ts_us, &extra);
    }

    /// Label the `pid` track (metadata `process_name` event).
    pub fn process_name(&mut self, pid: u64, name: &str) {
        let mut extra = String::from(",\"args\":{\"name\":\"");
        escape_into(&mut extra, name);
        extra.push_str("\"}");
        self.push_event('M', "process_name", pid, 0, 0.0, &extra);
    }

    /// Label the `(pid, tid)` track (metadata `thread_name` event).
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        let mut extra = String::from(",\"args\":{\"name\":\"");
        escape_into(&mut extra, name);
        extra.push_str("\"}");
        self.push_event('M', "thread_name", pid, tid, 0.0, &extra);
    }

    /// Events emitted so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was emitted.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Render the final `{"traceEvents": [...]}` document.
    pub fn finish(self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, ev) in self.events.iter().enumerate() {
            out.push_str(ev);
            if i + 1 != self.events.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

fn args_json(args: &[(&str, u64)]) -> String {
    if args.is_empty() {
        return String::new();
    }
    let mut out = String::from(",\"args\":{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(&mut out, k);
        let _ = write!(out, "\":{v}");
    }
    out.push('}');
    out
}

/// Render a drained flight-recorder stream as Chrome trace-event JSON.
///
/// Track layout: `pid` = shard (labelled `shard N`), `tid` = session
/// (labelled `session N`; session 0 — shard-scoped events — becomes the
/// `reactor` lane).  [`EventKind::RoundStart`]/[`EventKind::RoundEnd`]
/// become begin/end spans, [`EventKind::PacerGrow`]/
/// [`EventKind::PacerShrink`] additionally emit a `burst` counter
/// track, and everything else is an instant event carrying `a`/`b` as
/// args.
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let mut b = ChromeTraceBuilder::new();
    let mut named: Vec<(u16, u32)> = Vec::new();
    for ev in events {
        if !named.iter().any(|&(s, _)| s == ev.shard) {
            b.process_name(u64::from(ev.shard), &format!("shard {}", ev.shard));
        }
        if !named.contains(&(ev.shard, ev.session)) {
            let label = if ev.session == 0 {
                "reactor".to_string()
            } else {
                format!("session {}", ev.session)
            };
            b.thread_name(u64::from(ev.shard), u64::from(ev.session), &label);
            named.push((ev.shard, ev.session));
        }
        let pid = u64::from(ev.shard);
        let tid = u64::from(ev.session);
        let ts = ev.ts_ns as f64 / 1e3;
        match ev.kind {
            EventKind::RoundStart => {
                b.begin(
                    pid,
                    tid,
                    &format!("round {}", ev.a),
                    ts,
                    &[("round", ev.a), ("packets", ev.b)],
                );
            }
            EventKind::RoundEnd => {
                b.end(
                    pid,
                    tid,
                    &format!("round {}", ev.a),
                    ts,
                    &[("round", ev.a), ("outcome", ev.b)],
                );
            }
            EventKind::PacerGrow | EventKind::PacerShrink => {
                b.instant(
                    pid,
                    tid,
                    ev.kind.label(),
                    ts,
                    &[("from", ev.a), ("to", ev.b)],
                );
                b.counter(
                    pid,
                    tid,
                    &format!("burst s{}", ev.session),
                    ts,
                    "burst",
                    ev.b,
                );
            }
            _ => {
                b.instant(pid, tid, ev.kind.label(), ts, &[("a", ev.a), ("b", ev.b)]);
            }
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64, session: u32, shard: u16, kind: EventKind, a: u64, b: u64) -> TraceEvent {
        TraceEvent {
            ts_ns: ts,
            session,
            shard,
            kind,
            a,
            b,
        }
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let events = [
            ev(1_000, 7, 0, EventKind::SessionAdmit, 0, 64),
            ev(2_000, 7, 0, EventKind::SessionReap, 1, 65536),
        ];
        let out = jsonl(&events);
        assert_eq!(out.lines().count(), 2);
        assert!(out.contains("\"kind\":\"session-admit\""));
        assert!(out.contains("\"ts_ns\":2000"));
        for line in out.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn chrome_trace_maps_rounds_to_spans() {
        let events = [
            ev(1_000, 7, 2, EventKind::RoundStart, 0, 64),
            ev(5_000, 7, 2, EventKind::RoundEnd, 0, 0),
        ];
        let out = chrome_trace(&events);
        assert!(out.contains("\"traceEvents\""));
        assert!(out.contains("\"ph\":\"B\""));
        assert!(out.contains("\"ph\":\"E\""));
        assert!(out.contains("\"name\":\"round 0\""));
        assert!(out.contains("\"pid\":2"));
        assert!(out.contains("\"tid\":7"));
        assert!(out.contains("\"name\":\"shard 2\""));
        assert!(out.contains("\"name\":\"session 7\""));
    }

    #[test]
    fn pacer_transitions_emit_counter_samples() {
        let events = [
            ev(1_000, 3, 0, EventKind::PacerGrow, 32, 64),
            ev(2_000, 3, 0, EventKind::PacerShrink, 64, 32),
        ];
        let out = chrome_trace(&events);
        assert!(out.contains("\"ph\":\"C\""));
        assert!(out.contains("\"name\":\"burst s3\""));
        assert!(out.contains("\"burst\":64"));
        assert!(out.contains("\"burst\":32"));
        assert!(out.contains("pacer-grow"));
        assert!(out.contains("pacer-shrink"));
    }

    #[test]
    fn session_zero_is_the_reactor_lane() {
        let events = [ev(500, 0, 1, EventKind::ShardTick, 3, 1)];
        let out = chrome_trace(&events);
        assert!(out.contains("\"name\":\"reactor\""));
        assert!(out.contains("\"s\":\"t\""));
    }

    #[test]
    fn builder_escapes_and_balances() {
        let mut b = ChromeTraceBuilder::new();
        assert!(b.is_empty());
        b.complete(1, 2, "copy \"in\"\n", 10.0, 5.0);
        assert_eq!(b.len(), 1);
        let out = b.finish();
        assert!(out.contains("copy \\\"in\\\"\\n"));
        assert!(out.contains("\"dur\":5.000"));
        // Structural sanity: braces and brackets balance.
        let opens = out.matches('{').count();
        let closes = out.matches('}').count();
        assert_eq!(opens, closes);
    }
}
