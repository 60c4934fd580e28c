//! Client-side spans of the traced run.
//!
//! Three levels share one operation id: the root span of a measured
//! operation, one child per `Client::push`/`pull` call inside it, and
//! under that one child per channel call (from
//! [`crate::channel::TracedChannel`]).  Everything here is taken around
//! calls into the program; spans inside it are a later issue.

use blast_telemetry::ChromeTraceBuilder;

use crate::channel::{Call, CallKind};
use crate::stats::median;

/// A closed interval on the meter's clock, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Interval {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One `Client::push` or `Client::pull` call and the slice of the call
/// log it produced.
#[derive(Debug, Clone)]
pub struct TransferSpan {
    pub name: &'static str,
    pub at: Interval,
    /// Index range into the meter's call log.
    pub calls: std::ops::Range<usize>,
}

/// The root span of one measured operation.
#[derive(Debug, Clone)]
pub struct OpSpan {
    pub id: u64,
    pub at: Interval,
    pub transfers: Vec<TransferSpan>,
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover.  Children may overlap each other or stick out of
/// the parent; only the covered part of the parent counts, once.
pub fn self_time_ns(parent: Interval, children: &[Interval]) -> u64 {
    let mut clipped: Vec<Interval> = children
        .iter()
        .map(|c| Interval {
            start_ns: c.start_ns.max(parent.start_ns),
            end_ns: c.end_ns.min(parent.end_ns),
        })
        .filter(|c| c.end_ns > c.start_ns)
        .collect();
    clipped.sort_by_key(|c| c.start_ns);
    let mut covered = 0;
    let mut reach = parent.start_ns;
    for c in clipped {
        if c.end_ns > reach {
            covered += c.end_ns - c.start_ns.max(reach);
            reach = c.end_ns;
        }
    }
    parent.dur_ns() - covered
}

/// Per-operation figures, each the median over operations, in µs
/// (`calls` is a count).
#[derive(Debug, Default, PartialEq)]
pub struct SpanSummary {
    pub transfer_us: f64,
    pub send_us: f64,
    pub recv_wait_us: f64,
    pub calls: f64,
    pub self_us: f64,
    pub handshake_us: f64,
    pub tail_us: f64,
}

/// Fold the spans of a traced window into per-operation medians.
///
/// `handshake` is first send → first datagram back and `tail` is last
/// datagram received → return, each per transfer and summed over the
/// operation's transfers.
pub fn summarize(ops: &[OpSpan], calls: &[Call]) -> SpanSummary {
    let mut cols: [Vec<f64>; 7] = Default::default();
    for op in ops {
        let mut send = 0u64;
        let mut recv = 0u64;
        let mut count = 0usize;
        let mut handshake = 0u64;
        let mut tail = 0u64;
        let mut children = Vec::new();
        for t in &op.transfers {
            let log = &calls[t.calls.clone()];
            count += log.len();
            for c in log {
                let at = Interval {
                    start_ns: c.start_ns,
                    end_ns: c.end_ns,
                };
                match c.kind {
                    CallKind::Recv => recv += at.dur_ns(),
                    _ => send += at.dur_ns(),
                }
                children.push(at);
            }
            let first_send = log.iter().find(|c| c.kind != CallKind::Recv);
            let mut answers = log
                .iter()
                .filter(|c| c.kind == CallKind::Recv && c.bytes > 0);
            let first_back = answers.next();
            if let (Some(s), Some(r)) = (first_send, first_back) {
                handshake += r.end_ns.saturating_sub(s.start_ns);
            }
            if let Some(last) = answers.next_back().or(first_back) {
                tail += t.at.end_ns.saturating_sub(last.end_ns);
            }
        }
        let us = |ns: u64| ns as f64 / 1e3;
        let row = [
            us(op.at.dur_ns()),
            us(send),
            us(recv),
            count as f64,
            us(self_time_ns(op.at, &children)),
            us(handshake),
            us(tail),
        ];
        for (col, v) in cols.iter_mut().zip(row) {
            col.push(v);
        }
    }
    let [transfer, send, recv, count, own, handshake, tail] = cols.map(|c| median(&c));
    SpanSummary {
        transfer_us: transfer,
        send_us: send,
        recv_wait_us: recv,
        calls: count,
        self_us: own,
        handshake_us: handshake,
        tail_us: tail,
    }
}

/// How many operations keep their channel-call spans in the dump; the
/// rest keep the operation and transfer spans only (a bulk operation
/// makes ~3 000 calls, so a full dump would run to hundreds of MB).
const DETAILED_OPS: usize = 8;

/// Render the spans as Chrome trace-event JSON (load at
/// <https://ui.perfetto.dev>): everything on one lane so operation ⊃
/// transfer ⊃ channel call nest by containment; begin/end events carry
/// the operation id.
pub fn chrome_trace(workload: &str, ops: &[OpSpan], calls: &[Call]) -> String {
    const PID: u64 = 1;
    const TID: u64 = 1;
    let us = |ns: u64| ns as f64 / 1e3;
    let mut b = ChromeTraceBuilder::new();
    b.process_name(PID, &format!("benchmark client ({workload})"));
    b.thread_name(PID, TID, "client thread");
    for (i, op) in ops.iter().enumerate() {
        let id = [("op", op.id)];
        b.begin(PID, TID, "node.client_transfer", us(op.at.start_ns), &id);
        for t in &op.transfers {
            b.begin(PID, TID, t.name, us(t.at.start_ns), &id);
            if i < DETAILED_OPS {
                for c in &calls[t.calls.clone()] {
                    let dur = c.end_ns.saturating_sub(c.start_ns);
                    b.complete(PID, TID, c.kind.name(), us(c.start_ns), us(dur));
                }
            }
            b.end(PID, TID, t.name, us(t.at.end_ns), &id);
        }
        b.end(PID, TID, "node.client_transfer", us(op.at.end_ns), &id);
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(start_ns: u64, end_ns: u64) -> Interval {
        Interval { start_ns, end_ns }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_time() {
        let parent = iv(100, 200);
        assert_eq!(self_time_ns(parent, &[]), 100);
        assert_eq!(self_time_ns(parent, &[iv(110, 120), iv(150, 180)]), 60);
        // Overlapping children count their union once.
        assert_eq!(self_time_ns(parent, &[iv(110, 150), iv(140, 160)]), 50);
        // A nested child adds nothing to its sibling's cover.
        assert_eq!(self_time_ns(parent, &[iv(110, 190), iv(120, 130)]), 20);
        // Children are clipped to the parent.
        assert_eq!(self_time_ns(parent, &[iv(50, 120), iv(190, 500)]), 70);
        assert_eq!(self_time_ns(parent, &[iv(0, 1000)]), 0);
        assert_eq!(self_time_ns(parent, &[iv(0, 50), iv(300, 400)]), 100);
    }

    #[test]
    fn summary_splits_an_operation_into_handshake_transfer_and_tail() {
        let call = |kind, start_ns, end_ns, bytes| Call {
            kind,
            start_ns,
            end_ns,
            bytes,
        };
        let calls = vec![
            call(CallKind::Send, 1_000, 2_000, 60), // request
            call(CallKind::Recv, 2_000, 5_000, 60), // echo
            call(CallKind::Stage, 6_000, 6_500, 1400),
            call(CallKind::Flush, 6_500, 7_500, 0),
            call(CallKind::Recv, 7_500, 9_000, 40), // ack
            call(CallKind::Recv, 9_000, 10_000, 0), // quiet linger
        ];
        let op = OpSpan {
            id: 7,
            at: iv(0, 12_000),
            transfers: vec![TransferSpan {
                name: "push",
                at: iv(500, 11_000),
                calls: 0..calls.len(),
            }],
        };
        let s = summarize(&[op], &calls);
        assert_eq!(
            s,
            SpanSummary {
                transfer_us: 12.0,
                send_us: 2.5,
                recv_wait_us: 5.5,
                calls: 6.0,
                self_us: 4.0,
                handshake_us: 4.0,
                tail_us: 2.0,
            }
        );
    }

    #[test]
    fn chrome_dump_is_balanced_and_carries_the_operation_id() {
        let calls = vec![Call {
            kind: CallKind::Send,
            start_ns: 10,
            end_ns: 20,
            bytes: 5,
        }];
        let op = OpSpan {
            id: 3,
            at: iv(0, 100),
            transfers: vec![TransferSpan {
                name: "pull",
                at: iv(5, 90),
                calls: 0..1,
            }],
        };
        let doc = chrome_trace("bulk_pull", &[op], &calls);
        let json = crate::json::parse(&doc).expect("valid JSON");
        let events = json.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        let phase = |ph: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some(ph))
                .count()
        };
        assert_eq!((phase("B"), phase("E"), phase("X")), (2, 2, 1));
        assert!(doc.contains("\"op\":3"));
    }
}
