//! From measured windows to named metrics, and the result line.

use blast_core::PacingConfig;
use blast_udp::netio::NetIoStats;

use crate::json::quote;
use crate::ledger::Ledger;
use crate::names::{END_TO_END, PER_LAYER};
use crate::procfs;
use crate::spans::summarize;
use crate::stats::{chunked_goodput, median, percentile, quartiles, ratio, tail_percentile};
use crate::workload::{SenderTally, Window};

/// Chunks the goodput median is taken over.
const GOODPUT_CHUNKS: usize = 20;

fn goodput(w: &Window) -> f64 {
    chunked_goodput(&w.ops, GOODPUT_CHUNKS)
}

/// Process CPU milliseconds per verified MB: the median over the slices
/// between the window's CPU marks, so a burst of interference in one
/// slice moves one sample, not the figure.
fn cpu_ms_per_mb(w: &Window) -> f64 {
    let mut previous = (0.0, 0u64);
    let mut slices = Vec::with_capacity(w.cpu_marks.len());
    for &(cpu, bytes) in &w.cpu_marks {
        if bytes > previous.1 {
            let mb = (bytes - previous.1) as f64 / 1e6;
            slices.push((cpu - previous.0) * 1e3 / mb);
            previous = (cpu, bytes);
        }
    }
    median(&slices)
}

/// The end-to-end metrics of an untraced window, in table order.
pub fn end_to_end(w: &Window, setup_s: f64) -> Vec<(&'static str, f64)> {
    let latencies_ms: Vec<f64> = w.ops.iter().map(|(_, s)| s * 1e3).collect();
    let values = [
        goodput(w),
        median(&latencies_ms),
        percentile(&latencies_ms, 90.0),
        cpu_ms_per_mb(w),
        ratio(w.verified_bytes() as f64, w.wire_bytes as f64),
        setup_s,
        procfs::peak_rss_mb(),
    ];
    END_TO_END.iter().map(|m| m.0).zip(values).collect()
}

/// The latency distribution behind the two percentile metrics, for the
/// human reader: sample count, quartiles, and the highest percentile
/// the sample supports (at least ten samples beyond it).
pub fn latency_note(w: &Window) -> String {
    let ms: Vec<f64> = w.ops.iter().map(|(_, s)| s * 1e3).collect();
    let mut note = format!("transfer_ms: n={}", ms.len());
    if let Some((q1, q2, q3)) = quartiles(&ms) {
        note += &format!(" q1={q1:.3} median={q2:.3} q3={q3:.3}");
    }
    if let Some(p) = tail_percentile(ms.len()) {
        note += &format!(
            " p{p}={:.3} (highest with >= 10 samples beyond)",
            percentile(&ms, p)
        );
    }
    note
}

/// The NetIo tier a side's sends ran on, judged from what its counters
/// say happened: mostly inside GSO super-datagrams, at least two
/// datagrams per syscall, or one by one.
fn send_tier(io: &NetIoStats) -> &'static str {
    if io.gso_segments * 2 > io.datagrams_sent {
        "udp.netio_send_ns.gso"
    } else if io.datagrams_sent >= 2 * io.send_batches {
        "udp.netio_send_ns.batched"
    } else {
        "udp.netio_send_ns.portable"
    }
}

fn recv_tier(io: &NetIoStats) -> &'static str {
    if io.gro_segments * 2 > io.datagrams_received {
        "udp.netio_recv_ns.gro"
    } else if io.datagrams_received >= 2 * io.recv_batches {
        "udp.netio_recv_ns.batched"
    } else {
        "udp.netio_recv_ns.portable"
    }
}

/// Σ unit cost × counted packets, bytes and transfers, in seconds: what
/// the ledger says the window's datapath work should have cost.
/// Per-transfer fixed costs that are waits rather than work (handshake
/// round trip, linger, pace gaps) are deliberately not in it.
fn attributed_cpu_secs(ledger: &Ledger, w: &Window) -> f64 {
    let io_ns = |io: &NetIoStats| {
        io.datagrams_sent as f64 * (ledger.get("udp.fcs_frame_ns") + ledger.get(send_tier(io)))
            + io.datagrams_received as f64
                * (ledger.get(recv_tier(io))
                    + ledger.get("udp.fcs_unframe_ns")
                    + ledger.get("wire.parse_ns"))
    };
    let c = &w.client;
    let ns = io_ns(&w.client_io)
        + io_ns(&w.node_io)
        + c.data_packets as f64 * (ledger.get("core.sender_ns") + ledger.get("core.receiver_ns"))
        + c.acks as f64 * ledger.get("wire.ack_codec_ns")
        // A pushed blob is copied Vec → Arc<[u8]> once by the client
        // (`push`) and once by the node (store commit).
        + 2.0 * (c.pushed_bytes as f64 / 1024.0) * ledger.get("node.store_put_ns_per_KB")
        + c.pulls as f64 * ledger.get("node.store_get_ns");
    ns / 1e9
}

/// The per-layer metrics of one `--trace 1` run, in table order: the
/// ledger, the counters of the untraced window, the spans of the traced
/// one, and the attribution that ties them together.
pub fn per_layer(
    ledger: &Ledger,
    plain: &Window,
    traced: &Window,
    node_sends: bool,
) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = ledger.entries().to_vec();

    let per = |count: u64| ratio(count as f64, plain.ops.len() as f64);
    let (cio, nio) = (&plain.client_io, &plain.node_io);
    let both = |f: fn(&NetIoStats) -> u64| (f(cio) + f(nio)) as f64;
    let (cs, ns) = (&plain.client.sender, &plain.node_sender);
    // Per operation: the client's sender engines over its own count,
    // plus the node's over the sessions its reports still hold.
    let per_op = |f: fn(&SenderTally) -> u64| {
        ratio(f(cs) as f64, cs.transfers as f64) + ratio(f(ns) as f64, ns.transfers as f64)
    };
    // Wait expiries on the side whose engine paces the data out.
    let sender_waits = if node_sends {
        nio.timeouts
    } else {
        cio.timeouts
    };
    let reactor_busy = ratio(plain.reactor_cpu_secs, plain.wall_secs);
    let client_busy = ratio(plain.client_cpu_secs, plain.wall_secs);
    out.extend([
        (
            "node.datagrams_in_per_transfer",
            per(plain.node_datagrams_in),
        ),
        ("node.datagrams_out_per_transfer", per(nio.datagrams_sent)),
        ("node.wakeups_per_transfer", per(nio.wakeups)),
        ("node.timer_expiries_per_transfer", per(nio.timeouts)),
        ("node.discards", plain.node_discards as f64),
        ("node.sessions_failed", plain.node_sessions_failed as f64),
        ("node.reactor_busy_share", reactor_busy),
        ("node.client_busy_share", client_busy),
        (
            "udp.send_batch_mean",
            ratio(both(|io| io.datagrams_sent), both(|io| io.send_batches)),
        ),
        (
            "udp.recv_batch_mean",
            ratio(both(|io| io.datagrams_received), both(|io| io.recv_batches)),
        ),
        (
            "udp.gso_segs_per_super",
            ratio(
                both(|io| io.gso_segments),
                both(|io| io.gso_super_datagrams),
            ),
        ),
        (
            "udp.gro_segs_per_super",
            ratio(
                both(|io| io.gro_segments),
                both(|io| io.gro_super_datagrams),
            ),
        ),
        ("udp.client_malformed", plain.client.malformed as f64),
        ("core.retx_rounds_per_transfer", per_op(|s| s.rounds)),
        (
            "core.retx_packet_ratio",
            ratio(
                (cs.retx_packets + ns.retx_packets) as f64,
                (cs.data_sent + ns.data_sent) as f64,
            ),
        ),
        ("core.timeouts_per_transfer", per_op(|s| s.timeouts)),
        (
            "core.burst_final",
            ratio(
                cs.burst_final_sum + ns.burst_final_sum,
                (cs.burst_samples + ns.burst_samples) as f64,
            ),
        ),
        (
            "core.pace_gap_ms_per_transfer",
            per(sender_waits) * PacingConfig::lan().gap.as_secs_f64() * 1e3,
        ),
        ("core.pool_fresh_allocs", plain.pool_fresh_allocs as f64),
        (
            "counting-alloc.allocs_per_datagram",
            ratio(plain.allocations as f64, plain.wire_datagrams as f64),
        ),
    ]);

    let spans = summarize(&traced.spans, &traced.calls);
    let plain_goodput = goodput(plain);
    out.extend([
        ("node.client_transfer_us", spans.transfer_us),
        ("udp.chan_send_us_per_transfer", spans.send_us),
        ("udp.chan_recv_wait_us_per_transfer", spans.recv_wait_us),
        ("udp.chan_calls_per_transfer", spans.calls),
        ("node.client_self_us_per_transfer", spans.self_us),
        ("node.client_handshake_us", spans.handshake_us),
        ("node.client_tail_us", spans.tail_us),
        (
            "telemetry.events_per_transfer",
            ratio(traced.trace_events as f64, traced.ops.len() as f64),
        ),
        ("telemetry.dropped", traced.trace_dropped as f64),
        (
            "trace.overhead_pct",
            100.0 * ratio(plain_goodput - goodput(traced), plain_goodput),
        ),
        (
            "ledger.attributed_cpu_share",
            ratio(attributed_cpu_secs(ledger, plain), plain.process_cpu_secs),
        ),
        ("ledger.idle_share", 1.0 - reactor_busy.max(client_busy)),
    ]);
    debug_assert!(out.iter().map(|m| m.0).eq(PER_LAYER.iter().map(|m| m.0)));
    out
}

/// The unit of a metric, from the tables.
pub fn unit_of(name: &str) -> &'static str {
    let e2e = END_TO_END.iter().map(|m| (m.0, m.1));
    let mut all = e2e.chain(PER_LAYER.iter().map(|m| (m.0, m.1)));
    all.find(|(n, _)| *n == name).map_or("", |(_, u)| u)
}

/// A measured value as JSON: every digit, never NaN or infinity.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The one-line JSON object a run ends with.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                number(*value),
                quote(unit_of(name))
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Provenance as one JSON object line.
pub fn provenance_line(pairs: &[(&str, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
        .collect();
    format!("{{\"provenance\": {{{}}}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn listed(doc: &Value, key: &str) -> Vec<String> {
        let items = doc.get(key).and_then(Value::as_array).unwrap();
        items
            .iter()
            .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect()
    }

    /// The emitted result line parses and carries every name
    /// `BENCHMARK.json` lists for its mode — no more, no fewer.
    #[test]
    fn result_lines_carry_every_name_in_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let contract = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();

        let mut window = Window {
            ops: vec![(1_000_000, 0.01); 40],
            wire_bytes: 41_000_000,
            process_cpu_secs: 0.5,
            cpu_marks: vec![(0.1, 10_000_000), (0.1, 10_000_000), (0.5, 40_000_000)],
            ..Window::default()
        };
        let e2e = end_to_end(&window, 0.3);
        let line = result_line(true, 40, 0, &e2e);
        let doc = json::parse(&line).expect("result line parses");
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Value::as_f64), Some(40.0));
        let metrics = doc.get("metrics").unwrap();
        let names: Vec<String> = metrics.members().iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(names, listed(&contract, "end_to_end"));
        let goodput = metrics.get("goodput_MBps").unwrap();
        assert_eq!(goodput.get("value").and_then(Value::as_f64), Some(100.0));
        assert_eq!(goodput.get("unit").and_then(Value::as_str), Some("MB/s"));
        // Slices of 10 and 30 MB at 10 and 13.33 ms/MB; the mark that
        // verified nothing new is skipped.
        let cpu = metrics.get("cpu_ms_per_MB").and_then(|m| m.get("value"));
        let cpu = cpu.and_then(Value::as_f64).unwrap();
        assert!((cpu - (10.0 + 40.0 / 3.0) / 2.0).abs() < 1e-9, "{cpu}");

        let ledger = crate::ledger::measure().expect("ledger");
        window.wall_secs = 1.0;
        let layers = per_layer(&ledger, &window, &Window::default(), false);
        let line = result_line(true, 40, 0, &layers);
        let doc = json::parse(&line).expect("result line parses");
        let metrics = doc.get("metrics").unwrap();
        let names: Vec<String> = metrics.members().iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(names, listed(&contract, "per_layer"));
        for (name, m) in metrics.members() {
            assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
            assert!(!m.get("unit").and_then(Value::as_str).unwrap().is_empty());
        }
    }

    #[test]
    fn non_finite_values_print_as_zero() {
        let line = result_line(false, 1, 1, &[("goodput_MBps", f64::NAN)]);
        let doc = json::parse(&line).expect("still JSON");
        let v = doc
            .get("metrics")
            .and_then(|m| m.get("goodput_MBps"))
            .unwrap();
        assert_eq!(v.get("value").and_then(Value::as_f64), Some(0.0));
    }

    #[test]
    fn tiers_follow_the_counters() {
        let mut io = NetIoStats {
            datagrams_sent: 100,
            send_batches: 100,
            ..NetIoStats::default()
        };
        assert_eq!(send_tier(&io), "udp.netio_send_ns.portable");
        io.send_batches = 10;
        assert_eq!(send_tier(&io), "udp.netio_send_ns.batched");
        io.gso_segments = 90;
        assert_eq!(send_tier(&io), "udp.netio_send_ns.gso");
        io.datagrams_received = 64;
        io.recv_batches = 2;
        assert_eq!(recv_tier(&io), "udp.netio_recv_ns.batched");
        io.gro_segments = 60;
        assert_eq!(recv_tier(&io), "udp.netio_recv_ns.gro");
    }
}
