//! Every workload and metric the benchmark reports, by name — the one
//! table `BENCHMARK.json` mirrors (a unit test holds them together).

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[cfg(test)]
impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

use Better::{Higher, Lower};

/// `(name, why)` — the one-line reason each workload exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "bulk_push",
        "4 MiB pushes: the node receives, so per-packet and per-byte receive-path cost does the work",
    ),
    (
        "bulk_pull",
        "4 MiB pulls: same layers, opposite roles; the node is the paced sender (writes beside reads)",
    ),
    (
        "small_roundtrip",
        "4 KiB push+pull pairs: three packets each, so per-transfer fixed cost (handshake, linger) is all",
    ),
    (
        "lossy_push",
        "256 KiB pushes under seeded 1% loss: retransmission, RTO and AIMD back-off decide the result",
    ),
];

/// An end-to-end metric: `(name, unit, better, bound)`.  `bound` is the
/// share of the parent's median by which the metric may worsen before
/// it counts as a regression.
pub const END_TO_END: [(&str, &str, Better, f64); 7] = [
    ("goodput_MBps", "MB/s", Higher, 0.25),
    ("transfer_ms_p50", "ms", Lower, 0.25),
    ("transfer_ms_p90", "ms", Lower, 0.25),
    ("cpu_ms_per_MB", "ms/MB", Lower, 0.25),
    ("wire_efficiency", "ratio", Higher, 0.03),
    ("setup_s", "s", Lower, 0.25),
    ("peak_rss_MB", "MB", Lower, 0.20),
];

/// A per-layer metric: `(name, unit, better)`.  Layers are crate names.
pub const PER_LAYER: [(&str, &str, Better); 52] = [
    // Ledger unit costs: each layer's public call timed in isolation.
    ("wire.build_data_ns", "ns", Lower),
    ("wire.parse_ns", "ns", Lower),
    ("wire.ack_codec_ns", "ns", Lower),
    ("wire.crc32_ns_per_KB", "ns/KB", Lower),
    ("udp.fcs_frame_ns", "ns", Lower),
    ("udp.fcs_unframe_ns", "ns", Lower),
    ("udp.netio_send_ns.portable", "ns", Lower),
    ("udp.netio_send_ns.batched", "ns", Lower),
    ("udp.netio_send_ns.gso", "ns", Lower),
    ("udp.netio_recv_ns.portable", "ns", Lower),
    ("udp.netio_recv_ns.batched", "ns", Lower),
    ("udp.netio_recv_ns.gro", "ns", Lower),
    ("udp.timer_ns", "ns", Lower),
    ("udp.handshake_us", "us", Lower),
    ("core.sender_ns", "ns", Lower),
    ("core.receiver_ns", "ns", Lower),
    ("core.pool_ns", "ns", Lower),
    ("node.store_put_ns_per_KB", "ns/KB", Lower),
    ("node.store_get_ns", "ns", Lower),
    ("telemetry.record_ns", "ns", Lower),
    // Counters of the untraced window, per measured operation.
    ("node.datagrams_in_per_transfer", "count", Lower),
    ("node.datagrams_out_per_transfer", "count", Lower),
    ("node.wakeups_per_transfer", "count", Lower),
    ("node.timer_expiries_per_transfer", "count", Lower),
    ("node.discards", "count", Lower),
    ("node.sessions_failed", "count", Lower),
    ("node.reactor_busy_share", "ratio", Lower),
    ("node.client_busy_share", "ratio", Lower),
    ("udp.send_batch_mean", "count", Higher),
    ("udp.recv_batch_mean", "count", Higher),
    ("udp.gso_segs_per_super", "count", Higher),
    ("udp.gro_segs_per_super", "count", Higher),
    ("udp.client_malformed", "count", Lower),
    ("core.retx_rounds_per_transfer", "count", Lower),
    ("core.retx_packet_ratio", "ratio", Lower),
    ("core.timeouts_per_transfer", "count", Lower),
    ("core.burst_final", "count", Higher),
    ("core.pace_gap_ms_per_transfer", "ms", Lower),
    ("core.pool_fresh_allocs", "count", Lower),
    ("counting-alloc.allocs_per_datagram", "count", Lower),
    // Spans of the traced window, per measured operation.
    ("node.client_transfer_us", "us", Lower),
    ("udp.chan_send_us_per_transfer", "us", Lower),
    ("udp.chan_recv_wait_us_per_transfer", "us", Lower),
    ("udp.chan_calls_per_transfer", "count", Lower),
    ("node.client_self_us_per_transfer", "us", Lower),
    ("node.client_handshake_us", "us", Lower),
    ("node.client_tail_us", "us", Lower),
    ("telemetry.events_per_transfer", "count", Lower),
    ("telemetry.dropped", "count", Lower),
    ("trace.overhead_pct", "%", Lower),
    // Attribution: how much of the measured CPU the ledger explains.
    ("ledger.attributed_cpu_share", "ratio", Higher),
    ("ledger.idle_share", "ratio", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_charset() {
        let names = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0));
        let mut seen = std::collections::BTreeSet::new();
        for name in names {
            assert!(well_formed(name, 64, "_.-"), "{name}");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(seen.insert(name), "{name} is used twice");
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.1)
            .chain(PER_LAYER.iter().map(|m| m.1));
        for unit in units {
            assert!(well_formed(unit, 16, "_/%.-"), "{unit}");
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        assert!(END_TO_END.iter().all(|m| m.3 > 0.0 && m.3 <= 0.25));
    }

    /// `BENCHMARK.json` at the repo root lists exactly these tables.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| doc.get(key).and_then(Value::as_array).unwrap().to_vec();
        let field = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap().to_string();

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, expected);

        let end_to_end: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Value::as_f64).unwrap();
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    bound,
                )
            })
            .collect();
        let expected: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|(n, u, b, bound)| (n.to_string(), u.to_string(), b.name().to_string(), *bound))
            .collect();
        assert_eq!(end_to_end, expected);

        let per_layer: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let expected: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.name().to_string()))
            .collect();
        assert_eq!(per_layer, expected);
    }
}
