//! The acceptance test for the flight recorder: a 4-shard loopback
//! workload with telemetry enabled must yield a merged trace showing
//! per-shard session pinning, blast-round spans, and at least one AIMD
//! burst transition — and the trace must export to Chrome trace-event
//! JSON that Perfetto can load.  The live `Stats` control verb is
//! exercised against the same node.

use std::time::Duration;

use blast_core::config::ProtocolConfig;
use blast_node::server::NodeBuilder;
use blast_node::{shared_store, Client};
use blast_telemetry::{chrome_trace, jsonl, EventKind};
use blast_udp::sockopt;

fn client_cfg() -> ProtocolConfig {
    let mut c = ProtocolConfig::default();
    c.timeout = Duration::from_millis(15).into();
    c.max_retries = 10_000;
    c
}

fn payload(seed: usize, n: usize) -> Vec<u8> {
    (0..n)
        .map(|i| ((i.wrapping_mul(41) ^ seed.wrapping_mul(97)) % 256) as u8)
        .collect()
}

#[test]
fn four_shard_workload_produces_a_loadable_trace() {
    let store = shared_store();
    for i in 0..4 {
        store.put(&format!("blob-{i}"), payload(i, 60_000).into());
    }
    let node = NodeBuilder::new()
        .timeout(Duration::from_millis(15))
        .max_retries(10_000)
        .shards(4)
        .telemetry(8192)
        .store(store)
        .start()
        .unwrap();
    let addr = node.addr();

    // A mixed workload: 4 pulls (node-side senders — they carry the
    // AIMD pacer) and 2 pushes, each its own socket so the kernel
    // spreads the 4-tuples over the shard group.
    let mut handles = Vec::new();
    for i in 0..4usize {
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap().config(client_cfg());
            let report = client.pull(&format!("blob-{i}")).unwrap();
            assert_eq!(report.data, payload(i, 60_000));
        }));
    }
    for i in 0..2usize {
        handles.push(std::thread::spawn(move || {
            let data = payload(10 + i, 30_000);
            let mut client = Client::connect(addr).unwrap().config(client_cfg());
            client.push(&format!("pushed-{i}"), &data).unwrap();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    // The Stats verb, live while the node runs: the remote snapshot
    // must carry the merged accounting and the per-shard breakdown.
    let mut stats_client = Client::connect(addr)
        .unwrap()
        .patience(Duration::from_secs(5));
    let stats = stats_client.stats().unwrap();
    assert!(stats.contains("sessions"), "stats text: {stats}");
    assert!(stats.contains("shard 0:"), "per-shard lines: {stats}");

    assert!(node.wait_idle(Duration::from_secs(10)));
    let shards = node.shards();
    let events = node.drain_trace();
    assert!(
        node.telemetry_dropped() == 0,
        "ring sized for the workload: {} dropped",
        node.telemetry_dropped()
    );
    assert!(!events.is_empty());

    // The merged stream is globally time-ordered.
    assert!(
        events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns),
        "drain_trace must merge shards in time order"
    );

    // Session lifecycle: every session admitted was reaped, each on one
    // shard only (per-shard pinning).
    let admits: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::SessionAdmit)
        .collect();
    let reaps: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::SessionReap)
        .collect();
    assert_eq!(admits.len(), 6, "4 pulls + 2 pushes admitted");
    assert_eq!(reaps.len(), 6);
    assert!(reaps.iter().all(|e| e.a == 1), "all sessions succeeded");
    for admit in &admits {
        let session = admit.session;
        assert!(
            events
                .iter()
                .filter(|e| e.session == session)
                .all(|e| e.shard == admit.shard),
            "session {session} must stay pinned to shard {}",
            admit.shard
        );
    }
    if shards == 4 {
        assert!(sockopt::reuseport_supported());
        let busy: std::collections::HashSet<u16> = admits.iter().map(|e| e.shard).collect();
        assert!(busy.len() >= 2, "6 sessions all hashed onto one shard");
    }

    // Blast rounds bracket properly per session.  The node-side
    // senders (the pulls) start at the client's grant, their ceiling:
    // a burst grows only back toward where a loss shrank it from, so a
    // clean pull traces no transition at all.
    let starts = events
        .iter()
        .filter(|e| e.kind == EventKind::RoundStart)
        .count();
    let ends = events
        .iter()
        .filter(|e| e.kind == EventKind::RoundEnd)
        .count();
    assert!(starts >= 4, "each pull runs at least one blast round");
    assert_eq!(starts, ends, "round spans must balance");
    for admit in &admits {
        let mut shrunk_from = None;
        for e in events.iter().filter(|e| e.session == admit.session) {
            match e.kind {
                EventKind::PacerShrink => shrunk_from = shrunk_from.max(Some(e.a)),
                EventKind::PacerGrow => assert!(
                    Some(e.b) <= shrunk_from,
                    "session {} grew to {} past its grant",
                    admit.session,
                    e.b
                ),
                _ => {}
            }
        }
    }

    // Reactor-plane events rode along on the session-0 lane.
    assert!(events.iter().any(|e| e.kind == EventKind::ShardTick));
    assert!(events.iter().any(|e| e.kind == EventKind::StatsServed));

    // Both exporters accept the stream; the Chrome trace is loadable
    // (structurally balanced JSON with the tracks we promised).
    let lines = jsonl(&events);
    assert_eq!(lines.lines().count(), events.len());
    let trace = chrome_trace(&events);
    assert!(trace.starts_with("{\"traceEvents\":["));
    assert!(trace.trim_end().ends_with('}'));
    assert_eq!(trace.matches('{').count(), trace.matches('}').count());
    assert!(trace.contains("\"name\":\"shard 0\""));
    assert!(trace.contains("\"ph\":\"B\"") && trace.contains("\"ph\":\"E\""));
    // The burst counter track follows the pacer's transitions, which
    // a clean granted run may not have.
    let transitions = events
        .iter()
        .any(|e| matches!(e.kind, EventKind::PacerGrow | EventKind::PacerShrink));
    assert_eq!(
        trace.contains("\"ph\":\"C\""),
        transitions,
        "burst counter track"
    );

    node.shutdown().unwrap();
}
