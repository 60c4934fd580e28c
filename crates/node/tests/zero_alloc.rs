//! Proof that sharding the node kept the metrics machinery off the
//! packet hot path: a counting global allocator watches the three tiers
//! of the pipeline —
//!
//! * **per-datagram accounting** is plain field increments on the
//!   shard's thread-local accumulator: exactly zero allocations (the
//!   old design took a `Mutex<NodeMetrics>` per datagram; the new one
//!   touches no lock and no heap);
//! * **the per-tick publish** (`publish_into` the shared snapshot slot)
//!   reuses the slot's allocations: zero allocations in steady state,
//!   even while counters drift between ticks — and zero when a session
//!   has just finished, too, however many reports the slot retains
//!   (the fresh report moves into the slot; nothing is cloned);
//! * **merge-on-read** (`merge_from`, what `NodeHandle::metrics` does)
//!   is the only tier allowed to allocate, and it runs on the *reader's*
//!   thread — never on a reactor.
//!
//! A second check bounds the *bytes* a steady run of 4 MiB pushes
//! allocates, process-wide, client and node together, over loopback:
//! under one payload for eight pushes.  Neither side may copy or
//! allocate a whole blob per push — the client's sender reads the
//! caller's slice in place, and the node receives into the blob the
//! last push displaced.
//!
//! `harness = false` (see `Cargo.toml`): this file is a plain `fn main`,
//! not a `#[test]`.  The allocation counter is process-global, and
//! libtest's own main thread allocates (its running-test map grows)
//! whenever it is scheduled — which under CPU contention lands inside
//! the measured window.  Without the harness the only threads alive
//! during a window are the ones this file creates.

use std::time::Duration;

use blast_core::api::EngineStats;
use blast_core::PacerSnapshot;
use blast_counting_alloc::{allocations, bytes_allocated, CountingAlloc};
use blast_node::metrics::{NodeMetrics, SessionReport, MAX_REPORTS};
use blast_node::server::NodeBuilder;
use blast_node::Client;
use blast_udp::handshake::Direction;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn report(id: u32) -> SessionReport {
    SessionReport {
        transfer_id: id,
        direction: if id % 2 == 0 {
            Direction::Push
        } else {
            Direction::Pull
        },
        name: format!("blob-{id}"),
        bytes: 64 * 1024,
        elapsed: Duration::from_millis(3),
        stats: EngineStats::default(),
        // A pacer's full snapshot: `Copy` all the way through, so the
        // pacing telemetry rides the same zero-allocation metrics tiers.
        pacing: Some(PacerSnapshot {
            initial_burst: 16,
            burst: 32,
            min_burst_seen: 8,
            mean_burst: 24.0,
            clean_rounds: 5,
            loss_events: 1,
        }),
        ok: true,
    }
}

fn packet_accounting_and_steady_publish_allocate_zero() {
    // One shard's thread-local accumulator plus its shared snapshot
    // slot, wired exactly as `NodeServer` wires them.
    let mut local = NodeMetrics::default();
    let mut slot = NodeMetrics::default();

    // Seed non-trivial state — a backend name and a few finished
    // sessions — and publish once so the slot owns right-sized buffers
    // (the warm-up the reactor gets for free on its first tick).
    local.netio_backend = "batched";
    for id in 0..8 {
        local.record(report(id));
    }
    local.publish_into(&mut slot);

    // Tier 1 — per-datagram accounting: what `drain_socket` does for
    // every packet.  Exactly zero allocations, no lock in sight.
    let before = allocations();
    for i in 0..10_000u64 {
        local.datagrams_received += 1;
        local.bytes_received += 1400;
        local.datagrams_sent += 1;
        local.bytes_sent += 1400;
        local.io.wakeups += i & 1;
    }
    assert_eq!(
        allocations() - before,
        0,
        "per-datagram accounting must not allocate"
    );

    // Tier 2 — the steady-state publish: counters drift between ticks
    // but the finished-session set is unchanged, so refreshing the
    // snapshot reuses every slot allocation (histogram buckets, report
    // deque).
    let before = allocations();
    for _ in 0..1_000 {
        local.datagrams_received += 1;
        local.bytes_received += 1400;
        local.publish_into(&mut slot);
    }
    assert_eq!(
        allocations() - before,
        0,
        "steady-state publish_into must reuse the slot's allocations"
    );
    assert_eq!(slot.datagrams_received, local.datagrams_received);
    assert_eq!(slot.netio_backend, "batched");
    assert_eq!(slot.reports.len(), 8, "report snapshot intact");

    // Sanity that the counter is live and the gate means something:
    // building a report allocates (its name).
    let before = allocations();
    let ninth = report(99);
    assert!(allocations() - before > 0, "the counter must be live");
    local.record(ninth);
    local.publish_into(&mut slot);
    assert_eq!(slot.reports.len(), 9);

    // Tier 2b — finishing a session costs the publish O(1), on top of
    // a full slot as on top of an empty one: fill the slot to its
    // retention cap, then finish sessions one at a time.  Recording
    // and publishing one allocates nothing at all (the report was
    // built, name and all, by the caller), where cloning the retained
    // set would have cost a thousand-odd allocations apiece.
    for id in 100..100 + MAX_REPORTS as u32 {
        local.record(report(id));
    }
    local.publish_into(&mut slot);
    assert_eq!(slot.reports.len(), MAX_REPORTS);
    let fresh: Vec<SessionReport> = (5000..5016).map(report).collect();
    let before = allocations();
    for r in fresh {
        local.record(r);
        local.publish_into(&mut slot);
    }
    assert_eq!(
        allocations() - before,
        0,
        "a finished session must not re-clone the retained reports"
    );
    assert_eq!(slot.reports.len(), MAX_REPORTS);
    let newest: Vec<u32> = slot
        .reports
        .iter()
        .rev()
        .take(16)
        .map(|r| r.transfer_id)
        .collect();
    assert_eq!(newest, (5000..5016).rev().collect::<Vec<u32>>());
    assert_eq!(slot.reports.back().unwrap().name, "blob-5015");
    assert_eq!(slot.sessions_completed, local.sessions_completed);

    // Tier 3 — merge-on-read reconciles exactly, and its (bounded)
    // allocations happen here, on the reader's thread.
    let mut merged = NodeMetrics::default();
    merged.merge_from(&slot);
    assert_eq!(merged.datagrams_received, local.datagrams_received);
    assert_eq!(merged.sessions_completed, local.sessions_completed);
    assert_eq!(merged.reports.len(), MAX_REPORTS);
}

fn steady_pushes_allocate_less_than_one_payload() {
    const PAYLOAD: usize = 4 << 20;
    const NAME: &str = "steady";
    let node = NodeBuilder::new().shards(1).start().unwrap();
    let mut client = Client::connect(node.addr())
        .unwrap()
        .patience(Duration::from_secs(10));
    let data: Vec<u8> = (0..PAYLOAD).map(|i| (i % 251) as u8).collect();

    // Warm-up: the first push allocates the stored blob, the second
    // its spare; the pools and the AIMD burst settle too.
    for _ in 0..4 {
        client.push(NAME, &data).unwrap();
    }
    assert!(node.wait_idle(Duration::from_secs(5)), "warm-up booked");

    let before = bytes_allocated();
    for _ in 0..8 {
        client.push(NAME, &data).unwrap();
    }
    let allocated = bytes_allocated() - before;
    assert!(
        allocated < PAYLOAD as u64,
        "eight pushes allocated {allocated} bytes: a whole-blob copy or \
         receive buffer per push is back"
    );
    assert!(node.wait_idle(Duration::from_secs(5)), "pushes booked");
    assert_eq!(node.store().get(NAME).unwrap()[..], data[..]);
    assert_eq!(node.metrics().sessions_failed, 0);
}

fn main() {
    packet_accounting_and_steady_publish_allocate_zero();
    // libtest's own line, so whatever reads `cargo test` output still
    // finds this check by name.
    println!("test packet_accounting_and_steady_publish_allocate_zero ... ok");
    steady_pushes_allocate_less_than_one_payload();
    println!("test steady_pushes_allocate_less_than_one_payload ... ok");
}
