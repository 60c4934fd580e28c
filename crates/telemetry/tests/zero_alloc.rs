//! The tentpole claim, proven: recording a flight-recorder event in
//! steady state performs **exactly zero** heap allocations — in the
//! normal case, on the overflow/drop path, and through the sans-I/O
//! `record_at` door the engines use.  Draining is the reader's business
//! and may allocate; that is asserted too so the counter is known live.
//!
//! `harness = false` (see `Cargo.toml`): this file is a plain `fn main`,
//! not a `#[test]`.  The allocation counter is process-global, and
//! libtest's own main thread allocates (its running-test map grows)
//! whenever it is scheduled — which under CPU contention lands inside
//! the measured window.  Without the harness the only threads alive
//! during a window are the ones this file creates.

use std::time::Duration;

use blast_counting_alloc::{allocations, CountingAlloc};
use blast_telemetry::{EventKind, Telemetry};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn record_path_allocates_exactly_zero() {
    // All construction — rings, recorder handles — happens up front;
    // that is the one-time cost the reactor pays before serving.
    let tel = Telemetry::new(2, 1024);
    let rec = tel.recorder(0);
    let other = tel.recorder(1);

    // Warm-up: one event through each path, then drain, so anything
    // lazily initialised is behind us.
    rec.record(1, EventKind::RoundStart, 0, 64);
    other.record_at(Duration::from_micros(5), 2, EventKind::StatusSend, 1, 0);
    let warm = tel.drain();
    assert_eq!(warm.len(), 2);

    // Steady state: a full ring's worth of wall-clock records plus a
    // full ring's worth of engine-clock records, across every kind.
    let before = allocations();
    for i in 0..1024u64 {
        let kind = EventKind::ALL[(i % EventKind::ALL.len() as u64) as usize];
        assert!(rec.record(1, kind, i, i * 2));
    }
    for i in 0..1024u64 {
        let kind = EventKind::ALL[(i % EventKind::ALL.len() as u64) as usize];
        assert!(other.record_at(Duration::from_nanos(i), 2, kind, i, 0));
    }
    assert_eq!(
        allocations() - before,
        0,
        "recording an event must not allocate"
    );

    // The overflow path is just as clean: both rings are now full, so
    // every further offer is counted and dropped without touching the
    // heap.
    let before = allocations();
    for i in 0..512u64 {
        assert!(!rec.record(1, EventKind::ShardTick, i, 0));
        assert!(!other.record(2, EventKind::ShardTick, i, 0));
    }
    assert_eq!(
        allocations() - before,
        0,
        "the drop path must not allocate either"
    );
    assert_eq!(tel.dropped(), 1024);

    // Sanity that the counter is live: the drain (reader side, off the
    // packet path) is allowed to allocate and visibly does.
    let before = allocations();
    let events = tel.drain();
    assert!(
        allocations() - before > 0,
        "the counting allocator must observe the drain's buffer"
    );
    assert_eq!(events.len(), 2048);
    assert_eq!(tel.accepted(), 2050, "2 warm-up + 2048 steady-state");
}

fn main() {
    record_path_allocates_exactly_zero();
    // libtest's own line, so whatever reads `cargo test` output still
    // finds this check by name.
    println!("test record_path_allocates_exactly_zero ... ok");
}
