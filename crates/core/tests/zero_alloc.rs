//! Proof of the zero-allocation hot path: a counting global allocator
//! wraps `System`, and a full blast round trip is driven by hand with
//! the counter watched at each phase.
//!
//! The claim (and the paper's point, translated to 2020s software): the
//! per-packet cost of a steady-state transfer must not include heap
//! allocation.  Concretely —
//!
//! * blasting every data packet and placing it at the receiver performs
//!   **exactly zero** allocations once the shared [`BufferPool`] is
//!   warm, and
//! * the *entire* second transfer allocates only the two boxed
//!   completion reports, i.e. allocations-per-packet ≈ 0.03 for a
//!   64-packet transfer and falling with size, and
//! * a multi-blast transfer's chunk rollovers allocate nothing at all.
//!
//! `harness = false` (see `Cargo.toml`): this file is a plain `fn main`,
//! not a `#[test]`.  The allocation counter is process-global, and
//! libtest's own main thread allocates (its running-test map grows)
//! whenever it is scheduled — which under CPU contention lands inside
//! the measured window.  Without the harness the only threads alive
//! during a window are the ones this file creates.

use std::sync::Arc;
use std::time::Duration;

use blast_core::api::Action;
use blast_core::blast::{BlastReceiver, BlastSender};
use blast_core::control::{PacingConfig, PACE_TIMER};
use blast_core::multiblast::MultiBlastSender;
use blast_core::{Engine, ProtocolConfig};
use blast_counting_alloc::{allocations, CountingAlloc};
use blast_wire::packet::Datagram;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const PACKETS: usize = 64;
const BYTES: usize = PACKETS * 1024;

/// Drive one complete blast transfer by hand (no harness, so the event
/// queue cannot blur the measurement), reusing the caller's sinks.
fn run_transfer(
    id: u32,
    payload: &Arc<[u8]>,
    cfg: &ProtocolConfig,
    sink: &mut Vec<Action>,
    out: &mut Vec<Action>,
    sender_out: &mut Vec<Action>,
) {
    let mut s = BlastSender::new(id, payload.clone(), cfg);
    let mut r = BlastReceiver::new(id, payload.len(), cfg);
    s.start(sink);
    for a in sink.iter() {
        if let Some(pkt) = a.as_transmit() {
            let d = Datagram::parse(pkt).expect("engine emits well-formed packets");
            r.on_datagram(&d, out);
        }
    }
    let ack = out
        .iter()
        .find_map(Action::as_transmit)
        .expect("receiver acks the reliable tail");
    let d = Datagram::parse(ack).expect("well-formed ack");
    s.on_datagram(&d, sender_out);
    assert!(s.is_finished() && r.is_finished());
    sink.clear();
    out.clear();
    sender_out.clear();
}

fn steady_state_blast_round_trip_allocates_zero_per_packet() {
    let cfg = ProtocolConfig::default();
    // Warm the shared pool past the blast's in-flight high-water mark.
    cfg.pool.warm(PACKETS + 4);
    let payload: Arc<[u8]> = (0..BYTES)
        .map(|i| (i * 31 % 251) as u8)
        .collect::<Vec<u8>>()
        .into();

    // Pre-size every sink the measured transfer will use, and run one
    // full warm-up transfer so first-use growth is out of the picture.
    let mut sink: Vec<Action> = Vec::with_capacity(2 * PACKETS + 8);
    let mut out: Vec<Action> = Vec::with_capacity(8);
    let mut sender_out: Vec<Action> = Vec::with_capacity(8);
    run_transfer(1, &payload, &cfg, &mut sink, &mut out, &mut sender_out);

    // ---- measured transfer ----
    let mut s = BlastSender::new(2, payload.clone(), &cfg);
    let mut r = BlastReceiver::new(2, payload.len(), &cfg);

    // Phase A — the steady-state packet loop: blast all packets, place
    // all but the reliable tail.  Zero allocations, exactly.
    let before = allocations();
    s.start(&mut sink);
    for a in sink.iter().take(PACKETS - 1) {
        let pkt = a.as_transmit().expect("round 0 leads with data packets");
        let d = Datagram::parse(pkt).expect("well-formed packet");
        r.on_datagram(&d, &mut out);
        assert!(out.is_empty(), "mid-sequence packets emit nothing");
    }
    let steady = allocations() - before;
    assert_eq!(
        steady,
        0,
        "steady-state send+receive of {} packets must not allocate",
        PACKETS - 1
    );

    // Phase B — the tail: one pooled ack plus the two boxed completion
    // reports are the transfer's entire allocation budget.
    let before_tail = allocations();
    let tail = sink[PACKETS - 1].as_transmit().expect("reliable tail");
    let d = Datagram::parse(tail).expect("well-formed tail");
    r.on_datagram(&d, &mut out);
    assert!(r.is_finished());
    let ack = out
        .iter()
        .find_map(Action::as_transmit)
        .expect("single blast ack");
    let d = Datagram::parse(ack).expect("well-formed ack");
    s.on_datagram(&d, &mut sender_out);
    assert!(s.is_finished());
    let tail_allocs = allocations() - before_tail;
    assert!(
        tail_allocs <= 2,
        "completing the transfer may allocate at most the two boxed \
         completion reports, got {tail_allocs}"
    );

    // Headline number: allocations per packet over the whole transfer.
    let per_packet = (steady + tail_allocs) as f64 / PACKETS as f64;
    assert!(
        per_packet < 0.05,
        "allocations per packet should be ~0, got {per_packet}"
    );
    assert_eq!(r.data(), &payload[..], "and the bytes still arrive intact");

    // Phase C — pacing must not allocate per packet either: a paced
    // round recycles the same pooled buffers (batch-checked-out, one
    // pool lock per burst), and the pace-timer and AIMD bookkeeping
    // (burst growth/shrink, trajectory counters) are all in-place
    // state.  Engines are built before the measured window (their
    // burst stash is pre-sized at construction, like the receiver's
    // buffer in the paper's pre-allocation premise).
    let paced_cfg =
        cfg.clone()
            .with_pacing(PacingConfig::aimd(8, Duration::from_millis(1), 2, 16, 4));
    let mut s = BlastSender::new(3, payload.clone(), &paced_cfg);
    let mut r = BlastReceiver::new(3, payload.len(), &paced_cfg);
    sink.clear();
    out.clear();
    sender_out.clear();

    let before_paced = allocations();
    s.start(&mut sink);
    // Drive the pace timer until the whole round (tail included) is out.
    let mut guard = 0;
    while sink.iter().filter(|a| a.as_transmit().is_some()).count() < PACKETS {
        s.on_timer(PACE_TIMER, &mut sink);
        guard += 1;
        assert!(guard <= PACKETS, "paced round failed to drain");
    }
    // Deliver everything but the tail: the steady paced loop.
    let mut delivered = 0;
    for a in sink.iter() {
        if let Some(pkt) = a.as_transmit() {
            delivered += 1;
            if delivered == PACKETS {
                break; // the tail is phase-D territory
            }
            let d = Datagram::parse(pkt).expect("well-formed paced packet");
            r.on_datagram(&d, &mut out);
            assert!(out.is_empty(), "mid-round paced packets emit nothing");
        }
    }
    let paced_steady = allocations() - before_paced;
    assert_eq!(
        paced_steady, 0,
        "a paced round must stay allocation-free per packet"
    );

    // Paced tail: same budget as the unpaced one — the ack buffer is
    // pooled and only the two completion reports are boxed.
    let before_paced_tail = allocations();
    let tail = sink
        .iter()
        .filter_map(Action::as_transmit)
        .nth(PACKETS - 1)
        .expect("paced reliable tail");
    let d = Datagram::parse(tail).expect("well-formed tail");
    r.on_datagram(&d, &mut out);
    assert!(r.is_finished());
    let ack = out
        .iter()
        .find_map(Action::as_transmit)
        .expect("single paced blast ack");
    let d = Datagram::parse(ack).expect("well-formed ack");
    s.on_datagram(&d, &mut sender_out);
    assert!(s.is_finished());
    let paced_tail_allocs = allocations() - before_paced_tail;
    assert!(
        paced_tail_allocs <= 2,
        "paced completion budget exceeded: {paced_tail_allocs}"
    );
    assert_eq!(r.data(), &payload[..], "paced bytes arrive intact");
}

/// Multi-blast rolls its one chunk sender over in place: the chunk
/// acknowledgement that starts the next chunk resets per-round state and
/// reuses the burst stash and the `Control` — no per-chunk engine, no
/// per-chunk completion report, no staging vector.
fn multiblast_chunk_rollover_allocates_zero() {
    const CHUNK: u32 = 8;
    let cfg = ProtocolConfig::default().with_multiblast_chunk(CHUNK);
    cfg.pool.warm(PACKETS + 4);
    let payload: Arc<[u8]> = (0..BYTES)
        .map(|i| (i * 17 % 251) as u8)
        .collect::<Vec<u8>>()
        .into();
    let mut s = MultiBlastSender::new(5, payload.clone(), &cfg);
    let mut r = BlastReceiver::new(5, payload.len(), &cfg);
    let chunks = s.total_chunks();
    let mut sink: Vec<Action> = Vec::with_capacity(2 * CHUNK as usize + 8);
    let mut out: Vec<Action> = Vec::with_capacity(8);

    // Deliver the chunk in `sink`, then feed its acknowledgement back:
    // the sender rolls over and blasts the next chunk into `sink`.
    let mut chunk_round_trip = |s: &mut MultiBlastSender, sink: &mut Vec<Action>| {
        for a in sink.iter() {
            if let Some(pkt) = a.as_transmit() {
                let d = Datagram::parse(pkt).expect("well-formed chunk packet");
                r.on_datagram(&d, &mut out);
            }
        }
        sink.clear();
        let ack = out
            .iter()
            .find_map(Action::as_transmit)
            .expect("one ack per chunk");
        let d = Datagram::parse(ack).expect("well-formed chunk ack");
        s.on_datagram(&d, sink);
        out.clear();
    };

    // Warm: chunk 0 goes out and is acknowledged before the window.
    s.start(&mut sink);
    chunk_round_trip(&mut s, &mut sink);
    assert_eq!(s.current_chunk(), 1);

    // Measured: every rollover up to the last chunk.
    let before = allocations();
    while s.current_chunk() + 1 < chunks {
        chunk_round_trip(&mut s, &mut sink);
    }
    let rollovers = allocations() - before;
    assert!(chunks - 2 >= 4, "the window spans at least four rollovers");
    assert_eq!(
        rollovers,
        0,
        "{} chunk rollovers must not allocate",
        chunks - 2
    );

    // The last chunk completes the transfer.
    chunk_round_trip(&mut s, &mut sink);
    assert!(s.is_finished() && r.is_finished());
    assert_eq!(r.data(), &payload[..], "chunked bytes arrive intact");
}

fn main() {
    steady_state_blast_round_trip_allocates_zero_per_packet();
    // libtest's own line, so whatever reads `cargo test` output still
    // finds this check by name.
    println!("test steady_state_blast_round_trip_allocates_zero_per_packet ... ok");
    multiblast_chunk_rollover_allocates_zero();
    println!("test multiblast_chunk_rollover_allocates_zero ... ok");
}
