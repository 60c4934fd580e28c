//! Property tests for the AIMD-adaptive pacer: burst-size invariants
//! over arbitrary signal sequences (a report trims by at most its loss
//! share, a timeout at most halves), strict monotonicity across lossy
//! rounds at the engine level (where the signals actually originate),
//! and bounded recovery — K clean rounds restore the burst from any
//! shrunken state.

use std::sync::Arc;
use std::time::Duration;

use blast_core::blast::BlastReceiver;
use blast_core::control::{PacerSnapshot, PacingConfig};
use blast_core::harness::{Harness, LossPlan};
use blast_core::multiblast::MultiBlastSender;
use blast_core::{Action, AdaptiveTimeout, Engine, Pacer, ProtocolConfig};
use blast_wire::ack::AckPayload;
use blast_wire::packet::{Datagram, DatagramBuilder};
use proptest::prelude::*;

const GAP: Duration = Duration::from_micros(100);

fn aimd() -> PacingConfig {
    PacingConfig::aimd(16, GAP, 2, 64, 8)
}

/// Clean rounds that restore the ceiling from the floor: the additive
/// path is `(max - min) / growth` steps, rounded up.
fn recovery_rounds(cfg: &PacingConfig) -> u32 {
    (cfg.max_burst - cfg.min_burst).div_ceil(cfg.growth)
}

proptest! {
    /// Whatever signal sequence arrives — clean rounds, timeouts, and
    /// status reports asking again for `lost` of the `sent` packets
    /// their round sent — the burst stays inside `[min_burst, bound]`,
    /// `bound` being the ceiling or the receiver's grant; a clean round
    /// never shrinks it; a timeout at most halves it; a report never
    /// grows it nor trims it by more than its loss share.  Afterwards,
    /// enough clean rounds recover the bound from wherever the sequence
    /// left it.
    #[test]
    fn aimd_invariants_over_arbitrary_signals(
        signals in proptest::collection::vec((0u8..3, 0u32..300, 0u32..400), 1..200),
        grant in proptest::option::of(0u32..120),
    ) {
        let cfg = aimd();
        let mut p = Pacer::new(cfg);
        let mut bound = cfg.max_burst;
        if let Some(queue) = grant {
            p.grant(queue);
            bound = queue.max(1);
        }
        let floor = cfg.min_burst.min(bound);
        for &(kind, sent, lost) in &signals {
            let before = p.burst_budget();
            match kind {
                0 => {
                    p.on_clean_round();
                    prop_assert!(p.burst_budget() >= before, "clean must not shrink the burst");
                }
                1 => {
                    p.on_timeout();
                    prop_assert!(p.burst_budget() <= before, "a timeout must not grow the burst");
                    prop_assert!(p.burst_budget() >= (before / 2).max(floor), "a timeout halves at most");
                }
                _ => {
                    p.on_loss(sent, lost);
                    let after = p.burst_budget();
                    prop_assert!(after <= before, "a report must not grow the burst");
                    let share = u64::from(sent.max(1));
                    let kept = share - u64::from(lost).min(share);
                    let least = (u64::from(before) * kept / share) as u32;
                    prop_assert!(
                        after >= least.max(floor),
                        "{lost} of {sent} lost trimmed {before} to {after}, below {least}"
                    );
                }
            }
            let b = p.burst_budget();
            prop_assert!(b >= floor && b <= bound, "burst {b} outside [{floor}, {bound}]");
        }
        for _ in 0..(bound - floor).div_ceil(cfg.growth) {
            p.on_clean_round();
        }
        prop_assert_eq!(
            p.burst_budget(),
            bound,
            "enough clean rounds must recover the bound"
        );
        let snap = p.snapshot();
        prop_assert!(snap.min_burst_seen >= floor);
        prop_assert!(snap.min_burst_seen <= snap.initial_burst);
    }
}

/// Feed `engine` one datagram built by `build`.
fn feed(engine: &mut dyn Engine, build: impl FnOnce(&DatagramBuilder, &mut [u8]) -> usize) {
    let b = DatagramBuilder::new(1);
    let mut buf = vec![0u8; 256];
    let n = build(&b, &mut buf);
    let d = Datagram::parse(&buf[..n]).expect("well-formed");
    let mut sink: Vec<Action> = Vec::new();
    engine.on_datagram(&d, &mut sink);
}

fn snapshot(engine: &dyn Engine) -> PacerSnapshot {
    engine.pacing_snapshot().expect("paced sender")
}

/// Engine-level strict monotonicity: every NACK round shrinks (or
/// holds, at the floor) the burst — non-increasing across consecutive
/// lossy rounds — and the floor is never pierced.
#[test]
fn burst_is_monotone_nonincreasing_across_lossy_rounds() {
    let cfg = ProtocolConfig::default()
        .with_pacing(aimd())
        .with_multiblast_chunk(8);
    let data: Arc<[u8]> = vec![5u8; 64 * 1024].into(); // 64 packets, 8 chunks
    let mut s = MultiBlastSender::new(1, data, &cfg);
    let mut sink: Vec<Action> = Vec::new();
    s.start(&mut sink);

    let mut prev = snapshot(&s).burst;
    assert_eq!(prev, 16, "initial burst");
    for round in 0..10 {
        // A go-back-n NACK for the current chunk: a loss signal.
        feed(&mut s, |b, buf| {
            b.build_ack(buf, 64, &AckPayload::NackFirstMissing { first_missing: 0 })
                .expect("ack fits")
        });
        let now = snapshot(&s).burst;
        assert!(
            now <= prev,
            "round {round}: burst grew on loss ({prev} -> {now})"
        );
        assert!(now >= 2, "floor pierced: {now}");
        prev = now;
    }
    assert_eq!(prev, 2, "ten consecutive lossy rounds reach the floor");
    assert_eq!(snapshot(&s).min_burst_seen, 2);
}

/// Engine-level recovery: after loss drives the burst to the floor,
/// each cleanly-acknowledged chunk grows it back; within K clean
/// rounds the burst is at (or above) its initial value — and the pacer
/// carries across chunk engines, which is what makes this per-session
/// adaptation rather than per-chunk amnesia.
#[test]
fn burst_recovers_within_k_clean_rounds() {
    let pacing = aimd();
    let cfg = ProtocolConfig::default()
        .with_pacing(pacing)
        .with_multiblast_chunk(2);
    let data: Arc<[u8]> = vec![9u8; 64 * 1024].into(); // 64 packets, 32 chunks
    let mut s = MultiBlastSender::new(1, data, &cfg);
    let mut sink: Vec<Action> = Vec::new();
    s.start(&mut sink);

    // Drive to the floor with repeated NACK loss signals.
    for _ in 0..8 {
        feed(&mut s, |b, buf| {
            b.build_ack(buf, 64, &AckPayload::NackFirstMissing { first_missing: 0 })
                .expect("ack fits")
        });
    }
    assert_eq!(snapshot(&s).burst, pacing.min_burst, "at the floor");

    // Clean chunk completions: each cumulative ack closes one chunk.
    let k = recovery_rounds(&pacing);
    let mut clean = 0u32;
    while clean < k && !s.is_finished() {
        let chunk = s.current_chunk();
        feed(&mut s, |b, buf| {
            b.build_ack(
                buf,
                64,
                &AckPayload::Positive {
                    acked: (chunk + 1) * 2 - 1,
                },
            )
            .expect("ack fits")
        });
        clean += 1;
        if snapshot(&s).burst >= pacing.burst {
            break;
        }
    }
    assert!(
        snapshot(&s).burst >= pacing.burst,
        "burst {} has not recovered to {} within {} clean rounds",
        snapshot(&s).burst,
        pacing.burst,
        k
    );
}

proptest! {
    /// Harness-level composition: an AIMD-paced multiblast transfer
    /// under random iid loss still completes byte-perfect, every chunk
    /// contributes a pacing signal, and the snapshot respects the
    /// configured bounds; a loss-free run only ever grows the burst.
    #[test]
    fn aimd_paced_transfer_completes_and_respects_bounds(
        seed in any::<u64>(),
        loss in 0u32..25,
    ) {
        let pacing = aimd();
        let mut cfg = ProtocolConfig::default()
            .with_timeout(AdaptiveTimeout::Adaptive {
                initial: Duration::from_millis(5),
                min: Duration::from_millis(1),
                max: Duration::from_millis(500),
            })
            .with_pacing(pacing)
            .with_multiblast_chunk(8);
        cfg.max_retries = 100_000;
        let data: Arc<[u8]> = vec![3u8; 48 * 1024].into(); // 48 packets, 6 chunks
        let plan = if loss == 0 {
            LossPlan::perfect()
        } else {
            LossPlan::random(seed, loss, 100)
        };
        let mut h = Harness::new(
            MultiBlastSender::new(1, data.clone(), &cfg),
            BlastReceiver::new(1, data.len(), &cfg),
            plan,
        );
        h.run().expect("paced transfer completes");
        prop_assert_eq!(h.received_data(), &data[..]);
        let snap = h.sender().pacing_snapshot().expect("paced sender");
        prop_assert!(snap.burst >= pacing.min_burst && snap.burst <= pacing.max_burst);
        prop_assert!(snap.min_burst_seen <= snap.initial_burst);
        prop_assert!(
            snap.clean_rounds + snap.loss_events >= 6,
            "every chunk must signal the pacer (clean {} + loss {})",
            snap.clean_rounds,
            snap.loss_events
        );
        if loss == 0 {
            prop_assert_eq!(snap.loss_events, 0);
            prop_assert!(snap.burst >= snap.initial_burst, "clean runs only grow");
            prop_assert_eq!(snap.min_burst_seen, snap.initial_burst);
        }
    }
}
