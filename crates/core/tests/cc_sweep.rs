//! The two virtual-time sweeps, as assertions.
//!
//! Both run real engines through the deterministic harness (seeded
//! loss, no wall clock), so every figure below is exactly reproducible
//! and the whole file runs in well under a second.
//!
//! * **Bottleneck sweep** — a 256 KB AIMD-paced multiblast over a
//!   receiving-interface bottleneck (50 kpkt/s service, 8-deep queue:
//!   the paper's "interface errors" made mechanical), across five iid
//!   loss rates and one Gilbert–Elliott burst profile.  As iid loss
//!   rises, the pacer's shrinking burst overflows the bottleneck less,
//!   while retransmissions grow.
//! * **Loss sweep** — a 64 KB adaptive-timeout, AIMD-paced blast under
//!   iid loss: how far loss drives the burst down (and a clean run
//!   drives it up), and where the RTO settles from its 5 ms seed.
//!
//! The orderings are the claims.  The pinned totals are the numbers
//! those claims were last made with; a change to the pacer may move
//! them (update the tables), but not the orderings.  Both sweeps run
//! go-back-n, whose report asks again for everything from its first
//! hole, so a loss trims the burst by that share of the round: since
//! the pacer stopped halving on every report, the clean bottleneck row
//! overflows 1 330 times and retransmits 1 850 packets (was 1 630 and
//! 2 530), and the loss sweep ends at smaller bursts after an early
//! hole (its retransmissions are unchanged).

use std::sync::Arc;
use std::time::Duration;

use blast_core::blast::{BlastReceiver, BlastSender};
use blast_core::control::{AdaptiveTimeout, PacingConfig};
use blast_core::harness::{Harness, LossPlan};
use blast_core::multiblast::MultiBlastSender;
use blast_core::ProtocolConfig;

const TRIALS: u64 = 10;
/// The loss sweep's initial retransmission timeout.
const RTO_SEED: Duration = Duration::from_millis(5);

fn payload(bytes: usize) -> Arc<[u8]> {
    (0..bytes)
        .map(|i| (i.wrapping_mul(2654435761) >> 9) as u8)
        .collect::<Vec<u8>>()
        .into()
}

/// Totals over [`TRIALS`] seeded transfers (means are these / 10).
#[derive(Debug, PartialEq, Eq)]
struct CcTotals {
    overflow: u64,
    retx_packets: u64,
}

fn cc_totals(plan_for: fn(u64) -> LossPlan) -> CcTotals {
    let data = payload(256 * 1024);
    let mut cfg = ProtocolConfig::default()
        .with_timeout(AdaptiveTimeout::Adaptive {
            initial: Duration::from_millis(1),
            min: Duration::from_micros(100),
            max: Duration::from_millis(50),
        })
        .with_pacing(PacingConfig::aimd(16, Duration::from_micros(50), 2, 64, 8))
        .with_multiblast_chunk(32);
    cfg.max_retries = 100_000;
    let mut totals = CcTotals {
        overflow: 0,
        retx_packets: 0,
    };
    for trial in 0..TRIALS {
        let seed = 0xCC_5EED + trial * 7919;
        let mut h = Harness::new(
            MultiBlastSender::new(1, data.clone(), &cfg),
            BlastReceiver::new(1, data.len(), &cfg),
            plan_for(seed),
        )
        .with_bottleneck(Duration::from_micros(20), 8);
        let outcome = h.run().expect("cc-sweep transfer completes");
        assert_eq!(h.received_data(), &data[..]);
        totals.overflow += h.overflow;
        totals.retx_packets += outcome.sender.data_packets_retransmitted;
    }
    totals
}

#[test]
fn bottleneck_overflow_never_rises_and_retransmissions_never_fall_with_iid_loss() {
    type PlanFor = fn(u64) -> LossPlan;
    // Per profile: the pinned (overflow, retransmitted packets).
    let profiles: [(&str, PlanFor, (u64, u64)); 6] = [
        ("loss_0pct", |_| LossPlan::perfect(), (1330, 1850)),
        ("loss_1pct", |s| LossPlan::random(s, 1, 100), (1303, 2064)),
        ("loss_2pct", |s| LossPlan::random(s, 2, 100), (1284, 2151)),
        ("loss_5pct", |s| LossPlan::random(s, 5, 100), (1220, 2626)),
        ("loss_10pct", |s| LossPlan::random(s, 10, 100), (1085, 3385)),
        // Bursty channel: enter the bad state with p=2%, leave with
        // p=25% (mean burst ≈ 4 packets), lose half the packets while
        // bad — ≈ 3.7% mean loss arriving in clumps.
        (
            "ge",
            |s| LossPlan::gilbert_elliott(s, 20_000, 250_000, 0, 500_000),
            (1252, 2257),
        ),
    ];
    let mut prev: Option<CcTotals> = None;
    for (name, plan_for, pin) in profiles {
        let t = cc_totals(plan_for);
        assert_eq!((t.overflow, t.retx_packets), pin, "{name}");
        if name == "ge" {
            continue;
        }
        if let Some(p) = &prev {
            assert!(
                t.overflow <= p.overflow,
                "{name}: more loss must not overflow the bottleneck more ({t:?} after {p:?})"
            );
            assert!(
                t.retx_packets >= p.retx_packets,
                "{name}: more loss must not retransmit less ({t:?} after {p:?})"
            );
        }
        prev = Some(t);
    }
}

/// Totals over [`TRIALS`] seeded 64 KB blasts at one loss rate.
#[derive(Debug, PartialEq, Eq)]
struct LossTotals {
    retx_rounds: u64,
    retx_packets: u64,
    burst_final: u32,
    burst_min: u32,
    rto_final: Duration,
}

fn loss_totals(loss_pct: u32) -> LossTotals {
    let data = payload(64 * 1024);
    // AIMD pacing with room in both directions: initial 16, floor 2,
    // ceiling 64.
    let mut cfg = ProtocolConfig::default()
        .with_timeout(AdaptiveTimeout::Adaptive {
            initial: RTO_SEED,
            min: Duration::from_millis(1),
            max: Duration::from_millis(500),
        })
        .with_pacing(PacingConfig::aimd(16, Duration::from_micros(50), 2, 64, 8));
    cfg.max_retries = 100_000;
    let mut totals = LossTotals {
        retx_rounds: 0,
        retx_packets: 0,
        burst_final: 0,
        burst_min: 0,
        rto_final: Duration::ZERO,
    };
    for trial in 0..TRIALS {
        let plan = if loss_pct == 0 {
            LossPlan::perfect()
        } else {
            let seed = 0xB1A5_7000 + u64::from(loss_pct) * 1000 + trial;
            LossPlan::random(seed, loss_pct, 100)
        };
        let mut h = Harness::new(
            BlastSender::new(1, data.clone(), &cfg),
            BlastReceiver::new(1, data.len(), &cfg),
            plan,
        );
        let outcome = h.run().expect("loss-sweep transfer completes");
        assert_eq!(h.received_data(), &data[..]);
        let snap = h.sender().pacing_snapshot().expect("the sender is paced");
        totals.retx_rounds += outcome.sender.retransmission_rounds;
        totals.retx_packets += outcome.sender.data_packets_retransmitted;
        totals.burst_final += snap.burst;
        totals.burst_min += snap.min_burst_seen;
        totals.rto_final += h.sender().current_rto();
    }
    totals
}

#[test]
fn loss_drives_the_burst_down_and_the_rto_converges_from_its_seed() {
    let ms = Duration::from_millis;
    // (loss %, retx rounds, retx packets, final burst, min burst, final
    // RTO), each summed over the 10 trials.  First row: a clean run
    // never retransmits and grows the burst one AIMD step, 16 → 24.
    let pinned = [
        (0, 0, 0, 240, 160, ms(10)),
        (1, 4, 128, 208, 128, ms(10)),
        (2, 10, 281, 167, 87, ms(15)),
        (5, 11, 348, 146, 66, ms(21)),
        (10, 22, 732, 103, 23, ms(61)),
    ];
    let mut prev: Option<LossTotals> = None;
    for (loss_pct, retx_rounds, retx_packets, burst_final, burst_min, rto_final) in pinned {
        let t = loss_totals(loss_pct);
        if let Some(p) = &prev {
            assert!(
                t.burst_final <= p.burst_final,
                "{loss_pct}%: more loss must not leave a larger burst ({t:?} after {p:?})"
            );
            assert!(
                t.retx_packets >= p.retx_packets,
                "{loss_pct}%: more loss must not retransmit less ({t:?} after {p:?})"
            );
        }
        if loss_pct <= 5 {
            assert!(
                t.rto_final < RTO_SEED * TRIALS as u32,
                "{loss_pct}%: the RTO must converge below its seed ({t:?})"
            );
        }
        assert_eq!(
            t,
            LossTotals {
                retx_rounds,
                retx_packets,
                burst_final,
                burst_min,
                rto_final,
            },
            "{loss_pct}% loss"
        );
        prev = Some(t);
    }
}
