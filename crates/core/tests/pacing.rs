//! Virtual-time pacing tests: paced transmits are scheduled *exactly*
//! by the harness (pacing rides the ordinary `SetTimer` machinery, so
//! any driver that honours timers honours pacing), and pacing composes
//! with loss, adaptive timeouts and every retransmission strategy.

use std::sync::Arc;
use std::time::Duration;

use blast_core::blast::{BlastReceiver, BlastSender};
use blast_core::config::RetxStrategy;
use blast_core::control::{AdaptiveTimeout, PacerSnapshot, PacingConfig, ROUND0_FLOOR};
use blast_core::harness::{Harness, LossPlan, ReceiverEngine};
use blast_core::multiblast::MultiBlastSender;
use blast_core::saw::{SawReceiver, SawSender};
use blast_core::window::WindowSender;
use blast_core::{Engine, ProtocolConfig};

fn data(n: usize) -> Arc<[u8]> {
    (0..n)
        .map(|i| (i * 131 % 251) as u8)
        .collect::<Vec<u8>>()
        .into()
}

/// The harness schedules a paced round to the nanosecond: a 16-packet
/// blast at 4 packets per 1 ms gap takes exactly 3 gaps + one one-way
/// latency for the tail + one for the ack.
#[test]
fn harness_schedules_paced_round_exactly() {
    let gap = Duration::from_millis(1);
    let cfg = ProtocolConfig::default().with_pacing(PacingConfig::new(4, gap));
    let payload = data(16 * 1024);
    let mut h = Harness::new(
        BlastSender::new(1, payload.clone(), &cfg),
        BlastReceiver::new(1, payload.len(), &cfg),
        LossPlan::perfect(),
    );
    let outcome = h.run().expect("paced transfer completes");
    assert_eq!(h.received_data(), &payload[..]);
    assert_eq!(outcome.sender.data_packets_sent, 16);
    assert_eq!(outcome.receiver.acks_sent, 1, "still one ack per blast");
    // 3 inter-burst gaps, then the tail flies (10 µs) and the ack
    // returns (10 µs).  Exact, not approximate: pacing is virtual-time
    // scheduled like any other timer.
    let expected = gap * 3 + Duration::from_micros(20);
    assert_eq!(h.sender_elapsed(), Some(expected));
}

/// An unpaced run of the same transfer completes in just the two
/// one-way latencies — the degenerate mode is genuinely unpaced.
#[test]
fn unpaced_round_has_no_gap_cost() {
    let cfg = ProtocolConfig::default();
    let payload = data(16 * 1024);
    let mut h = Harness::new(
        BlastSender::new(1, payload.clone(), &cfg),
        BlastReceiver::new(1, payload.len(), &cfg),
        LossPlan::perfect(),
    );
    h.run().expect("transfer completes");
    assert_eq!(h.sender_elapsed(), Some(Duration::from_micros(20)));
}

/// Pacing composes with loss and the adaptive timeout for every
/// retransmission strategy — the full modern configuration.
#[test]
fn paced_adaptive_transfer_recovers_under_loss() {
    let payload = data(64 * 1024);
    for strategy in RetxStrategy::ALL {
        let mut cfg = ProtocolConfig::default()
            .with_strategy(strategy)
            .with_timeout(AdaptiveTimeout::Adaptive {
                initial: Duration::from_millis(5),
                min: Duration::from_millis(1),
                max: Duration::from_millis(500),
            })
            .with_pacing(PacingConfig::new(8, Duration::from_micros(100)));
        cfg.max_retries = 10_000;
        let mut h = Harness::new(
            BlastSender::new(1, payload.clone(), &cfg),
            BlastReceiver::new(1, payload.len(), &cfg),
            LossPlan::random(0xFEED ^ strategy as u64, 1, 20), // 5 % loss
        );
        h.run().unwrap_or_else(|e| panic!("{strategy}: {e}"));
        assert_eq!(h.received_data(), &payload[..], "{strategy}");
        assert!(h.dropped > 0, "{strategy}: loss plan must bite");
    }
}

/// The sliding-window sender's paced fill: the window opens in bursts,
/// and the transfer still completes with every packet acknowledged.
#[test]
fn paced_window_fill_completes() {
    let cfg =
        ProtocolConfig::default().with_pacing(PacingConfig::new(3, Duration::from_micros(500)));
    let payload = data(12 * 1024);
    let mut h = Harness::new(
        WindowSender::new(1, payload.clone(), &cfg),
        SawReceiver::new(1, payload.len(), &cfg),
        LossPlan::perfect(),
    );
    let outcome = h.run().expect("paced window transfer completes");
    assert_eq!(h.received_data(), &payload[..]);
    assert_eq!(outcome.sender.data_packets_sent, 12);
    assert_eq!(outcome.receiver.acks_sent, 12);
    // 12 packets in bursts of 3 → 3 gaps before the last burst.
    let elapsed = h.sender_elapsed().expect("finished");
    assert!(elapsed >= Duration::from_micros(1500), "{elapsed:?}");
}

/// Adaptive RTO through the harness: after one clean blast the sender's
/// estimator has locked onto the virtual round-trip (exactly 2 × 10 µs
/// for the tail + ack), so a follow-up timeout fires at the adapted
/// value, not the 25 ms seed.
#[test]
fn adaptive_rto_locks_onto_virtual_rtt() {
    let cfg = ProtocolConfig::default().with_timeout(AdaptiveTimeout::lan());
    let payload = data(8 * 1024);
    let mut h = Harness::new(
        BlastSender::new(1, payload.clone(), &cfg),
        BlastReceiver::new(1, payload.len(), &cfg),
        LossPlan::perfect(),
    );
    h.run().expect("clean transfer");
    // Tail departs at t=0, ack arrives at t=20 µs: SRTT = 20 µs, and
    // the RTO clamps up to the configured 2 ms floor.
    assert_eq!(h.sender().srtt(), Some(Duration::from_micros(20)));
    assert_eq!(h.sender().current_rto(), Duration::from_millis(2));
}

/// Lost-tail recovery under pacing: the adapted RTO re-solicits and the
/// go-back-n machinery finishes the job.
#[test]
fn paced_lost_tail_recovers_via_adapted_rto() {
    let mut cfg = ProtocolConfig::default()
        .with_timeout(AdaptiveTimeout::Adaptive {
            initial: Duration::from_millis(5),
            min: Duration::from_millis(1),
            max: Duration::from_millis(100),
        })
        .with_pacing(PacingConfig::new(2, Duration::from_micros(100)));
    cfg.max_retries = 100;
    let payload = data(6 * 1024);
    // Wire packets 0..6 are the data; drop the reliable tail (index 5).
    let mut h = Harness::new(
        BlastSender::new(1, payload.clone(), &cfg),
        BlastReceiver::new(1, payload.len(), &cfg),
        LossPlan::script(vec![5]),
    );
    let outcome = h.run().expect("recovers");
    assert_eq!(h.received_data(), &payload[..]);
    assert_eq!(outcome.sender.timeouts, 1, "one re-solicitation timeout");
    assert!(outcome.sender.retransmission_rounds >= 1);
}

/// The same loss on a carried path: a sender seeded with a loopback
/// estimate (200 µs, 50 µs) re-solicits its lost round-0 tail at exactly
/// the round-0 floor — not at the 25 ms `initial`, nor at the 2 ms the
/// estimate alone would give — and the data arrives byte-exact.
#[test]
fn seeded_lost_tail_recovers_at_the_round_zero_floor() {
    let mut cfg = ProtocolConfig::default()
        .with_timeout(AdaptiveTimeout::lan())
        .with_pacing(PacingConfig::new(2, Duration::from_micros(100)));
    cfg.max_retries = 100;
    let payload = data(6 * 1024);
    let rtt = (Duration::from_micros(200), Duration::from_micros(50));
    let mut sender = BlastSender::new(1, payload.clone(), &cfg);
    sender.control_mut().unwrap().seed_rtt(rtt.0, rtt.1);
    let mut h = Harness::new(
        sender,
        BlastReceiver::new(1, payload.len(), &cfg),
        LossPlan::script(vec![5]),
    );
    let outcome = h.run().expect("recovers");
    assert_eq!(h.received_data(), &payload[..]);
    assert_eq!(outcome.sender.timeouts, 1, "one re-solicitation timeout");
    // Bursts of two leave 100 µs apart, so the tail leaves at 200 µs;
    // the timer fires a floor later, and the re-sent tail and its ack
    // take 10 µs each way.
    let us = Duration::from_micros;
    assert_eq!(h.sender_elapsed(), Some(us(200) + ROUND0_FLOOR + us(20)));
    // Karn: the ack of a re-sent tail is no sample, so the estimate the
    // sender leaves for its path is the one it started from.
    let control = h.sender().control().unwrap();
    assert_eq!(control.rtt_estimate(), Some(rtt));
}

/// The (sender, receiver) pacing snapshots after a clean harness run.
fn snapshots_after<S: Engine, R: ReceiverEngine>(
    sender: S,
    receiver: R,
) -> (Option<PacerSnapshot>, Option<PacerSnapshot>) {
    let mut h = Harness::new(sender, receiver, LossPlan::perfect());
    h.run().expect("clean transfer");
    (h.sender().pacing_snapshot(), h.receiver().pacing_snapshot())
}

/// One pacing-snapshot rule for every engine: a sender reports its
/// pacer exactly when pacing is enabled — whether or not it signals
/// clean rounds (stop-and-wait and sliding window signal only loss) —
/// and a receiver never does.
#[test]
fn pacing_snapshot_is_some_iff_pacing_is_enabled() {
    let payload = data(16 * 1024);
    let len = payload.len();
    for pacing in [PacingConfig::off(), PacingConfig::lan()] {
        let cfg = ProtocolConfig::default()
            .with_timeout(AdaptiveTimeout::lan())
            .with_pacing(pacing)
            .with_multiblast_chunk(4);
        let runs = [
            (
                "stop-and-wait",
                snapshots_after(
                    SawSender::new(1, payload.clone(), &cfg),
                    SawReceiver::new(1, len, &cfg),
                ),
            ),
            (
                "sliding window",
                snapshots_after(
                    WindowSender::new(1, payload.clone(), &cfg),
                    SawReceiver::new(1, len, &cfg),
                ),
            ),
            (
                "blast",
                snapshots_after(
                    BlastSender::new(1, payload.clone(), &cfg),
                    BlastReceiver::new(1, len, &cfg),
                ),
            ),
            (
                "multi-blast",
                snapshots_after(
                    MultiBlastSender::new(1, payload.clone(), &cfg),
                    BlastReceiver::new(1, len, &cfg),
                ),
            ),
        ];
        for (name, (sender, receiver)) in runs {
            assert_eq!(
                sender.is_some(),
                pacing.enabled(),
                "{name} sender under {pacing:?}: {sender:?}"
            );
            if let Some(snap) = sender {
                assert_eq!(
                    snap.loss_events, 0,
                    "{name}: the clean run signalled no loss"
                );
            }
            assert_eq!(receiver, None, "{name} receiver under {pacing:?}");
        }
    }
}
