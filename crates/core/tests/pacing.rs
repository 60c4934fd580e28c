//! Virtual-time pacing tests: paced transmits are scheduled *exactly*
//! by the harness (pacing rides the ordinary `SetTimer` machinery, so
//! any driver that honours timers honours pacing), and pacing composes
//! with loss, adaptive timeouts and every retransmission strategy.

use std::sync::Arc;
use std::time::Duration;

use blast_core::api::{Action, TimerToken};
use blast_core::blast::{BlastReceiver, BlastSender};
use blast_core::config::RetxStrategy;
use blast_core::control::{
    AdaptiveTimeout, PacerSnapshot, PacingConfig, MAX_GRANT, PACE_TIMER, ROUND0_FLOOR,
};
use blast_core::harness::{Harness, LossPlan, ReceiverEngine};
use blast_core::multiblast::MultiBlastSender;
use blast_core::saw::{SawReceiver, SawSender};
use blast_core::window::WindowSender;
use blast_core::{Engine, ProtocolConfig};
use blast_wire::Grant;

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

/// A lan-paced sender of `payload` granted `grant`.
fn granted_sender(payload: &Arc<[u8]>, cfg: &ProtocolConfig, grant: Grant) -> BlastSender<'static> {
    let mut sender = BlastSender::new(1, payload.clone(), cfg);
    sender.control_mut().unwrap().grant(grant);
    sender
}

/// A grant that holds the transfer sends it as one burst, arming no
/// pace timer; the tail's timer waits the RTO plus the receiver's time
/// to drain that burst, so a lost tail is re-solicited at exactly
/// `initial + 100 × Cr` and the data still arrives byte-exact.
#[test]
fn a_granted_sender_blasts_once_and_its_tail_waits_for_the_drain() {
    let mut cfg = ProtocolConfig::lan();
    cfg.max_retries = 10;
    let payload = data(100 * 1024);
    let grant = Grant {
        queue: 4096,
        drain_ns: 5_000,
    };
    let mut h = Harness::new(
        granted_sender(&payload, &cfg, grant),
        BlastReceiver::new(1, payload.len(), &cfg),
        LossPlan::script(vec![99]),
    );
    let outcome = h.run().expect("recovers");
    assert_eq!(h.received_data(), &payload[..]);
    assert_eq!(outcome.sender.timeouts, 1);
    let pacing = h.sender().pacing_snapshot().unwrap();
    assert_eq!(pacing.initial_burst, 4096);
    assert_eq!(pacing.min_burst_seen, 2048, "the timeout is a loss signal");
    // No gap: the tail left at 0, its timer fired 25 ms + 100 × 5 µs
    // later, and the re-sent tail and its ack took 10 µs each way.
    let us = Duration::from_micros;
    let tail = cfg.timeout.initial() + us(500);
    assert_eq!(h.sender_elapsed(), Some(tail + us(20)));
}

/// A grant smaller than the transfer paces it in bursts of the grant,
/// and a loss trims the burst below it by the share of the round it
/// lost.
#[test]
fn a_grant_caps_the_burst_and_loss_trims_below_it() {
    let cfg = ProtocolConfig::lan();
    let payload = data(40 * 1024);
    let grant = Grant {
        queue: 10,
        drain_ns: 0,
    };
    let mut h = Harness::new(
        granted_sender(&payload, &cfg, grant),
        BlastReceiver::new(1, payload.len(), &cfg),
        LossPlan::script(vec![3]),
    );
    h.run().expect("recovers");
    assert_eq!(h.received_data(), &payload[..]);
    let pacing = h.sender().pacing_snapshot().unwrap();
    assert_eq!(pacing.initial_burst, 10);
    assert_eq!(pacing.min_burst_seen, 9, "1 of 40 lost: ⌊10 · 39 / 40⌋");
    assert_eq!(pacing.burst, 10, "a clean round grows it back, no further");
}

/// A blast whose rounds all fit one burst: 100 packets, AIMD from 128
/// (floor 4, ceiling 512, growth 32), so every round is one burst and
/// the pacer's state after a run is exactly the loss rule's arithmetic.
fn one_burst_run(drops: Vec<u64>) -> (PacerSnapshot, u64) {
    let mut cfg = ProtocolConfig::lan().with_pacing(PacingConfig::aimd(
        128,
        Duration::from_micros(250),
        4,
        512,
        32,
    ));
    cfg.max_retries = 10;
    let payload = data(100 * 1024);
    let mut h = Harness::new(
        BlastSender::new(1, payload.clone(), &cfg),
        BlastReceiver::new(1, payload.len(), &cfg),
        LossPlan::script(drops),
    );
    let outcome = h.run().expect("recovers");
    assert_eq!(h.received_data(), &payload[..]);
    let pacing = h.sender().pacing_snapshot().unwrap();
    (pacing, outcome.sender.timeouts)
}

/// Round 0 sends 100 packets in one burst of 128 and loses `k` of them
/// (not the tail): the report trims the burst to `⌊128 · (100 − k) /
/// 100⌋`, and the clean retransmission round then adds the growth step.
#[test]
fn a_report_trims_the_burst_by_the_share_of_its_round_lost() {
    for k in [1u32, 3, 10, 50] {
        let drops = (0..u64::from(k)).map(|i| 2 * i).collect();
        let (pacing, timeouts) = one_burst_run(drops);
        let trimmed = 128 * (100 - k) / 100;
        assert_eq!(timeouts, 0, "{k}");
        assert_eq!(pacing.min_burst_seen, trimmed, "{k} of 100 lost");
        assert_eq!(
            pacing.burst,
            trimmed + 32,
            "{k}: then a clean round grows it"
        );
        assert_eq!((pacing.loss_events, pacing.clean_rounds), (1, 1), "{k}");
    }
}

/// Round 0 loses packets 10 and 20, trimming 128 to ⌊128 · 98 / 100⌋ =
/// 125; the retransmission round sends those two and loses the first
/// (wire index 101: 100 data packets, a NACK, then the two resends).
/// One of two lost halves the burst, and no more: 62.
#[test]
fn a_one_of_two_loss_in_a_retransmission_round_halves_at_most() {
    let (pacing, timeouts) = one_burst_run(vec![10, 20, 101]);
    assert_eq!(timeouts, 0);
    assert_eq!(pacing.min_burst_seen, 62);
    assert_eq!(pacing.burst, 62 + 32);
    assert_eq!(pacing.loss_events, 2);
}

/// Round 0 loses packet 10 and its tail: the timeout halves 128 to 64,
/// and the report the re-solicited tail draws asks for one packet of
/// the 100 round 0 sent — ⌊64 · 99 / 100⌋ = 63 — not for one of the
/// one-packet re-solicit, which would floor the burst.
#[test]
fn a_resolicited_report_is_sized_against_the_round_it_resolicits() {
    let (pacing, timeouts) = one_burst_run(vec![10, 99]);
    assert_eq!(timeouts, 1);
    assert_eq!(pacing.min_burst_seen, 63);
    assert_eq!(pacing.burst, 63 + 32);
    assert_eq!(pacing.loss_events, 2);
}

/// A lost round-0 tail and nothing else: the timeout halves the burst
/// once, and the re-solicited tail's positive report is a clean round.
#[test]
fn a_timeout_halves_the_burst_once() {
    let (pacing, timeouts) = one_burst_run(vec![99]);
    assert_eq!(timeouts, 1);
    assert_eq!(pacing.min_burst_seen, 64);
    assert_eq!(pacing.burst, 64 + 32);
    assert_eq!((pacing.loss_events, pacing.clean_rounds), (1, 1));
}

/// Hostile grants are clamped: a queue of 0 bursts one packet, one of
/// `u32::MAX` bursts what is left to send (at most [`MAX_GRANT`]), and
/// a drain of `u32::MAX` ns per datagram holds the tail timer at the
/// policy's `max`.
#[test]
fn a_hostile_grant_is_clamped() {
    let cfg = ProtocolConfig::lan();
    let payload = data(8 * 1024);
    let max = match cfg.timeout {
        AdaptiveTimeout::Adaptive { max, .. } => max,
        AdaptiveTimeout::Fixed(_) => unreachable!("lan is adaptive"),
    };
    for (queue, burst) in [(0, 1), (3, 3), (u32::MAX, 8)] {
        for drain_ns in [0, u32::MAX] {
            let mut sender = granted_sender(&payload, &cfg, Grant { queue, drain_ns });
            let mut actions = Vec::new();
            sender.start(&mut actions);
            let sent = actions
                .iter()
                .filter(|a| matches!(a, Action::Transmit(_)))
                .count();
            assert_eq!(sent, burst, "queue {queue}");
            for action in &actions {
                if let Action::SetTimer { token, after } = action {
                    assert!(*after <= max, "{token:?} {after:?}");
                    if *token == TimerToken(0) && drain_ns == u32::MAX {
                        assert_eq!(*after, max);
                    }
                }
            }
            let mut h = Harness::new(
                granted_sender(&payload, &cfg, Grant { queue, drain_ns }),
                BlastReceiver::new(1, payload.len(), &cfg),
                LossPlan::perfect(),
            );
            h.run().expect("a clamped grant still completes");
            assert_eq!(h.received_data(), &payload[..]);
        }
    }
}

/// The sender, not the grant, bounds an engine step: granted `u32::MAX`,
/// a round of more than [`MAX_GRANT`] packets leaves in steps of at most
/// `MAX_GRANT`, each arming the pace timer for the next.
#[test]
fn a_grant_bounds_what_one_step_emits() {
    let cfg = ProtocolConfig::lan();
    let payload = data((2 * MAX_GRANT as usize + 5) * cfg.packet_payload);
    let grant = Grant {
        queue: u32::MAX,
        drain_ns: 0,
    };
    let mut sender = granted_sender(&payload, &cfg, grant);
    let (mut steps, mut actions) = (Vec::new(), Vec::new());
    sender.start(&mut actions);
    loop {
        let sent = actions
            .iter()
            .filter(|a| matches!(a, Action::Transmit(_)))
            .count();
        steps.push(sent);
        let paced = actions
            .iter()
            .any(|a| matches!(a, Action::SetTimer { token, .. } if *token == PACE_TIMER));
        if !paced {
            break;
        }
        actions.clear();
        sender.on_timer(PACE_TIMER, &mut actions);
    }
    let max = MAX_GRANT as usize;
    assert_eq!(steps, [max, max, 5]);
}

/// A receiver times its round-0 arrivals: behind a 3 µs bottleneck the
/// interval it reports is the bottleneck's, what its next grant sends.
#[test]
fn a_receiver_reports_its_round_zero_arrival_interval() {
    let cfg = ProtocolConfig::default();
    let payload = data(32 * 1024);
    let mut h = Harness::new(
        BlastSender::new(1, payload.clone(), &cfg),
        BlastReceiver::new(1, payload.len(), &cfg),
        LossPlan::perfect(),
    )
    .with_bottleneck(Duration::from_micros(3), 64);
    h.run().expect("clean");
    let control = h.receiver().control().unwrap();
    assert_eq!(control.receive_interval(), Some(Duration::from_micros(3)));
    assert_eq!(h.sender().control().unwrap().receive_interval(), None);
}
