//! Virtual-time tests of the tail probe: a granted sender with a
//! round-trip estimate re-sends its round's reliable tail once, a probe
//! timeout after it went out, before any retransmission timeout fires.
//!
//! The probe backs off no RTO, cuts no burst and charges no round; a
//! lost probe leaves the timeout where it was; a fixed timeout, and a
//! multi-blast chunk sender, never probe; and the second report a probe
//! can draw for its round is ignored.

use std::sync::Arc;
use std::time::Duration;

use blast_core::api::{Action, TimerToken};
use blast_core::blast::{BlastReceiver, BlastSender};
use blast_core::control::{AdaptiveTimeout, ROUND0_FLOOR};
use blast_core::harness::{Harness, LossPlan};
use blast_core::multiblast::MultiBlastSender;
use blast_core::{Engine, ProtocolConfig};
use blast_wire::packet::Datagram;
use blast_wire::Grant;

/// The carried estimate every probing sender here starts from: a path
/// slow enough that twice its round trip is above the probe floor.
const SRTT: Duration = Duration::from_millis(1);
const RTTVAR: Duration = Duration::from_micros(250);
/// The receiver's granted drain interval per datagram.
const CR: Duration = Duration::from_micros(1);
/// Packets per transfer: one granted burst.
const PACKETS: usize = 6;

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

fn data(packets: usize, cfg: &ProtocolConfig) -> Arc<[u8]> {
    (0..packets * cfg.packet_payload)
        .map(|i| (i * 37 % 251) as u8)
        .collect::<Vec<u8>>()
        .into()
}

/// Grant `engine` a 64-datagram queue drained at [`CR`] and seed it
/// with the carried estimate, as a transfer leg does before `start`.
fn carry<E: Engine>(mut engine: E) -> E {
    let control = engine.control_mut().unwrap();
    control.grant(Grant {
        queue: 64,
        drain_ns: CR.as_nanos() as u32,
    });
    control.seed_rtt(SRTT, RTTVAR);
    engine
}

/// The probe timeout of a round-0 burst of [`PACKETS`]: `2 × srtt` plus
/// its drain.
fn pto() -> Duration {
    2 * SRTT + CR * PACKETS as u32
}

/// A harness around a carried sender of [`PACKETS`] packets, dropping
/// the wire transmissions in `drops`.
fn run(cfg: &ProtocolConfig, drops: Vec<u64>) -> Harness<BlastSender<'static>, BlastReceiver> {
    let payload = data(PACKETS, cfg);
    let mut h = Harness::new(
        carry(BlastSender::new(1, payload.clone(), cfg)),
        BlastReceiver::new(1, payload.len(), cfg),
        LossPlan::script(drops),
    );
    h.run().expect("the transfer completes");
    assert_eq!(h.received_data(), &payload[..]);
    h
}

/// (a) The round-0 tail is lost.  Its probe leaves at the probe timeout,
/// the receiver's answer to it completes the transfer, and nothing a
/// timeout does happens: no timeout, no backoff, no burst cut, no round.
#[test]
fn a_lost_round_zero_tail_is_answered_by_its_probe() {
    let h = run(&ProtocolConfig::lan(), vec![PACKETS as u64 - 1]);
    let stats = h.sender().stats();
    assert_eq!((stats.timeouts, stats.probes), (0, 1), "{stats:?}");
    assert_eq!(stats.retransmission_rounds, 0);
    assert_eq!(stats.data_packets_sent, PACKETS as u64 + 1);
    assert_eq!(stats.data_packets_retransmitted, 1, "the probe, in round 0");
    // The probe left at the PTO; it and its answer took 10 µs each way.
    assert_eq!(h.sender_elapsed(), Some(pto() + us(20)));
    let control = h.sender().control().unwrap();
    assert_eq!(control.rto(), ROUND0_FLOOR, "the RTO is not backed off");
    assert_eq!(control.rtt_estimate(), Some((SRTT, RTTVAR)), "no sample");
    let pacing = h.sender().pacing_snapshot().unwrap();
    assert_eq!((pacing.loss_events, pacing.min_burst_seen), (0, 64));
}

/// (c) The tail and its probe are both lost.  The retransmission
/// timeout fires where it fires without a probe, the RTO plus the
/// burst's drain after the tail, and recovers as it always has.
#[test]
fn a_lost_probe_leaves_the_timeout_where_it_was() {
    let h = run(
        &ProtocolConfig::lan(),
        vec![PACKETS as u64 - 1, PACKETS as u64],
    );
    let stats = h.sender().stats();
    assert_eq!((stats.timeouts, stats.probes), (1, 1), "{stats:?}");
    assert_eq!(stats.retransmission_rounds, 1);
    let timeout = ROUND0_FLOOR + CR * PACKETS as u32;
    assert_eq!(h.sender_elapsed(), Some(timeout + us(20)));
    assert_eq!(
        h.sender().current_rto(),
        2 * ROUND0_FLOOR,
        "a timeout backs off"
    );
}

/// A retransmission round probes too, on the estimate round 0 sampled:
/// an unseeded granted sender loses packet 2 of round 0, and then the
/// round-1 retransmission of it, which is that round's tail.
#[test]
fn a_lost_retransmission_tail_is_probed_on_the_sampled_estimate() {
    let cfg = ProtocolConfig::lan();
    let payload = data(PACKETS, &cfg);
    let mut sender = BlastSender::new(1, payload.clone(), &cfg);
    sender.control_mut().unwrap().grant(Grant {
        queue: 64,
        drain_ns: 0,
    });
    // Wire order: round 0's six packets (2 dropped), its NACK, then the
    // round-1 retransmission of packet 2 (dropped), then its probe.
    let mut h = Harness::new(
        sender,
        BlastReceiver::new(1, payload.len(), &cfg),
        LossPlan::script(vec![2, PACKETS as u64 + 1]),
    );
    h.run().expect("recovers");
    assert_eq!(h.received_data(), &payload[..]);
    let stats = h.sender().stats();
    assert_eq!((stats.timeouts, stats.probes), (0, 1), "{stats:?}");
    assert_eq!(stats.retransmission_rounds, 1);
    // Round 0's report sampled 20 µs, so the probe waits the floor: the
    // NACK returned at 20 µs, the probe left 1 ms later.
    let floor = blast_core::control::PROBE_FLOOR;
    assert_eq!(h.sender_elapsed(), Some(us(20) + floor + us(20)));
}

/// (d) A fixed timeout has no estimate to probe from: the lost tail
/// waits out the fixed interval, as in the paper.
#[test]
fn a_fixed_timeout_never_probes() {
    let cfg = ProtocolConfig::lan().with_timeout(AdaptiveTimeout::Fixed(Duration::from_millis(5)));
    let h = run(&cfg, vec![PACKETS as u64 - 1]);
    let stats = h.sender().stats();
    assert_eq!((stats.timeouts, stats.probes), (1, 0), "{stats:?}");
    assert_eq!(h.sender_elapsed(), Some(Duration::from_millis(5) + us(20)));
}

/// (e) A multi-blast chunk sender is kept off probes: a chunk's round 0
/// stamps round 0 like every chunk's, so a probe's late second report
/// could not be told from a report on the next chunk.  A lost chunk tail
/// waits out its timeout.
#[test]
fn a_multiblast_sender_never_probes() {
    let cfg = ProtocolConfig::lan().with_multiblast_chunk(3);
    let payload = data(PACKETS, &cfg);
    let mut h = Harness::new(
        carry(MultiBlastSender::new(1, payload.clone(), &cfg)),
        BlastReceiver::new(1, payload.len(), &cfg),
        LossPlan::script(vec![2]),
    );
    let outcome = h.run().expect("recovers");
    assert_eq!(h.received_data(), &payload[..]);
    assert_eq!((outcome.sender.timeouts, outcome.sender.probes), (1, 0));
}

/// A lost round-0 tail answered by its probe does not stretch the
/// receiver's round-0 arrival interval: behind a 3 µs bottleneck it
/// still reads 3 µs, not the probe timeout spread over the round.
#[test]
fn a_probe_does_not_stretch_the_receivers_arrival_interval() {
    let cfg = ProtocolConfig::lan();
    let payload = data(PACKETS, &cfg);
    let mut h = Harness::new(
        carry(BlastSender::new(1, payload.clone(), &cfg)),
        BlastReceiver::new(1, payload.len(), &cfg),
        LossPlan::script(vec![PACKETS as u64 - 1]),
    )
    .with_bottleneck(us(3), 64);
    h.run().expect("recovers");
    assert_eq!(h.sender().stats().probes, 1);
    let control = h.receiver().control().unwrap();
    assert_eq!(control.receive_interval(), Some(us(3)));
}

fn transmits(actions: &[Action]) -> Vec<Vec<u8>> {
    actions
        .iter()
        .filter_map(|a| a.as_transmit().map(<[u8]>::to_vec))
        .collect()
}

fn feed(engine: &mut dyn Engine, packet: &[u8]) -> Vec<Action> {
    let mut out = Vec::new();
    engine.on_datagram(&Datagram::parse(packet).unwrap(), &mut out);
    out
}

/// (b) A report with a hole is delayed past the probe timeout, so the
/// probe draws a second report for round 0.  The first to arrive
/// resends the hole and trims the burst; the second, for a round the
/// sender has left, does neither again.
#[test]
fn a_report_delayed_past_the_probe_resends_its_holes_once() {
    let cfg = ProtocolConfig::lan();
    let payload = data(PACKETS, &cfg);
    let mut s = carry(BlastSender::new(1, payload.clone(), &cfg));
    let mut r = BlastReceiver::new(1, payload.len(), &cfg);
    let mut actions = Vec::new();
    s.start(&mut actions);
    let round0 = transmits(&actions);
    assert_eq!(round0.len(), PACKETS);
    let first_wait = actions.iter().find_map(|a| match a {
        Action::SetTimer { after, .. } => Some(*after),
        _ => None,
    });
    assert_eq!(
        first_wait,
        Some(pto()),
        "the tail's timer starts at the PTO"
    );

    // Packet 1 is lost; the tail's report is held back.
    let mut reports = Vec::new();
    for p in round0
        .iter()
        .filter(|p| Datagram::parse(p).unwrap().seq != 1)
    {
        reports.extend(transmits(&feed(&mut r, p)));
    }
    assert_eq!(reports.len(), 1);

    // The PTO expires: one probe, then the rest of the tail timeout.
    let mut out = Vec::new();
    s.on_timer(TimerToken(0), &mut out);
    let probe = transmits(&out);
    assert_eq!(probe.len(), 1);
    let d = Datagram::parse(&probe[0]).unwrap();
    assert_eq!((d.seq, d.round, d.is_last()), (PACKETS as u32 - 1, 0, true));
    let rest = ROUND0_FLOOR + CR * PACKETS as u32 - pto();
    assert!(out
        .iter()
        .any(|a| matches!(a, Action::SetTimer { after, .. } if *after == rest)));
    reports.extend(transmits(&feed(&mut r, &probe[0])));
    assert_eq!(reports.len(), 2, "the probe draws a second report");
    for report in &reports {
        assert_eq!(
            Datagram::parse(report).unwrap().round,
            0,
            "both answer round 0"
        );
    }

    // The first report resends the hole and trims the burst once.
    let resent = transmits(&feed(&mut s, &reports[0]));
    let seqs: Vec<u32> = resent
        .iter()
        .map(|p| Datagram::parse(p).unwrap().seq)
        .collect();
    assert_eq!(seqs, [1]);
    assert_eq!(Datagram::parse(&resent[0]).unwrap().round, 1);
    // The second is for round 0, which the sender has left.
    assert!(
        feed(&mut s, &reports[1]).is_empty(),
        "a late report does nothing"
    );
    let stats = s.stats();
    assert_eq!((stats.retransmission_rounds, stats.probes), (1, 1));
    assert_eq!(stats.stale_reports, 1);
    let pacing = s.pacing_snapshot().unwrap();
    assert_eq!(pacing.loss_events, 1);
    assert_eq!(pacing.burst, 64 * 5 / 6, "1 of 6 lost, once");

    // The round-1 answer echoes round 1 and completes the transfer.
    let last = transmits(&feed(&mut r, &resent[0]));
    assert_eq!(Datagram::parse(&last[0]).unwrap().round, 1);
    feed(&mut s, &last[0]);
    assert!(s.is_finished() && r.is_finished());
    assert_eq!(r.data(), &payload[..]);
}
