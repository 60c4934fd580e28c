//! Edge-case integration tests for the engines: cross-protocol noise
//! immunity, pathological configurations, and harness behaviour that
//! the per-module unit tests don't reach.

use std::sync::Arc;
use std::time::Duration;

use blast_core::api::{Action, TimerToken};
use blast_core::blast::{BlastReceiver, BlastSender};
use blast_core::config::{ProtocolConfig, RetxStrategy};
use blast_core::engine::Engine;
use blast_core::harness::{Harness, LossPlan};
use blast_core::saw::{SawReceiver, SawSender};
use blast_core::window::WindowSender;
use blast_wire::ack::AckPayload;
use blast_wire::packet::{Datagram, DatagramBuilder};

fn data(n: usize) -> Arc<[u8]> {
    (0..n).map(|i| (i % 199) as u8).collect::<Vec<u8>>().into()
}

fn feed(engine: &mut dyn Engine, packet: &[u8]) -> Vec<Action> {
    let d = Datagram::parse(packet).unwrap();
    let mut out = Vec::new();
    engine.on_datagram(&d, &mut out);
    out
}

/// Senders must ignore data packets (their own traffic echoed back) and
/// receivers must ignore stray acks — cross-traffic cannot confuse
/// either end.
#[test]
fn engines_ignore_wrong_direction_traffic() {
    let cfg = ProtocolConfig::default();
    let b = DatagramBuilder::new(1);
    let mut buf = vec![0u8; 2048];
    let payload = vec![1u8; 1024];
    let data_len = b.build_data(&mut buf, 0, 4, 0, &payload, 0, false).unwrap();
    let data_pkt = buf[..data_len].to_vec();
    let ack_len = b
        .build_ack(&mut buf, 4, &AckPayload::Positive { acked: 3 })
        .unwrap();
    let ack_pkt = buf[..ack_len].to_vec();

    // Senders fed a data packet: no reaction.
    let mut s = BlastSender::new(1, data(4096), &cfg);
    let mut start = Vec::new();
    s.start(&mut start);
    assert!(feed(&mut s, &data_pkt).is_empty());

    let mut s = SawSender::new(1, data(4096), &cfg);
    let mut start = Vec::new();
    s.start(&mut start);
    assert!(feed(&mut s, &data_pkt).is_empty());

    let mut s = WindowSender::new(1, data(4096), &cfg);
    let mut start = Vec::new();
    s.start(&mut start);
    assert!(feed(&mut s, &data_pkt).is_empty());

    // Receivers fed an ack: no reaction.
    let mut r = BlastReceiver::new(1, 4096, &cfg);
    assert!(feed(&mut r, &ack_pkt).is_empty());
    let mut r = SawReceiver::new(1, 4096, &cfg);
    assert!(feed(&mut r, &ack_pkt).is_empty());
}

/// A finished sender must stay inert: late acks, timers and data do
/// nothing.
#[test]
fn finished_sender_is_inert() {
    let cfg = ProtocolConfig::default();
    let payload = data(2048);
    let mut s = BlastSender::new(1, payload.clone(), &cfg);
    let mut r = BlastReceiver::new(1, payload.len(), &cfg);
    let mut actions = Vec::new();
    s.start(&mut actions);
    let mut acks = Vec::new();
    for a in &actions {
        if let Some(p) = a.as_transmit() {
            for ra in feed(&mut r, p) {
                if let Some(ap) = ra.as_transmit() {
                    acks.push(ap.to_vec());
                }
            }
        }
    }
    feed(&mut s, &acks[0]);
    assert!(s.is_finished());
    // Everything after completion is ignored.
    assert!(feed(&mut s, &acks[0]).is_empty());
    let mut out = Vec::new();
    s.on_timer(TimerToken(0), &mut out);
    assert!(out.is_empty());
}

/// Tiny packets (odd payload sizes) work end to end for every protocol.
#[test]
fn odd_packet_payload_sizes() {
    for payload_size in [1usize, 7, 100, 1023, 1025] {
        let cfg = ProtocolConfig::default().with_packet_payload(payload_size);
        let bytes = payload_size * 3 + 1; // forces a short tail packet
        let payload = data(bytes);
        let mut h = Harness::new(
            BlastSender::new(1, payload.clone(), &cfg),
            BlastReceiver::new(1, bytes, &cfg),
            LossPlan::perfect(),
        );
        h.run().unwrap();
        assert_eq!(
            h.received_data(),
            &payload[..],
            "payload_size={payload_size}"
        );
    }
}

/// A very large transfer (beyond the selective bitmap's 8192-bit span)
/// still completes with the selective strategy: the sender resends a
/// truncated report's holes with the reliable tail, whose next report
/// covers the rest.
#[test]
fn selective_transfer_beyond_bitmap_span() {
    let mut cfg = ProtocolConfig::default().with_strategy(RetxStrategy::Selective);
    // 16-byte packets keep the test fast while exceeding 8192 packets.
    cfg = cfg.with_packet_payload(16);
    cfg.max_retries = 100_000;
    cfg.timeout = Duration::from_millis(100).into();
    let bytes = 16 * 9000; // 9000 packets > Bitmap::MAX_BITS
    let payload = data(bytes);
    let mut h = Harness::new(
        BlastSender::new(1, payload.clone(), &cfg),
        BlastReceiver::new(1, bytes, &cfg),
        LossPlan::script(vec![3, 4000, 8999]),
    );
    h.run().unwrap();
    assert_eq!(h.received_data(), &payload[..]);
}

/// Harness latency override propagates into elapsed time.
#[test]
fn harness_latency_override() {
    let cfg = ProtocolConfig::default();
    let payload = data(1024);
    let mut h = Harness::new(
        BlastSender::new(1, payload.clone(), &cfg),
        BlastReceiver::new(1, payload.len(), &cfg),
        LossPlan::perfect(),
    )
    .with_latency(Duration::from_millis(5));
    h.run().unwrap();
    // One data + one ack, 5 ms each way.
    assert_eq!(h.sender_elapsed(), Some(Duration::from_millis(10)));
}

/// Duplicated acks from the network must not double-complete or panic
/// any sender.
#[test]
fn duplicate_final_acks_are_harmless() {
    let cfg = ProtocolConfig::default();
    let payload = data(4096);
    let mut s = BlastSender::new(1, payload.clone(), &cfg);
    let mut r = BlastReceiver::new(1, payload.len(), &cfg);
    let mut actions = Vec::new();
    s.start(&mut actions);
    let mut final_ack = None;
    for a in &actions {
        if let Some(p) = a.as_transmit() {
            for ra in feed(&mut r, p) {
                if let Some(ap) = ra.as_transmit() {
                    final_ack = Some(ap.to_vec());
                }
            }
        }
    }
    let ack = final_ack.unwrap();
    let first = feed(&mut s, &ack);
    assert!(first.iter().any(|a| matches!(a, Action::Complete(_))));
    for _ in 0..5 {
        let again = feed(&mut s, &ack);
        assert!(again.is_empty(), "duplicate final acks must be inert");
    }
}

/// Window sender with a window larger than the transfer behaves like
/// the unbounded paper mode.
#[test]
fn window_larger_than_transfer_is_unbounded() {
    let cfg_bounded = ProtocolConfig::default().with_window(Some(1000));
    let cfg_unbounded = ProtocolConfig::default();
    let payload = data(8 * 1024);
    for cfg in [cfg_bounded, cfg_unbounded] {
        let mut s = WindowSender::new(1, payload.clone(), &cfg);
        let mut actions = Vec::new();
        s.start(&mut actions);
        let sent = actions.iter().filter(|a| a.as_transmit().is_some()).count();
        assert_eq!(sent, 8, "all packets go out up front");
    }
}

/// Deterministic replay: identical seeds yield byte-identical action
/// streams across the whole harness run, including retransmissions.
#[test]
fn full_run_determinism() {
    let run = |seed: u64| {
        let mut cfg = ProtocolConfig::default();
        cfg.max_retries = 100_000;
        cfg.timeout = Duration::from_millis(20).into();
        let payload = data(32 * 1024);
        let mut h = Harness::new(
            BlastSender::new(1, payload.clone(), &cfg),
            BlastReceiver::new(1, payload.len(), &cfg),
            LossPlan::random(seed, 1, 8),
        );
        let outcome = h.run().unwrap();
        (
            outcome.sender.data_packets_sent,
            outcome.sender.retransmission_rounds,
            h.wire_count,
            h.dropped,
            h.sender_elapsed(),
        )
    };
    assert_eq!(run(1234), run(1234));
}
