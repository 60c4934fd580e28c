//! The shared engine pump, driven without any socket: transmissions
//! land in in-memory queues, timers on a caller-keyed wheel.

use std::io;
use std::time::{Duration, Instant};

use blast_core::api::TimerToken;
use blast_core::blast::{BlastReceiver, BlastSender};
use blast_core::ProtocolConfig;
use blast_udp::pump::{step, Input};
use blast_udp::timers::TimerWheel;
use blast_wire::packet::Datagram;

/// Two engines pumped against each other through in-memory queues:
/// transmissions, keyed timers and completion all flow through
/// `step`, and one wheel serves both engines without their tokens
/// colliding.
#[test]
fn two_engines_share_one_wheel_and_finish() {
    let cfg = ProtocolConfig::default();
    let data: std::sync::Arc<[u8]> = (0..20_000).map(|i| i as u8).collect::<Vec<_>>().into();
    let mut tx = BlastSender::new(9, data.clone(), &cfg);
    let mut rx = BlastReceiver::new(9, data.len(), &cfg);
    let mut timers: TimerWheel<(bool, TimerToken)> = TimerWheel::new();
    let mut to_rx: Vec<Vec<u8>> = Vec::new();
    let mut to_tx: Vec<Vec<u8>> = Vec::new();
    let epoch = Instant::now();

    let mut tx_done = step(
        &mut tx,
        epoch.elapsed(),
        Input::Start,
        &mut timers,
        |t| (true, t),
        |b| {
            to_rx.push(b.to_vec());
            Ok(())
        },
    )
    .unwrap();
    assert!(!to_rx.is_empty(), "the sender opens with data");
    assert!(!timers.is_empty(), "and arms its retransmission timer");

    let mut rx_done = None;
    while tx_done.is_none() {
        assert!(!to_rx.is_empty() || !to_tx.is_empty(), "lossless run");
        for raw in std::mem::take(&mut to_rx) {
            let dgram = Datagram::parse(&raw).unwrap();
            let done = step(
                &mut rx,
                epoch.elapsed(),
                Input::Datagram(&dgram),
                &mut timers,
                |t| (false, t),
                |b| {
                    to_tx.push(b.to_vec());
                    Ok(())
                },
            )
            .unwrap();
            rx_done = rx_done.or(done);
        }
        for raw in std::mem::take(&mut to_tx) {
            let dgram = Datagram::parse(&raw).unwrap();
            let done = step(
                &mut tx,
                epoch.elapsed(),
                Input::Datagram(&dgram),
                &mut timers,
                |t| (true, t),
                |b| {
                    to_rx.push(b.to_vec());
                    Ok(())
                },
            )
            .unwrap();
            tx_done = tx_done.or(done);
        }
    }
    assert_eq!(tx_done.unwrap().result, Ok(data.len()));
    assert_eq!(rx_done.unwrap().result, Ok(data.len()));
    assert_eq!(rx.into_data(), data.as_ref());
}

#[test]
fn transmit_error_surfaces_and_stops_the_burst() {
    let cfg = ProtocolConfig::default();
    let data: std::sync::Arc<[u8]> = vec![7u8; 10_000].into();
    let mut tx = BlastSender::new(1, data, &cfg);
    let mut timers: TimerWheel<TimerToken> = TimerWheel::new();
    let mut calls = 0;
    let err = step(
        &mut tx,
        Duration::ZERO,
        Input::Start,
        &mut timers,
        |t| t,
        |_| {
            calls += 1;
            Err(io::Error::other("link down"))
        },
    )
    .unwrap_err();
    assert_eq!(err.to_string(), "link down");
    assert_eq!(calls, 1, "nothing is transmitted after the first failure");
}
