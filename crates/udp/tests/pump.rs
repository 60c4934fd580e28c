//! The shared engine pump, driven without any socket: transmissions
//! land in in-memory queues, timers on a caller-keyed wheel.

use std::io;
use std::time::{Duration, Instant};

use blast_core::api::{Action, ActionSink, EngineStats, TimerToken};
use blast_core::blast::{BlastReceiver, BlastSender};
use blast_core::control::PACE_TIMER;
use blast_core::{Engine, PacingConfig, ProtocolConfig};
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
        epoch,
        Instant::now(),
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
                epoch,
                Instant::now(),
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
                epoch,
                Instant::now(),
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
    let now = Instant::now();
    let err = step(
        &mut tx,
        now,
        now,
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

/// A paced burst's gap counts from the step's instant, not from when
/// the last of its datagrams was handed over: a burst that takes
/// longer to transmit than its gap finds its next burst already due.
#[test]
fn timers_count_from_the_step() {
    let gap = Duration::from_millis(2);
    let cfg = ProtocolConfig {
        pacing: PacingConfig::new(8, gap),
        ..ProtocolConfig::default()
    };
    let blob: std::sync::Arc<[u8]> = vec![3u8; 64 * cfg.packet_payload].into();
    let mut tx = BlastSender::new(4, blob, &cfg);
    let mut timers: TimerWheel<TimerToken> = TimerWheel::new();
    let mut sent = 0;
    let before = Instant::now();
    step(
        &mut tx,
        before,
        before,
        Input::Start,
        &mut timers,
        |t| t,
        |_| {
            // A slow link: the burst takes five gaps to hand over.
            if sent == 0 {
                std::thread::sleep(Duration::from_millis(10));
            }
            sent += 1;
            Ok(())
        },
    )
    .unwrap();
    let returned = Instant::now();
    assert_eq!(sent, 8, "one burst");
    let due = timers.next_deadline().expect("the pace timer is armed");
    assert!(due >= before + gap, "not before the gap");
    assert!(
        due <= before + gap + Duration::from_millis(5),
        "the gap counts from the step, not after the burst: due {:?} after the step's instant",
        due - before
    );
    assert_eq!(
        timers.pop_due(returned),
        Some(PACE_TIMER),
        "due when the step returns"
    );
}

/// A slow link: each datagram takes 0.5 ms to hand over.
fn slow_send(b: &[u8], to_rx: &mut Vec<Vec<u8>>) -> io::Result<()> {
    std::thread::sleep(Duration::from_micros(500));
    to_rx.push(b.to_vec());
    Ok(())
}

/// Every timer but the pace timer counts from when it is armed: a
/// round's retransmission timer starts after its tail is framed and
/// staged.  Here staging the 32-packet round takes ≈ 16 ms against a
/// fixed 5 ms timeout, yet the transfer completes with no timeout,
/// because the timer is only due 5 ms after the tail was handed over.
#[test]
fn the_tail_timer_counts_from_after_framing() {
    let cfg = ProtocolConfig {
        timeout: Duration::from_millis(5).into(),
        ..ProtocolConfig::default()
    };
    let data: std::sync::Arc<[u8]> = vec![5u8; 32 * cfg.packet_payload].into();
    let mut tx = BlastSender::new(2, data.clone(), &cfg);
    let mut rx = BlastReceiver::new(2, data.len(), &cfg);
    let (mut tx_timers, mut rx_timers) = (TimerWheel::new(), TimerWheel::new());
    let (mut to_rx, mut to_tx): (Vec<Vec<u8>>, Vec<Vec<u8>>) = (Vec::new(), Vec::new());
    let epoch = Instant::now();
    let mut done = step(
        &mut tx,
        epoch,
        Instant::now(),
        Input::Start,
        &mut tx_timers,
        |t| t,
        |b| slow_send(b, &mut to_rx),
    )
    .unwrap();
    assert!(
        epoch.elapsed() > Duration::from_millis(5),
        "staging outlasts the RTO"
    );
    while done.is_none() {
        // A driver fires what is due before it reads the socket.
        while let Some(token) = tx_timers.pop_due(Instant::now()) {
            let input = Input::Timer(token);
            done = step(
                &mut tx,
                epoch,
                Instant::now(),
                input,
                &mut tx_timers,
                |t| t,
                |b| slow_send(b, &mut to_rx),
            )
            .unwrap();
        }
        assert!(!to_rx.is_empty() || !to_tx.is_empty(), "lossless run");
        for raw in std::mem::take(&mut to_rx) {
            let dgram = Datagram::parse(&raw).unwrap();
            let input = Input::Datagram(&dgram);
            step(
                &mut rx,
                epoch,
                Instant::now(),
                input,
                &mut rx_timers,
                |t| t,
                |b| {
                    to_tx.push(b.to_vec());
                    Ok(())
                },
            )
            .unwrap();
        }
        for raw in std::mem::take(&mut to_tx) {
            let dgram = Datagram::parse(&raw).unwrap();
            let input = Input::Datagram(&dgram);
            let finished = step(
                &mut tx,
                epoch,
                Instant::now(),
                input,
                &mut tx_timers,
                |t| t,
                |b| slow_send(b, &mut to_rx),
            )
            .unwrap();
            done = done.or(finished);
        }
    }
    let info = done.unwrap();
    assert_eq!(info.result, Ok(data.len()));
    assert_eq!(info.stats.timeouts, 0, "the timer waited for the tail");
    assert_eq!(rx.into_data(), data.as_ref());
}

/// An engine that keeps the clock it is given and, at start, asks for
/// the pace timer a millisecond on.
struct Clocked(Duration);

impl Engine for Clocked {
    fn start(&mut self, sink: &mut dyn ActionSink) {
        sink.push_action(Action::SetTimer {
            token: PACE_TIMER,
            after: Duration::from_millis(1),
        });
    }

    fn set_now(&mut self, now: Duration) {
        self.0 = now;
    }

    fn on_datagram(&mut self, _: &Datagram<'_>, _: &mut dyn ActionSink) {}

    fn on_timer(&mut self, _: TimerToken, _: &mut dyn ActionSink) {}

    fn is_finished(&self) -> bool {
        false
    }

    fn stats(&self) -> EngineStats {
        EngineStats::default()
    }

    fn transfer_id(&self) -> u32 {
        1
    }
}

/// The step reads no clock of its own: the engine's `now` and the pace
/// timer both count from the instant the caller passed, an hour from
/// the wall clock here.
#[test]
fn the_engine_runs_at_the_callers_instant() {
    let epoch = Instant::now();
    let now = epoch + Duration::from_secs(3600);
    let (mut engine, mut timers) = (Clocked(Duration::ZERO), TimerWheel::new());
    let done = step(
        &mut engine,
        epoch,
        now,
        Input::Start,
        &mut timers,
        |t| t,
        |_| Ok(()),
    );
    assert_eq!(done.unwrap(), None);
    assert_eq!(engine.0, Duration::from_secs(3600));
    let pace = now + Duration::from_millis(1);
    assert_eq!(timers.next_deadline(), Some(pace));
}
