//! The wire does not depend on where a datagram is built.  Every engine
//! transmits through `ActionSink::transmit`: its default builds each
//! datagram in a pooled buffer and pushes `Action::Transmit` (the
//! harness, the simulator), while the pump hands the engine's writer to
//! a staging target that builds it where it is staged (a node's send
//! arena, a channel's frame scratch).  Here each engine pair runs one
//! virtual-time exchange through the default sink — data lost on the
//! way, so retransmission rounds, timeouts and tail probes happen —
//! and each side's calls are replayed on a fresh engine through the
//! pump.  The framed streams must be identical, and every frame must
//! be what `DatagramBuilder::build_*` and `fcs::frame` make of its
//! fields and the source bytes.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use blast_core::api::{Action, EngineStats, TimerToken};
use blast_core::blast::{BlastReceiver, BlastSender};
use blast_core::multiblast::MultiBlastSender;
use blast_core::saw::{SawReceiver, SawSender};
use blast_core::window::WindowSender;
use blast_core::{Engine, ProtocolConfig, RetxStrategy};
use blast_udp::fcs::{self, FCS_LEN};
use blast_udp::pump::{self, Input};
use blast_udp::timers::TimerWheel;
use blast_wire::header::{flags, PacketKind};
use blast_wire::packet::{Datagram, DatagramBuilder};
use blast_wire::Grant;

const ID: u32 = 5;
/// One-way delay of the virtual link.
const LINK: Duration = Duration::from_micros(20);

/// One engine call in a side's script.
#[derive(Clone)]
enum Call {
    Start,
    Hear(Vec<u8>),
    Fire(TimerToken),
}

/// One side of the exchange: its engine, armed timers (virtual
/// deadlines), the calls it was made and the frames it sent.
struct Side<'a> {
    engine: Box<dyn Engine + 'a>,
    timers: BTreeMap<TimerToken, Duration>,
    script: Vec<(Duration, Call)>,
    frames: Vec<Vec<u8>>,
    done: bool,
    succeeded: bool,
}

impl<'a> Side<'a> {
    fn new(engine: Box<dyn Engine + 'a>) -> Self {
        Side {
            engine,
            timers: BTreeMap::new(),
            script: Vec::new(),
            frames: Vec::new(),
            done: false,
            succeeded: false,
        }
    }

    /// Make `call` at `at` through the default (pooled) sink; returns
    /// the frames it sent.
    fn call(&mut self, at: Duration, call: Call) -> Vec<Vec<u8>> {
        self.script.push((at, call.clone()));
        self.engine.set_now(at);
        let mut actions: Vec<Action> = Vec::new();
        match &call {
            Call::Start => self.engine.start(&mut actions),
            Call::Hear(raw) => self
                .engine
                .on_datagram(&Datagram::parse(raw).unwrap(), &mut actions),
            Call::Fire(token) => self.engine.on_timer(*token, &mut actions),
        }
        let mut sent = Vec::new();
        for action in actions {
            match action {
                Action::Transmit(bytes) => sent.push(fcs::frame(&bytes)),
                Action::SetTimer { token, after } => {
                    self.timers.insert(token, at + after);
                }
                Action::CancelTimer { token } => {
                    self.timers.remove(&token);
                }
                Action::Complete(info) => {
                    self.done = true;
                    self.succeeded = info.is_success();
                }
            }
        }
        self.frames.extend(sent.iter().cloned());
        sent
    }

    fn next_timer(&self) -> Option<(Duration, TimerToken)> {
        self.timers.iter().map(|(t, at)| (*at, *t)).min()
    }
}

/// Run `sender` against `receiver` in virtual time, dropping the
/// sender's datagrams whose index is in `drops`, until both finish.
/// Returns the two sides, scripts and frames recorded.
fn exchange<'a>(
    sender: Box<dyn Engine + 'a>,
    receiver: Box<dyn Engine + 'a>,
    drops: &BTreeSet<usize>,
) -> (Side<'a>, Side<'a>) {
    let (mut tx, mut rx) = (Side::new(sender), Side::new(receiver));
    // Datagrams in flight: (arrival, sequence number, to the receiver?, bytes).
    let mut flight: BTreeSet<(Duration, u64, bool, Vec<u8>)> = BTreeSet::new();
    let (mut order, mut forward) = (0u64, 0usize);
    let mut send = |flight: &mut BTreeSet<_>, at: Duration, frames: Vec<Vec<u8>>, to_rx: bool| {
        for frame in frames {
            let body = fcs::unframe(&frame).expect("a framed datagram");
            if to_rx {
                forward += 1;
                if drops.contains(&(forward - 1)) {
                    continue;
                }
            }
            order += 1;
            flight.insert((at + LINK, order, to_rx, frame[..body].to_vec()));
        }
    };
    let frames = tx.call(Duration::ZERO, Call::Start);
    send(&mut flight, Duration::ZERO, frames, true);
    for _ in 0..100_000 {
        if tx.done && rx.done {
            return (tx, rx);
        }
        let arrival = flight.first().map(|(at, ..)| *at);
        let timer = [(tx.next_timer(), true), (rx.next_timer(), false)]
            .into_iter()
            .filter_map(|(next, on_tx)| Some((next?, on_tx)))
            .min();
        match (arrival, timer) {
            (None, None) => panic!("the exchange stalled"),
            (Some(a), Some(((t, _), _))) if a <= t => {}
            (Some(_), None) => {}
            (_, Some(((at, token), on_tx))) => {
                let side = if on_tx { &mut tx } else { &mut rx };
                side.timers.remove(&token);
                let frames = side.call(at, Call::Fire(token));
                send(&mut flight, at, frames, on_tx);
                continue;
            }
        }
        let (at, _, to_rx, raw) = flight.pop_first().unwrap();
        // A receiver that completed still answers a duplicate tail.
        let side = if to_rx { &mut rx } else { &mut tx };
        let frames = side.call(at, Call::Hear(raw));
        send(&mut flight, at, frames, !to_rx);
    }
    panic!("the exchange did not finish");
}

/// Replay `script` on a fresh engine through the pump, every datagram
/// built in place into a garbage-filled frame and framed there, and
/// return the frames.
fn replay(mut engine: Box<dyn Engine + '_>, script: &[(Duration, Call)]) -> Vec<Vec<u8>> {
    let (epoch, mut timers) = (Instant::now(), TimerWheel::new());
    let mut frames = Vec::new();
    for (at, call) in script {
        let parsed;
        let input = match call {
            Call::Start => Input::Start,
            Call::Hear(raw) => {
                parsed = Datagram::parse(raw).unwrap();
                Input::Datagram(&parsed)
            }
            Call::Fire(token) => Input::Timer(*token),
        };
        let stage = |len: usize, write: &mut dyn FnMut(&mut [u8])| {
            let mut frame = vec![0xEE; len + FCS_LEN];
            fcs::build(&mut frame, write);
            frames.push(frame);
            Ok(())
        };
        pump::step(
            engine.as_mut(),
            epoch,
            epoch + *at,
            input,
            &mut timers,
            |t| t,
            stage,
        )
        .unwrap();
    }
    frames
}

/// Check that every frame is what the builders and `fcs::frame` make
/// of its fields and the source bytes: data built as blast data
/// (`reliable == false`) or as individually acknowledged data.
fn check_built(frames: &[Vec<u8>], data: &[u8], cfg: &ProtocolConfig, reliable: bool) {
    for frame in frames {
        let body = fcs::unframe(frame).expect("the FCS verifies");
        let d = Datagram::parse(&frame[..body]).expect("a datagram");
        let builder = DatagramBuilder::new(ID)
            .kernel(cfg.kernel_flag)
            .multiblast(d.flags & flags::MULTIBLAST != 0);
        let mut buf = vec![0u8; body];
        let n = match d.kind {
            PacketKind::Data => {
                let at = d.offset as usize;
                let payload = &data[at..at + d.payload.len()];
                if reliable {
                    builder
                        .build_reliable_data(&mut buf, d.seq, d.total, d.offset, payload, d.round)
                } else {
                    let (seq, total, offset) = (d.seq, d.total, d.offset);
                    builder.build_data(&mut buf, seq, total, offset, payload, d.round, d.is_last())
                }
            }
            PacketKind::Ack => {
                builder.build_status(&mut buf, d.total, d.round, d.ack.as_ref().unwrap())
            }
            kind => panic!("an engine sent a {kind:?}"),
        };
        assert_eq!(n.unwrap(), body);
        assert_eq!(
            &fcs::frame(&buf),
            frame,
            "{:?} {} round {}",
            d.kind,
            d.seq,
            d.round
        );
    }
}

fn blob(len: usize) -> Arc<[u8]> {
    (0..len)
        .map(|i| (i * 131 + 17) as u8)
        .collect::<Vec<u8>>()
        .into()
}

/// Run the exchange, replay both sides through the pump and check the
/// streams; returns the sender's stats and frames.
fn identical<'a>(
    make: impl Fn() -> (Box<dyn Engine + 'a>, Box<dyn Engine + 'a>),
    drops: &[usize],
    data: &[u8],
    cfg: &ProtocolConfig,
    reliable: bool,
) -> (EngineStats, Vec<Vec<u8>>) {
    let (tx, rx) = make();
    let (tx, rx) = exchange(tx, rx, &drops.iter().copied().collect());
    assert!(tx.succeeded && rx.succeeded, "the transfer completes");
    let (fresh_tx, fresh_rx) = make();
    assert_eq!(
        replay(fresh_tx, &tx.script),
        tx.frames,
        "the sender's stream"
    );
    assert_eq!(
        replay(fresh_rx, &rx.script),
        rx.frames,
        "the receiver's stream"
    );
    check_built(&tx.frames, data, cfg, reliable);
    check_built(&rx.frames, data, cfg, reliable);
    (tx.engine.stats(), tx.frames)
}

fn rounds(frames: &[Vec<u8>]) -> BTreeSet<u16> {
    let round = |f: &Vec<u8>| Datagram::parse(&f[..f.len() - FCS_LEN]).unwrap().round;
    frames.iter().map(round).collect()
}

/// A blast under each strategy, granted and seeded as a transfer leg is:
/// a lost packet mid-round and a lost tail, so the tail is probed (or
/// times out) and a retransmission round follows.
#[test]
fn blast_streams_are_identical_under_every_strategy() {
    const PACKETS: usize = 12;
    for strategy in RetxStrategy::ALL {
        let cfg = ProtocolConfig::lan().with_strategy(strategy);
        let data = blob(PACKETS * cfg.packet_payload - 100);
        let make = || -> (Box<dyn Engine>, Box<dyn Engine>) {
            let mut tx = BlastSender::new(ID, Arc::clone(&data), &cfg);
            let control = tx.control_mut().unwrap();
            control.grant(Grant {
                queue: 64,
                drain_ns: 1_000,
            });
            control.seed_rtt(Duration::from_millis(1), Duration::from_micros(250));
            (
                Box::new(tx),
                Box::new(BlastReceiver::new(ID, data.len(), &cfg)),
            )
        };
        let (stats, frames) = identical(make, &[4, PACKETS - 1], &data, &cfg, false);
        assert_eq!(stats.probes, 1, "{strategy:?}: the lost tail is probed");
        assert_eq!(stats.retransmission_rounds, 1, "{strategy:?}");
        assert_eq!(rounds(&frames), BTreeSet::from([0, 1]), "{strategy:?}");
    }
}

/// Multi-blast chunks (the MULTIBLAST flag, cumulative acks), one chunk
/// losing a packet; then stop-and-wait and a sliding window, each
/// losing one data packet to a timeout.
#[test]
fn multiblast_saw_and_window_streams_are_identical() {
    let cfg = ProtocolConfig::default().with_multiblast_chunk(4);
    let data = blob(10 * cfg.packet_payload + 7);
    let make = || -> (Box<dyn Engine>, Box<dyn Engine>) {
        (
            Box::new(MultiBlastSender::new(ID, Arc::clone(&data), &cfg)),
            Box::new(BlastReceiver::new(ID, data.len(), &cfg)),
        )
    };
    let (stats, frames) = identical(make, &[5], &data, &cfg, false);
    assert!(stats.data_packets_retransmitted > 0);
    let parsed = |f: &Vec<u8>| Datagram::parse(&f[..f.len() - FCS_LEN]).unwrap().flags;
    assert!(frames.iter().all(|f| parsed(f) & flags::MULTIBLAST != 0));

    let cfg = ProtocolConfig::default();
    let data = blob(6 * cfg.packet_payload + 300);
    let make = || -> (Box<dyn Engine>, Box<dyn Engine>) {
        (
            Box::new(SawSender::new(ID, Arc::clone(&data), &cfg)),
            Box::new(SawReceiver::new(ID, data.len(), &cfg)),
        )
    };
    let (stats, _) = identical(make, &[2], &data, &cfg, true);
    assert_eq!(stats.timeouts, 1);

    let cfg = ProtocolConfig::default().with_window(Some(3));
    let make = || -> (Box<dyn Engine>, Box<dyn Engine>) {
        (
            Box::new(WindowSender::new(ID, Arc::clone(&data), &cfg)),
            Box::new(SawReceiver::new(ID, data.len(), &cfg)),
        )
    };
    let (stats, _) = identical(make, &[3], &data, &cfg, true);
    assert!(stats.data_packets_retransmitted > 0);
}
