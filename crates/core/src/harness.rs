//! A deterministic virtual-time harness that runs a sender engine
//! against a receiver engine over a configurable lossy channel.
//!
//! This is *not* the performance simulator (`blast-sim` models processor
//! copy costs, interfaces and the Ethernet medium).  The harness exists
//! to test and property-test protocol *correctness*: it gives packets a
//! fixed tiny latency, honours timers in virtual time, and injects
//! losses according to a [`LossPlan`] — deterministic from a seed, so
//! every failure reproduces.  Seeded plans draw from the crate's one
//! [`LossModel`], the same model the simulator and `blast-udp`'s
//! `FaultyChannel` use; only the uniform source is the harness's own.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::time::Duration;

use blast_wire::packet::Datagram;

use crate::api::{Action, EngineStats, Outcome, TimerToken};
use crate::engine::Engine;
use crate::error::CoreError;
use crate::loss::{LossChain, LossModel};
use crate::pool::PooledBuf;

/// Which end of the channel an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Side {
    /// The data source.
    Sender,
    /// The data sink.
    Receiver,
}

impl Side {
    fn other(self) -> Side {
        match self {
            Side::Sender => Side::Receiver,
            Side::Receiver => Side::Sender,
        }
    }
}

/// Loss injection policy for the harness channel.
#[derive(Debug, Clone)]
pub enum LossPlan {
    /// Deliver everything.
    Perfect,
    /// Drop packets under `model`, one chain step per packet placed on
    /// the wire, drawing uniforms `(x mod resolution) / resolution` from
    /// an xorshift generator seeded with `seed`.  On that grid a
    /// probability `k / resolution` drops exactly when `x mod
    /// resolution < k` (`resolution` ≤ 2³² keeps grid points distinct as
    /// `f64`).  [`Harness::new`] validates `model`.
    Seeded {
        /// RNG seed; same seed ⇒ same drop trajectory.
        seed: u64,
        /// The loss model drawn from.
        model: LossModel,
        /// Grid size of every uniform draw.
        resolution: u32,
    },
    /// Drop exactly the n-th, m-th, ... packets placed on the wire
    /// (0-based, counting every transmission from either side).
    Script(Vec<u64>),
}

impl LossPlan {
    /// No loss.
    pub fn perfect() -> Self {
        LossPlan::Perfect
    }

    /// iid loss with probability `numerator / denominator` — the
    /// paper's `p_n` — drawn at resolution `denominator`.
    pub fn random(seed: u64, numerator: u32, denominator: u32) -> Self {
        LossPlan::Seeded {
            seed,
            model: LossModel::iid(f64::from(numerator) / f64::from(denominator)),
            resolution: denominator,
        }
    }

    /// Drop the given wire-sequence numbers.
    pub fn script(drops: impl Into<Vec<u64>>) -> Self {
        LossPlan::Script(drops.into())
    }

    /// Gilbert–Elliott burst loss, every probability in parts per
    /// million (`1_000_000` = certainty).
    pub fn gilbert_elliott(
        seed: u64,
        p_enter_ppm: u32,
        p_exit_ppm: u32,
        good_loss_ppm: u32,
        bad_loss_ppm: u32,
    ) -> Self {
        const PPM: u32 = 1_000_000;
        let ppm = |v: u32| f64::from(v) / f64::from(PPM);
        LossPlan::Seeded {
            seed,
            model: LossModel::GilbertElliott {
                p_enter: ppm(p_enter_ppm),
                p_exit: ppm(p_exit_ppm),
                good_loss: ppm(good_loss_ppm),
                bad_loss: ppm(bad_loss_ppm),
            },
            resolution: PPM,
        }
    }
}

/// Internal deterministic RNG (xorshift64*), independent of the `rand`
/// crate so the harness can live in `blast-core` without dependencies.
#[derive(Debug, Clone)]
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum EventKind {
    Deliver {
        to: Side,
        // Stays pooled across the virtual wire: delivering the event
        // returns the buffer to the engines' shared pool.
        packet: PooledBuf,
    },
    Timer {
        side: Side,
        token: TimerToken,
        generation: u64,
    },
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Event {
    at_ns: u64,
    seq: u64, // tie-break for determinism
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at_ns, self.seq).cmp(&(other.at_ns, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Errors the harness can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HarnessError {
    /// Both event queues drained without both engines completing —
    /// a protocol deadlock.
    Deadlock {
        /// Virtual time at which the queue drained.
        at: Duration,
    },
    /// The event budget was exhausted (livelock or pathological loss).
    BudgetExhausted,
    /// An engine completed with a failure.
    TransferFailed(CoreError),
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::Deadlock { at } => write!(f, "protocol deadlock at {at:?}"),
            HarnessError::BudgetExhausted => write!(f, "event budget exhausted"),
            HarnessError::TransferFailed(e) => write!(f, "transfer failed: {e}"),
        }
    }
}

impl std::error::Error for HarnessError {}

/// Receiver engines that expose the received bytes, so the harness can
/// verify data integrity.
pub trait ReceiverEngine: Engine {
    /// The received bytes: the whole transfer once complete; until
    /// then the prefix up to the furthest packet placed, holes zeroed
    /// (see [`RxBuffer::data`](crate::rxbuf::RxBuffer::data)).
    fn received(&self) -> &[u8];
}

impl ReceiverEngine for crate::saw::SawReceiver {
    fn received(&self) -> &[u8] {
        self.data()
    }
}

impl ReceiverEngine for crate::blast::BlastReceiver {
    fn received(&self) -> &[u8] {
        self.data()
    }
}

/// A single-server bottleneck at the receiving interface: every
/// sender→receiver packet needs `service_ns` of exclusive service, and
/// at most `queue_cap` packets may wait for the server.  Arrivals that
/// find the queue full are lost — the paper's "interface errors",
/// where "packets arrive faster than the receiving interface can move
/// them to memory".
#[derive(Debug, Clone, Copy)]
struct Bottleneck {
    service_ns: u64,
    queue_cap: u64,
    busy_until_ns: u64,
}

/// The virtual-time correctness harness.
pub struct Harness<S: Engine, R: ReceiverEngine> {
    sender: S,
    receiver: R,
    plan: LossPlan,
    rng: XorShift,
    chain: LossChain,
    queue: BinaryHeap<Reverse<Event>>,
    now_ns: u64,
    event_seq: u64,
    /// Current generation per (side, token): a timer event only fires if
    /// its generation is still current (set/cancel bump it).
    timer_gen: HashMap<(Side, TimerToken), u64>,
    /// One-way packet latency.
    latency: Duration,
    /// Optional receiving-interface bottleneck (data direction only).
    bottleneck: Option<Bottleneck>,
    /// Packets placed on the wire so far (index for `LossPlan::Script`).
    pub wire_count: u64,
    /// Packets dropped by the loss plan.
    pub dropped: u64,
    /// Packets lost to bottleneck queue overflow (not counted in
    /// [`Self::dropped`], which is loss-plan drops only).
    pub overflow: u64,
    /// Hard cap on processed events.
    pub max_events: u64,
    sender_done: Option<Result<usize, CoreError>>,
    receiver_done: Option<Result<usize, CoreError>>,
    sender_finish_ns: Option<u64>,
}

impl<S: Engine, R: ReceiverEngine> Harness<S, R> {
    /// Create a harness around a sender/receiver pair.  Panics if a
    /// seeded plan's loss model is out of range.
    pub fn new(sender: S, receiver: R, plan: LossPlan) -> Self {
        let seed = match &plan {
            LossPlan::Seeded { seed, model, .. } => {
                model.validate();
                *seed
            }
            _ => 1,
        };
        Harness {
            sender,
            receiver,
            plan,
            rng: XorShift::new(seed),
            chain: LossChain::default(),
            queue: BinaryHeap::new(),
            now_ns: 0,
            event_seq: 0,
            timer_gen: HashMap::new(),
            latency: Duration::from_micros(10), // the paper's τ
            bottleneck: None,
            wire_count: 0,
            dropped: 0,
            overflow: 0,
            max_events: 10_000_000,
            sender_done: None,
            receiver_done: None,
            sender_finish_ns: None,
        }
    }

    /// Override the one-way latency (default 10 µs).
    pub fn with_latency(mut self, latency: Duration) -> Self {
        self.latency = latency;
        self
    }

    /// Put a single-server bottleneck in the data direction: each
    /// sender→receiver packet takes `service` to move into memory, at
    /// most `queue_cap` packets may queue for it, and arrivals beyond
    /// that are silently lost.  A sender that bursts faster than
    /// `1/service` *induces* loss here — which is exactly what
    /// pacing exists to avoid.
    pub fn with_bottleneck(mut self, service: Duration, queue_cap: u32) -> Self {
        assert!(
            !service.is_zero(),
            "bottleneck needs a positive service time"
        );
        self.bottleneck = Some(Bottleneck {
            service_ns: service.as_nanos() as u64,
            queue_cap: u64::from(queue_cap),
            busy_until_ns: 0,
        });
        self
    }

    fn push(&mut self, at_ns: u64, kind: EventKind) {
        let seq = self.event_seq;
        self.event_seq += 1;
        self.queue.push(Reverse(Event { at_ns, seq, kind }));
    }

    fn should_drop(&mut self) -> bool {
        match &self.plan {
            LossPlan::Perfect => false,
            LossPlan::Seeded {
                model, resolution, ..
            } => {
                let res = u64::from(*resolution);
                self.chain
                    .drops(model, || (self.rng.next_u64() % res) as f64 / res as f64)
            }
            LossPlan::Script(drops) => drops.contains(&self.wire_count),
        }
    }

    /// Drain and execute `actions`, leaving the (emptied) vector's
    /// capacity behind for the caller to reuse.
    fn run_actions(&mut self, side: Side, actions: &mut Vec<Action>) {
        for action in actions.drain(..) {
            match action {
                Action::Transmit(packet) => {
                    let drop = self.should_drop();
                    self.wire_count += 1;
                    if drop {
                        self.dropped += 1;
                        continue;
                    }
                    let mut at = self.now_ns + self.latency.as_nanos() as u64;
                    if side == Side::Sender {
                        if let Some(b) = &mut self.bottleneck {
                            // Transmissions happen in virtual-time order,
                            // so the FIFO queue reduces to one deadline:
                            // the wait at arrival is `start - at`, and a
                            // wait of `queue_cap` service times means the
                            // queue is full.
                            let start = at.max(b.busy_until_ns);
                            if start - at > b.service_ns.saturating_mul(b.queue_cap) {
                                self.overflow += 1;
                                continue;
                            }
                            b.busy_until_ns = start + b.service_ns;
                            at = b.busy_until_ns;
                        }
                    }
                    self.push(
                        at,
                        EventKind::Deliver {
                            to: side.other(),
                            packet,
                        },
                    );
                }
                Action::SetTimer { token, after } => {
                    let generation = self.timer_gen.entry((side, token)).or_insert(0);
                    *generation += 1;
                    let g = *generation;
                    let at = self.now_ns + after.as_nanos() as u64;
                    self.push(
                        at,
                        EventKind::Timer {
                            side,
                            token,
                            generation: g,
                        },
                    );
                }
                Action::CancelTimer { token } => {
                    // Bump the generation: pending events become stale.
                    *self.timer_gen.entry((side, token)).or_insert(0) += 1;
                }
                Action::Complete(info) => match side {
                    Side::Sender => {
                        self.sender_done = Some(info.result.clone());
                        self.sender_finish_ns = Some(self.now_ns);
                    }
                    Side::Receiver => self.receiver_done = Some(info.result.clone()),
                },
            }
        }
    }

    /// Run until both engines complete (success) or fail.
    pub fn run(&mut self) -> Result<Outcome, HarnessError> {
        // One scratch vector serves every engine call: `run_actions`
        // drains it, so its capacity is recycled for the whole run.
        let mut out: Vec<Action> = Vec::new();
        self.sender.set_now(Duration::ZERO);
        self.sender.start(&mut out);
        self.run_actions(Side::Sender, &mut out);
        self.receiver.set_now(Duration::ZERO);
        self.receiver.start(&mut out);
        self.run_actions(Side::Receiver, &mut out);

        let mut processed: u64 = 0;
        while self.sender_done.is_none() || self.receiver_done.is_none() {
            // A failed engine ends the run immediately: its peer may
            // never learn (that is the failure mode being tested).
            if let Some(Err(e)) = &self.sender_done {
                return Err(HarnessError::TransferFailed(e.clone()));
            }
            if let Some(Err(e)) = &self.receiver_done {
                return Err(HarnessError::TransferFailed(e.clone()));
            }
            processed += 1;
            if processed > self.max_events {
                return Err(HarnessError::BudgetExhausted);
            }
            let Some(Reverse(event)) = self.queue.pop() else {
                return Err(HarnessError::Deadlock {
                    at: Duration::from_nanos(self.now_ns),
                });
            };
            self.now_ns = event.at_ns;
            // Engines see the virtual clock before every event — the
            // adaptive RTO's samples are exact in virtual time.
            let now = Duration::from_nanos(self.now_ns);
            match event.kind {
                EventKind::Deliver { to, packet } => {
                    {
                        let Ok(dgram) = Datagram::parse(&packet) else {
                            continue; // corrupt packets are dropped by the wire layer
                        };
                        match to {
                            Side::Sender => {
                                self.sender.set_now(now);
                                self.sender.on_datagram(&dgram, &mut out);
                            }
                            Side::Receiver => {
                                self.receiver.set_now(now);
                                self.receiver.on_datagram(&dgram, &mut out);
                            }
                        }
                    }
                    // The datagram borrow ends above; dropping `packet`
                    // here returns its buffer to the pool before the
                    // emitted actions (which may check new ones out)
                    // run.
                    drop(packet);
                    self.run_actions(to, &mut out);
                }
                EventKind::Timer {
                    side,
                    token,
                    generation,
                } => {
                    if self.timer_gen.get(&(side, token)).copied() != Some(generation) {
                        continue; // re-armed or cancelled
                    }
                    match side {
                        Side::Sender => {
                            self.sender.set_now(now);
                            self.sender.on_timer(token, &mut out);
                        }
                        Side::Receiver => {
                            self.receiver.set_now(now);
                            self.receiver.on_timer(token, &mut out);
                        }
                    }
                    self.run_actions(side, &mut out);
                }
            }
        }

        let sender_result = self.sender_done.clone().expect("loop exit condition");
        let receiver_result = self.receiver_done.clone().expect("loop exit condition");
        match (&sender_result, &receiver_result) {
            (Ok(bytes), Ok(_)) => Ok(Outcome {
                sender: self.sender.stats(),
                receiver: self.receiver.stats(),
                bytes: *bytes,
            }),
            (Err(e), _) => Err(HarnessError::TransferFailed(e.clone())),
            (_, Err(e)) => Err(HarnessError::TransferFailed(e.clone())),
        }
    }

    /// Virtual time at which the sender completed (the paper's "elapsed
    /// time … including the receipt of the last acknowledgement at the
    /// source").
    pub fn sender_elapsed(&self) -> Option<Duration> {
        self.sender_finish_ns.map(Duration::from_nanos)
    }

    /// The receiver's assembled data.
    pub fn received_data(&self) -> &[u8] {
        self.receiver.received()
    }

    /// Borrow the sender engine.
    pub fn sender(&self) -> &S {
        &self.sender
    }

    /// Borrow the receiver engine.
    pub fn receiver(&self) -> &R {
        &self.receiver
    }

    /// Sender + receiver stats snapshot.
    pub fn stats(&self) -> (EngineStats, EngineStats) {
        (self.sender.stats(), self.receiver.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blast::{BlastReceiver, BlastSender};
    use crate::config::{ProtocolConfig, RetxStrategy};
    use crate::multiblast::MultiBlastSender;
    use crate::saw::{SawReceiver, SawSender};
    use crate::window::WindowSender;
    use std::sync::Arc;

    fn data(n: usize) -> Arc<[u8]> {
        (0..n)
            .map(|i| (i * 17 % 255) as u8)
            .collect::<Vec<u8>>()
            .into()
    }

    #[test]
    fn all_protocols_complete_losslessly() {
        let cfg = ProtocolConfig::default();
        let payload = data(32 * 1024);

        let mut h = Harness::new(
            SawSender::new(1, payload.clone(), &cfg),
            SawReceiver::new(1, payload.len(), &cfg),
            LossPlan::perfect(),
        );
        h.run().unwrap();
        assert_eq!(h.received_data(), &payload[..]);

        let mut h = Harness::new(
            WindowSender::new(1, payload.clone(), &cfg),
            SawReceiver::new(1, payload.len(), &cfg),
            LossPlan::perfect(),
        );
        h.run().unwrap();
        assert_eq!(h.received_data(), &payload[..]);

        for strategy in RetxStrategy::ALL {
            let cfg = cfg.clone().with_strategy(strategy);
            let mut h = Harness::new(
                BlastSender::new(1, payload.clone(), &cfg),
                BlastReceiver::new(1, payload.len(), &cfg),
                LossPlan::perfect(),
            );
            let outcome = h.run().unwrap();
            assert_eq!(h.received_data(), &payload[..]);
            assert_eq!(outcome.sender.data_packets_sent, 32);
            assert_eq!(outcome.receiver.acks_sent, 1);
        }

        let cfg = cfg.clone().with_multiblast_chunk(8);
        let mut h = Harness::new(
            MultiBlastSender::new(1, payload.clone(), &cfg),
            BlastReceiver::new(1, payload.len(), &cfg),
            LossPlan::perfect(),
        );
        let outcome = h.run().unwrap();
        assert_eq!(h.received_data(), &payload[..]);
        assert_eq!(outcome.receiver.acks_sent, 4);
    }

    #[test]
    fn scripted_loss_recovers_per_strategy() {
        let payload = data(16 * 1024);
        for strategy in RetxStrategy::ALL {
            let cfg = ProtocolConfig::default().with_strategy(strategy);
            // Drop the 2nd, 5th and 11th wire packets.
            let mut h = Harness::new(
                BlastSender::new(1, payload.clone(), &cfg),
                BlastReceiver::new(1, payload.len(), &cfg),
                LossPlan::script(vec![2, 5, 11]),
            );
            let outcome = h.run().unwrap_or_else(|e| panic!("{strategy}: {e}"));
            assert_eq!(h.received_data(), &payload[..], "{strategy}");
            assert!(outcome.sender.data_packets_sent >= 16, "{strategy}");
            assert_eq!(h.dropped, 3, "{strategy}");
        }
    }

    #[test]
    fn heavy_random_loss_still_completes() {
        let payload = data(64 * 1024);
        for strategy in RetxStrategy::ALL {
            let mut cfg = ProtocolConfig::default().with_strategy(strategy);
            cfg.max_retries = 10_000;
            // 10 % iid loss: brutal by LAN standards (the paper's worst
            // interface-error case is ~1e-2 … 1e-4).
            let mut h = Harness::new(
                BlastSender::new(1, payload.clone(), &cfg),
                BlastReceiver::new(1, payload.len(), &cfg),
                LossPlan::random(0xBAD5EED ^ strategy as u64, 1, 10),
            );
            h.run().unwrap_or_else(|e| panic!("{strategy}: {e}"));
            assert_eq!(h.received_data(), &payload[..], "{strategy}");
            assert!(
                h.dropped > 0,
                "{strategy}: loss plan should have dropped something"
            );
        }
    }

    #[test]
    fn total_loss_exhausts_retries() {
        let payload = data(4 * 1024);
        let mut cfg = ProtocolConfig::default();
        cfg.max_retries = 5;
        let mut h = Harness::new(
            BlastSender::new(1, payload.clone(), &cfg),
            BlastReceiver::new(1, payload.len(), &cfg),
            LossPlan::random(7, 1, 1), // 100 % loss
        );
        match h.run() {
            Err(HarnessError::TransferFailed(CoreError::RetriesExhausted { retries: 5 })) => {}
            other => panic!("expected retries exhausted, got {other:?}"),
        }
    }

    #[test]
    fn sender_elapsed_reflects_latency_and_timers() {
        let payload = data(1024);
        let cfg = ProtocolConfig::default();
        let mut h = Harness::new(
            BlastSender::new(1, payload.clone(), &cfg),
            BlastReceiver::new(1, payload.len(), &cfg),
            LossPlan::perfect(),
        );
        h.run().unwrap();
        // One data packet out (10 µs) + ack back (10 µs) = 20 µs.
        assert_eq!(h.sender_elapsed(), Some(Duration::from_micros(20)));

        // Drop the data packet once: one retransmit timeout is added.
        let mut h = Harness::new(
            BlastSender::new(1, payload.clone(), &cfg),
            BlastReceiver::new(1, payload.len(), &cfg),
            LossPlan::script(vec![0]),
        );
        h.run().unwrap();
        let expected = cfg.timeout.initial() + Duration::from_micros(20);
        assert_eq!(h.sender_elapsed(), Some(expected));
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty_and_deterministic() {
        let payload = data(64 * 1024);
        let mut cfg = ProtocolConfig::default();
        cfg.max_retries = 10_000;
        let run = |seed: u64| {
            // Good state is clean; the bad state (entered ~2 % of
            // packets, left ~25 %) drops half of everything — loss
            // arrives in runs, never as isolated drops.
            let mut h = Harness::new(
                BlastSender::new(1, payload.clone(), &cfg),
                BlastReceiver::new(1, payload.len(), &cfg),
                LossPlan::gilbert_elliott(seed, 20_000, 250_000, 0, 500_000),
            );
            h.run().unwrap();
            assert_eq!(h.received_data(), &payload[..]);
            (h.wire_count, h.dropped, h.sender_elapsed())
        };
        let (wire, dropped, _) = run(3);
        assert!(dropped > 0, "the bad state should have bitten");
        assert!(dropped < wire, "the good state should be mostly clean");
        assert_eq!(run(3), run(3), "same seed, same burst trajectory");
    }

    #[test]
    fn bottleneck_drops_unpaced_bursts_but_not_paced_ones() {
        use crate::control::PacingConfig;
        let payload = data(32 * 1024);
        let service = Duration::from_micros(50);

        // Unpaced blast: 32 packets hit the interface back to back, the
        // 8-deep queue overflows, retransmission rounds mop up.
        let mut cfg = ProtocolConfig::default();
        cfg.max_retries = 10_000;
        let mut h = Harness::new(
            BlastSender::new(1, payload.clone(), &cfg),
            BlastReceiver::new(1, payload.len(), &cfg),
            LossPlan::perfect(),
        )
        .with_bottleneck(service, 8);
        let outcome = h.run().unwrap();
        assert_eq!(h.received_data(), &payload[..]);
        assert!(h.overflow > 0, "an unpaced blast must overrun the queue");
        assert_eq!(h.dropped, 0, "the loss plan itself was perfect");
        assert!(outcome.sender.retransmission_rounds > 0);

        // Paced below the bottleneck rate (4 packets per 4 × 50 µs):
        // the queue never overflows and no retransmissions happen.
        let cfg =
            ProtocolConfig::default().with_pacing(PacingConfig::new(4, Duration::from_micros(200)));
        let mut h = Harness::new(
            BlastSender::new(1, payload.clone(), &cfg),
            BlastReceiver::new(1, payload.len(), &cfg),
            LossPlan::perfect(),
        )
        .with_bottleneck(service, 8);
        let outcome = h.run().unwrap();
        assert_eq!(h.received_data(), &payload[..]);
        assert_eq!(h.overflow, 0, "pacing at the service rate fits the queue");
        assert_eq!(outcome.sender.retransmission_rounds, 0);
    }

    #[test]
    fn random_plan_is_deterministic() {
        let payload = data(32 * 1024);
        let cfg = ProtocolConfig::default();
        let run = |seed: u64| {
            let mut h = Harness::new(
                BlastSender::new(1, payload.clone(), &cfg),
                BlastReceiver::new(1, payload.len(), &cfg),
                LossPlan::random(seed, 1, 20),
            );
            h.run().unwrap();
            (h.wire_count, h.dropped, h.sender_elapsed())
        };
        assert_eq!(run(42), run(42), "same seed, same trajectory");
    }
}
