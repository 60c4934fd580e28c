//! The sliding-window protocol (§2.1, Figure 3.c of the paper).
//!
//! "With sliding window protocols every packet is individually
//! acknowledged but the sender continues to transmit data without
//! waiting for an acknowledgement.  In typical sliding window protocols,
//! the sender is silenced when the window 'closes'.  Here we assume that
//! the window is large enough so that it never gets closed."
//!
//! [`WindowSender`] supports both regimes: `window: None` reproduces the
//! paper's never-closing window, `Some(w)` bounds the packets in flight
//! (useful as an ablation: with `w = 1` the protocol degenerates to
//! stop-and-wait, which a test below verifies).
//!
//! The receive side is identical to stop-and-wait —
//! [`WindowReceiver`] is a re-export of [`crate::saw::SawReceiver`].

use std::sync::Arc;

use blast_wire::ack::AckPayload;
use blast_wire::header::PacketKind;
use blast_wire::packet::{Datagram, DatagramBuilder};

use std::time::Duration;

use crate::api::{Action, ActionSink, CompletionInfo, EngineStats, TimerToken};
use crate::config::ProtocolConfig;
use crate::control::{Control, PACE_TIMER};
use crate::engine::{control_in, Engine, Finish};
use crate::error::CoreError;
use crate::pool::BufferPool;
use crate::txdata::TxData;

/// Sliding-window receiver: identical to the stop-and-wait receiver.
pub type WindowReceiver = crate::saw::SawReceiver;

/// Sliding-window sender.
#[derive(Debug)]
pub struct WindowSender {
    tx: TxData<'static>,
    builder: DatagramBuilder,
    /// Clock, RTO estimator, pacer and recorder.
    control: Control,
    max_retries: u32,
    window: Option<u32>,
    /// Next sequence never yet transmitted.
    next_unsent: u32,
    /// Per-packet "acknowledged" flags.
    acked: Vec<bool>,
    acked_count: u32,
    /// Per-packet retransmission attempts.
    attempts: Vec<u32>,
    /// Per-packet first-transmission time (Karn: each packet is
    /// individually acknowledged, so each untroubled packet is one RTT
    /// sample).
    sent_at: Vec<Duration>,
    /// Pacing tokens left in the current burst (`u32::MAX` unpaced).
    /// Only the pace timer refills them — arriving acks may open the
    /// window, but not the throttle, or pacing would leak.
    burst_left: u32,
    /// A pace timer is armed and will refill `burst_left` (guards
    /// against re-arming, which would push the deadline out forever
    /// under a steady ack stream).
    pace_pending: bool,
    /// Retransmissions awaiting burst tokens — timer-driven resends go
    /// through the same throttle as fresh packets, or a batch of
    /// simultaneous expirations would re-create the very burst overrun
    /// pacing exists to prevent.
    retx_queue: Vec<u32>,
    /// Karn backoff epoch: per-packet timers armed together expire
    /// together, and each expiry must not double the shared RTO again
    /// — only the first timeout of an epoch backs off.
    backoff_barrier: Duration,
    pool: BufferPool,
    stats: EngineStats,
    finish: Finish,
}

impl WindowSender {
    /// Create a sender for `data` on transfer `transfer_id`.
    pub fn new(transfer_id: u32, data: Arc<[u8]>, config: &ProtocolConfig) -> Self {
        let tx = TxData::new(data, config.packet_payload);
        let total = tx.total_packets() as usize;
        let control = Control::new(transfer_id, &config.timeout, config.pacing);
        WindowSender {
            tx,
            builder: DatagramBuilder::new(transfer_id).kernel(config.kernel_flag),
            burst_left: control.pacer().burst_budget(),
            control,
            max_retries: config.max_retries,
            window: config.window,
            next_unsent: 0,
            acked: vec![false; total],
            acked_count: 0,
            attempts: vec![0; total],
            sent_at: vec![Duration::ZERO; total],
            pace_pending: false,
            // Sized up front: queueing a retransmission never allocates.
            retx_queue: Vec::with_capacity(total),
            backoff_barrier: Duration::ZERO,
            pool: config.pool.clone(),
            stats: EngineStats::default(),
            finish: Finish::default(),
        }
    }

    fn in_flight(&self) -> u32 {
        // Packets transmitted at least once and not yet acked.
        (0..self.next_unsent)
            .filter(|&s| !self.acked[s as usize])
            .count() as u32
    }

    fn window_open(&self) -> bool {
        match self.window {
            None => true,
            Some(w) => self.in_flight() < w,
        }
    }

    fn transmit(&mut self, seq: u32, sink: &mut dyn ActionSink) {
        let payload = self.tx.payload_of(seq);
        let mut buf = self
            .pool
            .checkout_sized(blast_wire::HEADER_LEN + payload.len());
        let round = self.attempts[seq as usize] as u16;
        let len = self
            .builder
            .build_reliable_data(
                &mut buf,
                seq,
                self.tx.total_packets(),
                self.tx.offset_of(seq) as u32,
                payload,
                round,
            )
            .expect("buffer sized for payload");
        buf.truncate(len);
        self.stats.data_packets_sent += 1;
        if round > 0 {
            self.stats.data_packets_retransmitted += 1;
        } else {
            self.sent_at[seq as usize] = self.control.now();
        }
        sink.push_action(Action::Transmit(buf));
        sink.push_action(Action::SetTimer {
            token: TimerToken(u64::from(seq)),
            after: self.control.rto(),
        });
    }

    /// Send fresh packets while the window allows, a pacer burst at a
    /// time: when the burst tokens run out mid-fill, the engine arms
    /// [`PACE_TIMER`] and resumes on its expiry with a fresh burst.
    fn fill_window(&mut self, sink: &mut dyn ActionSink) {
        while self.next_unsent < self.tx.total_packets() && self.window_open() {
            if self.burst_left == 0 {
                if !self.pace_pending {
                    self.pace_pending = true;
                    sink.push_action(Action::SetTimer {
                        token: PACE_TIMER,
                        after: self.control.pacer().gap(),
                    });
                }
                return;
            }
            self.burst_left -= 1;
            let seq = self.next_unsent;
            self.next_unsent += 1;
            self.transmit(seq, sink);
        }
    }

    /// Emit queued retransmissions while burst tokens last; anything
    /// left waits for the next pace tick.  Packets acked while queued
    /// are skipped.
    fn drain_retx(&mut self, sink: &mut dyn ActionSink) {
        let mut taken = 0;
        while taken < self.retx_queue.len() && self.burst_left > 0 {
            let seq = self.retx_queue[taken];
            taken += 1;
            if self.acked[seq as usize] {
                continue;
            }
            self.burst_left -= 1;
            self.transmit(seq, sink);
        }
        self.retx_queue.drain(..taken);
        if !self.retx_queue.is_empty() && !self.pace_pending {
            self.pace_pending = true;
            sink.push_action(Action::SetTimer {
                token: PACE_TIMER,
                after: self.control.pacer().gap(),
            });
        }
    }
}

impl Engine for WindowSender {
    control_in!(control);

    fn start(&mut self, sink: &mut dyn ActionSink) {
        self.fill_window(sink);
    }

    fn on_datagram(&mut self, dgram: &Datagram<'_>, sink: &mut dyn ActionSink) {
        if self.finish.is_finished() || dgram.kind != PacketKind::Ack {
            return;
        }
        let Some(AckPayload::Positive { acked }) = &dgram.ack else {
            return;
        };
        let seq = *acked;
        if seq >= self.tx.total_packets() || self.acked[seq as usize] || seq >= self.next_unsent {
            // Duplicate or nonsensical ack.
            return;
        }
        self.stats.acks_received += 1;
        if self.attempts[seq as usize] == 0 {
            // Karn: never-retransmitted packets yield clean RTT samples.
            self.control.sample_rtt(self.sent_at[seq as usize]);
        } else {
            self.control.reject_sample(self.attempts[seq as usize]);
        }
        self.acked[seq as usize] = true;
        self.acked_count += 1;
        sink.push_action(Action::CancelTimer {
            token: TimerToken(u64::from(seq)),
        });
        if self.acked_count == self.tx.total_packets() {
            let stats = self.stats;
            self.finish
                .complete(sink, CompletionInfo::success(self.tx.len(), stats));
        } else {
            self.fill_window(sink);
        }
    }

    fn on_timer(&mut self, token: TimerToken, sink: &mut dyn ActionSink) {
        if self.finish.is_finished() {
            return;
        }
        if token == PACE_TIMER {
            // The gap elapsed: refill the burst tokens and resume —
            // queued retransmissions first (they are oldest), then
            // fresh window fill.
            self.pace_pending = false;
            self.burst_left = self.control.pacer().burst_budget();
            self.drain_retx(sink);
            self.fill_window(sink);
            return;
        }
        // Every other token is a per-packet retransmission timer keyed
        // by sequence number (always < 2³²; anything larger is foreign).
        let Ok(seq) = u32::try_from(token.0) else {
            return;
        };
        if seq >= self.tx.total_packets() || self.acked[seq as usize] {
            return; // stale timer
        }
        self.stats.timeouts += 1;
        // Karn backoff, once per loss epoch: sibling timers armed with
        // the same RTO expire together, and 32 simultaneous expirations
        // must double the RTO once, not 2³²-fold.  The barrier spans
        // the old RTO, so a genuinely later timeout (after the backed-off
        // rearm) still backs off again.
        // One loss epoch is also one congestion response: the pacer
        // halves its burst once, however many sibling timers fire in
        // the same tick.
        let now = self.control.now();
        if now >= self.backoff_barrier {
            self.backoff_barrier = now + self.control.rto();
            self.control.on_timeout();
        }
        if self.attempts[seq as usize] >= self.max_retries {
            let stats = self.stats;
            self.finish.complete(
                sink,
                CompletionInfo::failure(
                    CoreError::RetriesExhausted {
                        retries: self.max_retries,
                    },
                    stats,
                ),
            );
            return;
        }
        self.attempts[seq as usize] += 1;
        self.stats.retransmission_rounds += 1;
        // Retransmissions honour the pacer too: consume a token now or
        // queue for the next pace tick.
        if self.burst_left > 0 {
            self.burst_left -= 1;
            self.transmit(seq, sink);
        } else {
            self.retx_queue.push(seq);
            if !self.pace_pending {
                self.pace_pending = true;
                sink.push_action(Action::SetTimer {
                    token: PACE_TIMER,
                    after: self.control.pacer().gap(),
                });
            }
        }
    }

    fn is_finished(&self) -> bool {
        self.finish.is_finished()
    }

    fn stats(&self) -> EngineStats {
        self.stats
    }

    fn transfer_id(&self) -> u32 {
        self.control.transfer_id()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::saw::SawReceiver;

    fn data(n: usize) -> Arc<[u8]> {
        (0..n)
            .map(|i| (i * 7 % 251) as u8)
            .collect::<Vec<u8>>()
            .into()
    }

    fn feed(engine: &mut dyn Engine, packet: &[u8]) -> Vec<Action> {
        let d = Datagram::parse(packet).unwrap();
        let mut out = Vec::new();
        engine.on_datagram(&d, &mut out);
        out
    }

    #[test]
    fn unbounded_window_blasts_all_packets_up_front() {
        let cfg = ProtocolConfig::default();
        let mut s = WindowSender::new(1, data(8 * 1024), &cfg);
        let mut actions = Vec::new();
        s.start(&mut actions);
        let transmits = actions.iter().filter(|a| a.as_transmit().is_some()).count();
        assert_eq!(transmits, 8, "the paper's window never closes");
        // Every packet got its own timer.
        let timers = actions
            .iter()
            .filter(|a| matches!(a, Action::SetTimer { .. }))
            .count();
        assert_eq!(timers, 8);
    }

    #[test]
    fn bounded_window_limits_flight() {
        let cfg = ProtocolConfig::default().with_window(Some(3));
        let mut s = WindowSender::new(1, data(8 * 1024), &cfg);
        let mut actions = Vec::new();
        s.start(&mut actions);
        assert_eq!(
            actions.iter().filter(|a| a.as_transmit().is_some()).count(),
            3
        );

        // Ack seq 0: exactly one new packet (seq 3) goes out.
        let b = DatagramBuilder::new(1);
        let mut buf = vec![0u8; 64];
        let len = b
            .build_ack(&mut buf, 8, &AckPayload::Positive { acked: 0 })
            .unwrap();
        let out = feed(&mut s, &buf[..len]);
        let sent: Vec<u32> = out
            .iter()
            .filter_map(|a| a.as_transmit())
            .map(|p| Datagram::parse(p).unwrap().seq)
            .collect();
        assert_eq!(sent, vec![3]);
    }

    #[test]
    fn window_of_one_is_stop_and_wait() {
        let cfg = ProtocolConfig::default().with_window(Some(1));
        let payload = data(4 * 1024);
        let mut s = WindowSender::new(1, payload.clone(), &cfg);
        let mut r = SawReceiver::new(1, payload.len(), &cfg);
        let mut actions = Vec::new();
        s.start(&mut actions);
        let mut safety = 0;
        while !s.is_finished() {
            safety += 1;
            assert!(safety < 64);
            let pkts: Vec<&[u8]> = actions.iter().filter_map(Action::as_transmit).collect();
            assert_eq!(pkts.len(), 1, "window=1 must behave like stop-and-wait");
            let r_out = feed(&mut r, pkts[0]);
            let ack = r_out.iter().find_map(Action::as_transmit).unwrap();
            actions = feed(&mut s, ack);
        }
        assert!(r.is_finished());
        assert_eq!(r.data(), &payload[..]);
    }

    #[test]
    fn out_of_order_acks_complete_transfer() {
        let cfg = ProtocolConfig::default();
        let payload = data(4 * 1024);
        let mut s = WindowSender::new(1, payload.clone(), &cfg);
        let mut actions = Vec::new();
        s.start(&mut actions);
        let b = DatagramBuilder::new(1);
        let mut buf = vec![0u8; 64];
        for seq in [3u32, 1, 0, 2] {
            assert!(!s.is_finished());
            let len = b
                .build_ack(&mut buf, 4, &AckPayload::Positive { acked: seq })
                .unwrap();
            feed(&mut s, &buf[..len]);
        }
        assert!(s.is_finished());
        assert_eq!(s.stats().acks_received, 4);
    }

    #[test]
    fn duplicate_acks_ignored() {
        let cfg = ProtocolConfig::default();
        let mut s = WindowSender::new(1, data(4 * 1024), &cfg);
        let mut actions = Vec::new();
        s.start(&mut actions);
        let b = DatagramBuilder::new(1);
        let mut buf = vec![0u8; 64];
        let len = b
            .build_ack(&mut buf, 4, &AckPayload::Positive { acked: 2 })
            .unwrap();
        feed(&mut s, &buf[..len]);
        feed(&mut s, &buf[..len]);
        assert_eq!(s.stats().acks_received, 1);
        // Ack beyond what was sent is ignored too.
        let len = b
            .build_ack(&mut buf, 4, &AckPayload::Positive { acked: 9 })
            .unwrap();
        feed(&mut s, &buf[..len]);
        assert_eq!(s.stats().acks_received, 1);
    }

    #[test]
    fn per_packet_timeout_retransmits_only_that_packet() {
        let cfg = ProtocolConfig::default();
        let mut s = WindowSender::new(1, data(4 * 1024), &cfg);
        let mut actions = Vec::new();
        s.start(&mut actions);
        let mut out = Vec::new();
        s.on_timer(TimerToken(2), &mut out);
        let sent: Vec<u32> = out
            .iter()
            .filter_map(|a| a.as_transmit())
            .map(|p| Datagram::parse(p).unwrap().seq)
            .collect();
        assert_eq!(sent, vec![2]);
        assert_eq!(s.stats().data_packets_retransmitted, 1);
        // Round counter on the retransmission.
        let rt = out.iter().find_map(|a| a.as_transmit()).unwrap();
        assert_eq!(Datagram::parse(rt).unwrap().round, 1);
    }

    #[test]
    fn simultaneous_timeouts_back_off_once_per_epoch() {
        use crate::control::AdaptiveTimeout;
        let cfg = ProtocolConfig::default().with_timeout(AdaptiveTimeout::Adaptive {
            initial: Duration::from_millis(25),
            min: Duration::from_millis(2),
            max: Duration::from_secs(2),
        });
        let mut s = WindowSender::new(1, data(4 * 1024), &cfg);
        let mut actions = Vec::new();
        s.set_now(Duration::ZERO);
        s.start(&mut actions);
        // All four per-packet timers were armed with the same 25 ms RTO
        // and expire in the same tick: the shared estimator must double
        // once, not 2⁴-fold.
        s.set_now(Duration::from_millis(25));
        let mut out = Vec::new();
        for seq in 0..4u64 {
            s.on_timer(TimerToken(seq), &mut out);
        }
        assert_eq!(s.stats().timeouts, 4);
        assert_eq!(
            s.control.rto(),
            Duration::from_millis(50),
            "one loss epoch = one backoff"
        );
        // A later epoch (after the backed-off rearm) backs off again.
        s.set_now(Duration::from_millis(80));
        let mut out = Vec::new();
        s.on_timer(TimerToken(0), &mut out);
        assert_eq!(s.control.rto(), Duration::from_millis(100));
    }

    #[test]
    fn retransmissions_honour_the_pacer() {
        use crate::control::{PacingConfig, PACE_TIMER};
        let cfg =
            ProtocolConfig::default().with_pacing(PacingConfig::new(2, Duration::from_millis(1)));
        let mut s = WindowSender::new(1, data(4 * 1024), &cfg);
        let mut actions = Vec::new();
        s.start(&mut actions);
        // Burst of 2 sent, tokens exhausted, pace pending.
        assert_eq!(
            actions.iter().filter(|a| a.as_transmit().is_some()).count(),
            2
        );
        // Both sent packets time out while the tokens are spent: the
        // resends must queue, not burst past the throttle.
        let mut out = Vec::new();
        s.on_timer(TimerToken(0), &mut out);
        s.on_timer(TimerToken(1), &mut out);
        assert_eq!(
            out.iter().filter(|a| a.as_transmit().is_some()).count(),
            0,
            "token-less retransmissions wait for the pace tick"
        );
        assert_eq!(s.stats().timeouts, 2, "the timeouts themselves counted");
        // The pace tick refills tokens and drains the queue first.
        let mut out = Vec::new();
        s.on_timer(PACE_TIMER, &mut out);
        let resent: Vec<u32> = out
            .iter()
            .filter_map(|a| a.as_transmit())
            .map(|p| Datagram::parse(p).unwrap().seq)
            .collect();
        assert_eq!(resent, vec![0, 1], "oldest retransmissions first");
        assert_eq!(s.stats().data_packets_retransmitted, 2);
    }

    #[test]
    fn stale_timer_after_ack_is_ignored() {
        let cfg = ProtocolConfig::default();
        let mut s = WindowSender::new(1, data(2 * 1024), &cfg);
        let mut actions = Vec::new();
        s.start(&mut actions);
        let b = DatagramBuilder::new(1);
        let mut buf = vec![0u8; 64];
        let len = b
            .build_ack(&mut buf, 2, &AckPayload::Positive { acked: 0 })
            .unwrap();
        feed(&mut s, &buf[..len]);
        let mut out = Vec::new();
        s.on_timer(TimerToken(0), &mut out);
        assert!(out.is_empty(), "timer for an acked packet must be inert");
        assert_eq!(s.stats().timeouts, 0);
    }

    #[test]
    fn retries_exhaust_to_failure() {
        let mut cfg = ProtocolConfig::default();
        cfg.max_retries = 2;
        let mut s = WindowSender::new(1, data(1024), &cfg);
        let mut actions = Vec::new();
        s.start(&mut actions);
        for _ in 0..2 {
            let mut out = Vec::new();
            s.on_timer(TimerToken(0), &mut out);
        }
        let mut out = Vec::new();
        s.on_timer(TimerToken(0), &mut out);
        assert!(s.is_finished());
        match &out[..] {
            [Action::Complete(info)] => {
                assert!(matches!(
                    info.result,
                    Err(CoreError::RetriesExhausted { .. })
                ));
            }
            other => panic!("{other:?}"),
        }
    }
}
