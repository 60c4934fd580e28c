//! The stop-and-wait protocol (§2.1, Figure 3.a of the paper).
//!
//! "With stop-and-wait protocols, the source refrains from sending a
//! packet until it has received an acknowledgement for the previous
//! packet."  Every data packet is RELIABLE: the sender retransmits it on
//! timeout until acknowledged, then moves to the next.
//!
//! The paper's headline observation is about this protocol: because the
//! sender's copy-in and the receiver's copy-out never overlap
//! (Figure 3.a — "the two processors are never active in parallel"), its
//! elapsed time is `N × (2C + T + 2Ca + Ta)`, roughly *twice* the blast
//! protocol's, not the ~10 % that wire-time arithmetic predicts.

use std::sync::Arc;

use blast_wire::ack::AckPayload;
use blast_wire::header::PacketKind;
use blast_wire::packet::{Datagram, DatagramBuilder};

use std::time::Duration;

use crate::api::{Action, ActionSink, CompletionInfo, EngineStats, TimerToken};
use crate::config::ProtocolConfig;
use crate::control::Control;
use crate::engine::{control_in, Engine, Finish};
use crate::error::CoreError;
use crate::pool::BufferPool;
use crate::rxbuf::RxBuffer;
use crate::txdata::TxData;

/// The only timer a stop-and-wait sender uses.
const RETX_TIMER: TimerToken = TimerToken(0);

/// Stop-and-wait sender.
#[derive(Debug)]
pub struct SawSender {
    tx: TxData<'static>,
    builder: DatagramBuilder,
    /// Clock, RTO estimator, pacer and recorder.  Stop-and-wait never
    /// bursts, so the pacer's budget is moot; it still hears timeouts
    /// as loss signals, like every sender's.
    control: Control,
    max_retries: u32,
    /// Sequence currently awaiting acknowledgement.
    cur: u32,
    /// Retransmission attempts already made for `cur`.
    attempts: u32,
    /// When `cur` first went out — stop-and-wait acknowledges every
    /// packet, so every untroubled exchange is a Karn-valid RTT sample.
    sent_at: Duration,
    pool: BufferPool,
    stats: EngineStats,
    finish: Finish,
}

impl SawSender {
    /// Create a sender for `data` on transfer `transfer_id`.
    pub fn new(transfer_id: u32, data: Arc<[u8]>, config: &ProtocolConfig) -> Self {
        SawSender {
            tx: TxData::new(data, config.packet_payload),
            builder: DatagramBuilder::new(transfer_id).kernel(config.kernel_flag),
            control: Control::new(transfer_id, &config.timeout, config.pacing),
            max_retries: config.max_retries,
            cur: 0,
            attempts: 0,
            sent_at: Duration::ZERO,
            pool: config.pool.clone(),
            stats: EngineStats::default(),
            finish: Finish::default(),
        }
    }

    fn send_current(&mut self, sink: &mut dyn ActionSink) {
        let seq = self.cur;
        let payload = self.tx.payload_of(seq);
        let mut buf = self
            .pool
            .checkout_sized(blast_wire::HEADER_LEN + payload.len());
        let len = self
            .builder
            .build_reliable_data(
                &mut buf,
                seq,
                self.tx.total_packets(),
                self.tx.offset_of(seq) as u32,
                payload,
                self.attempts as u16,
            )
            .expect("buffer sized for payload");
        buf.truncate(len);
        self.stats.data_packets_sent += 1;
        if self.attempts > 0 {
            self.stats.data_packets_retransmitted += 1;
        } else {
            // First transmission: the ack, if it comes before any
            // retransmission, is an unambiguous RTT sample.
            self.sent_at = self.control.now();
        }
        sink.push_action(Action::Transmit(buf));
        sink.push_action(Action::SetTimer {
            token: RETX_TIMER,
            after: self.control.rto(),
        });
    }
}

impl Engine for SawSender {
    control_in!(control);

    fn start(&mut self, sink: &mut dyn ActionSink) {
        self.send_current(sink);
    }

    fn on_datagram(&mut self, dgram: &Datagram<'_>, sink: &mut dyn ActionSink) {
        if self.finish.is_finished() || dgram.kind != PacketKind::Ack {
            return;
        }
        let Some(AckPayload::Positive { acked }) = &dgram.ack else {
            // Stop-and-wait never solicits NACKs; ignore anything else.
            return;
        };
        if *acked != self.cur {
            // A stale ack for an earlier packet (duplicate in the
            // network); the paper's iid-loss model has no reordering but
            // real UDP does.
            return;
        }
        self.stats.acks_received += 1;
        if self.attempts == 0 {
            // Karn: only a never-retransmitted packet's ack is sampled.
            self.control.sample_rtt(self.sent_at);
        } else {
            self.control.reject_sample(self.attempts);
        }
        self.cur += 1;
        self.attempts = 0;
        if self.cur == self.tx.total_packets() {
            sink.push_action(Action::CancelTimer { token: RETX_TIMER });
            let stats = self.stats;
            self.finish
                .complete(sink, CompletionInfo::success(self.tx.len(), stats));
        } else {
            self.send_current(sink);
        }
    }

    fn on_timer(&mut self, token: TimerToken, sink: &mut dyn ActionSink) {
        if self.finish.is_finished() || token != RETX_TIMER {
            return;
        }
        self.stats.timeouts += 1;
        self.control.on_timeout();
        if self.attempts >= self.max_retries {
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
        self.attempts += 1;
        self.stats.retransmission_rounds += 1;
        self.send_current(sink);
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

/// Stop-and-wait receiver: place each packet, acknowledge each packet.
///
/// Also serves as the sliding-window receiver — on the receive side the
/// two protocols are identical (§2.1: "with sliding window protocols
/// every packet is individually acknowledged"); only the sender differs.
#[derive(Debug)]
pub struct SawReceiver {
    transfer_id: u32,
    rx: RxBuffer,
    builder: DatagramBuilder,
    pool: BufferPool,
    stats: EngineStats,
    finish: Finish,
}

impl SawReceiver {
    /// Create a receiver expecting `bytes` bytes on `transfer_id`.
    pub fn new(transfer_id: u32, bytes: usize, config: &ProtocolConfig) -> Self {
        SawReceiver {
            transfer_id,
            rx: RxBuffer::new(bytes, config.packet_payload),
            builder: DatagramBuilder::new(transfer_id).kernel(config.kernel_flag),
            pool: config.pool.clone(),
            stats: EngineStats::default(),
            finish: Finish::default(),
        }
    }

    /// The received bytes (zero-filled holes until complete).
    pub fn data(&self) -> &[u8] {
        self.rx.data()
    }

    /// Consume the engine, returning the received data.
    pub fn into_data(self) -> Vec<u8> {
        self.rx.into_data()
    }

    fn send_ack(&mut self, seq: u32, sink: &mut dyn ActionSink) {
        let ack = AckPayload::Positive { acked: seq };
        let mut buf = self
            .pool
            .checkout_sized(blast_wire::HEADER_LEN + ack.encoded_len());
        let len = self
            .builder
            .build_ack(&mut buf, self.rx.total_packets(), &ack)
            .expect("ack fits");
        buf.truncate(len);
        self.stats.acks_sent += 1;
        sink.push_action(Action::Transmit(buf));
    }
}

impl Engine for SawReceiver {
    fn start(&mut self, _sink: &mut dyn ActionSink) {
        // Receivers are passive; the buffer was allocated in `new` —
        // exactly the paper's "buffers available before the transfer".
    }

    fn on_datagram(&mut self, dgram: &Datagram<'_>, sink: &mut dyn ActionSink) {
        match dgram.kind {
            PacketKind::Data => {}
            PacketKind::Cancel => {
                let stats = self.stats;
                self.finish
                    .complete(sink, CompletionInfo::failure(CoreError::Cancelled, stats));
                return;
            }
            _ => return,
        }
        match self
            .rx
            .place(dgram.seq, dgram.offset as usize, dgram.payload)
        {
            Ok(true) => self.stats.data_packets_received += 1,
            Ok(false) => self.stats.duplicate_packets_received += 1,
            Err(e) => {
                // A packet contradicting the pre-allocated geometry is a
                // protocol violation, not recoverable loss.
                let stats = self.stats;
                self.finish
                    .complete(sink, CompletionInfo::failure(e, stats));
                return;
            }
        }
        // Acknowledge every data packet, duplicates included: the
        // duplicate means our previous ack was lost (or the sender timed
        // out early), so it must be re-sent or the sender stalls forever.
        self.send_ack(dgram.seq, sink);
        if self.rx.is_complete() {
            let stats = self.stats;
            let bytes = self.rx.len();
            self.finish
                .complete(sink, CompletionInfo::success(bytes, stats));
        }
    }

    fn on_timer(&mut self, _token: TimerToken, _sink: &mut dyn ActionSink) {
        // Receivers arm no timers.
    }

    fn is_finished(&self) -> bool {
        self.finish.is_finished()
    }

    fn stats(&self) -> EngineStats {
        self.stats
    }

    fn transfer_id(&self) -> u32 {
        self.transfer_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Action;

    fn config() -> ProtocolConfig {
        ProtocolConfig::default()
    }

    fn data(n: usize) -> Arc<[u8]> {
        (0..n).map(|i| (i % 253) as u8).collect::<Vec<u8>>().into()
    }

    /// Drive one datagram from `actions` into `engine`, returning new actions.
    fn feed(engine: &mut dyn Engine, packet: &[u8]) -> Vec<Action> {
        let d = Datagram::parse(packet).unwrap();
        let mut out = Vec::new();
        engine.on_datagram(&d, &mut out);
        out
    }

    #[test]
    fn lockstep_exchange_completes() {
        let cfg = config();
        let payload = data(3 * 1024);
        let mut s = SawSender::new(1, payload.clone(), &cfg);
        let mut r = SawReceiver::new(1, payload.len(), &cfg);

        let mut actions = Vec::new();
        s.start(&mut actions);
        let mut sender_done = false;
        let mut steps = 0;
        while !sender_done {
            steps += 1;
            assert!(steps < 100, "livelock");
            // Extract the data packet the sender just sent (borrowed in
            // place — the lockstep needs no copies).
            let pkt = actions
                .iter()
                .find_map(Action::as_transmit)
                .expect("sender transmits");
            let r_actions = feed(&mut r, pkt);
            let ack = r_actions
                .iter()
                .find_map(Action::as_transmit)
                .expect("receiver acks");
            actions = feed(&mut s, ack);
            sender_done = s.is_finished();
        }
        assert!(r.is_finished());
        assert_eq!(r.data(), &payload[..]);
        assert_eq!(s.stats().data_packets_sent, 3);
        assert_eq!(s.stats().data_packets_retransmitted, 0);
        assert_eq!(r.stats().acks_sent, 3);
    }

    #[test]
    fn sender_sends_one_packet_at_a_time() {
        let cfg = config();
        let mut s = SawSender::new(1, data(10 * 1024), &cfg);
        let mut actions = Vec::new();
        s.start(&mut actions);
        let transmits = actions.iter().filter(|a| a.as_transmit().is_some()).count();
        assert_eq!(transmits, 1, "stop-and-wait must not pipeline");
    }

    #[test]
    fn timeout_retransmits_same_packet() {
        let cfg = config();
        let mut s = SawSender::new(1, data(2048), &cfg);
        let mut actions = Vec::new();
        s.start(&mut actions);
        let first = actions[0].as_transmit().unwrap().to_vec();
        let mut out = Vec::new();
        s.on_timer(RETX_TIMER, &mut out);
        let second = out[0].as_transmit().unwrap().to_vec();
        let d1 = Datagram::parse(&first).unwrap();
        let d2 = Datagram::parse(&second).unwrap();
        assert_eq!(d1.seq, d2.seq);
        assert_eq!(d1.payload, d2.payload);
        assert_eq!(d2.round, 1, "retransmission carries the round counter");
        assert_eq!(s.stats().data_packets_retransmitted, 1);
        assert_eq!(s.stats().timeouts, 1);
    }

    #[test]
    fn retries_exhaust_to_failure() {
        let mut cfg = config();
        cfg.max_retries = 3;
        let mut s = SawSender::new(1, data(1024), &cfg);
        let mut actions = Vec::new();
        s.start(&mut actions);
        for _ in 0..3 {
            let mut out = Vec::new();
            s.on_timer(RETX_TIMER, &mut out);
            assert!(!s.is_finished());
        }
        let mut out = Vec::new();
        s.on_timer(RETX_TIMER, &mut out);
        assert!(s.is_finished());
        match &out[..] {
            [Action::Complete(info)] => {
                assert_eq!(info.result, Err(CoreError::RetriesExhausted { retries: 3 }));
            }
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn stale_and_foreign_acks_ignored() {
        let cfg = config();
        let mut s = SawSender::new(1, data(4096), &cfg);
        let mut actions = Vec::new();
        s.start(&mut actions);

        // Ack for a packet we haven't reached (never produced by an
        // honest receiver, but the engine must not advance on it).
        let b = DatagramBuilder::new(1);
        let mut buf = vec![0u8; 64];
        let len = b
            .build_ack(&mut buf, 4, &AckPayload::Positive { acked: 3 })
            .unwrap();
        let out = feed(&mut s, &buf[..len]);
        assert!(out.is_empty());
        assert_eq!(s.stats().acks_received, 0);

        // NACKs are not part of stop-and-wait.
        let len = b.build_ack(&mut buf, 4, &AckPayload::NackFull).unwrap();
        let out = feed(&mut s, &buf[..len]);
        assert!(out.is_empty());
    }

    #[test]
    fn receiver_reacks_duplicates() {
        let cfg = config();
        let mut r = SawReceiver::new(1, 2048, &cfg);
        let b = DatagramBuilder::new(1);
        let mut buf = vec![0u8; 2048];
        let payload: Vec<u8> = (0..1024).map(|i| i as u8).collect();
        let len = b
            .build_reliable_data(&mut buf, 0, 2, 0, &payload, 0)
            .unwrap();
        let first = feed(&mut r, &buf[..len]);
        assert_eq!(
            first.iter().filter(|a| a.as_transmit().is_some()).count(),
            1
        );
        // Same packet again (our ack was lost): must re-ack.
        let second = feed(&mut r, &buf[..len]);
        assert_eq!(
            second.iter().filter(|a| a.as_transmit().is_some()).count(),
            1
        );
        assert_eq!(r.stats().duplicate_packets_received, 1);
        assert_eq!(r.stats().acks_sent, 2);
    }

    #[test]
    fn receiver_completes_once_despite_more_duplicates() {
        let cfg = config();
        let mut r = SawReceiver::new(1, 1024, &cfg);
        let b = DatagramBuilder::new(1);
        let mut buf = vec![0u8; 2048];
        let payload: Vec<u8> = (0..1024).map(|i| i as u8).collect();
        let len = b
            .build_reliable_data(&mut buf, 0, 1, 0, &payload, 0)
            .unwrap();
        let out = feed(&mut r, &buf[..len]);
        assert!(r.is_finished());
        assert_eq!(
            out.iter()
                .filter(|a| matches!(a, Action::Complete(_)))
                .count(),
            1
        );
        // Duplicate after completion: re-ack, but no second Complete.
        let out = feed(&mut r, &buf[..len]);
        assert_eq!(
            out.iter()
                .filter(|a| matches!(a, Action::Complete(_)))
                .count(),
            0
        );
        assert_eq!(out.iter().filter(|a| a.as_transmit().is_some()).count(), 1);
    }

    #[test]
    fn cancel_fails_receiver() {
        let cfg = config();
        let mut r = SawReceiver::new(1, 1024, &cfg);
        let b = DatagramBuilder::new(1);
        let mut buf = vec![0u8; 64];
        let len = b.build_cancel(&mut buf).unwrap();
        let out = feed(&mut r, &buf[..len]);
        assert!(r.is_finished());
        match &out[..] {
            [Action::Complete(info)] => assert_eq!(info.result, Err(CoreError::Cancelled)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn geometry_violation_fails_receiver() {
        let cfg = config();
        let mut r = SawReceiver::new(1, 2048, &cfg);
        let b = DatagramBuilder::new(1);
        let mut buf = vec![0u8; 2048];
        // seq 1 but offset of seq 0.
        let payload = vec![0u8; 1024];
        let len = b
            .build_reliable_data(&mut buf, 1, 2, 0, &payload, 0)
            .unwrap();
        let out = feed(&mut r, &buf[..len]);
        assert!(r.is_finished());
        match &out[..] {
            [Action::Complete(info)] => {
                assert!(matches!(
                    info.result,
                    Err(CoreError::GeometryMismatch { .. })
                ));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn zero_byte_transfer_works() {
        let cfg = config();
        let mut s = SawSender::new(1, Vec::new().into(), &cfg);
        let mut r = SawReceiver::new(1, 0, &cfg);
        let mut actions = Vec::new();
        s.start(&mut actions);
        let pkt = actions[0].as_transmit().unwrap().to_vec();
        let r_out = feed(&mut r, &pkt);
        assert!(r.is_finished());
        let ack = r_out
            .iter()
            .find_map(|a| a.as_transmit().map(<[u8]>::to_vec))
            .unwrap();
        feed(&mut s, &ack);
        assert!(s.is_finished());
    }
}
