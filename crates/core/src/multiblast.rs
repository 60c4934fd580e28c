//! Multi-blast transfers (§3.1.3 of the paper).
//!
//! "Clearly as the size of the data transfer increases, errors are more
//! likely and retransmission becomes more costly.  For such very large
//! sizes, we suggest the use of multiple blasts, whereby the transfer is
//! broken up in a number of different blasts, each of which proceeds
//! according to the definition of the blast protocol."
//!
//! [`MultiBlastSender`] drives one [`BlastSender`] through the transfer
//! a chunk of `multiblast_chunk` packets at a time, strictly in
//! sequence: a chunk must be positively acknowledged before the next
//! chunk starts.  The chunk sender rolls over *in place* — its
//! [`crate::control::Control`] carries the converged RTO, the grown
//! burst, the clock and the recorder from chunk to chunk, its counters
//! accumulate over the whole transfer, and only the last chunk
//! completes.  The receive side needs no special engine —
//! [`crate::blast::BlastReceiver`]'s cumulative acknowledgements
//! (`Positive { acked }` covers everything up to `acked`) handle chunked
//! transfers transparently; [`MultiBlastReceiver`] is a re-export.

use blast_wire::packet::Datagram;

use crate::api::{ActionSink, EngineStats, TimerToken};
use crate::blast::BlastSender;
use crate::config::ProtocolConfig;
use crate::engine::{control_in, Engine};
use crate::txdata::TxBytes;

/// Multi-blast receiver: the ordinary blast receiver.
pub type MultiBlastReceiver = crate::blast::BlastReceiver;

/// Sender that splits a large transfer into sequentially-acknowledged
/// blasts.
#[derive(Debug)]
pub struct MultiBlastSender<'a> {
    /// Packets per chunk.
    chunk: u32,
    /// The sender of the chunk in flight.
    inner: BlastSender<'a>,
}

impl<'a> MultiBlastSender<'a> {
    /// Create a sender for `data` on `transfer_id`, blasting
    /// `config.multiblast_chunk` packets per chunk.
    pub fn new(transfer_id: u32, data: impl Into<TxBytes<'a>>, config: &ProtocolConfig) -> Self {
        let chunk = config.multiblast_chunk;
        MultiBlastSender {
            chunk,
            inner: BlastSender::chunked(transfer_id, data.into(), config, Some(chunk)),
        }
    }

    /// Number of chunks the transfer uses.
    pub fn total_chunks(&self) -> u32 {
        self.inner.total_packets().div_ceil(self.chunk)
    }

    /// Zero-based index of the chunk currently in flight.
    pub fn current_chunk(&self) -> u32 {
        self.inner.first / self.chunk
    }
}

impl Engine for MultiBlastSender<'_> {
    control_in!(inner.control);

    fn start(&mut self, sink: &mut dyn ActionSink) {
        self.inner.start(sink);
    }

    fn on_datagram(&mut self, dgram: &Datagram<'_>, sink: &mut dyn ActionSink) {
        self.inner.on_datagram(dgram, sink);
        // Only a positive acknowledgement of a whole chunk short of the
        // transfer's end leaves the chunk sender acked and unfinished:
        // roll it over to the next chunk and blast that.
        if self.inner.acked && !self.inner.is_finished() {
            let first = self.inner.end;
            let end = first
                .saturating_add(self.chunk)
                .min(self.inner.total_packets());
            self.inner.restart(first, end);
            self.inner.start(sink);
        }
    }

    fn on_timer(&mut self, token: TimerToken, sink: &mut dyn ActionSink) {
        self.inner.on_timer(token, sink);
    }

    fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }

    fn stats(&self) -> EngineStats {
        self.inner.stats()
    }

    fn transfer_id(&self) -> u32 {
        self.inner.transfer_id()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Action;
    use crate::blast::BlastReceiver;
    use crate::config::RetxStrategy;
    use blast_wire::ack::AckPayload;
    use blast_wire::header::flags;
    use std::sync::Arc;

    fn data(n: usize) -> Arc<[u8]> {
        (0..n)
            .map(|i| (i * 31 % 251) as u8)
            .collect::<Vec<u8>>()
            .into()
    }

    fn feed(engine: &mut dyn Engine, packet: &[u8]) -> Vec<Action> {
        let d = Datagram::parse(packet).unwrap();
        let mut out = Vec::new();
        engine.on_datagram(&d, &mut out);
        out
    }

    fn transmits(actions: &[Action]) -> Vec<Vec<u8>> {
        actions
            .iter()
            .filter_map(|a| a.as_transmit().map(<[u8]>::to_vec))
            .collect()
    }

    fn run_lossless(bytes: usize, chunk: u32) -> (MultiBlastSender<'static>, BlastReceiver, u32) {
        let cfg = ProtocolConfig::default().with_multiblast_chunk(chunk);
        let payload = data(bytes);
        let mut s = MultiBlastSender::new(1, payload.clone(), &cfg);
        let mut r = BlastReceiver::new(1, payload.len(), &cfg);
        let mut actions = Vec::new();
        s.start(&mut actions);
        let mut acks_seen = 0;
        let mut guard = 0;
        while !s.is_finished() {
            guard += 1;
            assert!(guard < 10_000, "livelock");
            let pkts = transmits(&actions);
            assert!(!pkts.is_empty(), "sender stalled");
            let mut next_actions = Vec::new();
            for p in &pkts {
                let out = feed(&mut r, p);
                for ack in transmits(&out) {
                    acks_seen += 1;
                    next_actions.extend(feed(&mut s, &ack));
                }
            }
            actions = next_actions;
        }
        assert!(r.is_finished());
        assert_eq!(r.data(), &data(bytes)[..]);
        (s, r, acks_seen)
    }

    #[test]
    fn chunked_transfer_completes_with_one_ack_per_chunk() {
        let (s, _r, acks) = run_lossless(16 * 1024, 4);
        assert_eq!(s.total_chunks(), 4);
        assert_eq!(acks, 4, "one acknowledgement per chunk");
        assert_eq!(s.stats().data_packets_sent, 16);
        assert_eq!(s.stats().data_packets_retransmitted, 0);
    }

    #[test]
    fn ragged_tail_chunk() {
        // 10 packets in chunks of 4 → 4 + 4 + 2.
        let (s, _r, acks) = run_lossless(10 * 1024, 4);
        assert_eq!(s.total_chunks(), 3);
        assert_eq!(acks, 3);
    }

    #[test]
    fn single_chunk_degenerates_to_blast() {
        let (s, _r, acks) = run_lossless(4 * 1024, 64);
        assert_eq!(s.total_chunks(), 1);
        assert_eq!(acks, 1);
    }

    #[test]
    fn packets_carry_multiblast_flag_and_global_seqs() {
        let cfg = ProtocolConfig::default().with_multiblast_chunk(2);
        let payload = data(6 * 1024);
        let mut s = MultiBlastSender::new(1, payload.clone(), &cfg);
        let mut r = BlastReceiver::new(1, payload.len(), &cfg);
        let mut actions = Vec::new();
        s.start(&mut actions);

        // First chunk: global seqs 0,1; LAST on 1.
        let pkts = transmits(&actions);
        let seqs: Vec<u32> = pkts
            .iter()
            .map(|p| Datagram::parse(p).unwrap().seq)
            .collect();
        assert_eq!(seqs, vec![0, 1]);
        for p in &pkts {
            let d = Datagram::parse(p).unwrap();
            assert_ne!(d.flags & flags::MULTIBLAST, 0);
            assert_eq!(d.total, 6, "total is the global packet count");
        }
        let mut acks = Vec::new();
        for p in &pkts {
            acks.extend(transmits(&feed(&mut r, p)));
        }
        // Chunk ack is cumulative: Positive{1}.
        let d = Datagram::parse(&acks[0]).unwrap();
        assert_eq!(d.ack, Some(AckPayload::Positive { acked: 1 }));

        // Feeding it advances to chunk 2 (global seqs 2,3).
        let out = feed(&mut s, &acks[0]);
        let seqs: Vec<u32> = transmits(&out)
            .iter()
            .map(|p| Datagram::parse(p).unwrap().seq)
            .collect();
        assert_eq!(seqs, vec![2, 3]);
        assert_eq!(s.current_chunk(), 1);
    }

    #[test]
    fn loss_within_chunk_recovers_before_next_chunk() {
        let cfg = ProtocolConfig::default()
            .with_multiblast_chunk(4)
            .with_strategy(RetxStrategy::GoBackN);
        let payload = data(8 * 1024);
        let mut s = MultiBlastSender::new(1, payload.clone(), &cfg);
        let mut r = BlastReceiver::new(1, payload.len(), &cfg);
        let mut actions = Vec::new();
        s.start(&mut actions);

        // Drop packet 1 of chunk 0.
        let pkts = transmits(&actions);
        let mut acks = Vec::new();
        for p in &pkts {
            let d = Datagram::parse(p).unwrap();
            if d.seq == 1 {
                continue;
            }
            acks.extend(transmits(&feed(&mut r, p)));
        }
        let d = Datagram::parse(&acks[0]).unwrap();
        assert_eq!(
            d.ack,
            Some(AckPayload::NackFirstMissing { first_missing: 1 })
        );

        // NACK resends 1..4 — still chunk 0, not chunk 1.
        let out = feed(&mut s, &acks[0]);
        let seqs: Vec<u32> = transmits(&out)
            .iter()
            .map(|p| Datagram::parse(p).unwrap().seq)
            .collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        assert_eq!(s.current_chunk(), 0);

        // Deliver; chunk 0 acks; chunk 1 starts.
        let mut acks = Vec::new();
        for p in transmits(&out) {
            acks.extend(transmits(&feed(&mut r, &p)));
        }
        let out = feed(&mut s, &acks[0]);
        let seqs: Vec<u32> = transmits(&out)
            .iter()
            .map(|p| Datagram::parse(p).unwrap().seq)
            .collect();
        assert_eq!(seqs, vec![4, 5, 6, 7]);

        // Finish up.
        let mut acks = Vec::new();
        for p in transmits(&out) {
            acks.extend(transmits(&feed(&mut r, &p)));
        }
        feed(&mut s, &acks[0]);
        assert!(s.is_finished() && r.is_finished());
        assert_eq!(r.data(), &payload[..]);
        assert_eq!(s.stats().retransmission_rounds, 1);
    }

    #[test]
    fn stats_aggregate_across_chunks() {
        let (s, r, _) = run_lossless(12 * 1024, 3);
        assert_eq!(s.stats().data_packets_sent, 12);
        assert_eq!(r.stats().data_packets_received, 12);
        assert_eq!(r.stats().acks_sent, 4);
    }
}
