//! The blast protocol (§2.1 Figure 3.b, §3 of the paper).
//!
//! "With a blast protocol all data packets are transmitted in sequence,
//! with only a single acknowledgement for the entire packet sequence.
//! Different protocols within the category of blast protocols are
//! distinguished by their retransmission strategies."
//!
//! ## Structure of a transfer (§3.2.3)
//!
//! "In order to execute a D-packet transfer, (D−1) packets are
//! transmitted without acknowledgement.  The last packet is sent
//! reliably, i.e. it is retransmitted periodically until an
//! acknowledgement is received.  The acknowledgement to the last packet
//! indicates [what is missing].  If D′ did not get there, they need to
//! be retransmitted using the same method: transmit D′−1 packets
//! unreliably and the last packet reliably.  This procedure continues
//! until all packets get to their destination."
//!
//! Each *round* therefore sends a set of packets whose final member
//! carries the `LAST|RELIABLE` flags and solicits a status report:
//!
//! * round 0 sends packets `0..D`;
//! * a go-back-n NACK (`first_missing = f`) makes the next round send
//!   `f..D`;
//! * a selective NACK (bitmap) makes the next round send exactly the
//!   missing set;
//! * a full-retransmission NACK (or, for [`RetxStrategy::FullNoNack`] /
//!   [`RetxStrategy::FullNack`], a timeout) makes the next round resend
//!   `0..D`;
//! * for [`RetxStrategy::GoBackN`] and [`RetxStrategy::Selective`] a
//!   timeout retransmits *only* the round's reliable last packet — that
//!   is what "the last packet is sent reliably" means; the re-solicited
//!   NACK then directs the real retransmission.
//!
//! The sender serves a sub-range of the transfer, which
//! [`crate::multiblast`] rolls over in place chunk by chunk;
//! acknowledgements use cumulative semantics (`Positive { acked: s }` ⇒
//! everything `≤ s` arrived).

use blast_telemetry::EventKind;
use blast_wire::ack::{AckPayload, Bitmap};
use blast_wire::header::PacketKind;
use blast_wire::packet::{Datagram, DatagramBuilder};

use std::time::Duration;

use crate::api::{Action, ActionSink, CompletionInfo, EngineStats, TimerToken};
use crate::config::{ProtocolConfig, RetxStrategy};
use crate::control::{Control, PacerSnapshot, PacingConfig, PACE_TIMER};
use crate::engine::{control_in, Engine, Finish};
use crate::error::CoreError;
use crate::pool::{BufferPool, PooledBuf};
use crate::rxbuf::{Geometry, RxBuffer};
use crate::txdata::{TxBytes, TxData};

/// The retransmission timer a blast sender uses (pacing uses
/// [`PACE_TIMER`]).
const RETX_TIMER: TimerToken = TimerToken(0);

/// Upper bound on the per-round buffer stash (and on one batched pool
/// checkout) — matches the pool's default free-list bound, so a single
/// giant round cannot drain the free list through one engine.
const MAX_BATCH: usize = 256;

/// Emission cursor of the round in flight: what remains to be put on
/// the wire once the pacer's next burst budget opens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    /// The round is fully emitted; only timers are outstanding.
    Idle,
    /// Emitting the contiguous span `next..end`.
    Span { next: u32 },
    /// Emitting `pending_set[next..]` (bitmap-NACK rounds).
    Set { next: usize },
}

/// Blast sender for a contiguous range of a transfer.
#[derive(Debug)]
pub struct BlastSender<'a> {
    tx: TxData<'a>,
    builder: DatagramBuilder,
    /// Clock, RTO estimator, pacer and recorder.
    pub(crate) control: Control,
    max_retries: u32,
    strategy: RetxStrategy,
    /// First sequence this sender is responsible for.
    pub(crate) first: u32,
    /// One past the last sequence this sender is responsible for.
    pub(crate) end: u32,
    /// The receiver acknowledged all of `first..end`.  A range short of
    /// the transfer's end (a multi-blast chunk) then waits, without
    /// completing, for [`restart`](BlastSender::restart).
    pub(crate) acked: bool,
    /// The reliable (LAST-flagged) packet of the current round.
    reliable_seq: u32,
    /// Retransmission rounds consumed (timeouts + NACK rounds) in the
    /// current range.
    rounds_used: u32,
    /// When the current round's soliciting tail went out — `Some` only
    /// while an RTT sample off its acknowledgement would be unambiguous
    /// under Karn's rule (the tail transmitted exactly once, in a round
    /// that retransmitted nothing).
    solicit_sent: Option<Duration>,
    /// Paced-emission cursor for the round in flight.
    pending: Pending,
    /// Storage behind [`Pending::Set`], reused across rounds.
    pending_set: Vec<u32>,
    /// Batched pool checkouts for the burst being emitted (one pool
    /// lock per burst instead of one per packet).
    stash: Vec<PooledBuf>,
    pool: BufferPool,
    /// Counters over the whole transfer (every chunk of a multi-blast).
    stats: EngineStats,
    finish: Finish,
}

/// What a NACK asks the sender to retransmit.  Contiguous answers stay
/// as ranges so the steady paths (full retransmission, go-back-n) never
/// materialise a `Vec` of sequence numbers; only a selective bitmap
/// needs an explicit set, staged in the sender's reused `pending_set`.
enum Resend {
    /// Retransmit `first..end` of the sender's range.
    Span { first: u32 },
    /// Retransmit exactly the set staged in `pending_set` (bitmap NACK).
    Set,
    /// Nothing actionable: re-solicit with the reliable tail.
    Resolicit,
}

impl<'a> BlastSender<'a> {
    /// Create a sender blasting all of `data` on `transfer_id`.
    pub fn new(transfer_id: u32, data: impl Into<TxBytes<'a>>, config: &ProtocolConfig) -> Self {
        Self::chunked(transfer_id, data.into(), config, None)
    }

    /// Create a sender for `data`: the whole transfer, or with
    /// `Some(chunk)` its first `chunk` packets as a multi-blast chunk
    /// (MULTIBLAST-flagged packets, later chunks rolled over in place by
    /// [`restart`](BlastSender::restart)).
    pub(crate) fn chunked(
        transfer_id: u32,
        data: TxBytes<'a>,
        config: &ProtocolConfig,
        chunk: Option<u32>,
    ) -> Self {
        let tx = TxData::new(data, config.packet_payload);
        let end = chunk.map_or(tx.total_packets(), |c| c.min(tx.total_packets()));
        assert!(end > 0, "invalid blast range");
        BlastSender {
            tx,
            builder: DatagramBuilder::new(transfer_id)
                .kernel(config.kernel_flag)
                .multiblast(chunk.is_some()),
            control: Control::new(transfer_id, &config.timeout, config.pacing),
            max_retries: config.max_retries,
            strategy: config.strategy,
            first: 0,
            end,
            acked: false,
            reliable_seq: end - 1,
            rounds_used: 0,
            solicit_sent: None,
            pending: Pending::Idle,
            pending_set: Vec::new(),
            // Sized up front so steady-state bursts — and every later
            // chunk, none larger than the first — never grow it (the
            // zero-allocation property of the packet loop).
            stash: Vec::with_capacity((end as usize).min(MAX_BATCH)),
            pool: config.pool.clone(),
            stats: EngineStats::default(),
            finish: Finish::default(),
        }
    }

    /// Roll an acknowledged multi-blast chunk over to packets
    /// `first..end` in place: per-round state restarts, while the
    /// [`Control`] (converged RTO, grown burst, clock, recorder), the
    /// stats and the reused buffers carry on.  [`Engine::start`] then
    /// blasts the new chunk.
    pub(crate) fn restart(&mut self, first: u32, end: u32) {
        debug_assert!(self.acked && first < end && end <= self.tx.total_packets());
        self.first = first;
        self.end = end;
        self.acked = false;
        self.rounds_used = 0;
    }

    /// Packets in the whole transfer.
    pub(crate) fn total_packets(&self) -> u32 {
        self.tx.total_packets()
    }

    /// The strategy this sender retransmits with.
    pub fn strategy(&self) -> RetxStrategy {
        self.strategy
    }

    /// The retransmission timeout currently in force (diagnostics, and
    /// the RTO trajectory `tests/cc_sweep.rs` asserts).
    pub fn current_rto(&self) -> Duration {
        self.control.rto()
    }

    /// The smoothed round-trip estimate, once a sample has been taken
    /// or a seed given.
    pub fn srtt(&self) -> Option<Duration> {
        self.control.srtt()
    }

    /// The pacing state, when pacing is enabled.
    pub fn pacing_snapshot(&self) -> Option<PacerSnapshot> {
        self.control.pacing_snapshot()
    }

    fn transmit_one(&mut self, seq: u32, last: bool, sink: &mut dyn ActionSink) {
        let payload = self.tx.payload_of(seq);
        let len = blast_wire::HEADER_LEN + payload.len();
        // Bursts pre-checkout their buffers in one batch (`emit_burst`);
        // stragglers — the re-solicited tail, oversized rounds — fall
        // back to the per-packet path.
        let mut buf = match self.stash.pop() {
            Some(buf) => buf,
            None => self.pool.checkout_sized(len),
        };
        buf.resize(len, 0);
        let len = self
            .builder
            .build_data(
                &mut buf,
                seq,
                self.tx.total_packets(),
                self.tx.offset_of(seq) as u32,
                payload,
                self.rounds_used.min(u16::MAX as u32) as u16,
                last,
            )
            .expect("buffer sized for payload");
        buf.truncate(len);
        self.stats.data_packets_sent += 1;
        if self.rounds_used > 0 {
            self.stats.data_packets_retransmitted += 1;
        }
        sink.push_action(Action::Transmit(buf));
    }

    /// Packets of the round in flight not yet emitted.
    fn pending_len(&self) -> usize {
        match self.pending {
            Pending::Idle => 0,
            Pending::Span { next } => (self.end - next) as usize,
            Pending::Set { next } => self.pending_set.len() - next,
        }
    }

    /// Emit up to one pacer burst of the pending round.  Between bursts
    /// the engine arms [`PACE_TIMER`]; once the round's reliable tail
    /// is on the wire it arms the retransmission timer at the current
    /// RTO and records the Karn solicitation timestamp.
    fn emit_burst(&mut self, sink: &mut dyn ActionSink) {
        let remaining = self.pending_len();
        debug_assert!(remaining > 0, "emit_burst on an idle round");
        let n = remaining.min(self.control.pacer().burst_budget() as usize);
        // One pool lock covers the whole burst.
        let fresh_before = self
            .control
            .tracing()
            .then(|| self.pool.fresh_allocations());
        self.pool.checkout_many(n.min(MAX_BATCH), &mut self.stash);
        if let Some(before) = fresh_before {
            let fresh = self.pool.fresh_allocations();
            if fresh > before {
                self.control
                    .trace(EventKind::PoolExhausted, fresh, n as u64);
            }
        }
        match self.pending {
            Pending::Idle => unreachable!("pending_len > 0"),
            Pending::Span { next } => {
                for seq in next..next + n as u32 {
                    self.transmit_one(seq, seq == self.reliable_seq, sink);
                }
                self.pending = Pending::Span {
                    next: next + n as u32,
                };
            }
            Pending::Set { next } => {
                for i in next..next + n {
                    let seq = self.pending_set[i];
                    self.transmit_one(seq, seq == self.reliable_seq, sink);
                }
                self.pending = Pending::Set { next: next + n };
            }
        }
        if self.pending_len() == 0 {
            self.pending = Pending::Idle;
            // Karn: an acknowledgement solicited by this tail measures a
            // true round trip only if nothing in the round was a
            // retransmission.
            self.solicit_sent = (self.rounds_used == 0).then_some(self.control.now());
            sink.push_action(Action::SetTimer {
                token: RETX_TIMER,
                after: self.control.rto(),
            });
        } else {
            sink.push_action(Action::SetTimer {
                token: PACE_TIMER,
                after: self.control.pacer().gap(),
            });
        }
    }

    /// Start emitting a freshly-staged round (the cursor in
    /// `self.pending`).  A round that spans multiple bursts first
    /// cancels the previous round's retransmission timer — it is re-armed
    /// when the tail finally goes out, so a paced round can never be
    /// interrupted by the old deadline.
    fn begin_round(&mut self, sink: &mut dyn ActionSink) {
        self.control.trace(
            EventKind::RoundStart,
            u64::from(self.rounds_used),
            self.pending_len() as u64,
        );
        if self.pending_len() > self.control.pacer().burst_budget() as usize {
            sink.push_action(Action::CancelTimer { token: RETX_TIMER });
        }
        self.emit_burst(sink);
    }

    /// Blast out the contiguous span `first..end` — the allocation-free
    /// fast path used by round 0 and every non-bitmap retransmission.
    fn send_span(&mut self, first: u32, sink: &mut dyn ActionSink) {
        debug_assert!(first < self.end);
        self.reliable_seq = self.end - 1;
        self.pending = Pending::Span { next: first };
        self.begin_round(sink);
    }

    /// Blast out the explicit set staged in `pending_set` (ordered);
    /// its final member is the round's reliable packet.
    fn send_set_round(&mut self, sink: &mut dyn ActionSink) {
        debug_assert!(!self.pending_set.is_empty());
        self.reliable_seq = *self.pending_set.last().expect("non-empty round");
        self.pending = Pending::Set { next: 0 };
        self.begin_round(sink);
    }

    /// Retransmit only the reliable tail to re-solicit a status report.
    /// The retransmitted tail makes the next acknowledgement ambiguous
    /// (Karn), so the solicitation timestamp is cleared.
    fn resolicit(&mut self, sink: &mut dyn ActionSink) {
        // A re-solicitation supersedes any round still mid-emission: a
        // NACK can arrive in a paced round's inter-burst gap and resolve
        // to `Resolicit` (nonsense range, empty bitmap) after
        // `resend_set` has already restaged `pending_set` — the old
        // cursor must not survive for a stale pace deadline to resume.
        self.pending = Pending::Idle;
        // A re-solicitation is a one-packet round of its own, so the
        // trace's begin/end spans stay balanced.
        self.control
            .trace(EventKind::RoundStart, u64::from(self.rounds_used), 1);
        let seq = self.reliable_seq;
        self.solicit_sent = None;
        self.transmit_one(seq, true, sink);
        sink.push_action(Action::SetTimer {
            token: RETX_TIMER,
            after: self.control.rto(),
        });
    }

    /// Take the Karn-valid RTT sample for an arriving status report, if
    /// the soliciting tail is still unambiguous (a poisoned window —
    /// retransmitted tail or timeout — is a Karn rejection).
    fn sample_rtt(&mut self) {
        match self.solicit_sent.take() {
            Some(sent) => self.control.sample_rtt(sent),
            None => self.control.reject_sample(self.rounds_used),
        }
    }

    /// Consume one unit of retransmission budget; completes with failure
    /// and returns `false` when exhausted.
    fn charge_round(&mut self, sink: &mut dyn ActionSink) -> bool {
        if self.rounds_used >= self.max_retries {
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
            return false;
        }
        self.rounds_used += 1;
        self.stats.retransmission_rounds += 1;
        self.control
            .trace(EventKind::RetxRound, u64::from(self.rounds_used), 0);
        true
    }

    /// Packets to resend for a NACK, per strategy and NACK payload.  A
    /// bitmap NACK stages its explicit set into the reused
    /// `pending_set` storage.
    fn resend_set(&mut self, ack: &AckPayload) -> Option<Resend> {
        match ack {
            AckPayload::Positive { .. } => None,
            AckPayload::NackFull => Some(Resend::Span { first: self.first }),
            AckPayload::NackFirstMissing { first_missing } => {
                if *first_missing >= self.end {
                    // Nonsense NACK (beyond our range): re-solicit.
                    Some(Resend::Resolicit)
                } else {
                    Some(Resend::Span {
                        first: *first_missing,
                    })
                }
            }
            AckPayload::NackBitmap(bm) => {
                self.pending_set.clear();
                stage_bitmap_resend(bm, self.first, self.end, &mut self.pending_set);
                if self.pending_set.is_empty() {
                    // NACK with nothing missing in range: re-solicit.
                    Some(Resend::Resolicit)
                } else {
                    Some(Resend::Set)
                }
            }
        }
    }
}

impl Engine for BlastSender<'_> {
    control_in!(control);

    fn start(&mut self, sink: &mut dyn ActionSink) {
        let first = self.first;
        self.send_span(first, sink);
    }

    fn on_datagram(&mut self, dgram: &Datagram<'_>, sink: &mut dyn ActionSink) {
        if self.finish.is_finished() || dgram.kind != PacketKind::Ack {
            return;
        }
        let Some(ack) = &dgram.ack else { return };
        self.stats.acks_received += 1;
        match ack {
            AckPayload::Positive { acked } => {
                if *acked + 1 >= self.end {
                    self.sample_rtt();
                    // AIMD: the whole range was acknowledged in one
                    // report — a clean round, grow the burst.
                    self.control.on_clean_round();
                    self.control
                        .trace(EventKind::RoundEnd, u64::from(self.rounds_used), 0);
                    self.pending = Pending::Idle;
                    self.acked = true;
                    sink.push_action(Action::CancelTimer { token: RETX_TIMER });
                    sink.push_action(Action::CancelTimer { token: PACE_TIMER });
                    // A chunk short of the transfer's end completes
                    // nothing: multi-blast rolls the next one over.
                    if self.end == self.tx.total_packets() {
                        let stats = self.stats;
                        let bytes = self.tx.len();
                        self.finish
                            .complete(sink, CompletionInfo::success(bytes, stats));
                    }
                }
                // A positive ack below our range end is stale
                // (an earlier chunk's ack); keep waiting.
            }
            nack => {
                // The status report answers our soliciting tail: a valid
                // round-trip measurement even when it asks for more data.
                self.sample_rtt();
                // AIMD: any NACK means the receiver missed packets —
                // shrink the burst before retransmitting.
                self.control.on_loss();
                self.control
                    .trace(EventKind::RoundEnd, u64::from(self.rounds_used), 1);
                if let Some(resend) = self.resend_set(nack) {
                    if self.control.tracing() {
                        let missing = match &resend {
                            Resend::Span { first } => u64::from(self.end - *first),
                            Resend::Set => self.pending_set.len() as u64,
                            Resend::Resolicit => 0,
                        };
                        self.control.trace(
                            EventKind::NackReceived,
                            u64::from(self.rounds_used),
                            missing,
                        );
                    }
                    if self.charge_round(sink) {
                        match resend {
                            Resend::Span { first } => self.send_span(first, sink),
                            Resend::Set => self.send_set_round(sink),
                            Resend::Resolicit => self.resolicit(sink),
                        }
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, token: TimerToken, sink: &mut dyn ActionSink) {
        if self.finish.is_finished() {
            return;
        }
        if token == PACE_TIMER {
            // The gap between bursts of a paced round elapsed; a stale
            // pace deadline from a superseded round is inert.
            if self.pending != Pending::Idle {
                self.emit_burst(sink);
            }
            return;
        }
        if token != RETX_TIMER || self.pending != Pending::Idle {
            // `begin_round` cancels the retransmission deadline for any
            // multi-burst round, so an expiry mid-round is stale.
            return;
        }
        self.stats.timeouts += 1;
        // Karn: double the RTO and poison the sample window — whatever
        // answer eventually arrives is ambiguous.  The timeout is also
        // the strongest loss signal the engine has: AIMD shrink.
        self.control.on_timeout();
        self.control
            .trace(EventKind::RoundEnd, u64::from(self.rounds_used), 2);
        self.solicit_sent = None;
        if !self.charge_round(sink) {
            return;
        }
        match self.strategy {
            // §3.1.2 / §3.2.2: "it retransmits the whole sequence".
            RetxStrategy::FullNoNack | RetxStrategy::FullNack => {
                let first = self.first;
                self.send_span(first, sink);
            }
            // §3.2.3: only the reliable last packet is retransmitted
            // periodically; the NACK it solicits directs the rest.
            RetxStrategy::GoBackN | RetxStrategy::Selective => self.resolicit(sink),
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

/// Blast receiver: places data packets into the pre-allocated buffer and
/// answers each round's reliable packet with the strategy's status
/// report.
#[derive(Debug)]
pub struct BlastReceiver {
    rx: RxBuffer,
    builder: DatagramBuilder,
    strategy: RetxStrategy,
    /// Highest sequence number ever seen — the horizon up to which
    /// status reports are computed.  Cumulative-ack semantics for
    /// multi-blast fall out of this: a chunk's reliable packet raises
    /// the horizon to the chunk end, and the report covers everything
    /// up to it.
    horizon: Option<u32>,
    pool: BufferPool,
    stats: EngineStats,
    finish: Finish,
    /// Clock and recorder (built unpaced: a receiver never paces).
    control: Control,
}

impl BlastReceiver {
    /// Create a receiver expecting `bytes` bytes on `transfer_id`.
    pub fn new(transfer_id: u32, bytes: usize, config: &ProtocolConfig) -> Self {
        Self::with_buffer(transfer_id, vec![0; bytes], config)
    }

    /// Create a receiver for a transfer of `buf.len()` bytes that lands
    /// in `buf` itself — a caller's buffer, set aside before the
    /// transfer, with no zero-fill.  Its old bytes show through the
    /// holes of [`data`](Self::data) until completion; [`Engine::retire`]
    /// hands out only a complete buffer.
    pub fn with_buffer(transfer_id: u32, buf: Vec<u8>, config: &ProtocolConfig) -> Self {
        BlastReceiver {
            rx: RxBuffer::with_buffer(buf, config.packet_payload),
            builder: DatagramBuilder::new(transfer_id).kernel(config.kernel_flag),
            strategy: config.strategy,
            horizon: None,
            pool: config.pool.clone(),
            stats: EngineStats::default(),
            finish: Finish::default(),
            control: Control::new(transfer_id, &config.timeout, PacingConfig::off()),
        }
    }

    /// The received bytes.  Until completion a hole holds zeros, or a
    /// recycled buffer's old bytes ([`with_buffer`](Self::with_buffer)).
    pub fn data(&self) -> &[u8] {
        self.rx.data()
    }

    /// Consume the engine, returning the received data, holes and all
    /// (see [`data`](Self::data)).
    pub fn into_data(self) -> Vec<u8> {
        self.rx.into_data()
    }

    /// Packets received so far (diagnostics).
    pub fn received_packets(&self) -> u32 {
        self.rx.received_packets()
    }

    fn send_status(&mut self, sink: &mut dyn ActionSink) {
        let upto = match self.horizon {
            Some(h) => h,
            None => return,
        };
        let total = self.rx.total_packets();
        let report = match self.rx.first_missing_upto(upto) {
            None => AckPayload::Positive { acked: upto },
            Some(first_missing) => match self.strategy {
                // Strategy 1: stay silent; the sender's timeout drives
                // full retransmission.
                RetxStrategy::FullNoNack => return,
                RetxStrategy::FullNack => AckPayload::NackFull,
                RetxStrategy::GoBackN => AckPayload::NackFirstMissing { first_missing },
                RetxStrategy::Selective => {
                    let bm = self
                        .rx
                        .missing_bitmap_upto(upto)
                        .expect("missing bitmap exists when a packet is missing");
                    AckPayload::NackBitmap(bm)
                }
            },
        };
        let is_nack = report.is_nack();
        if self.control.tracing() {
            // Holes below the horizon, counted exactly when the bitmap
            // is already in hand and approximated otherwise.
            let missing = match &report {
                AckPayload::NackBitmap(bm) => bm.missing().filter(|&s| s <= upto).count() as u64,
                AckPayload::Positive { .. } => 0,
                _ => (u64::from(upto) + 1).saturating_sub(u64::from(self.rx.received_packets())),
            };
            self.control
                .trace(EventKind::StatusSend, u64::from(!is_nack), missing);
        }
        let mut buf = self
            .pool
            .checkout_sized(blast_wire::HEADER_LEN + report.encoded_len());
        let len = self
            .builder
            .build_ack(&mut buf, total, &report)
            .expect("ack fits");
        buf.truncate(len);
        self.stats.acks_sent += 1;
        if is_nack {
            self.stats.nacks_sent += 1;
        }
        sink.push_action(Action::Transmit(buf));
    }
}

impl Engine for BlastReceiver {
    control_in!(control);

    fn start(&mut self, _sink: &mut dyn ActionSink) {
        // Passive: buffers were allocated in `new`, per the paper.
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
                let stats = self.stats;
                self.finish
                    .complete(sink, CompletionInfo::failure(e, stats));
                return;
            }
        }
        self.horizon = Some(self.horizon.map_or(dgram.seq, |h| h.max(dgram.seq)));
        // Only the round's reliable packet solicits a status report —
        // that is the whole point of the blast protocol: one ack (or
        // NACK) per round instead of one per packet.
        if dgram.is_last() {
            self.send_status(sink);
        }
        if self.rx.is_complete() {
            let stats = self.stats;
            let bytes = self.rx.len();
            self.finish
                .complete(sink, CompletionInfo::success(bytes, stats));
        }
    }

    fn on_timer(&mut self, _token: TimerToken, _sink: &mut dyn ActionSink) {}

    fn is_finished(&self) -> bool {
        self.finish.is_finished()
    }

    fn stats(&self) -> EngineStats {
        self.stats
    }

    fn transfer_id(&self) -> u32 {
        self.control.transfer_id()
    }

    fn retire(&mut self) -> Option<(Vec<u8>, FinishedReceiver)> {
        let finished = FinishedReceiver {
            transfer_id: self.control.transfer_id(),
            builder: self.builder,
            geometry: self.rx.geometry(),
        };
        Some((self.rx.take_data()?, finished))
    }
}

/// What a completed [`BlastReceiver`] leaves behind when its buffer
/// moves on ([`Engine::retire`]): the transfer's geometry, which is all
/// it takes to keep answering the one thing a finished receiver still
/// answers — a duplicate of a round's reliable packet, re-sent by a
/// sender whose copy of the final acknowledgement was lost (§3.2.2's
/// tail problem).  A few words, `Copy`, no buffer.
#[derive(Debug, Clone, Copy)]
pub struct FinishedReceiver {
    transfer_id: u32,
    builder: DatagramBuilder,
    geometry: Geometry,
}

impl FinishedReceiver {
    /// Length of the status report [`reack`](Self::reack) writes.
    pub const STATUS_LEN: usize = blast_wire::HEADER_LEN + 5;

    /// The transfer this stands in for.
    pub fn transfer_id(&self) -> u32 {
        self.transfer_id
    }

    /// If `dgram` is one the finished receiver would have answered — a
    /// data packet of this transfer, flagged as its round's last, that
    /// matches the transfer's geometry — write the final (positive)
    /// status report into `out` and return its length.  Everything
    /// else, `Cancel` included, gets no reply.
    pub fn reack(&self, dgram: &Datagram<'_>, out: &mut [u8; Self::STATUS_LEN]) -> Option<usize> {
        if dgram.kind != PacketKind::Data
            || dgram.transfer_id != self.transfer_id
            || !dgram.is_last()
        {
            return None;
        }
        self.geometry
            .check(dgram.seq, dgram.offset as usize, dgram.payload.len())
            .ok()?;
        let total = self.geometry.total_packets();
        let acked = total - 1;
        self.builder
            .build_ack(out, total, &AckPayload::Positive { acked })
            .ok()
    }
}

/// Stage into `set`, in order, what a bitmap NACK asks the sender of
/// `first..end` to resend: the bitmap's holes, then whatever it leaves
/// unreported before `end`.
///
/// A bitmap narrower than [`Bitmap::MAX_BITS`] runs to the receiver's
/// horizon, so packets past it were never seen and are resent.  A
/// full-width bitmap may have been cut short of that horizon: the
/// receiver ran out of bits, not packets.  Its holes are resent with
/// the reliable tail `end − 1` alone, and the report that tail solicits
/// covers the next window — otherwise one early loss in a transfer of
/// more than `MAX_BITS` packets would resend nearly all of the rest.
fn stage_bitmap_resend(bm: &Bitmap, first: u32, end: u32, set: &mut Vec<u32>) {
    set.extend(bm.missing().filter(|&s| s < end));
    let horizon = bm.base() + u32::from(bm.nbits());
    if horizon >= end {
        return;
    }
    if bm.nbits() < Bitmap::MAX_BITS {
        set.extend(horizon.max(first)..end);
    } else {
        set.push(end - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn config(strategy: RetxStrategy) -> ProtocolConfig {
        ProtocolConfig::default().with_strategy(strategy)
    }

    fn data(n: usize) -> Arc<[u8]> {
        (0..n)
            .map(|i| (i * 13 % 251) as u8)
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

    #[test]
    fn round_zero_blasts_everything_with_one_reliable_tail() {
        let cfg = config(RetxStrategy::GoBackN);
        let mut s = BlastSender::new(1, data(8 * 1024), &cfg);
        let mut actions = Vec::new();
        s.start(&mut actions);
        let pkts = transmits(&actions);
        assert_eq!(pkts.len(), 8);
        for (i, p) in pkts.iter().enumerate() {
            let d = Datagram::parse(p).unwrap();
            assert_eq!(d.seq, i as u32);
            assert_eq!(d.is_last(), i == 7, "only the tail is LAST");
            assert_eq!(d.is_reliable(), i == 7, "only the tail is RELIABLE");
        }
        // Exactly one timer, armed after the blast.
        let timers = actions
            .iter()
            .filter(|a| matches!(a, Action::SetTimer { .. }))
            .count();
        assert_eq!(timers, 1);
    }

    #[test]
    fn error_free_blast_single_ack() {
        for strategy in RetxStrategy::ALL {
            let cfg = config(strategy);
            let payload = data(8 * 1024);
            let mut s = BlastSender::new(1, payload.clone(), &cfg);
            let mut r = BlastReceiver::new(1, payload.len(), &cfg);
            let mut actions = Vec::new();
            s.start(&mut actions);
            let mut acks = Vec::new();
            for p in transmits(&actions) {
                let out = feed(&mut r, &p);
                acks.extend(transmits(&out));
            }
            assert_eq!(acks.len(), 1, "{strategy}: blast uses a single ack");
            assert!(r.is_finished());
            assert_eq!(r.data(), &payload[..]);
            feed(&mut s, &acks[0]);
            assert!(s.is_finished(), "{strategy}");
            assert_eq!(s.stats().data_packets_sent, 8);
            assert_eq!(s.stats().data_packets_retransmitted, 0);
            assert_eq!(r.stats().acks_sent, 1);
            assert_eq!(r.stats().nacks_sent, 0);
        }
    }

    /// Deliver `pkts` to the receiver, dropping the sequences in `drop`.
    fn deliver_except(r: &mut BlastReceiver, pkts: &[Vec<u8>], drop: &[u32]) -> Vec<Vec<u8>> {
        let mut acks = Vec::new();
        for p in pkts {
            let d = Datagram::parse(p).unwrap();
            if drop.contains(&d.seq) {
                continue;
            }
            let out = feed(r, p);
            acks.extend(transmits(&out));
        }
        acks
    }

    #[test]
    fn gobackn_nack_names_first_missing_and_sender_goes_back() {
        let cfg = config(RetxStrategy::GoBackN);
        let payload = data(8 * 1024);
        let mut s = BlastSender::new(1, payload.clone(), &cfg);
        let mut r = BlastReceiver::new(1, payload.len(), &cfg);
        let mut actions = Vec::new();
        s.start(&mut actions);
        // Drop packets 3 and 5; the reliable tail (7) arrives.
        let acks = deliver_except(&mut r, &transmits(&actions), &[3, 5]);
        assert_eq!(acks.len(), 1);
        let d = Datagram::parse(&acks[0]).unwrap();
        assert_eq!(
            d.ack,
            Some(AckPayload::NackFirstMissing { first_missing: 3 })
        );

        // Sender resends 3..8 (one materialised packet list serves the
        // whole round — no re-collecting clones of every transmit).
        let out = feed(&mut s, &acks[0]);
        let pkts = transmits(&out);
        let resent: Vec<u32> = pkts
            .iter()
            .map(|p| Datagram::parse(p).unwrap().seq)
            .collect();
        assert_eq!(resent, vec![3, 4, 5, 6, 7]);
        // Tail of the new round is reliable again.
        let d = Datagram::parse(pkts.last().unwrap()).unwrap();
        assert!(d.is_last() && d.is_reliable());
        assert_eq!(d.round, 1);

        // Deliver the new round; receiver completes and acks positively.
        let acks = deliver_except(&mut r, &pkts, &[]);
        assert!(r.is_finished());
        assert_eq!(r.data(), &payload[..]);
        let d = Datagram::parse(&acks[0]).unwrap();
        assert_eq!(d.ack, Some(AckPayload::Positive { acked: 7 }));
        feed(&mut s, &acks[0]);
        assert!(s.is_finished());
        assert_eq!(s.stats().retransmission_rounds, 1);
        assert_eq!(s.stats().data_packets_retransmitted, 5);
    }

    #[test]
    fn selective_nack_resends_exactly_missing() {
        let cfg = config(RetxStrategy::Selective);
        let payload = data(8 * 1024);
        let mut s = BlastSender::new(1, payload.clone(), &cfg);
        let mut r = BlastReceiver::new(1, payload.len(), &cfg);
        let mut actions = Vec::new();
        s.start(&mut actions);
        let acks = deliver_except(&mut r, &transmits(&actions), &[1, 4, 6]);
        let d = Datagram::parse(&acks[0]).unwrap();
        match &d.ack {
            Some(AckPayload::NackBitmap(bm)) => {
                assert_eq!(bm.missing().collect::<Vec<_>>(), vec![1, 4, 6]);
            }
            other => panic!("expected bitmap NACK, got {other:?}"),
        }
        let out = feed(&mut s, &acks[0]);
        let pkts = transmits(&out);
        let resent: Vec<u32> = pkts
            .iter()
            .map(|p| Datagram::parse(p).unwrap().seq)
            .collect();
        assert_eq!(
            resent,
            vec![1, 4, 6],
            "selective resends exactly the missing set"
        );
        // Last of the resent subset carries the solicitation flags.
        let tail = Datagram::parse(pkts.last().unwrap()).unwrap();
        assert_eq!(tail.seq, 6);
        assert!(tail.is_last() && tail.is_reliable());

        let acks = deliver_except(&mut r, &pkts, &[]);
        assert!(r.is_finished());
        assert_eq!(r.data(), &payload[..]);
        feed(&mut s, &acks[0]);
        assert!(s.is_finished());
        assert_eq!(s.stats().data_packets_retransmitted, 3);
    }

    #[test]
    fn full_nack_strategy_resends_all() {
        let cfg = config(RetxStrategy::FullNack);
        let payload = data(4 * 1024);
        let mut s = BlastSender::new(1, payload.clone(), &cfg);
        let mut r = BlastReceiver::new(1, payload.len(), &cfg);
        let mut actions = Vec::new();
        s.start(&mut actions);
        let acks = deliver_except(&mut r, &transmits(&actions), &[0]);
        let d = Datagram::parse(&acks[0]).unwrap();
        assert_eq!(d.ack, Some(AckPayload::NackFull));
        assert_eq!(r.stats().nacks_sent, 1);

        let out = feed(&mut s, &acks[0]);
        let resent: Vec<u32> = transmits(&out)
            .iter()
            .map(|p| Datagram::parse(p).unwrap().seq)
            .collect();
        assert_eq!(
            resent,
            vec![0, 1, 2, 3],
            "full retransmission resends the whole sequence"
        );
    }

    #[test]
    fn full_no_nack_receiver_stays_silent_on_loss() {
        let cfg = config(RetxStrategy::FullNoNack);
        let payload = data(4 * 1024);
        let mut s = BlastSender::new(1, payload.clone(), &cfg);
        let mut r = BlastReceiver::new(1, payload.len(), &cfg);
        let mut actions = Vec::new();
        s.start(&mut actions);
        let acks = deliver_except(&mut r, &transmits(&actions), &[2]);
        assert!(acks.is_empty(), "strategy 1 receiver must not NACK");

        // Sender timeout: full retransmission.
        let mut out = Vec::new();
        s.on_timer(RETX_TIMER, &mut out);
        let pkts = transmits(&out);
        let resent: Vec<u32> = pkts
            .iter()
            .map(|p| Datagram::parse(p).unwrap().seq)
            .collect();
        assert_eq!(resent, vec![0, 1, 2, 3]);
        assert_eq!(s.stats().timeouts, 1);

        let acks = deliver_except(&mut r, &pkts, &[]);
        assert_eq!(acks.len(), 1);
        let d = Datagram::parse(&acks[0]).unwrap();
        assert_eq!(d.ack, Some(AckPayload::Positive { acked: 3 }));
    }

    #[test]
    fn gobackn_timeout_resends_only_the_reliable_tail() {
        let cfg = config(RetxStrategy::GoBackN);
        let mut s = BlastSender::new(1, data(8 * 1024), &cfg);
        let mut actions = Vec::new();
        s.start(&mut actions);
        let mut out = Vec::new();
        s.on_timer(RETX_TIMER, &mut out);
        let resent = transmits(&out);
        assert_eq!(resent.len(), 1, "timeout solicits, it does not re-blast");
        let d = Datagram::parse(&resent[0]).unwrap();
        assert_eq!(d.seq, 7);
        assert!(d.is_last() && d.is_reliable());
    }

    #[test]
    fn lost_tail_then_timeout_then_nack_recovers() {
        // Lose the reliable tail itself: receiver can't report until the
        // re-solicitation arrives.
        let cfg = config(RetxStrategy::GoBackN);
        let payload = data(6 * 1024);
        let mut s = BlastSender::new(1, payload.clone(), &cfg);
        let mut r = BlastReceiver::new(1, payload.len(), &cfg);
        let mut actions = Vec::new();
        s.start(&mut actions);
        let acks = deliver_except(&mut r, &transmits(&actions), &[2, 5]);
        assert!(acks.is_empty(), "tail lost: no report possible");

        let mut out = Vec::new();
        s.on_timer(RETX_TIMER, &mut out);
        let acks = deliver_except(&mut r, &transmits(&out), &[]);
        assert_eq!(acks.len(), 1);
        let d = Datagram::parse(&acks[0]).unwrap();
        assert_eq!(
            d.ack,
            Some(AckPayload::NackFirstMissing { first_missing: 2 })
        );

        let out = feed(&mut s, &acks[0]);
        let acks = deliver_except(&mut r, &transmits(&out), &[]);
        assert!(r.is_finished());
        assert_eq!(r.data(), &payload[..]);
        feed(&mut s, &acks[0]);
        assert!(s.is_finished());
    }

    #[test]
    fn lost_final_ack_recovered_by_resolicitation() {
        let cfg = config(RetxStrategy::GoBackN);
        let payload = data(3 * 1024);
        let mut s = BlastSender::new(1, payload.clone(), &cfg);
        let mut r = BlastReceiver::new(1, payload.len(), &cfg);
        let mut actions = Vec::new();
        s.start(&mut actions);
        // Receiver gets everything; its positive ack is "lost".
        let _lost_acks = deliver_except(&mut r, &transmits(&actions), &[]);
        assert!(r.is_finished());
        // Sender times out, re-solicits with the reliable tail.
        let mut out = Vec::new();
        s.on_timer(RETX_TIMER, &mut out);
        let acks = deliver_except(&mut r, &transmits(&out), &[]);
        assert_eq!(
            acks.len(),
            1,
            "finished receiver must re-ack duplicates of the tail"
        );
        let d = Datagram::parse(&acks[0]).unwrap();
        assert_eq!(d.ack, Some(AckPayload::Positive { acked: 2 }));
        feed(&mut s, &acks[0]);
        assert!(s.is_finished());
    }

    /// The stand-in a retired receiver leaves behind answers exactly
    /// what the finished receiver itself answers, byte for byte, and
    /// nothing else.
    #[test]
    fn retired_receiver_reacks_like_the_finished_engine() {
        // Three full packets and a runt, so the tail has its own length.
        let cfg = config(RetxStrategy::Selective);
        let payload = data(3 * 1024 + 100);
        let mut s = BlastSender::new(7, payload.clone(), &cfg);
        let mut r = BlastReceiver::new(7, payload.len(), &cfg);
        assert!(r.retire().is_none(), "nothing to retire before completion");
        let mut actions = Vec::new();
        s.start(&mut actions);
        let pkts = transmits(&actions);
        deliver_except(&mut r, &pkts, &[]);
        assert!(r.is_finished());

        // A data packet flagged as its round's last, as `id` sends it.
        let last = |id: u32, seq: u32, total: u32, offset: u32, bytes: &[u8]| {
            let mut buf = vec![0u8; 2048];
            let n = DatagramBuilder::new(id)
                .build_data(&mut buf, seq, total, offset, bytes, 1, true)
                .unwrap();
            buf.truncate(n);
            buf
        };
        let tail = &payload[3 * 1024..];
        let mut probes = pkts.clone();
        // The tail with a wrong offset, a wrong length, a sequence
        // beyond the buffer; a mid-sequence packet flagged last; a
        // cancel; a status report.
        probes.push(last(7, 3, 4, 2048, tail));
        probes.push(last(7, 3, 4, 3072, &tail[..50]));
        probes.push(last(7, 4, 8, 4096, tail));
        probes.push(last(7, 1, 4, 1024, &payload[1024..2048]));
        let mut buf = vec![0u8; 64];
        let n = DatagramBuilder::new(7).build_cancel(&mut buf).unwrap();
        probes.push(buf[..n].to_vec());
        let n = DatagramBuilder::new(7)
            .build_ack(&mut buf, 4, &AckPayload::NackFull)
            .unwrap();
        probes.push(buf[..n].to_vec());
        let foreign = last(8, 3, 4, 3072, tail);

        let engine_says: Vec<_> = probes.iter().map(|p| transmits(&feed(&mut r, p))).collect();
        let (bytes, finished) = r.retire().expect("a completed receiver retires");
        assert_eq!(bytes, &payload[..]);
        assert_eq!(finished.transfer_id(), 7);
        let mut out = [0u8; FinishedReceiver::STATUS_LEN];
        let mut answered = 0;
        for (p, want) in probes.iter().zip(&engine_says) {
            let got = finished.reack(&Datagram::parse(p).unwrap(), &mut out);
            let got: Vec<Vec<u8>> = got.map(|n| out[..n].to_vec()).into_iter().collect();
            assert_eq!(&got, want, "probe {:?}", Datagram::parse(p).unwrap());
            answered += got.len();
        }
        assert_eq!(
            answered, 2,
            "the tail, and the mid-sequence packet flagged last"
        );
        let d = Datagram::parse(&out).unwrap();
        assert_eq!(d.ack, Some(AckPayload::Positive { acked: 3 }));
        // Drivers filter ids before an engine; the stand-in checks its own.
        assert_eq!(
            finished.reack(&Datagram::parse(&foreign).unwrap(), &mut out),
            None
        );
    }

    #[test]
    fn retries_exhaust_to_failure() {
        let mut cfg = config(RetxStrategy::FullNoNack);
        cfg.max_retries = 2;
        let mut s = BlastSender::new(1, data(2048), &cfg);
        let mut actions = Vec::new();
        s.start(&mut actions);
        for _ in 0..2 {
            let mut out = Vec::new();
            s.on_timer(RETX_TIMER, &mut out);
            assert!(!s.is_finished());
        }
        let mut out = Vec::new();
        s.on_timer(RETX_TIMER, &mut out);
        assert!(s.is_finished());
        match &out[..] {
            [Action::Complete(info)] => {
                assert!(matches!(
                    info.result,
                    Err(CoreError::RetriesExhausted { retries: 2 })
                ));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn mid_sequence_packets_do_not_trigger_acks() {
        let cfg = config(RetxStrategy::GoBackN);
        let mut r = BlastReceiver::new(1, 8 * 1024, &cfg);
        let b = DatagramBuilder::new(1);
        let mut buf = vec![0u8; 2048];
        let payload = vec![7u8; 1024];
        for seq in 0..7u32 {
            let len = b
                .build_data(&mut buf, seq, 8, seq * 1024, &payload, 0, false)
                .unwrap();
            let out = feed(&mut r, &buf[..len]);
            assert!(
                transmits(&out).is_empty(),
                "no per-packet acks in blast mode"
            );
        }
        assert_eq!(r.stats().acks_sent, 0);
        assert_eq!(r.received_packets(), 7);
    }

    #[test]
    fn positive_ack_below_range_is_ignored() {
        let cfg = config(RetxStrategy::GoBackN);
        let mut s = BlastSender::new(1, data(4 * 1024), &cfg);
        let mut actions = Vec::new();
        s.start(&mut actions);
        let b = DatagramBuilder::new(1);
        let mut buf = vec![0u8; 64];
        let len = b
            .build_ack(&mut buf, 4, &AckPayload::Positive { acked: 1 })
            .unwrap();
        feed(&mut s, &buf[..len]);
        assert!(
            !s.is_finished(),
            "cumulative ack below the range end must not complete"
        );
        let len = b
            .build_ack(&mut buf, 4, &AckPayload::Positive { acked: 3 })
            .unwrap();
        feed(&mut s, &buf[..len]);
        assert!(s.is_finished());
    }

    #[test]
    fn nonsense_nacks_resolicit_not_crash() {
        let cfg = config(RetxStrategy::GoBackN);
        let mut s = BlastSender::new(1, data(4 * 1024), &cfg);
        let mut actions = Vec::new();
        s.start(&mut actions);
        let b = DatagramBuilder::new(1);
        let mut buf = vec![0u8; 64];
        // first_missing beyond the range: sender re-solicits with tail.
        let len = b
            .build_ack(
                &mut buf,
                4,
                &AckPayload::NackFirstMissing { first_missing: 99 },
            )
            .unwrap();
        let out = feed(&mut s, &buf[..len]);
        let resent: Vec<u32> = transmits(&out)
            .iter()
            .map(|p| Datagram::parse(p).unwrap().seq)
            .collect();
        assert_eq!(resent, vec![3]);
    }

    #[test]
    fn nonsense_nack_mid_paced_round_leaves_no_stale_pace_cursor() {
        // Regression: a NACK resolving to `Resolicit` while a paced
        // bitmap round was mid-emission used to leave `pending` aimed
        // at the cleared `pending_set`; the still-armed pace deadline
        // then underflowed `pending_len`.
        let cfg = config(RetxStrategy::Selective).with_pacing(crate::control::PacingConfig::new(
            2,
            std::time::Duration::from_millis(1),
        ));
        let payload = data(8 * 1024);
        let mut s = BlastSender::new(1, payload.clone(), &cfg);
        let mut r = BlastReceiver::new(1, payload.len(), &cfg);
        let mut actions = Vec::new();
        s.start(&mut actions);
        let mut guard = 0;
        while transmits(&actions).len() < 8 {
            s.on_timer(crate::control::PACE_TIMER, &mut actions);
            guard += 1;
            assert!(guard < 16, "round 0 failed to drain");
        }
        // Drop three packets: the bitmap NACK stages a 3-packet round,
        // of which the first burst emits only 2 — mid-emission state.
        let acks = deliver_except(&mut r, &transmits(&actions), &[1, 4, 6]);
        let out = feed(&mut s, &acks[0]);
        assert_eq!(transmits(&out).len(), 2, "paced Set round: first burst");

        // A nonsense NACK (beyond the range) arrives in the gap and
        // resolves to a re-solicitation.
        let b = DatagramBuilder::new(1);
        let mut buf = vec![0u8; 64];
        let len = b
            .build_ack(
                &mut buf,
                8,
                &AckPayload::NackFirstMissing { first_missing: 99 },
            )
            .unwrap();
        let out = feed(&mut s, &buf[..len]);
        assert_eq!(transmits(&out).len(), 1, "re-solicited tail");

        // The superseded round's pace deadline fires: must be inert.
        let mut stale = Vec::new();
        s.on_timer(crate::control::PACE_TIMER, &mut stale);
        assert!(transmits(&stale).is_empty(), "stale pace deadline is inert");

        // And the transfer still converges from here.
        let mut acks = deliver_except(&mut r, &transmits(&out), &[]);
        let mut guard = 0;
        while !s.is_finished() {
            guard += 1;
            assert!(guard < 32, "livelock after stale pace deadline");
            let mut next = Vec::new();
            for a in &acks {
                next.extend(feed(&mut s, a));
            }
            // Drain any paced round fully (idle pace fires are inert).
            for _ in 0..8 {
                s.on_timer(crate::control::PACE_TIMER, &mut next);
            }
            acks = deliver_except(&mut r, &transmits(&next), &[]);
        }
        assert!(r.is_finished());
        assert_eq!(r.data(), &payload[..]);
    }

    #[test]
    fn bitmap_resend_set_includes_beyond_horizon() {
        let resend = |bm: &Bitmap, end| {
            let mut set = Vec::new();
            stage_bitmap_resend(bm, 0, end, &mut set);
            set
        };
        let bm = Bitmap::from_missing(2, 4, [3, 5]).unwrap(); // covers 2..6
        assert_eq!(resend(&bm, 10), vec![3, 5, 6, 7, 8, 9]);
        assert_eq!(resend(&bm, 6), vec![3, 5]);
        // A full-width bitmap may end short of the receiver's horizon:
        // its holes go with the reliable tail alone, unless it reaches
        // the range's end and is the whole report.
        let width = u32::from(Bitmap::MAX_BITS);
        let bm = Bitmap::from_missing(10, Bitmap::MAX_BITS, [10, 500]).unwrap();
        assert_eq!(resend(&bm, 3 * width), vec![10, 500, 3 * width - 1]);
        assert_eq!(resend(&bm, 10 + width), vec![10, 500]);
    }

    /// Selective over a transfer three bitmaps wide, in the harness,
    /// losing `drops` of round 0: (packets retransmitted, rounds).
    fn selective_beyond_one_bitmap(drops: &[u64]) -> (u64, u64) {
        use crate::harness::{Harness, LossPlan};
        let cfg = config(RetxStrategy::Selective).with_packet_payload(64);
        let payload = data(3 * usize::from(Bitmap::MAX_BITS) * 64);
        let mut h = Harness::new(
            BlastSender::new(1, payload.clone(), &cfg),
            BlastReceiver::new(1, payload.len(), &cfg),
            LossPlan::script(drops.to_vec()),
        );
        let outcome = h.run().unwrap();
        assert_eq!(h.received_data(), &payload[..]);
        (
            outcome.sender.data_packets_retransmitted,
            outcome.sender.retransmission_rounds,
        )
    }

    #[test]
    fn selective_past_one_bitmap_resends_only_the_losses() {
        let (retransmitted, _) = selective_beyond_one_bitmap(&[10]);
        assert!(retransmitted <= 2, "{retransmitted} retransmitted");
        // One bitmap-wide window per round, each hole plus its tail.
        let (retransmitted, rounds) = selective_beyond_one_bitmap(&[10, 9_000, 20_000]);
        assert!(
            retransmitted <= 3 + rounds,
            "{retransmitted} retransmitted in {rounds} rounds"
        );
    }

    #[test]
    fn single_packet_blast() {
        let cfg = config(RetxStrategy::GoBackN);
        let payload = data(100);
        let mut s = BlastSender::new(1, payload.clone(), &cfg);
        let mut r = BlastReceiver::new(1, payload.len(), &cfg);
        let mut actions = Vec::new();
        s.start(&mut actions);
        let pkts = transmits(&actions);
        assert_eq!(pkts.len(), 1);
        let d = Datagram::parse(&pkts[0]).unwrap();
        assert!(
            d.is_last() && d.is_reliable(),
            "single packet is the reliable tail"
        );
        let acks = deliver_except(&mut r, &pkts, &[]);
        feed(&mut s, &acks[0]);
        assert!(s.is_finished() && r.is_finished());
        assert_eq!(r.data(), &payload[..]);
    }
}
