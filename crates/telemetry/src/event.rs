//! The event vocabulary: one fixed-size record per observable moment.
//!
//! A [`TraceEvent`] is 32 bytes of plain data — no strings, no heap.
//! The two payload words `a`/`b` are interpreted per [`EventKind`]
//! (documented on each variant), which keeps the record path free of
//! formatting while the exporters stay expressive.

use core::fmt;

/// What happened.  The discriminant is the wire/ring encoding; values
/// are stable so drained traces remain decodable across versions.
///
/// The `a`/`b` conventions below are what the in-tree hooks emit; the
/// recorder itself does not interpret them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum EventKind {
    /// A blast round began: `a` = retransmission round number,
    /// `b` = data packets offered this round.
    RoundStart = 1,
    /// The round's status report was resolved: `a` = round number,
    /// `b` = 0 clean / 1 NACKed / 2 timed out.
    RoundEnd = 2,
    /// A negative acknowledgement arrived: `a` = round number,
    /// `b` = packets the receiver reported missing (0 if unknown).
    NackReceived = 3,
    /// A retransmission round is being charged: `a` = round number,
    /// `b` = packets queued for retransmission.
    RetxRound = 4,
    /// The estimator accepted an RTT sample: `a` = sample ns,
    /// `b` = smoothed RTT ns after folding it in.
    RttSample = 5,
    /// A sample was rejected by Karn's rule (the solicit was
    /// retransmitted, so the pairing is ambiguous): `a` = round number.
    KarnReject = 6,
    /// AIMD pacer grew the burst after a clean round: `a` = old burst,
    /// `b` = new burst.
    PacerGrow = 7,
    /// AIMD pacer shrank the burst on loss (by the share of its round
    /// a report asked for again, or by half on a timeout): `a` = old
    /// burst, `b` = new burst.
    PacerShrink = 8,
    /// Retransmission timeout backed off: `a` = old RTO ns,
    /// `b` = new RTO ns.
    RtoBackoff = 9,
    /// The shared buffer pool ran dry and a checkout had to allocate:
    /// `a` = fresh allocations so far, `b` = buffers requested.
    PoolExhausted = 10,
    /// A receiver emitted a status report: `a` = 1 if positive ack,
    /// `b` = packets still missing.
    StatusSend = 11,
    /// A round's reliable tail was re-sent as a probe, before its
    /// retransmission timeout: `a` = round number, `b` = packets the
    /// round sent.
    TailProbe = 12,
    /// A session entered the node's table: `a` = direction
    /// (0 push / 1 pull), `b` = total data packets.
    SessionAdmit = 16,
    /// A session left the table: `a` = 1 success / 0 failure,
    /// `b` = bytes transferred.
    SessionReap = 17,
    /// One reactor tick that did work: `a` = datagrams drained,
    /// `b` = timers fired.
    ShardTick = 18,
    /// A remote `Stats` snapshot was served: `a` = reply bytes.
    StatsServed = 19,
    /// A third-party copy was admitted (the session field carries the
    /// copy id): `a` = direction (0 push / 1 pull), `b` = the remote
    /// node's port.
    CopyAdmit = 20,
    /// A third-party copy finished: `a` = 1 success / 0 failure,
    /// `b` = bytes moved.
    CopyDone = 21,
    /// A copy submit carried the orchestrating client's trace epoch,
    /// anchoring this host's timeline to the client's: `a` = the
    /// client's epoch (unix ns), `b` = this recorder's epoch (unix ns).
    /// Subtracting aligns the two hosts' spans in one Perfetto view.
    ClockAnchor = 22,
    /// A batched send was submitted to the kernel: `a` = datagrams in
    /// the batch, `b` = syscalls it took.
    BatchSubmit = 24,
    /// The event wait woke on socket readiness: `a` = wait budget ns.
    WakeEvent = 25,
    /// The event wait expired on its timer: `a` = wait budget ns.
    WakeTimeout = 26,
    /// The kernel shed an outbound datagram (ENOBUFS/EAGAIN):
    /// `a` = drops so far.
    SendDrop = 27,
    /// Segmentation-offloaded sends were submitted: `a` = datagrams
    /// that travelled coalesced, `b` = super-datagrams carrying them.
    GsoSubmit = 28,
    /// GRO-coalesced reads were split: `a` = datagrams recovered,
    /// `b` = coalesced buffers they came from.
    GroReceive = 29,
    /// The batched backend probed `UDP_SEGMENT`/`UDP_GRO` at socket
    /// setup: `a` = 1 if GSO is usable, `b` = 1 if GRO is usable.
    OffloadProbe = 30,
}

impl EventKind {
    /// Decode a ring/wire discriminant.
    pub fn from_u16(v: u16) -> Option<EventKind> {
        Some(match v {
            1 => EventKind::RoundStart,
            2 => EventKind::RoundEnd,
            3 => EventKind::NackReceived,
            4 => EventKind::RetxRound,
            5 => EventKind::RttSample,
            6 => EventKind::KarnReject,
            7 => EventKind::PacerGrow,
            8 => EventKind::PacerShrink,
            9 => EventKind::RtoBackoff,
            10 => EventKind::PoolExhausted,
            11 => EventKind::StatusSend,
            12 => EventKind::TailProbe,
            16 => EventKind::SessionAdmit,
            17 => EventKind::SessionReap,
            18 => EventKind::ShardTick,
            19 => EventKind::StatsServed,
            20 => EventKind::CopyAdmit,
            21 => EventKind::CopyDone,
            22 => EventKind::ClockAnchor,
            24 => EventKind::BatchSubmit,
            25 => EventKind::WakeEvent,
            26 => EventKind::WakeTimeout,
            27 => EventKind::SendDrop,
            28 => EventKind::GsoSubmit,
            29 => EventKind::GroReceive,
            30 => EventKind::OffloadProbe,
            _ => return None,
        })
    }

    /// Stable kebab-case label, used by both exporters.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::RoundStart => "round-start",
            EventKind::RoundEnd => "round-end",
            EventKind::NackReceived => "nack",
            EventKind::RetxRound => "retx-round",
            EventKind::RttSample => "rtt-sample",
            EventKind::KarnReject => "karn-reject",
            EventKind::PacerGrow => "pacer-grow",
            EventKind::PacerShrink => "pacer-shrink",
            EventKind::RtoBackoff => "rto-backoff",
            EventKind::PoolExhausted => "pool-exhausted",
            EventKind::StatusSend => "status-send",
            EventKind::TailProbe => "tail-probe",
            EventKind::SessionAdmit => "session-admit",
            EventKind::SessionReap => "session-reap",
            EventKind::ShardTick => "shard-tick",
            EventKind::StatsServed => "stats-served",
            EventKind::CopyAdmit => "copy-admit",
            EventKind::CopyDone => "copy-done",
            EventKind::ClockAnchor => "clock-anchor",
            EventKind::BatchSubmit => "batch-submit",
            EventKind::WakeEvent => "wake-event",
            EventKind::WakeTimeout => "wake-timeout",
            EventKind::SendDrop => "send-drop",
            EventKind::GsoSubmit => "gso-submit",
            EventKind::GroReceive => "gro-receive",
            EventKind::OffloadProbe => "offload-probe",
        }
    }

    /// Every defined kind, for exhaustive tests.
    pub const ALL: [EventKind; 26] = [
        EventKind::RoundStart,
        EventKind::RoundEnd,
        EventKind::NackReceived,
        EventKind::RetxRound,
        EventKind::RttSample,
        EventKind::KarnReject,
        EventKind::PacerGrow,
        EventKind::PacerShrink,
        EventKind::RtoBackoff,
        EventKind::PoolExhausted,
        EventKind::StatusSend,
        EventKind::TailProbe,
        EventKind::SessionAdmit,
        EventKind::SessionReap,
        EventKind::ShardTick,
        EventKind::StatsServed,
        EventKind::CopyAdmit,
        EventKind::CopyDone,
        EventKind::ClockAnchor,
        EventKind::BatchSubmit,
        EventKind::WakeEvent,
        EventKind::WakeTimeout,
        EventKind::SendDrop,
        EventKind::GsoSubmit,
        EventKind::GroReceive,
        EventKind::OffloadProbe,
    ];
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One recorded moment: fixed size, `Copy`, nothing heap-allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the recorder's epoch (the node's start, a
    /// driver's first tick — any fixed per-run origin).
    pub ts_ns: u64,
    /// The session/transfer the event belongs to (0 = no session:
    /// shard-level events like ticks and IO waits).
    pub session: u32,
    /// The reactor shard (or standalone producer) that recorded it.
    pub shard: u16,
    /// What happened.
    pub kind: EventKind,
    /// First payload word; meaning per [`EventKind`].
    pub a: u64,
    /// Second payload word; meaning per [`EventKind`].
    pub b: u64,
}

impl TraceEvent {
    /// Pack into the ring's four-word slot encoding.
    pub(crate) fn pack(&self) -> [u64; 4] {
        let meta = (u64::from(self.session) << 32)
            | (u64::from(self.shard) << 16)
            | u64::from(self.kind as u16);
        [self.ts_ns, meta, self.a, self.b]
    }

    /// Unpack a four-word slot; `None` if the kind discriminant is
    /// unknown (a torn or stale slot — never happens in SPSC use).
    pub(crate) fn unpack(w: [u64; 4]) -> Option<TraceEvent> {
        let kind = EventKind::from_u16((w[1] & 0xffff) as u16)?;
        Some(TraceEvent {
            ts_ns: w[0],
            session: (w[1] >> 32) as u32,
            shard: ((w[1] >> 16) & 0xffff) as u16,
            kind,
            a: w[2],
            b: w[3],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_roundtrip_their_discriminants() {
        for kind in EventKind::ALL {
            assert_eq!(EventKind::from_u16(kind as u16), Some(kind));
            assert!(!kind.label().is_empty());
            assert_eq!(kind.to_string(), kind.label());
        }
        assert_eq!(EventKind::from_u16(0), None);
        assert_eq!(EventKind::from_u16(999), None);
    }

    #[test]
    fn events_pack_and_unpack_losslessly() {
        let ev = TraceEvent {
            ts_ns: u64::MAX - 7,
            session: 0xdead_beef,
            shard: 0xabc,
            kind: EventKind::PacerShrink,
            a: 64,
            b: 32,
        };
        assert_eq!(TraceEvent::unpack(ev.pack()), Some(ev));
    }

    #[test]
    fn unknown_kind_fails_unpack() {
        assert_eq!(TraceEvent::unpack([0, 0xffff, 0, 0]), None);
    }
}
