//! Assembling and disassembling complete transport datagrams.
//!
//! The sans-I/O engines in `blast-core` deal in *transport* datagrams —
//! a [`BlastHeader`] followed by payload bytes.  The drivers (simulator,
//! UDP) wrap these in whatever framing their medium needs (Ethernet II in
//! `blast-sim`, nothing extra over UDP).  This module provides:
//!
//! * [`DatagramBuilder`] — writes well-formed datagrams into a caller
//!   buffer with a single copy of the payload;
//! * [`Datagram`] — a fully-validated parsed view, with the ack payload
//!   and the extension area ([`crate::ext`]) already decoded when
//!   present.

use crate::ack::AckPayload;
use crate::error::{WireError, WireResult};
use crate::ext::Ext;
use crate::header::{flags, BlastHeader, PacketKind, HEADER_LEN};

/// A parsed, validated transport datagram.
///
/// Borrows the underlying receive buffer; `payload` points at the data
/// bytes in place (no copy — the engines copy straight into the
/// pre-allocated transfer buffer, honouring the paper's no-intermediate-
/// copy design).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datagram<'a> {
    /// Packet kind.
    pub kind: PacketKind,
    /// Transfer this packet belongs to.
    pub transfer_id: u32,
    /// Sequence number within the transfer (data packets; 0 otherwise).
    pub seq: u32,
    /// Total data packets in the transfer.
    pub total: u32,
    /// Byte offset of `payload` within the transfer.
    pub offset: u32,
    /// Retransmission round that produced the packet.
    pub round: u16,
    /// Raw flag bits.
    pub flags: u16,
    /// Payload bytes (data packets; empty for acks — see `ack`), the
    /// extension area split off.
    pub payload: &'a [u8],
    /// Decoded acknowledgement, for `PacketKind::Ack` packets.
    pub ack: Option<AckPayload>,
    /// The extension area's known fields ([`Ext::NONE`] without one).
    pub ext: Ext,
}

impl<'a> Datagram<'a> {
    /// Parse and validate a transport datagram from raw bytes.
    pub fn parse(buf: &'a [u8]) -> WireResult<Self> {
        let view = BlastHeader::new_checked(buf)?;
        let kind = view.kind().expect("kind validated by new_checked");
        let payload_len = view.payload_len() as usize;
        let mut payload = &buf[HEADER_LEN..HEADER_LEN + payload_len];
        let mut ext = Ext::NONE;
        if view.flags() & flags::EXT != 0 {
            (payload, ext) = Ext::split(payload)?;
        }
        let ack = match kind {
            PacketKind::Ack => Some(AckPayload::decode(payload)?),
            _ => None,
        };
        Ok(Datagram {
            kind,
            transfer_id: view.transfer_id(),
            seq: view.seq(),
            total: view.total(),
            offset: view.offset(),
            round: view.round(),
            flags: view.flags(),
            payload,
            ack,
            ext,
        })
    }

    /// Whether the LAST flag is set.
    pub fn is_last(&self) -> bool {
        self.flags & flags::LAST != 0
    }

    /// Whether the RELIABLE flag is set.
    pub fn is_reliable(&self) -> bool {
        self.flags & flags::RELIABLE != 0
    }
}

/// Writes transport datagrams into caller-provided buffers.
///
/// All `build_*` methods return the total datagram length written.
///
/// ```
/// use blast_wire::packet::{Datagram, DatagramBuilder};
/// use blast_wire::header::PacketKind;
///
/// let mut buf = [0u8; 2048];
/// let b = DatagramBuilder::new(42);
/// let len = b.build_data(&mut buf, 3, 64, 3 * 1024, b"payload bytes", 0, false).unwrap();
/// let d = Datagram::parse(&buf[..len]).unwrap();
/// assert_eq!(d.kind, PacketKind::Data);
/// assert_eq!(d.transfer_id, 42);
/// assert_eq!(d.payload, b"payload bytes");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct DatagramBuilder {
    transfer_id: u32,
    kernel: bool,
    multiblast: bool,
    ext: Ext,
}

impl DatagramBuilder {
    /// Builder for packets of transfer `transfer_id`.
    pub fn new(transfer_id: u32) -> Self {
        DatagramBuilder {
            transfer_id,
            kernel: false,
            multiblast: false,
            ext: Ext::NONE,
        }
    }

    /// Mark packets as belonging to a V-kernel IPC operation.
    pub fn kernel(mut self, yes: bool) -> Self {
        self.kernel = yes;
        self
    }

    /// Mark packets as chunks of a multi-blast sequence.
    pub fn multiblast(mut self, yes: bool) -> Self {
        self.multiblast = yes;
        self
    }

    /// End every packet's payload with `ext`'s extension area (none
    /// when it is empty), written in place after the body.
    pub fn ext(mut self, ext: Ext) -> Self {
        self.ext = ext;
        self
    }

    fn base_flags(&self) -> u16 {
        let mut f = 0;
        if self.kernel {
            f |= flags::KERNEL;
        }
        if self.multiblast {
            f |= flags::MULTIBLAST;
        }
        if !self.ext.is_empty() {
            f |= flags::EXT;
        }
        f
    }

    // Private helper mirroring the header's field list one-to-one; a
    // params struct would just restate `BlastHeader` field by field.
    #[allow(clippy::too_many_arguments)]
    fn emit(
        &self,
        buf: &mut [u8],
        kind: PacketKind,
        seq: u32,
        total: u32,
        offset: u32,
        payload: &[u8],
        round: u16,
        extra_flags: u16,
    ) -> WireResult<usize> {
        let body = payload.len();
        let need = HEADER_LEN + body + self.ext.encoded_len();
        if buf.len() < need {
            return Err(WireError::Truncated {
                needed: need,
                got: buf.len(),
            });
        }
        BlastHeader::<&mut [u8]>::clear(buf);
        let mut h = BlastHeader::new_unchecked(&mut buf[..need]);
        h.set_kind(kind);
        h.set_transfer_id(self.transfer_id);
        h.set_seq(seq);
        h.set_total(total);
        h.set_offset(offset);
        h.set_payload_len((need - HEADER_LEN) as u32);
        h.set_round(round);
        h.set_flags(self.base_flags() | extra_flags);
        let out = h.payload_mut();
        out[..body].copy_from_slice(payload);
        self.ext.write(&mut out[body..])?;
        h.fill_checksum();
        Ok(need)
    }

    /// Build a data packet.  `last` sets the LAST|RELIABLE flags as the
    /// blast protocol requires for the final packet of a sequence.
    #[allow(clippy::too_many_arguments)]
    pub fn build_data(
        &self,
        buf: &mut [u8],
        seq: u32,
        total: u32,
        offset: u32,
        payload: &[u8],
        round: u16,
        last: bool,
    ) -> WireResult<usize> {
        let mut extra = 0;
        if last {
            extra |= flags::LAST | flags::RELIABLE;
        }
        self.emit(
            buf,
            PacketKind::Data,
            seq,
            total,
            offset,
            payload,
            round,
            extra,
        )
    }

    /// Build a data packet that is individually acknowledged (stop-and-
    /// wait and sliding-window modes): RELIABLE is always set, LAST only
    /// on the final packet.
    #[allow(clippy::too_many_arguments)]
    pub fn build_reliable_data(
        &self,
        buf: &mut [u8],
        seq: u32,
        total: u32,
        offset: u32,
        payload: &[u8],
        round: u16,
    ) -> WireResult<usize> {
        let mut extra = flags::RELIABLE;
        if seq + 1 == total {
            extra |= flags::LAST;
        }
        self.emit(
            buf,
            PacketKind::Data,
            seq,
            total,
            offset,
            payload,
            round,
            extra,
        )
    }

    /// Build an acknowledgement packet carrying `ack`, answering round 0.
    pub fn build_ack(&self, buf: &mut [u8], total: u32, ack: &AckPayload) -> WireResult<usize> {
        self.build_status(buf, total, 0, ack)
    }

    /// Build a blast status report carrying `ack` that answers a data
    /// packet of retransmission round `round`: the header's round field
    /// echoes it, so a sender can tell a report for its current round
    /// from a late one for an earlier round.
    pub fn build_status(
        &self,
        buf: &mut [u8],
        total: u32,
        round: u16,
        ack: &AckPayload,
    ) -> WireResult<usize> {
        // Stack staging: ack payloads are bounded, so encoding never
        // touches the heap.
        let mut payload = [0u8; AckPayload::MAX_ENCODED_LEN];
        let n = ack.encode(&mut payload)?;
        self.emit(buf, PacketKind::Ack, 0, total, 0, &payload[..n], round, 0)
    }

    /// Build a transfer request packet (`MoveFrom`, session setup).
    /// `total` advertises how many packets the responder should send and
    /// `payload` carries request-specific bytes (e.g. a file name).
    pub fn build_request(&self, buf: &mut [u8], total: u32, payload: &[u8]) -> WireResult<usize> {
        self.emit(buf, PacketKind::Request, 0, total, 0, payload, 0, 0)
    }

    /// Build a cancel packet aborting the transfer.
    pub fn build_cancel(&self, buf: &mut [u8]) -> WireResult<usize> {
        self.emit(buf, PacketKind::Cancel, 0, 0, 0, &[], 0, 0)
    }

    /// Build a control-plane stats packet.  A query carries an empty
    /// payload; the node's reply reuses the kind with the snapshot text
    /// as payload.  `seq` echoes the query's nonce so a client can
    /// match replies to requests.
    pub fn build_stats(&self, buf: &mut [u8], seq: u32, payload: &[u8]) -> WireResult<usize> {
        self.emit(buf, PacketKind::Stats, seq, 0, 0, payload, 0, 0)
    }

    /// Build a control-plane third-party-copy packet.  The payload is a
    /// `blast_udp::copy` sub-message (submit, status query/reply,
    /// digest); `seq` carries the request nonce echoed in replies, and
    /// the builder's transfer id names the copy being discussed.
    pub fn build_copy(&self, buf: &mut [u8], seq: u32, payload: &[u8]) -> WireResult<usize> {
        self.emit(buf, PacketKind::Copy, seq, 0, 0, payload, 0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ack::Bitmap;

    #[test]
    fn data_roundtrip_with_flags() {
        let mut buf = [0u8; 256];
        let b = DatagramBuilder::new(9).kernel(true);
        let len = b
            .build_data(&mut buf, 63, 64, 63 * 1024, b"tail", 1, true)
            .unwrap();
        let d = Datagram::parse(&buf[..len]).unwrap();
        assert_eq!(d.kind, PacketKind::Data);
        assert_eq!(d.transfer_id, 9);
        assert_eq!(d.seq, 63);
        assert_eq!(d.total, 64);
        assert_eq!(d.offset, 63 * 1024);
        assert_eq!(d.round, 1);
        assert!(d.is_last());
        assert!(d.is_reliable());
        assert_eq!(d.flags & flags::KERNEL, flags::KERNEL);
        assert_eq!(d.payload, b"tail");
        assert!(d.ack.is_none());
    }

    #[test]
    fn reliable_data_sets_last_only_on_final() {
        let mut buf = [0u8; 256];
        let b = DatagramBuilder::new(1);
        let len = b.build_reliable_data(&mut buf, 0, 3, 0, b"x", 0).unwrap();
        let d = Datagram::parse(&buf[..len]).unwrap();
        assert!(d.is_reliable());
        assert!(!d.is_last());
        let len = b
            .build_reliable_data(&mut buf, 2, 3, 2048, b"x", 0)
            .unwrap();
        let d = Datagram::parse(&buf[..len]).unwrap();
        assert!(d.is_reliable());
        assert!(d.is_last());
    }

    #[test]
    fn ack_roundtrip_all_variants() {
        let mut buf = [0u8; 2048];
        let b = DatagramBuilder::new(5);
        let variants = [
            AckPayload::Positive { acked: 63 },
            AckPayload::NackFull,
            AckPayload::NackFirstMissing { first_missing: 7 },
            AckPayload::NackBitmap(Bitmap::from_missing(0, 64, [1, 2, 60]).unwrap()),
        ];
        for ack in variants {
            let len = b.build_ack(&mut buf, 64, &ack).unwrap();
            let d = Datagram::parse(&buf[..len]).unwrap();
            assert_eq!(d.kind, PacketKind::Ack);
            assert_eq!(d.total, 64);
            assert_eq!(d.ack.as_ref(), Some(&ack));
            assert_eq!(d.round, 0);
        }
    }

    /// A status report's round echo rides the header's round field: the
    /// report is the plain ack's length, and only that field differs.
    #[test]
    fn a_status_report_echoes_its_round_in_the_header() {
        let (mut plain, mut echo) = ([0u8; 64], [0u8; 64]);
        let b = DatagramBuilder::new(5);
        let ack = AckPayload::NackFirstMissing { first_missing: 7 };
        let n = b.build_ack(&mut plain, 64, &ack).unwrap();
        let m = b.build_status(&mut echo, 64, 3, &ack).unwrap();
        assert_eq!(n, m);
        let d = Datagram::parse(&echo[..m]).unwrap();
        assert_eq!((d.round, d.ack), (3, Some(ack)));
        let differ = (0..n).filter(|&i| plain[i] != echo[i]).count();
        assert!(differ <= 2 + 4, "the round and the checksum only");
    }

    #[test]
    fn request_and_cancel_roundtrip() {
        let mut buf = [0u8; 256];
        let b = DatagramBuilder::new(77);
        let len = b.build_request(&mut buf, 16, b"/etc/motd").unwrap();
        let d = Datagram::parse(&buf[..len]).unwrap();
        assert_eq!(d.kind, PacketKind::Request);
        assert_eq!(d.total, 16);
        assert_eq!(d.payload, b"/etc/motd");

        let len = b.build_cancel(&mut buf).unwrap();
        let d = Datagram::parse(&buf[..len]).unwrap();
        assert_eq!(d.kind, PacketKind::Cancel);
        assert!(d.payload.is_empty());
    }

    #[test]
    fn copy_roundtrip() {
        let mut buf = [0u8; 256];
        let b = DatagramBuilder::new(31);
        let len = b.build_copy(&mut buf, 0xfeed, b"submit bytes").unwrap();
        let d = Datagram::parse(&buf[..len]).unwrap();
        assert_eq!(d.kind, PacketKind::Copy);
        assert_eq!(d.transfer_id, 31);
        assert_eq!(d.seq, 0xfeed);
        assert_eq!(d.payload, b"submit bytes");
        assert!(d.ack.is_none());
    }

    #[test]
    fn build_rejects_small_buffer() {
        let mut buf = [0u8; HEADER_LEN + 3];
        let b = DatagramBuilder::new(1);
        assert!(b
            .build_data(&mut buf, 0, 1, 0, b"too big for that", 0, true)
            .is_err());
        assert!(b.build_data(&mut buf, 0, 1, 0, b"ok!", 0, true).is_ok());
    }

    #[test]
    fn parse_rejects_corrupted_ack_payload() {
        let mut buf = [0u8; 256];
        let b = DatagramBuilder::new(5);
        let len = b
            .build_ack(&mut buf, 64, &AckPayload::Positive { acked: 63 })
            .unwrap();
        // Corrupt the ack tag byte; header checksum doesn't cover payload
        // so the ack decoder must catch it.
        buf[HEADER_LEN] = 0x99;
        assert_eq!(Datagram::parse(&buf[..len]).unwrap_err(), WireError::BadAck);
    }

    #[test]
    fn parse_is_total_on_garbage() {
        // No input may panic the parser.  One buffer serves every case:
        // each iteration extends it by the next pseudo-random byte, so
        // the parser sees all prefixes without a collect per length.
        let mut garbage = Vec::with_capacity(128);
        for len in 0..128 {
            garbage.push((len * 37 + 11) as u8);
            let _ = Datagram::parse(&garbage);
        }
        let _ = Datagram::parse(&[]);
    }
}
