//! The blast transport header.
//!
//! This is our equivalent of the V interkernel packet header the paper's
//! kernel-level measurements add on top of raw Ethernet (§2.2): enough
//! state to demultiplex concurrent transfers, order packets within a
//! transfer, mark the reliably-transmitted last packet, and detect
//! corruption.  It is deliberately small (32 bytes) — the paper stresses
//! that per-byte copy costs dominate, so header bytes are not free.
//!
//! Layout (all multi-byte fields big-endian):
//!
//! ```text
//!  0                   1                   2                   3
//!  0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |          magic 0xB1A5         |    version    |     kind      |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |                          transfer id                          |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |                        sequence number                        |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |                  total packets in transfer                    |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |                         payload length                        |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |                  byte offset within transfer                  |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |     retransmission round      |            flags              |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |           checksum            |           reserved            |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! ```

use core::fmt;

use crate::checksum;
use crate::error::{WireError, WireResult};

/// Length of the fixed blast transport header in bytes.
pub const HEADER_LEN: usize = 32;

/// Magic constant identifying blast transport packets.
pub const MAGIC: u16 = 0xB1A5;

/// The protocol version this implementation speaks.
pub const VERSION: u8 = 1;

/// Packet kinds carried in the `kind` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum PacketKind {
    /// A data packet carrying a slice of the transfer buffer.
    Data = 1,
    /// An acknowledgement packet; its payload is an
    /// [`crate::ack::AckPayload`] (positive or one of the NACK forms).
    Ack = 2,
    /// A transfer request (used by `MoveFrom`, where the data flows
    /// towards the requester, and to open transfers in `blast-udp`).
    Request = 3,
    /// Abort an in-progress transfer.
    Cancel = 4,
    /// Control-plane stats query/reply: a client asks a node for a
    /// live metrics snapshot; the node answers with the same kind and
    /// a small text payload.  Carries no transfer state.
    Stats = 5,
    /// Control-plane third-party-copy verb: a client instructs a node
    /// to move a named blob directly to/from another node.  The payload
    /// is a `blast_udp::copy` sub-message (submit / status query /
    /// status reply / digest); the transfer id demultiplexes copies and
    /// the sequence field echoes request nonces.
    Copy = 6,
}

impl PacketKind {
    /// Parse from the wire discriminant.
    pub fn from_u8(v: u8) -> WireResult<Self> {
        match v {
            1 => Ok(PacketKind::Data),
            2 => Ok(PacketKind::Ack),
            3 => Ok(PacketKind::Request),
            4 => Ok(PacketKind::Cancel),
            5 => Ok(PacketKind::Stats),
            6 => Ok(PacketKind::Copy),
            other => Err(WireError::BadKind { found: other }),
        }
    }
}

impl fmt::Display for PacketKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PacketKind::Data => "DATA",
            PacketKind::Ack => "ACK",
            PacketKind::Request => "REQ",
            PacketKind::Cancel => "CANCEL",
            PacketKind::Stats => "STATS",
            PacketKind::Copy => "COPY",
        };
        f.write_str(s)
    }
}

/// Header flag bits.
pub mod flags {
    /// This is the final data packet of a blast sequence.  Per §3.2.3 of
    /// the paper the last packet is "sent reliably, i.e. retransmitted
    /// periodically until an acknowledgement is received".
    pub const LAST: u16 = 1 << 0;
    /// The sender expects an acknowledgement for this specific packet
    /// (every packet in stop-and-wait/sliding-window; only the LAST
    /// packet in blast mode).
    pub const RELIABLE: u16 = 1 << 1;
    /// The packet belongs to a V-kernel IPC operation (MoveTo/MoveFrom);
    /// the kernel demultiplexer routes it accordingly.
    pub const KERNEL: u16 = 1 << 2;
    /// This transfer is one chunk of a larger multi-blast sequence
    /// (§3.1.3: "for such very large sizes, we suggest the use of
    /// multiple blasts").
    pub const MULTIBLAST: u16 = 1 << 3;

    /// Mask of all bits this implementation defines; the rest must be
    /// zero (reserved for future revisions).
    pub const KNOWN: u16 = LAST | RELIABLE | KERNEL | MULTIBLAST;
}

/// Field offsets.
mod field {
    use core::ops::Range;
    pub const MAGIC: Range<usize> = 0..2;
    pub const VERSION: usize = 2;
    pub const KIND: usize = 3;
    pub const TRANSFER_ID: Range<usize> = 4..8;
    pub const SEQ: Range<usize> = 8..12;
    pub const TOTAL: Range<usize> = 12..16;
    pub const PAYLOAD_LEN: Range<usize> = 16..20;
    pub const OFFSET: Range<usize> = 20..24;
    pub const ROUND: Range<usize> = 24..26;
    pub const FLAGS: Range<usize> = 26..28;
    pub const CHECKSUM: Range<usize> = 28..30;
    #[allow(dead_code)] // covered by the checksum; kept to document the layout
    pub const RESERVED: Range<usize> = 30..32;
}

/// Zero-copy view of a blast transport packet: the 32-byte header
/// followed by the payload.
#[derive(Debug, Clone)]
pub struct BlastHeader<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> BlastHeader<T> {
    /// Wrap a buffer without validation; accessors panic on short
    /// buffers.  Use [`new_checked`](Self::new_checked) on untrusted
    /// input.
    pub fn new_unchecked(buffer: T) -> Self {
        BlastHeader { buffer }
    }

    /// Wrap and validate: length, magic, version, kind, payload length
    /// and checksum are all checked.
    pub fn new_checked(buffer: T) -> WireResult<Self> {
        let pkt = BlastHeader::new_unchecked(buffer);
        pkt.check()?;
        Ok(pkt)
    }

    /// Run all structural validations on the wrapped buffer.
    pub fn check(&self) -> WireResult<()> {
        let buf = self.buffer.as_ref();
        if buf.len() < HEADER_LEN {
            return Err(WireError::Truncated {
                needed: HEADER_LEN,
                got: buf.len(),
            });
        }
        if self.magic() != MAGIC {
            return Err(WireError::BadMagic {
                found: self.magic(),
            });
        }
        if self.version() != VERSION {
            return Err(WireError::BadVersion {
                found: self.version(),
            });
        }
        PacketKind::from_u8(buf[field::KIND])?;
        let claimed = self.payload_len() as usize;
        let available = buf.len() - HEADER_LEN;
        if claimed > available {
            return Err(WireError::BadLength { claimed, available });
        }
        if !self.verify_checksum() {
            return Err(WireError::BadChecksum);
        }
        if self.flags() & !flags::KNOWN != 0 {
            return Err(WireError::BadField { field: "flags" });
        }
        if self.kind().expect("kind validated") == PacketKind::Data {
            if self.total() == 0 {
                return Err(WireError::BadField { field: "total" });
            }
            if self.seq() >= self.total() {
                return Err(WireError::BadField { field: "seq" });
            }
        }
        Ok(())
    }

    /// Consume the view, returning the buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    fn u16_at(&self, range: core::ops::Range<usize>) -> u16 {
        let b = &self.buffer.as_ref()[range];
        u16::from_be_bytes([b[0], b[1]])
    }

    fn u32_at(&self, range: core::ops::Range<usize>) -> u32 {
        let b = &self.buffer.as_ref()[range];
        u32::from_be_bytes([b[0], b[1], b[2], b[3]])
    }

    /// The magic constant (should be [`MAGIC`]).
    pub fn magic(&self) -> u16 {
        self.u16_at(field::MAGIC)
    }

    /// Protocol version.
    pub fn version(&self) -> u8 {
        self.buffer.as_ref()[field::VERSION]
    }

    /// Packet kind.
    pub fn kind(&self) -> WireResult<PacketKind> {
        PacketKind::from_u8(self.buffer.as_ref()[field::KIND])
    }

    /// Transfer identifier (demultiplexes concurrent transfers).
    pub fn transfer_id(&self) -> u32 {
        self.u32_at(field::TRANSFER_ID)
    }

    /// Sequence number of this packet within the transfer, from 0.
    pub fn seq(&self) -> u32 {
        self.u32_at(field::SEQ)
    }

    /// Total number of data packets in the transfer.
    pub fn total(&self) -> u32 {
        self.u32_at(field::TOTAL)
    }

    /// Number of payload bytes following the header.
    pub fn payload_len(&self) -> u32 {
        self.u32_at(field::PAYLOAD_LEN)
    }

    /// Byte offset of this packet's payload within the transfer buffer.
    ///
    /// Redundant with `seq × packet_size` for fixed-size packets, but
    /// carrying it explicitly lets the receiver place payload bytes with
    /// no per-transfer state — the paper's premise is that the receive
    /// buffer is pre-allocated, so placement is a pure function of the
    /// header.
    pub fn offset(&self) -> u32 {
        self.u32_at(field::OFFSET)
    }

    /// Retransmission round that produced this packet (0 = first
    /// transmission).  Diagnostic only; receivers must not change
    /// behaviour based on it.
    pub fn round(&self) -> u16 {
        self.u16_at(field::ROUND)
    }

    /// Flag bits (see [`flags`]).
    pub fn flags(&self) -> u16 {
        self.u16_at(field::FLAGS)
    }

    /// Whether the LAST flag is set.
    pub fn is_last(&self) -> bool {
        self.flags() & flags::LAST != 0
    }

    /// Whether the RELIABLE flag is set.
    pub fn is_reliable(&self) -> bool {
        self.flags() & flags::RELIABLE != 0
    }

    /// The checksum field as stored.
    pub fn checksum(&self) -> u16 {
        self.u16_at(field::CHECKSUM)
    }

    /// Verify the header checksum (RFC 1071 over the 32 header bytes,
    /// checksum field included; a correct header folds to `0xffff`).
    ///
    /// The payload is *not* covered: on the paper's hardware payload
    /// integrity is the Ethernet FCS's job (see [`crate::checksum`]).
    pub fn verify_checksum(&self) -> bool {
        checksum::verify(&self.buffer.as_ref()[..HEADER_LEN])
    }

    /// The payload bytes as declared by `payload_len`.
    ///
    /// Panics if the buffer is shorter than the declared payload; call
    /// [`check`](Self::check) first on untrusted input.
    pub fn payload(&self) -> &[u8] {
        let len = self.payload_len() as usize;
        &self.buffer.as_ref()[HEADER_LEN..HEADER_LEN + len]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> BlastHeader<T> {
    /// Borrow the raw underlying buffer mutably.
    pub fn buffer_mut(&mut self) -> &mut [u8] {
        self.buffer.as_mut()
    }

    /// Zero the header region and stamp magic + version, leaving a
    /// well-formed skeleton for the setters.
    pub fn clear(buffer: &mut [u8]) {
        buffer[..HEADER_LEN].fill(0);
        buffer[field::MAGIC].copy_from_slice(&MAGIC.to_be_bytes());
        buffer[field::VERSION] = VERSION;
    }

    fn set_u16_at(&mut self, range: core::ops::Range<usize>, value: u16) {
        self.buffer.as_mut()[range].copy_from_slice(&value.to_be_bytes());
    }

    fn set_u32_at(&mut self, range: core::ops::Range<usize>, value: u32) {
        self.buffer.as_mut()[range].copy_from_slice(&value.to_be_bytes());
    }

    /// Set the packet kind.
    pub fn set_kind(&mut self, kind: PacketKind) {
        self.buffer.as_mut()[field::KIND] = kind as u8;
    }

    /// Set the transfer identifier.
    pub fn set_transfer_id(&mut self, id: u32) {
        self.set_u32_at(field::TRANSFER_ID, id);
    }

    /// Set the sequence number.
    pub fn set_seq(&mut self, seq: u32) {
        self.set_u32_at(field::SEQ, seq);
    }

    /// Set the total packet count.
    pub fn set_total(&mut self, total: u32) {
        self.set_u32_at(field::TOTAL, total);
    }

    /// Set the payload length.
    pub fn set_payload_len(&mut self, len: u32) {
        self.set_u32_at(field::PAYLOAD_LEN, len);
    }

    /// Set the byte offset.
    pub fn set_offset(&mut self, offset: u32) {
        self.set_u32_at(field::OFFSET, offset);
    }

    /// Set the retransmission round.
    pub fn set_round(&mut self, round: u16) {
        self.set_u16_at(field::ROUND, round);
    }

    /// Set the flag bits.
    pub fn set_flags(&mut self, flags: u16) {
        self.set_u16_at(field::FLAGS, flags);
    }

    /// Mutable payload region (everything after the header).
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.buffer.as_mut()[HEADER_LEN..]
    }

    /// Compute and store the header checksum.  Must be called after all
    /// other fields are final.
    pub fn fill_checksum(&mut self) {
        self.set_u16_at(field::CHECKSUM, 0);
        let sum = checksum::internet(&self.buffer.as_ref()[..HEADER_LEN]);
        self.set_u16_at(field::CHECKSUM, sum);
    }
}

impl<T: AsRef<[u8]>> fmt::Display for BlastHeader<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind() {
            Ok(k) => k.to_string(),
            Err(_) => format!(
                "kind?{:#04x}",
                self.buffer.as_ref().get(3).copied().unwrap_or(0)
            ),
        };
        write!(
            f,
            "{kind} xfer={} seq={}/{} len={} round={}{}{}",
            self.transfer_id(),
            self.seq(),
            self.total(),
            self.payload_len(),
            self.round(),
            if self.is_last() { " LAST" } else { "" },
            if self.is_reliable() { " REL" } else { "" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_data_packet() -> Vec<u8> {
        let mut buf = vec![0u8; HEADER_LEN + 16];
        BlastHeader::<&mut [u8]>::clear(&mut buf);
        let mut h = BlastHeader::new_unchecked(&mut buf[..]);
        h.set_kind(PacketKind::Data);
        h.set_transfer_id(0xdead_beef);
        h.set_seq(5);
        h.set_total(64);
        h.set_payload_len(16);
        h.set_offset(5 * 1024);
        h.set_round(2);
        h.set_flags(flags::LAST | flags::RELIABLE);
        h.payload_mut()[..16].copy_from_slice(b"0123456789abcdef");
        h.fill_checksum();
        buf
    }

    #[test]
    fn roundtrip_all_fields() {
        let buf = make_data_packet();
        let h = BlastHeader::new_checked(&buf[..]).unwrap();
        assert_eq!(h.magic(), MAGIC);
        assert_eq!(h.version(), VERSION);
        assert_eq!(h.kind().unwrap(), PacketKind::Data);
        assert_eq!(h.transfer_id(), 0xdead_beef);
        assert_eq!(h.seq(), 5);
        assert_eq!(h.total(), 64);
        assert_eq!(h.payload_len(), 16);
        assert_eq!(h.offset(), 5120);
        assert_eq!(h.round(), 2);
        assert!(h.is_last());
        assert!(h.is_reliable());
        assert_eq!(h.payload(), b"0123456789abcdef");
    }

    #[test]
    fn checksum_catches_header_corruption() {
        let good = make_data_packet();
        assert!(BlastHeader::new_checked(&good[..]).is_ok());
        for byte in 0..HEADER_LEN {
            let mut bad = good.clone();
            bad[byte] ^= 0x40;
            // Any single corrupted header byte must fail validation —
            // either the checksum or a stricter field check trips.
            assert!(
                BlastHeader::new_checked(&bad[..]).is_err(),
                "corruption at byte {byte} survived"
            );
        }
    }

    #[test]
    fn payload_not_covered_by_header_checksum() {
        // Payload integrity is the FCS's job; header checksum must still
        // verify when payload changes.
        let mut buf = make_data_packet();
        buf[HEADER_LEN] ^= 0xff;
        assert!(BlastHeader::new_checked(&buf[..]).is_ok());
    }

    #[test]
    fn rejects_truncation() {
        let buf = make_data_packet();
        for len in 0..HEADER_LEN {
            assert!(matches!(
                BlastHeader::new_checked(&buf[..len]).unwrap_err(),
                WireError::Truncated { .. }
            ));
        }
    }

    #[test]
    fn rejects_bad_magic_version_kind() {
        let mut buf = make_data_packet();
        buf[0] = 0x00;
        // Recompute checksum so the magic check is what trips.
        let mut h = BlastHeader::new_unchecked(&mut buf[..]);
        h.fill_checksum();
        assert!(matches!(
            BlastHeader::new_checked(&buf[..]).unwrap_err(),
            WireError::BadMagic { .. }
        ));

        let mut buf = make_data_packet();
        buf[2] = 99;
        let mut h = BlastHeader::new_unchecked(&mut buf[..]);
        h.fill_checksum();
        assert!(matches!(
            BlastHeader::new_checked(&buf[..]).unwrap_err(),
            WireError::BadVersion { found: 99 }
        ));

        let mut buf = make_data_packet();
        buf[3] = 200;
        let mut h = BlastHeader::new_unchecked(&mut buf[..]);
        h.fill_checksum();
        assert!(matches!(
            BlastHeader::new_checked(&buf[..]).unwrap_err(),
            WireError::BadKind { found: 200 }
        ));
    }

    #[test]
    fn rejects_payload_len_overflow() {
        let mut buf = make_data_packet();
        let mut h = BlastHeader::new_unchecked(&mut buf[..]);
        h.set_payload_len(17); // buffer only has 16 payload bytes
        h.fill_checksum();
        assert!(matches!(
            BlastHeader::new_checked(&buf[..]).unwrap_err(),
            WireError::BadLength {
                claimed: 17,
                available: 16
            }
        ));
    }

    #[test]
    fn rejects_semantic_nonsense_on_data() {
        // seq >= total
        let mut buf = make_data_packet();
        let mut h = BlastHeader::new_unchecked(&mut buf[..]);
        h.set_seq(64);
        h.set_total(64);
        h.fill_checksum();
        assert!(matches!(
            BlastHeader::new_checked(&buf[..]).unwrap_err(),
            WireError::BadField { field: "seq" }
        ));
        // total == 0
        let mut buf = make_data_packet();
        let mut h = BlastHeader::new_unchecked(&mut buf[..]);
        h.set_seq(0);
        h.set_total(0);
        h.fill_checksum();
        assert!(matches!(
            BlastHeader::new_checked(&buf[..]).unwrap_err(),
            WireError::BadField { field: "total" }
        ));
    }

    #[test]
    fn rejects_unknown_flags() {
        let mut buf = make_data_packet();
        let mut h = BlastHeader::new_unchecked(&mut buf[..]);
        h.set_flags(0x8000);
        h.fill_checksum();
        assert!(matches!(
            BlastHeader::new_checked(&buf[..]).unwrap_err(),
            WireError::BadField { field: "flags" }
        ));
    }

    #[test]
    fn ack_packets_skip_data_field_checks() {
        let mut buf = vec![0u8; HEADER_LEN];
        BlastHeader::<&mut [u8]>::clear(&mut buf);
        let mut h = BlastHeader::new_unchecked(&mut buf[..]);
        h.set_kind(PacketKind::Ack);
        // seq/total zero is fine for acks.
        h.fill_checksum();
        assert!(BlastHeader::new_checked(&buf[..]).is_ok());
    }

    #[test]
    fn display_contains_key_fields() {
        let buf = make_data_packet();
        let h = BlastHeader::new_unchecked(&buf[..]);
        let s = h.to_string();
        assert!(s.contains("DATA"), "{s}");
        assert!(s.contains("seq=5/64"), "{s}");
        assert!(s.contains("LAST"), "{s}");
    }

    #[test]
    fn kind_discriminants_roundtrip() {
        for kind in [
            PacketKind::Data,
            PacketKind::Ack,
            PacketKind::Request,
            PacketKind::Cancel,
            PacketKind::Stats,
            PacketKind::Copy,
        ] {
            assert_eq!(PacketKind::from_u8(kind as u8).unwrap(), kind);
        }
        assert!(PacketKind::from_u8(0).is_err());
        assert!(PacketKind::from_u8(7).is_err());
    }
}
