//! Acknowledgement payload encodings.
//!
//! §3.2 of the paper distinguishes four retransmission strategies for the
//! blast protocol, which differ in what the acknowledgement to the last
//! packet says:
//!
//! 1. *full retransmission, no NACK* — only a positive ack exists; the
//!    sender times out otherwise;
//! 2. *full retransmission with NACK* — the receiver of the last packet
//!    reports failure without details;
//! 3. *partial (go-back-n) retransmission* — "the acknowledgement to the
//!    last packet indicates which is the first of the D−1 unreliably
//!    transmitted packets that was not received";
//! 4. *selective retransmission* — the ack indicates "which of the D−1
//!    unreliably transmitted packets did not get to their destination",
//!    i.e. a set of missing packets, encoded here as a bitmap.
//!
//! All four are carried as the payload of a
//! [`PacketKind::Ack`](crate::header::PacketKind::Ack) packet.  Stop-and-wait and
//! sliding-window per-packet acks use [`AckPayload::Positive`] with the
//! acked sequence number.

use core::fmt;

use crate::error::{WireError, WireResult};

/// Discriminant tags on the wire.
mod tag {
    pub const POSITIVE: u8 = 1;
    pub const NACK_FULL: u8 = 2;
    pub const NACK_FIRST_MISSING: u8 = 3;
    pub const NACK_BITMAP: u8 = 4;
}

/// A compact bitmap of packet sequence numbers, used by the selective
/// retransmission NACK to report the set of missing packets.
///
/// Bit `i` refers to sequence number `base + i`; a **set** bit means the
/// packet is *missing* and must be retransmitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    base: u32,
    nbits: u16,
    bits: Vec<u8>,
}

impl Bitmap {
    /// Maximum number of bits a single bitmap can carry.
    ///
    /// Bounded so the NACK always fits in the paper's 64-byte
    /// acknowledgement packet budget minus headers would be nice, but
    /// selective NACKs for large transfers legitimately need more; we cap
    /// at one Ethernet payload.
    pub const MAX_BITS: u16 = 8 * 1024;

    /// Create an empty (all-received) bitmap covering
    /// `[base, base+nbits)`.
    pub fn new(base: u32, nbits: u16) -> Self {
        Bitmap {
            base,
            nbits,
            bits: vec![0; (nbits as usize).div_ceil(8)],
        }
    }

    /// Build a bitmap from an iterator of missing sequence numbers.
    ///
    /// `base` should be the smallest missing sequence number (or 0);
    /// sequence numbers outside `[base, base + nbits)` are rejected.
    pub fn from_missing<I: IntoIterator<Item = u32>>(
        base: u32,
        nbits: u16,
        missing: I,
    ) -> WireResult<Self> {
        let mut bm = Bitmap::new(base, nbits);
        for seq in missing {
            bm.set_missing(seq)?;
        }
        Ok(bm)
    }

    /// First sequence number covered.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Number of sequence numbers covered.
    pub fn nbits(&self) -> u16 {
        self.nbits
    }

    /// Mark `seq` missing.
    pub fn set_missing(&mut self, seq: u32) -> WireResult<()> {
        let idx = self.index_of(seq)?;
        self.bits[idx / 8] |= 1 << (idx % 8);
        Ok(())
    }

    /// Whether `seq` is marked missing.  Sequence numbers outside the
    /// covered range are reported as not missing.
    pub fn is_missing(&self, seq: u32) -> bool {
        match self.index_of(seq) {
            Ok(idx) => self.bits[idx / 8] & (1 << (idx % 8)) != 0,
            Err(_) => false,
        }
    }

    /// Iterate over the missing sequence numbers in increasing order.
    pub fn missing(&self) -> impl Iterator<Item = u32> + '_ {
        (0..u32::from(self.nbits))
            .filter(move |i| self.bits[(*i / 8) as usize] & (1 << (i % 8)) != 0)
            .map(move |i| self.base + i)
    }

    /// Number of missing sequence numbers.
    pub fn count_missing(&self) -> usize {
        self.bits.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// True when no packet is marked missing.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&b| b == 0)
    }

    fn index_of(&self, seq: u32) -> WireResult<usize> {
        if seq < self.base || seq - self.base >= u32::from(self.nbits) {
            return Err(WireError::BadField {
                field: "bitmap seq",
            });
        }
        Ok((seq - self.base) as usize)
    }

    fn encoded_len(&self) -> usize {
        4 + 2 + self.bits.len()
    }
}

/// The payload of an acknowledgement packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AckPayload {
    /// Positive acknowledgement.  `acked` is the sequence number being
    /// acknowledged: the single packet for stop-and-wait/sliding-window
    /// acks, or the last packet's sequence number for a whole-blast ack.
    Positive {
        /// Sequence number acknowledged.
        acked: u32,
    },
    /// Negative acknowledgement carrying no detail: "retransmit
    /// everything" (strategy 2).
    NackFull,
    /// Negative acknowledgement carrying the first missing sequence
    /// number: "retransmit from here" (go-back-n, strategy 3).
    NackFirstMissing {
        /// The first sequence number not received.
        first_missing: u32,
    },
    /// Negative acknowledgement carrying the full set of missing packets
    /// (selective retransmission, strategy 4).
    NackBitmap(Bitmap),
}

impl AckPayload {
    /// Upper bound on [`encoded_len`](Self::encoded_len) over every
    /// variant — the stack/scratch buffer size that always suffices for
    /// in-place encoding (a full-width bitmap NACK plus its header).
    pub const MAX_ENCODED_LEN: usize = 1 + 4 + 2 + (Bitmap::MAX_BITS as usize) / 8;

    /// Number of bytes [`encode`](Self::encode) will write.
    pub fn encoded_len(&self) -> usize {
        match self {
            AckPayload::Positive { .. } => 1 + 4,
            AckPayload::NackFull => 1,
            AckPayload::NackFirstMissing { .. } => 1 + 4,
            AckPayload::NackBitmap(bm) => 1 + bm.encoded_len(),
        }
    }

    /// Serialize into `buf`, returning the number of bytes written.
    pub fn encode(&self, buf: &mut [u8]) -> WireResult<usize> {
        let need = self.encoded_len();
        if buf.len() < need {
            return Err(WireError::Truncated {
                needed: need,
                got: buf.len(),
            });
        }
        match self {
            AckPayload::Positive { acked } => {
                buf[0] = tag::POSITIVE;
                buf[1..5].copy_from_slice(&acked.to_be_bytes());
            }
            AckPayload::NackFull => {
                buf[0] = tag::NACK_FULL;
            }
            AckPayload::NackFirstMissing { first_missing } => {
                buf[0] = tag::NACK_FIRST_MISSING;
                buf[1..5].copy_from_slice(&first_missing.to_be_bytes());
            }
            AckPayload::NackBitmap(bm) => {
                buf[0] = tag::NACK_BITMAP;
                buf[1..5].copy_from_slice(&bm.base.to_be_bytes());
                buf[5..7].copy_from_slice(&bm.nbits.to_be_bytes());
                buf[7..7 + bm.bits.len()].copy_from_slice(&bm.bits);
            }
        }
        Ok(need)
    }

    /// Parse from the payload of an ack packet.
    pub fn decode(buf: &[u8]) -> WireResult<Self> {
        let (&tag_byte, rest) = buf
            .split_first()
            .ok_or(WireError::Truncated { needed: 1, got: 0 })?;
        match tag_byte {
            tag::POSITIVE => {
                let acked = read_u32(rest)?;
                Ok(AckPayload::Positive { acked })
            }
            tag::NACK_FULL => Ok(AckPayload::NackFull),
            tag::NACK_FIRST_MISSING => {
                let first_missing = read_u32(rest)?;
                Ok(AckPayload::NackFirstMissing { first_missing })
            }
            tag::NACK_BITMAP => {
                if rest.len() < 6 {
                    return Err(WireError::Truncated {
                        needed: 7,
                        got: buf.len(),
                    });
                }
                let base = u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]);
                let nbits = u16::from_be_bytes([rest[4], rest[5]]);
                // The range must fit the sequence space: every reader
                // adds offsets to `base`.
                if nbits > Bitmap::MAX_BITS || base.checked_add(u32::from(nbits)).is_none() {
                    return Err(WireError::BadField {
                        field: "bitmap nbits",
                    });
                }
                let nbytes = (nbits as usize).div_ceil(8);
                let body = &rest[6..];
                if body.len() < nbytes {
                    return Err(WireError::Truncated {
                        needed: 7 + nbytes,
                        got: buf.len(),
                    });
                }
                let bits = body[..nbytes].to_vec();
                // Trailing bits beyond nbits must be zero so that the
                // encoding is canonical.
                if nbits % 8 != 0 {
                    let last = bits[nbytes - 1];
                    let mask = !((1u16 << (nbits % 8)) - 1) as u8;
                    if last & mask != 0 {
                        return Err(WireError::BadField {
                            field: "bitmap padding",
                        });
                    }
                }
                Ok(AckPayload::NackBitmap(Bitmap { base, nbits, bits }))
            }
            _ => Err(WireError::BadAck),
        }
    }

    /// True for any of the negative forms.
    pub fn is_nack(&self) -> bool {
        !matches!(self, AckPayload::Positive { .. })
    }
}

fn read_u32(buf: &[u8]) -> WireResult<u32> {
    if buf.len() < 4 {
        return Err(WireError::Truncated {
            needed: 4,
            got: buf.len(),
        });
    }
    Ok(u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]))
}

impl fmt::Display for AckPayload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AckPayload::Positive { acked } => write!(f, "ACK({acked})"),
            AckPayload::NackFull => write!(f, "NACK(full)"),
            AckPayload::NackFirstMissing { first_missing } => {
                write!(f, "NACK(from {first_missing})")
            }
            AckPayload::NackBitmap(bm) => {
                write!(f, "NACK({} missing of {})", bm.count_missing(), bm.nbits())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(p: &AckPayload) -> AckPayload {
        let mut buf = vec![0u8; p.encoded_len()];
        let n = p.encode(&mut buf).unwrap();
        assert_eq!(n, buf.len());
        AckPayload::decode(&buf).unwrap()
    }

    #[test]
    fn positive_roundtrip() {
        let p = AckPayload::Positive { acked: 63 };
        assert_eq!(roundtrip(&p), p);
        assert!(!p.is_nack());
        assert_eq!(p.to_string(), "ACK(63)");
    }

    #[test]
    fn nack_full_roundtrip() {
        let p = AckPayload::NackFull;
        assert_eq!(roundtrip(&p), p);
        assert!(p.is_nack());
        assert_eq!(p.encoded_len(), 1);
    }

    #[test]
    fn nack_first_missing_roundtrip() {
        let p = AckPayload::NackFirstMissing { first_missing: 17 };
        assert_eq!(roundtrip(&p), p);
        assert!(p.is_nack());
        assert!(p.to_string().contains("17"));
    }

    #[test]
    fn nack_bitmap_roundtrip() {
        let bm = Bitmap::from_missing(0, 64, [0, 7, 8, 17, 63]).unwrap();
        let p = AckPayload::NackBitmap(bm.clone());
        let back = roundtrip(&p);
        assert_eq!(back, p);
        if let AckPayload::NackBitmap(b) = back {
            assert_eq!(b.missing().collect::<Vec<_>>(), vec![0, 7, 8, 17, 63]);
            assert_eq!(b.count_missing(), 5);
        } else {
            panic!("wrong variant");
        }
    }

    #[test]
    fn bitmap_non_byte_aligned() {
        let bm = Bitmap::from_missing(10, 13, [10, 22]).unwrap();
        let p = AckPayload::NackBitmap(bm);
        let back = roundtrip(&p);
        if let AckPayload::NackBitmap(b) = back {
            assert!(b.is_missing(10));
            assert!(b.is_missing(22));
            assert!(!b.is_missing(11));
            assert!(!b.is_missing(23)); // out of range
            assert!(!b.is_missing(9)); // below base
        } else {
            panic!("wrong variant");
        }
    }

    #[test]
    fn bitmap_rejects_out_of_range() {
        let mut bm = Bitmap::new(5, 8);
        assert!(bm.set_missing(4).is_err());
        assert!(bm.set_missing(13).is_err());
        assert!(bm.set_missing(5).is_ok());
        assert!(bm.set_missing(12).is_ok());
    }

    #[test]
    fn bitmap_empty_and_count() {
        let bm = Bitmap::new(0, 32);
        assert!(bm.is_empty());
        assert_eq!(bm.count_missing(), 0);
        assert_eq!(bm.missing().count(), 0);
        let bm = Bitmap::from_missing(0, 32, 0..32).unwrap();
        assert_eq!(bm.count_missing(), 32);
    }

    #[test]
    fn decode_rejects_truncated() {
        assert!(AckPayload::decode(&[]).is_err());
        assert!(AckPayload::decode(&[tag::POSITIVE]).is_err());
        assert!(AckPayload::decode(&[tag::POSITIVE, 0, 0]).is_err());
        assert!(AckPayload::decode(&[tag::NACK_FIRST_MISSING, 1]).is_err());
        assert!(AckPayload::decode(&[tag::NACK_BITMAP, 0, 0, 0, 0]).is_err());
        // Bitmap that claims more bits than bytes present.
        assert!(AckPayload::decode(&[tag::NACK_BITMAP, 0, 0, 0, 0, 0, 16, 0xff]).is_err());
    }

    #[test]
    fn decode_rejects_unknown_tag() {
        assert_eq!(AckPayload::decode(&[0x7f]).unwrap_err(), WireError::BadAck);
    }

    #[test]
    fn decode_rejects_nbits_overflow() {
        let mut buf = vec![tag::NACK_BITMAP, 0, 0, 0, 0];
        buf.extend_from_slice(&(Bitmap::MAX_BITS + 1).to_be_bytes());
        buf.extend_from_slice(&vec![0; 2000]);
        assert!(matches!(
            AckPayload::decode(&buf).unwrap_err(),
            WireError::BadField {
                field: "bitmap nbits"
            }
        ));
        // A range that runs past the end of the sequence space.
        let mut buf = vec![tag::NACK_BITMAP, 0xff, 0xff, 0xff, 0xfc];
        buf.extend_from_slice(&8u16.to_be_bytes());
        buf.push(0x80);
        assert!(matches!(
            AckPayload::decode(&buf).unwrap_err(),
            WireError::BadField {
                field: "bitmap nbits"
            }
        ));
    }

    #[test]
    fn decode_rejects_nonzero_padding_bits() {
        // 5 bits covered, but a bit beyond bit 4 set in the final byte.
        let buf = vec![tag::NACK_BITMAP, 0, 0, 0, 0, 0, 5, 0b0010_0000];
        assert!(matches!(
            AckPayload::decode(&buf).unwrap_err(),
            WireError::BadField {
                field: "bitmap padding"
            }
        ));
        // Same covered bits with clean padding parses.
        let buf = vec![tag::NACK_BITMAP, 0, 0, 0, 0, 0, 5, 0b0001_0001];
        assert!(AckPayload::decode(&buf).is_ok());
    }

    #[test]
    fn encode_rejects_short_buffer() {
        let p = AckPayload::Positive { acked: 1 };
        let mut buf = [0u8; 2];
        assert!(p.encode(&mut buf).is_err());
    }
}
