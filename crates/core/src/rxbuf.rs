//! The pre-allocated receive buffer.
//!
//! Central to the paper's protocol definition: "the recipient has
//! sufficient buffers allocated to receive the data prior to the
//! transfer" (§2), which is what lets the kernel "move data … from the
//! network interface of the receiving machine into the destination
//! address space … without an intermediate copy".  [`RxBuffer`] is that
//! destination address space: data packets land at `offset` directly,
//! and a bitmap tracks which packets have arrived — the same bitmap the
//! selective-retransmission NACK reports (§3.2.3).

use blast_wire::ack::Bitmap;

use crate::error::{CoreError, CoreResult};

/// How a transfer's bytes divide into packets: what every data packet
/// is checked against before it may touch the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    bytes: usize,
    packet_payload: usize,
}

impl Geometry {
    /// Total number of packets (`D` in the paper); a zero-byte transfer
    /// still has one, empty.
    pub fn total_packets(&self) -> u32 {
        self.bytes.div_ceil(self.packet_payload).max(1) as u32
    }

    /// Expected payload length of packet `seq`.
    pub fn expected_len(&self, seq: u32) -> usize {
        let start = seq as usize * self.packet_payload;
        self.bytes.saturating_sub(start).min(self.packet_payload)
    }

    /// Whether a packet `seq` carrying `len` bytes for byte `offset`
    /// belongs to this transfer: a sequence number inside it, at the
    /// offset and of the length that number implies.
    pub fn check(&self, seq: u32, offset: usize, len: usize) -> CoreResult<()> {
        let what = if seq >= self.total_packets() {
            "sequence beyond buffer"
        } else if offset != seq as usize * self.packet_payload {
            "offset does not match sequence"
        } else if len != self.expected_len(seq) {
            "payload length mismatch"
        } else {
            return Ok(());
        };
        Err(CoreError::GeometryMismatch { what })
    }
}

/// A pre-allocated receive buffer with per-packet arrival tracking.
#[derive(Debug, Clone)]
pub struct RxBuffer {
    buf: Vec<u8>,
    received: Vec<bool>,
    received_count: u32,
    total: u32,
    geometry: Geometry,
}

impl RxBuffer {
    /// Allocate a buffer for a transfer of `bytes` bytes carried in
    /// `packet_payload`-byte packets.
    ///
    /// # Panics
    /// Panics if `packet_payload` is zero.
    pub fn new(bytes: usize, packet_payload: usize) -> Self {
        Self::with_buffer(vec![0; bytes], packet_payload)
    }

    /// Receive a transfer of `buf.len()` bytes into `buf` itself: a
    /// buffer set aside before the transfer, whose old bytes stay in
    /// every hole until the packet that covers it arrives.
    ///
    /// # Panics
    /// Panics if `packet_payload` is zero.
    pub fn with_buffer(buf: Vec<u8>, packet_payload: usize) -> Self {
        assert!(packet_payload > 0, "packet_payload must be positive");
        let geometry = Geometry {
            bytes: buf.len(),
            packet_payload,
        };
        let total = geometry.total_packets();
        RxBuffer {
            buf,
            received: vec![false; total as usize],
            received_count: 0,
            total,
            geometry,
        }
    }

    /// Total number of packets expected (`D` in the paper).
    pub fn total_packets(&self) -> u32 {
        self.total
    }

    /// The transfer's division into packets.
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Number of distinct packets received so far.
    pub fn received_packets(&self) -> u32 {
        self.received_count
    }

    /// Total bytes the transfer will occupy.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if the transfer is zero bytes long.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// True once every packet has arrived.
    pub fn is_complete(&self) -> bool {
        self.received_count == self.total
    }

    /// Whether packet `seq` has arrived.
    pub fn has(&self, seq: u32) -> bool {
        self.received.get(seq as usize).copied().unwrap_or(false)
    }

    /// Expected payload length of packet `seq`.
    pub fn expected_len(&self, seq: u32) -> usize {
        self.geometry.expected_len(seq)
    }

    /// Place the payload of packet `seq` at byte `offset`.
    ///
    /// Returns `Ok(true)` if the packet was new, `Ok(false)` for an
    /// exact duplicate (already placed), and an error if the packet
    /// contradicts the transfer geometry — wrong offset, wrong length,
    /// or a sequence number beyond the pre-allocated buffer.  Geometry
    /// errors matter: the buffer was sized before the transfer began, so
    /// a mismatched packet belongs to some other (or corrupt) transfer
    /// and must not scribble over the caller's memory.
    pub fn place(&mut self, seq: u32, offset: usize, payload: &[u8]) -> CoreResult<bool> {
        self.geometry.check(seq, offset, payload.len())?;
        if self.received[seq as usize] {
            return Ok(false);
        }
        self.buf[offset..offset + payload.len()].copy_from_slice(payload);
        self.received[seq as usize] = true;
        self.received_count += 1;
        Ok(true)
    }

    /// The first packet not yet received at or below `upto`
    /// (inclusive), if any — what a go-back-n NACK reports in response
    /// to a round-ending packet `upto`.
    pub fn first_missing_upto(&self, upto: u32) -> Option<u32> {
        let end = (upto as usize + 1).min(self.total as usize);
        (0..end).find(|&i| !self.received[i]).map(|i| i as u32)
    }

    /// The first packet not yet received overall, if any.
    pub fn first_missing(&self) -> Option<u32> {
        self.first_missing_upto(self.total.saturating_sub(1))
    }

    /// Build the selective-retransmission bitmap of missing packets in
    /// `[0, upto]`, based at the first missing sequence.  Returns `None`
    /// when nothing is missing in that range.
    pub fn missing_bitmap_upto(&self, upto: u32) -> Option<Bitmap> {
        let first = self.first_missing_upto(upto)?;
        let end = (upto as usize + 1).min(self.total as usize) as u32;
        let span = end - first;
        let nbits = span.min(u32::from(Bitmap::MAX_BITS)) as u16;
        let missing = (first..first + u32::from(nbits)).filter(|&s| !self.received[s as usize]);
        let bm = Bitmap::from_missing(first, nbits, missing)
            .expect("sequences within bitmap range by construction");
        Some(bm)
    }

    /// Borrow the received data.  Only meaningful once
    /// [`is_complete`](Self::is_complete): until then a hole holds
    /// zeros, or whatever a buffer handed to
    /// [`with_buffer`](Self::with_buffer) held before.
    pub fn data(&self) -> &[u8] {
        &self.buf
    }

    /// Consume the buffer, returning the received data (holes as
    /// [`data`](Self::data) describes them).
    pub fn into_data(self) -> Vec<u8> {
        self.buf
    }

    /// Move the data of a complete transfer out (`None` while packets
    /// are missing).  What stays behind still knows every packet as
    /// received, so late duplicates are recognised and never placed.
    pub fn take_data(&mut self) -> Option<Vec<u8>> {
        self.is_complete().then(|| std::mem::take(&mut self.buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(seq: u32, len: usize) -> Vec<u8> {
        (0..len).map(|i| (seq as usize + i) as u8).collect()
    }

    #[test]
    fn in_order_fill_completes() {
        let mut rx = RxBuffer::new(4096, 1024);
        assert_eq!(rx.total_packets(), 4);
        for seq in 0..4u32 {
            assert!(!rx.is_complete());
            let p = payload(seq, 1024);
            assert!(rx.place(seq, seq as usize * 1024, &p).unwrap());
        }
        assert!(rx.is_complete());
        assert_eq!(rx.received_packets(), 4);
        assert_eq!(&rx.data()[1024..1028], &payload(1, 4)[..]);
    }

    #[test]
    fn out_of_order_fill_completes() {
        let mut rx = RxBuffer::new(3000, 1024);
        assert_eq!(rx.total_packets(), 3);
        for seq in [2u32, 0, 1] {
            let len = rx.expected_len(seq);
            let p = payload(seq, len);
            assert!(rx.place(seq, seq as usize * 1024, &p).unwrap());
        }
        assert!(rx.is_complete());
    }

    #[test]
    fn duplicates_are_idempotent() {
        let mut rx = RxBuffer::new(2048, 1024);
        let p = payload(0, 1024);
        assert!(rx.place(0, 0, &p).unwrap());
        assert!(!rx.place(0, 0, &p).unwrap());
        assert_eq!(rx.received_packets(), 1);
    }

    #[test]
    fn short_final_packet_geometry() {
        let mut rx = RxBuffer::new(2500, 1024);
        assert_eq!(rx.expected_len(0), 1024);
        assert_eq!(rx.expected_len(2), 452);
        // Wrong length for the final packet is rejected.
        assert!(rx.place(2, 2048, &payload(2, 1024)).is_err());
        assert!(rx.place(2, 2048, &payload(2, 452)).is_ok());
    }

    #[test]
    fn geometry_violations_rejected() {
        let mut rx = RxBuffer::new(4096, 1024);
        // seq out of range
        assert!(matches!(
            rx.place(4, 4096, &payload(4, 1024)),
            Err(CoreError::GeometryMismatch { .. })
        ));
        // offset inconsistent with seq
        assert!(rx.place(1, 0, &payload(1, 1024)).is_err());
        // wrong payload length
        assert!(rx.place(0, 0, &payload(0, 1023)).is_err());
        // nothing was placed
        assert_eq!(rx.received_packets(), 0);
    }

    #[test]
    fn first_missing_tracks_holes() {
        let mut rx = RxBuffer::new(5 * 1024, 1024);
        assert_eq!(rx.first_missing(), Some(0));
        rx.place(0, 0, &payload(0, 1024)).unwrap();
        rx.place(2, 2048, &payload(2, 1024)).unwrap();
        assert_eq!(rx.first_missing(), Some(1));
        assert_eq!(rx.first_missing_upto(0), None);
        assert_eq!(rx.first_missing_upto(1), Some(1));
        rx.place(1, 1024, &payload(1, 1024)).unwrap();
        assert_eq!(rx.first_missing(), Some(3));
        rx.place(3, 3072, &payload(3, 1024)).unwrap();
        rx.place(4, 4096, &payload(4, 1024)).unwrap();
        assert_eq!(rx.first_missing(), None);
    }

    #[test]
    fn missing_bitmap_reports_exact_set() {
        let mut rx = RxBuffer::new(8 * 1024, 1024);
        for seq in [0u32, 1, 3, 5, 7] {
            rx.place(seq, seq as usize * 1024, &payload(seq, 1024))
                .unwrap();
        }
        let bm = rx.missing_bitmap_upto(7).unwrap();
        assert_eq!(bm.base(), 2);
        assert_eq!(bm.missing().collect::<Vec<_>>(), vec![2, 4, 6]);
        // Range-limited query.
        let bm = rx.missing_bitmap_upto(4).unwrap();
        assert_eq!(bm.missing().collect::<Vec<_>>(), vec![2, 4]);
    }

    #[test]
    fn missing_bitmap_none_when_complete_range() {
        let mut rx = RxBuffer::new(2048, 1024);
        rx.place(0, 0, &payload(0, 1024)).unwrap();
        assert!(rx.missing_bitmap_upto(0).is_none());
        assert!(rx.missing_bitmap_upto(1).is_some());
    }

    #[test]
    fn zero_byte_transfer() {
        let mut rx = RxBuffer::new(0, 1024);
        assert!(rx.is_empty());
        assert_eq!(rx.total_packets(), 1);
        assert_eq!(rx.expected_len(0), 0);
        assert!(!rx.is_complete());
        assert!(rx.place(0, 0, &[]).unwrap());
        assert!(rx.is_complete());
        assert!(rx.into_data().is_empty());
    }

    #[test]
    fn a_given_buffer_is_received_into_in_place() {
        let old = vec![0xAAu8; 2500];
        let at = old.as_ptr();
        let mut rx = RxBuffer::with_buffer(old, 1024);
        assert_eq!((rx.len(), rx.total_packets()), (2500, 3));
        rx.place(1, 1024, &payload(1, 1024)).unwrap();
        assert_eq!(rx.data()[0], 0xAA, "a hole keeps the old bytes");
        assert!(rx.take_data().is_none(), "an incomplete buffer stays put");
        rx.place(0, 0, &payload(0, 1024)).unwrap();
        rx.place(2, 2048, &payload(2, 452)).unwrap();
        let data = rx.take_data().unwrap();
        assert_eq!(data.as_ptr(), at, "received where it was handed in");
        assert!(data[2048..] == payload(2, 452)[..]);
    }

    #[test]
    fn has_is_bounds_safe() {
        let rx = RxBuffer::new(1024, 1024);
        assert!(!rx.has(0));
        assert!(!rx.has(99));
    }
}
