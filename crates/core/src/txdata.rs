//! The sender's view of the data being transferred.

use std::ops::Deref;
use std::sync::Arc;

/// The bytes a sender reads, in any of three forms: a shared boxed
/// slice, a shared `Vec` (as a node's store keeps the receive buffers
/// it commits), or a slice borrowed from the caller for the sender's
/// lifetime `'a`.  Wrapping any of them is a pointer move, never a copy
/// of the data.
///
/// A sender that outlives the caller's frame holds a shared form: a
/// node's session, or an engine boxed for `blast_sim`'s simulator,
/// whose `attach` takes `'static` engines.  A sender run to completion
/// while the caller waits, as in a client's push or a
/// [`Harness`](crate::harness::Harness) run, borrows the caller's slice.
#[derive(Debug, Clone)]
pub enum TxBytes<'a> {
    /// An `Arc<[u8]>`.
    Slice(Arc<[u8]>),
    /// An `Arc<Vec<u8>>`.
    Vec(Arc<Vec<u8>>),
    /// A slice the caller keeps alive for `'a`.
    Borrowed(&'a [u8]),
}

impl From<Arc<[u8]>> for TxBytes<'_> {
    fn from(data: Arc<[u8]>) -> Self {
        TxBytes::Slice(data)
    }
}

impl From<Arc<Vec<u8>>> for TxBytes<'_> {
    fn from(data: Arc<Vec<u8>>) -> Self {
        TxBytes::Vec(data)
    }
}

impl<'a> From<&'a [u8]> for TxBytes<'a> {
    fn from(data: &'a [u8]) -> Self {
        TxBytes::Borrowed(data)
    }
}

impl Deref for TxBytes<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            TxBytes::Slice(data) => data,
            TxBytes::Vec(data) => data,
            TxBytes::Borrowed(data) => data,
        }
    }
}

/// Immutable transfer data, pre-segmented into fixed-size packets.
///
/// A clone shares the data in every form: it bumps a reference count
/// for the two `Arc` forms and copies a pointer for a borrowed slice.
/// The engines never copy the data — slices of it are copied exactly
/// once, into the outgoing datagram, which is the paper's "copy into
/// the sender's interface".
#[derive(Debug, Clone)]
pub struct TxData<'a> {
    data: TxBytes<'a>,
    packet_payload: usize,
}

impl<'a> TxData<'a> {
    /// Wrap `data` for transmission in `packet_payload`-byte packets.
    ///
    /// # Panics
    /// Panics if `packet_payload` is zero (configs are validated before
    /// engines are built).
    pub fn new(data: impl Into<TxBytes<'a>>, packet_payload: usize) -> Self {
        assert!(packet_payload > 0, "packet_payload must be positive");
        TxData {
            data: data.into(),
            packet_payload,
        }
    }

    /// Total bytes in the transfer.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True for a zero-byte transfer (still one empty packet on the
    /// wire, so the receiver gets a completion signal).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of data packets the transfer needs (`D` in the paper).
    pub fn total_packets(&self) -> u32 {
        if self.data.is_empty() {
            1
        } else {
            self.data.len().div_ceil(self.packet_payload) as u32
        }
    }

    /// Byte offset of packet `seq` within the transfer.
    pub fn offset_of(&self, seq: u32) -> usize {
        seq as usize * self.packet_payload
    }

    /// Payload slice of packet `seq`.  The final packet may be shorter
    /// than `packet_payload`; all others are exactly `packet_payload`.
    ///
    /// # Panics
    /// Panics if `seq >= total_packets()`.
    pub fn payload_of(&self, seq: u32) -> &[u8] {
        let total = self.total_packets();
        assert!(seq < total, "seq {seq} out of range (total {total})");
        let start = self.offset_of(seq);
        let end = (start + self.packet_payload).min(self.data.len());
        &self.data[start..end]
    }

    /// The configured per-packet payload size.
    pub fn packet_payload(&self) -> usize {
        self.packet_payload
    }

    /// The whole transfer buffer.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make(len: usize, payload: usize) -> TxData<'static> {
        let data: Arc<[u8]> = (0..len).map(|i| (i % 251) as u8).collect();
        TxData::new(data, payload)
    }

    #[test]
    fn exact_multiple_segmentation() {
        let tx = make(4096, 1024);
        assert_eq!(tx.total_packets(), 4);
        for seq in 0..4 {
            assert_eq!(tx.payload_of(seq).len(), 1024);
            assert_eq!(tx.offset_of(seq), seq as usize * 1024);
        }
    }

    #[test]
    fn short_final_packet() {
        let tx = make(2500, 1024);
        assert_eq!(tx.total_packets(), 3);
        assert_eq!(tx.payload_of(0).len(), 1024);
        assert_eq!(tx.payload_of(1).len(), 1024);
        assert_eq!(tx.payload_of(2).len(), 2500 - 2048);
    }

    #[test]
    fn single_packet_transfer() {
        let tx = make(10, 1024);
        assert_eq!(tx.total_packets(), 1);
        assert_eq!(tx.payload_of(0).len(), 10);
    }

    #[test]
    fn empty_transfer_is_one_empty_packet() {
        let tx = make(0, 1024);
        assert!(tx.is_empty());
        assert_eq!(tx.total_packets(), 1);
        assert_eq!(tx.payload_of(0).len(), 0);
    }

    #[test]
    fn payload_content_matches_source() {
        let tx = make(3000, 1000);
        let mut reassembled = Vec::new();
        for seq in 0..tx.total_packets() {
            reassembled.extend_from_slice(tx.payload_of(seq));
        }
        assert_eq!(reassembled, tx.bytes());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn payload_out_of_range_panics() {
        let tx = make(1024, 1024);
        let _ = tx.payload_of(1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_payload_size_panics() {
        let _ = TxData::new(Arc::new(vec![1u8]), 0);
    }

    #[test]
    fn a_shared_vec_is_sent_in_place() {
        let data = Arc::new(vec![7u8; 2500]);
        let tx = TxData::new(Arc::clone(&data), 1024);
        assert_eq!(tx.total_packets(), 3);
        assert_eq!(tx.bytes().as_ptr(), data.as_ptr(), "no copy");
        assert_eq!(tx.payload_of(2), &data[2048..]);
    }

    #[test]
    fn a_borrowed_slice_is_sent_in_place() {
        let data: Vec<u8> = (0..2500).map(|i| (i % 251) as u8).collect();
        let tx = TxData::new(&data[..], 1024);
        assert_eq!(tx.total_packets(), 3);
        assert_eq!(tx.bytes().as_ptr(), data.as_ptr(), "no copy");
        for seq in 0..3 {
            let start = seq as usize * 1024;
            let end = (start + 1024).min(data.len());
            assert_eq!(tx.payload_of(seq), &data[start..end]);
        }
    }

    #[test]
    fn clone_shares_storage() {
        let tx = make(2048, 1024);
        let tx2 = tx.clone();
        assert_eq!(tx.bytes().as_ptr(), tx2.bytes().as_ptr());
    }
}
