//! Property-based tests for the wire formats.
//!
//! The fault-injection experiments corrupt arbitrary octets in flight, so
//! the parsers must be *total*: every input either round-trips or fails
//! cleanly.  These tests drive that with random data.

use blast_wire::ack::{AckPayload, Bitmap};
use blast_wire::checksum;
use blast_wire::header::{BlastHeader, PacketKind, HEADER_LEN};
use blast_wire::packet::{Datagram, DatagramBuilder};
use proptest::prelude::*;

proptest! {
    #[test]
    fn datagram_parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Datagram::parse(&bytes);
    }

    #[test]
    fn header_check_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = BlastHeader::new_checked(&bytes[..]);
    }

    #[test]
    fn ack_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = AckPayload::decode(&bytes);
    }

    #[test]
    fn data_packet_roundtrip(
        transfer_id in any::<u32>(),
        total in 1u32..4096,
        round in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..1400),
        last in any::<bool>(),
        kernel in any::<bool>(),
    ) {
        let seq = total - 1; // always valid
        let offset = seq.saturating_mul(1024);
        let mut buf = vec![0u8; HEADER_LEN + payload.len()];
        let b = DatagramBuilder::new(transfer_id).kernel(kernel);
        let len = b.build_data(&mut buf, seq, total, offset, &payload, round, last).unwrap();
        let d = Datagram::parse(&buf[..len]).unwrap();
        prop_assert_eq!(d.kind, PacketKind::Data);
        prop_assert_eq!(d.transfer_id, transfer_id);
        prop_assert_eq!(d.seq, seq);
        prop_assert_eq!(d.total, total);
        prop_assert_eq!(d.offset, offset);
        prop_assert_eq!(d.round, round);
        prop_assert_eq!(d.is_last(), last);
        prop_assert_eq!(d.payload, &payload[..]);
    }

    #[test]
    fn corrupted_header_byte_never_parses_as_original(
        total in 2u32..128,
        corrupt_at in 0usize..HEADER_LEN,
        xor in 1u8..=255,
    ) {
        let mut buf = vec![0u8; HEADER_LEN + 8];
        let b = DatagramBuilder::new(1);
        let len = b.build_data(&mut buf, 0, total, 0, &[0xaa; 8], 0, false).unwrap();
        let _original = Datagram::parse(&buf[..len]).unwrap();
        buf[corrupt_at] ^= xor;
        // A single-byte XOR changes exactly one 16-bit word of the header
        // by a nonzero delta of magnitude < 0xffff, which the ones-
        // complement checksum always detects (it is only blind to deltas
        // that are multiples of 0xffff).  So corruption anywhere in the
        // header — including the checksum and reserved fields — must make
        // the parse fail.
        prop_assert!(Datagram::parse(&buf[..len]).is_err());
    }

    #[test]
    fn ack_payload_roundtrip_bitmap(
        base in 0u32..10_000,
        nbits in 1u16..512,
        seed in any::<u64>(),
    ) {
        let mut missing = Vec::new();
        let mut x = seed | 1;
        for i in 0..nbits {
            // xorshift-ish deterministic subset selection
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x % 3 == 0 {
                missing.push(base + u32::from(i));
            }
        }
        let bm = Bitmap::from_missing(base, nbits, missing.iter().copied()).unwrap();
        let p = AckPayload::NackBitmap(bm);
        let mut buf = vec![0u8; p.encoded_len()];
        p.encode(&mut buf).unwrap();
        let back = AckPayload::decode(&buf).unwrap();
        if let AckPayload::NackBitmap(b) = back {
            prop_assert_eq!(b.missing().collect::<Vec<_>>(), missing);
        } else {
            prop_assert!(false, "variant changed");
        }
    }

    #[test]
    fn internet_checksum_verifies_after_fill(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let c = checksum::internet(&data);
        let mut with = data.clone();
        if with.len() % 2 != 0 {
            with.push(0);
        }
        with.extend_from_slice(&c.to_be_bytes());
        prop_assert!(checksum::verify(&with));
    }

    #[test]
    fn crc32_streaming_equals_oneshot(
        // Long enough that split points fall on both sides of the
        // 64-byte threshold of the carry-less-multiply kernel.
        data in proptest::collection::vec(any::<u8>(), 0..4096),
        split in any::<proptest::sample::Index>(),
    ) {
        let at = split.index(data.len() + 1);
        let mut s = checksum::Crc32::new();
        s.update(&data[..at.min(data.len())]);
        s.update(&data[at.min(data.len())..]);
        prop_assert_eq!(s.finish(), checksum::crc32(&data));
    }
}
