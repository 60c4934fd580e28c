//! Property-based tests for the wire formats.
//!
//! The fault-injection experiments corrupt arbitrary octets in flight, so
//! the parsers must be *total*: every input either round-trips or fails
//! cleanly.  These tests drive that with random data.

use blast_wire::ack::{AckPayload, Bitmap};
use blast_wire::checksum;
use blast_wire::header::{flags, BlastHeader, PacketKind, HEADER_LEN};
use blast_wire::packet::{Datagram, DatagramBuilder};
use blast_wire::{Ext, Grant};
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

proptest! {
    /// Every kind round-trips with and without an extension area: the
    /// body, the header fields and the ack come back as built, and the
    /// area's grant comes back beside them.
    #[test]
    fn every_kind_round_trips_with_and_without_an_area(
        kind_index in 0usize..6,
        transfer_id in any::<u32>(),
        seq in any::<u32>(),
        body in proptest::collection::vec(any::<u8>(), 0..300),
        queue in any::<u32>(),
        drain_ns in any::<u32>(),
        with_area in any::<bool>(),
        acked in any::<u32>(),
    ) {
        let ext = Ext {
            grant: with_area.then_some(Grant { queue, drain_ns }),
        };
        let b = DatagramBuilder::new(transfer_id).ext(ext);
        let mut buf = vec![0u8; HEADER_LEN + 2048];
        let ack = AckPayload::Positive { acked };
        let (n, kind) = match kind_index {
            0 => (b.build_data(&mut buf, 0, 1, 0, &body, 0, true).unwrap(), PacketKind::Data),
            1 => (b.build_ack(&mut buf, 1, &ack).unwrap(), PacketKind::Ack),
            2 => (b.build_request(&mut buf, 1, &body).unwrap(), PacketKind::Request),
            3 => (b.build_cancel(&mut buf).unwrap(), PacketKind::Cancel),
            4 => (b.build_stats(&mut buf, seq, &body).unwrap(), PacketKind::Stats),
            _ => (b.build_copy(&mut buf, seq, &body).unwrap(), PacketKind::Copy),
        };
        let d = Datagram::parse(&buf[..n]).unwrap();
        prop_assert_eq!(d.kind, kind);
        prop_assert_eq!(d.transfer_id, transfer_id);
        prop_assert_eq!(d.ext, ext);
        prop_assert_eq!(d.flags & flags::EXT != 0, with_area);
        match kind {
            PacketKind::Ack => prop_assert_eq!(d.ack, Some(ack)),
            PacketKind::Cancel => prop_assert!(d.payload.is_empty()),
            _ => prop_assert_eq!(d.payload, &body[..]),
        }
        if matches!(kind, PacketKind::Stats | PacketKind::Copy) {
            prop_assert_eq!(d.seq, seq);
        }
        prop_assert_eq!(n, HEADER_LEN + d.payload.len() + ext.encoded_len());
    }

    /// Whatever follows a flagged body, parsing is total: an area cut
    /// short, overlong or garbled fails the datagram or parses, never
    /// panics.
    #[test]
    fn a_garbled_area_never_panics(
        body in proptest::collection::vec(any::<u8>(), 0..64),
        area in proptest::collection::vec(any::<u8>(), 0..80),
    ) {
        let mut payload = body.clone();
        payload.extend_from_slice(&area);
        let mut buf = vec![0u8; HEADER_LEN + payload.len()];
        BlastHeader::<&mut [u8]>::clear(&mut buf);
        let mut h = BlastHeader::new_unchecked(&mut buf[..]);
        h.set_kind(PacketKind::Request);
        h.set_flags(flags::EXT);
        h.set_payload_len(payload.len() as u32);
        h.payload_mut().copy_from_slice(&payload);
        h.fill_checksum();
        let _ = Datagram::parse(&buf);
    }
}
