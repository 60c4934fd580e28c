//! # blast-wire — wire formats for large-data-transfer protocols
//!
//! This crate defines the on-the-wire representation used by every
//! protocol in the `blastlan` workspace, which reproduces
//! *W. Zwaenepoel, "Protocols for Large Data Transfers over Local
//! Networks", SIGCOMM 1985*.
//!
//! The paper's experiments run directly on the Ethernet data-link layer:
//! "no header (other than the Ethernet data link header) is added to the
//! data" in the standalone measurements, while the V-kernel measurements
//! add a small interkernel header for demultiplexing, access checking and
//! retransmission state.  This crate provides the transport layer; the
//! Ethernet data-link header appears only as its length
//! ([`ETHERNET_HEADER_LEN`]), which is all the simulator's cost model
//! needs:
//!
//! * [`header`] — the blast transport header ([`header::BlastHeader`]),
//!   our equivalent of the V interkernel packet header: transfer id,
//!   sequence number, packet count, flags and a header checksum;
//! * [`ack`] — acknowledgement payload encodings for the four
//!   retransmission strategies of §3.2 of the paper: positive ack,
//!   full-retransmission NACK, first-missing NACK (go-back-n) and
//!   bitmap NACK (selective retransmission);
//! * [`checksum`] — the Internet checksum (RFC 1071) used for the
//!   transport header and an IEEE 802.3 CRC-32 for whole-frame checks,
//!   standing in for the Ethernet FCS computed by the interface hardware
//!   (a carry-less-multiply kernel where the CPU has one);
//! * [`packet`] — a convenience builder/parser that assembles the above
//!   into complete datagrams and decodes them back.
//!
//! ## Design
//!
//! All packet types are *views* over caller-provided buffers
//! (`T: AsRef<[u8]>` to parse, `T: AsMut<[u8]>` to emit), in the style of
//! `smoltcp`.  Nothing in this crate allocates on the datapath; the
//! protocols in `blast-core` reuse a single scratch buffer per engine.
//! This mirrors the paper's premise that per-packet *copy* cost dominates
//! elapsed time on a LAN — the implementation goes out of its way not to
//! add copies of its own.
//!
//! ## Quick example
//!
//! ```
//! use blast_wire::header::{BlastHeader, PacketKind};
//!
//! let mut buf = [0u8; 64];
//! let mut hdr = BlastHeader::new_unchecked(&mut buf[..]);
//! BlastHeader::<&mut [u8]>::clear(hdr.buffer_mut());
//! hdr.set_kind(PacketKind::Data);
//! hdr.set_transfer_id(7);
//! hdr.set_seq(3);
//! hdr.set_total(64);
//! hdr.set_payload_len(16);
//! hdr.fill_checksum();
//!
//! let parsed = BlastHeader::new_checked(&buf[..]).unwrap();
//! assert_eq!(parsed.kind().unwrap(), PacketKind::Data);
//! assert_eq!(parsed.seq(), 3);
//! assert!(parsed.verify_checksum());
//! ```

// Deny (not forbid): `checksum`'s CRC-32 kernel module is this crate's
// one sanctioned `unsafe` surface — a `#[target_feature]` function
// called once, after run-time CPU feature detection — and opts in with
// a module-level allow, mirroring `blast-udp`'s `sockopt` and `netio`.
// Everything else still refuses unsafe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod ack;
pub mod checksum;
pub mod error;
pub mod header;
pub mod packet;

pub use ack::{AckPayload, Bitmap};
pub use error::{WireError, WireResult};
pub use header::{BlastHeader, PacketKind, HEADER_LEN};
pub use packet::{Datagram, DatagramBuilder};

/// Length of the Ethernet II header: two 6-byte station addresses plus
/// the 2-byte type field.
pub const ETHERNET_HEADER_LEN: usize = 14;

/// Maximum payload of a single Ethernet frame usable for data, as on the
/// experimental network of the paper.
///
/// "The maximum packet size on the 10 megabit Ethernet is 1536 bytes"
/// (§2.1.2, footnote).  After the 14-byte Ethernet header and our
/// 32-byte transport header this still comfortably holds the paper's
/// 1024-byte data packets.
pub const MAX_ETHERNET_PAYLOAD: usize = 1536 - ETHERNET_HEADER_LEN;

/// The data payload size used throughout the paper's experiments (bytes).
pub const PAPER_DATA_PAYLOAD: usize = 1024;

/// The total acknowledgement packet size used throughout the paper (bytes).
pub const PAPER_ACK_BYTES: usize = 64;
