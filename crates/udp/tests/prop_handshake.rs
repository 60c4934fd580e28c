//! Property tests for the `Request` handshake.
//!
//! The handshake's whole job is surviving an unreliable channel: the
//! `Request` may be lost, the echo may be lost, and either may be
//! duplicated — the initiator must converge on exactly one accepted
//! echo regardless.  These tests script a responder that drops the
//! first `k` echoes, duplicates the rest, and injects stray datagrams,
//! then assert the handshake still completes with the right parameters.

use std::collections::VecDeque;
use std::io;
use std::time::Duration;

use blast_core::config::{ProtocolConfig, RetxStrategy};
use blast_udp::channel::Channel;
use blast_udp::handshake::{self, Direction, Request};
use proptest::prelude::*;

/// A scripted in-memory responder: every `send` is a `Request` from the
/// initiator; echoes are dropped, duplicated and preceded by noise
/// according to the script.
struct ScriptedResponder {
    /// Echoes to suppress before the first one goes through (lost
    /// echoes — the initiator must keep retransmitting its request).
    drop_first_echoes: u32,
    /// Extra copies of every delivered echo (duplicated echoes).
    duplicate_echoes: u32,
    /// Datagrams delivered ahead of the first successful echo (garbage,
    /// other transfers' traffic) that the initiator must ignore.
    noise: Vec<Vec<u8>>,
    queue: VecDeque<Vec<u8>>,
    requests_seen: u32,
}

impl ScriptedResponder {
    fn new(drop_first_echoes: u32, duplicate_echoes: u32, noise: Vec<Vec<u8>>) -> Self {
        ScriptedResponder {
            drop_first_echoes,
            duplicate_echoes,
            noise,
            queue: VecDeque::new(),
            requests_seen: 0,
        }
    }
}

impl Channel for ScriptedResponder {
    fn send(&mut self, buf: &[u8]) -> io::Result<()> {
        self.requests_seen += 1;
        if self.requests_seen <= self.drop_first_echoes {
            return Ok(()); // the echo to this request is lost in flight
        }
        for n in std::mem::take(&mut self.noise) {
            self.queue.push_back(n);
        }
        for _ in 0..=self.duplicate_echoes {
            self.queue.push_back(buf.to_vec());
        }
        Ok(())
    }

    fn recv_timeout(&mut self, buf: &mut [u8], _timeout: Duration) -> io::Result<Option<usize>> {
        match self.queue.pop_front() {
            Some(p) => {
                buf[..p.len()].copy_from_slice(&p);
                Ok(Some(p.len()))
            }
            None => Ok(None),
        }
    }
}

fn request_from(len: usize, strategy_byte: u8, chunk: u32, pull: bool, name_tag: u64) -> Request {
    Request {
        len,
        packet_payload: 1024,
        strategy: handshake::strategy_from_u8(strategy_byte),
        multiblast_chunk: chunk,
        direction: if pull {
            Direction::Pull
        } else {
            Direction::Push
        },
        name: if name_tag == 0 {
            String::new()
        } else {
            format!("blob-{name_tag}")
        },
        grant: None,
    }
}

proptest! {
    /// Lost and duplicated echoes never break the handshake, and the
    /// initiator retransmits exactly once per lost echo.
    #[test]
    fn handshake_survives_lost_and_duplicate_echoes(
        lost in 0u32..6,
        dups in 0u32..4,
        len in 0usize..1_000_000,
        strategy_byte in any::<u8>(),
        chunk in 0u32..128,
        pull in any::<bool>(),
        name_tag in 0u64..1000,
        transfer_id in any::<u32>(),
    ) {
        let request = request_from(len, strategy_byte, chunk, pull, name_tag);
        let mut channel = ScriptedResponder::new(lost, dups, Vec::new());
        let reply = handshake::initiate(
            &mut channel,
            transfer_id,
            &request,
            Duration::from_millis(1),
            Duration::from_secs(10),
        ).expect("handshake completes");
        prop_assert_eq!(&reply.echoed, &request, "echo must carry the request verbatim");
        prop_assert_eq!(reply.datagrams_sent, u64::from(lost) + 1,
            "one request per lost echo, plus the one that got through");
    }

    /// Stray datagrams ahead of the echo — garbage bytes, a different
    /// transfer's echo, a data packet — are ignored, not accepted.
    #[test]
    fn handshake_ignores_stray_datagrams(
        garbage in proptest::collection::vec(any::<u8>(), 0..64),
        other_id in 1u32..u32::MAX,
    ) {
        let cfg = ProtocolConfig::default().with_strategy(RetxStrategy::Selective);
        let request = Request::push(4096, &cfg, false);
        let transfer_id = 7;
        // An otherwise-valid echo for a *different* transfer id must not
        // satisfy transfer 7's handshake.
        let imposter = request.build_datagram(if other_id == 7 { 8 } else { other_id });
        let noise = vec![garbage, imposter];
        let mut channel = ScriptedResponder::new(0, 0, noise);
        let reply = handshake::initiate(
            &mut channel,
            transfer_id,
            &request,
            Duration::from_millis(1),
            Duration::from_secs(10),
        ).expect("handshake completes");
        prop_assert_eq!(&reply.echoed, &request);
    }

    /// Encode/decode is a bijection over the request space, so an echo
    /// always reproduces the initiator's parameters exactly.
    #[test]
    fn request_roundtrips(
        len in any::<u32>(),
        strategy_byte in any::<u8>(),
        chunk in any::<u32>(),
        pull in any::<bool>(),
        name_tag in 0u64..10_000,
    ) {
        let request = request_from(len as usize, strategy_byte, chunk, pull, name_tag);
        prop_assert_eq!(Request::decode(&request.encode()), Some(request));
    }

    /// The decoder is total: arbitrary bytes either decode or are
    /// rejected, never panic.
    #[test]
    fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = Request::decode(&bytes);
    }
}

// ---------------------------------------------------------------------
// Copy control-plane robustness: the `Copy` verb rides the same
// handshake datagram path, so its messages get the same treatment —
// unknown operations are rejected, truncations never decode, and the
// encode/decode pair is a bijection over every field the submit and
// status carry.

use std::net::{IpAddr, SocketAddr};

use blast_udp::copy::{errcode, BlobDigest, CopyMode, CopyMsg, CopyState, CopyStatus, CopySubmit};

/// Build an arbitrary-but-valid `CopyMsg` from proptest primitives.
#[allow(clippy::too_many_arguments)]
fn copy_msg_from(
    selector: u8,
    pull: bool,
    v6: bool,
    addr_bits: u128,
    port: u16,
    epoch_ns: u64,
    name_tag: u64,
    state_byte: u8,
    error_sel: u8,
    bytes_done: u64,
    bytes_total: u64,
    crc32: u32,
) -> CopyMsg {
    let states = [
        CopyState::Unknown,
        CopyState::Handshaking,
        CopyState::Running,
        CopyState::Done,
        CopyState::Failed,
    ];
    let errors = [
        errcode::NONE,
        errcode::NOT_FOUND,
        errcode::BUSY,
        errcode::HANDSHAKE_TIMEOUT,
        errcode::TRANSFER_FAILED,
        errcode::MALFORMED,
    ];
    match selector % 5 {
        0 => {
            let ip: IpAddr = if v6 {
                IpAddr::from(addr_bits.to_be_bytes())
            } else {
                IpAddr::from((addr_bits as u32).to_be_bytes())
            };
            CopyMsg::Submit(CopySubmit {
                mode: if pull { CopyMode::Pull } else { CopyMode::Push },
                remote: SocketAddr::new(ip, port),
                epoch_ns,
                name: format!("blob-{name_tag}"),
            })
        }
        1 => CopyMsg::Query,
        2 => CopyMsg::Status(CopyStatus {
            state: states[state_byte as usize % states.len()],
            error: errors[error_sel as usize % errors.len()],
            bytes_done,
            bytes_total,
            crc32,
        }),
        3 => CopyMsg::Digest {
            name: format!("blob-{name_tag}"),
        },
        _ => CopyMsg::DigestReply(BlobDigest {
            found: pull,
            len: bytes_total,
            crc32,
        }),
    }
}

proptest! {
    /// Encode/decode is a bijection over the copy control plane: every
    /// submit (both modes, v4 and v6 remotes, any trace epoch, any
    /// name), status, digest and reply round-trips exactly.
    #[test]
    fn copy_msg_roundtrips(
        selector in any::<u8>(),
        pull in any::<bool>(),
        v6 in any::<bool>(),
        addr_bits in any::<u128>(),
        port in any::<u16>(),
        epoch_ns in any::<u64>(),
        name_tag in 0u64..10_000,
        state_byte in any::<u8>(),
        error_sel in any::<u8>(),
        bytes_done in any::<u64>(),
        bytes_total in any::<u64>(),
        crc32 in any::<u32>(),
    ) {
        let msg = copy_msg_from(
            selector, pull, v6, addr_bits, port, epoch_ns, name_tag,
            state_byte, error_sel, bytes_done, bytes_total, crc32,
        );
        prop_assert_eq!(CopyMsg::decode(&msg.encode()), Some(msg));
    }

    /// The copy decoder is total: arbitrary bytes either decode or are
    /// rejected, never panic.
    #[test]
    fn copy_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = CopyMsg::decode(&bytes);
    }

    /// Unknown operation bytes are rejected outright — a node never
    /// guesses at a verb it does not speak.
    #[test]
    fn copy_unknown_ops_rejected(
        opcode in 6u8..=u8::MAX,
        body in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut payload = vec![opcode];
        payload.extend_from_slice(&body);
        prop_assert_eq!(CopyMsg::decode(&payload), None);
    }

    /// Every strict prefix of a valid encoding is rejected: the
    /// decoders demand exact length, so a truncated submit can never
    /// masquerade as a shorter valid message.
    #[test]
    fn copy_truncations_never_decode(
        selector in any::<u8>(),
        pull in any::<bool>(),
        v6 in any::<bool>(),
        addr_bits in any::<u128>(),
        port in any::<u16>(),
        epoch_ns in any::<u64>(),
        name_tag in 0u64..10_000,
        cut in any::<proptest::sample::Index>(),
    ) {
        let msg = copy_msg_from(
            selector, pull, v6, addr_bits, port, epoch_ns, name_tag,
            0, 0, 0, 0, 0,
        );
        let wire = msg.encode();
        let truncated = &wire[..cut.index(wire.len())];
        prop_assert_eq!(CopyMsg::decode(truncated), None);
    }
}
