//! The pre-allocation `Request` handshake, as a reusable module.
//!
//! The paper's premise is that "the recipient has sufficient buffers
//! allocated to receive the data before the transfer takes place".
//! Over UDP that guarantee comes from a tiny handshake:
//!
//! 1. the initiator transmits a `Request` describing the transfer and
//!    retransmits it until echoed;
//! 2. the responder allocates the whole buffer, echoes the `Request`,
//!    and enters the data phase — continuing to echo duplicate
//!    requests, since its echo may itself be lost;
//! 3. the data phase runs, per the strategy carried in the request.
//!
//! The `Request` echo is deliberately *not* an `Ack` packet: the blast
//! sender treats positive acks as completion signals, so handshake
//! traffic must be invisible to the engines (the initiator's
//! [`Outbound`] leg and the node's sessions filter `Request` packets
//! before any engine sees them).
//!
//! Beyond the original peer-to-peer fields (length, packet size,
//! strategy, multiblast chunk), a request carries a [`Direction`] and a
//! blob [`name`](Request::name) so that a `blast-node` server can tell
//! a push ("store these bytes under this name") from a pull ("blast me
//! the named blob").  For pulls the initiator does not know the length;
//! the responder fills it in before echoing, so the echo doubles as the
//! size announcement that lets the client pre-allocate.
//!
//! Whichever side will receive the data also states its [`Grant`]
//! ([`crate::grant`]) in the datagram's extension area: the responder's
//! push echo, the initiator's pull request.  [`Request::parse`] reads it
//! back beside the payload, which [`Request::decode`] checks as strictly
//! as before.

use std::io;
use std::time::Duration;

use blast_core::config::{ProtocolConfig, RetxStrategy};
use blast_wire::packet::{Datagram, DatagramBuilder};
use blast_wire::{Ext, Grant};

use crate::channel::{Channel, MAX_DATAGRAM};
use crate::outbound::{Outbound, Then};

/// Shortest well-formed request payload: every field but the name.
pub const MIN_REQUEST_LEN: usize = 20;

/// Largest transfer either side of a handshake will pre-allocate for
/// unless configured otherwise.  The announced length becomes an eager
/// allocation (the paper's premise), so whoever reads it off the wire —
/// a node accepting a push, a client or copy leg reading a pull's echo
/// — must bound it first: one 24-byte datagram could otherwise demand a
/// terabyte.
pub const MAX_TRANSFER_BYTES: usize = 256 * 1024 * 1024;

/// Longest blob name a request can carry.
pub const MAX_NAME_LEN: usize = 255;

/// Longest request payload: every field and the longest name.
const MAX_REQUEST_LEN: usize = MIN_REQUEST_LEN + MAX_NAME_LEN;

/// The longest an initiator waits between re-sends of a request or a
/// control query, the ceiling of its [`Backoff`]: the data phase's
/// initial retransmission interval, capped so a long data-phase timeout
/// does not slow the handshake down.  A path with no carried estimate
/// re-sends at this interval throughout.
pub fn retry_interval(cfg: &ProtocolConfig) -> Duration {
    cfg.timeout.initial().min(Duration::from_millis(200))
}

/// When an initiator re-sends a request (an [`Outbound`] leg) or a
/// control query (`blast_node::Client`'s `Stats` and `Copy` RPCs): the
/// first wait is the probe timeout the path's carried smoothed round
/// trip gives (`2 × srtt`, at least
/// [`PROBE_FLOOR`](blast_core::control::PROBE_FLOOR):
/// [`AdaptiveTimeout::pto_of`](blast_core::AdaptiveTimeout::pto_of), at
/// most [`retry_interval`]), and each later wait doubles the last, up
/// to [`retry_interval`].  Without an estimate, or under a fixed
/// timeout, every wait is [`retry_interval`].
///
/// A lost request then costs a probe timeout, as a lost data tail does
/// ([`blast_core::blast`]), not an RTO: a spurious re-send costs one
/// duplicate request and one re-sent echo, not a retransmission round.
/// On loopback the floor is the first wait, and from its 1 ms to a
/// 25 ms ceiling the ramp is five waits (1, 2, 4, 8, 16 ms), so a
/// responder that never answers hears at most five more requests over
/// the leg's life than at the ceiling alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    next: Duration,
    ceiling: Duration,
}

impl Backoff {
    /// The schedule of a path whose carried estimate is `rtt` (`(srtt,
    /// rttvar)`), under `cfg`.
    pub fn new(cfg: &ProtocolConfig, rtt: Option<(Duration, Duration)>) -> Self {
        let ceiling = retry_interval(cfg);
        let first = rtt.and_then(|(srtt, _)| cfg.timeout.pto_of(srtt));
        Backoff {
            next: first.map_or(ceiling, |pto| pto.min(ceiling)),
            ceiling,
        }
    }

    /// Re-send every `interval`, without a ramp.
    pub(crate) fn every(interval: Duration) -> Self {
        Backoff {
            next: interval,
            ceiling: interval,
        }
    }

    /// How long to wait before the next re-send; each call doubles the
    /// wait the next one returns, up to the ceiling.
    pub fn next_wait(&mut self) -> Duration {
        let wait = self.next;
        self.next = (wait * 2).min(self.ceiling);
        wait
    }
}

/// Which way the data phase flows, relative to the request's sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Direction {
    /// The initiator sends the data (storing a named blob on a node).
    #[default]
    Push,
    /// The initiator receives the data (fetching a named blob).
    Pull,
}

/// A decoded transfer request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Transfer length in bytes.  Zero in an outgoing pull request (the
    /// initiator does not know it); filled in by the responder's echo.
    pub len: usize,
    /// Payload bytes per data packet.
    pub packet_payload: usize,
    /// Blast retransmission strategy for the data phase.
    pub strategy: RetxStrategy,
    /// Packets per chunk for multi-blast transfers; `0` = single blast.
    pub multiblast_chunk: u32,
    /// Which way the data flows.
    pub direction: Direction,
    /// Blob name (empty for anonymous peer-to-peer transfers).
    pub name: String,
    /// The grant of the side that will receive the data, carried in the
    /// datagram's extension area: a push's echo, a pull's request.
    pub grant: Option<Grant>,
}

impl Request {
    /// A push request for `len` bytes, taking packet size and strategy
    /// from `cfg`.  `multiblast` selects chunked transfer.
    pub fn push(len: usize, cfg: &ProtocolConfig, multiblast: bool) -> Self {
        Request {
            len,
            packet_payload: cfg.packet_payload,
            strategy: cfg.strategy,
            multiblast_chunk: if multiblast { cfg.multiblast_chunk } else { 0 },
            direction: Direction::Push,
            name: String::new(),
            grant: None,
        }
    }

    /// A pull request for the blob `name`, with transfer parameters
    /// from `cfg`.  The length is unknown until the responder echoes.
    pub fn pull(name: &str, cfg: &ProtocolConfig) -> Self {
        Request {
            len: 0,
            packet_payload: cfg.packet_payload,
            strategy: cfg.strategy,
            multiblast_chunk: 0,
            direction: Direction::Pull,
            name: name.to_string(),
            grant: None,
        }
    }

    /// Builder-style setter for the blob name.
    pub fn with_name(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// Copy the negotiated transfer parameters into `cfg` (what a
    /// responder adopts before instantiating its engine).
    pub fn apply_to(&self, cfg: &mut ProtocolConfig) {
        cfg.packet_payload = self.packet_payload;
        cfg.strategy = self.strategy;
        if self.multiblast_chunk > 0 {
            cfg.multiblast_chunk = self.multiblast_chunk;
        }
    }

    /// Number of data packets the described transfer needs.
    pub fn total_packets(&self) -> u32 {
        if self.len == 0 {
            1
        } else {
            self.len.div_ceil(self.packet_payload) as u32
        }
    }

    /// Encode the request payload (`len` u64 | `packet_payload` u32 |
    /// strategy u8 | `multiblast_chunk` u32 | direction u8 | name-len
    /// u16 | name bytes).
    pub fn encode(&self) -> Vec<u8> {
        let mut p = [0u8; MAX_REQUEST_LEN];
        let n = self.encode_into(&mut p);
        p[..n].to_vec()
    }

    /// [`encode`](Request::encode) into `out`, returning the length.
    fn encode_into(&self, out: &mut [u8; MAX_REQUEST_LEN]) -> usize {
        debug_assert!(self.name.len() <= MAX_NAME_LEN, "blob name too long");
        let name = &self.name.as_bytes()[..self.name.len().min(MAX_NAME_LEN)];
        out[0..8].copy_from_slice(&(self.len as u64).to_be_bytes());
        out[8..12].copy_from_slice(&(self.packet_payload as u32).to_be_bytes());
        out[12] = strategy_to_u8(self.strategy);
        out[13..17].copy_from_slice(&self.multiblast_chunk.to_be_bytes());
        out[17] = match self.direction {
            Direction::Push => 0,
            Direction::Pull => 1,
        };
        out[18..20].copy_from_slice(&(name.len() as u16).to_be_bytes());
        out[MIN_REQUEST_LEN..MIN_REQUEST_LEN + name.len()].copy_from_slice(name);
        MIN_REQUEST_LEN + name.len()
    }

    /// The request a parsed `Request` datagram carries, its grant read
    /// from the extension area; `None` if the payload is malformed.
    pub fn parse(d: &Datagram<'_>) -> Option<Self> {
        let request = Request::decode(d.payload)?;
        Some(Request {
            grant: d.ext.grant,
            ..request
        })
    }

    /// Decode a request payload (no grant: that rides beside it); `None`
    /// if malformed.
    pub fn decode(p: &[u8]) -> Option<Self> {
        if p.len() < MIN_REQUEST_LEN {
            return None;
        }
        let len = u64::from_be_bytes(p[0..8].try_into().ok()?) as usize;
        let packet_payload = u32::from_be_bytes(p[8..12].try_into().ok()?) as usize;
        if packet_payload == 0 || packet_payload > blast_wire::MAX_ETHERNET_PAYLOAD {
            return None;
        }
        let strategy = strategy_from_u8(p[12]);
        let multiblast_chunk = u32::from_be_bytes(p[13..17].try_into().ok()?);
        let direction = match p[17] {
            0 => Direction::Push,
            1 => Direction::Pull,
            _ => return None,
        };
        let name_len = u16::from_be_bytes(p[18..20].try_into().ok()?) as usize;
        if name_len > MAX_NAME_LEN || p.len() != MIN_REQUEST_LEN + name_len {
            return None;
        }
        let name = std::str::from_utf8(&p[20..]).ok()?.to_string();
        Some(Request {
            len,
            packet_payload,
            strategy,
            multiblast_chunk,
            direction,
            name,
            grant: None,
        })
    }

    /// Build the complete `Request` datagram for `transfer_id`, its
    /// grant (if any) in the extension area.
    pub fn build_datagram(&self, transfer_id: u32) -> Vec<u8> {
        // The payload is staged on the stack: the datagram is the one
        // allocation.
        let mut payload = [0u8; MAX_REQUEST_LEN];
        let len = self.encode_into(&mut payload);
        let ext = Ext { grant: self.grant };
        let mut buf = vec![0u8; blast_wire::HEADER_LEN + len + ext.encoded_len()];
        let n = DatagramBuilder::new(transfer_id)
            .ext(ext)
            .build_request(&mut buf, self.total_packets(), &payload[..len])
            .expect("request fits");
        buf.truncate(n);
        buf
    }
}

/// Wire byte for a strategy (its index in [`RetxStrategy::ALL`]).
fn strategy_to_u8(s: RetxStrategy) -> u8 {
    RetxStrategy::ALL
        .iter()
        .position(|&x| x == s)
        .expect("strategy in ALL") as u8
}

/// Strategy for a wire byte (modulo the table, so any byte decodes).
pub fn strategy_from_u8(b: u8) -> RetxStrategy {
    RetxStrategy::ALL[(b as usize) % RetxStrategy::ALL.len()]
}

/// What [`initiate`] returns once the responder echoes.
#[derive(Debug)]
pub struct HandshakeReply {
    /// The request as echoed (for pulls, `len` is now authoritative).
    pub echoed: Request,
    /// Request datagrams transmitted before the echo arrived.
    pub datagrams_sent: u64,
}

/// Run the initiator side up to the echo: the [`Outbound`] leg and its
/// blocking loop, stopped there.  The `Request` goes out every
/// `retry_interval` until the responder echoes it or sends `Cancel`;
/// anything else (stray data, other transfers, garbage) is dropped.
/// Duplicate-tolerance is the responder's job: any one echo may be
/// lost, so it echoes every duplicate request.
///
/// Errors: `InvalidInput` for a blob name over [`MAX_NAME_LEN`],
/// `NotFound` if the responder cancels (e.g. pulling a blob the node
/// does not have), `TimedOut` if `deadline` passes un-echoed.
pub fn initiate<C: Channel>(
    channel: &mut C,
    transfer_id: u32,
    request: &Request,
    retry_interval: Duration,
    deadline: Duration,
) -> io::Result<HandshakeReply> {
    let mut leg = Outbound::new(transfer_id, request, Then::Stop, &ProtocolConfig::default())?;
    leg.retry = Backoff::every(retry_interval);
    leg.run(channel, &mut vec![0; MAX_DATAGRAM], deadline)?;
    Ok(HandshakeReply {
        echoed: leg
            .echoed()
            .cloned()
            .expect("a stopping leg ends at the echo"),
        datagrams_sent: leg.requests_sent,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use blast_wire::header::PacketKind;
    use blast_wire::packet::Datagram;

    fn sample() -> Request {
        Request {
            len: 123_456,
            packet_payload: 1400,
            strategy: RetxStrategy::Selective,
            multiblast_chunk: 32,
            direction: Direction::Pull,
            name: "models/weights.bin".to_string(),
            grant: None,
        }
    }

    #[test]
    fn roundtrip_with_name_and_direction() {
        let r = sample();
        assert_eq!(Request::decode(&r.encode()), Some(r));
    }

    #[test]
    fn roundtrip_empty_name_push() {
        let r = Request::push(999, &ProtocolConfig::default(), true);
        assert_eq!(r.multiblast_chunk, 64);
        assert_eq!(Request::decode(&r.encode()), Some(r));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Request::decode(&[]).is_none());
        assert!(Request::decode(&[0; 12]).is_none());
        // Zero packet size.
        let mut bad = sample().encode();
        bad[8..12].copy_from_slice(&0u32.to_be_bytes());
        assert!(Request::decode(&bad).is_none());
        // Unknown direction byte.
        let mut bad = sample().encode();
        bad[17] = 7;
        assert!(Request::decode(&bad).is_none());
        // Name length that contradicts the payload length.
        let mut bad = sample().encode();
        bad[18..20].copy_from_slice(&999u16.to_be_bytes());
        assert!(Request::decode(&bad).is_none());
        // Truncated before the name: mid length-prefix, and the 17
        // transfer-parameter bytes alone (no direction, no name).
        let good = sample().encode();
        assert!(Request::decode(&good[..MIN_REQUEST_LEN - 1]).is_none());
        assert!(Request::decode(&good[..17]).is_none());
        // Non-UTF-8 name.
        let mut bad = sample().encode();
        let end = bad.len();
        bad[end - 1] = 0xff;
        assert!(Request::decode(&bad).is_none());
    }

    #[test]
    fn initiate_rejects_oversized_name_immediately() {
        struct DeadChannel;
        impl crate::channel::Channel for DeadChannel {
            fn send(&mut self, _: &[u8]) -> std::io::Result<()> {
                panic!("must fail before any send");
            }
            fn recv_timeout(
                &mut self,
                _: &mut [u8],
                _: Duration,
            ) -> std::io::Result<Option<usize>> {
                Ok(None)
            }
        }
        let cfg = ProtocolConfig::default();
        let request = Request::pull(&"x".repeat(MAX_NAME_LEN + 1), &cfg);
        let err = initiate(
            &mut DeadChannel,
            1,
            &request,
            Duration::from_millis(1),
            Duration::from_secs(1),
        )
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn strategy_byte_roundtrip() {
        for s in RetxStrategy::ALL {
            assert_eq!(strategy_from_u8(strategy_to_u8(s)), s);
        }
        // Any byte decodes to *some* strategy (modulo table).
        let _ = strategy_from_u8(0xff);
    }

    #[test]
    fn apply_to_adopts_negotiated_parameters() {
        let mut cfg = ProtocolConfig::default();
        sample().apply_to(&mut cfg);
        assert_eq!(cfg.packet_payload, 1400);
        assert_eq!(cfg.strategy, RetxStrategy::Selective);
        assert_eq!(cfg.multiblast_chunk, 32);
        // A single-blast request leaves the chunk setting alone.
        let mut cfg = ProtocolConfig::default();
        Request::push(10, &cfg.clone(), false).apply_to(&mut cfg);
        assert_eq!(cfg.multiblast_chunk, 64);
    }

    #[test]
    fn total_packets_rounds_up_and_floors_at_one() {
        let r = Request::push(0, &ProtocolConfig::default(), false);
        assert_eq!(r.total_packets(), 1);
        let r = Request::push(1025, &ProtocolConfig::default(), false);
        assert_eq!(r.total_packets(), 2);
    }

    #[test]
    fn build_datagram_parses_as_request() {
        let r = sample();
        let dgram = r.build_datagram(42);
        let d = Datagram::parse(&dgram).unwrap();
        assert_eq!(d.kind, PacketKind::Request);
        assert_eq!(d.transfer_id, 42);
        assert_eq!(Request::decode(d.payload), Some(r));
    }

    /// A grant adds 11 bytes to the datagram, comes back from
    /// [`Request::parse`], and leaves the payload [`Request::decode`]
    /// checks exactly as it was.
    #[test]
    fn a_grant_rides_beside_the_payload() {
        let bare = sample().build_datagram(42);
        let grant = Grant {
            queue: 3640,
            drain_ns: 900,
        };
        let granted = Request {
            grant: Some(grant),
            ..sample()
        };
        let dgram = granted.build_datagram(42);
        assert_eq!(dgram.len(), bare.len() + 11);
        let d = Datagram::parse(&dgram).unwrap();
        assert_eq!(Request::decode(d.payload), Some(sample()));
        assert_eq!(Request::parse(&d), Some(granted));
        assert_eq!(
            Request::parse(&Datagram::parse(&bare).unwrap()),
            Some(sample())
        );
    }
}
