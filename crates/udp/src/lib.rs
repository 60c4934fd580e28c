//! # blast-udp — the blast protocols over real UDP sockets
//!
//! The same sans-I/O engines that reproduce the paper's 1985
//! measurements under `blast-sim` run here over `std::net::UdpSocket`,
//! making them a real, working bulk-transfer transport on today's
//! machines.  UDP is the modern equivalent of the paper's raw
//! data-link-layer access: unreliable, unordered datagrams with no
//! retransmission — exactly the substrate the blast protocols were
//! designed to run on.
//!
//! * [`channel`] — a minimal datagram-channel abstraction over
//!   connected UDP sockets (send / receive-with-timeout);
//! * [`fault`] — a fault-injecting channel wrapper (drop, duplicate,
//!   reorder, corrupt — in the spirit of smoltcp's `--drop-chance` /
//!   `--corrupt-chance` knobs), because loopback UDP is *too* reliable
//!   to exercise retransmission;
//! * [`pump`] — the one engine-call sequence every driver shares: set
//!   the clock, call the engine, apply its actions to a transmit sink
//!   and a keyed timer wheel, report completion;
//! * [`handshake`] — the pre-allocation `Request` handshake: transfer
//!   length, packet size, strategy, direction and blob name, encoded in
//!   a `Request` packet that is retransmitted until echoed;
//! * [`outbound`] — the initiator's leg, sans I/O: one transfer from
//!   request through echo to completion, and the blocking loop that runs
//!   it over a channel (`blast_node::Client`; a node's copy legs);
//! * [`grant`] — the receiver's grant, stated in the handshake: the
//!   datagrams its socket queue holds for the transfer and its measured
//!   drain interval, which set the sender's burst and tail timer;
//! * [`path`] — per-peer path state that outlives a transfer: the
//!   round-trip estimate each peer's last completed transfer ended at,
//!   which seeds the next one's round-0 retransmission timer and
//!   request re-sends, so a lost tail or request does not wait out the
//!   configured initial timeout;
//! * [`timers`] — the timer wheel behind both (and behind the
//!   multi-session `blast-node` server);
//! * [`timewait`] — a channel adaptor that keeps re-acknowledging for
//!   receivers that have finished, from whatever receive loop runs
//!   next, so no transfer waits out a linger timer;
//! * [`copy`] — third-party-copy control messages: a client orders one
//!   node to move a named blob directly to/from another node, polls the
//!   copy's status, and digest-verifies the replica;
//! * [`netio`] — the pluggable syscall backend: `UDP_SEGMENT`/`UDP_GRO`
//!   segmentation offload under batched `sendmmsg`/`recvmmsg`
//!   submission with event-driven `ppoll` waits, on Linux
//!   kernels that accept both options; a portable single-syscall
//!   backend everywhere else (force it with `BLAST_NETIO=portable`);
//! * [`gso`] — the sans-I/O coalescer/splitter arithmetic behind that
//!   offload (runs of equal-size datagrams, tail runts, GRO splits);
//! * [`peer`] — [`TransferReport`], what a finished transfer hands
//!   back;
//! * [`sockopt`] — `SO_RCVBUF`/`SO_SNDBUF` growth at socket setup, so a
//!   whole blast round fits in the kernel's queues instead of spilling
//!   (the modern form of the paper's §3 interface errors), plus
//!   `SO_REUSEPORT` socket groups so a sharded node can bind N sockets
//!   on one address and let the kernel's 4-tuple hash spread sessions
//!   across reactor threads.
//!
//! ## Example: a pull leg, sans I/O
//!
//! Here the example plays the responder; over a real channel,
//! [`Outbound::run`] makes the same calls in a blocking loop.
//!
//! ```
//! use std::time::Instant;
//! use blast_core::ProtocolConfig;
//! use blast_udp::pump::Input;
//! use blast_udp::{Outbound, Request, TimerWheel};
//! use blast_wire::packet::Datagram;
//!
//! let cfg = ProtocolConfig::default();
//! let request = Request::pull("blob", &cfg);
//! let mut leg = Outbound::pull(7, &request, &cfg, 1 << 20)?;
//! let (epoch, mut timers, mut sent) = (Instant::now(), TimerWheel::new(), 0);
//! let mut step = |leg: &mut Outbound, input| {
//!     let stage = |_len: usize, _build: &mut dyn FnMut(&mut [u8])| {
//!         sent += 1;
//!         Ok(())
//!     };
//!     leg.step(epoch, Instant::now(), input, &mut timers, |t| t, stage)
//! };
//! step(&mut leg, Input::Start)?; // the request, re-sent until echoed
//!
//! // The responder echoes it, announcing the blob's size: the leg now
//! // runs a receiver for exactly that many bytes.
//! let echo = Request { len: 3000, ..request.clone() }.build_datagram(7);
//! step(&mut leg, Input::Datagram(&Datagram::parse(&echo).unwrap()))?;
//! assert_eq!(leg.echoed().map(|echo| echo.len), Some(3000));
//! assert!(leg.engine().is_some() && sent == 1);
//! # Ok::<(), std::io::Error>(())
//! ```

// Deny (not forbid): `sockopt` and `netio` contain this crate's two
// sanctioned `unsafe` surfaces — audited FFI for socket-buffer tuning
// and for the batched syscall backend — each opting in with a
// module-level allow, mirroring the `blast-counting-alloc` precedent.
// Everything else still refuses unsafe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod copy;
pub mod fault;
pub mod fcs;
pub mod grant;
pub mod gso;
pub mod handshake;
pub mod netio;
pub mod outbound;
pub mod path;
pub mod peer;
pub mod pump;
pub mod sockopt;
pub mod timers;
pub mod timewait;

pub use channel::{Channel, UdpChannel};
pub use copy::{BlobDigest, CopyMode, CopyMsg, CopyState, CopyStatus, CopySubmit};
pub use fault::{FaultConfig, FaultyChannel};
pub use fcs::FcsChannel;
pub use handshake::{Direction, Request};
pub use netio::{BackendKind, NetIo, NetIoStats};
pub use outbound::Outbound;
pub use path::PathTable;
pub use peer::TransferReport;
pub use timers::TimerWheel;
pub use timewait::TimeWait;
