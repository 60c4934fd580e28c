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
//! * [`driver`] — a blocking event loop that pumps one engine over a
//!   channel with real (wall-clock) timers, and returns the moment the
//!   engine completes;
//! * [`timers`] — the timer wheel behind that loop (and behind the
//!   multi-session `blast-node` server);
//! * [`timewait`] — a channel adaptor that keeps re-acknowledging for
//!   receivers that have finished, from whatever receive loop runs
//!   next, so no transfer waits out a linger timer;
//! * [`handshake`] — the pre-allocation `Request` handshake: transfer
//!   length, packet size, strategy, direction and blob name, encoded in
//!   a `Request` packet that is retransmitted until echoed;
//! * [`copy`] — third-party-copy control messages: a client orders one
//!   node to move a named blob directly to/from another node, polls the
//!   copy's status, and digest-verifies the replica;
//! * [`netio`] — the pluggable syscall backend: batched
//!   `sendmmsg`/`recvmmsg` submission with event-driven epoll + timerfd
//!   waits and runtime-probed `UDP_SEGMENT`/`UDP_GRO` segmentation
//!   offload on Linux, a portable single-syscall fallback everywhere
//!   else (force it with `BLAST_NETIO=portable`);
//! * [`gso`] — the sans-I/O coalescer/splitter arithmetic behind that
//!   offload (runs of equal-size datagrams, tail runts, GRO splits);
//! * [`peer`] — [`TransferReport`], what a finished transfer hands
//!   back (the transfers themselves are `blast_node::Client`
//!   operations against a node);
//! * [`sockopt`] — `SO_RCVBUF`/`SO_SNDBUF` growth at socket setup, so a
//!   whole blast round fits in the kernel's queues instead of spilling
//!   (the modern form of the paper's §3 interface errors), plus
//!   `SO_REUSEPORT` socket groups so a sharded node can bind N sockets
//!   on one address and let the kernel's 4-tuple hash spread sessions
//!   across reactor threads.
//!
//! ## Example (two threads over loopback)
//!
//! One engine per side, each under its own [`Driver`].  (A whole
//! transfer — handshake, named blobs, many sessions — is
//! `blast_node::Client` against a `blast_node` node.)
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use blast_core::blast::{BlastReceiver, BlastSender};
//! use blast_core::ProtocolConfig;
//! use blast_udp::channel::UdpChannel;
//! use blast_udp::Driver;
//!
//! let (a, b) = UdpChannel::pair().unwrap();
//! let mut cfg = ProtocolConfig::default();
//! cfg.timeout = Duration::from_millis(20).into();
//! let data: Arc<[u8]> = (0..100_000u32).map(|i| i as u8).collect();
//!
//! let (cfg2, data2) = (cfg.clone(), data.clone());
//! let sender = std::thread::spawn(move || {
//!     let mut engine = BlastSender::new(7, data2, &cfg2);
//!     Driver::new(a).run(&mut engine).unwrap()
//! });
//! let mut engine = BlastReceiver::new(7, data.len(), &cfg);
//! let received = Driver::new(b).run(&mut engine).unwrap();
//! assert!(received.completion.is_success());
//! assert!(sender.join().unwrap().completion.is_success());
//! assert_eq!(engine.into_data(), &data[..]);
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
pub mod driver;
pub mod fault;
pub mod fcs;
pub mod gso;
pub mod handshake;
pub mod netio;
pub mod peer;
pub mod pump;
pub mod sockopt;
pub mod timers;
pub mod timewait;

pub use channel::{Channel, UdpChannel};
pub use copy::{BlobDigest, CopyMode, CopyMsg, CopyState, CopyStatus, CopySubmit};
pub use driver::Driver;
pub use fault::{FaultConfig, FaultyChannel};
pub use fcs::FcsChannel;
pub use handshake::{Direction, Request};
pub use netio::{BackendKind, NetIo, NetIoStats};
pub use peer::TransferReport;
pub use timers::TimerWheel;
pub use timewait::TimeWait;
