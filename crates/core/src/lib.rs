//! # blast-core — sans-I/O engines for large data transfers
//!
//! This crate implements the three protocol classes analyzed in
//! *W. Zwaenepoel, "Protocols for Large Data Transfers over Local
//! Networks", SIGCOMM 1985*, plus the four blast retransmission
//! strategies of §3.2:
//!
//! | Protocol | Module | Paper section |
//! |---|---|---|
//! | stop-and-wait | [`saw`] | §2.1, Fig. 3.a |
//! | sliding window | [`window`] | §2.1, Fig. 3.c |
//! | blast | [`blast`] | §2.1, Fig. 3.b, §3 |
//! | multi-blast | [`multiblast`] | §3.1.3 ("use of multiple blasts") |
//!
//! Blast retransmission strategies ([`config::RetxStrategy`]):
//!
//! 1. full retransmission on error, no negative acknowledgement;
//! 2. full retransmission with a NACK after the last packet;
//! 3. retransmission from the first packet not received (go-back-n) —
//!    the paper's recommended strategy;
//! 4. selective retransmission of exactly the packets not received.
//!
//! ## Sans-I/O design
//!
//! Engines are *pure state machines*: they receive parsed datagrams and
//! timer expirations, and emit [`api::Action`]s (transmit, set/cancel
//! timer, complete).  They never touch sockets or clocks.  The same
//! engine code runs:
//!
//! * under the discrete-event simulator (`blast-sim`) to reproduce the
//!   paper's measurements, where "transmit" costs simulated processor
//!   copy time `C` into the network interface;
//! * over real UDP sockets (`blast-udp`);
//! * directly in unit/property tests via [`harness`] — all three
//!   injecting packet loss from the one [`loss::LossModel`].
//!
//! This mirrors the paper's protocol structure: the V kernel protocol is
//! "implemented at the network interrupt level", i.e. it *is* a reactive
//! state machine driven by packet arrival and timer interrupts.
//!
//! ## Assumptions inherited from the paper
//!
//! * The receiver has buffers for the whole transfer allocated before the
//!   transfer starts ([`rxbuf::RxBuffer`] is created up front; data
//!   packets are copied straight into their final position, no
//!   reassembly queues).
//! * Sender and receiver are matched in speed (no flow control beyond
//!   the optional sliding-window limit; the paper's window "never
//!   closes").
//! * Errors are packet *losses*: corrupted packets are dropped by the
//!   wire layer's checksums, exactly as the Ethernet FCS dropped them in
//!   1985 (see `blast-wire`).
//!
//! ## Quick example
//!
//! ```
//! use blast_core::config::ProtocolConfig;
//! use blast_core::blast::{BlastSender, BlastReceiver};
//! use blast_core::harness::{Harness, LossPlan};
//!
//! let config = ProtocolConfig::default();
//! let data: Vec<u8> = (0..10_000u32).map(|i| i as u8).collect();
//! let sender = BlastSender::new(1, &data[..], &config);
//! let receiver = BlastReceiver::new(1, data.len(), &config);
//!
//! let mut h = Harness::new(sender, receiver, LossPlan::perfect());
//! let outcome = h.run().expect("transfer completes");
//! assert_eq!(h.received_data(), &data[..]);
//! assert_eq!(outcome.sender.data_packets_sent, 10); // 10 × 1 KiB packets
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod blast;
pub mod config;
pub mod control;
pub mod engine;
pub mod error;
pub mod harness;
pub mod loss;
pub mod multiblast;
pub mod pool;
pub mod rxbuf;
pub mod saw;
pub mod txdata;
pub mod window;

pub use api::{Action, CompletionInfo, EngineStats, Outcome, TimerToken};
pub use config::{ProtocolConfig, ProtocolKind, RetxStrategy};
pub use control::{
    AdaptiveTimeout, Pacer, PacerSnapshot, PacingConfig, RttEstimator, MAX_GRANT, PACE_TIMER,
};
pub use engine::Engine;
pub use error::{CoreError, CoreResult};
pub use pool::{BufferPool, PooledBuf};
