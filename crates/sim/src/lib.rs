//! # blast-sim — a discrete-event simulator of the paper's testbed
//!
//! Reproduces the machinery of *Zwaenepoel, SIGCOMM 1985*: SUN
//! workstations whose processors copy packets into and out of 3-Com
//! Ethernet interfaces, connected by a 10 Mbit Ethernet.  The protocol
//! engines from `blast-core` run unmodified on top of the simulated
//! hardware — the same state machines that run over real UDP in
//! `blast-udp`.
//!
//! ## Why a simulator
//!
//! The paper's central claim is *architectural*: per-packet processor
//! copies dominate elapsed time on a LAN, so protocols that overlap the
//! two hosts' copies (blast, sliding window) beat protocols that
//! serialize them (stop-and-wait) by ~2×.  That claim is about the
//! interaction of CPU, interface buffer and wire — so the reproduction
//! must model those three resources explicitly.  The simulator is
//! calibrated with the paper's own measured constants (`C`, `Ca`, `T`,
//! `Ta`; Table 2/3) and validated against the closed-form model of
//! §2.1.3 to the nanosecond (see `tests/model_vs_sim.rs`).
//!
//! ## Quick example
//!
//! ```
//! use std::sync::Arc;
//!
//! use blast_sim::{SimConfig, Simulator};
//! use blast_core::blast::{BlastReceiver, BlastSender};
//! use blast_core::ProtocolConfig;
//!
//! let mut sim = Simulator::new(SimConfig::standalone());
//! let a = sim.add_host("sun-1");
//! let b = sim.add_host("sun-2");
//! let cfg = ProtocolConfig::default();
//! let data: Vec<u8> = vec![0u8; 64 * 1024];
//! sim.attach(a, b, Box::new(BlastSender::new(1, Arc::new(data.clone()), &cfg)));
//! sim.attach(b, a, Box::new(BlastReceiver::new(1, data.len(), &cfg)));
//! let report = sim.run();
//! // §2.1.3: T_B = 64×(C+T) + C + 2Ca + Ta = 140.62 ms.
//! assert_eq!(report.elapsed_ms(a, 1), Some(140.62));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod sim;
pub mod time;
pub mod trace;

pub use config::{LossModel, SimConfig, TimingPolicy};
pub use sim::{Completion, HostStats, SimReport, Simulator};
pub use time::{ms, SimTime};
pub use trace::{render_timeline, to_chrome_trace, Lane, TraceEvent};
