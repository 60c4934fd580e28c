//! # blastlan — protocols for large data transfers over local networks
//!
//! An umbrella crate re-exporting the whole workspace: a faithful,
//! production-quality reproduction of *W. Zwaenepoel, "Protocols for
//! Large Data Transfers over Local Networks", SIGCOMM 1985*.
//!
//! | Crate | Contents |
//! |---|---|
//! | [`wire`] | Ethernet II framing, blast transport headers, ack/NACK encodings, checksums |
//! | [`core`] | Sans-I/O engines: stop-and-wait, sliding window, blast (4 retransmission strategies), multi-blast |
//! | [`sim`] | Discrete-event simulator of the paper's hardware: CPUs with copy costs, single/double-buffered interfaces, 10 Mbit Ethernet, fault injection |
//! | [`analytic`] | Closed-form performance model (§2.1.3, §3.1, §3.2) and Monte-Carlo estimators |
//! | [`vkernel`] | Miniature V-kernel IPC: processes, Send/Receive/Reply, MoveTo/MoveFrom, file server |
//! | [`udp`] | The same engines over real UDP sockets with fault injection |
//! | [`node`] | Concurrent blast transfer server: many push/pull sessions across N `SO_REUSEPORT` reactor shards |
//! | [`telemetry`] | Flight recorder: zero-alloc SPSC event rings, JSONL + Perfetto (Chrome trace-event) exporters |
//! | [`stats`] | Experiment support: online statistics, histograms, tables, ASCII charts |
//!
//! See `README.md` for a tour, `DESIGN.md` for the architecture and the
//! experiment index, and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! ## Quickstart
//!
//! ```
//! use blastlan::core::blast::{BlastReceiver, BlastSender};
//! use blastlan::core::harness::{Harness, LossPlan};
//! use blastlan::core::ProtocolConfig;
//!
//! let config = ProtocolConfig::default();
//! let data: Vec<u8> = (0..64 * 1024).map(|i| (i % 251) as u8).collect();
//!
//! let sender = BlastSender::new(7, &data[..], &config);
//! let receiver = BlastReceiver::new(7, data.len(), &config);
//! let mut harness = Harness::new(sender, receiver, LossPlan::random(42, 1, 10_000));
//! let outcome = harness.run().expect("transfer completes");
//! assert_eq!(harness.received_data(), &data[..]);
//! println!("sent {} packets ({} retransmitted)",
//!          outcome.sender.data_packets_sent,
//!          outcome.sender.data_packets_retransmitted);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use blast_analytic as analytic;
pub use blast_core as core;
pub use blast_node as node;
/// The node's control surface, re-exported at the top level: build a
/// sharded node with [`NodeBuilder`], drive it through [`NodeHandle`],
/// talk to it with a [`Client`] (push/pull/stats plus third-party
/// `copy_to`/`copy_from`/`fan_out`), and share a blob catalogue, a
/// [`SharedStore`] from [`shared_store`].
pub use blast_node::{
    shared_store, Client, CopyReport, MemStore, NodeBuilder, NodeHandle, SharedStore,
};
pub use blast_sim as sim;
pub use blast_stats as stats;
pub use blast_telemetry as telemetry;
/// The flight recorder's handles, re-exported at the top level: create
/// a [`Telemetry`] (or get one from `NodeBuilder::telemetry`), thread
/// [`Recorder`]s through engines and drivers, and drain the merged
/// stream into `telemetry::export::{jsonl, chrome_trace}`.
pub use blast_telemetry::{Recorder, Telemetry};
pub use blast_udp as udp;
pub use blast_vkernel as vkernel;
pub use blast_wire as wire;

/// Compile-checks every code block in the README.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
