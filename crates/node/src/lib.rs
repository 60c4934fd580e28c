//! # blast-node — a concurrent blast transfer server over UDP
//!
//! The paper's engines move one transfer at a time; this crate serves
//! many at once, which is how modern bulk-transfer services scale: a
//! node multiplexing many simultaneous sessions across N reactor
//! shards, judged on aggregate concurrent throughput.
//!
//! * [`server`] — the node: [`NodeBuilder`] binds one address as an
//!   `SO_REUSEPORT` socket group and spawns one reactor thread per
//!   shard — each a non-blocking `std::net::UdpSocket` event loop with
//!   its own buffer pool and exactly one table and one timer wheel: the
//!   table, keyed `Inbound(id) | Outbound(id)`, holds the sessions the
//!   `blast-udp` pre-allocation handshake opened and the third-party
//!   copies the node drives as a client, each entry owning its
//!   sans-I/O engine (any of the four retransmission strategies, in
//!   either direction); the wheel is keyed by `(entry, TimerToken)`;
//!   and every engine call goes through the one `blast_udp::pump`; each
//!   shard publishes its [`NodeMetrics`] at the end of every tick, and
//!   the [`NodeHandle`] merges them on read;
//! * [`store`] — the named-blob catalogue the node serves, the
//!   in-memory [`MemStore`] (the `blast-vkernel` file-server semantics
//!   at the page level), shared by every shard as a [`SharedStore`];
//! * [`client`] — the [`Client`] handle: `push` / `pull` / `stats`
//!   against a node, plus third-party `copy_to` / `copy_from` /
//!   `fan_out` orchestration of node-to-node transfers;
//! * [`metrics`] — per-session reports and [`NodeMetrics`], the one
//!   type a shard, its published snapshot and the node's merge count in.
//!
//! ## Example (a sharded node + one client)
//!
//! ```
//! use std::time::Duration;
//! use blast_node::server::NodeBuilder;
//! use blast_node::client::Client;
//!
//! let node = NodeBuilder::new()
//!     .timeout(Duration::from_millis(20))
//!     .shards(2) // falls back to 1 where SO_REUSEPORT is unavailable
//!     .start()
//!     .unwrap();
//!
//! let data: Vec<u8> = (0..50_000u32).map(|i| i as u8).collect();
//! let mut client = Client::connect(node.addr())
//!     .unwrap()
//!     .timeout(Duration::from_millis(20));
//! client.push("blob", &data).unwrap();
//! let pulled = client.pull("blob").unwrap();
//! assert_eq!(pulled.data, data);
//!
//! // `pull` returns with the last byte, one datagram before the node
//! // hears the final ack: drain before counting.
//! assert!(node.wait_idle(Duration::from_secs(5)));
//! let metrics = node.shutdown().unwrap();
//! assert_eq!(metrics.sessions_completed, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod metrics;
pub mod server;
pub mod store;

pub use client::{Client, CopyReport};
pub use metrics::{NodeMetrics, SessionReport};
pub use server::{NodeBuilder, NodeConfig, NodeHandle};
pub use store::{shared_store, MemStore, SharedStore};
