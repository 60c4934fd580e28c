//! The report of one finished transfer.
//!
//! What [`Outbound::run`](crate::outbound::Outbound::run) — and so
//! `blast_node::Client`'s `push` and `pull` — hands back.

use std::time::Duration;

use blast_core::api::EngineStats;

/// Outcome of a completed transfer (either side).
#[derive(Debug)]
pub struct TransferReport {
    /// The received bytes (empty for the sending side).
    pub data: Vec<u8>,
    /// Wall-clock duration of the data phase (echo to completion).
    pub elapsed: Duration,
    /// Engine counters.
    pub stats: EngineStats,
    /// The sender's AIMD pacing state at completion (`None` for
    /// receivers and unpaced senders) — the burst trajectory a
    /// transfer ended on.
    pub pacing: Option<blast_core::PacerSnapshot>,
    /// Datagrams sent on the channel (handshake included).
    pub datagrams_sent: u64,
    /// Datagrams received on the channel.
    pub datagrams_received: u64,
    /// Malformed datagrams dropped by wire validation (and, behind an
    /// FCS channel, by the frame check).
    pub malformed: u64,
}

impl TransferReport {
    /// Effective goodput in megabits per second.
    pub fn goodput_mbps(&self, bytes: usize) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return f64::INFINITY;
        }
        (bytes * 8) as f64 / secs / 1e6
    }
}
