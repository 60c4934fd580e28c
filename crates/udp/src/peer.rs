//! The report of one finished transfer.
//!
//! Transfers themselves are `blast_node::Client` operations against a
//! node; this is what `push` and `pull` hand back.

use std::io;
use std::time::Duration;

use blast_core::api::EngineStats;

use crate::driver::DriveOutcome;

/// Outcome of a completed transfer (either side).
#[derive(Debug)]
pub struct TransferReport {
    /// The received bytes (empty for the sending side).
    pub data: Vec<u8>,
    /// Wall-clock duration of the data phase.
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
    /// Malformed datagrams dropped by wire validation.
    pub malformed: u64,
}

impl TransferReport {
    /// The report of one driven data phase, or an error naming `what`
    /// failed.  `handshake_sent` counts the datagrams the handshake
    /// put on the wire before the driver took over; `fcs_drops` the
    /// frames the channel's FCS check discarded during the run (they
    /// never reached the driver, so they join its malformed count).
    pub fn from_drive(
        what: &str,
        out: DriveOutcome,
        handshake_sent: u64,
        fcs_drops: u64,
        pacing: Option<blast_core::PacerSnapshot>,
        data: Vec<u8>,
    ) -> io::Result<Self> {
        match out.completion.result {
            Ok(_) => Ok(TransferReport {
                data,
                elapsed: out.elapsed,
                stats: out.completion.stats,
                pacing,
                datagrams_sent: out.datagrams_sent + handshake_sent,
                datagrams_received: out.datagrams_received,
                malformed: out.malformed + fcs_drops,
            }),
            Err(e) => Err(io::Error::other(format!("{what} failed: {e}"))),
        }
    }

    /// Effective goodput in megabits per second.
    pub fn goodput_mbps(&self, bytes: usize) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return f64::INFINITY;
        }
        (bytes * 8) as f64 / secs / 1e6
    }
}
