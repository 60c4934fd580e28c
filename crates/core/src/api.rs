//! The action vocabulary engines use to talk to their driver, plus
//! completion bookkeeping.

use core::fmt;
use std::time::Duration;

use crate::error::CoreError;
use crate::pool::{BufferPool, PooledBuf};

/// Identifies a timer within one engine.
///
/// Tokens are engine-scoped: the driver keys pending timers by
/// `(engine, token)`.  Setting a timer with a token that is already
/// pending **replaces** it; cancelling a non-pending token is a no-op.
/// Stop-and-wait and blast engines use a single token; the sliding-window
/// sender uses one token per in-flight packet (its sequence number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerToken(pub u64);

/// One instruction from an engine to its driver.
///
/// The driver executes actions *in order*.  Order matters: the paper's
/// cost model charges processor copy time per transmitted packet, so the
/// simulator turns each `Transmit` into "occupy the CPU for `C`, then
/// hand the frame to the interface" in emission order, which is exactly
/// how the measured SUN code behaved (copy loop, then start transmit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Hand a complete transport datagram (header + payload, as produced
    /// by `blast_wire::DatagramBuilder`) to the network.
    ///
    /// Engines emit it through [`ActionSink::transmit`], whose default
    /// builds the datagram in a buffer checked out of the shared
    /// [`crate::pool::BufferPool`] and pushes it here; the driver
    /// dropping the executed action checks the buffer back in, so the
    /// steady-state packet loop allocates nothing.  A sink that stages
    /// datagrams itself (the UDP drivers' pump) overrides `transmit`,
    /// and the datagram is built where it is staged instead, without
    /// this action.
    Transmit(PooledBuf),
    /// Arm (or re-arm) the timer `token` to fire after `after`.
    SetTimer {
        /// Engine-scoped timer identity.
        token: TimerToken,
        /// Expiry relative to the engine's `now`, the instant the call
        /// that emitted this action began — not the moment a driver
        /// applies it.
        after: Duration,
    },
    /// Cancel the timer `token` if pending.
    CancelTimer {
        /// Engine-scoped timer identity.
        token: TimerToken,
    },
    /// The engine has finished, successfully or not.  No further actions
    /// will be emitted; the driver may drop the engine.
    Complete(Box<CompletionInfo>),
}

impl Action {
    /// Convenience: the transmitted bytes if this is a `Transmit`.
    pub fn as_transmit(&self) -> Option<&[u8]> {
        match self {
            Action::Transmit(bytes) => Some(bytes),
            _ => None,
        }
    }
}

/// Sink for engine actions.
///
/// A plain `Vec<Action>` implements this; drivers that want to avoid the
/// intermediate vector can implement it directly.
pub trait ActionSink {
    /// Receive one action.
    fn push_action(&mut self, action: Action);

    /// Transmit one datagram of exactly `len` bytes, which `write`
    /// builds into the `len`-byte slice it is handed.  Every engine
    /// transmits through this.
    ///
    /// The default checks a buffer out of `pool`, has `write` build the
    /// datagram in it and pushes [`Action::Transmit`].  A sink that
    /// stages datagrams for the network overrides it to hand `write`
    /// the staging memory itself, so each payload byte is written once
    /// between the engine's data and the kernel.
    fn transmit(&mut self, pool: &BufferPool, len: usize, write: &mut dyn FnMut(&mut [u8])) {
        let mut buf = pool.checkout_sized(len);
        write(&mut buf);
        self.push_action(Action::Transmit(buf));
    }
}

impl ActionSink for Vec<Action> {
    fn push_action(&mut self, action: Action) {
        self.push(action);
    }
}

/// Statistics one engine accumulated over its lifetime.
///
/// These are what the paper's experiments count: total packets placed on
/// the wire (each costs `C` or `Ca` of processor copy time plus `T` or
/// `Ta` of transmission time), how many of those were retransmissions,
/// and how many retransmission rounds (timeout or NACK triggered) the
/// transfer needed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Data packets transmitted, including retransmissions.
    pub data_packets_sent: u64,
    /// Data packets that were retransmissions.
    pub data_packets_retransmitted: u64,
    /// Acknowledgement packets transmitted (positive and negative).
    pub acks_sent: u64,
    /// Negative acknowledgements among `acks_sent`.
    pub nacks_sent: u64,
    /// Data packets received and newly placed in the buffer.
    pub data_packets_received: u64,
    /// Data packets received that were duplicates of already-placed data.
    pub duplicate_packets_received: u64,
    /// Acknowledgements received (positive and negative).
    pub acks_received: u64,
    /// Retransmission rounds: how many times the sender reacted to a
    /// timeout or NACK by sending more data (0 for an error-free run).
    pub retransmission_rounds: u64,
    /// Retransmission-timeout expiries the engine acted on (a tail
    /// probe's expiry is not one).
    pub timeouts: u64,
    /// Tail probes: a round's reliable tail re-sent once, before its
    /// retransmission timeout, because no report answered it within the
    /// probe timeout.  Each is also one of `data_packets_sent` and of
    /// `data_packets_retransmitted`, and neither a timeout nor a
    /// retransmission round.
    pub probes: u64,
    /// Status reports the sender ignored because they answer a round it
    /// has left: the second report a probe or a re-solicited tail drew,
    /// or a forged one.
    pub stale_reports: u64,
}

/// Why and how an engine finished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletionInfo {
    /// `Ok(bytes_transferred)` on success, the failure otherwise.
    pub result: Result<usize, CoreError>,
    /// Counters accumulated over the engine's lifetime.
    pub stats: EngineStats,
}

impl CompletionInfo {
    /// Successful completion of `bytes` bytes.
    pub fn success(bytes: usize, stats: EngineStats) -> Self {
        CompletionInfo {
            result: Ok(bytes),
            stats,
        }
    }

    /// Failed completion.
    pub fn failure(err: CoreError, stats: EngineStats) -> Self {
        CompletionInfo {
            result: Err(err),
            stats,
        }
    }

    /// True if the transfer succeeded.
    pub fn is_success(&self) -> bool {
        self.result.is_ok()
    }
}

impl fmt::Display for CompletionInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.result {
            Ok(bytes) => write!(
                f,
                "ok: {} bytes, {} data pkts ({} retx), {} rounds",
                bytes,
                self.stats.data_packets_sent,
                self.stats.data_packets_retransmitted,
                self.stats.retransmission_rounds
            ),
            Err(e) => write!(f, "failed: {e}"),
        }
    }
}

/// The pair of completions a full transfer produces, as reported by test
/// harnesses and drivers that run both ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Sender-side counters.
    pub sender: EngineStats,
    /// Receiver-side counters.
    pub receiver: EngineStats,
    /// Bytes delivered.
    pub bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_as_transmit() {
        let a = Action::Transmit(vec![1, 2, 3].into());
        assert_eq!(a.as_transmit(), Some(&[1u8, 2, 3][..]));
        let a = Action::CancelTimer {
            token: TimerToken(0),
        };
        assert_eq!(a.as_transmit(), None);
    }

    #[test]
    fn vec_is_an_action_sink() {
        let mut v: Vec<Action> = Vec::new();
        v.push_action(Action::SetTimer {
            token: TimerToken(3),
            after: Duration::from_millis(5),
        });
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn the_default_transmit_builds_in_a_pooled_buffer() {
        let pool = BufferPool::new(64, 4);
        let mut v: Vec<Action> = Vec::new();
        v.transmit(&pool, 3, &mut |buf| buf.copy_from_slice(b"abc"));
        assert_eq!(v[0].as_transmit(), Some(&b"abc"[..]));
        assert_eq!(pool.fresh_allocations(), 1);
        drop(v);
        assert_eq!(
            pool.free_count(),
            1,
            "the executed action checks it back in"
        );
    }

    #[test]
    fn completion_display() {
        let ok = CompletionInfo::success(1024, EngineStats::default());
        assert!(ok.to_string().contains("1024 bytes"));
        assert!(ok.is_success());
        let bad = CompletionInfo::failure(CoreError::Cancelled, EngineStats::default());
        assert!(bad.to_string().contains("cancelled"));
        assert!(!bad.is_success());
    }
}
