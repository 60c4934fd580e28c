//! The action vocabulary engines use to talk to their driver, plus
//! completion bookkeeping.

use core::fmt;
use std::time::Duration;

use crate::error::CoreError;
use crate::pool::PooledBuf;

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
    /// The bytes ride in a [`PooledBuf`]: engines build packets in
    /// buffers checked out of the shared [`crate::pool::BufferPool`],
    /// and the driver dropping the executed action checks the buffer
    /// back in — the steady-state packet loop allocates nothing.
    Transmit(PooledBuf),
    /// Arm (or re-arm) the timer `token` to fire after `after`.
    SetTimer {
        /// Engine-scoped timer identity.
        token: TimerToken,
        /// Relative expiry.
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
    /// Timer expirations the engine acted on.
    pub timeouts: u64,
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
    fn completion_display() {
        let ok = CompletionInfo::success(1024, EngineStats::default());
        assert!(ok.to_string().contains("1024 bytes"));
        assert!(ok.is_success());
        let bad = CompletionInfo::failure(CoreError::Cancelled, EngineStats::default());
        assert!(bad.to_string().contains("cancelled"));
        assert!(!bad.is_success());
    }
}
