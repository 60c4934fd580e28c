//! The [`Engine`] trait: the contract between protocol state machines
//! and their drivers.

use blast_wire::packet::Datagram;

use crate::api::{ActionSink, EngineStats, TimerToken};
use crate::blast::FinishedReceiver;
use crate::control::{Control, PacerSnapshot};

/// A sans-I/O protocol engine (one end of one transfer).
///
/// ## Driver contract
///
/// * Call [`start`](Engine::start) exactly once before anything else.
///   Senders emit their opening transmissions from it; receivers are
///   passive and emit nothing.
/// * For every arriving datagram that parses and carries this engine's
///   transfer id, call [`on_datagram`](Engine::on_datagram).  Malformed
///   packets must be dropped *before* the engine — on the paper's
///   hardware that filtering was the Ethernet FCS in the interface.
/// * When a timer the engine armed fires, call
///   [`on_timer`](Engine::on_timer) with its token.  A timer that was
///   re-armed must fire only at its newest expiry; a cancelled timer
///   must not fire at all.
/// * Execute emitted actions in order.
/// * After the engine emits [`crate::api::Action::Complete`] it will
///   emit no further actions, but it remains safe to call — a finished
///   receiver still re-acknowledges duplicate packets so that a lost
///   final ack does not strand the sender (the classic tail problem of
///   §3.2.2: the ack to the last packet can itself be lost).
///
/// ## One control surface
///
/// The clock, the flight recorder and the pacing state reach an engine
/// through one value, its [`Control`]: [`set_now`](Engine::set_now),
/// [`set_recorder`](Engine::set_recorder) and
/// [`pacing_snapshot`](Engine::pacing_snapshot) are provided here, once,
/// over [`control`](Engine::control) /
/// [`control_mut`](Engine::control_mut), and no engine overrides them.
/// Every engine that keeps time answers that pair with its one
/// `Control`; an engine that keeps none (the stop-and-wait receiver)
/// answers `None`, and the hooks become no-ops.
///
/// Engines are plain state machines (no I/O handles), so the trait
/// requires [`Send`]: drivers that own engines — like the `blast-node`
/// server with its whole session table — can move onto worker threads.
pub trait Engine: Send {
    /// Kick the engine off.
    fn start(&mut self, sink: &mut dyn ActionSink);

    /// The engine's transmission control, if it keeps one.
    fn control(&self) -> Option<&Control> {
        None
    }

    /// Mutable access to the engine's transmission control.
    fn control_mut(&mut self) -> Option<&mut Control> {
        None
    }

    /// Advance the engine's view of the driver's monotonic clock.
    ///
    /// Drivers should call this with their current time (any fixed
    /// epoch — virtual nanoseconds, simulated time, or wall-clock
    /// elapsed) before each [`start`](Engine::start) /
    /// [`on_datagram`](Engine::on_datagram) / [`on_timer`](Engine::on_timer)
    /// call.  Engines use it to take round-trip samples for the
    /// adaptive retransmission timeout
    /// ([`crate::control::RttEstimator`]) *without doing any I/O* —
    /// the clock is an input like datagrams and timer expirations, so
    /// the sans-I/O property is preserved.  Skipping the call merely
    /// degrades the estimator to its configured initial timeout.
    fn set_now(&mut self, now: std::time::Duration) {
        if let Some(control) = self.control_mut() {
            control.set_now(now);
        }
    }

    /// Feed one parsed datagram addressed to this engine's transfer.
    fn on_datagram(&mut self, dgram: &Datagram<'_>, sink: &mut dyn ActionSink);

    /// Notify that timer `token` fired.
    fn on_timer(&mut self, token: TimerToken, sink: &mut dyn ActionSink);

    /// True once `Complete` has been emitted.
    fn is_finished(&self) -> bool;

    /// Counters accumulated so far.
    fn stats(&self) -> EngineStats;

    /// The transfer this engine serves.
    fn transfer_id(&self) -> u32;

    /// The engine's pacing state ([`crate::control::Pacer`]), when its
    /// pacing is enabled.
    ///
    /// Lets a driver surface the burst-size trajectory of a session it
    /// owns only as a trait object — e.g. the `blast-node` server
    /// folding per-session final/mean burst sizes into its metrics.
    /// `None` for unpaced senders and for receivers.
    fn pacing_snapshot(&self) -> Option<PacerSnapshot> {
        self.control()?.pacing_snapshot()
    }

    /// Attach a flight-recorder handle ([`blast_telemetry::Recorder`]).
    ///
    /// Engines stamp their events with the `set_now` clock (the
    /// sans-I/O path: the recorder's wall-clock epoch is never
    /// consulted), so drivers should hand every session engine the
    /// recorder of the shard/thread it runs on.  An engine without a
    /// [`Control`] discards the handle.
    fn set_recorder(&mut self, recorder: blast_telemetry::Recorder) {
        if let Some(control) = self.control_mut() {
            control.set_recorder(recorder);
        }
    }

    /// Dismantle a receiver whose transfer completed: move its buffer
    /// out and return, beside it, the [`FinishedReceiver`] that keeps
    /// re-acknowledging in the engine's place.
    ///
    /// Lets a driver that owns the engine only as a trait object commit
    /// a received blob without copying it, and release the buffer while
    /// the transfer id still has to be answered for — e.g. the
    /// `blast-node` server through its linger window.  The engine must
    /// be dropped afterwards.  `None` (the default) from senders, from
    /// receivers without a stand-in, and before successful completion.
    fn retire(&mut self) -> Option<(Vec<u8>, FinishedReceiver)> {
        None
    }
}

/// Answer [`Engine::control`] and [`Engine::control_mut`] with the
/// engine's `Control` field (a path such as `control` or
/// `inner.control`).
macro_rules! control_in {
    ($($field:ident).+) => {
        fn control(&self) -> Option<&$crate::control::Control> {
            Some(&self.$($field).+)
        }

        fn control_mut(&mut self) -> Option<&mut $crate::control::Control> {
            Some(&mut self.$($field).+)
        }
    };
}
pub(crate) use control_in;

/// Shared bookkeeping for "the transfer is over" used by every engine:
/// guarantees a single `Complete` emission.
#[derive(Debug, Default, Clone)]
pub(crate) struct Finish {
    done: bool,
}

impl Finish {
    pub(crate) fn is_finished(&self) -> bool {
        self.done
    }

    /// Emit `Complete` exactly once; later calls are ignored.
    pub(crate) fn complete(&mut self, sink: &mut dyn ActionSink, info: crate::api::CompletionInfo) {
        if !self.done {
            self.done = true;
            sink.push_action(crate::api::Action::Complete(Box::new(info)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Action, CompletionInfo};

    #[test]
    fn finish_emits_exactly_once() {
        let mut f = Finish::default();
        let mut sink: Vec<Action> = Vec::new();
        assert!(!f.is_finished());
        f.complete(
            &mut sink,
            CompletionInfo::success(1, EngineStats::default()),
        );
        f.complete(
            &mut sink,
            CompletionInfo::success(2, EngineStats::default()),
        );
        assert!(f.is_finished());
        assert_eq!(sink.len(), 1);
        match &sink[0] {
            Action::Complete(info) => assert_eq!(info.result, Ok(1)),
            other => panic!("unexpected action {other:?}"),
        }
    }
}
