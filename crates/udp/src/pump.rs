//! The engine pump: the one place engine [`Action`]s meet the world.
//!
//! Every driver of a sans-I/O engine does the same four things around
//! each engine call: advance the engine's clock, make the call, apply
//! the actions it emitted (transmissions to the network, timers to a
//! [`TimerWheel`]) and notice completion.  [`step`] is that sequence,
//! parameterised only by where transmissions go and how an engine's
//! [`TimerToken`] becomes a key in the caller's wheel — so the
//! initiator's [`Outbound`](crate::outbound::Outbound) leg (run alone,
//! wheel keyed by token, or inside a node) and the `blast-node` reactor
//! (a table of engines, wheel keyed by `(entry, token)`) share it
//! instead of each matching on `Action`.
//!
//! Actions are applied as the engine emits them, through
//! [`ActionSink`], not collected first: emission order is execution
//! order either way, and a transmitted packet's pooled buffer returns
//! to the pool before the engine builds the next one.

use std::io;
use std::time::Duration;

use blast_core::api::{Action, ActionSink, CompletionInfo, TimerToken};
use blast_core::engine::Engine;
use blast_wire::packet::Datagram;

use crate::timers::TimerWheel;

/// What to tell the engine.
#[derive(Debug, Clone, Copy)]
pub enum Input<'a> {
    /// Kick it off ([`Engine::start`]).
    Start,
    /// A parsed datagram carrying its transfer id arrived.
    Datagram(&'a Datagram<'a>),
    /// A timer it armed fired.
    Timer(TimerToken),
}

/// Applies actions as they are pushed.
struct Apply<'a, K, F, T> {
    timers: &'a mut TimerWheel<K>,
    key: F,
    transmit: T,
    done: Option<CompletionInfo>,
    /// The first transmit error; later transmissions are skipped.
    sent: io::Result<()>,
}

impl<K, F, T> ActionSink for Apply<'_, K, F, T>
where
    K: Copy + Ord,
    F: Fn(TimerToken) -> K,
    T: FnMut(&[u8]) -> io::Result<()>,
{
    fn push_action(&mut self, action: Action) {
        match action {
            Action::Transmit(bytes) => {
                if self.sent.is_ok() {
                    self.sent = (self.transmit)(&bytes);
                }
            }
            Action::SetTimer { token, after } => self.timers.arm((self.key)(token), after),
            Action::CancelTimer { token } => self.timers.cancel((self.key)(token)),
            Action::Complete(info) => self.done = Some(*info),
        }
    }
}

/// Run one engine call: set the engine's clock to `now`, feed it
/// `input`, hand each transmitted datagram to `transmit` (staging is
/// the caller's business — flush after the call), arm and cancel its
/// timers on `timers` under `key(token)`, and return the completion
/// report if this call finished the transfer.
pub fn step<K, F, T>(
    engine: &mut dyn Engine,
    now: Duration,
    input: Input<'_>,
    timers: &mut TimerWheel<K>,
    key: F,
    transmit: T,
) -> io::Result<Option<CompletionInfo>>
where
    K: Copy + Ord,
    F: Fn(TimerToken) -> K,
    T: FnMut(&[u8]) -> io::Result<()>,
{
    let mut apply = Apply {
        timers,
        key,
        transmit,
        done: None,
        sent: Ok(()),
    };
    engine.set_now(now);
    match input {
        Input::Start => engine.start(&mut apply),
        Input::Datagram(dgram) => engine.on_datagram(dgram, &mut apply),
        Input::Timer(token) => engine.on_timer(token, &mut apply),
    }
    apply.sent?;
    Ok(apply.done)
}
