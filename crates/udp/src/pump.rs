//! The engine pump: the one place engine [`Action`]s meet the world.
//!
//! Every driver of a sans-I/O engine does the same four things around
//! each engine call: advance the engine's clock to the caller's
//! instant, make the call, apply the actions it emitted (transmissions to
//! the network, timers to a [`TimerWheel`]) and notice completion.
//! [`step`] is that sequence, parameterised only by where transmissions
//! go and how an engine's [`TimerToken`] becomes a key in the caller's
//! wheel — so the
//! initiator's [`Outbound`](crate::outbound::Outbound) leg (run alone,
//! wheel keyed by token, or inside a node) and the `blast-node` reactor
//! (a table of engines, wheel keyed by `(entry, token)`) share it
//! instead of each matching on `Action`.
//!
//! Actions are applied as the engine emits them, through
//! [`ActionSink`], not collected first: emission order is execution
//! order either way, and a transmitted packet's pooled buffer returns
//! to the pool before the engine builds the next one.
//!
//! The caller reads the clock, not the step: a driver that has just
//! read it (to pop a due timer, or to time a receive) passes that
//! instant on, so a received datagram costs the one read its engine
//! step uses.
//!
//! The pace timer ([`PACE_TIMER`]) counts from the engine's `now`, the
//! caller's instant, as every timer does on the virtual-time
//! substrates (`blast_core::harness`, `blast-sim`): a paced burst's
//! framing and staging, and the flush after the step, run inside the
//! gap the burst asked for instead of in front of it, so burst / gap is
//! the rate the sender actually keeps.  Every other timer counts from
//! when its action is applied, one clock read per armed timer: a
//! round's retransmission timer is armed after its tail is framed, and
//! a one-burst round's own framing (≈ 2 ms for 2 979 datagrams in a
//! release build, ≈ 45 ms in a debug one) is not spent from its RTO.

use std::io;
use std::time::Instant;

use blast_core::api::{Action, ActionSink, CompletionInfo, TimerToken};
use blast_core::control::PACE_TIMER;
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
    /// The caller's instant: the engine's `now`, where its pace timer
    /// counts from.
    at: Instant,
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
            Action::SetTimer { token, after } if token == PACE_TIMER => {
                self.timers.arm_at((self.key)(token), self.at + after)
            }
            Action::SetTimer { token, after } => self.timers.arm((self.key)(token), after),
            Action::CancelTimer { token } => self.timers.cancel((self.key)(token)),
            Action::Complete(info) => self.done = Some(*info),
        }
    }
}

/// Run one engine call at the caller's instant `now`: set the engine's
/// `now` to its distance from `epoch`, feed it `input`, hand each
/// transmitted datagram to `transmit` (staging is the caller's
/// business — flush after the call), arm and cancel its timers on
/// `timers` under `key(token)`, the pace timer's deadline counted from
/// `now` and every other from when it is armed, and return the
/// completion report if this call finished the transfer.
pub fn step<K, F, T>(
    engine: &mut dyn Engine,
    epoch: Instant,
    now: Instant,
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
        at: now,
        key,
        transmit,
        done: None,
        sent: Ok(()),
    };
    engine.set_now(now.saturating_duration_since(epoch));
    match input {
        Input::Start => engine.start(&mut apply),
        Input::Datagram(dgram) => engine.on_datagram(dgram, &mut apply),
        Input::Timer(token) => engine.on_timer(token, &mut apply),
    }
    apply.sent?;
    Ok(apply.done)
}
