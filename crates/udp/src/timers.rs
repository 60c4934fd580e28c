//! A timer wheel for event-loop drivers.
//!
//! The sans-I/O engines arm and cancel timers by token
//! ([`blast_core::api::Action::SetTimer`] / `CancelTimer`), with
//! replace-on-rearm semantics: arming a token that is already pending
//! moves its deadline, and a cancelled token must not fire.
//! [`TimerWheel`] keeps exactly the live timers, in two ordered maps —
//! each key's deadline, and the deadlines in firing order — and removes
//! a superseded or cancelled deadline on the spot.  Its size is the
//! number of timers pending *now*, however many have come and gone: a
//! reactor that arms a 30 s give-up per session and cancels it
//! microseconds later carries nothing forward.
//!
//! The key is generic so the same wheel serves both the blocking loop
//! of one [`crate::outbound::Outbound`] leg (keyed by [`TimerToken`])
//! and the many-session `blast-node` event loop (keyed by
//! `(session, TimerToken)`); because keys are ordered, everything one
//! session armed is one [`cancel_range`](TimerWheel::cancel_range).
//!
//! [`TimerToken`]: blast_core::api::TimerToken

use std::collections::{BTreeMap, BTreeSet};
use std::ops::RangeBounds;
use std::time::{Duration, Instant};

/// A set of one-shot timers with replace-on-rearm and O(log n) arm,
/// cancel and expiry, n the timers pending.
#[derive(Debug)]
pub struct TimerWheel<K> {
    deadlines: BTreeMap<K, Instant>,
    /// The same timers in firing order (ties fire in key order).
    queue: BTreeSet<(Instant, K)>,
}

impl<K: Copy + Ord> Default for TimerWheel<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Copy + Ord> TimerWheel<K> {
    /// An empty wheel.
    pub fn new() -> Self {
        TimerWheel {
            deadlines: BTreeMap::new(),
            queue: BTreeSet::new(),
        }
    }

    /// Arm (or re-arm) `key` to fire at `when`.  A previously pending
    /// deadline for the same key is superseded.
    pub fn arm_at(&mut self, key: K, when: Instant) {
        if let Some(old) = self.deadlines.insert(key, when) {
            self.queue.remove(&(old, key));
        }
        self.queue.insert((when, key));
    }

    /// Arm (or re-arm) `key` to fire after `after` from now.
    pub fn arm(&mut self, key: K, after: Duration) {
        self.arm_at(key, Instant::now() + after);
    }

    /// Cancel `key` if pending; a no-op otherwise.
    pub fn cancel(&mut self, key: K) {
        if let Some(when) = self.deadlines.remove(&key) {
            self.queue.remove(&(when, key));
        }
    }

    /// Cancel every pending key in `keys` (e.g. every timer of a reaped
    /// session, whatever tokens its engine armed).  Costs O(log n) per
    /// timer cancelled, nothing per timer left alone.
    pub fn cancel_range(&mut self, keys: impl RangeBounds<K> + Clone) {
        while let Some((&key, _)) = self.deadlines.range(keys.clone()).next() {
            self.cancel(key);
        }
    }

    /// Number of keys currently armed.
    pub fn len(&self) -> usize {
        self.deadlines.len()
    }

    /// True when no timer is pending.
    pub fn is_empty(&self) -> bool {
        self.deadlines.is_empty()
    }

    /// The earliest pending deadline, if any.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.queue.first().map(|&(when, _)| when)
    }

    /// Pop one key whose deadline is at or before `now`.  Call in a
    /// loop to drain everything due.
    pub fn pop_due(&mut self, now: Instant) -> Option<K> {
        let &(when, key) = self.queue.first()?;
        if when > now {
            return None;
        }
        self.queue.pop_first();
        self.deadlines.remove(&key);
        Some(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_deadline_order() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        let t0 = Instant::now();
        w.arm_at(1, t0 + Duration::from_millis(30));
        w.arm_at(2, t0 + Duration::from_millis(10));
        w.arm_at(3, t0 + Duration::from_millis(20));
        assert_eq!(w.len(), 3);
        let late = t0 + Duration::from_secs(1);
        assert_eq!(w.pop_due(late), Some(2));
        assert_eq!(w.pop_due(late), Some(3));
        assert_eq!(w.pop_due(late), Some(1));
        assert_eq!(w.pop_due(late), None);
        assert!(w.is_empty());
    }

    #[test]
    fn rearm_supersedes_previous_deadline() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        let t0 = Instant::now();
        w.arm_at(7, t0 + Duration::from_millis(5));
        w.arm_at(7, t0 + Duration::from_millis(500));
        assert_eq!(w.len(), 1);
        // The old deadline must not fire.
        assert_eq!(w.pop_due(t0 + Duration::from_millis(100)), None);
        assert_eq!(w.pop_due(t0 + Duration::from_secs(1)), Some(7));
    }

    #[test]
    fn cancelled_timer_never_fires() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        let t0 = Instant::now();
        w.arm_at(1, t0 + Duration::from_millis(1));
        w.cancel(1);
        assert!(w.is_empty());
        assert_eq!(w.pop_due(t0 + Duration::from_secs(1)), None);
        // Cancelling an unknown key is a no-op.
        w.cancel(99);
    }

    #[test]
    fn next_deadline_skips_stale_entries() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        let t0 = Instant::now();
        w.arm_at(1, t0 + Duration::from_millis(1));
        w.arm_at(2, t0 + Duration::from_millis(50));
        w.cancel(1);
        let next = w.next_deadline().unwrap();
        assert_eq!(next, t0 + Duration::from_millis(50));
    }

    #[test]
    fn cancel_range_drops_a_sessions_timers() {
        let mut w: TimerWheel<(u32, u64)> = TimerWheel::new();
        let t0 = Instant::now();
        w.arm_at((1, 0), t0);
        w.arm_at((1, u64::MAX), t0);
        w.arm_at((0, 7), t0 + Duration::from_millis(4));
        w.arm_at((2, 0), t0 + Duration::from_millis(5));
        w.cancel_range((1, 0)..=(1, u64::MAX));
        assert_eq!(w.len(), 2);
        let late = t0 + Duration::from_secs(1);
        assert_eq!(w.pop_due(late), Some((0, 7)));
        assert_eq!(w.pop_due(late), Some((2, 0)));
        assert_eq!(w.pop_due(late), None);
    }

    /// A reactor arms a far deadline per session and cancels it when
    /// the session ends a moment later: the wheel must hold the live
    /// timers only, not one leftover per session until the far deadline
    /// passes.
    #[test]
    fn churn_leaves_nothing_behind() {
        let mut w: TimerWheel<(u32, u64)> = TimerWheel::new();
        let t0 = Instant::now();
        let far = Duration::from_secs(30);
        for session in 0..100_000u32 {
            w.arm_at((session, 0), t0 + far);
            w.arm_at((session, 1), t0 + far);
            if session >= 8 {
                let gone = session - 8;
                w.cancel_range((gone, 0)..=(gone, u64::MAX));
            }
            assert!(w.len() <= 16);
            assert_eq!(w.queue.len(), w.len(), "one queue entry per live timer");
        }
        assert_eq!(w.pop_due(t0 + Duration::from_secs(29)), None);
        let mut fired = 0;
        while w.pop_due(t0 + far).is_some() {
            fired += 1;
        }
        assert_eq!(fired, 16);
        assert!(w.is_empty() && w.queue.is_empty());
    }

    #[test]
    fn cancelled_key_rearmed_cannot_fire_at_the_old_deadline() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        let t0 = Instant::now();
        w.arm_at(1, t0 + Duration::from_millis(1)); // old session's timer
        w.cancel(1); // session reaped
        w.arm_at(1, t0 + Duration::from_secs(5)); // id reused by a new session
        assert_eq!(
            w.pop_due(t0 + Duration::from_secs(1)),
            None,
            "the new session's timer must not fire at the old deadline"
        );
        assert_eq!(w.pop_due(t0 + Duration::from_secs(6)), Some(1));
    }

    #[test]
    fn rearm_after_fire_works() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        let t0 = Instant::now();
        w.arm_at(1, t0);
        assert_eq!(w.pop_due(t0), Some(1));
        w.arm_at(1, t0 + Duration::from_millis(2));
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop_due(t0 + Duration::from_millis(2)), Some(1));
    }
}
