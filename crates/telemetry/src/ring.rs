//! Bounded SPSC event rings and the handles around them.
//!
//! Each reactor shard (or standalone driver) gets one [`Ring`]: a
//! fixed-capacity circular buffer of packed [`TraceEvent`]s with a
//! single producer (the shard thread, via [`Recorder`]) and a single
//! consumer (whoever drains the [`Telemetry`] handle).  The record path
//! is a handful of atomic loads and stores — no locks, no allocation —
//! so it is safe to call from inside the zero-allocation packet path.
//!
//! Overflow is *counted, never blocked on*: when the ring is full the
//! event is dropped and [`Ring::dropped`] increments, so
//! `offered == accepted + dropped` holds exactly (property-tested in
//! `tests/ring_props.rs`).
//!
//! The slots are plain `AtomicU64`s, which keeps the whole crate in
//! safe Rust: even a misused ring (two racing producers) can only
//! interleave events, never corrupt memory.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::event::{EventKind, TraceEvent};

/// Words per packed event slot.
const WORDS: usize = 4;

/// A bounded single-producer/single-consumer ring of packed events.
#[derive(Debug)]
pub struct Ring {
    /// `capacity * WORDS` atomic words; slot `i` lives at
    /// `(i % capacity) * WORDS`.
    slots: Box<[AtomicU64]>,
    capacity: u64,
    /// Monotonic count of events published (never wraps in practice).
    head: AtomicU64,
    /// Monotonic count of events consumed.
    tail: AtomicU64,
    /// Events offered while the ring was full.
    drops: AtomicU64,
}

impl Ring {
    /// A ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Ring {
        let capacity = capacity.max(1);
        let mut slots = Vec::with_capacity(capacity * WORDS);
        slots.resize_with(capacity * WORDS, || AtomicU64::new(0));
        Ring {
            slots: slots.into_boxed_slice(),
            capacity: capacity as u64,
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            drops: AtomicU64::new(0),
        }
    }

    /// Maximum events the ring retains.
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }

    /// Producer side: publish one event.  Returns `false` (and counts
    /// the drop) when the ring is full.  Allocation-free, lock-free.
    pub fn push(&self, ev: TraceEvent) -> bool {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head - tail >= self.capacity {
            self.drops.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let base = ((head % self.capacity) as usize) * WORDS;
        for (i, w) in ev.pack().into_iter().enumerate() {
            self.slots[base + i].store(w, Ordering::Relaxed);
        }
        self.head.store(head + 1, Ordering::Release);
        true
    }

    /// Consumer side: take the oldest event, if any.
    pub fn pop(&self) -> Option<TraceEvent> {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if tail == head {
            return None;
        }
        let base = ((tail % self.capacity) as usize) * WORDS;
        let mut w = [0u64; WORDS];
        for (i, word) in w.iter_mut().enumerate() {
            *word = self.slots[base + i].load(Ordering::Relaxed);
        }
        self.tail.store(tail + 1, Ordering::Release);
        TraceEvent::unpack(w)
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Relaxed);
        (head - tail) as usize
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.drops.load(Ordering::Relaxed)
    }

    /// Events ever accepted (published) into the ring.
    pub fn accepted(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }
}

/// The per-shard producer handle: cheap to clone, lock-free to use.
///
/// A recorder stamps events with nanoseconds since its `epoch`
/// ([`Recorder::record`]) or with a caller-supplied sans-I/O timestamp
/// ([`Recorder::record_at`] — what engines use, fed from their
/// `set_now` clock).  All recorders of one [`Telemetry`] share an
/// epoch, so the merged drain is globally ordered.
///
/// One recorder (plus its clones) must stay on one thread at a time —
/// the ring is single-producer.  Breaking that rule can interleave
/// events but is memory-safe.
#[derive(Debug, Clone)]
pub struct Recorder {
    ring: Arc<Ring>,
    shard: u16,
    epoch: Instant,
}

impl Recorder {
    /// A standalone recorder over its own ring (driver-side use, where
    /// there is no [`Telemetry`] merging several shards).
    pub fn standalone(capacity: usize) -> Recorder {
        Recorder {
            ring: Arc::new(Ring::new(capacity)),
            shard: 0,
            epoch: Instant::now(),
        }
    }

    /// Record `kind` now (nanoseconds since the shared epoch).
    pub fn record(&self, session: u32, kind: EventKind, a: u64, b: u64) -> bool {
        self.record_at(self.epoch.elapsed(), session, kind, a, b)
    }

    /// Record `kind` at a caller-supplied timestamp — the sans-I/O
    /// path used by engines, whose only clock is the `set_now` input.
    ///
    /// Returns `false` only when the ring was full.
    pub fn record_at(&self, ts: Duration, session: u32, kind: EventKind, a: u64, b: u64) -> bool {
        self.ring.push(TraceEvent {
            ts_ns: ts.as_nanos() as u64,
            session,
            shard: self.shard,
            kind,
            a,
            b,
        })
    }

    /// The shard id stamped on this recorder's events.
    pub fn shard(&self) -> u16 {
        self.shard
    }

    /// The epoch timestamps are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Drain this recorder's own ring, oldest first (standalone use).
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.ring.len());
        while let Some(ev) = self.ring.pop() {
            out.push(ev);
        }
        out
    }

    /// Events this recorder's ring dropped on overflow.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }
}

/// The consumer-side handle: owns one ring per shard, hands out
/// [`Recorder`]s, and merges the rings into a single time-ordered
/// stream on [`drain`](Telemetry::drain).
///
/// Cloning clones the handle (all clones see the same rings).
#[derive(Debug, Clone)]
pub struct Telemetry {
    rings: Arc<[Arc<Ring>]>,
    epoch: Instant,
}

impl Telemetry {
    /// `shards` rings of `capacity` events each, all stamping against
    /// one epoch taken now.
    pub fn new(shards: usize, capacity: usize) -> Telemetry {
        let rings: Vec<Arc<Ring>> = (0..shards.max(1))
            .map(|_| Arc::new(Ring::new(capacity)))
            .collect();
        Telemetry {
            rings: rings.into(),
            epoch: Instant::now(),
        }
    }

    /// Number of shard rings.
    pub fn shards(&self) -> usize {
        self.rings.len()
    }

    /// The epoch all recorders stamp against.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// The producer handle for `shard`.
    ///
    /// # Panics
    /// Panics if `shard >= self.shards()`.
    pub fn recorder(&self, shard: usize) -> Recorder {
        Recorder {
            ring: Arc::clone(&self.rings[shard]),
            shard: shard as u16,
            epoch: self.epoch,
        }
    }

    /// Drain every shard ring and merge into one stream ordered by
    /// timestamp (ties keep shard order, stably).
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        self.drain_into(&mut out);
        out
    }

    /// [`drain`](Telemetry::drain) into a caller-owned buffer
    /// (appended; not cleared first).
    pub fn drain_into(&self, out: &mut Vec<TraceEvent>) {
        let start = out.len();
        for ring in self.rings.iter() {
            while let Some(ev) = ring.pop() {
                out.push(ev);
            }
        }
        out[start..].sort_by_key(|ev| ev.ts_ns);
    }

    /// Total events dropped across all shard rings.
    pub fn dropped(&self) -> u64 {
        self.rings.iter().map(|r| r.dropped()).sum()
    }

    /// Total events accepted across all shard rings.
    pub fn accepted(&self) -> u64 {
        self.rings.iter().map(|r| r.accepted()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64) -> TraceEvent {
        TraceEvent {
            ts_ns: ts,
            session: 1,
            shard: 0,
            kind: EventKind::ShardTick,
            a: 0,
            b: 0,
        }
    }

    #[test]
    fn fifo_order_and_capacity_bound() {
        let ring = Ring::new(4);
        for i in 0..4 {
            assert!(ring.push(ev(i)));
        }
        assert!(!ring.push(ev(99)), "fifth push overflows");
        assert_eq!(ring.dropped(), 1);
        assert_eq!(ring.len(), 4);
        for i in 0..4 {
            assert_eq!(ring.pop().unwrap().ts_ns, i);
        }
        assert!(ring.pop().is_none());
        assert!(ring.is_empty());
    }

    #[test]
    fn ring_reuses_slots_after_drain() {
        let ring = Ring::new(2);
        for round in 0..10u64 {
            assert!(ring.push(ev(round * 2)));
            assert!(ring.push(ev(round * 2 + 1)));
            assert_eq!(ring.pop().unwrap().ts_ns, round * 2);
            assert_eq!(ring.pop().unwrap().ts_ns, round * 2 + 1);
        }
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.accepted(), 20);
    }

    #[test]
    fn telemetry_merges_shards_in_time_order() {
        let tel = Telemetry::new(2, 16);
        let r0 = tel.recorder(0);
        let r1 = tel.recorder(1);
        r1.record_at(Duration::from_nanos(5), 2, EventKind::SessionAdmit, 0, 0);
        r0.record_at(Duration::from_nanos(1), 1, EventKind::SessionAdmit, 0, 0);
        r0.record_at(Duration::from_nanos(9), 1, EventKind::SessionReap, 1, 0);
        let events = tel.drain();
        assert_eq!(
            events.iter().map(|e| e.ts_ns).collect::<Vec<_>>(),
            vec![1, 5, 9]
        );
        assert_eq!(events[1].shard, 1);
        assert_eq!(tel.accepted(), 3);
        assert_eq!(tel.dropped(), 0);
        assert!(tel.drain().is_empty(), "drain consumes");
    }

    #[test]
    fn standalone_recorder_round_trips() {
        let rec = Recorder::standalone(8);
        assert!(rec.record(3, EventKind::WakeEvent, 42, 0));
        let events = rec.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].session, 3);
        assert_eq!(events[0].a, 42);
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let ring = Ring::new(0);
        assert_eq!(ring.capacity(), 1);
        assert!(ring.push(ev(1)));
        assert!(!ring.push(ev(2)));
    }
}
