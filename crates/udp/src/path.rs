//! Path state that outlives a transfer: where each peer's last AIMD
//! burst ended, and the round trip it measured.
//!
//! The receiver's grant ([`crate::grant`]) caps a sender's burst at
//! what the receiver's socket queue holds, and a sender starts its
//! first round there.  A grant is given once, at the handshake, and
//! describes an empty queue; several clients pushing to one node at
//! once share its one queue, and the grants of the pushes in flight
//! cannot shrink as more arrive.  A [`PathTable`] keeps, per peer, what
//! that peer's last completed transfer ended at — its burst and its
//! round-trip estimate, one [`Carried`] value — and [`seed`] starts the
//! next transfer's sender there, within what its grant allows: a burst
//! that loss trimmed starts the next transfer where the trim left it,
//! from where AIMD's growth step raises it again, and a path that saw
//! no loss starts at the grant.  A loss trims the burst by the share of
//! its round the receiver asked for again, not by half, so iid loss
//! leaves the carried burst near the grant: under `lossy_push`'s 1 %
//! (256 KiB pushes, 188 packets a round, a 4 MiB `rmem_max` on a
//! 2-vCPU x86-64 host) a traced run's `core.burst_final` read ≈ 73
//! when every report halved it and ≈ 231 since, so a round leaves as
//! one burst again.  A sender without a grant (a paced
//! engine whose receiver could not read its queue, or admitted when
//! the queue was granted away) starts at the carried burst within the
//! configured bounds.  Only a peer that transfers again within
//! [`MAX_AGE`] from the same address gains: a fresh socket per
//! transfer, or a peer idle longer, starts at its grant, or the
//! configured burst, and the configured timeout.
//!
//! Why remember the burst: under 4-client push fan-in (one node, four
//! closed-loop clients pushing 4 MiB each on a 2-vCPU x86-64 host),
//! senders that started every push at the grant read 0.33–0.38
//! retransmission rounds and 0.10–0.13 timeouts per transfer, against
//! 0.19–0.22 and 0.03–0.04 when every sender was paced at 256 packets
//! per 250 µs; starting at the carried burst reads 0.23 and 0.04, level
//! with the paced senders.  That was when every loss halved the burst.
//! Trimmed by the share of its round lost, the carried burst stays
//! higher under fan-in too: at 8 clients on one shard, 0.81–0.88
//! rounds and 0.11–0.15 timeouts per transfer became 0.99–1.07 and
//! 0.17–0.24 (five runs each side; 4 clients stayed within the old
//! spread).
//!
//! Why carry the round trip: without a sample, round 0's
//! retransmission timer runs on the configured `initial` RTO (25 ms on
//! `AdaptiveTimeout::lan`), so a lost round-0 tail — the packet the
//! paper's blast sends reliably — stalls the transfer for 25 ms on a
//! path whose round trip is ≈ 0.2 ms.  Carried, the estimate starts
//! the RTO at the peer's measured `srtt + 4 × rttvar`, raised to
//! [`ROUND0_FLOOR`](blast_core::control::ROUND0_FLOOR) (10 ms) until
//! the transfer's own first sample: a converged RTO is the 2 ms `min`
//! clamp, below round 0's clean tail→ack round trip (p99.9 2.2–2.8 ms,
//! max 8.2 ms over 10 s of 4 MiB transfers on a 2-vCPU x86-64 host), so
//! carried bare it fired spuriously on clean transfers.  The floor only
//! bounds the timeout, though: a granted sender with an estimate first
//! re-sends a silent tail as a probe after `2 × srtt` plus the
//! receiver's drain of the burst, at least 1 ms (`blast_core::blast`),
//! so a lost round-0 tail costs that probe timeout, not 10 ms.  The same
//! estimate starts an initiator's request re-sends
//! ([`Backoff`](crate::handshake::Backoff)) at that probe timeout: a
//! spurious re-send costs one duplicate request and its echo.  Under
//! `lossy_push`'s 1 % loss the probes took a traced run's
//! `core.timeouts_per_transfer` from 0.021 to ≈ 0 (2-vCPU x86-64).
//!
//! The rules, all in [`record`](PathTable::record):
//! * only a transfer that *completed* writes, and only its own peer's
//!   entry — a spoofed request never completes, so it seeds nothing;
//! * only a paced sender writes: it is what has a burst to carry;
//! * a burst that loss trimmed is always written back;
//! * a transfer raises its entry only if it sent more data packets than
//!   the burst it started at: a three-packet transfer grows its pacer
//!   without ever using the burst it grew to;
//! * the estimate written is the engine's at completion: one whose
//!   round 0 timed out took no sample (Karn), and writes back the
//!   estimate it started from.
//!
//! Entries expire [`MAX_AGE`] after they were written, burst and
//! estimate together, and a full table displaces its oldest entry.
//!
//! Sans-I/O like [`TailRecords`](crate::timewait::TailRecords): the
//! caller passes the time.  A node's shard keys one by peer address; a
//! `Client`, talking to one node, holds one entry under `()`.

use std::collections::HashMap;
use std::hash::Hash;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use blast_core::{CompletionInfo, Engine, PacerSnapshot};

/// How long an entry seeds transfers after the transfer that wrote it.
/// Back-to-back transfers keep their peer's entry fresh; a path left
/// idle this long starts again from its grant (or the configured
/// burst) and the configured timeout.
pub const MAX_AGE: Duration = Duration::from_secs(10);

/// What a peer's last completed transfer leaves the next one toward it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Carried {
    /// The AIMD burst to start at.
    pub burst: u32,
    /// The round-trip estimate `(srtt, rttvar)` to start the RTO and the
    /// request re-sends from; `None` until a transfer to the peer has
    /// measured one.
    pub rtt: Option<(Duration, Duration)>,
}

/// What each peer's last completed transfer ended at, sans I/O.
/// See the [module docs](self).  Holds at most `capacity` entries, and
/// does not allocate once constructed.
#[derive(Debug)]
pub struct PathTable<P = SocketAddr> {
    entries: HashMap<P, Entry>,
    capacity: usize,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    carried: Carried,
    written: Instant,
}

impl<P: Copy + Eq + Hash> PathTable<P> {
    /// An empty table of at most `capacity` peers.
    pub fn new(capacity: usize) -> Self {
        PathTable {
            // Room for twice the capacity, as in `TailRecords`: peers
            // that come and go never make the map reallocate.
            entries: HashMap::with_capacity(2 * capacity),
            capacity,
        }
    }

    /// Where to start a transfer toward `peer`, if a transfer to it
    /// completed within [`MAX_AGE`] of `now`.
    pub fn carried(&self, now: Instant, peer: P) -> Option<Carried> {
        let entry = self.entries.get(&peer)?;
        (now < entry.written + MAX_AGE).then_some(entry.carried)
    }

    /// Book a transfer toward `peer` that ended at `now` with `info`,
    /// its sender's final pacing state being `pacing` (`None` for a
    /// receiver or an unpaced sender: nothing to carry) and its final
    /// round-trip estimate `rtt`
    /// ([`Control::rtt_estimate`](blast_core::control::Control::rtt_estimate)).
    /// Writes only on success, and raises the burst only when the
    /// transfer sent more data packets than the burst it started at.
    pub fn record(
        &mut self,
        now: Instant,
        peer: P,
        info: &CompletionInfo,
        pacing: Option<PacerSnapshot>,
        rtt: Option<(Duration, Duration)>,
    ) {
        let (true, Some(pacing)) = (info.is_success(), pacing) else {
            return;
        };
        let mut burst = pacing.burst;
        if info.stats.data_packets_sent <= u64::from(pacing.initial_burst) {
            // Application-limited: it never filled the burst it started
            // at, so it says nothing about a larger one.
            burst = burst.min(pacing.initial_burst);
        }
        if !self.entries.contains_key(&peer) && self.entries.len() >= self.capacity {
            self.entries.retain(|_, e| now < e.written + MAX_AGE);
            if self.entries.len() >= self.capacity {
                let oldest = self.entries.iter().min_by_key(|(_, e)| e.written);
                // Nothing to displace: a table of no capacity holds nothing.
                let Some((&oldest, _)) = oldest else { return };
                self.entries.remove(&oldest);
            }
        }
        let entry = Entry {
            carried: Carried { burst, rtt },
            written: now,
        };
        self.entries.insert(peer, entry);
    }
}

/// Start `engine` at `carried`, what a [`PathTable`] holds for its peer:
/// its burst
/// ([`Control::seed_burst`](blast_core::control::Control::seed_burst),
/// after any [grant](blast_core::control::Control::grant), so within
/// it) and its round-trip estimate
/// ([`Control::seed_rtt`](blast_core::control::Control::seed_rtt)).  A
/// `carried` of `None` leaves the engine as it is; an unpaced engine
/// ignores the burst, a fixed timeout the estimate, and a receiver,
/// which arms no retransmission timer, uses neither.
pub fn seed(engine: &mut dyn Engine, carried: Option<Carried>) {
    let (Some(carried), Some(control)) = (carried, engine.control_mut()) else {
        return;
    };
    control.seed_burst(carried.burst);
    if let Some((srtt, rttvar)) = carried.rtt {
        control.seed_rtt(srtt, rttvar);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blast_core::control::ROUND0_FLOOR;
    use blast_core::{AdaptiveTimeout, CoreError, EngineStats, Pacer, PacingConfig, RttEstimator};

    /// A transfer of `sent` data packets under `cfg`, seeded with
    /// `start`, that saw `clean` clean rounds and then `losses` loss
    /// signals (timeouts, each halving the burst): how it completed,
    /// and its final pacing state.
    fn transfer(
        cfg: PacingConfig,
        start: Option<u32>,
        sent: u64,
        clean: u32,
        losses: u32,
    ) -> (CompletionInfo, Option<PacerSnapshot>) {
        let mut pacer = Pacer::new(cfg);
        if let Some(burst) = start {
            pacer.seed(burst);
        }
        (0..clean).for_each(|_| pacer.on_clean_round());
        (0..losses).for_each(|_| pacer.on_timeout());
        let stats = EngineStats {
            data_packets_sent: sent,
            ..EngineStats::default()
        };
        let info = CompletionInfo::success(sent as usize * 1024, stats);
        (info, cfg.enabled().then(|| pacer.snapshot()))
    }

    /// The burst `paths` carries toward `peer` at `now`.
    fn burst<P: Copy + Eq + Hash>(paths: &PathTable<P>, now: Instant, peer: P) -> Option<u32> {
        paths.carried(now, peer).map(|c| c.burst)
    }

    fn at(t0: Instant, ms: u64) -> Instant {
        t0 + Duration::from_millis(ms)
    }

    #[test]
    fn a_clean_transfer_that_filled_its_burst_raises_its_peer() {
        let t0 = Instant::now();
        let mut paths = PathTable::new(4);
        assert_eq!(burst(&paths, t0, 1), None, "a new peer starts cold");
        let (info, pacing) = transfer(PacingConfig::lan(), None, 2920, 1, 0);
        paths.record(t0, 1, &info, pacing, None);
        assert_eq!(burst(&paths, t0, 1), Some(96));
        let (info, pacing) = transfer(PacingConfig::lan(), burst(&paths, t0, 1), 2920, 1, 0);
        paths.record(t0, 1, &info, pacing, None);
        assert_eq!(burst(&paths, t0, 1), Some(128));
        assert_eq!(burst(&paths, t0, 2), None, "only its own peer's entry");
    }

    #[test]
    fn an_application_limited_transfer_never_raises() {
        let t0 = Instant::now();
        let mut paths = PathTable::new(4);
        for _ in 0..8 {
            let (info, pacing) = transfer(PacingConfig::lan(), burst(&paths, t0, 1), 3, 1, 0);
            assert_eq!(pacing.unwrap().burst, 96, "its own pacer grew");
            paths.record(t0, 1, &info, pacing, None);
            assert_eq!(burst(&paths, t0, 1), Some(64));
        }
        // Exactly the burst it started at is still application-limited.
        let (info, pacing) = transfer(PacingConfig::lan(), None, 64, 1, 0);
        paths.record(t0, 2, &info, pacing, None);
        assert_eq!(burst(&paths, t0, 2), Some(64));
    }

    #[test]
    fn a_loss_shrunk_burst_is_always_written() {
        let t0 = Instant::now();
        let mut paths = PathTable::new(4);
        let (info, pacing) = transfer(PacingConfig::lan(), Some(256), 2920, 0, 1);
        paths.record(t0, 1, &info, pacing, None);
        assert_eq!(burst(&paths, t0, 1), Some(128));
        // An application-limited transfer shrinks it too.
        let (info, pacing) = transfer(PacingConfig::lan(), burst(&paths, t0, 1), 3, 0, 2);
        paths.record(t0, 1, &info, pacing, None);
        assert_eq!(burst(&paths, t0, 1), Some(32));
    }

    /// A loopback estimate: (200 µs, 50 µs).
    const RTT: Option<(Duration, Duration)> =
        Some((Duration::from_micros(200), Duration::from_micros(50)));

    #[test]
    fn a_failed_transfer_writes_nothing() {
        let t0 = Instant::now();
        let mut paths = PathTable::new(4);
        let (info, pacing) = transfer(PacingConfig::lan(), None, 2920, 1, 0);
        let exhausted = CoreError::RetriesExhausted { retries: 3 };
        let failed = CompletionInfo::failure(exhausted, info.stats);
        paths.record(t0, 1, &failed, pacing, RTT);
        assert_eq!(paths.carried(t0, 1), None, "neither burst nor estimate");
        paths.record(t0, 1, &info, pacing, RTT);
        let (_, shrunk) = transfer(PacingConfig::lan(), Some(96), 2920, 0, 3);
        let slower = Some((Duration::from_millis(3), Duration::from_millis(1)));
        paths.record(t0, 1, &failed, shrunk, slower);
        let carried = Carried {
            burst: 96,
            rtt: RTT,
        };
        assert_eq!(paths.carried(t0, 1), Some(carried), "not even a shrink");
    }

    /// Karn: a transfer whose round 0 timed out never samples, so the
    /// estimate its engine ends with — and the table keeps — is the one
    /// it was seeded with, not the backed-off RTO.
    #[test]
    fn a_transfer_that_took_no_sample_writes_back_what_it_started_from() {
        let t0 = Instant::now();
        let mut paths = PathTable::new(4);
        let (info, pacing) = transfer(PacingConfig::lan(), None, 2920, 1, 0);
        paths.record(t0, 1, &info, pacing, RTT);
        let (srtt, rttvar) = paths.carried(t0, 1).unwrap().rtt.unwrap();
        let mut rtt = RttEstimator::new(&AdaptiveTimeout::lan());
        rtt.seed(srtt, rttvar);
        rtt.backoff(); // the round-0 timeout
        assert_eq!(rtt.rto(), 2 * ROUND0_FLOOR);
        paths.record(at(t0, 1), 1, &info, pacing, rtt.estimate());
        assert_eq!(paths.carried(at(t0, 1), 1).unwrap().rtt, RTT);
        // A transfer that never had an estimate carries none.
        paths.record(t0, 2, &info, pacing, None);
        let carried = Carried {
            burst: 96,
            rtt: None,
        };
        assert_eq!(paths.carried(t0, 2), Some(carried));
    }

    #[test]
    fn unpaced_and_fixed_pacers_pass_through_untouched() {
        let t0 = Instant::now();
        let mut paths = PathTable::new(4);
        let (info, pacing) = transfer(PacingConfig::off(), Some(96), 2920, 1, 0);
        paths.record(t0, 1, &info, pacing, None);
        assert_eq!(burst(&paths, t0, 1), None, "nothing to carry");
        let fixed = PacingConfig::new(16, Duration::from_micros(100));
        let (info, pacing) = transfer(fixed, Some(256), 2920, 1, 0);
        assert_eq!(pacing.unwrap().initial_burst, 16, "a seed cannot move it");
        paths.record(t0, 1, &info, pacing, None);
        assert_eq!(burst(&paths, t0, 1), Some(16));
    }

    #[test]
    fn a_carried_burst_clamps_into_changed_bounds() {
        let t0 = Instant::now();
        let mut paths = PathTable::new(4);
        let (info, pacing) = transfer(PacingConfig::lan(), Some(256), 2920, 1, 0);
        paths.record(t0, 1, &info, pacing, None);
        assert_eq!(burst(&paths, t0, 1), Some(256));
        let gap = PacingConfig::lan().gap;
        let narrower = PacingConfig::aimd(8, gap, 8, 100, 4);
        let (_, pacing) = transfer(narrower, burst(&paths, t0, 1), 0, 0, 0);
        assert_eq!(pacing.unwrap().initial_burst, 100);
        let higher = PacingConfig::aimd(512, gap, 300, 1024, 32);
        let (_, pacing) = transfer(higher, burst(&paths, t0, 1), 0, 0, 0);
        assert_eq!(pacing.unwrap().initial_burst, 300);
    }

    #[test]
    fn entries_expire_at_the_constant_age() {
        let t0 = Instant::now();
        let mut paths = PathTable::new(4);
        let (info, pacing) = transfer(PacingConfig::lan(), None, 2920, 1, 0);
        paths.record(t0, 1, &info, pacing, RTT);
        let just_before = t0 + MAX_AGE - Duration::from_nanos(1);
        let carried = Carried {
            burst: 96,
            rtt: RTT,
        };
        assert_eq!(paths.carried(just_before, 1), Some(carried));
        assert_eq!(paths.carried(t0 + MAX_AGE, 1), None, "the estimate too");
        // A write restarts the age.
        paths.record(at(t0, 5_000), 1, &info, pacing, None);
        assert_eq!(burst(&paths, t0 + MAX_AGE, 1), Some(96));
    }

    #[test]
    fn a_full_table_displaces_its_oldest_entry() {
        let t0 = Instant::now();
        let mut paths = PathTable::new(3);
        let (info, pacing) = transfer(PacingConfig::lan(), None, 2920, 1, 0);
        for peer in 1..=3 {
            paths.record(at(t0, u64::from(peer)), peer, &info, pacing, None);
        }
        // Rewriting a present peer displaces nobody, and makes it young.
        paths.record(at(t0, 10), 1, &info, pacing, None);
        let held = |paths: &PathTable<u32>| {
            let now = at(t0, 20);
            (1..=5)
                .filter(|&p| burst(paths, now, p).is_some())
                .collect::<Vec<_>>()
        };
        assert_eq!(held(&paths), [1, 2, 3]);
        paths.record(at(t0, 11), 4, &info, pacing, None);
        assert_eq!(held(&paths), [1, 3, 4], "peer 2 was the oldest");
        paths.record(at(t0, 12), 5, &info, pacing, None);
        assert_eq!(held(&paths), [1, 4, 5]);
        // Expired entries make room before a live one is displaced.
        let late = at(t0, 11) + MAX_AGE;
        paths.record(late, 2, &info, pacing, None);
        assert_eq!(paths.entries.len(), 2, "1 and 4 expired, 5 stayed");
        assert_eq!(burst(&paths, late, 5), Some(96));

        let mut none = PathTable::new(0);
        none.record(t0, 1, &info, pacing, None);
        assert_eq!(burst(&none, t0, 1), None);
    }
}
