//! Per-session and aggregate node metrics.
//!
//! A node is judged on aggregate concurrent throughput, so the loop
//! records, per completed session, the engine counters the paper's
//! experiments track (packets, retransmissions, rounds) plus wall-clock
//! elapsed time and goodput — and folds the latter two into
//! [`OnlineStats`] accumulators so a long-lived node summarises
//! millions of sessions in O(1) memory.
//!
//! [`NodeMetrics`] is the one type a node's counters live in: a shard
//! counts into its own, [publishes](NodeMetrics::publish_into) it into
//! a shared slot every tick, and readers [merge](NodeMetrics::merge_from)
//! the slots.  A new counter goes in the struct and those two methods;
//! the test `publish_and_merge_carry_every_field` will not compile
//! until it is named there too.

use std::ops::Deref;
use std::time::Duration;

use blast_core::api::EngineStats;
use blast_core::PacerSnapshot;
use blast_stats::{Histogram, OnlineStats};
use blast_udp::handshake::Direction;
use blast_udp::netio::NetIoStats;

/// One completed (or failed) session, as recorded by the event loop.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// The session's transfer id.
    pub transfer_id: u32,
    /// Push (client stored a blob) or pull (client fetched one).
    pub direction: Direction,
    /// Blob name (may be empty for anonymous pushes).
    pub name: String,
    /// Payload bytes moved.
    pub bytes: usize,
    /// Handshake-echo to completion, as seen by the node.
    pub elapsed: Duration,
    /// The session engine's counters.
    pub stats: EngineStats,
    /// The engine's AIMD pacing state at completion (`None` for
    /// receivers and unpaced senders).
    pub pacing: Option<PacerSnapshot>,
    /// Whether the transfer completed successfully.
    pub ok: bool,
}

impl SessionReport {
    /// Goodput in megabits per second.
    pub fn goodput_mbps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return f64::INFINITY;
        }
        (self.bytes * 8) as f64 / secs / 1e6
    }
}

/// Aggregate counters and distributions for one node.
#[derive(Debug, Clone, Default)]
pub struct NodeMetrics {
    /// Sessions opened (handshake accepted).
    pub sessions_accepted: u64,
    /// Sessions that completed successfully.
    pub sessions_completed: u64,
    /// Sessions that ended in failure (engine error or timeout).
    pub sessions_failed: u64,
    /// Push sessions among those accepted.
    pub pushes: u64,
    /// Pull sessions among those accepted.
    pub pulls: u64,
    /// Pull requests for names the store does not have.
    pub pull_misses: u64,
    /// Requests rejected because the transfer id was already in use by
    /// a different peer.
    pub collisions: u64,
    /// Requests rejected because the session table was full.
    pub rejected_busy: u64,
    /// Push requests rejected for announcing more than the node's
    /// maximum transfer size.
    pub rejected_oversize: u64,
    /// Outgoing datagrams dropped at the socket (send buffer full or
    /// peer unreachable) — loss the protocols recover from.
    pub send_drops: u64,
    /// Sends and flushes the kernel refused outright (a port-0 or
    /// broadcast address, no route, a firewall rule).  The refused
    /// datagrams are among the `send_drops`, the rest of their batch
    /// went out, and the shard carried on.
    pub send_errors: u64,
    /// Third-party copies admitted (a client ordered this node to move
    /// a blob to/from another node).
    pub copies_requested: u64,
    /// Copies whose outbound leg completed successfully.
    pub copies_completed: u64,
    /// Copies that failed (missing blob, handshake timeout, transfer
    /// failure, or lifetime bound).
    pub copies_failed: u64,
    /// Payload bytes moved node-to-node by completed copies.
    pub copy_bytes_moved: u64,
    /// Outbound copy-handshake retransmissions (the remote's echo was
    /// slow or lost).
    pub copy_handshake_retx: u64,
    /// Payload bytes received in completed pushes.
    pub bytes_received: u64,
    /// Payload bytes sent in completed pulls.
    pub bytes_sent: u64,
    /// Datagrams read off the socket.
    pub datagrams_received: u64,
    /// Datagrams written to the socket.
    pub datagrams_sent: u64,
    /// Frames dropped for a bad FCS.
    pub fcs_drops: u64,
    /// Datagrams dropped by wire validation.
    pub malformed: u64,
    /// Datagrams for transfer ids with no session.
    pub unroutable: u64,
    /// Which [`blast_udp::netio`] backend the node socket runs
    /// (`"batched"` or `"portable"`).
    pub netio_backend: &'static str,
    /// The backend's segmentation offloads (`"gso+gro"` or
    /// `"portable"` — see `blast_udp::netio::OffloadState`).
    pub netio_offload: &'static str,
    /// The node socket's syscall counters (batch amortisation, wait
    /// strategy: epoll wakeups vs timer expiries), snapshotted from the
    /// reactor's [`NetIoStats`] every tick.
    pub io: NetIoStats,
    /// Final AIMD burst size per completed paced (sender) session.
    pub burst_final: OnlineStats,
    /// Mean AIMD burst size per completed paced (sender) session.
    pub burst_mean: OnlineStats,
    /// Session elapsed-time distribution, in seconds.
    pub session_secs: OnlineStats,
    /// Session goodput distribution, in Mbit/s.
    pub session_goodput_mbps: OnlineStats,
    /// Per-session retransmission-round histogram (every finished
    /// session, failures included): turns "high variance at 16
    /// sessions" into "the p99 session needed 7 retransmission rounds".
    pub retx_rounds: RetxHistogram,
    /// The most recent finished-session reports, oldest first, capped
    /// at [`MAX_REPORTS`] so a long-lived node stays O(1) in memory —
    /// only the [`OnlineStats`] accumulators see every session.  (In a
    /// shard's own accumulator: the reports not yet
    /// [published](NodeMetrics::publish_into).)
    pub reports: std::collections::VecDeque<SessionReport>,
}

/// How many per-session reports [`NodeMetrics`] retains.
pub const MAX_REPORTS: usize = 1024;

/// The retransmission-round histogram: one unit-wide bucket per round
/// count from 0 to [`RETX_BUCKETS`](RetxHistogram::RETX_BUCKETS) − 1,
/// sessions beyond that clamped into the last bucket (and counted by
/// `clamped()`).  A newtype so `NodeMetrics` keeps `derive(Default)`.
#[derive(Debug, Clone)]
pub struct RetxHistogram(pub Histogram);

impl RetxHistogram {
    /// Bucket count: rounds 0..=62 resolve exactly; ≥ 63 clamp.
    pub const RETX_BUCKETS: usize = 64;
}

impl Default for RetxHistogram {
    fn default() -> Self {
        RetxHistogram(Histogram::linear(
            0.0,
            Self::RETX_BUCKETS as f64,
            Self::RETX_BUCKETS,
        ))
    }
}

impl Deref for RetxHistogram {
    type Target = Histogram;

    fn deref(&self) -> &Histogram {
        &self.0
    }
}

impl NodeMetrics {
    /// Fold another accumulator into this one.
    ///
    /// This is how a sharded node presents one `NodeMetrics` to its
    /// owner: each reactor shard keeps a plain, uncontended accumulator
    /// and the handle merges the published snapshots on read.  Counters
    /// add; distributions combine via [`OnlineStats::merge`] /
    /// [`Histogram::merge`]; recent reports concatenate under the
    /// [`MAX_REPORTS`] cap.
    pub fn merge_from(&mut self, other: &NodeMetrics) {
        self.merge_counters_from(other);
        for report in &other.reports {
            self.keep(report.clone());
        }
    }

    /// [`merge_from`](NodeMetrics::merge_from) without the reports: for
    /// a reader that looks only at counters and distributions (a
    /// `Stats` reply, a wait for sessions to finish), which then clones
    /// none of the up to [`MAX_REPORTS`] reports a slot holds.
    pub fn merge_counters_from(&mut self, other: &NodeMetrics) {
        self.sessions_accepted += other.sessions_accepted;
        self.sessions_completed += other.sessions_completed;
        self.sessions_failed += other.sessions_failed;
        self.pushes += other.pushes;
        self.pulls += other.pulls;
        self.pull_misses += other.pull_misses;
        self.collisions += other.collisions;
        self.rejected_busy += other.rejected_busy;
        self.rejected_oversize += other.rejected_oversize;
        self.send_drops += other.send_drops;
        self.send_errors += other.send_errors;
        self.copies_requested += other.copies_requested;
        self.copies_completed += other.copies_completed;
        self.copies_failed += other.copies_failed;
        self.copy_bytes_moved += other.copy_bytes_moved;
        self.copy_handshake_retx += other.copy_handshake_retx;
        self.bytes_received += other.bytes_received;
        self.bytes_sent += other.bytes_sent;
        self.datagrams_received += other.datagrams_received;
        self.datagrams_sent += other.datagrams_sent;
        self.fcs_drops += other.fcs_drops;
        self.malformed += other.malformed;
        self.unroutable += other.unroutable;
        if self.netio_backend.is_empty() {
            self.netio_backend = other.netio_backend;
        }
        if self.netio_offload.is_empty() {
            self.netio_offload = other.netio_offload;
        }
        self.io += other.io;
        self.burst_final.merge(&other.burst_final);
        self.burst_mean.merge(&other.burst_mean);
        self.session_secs.merge(&other.session_secs);
        self.session_goodput_mbps.merge(&other.session_goodput_mbps);
        self.retx_rounds.0.merge(&other.retx_rounds.0);
    }

    /// Append `report`, evicting the oldest at the [`MAX_REPORTS`] cap.
    fn keep(&mut self, report: SessionReport) {
        if self.reports.len() == MAX_REPORTS {
            self.reports.pop_front();
        }
        self.reports.push_back(report);
    }

    /// Publish this accumulator into `dst`, reusing `dst`'s
    /// allocations.
    ///
    /// A reactor shard calls this at the end of every tick to refresh
    /// its shared snapshot slot.  Counters and distributions are
    /// copied; the reports recorded since the last publish *move* —
    /// `dst` retains them (it already holds the earlier ones), this
    /// accumulator keeps only what it has yet to publish.  So the
    /// snapshot is the one place a shard's [`MAX_REPORTS`] reports
    /// live, and a publish allocates nothing, whether or not sessions
    /// finished, however many reports are retained.
    pub fn publish_into(&mut self, dst: &mut NodeMetrics) {
        dst.sessions_accepted = self.sessions_accepted;
        dst.sessions_completed = self.sessions_completed;
        dst.sessions_failed = self.sessions_failed;
        dst.pushes = self.pushes;
        dst.pulls = self.pulls;
        dst.pull_misses = self.pull_misses;
        dst.collisions = self.collisions;
        dst.rejected_busy = self.rejected_busy;
        dst.rejected_oversize = self.rejected_oversize;
        dst.send_drops = self.send_drops;
        dst.send_errors = self.send_errors;
        dst.copies_requested = self.copies_requested;
        dst.copies_completed = self.copies_completed;
        dst.copies_failed = self.copies_failed;
        dst.copy_bytes_moved = self.copy_bytes_moved;
        dst.copy_handshake_retx = self.copy_handshake_retx;
        dst.bytes_received = self.bytes_received;
        dst.bytes_sent = self.bytes_sent;
        dst.datagrams_received = self.datagrams_received;
        dst.datagrams_sent = self.datagrams_sent;
        dst.fcs_drops = self.fcs_drops;
        dst.malformed = self.malformed;
        dst.unroutable = self.unroutable;
        dst.netio_backend = self.netio_backend;
        dst.netio_offload = self.netio_offload;
        dst.io = self.io;
        dst.burst_final = self.burst_final;
        dst.burst_mean = self.burst_mean;
        dst.session_secs = self.session_secs;
        dst.session_goodput_mbps = self.session_goodput_mbps;
        dst.retx_rounds.0.clone_from(&self.retx_rounds.0);
        for report in self.reports.drain(..) {
            dst.keep(report);
        }
    }

    /// Record a finished session.
    pub fn record(&mut self, report: SessionReport) {
        self.retx_rounds
            .0
            .record(report.stats.retransmission_rounds as f64);
        if let Some(p) = &report.pacing {
            self.burst_final.push(f64::from(p.burst));
            self.burst_mean.push(p.mean_burst);
        }
        if report.ok {
            self.sessions_completed += 1;
            match report.direction {
                Direction::Push => self.bytes_received += report.bytes as u64,
                Direction::Pull => self.bytes_sent += report.bytes as u64,
            }
            self.session_secs.push(report.elapsed.as_secs_f64());
            self.session_goodput_mbps.push(report.goodput_mbps());
        } else {
            self.sessions_failed += 1;
        }
        self.keep(report);
    }

    /// Sessions currently unaccounted for (accepted but not yet
    /// completed or failed).
    pub fn sessions_in_flight(&self) -> u64 {
        self.sessions_accepted - self.sessions_completed - self.sessions_failed
    }

    /// Third-party copies still driving their outbound leg.
    fn copies_in_flight(&self) -> u64 {
        self.copies_requested - self.copies_completed - self.copies_failed
    }

    /// A multi-line, human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "sessions: {} accepted ({} push / {} pull), {} completed, {} failed, {} in flight\n\
             rejects: {} pull misses, {} id collisions, {} at capacity, {} oversize\n\
             copies: {} requested, {} completed, {} failed, {} in flight; {} B moved, {} handshake retx\n\
             payload: {} B in, {} B out; datagrams: {} in / {} out ({} bad FCS, {} malformed, {} unroutable, {} send drops)\n\
             netio [{}, offload {}]: {} send batches / {} recv batches; waits: {} wakeups / {} timeouts\n\
             offload: {} segments out in {} super-datagrams, {} segments in from {} super-datagrams\n\
             pacing burst: final {}, mean {} over {} paced sessions\n\
             session time [s]: {}\n\
             goodput [Mbit/s]: {}\n\
             retransmission rounds: p50 {:.1}, p99 {:.1} over {} sessions",
            self.sessions_accepted,
            self.pushes,
            self.pulls,
            self.sessions_completed,
            self.sessions_failed,
            self.sessions_in_flight(),
            self.pull_misses,
            self.collisions,
            self.rejected_busy,
            self.rejected_oversize,
            self.copies_requested,
            self.copies_completed,
            self.copies_failed,
            self.copies_in_flight(),
            self.copy_bytes_moved,
            self.copy_handshake_retx,
            self.bytes_received,
            self.bytes_sent,
            self.datagrams_received,
            self.datagrams_sent,
            self.fcs_drops,
            self.malformed,
            self.unroutable,
            self.send_drops,
            self.netio_backend,
            self.netio_offload,
            self.io.send_batches,
            self.io.recv_batches,
            self.io.wakeups,
            self.io.timeouts,
            self.io.gso_segments,
            self.io.gso_super_datagrams,
            self.io.gro_segments,
            self.io.gro_super_datagrams,
            self.burst_final,
            self.burst_mean,
            self.burst_final.count(),
            self.session_secs,
            self.session_goodput_mbps,
            self.retx_rounds.percentile(50.0),
            self.retx_rounds.percentile(99.0),
            self.retx_rounds.count(),
        )
    }

    /// A one-line summary of this accumulator as shard `shard` of a
    /// node: the breakdown that shows whether the kernel's 4-tuple hash
    /// spread the sessions.
    pub fn shard_summary(&self, shard: usize) -> String {
        format!(
            "shard {}: {} accepted, {} completed, {} failed; {} B in / {} B out; \
             {} dgrams in / {} out ({} send drops); goodput [Mbit/s]: {}",
            shard,
            self.sessions_accepted,
            self.sessions_completed,
            self.sessions_failed,
            self.bytes_received,
            self.bytes_sent,
            self.datagrams_received,
            self.datagrams_sent,
            self.send_drops,
            self.session_goodput_mbps,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(ok: bool, direction: Direction, bytes: usize, ms: u64) -> SessionReport {
        SessionReport {
            transfer_id: 1,
            direction,
            name: "x".into(),
            bytes,
            elapsed: Duration::from_millis(ms),
            stats: EngineStats::default(),
            pacing: None,
            ok,
        }
    }

    #[test]
    fn record_routes_bytes_by_direction() {
        let mut m = NodeMetrics::default();
        m.sessions_accepted = 3;
        m.record(report(true, Direction::Push, 1000, 10));
        m.record(report(true, Direction::Pull, 500, 20));
        m.record(report(false, Direction::Push, 0, 1));
        assert_eq!(m.sessions_completed, 2);
        assert_eq!(m.sessions_failed, 1);
        assert_eq!(m.bytes_received, 1000);
        assert_eq!(m.bytes_sent, 500);
        assert_eq!(m.sessions_in_flight(), 0);
        assert_eq!(m.session_secs.count(), 2, "failures do not pollute stats");
        assert_eq!(m.reports.len(), 3);
    }

    #[test]
    fn retransmission_rounds_are_histogrammed() {
        let mut m = NodeMetrics::default();
        m.sessions_accepted = 3;
        let mut clean = report(true, Direction::Push, 1000, 10);
        clean.stats.retransmission_rounds = 0;
        let mut lossy = report(true, Direction::Push, 1000, 50);
        lossy.stats.retransmission_rounds = 5;
        let mut failed = report(false, Direction::Pull, 0, 99);
        failed.stats.retransmission_rounds = 7;
        m.record(clean);
        m.record(lossy);
        m.record(failed);
        assert_eq!(m.retx_rounds.count(), 3, "failures are histogrammed too");
        assert_eq!(m.retx_rounds.buckets()[0], 1);
        assert_eq!(m.retx_rounds.buckets()[5], 1);
        assert_eq!(m.retx_rounds.buckets()[7], 1);
        assert!(m.summary().contains("retransmission rounds"));
    }

    #[test]
    fn pacer_snapshots_feed_burst_distributions() {
        let mut m = NodeMetrics::default();
        m.sessions_accepted = 2;
        let mut paced = report(true, Direction::Pull, 1000, 10);
        paced.pacing = Some(PacerSnapshot {
            initial_burst: 32,
            burst: 64,
            min_burst_seen: 16,
            mean_burst: 40.0,
            clean_rounds: 3,
            loss_events: 1,
        });
        m.record(paced);
        m.record(report(true, Direction::Push, 1000, 10)); // unpaced
        assert_eq!(m.burst_final.count(), 1, "only paced sessions counted");
        assert!((m.burst_final.mean() - 64.0).abs() < 1e-9);
        assert!((m.burst_mean.mean() - 40.0).abs() < 1e-9);
        assert!(m.summary().contains("pacing burst"), "{}", m.summary());
    }

    #[test]
    fn default_accumulators_report_true_minima() {
        let mut m = NodeMetrics::default();
        m.sessions_accepted = 2;
        for (burst, ms) in [(96, 30), (512, 10)] {
            let mut r = report(true, Direction::Pull, 1000, ms);
            r.pacing = Some(PacerSnapshot {
                initial_burst: 32,
                burst,
                min_burst_seen: 16,
                mean_burst: f64::from(burst),
                clean_rounds: 3,
                loss_events: 0,
            });
            m.record(r);
        }
        assert_eq!(m.burst_final.min(), 96.0, "{}", m.summary());
        assert_eq!(m.burst_final.max(), 512.0);
        assert_eq!(m.session_secs.min(), 0.010);
    }

    #[test]
    fn goodput_math() {
        let r = report(true, Direction::Push, 1_000_000, 1000);
        assert!((r.goodput_mbps() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn report_retention_is_bounded() {
        let mut m = NodeMetrics::default();
        m.sessions_accepted = MAX_REPORTS as u64 + 10;
        for i in 0..MAX_REPORTS + 10 {
            let mut r = report(true, Direction::Push, 100, 1);
            r.transfer_id = i as u32;
            m.record(r);
        }
        assert_eq!(m.reports.len(), MAX_REPORTS, "retention capped");
        assert_eq!(m.reports.front().unwrap().transfer_id, 10, "oldest evicted");
        assert_eq!(
            m.sessions_completed,
            MAX_REPORTS as u64 + 10,
            "aggregates still see every session"
        );
    }

    #[test]
    fn merge_from_combines_shard_accumulators() {
        let mut a = NodeMetrics::default();
        a.sessions_accepted = 3;
        a.pushes = 2;
        a.pulls = 1;
        a.datagrams_received = 100;
        a.netio_backend = "batched";
        a.io.send_batches = 7;
        a.record(report(true, Direction::Push, 1000, 10));
        a.record(report(true, Direction::Pull, 500, 20));
        a.record(report(false, Direction::Push, 0, 1));

        let mut b = NodeMetrics::default();
        b.sessions_accepted = 1;
        b.pulls = 1;
        b.datagrams_received = 40;
        b.netio_backend = "batched";
        b.io.send_batches = 3;
        b.record(report(true, Direction::Pull, 2000, 40));

        let mut merged = NodeMetrics::default();
        merged.merge_from(&a);
        merged.merge_from(&b);
        assert_eq!(merged.sessions_accepted, 4);
        assert_eq!(merged.sessions_completed, 3);
        assert_eq!(merged.sessions_failed, 1);
        assert_eq!(merged.pushes, 2);
        assert_eq!(merged.pulls, 2);
        assert_eq!(merged.datagrams_received, 140);
        assert_eq!(merged.bytes_received, 1000);
        assert_eq!(merged.bytes_sent, 2500);
        assert_eq!(merged.io.send_batches, 10);
        assert_eq!(merged.netio_backend, "batched");
        assert_eq!(merged.session_secs.count(), 3);
        assert_eq!(merged.retx_rounds.count(), 4);
        assert_eq!(merged.reports.len(), 4);
        assert_eq!(merged.sessions_in_flight(), 0);
        // Merging is exact for the mean, not just approximate.
        let all_secs = [0.010, 0.020, 0.040];
        let want = all_secs.iter().sum::<f64>() / 3.0;
        assert!((merged.session_secs.mean() - want).abs() < 1e-12);
    }

    #[test]
    fn merge_and_publish_carry_offload_state() {
        let mut a = NodeMetrics::default();
        a.netio_offload = "gso+gro";
        a.io.gso_super_datagrams = 2;
        a.io.gso_segments = 40;
        a.io.gro_super_datagrams = 1;
        a.io.gro_segments = 16;
        let mut b = NodeMetrics::default();
        b.netio_offload = "gso+gro";
        b.io.gso_super_datagrams = 1;
        b.io.gso_segments = 24;

        let mut merged = NodeMetrics::default();
        merged.merge_from(&a);
        merged.merge_from(&b);
        assert_eq!(merged.netio_offload, "gso+gro");
        assert_eq!(merged.io.gso_super_datagrams, 3);
        assert_eq!(merged.io.gso_segments, 64);
        assert_eq!(merged.io.gro_super_datagrams, 1);
        assert_eq!(merged.io.gro_segments, 16);

        let mut slot = NodeMetrics::default();
        assert!(a.summary().contains("offload gso+gro"), "{}", a.summary());
        a.publish_into(&mut slot);
        assert_eq!(slot.netio_offload, "gso+gro");
        assert_eq!(slot.io.gso_segments, 40);
    }

    #[test]
    fn merge_from_caps_reports() {
        let mut shard = NodeMetrics::default();
        shard.sessions_accepted = MAX_REPORTS as u64;
        for i in 0..MAX_REPORTS {
            let mut r = report(true, Direction::Push, 100, 1);
            r.transfer_id = i as u32;
            shard.record(r);
        }
        let mut merged = NodeMetrics::default();
        merged.merge_from(&shard);
        merged.merge_from(&shard);
        assert_eq!(merged.reports.len(), MAX_REPORTS);
        assert_eq!(merged.sessions_completed, 2 * MAX_REPORTS as u64);
    }

    #[test]
    fn publish_into_tracks_the_source() {
        let mut local = NodeMetrics::default();
        local.sessions_accepted = 1;
        local.pushes = 1;
        local.netio_backend = "portable";
        local.datagrams_received = 5;
        let mut slot = NodeMetrics::default();
        local.publish_into(&mut slot);
        assert_eq!(slot.sessions_accepted, 1);
        assert_eq!(slot.datagrams_received, 5);
        assert_eq!(slot.netio_backend, "portable");
        assert!(slot.reports.is_empty());

        local.datagrams_received = 9;
        local.record(report(true, Direction::Push, 1000, 10));
        local.publish_into(&mut slot);
        assert_eq!(slot.datagrams_received, 9);
        assert_eq!(slot.sessions_completed, 1);
        assert_eq!(slot.reports.len(), 1);
        assert_eq!(slot.retx_rounds.count(), 1);

        // Republishing with no new sessions keeps the reports intact.
        local.datagrams_received = 12;
        local.publish_into(&mut slot);
        assert_eq!(slot.datagrams_received, 12);
        assert_eq!(slot.reports.len(), 1);
    }

    /// Publishing hands the slot exactly the reports recorded since
    /// the last publish: the slot ends up holding the most recent
    /// [`MAX_REPORTS`] ever recorded, in order — below the cap, across
    /// it, and when more than a slot-full finish between two publishes
    /// — and the accumulator keeps none back.
    #[test]
    fn publish_into_moves_fresh_reports_to_the_slot() {
        let mut local = NodeMetrics::default();
        let mut slot = NodeMetrics::default();
        let mut next = 0u32;
        for batch in [1usize, 3, MAX_REPORTS - 5, 1, 2, 7, MAX_REPORTS + 3, 1, 0] {
            for _ in 0..batch {
                let mut r = report(!next.is_multiple_of(7), Direction::Push, 100, 1);
                r.transfer_id = next;
                r.name = format!("blob-{next}");
                local.record(r);
                next += 1;
            }
            local.publish_into(&mut slot);
            assert!(local.reports.is_empty());
            let want: Vec<u32> = (next.saturating_sub(MAX_REPORTS as u32)..next).collect();
            let got: Vec<u32> = slot.reports.iter().map(|r| r.transfer_id).collect();
            assert_eq!(got, want, "after a batch of {batch}");
            assert!(slot
                .reports
                .iter()
                .all(|r| r.name == format!("blob-{}", r.transfer_id)));
            assert_eq!(
                slot.sessions_completed + slot.sessions_failed,
                u64::from(next)
            );
        }
    }

    #[test]
    fn shard_report_extracts_the_breakdown() {
        let mut m = NodeMetrics::default();
        m.sessions_accepted = 2;
        m.datagrams_received = 77;
        m.send_drops = 4;
        m.netio_backend = "batched";
        m.record(report(true, Direction::Push, 1000, 10));
        let line = m.shard_summary(3);
        assert!(
            line.starts_with("shard 3: 2 accepted, 1 completed, 0 failed;"),
            "{line}"
        );
        assert!(line.contains("1000 B in / 0 B out"), "{line}");
        assert!(
            line.contains("77 dgrams in / 0 out (4 send drops)"),
            "{line}"
        );
        assert!(line.contains("goodput [Mbit/s]: "), "{line}");
        assert!(!line.contains('\n'), "one line: {line}");
    }

    /// An accumulator with a distinct nonzero value, derived from
    /// `seed`, in every field.  Naming every field, with no `..`, it
    /// does not compile until a new one is given a value here.
    fn filled(seed: u64, backend: &'static str) -> NodeMetrics {
        let stats = |k: u64| {
            let mut s = OnlineStats::new();
            s.push((seed + k) as f64);
            s
        };
        let mut retx_rounds = RetxHistogram::default();
        retx_rounds.0.record((seed / 100) as f64);
        let mut r = report(true, Direction::Push, 1, 1);
        r.transfer_id = seed as u32;
        NodeMetrics {
            sessions_accepted: seed + 1,
            sessions_completed: seed + 2,
            sessions_failed: seed + 3,
            pushes: seed + 4,
            pulls: seed + 5,
            pull_misses: seed + 6,
            collisions: seed + 7,
            rejected_busy: seed + 8,
            rejected_oversize: seed + 9,
            send_drops: seed + 10,
            send_errors: seed + 11,
            copies_requested: seed + 12,
            copies_completed: seed + 13,
            copies_failed: seed + 14,
            copy_bytes_moved: seed + 15,
            copy_handshake_retx: seed + 16,
            bytes_received: seed + 17,
            bytes_sent: seed + 18,
            datagrams_received: seed + 19,
            datagrams_sent: seed + 20,
            fcs_drops: seed + 21,
            malformed: seed + 22,
            unroutable: seed + 23,
            netio_backend: backend,
            netio_offload: backend,
            io: NetIoStats {
                send_batches: seed + 24,
                wakeups: seed + 25,
                gro_segments: seed + 26,
                ..NetIoStats::default()
            },
            burst_final: stats(27),
            burst_mean: stats(28),
            session_secs: stats(29),
            session_goodput_mbps: stats(30),
            retx_rounds,
            reports: [r].into(),
        }
    }

    /// One shard publishes into its slot and a reader merges that slot
    /// with another shard's accumulator: every field arrives.  Counters
    /// are copied, then summed; the first shard's names are kept;
    /// distributions and the retransmission histogram merge; the
    /// published reports move to the slot.  The destructuring below
    /// names every field, so a new one does not compile until this test
    /// checks it (and `publish_into` and `merge_from` carry it).
    #[test]
    fn publish_and_merge_carry_every_field() {
        let (mut a, b) = (filled(100, "batched"), filled(200, "portable"));
        let mut slot = NodeMetrics::default();
        a.publish_into(&mut slot);
        assert!(a.reports.is_empty(), "published reports move to the slot");
        let mut merged = NodeMetrics::default();
        merged.merge_from(&slot);
        merged.merge_from(&b);
        let NodeMetrics {
            sessions_accepted,
            sessions_completed,
            sessions_failed,
            pushes,
            pulls,
            pull_misses,
            collisions,
            rejected_busy,
            rejected_oversize,
            send_drops,
            send_errors,
            copies_requested,
            copies_completed,
            copies_failed,
            copy_bytes_moved,
            copy_handshake_retx,
            bytes_received,
            bytes_sent,
            datagrams_received,
            datagrams_sent,
            fcs_drops,
            malformed,
            unroutable,
            netio_backend,
            netio_offload,
            io,
            burst_final,
            burst_mean,
            session_secs,
            session_goodput_mbps,
            retx_rounds,
            reports,
        } = merged;
        let counters = [
            sessions_accepted,
            sessions_completed,
            sessions_failed,
            pushes,
            pulls,
            pull_misses,
            collisions,
            rejected_busy,
            rejected_oversize,
            send_drops,
            send_errors,
            copies_requested,
            copies_completed,
            copies_failed,
            copy_bytes_moved,
            copy_handshake_retx,
            bytes_received,
            bytes_sent,
            datagrams_received,
            datagrams_sent,
            fcs_drops,
            malformed,
            unroutable,
        ];
        for (k, got) in (1..).zip(counters) {
            assert_eq!(got, 300 + 2 * k, "counter {k} in declaration order");
        }
        assert_eq!((netio_backend, netio_offload), ("batched", "batched"));
        let mut want = filled(100, "").io;
        want += filled(200, "").io;
        assert_eq!(io, want);
        let distributions = [burst_final, burst_mean, session_secs, session_goodput_mbps];
        for (k, s) in (27..).zip(distributions) {
            let (lo, hi) = ((100 + k) as f64, (200 + k) as f64);
            assert_eq!(
                (s.count(), s.min(), s.max()),
                (2, lo, hi),
                "distribution {k}"
            );
        }
        assert_eq!(retx_rounds.count(), 2);
        assert_eq!(retx_rounds.buckets()[1..3], [1, 1]);
        let ids: Vec<u32> = reports.iter().map(|r| r.transfer_id).collect();
        assert_eq!(ids, [100, 200]);
    }

    /// A counters-only merge carries every field a full merge does,
    /// and no report.
    #[test]
    fn a_counters_merge_is_a_merge_without_the_reports() {
        let (a, b) = (filled(100, "batched"), filled(200, "portable"));
        let (mut full, mut counters) = (NodeMetrics::default(), NodeMetrics::default());
        for m in [&a, &b] {
            full.merge_from(m);
            counters.merge_counters_from(m);
        }
        assert_eq!(full.reports.len(), 2);
        assert!(counters.reports.is_empty());
        full.reports.clear();
        assert_eq!(format!("{full:?}"), format!("{counters:?}"));
    }

    #[test]
    fn summary_mentions_key_counters() {
        let mut m = NodeMetrics::default();
        m.sessions_accepted = 1;
        m.pushes = 1;
        m.record(report(true, Direction::Push, 4096, 5));
        let s = m.summary();
        assert!(s.contains("1 accepted"), "{s}");
        assert!(s.contains("1 completed"), "{s}");
        assert!(s.contains("4096 B in"), "{s}");
    }
}
