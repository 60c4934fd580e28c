//! Transmission control: adaptive retransmission timeouts and paced
//! blast rounds.
//!
//! The paper's protocols are tuned by two knobs the text calls out
//! explicitly: the retransmission interval `Tr` (Figures 5/6 sweep it
//! from `To(D)` to `100 × To(1)`) and the rate at which a blast is
//! offered to the receiving interface (§3's *interface errors* are
//! exactly what happens when the sender overruns it).  On 1985 hardware
//! both were fixed constants; on a modern stack neither survives
//! contact with a shared socket buffer:
//!
//! * a fixed `Tr` is either so short it fires spuriously under load or
//!   so long that one lost round-0 packet stalls the transfer for the
//!   whole interval — [`RttEstimator`] replaces it with the classic
//!   Jacobson/Karn estimator (SRTT + RTTVAR, exponential backoff on
//!   retransmission, samples only from unambiguous exchanges);
//! * dumping a whole round into the socket in one loop overruns the
//!   receive buffer exactly like the paper's single-buffered interface —
//!   [`Pacer`] spreads each round into bursts that *start* a configured
//!   gap apart, expressed through the ordinary timer machinery
//!   ([`PACE_TIMER`], counted from the engine's `now`) so every driver
//!   honours it without new I/O vocabulary, and a burst's own framing
//!   and flush run inside its gap, as in the paper's double-buffered
//!   interface, instead of in front of it.  Its one adaptive rule is
//!   AIMD on the burst size, within configured bounds (equal bounds make
//!   the burst fixed): a clean round adds a step; a status report that
//!   asks again for `m` of the `n` packets its round sent keeps the
//!   delivered share, `⌊burst · (n − m) / n⌋`; a retransmission timeout,
//!   which reports nothing delivered, halves it.
//!
//! The paper's blast uses the receiver's report only to choose what to
//! resend, and sends a round as one burst.  Halving on every report
//! read iid loss as congestion: under 1 % loss a 188-packet round left
//! in ≈ 73-packet bursts with two 250 µs gaps, most of a 256 KiB push's
//! 0.61 ms (traced `lossy_push`, 2-vCPU x86-64: `core.burst_final` 73,
//! `core.pace_gap_ms_per_transfer` 0.49; trimmed, ≈ 231 and ≈ 0.02).  A
//! lone sender that overruns a queue still sees a report asking for
//! most of its round, and comes down to what got through in one step.
//! Senders that overrun one queue together each lose only part of a
//! round and trim only that part, so push fan-in retransmits more than
//! it did under halving; a receiver that can shrink its grant
//! mid-transfer is the fix for that.

//! The paper's blast goes as fast as the slower end can copy into
//! buffers the receiver set aside before the transfer; only the
//! receiver knows how many it set aside.  So the receiver's side of the
//! handshake grants the sender its queue share and its measured drain
//! interval `Cr` ([`Grant`], carried in the wire's extension area), and
//! [`Control::grant`] takes it before `start`: the pacer starts at the
//! granted queue and never grows past it — a transfer the queue holds
//! leaves as one burst, with no pace timer — and a loss trims it below
//! that.  Each round's tail timer waits the RTO plus
//! `in flight × Cr` (at most the policy's `max`): an acknowledgement
//! that waits for the receiver to drain a one-burst round is not a
//! timeout.  An engine never granted (the
//! paper bins, the harness, the simulator, a raw request) keeps the
//! configured burst, its AIMD growth, and a tail timer of the RTO.  A
//! receiver times its round-0 arrivals ([`Control::receive_interval`]),
//! which is how it measures the `Cr` its next grant reports.
//!
//! Two pieces of state outlive a transfer: the burst and the round-trip
//! estimate.  A grant describes an empty queue, and overlapping
//! transfers into one queue overrun it; the burst a loss trimmed says
//! so, and the next transfer to that peer starts there, within its
//! grant.  An estimator born with its transfer has no sample until
//! round 0's tail is acknowledged, so every lost round-0 tail would
//! wait out the configured `initial` RTO (25 ms on
//! [`AdaptiveTimeout::lan`], against a ≈ 0.2 ms loopback round trip).
//! A caller that remembers where the peer's last transfer ended
//! (`blast_udp::path::PathTable`) hands both to [`Control`] after the
//! grant and before `start`: the burst to [`Control::seed_burst`],
//! clamped into the pacer's bounds, and the estimate to
//! [`Control::seed_rtt`].
//!
//! A seeded RTO does not go below [`ROUND0_FLOOR`] (or `initial`, if
//! that is lower) until the transfer takes its own first sample.  The
//! converged RTO of a clean path is the 2 ms `min` clamp, and round 0
//! can wait longer than that for its tail's ack: on a 2-vCPU x86-64
//! host the round-0 tail→ack round trip read p50 0.22 ms, p99 0.42 ms, p99.9 2.2–2.8 ms and max
//! 8.2 ms over 10 s of 4 MiB pushes and pulls.  A bare 2 ms round-0
//! RTO fired spuriously on 0.1–0.5 % of those clean transfers; the
//! 10 ms floor sits above the whole measured tail.  Once the transfer
//! samples, smoothing continues from the seed (no first-sample reset)
//! and the usual `[min, max]` clamp applies to every later round.
//!
//! A floor that high would make every lost round-0 tail cost 10 ms, on
//! a transfer whose round trip is ≈ 0.2 ms.  So a granted sender with an
//! estimate, carried or sampled, first waits a probe timeout
//! (`Control::probe_timeout`): `2 × srtt` plus the receiver's time to
//! drain what is in flight, at least [`PROBE_FLOOR`], as RACK-TLP's tail
//! loss probe (RFC 8985 §7) and QUIC's PTO (RFC 9002 §6.2) do.  When it
//! expires the tail goes out once more, as a probe: no backoff, no burst
//! cut, no retransmission round, and no RTT sample off whatever answers
//! it.  The timer then waits out the rest of the tail timeout, so a
//! genuine timeout fires when it would have without the probe.  A
//! probe's answer is a second report for the round, which is why a
//! receiver echoes the round it answers in the report's header and a
//! sender ignores a NACK for any round but its current one.  A fixed
//! timeout has no estimate, and an engine never granted does not know
//! its receiver's drain time, so neither probes.
//!
//! Both knobs keep their paper-faithful degenerate modes:
//! [`AdaptiveTimeout::Fixed`] is the fixed `Tr` every analytic-model
//! test pins, and [`PacingConfig::off`] is the paper's full-speed blast.
//!
//! [`Control`] is the one owner of both, together with the engine's
//! view of the driver clock and its flight recorder.  Every engine that
//! keeps time holds exactly one, the driver-facing
//! [`Engine`](crate::engine::Engine) hooks (`set_now`, `set_recorder`,
//! `pacing_snapshot`) are implemented once over it, and it is the only
//! place an estimator or pacer signal is paired with its trace event —
//! so stop-and-wait, sliding window, blast and multi-blast share one
//! timeout rule, one pacing rule and one trace vocabulary, as the
//! paper's comparison assumes.

use std::time::Duration;

use blast_telemetry::{EventKind, Recorder};
use blast_wire::Grant;

use crate::api::TimerToken;

/// The lowest retransmission timeout a [seeded](RttEstimator::seed)
/// estimator arms before its transfer's own first sample (lowered to
/// the policy's `initial` when that is shorter, raised to its `min`):
/// above the round-0 round-trip tail of a clean LAN path, where a
/// carried, converged RTO would fire spuriously.  A lost round-0 tail
/// is re-sent first by a probe ([`PROBE_FLOOR`]); this floor bounds the
/// timeout that follows when the probe goes unanswered too.  See the
/// [module docs](self).
pub const ROUND0_FLOOR: Duration = Duration::from_millis(10);

/// The shortest probe timeout ([`AdaptiveTimeout::pto_of`],
/// `Control::probe_timeout`): the 1 ms timer granularity QUIC's probe
/// timeout assumes (RFC 9002 §6.1.2).  A loopback round trip is far
/// shorter, so on loopback the floor is the probe timeout.  At a 100 µs
/// floor, scheduling jitter alone drew probes on 0.1–0.6 % of 4 KiB
/// transfers (`small_roundtrip`, 2-vCPU x86-64), and probes or re-sent
/// requests on ≈ 0.03 % at this one; `lossy_push` read 867 MB/s there
/// and 815 here (608 without probes).
pub const PROBE_FLOOR: Duration = Duration::from_millis(1);

/// The largest burst a [grant](Control::grant) sets, whatever queue it
/// names.  A grant is the peer's word, and a request carrying one can
/// come from a forged source, so the sender bounds what one engine step
/// emits — and so how long it keeps a shard from its other sessions —
/// itself: 4 096 datagrams, ≈ 3 ms of framing in a release build, just
/// above the 3 640 datagrams of 1 444 B a Linux socket under a 4 MiB
/// `rmem_max` grants.  A larger grant goes out in bursts of this size,
/// each starting as soon as the last is framed (a burst outlasts the
/// gap).
pub const MAX_GRANT: u32 = 4096;

/// The timer token engines arm between paced bursts of one round.
///
/// Chosen above `u32::MAX` so it can never collide with the
/// sliding-window sender's per-sequence tokens (sequence numbers are
/// `u32`) nor with the blast/stop-and-wait retransmission token `0`.
pub const PACE_TIMER: TimerToken = TimerToken(1 << 32);

/// Retransmission-timeout policy for a transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdaptiveTimeout {
    /// The paper's fixed retransmission interval `Tr`: every timeout
    /// waits exactly this long, regardless of observed round trips.
    /// The degenerate mode the analytic model and the calibrated
    /// simulator tests pin.
    Fixed(Duration),
    /// Jacobson/Karn adaptive RTO: `initial` until the first round-trip
    /// sample (or the carried estimate's, floored at [`ROUND0_FLOOR`]),
    /// then `SRTT + 4 × RTTVAR`, clamped to `[min, max]`, doubled on
    /// every retransmission timeout.
    Adaptive {
        /// RTO before the first RTT sample.
        initial: Duration,
        /// Lower clamp on the computed RTO.
        min: Duration,
        /// Upper clamp on the computed RTO (and on backoff).
        max: Duration,
    },
}

impl AdaptiveTimeout {
    /// Adaptive defaults for a LAN/loopback path: start at 25 ms (well
    /// under the paper's 173 ms `To(D)`), clamp to [2 ms, 2 s].
    pub fn lan() -> Self {
        AdaptiveTimeout::Adaptive {
            initial: Duration::from_millis(25),
            min: Duration::from_millis(2),
            max: Duration::from_secs(2),
        }
    }

    /// The timeout in force before any RTT sample: the fixed value, or
    /// the adaptive seed.
    pub fn initial(&self) -> Duration {
        match self {
            AdaptiveTimeout::Fixed(d) => *d,
            AdaptiveTimeout::Adaptive { initial, .. } => *initial,
        }
    }

    /// The probe timeout a smoothed round trip `srtt` gives under this
    /// policy: `2 × srtt`, at least [`PROBE_FLOOR`].  `None` in the
    /// fixed mode, which no measurement moves.
    pub fn pto_of(&self, srtt: Duration) -> Option<Duration> {
        self.is_adaptive()
            .then(|| srtt.saturating_mul(2).max(PROBE_FLOOR))
    }

    /// True for the adaptive mode.
    pub fn is_adaptive(&self) -> bool {
        matches!(self, AdaptiveTimeout::Adaptive { .. })
    }

    /// Validation error, if any (used by `ProtocolConfig::validated`).
    pub(crate) fn invalid(&self) -> Option<&'static str> {
        match self {
            AdaptiveTimeout::Fixed(d) if d.is_zero() => Some("retransmission timeout must be > 0"),
            AdaptiveTimeout::Adaptive { initial, min, max } => {
                if initial.is_zero() || min.is_zero() {
                    Some("adaptive timeout bounds must be > 0")
                } else if min > max || initial > max || initial < min {
                    Some("adaptive timeout requires min <= initial <= max")
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

impl From<Duration> for AdaptiveTimeout {
    /// A plain `Duration` is the fixed (paper) mode — so existing
    /// `cfg.timeout = Duration::from_millis(15).into()` call sites stay
    /// one-liners.
    fn from(d: Duration) -> Self {
        AdaptiveTimeout::Fixed(d)
    }
}

/// Jacobson/Karn round-trip estimator (RFC 6298 constants: gains 1/8
/// and 1/4, variance multiplier 4), with the fixed mode folded in as a
/// degenerate case so engines hold exactly one timeout source.
///
/// Karn's algorithm is the *caller's* half of the contract: feed
/// [`sample`](RttEstimator::sample) only round trips whose request was
/// transmitted exactly once (an ack following any retransmission is
/// ambiguous), and call [`backoff`](RttEstimator::backoff) on every
/// retransmission timeout.
///
/// A [`seed`](RttEstimator::seed) starts it from an earlier transfer's
/// estimate instead of from nothing; see the [module docs](self).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RttEstimator {
    /// Smoothed RTT in nanoseconds; `None` until the first sample or seed.
    srtt_ns: Option<u64>,
    /// RTT variance in nanoseconds.
    rttvar_ns: u64,
    /// Current RTO in nanoseconds.
    rto_ns: u64,
    min_ns: u64,
    max_ns: u64,
    /// The lowest RTO a seed arms: `max(min, min(ROUND0_FLOOR, initial))`.
    seed_floor_ns: u64,
    /// Fixed mode: `seed`, `sample` and `backoff` are no-ops.
    fixed: bool,
}

impl RttEstimator {
    /// An estimator implementing `policy`.
    pub fn new(policy: &AdaptiveTimeout) -> Self {
        match *policy {
            AdaptiveTimeout::Fixed(d) => {
                let ns = d.as_nanos() as u64;
                RttEstimator {
                    srtt_ns: None,
                    rttvar_ns: 0,
                    rto_ns: ns,
                    min_ns: ns,
                    max_ns: ns,
                    seed_floor_ns: ns,
                    fixed: true,
                }
            }
            AdaptiveTimeout::Adaptive { initial, min, max } => RttEstimator {
                srtt_ns: None,
                rttvar_ns: 0,
                rto_ns: initial.as_nanos() as u64,
                min_ns: min.as_nanos() as u64,
                max_ns: max.as_nanos() as u64,
                seed_floor_ns: ROUND0_FLOOR.min(initial).max(min).as_nanos() as u64,
                fixed: false,
            },
        }
    }

    /// The retransmission timeout currently in force.
    pub fn rto(&self) -> Duration {
        Duration::from_nanos(self.rto_ns)
    }

    /// The most any retransmission timer waits: the policy's `max` (the
    /// fixed value in fixed mode).
    pub(crate) fn max(&self) -> Duration {
        Duration::from_nanos(self.max_ns)
    }

    /// The smoothed round-trip estimate, once a sample has been taken
    /// or a seed given (always `None` in fixed mode).
    pub fn srtt(&self) -> Option<Duration> {
        self.srtt_ns.map(Duration::from_nanos)
    }

    /// The estimate as `(srtt, rttvar)`, once a sample has been taken or
    /// a seed given: what [`seed`](RttEstimator::seed) takes back.
    pub fn estimate(&self) -> Option<(Duration, Duration)> {
        let srtt = self.srtt_ns?;
        Some((
            Duration::from_nanos(srtt),
            Duration::from_nanos(self.rttvar_ns),
        ))
    }

    /// Start from an earlier transfer's estimate instead of from
    /// nothing: the RTO becomes `srtt + 4 × rttvar`, clamped to
    /// `[max(min, min(ROUND0_FLOOR, initial)), max]` — never below the
    /// [`ROUND0_FLOOR`], never a floor above `initial`.  The first own
    /// [`sample`](RttEstimator::sample) then smooths from the seed
    /// rather than replacing it, and from there on the usual `[min,
    /// max]` clamp applies.  Meant for before the first sample; a no-op
    /// in fixed mode.
    pub fn seed(&mut self, srtt: Duration, rttvar: Duration) {
        if self.fixed {
            return;
        }
        let (srtt, rttvar) = (srtt.as_nanos() as u64, rttvar.as_nanos() as u64);
        self.srtt_ns = Some(srtt);
        self.rttvar_ns = rttvar;
        self.rto_ns = (srtt + 4 * rttvar.max(1)).clamp(self.seed_floor_ns, self.max_ns);
    }

    /// Feed one **unambiguous** round-trip measurement (Karn: the
    /// request was transmitted exactly once).  No-op in fixed mode.
    pub fn sample(&mut self, rtt: Duration) {
        if self.fixed {
            return;
        }
        let r = rtt.as_nanos() as u64;
        match self.srtt_ns {
            None => {
                // RFC 6298 §2.2: SRTT = R, RTTVAR = R/2.
                self.srtt_ns = Some(r);
                self.rttvar_ns = r / 2;
            }
            Some(srtt) => {
                // RTTVAR = 3/4·RTTVAR + 1/4·|SRTT − R|;
                // SRTT = 7/8·SRTT + 1/8·R.
                let delta = srtt.abs_diff(r);
                self.rttvar_ns = self.rttvar_ns - self.rttvar_ns / 4 + delta / 4;
                self.srtt_ns = Some(srtt - srtt / 8 + r / 8);
            }
        }
        let srtt = self.srtt_ns.expect("just set");
        self.rto_ns = (srtt + 4 * self.rttvar_ns.max(1)).clamp(self.min_ns, self.max_ns);
    }

    /// Exponential backoff after a retransmission timeout (Karn's
    /// second half), capped at the configured maximum.  No-op in fixed
    /// mode.
    pub fn backoff(&mut self) {
        if self.fixed {
            return;
        }
        self.rto_ns = self.rto_ns.saturating_mul(2).min(self.max_ns);
    }
}

/// How a multi-packet round is offered to the network.
///
/// With `burst == 0` pacing is off (the paper's full-speed blast).
/// Otherwise the [`Pacer`] is **AIMD**: clean rounds grow the burst
/// additively by [`growth`](PacingConfig::growth) up to
/// [`max_burst`](PacingConfig::max_burst); a status report that asks
/// again for `m` of the `n` packets its round sent trims it to
/// `⌊burst · (n − m) / n⌋`, and a retransmission timeout halves it, both
/// down to [`min_burst`](PacingConfig::min_burst) — the burst size as
/// the congestion window, the gap as the clock.  A fixed
/// pace ([`new`](PacingConfig::new), the behaviour every exact-schedule
/// test pins) is AIMD with `min_burst == max_burst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacingConfig {
    /// Packets emitted back-to-back before the engine yields for
    /// [`gap`](PacingConfig::gap): the *initial* burst.  `0` disables
    /// pacing (the paper's full-speed blast).
    pub burst: u32,
    /// Inter-burst gap, from the start of one burst to the start of the
    /// next, expressed through [`PACE_TIMER`].
    pub gap: Duration,
    /// AIMD floor: the burst never shrinks below this.
    pub min_burst: u32,
    /// AIMD ceiling: the burst never grows above this.
    pub max_burst: u32,
    /// Additive increase per clean round, in packets.
    pub growth: u32,
}

impl Default for PacingConfig {
    fn default() -> Self {
        PacingConfig::off()
    }
}

impl PacingConfig {
    /// The smallest socket wait the I/O tier should ever issue: waits
    /// below this are indistinguishable from "poll now" at kernel timer
    /// resolution, and `std`'s socket timeouts reject zero outright.
    /// Kept well under the shortest sane inter-burst [`gap`] so pacing
    /// deadlines are never rounded up into scheduler noise — the single
    /// authority for the floor the UDP channel and driver used to
    /// hard-code separately.
    ///
    /// [`gap`]: PacingConfig::gap
    pub const MIN_WAIT: Duration = Duration::from_micros(50);

    /// No pacing: every round goes out in one loop (the paper's mode).
    pub fn off() -> Self {
        PacingConfig::aimd(0, Duration::ZERO, 0, 0, 0)
    }

    /// Pace a *fixed* `burst` packets per `gap`: AIMD with both bounds
    /// at `burst`, so no signal moves it.
    pub fn new(burst: u32, gap: Duration) -> Self {
        PacingConfig::aimd(burst, gap, burst, burst, 0)
    }

    /// AIMD pacing: start at `burst` packets per `gap`, grow by
    /// `growth` per clean round up to `max_burst`, shrink on loss
    /// ([`Pacer::on_loss`], [`Pacer::on_timeout`]) down to `min_burst`.
    pub fn aimd(burst: u32, gap: Duration, min_burst: u32, max_burst: u32, growth: u32) -> Self {
        PacingConfig {
            burst,
            gap,
            min_burst,
            max_burst,
            growth,
        }
    }

    /// LAN/loopback defaults: bursts start 250 µs apart, however long
    /// each takes to send, and a loss shrinks the burst down to 4.  A
    /// granted sender ([`Control::grant`]) starts at the receiver's
    /// queue share and never grows past it: on Linux under a 4 MiB
    /// `rmem_max` that is 3 640 datagrams of 1 444 B, so a 4 MiB
    /// transfer is one burst and the gap never runs; under the default
    /// 212 992 B it is 184 per gap.  An engine without a grant starts at
    /// 64 packets per gap and AIMD probes up to 256 (≈ 1.43 GB/s at
    /// 1 400-byte payloads), 32 per clean round.
    pub fn lan() -> Self {
        PacingConfig::aimd(64, Duration::from_micros(250), 4, 256, 32)
    }

    /// True when pacing is in force.
    pub fn enabled(&self) -> bool {
        self.burst > 0 && !self.gap.is_zero()
    }

    /// Validation error, if any.
    pub(crate) fn invalid(&self) -> Option<&'static str> {
        if self.burst == 0 && self.max_burst == 0 {
            None
        } else if self.gap.is_zero() {
            Some("pacing burst requires a non-zero gap")
        } else if self.min_burst == 0 {
            Some("AIMD pacing requires min_burst >= 1")
        } else if self.min_burst > self.burst || self.burst > self.max_burst {
            Some("AIMD pacing requires min_burst <= burst <= max_burst")
        } else if self.growth == 0 && self.min_burst != self.max_burst {
            Some("AIMD pacing requires growth >= 1")
        } else {
            None
        }
    }
}

/// A point-in-time view of one [`Pacer`]'s state, for metrics and the
/// burst trajectory `tests/cc_sweep.rs` asserts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacerSnapshot {
    /// The burst the transfer started at: the configured initial burst,
    /// the receiver's [grant](Control::grant), or the burst it was
    /// [seeded](Control::seed_burst) with.
    pub initial_burst: u32,
    /// The burst size currently in force.
    pub burst: u32,
    /// The smallest burst the pacer ever shrank to.
    pub min_burst_seen: u32,
    /// Mean burst size over all signalled rounds (the current burst if
    /// no round has been signalled yet).
    pub mean_burst: f64,
    /// Rounds that completed without a loss signal.
    pub clean_rounds: u64,
    /// Loss signals received (NACKs + retransmission timeouts).
    pub loss_events: u64,
}

/// The per-engine pacing governor: answers "how many packets may this
/// burst emit" so the emission loops stay branch-light, and integrates
/// the engine's feedback signals into the burst size by the one AIMD
/// rule: [`on_clean_round`](Pacer::on_clean_round) adds `growth` up to
/// `max_burst`; [`on_loss`](Pacer::on_loss) keeps the share of its
/// round the report says was delivered, and
/// [`on_timeout`](Pacer::on_timeout) halves, both down to `min_burst`.
#[derive(Debug, Clone, Copy)]
pub struct Pacer {
    /// The configuration, its `burst` being where this transfer
    /// started (the configured one, or a [seed](Pacer::seed)).
    cfg: PacingConfig,
    /// The burst in force.
    burst: u32,
    min_seen: u32,
    rounds: u64,
    clean_rounds: u64,
    loss_events: u64,
    burst_sum: u64,
}

impl Pacer {
    /// A pacer enforcing `cfg`.
    pub fn new(cfg: PacingConfig) -> Self {
        Pacer {
            cfg,
            burst: cfg.burst,
            min_seen: cfg.burst,
            rounds: 0,
            clean_rounds: 0,
            loss_events: 0,
            burst_sum: 0,
        }
    }

    /// True when bursts are bounded.
    pub fn enabled(&self) -> bool {
        self.cfg.enabled()
    }

    /// Packets the current burst may emit (`u32::MAX` when unpaced).
    pub fn burst_budget(&self) -> u32 {
        if self.cfg.enabled() {
            self.burst
        } else {
            u32::MAX
        }
    }

    /// The inter-burst gap.
    pub fn gap(&self) -> Duration {
        self.cfg.gap
    }

    /// Start at `burst` instead of the configured initial burst,
    /// clamped into `[min_burst, max_burst]` (so a fixed pace stays
    /// put, and a [granted](Pacer::grant) pacer starts within its
    /// grant).  A no-op when pacing is off; meant for before the first
    /// signal.
    pub fn seed(&mut self, burst: u32) {
        if !self.cfg.enabled() {
            return;
        }
        let burst = burst.clamp(self.cfg.min_burst, self.cfg.max_burst);
        (self.cfg.burst, self.burst, self.min_seen) = (burst, burst, burst);
    }

    /// Take the receiver's queue grant of `queue` datagrams (clamped to
    /// `1..=`[`MAX_GRANT`]): an AIMD pacer starts at it, never grows
    /// past it and shrinks below it on loss; a fixed pace is capped by
    /// it.  A no-op when pacing is off; meant for before the first
    /// signal.
    pub fn grant(&mut self, queue: u32) {
        if !self.cfg.enabled() {
            return;
        }
        let queue = queue.clamp(1, MAX_GRANT);
        let cfg = &mut self.cfg;
        cfg.max_burst = if cfg.min_burst == cfg.max_burst {
            cfg.max_burst.min(queue)
        } else {
            queue
        };
        cfg.min_burst = cfg.min_burst.min(cfg.max_burst);
        self.seed(queue);
    }

    /// Signal that a round completed without loss (a positive ack for
    /// everything solicited): additive increase.
    pub fn on_clean_round(&mut self) {
        if !self.cfg.enabled() {
            return;
        }
        self.rounds += 1;
        self.burst_sum += u64::from(self.burst);
        self.clean_rounds += 1;
        self.burst = self
            .burst
            .saturating_add(self.cfg.growth)
            .min(self.cfg.max_burst);
    }

    /// Signal a status report that asks again for `lost` of the `sent`
    /// packets its round sent: the burst keeps the delivered share,
    /// `⌊burst · (sent − lost) / sent⌋`, down to `min_burst`.  A report
    /// that asks for nothing still counts as a loss event.
    pub fn on_loss(&mut self, sent: u32, lost: u32) {
        let sent = u64::from(sent.max(1));
        let kept = sent - u64::from(lost).min(sent);
        self.shrink((u64::from(self.burst) * kept / sent) as u32);
    }

    /// Signal a retransmission timeout, which reports nothing
    /// delivered: the burst halves, down to `min_burst`.
    pub fn on_timeout(&mut self) {
        self.shrink(self.burst / 2);
    }

    /// A loss event that leaves `burst`, held within the floor.
    fn shrink(&mut self, burst: u32) {
        if !self.cfg.enabled() {
            return;
        }
        self.rounds += 1;
        self.burst_sum += u64::from(self.burst);
        self.loss_events += 1;
        self.burst = burst.max(self.cfg.min_burst).max(1);
        self.min_seen = self.min_seen.min(self.burst);
    }

    /// The current pacing state (telemetry; cheap to copy).
    pub fn snapshot(&self) -> PacerSnapshot {
        PacerSnapshot {
            initial_burst: self.cfg.burst,
            burst: self.burst,
            min_burst_seen: self.min_seen,
            mean_burst: if self.rounds == 0 {
                f64::from(self.burst)
            } else {
                self.burst_sum as f64 / self.rounds as f64
            },
            clean_rounds: self.clean_rounds,
            loss_events: self.loss_events,
        }
    }
}

/// One engine's transmission control: its view of the driver clock, its
/// [`RttEstimator`], its [`Pacer`] and its flight recorder, plus the
/// transfer id trace events are stamped with.
///
/// Engines feed it their protocol's signals — a round trip, a Karn
/// rejection, a timeout, a clean or lossy round — and it updates the
/// estimator or the pacer and records the matching event.  Without a
/// recorder each trace is one branch.
#[derive(Debug)]
pub struct Control {
    transfer_id: u32,
    now: Duration,
    rtt: RttEstimator,
    pacer: Pacer,
    /// The receiver's per-datagram drain interval (`Cr`) from its
    /// [grant](Control::grant); `None` without one.
    drain: Option<Duration>,
    /// Round-0 arrivals a receiver placed: (first, last, count).
    arrivals: (Duration, Duration, u32),
    recorder: Option<Recorder>,
}

impl Control {
    pub(crate) fn new(transfer_id: u32, timeout: &AdaptiveTimeout, pacing: PacingConfig) -> Self {
        Control {
            transfer_id,
            now: Duration::ZERO,
            rtt: RttEstimator::new(timeout),
            pacer: Pacer::new(pacing),
            drain: None,
            arrivals: (Duration::ZERO, Duration::ZERO, 0),
            recorder: None,
        }
    }

    pub(crate) fn transfer_id(&self) -> u32 {
        self.transfer_id
    }

    /// The driver clock as of the last [`Engine::set_now`](crate::Engine::set_now).
    pub(crate) fn now(&self) -> Duration {
        self.now
    }

    /// The retransmission timeout currently in force.
    pub fn rto(&self) -> Duration {
        self.rtt.rto()
    }

    /// The smoothed round-trip estimate, once a sample has been taken
    /// or a seed given.
    pub fn srtt(&self) -> Option<Duration> {
        self.rtt.srtt()
    }

    /// The round-trip estimate as `(srtt, rttvar)`, once a sample has
    /// been taken or a seed given: what a transfer leaves for the next
    /// one to the same peer ([`seed_rtt`](Control::seed_rtt)).  A
    /// transfer that took no sample of its own reports the seed it
    /// started from.
    pub fn rtt_estimate(&self) -> Option<(Duration, Duration)> {
        self.rtt.estimate()
    }

    /// The pacer (burst budget, gap).
    pub(crate) fn pacer(&self) -> &Pacer {
        &self.pacer
    }

    /// The pacing state, when pacing is enabled (`None` otherwise, and
    /// for receivers, which are built unpaced).
    pub fn pacing_snapshot(&self) -> Option<PacerSnapshot> {
        self.pacer.enabled().then(|| self.pacer.snapshot())
    }

    pub(crate) fn set_now(&mut self, now: Duration) {
        self.now = now;
    }

    pub(crate) fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = Some(recorder);
    }

    /// True when a recorder is attached (guards trace-only work).
    pub(crate) fn tracing(&self) -> bool {
        self.recorder.is_some()
    }

    /// One flight-recorder event at the sans-I/O clock.
    pub(crate) fn trace(&self, kind: EventKind, a: u64, b: u64) {
        if let Some(rec) = &self.recorder {
            rec.record_at(self.now, self.transfer_id, kind, a, b);
        }
    }

    /// Feed the round trip since `sent_at` — the caller vouches that it
    /// is unambiguous (Karn).
    pub(crate) fn sample_rtt(&mut self, sent_at: Duration) {
        let rtt = self.now.saturating_sub(sent_at);
        self.rtt.sample(rtt);
        let srtt = self.rtt.srtt().unwrap_or_default();
        self.trace(
            EventKind::RttSample,
            rtt.as_nanos() as u64,
            srtt.as_nanos() as u64,
        );
    }

    /// An acknowledgement arrived after a retransmission in `round`:
    /// Karn's rule rejects its round trip.
    pub(crate) fn reject_sample(&self, round: u32) {
        self.trace(EventKind::KarnReject, u64::from(round), 0);
    }

    /// A retransmission timeout: back the RTO off and halve the burst
    /// ([`Pacer::on_timeout`]) — the strongest congestion signal an
    /// engine has, since it reports nothing delivered.
    pub(crate) fn on_timeout(&mut self) {
        let before = self.rtt.rto();
        self.rtt.backoff();
        self.trace(
            EventKind::RtoBackoff,
            before.as_nanos() as u64,
            self.rtt.rto().as_nanos() as u64,
        );
        self.pace(Pacer::on_timeout);
    }

    /// Start the pacer at `burst` — the burst a previous transfer to the
    /// same peer ended at — instead of where it stands, clamped into its
    /// bounds ([`Pacer::seed`]): after a [grant](Control::grant), within
    /// it.  Call before [`Engine::start`](crate::Engine::start); unpaced
    /// engines and a fixed pace ignore it.
    pub fn seed_burst(&mut self, burst: u32) {
        self.pacer.seed(burst);
    }

    /// Take the receiver's grant, before
    /// [`Engine::start`](crate::Engine::start): the pacer bursts at most
    /// its queue share and starts there ([`Pacer::grant`]; ignored when
    /// pacing is off), and every round's tail timer waits, beyond the
    /// RTO, for the receiver to drain what is in flight at its `Cr`.
    /// An engine never granted keeps the configured burst and a tail
    /// timer of the RTO.
    pub fn grant(&mut self, grant: Grant) {
        self.pacer.grant(grant.queue);
        self.drain = Some(grant.drain());
    }

    /// How long a round's reliable tail waits for its answer when
    /// `in_flight` packets went out in the burst it closes: the RTO plus
    /// the time the receiver needs to drain them (`in_flight × Cr`), at
    /// most the policy's `max`.  The RTO alone without a grant.
    pub(crate) fn tail_timeout(&self, in_flight: usize) -> Duration {
        let drain = self.drain_of(in_flight);
        self.rtt.rto().saturating_add(drain).min(self.rtt.max())
    }

    /// When a round's reliable tail is re-sent once as a probe, if it
    /// is: `2 × srtt` plus the receiver's time to drain `in_flight`
    /// packets, at least [`PROBE_FLOOR`], and only while that is
    /// earlier than the [tail timeout](Control::tail_timeout).  `None`
    /// without an estimate (so always in the fixed mode), and without a
    /// [grant](Control::grant): a sender that does not know how long its
    /// receiver takes to drain a round cannot tell two round trips of
    /// silence from a receiver still at work, so it waits the RTO.
    pub(crate) fn probe_timeout(&self, in_flight: usize) -> Option<Duration> {
        let (Some(srtt), Some(_)) = (self.rtt.srtt(), self.drain) else {
            return None;
        };
        let pto = srtt
            .saturating_mul(2)
            .saturating_add(self.drain_of(in_flight))
            .max(PROBE_FLOOR);
        (pto < self.tail_timeout(in_flight)).then_some(pto)
    }

    /// The receiver's time to drain `in_flight` packets at its granted
    /// `Cr` (zero without a grant).
    fn drain_of(&self, in_flight: usize) -> Duration {
        self.drain
            .unwrap_or_default()
            .saturating_mul(in_flight.min(u32::MAX as usize) as u32)
    }

    /// A receiver placed a round-0 datagram now: note it, to time the
    /// round's arrivals ([`receive_interval`](Control::receive_interval)).
    pub(crate) fn on_arrival(&mut self) {
        let (first, _, n) = self.arrivals;
        let first = if n == 0 { self.now } else { first };
        self.arrivals = (first, self.now, n.saturating_add(1));
    }

    /// A receiver's mean interval between the round-0 datagrams it
    /// placed, once it has placed two: its receive cost per datagram
    /// (`Cr`) when arrivals queued behind it, the sender's pace when
    /// they did not — how long the receiver took to get through a
    /// round, per packet, either way.  What its next grant reports.
    pub fn receive_interval(&self) -> Option<Duration> {
        let (first, last, n) = self.arrivals;
        (n >= 2).then(|| (last - first) / (n - 1))
    }

    /// Start the estimator at `(srtt, rttvar)` — the estimate a previous
    /// transfer to the same peer ended with — so round 0's
    /// retransmission timer arms at the peer's measured RTO, floored at
    /// [`ROUND0_FLOOR`], instead of the configured `initial`
    /// ([`RttEstimator::seed`]).  Call before
    /// [`Engine::start`](crate::Engine::start); a fixed timeout ignores
    /// it.
    pub fn seed_rtt(&mut self, srtt: Duration, rttvar: Duration) {
        self.rtt.seed(srtt, rttvar);
    }

    /// A round completed without loss: AIMD growth.
    pub(crate) fn on_clean_round(&mut self) {
        self.pace(Pacer::on_clean_round);
    }

    /// A status report asks again for `lost` of the `sent` packets its
    /// round sent: the burst keeps the delivered share
    /// ([`Pacer::on_loss`]).
    pub(crate) fn on_loss(&mut self, sent: u32, lost: u32) {
        self.pace(|p| p.on_loss(sent, lost));
    }

    /// Apply one pacer signal, tracing the burst transition it causes.
    fn pace(&mut self, signal: impl FnOnce(&mut Pacer)) {
        let before = self.pacer.burst_budget();
        signal(&mut self.pacer);
        let after = self.pacer.burst_budget();
        if after > before {
            self.trace(EventKind::PacerGrow, u64::from(before), u64::from(after));
        } else if after < before {
            self.trace(EventKind::PacerShrink, u64::from(before), u64::from(after));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_mode_is_inert() {
        let mut e = RttEstimator::new(&AdaptiveTimeout::Fixed(Duration::from_millis(173)));
        assert_eq!(e.rto(), Duration::from_millis(173));
        e.sample(Duration::from_micros(20));
        e.backoff();
        e.backoff();
        assert_eq!(e.rto(), Duration::from_millis(173), "fixed stays fixed");
        assert_eq!(e.srtt(), None);
    }

    #[test]
    fn first_sample_seeds_srtt_and_variance() {
        let mut e = RttEstimator::new(&AdaptiveTimeout::lan());
        assert_eq!(e.rto(), Duration::from_millis(25));
        e.sample(Duration::from_millis(10));
        assert_eq!(e.srtt(), Some(Duration::from_millis(10)));
        // RTO = SRTT + 4·(SRTT/2) = 3·SRTT = 30 ms.
        assert_eq!(e.rto(), Duration::from_millis(30));
    }

    #[test]
    fn constant_rtt_converges_to_min_clamp() {
        let mut e = RttEstimator::new(&AdaptiveTimeout::Adaptive {
            initial: Duration::from_millis(100),
            min: Duration::from_millis(1),
            max: Duration::from_secs(1),
        });
        for _ in 0..100 {
            e.sample(Duration::from_micros(500));
        }
        let srtt = e.srtt().unwrap();
        assert!(
            srtt.abs_diff(Duration::from_micros(500)) < Duration::from_micros(5),
            "srtt converges to the true rtt, got {srtt:?}"
        );
        // Variance decays toward zero, so the RTO hits the min clamp.
        assert_eq!(e.rto(), Duration::from_millis(1));
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let mut e = RttEstimator::new(&AdaptiveTimeout::Adaptive {
            initial: Duration::from_millis(10),
            min: Duration::from_millis(1),
            max: Duration::from_millis(100),
        });
        let mut prev = e.rto();
        for _ in 0..10 {
            e.backoff();
            assert!(e.rto() >= prev, "backoff is monotone");
            prev = e.rto();
        }
        assert_eq!(e.rto(), Duration::from_millis(100), "capped at max");
    }

    #[test]
    fn sample_after_backoff_recovers() {
        let mut e = RttEstimator::new(&AdaptiveTimeout::lan());
        e.sample(Duration::from_millis(4));
        for _ in 0..6 {
            e.backoff();
        }
        assert!(e.rto() > Duration::from_millis(100));
        // One valid sample recomputes from SRTT/RTTVAR, collapsing the
        // backed-off value.
        e.sample(Duration::from_millis(4));
        assert!(e.rto() < Duration::from_millis(20), "rto {:?}", e.rto());
    }

    fn lan_seeded(srtt_us: u64, rttvar_us: u64) -> RttEstimator {
        let mut e = RttEstimator::new(&AdaptiveTimeout::lan());
        e.seed(
            Duration::from_micros(srtt_us),
            Duration::from_micros(rttvar_us),
        );
        e
    }

    #[test]
    fn a_seed_is_floored_for_round_zero_but_never_above_initial() {
        // A converged loopback estimate: 200 µs + 4 × 50 µs = 400 µs,
        // raised to the round-0 floor.
        let e = lan_seeded(200, 50);
        assert_eq!(e.rto(), ROUND0_FLOOR);
        assert_eq!(
            e.estimate(),
            Some((Duration::from_micros(200), Duration::from_micros(50)))
        );
        // A slow path's estimate stands as measured, even above initial.
        assert_eq!(lan_seeded(20_000, 5_000).rto(), Duration::from_millis(40));
        // The floor itself never exceeds `initial`, nor undercuts `min`.
        for (initial_ms, min_ms, floor_ms) in [(5, 1, 5), (25, 2, 10), (25, 12, 12)] {
            let mut e = RttEstimator::new(&AdaptiveTimeout::Adaptive {
                initial: Duration::from_millis(initial_ms),
                min: Duration::from_millis(min_ms),
                max: Duration::from_secs(2),
            });
            e.seed(Duration::from_micros(200), Duration::from_micros(50));
            assert_eq!(e.rto(), Duration::from_millis(floor_ms), "{initial_ms}");
        }
    }

    #[test]
    fn fixed_mode_ignores_a_seed() {
        let mut e = RttEstimator::new(&AdaptiveTimeout::Fixed(Duration::from_millis(173)));
        e.seed(Duration::from_micros(200), Duration::from_micros(50));
        assert_eq!(e.rto(), Duration::from_millis(173));
        assert_eq!(e.estimate(), None);
    }

    #[test]
    fn the_first_own_sample_smooths_from_the_seed_then_min_clamps() {
        let mut e = lan_seeded(200, 50);
        e.sample(Duration::from_micros(400));
        // No RFC 6298 first-sample reset (that would read SRTT 400 µs,
        // RTTVAR 200 µs): RTTVAR = 3/4·50 + 1/4·200 = 87.5 µs, SRTT =
        // 7/8·200 + 1/8·400 = 225 µs.
        assert_eq!(
            e.estimate(),
            Some((Duration::from_micros(225), Duration::from_nanos(87_500)))
        );
        // 225 + 4 × 87.5 = 575 µs: the round-0 floor is gone, the 2 ms
        // `min` clamp is back.
        assert_eq!(e.rto(), Duration::from_millis(2));
        // Backoff doubles from there, as for an unseeded estimator.
        e.backoff();
        assert_eq!(e.rto(), Duration::from_millis(4));
    }

    #[test]
    fn pto_of_an_estimate_is_twice_the_srtt_above_the_floor() {
        let lan = AdaptiveTimeout::lan();
        let us = Duration::from_micros;
        assert_eq!(lan.pto_of(us(2_000)), Some(us(4_000)));
        assert_eq!(lan.pto_of(us(200)), Some(PROBE_FLOOR));
        assert_eq!(lan.pto_of(Duration::MAX), Some(Duration::MAX));
        assert_eq!(AdaptiveTimeout::Fixed(us(5)).pto_of(us(200)), None);
    }

    /// A seeded, granted control probes at `2 × srtt` plus the drain of
    /// what is in flight, floored, and not at all once that reaches the
    /// tail timeout; without a grant or an estimate it never probes.
    #[test]
    fn a_probe_timeout_comes_before_the_tail_timeout_or_not_at_all() {
        let us = Duration::from_micros;
        let mut c = Control::new(1, &AdaptiveTimeout::lan(), PacingConfig::off());
        c.seed_rtt(us(2_000), us(500));
        assert_eq!(c.probe_timeout(1), None, "no grant");
        c.grant(Grant {
            queue: 64,
            drain_ns: 1_000,
        });
        assert_eq!(c.probe_timeout(1), Some(us(4_001)));
        assert_eq!(c.probe_timeout(188), Some(us(4_188)));
        assert_eq!(c.tail_timeout(188), ROUND0_FLOOR + us(188));
        c.seed_rtt(us(200), us(50));
        assert_eq!(c.probe_timeout(188), Some(PROBE_FLOOR));
        // A slow path's 2 × 6 ms is no earlier than its 10 ms timeout.
        c.seed_rtt(Duration::from_millis(6), us(0));
        assert_eq!(c.probe_timeout(0), None, "12 ms is not before 10 ms");
        let mut fixed = Control::new(1, &Duration::from_millis(5).into(), PacingConfig::off());
        fixed.grant(Grant {
            queue: 64,
            drain_ns: 0,
        });
        fixed.seed_rtt(us(200), us(50));
        assert_eq!(
            fixed.probe_timeout(1),
            None,
            "a fixed timeout has no estimate"
        );
        let mut fresh = Control::new(1, &AdaptiveTimeout::lan(), PacingConfig::off());
        fresh.grant(Grant {
            queue: 64,
            drain_ns: 0,
        });
        assert_eq!(fresh.probe_timeout(1), None, "no estimate yet");
    }

    #[test]
    fn timeout_policy_validation() {
        assert!(AdaptiveTimeout::Fixed(Duration::ZERO).invalid().is_some());
        assert!(AdaptiveTimeout::Fixed(Duration::from_millis(1))
            .invalid()
            .is_none());
        assert!(AdaptiveTimeout::lan().invalid().is_none());
        assert!(AdaptiveTimeout::Adaptive {
            initial: Duration::from_millis(1),
            min: Duration::from_millis(2),
            max: Duration::from_millis(3),
        }
        .invalid()
        .is_some());
        assert!(AdaptiveTimeout::Adaptive {
            initial: Duration::from_millis(5),
            min: Duration::from_millis(2),
            max: Duration::from_millis(3),
        }
        .invalid()
        .is_some());
        let t: AdaptiveTimeout = Duration::from_millis(7).into();
        assert_eq!(t, AdaptiveTimeout::Fixed(Duration::from_millis(7)));
        assert_eq!(t.initial(), Duration::from_millis(7));
        assert!(!t.is_adaptive());
        assert!(AdaptiveTimeout::lan().is_adaptive());
    }

    #[test]
    fn pacer_budget_and_validation() {
        let p = Pacer::new(PacingConfig::off());
        assert!(!p.enabled());
        assert_eq!(p.burst_budget(), u32::MAX);

        let p = Pacer::new(PacingConfig::new(8, Duration::from_micros(100)));
        assert!(p.enabled());
        assert_eq!(p.burst_budget(), 8);
        assert_eq!(p.gap(), Duration::from_micros(100));

        assert!(PacingConfig::off().invalid().is_none());
        assert!(PacingConfig::lan().invalid().is_none());
        assert!(PacingConfig::new(8, Duration::from_micros(100))
            .invalid()
            .is_none());
        assert!(PacingConfig::new(4, Duration::ZERO).invalid().is_some());
        // AIMD bounds must bracket the initial burst, with room to grow.
        let gap = Duration::from_micros(100);
        assert!(PacingConfig::aimd(8, gap, 2, 32, 4).invalid().is_none());
        assert!(PacingConfig::aimd(8, gap, 0, 32, 4).invalid().is_some());
        assert!(PacingConfig::aimd(8, gap, 9, 32, 4).invalid().is_some());
        assert!(PacingConfig::aimd(33, gap, 2, 32, 4).invalid().is_some());
        assert!(PacingConfig::aimd(8, gap, 2, 32, 0).invalid().is_some());
        assert!(PacingConfig::aimd(8, gap, 8, 8, 0).invalid().is_none());
    }

    #[test]
    fn static_pacer_ignores_signals() {
        let mut p = Pacer::new(PacingConfig::new(8, Duration::from_micros(100)));
        p.on_loss(8, 8);
        p.on_clean_round();
        p.on_timeout();
        assert_eq!(p.burst_budget(), 8, "static burst never moves");
        let snap = p.snapshot();
        assert_eq!(snap.burst, 8);
        assert_eq!(snap.min_burst_seen, 8);
        assert_eq!(snap.clean_rounds, 1);
        assert_eq!(snap.loss_events, 2);
    }

    #[test]
    fn aimd_pacer_grows_additively_and_shrinks_multiplicatively() {
        let cfg = PacingConfig::aimd(16, Duration::from_micros(100), 4, 64, 8);
        let mut p = Pacer::new(cfg);
        assert_eq!(p.burst_budget(), 16);

        p.on_clean_round();
        assert_eq!(p.burst_budget(), 24, "additive increase");
        for _ in 0..20 {
            p.on_clean_round();
        }
        assert_eq!(p.burst_budget(), 64, "capped at the ceiling");

        p.on_loss(100, 1);
        assert_eq!(p.burst_budget(), 63, "1 of 100 lost: ⌊64 · 99 / 100⌋");
        p.on_loss(10, 0);
        assert_eq!(p.burst_budget(), 63, "a report that asks for nothing");
        p.on_loss(3, 2);
        assert_eq!(p.burst_budget(), 21, "2 of 3 lost: a third kept");
        p.on_timeout();
        assert_eq!(p.burst_budget(), 10, "a timeout halves");
        assert_eq!(p.snapshot().loss_events, 4);
        p.on_loss(0, 5);
        assert_eq!(p.burst_budget(), 4, "floored, however much was lost");
        assert_eq!(p.snapshot().min_burst_seen, 4);

        // Recovery: (64 - 4) / 8 = 8 clean rounds back to the ceiling.
        for _ in 0..8 {
            p.on_clean_round();
        }
        assert_eq!(p.burst_budget(), 64);
        let snap = p.snapshot();
        assert!(snap.mean_burst > 4.0 && snap.mean_burst < 64.0);
        assert_eq!(snap.initial_burst, 16);
    }

    #[test]
    fn a_seed_clamps_into_the_bounds_and_moves_the_start() {
        let cfg = PacingConfig::aimd(16, Duration::from_micros(100), 4, 64, 8);
        for (seed, start) in [(40, 40), (1000, 64), (1, 4)] {
            let mut p = Pacer::new(cfg);
            p.seed(seed);
            assert_eq!(p.burst_budget(), start);
            let snap = p.snapshot();
            assert_eq!((snap.initial_burst, snap.min_burst_seen), (start, start));
        }
        // Fixed and unpaced pacers pass a seed through untouched.
        let mut fixed = Pacer::new(PacingConfig::new(8, Duration::from_micros(100)));
        fixed.seed(64);
        assert_eq!(
            (fixed.burst_budget(), fixed.snapshot().initial_burst),
            (8, 8)
        );
        let mut off = Pacer::new(PacingConfig::off());
        off.seed(64);
        assert_eq!(off.burst_budget(), u32::MAX);
    }

    #[test]
    fn a_grant_starts_and_caps_an_aimd_burst_and_caps_a_fixed_one() {
        let gap = Duration::from_micros(100);
        // The floor stays the configured 4, or the grant when smaller.
        let cases = [
            (3640, 3640, 1820),
            (6, 6, 4),
            (2, 2, 2),
            (0, 1, 1),
            (u32::MAX, MAX_GRANT, MAX_GRANT / 2),
        ];
        for (queue, start, halved) in cases {
            let mut p = Pacer::new(PacingConfig::lan());
            p.grant(queue);
            assert_eq!(p.burst_budget(), start, "{queue}");
            assert_eq!(p.snapshot().initial_burst, start);
            p.on_clean_round();
            assert_eq!(p.burst_budget(), start, "never grows past the grant");
            p.on_loss(2, 1);
            assert_eq!(p.burst_budget(), halved, "shrinks below it");
        }
        for (queue, burst) in [(3640, 8), (5, 5), (0, 1)] {
            let mut fixed = Pacer::new(PacingConfig::new(8, gap));
            fixed.grant(queue);
            assert_eq!(fixed.burst_budget(), burst, "{queue}");
        }
        let mut off = Pacer::new(PacingConfig::off());
        off.grant(16);
        assert_eq!(
            off.burst_budget(),
            u32::MAX,
            "the paper's blast stays unbounded"
        );
    }

    #[test]
    fn unpaced_pacer_signals_are_inert() {
        let mut p = Pacer::new(PacingConfig::off());
        p.on_loss(1, 1);
        p.on_timeout();
        p.on_clean_round();
        assert_eq!(p.burst_budget(), u32::MAX);
        assert_eq!(p.snapshot().clean_rounds, 0);
        assert_eq!(p.snapshot().loss_events, 0);
    }
}
