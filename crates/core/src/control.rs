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
//!   AIMD on the burst size: a clean round adds a step, a loss signal
//!   halves it, both within configured bounds (equal bounds make the
//!   burst fixed).
//!
//! The burst is the one piece of state that outlives a transfer.  A
//! clean blast is a single round, so a pacer born with its transfer
//! gets one growth step before it dies: every transfer would re-probe
//! the path from the configured start.  A caller that remembers where
//! the peer's last transfer ended (`blast_udp::path::PathTable`) hands
//! that burst to [`Control::seed_burst`] before `start`, clamped into
//! the configured bounds; the retransmission timeout is never carried,
//! since a stale RTO fires spuriously in round 0.
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

use crate::api::TimerToken;

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
    /// Jacobson/Karn adaptive RTO: seeded at `initial` until the first
    /// round-trip sample, then `SRTT + 4 × RTTVAR`, clamped to
    /// `[min, max]`, doubled on every retransmission timeout.
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RttEstimator {
    /// Smoothed RTT in nanoseconds; `None` until the first sample.
    srtt_ns: Option<u64>,
    /// RTT variance in nanoseconds.
    rttvar_ns: u64,
    /// Current RTO in nanoseconds.
    rto_ns: u64,
    min_ns: u64,
    max_ns: u64,
    /// Fixed mode: `sample` and `backoff` are no-ops.
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
                    fixed: true,
                }
            }
            AdaptiveTimeout::Adaptive { initial, min, max } => RttEstimator {
                srtt_ns: None,
                rttvar_ns: 0,
                rto_ns: initial.as_nanos() as u64,
                min_ns: min.as_nanos() as u64,
                max_ns: max.as_nanos() as u64,
                fixed: false,
            },
        }
    }

    /// The retransmission timeout currently in force.
    pub fn rto(&self) -> Duration {
        Duration::from_nanos(self.rto_ns)
    }

    /// The smoothed round-trip estimate, once at least one sample has
    /// been taken (always `None` in fixed mode).
    pub fn srtt(&self) -> Option<Duration> {
        self.srtt_ns.map(Duration::from_nanos)
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
/// [`max_burst`](PacingConfig::max_burst), and every loss signal (NACK
/// or retransmission timeout) halves it down to
/// [`min_burst`](PacingConfig::min_burst) — Reno-style probing with the
/// burst size as the congestion window, the gap as the clock.  A fixed
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
    /// `growth` per clean round up to `max_burst`, halve on loss down
    /// to `min_burst`.
    pub fn aimd(burst: u32, gap: Duration, min_burst: u32, max_burst: u32, growth: u32) -> Self {
        PacingConfig {
            burst,
            gap,
            min_burst,
            max_burst,
            growth,
        }
    }

    /// LAN/loopback defaults: start at 64 packets per 250 µs (≈ 360 MB/s
    /// at 1400-byte payloads) and let AIMD probe between 4 and 256, whose
    /// 256 packets per 250 µs (≈ 1.43 GB/s) is the sender's ceiling:
    /// bursts start a gap apart, however long each takes to send.
    /// The old static preset (32 / 500 µs) was sized for drivers that
    /// could not *wait* a sub-millisecond gap and had to spin it; with
    /// the event-driven `NetIo` waits the gap is honest, so the initial
    /// rate can sit near the link and the shrink-on-loss half of AIMD —
    /// down to ~22 MB/s at the floor — covers the flooded-`SO_RCVBUF`
    /// case the conservative preset existed for.
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
    /// or the one it was [seeded](Control::seed_burst) with.
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
/// `max_burst`, [`on_loss`](Pacer::on_loss) halves down to `min_burst`.
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
    /// clamped into `[min_burst, max_burst]`.  A no-op when pacing is
    /// off or fixed (`min_burst == max_burst`), and meant for before the
    /// first signal.
    pub fn seed(&mut self, burst: u32) {
        if !self.cfg.enabled() || self.cfg.min_burst == self.cfg.max_burst {
            return;
        }
        let burst = burst.clamp(self.cfg.min_burst, self.cfg.max_burst);
        (self.cfg.burst, self.burst, self.min_seen) = (burst, burst, burst);
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

    /// Signal a loss event (NACK or retransmission timeout):
    /// multiplicative decrease.
    pub fn on_loss(&mut self) {
        if !self.cfg.enabled() {
            return;
        }
        self.rounds += 1;
        self.burst_sum += u64::from(self.burst);
        self.loss_events += 1;
        self.burst = (self.burst / 2).max(self.cfg.min_burst).max(1);
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
    recorder: Option<Recorder>,
}

impl Control {
    pub(crate) fn new(transfer_id: u32, timeout: &AdaptiveTimeout, pacing: PacingConfig) -> Self {
        Control {
            transfer_id,
            now: Duration::ZERO,
            rtt: RttEstimator::new(timeout),
            pacer: Pacer::new(pacing),
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

    /// The smoothed round-trip estimate, once a sample has been taken.
    pub fn srtt(&self) -> Option<Duration> {
        self.rtt.srtt()
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

    /// A retransmission timeout: back the RTO off and signal the pacer
    /// a loss — the strongest congestion signal an engine has.
    pub(crate) fn on_timeout(&mut self) {
        let before = self.rtt.rto();
        self.rtt.backoff();
        self.trace(
            EventKind::RtoBackoff,
            before.as_nanos() as u64,
            self.rtt.rto().as_nanos() as u64,
        );
        self.on_loss();
    }

    /// Start the pacer at `burst` — the burst a previous transfer to
    /// the same peer ended at — instead of the configured initial burst.
    /// Call before [`Engine::start`](crate::Engine::start).  The burst is
    /// clamped into the configured `[min_burst, max_burst]`; unpaced
    /// engines and a fixed pace ignore it.
    pub fn seed_burst(&mut self, burst: u32) {
        self.pacer.seed(burst);
    }

    /// A round completed without loss: AIMD growth.
    pub(crate) fn on_clean_round(&mut self) {
        self.pace(Pacer::on_clean_round);
    }

    /// A loss signal (NACK or timeout): AIMD shrink.
    pub(crate) fn on_loss(&mut self) {
        self.pace(Pacer::on_loss);
    }

    /// Apply one pacer signal, tracing the burst transition it causes.
    fn pace(&mut self, signal: fn(&mut Pacer)) {
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
        p.on_loss();
        p.on_clean_round();
        p.on_loss();
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

        p.on_loss();
        assert_eq!(p.burst_budget(), 32, "multiplicative decrease");
        for _ in 0..20 {
            p.on_loss();
        }
        assert_eq!(p.burst_budget(), 4, "floored");
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
    fn unpaced_pacer_signals_are_inert() {
        let mut p = Pacer::new(PacingConfig::off());
        p.on_loss();
        p.on_clean_round();
        assert_eq!(p.burst_budget(), u32::MAX);
        assert_eq!(p.snapshot().clean_rounds, 0);
        assert_eq!(p.snapshot().loss_events, 0);
    }
}
