//! The one packet-loss model: §3's iid losses ("statistically
//! independent events with a constant failure probability") and the
//! Gilbert–Elliott chain for the burst errors that "occasionally
//! occur".
//!
//! The [`harness`](crate::harness), `blast-sim` and `blast-udp`'s
//! `FaultyChannel` all draw from it.  Each keeps its own seeded RNG and
//! hands [`LossChain::drops`] a closure returning one uniform in
//! `[0, 1)`, so one seed still means one drop trajectory.

/// How packets are lost in flight.  Probabilities are in `0.0..=1.0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// No loss.
    None,
    /// Independent loss with probability `p` per packet.
    Iid {
        /// Per-packet loss probability.
        p: f64,
    },
    /// Two-state burst model: a hidden Markov chain alternates between
    /// a *good* and a *bad* state, each with its own iid loss
    /// probability — a swamped receiving interface drops packets in
    /// runs, and iid loss flatters protocols that cannot ride them out.
    GilbertElliott {
        /// P(good → bad) per packet.
        p_enter: f64,
        /// P(bad → good) per packet.
        p_exit: f64,
        /// Loss probability in the good state.
        good_loss: f64,
        /// Loss probability in the bad state.
        bad_loss: f64,
    },
}

impl LossModel {
    /// iid loss with probability `p` (`0` is [`LossModel::None`]).
    /// Panics if `p` is out of range.
    pub fn iid(p: f64) -> Self {
        check_probability("p", p);
        if p == 0.0 {
            LossModel::None
        } else {
            LossModel::Iid { p }
        }
    }

    /// Panic with `"<field> probability out of range: <v>"` unless every
    /// probability is in `0.0..=1.0` (NaN is not).
    pub fn validate(&self) {
        match *self {
            LossModel::None => {}
            LossModel::Iid { p } => check_probability("p", p),
            LossModel::GilbertElliott {
                p_enter,
                p_exit,
                good_loss,
                bad_loss,
            } => {
                check_probability("p_enter", p_enter);
                check_probability("p_exit", p_exit);
                check_probability("good_loss", good_loss);
                check_probability("bad_loss", bad_loss);
            }
        }
    }
}

/// The one probability check behind [`LossModel::validate`], shared
/// with `FaultyChannel`'s other fault probabilities.
pub fn check_probability(field: &str, v: f64) {
    assert!(
        (0.0..=1.0).contains(&v),
        "{field} probability out of range: {v}"
    );
}

/// The state a [`LossModel`] carries between packets: whether the
/// Gilbert–Elliott chain is in its bad state (it starts good).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LossChain {
    bad: bool,
}

impl LossChain {
    /// Whether the next packet is lost under `model`.  `None` draws no
    /// uniform, `Iid` one, `GilbertElliott` always two: one steps the
    /// chain, the other samples the new state's loss.
    pub fn drops(&mut self, model: &LossModel, mut uniform: impl FnMut() -> f64) -> bool {
        match *model {
            LossModel::None => false,
            LossModel::Iid { p } => uniform() < p,
            LossModel::GilbertElliott {
                p_enter,
                p_exit,
                good_loss,
                bad_loss,
            } => {
                let u = uniform();
                self.bad = if self.bad { u >= p_exit } else { u < p_enter };
                uniform() < if self.bad { bad_loss } else { good_loss }
            }
        }
    }
}
