//! The one loss model (`blast_core::loss`) on its own: the
//! Gilbert–Elliott chain's extremes and burstiness, the iid rate, the
//! draws each model takes, the single validator, and the resolution
//! argument that lets the harness take integer-grid uniforms as `f64`
//! without changing a single drop decision.

use blast_core::loss::{LossChain, LossModel};
use proptest::prelude::*;

/// A seeded uniform source in `[0, 1)` (xorshift64*, top 53 bits).
fn uniform(seed: u64) -> impl FnMut() -> f64 {
    let mut x = seed.max(1);
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Drop decisions for `n` packets under `model`.
fn pattern(model: LossModel, seed: u64, n: usize) -> Vec<bool> {
    let mut chain = LossChain::default();
    let mut u = uniform(seed);
    (0..n).map(|_| chain.drops(&model, &mut u)).collect()
}

fn ge(p_enter: f64, p_exit: f64, good_loss: f64, bad_loss: f64) -> LossModel {
    LossModel::GilbertElliott {
        p_enter,
        p_exit,
        good_loss,
        bad_loss,
    }
}

#[test]
fn burst_loss_extremes() {
    // A chain that can never leave the good state drops nothing.
    let never = pattern(ge(0.0, 1.0, 0.0, 1.0), 1, 50);
    assert!(never.iter().all(|&d| !d));
    // A chain that enters (and never leaves) a total-loss bad state
    // drops everything.
    let always = pattern(ge(1.0, 0.0, 0.0, 1.0), 1, 50);
    assert!(always.iter().all(|&d| d));
}

#[test]
fn burst_loss_comes_in_runs() {
    // The bad state drops everything and lasts 1/p_exit = 4 packets on
    // average: drops must cluster, not scatter like iid loss.
    let drops = pattern(ge(0.05, 0.25, 0.0, 1.0), 42, 2000);
    let dropped = drops.iter().filter(|&&d| d).count();
    assert!(dropped > 0, "the bad state should have bitten");
    let runs = drops.windows(2).filter(|w| w[1] && !w[0]).count() + usize::from(drops[0]);
    let mean_run = dropped as f64 / runs as f64;
    assert!(
        mean_run > 2.0,
        "drops should arrive in runs (mean run length {mean_run:.2} from \
         {dropped} drops in {runs} runs)"
    );
}

#[test]
fn iid_loss_rate_matches_p() {
    let n = 100_000;
    let dropped = pattern(LossModel::iid(0.1), 7, n)
        .iter()
        .filter(|&&d| d)
        .count();
    let rate = dropped as f64 / n as f64;
    assert!((rate - 0.1).abs() < 0.005, "iid(0.1) dropped {rate}");
}

#[test]
fn draws_per_packet_are_fixed_by_the_model() {
    // The simulator's seeded runs (the paper bins) depend on this: no
    // loss draws nothing, iid draws once, Gilbert–Elliott always twice —
    // even when the current state's loss probability is 0.
    for (model, per_packet) in [
        (LossModel::iid(0.0), 0),
        (LossModel::iid(0.5), 1),
        (ge(0.005, 0.245, 0.0, 0.5), 2),
    ] {
        let mut chain = LossChain::default();
        let mut draws = 0;
        let mut u = uniform(3);
        for _ in 0..100 {
            chain.drops(&model, || {
                draws += 1;
                u()
            });
        }
        assert_eq!(draws, 100 * per_packet, "{model:?}");
    }
}

#[test]
#[should_panic(expected = "p_exit probability out of range: 7")]
fn invalid_burst_probability_rejected() {
    ge(0.1, 7.0, 0.0, 1.0).validate();
}

#[test]
#[should_panic(expected = "p probability out of range: NaN")]
fn nan_probability_rejected() {
    LossModel::Iid { p: f64::NAN }.validate();
}

#[test]
fn resolution_edge_keeps_adjacent_grid_points_apart() {
    let d = 1u64 << 32;
    let at = |k: u64| k as f64 / d as f64;
    assert!(at(d - 1) < at(d));
    assert!(at(0) < at(1));
}

proptest! {
    /// For integers 0 ≤ k, n ≤ d ≤ 2³², `fl(k/d) < fl(n/d)` ⇔ `k < n`:
    /// the two values are at least 1/d ≥ 2⁻³² apart and an `f64` ulp
    /// below 1 is 2⁻⁵³, so rounding cannot merge or swap them.  This is
    /// why the harness's `(x mod d) / d < n / d` decides exactly as its
    /// old integer `x mod d < n` did.
    #[test]
    fn integer_grid_order_survives_f64_division(
        d in 1u64..=(1u64 << 32),
        a in any::<u64>(),
        b in any::<u64>(),
        adjacent in any::<bool>(),
    ) {
        let k = a % (d + 1);
        // Half the cases pit k against a neighbour: the sharp ones.
        let n = if adjacent {
            if b % 2 == 0 { k.saturating_sub(1) } else { (k + 1).min(d) }
        } else {
            b % (d + 1)
        };
        prop_assert_eq!((k as f64 / d as f64) < (n as f64 / d as f64), k < n);
    }
}
