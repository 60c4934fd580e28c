//! # blast-bench — regenerating every table and figure of the paper
//!
//! One binary per artifact (run with `cargo run --release -p blast-bench
//! --bin <name>`):
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1`  | Table 1 — standalone error-free elapsed times |
//! | `table2`  | Table 2 — 1 KB exchange cost breakdown (+ Figure 2 timeline) |
//! | `table3`  | Table 3 — V-kernel MoveTo measurements |
//! | `figure3` | Figure 3.a–d — protocol timelines for N = 3 |
//! | `figure4` | Figure 4 — elapsed time vs transfer size |
//! | `figure5` | Figure 5 — expected time vs error rate, D = 64 |
//! | `figure6` | Figure 6 — standard deviation of retransmission strategies |
//! | `utilization` | §2.1.3 — network utilization vs size |
//! | `ablation_strategies` | §3.2.4 — strategy comparison at the engine level |
//! | `ablation_multiblast` | §3.1.3 — multi-blast chunk-size sweep |
//! | `interface_errors` | §3 — the interface-overrun error regime |
//! | `burst_errors` | extension of §3 — Gilbert–Elliott burst loss vs the iid assumption |
//! | `dma_interfaces` | §2.1.3 — the DMA-interface discussion, quantified |
//!
//! Every binary reproduces a result of the paper on the calibrated
//! simulator or the analytic model.  How fast *this implementation*
//! runs is measured in one place only, the repo benchmark
//! (`BENCHMARK.json`, `benchmark/README.md`).
//!
//! This library holds the shared measurement plumbing: running one
//! protocol transfer through the calibrated simulator and collecting
//! elapsed times over seeded trials.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;
use std::time::Duration;

use blast_core::blast::{BlastReceiver, BlastSender};
use blast_core::config::{ProtocolConfig, RetxStrategy};
use blast_core::multiblast::MultiBlastSender;
use blast_core::saw::{SawReceiver, SawSender};
use blast_core::window::WindowSender;
use blast_sim::{LossModel, SimConfig, SimReport, Simulator};
use blast_stats::OnlineStats;

/// Which protocol (and variant) to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    /// Stop-and-wait.
    Saw,
    /// Sliding window with the paper's never-closing window.
    Window,
    /// Blast with the given retransmission strategy.
    Blast(RetxStrategy),
    /// Blast over the hypothetical double-buffered interface.
    BlastDouble,
    /// Multi-blast with the given chunk size (packets).
    MultiBlast(u32),
}

impl std::fmt::Display for Proto {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Proto::Saw => write!(f, "stop-and-wait"),
            Proto::Window => write!(f, "sliding-window"),
            Proto::Blast(s) => write!(f, "blast/{s}"),
            Proto::BlastDouble => write!(f, "blast/double-buffered"),
            Proto::MultiBlast(c) => write!(f, "multi-blast/{c}"),
        }
    }
}

/// Result of one simulated transfer.
#[derive(Debug)]
pub struct RunResult {
    /// Sender-side elapsed time (ms) — the paper's metric.
    pub elapsed_ms: f64,
    /// Full simulator report.
    pub report: SimReport,
}

/// Deterministic payload bytes.
pub fn payload(bytes: usize) -> Arc<[u8]> {
    (0..bytes)
        .map(|i| (i.wrapping_mul(2654435761) >> 9) as u8)
        .collect::<Vec<u8>>()
        .into()
}

/// Run one `proto` transfer of `bytes` bytes through the simulator.
///
/// `sim_cfg` picks hardware + loss; the protocol timeout defaults to a
/// comfortably-large value unless `timeout_ms` is given (Figures 5/6
/// sweep it).
pub fn run_transfer(
    proto: Proto,
    bytes: usize,
    sim_cfg: SimConfig,
    timeout_ms: Option<f64>,
) -> RunResult {
    let mut sim = Simulator::new(match proto {
        Proto::BlastDouble => SimConfig {
            tx_buffers: 2,
            busy_wait_tx: false,
            ..sim_cfg
        },
        _ => sim_cfg,
    });
    let a = sim.add_host("sender");
    let b = sim.add_host("receiver");
    let mut cfg = ProtocolConfig::default();
    cfg.max_retries = 1_000_000;
    if let Some(ms) = timeout_ms {
        cfg.timeout = Duration::from_nanos((ms * 1e6) as u64).into();
    } else {
        cfg.timeout = Duration::from_secs(3600).into();
    }
    let data = payload(bytes);
    match proto {
        Proto::Saw => {
            sim.attach(a, b, Box::new(SawSender::new(1, data.clone(), &cfg)));
            sim.attach(b, a, Box::new(SawReceiver::new(1, data.len(), &cfg)));
        }
        Proto::Window => {
            sim.attach(a, b, Box::new(WindowSender::new(1, data.clone(), &cfg)));
            sim.attach(b, a, Box::new(SawReceiver::new(1, data.len(), &cfg)));
        }
        Proto::Blast(strategy) => {
            cfg.strategy = strategy;
            sim.attach(a, b, Box::new(BlastSender::new(1, data.clone(), &cfg)));
            sim.attach(b, a, Box::new(BlastReceiver::new(1, data.len(), &cfg)));
        }
        Proto::MultiBlast(chunk) => {
            cfg.multiblast_chunk = chunk;
            sim.attach(a, b, Box::new(MultiBlastSender::new(1, data.clone(), &cfg)));
            sim.attach(b, a, Box::new(BlastReceiver::new(1, data.len(), &cfg)));
        }
        Proto::BlastDouble => {
            sim.attach(a, b, Box::new(BlastSender::new(1, data.clone(), &cfg)));
            sim.attach(b, a, Box::new(BlastReceiver::new(1, data.len(), &cfg)));
        }
    }
    let report = sim.run();
    let elapsed_ms = report.elapsed_ms(a, 1).unwrap_or(f64::NAN);
    RunResult { elapsed_ms, report }
}

/// Mean/σ of elapsed time over `trials` seeded runs under iid loss.
pub fn trials_under_loss(
    proto: Proto,
    bytes: usize,
    p_n: f64,
    timeout_ms: f64,
    trials: u64,
    base_seed: u64,
) -> OnlineStats {
    let mut stats = OnlineStats::new();
    for t in 0..trials {
        let seed = blast_stats::experiment::splitmix64(base_seed.wrapping_add(t));
        let sim_cfg = SimConfig::vkernel().with_loss(LossModel::iid(p_n), seed);
        let r = run_transfer(proto, bytes, sim_cfg, Some(timeout_ms));
        if r.elapsed_ms.is_finite() {
            stats.push(r.elapsed_ms);
        }
    }
    stats
}

/// The paper's canonical experiment sizes in packets (1 KB each).
pub const TABLE_SIZES_KB: [usize; 4] = [1, 4, 16, 64];

/// Error-rate sweep used by Figures 5 and 6.
pub fn pn_sweep() -> Vec<f64> {
    let mut v = Vec::new();
    for exp in [-6i32, -5, -4, -3, -2, -1] {
        for mantissa in [1.0, 2.0, 5.0] {
            v.push(mantissa * 10f64.powi(exp));
        }
    }
    v.truncate(v.len() - 2); // stop at 1e-1
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_transfer_matches_known_values() {
        let r = run_transfer(
            Proto::Blast(RetxStrategy::GoBackN),
            64 * 1024,
            SimConfig::standalone(),
            None,
        );
        assert_eq!(r.elapsed_ms, 140.62);
        let r = run_transfer(Proto::Saw, 1024, SimConfig::standalone(), None);
        assert_eq!(r.elapsed_ms, 3.91);
        let r = run_transfer(Proto::Window, 64 * 1024, SimConfig::standalone(), None);
        assert!((r.elapsed_ms - 151.16).abs() < 0.5);
        let r = run_transfer(Proto::BlastDouble, 64 * 1024, SimConfig::standalone(), None);
        assert!((r.elapsed_ms - (64.0 * 1.35 + 0.82 + 1.35 + 0.34 + 0.05)).abs() < 1e-9);
    }

    #[test]
    fn multiblast_runs() {
        let r = run_transfer(
            Proto::MultiBlast(16),
            64 * 1024,
            SimConfig::standalone(),
            None,
        );
        // 4 chunks: 64×(C+T) + 4×(C + 2Ca + Ta) = 138.88 + 4×1.74
        assert!(
            (r.elapsed_ms - (64.0 * 2.17 + 4.0 * 1.74)).abs() < 1e-9,
            "{}",
            r.elapsed_ms
        );
    }

    #[test]
    fn trials_under_loss_accumulate() {
        let s = trials_under_loss(
            Proto::Blast(RetxStrategy::GoBackN),
            16 * 1024,
            0.01,
            173.0,
            10,
            1,
        );
        assert_eq!(s.count(), 10);
        assert!(s.mean() > 0.0);
    }

    #[test]
    fn pn_sweep_is_sorted_and_bounded() {
        let v = pn_sweep();
        assert!(v.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*v.first().unwrap(), 1e-6);
        assert_eq!(*v.last().unwrap(), 1e-1);
    }

    #[test]
    fn proto_display() {
        assert_eq!(Proto::Saw.to_string(), "stop-and-wait");
        assert_eq!(
            Proto::Blast(RetxStrategy::GoBackN).to_string(),
            "blast/go-back-n"
        );
        assert_eq!(Proto::MultiBlast(64).to_string(), "multi-blast/64");
    }
}
