//! Executable summary of the reproduction: every headline claim of the
//! paper asserted end-to-end through the public `blastlan` facade.
//!
//! These tests are the machine-checked version of EXPERIMENTS.md.

use blastlan::analytic::montecarlo::{simulate, McConfig, Strategy};
use blastlan::analytic::variance::StdDev;
use blastlan::analytic::{CostModel, ErrorFree, ExpectedTime};
use blastlan::core::blast::{BlastReceiver, BlastSender};
use blastlan::core::config::{ProtocolConfig, RetxStrategy};
use blastlan::core::saw::{SawReceiver, SawSender};
use blastlan::core::window::WindowSender;
use blastlan::sim::{SimConfig, Simulator};

fn data(bytes: usize) -> std::sync::Arc<[u8]> {
    (0..bytes)
        .map(|i| (i % 247) as u8)
        .collect::<Vec<u8>>()
        .into()
}

fn sim_elapsed(
    make: impl FnOnce(&mut Simulator, usize, usize, &ProtocolConfig),
    _bytes: usize,
    sim_cfg: SimConfig,
) -> f64 {
    let mut sim = Simulator::new(sim_cfg);
    let a = sim.add_host("a");
    let b = sim.add_host("b");
    let mut cfg = ProtocolConfig::default();
    cfg.timeout = std::time::Duration::from_secs(3600).into();
    make(&mut sim, a, b, &cfg);
    let report = sim.run();
    assert!(report.succeeded(a, 1), "transfer must succeed");
    report.elapsed_ms(a, 1).unwrap()
}

/// §2.1 intro: wire-only arithmetic says the three protocols are within
/// 10 % — 57 024 / 55 764 / 52 551 µs for 64 KB.
#[test]
fn intro_naive_arithmetic() {
    let naive = ErrorFree::new(CostModel::wire_only());
    assert!((naive.naive_saw(64) * 1000.0 - 57_024.0).abs() < 0.5);
    assert!((naive.naive_sliding_window(64) * 1000.0 - 55_764.0).abs() < 0.5);
    assert!((naive.naive_blast(64) * 1000.0 - 52_551.0).abs() < 0.5);
}

/// Table 1 + §2.1.2: the measured picture contradicts the naive one —
/// stop-and-wait takes ~2× blast, because copies dominate.
#[test]
fn table_1_stop_and_wait_doubles_blast() {
    let bytes = 64 * 1024;
    let saw = sim_elapsed(
        |sim, a, b, cfg| {
            sim.attach(a, b, Box::new(SawSender::new(1, data(bytes), cfg)));
            sim.attach(b, a, Box::new(SawReceiver::new(1, bytes, cfg)));
        },
        bytes,
        SimConfig::standalone(),
    );
    let blast = sim_elapsed(
        |sim, a, b, cfg| {
            sim.attach(a, b, Box::new(BlastSender::new(1, data(bytes), cfg)));
            sim.attach(b, a, Box::new(BlastReceiver::new(1, bytes, cfg)));
        },
        bytes,
        SimConfig::standalone(),
    );
    let sw = sim_elapsed(
        |sim, a, b, cfg| {
            sim.attach(a, b, Box::new(WindowSender::new(1, data(bytes), cfg)));
            sim.attach(b, a, Box::new(SawReceiver::new(1, bytes, cfg)));
        },
        bytes,
        SimConfig::standalone(),
    );
    // Exact Table 1 values from the calibrated constants.
    assert_eq!(saw, 250.24);
    assert_eq!(blast, 140.62);
    assert!((sw - 151.16).abs() < 0.25);
    // The paper's phrasing.
    let ratio = saw / blast;
    assert!(
        ratio > 1.7 && ratio < 2.0,
        "\"about twice as much time\": {ratio}"
    );
    assert!(sw > blast && sw / blast < 1.1, "\"slightly inferior\"");
}

/// Table 2: a 1 KB exchange costs 3.91 ms of which 75 % is copying.
#[test]
fn table_2_breakdown() {
    let m = CostModel::standalone_sun();
    let total = 2.0 * m.c_data + m.t_data + 2.0 * m.c_ack + m.t_ack;
    assert!((total - 3.91).abs() < 1e-12);
    let copying = 2.0 * m.c_data + 2.0 * m.c_ack;
    let share = copying / total;
    assert!(share > 0.75 && share < 0.80, "copying share {share}");
}

/// Table 3: V-kernel MoveTo anchors To(1) = 5.9 ms, To(64) = 173 ms.
#[test]
fn table_3_vkernel_anchors() {
    let ef = ErrorFree::new(CostModel::vkernel_sun());
    assert!((ef.saw(1) - 5.87).abs() < 0.05);
    assert!((ef.blast(64) - 172.82).abs() < 0.05);
    // And the engines over the simulator agree exactly.
    let bytes = 64 * 1024;
    let moveto = sim_elapsed(
        |sim, a, b, cfg| {
            let mut cfg = cfg.clone();
            cfg.kernel_flag = true;
            sim.attach(a, b, Box::new(BlastSender::new(1, data(bytes), &cfg)));
            sim.attach(b, a, Box::new(BlastReceiver::new(1, bytes, &cfg)));
        },
        bytes,
        SimConfig::vkernel(),
    );
    assert!((moveto - ef.blast(64)).abs() < 1e-9);
}

/// Figure 4: the protocol ordering and the crossover structure.
#[test]
fn figure_4_ordering() {
    let ef = ErrorFree::new(CostModel::standalone_sun());
    // T_SW − T_B = (N−2)·Ca: the two coincide at N = 2 and separate
    // beyond it.
    assert!((ef.sliding_window(2) - ef.blast(2)).abs() < 1e-12);
    for n in [3u64, 4, 8, 16, 32, 64, 128] {
        let saw = ef.saw(n);
        let sw = ef.sliding_window(n);
        let b = ef.blast(n);
        let dbl = ef.double_buffered(n);
        assert!(saw > sw && sw > b && b > dbl, "N={n}");
    }
}

/// Figure 5: expected time stays on the error-free floor through the
/// LAN error regime, and blast dominates stop-and-wait there.
#[test]
fn figure_5_flat_region_and_dominance() {
    let x = ExpectedTime::new(CostModel::vkernel_sun());
    let t0_d = x.error_free().blast(64);
    let t0_1 = x.error_free().saw(1);
    for p_n in [1e-6, 1e-5, 1e-4] {
        let blast = x.blast_full_retx(64, p_n, t0_d);
        assert!(
            (blast - t0_d) / t0_d < 0.05,
            "p_n={p_n}: still in the flat region"
        );
        let saw = x.saw(64, p_n, 10.0 * t0_1);
        assert!(blast < 0.5 * saw, "p_n={p_n}: blast dominates");
    }
    // The knee: by 1e-2 the penalty is unmistakable.
    assert!(x.blast_penalty(64, 1e-2, t0_d) > 0.5);
}

/// Figure 6: σ ordering — no-NACK ≫ NACK > go-back-n ≥ selective — and
/// the Tr-dependence of strategy 1 vs independence of strategy 2.
#[test]
fn figure_6_sigma_ordering() {
    let s = StdDev::new(CostModel::vkernel_sun());
    let t0_d = s.error_free().blast(64);
    let p_n = 1e-3;
    let sig1 = s.full_no_nack(64, p_n, t0_d);
    let sig2 = s.full_nack(64, p_n, t0_d);
    let mc3 = simulate(
        Strategy::GoBackN,
        &McConfig::paper_default(p_n)
            .with_trials(60_000)
            .with_t_r(t0_d),
    );
    let mc4 = simulate(
        Strategy::Selective,
        &McConfig::paper_default(p_n)
            .with_trials(60_000)
            .with_t_r(t0_d),
    );
    assert!(sig1 > sig2, "{sig1} vs {sig2}");
    assert!(sig2 > mc3.stddev, "{sig2} vs {}", mc3.stddev);
    assert!(
        mc3.stddev >= mc4.stddev * 0.9,
        "{} vs {}",
        mc3.stddev,
        mc4.stddev
    );
    // Strategy 1 scales with Tr; strategy 2 barely moves.
    let sig1_big = s.full_no_nack(64, p_n, 10.0 * t0_d);
    let sig2_big = s.full_nack(64, p_n, 10.0 * t0_d);
    assert!(sig1_big / sig1 > 5.0);
    assert!(sig2_big / sig2 < 2.5);
}

/// §2.1.3: utilization ≈ 38 % at 64 KB; double buffering helps but the
/// processor stays the bottleneck.
#[test]
fn utilization_claims() {
    let ef = ErrorFree::new(CostModel::standalone_sun());
    let u = ef.utilization(64);
    assert!((u - 0.3736).abs() < 0.002);
    let ud = ef.utilization_double_buffered(64);
    assert!(ud > u && ud < 0.75);
}

/// §3.2.4's bottom line, at the engine level: under loss, go-back-n
/// retransmits a suffix, selective retransmits the exact set, full
/// retransmits everything.
#[test]
fn strategy_retransmission_volumes() {
    use blastlan::sim::LossModel;
    let bytes = 64 * 1024;
    let t0_d = ErrorFree::new(CostModel::vkernel_sun()).blast(64);
    let mut volumes = Vec::new();
    for strategy in [
        RetxStrategy::FullNack,
        RetxStrategy::GoBackN,
        RetxStrategy::Selective,
    ] {
        let mut total_retx = 0u64;
        for seed in 0..30u64 {
            let mut sim =
                Simulator::new(SimConfig::vkernel().with_loss(LossModel::iid(5e-3), 7_000 + seed));
            let a = sim.add_host("a");
            let b = sim.add_host("b");
            let mut cfg = ProtocolConfig::default().with_strategy(strategy);
            cfg.max_retries = 1_000_000;
            cfg.timeout = std::time::Duration::from_nanos((t0_d * 1e6) as u64).into();
            sim.attach(a, b, Box::new(BlastSender::new(1, data(bytes), &cfg)));
            sim.attach(b, a, Box::new(BlastReceiver::new(1, bytes, &cfg)));
            let report = sim.run();
            total_retx += report.completions[&(a, 1)]
                .info
                .stats
                .data_packets_retransmitted;
        }
        volumes.push((strategy, total_retx));
    }
    // full ≥ go-back-n ≥ selective in retransmitted volume.
    assert!(volumes[0].1 >= volumes[1].1, "{volumes:?}");
    assert!(volumes[1].1 >= volumes[2].1, "{volumes:?}");
    // And meaningfully so.
    assert!(volumes[0].1 > volumes[2].1 * 3, "{volumes:?}");
}

/// Where §3.2.4 stops holding, and the choice `ProtocolConfig::lan`
/// makes: at the shape of the benchmark's `lossy_push` (256 KiB in
/// 1 400-byte packets, 188 of them, iid 1 % loss) selective resends
/// p/(1 + p) ≈ 0.0099 of what it sends, and go-back-n more than twenty
/// times as much.  The same ratio, measured on loopback, is
/// `core.retx_packet_ratio`.
#[test]
fn selective_resends_the_loss_rate_at_one_percent() {
    use blastlan::sim::LossModel;
    let bytes = 256 * 1024;
    let ratio = |strategy| {
        let (mut sent, mut retransmitted) = (0u64, 0u64);
        for seed in 0..400u64 {
            let mut sim = Simulator::new(
                SimConfig::standalone().with_loss(LossModel::iid(0.01), 9_000 + seed),
            );
            let a = sim.add_host("a");
            let b = sim.add_host("b");
            let mut cfg = ProtocolConfig::default()
                .with_strategy(strategy)
                .with_packet_payload(1400)
                .with_timeout(std::time::Duration::from_millis(200));
            cfg.max_retries = 1_000_000;
            assert_eq!(cfg.packets_for(bytes), 188);
            sim.attach(a, b, Box::new(BlastSender::new(1, data(bytes), &cfg)));
            sim.attach(b, a, Box::new(BlastReceiver::new(1, bytes, &cfg)));
            let report = sim.run();
            assert!(report.succeeded(a, 1), "{strategy}, seed {seed}");
            let stats = report.completions[&(a, 1)].info.stats;
            sent += stats.data_packets_sent;
            retransmitted += stats.data_packets_retransmitted;
        }
        retransmitted as f64 / sent as f64
    };
    let selective = ratio(RetxStrategy::Selective);
    let go_back_n = ratio(RetxStrategy::GoBackN);
    assert!(
        (0.008..=0.012).contains(&selective),
        "selective {selective:.4}"
    );
    assert!(
        go_back_n >= 20.0 * selective,
        "go-back-n {go_back_n:.4}, selective {selective:.4}"
    );
}
