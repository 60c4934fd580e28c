//! Bulk transfer over real UDP with configurable fault injection —
//! the modern incarnation of the paper's protocols: a client behind a
//! lossy channel pushes to an in-process node.
//!
//! Usage: `cargo run --release --example udp_transfer -- [KB] [loss%] [strategy]`
//! e.g.   `cargo run --release --example udp_transfer -- 512 5 selective`
//!
//! Strategies: full-no-nack | full-nack | go-back-n | selective (the
//! client's default)

use std::time::Duration;

use blastlan::core::config::RetxStrategy;
use blastlan::udp::channel::UdpChannel;
use blastlan::udp::fault::{FaultConfig, FaultyChannel};
use blastlan::{Client, NodeBuilder};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let kb: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(256);
    let loss_pct: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(5.0);
    let strategy = match args.get(3).map(String::as_str) {
        Some("full-no-nack") => RetxStrategy::FullNoNack,
        Some("full-nack") => RetxStrategy::FullNack,
        Some("go-back-n") => RetxStrategy::GoBackN,
        _ => RetxStrategy::Selective,
    };

    let data: Vec<u8> = (0..kb * 1024)
        .map(|i| (i.wrapping_mul(31) % 256) as u8)
        .collect();
    println!("transferring {kb} KB over UDP loopback, {loss_pct}% injected loss, {strategy}\n");

    let timeout = Duration::from_millis(20);
    let node = NodeBuilder::new()
        .timeout(timeout)
        .max_retries(100_000)
        .start()
        .unwrap();

    // Faults injected on the sender side (data packets suffer the loss,
    // like the paper's receiving-interface overruns).
    let channel = UdpChannel::connect_to(node.addr()).unwrap();
    let faulty = FaultyChannel::new(channel, FaultConfig::loss(loss_pct / 100.0), 0xF00D);
    let tx = Client::over(faulty)
        .strategy(strategy)
        .timeout(timeout)
        .retries(100_000)
        .push("blob", &data)
        .unwrap();

    let stored = node.store().get("blob").expect("the node stored the push");
    assert_eq!(&stored[..], &data[..], "delivered bytes must be identical");
    let metrics = node.shutdown().unwrap();
    let rx = &metrics.reports.back().expect("the session's report").stats;
    println!(
        "sender:   {} data packets ({} retransmitted), {} rounds, {} timeouts",
        tx.stats.data_packets_sent,
        tx.stats.data_packets_retransmitted,
        tx.stats.retransmission_rounds,
        tx.stats.timeouts
    );
    println!(
        "receiver: {} packets placed, {} duplicates, {} acks ({} NACKs)",
        rx.data_packets_received, rx.duplicate_packets_received, rx.acks_sent, rx.nacks_sent
    );
    println!(
        "elapsed {:.1} ms, goodput {:.0} Mbit/s — data verified byte-identical",
        tx.elapsed.as_secs_f64() * 1e3,
        tx.goodput_mbps(data.len())
    );
}
