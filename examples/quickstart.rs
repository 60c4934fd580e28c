//! Quickstart: transfer a buffer with the blast protocol, three ways.
//!
//! 1. Through the virtual-time correctness harness (pure engines).
//! 2. Through the calibrated 1985 simulator (paper timings).
//! 3. Over real UDP loopback, through an in-process node (actual
//!    wall-clock).
//!
//! Run with: `cargo run --release --example quickstart`

use std::sync::Arc;
use std::time::Duration;

use blastlan::core::blast::{BlastReceiver, BlastSender};
use blastlan::core::harness::{Harness, LossPlan};
use blastlan::core::ProtocolConfig;
use blastlan::sim::{SimConfig, Simulator};
use blastlan::{Client, NodeBuilder};

fn main() {
    let data: Vec<u8> = (0..64 * 1024).map(|i| (i % 251) as u8).collect();
    println!(
        "transferring {} KB with the blast protocol (go-back-n)\n",
        data.len() / 1024
    );

    // 1. Virtual-time harness with 1 % injected loss.
    let cfg = ProtocolConfig::default();
    let mut h = Harness::new(
        BlastSender::new(1, &data[..], &cfg),
        BlastReceiver::new(1, data.len(), &cfg),
        LossPlan::random(42, 1, 100),
    );
    let outcome = h.run().expect("transfer completes");
    assert_eq!(h.received_data(), &data[..]);
    println!("[harness]   delivered intact under 1 % loss:");
    println!(
        "            {} data packets sent, {} retransmitted, {} wire packets dropped",
        outcome.sender.data_packets_sent, outcome.sender.data_packets_retransmitted, h.dropped
    );

    // 2. The 1985 testbed: SUN workstations, 3-Com interfaces, 10 Mbit
    //    Ethernet, error-free.
    let mut sim = Simulator::new(SimConfig::standalone());
    let a = sim.add_host("sun-1");
    let b = sim.add_host("sun-2");
    sim.attach(
        a,
        b,
        Box::new(BlastSender::new(1, Arc::new(data.clone()), &cfg)),
    );
    sim.attach(b, a, Box::new(BlastReceiver::new(1, data.len(), &cfg)));
    let report = sim.run();
    println!(
        "[simulator] 64 KB on the paper's hardware: {:.2} ms (paper's Table 1 value: 141 ms)",
        report.elapsed_ms(a, 1).unwrap()
    );
    println!(
        "            network utilization {:.1} %",
        report.utilization() * 100.0
    );

    // 3. Real UDP over loopback: push the buffer to a node, pull it
    //    back.
    let node = NodeBuilder::new().start().unwrap();
    let mut client = Client::connect(node.addr())
        .unwrap()
        .timeout(Duration::from_millis(25));
    let tx = client.push("quickstart", &data).unwrap();
    let report = client.pull("quickstart").unwrap();
    assert_eq!(report.data, data);
    println!(
        "[udp]       real loopback push: {:.2} ms; pulled back at {:.0} Mbit/s goodput",
        tx.elapsed.as_secs_f64() * 1e3,
        report.goodput_mbps(data.len())
    );
    node.shutdown().unwrap();
    println!("\n(the 1985 Ethernet carried it at ~3.7 Mbit/s; same protocol, same engine)");
}
