//! Cross-stack integration: the same engines running over the
//! virtual-time harness, the discrete-event simulator and real UDP must
//! all deliver byte-identical data; the simulator must host concurrent
//! transfers; the V-kernel file server must work end-to-end on a lossy
//! network.

use std::sync::Arc;
use std::time::Duration;

use blastlan::core::blast::{BlastReceiver, BlastSender};
use blastlan::core::config::{ProtocolConfig, RetxStrategy};
use blastlan::core::harness::{Harness, LossPlan};
use blastlan::core::multiblast::MultiBlastSender;
use blastlan::sim::{LossModel, SimConfig, Simulator};
use blastlan::udp::channel::{UdpChannel, MAX_DATAGRAM};
use blastlan::udp::fault::{FaultConfig, FaultyChannel};
use blastlan::udp::{FcsChannel, Outbound, Request};
use blastlan::vkernel::fileserver::{client_read, FileServer};
use blastlan::vkernel::VCluster;
use blastlan::{Client, NodeBuilder};

fn payload(bytes: usize) -> Vec<u8> {
    (0..bytes)
        .map(|i| (i.wrapping_mul(131) % 256) as u8)
        .collect()
}

#[test]
fn same_engine_three_substrates() {
    let data = payload(96 * 1024);
    let node = NodeBuilder::new()
        .timeout(Duration::from_millis(15))
        .max_retries(100_000)
        .start()
        .unwrap();
    for strategy in RetxStrategy::ALL {
        let mut cfg = ProtocolConfig::default().with_strategy(strategy);
        cfg.max_retries = 100_000;

        // 1. Virtual-time harness, 5 % loss.
        let mut h = Harness::new(
            BlastSender::new(1, &data[..], &cfg),
            BlastReceiver::new(1, data.len(), &cfg),
            LossPlan::random(strategy as u64 + 1, 1, 20),
        );
        h.run()
            .unwrap_or_else(|e| panic!("{strategy} harness: {e}"));
        assert_eq!(h.received_data(), &data[..], "{strategy} harness");

        // 2. Simulator, 2 % loss.
        let mut sim = Simulator::new(SimConfig::standalone().with_loss(LossModel::iid(0.02), 3));
        let a = sim.add_host("a");
        let b = sim.add_host("b");
        let mut scfg = cfg.clone();
        scfg.timeout = Duration::from_millis(200).into();
        sim.attach(
            a,
            b,
            Box::new(BlastSender::new(1, Arc::new(data.clone()), &scfg)),
        );
        sim.attach(b, a, Box::new(BlastReceiver::new(1, data.len(), &scfg)));
        let report = sim.run();
        assert!(report.succeeded(a, 1), "{strategy} sim");

        // 3. Real UDP: a client behind 10 % loss (its data packets
        //    suffer it) pushes to a node.  Every strategy must have
        //    had to retransmit, and the node must hold the exact bytes.
        let ch = UdpChannel::connect_to(node.addr()).unwrap();
        let faulty = FaultyChannel::new(ch, FaultConfig::loss(0.10), strategy as u64);
        let mut ucfg = cfg.clone();
        ucfg.timeout = Duration::from_millis(15).into();
        let mut client = Client::over(faulty)
            .config(ucfg)
            .transfer_ids_from(5 + strategy as u32);
        let name = format!("udp-{strategy}");
        let report = client.push(&name, &data).unwrap();
        assert!(
            report.stats.data_packets_retransmitted > 0,
            "{strategy} udp: loss must cause retransmission"
        );
        let stored = node.store().get(&name).expect("pushed blob");
        assert_eq!(&stored[..], &data[..], "{strategy} udp");
    }
    node.shutdown().unwrap();
}

#[test]
fn simulator_hosts_concurrent_transfers_with_demux() {
    // Four transfers between four host pairs at once, different sizes
    // and strategies, sharing one ether.
    let mut sim = Simulator::new(SimConfig::standalone());
    let mut expected = Vec::new();
    for i in 0..4u32 {
        let a = sim.add_host(&format!("tx{i}"));
        let b = sim.add_host(&format!("rx{i}"));
        let bytes = (8 + 8 * i as usize) * 1024;
        let data = payload(bytes);
        let cfg = ProtocolConfig::default().with_strategy(RetxStrategy::ALL[i as usize % 4]);
        sim.attach(
            a,
            b,
            Box::new(BlastSender::new(100 + i, Arc::new(data.clone()), &cfg)),
        );
        sim.attach(
            b,
            a,
            Box::new(BlastReceiver::new(100 + i, data.len(), &cfg)),
        );
        expected.push((a, 100 + i));
    }
    let report = sim.run();
    for (host, transfer) in expected {
        assert!(report.succeeded(host, transfer), "transfer {transfer}");
    }
    assert_eq!(report.unroutable, 0, "demux must route everything");
}

#[test]
fn multiblast_over_udp_and_sim_agree_on_data() {
    let data = payload(200 * 1024);
    let mut cfg = ProtocolConfig::default().with_multiblast_chunk(32);
    cfg.timeout = Duration::from_millis(20).into();
    cfg.max_retries = 100_000;

    // Simulator.
    let mut sim = Simulator::new(SimConfig::vkernel().with_loss(LossModel::iid(0.01), 5));
    let a = sim.add_host("a");
    let b = sim.add_host("b");
    let mut scfg = cfg.clone();
    scfg.timeout = Duration::from_millis(200).into();
    sim.attach(
        a,
        b,
        Box::new(MultiBlastSender::new(9, Arc::new(data.clone()), &scfg)),
    );
    sim.attach(b, a, Box::new(BlastReceiver::new(9, data.len(), &scfg)));
    let report = sim.run();
    assert!(report.succeeded(a, 9));

    // UDP: a node serves the same bytes with a multi-blast sender to a
    // pull leg that asks for the same chunking.
    let node = NodeBuilder::new()
        .timeout(Duration::from_millis(20))
        .max_retries(100_000)
        .start()
        .unwrap();
    node.store().put("multi", data.clone().into());
    let mut channel = FcsChannel::new(UdpChannel::connect_to(node.addr()).unwrap());
    let mut request = Request::pull("multi", &cfg);
    request.multiblast_chunk = 32;
    let mut leg = Outbound::pull(9, &request, &cfg, data.len()).unwrap();
    leg.run(
        &mut channel,
        &mut vec![0; MAX_DATAGRAM],
        Duration::from_secs(30),
    )
    .unwrap();
    assert_eq!(leg.retire().expect("complete").0, data);
    node.shutdown().unwrap();
}

#[test]
fn vkernel_file_read_on_lossy_network() {
    let mut cluster = VCluster::new().with_loss(0.03, 2026);
    let k0 = cluster.add_kernel("workstation");
    let k1 = cluster.add_kernel("server");
    let client = cluster.create_process(k0, "client");
    let fs_pid = cluster.create_process(k1, "fs");
    let mut fs = FileServer::new(fs_pid);
    let contents = payload(128 * 1024);
    fs.put("/dump", contents.clone());
    let (seg, outcome) = client_read(&mut cluster, &mut fs, client, "/dump").unwrap();
    assert_eq!(cluster.segment(client, seg).unwrap(), &contents[..]);
    assert!(outcome.transfer.remote);
    assert!(
        outcome.transfer.elapsed_ms > 300.0,
        "128 KB ≈ 2 × 173 ms of blasting"
    );
    assert_eq!(fs.reads_served, 1);
}

#[test]
fn sim_elapsed_never_beats_the_error_free_floor() {
    // Loss can only cost time: for any seed, elapsed ≥ the closed-form
    // error-free time.
    let floor = blastlan::analytic::ErrorFree::new(blastlan::analytic::CostModel::standalone_sun())
        .blast(32);
    let data = payload(32 * 1024);
    for seed in 0..20 {
        let mut sim = Simulator::new(SimConfig::standalone().with_loss(LossModel::iid(0.05), seed));
        let a = sim.add_host("a");
        let b = sim.add_host("b");
        let mut cfg = ProtocolConfig::default();
        cfg.max_retries = 100_000;
        cfg.timeout = Duration::from_millis(100).into();
        sim.attach(
            a,
            b,
            Box::new(BlastSender::new(1, Arc::new(data.clone()), &cfg)),
        );
        sim.attach(b, a, Box::new(BlastReceiver::new(1, data.len(), &cfg)));
        let report = sim.run();
        let elapsed = report.elapsed_ms(a, 1).unwrap();
        assert!(
            elapsed >= floor - 1e-9,
            "seed {seed}: {elapsed} must be ≥ floor {floor}"
        );
    }
}
