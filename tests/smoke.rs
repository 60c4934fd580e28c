//! Workspace smoke test: the umbrella crate's re-exports are the
//! public face of the repository (`blastlan::core`, `blastlan::sim`,
//! …), so every alias must resolve and the README-facing quickstart
//! path must work end-to-end.  The doctest in `src/lib.rs` covers the
//! same flow as documentation; this test keeps it covered even when
//! doctests are skipped (e.g. `cargo test --tests`).

use blastlan::core::blast::{BlastReceiver, BlastSender};
use blastlan::core::harness::{Harness, LossPlan};
use blastlan::core::ProtocolConfig;

/// Every umbrella alias resolves to its crate: touch one public item
/// through each re-export so a broken alias fails to compile here.
#[test]
fn umbrella_reexports_resolve() {
    let _cost = blastlan::analytic::CostModel::vkernel_sun();
    let _cfg: blastlan::core::ProtocolConfig = ProtocolConfig::default();
    let _node = blastlan::node::NodeConfig::default();
    let _builder = blastlan::NodeBuilder::new().shards(2);
    let _store: blastlan::SharedStore = blastlan::shared_store();
    let _sim = blastlan::sim::SimConfig::standalone();
    let _stats = blastlan::stats::OnlineStats::new();
    let _udp = blastlan::udp::FaultConfig::none();
    let _vk = blastlan::vkernel::VCluster::new();
    let _hdr = blastlan::wire::HEADER_LEN;
}

/// The `src/lib.rs` quickstart, as a plain test: a 64 KB blast
/// transfer over the lossy harness delivers byte-identical data.
#[test]
fn quickstart_blast_transfer_completes() {
    let config = ProtocolConfig::default();
    let data: Vec<u8> = (0..64 * 1024).map(|i| (i % 251) as u8).collect();

    let sender = BlastSender::new(7, &data[..], &config);
    let receiver = BlastReceiver::new(7, data.len(), &config);
    let mut harness = Harness::new(sender, receiver, LossPlan::random(42, 1, 10_000));
    let outcome = harness.run().expect("transfer completes");

    assert_eq!(harness.received_data(), &data[..]);
    assert!(
        outcome.sender.data_packets_sent >= 64,
        "64 KB is ≥ 64 packets"
    );
}
