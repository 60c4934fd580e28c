//! The retransmission strategy every initiator proposes by default,
//! end to end: a `Client` left at its default protocol, pushing through
//! seeded 1 % loss to a default node, resends what was lost and little
//! else.  Go-back-n, the paper's default, resends ≈ 40 % of what it
//! sends on the same path.

use std::time::Duration;

use blast_core::{ProtocolConfig, RetxStrategy};
use blast_node::server::{NodeBuilder, NodeConfig};
use blast_node::Client;
use blast_udp::channel::UdpChannel;
use blast_udp::fault::{FaultConfig, FaultyChannel};

const BLOB: usize = 256 * 1024;
const PUSHES: usize = 20;

fn payload(seed: usize) -> Vec<u8> {
    (0..BLOB)
        .map(|i| (i.wrapping_mul(131) ^ seed) as u8)
        .collect()
}

/// Every LAN initiator builds from `ProtocolConfig::lan`; the paper's
/// `ProtocolConfig::default` keeps go-back-n.
#[test]
fn lan_initiators_propose_selective_and_the_paper_keeps_go_back_n() {
    let channel = UdpChannel::pair().unwrap().0;
    assert_eq!(
        Client::over(channel).protocol().strategy,
        RetxStrategy::Selective
    );
    assert_eq!(
        NodeConfig::default().protocol.strategy,
        RetxStrategy::Selective
    );
    assert_eq!(NodeConfig::default().protocol, ProtocolConfig::lan());
    assert_eq!(ProtocolConfig::default().strategy, RetxStrategy::GoBackN);
}

#[test]
fn default_client_resends_only_what_one_percent_loss_takes() {
    let node = NodeBuilder::new().start().unwrap();
    let store = node.store();
    let inner = UdpChannel::connect("127.0.0.1:0".parse().unwrap(), node.addr()).unwrap();
    let lossy = FaultyChannel::new(inner, FaultConfig::loss(0.01), 0x1_05_5E);
    let mut client = Client::over(lossy).patience(Duration::from_secs(20));
    let (mut sent, mut retransmitted) = (0, 0);
    for k in 0..PUSHES {
        let report = client.push(&format!("lossy-{k}"), &payload(k)).unwrap();
        sent += report.stats.data_packets_sent;
        retransmitted += report.stats.data_packets_retransmitted;
    }
    let ratio = retransmitted as f64 / sent as f64;
    assert!(
        ratio < 0.05,
        "{retransmitted} of {sent} data packets were resends ({ratio:.3})"
    );
    // The node commits a push in the step that sends its final
    // acknowledgement, so a client can hear it first: read the store
    // once the node has stopped.
    let m = node.shutdown().unwrap();
    assert_eq!(
        (m.sessions_completed, m.sessions_failed),
        (PUSHES as u64, 0)
    );
    for k in 0..PUSHES {
        let stored = store.get(&format!("lossy-{k}"));
        assert_eq!(
            stored.as_deref().map(Vec::as_slice),
            Some(&payload(k)[..]),
            "push {k} is byte-exact"
        );
    }
}
