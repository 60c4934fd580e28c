//! The acceptance test for the node: many concurrent transfers, mixed
//! push/pull, mixed retransmission strategies, fault injection — one
//! node, one socket, every payload verified byte for byte.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use blast_core::config::{ProtocolConfig, RetxStrategy};
use blast_node::server::NodeBuilder;
use blast_node::{shared_store, Client};
use blast_udp::channel::{UdpChannel, MAX_DATAGRAM};
use blast_udp::fault::{FaultConfig, FaultyChannel};

fn client_cfg(strategy: RetxStrategy) -> ProtocolConfig {
    let mut c = ProtocolConfig::default();
    c.timeout = Duration::from_millis(12).into();
    c.max_retries = 100_000;
    c.strategy = strategy;
    c
}

fn node_builder() -> NodeBuilder {
    NodeBuilder::new()
        .timeout(Duration::from_millis(12))
        .max_retries(100_000)
}

fn payload(seed: usize, n: usize) -> Vec<u8> {
    (0..n)
        .map(|i| ((i.wrapping_mul(31) ^ seed.wrapping_mul(97)) % 256) as u8)
        .collect()
}

/// ≥ 8 concurrent transfers through one node: pushes and pulls, all
/// four strategies, half the clients behind lossy/chaotic channels.
#[test]
fn twelve_concurrent_mixed_transfers_with_faults() {
    let store = shared_store();
    // Four seeded blobs for the pull sessions, one per strategy.
    let pull_blobs: Vec<(String, Vec<u8>)> = (0..4)
        .map(|i| (format!("seed-{i}"), payload(1000 + i, 30_000 + 7000 * i)))
        .collect();
    for (name, data) in &pull_blobs {
        store.put(name, data.clone().into());
    }
    let node = node_builder().store(store).start().unwrap();
    let addr = node.addr();
    let transfer_ids = Arc::new(AtomicU64::new(1));

    let mut handles = Vec::new();
    // 6 pushes (ids issued centrally), strategies cycling through all
    // four, the odd ones behind a fault-injecting channel.
    let mut push_data = Vec::new();
    for i in 0..6usize {
        let strategy = RetxStrategy::ALL[i % 4];
        let data = payload(i, 20_000 + 9000 * i);
        let name = format!("push-{i}");
        push_data.push((name.clone(), data.clone()));
        let ids = Arc::clone(&transfer_ids);
        handles.push(std::thread::spawn(move || {
            let id = ids.fetch_add(1, Ordering::Relaxed) as u32;
            let cfg = client_cfg(strategy);
            let ch = UdpChannel::connect("127.0.0.1:0".parse().unwrap(), addr).unwrap();
            let report = if i % 2 == 1 {
                let faulty = FaultyChannel::new(ch, FaultConfig::chaos(0.04), 40 + i as u64);
                let mut client = Client::over(faulty).config(cfg).transfer_ids_from(id);
                client.push(&name, &data).unwrap()
            } else {
                let mut client = Client::over(ch).config(cfg).transfer_ids_from(id);
                client.push(&name, &data).unwrap()
            };
            assert!(report.stats.data_packets_sent > 0, "{name}");
        }));
    }
    // 6 pulls of the seeded blobs (two blobs pulled twice), again with
    // strategies cycling and faults on the odd clients.
    for i in 0..6usize {
        let strategy = RetxStrategy::ALL[(i + 2) % 4];
        let (name, expected) = pull_blobs[i % 4].clone();
        let ids = Arc::clone(&transfer_ids);
        handles.push(std::thread::spawn(move || {
            let id = ids.fetch_add(1, Ordering::Relaxed) as u32;
            let cfg = client_cfg(strategy);
            let ch = UdpChannel::connect("127.0.0.1:0".parse().unwrap(), addr).unwrap();
            let report = if i % 2 == 1 {
                let faulty = FaultyChannel::new(ch, FaultConfig::loss(0.06), 70 + i as u64);
                let mut client = Client::over(faulty).config(cfg).transfer_ids_from(id);
                client.pull(&name).unwrap()
            } else {
                let mut client = Client::over(ch).config(cfg).transfer_ids_from(id);
                client.pull(&name).unwrap()
            };
            assert_eq!(report.data, expected, "pull {name} must be byte-exact");
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    // Every push must now be pullable, byte for byte.
    let mut verifier = Client::connect(addr)
        .unwrap()
        .config(client_cfg(RetxStrategy::Selective));
    for (name, expected) in &push_data {
        let report = verifier.pull(name).unwrap();
        assert_eq!(&report.data, expected, "pushed blob {name} must round-trip");
    }

    // A pull client finishes one packet before the node hears its
    // final ack; drain before counting.
    assert!(
        node.wait_idle(Duration::from_secs(10)),
        "sessions drained\n{}\nreports: {:?}",
        node.metrics().summary(),
        node.metrics()
            .reports
            .iter()
            .map(|r| (r.transfer_id, r.name.clone(), r.ok))
            .collect::<Vec<_>>()
    );
    let store = node.store();
    let m = node.shutdown().unwrap();
    assert_eq!(m.sessions_accepted, 18, "12 concurrent + 6 verification");
    assert_eq!(m.sessions_completed, 18);
    assert_eq!(m.sessions_failed, 0);
    assert_eq!(m.pushes, 6);
    assert_eq!(m.pulls, 12);
    assert_eq!(m.sessions_in_flight(), 0);
    assert_eq!(m.session_secs.count(), 18);
    assert!(
        m.session_goodput_mbps.mean() > 0.1,
        "goodput {}",
        m.session_goodput_mbps
    );
    // The store holds the 4 seeds plus the 6 pushes.
    assert_eq!(store.len(), 10);
    // Fault injection really happened: the chaotic clients corrupted
    // frames, which the FCS caught (every blob above is byte-exact, so
    // none was delivered), and duplicated or lost data the engines had
    // to absorb.
    assert!(m.fcs_drops > 0, "corruption is detected, not delivered");
    let dup_or_retx: u64 = m
        .reports
        .iter()
        .map(|r| r.stats.duplicate_packets_received + r.stats.data_packets_retransmitted)
        .sum();
    assert!(
        dup_or_retx > 0,
        "faulty channels must exercise recovery paths"
    );
}

/// The default (adaptive RTO + paced rounds, on both the node and the
/// client) carries concurrent pushes end-to-end over real sockets —
/// the configuration the repo benchmark's workloads run.
#[test]
fn adaptive_paced_defaults_roundtrip_concurrently() {
    // NodeBuilder::new() is adaptive + paced out of the box.
    let node = NodeBuilder::new().start().unwrap();
    let addr = node.addr();
    let mut handles = Vec::new();
    let mut blobs = Vec::new();
    for i in 0..4usize {
        let data = payload(50 + i, 80_000 + 10_000 * i);
        let name = format!("adaptive-{i}");
        blobs.push((name.clone(), data.clone()));
        handles.push(std::thread::spawn(move || {
            let mut cfg = ProtocolConfig::default();
            cfg.timeout = blast_core::AdaptiveTimeout::lan();
            cfg.pacing = blast_core::PacingConfig::lan();
            cfg.max_retries = 100_000;
            cfg.packet_payload = 1400;
            let mut client = Client::connect(addr).unwrap().config(cfg);
            client.push(&name, &data).unwrap();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // Every paced push must round-trip byte-exactly (pulled back over
    // the node's own paced sender).
    let mut cfg = ProtocolConfig::default();
    cfg.timeout = blast_core::AdaptiveTimeout::lan();
    cfg.pacing = blast_core::PacingConfig::lan();
    cfg.max_retries = 100_000;
    let mut verifier = Client::connect(addr).unwrap().config(cfg);
    for (name, expected) in &blobs {
        let report = verifier.pull(name).unwrap();
        assert_eq!(&report.data, expected, "{name}");
    }
    assert!(node.wait_idle(Duration::from_secs(10)));
    let m = node.shutdown().unwrap();
    assert_eq!(m.sessions_completed, 8);
    assert_eq!(m.sessions_failed, 0);
    assert_eq!(m.retx_rounds.count(), 8, "histogram sees every session");
}

/// Zero-length blobs survive the full push/pull cycle.
#[test]
fn empty_blob_roundtrip() {
    let node = node_builder().start().unwrap();
    let cfg = client_cfg(RetxStrategy::GoBackN);
    let mut client = Client::connect(node.addr()).unwrap().config(cfg);
    client.push("empty", &[]).unwrap();
    let report = client.pull("empty").unwrap();
    assert!(report.data.is_empty());
    node.shutdown().unwrap();
}

/// A multiblast pull: the client asks for chunked transfer and the
/// node serves it with a `MultiBlastSender`.
#[test]
fn multiblast_pull() {
    let store = shared_store();
    let data = payload(7, 300_000);
    store.put("big", data.clone().into());
    let node = node_builder().store(store).start().unwrap();
    let mut cfg = client_cfg(RetxStrategy::GoBackN);
    cfg.multiblast_chunk = 16;
    let ch = UdpChannel::connect("127.0.0.1:0".parse().unwrap(), node.addr()).unwrap();
    // Build a pull request that asks for chunking.
    let pulled = {
        use blast_udp::fcs::FcsChannel;
        use blast_udp::handshake::{Request, MAX_TRANSFER_BYTES};
        use blast_udp::Outbound;
        let mut channel = FcsChannel::new(ch);
        let mut request = Request::pull("big", &cfg);
        request.multiblast_chunk = 16;
        let mut leg = Outbound::pull(9, &request, &cfg, MAX_TRANSFER_BYTES).unwrap();
        leg.run(
            &mut channel,
            &mut vec![0; MAX_DATAGRAM],
            Duration::from_secs(30),
        )
        .unwrap();
        assert_eq!(leg.echoed().unwrap().len, data.len());
        leg.retire().expect("complete").0
    };
    assert_eq!(pulled, data);
    assert!(node.wait_idle(Duration::from_secs(5)), "tail ack drained");
    let m = node.metrics();
    // ~294 packets in chunks of 16 → a chunk ack per chunk arrived at
    // the node as acks_received on the sender engine.
    let pull = m.reports.iter().find(|r| r.name == "big").unwrap();
    assert!(pull.stats.acks_received >= 18, "{:?}", pull.stats);
    node.shutdown().unwrap();
}
