//! The acceptance tests for the sharded node: 32 concurrent transfers —
//! mixed push/pull, all four retransmission strategies, fault
//! injection — through a 4-shard reactor group, every payload verified
//! byte for byte and the per-shard breakdown reconciled against the
//! merged metrics; and one name pushed in alternating versions from
//! both shards of a 2-shard node while other clients pull it, the one
//! store every shard shares.
//!
//! Where `SO_REUSEPORT` is unavailable the builder degrades to one
//! shard; the tests then still run the full workload and check the
//! single-shard accounting, so the suite is green everywhere and only
//! the spread assertions are Linux-conditional.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use blast_core::config::{ProtocolConfig, RetxStrategy};
use blast_node::server::{NodeBuilder, NodeHandle};
use blast_node::{shared_store, Client, NodeMetrics};
use blast_udp::channel::UdpChannel;
use blast_udp::fault::{FaultConfig, FaultyChannel};
use blast_udp::sockopt;

fn client_cfg(strategy: RetxStrategy) -> ProtocolConfig {
    let mut c = ProtocolConfig::default();
    c.timeout = Duration::from_millis(12).into();
    c.max_retries = 100_000;
    c.strategy = strategy;
    c
}

fn payload(seed: usize, n: usize) -> Vec<u8> {
    (0..n)
        .map(|i| ((i.wrapping_mul(37) ^ seed.wrapping_mul(101)) % 256) as u8)
        .collect()
}

#[test]
fn thirty_two_mixed_transfers_across_four_shards() {
    let store = shared_store();
    // Four seeded blobs for the pull sessions, one per strategy.
    let pull_blobs: Vec<(String, Vec<u8>)> = (0..4)
        .map(|i| (format!("seed-{i}"), payload(2000 + i, 15_000 + 4_000 * i)))
        .collect();
    for (name, data) in &pull_blobs {
        store.put(name, data.clone().into());
    }

    let node = NodeBuilder::new()
        .timeout(Duration::from_millis(12))
        .max_retries(100_000)
        .shards(4)
        .store(store)
        .start()
        .unwrap();
    if sockopt::reuseport_supported() {
        assert_eq!(node.shards(), 4, "Linux must give us the full group");
    } else {
        assert_eq!(node.shards(), 1, "portable fallback is a single shard");
    }
    let addr = node.addr();
    let transfer_ids = Arc::new(AtomicU64::new(1));

    let mut handles = Vec::new();
    // 16 pushes: strategies cycling through all four, the odd clients
    // behind a chaos-injecting channel.  Each client is its own socket,
    // so each is its own 4-tuple — the kernel spreads them over shards.
    let mut push_data = Vec::new();
    for i in 0..16usize {
        let strategy = RetxStrategy::ALL[i % 4];
        let data = payload(i, 10_000 + 2_000 * i);
        let name = format!("push-{i}");
        push_data.push((name.clone(), data.clone()));
        let ids = Arc::clone(&transfer_ids);
        handles.push(std::thread::spawn(move || {
            let id = ids.fetch_add(1, Ordering::Relaxed) as u32;
            let cfg = client_cfg(strategy);
            let ch = UdpChannel::connect("127.0.0.1:0".parse().unwrap(), addr).unwrap();
            let report = if i % 2 == 1 {
                let faulty = FaultyChannel::new(ch, FaultConfig::chaos(0.03), 140 + i as u64);
                let mut client = Client::over(faulty).config(cfg).transfer_ids_from(id);
                client.push(&name, &data).unwrap()
            } else {
                let mut client = Client::over(ch).config(cfg).transfer_ids_from(id);
                client.push(&name, &data).unwrap()
            };
            assert!(report.stats.data_packets_sent > 0, "{name}");
        }));
    }
    // 16 pulls of the seeded blobs (each seed pulled four times), again
    // with strategies cycling and loss on the odd clients.
    for i in 0..16usize {
        let strategy = RetxStrategy::ALL[(i + 2) % 4];
        let (name, expected) = pull_blobs[i % 4].clone();
        let ids = Arc::clone(&transfer_ids);
        handles.push(std::thread::spawn(move || {
            let id = ids.fetch_add(1, Ordering::Relaxed) as u32;
            let cfg = client_cfg(strategy);
            let ch = UdpChannel::connect("127.0.0.1:0".parse().unwrap(), addr).unwrap();
            let report = if i % 2 == 1 {
                let faulty = FaultyChannel::new(ch, FaultConfig::loss(0.05), 170 + i as u64);
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

    // Every push must now be pullable, byte for byte — the store is
    // shared across shards, so a blob pushed through one shard must be
    // servable by whichever shard the verification pull hashes to.
    for (name, expected) in &push_data {
        let mut verifier = Client::connect(addr)
            .unwrap()
            .config(client_cfg(RetxStrategy::Selective));
        let report = verifier.pull(name).unwrap();
        assert_eq!(&report.data, expected, "pushed blob {name} must round-trip");
    }

    assert!(
        node.wait_idle(Duration::from_secs(10)),
        "sessions drained\n{}",
        node.metrics().summary()
    );
    let shard_metrics = node.shard_metrics();
    let store = node.store();
    let shards = node.shards();
    let m = node.shutdown().unwrap();

    // Merged accounting: 32 concurrent + 16 verification pulls.
    assert_eq!(m.sessions_accepted, 48);
    assert_eq!(m.sessions_completed, 48);
    assert_eq!(m.sessions_failed, 0);
    assert_eq!(m.pushes, 16);
    assert_eq!(m.pulls, 32);
    assert_eq!(m.sessions_in_flight(), 0);
    assert_eq!(m.session_secs.count(), 48);
    assert_eq!(store.len(), 20, "4 seeds + 16 pushes");

    // The per-shard breakdown must reconcile exactly with the merge.
    assert_eq!(shard_metrics.len(), shards);
    let sum = |field: fn(&NodeMetrics) -> u64| shard_metrics.iter().map(field).sum::<u64>();
    assert_eq!(sum(|s| s.sessions_accepted), m.sessions_accepted);
    assert_eq!(sum(|s| s.sessions_completed), m.sessions_completed);
    assert_eq!(sum(|s| s.datagrams_received), m.datagrams_received);
    assert_eq!(sum(|s| s.bytes_received), m.bytes_received);
    assert_eq!(
        sum(|s| s.session_goodput_mbps.count()),
        m.session_goodput_mbps.count()
    );
    assert_eq!(sum(|s| s.reports.len() as u64), m.reports.len() as u64);
    if shard_metrics.len() == 4 {
        // 48 distinct ephemeral 4-tuples over 4 shards: the odds that
        // the kernel hashed them all onto one shard are ~4^-47.
        let lines: Vec<String> = (0..4).map(|i| shard_metrics[i].shard_summary(i)).collect();
        let busy = shard_metrics.iter().filter(|s| s.sessions_accepted > 0);
        assert!(
            busy.count() >= 2,
            "sessions all landed on one shard: {lines:#?}"
        );
    }

    // Fault injection really happened: chaotic clients corrupted frames
    // (FCS drops) and/or duplicated data the engines had to absorb.
    let dup_or_drops: u64 = m.fcs_drops
        + m.reports
            .iter()
            .map(|r| r.stats.duplicate_packets_received + r.stats.data_packets_retransmitted)
            .sum::<u64>();
    assert!(
        dup_or_drops > 0,
        "faulty channels must exercise recovery paths"
    );
}

const VERSIONED: &str = "versioned";
const VERSION_LEN: usize = 64 * 1024;
const VERSIONS: usize = 6;
const TURNS: usize = 16;

/// A client whose socket the kernel hashes to `shard`: clients are
/// opened until one's first pull of [`VERSIONED`] is accepted there.
/// Ids start at `first_id`, so no two clients share one.
fn client_on(node: &NodeHandle, shard: usize, first_id: u32) -> Client<UdpChannel> {
    for attempt in 0..64 {
        let before = node.shard_metrics()[shard].sessions_accepted;
        let mut client = Client::connect(node.addr())
            .unwrap()
            .timeout(Duration::from_millis(15))
            .patience(Duration::from_secs(10))
            .transfer_ids_from(first_id + attempt);
        client.pull(VERSIONED).unwrap();
        if node.shard_metrics()[shard].sessions_accepted > before {
            return client;
        }
    }
    panic!("no client socket hashed to shard {shard} in 64 tries");
}

/// Two clients on different shards of a 2-shard node take turns pushing
/// distinct versions of one name, every version the same length so each
/// commit can displace a blob the other shard recycles, while four more
/// clients pull that name without pause.  Every pull must be exactly one
/// version, byte for byte, and the store must end holding the version
/// committed last.
#[test]
fn alternating_versions_across_shards_pull_whole() {
    let versions: Arc<Vec<Vec<u8>>> = Arc::new(
        (0..VERSIONS)
            .map(|v| payload(5000 + v, VERSION_LEN))
            .collect(),
    );
    let store = shared_store();
    store.put(VERSIONED, versions[0].clone().into());
    let node = NodeBuilder::new()
        .timeout(Duration::from_millis(15))
        .shards(2)
        .store(store)
        .start()
        .unwrap();
    assert!(
        node.shards() == 2 || !sockopt::reuseport_supported(),
        "Linux must give us the full group"
    );
    let shards = node.shards();
    let pushers: Vec<_> = (0..2)
        .map(|p| client_on(&node, p % shards, 1_000_000 * (p as u32 + 1)))
        .collect();
    let pullers: Vec<_> = (0..4)
        .map(|q| client_on(&node, q % shards, 1_000_000 * (q as u32 + 3)))
        .collect();

    let turn = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicBool::new(false));
    let pulling: Vec<_> = pullers
        .into_iter()
        .map(|mut client| {
            let (versions, done) = (Arc::clone(&versions), Arc::clone(&done));
            std::thread::spawn(move || {
                let mut pulls = 0;
                while pulls == 0 || !done.load(Ordering::Acquire) {
                    let data = client.pull(VERSIONED).unwrap().data;
                    assert!(
                        versions.contains(&data),
                        "pull {pulls} is no pushed version"
                    );
                    pulls += 1;
                }
            })
        })
        .collect();
    let pushing: Vec<_> = pushers
        .into_iter()
        .enumerate()
        .map(|(p, mut client)| {
            let (versions, turn) = (Arc::clone(&versions), Arc::clone(&turn));
            let store = node.store();
            std::thread::spawn(move || {
                for t in (p..TURNS).step_by(2) {
                    while turn.load(Ordering::Acquire) != t as u64 {
                        std::thread::yield_now();
                    }
                    let version = &versions[(t + 1) % VERSIONS];
                    client.push(VERSIONED, version).unwrap();
                    // The client can hear the final ack before the node
                    // commits; pass the turn only once the store holds it.
                    let deadline = Instant::now() + Duration::from_secs(5);
                    while store.get(VERSIONED).is_none_or(|b| *b != *version) {
                        assert!(Instant::now() < deadline, "turn {t} never committed");
                        std::thread::yield_now();
                    }
                    turn.store(t as u64 + 1, Ordering::Release);
                }
            })
        })
        .collect();
    for h in pushing {
        h.join().unwrap();
    }
    done.store(true, Ordering::Release);
    for h in pulling {
        h.join().unwrap();
    }

    let store = node.store();
    assert_eq!(store.len(), 1);
    assert_eq!(
        store.get(VERSIONED).unwrap()[..],
        versions[TURNS % VERSIONS][..],
        "the last committed version stays"
    );
    assert!(node.wait_idle(Duration::from_secs(10)));
    let m = node.shutdown().unwrap();
    assert_eq!(m.pushes, TURNS as u64);
    assert_eq!(m.sessions_failed, 0);
}
