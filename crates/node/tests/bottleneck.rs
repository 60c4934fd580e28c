//! A default `Client` behind a bottleneck: the user-space relay
//! (`relay/mod.rs`) between it and a node, each direction a 64 KB
//! drop-tail queue served at 100 Mbit/s.  On loopback the receiver's
//! socket queue is the only queue; here a slower link with a shallow
//! queue drops what a burst sends beyond it, as the paper's Ethernet
//! would.
//!
//! The transfers are gated only on arriving byte-exact.  How many
//! packets they send per packet needed, how many timeouts they take and
//! how long they run are printed (`-- --nocapture`): they are the
//! figures a change to what a sender emits is judged on, side by side
//! with its parent, and they vary with the host's scheduling.

mod relay;

use std::net::UdpSocket;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use blast_node::server::NodeBuilder;
use blast_node::{shared_store, Client};
use relay::{Relay, Tally};

const KB: usize = 1024;

/// One relay at a time: the self-check times a burst, which a
/// transfer through another relay on the same two CPUs would slow.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Send 200 unpaced 1 000 B datagrams through a relay at 10 Mbit/s
/// behind a 64 KB queue: how long the burst took to send, what the
/// relay tallied and how many reached the far side.
fn burst_through_relay() -> (Duration, Tally, usize) {
    let sink = UdpSocket::bind("127.0.0.1:0").unwrap();
    let relay = Relay::start(sink.local_addr().unwrap(), 10_000_000, 64 * KB).unwrap();
    let source = UdpSocket::bind("127.0.0.1:0").unwrap();
    source.connect(relay.addr()).unwrap();
    let datagram = [7u8; 1000];
    let started = Instant::now();
    for _ in 0..200 {
        source.send(&datagram).unwrap();
    }
    let burst = started.elapsed();
    sink.set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let mut buf = [0u8; 2048];
    let mut received = 0;
    while let Ok(n) = sink.recv(&mut buf) {
        assert_eq!(n, 1000);
        received += 1;
    }
    (burst, relay.up(), received)
}

/// The relay's own check against its model: 200 unpaced 1 000 B
/// datagrams at 10 Mbit/s into a 64 KB queue.  Each takes 833.6 µs on
/// the wire, so a burst sent faster than that arrives while the first
/// is carried: it goes on the wire, 65 wait (65 000 B of payload; a
/// 66th would pass 65 536), and the other 134 are dropped.  The last
/// delivered leaves 66 × 833.6 µs = 55.0 ms after the first arrived.
/// The relay stamps an arrival when its thread reads it, so the check
/// needs the burst both sent and read within one service time: a burst
/// that took longer to send, or that the relay's thread read over a
/// longer span (a loaded host), is sent again, at most twice.
#[test]
fn the_relay_delivers_and_drops_what_its_model_does() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let one_service = Duration::from_nanos(833_600);
    let (burst, up, received) = (0..3)
        .map(|_| burst_through_relay())
        .find(|(burst, up, _)| *burst < one_service && up.arrival_span < one_service)
        .expect("a burst of 200 must be sent and read within one service time");
    println!("burst sent in {burst:?}; relay: {up:?}");
    assert_eq!((up.delivered, up.dropped), (66, 134));
    assert_eq!(received, 66);
    let last = up.last_departure.unwrap();
    let model = 66 * one_service;
    assert!(
        last.abs_diff(model) < Duration::from_micros(200),
        "{last:?}"
    );
}

fn pattern(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i.wrapping_mul(131) >> 3) as u8).collect()
}

/// A default `Client`'s 1 MiB push and pull through 100 Mbit/s behind
/// 64 KB queues both arrive byte-exact.
#[test]
fn a_push_and_a_pull_behind_a_100_mbit_bottleneck_arrive_exact() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let store = shared_store();
    let node = NodeBuilder::new().store(store.clone()).start().unwrap();
    let relay = Relay::start(node.addr(), 100_000_000, 64 * KB).unwrap();
    let mut client = Client::connect(relay.addr()).unwrap();
    let payload = client.protocol().packet_payload;
    let data = pattern(1 << 20);
    let needed = data.len().div_ceil(payload) as f64;

    let push = client.push("blob", &data).unwrap();
    assert!(node.wait_idle(Duration::from_secs(10)));
    assert_eq!(&store.get("blob").unwrap()[..], &data[..]);
    let pull = client.pull("blob").unwrap();
    assert_eq!(pull.data, data);
    assert!(node.wait_idle(Duration::from_secs(10)));
    let pulled = node.metrics().reports.back().unwrap().stats;

    for (leg, stats, elapsed) in [
        ("push", push.stats, push.elapsed),
        ("pull", pulled, pull.elapsed),
    ] {
        let mbps = 8.0 * data.len() as f64 / elapsed.as_secs_f64() / 1e6;
        println!(
            "1 MiB {leg} at 100 Mbit/s, 64 KB queue: sent/needed {:.2}, {} timeouts, \
             {} probes, {} retransmission rounds, {elapsed:?} ({mbps:.1} Mbit/s)",
            stats.data_packets_sent as f64 / needed,
            stats.timeouts,
            stats.probes,
            stats.retransmission_rounds,
        );
    }
    println!("relay up {:?}, down {:?}", relay.up(), relay.down());
}
