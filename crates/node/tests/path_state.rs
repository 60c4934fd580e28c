//! Path state that outlives a transfer, end to end on loopback: each
//! sender starts at the AIMD burst its peer's last completed transfer
//! ended at — a node's pull sessions keyed by the client's socket, a
//! client's pushes by its one node — and nothing else moves it; and a
//! carried round-trip estimate recovers a lost tail or a lost request.

use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use blast_core::{PacerSnapshot, PacingConfig};
use blast_node::server::{NodeBuilder, NodeHandle};
use blast_node::{shared_store, Client};
use blast_udp::channel::{Channel, UdpChannel};
use blast_udp::fcs::{self, FcsChannel};
use blast_udp::handshake::{Direction, Request};
use blast_wire::header::PacketKind;
use blast_wire::packet::Datagram;

const BIG: usize = 2 << 20;
const WAIT: Duration = Duration::from_secs(10);

fn payload(seed: usize, n: usize) -> Vec<u8> {
    (0..n).map(|i| (i.wrapping_mul(31) ^ seed) as u8).collect()
}

/// A node serving `big` (2 MiB) and `small` (three packets).
fn node(builder: NodeBuilder) -> NodeHandle {
    let store = shared_store();
    store.put("big", payload(1, BIG).into());
    store.put("small", payload(2, 3 * 1024).into());
    builder.store(store).start().unwrap()
}

/// The pacing state of the node's pull session `id`, once finished.
fn session(node: &NodeHandle, id: u32) -> PacerSnapshot {
    let m = node.metrics();
    let report = m.reports.iter().find(|r| r.transfer_id == id);
    let report = report.unwrap_or_else(|| panic!("no report for {id}"));
    assert_eq!(report.direction, Direction::Pull);
    report.pacing.expect("a pull's sender is paced")
}

/// Each transfer starts where the one before ended; on a clean path
/// that is the cold start, then one growth step per transfer up to the
/// ceiling.
fn assert_ramp(trajectory: &[PacerSnapshot]) {
    let lan = PacingConfig::lan();
    assert_eq!(
        trajectory[0].initial_burst, lan.burst,
        "a new peer starts cold"
    );
    for pair in trajectory.windows(2) {
        assert_eq!(pair[1].initial_burst, pair[0].burst, "{trajectory:?}");
    }
    if trajectory.iter().all(|p| p.loss_events == 0) {
        let starts: Vec<u32> = trajectory.iter().map(|p| p.initial_burst).collect();
        let expected: Vec<u32> = (0..trajectory.len() as u32)
            .map(|k| (lan.burst + k * lan.growth).min(lan.max_burst))
            .collect();
        assert_eq!(starts, expected);
    }
}

#[test]
fn pulls_ramp_per_client_socket_and_small_pulls_never_raise() {
    let node = node(NodeBuilder::new());
    let mut first = Client::connect(node.addr())
        .unwrap()
        .transfer_ids_from(1000);
    let mut finished = 0;
    let mut pull = |client: &mut Client, name: &str, id: u32| {
        let report = client.pull(name).unwrap();
        finished += 1;
        assert!(node.wait_sessions(finished, WAIT));
        assert_eq!(
            report.data.len(),
            if name == "big" { BIG } else { 3 * 1024 }
        );
        session(&node, id)
    };
    // Eight pulls: 64, 96, …, 224, then the ceiling, twice.
    let ramp: Vec<_> = (1000..1008).map(|id| pull(&mut first, "big", id)).collect();
    assert_ramp(&ramp);

    // Another socket is another peer: it starts cold.
    let mut second = Client::connect(node.addr())
        .unwrap()
        .transfer_ids_from(2000);
    assert_eq!(pull(&mut second, "big", 2000).initial_burst, 64);

    // Three-packet pulls grow their own pacers, never the entry.
    let mut third = Client::connect(node.addr())
        .unwrap()
        .transfer_ids_from(3000);
    for id in 3000..3004 {
        let small = pull(&mut third, "small", id);
        assert_eq!((small.initial_burst, small.burst), (64, 96));
    }
    assert_eq!(pull(&mut third, "big", 3004).initial_burst, 64);

    // And the first client's entry is still its own.
    let last = ramp.last().unwrap().burst;
    assert_eq!(pull(&mut first, "big", 1008).initial_burst, last);
    assert_eq!(node.shutdown().unwrap().sessions_failed, 0);
}

#[test]
fn consecutive_pushes_ramp_the_clients_own_sender() {
    let node = node(NodeBuilder::new());
    let mut client = Client::connect(node.addr()).unwrap();
    let data = payload(3, BIG);
    let ramp: Vec<_> = (0..8)
        .map(|k| {
            let report = client.push(&format!("p{k}"), &data).unwrap();
            report.pacing.expect("a push's sender is paced")
        })
        .collect();
    assert_ramp(&ramp);
    // Each push warmed the pool to its starting burst before round 0.
    assert_eq!(client.protocol().pool.fresh_allocations(), 0);
    assert!(node.wait_idle(WAIT));
    assert_eq!(node.shutdown().unwrap().sessions_failed, 0);
}

/// A request that never completes — here, nobody ever acknowledges the
/// blast it starts — writes nothing, although its sender shrank its
/// burst on every timeout.
#[test]
fn a_request_that_never_completes_leaves_its_entry_absent() {
    let node = node(NodeBuilder::new().max_retries(3));
    let channel = UdpChannel::connect_to(node.addr()).unwrap();
    let mut raw = FcsChannel::new(channel);
    let request = Request::pull("big", &blast_core::ProtocolConfig::default());
    raw.send(&request.build_datagram(500)).unwrap();
    assert!(node.wait_sessions(1, WAIT));
    let m = node.metrics();
    assert_eq!((m.sessions_completed, m.sessions_failed), (0, 1));
    assert!(
        session(&node, 500).burst < 64,
        "the failed sender did shrink"
    );

    // The same socket, now a client that completes: it starts cold.
    let mut client = Client::over(raw.into_inner()).transfer_ids_from(600);
    assert_eq!(client.pull("big").unwrap().data.len(), BIG);
    assert!(node.wait_sessions(2, WAIT));
    assert_eq!(session(&node, 600).initial_burst, 64);
    node.shutdown().unwrap();
}

/// The first push of a fresh client takes its whole first burst from
/// the buffers its pool was warmed with.
#[test]
fn a_fresh_clients_first_push_does_not_allocate_buffers() {
    let node = NodeBuilder::new().start().unwrap();
    let mut client = Client::connect(node.addr()).unwrap();
    client.push("p", &payload(4, 256 << 10)).unwrap();
    assert_eq!(client.protocol().pool.fresh_allocations(), 0);
    node.shutdown().unwrap();
}

/// Requests a client put on its channel, by transfer id.
type RequestLog = Arc<Mutex<HashMap<u32, u32>>>;

/// A channel that loses two datagrams on their way out: the first copy
/// of transfer `tail_of`'s last data packet, and transfer
/// `request_of`'s first request.  Every request is logged.
struct LosesOnCue {
    inner: UdpChannel,
    tail_of: Option<u32>,
    request_of: Option<u32>,
    requests: RequestLog,
}

impl Channel for LosesOnCue {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        let body = fcs::unframe(frame).expect("the client frames what it sends");
        let d = Datagram::parse(&frame[..body]).expect("and sends only well-formed datagrams");
        let id = Some(d.transfer_id);
        match d.kind {
            PacketKind::Data if d.seq + 1 == d.total && id == self.tail_of => {
                self.tail_of = None;
                return Ok(());
            }
            PacketKind::Request => {
                *self
                    .requests
                    .lock()
                    .unwrap()
                    .entry(d.transfer_id)
                    .or_default() += 1;
                if id == self.request_of {
                    self.request_of = None;
                    return Ok(());
                }
            }
            _ => {}
        }
        self.inner.send(frame)
    }

    fn recv_timeout(&mut self, buf: &mut [u8], timeout: Duration) -> io::Result<Option<usize>> {
        self.inner.recv_timeout(buf, timeout)
    }
}

/// On a path a clean push has measured, the next push loses its round-0
/// tail and recovers through one retransmission timeout, and the push
/// after it loses its request and recovers through one re-send: both
/// store byte-exact.  (The timer and the re-send run on the carried
/// estimate — round 0 at the floor, the request at the path's RTO — so
/// neither waits the 25 ms `initial`; gated here on bytes and counts,
/// the schedules themselves are pinned sans I/O.)
#[test]
fn a_carried_path_recovers_a_lost_tail_and_a_lost_request() {
    let store = shared_store();
    let node = NodeBuilder::new().store(store.clone()).start().unwrap();
    let requests = RequestLog::default();
    let channel = LosesOnCue {
        inner: UdpChannel::connect_to(node.addr()).unwrap(),
        tail_of: Some(2),
        request_of: Some(3),
        requests: Arc::clone(&requests),
    };
    let mut client = Client::over(channel).transfer_ids_from(1);
    let blobs: Vec<Vec<u8>> = (0..3).map(|k| payload(10 + k, 64 << 10)).collect();

    client.push("measured", &blobs[0]).unwrap();
    let lost_tail = client.push("lost-tail", &blobs[1]).unwrap();
    assert!(lost_tail.stats.timeouts >= 1, "{:?}", lost_tail.stats);
    client.push("lost-request", &blobs[2]).unwrap();

    assert!(node.wait_idle(WAIT));
    for (name, blob) in ["measured", "lost-tail", "lost-request"].iter().zip(&blobs) {
        assert_eq!(&store.get(name).expect(name)[..], &blob[..], "{name}");
    }
    assert!(
        requests.lock().unwrap()[&3] >= 2,
        "the lost request was re-sent"
    );
    assert_eq!(node.shutdown().unwrap().sessions_failed, 0);
}
