//! What a sender starts from, end to end on loopback: the burst its
//! receiver grants in the handshake — a client's pull request, a node's
//! push echo — or, within it, the burst a loss shrank on the last
//! transfer to the same peer; and a carried round-trip estimate, which
//! recovers a lost tail or a lost request.

use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use blast_core::{PacerSnapshot, PacingConfig};
use blast_node::server::{NodeBuilder, NodeHandle};
use blast_node::{shared_store, Client};
use blast_udp::channel::{Channel, UdpChannel};
use blast_udp::fault::{FaultConfig, FaultyChannel};
use blast_udp::fcs::{self, FcsChannel};
use blast_udp::handshake::{Direction, Request};
use blast_udp::{grant, sockopt};
use blast_wire::header::PacketKind;
use blast_wire::packet::Datagram;

const BIG: usize = 2 << 20;
const WAIT: Duration = Duration::from_secs(10);

/// A fixed retransmission timeout long enough that no clean transfer
/// times out, however slow the build: a spurious timeout is a loss
/// signal, and would shrink the burst the path carries.
const CLEAN: Duration = Duration::from_secs(1);

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

/// The queue a default client's socket grants, or a node's one-shard
/// socket with one session: the granted receive buffer over the
/// per-datagram charge of `payload`-byte packets.  Where the buffer
/// cannot be read, no grant is sent and the sender starts at the
/// configured burst.
fn granted(payload: usize) -> u32 {
    let grant = sockopt::grown_recv_buffer().and_then(|b| grant::grant(b, payload, 1, 0, 0, None));
    grant.map_or(PacingConfig::lan().burst, |g| g.queue)
}

/// Every clean pull starts at the client's grant: a clean transfer ends
/// at its grant, so that is what the path carries to the next — from
/// the same socket or another, big or small.
#[test]
fn pulls_start_at_the_clients_grant() {
    let node = node(NodeBuilder::new().timeout(CLEAN));
    let mut first = Client::connect(node.addr())
        .unwrap()
        .transfer_ids_from(1000);
    let queue = granted(first.protocol().packet_payload);
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
    for id in 1000..1004 {
        let big = pull(&mut first, "big", id);
        assert_eq!((big.initial_burst, big.loss_events), (queue, 0), "{big:?}");
        assert!(big.burst <= queue, "never above the grant");
    }
    // Another socket, small pulls, and the first client again.
    let mut second = Client::connect(node.addr())
        .unwrap()
        .transfer_ids_from(2000);
    for id in 2000..2003 {
        assert_eq!(pull(&mut second, "small", id).initial_burst, queue);
    }
    assert_eq!(pull(&mut first, "big", 1004).initial_burst, queue);
    assert_eq!(node.shutdown().unwrap().sessions_failed, 0);
}

/// Every clean push starts at the node's grant: its one shard holds
/// one session at a time, so each gets the whole queue, and a clean
/// push carries the grant to the next.
#[test]
fn consecutive_pushes_start_at_the_nodes_grant() {
    let node = node(NodeBuilder::new());
    let mut client = Client::connect(node.addr()).unwrap().timeout(CLEAN);
    let queue = granted(client.protocol().packet_payload);
    let data = payload(3, BIG);
    for k in 0..4 {
        let report = client.push(&format!("p{k}"), &data).unwrap();
        let pacing = report.pacing.expect("a push's sender is paced");
        assert_eq!(pacing.initial_burst, queue, "{pacing:?}");
    }
    // Each datagram was built where it was staged, never in the pool.
    assert_eq!(client.protocol().pool.fresh_allocations(), 0);
    assert!(node.wait_idle(WAIT));
    assert_eq!(node.shutdown().unwrap().sessions_failed, 0);
}

/// A request that never completes — here, nobody ever acknowledges the
/// blast it starts — writes nothing, although its sender shrank its
/// burst on every timeout.  Sent raw, without a grant, it starts at the
/// configured burst, as every sender did before grants.
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
    let failed = session(&node, 500);
    assert_eq!(failed.initial_burst, PacingConfig::lan().burst);
    assert!(
        failed.burst < failed.initial_burst,
        "the failed sender did shrink"
    );

    // The same socket, now a client that completes: it starts at its
    // grant, nothing of the failed sender carried.
    let mut client = Client::over(raw.into_inner()).transfer_ids_from(600);
    let queue = granted(client.protocol().packet_payload);
    assert_eq!(client.pull("big").unwrap().data.len(), BIG);
    assert!(node.wait_sessions(2, WAIT));
    assert_eq!(session(&node, 600).initial_burst, queue);
    node.shutdown().unwrap();
}

/// A push that loses packets trims its burst below the node's grant,
/// and the client's next push starts there, not at the grant: the
/// carried burst is what tells a sender that the queue its grant
/// describes is shared.
#[test]
fn a_push_that_saw_loss_starts_the_next_below_the_grant() {
    let node = NodeBuilder::new().start().unwrap();
    let lossy = FaultyChannel::new(
        UdpChannel::connect_to(node.addr()).unwrap(),
        FaultConfig::loss(0.01),
        7,
    );
    let mut client = Client::over(lossy);
    let queue = granted(client.protocol().packet_payload);
    let data = payload(5, BIG);
    let first = client.push("p0", &data).unwrap().pacing.unwrap();
    assert_eq!(first.initial_burst, queue);
    assert!(first.loss_events > 0 && first.burst < queue, "{first:?}");
    let next = client.push("p1", &data).unwrap().pacing.unwrap();
    assert_eq!(next.initial_burst, first.burst, "{next:?}");
    assert!(node.wait_idle(WAIT));
    assert_eq!(node.shutdown().unwrap().sessions_failed, 0);
}

/// The first push of a fresh client checks no buffer out of its pool:
/// each datagram is built where its channel stages it.
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
/// tail and recovers through a tail probe, not a retransmission
/// timeout, and the push after it loses its request and recovers
/// through one re-send: both store byte-exact.  (The probe and the
/// re-send run on the carried estimate, each after a probe timeout of
/// at least 1 ms, so neither waits the 25 ms `initial` nor
/// round 0's 10 ms floor; gated here on bytes and counts, the schedules
/// themselves are pinned sans I/O.)
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
    assert!(lost_tail.stats.probes >= 1, "{:?}", lost_tail.stats);
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
