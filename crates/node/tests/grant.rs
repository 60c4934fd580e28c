//! The receiver's grant, end to end on loopback: a transfer its grant
//! holds leaves as one burst and completes without a timeout, a shard
//! shares its queue among the sessions it holds and never grants past
//! it, both receivers — a node's shard and a pulling client — report
//! the receive interval they measured, and a hostile grant is clamped
//! into something that still completes without holding up the shard.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use blast_core::{ProtocolConfig, MAX_GRANT};
use blast_node::server::NodeBuilder;
use blast_node::{shared_store, Client};
use blast_udp::channel::{Channel, UdpChannel, MAX_DATAGRAM};
use blast_udp::fcs::{self, FcsChannel};
use blast_udp::grant::{self, Grant};
use blast_udp::handshake::{Direction, Request, MAX_TRANSFER_BYTES};
use blast_udp::outbound::Outbound;
use blast_udp::sockopt;
use blast_wire::packet::{Datagram, DatagramBuilder};
use blast_wire::PacketKind;

const WAIT: Duration = Duration::from_secs(10);

/// The benchmark's packet size: 1 444-byte datagrams.
const PAYLOAD: usize = 1408;

fn payload(seed: usize, n: usize) -> Vec<u8> {
    (0..n).map(|i| (i.wrapping_mul(29) ^ seed) as u8).collect()
}

/// A client whose packets carry [`PAYLOAD`] bytes.
fn client(node: std::net::SocketAddr) -> Client {
    let client = Client::connect(node).unwrap();
    let mut cfg = client.protocol().clone();
    cfg.packet_payload = PAYLOAD;
    client.config(cfg)
}

/// A 4 MiB push and pull whose grants hold the whole transfer (on a host
/// whose queue holds less, the most it does hold) each go out as one
/// burst — no pace timer — with no timeout and no retransmission, and
/// arrive byte-exact.  Both ends wait a fixed second for the tail's
/// answer: how long a tail timer waits for a receiver to drain a burst
/// is `pacing.rs`'s subject, and a debug build's receiver takes tens of
/// milliseconds to drain one; this test's is the burst.
#[test]
fn a_transfer_the_grant_holds_leaves_as_one_burst() {
    let Some(rcvbuf) = sockopt::grown_recv_buffer() else {
        return; // no grant where the buffer cannot be read
    };
    let queue = grant::grant(rcvbuf, PAYLOAD, 1, 0, 0, None).unwrap().queue;
    let bytes = (4 << 20).min(queue as usize * PAYLOAD);
    let packets = bytes.div_ceil(PAYLOAD) as u64;
    let store = shared_store();
    let second = Duration::from_secs(1);
    let node = NodeBuilder::new()
        .store(store.clone())
        .timeout(second)
        .start()
        .unwrap();
    let mut client = client(node.addr()).timeout(second).transfer_ids_from(1);
    let data = payload(1, bytes);

    let push = client.push("blob", &data).unwrap();
    let pacing = push.pacing.expect("paced");
    assert_eq!(pacing.initial_burst, queue, "the node's echo granted it");
    assert!(packets <= u64::from(pacing.initial_burst), "one burst");
    assert_eq!(push.stats.data_packets_sent, packets, "{:?}", push.stats);
    assert_eq!(
        (push.stats.timeouts, push.stats.retransmission_rounds),
        (0, 0)
    );
    assert!(node.wait_idle(WAIT));
    assert_eq!(&store.get("blob").unwrap()[..], &data[..]);

    let pull = client.pull("blob").unwrap();
    assert_eq!(pull.data, data);
    assert!(node.wait_sessions(2, WAIT));
    let m = node.metrics();
    let session = m.reports.iter().find(|r| r.transfer_id == 2).unwrap();
    assert_eq!(session.direction, Direction::Pull);
    let pacing = session.pacing.expect("paced");
    assert_eq!(
        pacing.initial_burst, queue,
        "the client's request granted it"
    );
    assert_eq!(session.stats.data_packets_sent, packets);
    assert_eq!(
        (session.stats.timeouts, session.stats.retransmission_rounds),
        (0, 0)
    );
    assert_eq!(node.shutdown().unwrap().sessions_failed, 0);
}

/// The grant in the echo of raw push request `id`, sent from `sock`.
fn echoed_grant(sock: &UdpSocket, node: std::net::SocketAddr, id: u32) -> Option<Grant> {
    let request = Request::push(1 << 20, &ProtocolConfig::lan(), false).with_name("held");
    sock.send_to(&fcs::frame(&request.build_datagram(id)), node)
        .unwrap();
    let mut buf = [0u8; 512];
    let n = sock.recv(&mut buf).unwrap();
    let body = fcs::unframe(&buf[..n]).expect("framed");
    let echo = Request::parse(&Datagram::parse(&buf[..body]).unwrap()).unwrap();
    assert_eq!(echo.len, 1 << 20, "the echo of {id}");
    echo.grant
}

/// Send `id`'s cancel from `sock`, as a client abandoning its push does.
fn cancel(sock: &UdpSocket, node: SocketAddr, id: u32) {
    let mut buf = [0u8; blast_wire::HEADER_LEN];
    let n = DatagramBuilder::new(id).build_cancel(&mut buf).unwrap();
    sock.send_to(&fcs::frame(&buf[..n]), node).unwrap();
}

/// A shard never grants past its queue.  A grant cannot shrink once
/// given, so the first of overlapping pushes holds the whole queue and
/// those opened beside it get none (their senders pace as ungranted
/// ones do); once it ends, each next push gets an equal share among the
/// sessions in flight, and the grants in force still fit the queue.
/// Pushes are opened and left waiting for data.
#[test]
fn a_shard_shares_its_queue_and_never_grants_past_it() {
    let node = NodeBuilder::new()
        .max_sessions(16)
        .session_timeout(Duration::from_secs(5))
        .start()
        .unwrap();
    let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
    sock.set_read_timeout(Some(WAIT)).unwrap();
    let Some(first) = echoed_grant(&sock, node.addr(), 1) else {
        return node.shutdown().map(drop).unwrap(); // no readable queue
    };
    let queue = first.queue;
    assert!(queue > 0);
    for id in 2..=4 {
        assert_eq!(echoed_grant(&sock, node.addr(), id), None, "push {id}");
    }
    cancel(&sock, node.addr(), 1);
    let deadline = Instant::now() + WAIT;
    while node.metrics().sessions_in_flight() != 3 {
        assert!(Instant::now() < deadline, "the cancel ends push 1");
        thread::sleep(Duration::from_millis(1));
    }
    let mut held = 0;
    for id in 5..=8u32 {
        let sessions = id - 1; // pushes 2 to `id`
        let grant = echoed_grant(&sock, node.addr(), id).expect("a grant");
        assert_eq!(grant.queue, queue / sessions, "push {id}");
        held += grant.queue;
        assert!(held <= queue, "the grants in force fit the queue");
    }
    assert_eq!(node.metrics().sessions_in_flight(), 7);
    node.shutdown().unwrap();
}

/// A shard's grant reports the receive interval per datagram (`Cr`) it
/// measured over the pushes it received: none on a fresh node, a
/// nonzero one once a client's 64 KiB push has landed.  Each raw push
/// is cancelled once echoed, so it gives its share of the queue back
/// and the next echo carries a grant.
#[test]
fn a_push_echo_reports_the_drain_the_shard_measured() {
    let node = NodeBuilder::new().start().unwrap();
    let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
    sock.set_read_timeout(Some(WAIT)).unwrap();
    let Some(fresh) = echoed_grant(&sock, node.addr(), 1) else {
        return node.shutdown().map(drop).unwrap(); // no readable queue
    };
    assert_eq!(fresh.drain_ns, 0, "nothing received yet");
    cancel(&sock, node.addr(), 1);
    assert!(node.wait_idle(WAIT), "the cancel ends push 1");

    client(node.addr())
        .push("measured", &payload(2, 64 << 10))
        .unwrap();
    assert!(node.wait_idle(WAIT));
    let measured = echoed_grant(&sock, node.addr(), 2).expect("a grant");
    assert!(measured.drain_ns > 0, "{measured:?}");
    cancel(&sock, node.addr(), 2);
    assert_eq!(node.shutdown().unwrap().sessions_completed, 1);
}

/// A channel that keeps a copy of every frame it sends.
struct Recording {
    inner: UdpChannel,
    sent: Arc<Mutex<Vec<Vec<u8>>>>,
}

impl Channel for Recording {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.sent.lock().unwrap().push(frame.to_vec());
        self.inner.send(frame)
    }

    fn recv_timeout(&mut self, buf: &mut [u8], timeout: Duration) -> io::Result<Option<usize>> {
        self.inner.recv_timeout(buf, timeout)
    }

    fn recv_buffer(&self) -> Option<usize> {
        self.inner.recv_buffer()
    }
}

/// A pulling client's grant reports the receive interval it measured
/// over its last pulls: its first pull request grants no drain, the
/// next, after a 64 KiB pull, a nonzero one.
#[test]
fn a_pull_request_reports_the_drain_the_client_measured() {
    let store = shared_store();
    store.put("blob", payload(5, 64 << 10).into());
    let node = NodeBuilder::new().store(store).start().unwrap();
    let sent = Arc::new(Mutex::new(Vec::new()));
    let channel = Recording {
        inner: UdpChannel::connect_to(node.addr()).unwrap(),
        sent: Arc::clone(&sent),
    };
    let mut client = Client::over(channel);
    for _ in 0..2 {
        client.pull("blob").unwrap();
    }
    // Each pull's request, once: a re-sent one is the same datagram.
    let mut requests: Vec<(u32, Option<Grant>)> = sent
        .lock()
        .unwrap()
        .iter()
        .filter_map(|frame| {
            let dgram = Datagram::parse(&frame[..fcs::unframe(frame)?]).ok()?;
            let request = dgram.kind == PacketKind::Request;
            request.then_some((dgram.transfer_id, dgram.ext.grant))
        })
        .collect();
    requests.dedup_by_key(|(id, _)| *id);
    assert_eq!(requests.len(), 2, "{requests:?}");
    let (Some(first), Some(second)) = (requests[0].1, requests[1].1) else {
        return node.shutdown().map(drop).unwrap(); // no readable queue
    };
    assert_eq!(first.drain_ns, 0, "nothing received yet");
    assert!(second.drain_ns > 0, "{second:?}");
    node.shutdown().unwrap();
}

/// Pull requests granting a queue of 0, one of `u32::MAX`, and a drain
/// of `u32::MAX` ns per datagram: the node clamps each (bursts of 1 up
/// to [`MAX_GRANT`], a tail timer no longer than its RTO's `max`) and
/// every pull still completes byte-exact.  Each asks from a socket of
/// its own, so no pull starts at a burst the last one carried.
#[test]
fn a_hostile_grant_is_clamped_and_the_pull_completes() {
    let store = shared_store();
    let data = payload(7, 40 * 1024);
    store.put("blob", data.clone().into());
    let node = NodeBuilder::new().store(store).start().unwrap();
    let cfg = ProtocolConfig::lan();
    let packets = data.len().div_ceil(cfg.packet_payload) as u32;
    let hostile = [(0, 0), (0, u32::MAX), (u32::MAX, 0), (u32::MAX, u32::MAX)];
    for (id, (queue, drain_ns)) in (1..).zip(hostile) {
        let mut request = Request::pull("blob", &cfg);
        request.grant = Some(Grant { queue, drain_ns });
        let mut leg = Outbound::pull(id, &request, &cfg, MAX_TRANSFER_BYTES).unwrap();
        let mut channel = FcsChannel::new(UdpChannel::connect_to(node.addr()).unwrap());
        leg.run(&mut channel, &mut vec![0; MAX_DATAGRAM], WAIT)
            .unwrap();
        let (bytes, _) = leg.retire().expect("complete");
        assert_eq!(bytes, data, "grant {queue}, drain {drain_ns}");
        assert!(node.wait_sessions(u64::from(id), WAIT));
        let m = node.metrics();
        let session = m.reports.iter().find(|r| r.transfer_id == id).unwrap();
        let pacing = session.pacing.expect("paced");
        assert_eq!(pacing.initial_burst, queue.clamp(1, MAX_GRANT));
        assert_eq!(session.stats.data_packets_sent, u64::from(packets));
    }
    assert_eq!(node.shutdown().unwrap().sessions_failed, 0);
}

/// A pull granted `u32::MAX` goes out in engine steps of at most
/// [`MAX_GRANT`] datagrams, so the shard serves its other sessions
/// between them: a small pull asked for just after a pull of three such
/// steps, from the same socket, is answered after the big pull's first
/// step, not after its whole round 0.  One socket receives both, so the
/// order its datagrams arrive in is the order the node sent them; it
/// never acknowledges.  64-byte packets keep the big blob small.
#[test]
fn a_huge_grant_does_not_hold_up_the_shard() {
    let mut cfg = ProtocolConfig::lan();
    cfg.packet_payload = 64;
    let packets = 3 * MAX_GRANT as usize;
    let store = shared_store();
    store.put("big", payload(3, packets * cfg.packet_payload).into());
    store.put("small", payload(4, 16).into());
    let node = NodeBuilder::new().store(store).start().unwrap();

    let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
    sockopt::grow_buffers(&sock);
    sock.set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    let mut big = Request::pull("big", &cfg);
    big.grant = Some(Grant {
        queue: u32::MAX,
        drain_ns: 0,
    });
    for (id, request) in [(1, big), (2, Request::pull("small", &cfg))] {
        let framed = fcs::frame(&request.build_datagram(id));
        sock.send_to(&framed, node.addr()).unwrap();
    }
    // Round-0 datagrams of the big pull that arrive before the small
    // pull's first datagram, and in all.
    let (mut buf, mut before, mut round0) = ([0u8; 256], None, 0);
    while round0 < packets {
        let Ok(n) = sock.recv(&mut buf) else { break };
        let dgram = Datagram::parse(&buf[..n - fcs::FCS_LEN]).unwrap();
        if dgram.transfer_id == 2 {
            before.get_or_insert(round0);
        } else if dgram.kind == PacketKind::Data && dgram.round == 0 {
            round0 += 1;
        }
    }
    let before = before.expect("the small pull was answered within the round");
    assert!(
        round0 > 2 * MAX_GRANT as usize,
        "{round0} of {packets} arrived"
    );
    assert!(
        before <= MAX_GRANT as usize,
        "the small pull waited for {before} datagrams of the big one"
    );
    node.shutdown().unwrap();
}
