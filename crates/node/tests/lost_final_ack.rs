//! A final acknowledgement, lost.  On a pull, what used to be covered
//! by the client blocking through a linger window is covered off the
//! clock, by the time-wait record the finished receiver leaves on the
//! client's channel; on a push, by the record the node's finished
//! receiver leaves in its shard's tail table.

use std::collections::HashMap;
use std::io;
use std::net::UdpSocket;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use blast_core::AdaptiveTimeout;
use blast_node::server::NodeBuilder;
use blast_node::{shared_store, Client};
use blast_udp::channel::{Channel, UdpChannel};
use blast_udp::fcs;
use blast_udp::handshake::Request;
use blast_wire::header::PacketKind;
use blast_wire::packet::Datagram;

/// Acknowledgements a client put on its channel, by transfer id.
type AckLog = Arc<Mutex<HashMap<u32, u32>>>;

/// A channel that loses exactly one datagram: the first acknowledgement
/// sent through it.  Every acknowledgement, lost or not, is logged.
struct LosesFirstAck {
    inner: UdpChannel,
    lost: bool,
    acks: AckLog,
}

impl Channel for LosesFirstAck {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        let body = fcs::unframe(frame).expect("the client frames what it sends");
        let dgram = Datagram::parse(&frame[..body]).expect("and sends only well-formed datagrams");
        if dgram.kind == PacketKind::Ack {
            *self
                .acks
                .lock()
                .unwrap()
                .entry(dgram.transfer_id)
                .or_default() += 1;
            if !self.lost {
                self.lost = true;
                return Ok(());
            }
        }
        self.inner.send(frame)
    }

    fn recv_timeout(&mut self, buf: &mut [u8], timeout: Duration) -> io::Result<Option<usize>> {
        self.inner.recv_timeout(buf, timeout)
    }
}

/// A channel that loses exactly one datagram on its way in: the first
/// acknowledgement the node sends.  Every frame sent through it is kept.
struct LosesFirstAckIn {
    inner: UdpChannel,
    lost: bool,
    sent: Arc<Mutex<Vec<Vec<u8>>>>,
}

impl Channel for LosesFirstAckIn {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.sent.lock().unwrap().push(frame.to_vec());
        self.inner.send(frame)
    }

    fn recv_timeout(&mut self, buf: &mut [u8], timeout: Duration) -> io::Result<Option<usize>> {
        loop {
            let got = self.inner.recv_timeout(buf, timeout)?;
            match got.map(|n| parse(&buf[..n]).kind) {
                Some(PacketKind::Ack) if !self.lost => self.lost = true,
                _ => return Ok(got),
            }
        }
    }
}

/// The datagram inside one FCS frame.
fn parse(frame: &[u8]) -> Datagram<'_> {
    Datagram::parse(&frame[..fcs::unframe(frame).unwrap()]).unwrap()
}

/// Everything `socket` receives within `window`.
fn collect(socket: &UdpSocket, window: Duration) -> Vec<Vec<u8>> {
    socket.set_read_timeout(Some(window)).unwrap();
    let mut got = Vec::new();
    let mut buf = [0u8; 2048];
    while let Ok(n) = socket.recv(&mut buf) {
        got.push(buf[..n].to_vec());
    }
    got
}

fn payload(seed: usize, n: usize) -> Vec<u8> {
    (0..n).map(|i| (i.wrapping_mul(29) ^ seed) as u8).collect()
}

#[test]
fn pull_returns_at_completion_and_the_time_wait_record_answers_the_tail() {
    // A node whose sender waits a long, fixed 200 ms before it
    // retransmits its tail: anything the client does in less cannot
    // have waited for that retransmission.
    let rto = Duration::from_millis(200);
    let store = shared_store();
    store.put("a", payload(1, 4096).into());
    let node = NodeBuilder::new()
        .timeout(rto)
        .store(store)
        .start()
        .unwrap();

    let acks = AckLog::default();
    let channel = LosesFirstAck {
        inner: UdpChannel::connect_to(node.addr()).unwrap(),
        lost: false,
        acks: Arc::clone(&acks),
    };
    let mut client = Client::over(channel)
        .timeout(rto)
        .transfer_ids_from(100)
        .patience(Duration::from_secs(5));

    let started = Instant::now();
    let pulled = client.pull("a").unwrap(); // transfer 100; its ack is lost
    assert_eq!(pulled.data, payload(1, 4096));
    assert!(
        started.elapsed() < rto,
        "pull returned at completion, not after a timer: {:?}",
        started.elapsed()
    );
    assert_eq!(acks.lock().unwrap()[&100], 1);

    // The same client goes straight on…
    client.push("b", &payload(2, 4096)).unwrap();
    assert_eq!(client.pull("b").unwrap().data, payload(2, 4096));
    // …and while it keeps listening — here for the answers to its
    // own `stats` queries — the node's retransmitted tail of transfer
    // 100 arrives and is answered from the record.  (Queries rather
    // than more pulls: at thousands of pulls a second the record's 256
    // places turn over before this node's slow 200 ms timer fires.)
    let finished = |id| node.metrics().reports.iter().any(|r| r.transfer_id == id);
    while !finished(100) {
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "node never heard"
        );
        client.stats().unwrap();
    }
    assert_eq!(
        acks.lock().unwrap()[&100],
        2,
        "the lost ack, then one re-ack for the one retransmitted tail"
    );

    assert!(node.wait_idle(Duration::from_secs(5)));
    let m = node.shutdown().unwrap();
    assert_eq!(m.sessions_failed, 0);
    assert_eq!(m.unroutable, 0, "nothing was answered twice");
    let a = m.reports.iter().find(|r| r.transfer_id == 100).unwrap();
    assert!(a.ok);
    assert!(a.stats.timeouts >= 1, "the node did have to ask again");
    assert!(a.elapsed >= rto);
}

/// The reason the client's old short post-pull window could go: with
/// production timeouts the node's first tail retransmission comes a
/// full fresh RTO after the tail, long after that window had closed.
#[test]
fn a_nodes_first_tail_retransmission_comes_after_the_old_clean_window() {
    let lan = AdaptiveTimeout::lan();
    let old_clean_window =
        (lan.initial() / 4).clamp(Duration::from_millis(5), Duration::from_millis(25));

    let store = shared_store();
    store.put("a", payload(3, 4096).into());
    let node = NodeBuilder::new().store(store).start().unwrap(); // lan() timeouts
    let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    socket.connect(node.addr()).unwrap();
    socket
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let cfg = blast_core::ProtocolConfig::default();
    let request = Request::pull("a", &cfg).build_datagram(7);
    socket.send(&fcs::frame(&request)).unwrap();

    // Take the blast and never acknowledge: note when the tail first
    // arrives, and when it arrives again.
    let mut buf = [0u8; 4096];
    let mut tails = Vec::new();
    while tails.len() < 2 {
        let n = socket.recv(&mut buf).expect("the node keeps sending");
        let body = fcs::unframe(&buf[..n]).unwrap();
        let dgram = Datagram::parse(&buf[..body]).unwrap();
        if dgram.kind == PacketKind::Data && dgram.is_last() {
            tails.push(Instant::now());
        }
    }
    let gap = tails[1] - tails[0];
    assert!(
        gap > old_clean_window,
        "tail retransmitted after {gap:?}; the old window was {old_clean_window:?}"
    );
    node.shutdown().unwrap();
}

/// A push's final acknowledgement, lost: the node's finished receiver
/// answers the pusher's retransmitted tail from the shard's tail table,
/// and answers nobody else.
#[test]
fn push_whose_final_ack_is_lost_is_answered_from_the_nodes_tail_table() {
    let node = NodeBuilder::new()
        .linger(Duration::from_secs(5))
        .start()
        .unwrap();
    let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    socket.connect(node.addr()).unwrap();
    let pusher = socket.try_clone().unwrap();
    let sent = Arc::new(Mutex::new(Vec::new()));
    let channel = LosesFirstAckIn {
        inner: UdpChannel::from_socket(socket),
        lost: false,
        sent: Arc::clone(&sent),
    };
    let mut client = Client::over(channel)
        .timeout(Duration::from_millis(20))
        .transfer_ids_from(300)
        .patience(Duration::from_secs(5));

    let pushed = client.push("p", &payload(4, 4096)).unwrap();
    assert!(pushed.stats.timeouts >= 1, "the sender had to ask again");
    assert!(node.wait_idle(Duration::from_secs(5)));
    let m = node.metrics();
    assert_eq!((m.sessions_completed, m.sessions_failed), (1, 0));
    assert_eq!(
        node.store().get("p").as_deref().map(Vec::as_slice),
        Some(&payload(4, 4096)[..])
    );

    let sent = sent.lock().unwrap();
    let find = |kind: PacketKind| {
        let frame = sent.iter().rfind(|f| {
            let d = parse(f);
            d.transfer_id == 300 && d.kind == kind && (kind != PacketKind::Data || d.is_last())
        });
        frame.cloned().unwrap()
    };
    let (tail, request) = (find(PacketKind::Data), find(PacketKind::Request));
    let quiet = Duration::from_millis(200);

    // The tail from a socket that did not push: no reply, unroutable.
    let foreign = UdpSocket::bind("127.0.0.1:0").unwrap();
    foreign.connect(node.addr()).unwrap();
    foreign.send(&tail).unwrap();
    assert!(collect(&foreign, quiet).is_empty());
    let wait_for = |what: &dyn Fn(&blast_node::NodeMetrics) -> bool| {
        let deadline = Instant::now() + Duration::from_secs(2);
        while !what(&node.metrics()) {
            assert!(Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    wait_for(&|m| m.unroutable == 1);

    // The request again from the pusher: it has long had its echo.
    pusher.send(&request).unwrap();
    let replies = collect(&pusher, quiet);
    assert!(
        replies.iter().all(|r| parse(r).kind == PacketKind::Ack),
        "a duplicate request for a held id is ignored"
    );

    // The same request from anyone else collides with the held id.
    foreign.send(&request).unwrap();
    let replies = collect(&foreign, quiet);
    assert_eq!(replies.len(), 1);
    let cancel = parse(&replies[0]);
    assert_eq!((cancel.kind, cancel.transfer_id), (PacketKind::Cancel, 300));
    wait_for(&|m| m.collisions == 1);
    let m = node.shutdown().unwrap();
    assert_eq!((m.sessions_accepted, m.sessions_failed), (1, 0));
}
