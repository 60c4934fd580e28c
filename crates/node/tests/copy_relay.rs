//! End-to-end third-party copy: a client instructs node A to move a
//! named blob directly to/from node B — the bytes never cross the
//! client — and a 1→3 fan-out replicates one source blob to three
//! nodes with per-replica reports.  Every replica is byte-verified by
//! pulling the blob back out, and both nodes' flight recorders must
//! show the transfer actually ran where the protocol says it did.

use std::time::Duration;

use blast_node::server::{NodeBuilder, NodeConfig};
use blast_node::{Client, NodeHandle};
use blast_telemetry::{EventKind, Recorder};
use blast_udp::copy::CopyState;
use blast_udp::sockopt;

const TRACE_RING: usize = 1 << 14;

fn node() -> NodeHandle {
    NodeBuilder::new()
        .timeout(Duration::from_millis(20))
        .telemetry(TRACE_RING)
        .start()
        .expect("start node")
}

/// A multi-chunk payload: well past one packet_payload, with content
/// that catches reordering or truncation.
fn blob(len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i.wrapping_mul(2654435761) >> 7) as u8)
        .collect()
}

#[test]
fn push_copy_moves_blob_a_to_b() {
    let a = node();
    let b = node();
    let data = blob(150_000);

    let mut client = Client::connect(a.addr())
        .unwrap()
        .timeout(Duration::from_millis(20))
        .recorder(Recorder::standalone(TRACE_RING));
    client.push("blob", &data).unwrap();

    let report = client.copy_to("blob", b.addr()).unwrap();
    assert_eq!(report.state, CopyState::Done);
    assert_eq!(report.bytes, data.len() as u64);
    assert!(report.verified, "replica digest must match source");
    assert!(
        !report.progress.is_empty(),
        "per-copy progress reports observed"
    );
    assert!(report
        .progress
        .iter()
        .all(|st| st.bytes_done <= st.bytes_total));

    // Byte-verify at the replica: the blob must be pullable from B and
    // identical, even though the client never carried it there.
    let pulled = Client::connect(b.addr())
        .unwrap()
        .timeout(Duration::from_millis(20))
        .pull("blob")
        .unwrap();
    assert_eq!(pulled.data, data);
    // The pull returned with its last byte, one datagram before B hears
    // the final ack.
    assert!(b.wait_idle(Duration::from_secs(5)), "tail ack drained");

    // Node A admitted and completed the copy, anchored its clock to
    // the client's epoch, and ran blast rounds for the outbound leg;
    // node B ran blast rounds for the inbound session.  That is the
    // telemetry shape of a genuine node-to-node transfer.
    let trace_a = a.drain_trace();
    let trace_b = b.drain_trace();
    let has = |trace: &[blast_telemetry::TraceEvent], kind: EventKind| {
        trace.iter().any(|e| e.kind == kind)
    };
    assert!(has(&trace_a, EventKind::CopyAdmit), "A records copy-admit");
    assert!(has(&trace_a, EventKind::CopyDone), "A records copy-done");
    assert!(
        has(&trace_a, EventKind::ClockAnchor),
        "A anchors to the client's trace epoch"
    );
    assert!(has(&trace_a, EventKind::RoundStart), "A ran blast rounds");
    assert!(has(&trace_b, EventKind::RoundStart), "B ran blast rounds");
    assert!(has(&trace_b, EventKind::RoundEnd), "B finished its rounds");

    a.shutdown().unwrap();
    let mb = b.shutdown().unwrap();
    assert_eq!(mb.sessions_completed, 2, "copy leg + verification pull");
}

/// A copy's traffic is the node's traffic: its data packets leave
/// through the shard's own I/O and count in the node's metrics.
#[test]
fn a_push_copy_counts_in_its_node_datagrams() {
    let a = node();
    let b = node();
    let data = blob(150_000);
    a.store().put("blob", data.clone().into());
    let mut client = Client::connect(a.addr())
        .unwrap()
        .timeout(Duration::from_millis(20));
    let before = a.metrics();
    assert!(client.copy_to("blob", b.addr()).unwrap().verified);
    let after = a.metrics();
    let payload = NodeConfig::default().protocol.packet_payload;
    let packets = data.len().div_ceil(payload) as u64;
    let sent = after.datagrams_sent - before.datagrams_sent;
    assert!(
        sent >= packets,
        "{sent} datagrams sent for {packets} data packets"
    );
    // At least the echo and the final ack came back.
    assert!(after.datagrams_received - before.datagrams_received >= 2);
    a.shutdown().unwrap();
    b.shutdown().unwrap();
}

#[test]
fn pull_copy_fetches_blob_from_remote() {
    let a = node();
    let b = node();
    let data = blob(96_000);
    b.store().put("remote-blob", data.clone().into());

    // A starts empty; the client tells it to fetch from B.
    let mut client = Client::connect(a.addr())
        .unwrap()
        .timeout(Duration::from_millis(20));
    let report = client.copy_from("remote-blob", b.addr()).unwrap();
    assert_eq!(report.state, CopyState::Done);
    assert_eq!(report.bytes, data.len() as u64);
    assert!(report.verified);

    assert!(a.store().contains("remote-blob"));
    let pulled = client.pull("remote-blob").unwrap();
    assert_eq!(pulled.data, data);

    let ma = a.shutdown().unwrap();
    assert_eq!(ma.copies_completed, 1);
    b.shutdown().unwrap();
}

#[test]
fn fan_out_replicates_one_source_to_three() {
    let source = node();
    let replicas: Vec<NodeHandle> = (0..3).map(|_| node()).collect();
    let data = blob(120_000);
    source.store().put("gold", data.clone().into());

    let mut client = Client::connect(source.addr())
        .unwrap()
        .timeout(Duration::from_millis(20));
    let addrs: Vec<_> = replicas.iter().map(|r| r.addr()).collect();
    let reports = client.fan_out("gold", &addrs).unwrap();

    assert_eq!(reports.len(), 3, "one report per replica");
    for (report, addr) in reports.iter().zip(&addrs) {
        assert_eq!(report.remote, *addr);
        assert_eq!(report.state, CopyState::Done);
        assert_eq!(report.bytes, data.len() as u64);
        assert!(report.verified, "replica {addr} digest mismatch");
    }

    for replica in replicas {
        let pulled = Client::connect(replica.addr())
            .unwrap()
            .timeout(Duration::from_millis(20))
            .pull("gold")
            .unwrap();
        assert_eq!(pulled.data, data, "replica bytes identical to source");
        replica.shutdown().unwrap();
    }
    let m = source.shutdown().unwrap();
    assert_eq!(m.copies_requested, 3);
    assert_eq!(m.copies_completed, 3);
    assert_eq!(m.copy_bytes_moved, 3 * data.len() as u64);
}

#[test]
fn copy_of_missing_blob_reports_not_found() {
    let a = node();
    let b = node();
    let mut client = Client::connect(a.addr())
        .unwrap()
        .timeout(Duration::from_millis(20));
    let err = client.copy_to("no-such-blob", b.addr()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    let ma = a.shutdown().unwrap();
    assert_eq!(ma.copies_failed, 1);
    b.shutdown().unwrap();
}

#[test]
fn copy_toward_a_dead_port_fails_with_handshake_timeout() {
    let session_timeout = Duration::from_millis(400);
    let a = NodeBuilder::new()
        .timeout(Duration::from_millis(20))
        .session_timeout(session_timeout)
        .start()
        .expect("start node");
    a.store().put("blob", blob(10_000).into());
    // A port nobody listens on: bound once so it is ours, then closed.
    let dead = std::net::UdpSocket::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();

    let mut client = Client::connect(a.addr())
        .unwrap()
        .timeout(Duration::from_millis(20));
    let started = std::time::Instant::now();
    let err = client.copy_to("blob", dead).unwrap_err();
    let elapsed = started.elapsed();
    assert_eq!(err.kind(), std::io::ErrorKind::TimedOut, "{err}");
    assert!(err.to_string().contains("handshake timeout"), "{err}");
    assert!(
        elapsed >= session_timeout / 2 && elapsed < session_timeout * 3,
        "the node's session timeout bounds the handshake: {elapsed:?}"
    );

    let ma = a.shutdown().unwrap();
    assert_eq!(ma.copies_failed, 1);
    assert!(ma.copy_handshake_retx > 0, "the handshake was retried");
}

/// A push copy that has finished leaves nothing but its status: its
/// entry waits out the grace window, and the node parks as an idle node
/// does, until the next timer.
#[test]
fn a_finished_push_copy_leaves_its_node_idle() {
    assert_idle_after_copy(|client, b| client.copy_to("blob", b));
}

/// The pull twin: a finished pull copy also leaves a tail record that
/// answers the remote for the grace window, and that holds no socket
/// and no timer, so the node parks as idle as after a push.
#[test]
fn a_finished_pull_copy_leaves_its_node_idle() {
    assert_idle_after_copy(|client, b| client.copy_from("blob", b));
}

/// Run `copy` from node A with node B (which, like A, holds a blob
/// named "blob"), then count A's wakeups over 300 ms of idle.
fn assert_idle_after_copy(
    copy: impl FnOnce(&mut Client, SocketAddr) -> std::io::Result<blast_node::CopyReport>,
) {
    let a = node();
    let b = node();
    a.store().put("blob", blob(10_000).into());
    b.store().put("blob", blob(10_000).into());
    let mut client = Client::connect(a.addr())
        .unwrap()
        .timeout(Duration::from_millis(20));
    assert!(copy(&mut client, b.addr()).unwrap().verified);
    let m = a.metrics();
    if m.netio_backend == "portable" {
        // Its reactor wait can only sleep, and never for more than a
        // millisecond: nothing to tell apart.
        return;
    }
    let wakes = |m: &blast_node::metrics::NodeMetrics| m.io.timeouts + m.io.wakeups;
    let before = wakes(&m);
    std::thread::sleep(Duration::from_millis(300));
    let idle = wakes(&a.metrics()) - before;
    assert!(idle < 100, "{idle} wakeups in 300 ms of idle");
    a.shutdown().unwrap();
    b.shutdown().unwrap();
}

/// A destination nothing can be sent to fails the copy at once, not
/// after a session timeout of handshake retries, and leaves the node
/// serving.
#[test]
fn a_copy_to_port_zero_or_broadcast_is_refused_at_submit() {
    let session_timeout = Duration::from_millis(800);
    let a = NodeBuilder::new()
        .timeout(Duration::from_millis(20))
        .session_timeout(session_timeout)
        .start()
        .expect("start node");
    a.store().put("blob", blob(10_000).into());
    let mut client = Client::connect(a.addr())
        .unwrap()
        .timeout(Duration::from_millis(20));
    for dest in ["127.0.0.1:0", "255.255.255.255:9"] {
        let started = std::time::Instant::now();
        let err = client.copy_to("blob", dest.parse().unwrap()).unwrap_err();
        let elapsed = started.elapsed();
        assert_eq!(err.kind(), std::io::ErrorKind::Other, "{dest}: {err}");
        assert!(err.to_string().contains("transfer failed"), "{dest}: {err}");
        assert!(elapsed < session_timeout / 4, "{dest}: {elapsed:?}");
    }
    client.push("after", &blob(20_000)).unwrap();
    assert!(a.wait_idle(Duration::from_secs(5)), "the push was stored");
    assert_eq!(&a.store().get("after").unwrap()[..], &blob(20_000)[..]);
    let ma = a.shutdown().unwrap();
    assert_eq!((ma.copies_failed, ma.copy_handshake_retx), (2, 0));
}

/// Copies through a sharded node: each client's submit lands on
/// whichever shard its own socket hashes to, and that shard's legs
/// must hear the remote's replies on its own egress socket — never on
/// the shared `SO_REUSEPORT` address, whose hash would hand them to a
/// sibling.  Where `SO_REUSEPORT` groups are unavailable the node runs
/// one shard and the copies still have to complete.
#[test]
fn copies_through_a_sharded_node() {
    let a = NodeBuilder::new()
        .timeout(Duration::from_millis(20))
        .shards(4)
        .start()
        .expect("start node");
    assert!(
        a.shards() == 4 || !sockopt::reuseport_supported(),
        "Linux must give us the full group, got {} shards",
        a.shards()
    );
    let b = node();
    let (a_addr, b_addr) = (a.addr(), b.addr());
    let clients: Vec<_> = (0..8)
        .map(|i| {
            let data = blob(30_000 + 1_000 * i);
            b.store().put(&format!("from-b-{i}"), data.clone().into());
            std::thread::spawn(move || {
                let mut client = Client::connect(a_addr)
                    .unwrap()
                    .timeout(Duration::from_millis(20));
                let name = format!("to-b-{i}");
                client.push(&name, &data).unwrap();
                assert!(client.copy_to(&name, b_addr).unwrap().verified);
                let name = format!("from-b-{i}");
                assert!(client.copy_from(&name, b_addr).unwrap().verified);
                assert_eq!(client.pull(&name).unwrap().data, data);
            })
        })
        .collect();
    for client in clients {
        client.join().expect("every copy verified");
    }
    let ma = a.shutdown().unwrap();
    assert_eq!((ma.copies_completed, ma.copies_failed), (16, 0));
    b.shutdown().unwrap();
}

#[test]
fn copy_id_may_equal_a_live_inbound_transfer_id() {
    let a = node();
    let b = node();
    let data = blob(1_500_000);
    a.store().put("big", data.clone().into());

    // Session 7 on A: a 1.5 MB pull.  Its entry is in A's table from
    // the accept until the last ack, so it is live when the copy below
    // — also id 7, on the same (only) shard — is submitted.
    let addr = a.addr();
    let puller = std::thread::spawn(move || {
        Client::connect(addr)
            .unwrap()
            .timeout(Duration::from_millis(20))
            .transfer_ids_from(7)
            .pull("big")
            .unwrap()
    });
    while a.metrics().sessions_accepted == 0 {
        std::thread::yield_now();
    }
    let report = Client::connect(a.addr())
        .unwrap()
        .timeout(Duration::from_millis(20))
        .transfer_ids_from(7)
        .copy_to("big", b.addr())
        .unwrap();
    assert_eq!(report.copy_id, 7);
    assert_eq!(report.state, CopyState::Done);
    assert!(report.verified);

    assert_eq!(puller.join().unwrap().data, data, "session 7 byte-exact");
    let replica = Client::connect(b.addr())
        .unwrap()
        .timeout(Duration::from_millis(20))
        .pull("big")
        .unwrap();
    assert_eq!(replica.data, data, "copy 7 byte-exact");

    assert!(a.wait_idle(Duration::from_secs(5)), "tail ack drained");
    let ma = a.shutdown().unwrap();
    assert_eq!((ma.sessions_completed, ma.sessions_failed), (1, 0));
    assert_eq!((ma.copies_completed, ma.copies_failed), (1, 0));
    b.shutdown().unwrap();
}

// ---------------------------------------------------------------------
// The outbound leg of a pull copy against a remote that is not a node
// but a script: a bare socket that echoes the leg's pull `Request` and
// sends framed data packets by hand, so the test decides what the leg
// hears and sees everything it says.

use std::net::{SocketAddr, UdpSocket};

use blast_udp::copy::{BlobDigest, CopyMsg};
use blast_udp::fcs;
use blast_udp::handshake::Request;
use blast_wire::ack::AckPayload;
use blast_wire::checksum::crc32;
use blast_wire::header::PacketKind;
use blast_wire::packet::{Datagram, DatagramBuilder};

const SCRIPT_PATIENCE: Duration = Duration::from_secs(3);

/// The remote end of one pull copy, scripted.
struct ScriptedRemote {
    socket: UdpSocket,
    /// The copying node's outbound leg.
    leg: SocketAddr,
    /// The copy's id: the leg's transfer id.
    id: u32,
    payload: usize,
}

impl ScriptedRemote {
    /// Wait for the leg's pull request and echo it, announcing
    /// `announce` bytes.
    fn accept(socket: UdpSocket, announce: usize) -> Self {
        socket.set_read_timeout(Some(SCRIPT_PATIENCE)).unwrap();
        let mut buf = [0u8; 2048];
        let (n, leg) = socket.recv_from(&mut buf).expect("the leg's request");
        let body = fcs::unframe(&buf[..n]).expect("the leg frames its request");
        let dgram = Datagram::parse(&buf[..body]).unwrap();
        assert_eq!(dgram.kind, PacketKind::Request);
        let mut echo = Request::decode(dgram.payload).unwrap();
        echo.len = announce;
        let id = dgram.transfer_id;
        socket
            .send_to(&fcs::frame(&echo.build_datagram(id)), leg)
            .unwrap();
        ScriptedRemote {
            socket,
            leg,
            id,
            payload: echo.packet_payload,
        }
    }

    /// Send packet `seq` of `blob` to the leg.
    fn send_packet(&self, blob: &[u8], seq: usize) {
        let framed = self.packet(blob, seq);
        self.socket.send_to(&framed, self.leg).unwrap();
    }

    /// Packet `seq` of `blob`, framed.
    fn packet(&self, blob: &[u8], seq: usize) -> Vec<u8> {
        let total = blob.len().div_ceil(self.payload);
        let chunk = blob.chunks(self.payload).nth(seq).unwrap();
        let mut buf = vec![0u8; 2048];
        let n = DatagramBuilder::new(self.id)
            .build_data(
                &mut buf,
                seq as u32,
                total as u32,
                (seq * self.payload) as u32,
                chunk,
                0,
                seq + 1 == total,
            )
            .unwrap();
        fcs::frame(&buf[..n])
    }

    /// The next datagram that is not a duplicate of the leg's request:
    /// who sent it, and its verified bytes.  `None` once `wait` passes
    /// in silence.
    fn recv(&self, wait: Duration) -> Option<(SocketAddr, Vec<u8>)> {
        self.socket.set_read_timeout(Some(wait)).unwrap();
        let mut buf = [0u8; 2048];
        loop {
            let (n, from) = self.socket.recv_from(&mut buf).ok()?;
            let body = fcs::unframe(&buf[..n]).expect("nodes and clients frame");
            if Datagram::parse(&buf[..body]).unwrap().kind != PacketKind::Request {
                return Some((from, buf[..body].to_vec()));
            }
        }
    }
}

fn scripted_remote() -> (UdpSocket, SocketAddr) {
    let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    let addr = socket.local_addr().unwrap();
    (socket, addr)
}

/// §3.2.2 on the copy leg: the remote never hears the leg's final ack,
/// retransmits its tail, and is answered again — after the copy has
/// already reported `Done`.
#[test]
fn pull_copy_leg_answers_a_retransmitted_tail_after_completion() {
    let a = node();
    let data = blob(2_500);
    let (socket, remote_addr) = scripted_remote();
    let served = data.clone();
    let remote = std::thread::spawn(move || {
        let remote = ScriptedRemote::accept(socket, served.len());
        let packets = served.len().div_ceil(remote.payload);
        for seq in 0..packets {
            remote.send_packet(&served, seq);
        }
        // Acks from the leg; the orchestrating client's digest query
        // arrives on the same socket and is answered in passing.
        let (mut acks, mut digested) = (0, false);
        while acks < 2 || !digested {
            let (from, bytes) = remote
                .recv(SCRIPT_PATIENCE)
                .unwrap_or_else(|| panic!("silence after {acks} ack(s) from the leg"));
            let dgram = Datagram::parse(&bytes).unwrap();
            match dgram.kind {
                PacketKind::Ack => {
                    assert_eq!((from, dgram.transfer_id), (remote.leg, remote.id));
                    assert!(matches!(dgram.ack, Some(AckPayload::Positive { .. })));
                    acks += 1;
                    if acks == 1 {
                        // "Lost": say the tail again.
                        remote.send_packet(&served, packets - 1);
                    }
                }
                PacketKind::Copy => {
                    assert!(matches!(
                        CopyMsg::decode(dgram.payload),
                        Some(CopyMsg::Digest { .. })
                    ));
                    let reply = CopyMsg::DigestReply(BlobDigest {
                        found: true,
                        len: served.len() as u64,
                        crc32: crc32(&served),
                    })
                    .encode();
                    let mut buf = vec![0u8; 256];
                    let n = DatagramBuilder::new(dgram.transfer_id)
                        .build_copy(&mut buf, dgram.seq, &reply)
                        .unwrap();
                    remote.socket.send_to(&fcs::frame(&buf[..n]), from).unwrap();
                    digested = true;
                }
                other => panic!("the scripted remote got a {other:?}"),
            }
        }
    });

    let mut client = Client::connect(a.addr())
        .unwrap()
        .timeout(Duration::from_millis(20))
        .patience(SCRIPT_PATIENCE);
    let report = client.copy_from("scripted", remote_addr).unwrap();
    assert_eq!(report.state, CopyState::Done);
    assert!(report.verified);
    assert_eq!(&a.store().get("scripted").unwrap()[..], &data[..]);
    remote.join().expect("the tail was answered twice");

    let ma = a.shutdown().unwrap();
    assert_eq!((ma.copies_completed, ma.copies_failed), (1, 0));
}

/// The echo of a pull is a size announcement, and the leg's receive
/// buffer an eager allocation: one past the node's bound fails the copy
/// by name, and no engine is ever built to hear the data that follows.
#[test]
fn pull_copy_refuses_an_echo_announcing_more_than_the_transfer_bound() {
    const BOUND: usize = 64 * 1024;
    let a = NodeBuilder::new()
        .timeout(Duration::from_millis(20))
        .max_transfer_bytes(BOUND)
        .start()
        .expect("start node");
    let (socket, remote_addr) = scripted_remote();
    let remote = std::thread::spawn(move || {
        let remote = ScriptedRemote::accept(socket, BOUND + 1);
        // A receiver, had one been built, would report the holes in
        // front of a tail packet.
        let claimed = vec![0u8; BOUND + 1];
        remote.send_packet(&claimed, claimed.len().div_ceil(remote.payload) - 1);
        let heard = remote.recv(Duration::from_millis(200));
        assert!(heard.is_none(), "the leg answered: {heard:?}");
    });

    let mut client = Client::connect(a.addr())
        .unwrap()
        .timeout(Duration::from_millis(20))
        .patience(SCRIPT_PATIENCE);
    let err = client.copy_from("too-big", remote_addr).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::Other, "{err}");
    assert!(err.to_string().contains("transfer failed"), "{err}");
    remote.join().expect("no engine heard the data");

    assert!(!a.store().contains("too-big"));
    let ma = a.shutdown().unwrap();
    assert_eq!((ma.copies_completed, ma.copies_failed), (0, 1));
}

/// The leg's address is an egress socket any host can reach, shared by
/// every copy on the shard: a datagram carrying the copy's id from
/// anyone but the copy's remote must not reach the leg's engine.
#[test]
fn a_stranger_cannot_drive_a_copy_leg() {
    let a = node();
    let data = blob(2_500);
    let (socket, remote_addr) = scripted_remote();
    let mut client = Client::connect(a.addr())
        .unwrap()
        .timeout(Duration::from_millis(20))
        .patience(SCRIPT_PATIENCE);
    std::thread::scope(|scope| {
        let a = &a;
        let served = data.clone();
        let remote = scope.spawn(move || {
            let remote = ScriptedRemote::accept(socket, served.len());
            // A forged first packet, which a receiver that took it
            // would keep in place of the real one.
            let stranger = UdpSocket::bind("127.0.0.1:0").unwrap();
            let forged = remote.packet(&vec![0xEE; served.len()], 0);
            stranger.send_to(&forged, remote.leg).unwrap();
            let deadline = std::time::Instant::now() + SCRIPT_PATIENCE;
            while a.metrics().unroutable == 0 {
                assert!(std::time::Instant::now() < deadline, "forgery unseen");
                std::thread::sleep(Duration::from_millis(1));
            }
            for seq in 0..served.len().div_ceil(remote.payload) {
                remote.send_packet(&served, seq);
            }
            // The leg's final ack, and the client's digest query.
            let (mut acked, mut digested) = (false, false);
            while !(acked && digested) {
                let (from, bytes) = remote.recv(SCRIPT_PATIENCE).expect("the leg went silent");
                let dgram = Datagram::parse(&bytes).unwrap();
                match dgram.kind {
                    PacketKind::Ack => {
                        acked |= matches!(dgram.ack, Some(AckPayload::Positive { .. }));
                    }
                    PacketKind::Copy => {
                        let reply = CopyMsg::DigestReply(BlobDigest {
                            found: true,
                            len: served.len() as u64,
                            crc32: crc32(&served),
                        })
                        .encode();
                        let mut buf = vec![0u8; 256];
                        let n = DatagramBuilder::new(dgram.transfer_id)
                            .build_copy(&mut buf, dgram.seq, &reply)
                            .unwrap();
                        remote.socket.send_to(&fcs::frame(&buf[..n]), from).unwrap();
                        digested = true;
                    }
                    other => panic!("the scripted remote got a {other:?}"),
                }
            }
        });
        let report = client.copy_from("scripted", remote_addr).unwrap();
        assert_eq!(report.state, CopyState::Done);
        assert!(report.verified);
        remote.join().expect("the remote was answered");
    });
    assert_eq!(&a.store().get("scripted").unwrap()[..], &data[..]);
    let ma = a.shutdown().unwrap();
    assert_eq!(ma.unroutable, 1, "the forged packet");
    assert_eq!((ma.copies_completed, ma.copies_failed), (1, 0));
}
