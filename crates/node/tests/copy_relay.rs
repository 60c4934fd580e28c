//! End-to-end third-party copy: a client instructs node A to move a
//! named blob directly to/from node B — the bytes never cross the
//! client — and a 1→3 fan-out replicates one source blob to three
//! nodes with per-replica reports.  Every replica is byte-verified by
//! pulling the blob back out, and both nodes' flight recorders must
//! show the transfer actually ran where the protocol says it did.

use std::time::Duration;

use blast_node::server::NodeBuilder;
use blast_node::{Client, NodeHandle};
use blast_telemetry::{EventKind, Recorder};
use blast_udp::copy::CopyState;

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
