//! What a live third-party copy costs its node in file descriptors.
//!
//! Every copy leg on a shard shares one egress socket per address
//! family, so many copies in flight hold no descriptor of their own.
//! The test counts `/proc/self/fd`, so it lives alone in this file: no
//! sibling test may open or close descriptors while it counts.
#![cfg(target_os = "linux")]

use std::net::UdpSocket;
use std::time::Duration;

use blast_node::server::NodeBuilder;
use blast_udp::copy::{CopyMode, CopyMsg, CopyState, CopySubmit};
use blast_udp::fcs;
use blast_wire::packet::{Datagram, DatagramBuilder};

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

/// 64 push copies toward a port nobody listens on, all handshaking at
/// once: together they add the egress socket and nothing else.  Its
/// backend opens no descriptor (a wait is one `ppoll` over the shard's
/// sockets), and no copy holds one of its own.
#[test]
fn live_copies_hold_no_descriptors_of_their_own() {
    const COPIES: u32 = 64;
    let node = NodeBuilder::new()
        .timeout(Duration::from_millis(20))
        .start()
        .expect("start node");
    node.store().put("blob", vec![7u8; 10_000].into());
    // A port nobody listens on: bound once so it is ours, then closed.
    let dead = UdpSocket::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    let orchestrator = UdpSocket::bind("127.0.0.1:0").unwrap();
    orchestrator
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let before = open_fds();

    for id in 1..=COPIES {
        let submit = CopyMsg::Submit(CopySubmit {
            mode: CopyMode::Push,
            remote: dead,
            epoch_ns: 0,
            name: "blob".into(),
        })
        .encode();
        let mut buf = vec![0u8; 256];
        let n = DatagramBuilder::new(id)
            .build_copy(&mut buf, 0, &submit)
            .unwrap();
        orchestrator
            .send_to(&fcs::frame(&buf[..n]), node.addr())
            .unwrap();
        let n = orchestrator
            .recv(&mut buf)
            .expect("the node's status reply");
        let body = fcs::unframe(&buf[..n]).expect("framed");
        let reply = Datagram::parse(&buf[..body]).unwrap();
        let Some(CopyMsg::Status(status)) = CopyMsg::decode(reply.payload) else {
            panic!("copy {id}: not a status reply");
        };
        assert_eq!(
            (reply.transfer_id, status.state),
            (id, CopyState::Handshaking)
        );
    }
    // Each status reply left after its copy's leg was built.
    let added = open_fds() - before;
    assert!(added <= 1, "{COPIES} live copies added {added} descriptors");

    let m = node.shutdown().unwrap();
    assert_eq!(m.copies_requested, u64::from(COPIES));
}
