//! Short sessions in quick succession: `max_sessions` bounds the
//! sessions in progress, not the rate at which short ones come and go.
//!
//! A finished session used to keep its slot through its whole linger
//! window, which capped a shard at `max_sessions / linger` sessions a
//! second (4 096 with the defaults) however little each one held — a
//! ceiling only a benchmark run ever hit, with every operation past it
//! refused as "busy".

use std::net::UdpSocket;
use std::time::{Duration, Instant};

use blast_core::ProtocolConfig;
use blast_node::server::NodeBuilder;
use blast_node::Client;
use blast_udp::fcs;
use blast_udp::handshake::Request;
use blast_wire::header::PacketKind;
use blast_wire::packet::Datagram;

fn payload(seed: usize) -> Vec<u8> {
    (0..4096usize)
        .map(|i| (i.wrapping_mul(13) ^ seed) as u8)
        .collect()
}

#[test]
fn back_to_back_pairs_outnumber_the_session_cap_inside_one_linger_window() {
    let linger = Duration::from_secs(20);
    let node = NodeBuilder::new()
        .max_sessions(8)
        .linger(linger)
        .start()
        .unwrap();
    let mut client = Client::connect(node.addr())
        .unwrap()
        .patience(Duration::from_secs(5));
    let started = Instant::now();
    for pair in 0..200 {
        let name = format!("blob-{}", pair % 4);
        let data = payload(pair);
        client.push(&name, &data).unwrap();
        assert_eq!(client.pull(&name).unwrap().data, data, "pair {pair}");
    }
    assert!(
        started.elapsed() < linger,
        "all 400 sessions finished inside one linger window: {:?}",
        started.elapsed()
    );
    assert!(node.wait_idle(Duration::from_secs(5)));
    let m = node.shutdown().unwrap();
    assert_eq!(m.rejected_busy, 0);
    assert_eq!((m.sessions_completed, m.sessions_failed), (400, 0));
}

#[test]
fn the_cap_still_refuses_a_ninth_unfinished_session() {
    let node = NodeBuilder::new().max_sessions(8).start().unwrap();
    let cfg = ProtocolConfig::default();
    // Nine pushes announced, no data sent: nine sessions that never
    // finish.  Each gets an echo, bar the ninth, which is cancelled.
    let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    socket.connect(node.addr()).unwrap();
    socket
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut answers = Vec::new();
    for id in 1..=9u32 {
        let request = Request::push(50_000, &cfg, false).with_name("never");
        socket
            .send(&fcs::frame(&request.build_datagram(id)))
            .unwrap();
        let mut buf = [0u8; 2048];
        let n = socket.recv(&mut buf).expect("an answer per request");
        let body = fcs::unframe(&buf[..n]).unwrap();
        let dgram = Datagram::parse(&buf[..body]).unwrap();
        answers.push((dgram.transfer_id, dgram.kind));
    }
    let mut want: Vec<_> = (1..=8).map(|id| (id, PacketKind::Request)).collect();
    want.push((9, PacketKind::Cancel));
    assert_eq!(answers, want);
    let m = node.shutdown().unwrap();
    assert_eq!((m.sessions_accepted, m.rejected_busy), (8, 1));
}
