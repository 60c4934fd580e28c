//! What a client does with input no well-behaved node would send.

use std::io;
use std::net::UdpSocket;
use std::time::Duration;

use blast_node::Client;
use blast_udp::fcs;
use blast_udp::handshake::Request;
use blast_wire::packet::Datagram;

/// A responder that answers a pull by announcing an absurd length is
/// refused by name, before anything is allocated for it.
#[test]
fn pull_refuses_an_echo_announcing_more_than_the_transfer_bound() {
    let responder = UdpSocket::bind("127.0.0.1:0").unwrap();
    let addr = responder.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let mut buf = [0u8; 2048];
        let (n, from) = responder.recv_from(&mut buf).unwrap();
        let body = fcs::unframe(&buf[..n]).expect("client frames its request");
        let dgram = Datagram::parse(&buf[..body]).unwrap();
        let mut echo = Request::decode(dgram.payload).unwrap();
        echo.len = (u64::MAX >> 8) as usize;
        let echo = fcs::frame(&echo.build_datagram(dgram.transfer_id));
        responder.send_to(&echo, from).unwrap();
    });
    let err = Client::connect(addr)
        .unwrap()
        .patience(Duration::from_secs(5))
        .pull("anything")
        .unwrap_err();
    fake.join().unwrap();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("transfer bound"), "{err}");
}
