//! A receiver's grant is what its socket really holds: a socket set up
//! the way a node's and a client's are (buffers grown, the channel's
//! backend on top), left unread while an unpaced sender fills it with
//! exactly `grant` datagrams of a transfer's frame size, gives every one
//! of them back.  Run on both backends (`BLAST_NETIO=portable` selects
//! the portable one).

use std::time::Duration;

use blast_udp::channel::{Channel, UdpChannel};
use blast_udp::fcs::FCS_LEN;
use blast_udp::grant;
use blast_wire::HEADER_LEN;

/// Fill an unread receiver with its whole grant for `packet_payload`-byte
/// packets in one unpaced burst, then read it back: every datagram,
/// each intact.  Returns the grant, or `None` where the receive buffer
/// cannot be read (no grant is sent there).
fn fill_and_read_back(packet_payload: usize) -> Option<u32> {
    let (mut tx, mut rx) = UdpChannel::pair().unwrap();
    let queue = grant::grant(rx.recv_buffer()?, packet_payload, 1, 0, 0, None)?.queue;
    assert!(queue > 0);
    let len = HEADER_LEN + packet_payload + FCS_LEN;
    let mut datagram = vec![0xA5u8; len];
    for k in 0..queue {
        datagram[..4].copy_from_slice(&k.to_be_bytes());
        tx.stage(&datagram).unwrap();
    }
    tx.flush().unwrap();
    let mut buf = vec![0u8; 64 * 1024];
    let mut next = 0u32;
    while let Some(n) = rx
        .recv_timeout(&mut buf, Duration::from_millis(200))
        .unwrap()
    {
        assert_eq!(n, len, "datagram {next}");
        assert_eq!(buf[..4], next.to_be_bytes(), "in order, none lost");
        assert!(buf[4..n].iter().all(|&b| b == 0xA5));
        next += 1;
    }
    assert_eq!(
        next, queue,
        "the socket held {next} of the {queue} it granted"
    );
    Some(queue)
}

#[test]
fn an_unread_socket_holds_its_whole_grant() {
    // The benchmark's frames (1 444 B), and a default client's (1 060 B).
    for packet_payload in [1408, 1024] {
        if let Some(queue) = fill_and_read_back(packet_payload) {
            println!("{packet_payload}-byte packets: the socket holds {queue}");
        }
    }
}
