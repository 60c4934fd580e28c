//! The batched-backend switch, `netio::set_offload_enabled`.
//!
//! The switch is process-global, so this test lives alone in its file:
//! no sibling test may build a backend while it flips.

use std::net::UdpSocket;
use std::time::{Duration, Instant};

use blast_udp::netio::{set_offload_enabled, BackendKind, NetIo, OffloadState};

fn pair() -> (UdpSocket, UdpSocket) {
    let a = UdpSocket::bind("127.0.0.1:0").unwrap();
    let b = UdpSocket::bind("127.0.0.1:0").unwrap();
    a.connect(b.local_addr().unwrap()).unwrap();
    b.connect(a.local_addr().unwrap()).unwrap();
    (a, b)
}

/// Does the running kernel have `UDP_GRO` (Linux 5.0) and with it
/// `UDP_SEGMENT` (4.18)?
fn kernel_offers_offload() -> bool {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .ok()
        .and_then(|release| release.split('.').next()?.parse::<u32>().ok())
        .is_some_and(|major| major >= 5)
}

#[test]
fn the_switch_picks_what_both_constructors_build() {
    assert_eq!(BackendKind::Portable.name(), "portable");
    assert_eq!(BackendKind::Batched.name(), "batched");

    set_offload_enabled(false);
    let (a, b) = pair();
    let mut tx = NetIo::connected(&a);
    let mut rx = NetIo::connected(&b);
    let server = UdpSocket::bind("127.0.0.1:0").unwrap();
    let reactor = NetIo::reactor(&server);
    for io in [&tx, &rx, &reactor] {
        assert_eq!(io.backend().name(), "portable");
        assert_eq!(io.offload(), OffloadState::Portable);
    }

    // The benchmark ledger's path through a connected portable
    // backend: `queue`/`flush` on one side, `fill`/`pop_into` on the
    // other.
    tx.queue(&a, b"through the switch").unwrap();
    tx.flush(&a).unwrap();
    let mut buf = [0u8; 64];
    let deadline = Instant::now() + Duration::from_secs(2);
    let n = loop {
        if let Some((n, _)) = rx.pop_into(&mut buf) {
            break n;
        }
        if rx.fill(&b).unwrap() == 0 {
            assert!(Instant::now() < deadline, "the datagram never arrived");
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    assert_eq!(&buf[..n], b"through the switch");
    // `fill` on a dry socket polls; were it to block, the read timeout
    // would hold it for a second.
    b.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
    let t0 = Instant::now();
    assert_eq!(rx.fill(&b).unwrap(), 0);
    assert!(t0.elapsed() < Duration::from_millis(500), "fill blocked");

    set_offload_enabled(true);
    let forced = std::env::var("BLAST_NETIO").is_ok_and(|v| v.eq_ignore_ascii_case("portable"));
    let want = if cfg!(netio_batched) && !forced && kernel_offers_offload() {
        (BackendKind::Batched, "gso+gro")
    } else {
        (BackendKind::Portable, "portable")
    };
    let (c, _d) = pair();
    let server = UdpSocket::bind("127.0.0.1:0").unwrap();
    for io in [NetIo::connected(&c), NetIo::reactor(&server)] {
        assert_eq!((io.backend(), io.offload().name()), want);
    }
}
