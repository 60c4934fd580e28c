//! A completed push moves its receive buffer into the store, and the
//! blob it displaces — once nothing reads it any more — receives the
//! next push of the same length without being zero-filled.  Two things
//! must then hold: no stored blob ever shows a recycled buffer's old
//! bytes, and no buffer anyone can still read is ever received into.

use std::io;
use std::time::{Duration, Instant};

use blast_node::server::{NodeBuilder, NodeHandle};
use blast_node::{Client, SharedStore};
use blast_udp::channel::{Channel, UdpChannel};
use blast_udp::fault::{FaultConfig, FaultyChannel};
use blast_udp::peer::TransferReport;

const BLOB: usize = 256 * 1024;
const NAME: &str = "recycled";

fn one_shard_node() -> NodeHandle {
    NodeBuilder::new()
        .shards(1)
        .timeout(Duration::from_millis(15))
        .session_timeout(Duration::from_secs(1))
        .start()
        .unwrap()
}

/// A client whose transfer ids start at `first_id`: clients on other
/// ports must not reuse an id the node still answers for.
fn client(node: &NodeHandle, first_id: u32) -> Client<UdpChannel> {
    Client::connect(node.addr())
        .unwrap()
        .timeout(Duration::from_millis(15))
        .patience(Duration::from_secs(10))
        .transfer_ids_from(first_id)
}

fn pattern(seed: usize) -> Vec<u8> {
    (0..BLOB)
        .map(|i| (i.wrapping_mul(131) ^ seed.wrapping_mul(7)) as u8)
        .collect()
}

/// Push `data` as `NAME` and wait until the node has committed it: a
/// client can hear the final acknowledgement before the node's session
/// is booked.
fn push<C: Channel>(node: &NodeHandle, client: &mut Client<C>, data: &[u8]) -> TransferReport {
    let report = client.push(NAME, data).unwrap();
    assert!(
        node.wait_idle(Duration::from_secs(5)),
        "the push was booked"
    );
    report
}

/// Where the stored blob's bytes live.  The `Arc` is dropped at once,
/// so the read does not keep the blob from being recycled.
fn address(store: &SharedStore) -> usize {
    store.get(NAME).expect("a stored blob").as_ptr() as usize
}

fn stored(store: &SharedStore) -> Vec<u8> {
    store.get(NAME).expect("a stored blob").to_vec()
}

/// Passes the first `left` datagrams the client sends, then loses the
/// rest: the peer walks away in the middle of a transfer.
struct Cut {
    inner: UdpChannel,
    left: usize,
}

impl Channel for Cut {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        if self.left == 0 {
            return Ok(());
        }
        self.left -= 1;
        self.inner.send(frame)
    }

    fn recv_timeout(&mut self, buf: &mut [u8], timeout: Duration) -> io::Result<Option<usize>> {
        self.inner.recv_timeout(buf, timeout)
    }
}

#[test]
fn a_recycled_buffer_never_shows_its_old_bytes() {
    let node = one_shard_node();
    let store = node.store();
    let inner = UdpChannel::connect("127.0.0.1:0".parse().unwrap(), node.addr()).unwrap();
    let lossy = FaultyChannel::new(inner, FaultConfig::loss(0.05), 0x5EED);
    let mut lossy = Client::over(lossy)
        .timeout(Duration::from_millis(15))
        .patience(Duration::from_secs(10));

    // Two pushes of A: the second displaces the first, whose buffer —
    // every byte 0xAA — becomes the spare.
    let a = vec![0xAAu8; BLOB];
    push(&node, &mut lossy, &a);
    let first = address(&store);
    push(&node, &mut lossy, &a);

    // B lands in A's old buffer under 5 % loss: its holes stay open
    // over 0xAA bytes until retransmission fills them.
    let b = vec![0x55u8; BLOB];
    let report = push(&node, &mut lossy, &b);
    assert!(report.stats.data_packets_retransmitted > 0, "B had holes");
    assert_eq!(address(&store), first, "B was received into A's buffer");
    assert!(stored(&store) == b, "the store holds B byte for byte");

    // A push of the same length, abandoned part-way, lands in the
    // displaced second A and never completes.
    let m = node.metrics();
    let cut = Cut {
        inner: UdpChannel::connect("127.0.0.1:0".parse().unwrap(), node.addr()).unwrap(),
        left: 8,
    };
    let mut quitter = Client::over(cut)
        .timeout(Duration::from_millis(15))
        .patience(Duration::from_millis(300))
        .transfer_ids_from(100);
    assert!(quitter.push(NAME, &pattern(1)).is_err());
    let deadline = Instant::now() + Duration::from_secs(5);
    while node.metrics().sessions_failed == m.sessions_failed {
        assert!(Instant::now() < deadline, "the session timed out");
        std::thread::sleep(Duration::from_millis(5));
    }
    let after = node.metrics();
    let failed = after.reports.iter().rev().find(|r| !r.ok).unwrap();
    assert!(
        failed.stats.data_packets_received > 0,
        "it placed some data"
    );
    assert!(stored(&store) == b, "an abandoned push leaves B in place");

    // The next complete push stores exactly its own bytes.
    let c = pattern(2);
    push(&node, &mut client(&node, 200), &c);
    assert!(stored(&store) == c, "the store holds C byte for byte");
    node.shutdown().unwrap();
}

#[test]
fn the_commit_is_a_move_and_a_blob_being_read_is_never_recycled() {
    let node = one_shard_node();
    let store = node.store();
    let mut client = client(&node, 1);

    // The third push receives into the buffer the first one committed,
    // displaced by the second: every commit moved, none copied.
    push(&node, &mut client, &pattern(1));
    let first = address(&store);
    push(&node, &mut client, &pattern(2));
    let second = address(&store);
    push(&node, &mut client, &pattern(3));
    assert_eq!(
        address(&store),
        first,
        "the third blob sits where the first did"
    );

    // A reader holds the third blob across two more pushes.  The fourth
    // receives into the spare (the second's buffer) and displaces the
    // held blob, which must not become the spare ...
    let held = store.get(NAME).unwrap();
    push(&node, &mut client, &pattern(4));
    assert_eq!(address(&store), second);
    // ... so the fifth allocates fresh instead of receiving into it.
    push(&node, &mut client, &pattern(5));
    let fifth = address(&store);
    assert_ne!(
        fifth,
        held.as_ptr() as usize,
        "a blob being read was recycled"
    );
    assert_ne!(fifth, second);
    assert!(
        held[..] == pattern(3)[..],
        "the held blob stayed byte-exact"
    );
    assert!(stored(&store) == pattern(5));

    // A push of another length drops the spare (the fourth blob's
    // buffer) and allocates: a shorter blob never keeps a longer
    // buffer's capacity.
    let short = &pattern(6)[..BLOB / 2];
    push(&node, &mut client, short);
    let blob = store.get(NAME).unwrap();
    assert_eq!(blob.capacity(), BLOB / 2);
    assert!(blob[..] == short[..]);
    node.shutdown().unwrap();
}
