//! What a client does with input no well-behaved node would send.

use std::io;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

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

// ---------------------------------------------------------------------
// The time-wait record a finished pull leaves on the client's channel
// answers one thing only.  These tests drive a `Client` over an
// in-memory stand-in for a node, so every datagram the client sees or
// sends is scripted or logged.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use blast_udp::channel::Channel;
use blast_udp::timewait::MAX_RECORDS;
use blast_wire::ack::{AckPayload, Bitmap};
use blast_wire::header::PacketKind;
use blast_wire::packet::DatagramBuilder;

const BLOB: usize = 2500; // three packets at the client's default 1 024 B

#[derive(Default)]
struct Wire {
    /// Frames waiting for the client to receive.
    to_client: VecDeque<Vec<u8>>,
    /// Every acknowledgement the client sent: `(transfer id, report)`.
    acks: Vec<(u32, AckPayload)>,
}

impl Wire {
    fn acks_for(&self, id: u32) -> usize {
        self.acks.iter().filter(|(acked, _)| *acked == id).count()
    }
}

/// Serves every pull with [`BLOB`] zero bytes, instantly and without
/// loss, and logs what the client acknowledges.
#[derive(Clone, Default)]
struct FakeNode(Arc<Mutex<Wire>>);

/// Packet `seq` of transfer `id` as the fake node sends it.
fn blob_packet(id: u32, seq: u32, offset: u32, len: usize, last: bool) -> Vec<u8> {
    let mut buf = vec![0u8; 2048];
    let n = DatagramBuilder::new(id)
        .build_data(&mut buf, seq, 3, offset, &vec![0; len], 0, last)
        .unwrap();
    fcs::frame(&buf[..n])
}

/// The reliable tail of transfer `id`: what a node whose final ack was
/// lost retransmits.
fn tail(id: u32) -> Vec<u8> {
    blob_packet(id, 2, 2048, BLOB - 2048, true)
}

impl Channel for FakeNode {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        let body = fcs::unframe(frame).expect("framed");
        let dgram = Datagram::parse(&frame[..body]).expect("well-formed");
        let mut wire = self.0.lock().unwrap();
        match dgram.kind {
            PacketKind::Request => {
                let mut echo = Request::decode(dgram.payload).unwrap();
                echo.len = BLOB;
                let id = dgram.transfer_id;
                wire.to_client
                    .push_back(fcs::frame(&echo.build_datagram(id)));
                wire.to_client.push_back(blob_packet(id, 0, 0, 1024, false));
                wire.to_client
                    .push_back(blob_packet(id, 1, 1024, 1024, false));
                wire.to_client.push_back(tail(id));
            }
            PacketKind::Ack => {
                let report = dgram.ack.clone().expect("acks carry a report");
                wire.acks.push((dgram.transfer_id, report));
            }
            other => panic!("client sent a {other:?}"),
        }
        Ok(())
    }

    fn recv_timeout(&mut self, buf: &mut [u8], _: Duration) -> io::Result<Option<usize>> {
        Ok(self.0.lock().unwrap().to_client.pop_front().map(|frame| {
            buf[..frame.len()].copy_from_slice(&frame);
            frame.len()
        }))
    }
}

/// A client of a fresh [`FakeNode`] whose time-wait records live for
/// `window` (at least 100 ms).
fn fake_node_client(first_id: u32, window: Duration) -> (Client<FakeNode>, FakeNode) {
    let node = FakeNode::default();
    let client = Client::over(node.clone())
        .timeout(window / 4)
        .transfer_ids_from(first_id)
        .patience(Duration::from_secs(2));
    (client, node)
}

#[test]
fn time_wait_answers_the_genuine_tail_and_nothing_hostile() {
    let (mut client, node) = fake_node_client(50, Duration::from_millis(100));
    assert_eq!(client.pull("x").unwrap().data, vec![0; BLOB]);
    assert_eq!(node.0.lock().unwrap().acks_for(50), 1);

    // While transfer 50 sits in time-wait, all of this arrives ahead of
    // the next operation's traffic.
    let mut cancel = [0u8; 64];
    let n = DatagramBuilder::new(50).build_cancel(&mut cancel).unwrap();
    let mut bad_fcs = tail(50);
    *bad_fcs.last_mut().unwrap() ^= 1;
    node.0.lock().unwrap().to_client.extend([
        fcs::frame(b"not a blast datagram at all"),
        fcs::frame(&[0xB1; 40]),                     // magic-ish garbage
        bad_fcs,                                     // right bytes, wrong FCS
        fcs::frame(&cancel[..n]),                    // Cancel for the held id
        tail(999),                                   // a tail for an id never held
        blob_packet(50, 2, 1024, BLOB - 2048, true), // held id, wrong offset
        blob_packet(50, 2, 2048, 100, true),         // held id, wrong length
        blob_packet(50, 1, 1024, 1024, false),       // held id, not a tail
    ]);
    assert_eq!(client.pull("x").unwrap().data, vec![0; BLOB]); // transfer 51
    {
        let wire = node.0.lock().unwrap();
        assert_eq!(wire.acks_for(50), 1, "nothing hostile was answered");
        assert_eq!(wire.acks_for(999), 0);
        assert_eq!(wire.acks.len(), 2, "transfer 51's own ack, nothing more");
    }

    // The one thing it does answer, once per copy received.
    node.0
        .lock()
        .unwrap()
        .to_client
        .extend([tail(50), tail(50)]);
    assert_eq!(client.pull("x").unwrap().data, vec![0; BLOB]); // transfer 52
    let wire = node.0.lock().unwrap();
    assert_eq!(wire.acks_for(50), 3);
    assert!(wire
        .acks
        .iter()
        .all(|(_, report)| *report == AckPayload::Positive { acked: 2 }));
}

#[test]
fn time_wait_records_are_bounded_and_expire() {
    // Bounded, and nothing given up early: the pull after the one that
    // fills the record waits out the oldest record's window before it
    // starts, and the oldest is answered for until then.
    let window = Duration::from_millis(400);
    let (mut client, node) = fake_node_client(1000, window);
    let started = Instant::now();
    for _ in 0..MAX_RECORDS {
        client.pull("x").unwrap();
    }
    let filled = started.elapsed();
    node.0.lock().unwrap().to_client.push_back(tail(1000));
    client.pull("x").unwrap();
    assert!(started.elapsed() >= window);
    assert!(
        filled < window,
        "this test needs {MAX_RECORDS} in-memory pulls inside one window: {filled:?}"
    );
    assert_eq!(node.0.lock().unwrap().acks_for(1000), 2, "still held");

    // Expiring: a record outlives its window (100 ms here) by nothing.
    let (mut client, node) = fake_node_client(7, Duration::from_millis(100));
    client.pull("x").unwrap();
    std::thread::sleep(Duration::from_millis(150));
    node.0.lock().unwrap().to_client.push_back(tail(7));
    client.pull("x").unwrap();
    assert_eq!(node.0.lock().unwrap().acks_for(7), 1);
}

/// A node whose every `Stats` reply reaches the client twice — a
/// duplicating channel, or a node slower than the client's 100 ms
/// query retry — each query answered with its own snapshot.
#[derive(Default)]
struct DoubleStats {
    to_client: VecDeque<Vec<u8>>,
    queries: u32,
}

impl Channel for DoubleStats {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        let body = fcs::unframe(frame).expect("framed");
        let dgram = Datagram::parse(&frame[..body]).expect("well-formed");
        assert_eq!(dgram.kind, PacketKind::Stats);
        self.queries += 1;
        let text = format!("snapshot {}", self.queries);
        let mut buf = vec![0u8; blast_wire::HEADER_LEN + text.len()];
        let n = DatagramBuilder::new(0)
            .build_stats(&mut buf, dgram.seq, text.as_bytes())
            .unwrap();
        let reply = fcs::frame(&buf[..n]);
        self.to_client.extend([reply.clone(), reply]);
        Ok(())
    }

    fn recv_timeout(&mut self, buf: &mut [u8], _: Duration) -> io::Result<Option<usize>> {
        Ok(self.to_client.pop_front().map(|frame| {
            buf[..frame.len()].copy_from_slice(&frame);
            frame.len()
        }))
    }
}

/// The second copy of one query's reply is not the answer to the next.
#[test]
fn stats_skips_a_duplicate_reply_to_an_earlier_query() {
    let mut client = Client::over(DoubleStats::default()).patience(Duration::from_secs(2));
    assert_eq!(client.stats().unwrap(), "snapshot 1");
    assert_eq!(client.stats().unwrap(), "snapshot 2");
}

/// A node that echoes the request and then hears and says nothing.
#[derive(Default)]
struct EchoThenSilence {
    echo: Option<Vec<u8>>,
}

impl Channel for EchoThenSilence {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        let body = fcs::unframe(frame).expect("framed");
        if Datagram::parse(&frame[..body]).unwrap().kind == PacketKind::Request {
            self.echo = Some(frame.to_vec());
        }
        Ok(())
    }

    fn recv_timeout(&mut self, buf: &mut [u8], timeout: Duration) -> io::Result<Option<usize>> {
        let Some(frame) = self.echo.take() else {
            std::thread::sleep(timeout);
            return Ok(None);
        };
        buf[..frame.len()].copy_from_slice(&frame);
        Ok(Some(frame.len()))
    }
}

/// `patience` bounds the whole push, data phase included: a node gone
/// silent after the echo fails the push then, not at some later bound.
#[test]
fn push_times_out_at_patience_when_the_node_goes_silent_after_the_echo() {
    let patience = Duration::from_millis(300);
    let mut client = Client::over(EchoThenSilence::default())
        .timeout(Duration::from_millis(50))
        .patience(patience);
    let retry = blast_udp::handshake::retry_interval(client.protocol());
    let started = Instant::now();
    let err = client.push("x", &[7; BLOB]).unwrap_err();
    let took = started.elapsed();
    assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
    assert!(
        err.to_string().contains("transfer"),
        "after the echo: {err}"
    );
    assert!(took >= patience && took < patience + retry, "{took:?}");
}

// ---------------------------------------------------------------------
// The extension area, garbled on every kind of datagram a node can be
// sent.  One decoder validates every area, so each of these fails the
// datagram before any verb sees it: no panic, no session, no copy, no
// reply.

use blast_node::server::NodeBuilder;
use blast_udp::copy::{CopyMode, CopyMsg, CopySubmit};
use blast_wire::header::{flags, BlastHeader, HEADER_LEN};

/// A grant field: type 1, eight bytes.
const GRANT_FIELD: [u8; 10] = [1, 8, 0, 0, 0, 64, 0, 0, 0, 9];

/// A datagram of `kind` whose payload is `body` then `area` verbatim,
/// with the extension flag set (and the checksum right).
fn with_raw_area(kind: PacketKind, id: u32, body: &[u8], area: &[u8]) -> Vec<u8> {
    let len = body.len() + area.len();
    let mut buf = vec![0u8; HEADER_LEN + len];
    BlastHeader::<&mut [u8]>::clear(&mut buf);
    let mut h = BlastHeader::new_unchecked(&mut buf[..]);
    h.set_kind(kind);
    h.set_transfer_id(id);
    h.set_total(1);
    h.set_payload_len(len as u32);
    if kind == PacketKind::Data {
        h.set_flags(flags::EXT | flags::LAST | flags::RELIABLE);
    } else {
        h.set_flags(flags::EXT);
    }
    h.payload_mut()[..body.len()].copy_from_slice(body);
    h.payload_mut()[body.len()..].copy_from_slice(area);
    h.fill_checksum();
    buf
}

/// Areas that must fail: cut short, overlong and duplicated.
fn garbled_areas() -> Vec<(&'static str, Vec<u8>)> {
    let mut truncated = GRANT_FIELD[..6].to_vec();
    truncated.push(GRANT_FIELD.len() as u8);
    let mut cut_field = GRANT_FIELD[..6].to_vec();
    cut_field.push(6);
    let mut overlong = vec![0u8; 70];
    overlong.push(70);
    let past_payload = vec![200u8];
    let mut duplicated = [GRANT_FIELD, GRANT_FIELD].concat();
    duplicated.push(20);
    let mut wrong_length = vec![1, 4, 0, 0, 0, 1];
    wrong_length.push(6);
    vec![
        ("truncated", truncated),
        ("cut field", cut_field),
        ("overlong", overlong),
        ("past the payload", past_payload),
        ("duplicated", duplicated),
        ("wrong grant length", wrong_length),
    ]
}

#[test]
fn garbled_extension_areas_start_nothing_on_any_kind() {
    let store = blast_node::shared_store();
    store.put("there", vec![3u8; 5000].into());
    let node = NodeBuilder::new().store(store).start().unwrap();
    let cfg = blast_core::ProtocolConfig::lan();
    let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
    let push = Request::push(5000, &cfg, false).with_name("new").encode();
    let pull = Request::pull("there", &cfg).encode();
    let submit = CopyMsg::Submit(CopySubmit {
        mode: CopyMode::Push,
        remote: node.addr(),
        epoch_ns: 0,
        name: "there".into(),
    })
    .encode();
    let mut ack = [0u8; 5];
    AckPayload::Positive { acked: 0 }.encode(&mut ack).unwrap();
    let bodies: [(PacketKind, &[u8]); 7] = [
        (PacketKind::Request, &push),
        (PacketKind::Request, &pull),
        (PacketKind::Copy, &submit),
        (PacketKind::Stats, &[]),
        (PacketKind::Data, &[9; 100]),
        (PacketKind::Ack, &ack),
        (PacketKind::Cancel, &[]),
    ];
    let mut sent = 0;
    for (id, (kind, body)) in (1..).zip(bodies) {
        for (what, area) in garbled_areas() {
            let datagram = with_raw_area(kind, id, body, &area);
            assert!(Datagram::parse(&datagram).is_err(), "{kind} {what}");
            sock.send_to(&fcs::frame(&datagram), node.addr()).unwrap();
            sent += 1;
        }
    }
    // The node answered none of them, and is still serving.
    sock.set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    assert!(sock.recv(&mut [0u8; 64]).is_err(), "nothing is answered");
    let mut client = Client::connect(node.addr()).unwrap();
    assert_eq!(client.pull("there").unwrap().data, vec![3u8; 5000]);
    assert!(node.wait_idle(Duration::from_secs(5)));
    let m = node.metrics();
    assert_eq!(m.malformed, sent);
    assert_eq!((m.sessions_accepted, m.copies_requested), (1, 0));
    node.shutdown().unwrap();
}

// ---------------------------------------------------------------------
// Status reports for a round the sender never sent.  A blast receiver
// echoes, in each report's header, the round of the data packet it
// answers, and a sender acts only on a NACK for its current round.

/// Echoes a push, and answers its reliable tail with four reports that
/// echo round `u16::MAX` (three NACKs and a positive acknowledgement of
/// packet 0 alone) before the genuine positive acknowledgement.
#[derive(Default)]
struct ReportsFromNowhere {
    to_client: VecDeque<Vec<u8>>,
    data_packets: u64,
}

impl ReportsFromNowhere {
    fn report(&mut self, id: u32, round: u16, ack: AckPayload) {
        let mut buf = [0u8; 64];
        let n = DatagramBuilder::new(id)
            .build_status(&mut buf, 3, round, &ack)
            .unwrap();
        self.to_client.push_back(fcs::frame(&buf[..n]));
    }
}

impl Channel for ReportsFromNowhere {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        let body = fcs::unframe(frame).expect("framed");
        let dgram = Datagram::parse(&frame[..body]).expect("well-formed");
        let id = dgram.transfer_id;
        match dgram.kind {
            PacketKind::Request => {
                let echo = Request::decode(dgram.payload).unwrap();
                self.to_client
                    .push_back(fcs::frame(&echo.build_datagram(id)));
            }
            PacketKind::Data => {
                self.data_packets += 1;
                if dgram.is_last() {
                    let all = Bitmap::from_missing(0, 3, 0..3).unwrap();
                    for ack in [
                        AckPayload::NackFull,
                        AckPayload::NackFirstMissing { first_missing: 0 },
                        AckPayload::NackBitmap(all),
                        AckPayload::Positive { acked: 0 },
                    ] {
                        self.report(id, u16::MAX, ack);
                    }
                    self.report(id, 0, AckPayload::Positive { acked: 2 });
                }
            }
            other => panic!("client sent a {other:?}"),
        }
        Ok(())
    }

    fn recv_timeout(&mut self, buf: &mut [u8], timeout: Duration) -> io::Result<Option<usize>> {
        let Some(frame) = self.to_client.pop_front() else {
            std::thread::sleep(timeout);
            return Ok(None);
        };
        buf[..frame.len()].copy_from_slice(&frame);
        Ok(Some(frame.len()))
    }
}

/// Reports echoing a round the sender never sent start no round, end
/// none and trim nothing: the push sends its three packets once and
/// completes on the genuine acknowledgement that follows them.
#[test]
fn reports_for_a_round_never_sent_start_end_and_trim_nothing() {
    let mut client = Client::over(ReportsFromNowhere::default()).patience(Duration::from_secs(2));
    let report = client.push("x", &[7; BLOB]).unwrap();
    let stats = report.stats;
    assert_eq!(stats.acks_received, 5, "{stats:?}");
    assert_eq!(stats.stale_reports, 3, "the NACKs");
    assert_eq!(stats.data_packets_sent, 3, "{stats:?}");
    assert_eq!(stats.retransmission_rounds, 0);
    let pacing = report.pacing.expect("a paced sender");
    assert_eq!(pacing.loss_events, 0, "{pacing:?}");
    assert_eq!(pacing.clean_rounds, 1);
}
