//! The per-packet cost ledger: each layer's public call timed in
//! isolation, the paper's own method (per-packet copy and wire costs
//! first, protocols second) applied to this stack.
//!
//! Every figure is the median over [`BATCHES`] timed batches.  All of
//! it is taken from outside the program, by calling `pub` items.

use std::hint::black_box;
use std::io;
use std::net::UdpSocket;
use std::sync::Arc;
use std::time::{Duration, Instant};

use blast_core::api::{Action, ActionSink, TimerToken};
use blast_core::blast::{BlastReceiver, BlastSender};
use blast_core::pool::BufferPool;
use blast_core::{AdaptiveTimeout, Engine, PacingConfig, ProtocolConfig};
use blast_node::server::NodeBuilder;
use blast_node::store::shared_store;
use blast_telemetry::{EventKind, Recorder};
use blast_udp::channel::UdpChannel;
use blast_udp::fcs::{self, FcsChannel};
use blast_udp::handshake::{self, Request};
use blast_udp::netio::{self, NetIo};
use blast_udp::sockopt;
use blast_udp::timers::TimerWheel;
use blast_wire::ack::AckPayload;
use blast_wire::checksum::crc32;
use blast_wire::packet::{Datagram, DatagramBuilder};
use blast_wire::HEADER_LEN;

use crate::stats::median;

/// Timed batches per unit cost.
const BATCHES: usize = 41;

/// The workloads' data-packet payload.
const PAYLOAD: usize = crate::workload::PACKET_PAYLOAD;

/// The bulk workloads' transfer size: the engines are timed over one
/// whole such transfer per batch.
const TRANSFER: usize = 4 << 20;

/// Unit costs by metric name.
pub struct Ledger(Vec<(&'static str, f64)>);

impl Ledger {
    pub fn get(&self, name: &str) -> f64 {
        let entry = self.0.iter().find(|(n, _)| *n == name);
        entry.map(|(_, v)| *v).expect("a ledger metric name")
    }

    pub fn entries(&self) -> &[(&'static str, f64)] {
        &self.0
    }
}

/// Median over the batches of `batch()`'s timed duration per unit, in
/// nanoseconds.  `batch` returns what it timed and how many units that
/// covered, so it can keep its own set-up outside the clock.
fn unit_ns(mut batch: impl FnMut() -> (Duration, usize)) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let (took, units) = batch();
            took.as_nanos() as f64 / units.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// Time `iters` calls of `call` per batch.
fn call_ns(iters: usize, mut call: impl FnMut(usize)) -> f64 {
    unit_ns(|| {
        let t0 = Instant::now();
        for i in 0..iters {
            call(i);
        }
        (t0.elapsed(), iters)
    })
}

/// The protocol settings the workloads' engines run with.
fn lan_config() -> ProtocolConfig {
    let cfg = ProtocolConfig {
        packet_payload: PAYLOAD,
        timeout: AdaptiveTimeout::lan(),
        pacing: PacingConfig::lan(),
        ..ProtocolConfig::default()
    };
    cfg.pool.warm(256);
    cfg
}

/// Counts what an engine emits and remembers the timer it armed last,
/// dropping every action at once (so pooled buffers go straight back).
#[derive(Default)]
struct CountingSink {
    transmits: usize,
    armed: Option<TimerToken>,
}

impl ActionSink for CountingSink {
    fn push_action(&mut self, action: Action) {
        match action {
            Action::Transmit(_) => self.transmits += 1,
            Action::SetTimer { token, .. } => self.armed = Some(token),
            Action::CancelTimer { .. } | Action::Complete(_) => {}
        }
    }
}

/// Which NetIo tier a socket pair runs.
#[derive(Clone, Copy, PartialEq)]
enum Tier {
    Portable,
    Batched,
    Offload,
}

/// Send and receive cost per datagram over a connected loopback pair:
/// `queue` × 64 + `flush` on one side, `fill` + `pop_into` on the other.
fn netio_ns(tier: Tier) -> io::Result<(f64, f64)> {
    const BURST: usize = 64;
    let a = UdpSocket::bind("127.0.0.1:0")?;
    let b = UdpSocket::bind("127.0.0.1:0")?;
    sockopt::grow_buffers(&a);
    sockopt::grow_buffers(&b);
    a.connect(b.local_addr()?)?;
    b.connect(a.local_addr()?)?;
    let (mut tx, mut rx) = match tier {
        Tier::Portable => {
            a.set_nonblocking(true)?;
            b.set_nonblocking(true)?;
            (NetIo::portable(true), NetIo::portable(true))
        }
        Tier::Batched | Tier::Offload => {
            netio::set_offload_enabled(tier == Tier::Offload);
            (NetIo::connected(&a), NetIo::connected(&b))
        }
    };
    let frame = vec![0x5Au8; HEADER_LEN + PAYLOAD + 4];
    let mut buf = vec![0u8; blast_udp::channel::MAX_DATAGRAM];
    let mut sends = Vec::with_capacity(BATCHES);
    let mut recvs = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        for _ in 0..BURST {
            tx.queue(&a, &frame)?;
        }
        tx.flush(&a)?;
        sends.push(t0.elapsed().as_nanos() as f64 / BURST as f64);

        let t1 = Instant::now();
        let mut got = 0usize;
        while got < BURST {
            if rx.pop_into(&mut buf).is_some() {
                got += 1;
            } else if rx.fill(&b)? == 0 && t1.elapsed() > Duration::from_millis(200) {
                break; // a datagram the kernel dropped; time what arrived
            }
        }
        recvs.push(t1.elapsed().as_nanos() as f64 / got.max(1) as f64);
    }
    Ok((median(&sends), median(&recvs)))
}

/// Latency of `handshake::initiate` (request → echo) against an idle
/// node, in microseconds.  Each handshake opens a one-packet push
/// session that never receives data; the node is shut down afterwards.
fn handshake_us() -> io::Result<f64> {
    let node = NodeBuilder::new().start()?;
    let local = "127.0.0.1:0".parse().expect("literal addr");
    let mut channel = FcsChannel::new(UdpChannel::connect(local, node.addr())?);
    let cfg = lan_config();
    let request = Request::push(PAYLOAD, &cfg, false).with_name("ledger");
    let mut samples = Vec::with_capacity(BATCHES);
    for id in 1..=BATCHES as u32 {
        let t0 = Instant::now();
        handshake::initiate(
            &mut channel,
            id,
            &request,
            Duration::from_millis(25),
            Duration::from_secs(5),
        )?;
        samples.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    node.shutdown()?;
    Ok(median(&samples))
}

/// Drive a fresh sender through one whole paced transfer, firing its
/// pace timer back to back; returns the time taken and the data
/// packets it emitted.
fn drive_sender(data: &Arc<[u8]>, cfg: &ProtocolConfig) -> (Duration, usize) {
    let total = cfg.packets_for(data.len()) as usize;
    let mut engine = BlastSender::new(1, Arc::clone(data), cfg);
    let engine: &mut dyn Engine = &mut engine;
    let mut sink = CountingSink::default();
    let t0 = Instant::now();
    engine.start(&mut sink);
    while sink.transmits < total {
        let Some(token) = sink.armed.take() else {
            break;
        };
        engine.on_timer(token, &mut sink);
    }
    (t0.elapsed(), sink.transmits)
}

/// The data packets of one transfer of `data`, as the sender builds
/// them.
fn data_packets(data: &[u8], cfg: &ProtocolConfig) -> Vec<Vec<u8>> {
    let total = cfg.packets_for(data.len());
    let builder = DatagramBuilder::new(1);
    data.chunks(cfg.packet_payload)
        .zip(0u32..)
        .map(|(chunk, seq)| {
            let mut buf = vec![0u8; HEADER_LEN + chunk.len()];
            let offset = seq * cfg.packet_payload as u32;
            builder
                .build_data(&mut buf, seq, total, offset, chunk, 0, seq + 1 == total)
                .expect("buffer sized for the packet");
            buf
        })
        .collect()
}

/// Feed a fresh receiver one whole transfer of pre-parsed datagrams;
/// returns the time taken and whether the engine finished.
fn drive_receiver(parsed: &[Datagram<'_>], bytes: usize, cfg: &ProtocolConfig) -> (Duration, bool) {
    let mut engine = BlastReceiver::new(1, bytes, cfg);
    let engine: &mut dyn Engine = &mut engine;
    let mut sink = CountingSink::default();
    let t0 = Instant::now();
    for dgram in parsed {
        engine.on_datagram(dgram, &mut sink);
    }
    (t0.elapsed(), engine.is_finished())
}

/// Per-data-packet cost of the blast engines, driven through the
/// `Engine` trait into a counting sink, over one bulk transfer per
/// batch.
fn engine_ns() -> (f64, f64) {
    let cfg = lan_config();
    let data: Arc<[u8]> = vec![0xC3u8; TRANSFER].into();
    let sender = unit_ns(|| drive_sender(&data, &cfg));
    let wire = data_packets(&data, &cfg);
    let parsed: Vec<Datagram<'_>> = wire
        .iter()
        .map(|buf| Datagram::parse(buf).expect("just built"))
        .collect();
    let receiver = unit_ns(|| (drive_receiver(&parsed, TRANSFER, &cfg).0, parsed.len()));
    (sender, receiver)
}

/// Time every layer.  Restores the process-wide offload switch to its
/// default (on) before returning, so rigs built afterwards probe as a
/// production node does.
pub fn measure() -> io::Result<Ledger> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();

    let builder = DatagramBuilder::new(7);
    let payload = vec![0xA5u8; PAYLOAD];
    let mut dgram = vec![0u8; HEADER_LEN + PAYLOAD];
    out.push((
        "wire.build_data_ns",
        call_ns(1000, |i| {
            let n = builder.build_data(
                black_box(&mut dgram),
                i as u32,
                2996,
                (i * PAYLOAD) as u32,
                black_box(&payload),
                0,
                false,
            );
            black_box(n.expect("buffer sized for the packet"));
        }),
    ));
    out.push((
        "wire.parse_ns",
        call_ns(1000, |_| {
            black_box(Datagram::parse(black_box(&dgram)).expect("just built"));
        }),
    ));
    let mut ack = [0u8; HEADER_LEN + 16];
    out.push((
        "wire.ack_codec_ns",
        call_ns(1000, |i| {
            let payload = AckPayload::Positive { acked: i as u32 };
            let n = builder
                .build_ack(black_box(&mut ack), 2996, &payload)
                .expect("ack fits");
            black_box(Datagram::parse(&ack[..n]).expect("just built"));
        }),
    ));
    let block = vec![0x3Cu8; 64 * 1024];
    out.push((
        "wire.crc32_ns_per_KB",
        call_ns(8, |_| {
            black_box(crc32(black_box(&block)));
        }) / 64.0,
    ));

    let mut framed = Vec::with_capacity(dgram.len() + 4);
    out.push((
        "udp.fcs_frame_ns",
        call_ns(1000, |_| fcs::frame_into(black_box(&dgram), &mut framed)),
    ));
    out.push((
        "udp.fcs_unframe_ns",
        call_ns(1000, |_| {
            black_box(fcs::unframe(black_box(&framed)).expect("just framed"));
        }),
    ));

    let mut sends = Vec::new();
    let mut recvs = Vec::new();
    for tier in [Tier::Portable, Tier::Batched, Tier::Offload] {
        let costs = netio_ns(tier);
        netio::set_offload_enabled(true);
        let (send, recv) = costs?;
        sends.push(send);
        recvs.push(recv);
    }
    out.push(("udp.netio_send_ns.portable", sends[0]));
    out.push(("udp.netio_send_ns.batched", sends[1]));
    out.push(("udp.netio_send_ns.gso", sends[2]));
    out.push(("udp.netio_recv_ns.portable", recvs[0]));
    out.push(("udp.netio_recv_ns.batched", recvs[1]));
    out.push(("udp.netio_recv_ns.gro", recvs[2]));

    let mut wheel: TimerWheel<u64> = TimerWheel::new();
    out.push((
        "udp.timer_ns",
        unit_ns(|| {
            let t0 = Instant::now();
            for key in 0..1000 {
                wheel.arm(key, Duration::ZERO);
            }
            let now = Instant::now();
            while let Some(key) = wheel.pop_due(now) {
                black_box(key);
            }
            (t0.elapsed(), 1000)
        }),
    ));
    out.push(("udp.handshake_us", handshake_us()?));

    let (sender, receiver) = engine_ns();
    out.push(("core.sender_ns", sender));
    out.push(("core.receiver_ns", receiver));
    let pool = BufferPool::default();
    pool.warm(32);
    out.push((
        "core.pool_ns",
        call_ns(1000, |_| {
            black_box(pool.checkout());
        }),
    ));

    let store = shared_store();
    let blob = vec![0x77u8; TRANSFER];
    out.push((
        "node.store_put_ns_per_KB",
        call_ns(1, |_| store.put("ledger", black_box(&blob).to_vec().into())) / 4096.0,
    ));
    out.push((
        "node.store_get_ns",
        call_ns(1000, |_| {
            black_box(store.get(black_box("ledger")));
        }),
    ));

    let recorder = Recorder::standalone(2048);
    out.push((
        "telemetry.record_ns",
        unit_ns(|| {
            let t0 = Instant::now();
            for i in 0..1000u64 {
                black_box(recorder.record(1, EventKind::BatchSubmit, i, 1));
            }
            let took = t0.elapsed();
            recorder.drain();
            (took, 1000)
        }),
    ));
    Ok(Ledger(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_sink_counts_transmits_and_keeps_the_last_timer() {
        let mut sink = CountingSink::default();
        sink.push_action(Action::Transmit(vec![1, 2, 3].into()));
        sink.push_action(Action::SetTimer {
            token: TimerToken(1),
            after: Duration::from_millis(1),
        });
        sink.push_action(Action::SetTimer {
            token: TimerToken(9),
            after: Duration::from_millis(1),
        });
        sink.push_action(Action::CancelTimer {
            token: TimerToken(9),
        });
        assert_eq!((sink.transmits, sink.armed), (1, Some(TimerToken(9))));
    }

    #[test]
    fn the_engines_move_a_whole_transfer_per_batch() {
        let cfg = lan_config();
        let data: Arc<[u8]> = vec![9u8; 300_000].into();
        let (_, sent) = drive_sender(&data, &cfg);
        assert_eq!(sent, cfg.packets_for(data.len()) as usize);
        let wire = data_packets(&data, &cfg);
        assert_eq!(wire.len(), sent);
        let parsed: Vec<Datagram<'_>> = wire.iter().map(|b| Datagram::parse(b).unwrap()).collect();
        assert!(parsed.last().unwrap().is_last());
        let (_, finished) = drive_receiver(&parsed, data.len(), &cfg);
        assert!(finished, "the receiver saw every packet of the transfer");
    }

    #[test]
    fn netio_tiers_deliver_on_loopback() {
        for tier in [Tier::Portable, Tier::Batched, Tier::Offload] {
            let costs = netio_ns(tier);
            netio::set_offload_enabled(true);
            let (send, recv) = costs.expect("loopback pair");
            assert!(send > 0.0 && recv > 0.0);
        }
    }
}
