//! Proof that the batched send/receive path is allocation-free in the
//! steady state: once a channel's `NetIo` backend is constructed (its
//! slot slabs are pre-allocated) and the FCS scratch is warm, staging a
//! whole burst, flushing it as `sendmmsg` submissions, draining it with
//! `recvmmsg` and popping every datagram performs **exactly zero** heap
//! allocations — the syscall batching never buys throughput by hiding
//! per-packet allocation.  The same holds for a warmed `FaultyChannel`
//! (the benchmark's `lossy_push` client path) under every fault at once,
//! and for the tail-record table once it has been filled to capacity:
//! holding records and answering retransmitted tails reuses its space.
//! So does the path table: once full, booking transfers for new and
//! known peers and reading their bursts back displaces, never grows.
//!
//! `harness = false` (see `Cargo.toml`): this file is a plain `fn main`,
//! not a `#[test]`.  The allocation counter is process-global, and
//! libtest's own main thread allocates (its running-test map grows)
//! whenever it is scheduled — which under CPU contention lands inside
//! the measured window.  Without the harness the only threads alive
//! during a window are the ones this file creates.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use blast_core::blast::{BlastReceiver, FinishedReceiver};
use blast_core::{CompletionInfo, Engine, EngineStats, Pacer, PacingConfig, ProtocolConfig};
use blast_counting_alloc::{allocations, CountingAlloc};
use blast_udp::channel::{Channel, UdpChannel};
use blast_udp::fault::{FaultConfig, FaultyChannel};
use blast_udp::fcs::FcsChannel;
use blast_udp::netio::OffloadState;
use blast_udp::path::PathTable;
use blast_udp::timewait::{TailRecords, MAX_RECORDS};
use blast_wire::packet::{Datagram, DatagramBuilder};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const BURST: usize = 48; // more than one sendmmsg batch
const FRAME: usize = 1400;

fn burst_roundtrip(
    tx: &mut FcsChannel<UdpChannel>,
    rx: &mut FcsChannel<UdpChannel>,
    buf: &mut [u8],
) {
    let frame = [0x5au8; FRAME];
    for _ in 0..BURST {
        tx.stage(&frame).unwrap();
    }
    tx.flush().unwrap();
    let mut got = 0;
    while got < BURST {
        match rx.recv_timeout(buf, Duration::from_secs(2)).unwrap() {
            Some(n) => {
                assert_eq!(n, FRAME, "frame length survives the batch");
                got += 1;
            }
            None => panic!("burst datagram lost on loopback"),
        }
    }
}

fn batched_burst_path_is_allocation_free() {
    let (a, b) = UdpChannel::pair().unwrap();
    let mut tx = FcsChannel::new(a);
    let mut rx = FcsChannel::new(b);
    let mut buf = vec![0u8; 2048];

    // Warm-up: first use grows the FCS scratch and faults in the slot
    // slabs; everything after must be steady-state.
    burst_roundtrip(&mut tx, &mut rx, &mut buf);

    let before = allocations();
    for _ in 0..4 {
        burst_roundtrip(&mut tx, &mut rx, &mut buf);
    }
    let allocs = allocations() - before;
    assert_eq!(
        allocs,
        0,
        "staging, flushing and draining {} framed datagrams must not allocate",
        4 * BURST
    );

    // On the batched backend the bursts above travelled as GSO
    // super-datagrams — so the zero-alloc proof covers the coalescing
    // staging layer, not just the syscalls.
    let tx = tx.into_inner();
    if tx.offload() == OffloadState::GsoGro {
        assert!(
            tx.io_stats().gso_super_datagrams > 0,
            "equal-size bursts must coalesce when GSO is usable"
        );
    }
}

fn faulty_send_path_is_allocation_free() {
    const SENDS: usize = 256;
    // Nothing reads `_rx`: loopback drops what overflows its queue.
    let (tx, _rx) = UdpChannel::pair().unwrap();
    let mut ch = FaultyChannel::new(tx, FaultConfig::chaos(0.2), 9);
    let frame = [0x5au8; FRAME];

    // Warm-up: the first corruption and the first reorder size the
    // channel's two reused buffers.
    while ch.corrupted == 0 || ch.reordered == 0 {
        ch.send(&frame).unwrap();
    }

    let before = allocations();
    for _ in 0..SENDS {
        ch.send(&frame).unwrap();
    }
    let allocs = allocations() - before;
    assert!(
        ch.dropped > 0 && ch.corrupted > 1 && ch.reordered > 1 && ch.duplicated > 0,
        "chaos(0.2) must exercise every fault"
    );
    assert_eq!(
        allocs, 0,
        "{SENDS} sends through FaultyChannel under chaos(0.2) must not allocate"
    );
}

/// The one-packet transfer `id`'s only datagram, and what its receiver
/// leaves behind.
fn one_packet_transfer(id: u32) -> (Vec<u8>, FinishedReceiver) {
    let cfg = ProtocolConfig::default();
    let mut buf = [0u8; 1024];
    let n = DatagramBuilder::new(id)
        .build_data(&mut buf, 0, 1, 0, &[7; 512], 0, true)
        .unwrap();
    let tail = buf[..n].to_vec();
    let mut rx = BlastReceiver::new(id, 512, &cfg);
    rx.on_datagram(&Datagram::parse(&tail).unwrap(), &mut Vec::new());
    (tail, rx.retire().expect("complete").1)
}

fn tail_records_are_allocation_free_once_full() {
    // Enough churn of fresh ids that an index left to grow on demand
    // would have reallocated.
    const CYCLES: usize = 32 * MAX_RECORDS;
    let transfers: Vec<_> = (0..(MAX_RECORDS + CYCLES) as u32)
        .map(one_packet_transfer)
        .collect();
    let peer: SocketAddr = "127.0.0.1:9".parse().unwrap();
    let t0 = Instant::now();
    let linger = Duration::from_secs(60);
    let mut records = TailRecords::new(MAX_RECORDS);
    let mut status = [0u8; FinishedReceiver::STATUS_LEN];
    let mut cycle = |records: &mut TailRecords, (tail, finished): &(Vec<u8>, FinishedReceiver)| {
        records.hold(t0, *finished, peer, linger, t0 + linger);
        let tail = Datagram::parse(tail).unwrap();
        assert!(matches!(
            records.answer(t0, &tail, peer, &mut status),
            Some(Some(_))
        ));
    };
    let (fill, churn) = transfers.split_at(MAX_RECORDS);
    for transfer in fill {
        cycle(&mut records, transfer);
    }

    let before = allocations();
    for transfer in churn {
        cycle(&mut records, transfer);
    }
    let allocs = allocations() - before;
    assert_eq!(records.full_until(t0), Some(t0 + linger), "full, all live");
    assert_eq!(
        allocs, 0,
        "{CYCLES} holds and answers in a full table must not allocate"
    );
}

fn path_table_is_allocation_free_once_full() {
    const CAPACITY: usize = 1024;
    const CYCLES: usize = 32 * CAPACITY;
    let mut pacer = Pacer::new(PacingConfig::lan());
    pacer.on_clean_round();
    let pacing = Some(pacer.snapshot());
    let stats = EngineStats {
        data_packets_sent: 2920,
        ..EngineStats::default()
    };
    let done = CompletionInfo::success(4 << 20, stats);
    let peer = |k: usize| SocketAddr::from(([127, 0, (k >> 8) as u8, k as u8], 4000));
    let t0 = Instant::now();
    let rtt = Some((Duration::from_micros(200), Duration::from_micros(50)));
    let mut paths = PathTable::new(CAPACITY);
    for k in 0..CAPACITY {
        paths.record(t0, peer(k), &done, pacing, rtt);
    }

    let before = allocations();
    for k in CAPACITY..CAPACITY + CYCLES {
        // A new peer displaces the oldest; a known one is rewritten.
        let now = t0 + Duration::from_micros(k as u64);
        paths.record(now, peer(k % (4 * CAPACITY)), &done, pacing, rtt);
        paths.record(now, peer(k - 1), &done, pacing, rtt);
        let carried = paths.carried(now, peer(k - 1)).expect("just written");
        assert_eq!((carried.burst, carried.rtt), (96, rtt));
    }
    let allocs = allocations() - before;
    assert_eq!(
        allocs, 0,
        "{CYCLES} writes and reads in a full path table must not allocate"
    );
}

fn main() {
    // libtest's own lines, so whatever reads `cargo test` output still
    // finds these checks by name.
    batched_burst_path_is_allocation_free();
    println!("test batched_burst_path_is_allocation_free ... ok");
    faulty_send_path_is_allocation_free();
    println!("test faulty_send_path_is_allocation_free ... ok");
    tail_records_are_allocation_free_once_full();
    println!("test tail_records_are_allocation_free_once_full ... ok");
    path_table_is_allocation_free_once_full();
    println!("test path_table_is_allocation_free_once_full ... ok");
}
