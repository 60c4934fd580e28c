//! The four workloads: seeded inputs, the rig (one node, one client, one
//! loopback socket pair), the measured window and the output checks.
//!
//! Load model, all workloads: closed loop, one client thread driving one
//! single-shard in-process node with production defaults over host
//! loopback.  The program under test only ever sees generated inputs:
//! `--seed` decides payload bytes, blob names and the fault sequence.

use std::cell::RefCell;
use std::io;
use std::rc::Rc;
use std::time::{Duration, Instant};

use blast_core::pool::BufferPool;
use blast_node::metrics::NodeMetrics;
use blast_node::server::{NodeBuilder, NodeConfig, NodeHandle};
use blast_node::store::SharedStore;
use blast_node::Client;
use blast_udp::channel::{Channel, UdpChannel};
use blast_udp::fault::{FaultConfig, FaultyChannel};
use blast_udp::handshake::Direction;
use blast_udp::netio::NetIoStats;
use blast_udp::peer::TransferReport;

use crate::channel::{Call, Meter, SharedUdp, TracedChannel};
use crate::procfs;
use crate::spans::{Interval, OpSpan, TransferSpan};

/// Data-packet payload the client proposes in every handshake (the node
/// adopts it per session).  `Client`'s own default is the paper's
/// 1 024 B; the benchmark pins the Ethernet-MTU-sized 1 400 B that the
/// `perf` harness and every committed `BENCH_*.json` record use.
pub const PACKET_PAYLOAD: usize = 1400;

/// Which workload a rig runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    BulkPush,
    BulkPull,
    SmallRoundtrip,
    LossyPush,
}

impl Kind {
    /// In the order of [`crate::names::WORKLOADS`].
    pub const ALL: [Kind; 4] = [
        Kind::BulkPush,
        Kind::BulkPull,
        Kind::SmallRoundtrip,
        Kind::LossyPush,
    ];

    pub fn name(self) -> &'static str {
        let i = Kind::ALL.iter().position(|k| *k == self).expect("listed");
        crate::names::WORKLOADS[i].0
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Payload bytes per transfer.
    fn transfer_bytes(self) -> usize {
        match self {
            Kind::BulkPush | Kind::BulkPull => 4 << 20,
            Kind::SmallRoundtrip => 4 << 10,
            Kind::LossyPush => 256 << 10,
        }
    }

    /// Blob names the operations rotate over.
    fn blobs(self) -> usize {
        match self {
            Kind::BulkPull => 1,
            _ => 8,
        }
    }

    /// Unmeasured operations run first, inside set-up (about 5 % of a
    /// ten-second window): pools fill, socket buffers and page tables
    /// settle.
    fn warmup_ops(self) -> u64 {
        match self {
            Kind::BulkPush | Kind::BulkPull => 12,
            Kind::SmallRoundtrip => 64,
            Kind::LossyPush => 96,
        }
    }

    /// Does the node's engine send data (pulls), so that sender
    /// statistics must be read from its session reports?  The client's
    /// own pushes report theirs directly.
    pub fn node_sends(self) -> bool {
        matches!(self, Kind::BulkPull | Kind::SmallRoundtrip)
    }
}

/// Seeded generator for every input (splitmix64).
pub struct InputRng(u64);

impl InputRng {
    pub fn new(seed: u64) -> InputRng {
        InputRng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

/// Distance between operation stamps inside a payload.
const STAMP_STRIDE: usize = 1024;

/// Write the operation index into `payload` every [`STAMP_STRIDE`]
/// bytes, so every packet of every operation differs from the same
/// packet of the operation that last wrote the same blob name: a stale
/// overwrite, or a packet placed from the wrong transfer, shows in the
/// byte-for-byte check.
pub fn stamp(payload: &mut [u8], op: u64) {
    for chunk in payload.chunks_mut(STAMP_STRIDE) {
        if let Some(head) = chunk.first_chunk_mut::<8>() {
            *head = op.to_le_bytes();
        }
    }
}

/// Sender-engine statistics summed over transfers.
#[derive(Debug, Default, Clone, Copy)]
pub struct SenderTally {
    pub transfers: u64,
    pub rounds: u64,
    pub retx_packets: u64,
    pub data_sent: u64,
    pub timeouts: u64,
    pub burst_final_sum: f64,
    pub burst_samples: u64,
}

impl SenderTally {
    fn absorb(
        &mut self,
        stats: &blast_core::EngineStats,
        pacing: Option<&blast_core::control::PacerSnapshot>,
    ) {
        self.transfers += 1;
        self.rounds += stats.retransmission_rounds;
        self.retx_packets += stats.data_packets_retransmitted;
        self.data_sent += stats.data_packets_sent;
        self.timeouts += stats.timeouts;
        if let Some(p) = pacing {
            self.burst_final_sum += f64::from(p.burst);
            self.burst_samples += 1;
        }
    }
}

/// What the client's own `TransferReport`s add up to over a window.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClientTally {
    /// Client-side sender engines (pushes).
    pub sender: SenderTally,
    /// Data packets the client's engines sent or received (each is
    /// handled once by a sender and once by a receiver engine).
    pub data_packets: u64,
    /// Acknowledgements the client's engines sent or received.
    pub acks: u64,
    pub malformed: u64,
    pub pushed_bytes: u64,
    pub pulls: u64,
}

impl ClientTally {
    fn absorb(&mut self, report: &TransferReport, direction: Direction, bytes: usize) {
        let s = &report.stats;
        self.data_packets +=
            s.data_packets_sent + s.data_packets_received + s.duplicate_packets_received;
        self.acks += s.acks_sent + s.acks_received;
        self.malformed += report.malformed;
        match direction {
            Direction::Push => {
                self.sender.absorb(s, report.pacing.as_ref());
                self.pushed_bytes += bytes as u64;
            }
            Direction::Pull => self.pulls += 1,
        }
    }
}

/// Everything measured over one window of operations.
#[derive(Debug, Default)]
pub struct Window {
    /// `(verified payload bytes, call→return seconds)` per operation;
    /// a failed operation verifies 0 bytes.
    pub ops: Vec<(u64, f64)>,
    pub failed: u64,
    pub wall_secs: f64,
    /// Cumulative `(process CPU seconds, verified bytes)` at
    /// [`CPU_MARKS`] evenly spaced moments of the window.
    pub cpu_marks: Vec<(f64, u64)>,
    pub process_cpu_secs: f64,
    pub reactor_cpu_secs: f64,
    pub client_cpu_secs: f64,
    /// Framed bytes and datagrams the client put on / took off the wire.
    pub wire_bytes: u64,
    pub wire_datagrams: u64,
    pub client_io: NetIoStats,
    pub node_io: NetIoStats,
    pub node_datagrams_in: u64,
    pub node_discards: u64,
    pub node_sessions_failed: u64,
    pub allocations: u64,
    pub pool_fresh_allocs: u64,
    pub client: ClientTally,
    /// Node-side sender engines (pulls), from the node's retained
    /// session reports (the most recent 1 024 sessions).
    pub node_sender: SenderTally,
    /// Traced window only.
    pub spans: Vec<OpSpan>,
    pub calls: Vec<Call>,
    pub trace_events: u64,
    pub trace_dropped: u64,
}

impl Window {
    pub fn verified_bytes(&self) -> u64 {
        self.ops.iter().map(|(b, _)| b).sum()
    }
}

fn io_delta(after: NetIoStats, before: NetIoStats) -> NetIoStats {
    NetIoStats {
        datagrams_sent: after.datagrams_sent - before.datagrams_sent,
        send_batches: after.send_batches - before.send_batches,
        send_drops: after.send_drops - before.send_drops,
        datagrams_received: after.datagrams_received - before.datagrams_received,
        recv_batches: after.recv_batches - before.recv_batches,
        wakeups: after.wakeups - before.wakeups,
        timeouts: after.timeouts - before.timeouts,
        gso_super_datagrams: after.gso_super_datagrams - before.gso_super_datagrams,
        gso_segments: after.gso_segments - before.gso_segments,
        gro_super_datagrams: after.gro_super_datagrams - before.gro_super_datagrams,
        gro_segments: after.gro_segments - before.gro_segments,
    }
}

fn discards(m: &NodeMetrics) -> u64 {
    m.fcs_drops + m.malformed + m.unroutable + m.send_drops
}

/// Moments per window at which process CPU time is sampled, so CPU per
/// byte can be reported as a median over slices of the window.
const CPU_MARKS: usize = 20;

/// Per-shard flight-recorder ring of the traced run: large enough that
/// a window's events fit between drains, so `telemetry.dropped` reads
/// the recorder's honesty, not this budget.
const TRACE_RING: usize = 1 << 16;

/// How long an idle reactor may park before it republishes its
/// counters (its park is capped at 10 ms); waited before reading them.
const PUBLISH_LAG: Duration = Duration::from_millis(25);

/// One node, one client, and the benchmark's handles into both.
pub struct Rig {
    kind: Kind,
    node: NodeHandle,
    store: SharedStore,
    client: Client<TracedChannel>,
    meter: Rc<RefCell<Meter>>,
    udp: Rc<RefCell<UdpChannel>>,
    node_pool: BufferPool,
    client_pool: BufferPool,
    payload: Vec<u8>,
    names: Vec<String>,
    next_op: u64,
    /// Transfer ids count from 1 (`Client::over`), one per push/pull.
    transfers_issued: u32,
    traced: bool,
}

impl Rig {
    /// Set one rig up: start the node, generate the inputs, seed the
    /// store, connect, run the warm-up operations.  Everything here is
    /// what `setup_s` times.
    pub fn build(kind: Kind, seed: u64, traced: bool) -> io::Result<Rig> {
        let mut rng = InputRng::new(seed ^ 0xB1A5_7BE7_C4A2_0000);
        let config = NodeConfig::default();
        let node_pool = config.protocol.pool.clone();
        let mut builder = NodeBuilder::new().config(config);
        if traced {
            builder = builder.telemetry(TRACE_RING);
        }
        let node = builder.start()?;
        let store = node.store();

        let payload = rng.bytes(kind.transfer_bytes());
        let tag = rng.next_u64();
        let names: Vec<String> = (0..kind.blobs())
            .map(|k| format!("{}-{tag:016x}-{k}", kind.name()))
            .collect();
        let fault_seed = rng.next_u64();
        if kind == Kind::BulkPull {
            store.put(&names[0], payload.clone().into());
        }

        let local = "127.0.0.1:0".parse().expect("literal addr");
        let udp = Rc::new(RefCell::new(UdpChannel::connect(local, node.addr())?));
        let shared = SharedUdp(Rc::clone(&udp));
        let inner: Box<dyn Channel> = match kind {
            Kind::LossyPush => Box::new(FaultyChannel::new(
                shared,
                FaultConfig::loss(0.01),
                fault_seed,
            )),
            _ => Box::new(shared),
        };
        let meter = Meter::new();
        // A failed operation must fail inside the run's time cap, not
        // after the client's default 30 s.
        let client = Client::over(TracedChannel::new(inner, Rc::clone(&meter)))
            .patience(Duration::from_secs(10));
        let mut protocol = client.protocol().clone();
        protocol.packet_payload = PACKET_PAYLOAD;
        let client_pool = protocol.pool.clone();
        let client = client.config(protocol);

        let mut rig = Rig {
            kind,
            node,
            store,
            client,
            meter,
            udp,
            node_pool,
            client_pool,
            payload,
            names,
            next_op: 0,
            transfers_issued: 0,
            traced,
        };
        let mut scratch = ClientTally::default();
        for _ in 0..kind.warmup_ops() {
            let (verified, _, _) = rig.run_op(&mut scratch);
            if verified == 0 {
                return Err(io::Error::other(format!(
                    "{}: a warm-up operation failed",
                    kind.name()
                )));
            }
        }
        Ok(rig)
    }

    /// One `Client` call with its span (when tracing) and its report
    /// folded into `tally`.
    fn transfer(
        &mut self,
        direction: Direction,
        name_index: usize,
        tally: &mut ClientTally,
        spans: &mut Vec<TransferSpan>,
    ) -> Option<TransferReport> {
        let begin = {
            let m = self.meter.borrow();
            m.calls.as_ref().map(|c| (m.now_ns(), c.len()))
        };
        self.transfers_issued += 1;
        let name = &self.names[name_index];
        let result = match direction {
            Direction::Push => self.client.push(name, &self.payload),
            Direction::Pull => self.client.pull(name),
        };
        if let Some((start_ns, first_call)) = begin {
            let m = self.meter.borrow();
            spans.push(TransferSpan {
                name: match direction {
                    Direction::Push => "client.push",
                    Direction::Pull => "client.pull",
                },
                at: Interval {
                    start_ns,
                    end_ns: m.now_ns(),
                },
                calls: first_call..m.calls.as_ref().map_or(first_call, Vec::len),
            });
        }
        let report = result.ok()?;
        tally.absorb(&report, direction, self.payload.len());
        Some(report)
    }

    /// Run the next operation and check its output.  Returns the
    /// payload bytes verified (0 if the operation errored or returned
    /// wrong bytes), call→return seconds, and the operation's span
    /// when tracing.
    fn run_op(&mut self, tally: &mut ClientTally) -> (u64, f64, Option<OpSpan>) {
        let op = self.next_op;
        self.next_op += 1;
        let name_index = (op % self.names.len() as u64) as usize;
        let mut spans = Vec::new();
        let bytes = self.payload.len() as u64;
        if self.kind != Kind::BulkPull {
            stamp(&mut self.payload, op);
        }
        let start_ns = self.meter.borrow().now_ns();
        let t0 = Instant::now();
        let (verified, secs) = match self.kind {
            Kind::BulkPush | Kind::LossyPush => {
                let done = self.transfer(Direction::Push, name_index, tally, &mut spans);
                let secs = t0.elapsed().as_secs_f64();
                let ok = done.is_some() && self.stored_matches(name_index);
                (if ok { bytes } else { 0 }, secs)
            }
            Kind::BulkPull => {
                let pulled = self.transfer(Direction::Pull, name_index, tally, &mut spans);
                let secs = t0.elapsed().as_secs_f64();
                let ok = pulled.is_some_and(|r| r.data == self.payload);
                (if ok { bytes } else { 0 }, secs)
            }
            Kind::SmallRoundtrip => {
                let pushed = self.transfer(Direction::Push, name_index, tally, &mut spans);
                let pulled = pushed
                    .and_then(|_| self.transfer(Direction::Pull, name_index, tally, &mut spans));
                let secs = t0.elapsed().as_secs_f64();
                let ok = pulled.is_some_and(|r| r.data == self.payload);
                (if ok { 2 * bytes } else { 0 }, secs)
            }
        };
        let span = self.meter.borrow().calls.is_some().then(|| OpSpan {
            id: op,
            at: Interval {
                start_ns,
                end_ns: start_ns + (secs * 1e9) as u64,
            },
            transfers: spans,
        });
        (verified, secs, span)
    }

    fn stored_matches(&self, name_index: usize) -> bool {
        self.store
            .get(&self.names[name_index])
            .is_some_and(|blob| blob[..] == self.payload[..])
    }

    /// Read every blob back from the node's store after the windows and
    /// compare it with what the last operation on that name wrote.
    pub fn verify_store(&mut self) -> bool {
        let blobs = self.names.len() as u64;
        (0..blobs.min(self.next_op)).all(|back| {
            let op = self.next_op - 1 - back;
            if self.kind != Kind::BulkPull {
                stamp(&mut self.payload, op);
            }
            self.stored_matches((op % blobs) as usize)
        })
    }

    /// Run operations for `seconds` and measure everything around them.
    pub fn window(&mut self, seconds: f64) -> Window {
        std::thread::sleep(PUBLISH_LAG);
        if self.traced {
            self.node.drain_trace();
            self.meter.borrow_mut().calls = Some(Vec::new());
        }
        let reactor = "blast-node-0";
        let first_transfer_id = self.transfers_issued + 1;
        let node_before = self.node.metrics();
        let dropped_before = self.node.telemetry_dropped();
        let client_io_before = self.udp.borrow().io_stats();
        let pools_before =
            self.node_pool.fresh_allocations() + self.client_pool.fresh_allocations();
        // (framed bytes, datagrams) seen so far, both directions.
        let wire = |m: &Meter| {
            (
                m.bytes_sent + m.bytes_received,
                m.datagrams_sent + m.datagrams_received,
            )
        };
        let wire_before = wire(&self.meter.borrow());
        let allocations_before = blast_counting_alloc::allocations();
        let cpu_before = (
            procfs::process_cpu_secs(),
            procfs::named_thread_cpu_secs(reactor),
            procfs::this_thread_cpu_secs(),
        );

        let mut w = Window::default();
        let mut verified_so_far = 0u64;
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            let (verified, secs, span) = self.run_op(&mut w.client);
            w.ops.push((verified, secs));
            w.failed += u64::from(verified == 0);
            w.spans.extend(span);
            verified_so_far += verified;
            let due = (w.cpu_marks.len() + 1) as f64 * seconds / CPU_MARKS as f64;
            if start.elapsed().as_secs_f64() >= due {
                let cpu = procfs::process_cpu_secs() - cpu_before.0;
                w.cpu_marks.push((cpu, verified_so_far));
            }
            if self.traced {
                // Between operations, outside every operation's timing:
                // keeps the ring from overflowing on long windows.
                w.trace_events += self.node.drain_trace().len() as u64;
            }
        }
        w.wall_secs = start.elapsed().as_secs_f64();

        w.process_cpu_secs = procfs::process_cpu_secs() - cpu_before.0;
        w.reactor_cpu_secs = procfs::named_thread_cpu_secs(reactor) - cpu_before.1;
        w.client_cpu_secs = procfs::this_thread_cpu_secs() - cpu_before.2;
        w.allocations = blast_counting_alloc::allocations() - allocations_before;
        {
            let mut m = self.meter.borrow_mut();
            let wire_after = wire(&m);
            w.wire_bytes = wire_after.0 - wire_before.0;
            w.wire_datagrams = wire_after.1 - wire_before.1;
            w.calls = m.calls.take().unwrap_or_default();
        }
        w.client_io = io_delta(self.udp.borrow().io_stats(), client_io_before);
        w.pool_fresh_allocs = self.node_pool.fresh_allocations()
            + self.client_pool.fresh_allocations()
            - pools_before;

        self.node.wait_idle(Duration::from_secs(2));
        std::thread::sleep(PUBLISH_LAG);
        let node_after = self.node.metrics();
        w.node_io = io_delta(node_after.io, node_before.io);
        w.node_datagrams_in = node_after.datagrams_received - node_before.datagrams_received;
        w.node_discards = discards(&node_after) - discards(&node_before);
        w.node_sessions_failed = node_after.sessions_failed - node_before.sessions_failed;
        for r in &node_after.reports {
            if r.transfer_id >= first_transfer_id && r.direction == Direction::Pull {
                w.node_sender.absorb(&r.stats, r.pacing.as_ref());
            }
        }
        if self.traced {
            w.trace_events += self.node.drain_trace().len() as u64;
            w.trace_dropped = self.node.telemetry_dropped() - dropped_before;
        }
        w
    }

    pub fn netio_backend(&self) -> String {
        self.udp.borrow().backend().name().to_string()
    }

    pub fn offload(&self) -> String {
        self.udp.borrow().offload().name().to_string()
    }

    /// Stop the node and wait for its reactor thread.
    pub fn finish(self) -> io::Result<()> {
        let Rig { node, client, .. } = self;
        drop(client);
        node.shutdown().map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_per_seed_and_differ_across_seeds() {
        let a = InputRng::new(7).bytes(4099);
        assert_eq!(a.len(), 4099);
        assert_eq!(a, InputRng::new(7).bytes(4099));
        assert_ne!(a, InputRng::new(8).bytes(4099));
    }

    #[test]
    fn stamp_marks_every_stride_and_only_there() {
        let mut p = vec![0xEEu8; 2 * STAMP_STRIDE + 5];
        stamp(&mut p, 0x0102_0304_0506_0708);
        let mark = 0x0102_0304_0506_0708u64.to_le_bytes();
        assert_eq!(p[..8], mark);
        assert_eq!(p[STAMP_STRIDE..STAMP_STRIDE + 8], mark);
        // The 5-byte tail is too short for a stamp and stays as it was.
        assert!(p[2 * STAMP_STRIDE..].iter().all(|b| *b == 0xEE));
        assert_eq!(p.iter().filter(|b| **b == 0xEE).count(), p.len() - 16);
    }

    #[test]
    fn workload_names_round_trip() {
        for kind in Kind::ALL {
            assert_eq!(Kind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(Kind::from_name("nope"), None);
    }

    /// Every workload runs end to end on a short window with all its
    /// output checks passing, traced and untraced.
    #[test]
    fn every_workload_verifies_its_outputs() {
        for kind in Kind::ALL {
            for traced in [false, true] {
                let mut rig = Rig::build(kind, 42, traced).expect("rig");
                let w = rig.window(0.05);
                assert!(!w.ops.is_empty());
                assert_eq!(w.failed, 0, "{}", kind.name());
                assert!(w.verified_bytes() > 0 && w.wire_bytes > w.verified_bytes());
                assert!(rig.verify_store(), "{}", kind.name());
                assert_eq!(w.spans.len(), if traced { w.ops.len() } else { 0 });
                assert_eq!(traced, w.trace_events > 0);
                rig.finish().expect("node shutdown");
            }
        }
    }

    /// A wrong byte in the store is caught by the read-back.
    #[test]
    fn read_back_catches_a_stale_blob() {
        let mut rig = Rig::build(Kind::LossyPush, 1, false).expect("rig");
        assert!(rig.verify_store());
        let mut stale = rig.payload.clone();
        stamp(&mut stale, rig.next_op - 1 - rig.names.len() as u64);
        let last = ((rig.next_op - 1) % rig.names.len() as u64) as usize;
        rig.store.put(&rig.names[last], stale.into());
        assert!(!rig.verify_store());
        rig.finish().expect("node shutdown");
    }
}
