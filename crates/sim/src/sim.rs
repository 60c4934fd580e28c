//! The discrete-event simulator.
//!
//! Models exactly the machinery the paper measures (§2.1):
//!
//! * **Host processors** that copy packets between memory and network
//!   interface at `C` per data packet / `Ca` per ack, serve receive
//!   copies before starting new transmit copies, and (in the
//!   single-buffered configuration) busy-wait on transmission
//!   completion — "each of the two programs simply busy-waits on the
//!   completion of its current operation".
//! * **Network interfaces** with a configurable number of transmit and
//!   receive buffers.  A full receive interface drops arriving frames —
//!   the *interface errors* of §3 that motivate NACK-based
//!   retransmission.
//! * **A shared Ethernet** that serializes transmissions (low-load
//!   assumption: no collisions, FIFO access) at `T` per data packet /
//!   `Ta` per ack, with propagation delay `τ`, and iid or
//!   Gilbert–Elliott loss injection.
//!
//! The protocol engines from `blast-core` run unmodified on top: their
//! `Transmit` actions become copy-then-transmit jobs, their timers
//! become simulated-time events (armed from the *end* of the preceding
//! transmission, matching the paper's definition of the retransmission
//! interval `T_r`), and their completions time-stamp the transfer.
//!
//! Validation: `tests/model_vs_sim.rs` asserts that this simulator
//! reproduces §2.1.3's closed-form elapsed times **exactly** (to the
//! nanosecond) for stop-and-wait, blast and double-buffered blast, and
//! within a fraction of a percent for sliding window.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::time::Duration;

use blast_core::api::{Action, CompletionInfo, TimerToken};
use blast_core::engine::Engine;
use blast_core::loss::LossChain;
use blast_core::pool::PooledBuf;
use blast_wire::header::PacketKind;
use blast_wire::packet::Datagram;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::config::{SimConfig, TimingPolicy};
use crate::time::{ms, SimTime};
use crate::trace::{Lane, TraceEvent};

/// Bytes a frame carrying `payload_len` payload bytes occupies on the
/// wire for transmission-time purposes: the Ethernet header plus the
/// payload, padded to the 46-byte minimum payload (a 64-byte frame with
/// its 4-byte FCS).
fn frame_wire_len(payload_len: usize) -> usize {
    blast_wire::ETHERNET_HEADER_LEN + payload_len.max(46)
}

/// A frame in flight through the simulated machinery.
#[derive(Debug)]
struct Frame {
    src: usize,
    dst: usize,
    // Pooled: delivering (or dropping) the frame recycles the buffer
    // into the engines' shared pool.
    bytes: PooledBuf,
    is_data: bool,
    label: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobKind {
    TxCopy,
    RxCopy,
}

#[derive(Debug, Clone, Copy)]
struct Job {
    kind: JobKind,
    frame: u64,
    started: SimTime,
}

/// Per-host counters reported after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostStats {
    /// Frames fully transmitted from this host.
    pub frames_sent: u64,
    /// Frames copied out of this host's interface (delivered to the
    /// protocol engine).
    pub frames_delivered: u64,
    /// Frames dropped because every receive buffer was occupied — the
    /// paper's "interface errors".
    pub overruns: u64,
    /// Total processor time spent copying.
    pub cpu_busy: Duration,
}

struct Host {
    name: String,
    cpu_busy: bool,
    /// Busy-wait hold: the CPU does nothing until this frame's
    /// transmission completes.
    held_frame: Option<u64>,
    rx_q: VecDeque<u64>,
    tx_q: VecDeque<u64>,
    tx_slots_busy: usize,
    rx_slots_busy: usize,
    /// Copy-cost multiplier (> 1 = slower processor), for the
    /// speed-mismatch / interface-error experiments.
    cpu_scale: f64,
    stats: HostStats,
    current_job: Option<Job>,
}

struct Agent {
    engine: Box<dyn Engine>,
    peer: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Ev {
    CpuDone {
        host: usize,
    },
    TxEnd {
        frame: u64,
    },
    Arrive {
        host: usize,
        frame: u64,
    },
    TimerFire {
        host: usize,
        transfer: u32,
        token: TimerToken,
        gen: u64,
    },
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Event {
    at: SimTime,
    seq: u64,
    ev: Ev,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A finished engine's completion record.
#[derive(Debug, Clone)]
pub struct Completion {
    /// Simulated time of completion.
    pub at: SimTime,
    /// The engine's completion report.
    pub info: CompletionInfo,
}

/// Everything a simulation run produced.
#[derive(Debug)]
pub struct SimReport {
    /// Simulated time when the run stopped.
    pub end: SimTime,
    /// Completion record per `(host, transfer_id)`.
    pub completions: HashMap<(usize, u32), Completion>,
    /// Per-host name and counters.
    pub host_stats: Vec<(String, HostStats)>,
    /// Total time the shared ether was transmitting.
    pub medium_busy: Duration,
    /// Frames dropped in flight by the loss model.
    pub wire_losses: u64,
    /// Datagrams that reached a host with no engine for their transfer.
    pub unroutable: u64,
    /// Events processed.
    pub events_processed: u64,
    /// Collected trace (empty unless `SimConfig::trace`).
    pub trace: Vec<TraceEvent>,
}

impl SimReport {
    /// Completion time of `(host, transfer)` in milliseconds.
    pub fn elapsed_ms(&self, host: usize, transfer: u32) -> Option<f64> {
        self.completions
            .get(&(host, transfer))
            .map(|c| c.at.as_ms())
    }

    /// Whether `(host, transfer)` completed successfully.
    pub fn succeeded(&self, host: usize, transfer: u32) -> bool {
        self.completions
            .get(&(host, transfer))
            .map(|c| c.info.is_success())
            .unwrap_or(false)
    }

    /// Fraction of the run during which the ether was busy — the
    /// paper's network utilization `u_n` (§2.1.3).
    pub fn utilization(&self) -> f64 {
        if self.end == SimTime::ZERO {
            return 0.0;
        }
        self.medium_busy.as_nanos() as f64 / self.end.as_nanos() as f64
    }

    /// Total interface overruns across hosts.
    pub fn total_overruns(&self) -> u64 {
        self.host_stats.iter().map(|(_, s)| s.overruns).sum()
    }
}

/// A timer armed once its frame finishes transmitting:
/// `(host, transfer, token, generation, delay)`.
type PendingArm = (usize, u32, TimerToken, u64, Duration);

/// The discrete-event simulator.  Build with [`Simulator::new`], add
/// hosts, attach engines, then [`run`](Simulator::run).
pub struct Simulator {
    cfg: SimConfig,
    now: SimTime,
    queue: BinaryHeap<Reverse<Event>>,
    event_seq: u64,
    frames: HashMap<u64, Frame>,
    frame_seq: u64,
    hosts: Vec<Host>,
    agents: BTreeMap<(usize, u32), Agent>,
    timers: HashMap<(usize, u32, TimerToken), u64>,
    /// Timers to arm when a frame finishes transmitting.
    pending_arm: HashMap<u64, Vec<PendingArm>>,
    medium_current: Option<u64>,
    medium_q: VecDeque<u64>,
    medium_busy: Duration,
    rng: SmallRng,
    chain: LossChain,
    wire_losses: u64,
    unroutable: u64,
    completions: HashMap<(usize, u32), Completion>,
    trace: Vec<TraceEvent>,
    /// Copy-cost line for `TimingPolicy::PerByte`: (base_ms, per_byte_ms).
    copy_line: (f64, f64),
}

impl Simulator {
    /// Create a simulator.
    pub fn new(cfg: SimConfig) -> Self {
        cfg.loss.validate();
        // Anchor the per-byte copy line through the paper's two
        // calibration points, expressed as wire lengths.
        let data_wire = frame_wire_len(blast_wire::HEADER_LEN + cfg.data_bytes);
        let ack_wire = frame_wire_len(blast_wire::HEADER_LEN + 8).max(cfg.ack_bytes);
        let copy_line = cfg.cost.copy_cost_line(data_wire, ack_wire);
        Simulator {
            rng: SmallRng::seed_from_u64(cfg.seed),
            chain: LossChain::default(),
            copy_line,
            cfg,
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            event_seq: 0,
            frames: HashMap::new(),
            frame_seq: 0,
            hosts: Vec::new(),
            agents: BTreeMap::new(),
            timers: HashMap::new(),
            pending_arm: HashMap::new(),
            medium_current: None,
            medium_q: VecDeque::new(),
            medium_busy: Duration::ZERO,
            wire_losses: 0,
            unroutable: 0,
            completions: HashMap::new(),
            trace: Vec::new(),
        }
    }

    /// Add a host; returns its id.
    pub fn add_host(&mut self, name: &str) -> usize {
        self.add_host_scaled(name, 1.0)
    }

    /// Add a host whose copy costs are multiplied by `cpu_scale`
    /// (`> 1` = slower machine) — breaks the paper's "matched in speed"
    /// assumption on purpose, for the interface-error experiments.
    pub fn add_host_scaled(&mut self, name: &str, cpu_scale: f64) -> usize {
        assert!(cpu_scale > 0.0, "cpu_scale must be positive");
        self.hosts.push(Host {
            name: name.to_string(),
            cpu_busy: false,
            held_frame: None,
            rx_q: VecDeque::new(),
            tx_q: VecDeque::new(),
            tx_slots_busy: 0,
            rx_slots_busy: 0,
            cpu_scale,
            stats: HostStats::default(),
            current_job: None,
        });
        self.hosts.len() - 1
    }

    /// Attach an engine to `host`; its transmissions go to `peer`.
    ///
    /// # Panics
    /// Panics on unknown host ids or if `(host, transfer_id)` is taken.
    pub fn attach(&mut self, host: usize, peer: usize, engine: Box<dyn Engine>) {
        assert!(
            host < self.hosts.len() && peer < self.hosts.len(),
            "unknown host"
        );
        let key = (host, engine.transfer_id());
        let prev = self.agents.insert(key, Agent { engine, peer });
        assert!(
            prev.is_none(),
            "duplicate engine for host {host} transfer {}",
            key.1
        );
    }

    fn push_event(&mut self, at: SimTime, ev: Ev) {
        let seq = self.event_seq;
        self.event_seq += 1;
        self.queue.push(Reverse(Event { at, seq, ev }));
    }

    fn copy_cost(&self, frame: &Frame, host: usize) -> Duration {
        let scale = self.hosts[host].cpu_scale;
        let base_ms = match self.cfg.timing {
            TimingPolicy::PerKind => {
                if frame.is_data {
                    self.cfg.cost.c_data
                } else {
                    self.cfg.cost.c_ack
                }
            }
            TimingPolicy::PerByte => {
                let wire = frame_wire_len(frame.bytes.len());
                (self.copy_line.0 + self.copy_line.1 * wire as f64).max(0.0)
            }
        };
        ms(base_ms * scale)
    }

    fn tx_time(&self, frame: &Frame) -> Duration {
        match self.cfg.timing {
            TimingPolicy::PerKind => {
                if frame.is_data {
                    ms(self.cfg.cost.t_data)
                } else {
                    ms(self.cfg.cost.t_ack)
                }
            }
            TimingPolicy::PerByte => {
                let wire_bits = (frame_wire_len(frame.bytes.len()) * 8) as f64;
                // 10 Mbit/s = 10 000 bits per ms.
                ms(wire_bits / 10_000.0)
            }
        }
    }

    /// Execute a batch of engine actions emitted by `(host, transfer)`.
    fn process_actions(&mut self, host: usize, transfer: u32, actions: Vec<Action>) {
        let peer = self
            .agents
            .get(&(host, transfer))
            .map(|a| a.peer)
            .unwrap_or(host);
        let mut last_frame: Option<u64> = None;
        for action in actions {
            match action {
                Action::Transmit(bytes) => {
                    let (is_data, label) = match Datagram::parse(&bytes) {
                        Ok(d) => match d.kind {
                            PacketKind::Data => (true, format!("D{}", d.seq)),
                            PacketKind::Ack => (false, "A".to_string()),
                            PacketKind::Request => (false, "R".to_string()),
                            PacketKind::Cancel => (false, "X".to_string()),
                            PacketKind::Stats => (false, "S".to_string()),
                            PacketKind::Copy => (false, "C".to_string()),
                        },
                        Err(_) => {
                            debug_assert!(false, "engine emitted malformed datagram");
                            (false, "?".to_string())
                        }
                    };
                    let id = self.frame_seq;
                    self.frame_seq += 1;
                    self.frames.insert(
                        id,
                        Frame {
                            src: host,
                            dst: peer,
                            bytes,
                            is_data,
                            label,
                        },
                    );
                    self.hosts[host].tx_q.push_back(id);
                    last_frame = Some(id);
                    self.dispatch_cpu(host);
                }
                Action::SetTimer { token, after } => {
                    let gen = self.timers.entry((host, transfer, token)).or_insert(0);
                    *gen += 1;
                    let gen = *gen;
                    match last_frame {
                        // The retransmission interval starts when the
                        // just-requested transmission actually ends —
                        // the paper's T_r measures silence *after* the
                        // blast, not after the send() call.
                        Some(frame) => self
                            .pending_arm
                            .entry(frame)
                            .or_default()
                            .push((host, transfer, token, gen, after)),
                        None => {
                            let at = self.now + after;
                            self.push_event(
                                at,
                                Ev::TimerFire {
                                    host,
                                    transfer,
                                    token,
                                    gen,
                                },
                            );
                        }
                    }
                }
                Action::CancelTimer { token } => {
                    *self.timers.entry((host, transfer, token)).or_insert(0) += 1;
                }
                Action::Complete(info) => {
                    self.completions.insert(
                        (host, transfer),
                        Completion {
                            at: self.now,
                            info: *info,
                        },
                    );
                }
            }
        }
    }

    /// Start the next CPU job on `host` if one is runnable.
    fn dispatch_cpu(&mut self, host: usize) {
        let h = &mut self.hosts[host];
        if h.cpu_busy || h.held_frame.is_some() {
            return;
        }
        // Receive service first: the interrupt level drains the
        // interface before the send loop resumes (Figure 3.c's
        // copy-data / copy-ack alternation).
        if let Some(frame_id) = h.rx_q.pop_front() {
            h.cpu_busy = true;
            h.current_job = Some(Job {
                kind: JobKind::RxCopy,
                frame: frame_id,
                started: self.now,
            });
            let frame = &self.frames[&frame_id];
            let cost = self.copy_cost(frame, host);
            self.hosts[host].stats.cpu_busy += cost;
            let at = self.now + cost;
            self.push_event(at, Ev::CpuDone { host });
            return;
        }
        if let Some(&frame_id) = h.tx_q.front() {
            if h.tx_slots_busy < self.cfg.tx_buffers {
                h.tx_q.pop_front();
                h.tx_slots_busy += 1;
                h.cpu_busy = true;
                h.current_job = Some(Job {
                    kind: JobKind::TxCopy,
                    frame: frame_id,
                    started: self.now,
                });
                let frame = &self.frames[&frame_id];
                let cost = self.copy_cost(frame, host);
                self.hosts[host].stats.cpu_busy += cost;
                let at = self.now + cost;
                self.push_event(at, Ev::CpuDone { host });
            }
        }
    }

    fn kick_medium(&mut self) {
        if self.medium_current.is_some() {
            return;
        }
        let Some(frame_id) = self.medium_q.pop_front() else {
            return;
        };
        let frame = &self.frames[&frame_id];
        let t = self.tx_time(frame);
        self.medium_current = Some(frame_id);
        self.medium_busy += t;
        if self.cfg.trace {
            self.trace.push(TraceEvent {
                start: self.now,
                end: self.now + t,
                host: frame.src,
                lane: Lane::Wire,
                label: frame.label.clone(),
            });
        }
        let at = self.now + t;
        self.push_event(at, Ev::TxEnd { frame: frame_id });
    }

    fn on_cpu_done(&mut self, host: usize) {
        let job = self.hosts[host]
            .current_job
            .take()
            .expect("CpuDone without job");
        self.hosts[host].cpu_busy = false;
        match job.kind {
            JobKind::TxCopy => {
                if self.cfg.trace {
                    let frame = &self.frames[&job.frame];
                    self.trace.push(TraceEvent {
                        start: job.started,
                        end: self.now,
                        host,
                        lane: Lane::CpuCopyIn,
                        label: frame.label.clone(),
                    });
                }
                self.medium_q.push_back(job.frame);
                if self.cfg.busy_wait_tx {
                    self.hosts[host].held_frame = Some(job.frame);
                }
                self.kick_medium();
                self.dispatch_cpu(host);
            }
            JobKind::RxCopy => {
                self.hosts[host].rx_slots_busy -= 1;
                self.hosts[host].stats.frames_delivered += 1;
                let frame = self.frames.remove(&job.frame).expect("frame exists");
                if self.cfg.trace {
                    self.trace.push(TraceEvent {
                        start: job.started,
                        end: self.now,
                        host,
                        lane: Lane::CpuCopyOut,
                        label: frame.label.clone(),
                    });
                }
                match Datagram::parse(&frame.bytes) {
                    Ok(dgram) => {
                        let key = (host, dgram.transfer_id);
                        if let Some(agent) = self.agents.get_mut(&key) {
                            let mut actions = Vec::new();
                            // Engines see simulated time, so the adaptive
                            // RTO samples simulated round trips exactly.
                            agent.engine.set_now(self.now.as_duration());
                            agent.engine.on_datagram(&dgram, &mut actions);
                            self.process_actions(host, dgram.transfer_id, actions);
                        } else {
                            self.unroutable += 1;
                        }
                    }
                    Err(_) => self.unroutable += 1,
                }
                self.dispatch_cpu(host);
            }
        }
    }

    fn on_tx_end(&mut self, frame_id: u64) {
        self.medium_current = None;
        let (src, dst) = {
            let f = &self.frames[&frame_id];
            (f.src, f.dst)
        };
        self.hosts[src].tx_slots_busy -= 1;
        self.hosts[src].stats.frames_sent += 1;
        if self.hosts[src].held_frame == Some(frame_id) {
            self.hosts[src].held_frame = None;
        }
        // Arm any retransmission timers tied to this frame.
        if let Some(arms) = self.pending_arm.remove(&frame_id) {
            for (host, transfer, token, gen, after) in arms {
                let at = self.now + after;
                self.push_event(
                    at,
                    Ev::TimerFire {
                        host,
                        transfer,
                        token,
                        gen,
                    },
                );
            }
        }
        if self.chain.drops(&self.cfg.loss, || self.rng.gen::<f64>()) {
            self.wire_losses += 1;
            self.frames.remove(&frame_id);
        } else {
            let at = self.now + ms(self.cfg.cost.tau);
            self.push_event(
                at,
                Ev::Arrive {
                    host: dst,
                    frame: frame_id,
                },
            );
        }
        self.kick_medium();
        self.dispatch_cpu(src);
    }

    fn on_arrive(&mut self, host: usize, frame_id: u64) {
        if self.hosts[host].rx_slots_busy >= self.cfg.rx_buffers {
            // Interface error: no buffer for the arriving frame.
            self.hosts[host].stats.overruns += 1;
            self.frames.remove(&frame_id);
            return;
        }
        self.hosts[host].rx_slots_busy += 1;
        self.hosts[host].rx_q.push_back(frame_id);
        self.dispatch_cpu(host);
    }

    fn on_timer_fire(&mut self, host: usize, transfer: u32, token: TimerToken, gen: u64) {
        if self.timers.get(&(host, transfer, token)).copied() != Some(gen) {
            return; // re-armed or cancelled
        }
        if let Some(agent) = self.agents.get_mut(&(host, transfer)) {
            let mut actions = Vec::new();
            agent.engine.set_now(self.now.as_duration());
            agent.engine.on_timer(token, &mut actions);
            self.process_actions(host, transfer, actions);
        }
    }

    /// Run until every attached engine has completed, the event queue
    /// drains, or the event budget is exhausted.
    pub fn run(mut self) -> SimReport {
        // Start all engines at t = 0 in deterministic (host, transfer)
        // order.
        let keys: Vec<(usize, u32)> = self.agents.keys().copied().collect();
        for key in keys {
            let mut actions = Vec::new();
            self.agents
                .get_mut(&key)
                .expect("key just listed")
                .engine
                .start(&mut actions);
            self.process_actions(key.0, key.1, actions);
        }

        let mut processed: u64 = 0;
        while self.completions.len() < self.agents.len() {
            processed += 1;
            if processed > self.cfg.max_events {
                break;
            }
            let Some(Reverse(event)) = self.queue.pop() else {
                break;
            };
            debug_assert!(event.at >= self.now, "time must not run backwards");
            self.now = event.at;
            match event.ev {
                Ev::CpuDone { host } => self.on_cpu_done(host),
                Ev::TxEnd { frame } => self.on_tx_end(frame),
                Ev::Arrive { host, frame } => self.on_arrive(host, frame),
                Ev::TimerFire {
                    host,
                    transfer,
                    token,
                    gen,
                } => self.on_timer_fire(host, transfer, token, gen),
            }
        }

        SimReport {
            end: self.now,
            completions: self.completions,
            host_stats: self.hosts.into_iter().map(|h| (h.name, h.stats)).collect(),
            medium_busy: self.medium_busy,
            wire_losses: self.wire_losses,
            unroutable: self.unroutable,
            events_processed: processed,
            trace: self.trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LossModel;
    use blast_core::blast::{BlastReceiver, BlastSender};
    use blast_core::config::ProtocolConfig;
    use blast_core::saw::{SawReceiver, SawSender};
    use std::sync::Arc;

    fn data(n: usize) -> Arc<[u8]> {
        (0..n).map(|i| (i % 241) as u8).collect::<Vec<u8>>().into()
    }

    fn two_host_sim(cfg: SimConfig) -> (Simulator, usize, usize) {
        let mut sim = Simulator::new(cfg);
        let a = sim.add_host("sender");
        let b = sim.add_host("receiver");
        (sim, a, b)
    }

    #[test]
    fn wire_len_padding() {
        // Tiny frames are padded to the 60-byte minimum (without FCS).
        assert_eq!(frame_wire_len(0), 60);
        assert_eq!(frame_wire_len(46), 60);
        assert_eq!(frame_wire_len(47), 61);
        assert_eq!(frame_wire_len(1024), 1038);
    }

    #[test]
    fn one_packet_exchange_is_3_91_ms() {
        // Table 2: the modelled 1 KB exchange takes 3.91 ms.
        let (mut sim, a, b) = two_host_sim(SimConfig::standalone());
        let pcfg = ProtocolConfig::default();
        let payload = data(1024);
        sim.attach(a, b, Box::new(SawSender::new(1, payload.clone(), &pcfg)));
        sim.attach(b, a, Box::new(SawReceiver::new(1, payload.len(), &pcfg)));
        let report = sim.run();
        assert!(report.succeeded(a, 1) && report.succeeded(b, 1));
        assert_eq!(report.elapsed_ms(a, 1), Some(3.91));
    }

    #[test]
    fn blast_64kb_matches_closed_form_exactly() {
        let (mut sim, a, b) = two_host_sim(SimConfig::standalone());
        let pcfg = ProtocolConfig::default();
        let payload = data(64 * 1024);
        sim.attach(a, b, Box::new(BlastSender::new(1, payload.clone(), &pcfg)));
        sim.attach(b, a, Box::new(BlastReceiver::new(1, payload.len(), &pcfg)));
        let report = sim.run();
        assert!(report.succeeded(a, 1));
        // T_B = 64 × 2.17 + 1.74 = 140.62 ms, exactly.
        assert_eq!(report.elapsed_ms(a, 1), Some(140.62));
        // No losses, no overruns, no retransmissions.
        assert_eq!(report.wire_losses, 0);
        assert_eq!(report.total_overruns(), 0);
        let sender = &report.completions[&(a, 1)].info.stats;
        assert_eq!(sender.data_packets_sent, 64);
        assert_eq!(sender.data_packets_retransmitted, 0);
    }

    #[test]
    fn utilization_matches_paper() {
        let (mut sim, a, b) = two_host_sim(SimConfig::standalone());
        let pcfg = ProtocolConfig::default();
        let payload = data(64 * 1024);
        sim.attach(a, b, Box::new(BlastSender::new(1, payload.clone(), &pcfg)));
        sim.attach(b, a, Box::new(BlastReceiver::new(1, payload.len(), &pcfg)));
        let report = sim.run();
        // (64×0.82 + 0.05) / 140.62 = 0.3736 — the paper's "38 percent".
        assert!((report.utilization() - 0.3736).abs() < 0.001);
    }

    #[test]
    fn loss_triggers_retransmission_and_still_delivers() {
        let cfg = SimConfig::standalone().with_loss(LossModel::iid(0.05), 42);
        let (mut sim, a, b) = two_host_sim(cfg);
        let mut pcfg = ProtocolConfig::default();
        pcfg.max_retries = 10_000;
        let payload = data(64 * 1024);
        sim.attach(a, b, Box::new(BlastSender::new(1, payload.clone(), &pcfg)));
        sim.attach(b, a, Box::new(BlastReceiver::new(1, payload.len(), &pcfg)));
        let report = sim.run();
        assert!(report.succeeded(a, 1) && report.succeeded(b, 1));
        assert!(
            report.wire_losses > 0,
            "5% loss over ≥65 frames should drop something"
        );
        let elapsed = report.elapsed_ms(a, 1).unwrap();
        assert!(elapsed > 140.62, "losses must cost time: {elapsed}");
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let cfg = SimConfig::standalone().with_loss(LossModel::iid(0.10), seed);
            let (mut sim, a, b) = two_host_sim(cfg);
            let mut pcfg = ProtocolConfig::default();
            pcfg.max_retries = 10_000;
            let payload = data(64 * 1024);
            sim.attach(a, b, Box::new(BlastSender::new(1, payload.clone(), &pcfg)));
            sim.attach(b, a, Box::new(BlastReceiver::new(1, payload.len(), &pcfg)));
            let r = sim.run();
            (r.elapsed_ms(a, 1), r.wire_losses, r.events_processed)
        };
        assert_eq!(run(7), run(7));
        // At 10 % loss over 65+ frames different seeds essentially
        // always produce different loss patterns and elapsed times.
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn slow_receiver_with_tiny_interface_overruns() {
        // One station "transmitting at full speed" to a slower one with
        // a single receive buffer: the §3 interface-error regime.
        let cfg = SimConfig::standalone().with_rx_buffers(1);
        let mut sim = Simulator::new(cfg);
        let a = sim.add_host("sender");
        let b = sim.add_host_scaled("slow-receiver", 4.0);
        let mut pcfg = ProtocolConfig::default();
        pcfg.max_retries = 100_000;
        pcfg.timeout = std::time::Duration::from_millis(600).into();
        let payload = data(32 * 1024);
        sim.attach(a, b, Box::new(BlastSender::new(1, payload.clone(), &pcfg)));
        sim.attach(b, a, Box::new(BlastReceiver::new(1, payload.len(), &pcfg)));
        let report = sim.run();
        assert!(
            report.total_overruns() > 0,
            "mismatched speeds must overrun the interface"
        );
        assert!(report.succeeded(a, 1), "go-back-n still recovers");
    }

    #[test]
    fn paced_blast_stretches_by_the_gap_budget() {
        // Pacing rides the ordinary timer machinery, so the simulator
        // honours it with no special code: a paced blast completes
        // correctly and pays at least its inter-burst gaps; the unpaced
        // run of the same transfer still matches the closed form.
        let run = |pacing| {
            let (mut sim, a, b) = two_host_sim(SimConfig::standalone());
            let mut pcfg = ProtocolConfig::default();
            pcfg.pacing = pacing;
            let payload = data(16 * 1024);
            sim.attach(a, b, Box::new(BlastSender::new(1, payload.clone(), &pcfg)));
            sim.attach(b, a, Box::new(BlastReceiver::new(1, payload.len(), &pcfg)));
            let report = sim.run();
            assert!(report.succeeded(a, 1) && report.succeeded(b, 1));
            assert_eq!(report.completions[&(a, 1)].info.stats.data_packets_sent, 16);
            report.elapsed_ms(a, 1).unwrap()
        };
        let unpaced = run(blast_core::PacingConfig::off());
        // 16 packets in bursts of 4: 3 gaps of 5 ms must appear.
        let paced = run(blast_core::PacingConfig::new(
            4,
            std::time::Duration::from_millis(5),
        ));
        assert_eq!(unpaced, 16.0 * 2.17 + 1.74, "degenerate mode untouched");
        assert!(
            paced >= unpaced + 3.0 * 5.0 - 1.0,
            "paced {paced} vs unpaced {unpaced}"
        );
    }

    #[test]
    fn trace_collects_copy_and_wire_events() {
        let cfg = SimConfig::standalone().with_trace();
        let (mut sim, a, b) = two_host_sim(cfg);
        let pcfg = ProtocolConfig::default();
        let payload = data(3 * 1024);
        sim.attach(a, b, Box::new(BlastSender::new(1, payload.clone(), &pcfg)));
        sim.attach(b, a, Box::new(BlastReceiver::new(1, payload.len(), &pcfg)));
        let report = sim.run();
        let copy_ins = report
            .trace
            .iter()
            .filter(|e| e.lane == Lane::CpuCopyIn)
            .count();
        let wires = report.trace.iter().filter(|e| e.lane == Lane::Wire).count();
        let copy_outs = report
            .trace
            .iter()
            .filter(|e| e.lane == Lane::CpuCopyOut)
            .count();
        // 3 data + 1 ack, each copied in, transmitted, copied out.
        assert_eq!(copy_ins, 4);
        assert_eq!(wires, 4);
        assert_eq!(copy_outs, 4);
    }

    #[test]
    fn per_byte_timing_close_to_per_kind_for_paper_sizes() {
        let run = |timing| {
            let cfg = SimConfig::standalone().with_timing(timing);
            let (mut sim, a, b) = two_host_sim(cfg);
            let pcfg = ProtocolConfig::default();
            let payload = data(64 * 1024);
            sim.attach(a, b, Box::new(BlastSender::new(1, payload.clone(), &pcfg)));
            sim.attach(b, a, Box::new(BlastReceiver::new(1, payload.len(), &pcfg)));
            sim.run().elapsed_ms(a, 1).unwrap()
        };
        let per_kind = run(TimingPolicy::PerKind);
        let per_byte = run(TimingPolicy::PerByte);
        let rel = (per_kind - per_byte).abs() / per_kind;
        assert!(
            rel < 0.06,
            "byte-accurate timing should stay close: {per_kind} vs {per_byte}"
        );
    }

    #[test]
    fn gilbert_elliott_bursts_cause_correlated_losses() {
        let cfg = SimConfig::standalone().with_loss(
            LossModel::GilbertElliott {
                p_enter: 0.10,
                p_exit: 0.3,
                good_loss: 0.0,
                bad_loss: 0.8,
            },
            11,
        );
        let (mut sim, a, b) = two_host_sim(cfg);
        let mut pcfg = ProtocolConfig::default();
        pcfg.max_retries = 100_000;
        let payload = data(64 * 1024);
        sim.attach(a, b, Box::new(BlastSender::new(1, payload.clone(), &pcfg)));
        sim.attach(b, a, Box::new(BlastReceiver::new(1, payload.len(), &pcfg)));
        let report = sim.run();
        assert!(report.succeeded(a, 1));
        assert!(report.wire_losses > 0);
    }

    #[test]
    #[should_panic(expected = "p_exit probability out of range: 7")]
    fn out_of_range_gilbert_elliott_rejected() {
        // A struct literal skips `LossModel::iid`; `Simulator::new` is
        // where the model is checked.
        let _ = Simulator::new(SimConfig::standalone().with_loss(
            LossModel::GilbertElliott {
                p_enter: 0.1,
                p_exit: 7.0,
                good_loss: 0.0,
                bad_loss: 1.0,
            },
            1,
        ));
    }

    #[test]
    #[should_panic(expected = "duplicate engine")]
    fn duplicate_attachment_rejected() {
        let (mut sim, a, b) = two_host_sim(SimConfig::standalone());
        let pcfg = ProtocolConfig::default();
        sim.attach(a, b, Box::new(SawSender::new(1, data(10), &pcfg)));
        sim.attach(a, b, Box::new(SawSender::new(1, data(10), &pcfg)));
    }

    #[test]
    fn concurrent_transfers_share_the_ether() {
        // Two simultaneous blasts between disjoint host pairs.  Because
        // a single blast only fills ~38 % of the wire (§2.1.3 — the
        // processors are the bottleneck), *both* transfers fit on the
        // ether essentially unstretched; total utilization roughly
        // doubles.  "Network bandwidth is plentiful" (§ related work).
        let (mut sim, a, b) = two_host_sim(SimConfig::standalone());
        let c = sim.add_host("sender2");
        let d = sim.add_host("receiver2");
        let pcfg = ProtocolConfig::default();
        let payload = data(16 * 1024);
        sim.attach(a, b, Box::new(BlastSender::new(1, payload.clone(), &pcfg)));
        sim.attach(b, a, Box::new(BlastReceiver::new(1, payload.len(), &pcfg)));
        sim.attach(c, d, Box::new(BlastSender::new(2, payload.clone(), &pcfg)));
        sim.attach(d, c, Box::new(BlastReceiver::new(2, payload.len(), &pcfg)));
        let report = sim.run();
        assert!(report.succeeded(a, 1) && report.succeeded(c, 2));
        let t1 = report.elapsed_ms(a, 1).unwrap();
        let t2 = report.elapsed_ms(c, 2).unwrap();
        let uncontended = 16.0 * 2.17 + 1.74;
        // Neither transfer stretches by more than one data slot + ack.
        assert!(t1.max(t2) < uncontended + 1.0, "t1={t1} t2={t2}");
        // And the ether carried both: utilization ≈ 2 × 37 %.
        assert!(report.utilization() > 0.6, "u = {}", report.utilization());
    }
}
