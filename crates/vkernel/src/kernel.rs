//! The kernel cluster: Send/Receive/Reply and MoveTo/MoveFrom.
//!
//! §2 of the paper: "the V kernel provides two operations — `MoveTo`
//! and `MoveFrom` — which allow one process to move an arbitrary amount
//! of data from its address space into the address space of another
//! process, or vice versa.  Both operations are network transparent."
//!
//! * **Local** moves copy directly between address spaces — "the fact
//!   that the client's buffer is already allocated allows the kernel to
//!   move the data from the source to the destination address space
//!   without an intermediate copy".
//! * **Remote** moves run the go-back-n blast engines of `blast-core`
//!   over the calibrated `blast-sim` network with the V-kernel cost
//!   constants (Table 3: `C = 1.83 ms`, `Ca = 0.67 ms`), and report the
//!   simulated elapsed time.
//!
//! The cluster accumulates a logical clock across operations, so a
//! workload's total simulated time (e.g. the file-server read of the
//! worked example) falls out directly.

use std::collections::HashMap;
use std::sync::Arc;

use blast_core::api::EngineStats;
use blast_core::blast::{BlastReceiver, BlastSender};
use blast_core::config::ProtocolConfig;
use blast_core::error::CoreError;
use blast_sim::{LossModel, SimConfig, Simulator};

use crate::message::VMessage;
use crate::process::{Pid, Process, ProcessState};
use crate::space::{SegmentId, Space};

/// Errors from kernel operations.
#[derive(Debug, Clone, PartialEq)]
pub enum VKernelError {
    /// No such process.
    UnknownProcess(Pid),
    /// No such segment in the process's space.
    UnknownSegment(Pid, SegmentId),
    /// Destination segment length differs from the source's — the
    /// receive buffer must be pre-allocated at the right size.
    SizeMismatch {
        /// Source bytes.
        src: usize,
        /// Destination bytes.
        dst: usize,
    },
    /// IPC state violation (e.g. `Reply` to a process not awaiting
    /// one).
    BadState(&'static str),
    /// The underlying network transfer failed.
    TransferFailed(CoreError),
}

impl std::fmt::Display for VKernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VKernelError::UnknownProcess(p) => write!(f, "unknown process {p}"),
            VKernelError::UnknownSegment(p, s) => {
                write!(f, "unknown segment {s:?} in process {p}")
            }
            VKernelError::SizeMismatch { src, dst } => {
                write!(f, "segment size mismatch: src {src} bytes, dst {dst} bytes")
            }
            VKernelError::BadState(s) => write!(f, "IPC state violation: {s}"),
            VKernelError::TransferFailed(e) => write!(f, "transfer failed: {e}"),
        }
    }
}

impl std::error::Error for VKernelError {}

/// Result of a `MoveTo`/`MoveFrom`.
#[derive(Debug, Clone)]
pub struct MoveOutcome {
    /// Bytes moved.
    pub bytes: usize,
    /// Elapsed simulated time in milliseconds.
    pub elapsed_ms: f64,
    /// Whether the move crossed the network.
    pub remote: bool,
    /// Sender-side engine counters (zeroes for local moves).
    pub sender_stats: EngineStats,
    /// Frames lost in flight during the move.
    pub wire_losses: u64,
}

struct Kernel {
    #[allow(dead_code)] // diagnostic: kernels are addressed by index
    name: String,
    processes: HashMap<u16, Process>,
    spaces: HashMap<Pid, Space>,
    next_local: u16,
}

/// A cluster of V kernels on one simulated Ethernet.
pub struct VCluster {
    kernels: Vec<Kernel>,
    protocol: ProtocolConfig,
    loss: LossModel,
    seed: u64,
    next_transfer: u32,
    replies: HashMap<Pid, VMessage>,
    /// Accumulated simulated time across all operations (ms).
    pub clock_ms: f64,
    /// Total bulk bytes moved.
    pub bytes_moved: u64,
    /// Total messages exchanged.
    pub messages: u64,
}

impl VCluster {
    /// A cluster with no kernels; add them with
    /// [`add_kernel`](Self::add_kernel).
    pub fn new() -> Self {
        let mut protocol = ProtocolConfig::default();
        protocol.kernel_flag = true;
        VCluster {
            kernels: Vec::new(),
            protocol,
            loss: LossModel::None,
            seed: 1,
            next_transfer: 1,
            replies: HashMap::new(),
            clock_ms: 0.0,
            bytes_moved: 0,
            messages: 0,
        }
    }

    /// Inject iid loss with probability `p` into every remote
    /// operation's network.
    pub fn with_loss(mut self, p: f64, seed: u64) -> Self {
        self.loss = LossModel::iid(p);
        self.seed = seed;
        self
    }

    /// Add a kernel (a machine on the Ethernet); returns its index.
    pub fn add_kernel(&mut self, name: &str) -> u16 {
        self.kernels.push(Kernel {
            name: name.to_string(),
            processes: HashMap::new(),
            spaces: HashMap::new(),
            next_local: 1,
        });
        (self.kernels.len() - 1) as u16
    }

    /// Create a process on kernel `kernel`.
    pub fn create_process(&mut self, kernel: u16, name: &str) -> Pid {
        let k = &mut self.kernels[kernel as usize];
        let local = k.next_local;
        k.next_local += 1;
        let pid = Pid::new(kernel, local);
        k.processes.insert(local, Process::new(pid, name));
        k.spaces.insert(pid, Space::new());
        pid
    }

    fn kernel_of(&self, pid: Pid) -> Result<&Kernel, VKernelError> {
        self.kernels
            .get(pid.kernel() as usize)
            .ok_or(VKernelError::UnknownProcess(pid))
    }

    fn process_mut(&mut self, pid: Pid) -> Result<&mut Process, VKernelError> {
        self.kernels
            .get_mut(pid.kernel() as usize)
            .and_then(|k| k.processes.get_mut(&pid.local()))
            .ok_or(VKernelError::UnknownProcess(pid))
    }

    fn space_mut(&mut self, pid: Pid) -> Result<&mut Space, VKernelError> {
        self.kernels
            .get_mut(pid.kernel() as usize)
            .and_then(|k| k.spaces.get_mut(&pid))
            .ok_or(VKernelError::UnknownProcess(pid))
    }

    /// State of a process.
    pub fn state_of(&self, pid: Pid) -> Result<ProcessState, VKernelError> {
        self.kernel_of(pid)?
            .processes
            .get(&pid.local())
            .map(|p| p.state)
            .ok_or(VKernelError::UnknownProcess(pid))
    }

    /// Register a zero-filled segment of `len` bytes in `pid`'s space —
    /// the pre-allocated receive buffer of the paper's §2.
    pub fn register_segment(&mut self, pid: Pid, len: usize) -> Result<SegmentId, VKernelError> {
        Ok(self.space_mut(pid)?.register(len))
    }

    /// Register a segment initialized with `data` (a send buffer).
    pub fn register_segment_with(
        &mut self,
        pid: Pid,
        data: &[u8],
    ) -> Result<SegmentId, VKernelError> {
        Ok(self.space_mut(pid)?.register_with(data))
    }

    /// Read a segment.
    pub fn segment(&self, pid: Pid, id: SegmentId) -> Result<&[u8], VKernelError> {
        self.kernel_of(pid)?
            .spaces
            .get(&pid)
            .and_then(|s| s.get(id))
            .ok_or(VKernelError::UnknownSegment(pid, id))
    }

    /// One-way cost of a 32-byte message packet on the V network:
    /// copy-in + transmission + copy-out of an ack-class packet.
    fn message_oneway_ms(&self) -> f64 {
        let m = blast_analytic::CostModel::vkernel_sun();
        2.0 * m.c_ack + m.t_ack + m.tau
    }

    /// V `Send`: deliver `msg` to `to`'s mailbox and block `from` until
    /// the reply.  Remote sends charge one packet of simulated time.
    pub fn send(&mut self, from: Pid, to: Pid, msg: VMessage) -> Result<(), VKernelError> {
        // Validate both ends first.
        self.process_mut(to)?;
        let sender = self.process_mut(from)?;
        if sender.state != ProcessState::Ready {
            return Err(VKernelError::BadState("Send from a blocked process"));
        }
        sender.state = ProcessState::AwaitingReply { to };
        let stamped = msg.with_sender(from);
        self.process_mut(to)?.mailbox.push_back(stamped);
        if from.kernel() != to.kernel() {
            self.clock_ms += self.message_oneway_ms();
        }
        self.messages += 1;
        Ok(())
    }

    /// V `Receive`: take the next message from `pid`'s mailbox, or
    /// block (state → `Receiving`) when none is available.
    pub fn receive(&mut self, pid: Pid) -> Result<Option<VMessage>, VKernelError> {
        let p = self.process_mut(pid)?;
        match p.mailbox.pop_front() {
            Some(m) => {
                p.state = ProcessState::Ready;
                Ok(Some(m))
            }
            None => {
                p.state = ProcessState::Receiving;
                Ok(None)
            }
        }
    }

    /// V `Reply`: unblock `to` (which must be awaiting a reply from
    /// `from`) and deposit the reply message for
    /// [`collect_reply`](Self::collect_reply).
    pub fn reply(&mut self, from: Pid, to: Pid, msg: VMessage) -> Result<(), VKernelError> {
        let target = self.process_mut(to)?;
        match target.state {
            ProcessState::AwaitingReply { to: waiting_on } if waiting_on == from => {
                target.state = ProcessState::Ready;
            }
            _ => return Err(VKernelError::BadState("Reply to a process not awaiting it")),
        }
        self.replies.insert(to, msg.with_sender(from));
        if from.kernel() != to.kernel() {
            self.clock_ms += self.message_oneway_ms();
        }
        self.messages += 1;
        Ok(())
    }

    /// Fetch the reply that unblocked `pid`'s `Send`, if any.
    pub fn collect_reply(&mut self, pid: Pid) -> Option<VMessage> {
        self.replies.remove(&pid)
    }

    /// `MoveTo`: move `src_segment` of `src` into `dst_segment` of
    /// `dst`.  The destination segment must already be registered with
    /// the same length (buffers are allocated *before* the transfer).
    pub fn move_to(
        &mut self,
        src: Pid,
        src_segment: SegmentId,
        dst: Pid,
        dst_segment: SegmentId,
    ) -> Result<MoveOutcome, VKernelError> {
        let data = self.segment(src, src_segment)?.to_vec();
        let dst_len = self
            .kernel_of(dst)?
            .spaces
            .get(&dst)
            .and_then(|s| s.len_of(dst_segment))
            .ok_or(VKernelError::UnknownSegment(dst, dst_segment))?;
        if dst_len != data.len() {
            return Err(VKernelError::SizeMismatch {
                src: data.len(),
                dst: dst_len,
            });
        }
        let outcome = if src.kernel() == dst.kernel() {
            // Local: one direct copy, no network.  Cost: proportional
            // to size at the calibrated per-byte copy rate.
            let m = blast_analytic::CostModel::vkernel_sun();
            let (_, per_byte) = m.copy_cost_line(1024, 64);
            let elapsed_ms = per_byte * data.len() as f64;
            let space = self.space_mut(dst)?;
            space
                .get_mut(dst_segment)
                .ok_or(VKernelError::UnknownSegment(dst, dst_segment))?
                .copy_from_slice(&data);
            MoveOutcome {
                bytes: data.len(),
                elapsed_ms,
                remote: false,
                sender_stats: EngineStats::default(),
                wire_losses: 0,
            }
        } else {
            self.remote_blast(&data, dst, dst_segment)?
        };
        self.clock_ms += outcome.elapsed_ms;
        self.bytes_moved += outcome.bytes as u64;
        Ok(outcome)
    }

    /// `MoveFrom`: move `src_segment` of `src` into `dst_segment` of
    /// the requesting process `requester`.  Remote moves charge one
    /// extra request packet before the blast (the data flows *towards*
    /// the requester).
    pub fn move_from(
        &mut self,
        requester: Pid,
        dst_segment: SegmentId,
        src: Pid,
        src_segment: SegmentId,
    ) -> Result<MoveOutcome, VKernelError> {
        if requester.kernel() != src.kernel() {
            self.clock_ms += self.message_oneway_ms();
        }
        self.move_to(src, src_segment, requester, dst_segment)
    }

    /// Run the blast engines over the simulated V network.
    fn remote_blast(
        &mut self,
        data: &[u8],
        dst: Pid,
        dst_segment: SegmentId,
    ) -> Result<MoveOutcome, VKernelError> {
        let transfer = self.next_transfer;
        self.next_transfer += 1;
        let sim_cfg = SimConfig::vkernel().with_loss(self.loss, self.seed ^ u64::from(transfer));
        let mut sim = Simulator::new(sim_cfg);
        let a = sim.add_host("src-kernel");
        let b = sim.add_host("dst-kernel");
        let sender = BlastSender::new(transfer, Arc::<[u8]>::from(data), &self.protocol);
        let receiver = BlastReceiver::new(transfer, data.len(), &self.protocol);
        sim.attach(a, b, Box::new(sender));
        sim.attach(b, a, Box::new(receiver));
        let report = sim.run();

        let sender_completion =
            report
                .completions
                .get(&(a, transfer))
                .ok_or(VKernelError::TransferFailed(CoreError::BadState {
                    what: "sender never completed",
                }))?;
        let sender_stats = sender_completion.info.stats;
        if let Err(e) = &sender_completion.info.result {
            return Err(VKernelError::TransferFailed(e.clone()));
        }
        let elapsed_ms = sender_completion.at.as_ms();

        // Deliver the received bytes into the destination segment.  The
        // simulator ran the real engines, so the receiver's buffer holds
        // exactly `data`; we copy from the source segment (already
        // validated equal) to keep the simulator API minimal.
        let space = self.space_mut(dst)?;
        space
            .get_mut(dst_segment)
            .ok_or(VKernelError::UnknownSegment(dst, dst_segment))?
            .copy_from_slice(data);
        Ok(MoveOutcome {
            bytes: data.len(),
            elapsed_ms,
            remote: true,
            sender_stats,
            wire_losses: report.wire_losses,
        })
    }
}

impl Default for VCluster {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageKind;

    fn two_kernel_cluster() -> (VCluster, Pid, Pid) {
        let mut c = VCluster::new();
        let k0 = c.add_kernel("workstation");
        let k1 = c.add_kernel("server");
        let client = c.create_process(k0, "client");
        let server = c.create_process(k1, "fs");
        (c, client, server)
    }

    #[test]
    fn send_receive_reply_cycle() {
        let (mut c, client, server) = two_kernel_cluster();
        // Server blocks in Receive first.
        assert_eq!(c.receive(server).unwrap(), None);
        assert_eq!(c.state_of(server).unwrap(), ProcessState::Receiving);

        c.send(
            client,
            server,
            VMessage::new(MessageKind::ReadFile, b"/etc/motd"),
        )
        .unwrap();
        assert_eq!(
            c.state_of(client).unwrap(),
            ProcessState::AwaitingReply { to: server }
        );

        let msg = c.receive(server).unwrap().expect("message queued");
        assert_eq!(msg.kind(), MessageKind::ReadFile);
        assert_eq!(msg.payload_str(), "/etc/motd");
        assert_eq!(msg.sender, client);

        c.reply(server, client, VMessage::new(MessageKind::Reply, b"ok"))
            .unwrap();
        assert_eq!(c.state_of(client).unwrap(), ProcessState::Ready);
        let r = c.collect_reply(client).expect("reply deposited");
        assert_eq!(r.kind(), MessageKind::Reply);
    }

    #[test]
    fn reply_without_send_is_an_error() {
        let (mut c, client, server) = two_kernel_cluster();
        let err = c
            .reply(server, client, VMessage::new(MessageKind::Reply, b""))
            .unwrap_err();
        assert!(matches!(err, VKernelError::BadState(_)));
    }

    #[test]
    fn double_send_blocked() {
        let (mut c, client, server) = two_kernel_cluster();
        c.send(client, server, VMessage::new(MessageKind::Data, b"1"))
            .unwrap();
        let err = c
            .send(client, server, VMessage::new(MessageKind::Data, b"2"))
            .unwrap_err();
        assert!(matches!(err, VKernelError::BadState(_)));
    }

    #[test]
    fn local_move_is_direct_and_cheap() {
        let mut c = VCluster::new();
        let k0 = c.add_kernel("solo");
        let a = c.create_process(k0, "a");
        let b = c.create_process(k0, "b");
        let data: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        let src = c.register_segment_with(a, &data).unwrap();
        let dst = c.register_segment(b, data.len()).unwrap();
        let out = c.move_to(a, src, b, dst).unwrap();
        assert!(!out.remote);
        assert_eq!(out.bytes, 4096);
        assert_eq!(c.segment(b, dst).unwrap(), &data[..]);
        // Local cost ≪ remote cost.
        assert!(out.elapsed_ms < 10.0, "{}", out.elapsed_ms);
        assert_eq!(out.wire_losses, 0);
    }

    #[test]
    fn remote_move_matches_table_3_timing() {
        let (mut c, client, server) = two_kernel_cluster();
        let data: Vec<u8> = (0..64 * 1024).map(|i| (i % 253) as u8).collect();
        let src = c.register_segment_with(server, &data).unwrap();
        let dst = c.register_segment(client, data.len()).unwrap();
        let out = c.move_to(server, src, client, dst).unwrap();
        assert!(out.remote);
        // Table 3: a 64 KB MoveTo ≈ 173 ms (exactly 172.82 with the
        // fitted constants).
        assert!((out.elapsed_ms - 172.82).abs() < 0.01, "{}", out.elapsed_ms);
        assert_eq!(c.segment(client, dst).unwrap(), &data[..]);
        assert_eq!(out.sender_stats.data_packets_sent, 64);
    }

    #[test]
    fn size_mismatch_rejected_before_any_transfer() {
        let (mut c, client, server) = two_kernel_cluster();
        let src = c.register_segment_with(server, &[1, 2, 3]).unwrap();
        let dst = c.register_segment(client, 5).unwrap();
        let err = c.move_to(server, src, client, dst).unwrap_err();
        assert_eq!(err, VKernelError::SizeMismatch { src: 3, dst: 5 });
        assert_eq!(c.bytes_moved, 0);
    }

    #[test]
    fn lossy_network_retransmits_but_delivers() {
        let (mut c, client, server) = two_kernel_cluster();
        c = c.with_loss(0.10, 77);
        let data: Vec<u8> = (0..64 * 1024).map(|i| (i % 249) as u8).collect();
        let src = c.register_segment_with(server, &data).unwrap();
        let dst = c.register_segment(client, data.len()).unwrap();
        let out = c.move_to(server, src, client, dst).unwrap();
        assert!(out.wire_losses > 0);
        assert!(out.sender_stats.data_packets_retransmitted > 0);
        assert_eq!(c.segment(client, dst).unwrap(), &data[..]);
    }

    #[test]
    fn clock_accumulates_across_operations() {
        let (mut c, client, server) = two_kernel_cluster();
        assert_eq!(c.clock_ms, 0.0);
        c.send(client, server, VMessage::new(MessageKind::Data, b"req"))
            .unwrap();
        let after_send = c.clock_ms;
        assert!(after_send > 0.0, "remote send must cost time");
        let data = vec![9u8; 8 * 1024];
        let src = c.register_segment_with(server, &data).unwrap();
        let dst = c.register_segment(client, data.len()).unwrap();
        c.move_to(server, src, client, dst).unwrap();
        assert!(c.clock_ms > after_send + 20.0);
        assert_eq!(c.bytes_moved, 8 * 1024);
        assert_eq!(c.messages, 1);
    }

    #[test]
    fn unknown_entities_error() {
        let (mut c, client, _) = two_kernel_cluster();
        let ghost = Pid::new(0, 99);
        assert!(matches!(
            c.send(ghost, client, VMessage::new(MessageKind::Data, b"")),
            Err(VKernelError::UnknownProcess(_))
        ));
        assert!(matches!(
            c.segment(client, SegmentId(9)),
            Err(VKernelError::UnknownSegment(..))
        ));
        assert!(matches!(
            c.state_of(Pid::new(9, 1)),
            Err(VKernelError::UnknownProcess(_))
        ));
    }

    #[test]
    fn move_from_charges_request_packet() {
        let (mut c, client, server) = two_kernel_cluster();
        let data = vec![1u8; 1024];
        let src = c.register_segment_with(server, &data).unwrap();
        let dst1 = c.register_segment(client, data.len()).unwrap();
        let out_to = c.move_to(server, src, client, dst1).unwrap();

        let mut c2 = VCluster::new();
        let k0 = c2.add_kernel("a");
        let k1 = c2.add_kernel("b");
        let client2 = c2.create_process(k0, "client");
        let server2 = c2.create_process(k1, "fs");
        let src2 = c2.register_segment_with(server2, &data).unwrap();
        let dst2 = c2.register_segment(client2, data.len()).unwrap();
        let before = c2.clock_ms;
        c2.move_from(client2, dst2, server2, src2).unwrap();
        let from_cost = c2.clock_ms - before;
        assert!(
            from_cost > out_to.elapsed_ms,
            "MoveFrom adds the request packet: {from_cost} vs {}",
            out_to.elapsed_ms
        );
    }
}
