//! The client handle: one connection to a node, every operation on it.
//!
//! [`Client`] owns a connected, FCS-framed channel plus the protocol
//! configuration and (optional) flight recorder
//! that every operation shares.  Construct with [`Client::connect`]
//! (real UDP) or [`Client::over`] (any [`Channel`], e.g. a
//! `FaultyChannel` in tests), tune with the fluent setters, then call
//! [`push`](Client::push) / [`pull`](Client::pull) /
//! [`stats`](Client::stats) — or orchestrate node-to-node transfers
//! with [`copy_to`](Client::copy_to), [`copy_from`](Client::copy_from)
//! and [`fan_out`](Client::fan_out).  A push or pull is one
//! [`Outbound`] leg — request, echo, engine — run to completion over the
//! channel, and every operation has one time bound, its
//! [`patience`](Client::patience).  A request, like a control query,
//! is re-sent first after a probe timeout, twice the smoothed round trip
//! the last transfer carried over ([`blast_udp::path`]) but at least
//! 1 ms, and then at
//! doubling waits up to the retry interval ([`Backoff`]).  A push's
//! sender reads the caller's slice in place, for the call's duration:
//! nothing copies the blob before its first datagram.
//!
//! The receiver sets the blast ([`blast_udp::grant`]).  A pull's request
//! grants the node the datagrams the client's socket queue holds (its
//! `SO_RCVBUF` over the kernel's per-datagram charge: 3 640 of 1 444 B
//! under a 4 MiB `rmem_max`, 184 under the default 212 992 B) and the
//! client's measured receive interval per datagram, so a 4 MiB pull
//! leaves the node as one burst where the queue holds it.  A push bursts
//! what the node's echo grants the same way, starting lower when its
//! last push ended on a burst that loss trimmed (the node's queue is
//! shared with every other client pushing to it).
//!
//! A client starts from [`ProtocolConfig::lan`]: an adaptive timeout
//! seeded for LAN round trips, paced bursts, and selective
//! retransmission, which the node adopts per transfer.  On a clean path
//! it sends what the paper's go-back-n sends, the strategy byte of its
//! request aside (no hole, so no NACK); on a lossy one it resends
//! exactly the lost packets, where go-back-n resends everything after
//! the first.  [`strategy`](Client::strategy) proposes another.
//!
//! ```no_run
//! # fn main() -> std::io::Result<()> {
//! use blast_node::client::Client;
//! use std::time::Duration;
//!
//! let node = "127.0.0.1:4510".parse().unwrap();
//! let mut client = Client::connect(node)?
//!     .timeout(Duration::from_millis(25))
//!     .retries(64);
//! client.push("blob", b"payload")?;
//! let report = client.pull("blob")?;
//! assert_eq!(report.data, b"payload");
//! # Ok(()) }
//! ```
//!
//! Transfer ids are allocated automatically from a base derived from
//! the client's own ephemeral port, so concurrent clients against one
//! node do not collide (the node keys sessions by transfer id alone).
//! Pin the counter with [`transfer_ids_from`](Client::transfer_ids_from)
//! when a test asserts specific ids.
//!
//! ## After the last byte
//!
//! Every operation returns when its engine completes; none waits out a
//! timer.  A push's sender completes on hearing the node's final
//! acknowledgement; if neither that nor any report arrives within a
//! probe timeout of its tail (two round trips plus the node's drain of
//! the burst, at least 1 ms), it re-sends the tail once as a probe
//! before its retransmission timeout.  A pull's own final acknowledgement may be
//! lost, and the node then probes with, or retransmits, its tail (each
//! report echoes the round of the tail it answers, so the node acts on
//! a late one at most once): the finished receiver goes into
//! the tail table of the channel's [`TimeWait`] for a fixed window of a
//! few retransmission intervals, and is answered from whichever receive
//! loop the client runs next — the next handshake, transfer or query.
//! Only a pull that itself saw loss stays and listens first.  The table
//! has [`MAX_RECORDS`](blast_udp::timewait::MAX_RECORDS) places, so a
//! pull that finds them all live first waits, answering, for the oldest
//! to expire (2 560 pulls a second by default).  A client that goes idle,
//! or is dropped, right after a pull whose acknowledgement was lost
//! answers nothing: its bytes are complete either way, but the node
//! retries until its budget or session timeout and books a failure.

use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use blast_core::config::ProtocolConfig;
use blast_core::{CompletionInfo, RetxStrategy};
use blast_telemetry::Recorder;
use blast_udp::channel::{Channel, UdpChannel, MAX_DATAGRAM};
use blast_udp::copy::{errcode, BlobDigest, CopyMode, CopyMsg, CopyState, CopyStatus, CopySubmit};
use blast_udp::fcs::FcsChannel;
use blast_udp::grant;
use blast_udp::handshake::{Backoff, Request, MAX_TRANSFER_BYTES};
use blast_udp::outbound::Outbound;
use blast_udp::path::PathTable;
use blast_udp::peer::TransferReport;
use blast_udp::timewait::TimeWait;
use blast_wire::header::PacketKind;
use blast_wire::packet::{Datagram, DatagramBuilder};

/// Default patience for each whole operation.
const DEFAULT_PATIENCE: Duration = Duration::from_secs(30);

/// How long a copy poll sleeps between status queries — short enough
/// that a loopback copy's `Running` phase is still observed, long
/// enough not to busy-spin the node's control plane.
const COPY_POLL: Duration = Duration::from_millis(2);

/// The orchestration record of one node-to-node copy: identity,
/// outcome, digest-verification verdict, and every status the client
/// observed while polling (the per-copy progress trail).
#[derive(Debug, Clone)]
pub struct CopyReport {
    /// The copy's id (also the transfer id of the node-to-node leg).
    pub copy_id: u32,
    /// Which way the bytes flowed, from the submitted-to node's view.
    pub mode: CopyMode,
    /// The far node of the node-to-node leg.
    pub remote: SocketAddr,
    /// Terminal lifecycle state.
    pub state: CopyState,
    /// [`errcode`] detail when `state` is [`CopyState::Failed`].
    pub error: u8,
    /// Bytes the copy moved.
    pub bytes: u64,
    /// CRC-32 of the moved blob, as reported by the submitted-to node.
    pub crc32: u32,
    /// Wall-clock time from submit to terminal status.
    pub elapsed: Duration,
    /// Whether the far node's digest matched the source's length and
    /// CRC-32 — the end-to-end byte-verification verdict.
    pub verified: bool,
    /// Every status observed, submit acknowledgement through terminal.
    pub progress: Vec<CopyStatus>,
}

/// A connection to one node: channel, configuration and telemetry in
/// one handle.  See the [module docs](self) for the usual flow.
#[derive(Debug)]
pub struct Client<C: Channel = UdpChannel> {
    channel: TimeWait<FcsChannel<C>>,
    cfg: ProtocolConfig,
    /// The burst and round-trip estimate the last push ended at: the
    /// next operation starts there.
    path: PathTable<()>,
    /// The client's measured receive interval per datagram (`Cr`),
    /// smoothed over its pulls: what its grant reports.
    drain: Option<Duration>,
    patience: Duration,
    recorder: Option<Recorder>,
    local: Option<SocketAddr>,
    next_id: u32,
    nonce: u32,
    /// The receive buffer every operation borrows, allocated once.
    buf: Vec<u8>,
}

impl Client<UdpChannel> {
    /// Connect to `node` from an ephemeral local port of the node's
    /// address family.
    pub fn connect(node: SocketAddr) -> io::Result<Self> {
        let channel = UdpChannel::connect_to(node)?;
        let local = channel.local_addr().ok();
        let mut client = Client::over(channel);
        client.local = local;
        // Seed the transfer-id counter from our own ephemeral port:
        // the node demuxes sessions by transfer id alone, so two
        // clients must not hand it the same id.  The port is unique
        // per live client on a host; the low 16 bits count within it.
        if let Some(addr) = local {
            client.next_id = (u32::from(addr.port()) << 16) | 1;
        }
        Ok(client)
    }
}

impl<C: Channel> Client<C> {
    /// Wrap an already-connected channel (tests interpose
    /// `FaultyChannel` here to exercise retransmission).  Transfer ids
    /// count from 1; pin with
    /// [`transfer_ids_from`](Client::transfer_ids_from) if they might
    /// collide with another client of the same node.
    pub fn over(channel: C) -> Self {
        let cfg = ProtocolConfig::lan();
        Client {
            channel: TimeWait::new(FcsChannel::new(channel)),
            cfg,
            path: PathTable::new(1),
            drain: None,
            patience: DEFAULT_PATIENCE,
            recorder: None,
            local: None,
            next_id: 1,
            nonce: 0,
            buf: vec![0; MAX_DATAGRAM],
        }
    }

    /// Set the data-phase retransmission timeout.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.cfg.timeout = timeout.into();
        self
    }

    /// Set the per-transfer retransmission budget.
    pub fn retries(mut self, max_retries: u32) -> Self {
        self.cfg.max_retries = max_retries;
        self
    }

    /// Set the retransmission strategy the handshake proposes.
    pub fn strategy(mut self, strategy: RetxStrategy) -> Self {
        self.cfg.strategy = strategy;
        self
    }

    /// Replace the whole protocol configuration (the fine-grained
    /// setters cover the common knobs; this covers the rest).
    pub fn config(mut self, cfg: ProtocolConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Bound how long each whole operation — a push or a pull,
    /// handshake and data phase together, a control query, a whole
    /// copy — may take before erroring `TimedOut` (default 30 s).
    pub fn patience(mut self, patience: Duration) -> Self {
        self.patience = patience;
        self
    }

    /// Attach a flight recorder: engines and the channel's I/O backend
    /// trace into it, and copy submits carry its epoch so remote spans
    /// line up with local ones in one Perfetto view.
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.channel.set_recorder(recorder.clone());
        self.recorder = Some(recorder);
        self
    }

    /// Pin the transfer-id counter (tests that assert specific ids;
    /// see the [module docs](self) on why the default is derived from
    /// the local port).
    pub fn transfer_ids_from(mut self, first_id: u32) -> Self {
        self.next_id = first_id;
        self
    }

    /// The protocol configuration operations will use.
    pub fn protocol(&self) -> &ProtocolConfig {
        &self.cfg
    }

    /// The local socket address (known for [`Client::connect`]
    /// clients; `None` when wrapped [`over`](Client::over) an opaque
    /// channel).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local
    }

    fn alloc_id(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        id
    }

    /// Store `data` on the node as the named blob `name`, blocking
    /// until the node acknowledges the whole transfer (or
    /// [`patience`](Client::patience) runs out).
    ///
    /// The sender reads `data` in place for the call's duration: each
    /// packet's bytes are copied once, into the outgoing datagram, and
    /// nothing copies the whole blob first.
    ///
    /// The sender bursts at most what the node's echo grants, and starts
    /// at the burst and round-trip estimate the last push ended at,
    /// within the grant (see [`blast_udp::path`]); a push that completes
    /// leaves its own for the next.
    pub fn push(&mut self, name: &str, data: &[u8]) -> io::Result<TransferReport> {
        let id = self.alloc_id();
        let mut leg = Outbound::push(id, name, data, &self.cfg)?;
        let report = self.run(&mut leg, Instant::now())?;
        let done = CompletionInfo::success(data.len(), report.stats);
        let rtt = leg.engine().and_then(|e| e.control()?.rtt_estimate());
        self.path
            .record(Instant::now(), (), &done, report.pacing, rtt);
        Ok(report)
    }

    /// Run `leg` over the client's channel to completion, within the
    /// patience left to an operation `started` then, starting from what
    /// the path carries.
    fn run(&mut self, leg: &mut Outbound<'_>, started: Instant) -> io::Result<TransferReport> {
        leg.carry(self.path.carried(Instant::now(), ()));
        leg.recorder = self.recorder.clone();
        let patience = self.patience.saturating_sub(started.elapsed());
        leg.run(&mut self.channel, &mut self.buf, patience)
    }

    /// Fetch the named blob `name` from the node.  The blob's size
    /// comes back in the handshake echo; the receive buffer is
    /// pre-allocated from it before the data phase (the paper's
    /// premise).  The request grants the node the client's socket queue
    /// and receive interval (see the [module docs](self)).
    ///
    /// Returns when the last byte is in, leaving a time-wait record to
    /// answer the node's tail during the *next* operation (see the
    /// [module docs](self#after-the-last-byte)); a run that saw loss
    /// first listens until the node has been quiet for four
    /// retransmission intervals (at least 100 ms).
    ///
    /// Errors with `NotFound` if the node does not have the blob, and
    /// with `InvalidData` if the echo announces more than
    /// [`MAX_TRANSFER_BYTES`].
    pub fn pull(&mut self, name: &str) -> io::Result<TransferReport> {
        let started = Instant::now();
        self.channel.reserve()?;
        let id = self.alloc_id();
        let mut request = Request::pull(name, &self.cfg);
        request.grant = self
            .channel
            .recv_buffer()
            .and_then(|rcvbuf| grant::grant(rcvbuf, self.cfg.packet_payload, 1, 0, 0, self.drain));
        let mut leg = Outbound::pull(id, &request, &self.cfg, MAX_TRANSFER_BYTES)?;
        let mut report = self.run(&mut leg, started)?;
        if let Some(interval) = leg.engine().and_then(|e| e.control()?.receive_interval()) {
            self.drain = Some(grant::smooth(self.drain, interval));
        }
        if let Some((bytes, finished)) = leg.retire() {
            report.data = bytes;
            // Comfortably longer than the node's tail-retransmission
            // interval, so the record outlives several re-ack rounds.
            let window = (self.cfg.timeout.initial() * 4).max(Duration::from_millis(100));
            self.channel.hold(finished, window, Instant::now() + window);
            // Loss as a receiver sees it: a hole it reported, a packet
            // it got twice, a frame that failed its checks.  The link
            // that dropped those may drop the final ack as well.
            let stats = &report.stats;
            let clean = stats.nacks_sent == 0
                && stats.duplicate_packets_received == 0
                && report.malformed == 0;
            if !clean {
                let left = self.patience.saturating_sub(started.elapsed());
                self.channel.linger(window, left)?;
            }
        }
        Ok(report)
    }

    /// Ask the node for a live metrics snapshot (the `Stats` control
    /// verb): the merged `NodeMetrics` summary plus one line per shard
    /// — the remote twin of `NodeHandle::metrics().summary()`.  The
    /// query datagram is retransmitted until the reply arrives or the
    /// client's patience runs out, so it survives the same loss the
    /// data plane does.  The query carries a fresh nonce the node
    /// echoes; a reply to an earlier query is skipped, not returned.
    pub fn stats(&mut self) -> io::Result<String> {
        let deadline = Instant::now() + self.patience;
        self.query(PacketKind::Stats, 0, &[], deadline, |text| {
            Some(String::from_utf8_lossy(text).into_owned())
        })
    }

    /// Ask the node whether it holds `name`, and for its length and
    /// CRC-32 if so — the verification primitive behind
    /// [`copy_to`](Client::copy_to)'s `verified` verdict, usable on
    /// its own to audit a replica.
    pub fn digest(&mut self, name: &str) -> io::Result<BlobDigest> {
        let deadline = Instant::now() + self.patience;
        let msg = CopyMsg::Digest { name: name.into() };
        match self.copy_rpc(0, &msg, deadline)? {
            CopyMsg::DigestReply(d) => Ok(d),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("node answered digest with {other:?}"),
            )),
        }
    }

    /// One control-plane round trip: send a `kind` query (`Stats` or
    /// `Copy`) carrying `payload` under `id` and a fresh nonce, re-send
    /// it on a transfer leg's schedule (a [`Backoff`] from the path's
    /// carried RTO up to the retry interval) until a reply of the same
    /// kind, id and nonce arrives or `deadline` passes, and return what
    /// `decode` makes of the reply's payload.  Stale replies (earlier
    /// nonces, other ids) are skipped, not misread.
    fn query<R>(
        &mut self,
        kind: PacketKind,
        id: u32,
        payload: &[u8],
        deadline: Instant,
        decode: impl Fn(&[u8]) -> Option<R>,
    ) -> io::Result<R> {
        self.nonce = self.nonce.wrapping_add(1);
        let nonce = self.nonce;
        let mut query = vec![0u8; blast_wire::HEADER_LEN + payload.len()];
        let builder = DatagramBuilder::new(id);
        let n = match kind {
            PacketKind::Stats => builder.build_stats(&mut query, nonce, payload),
            _ => builder.build_copy(&mut query, nonce, payload),
        }
        .expect("control query fits a datagram");
        let rtt = self.path.carried(Instant::now(), ()).and_then(|c| c.rtt);
        let mut retry = Backoff::new(&self.cfg, rtt);
        let buf = &mut self.buf;
        while Instant::now() < deadline {
            self.channel.send(&query[..n])?;
            // Drain replies until this query's, or the time to re-send.
            let resend_at = (Instant::now() + retry.next_wait()).min(deadline);
            while let Some(budget) = resend_at.checked_duration_since(Instant::now()) {
                let Some(got) = self.channel.recv_timeout(buf, budget)? else {
                    break;
                };
                let reply = Datagram::parse(&buf[..got])
                    .ok()
                    .filter(|d| (d.kind, d.transfer_id, d.seq) == (kind, id, nonce))
                    .and_then(|d| decode(d.payload));
                if let Some(reply) = reply {
                    return Ok(reply);
                }
            }
        }
        Err(io::Error::new(
            io::ErrorKind::TimedOut,
            format!("{kind:?} query timed out"),
        ))
    }

    /// A `Copy` control round trip: `msg` about copy `id`.
    fn copy_rpc(&mut self, id: u32, msg: &CopyMsg, deadline: Instant) -> io::Result<CopyMsg> {
        let payload = msg.encode();
        self.query(PacketKind::Copy, id, &payload, deadline, CopyMsg::decode)
    }

    /// [`copy_rpc`](Client::copy_rpc), expecting a status reply.
    fn copy_status(
        &mut self,
        copy_id: u32,
        msg: &CopyMsg,
        deadline: Instant,
    ) -> io::Result<CopyStatus> {
        match self.copy_rpc(copy_id, msg, deadline)? {
            CopyMsg::Status(st) => Ok(st),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("node answered copy query with {other:?}"),
            )),
        }
    }

    /// The client's trace epoch as Unix nanoseconds, for carrying in a
    /// copy submit (0 = no telemetry).
    fn epoch_ns(&self) -> u64 {
        let Some(rec) = &self.recorder else { return 0 };
        let since_epoch = rec.epoch().elapsed().as_nanos();
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|now| now.as_nanos().saturating_sub(since_epoch) as u64)
            .unwrap_or(0)
    }
}

impl Client<UdpChannel> {
    /// Order the connected node to push its blob `name` directly to
    /// the node at `dest`, poll until the copy finishes, then
    /// digest-verify the replica at `dest`.  The bytes never pass
    /// through this client — it only orchestrates.
    ///
    /// Errors map the node's failure code: `NotFound` when the node
    /// lacks the blob, `WouldBlock` when it is at copy capacity,
    /// `TimedOut`/`Other` for transfer failures.
    pub fn copy_to(&mut self, name: &str, dest: SocketAddr) -> io::Result<CopyReport> {
        self.copy(name, CopyMode::Push, dest)
    }

    /// Order the connected node to fetch blob `name` directly from the
    /// node at `source` into its own store, then digest-verify what it
    /// stored against the source's digest.
    pub fn copy_from(&mut self, name: &str, source: SocketAddr) -> io::Result<CopyReport> {
        self.copy(name, CopyMode::Pull, source)
    }

    /// Replicate blob `name` from the connected node to every node in
    /// `replicas` (1 → M fan-out): submit all copies up front so the
    /// legs run concurrently, poll round-robin until each reaches a
    /// terminal state, digest-verify every replica.  Returns one
    /// [`CopyReport`] per replica, in `replicas` order; a failed
    /// replica yields its failure state rather than erroring the
    /// whole call.
    pub fn fan_out(&mut self, name: &str, replicas: &[SocketAddr]) -> io::Result<Vec<CopyReport>> {
        self.copies(name, CopyMode::Push, replicas)
    }

    /// One copy, as [`fan_out`](Client::fan_out) runs them, with a
    /// failure mapped to an error.
    fn copy(&mut self, name: &str, mode: CopyMode, remote: SocketAddr) -> io::Result<CopyReport> {
        let report = self.copies(name, mode, &[remote])?.remove(0);
        let kind = match (report.state, report.error) {
            (CopyState::Done, _) => return Ok(report),
            (CopyState::Failed, errcode::NOT_FOUND) => io::ErrorKind::NotFound,
            (CopyState::Failed, errcode::BUSY) => io::ErrorKind::WouldBlock,
            (CopyState::Failed, errcode::HANDSHAKE_TIMEOUT) => io::ErrorKind::TimedOut,
            (CopyState::Failed, _) => io::ErrorKind::Other,
            _ => {
                return Err(io::Error::other(
                    "node no longer knows the copy (reaped before terminal status)",
                ))
            }
        };
        let what = format!("copy failed: {}", errcode::label(report.error));
        Err(io::Error::new(kind, what))
    }

    /// Submit a `mode` copy of blob `name` toward each of `remotes`,
    /// poll them round-robin until every one is terminal, and then
    /// verify each that finished against its far node's digest (the
    /// replica for pushes, the source for pulls).
    fn copies(
        &mut self,
        name: &str,
        mode: CopyMode,
        remotes: &[SocketAddr],
    ) -> io::Result<Vec<CopyReport>> {
        let started = Instant::now();
        let deadline = started + self.patience;
        let epoch_ns = self.epoch_ns();
        // Per copy: its id, its remote, and every status heard so far.
        let mut legs = Vec::with_capacity(remotes.len());
        for &remote in remotes {
            let copy_id = self.alloc_id();
            let submit = CopyMsg::Submit(CopySubmit {
                mode,
                remote,
                epoch_ns,
                name: name.to_string(),
            });
            legs.push((
                copy_id,
                remote,
                vec![self.copy_status(copy_id, &submit, deadline)?],
            ));
        }
        let last = |progress: &[CopyStatus]| *progress.last().expect("the submit's reply");
        while legs
            .iter()
            .any(|(.., progress)| !last(progress).state.is_terminal())
        {
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "copy did not finish in time",
                ));
            }
            std::thread::sleep(COPY_POLL);
            for (copy_id, _, progress) in &mut legs {
                if !last(progress).state.is_terminal() {
                    progress.push(self.copy_status(*copy_id, &CopyMsg::Query, deadline)?);
                }
            }
        }
        let elapsed = started.elapsed();
        legs.into_iter()
            .map(|(copy_id, remote, progress)| {
                let st = last(&progress);
                let verified = st.state == CopyState::Done
                    && verify_replica(remote, name, &st, self.patience)?;
                Ok(CopyReport {
                    copy_id,
                    mode,
                    remote,
                    state: st.state,
                    error: st.error,
                    bytes: st.bytes_total,
                    crc32: st.crc32,
                    elapsed,
                    verified,
                    progress,
                })
            })
            .collect()
    }
}

/// Digest blob `name` at `node` and compare against the copy status
/// `st` the other end reported: found, same length, same CRC-32.
fn verify_replica(
    node: SocketAddr,
    name: &str,
    st: &CopyStatus,
    patience: Duration,
) -> io::Result<bool> {
    let mut probe = Client::connect(node)?.patience(patience);
    let digest = probe.digest(name)?;
    Ok(digest.found && digest.len == st.bytes_total && digest.crc32 == st.crc32)
}
