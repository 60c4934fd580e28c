//! The node: N reactor shards on one address, many concurrent
//! transfers.
//!
//! The paper's engines move one transfer at a time; a node multiplexes
//! many.  Each reactor shard is a thread that owns one non-blocking
//! `UdpSocket` (and, once it drives a third-party copy, one more per
//! address family toward other nodes), one table of the transfers it is
//! driving and one [`TimerWheel`], and runs the classic cycle:
//!
//! 1. fire due timers from the wheel, keyed by `(Key, TimerToken)` —
//!    each entry's engine timers, a copy leg's request retry, and the
//!    node-owned give-up and reap;
//! 2. drain every socket.  On the node's own socket, `Request`,
//!    `Stats` and `Copy` packets go to the control logic and everything
//!    else to the engine of the `Inbound` entry that owns the transfer
//!    id; on an egress socket, everything goes to the `Outbound` entry
//!    (a third-party copy this node drives as a client) that owns it;
//! 3. flush whatever the engines staged, one batch per socket;
//! 4. if nothing happened, wait for a datagram on any socket or the
//!    next timer, whichever comes first.
//!
//! Every engine call on either kind of entry goes through the one
//! shared [`pump`]: set the clock, call the engine, apply its actions —
//! a copy's calls by way of its [`Outbound`] leg, the same initiator a
//! `Client` runs.  The two kinds differ only in which socket and peer a
//! transmission goes to — the node's socket toward the session's peer,
//! or the egress socket toward the copy's remote — and in what
//! completion means.
//!
//! [`NodeBuilder`] scales that cycle across cores: with `shards(n)` it
//! binds `n` `SO_REUSEPORT` sockets on one address and the kernel's
//! 4-tuple hash pins every remote endpoint — hence every session — to
//! exactly one shard.  Shards share nothing on the packet path: each
//! has its own [`NetIo`] backend, timer wheel, table, buffer pool, and
//! a plain (unlocked) [`NodeMetrics`] accumulator that it publishes
//! into a shared snapshot slot at the end of every tick (and before an
//! admission's echo and a `Stats` reply); the [`NodeHandle`] and the
//! `Stats` reply merge those snapshots on read.  Only the blob store is
//! shared, and it is touched only at session boundaries.
//!
//! Sessions are created by the `Request` pre-allocation handshake from
//! `blast-udp`: a push request sets a [`BlastReceiver`]'s buffer aside
//! for the announced length before any data arrives (the paper's
//! premise), a pull request looks the named blob up in the
//! [`MemStore`](crate::store::MemStore) and blasts it back with the strategy
//! the client asked for.  A session leaves the table as it completes.
//! A receiver (push) completes one datagram before its peer does — a
//! lost final ack strands the peer (§3.2.2) — so it commits its blob,
//! moving the receive buffer into the store, and leaves a record of a
//! few words, and no timer, in the shard's
//! [`TailRecords`], which re-acknowledges the peer's tail until it has
//! been quiet for [`NodeConfig::linger`].  A copy leg that *pulled*
//! leaves the same kind of record in a second table, answered through
//! the egress socket, for `COPY_GRACE` (5 s).
//!
//! The receiving side of each handshake sets the blast
//! ([`blast_udp::grant`]).  A push's echo grants the client this shard's
//! socket queue, in datagrams of the push's size, divided among the
//! sessions the shard holds, and the shard's measured receive interval
//! per datagram (`Cr`, smoothed over its pushes); a pull's sender bursts
//! what the client's request grants.  A copy leg does the same from the
//! other side: a pull copy's request grants the egress socket's queue
//! divided among the copies in flight, and a push copy bursts what the
//! remote's echo grants.  A grant is never more than the grants still
//! held by transfers receiving on the socket leave of its queue, so the
//! grants in force never sum past it; a session admitted when less
//! than the configured initial burst is left gets none and is paced as
//! an ungranted sender is.
//!
//! Each shard also remembers, per peer, the burst and round-trip
//! estimate that peer's last completed transfer ended at (a
//! [`PathTable`] of `max_sessions` entries): a pull's sender, or a push
//! copy's, starts at that burst within the grant — lower than the grant
//! once a loss trimmed it — and arms its round-0 retransmission timer at
//! the peer's measured RTO (floored) instead of the configured
//! `initial`; a copy leg's request re-sends start at that RTO too.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{IpAddr, Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use blast_core::api::{CompletionInfo, TimerToken};
use blast_core::blast::{BlastReceiver, BlastSender, FinishedReceiver};
use blast_core::config::ProtocolConfig;
use blast_core::multiblast::MultiBlastSender;
use blast_core::pool::BufferPool;
use blast_core::{AdaptiveTimeout, Engine, PacingConfig};
use blast_telemetry::{EventKind, Recorder, Telemetry};
use blast_udp::copy::{errcode, BlobDigest, CopyMode, CopyMsg, CopyState, CopyStatus, CopySubmit};
use blast_udp::fcs;
use blast_udp::grant::{self, Grant};
use blast_udp::handshake::{Direction, Request, MAX_TRANSFER_BYTES};
use blast_udp::netio::NetIo;
use blast_udp::outbound::Outbound;
use blast_udp::path::{self, PathTable};
use blast_udp::pump::{self, Input};
use blast_udp::sockopt;
use blast_udp::timers::TimerWheel;
use blast_udp::timewait::TailRecords;
use blast_wire::checksum::crc32;
use blast_wire::header::PacketKind;
use blast_wire::packet::{Datagram, DatagramBuilder};

use crate::metrics::{NodeMetrics, SessionReport};
use crate::store::{shared_store, SharedStore};

/// Remove a terminal copy from the table after its status grace window.
const REAP: TimerToken = TimerToken(u64::MAX);
/// Abandon an entry whose peer went silent.  (A copy leg's own
/// [`RETRY`](blast_udp::outbound::RETRY) token sits just below.)
const GIVE_UP: TimerToken = TimerToken(u64::MAX - 1);

/// How long a terminal copy keeps answering status queries before it is
/// reaped — the control-plane twin of the data-plane linger window: the
/// orchestrating client must be able to read the final status even if
/// its first few polls are lost.  A pull copy's tail record lasts as long.
const COPY_GRACE: Duration = Duration::from_secs(5);

/// How many finished pulls a shard remembers ([`FinishedPulls`]).
const FINISHED_PULLS: usize = 256;

/// The last [`FINISHED_PULLS`] pulls a shard finished, by transfer id
/// and peer.  A pull's sender completes on its client's final ack, so a
/// status report that client sends after it — the answer to a tail
/// probe, or a second answer to a tail the first already acknowledged
/// — finds no session; from the session's own peer it is a late answer,
/// dropped uncounted, and from anyone else still unroutable.  Kept
/// apart from the push tail table, whose places stay for live pushes;
/// a lookup, made only for a datagram that missed every session and
/// tail record, scans it.
#[derive(Debug)]
struct FinishedPulls(VecDeque<(u32, SocketAddr)>);

impl FinishedPulls {
    /// Remember pull `id` of `peer`, forgetting the oldest once full.
    fn hold(&mut self, id: u32, peer: SocketAddr) {
        if self.0.len() == FINISHED_PULLS {
            self.0.pop_front();
        }
        self.0.push_back((id, peer));
    }

    /// Whether `peer` is one of the last pulls' peers, for pull `id`.
    fn holds(&self, id: u32, peer: SocketAddr) -> bool {
        self.0.contains(&(id, peer))
    }
}

/// Tunables for one node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Address to bind (use port 0 for an ephemeral port).
    pub bind: SocketAddr,
    /// Reactor shards.  `1` is the classic single-threaded node; more
    /// bind an `SO_REUSEPORT` socket group so the kernel spreads
    /// sessions across threads.  Platforms without reuseport groups
    /// (non-Linux) fall back to one shard.
    pub shards: usize,
    /// Base protocol parameters for server-side engines.  Packet size,
    /// strategy and multiblast chunk are overridden per session by the
    /// client's request; timeout and retry limits are the node's.
    pub protocol: ProtocolConfig,
    /// How long a completed push keeps re-acknowledging duplicates of
    /// its sender's tail (§3.2.2).  A *quiet* window: traffic from the
    /// peer restarts it, up to
    /// [`session_timeout`](NodeConfig::session_timeout).  Must exceed
    /// the slowest client's retransmission interval.  What lingers is a
    /// record of a few words in the shard's tail table — no buffer, no
    /// timer, no [`max_sessions`](NodeConfig::max_sessions) slot — and
    /// the table holds `max_sessions` of them: once it is full of live
    /// ones, the oldest-held goes early.  Pulls do not linger: a sender
    /// that completed has heard the final ack.
    pub linger: Duration,
    /// Bound on a session's total lifetime: an engine that has not
    /// completed by then is failed (peer crashed mid-transfer), and a
    /// completed push still lingering stops being answered for.
    pub session_timeout: Duration,
    /// Maximum concurrent *unfinished* sessions per shard — the ones
    /// that hold an engine and, for pushes, a whole pre-allocated
    /// receive buffer; requests beyond it are cancelled.  A session
    /// stops counting the moment it completes or fails, so the cap
    /// bounds memory committed to transfers in progress, not the rate
    /// at which short ones come and go.  (Third-party copies, and the
    /// tail records of completed pushes and pull copies, are each held
    /// to the same number, separately.)
    pub max_sessions: usize,
    /// Largest transfer a push request may announce.  The handshake
    /// pre-allocates the whole receive buffer from the wire-supplied
    /// length (the paper's premise), so without a bound one spoofed
    /// datagram could demand a terabyte allocation.
    pub max_transfer_bytes: usize,
}

impl Default for NodeConfig {
    /// One shard on an ephemeral loopback port, with
    /// [`ProtocolConfig::lan`] as its protocol: the timeout, pacing and
    /// retry budget of the node's own engines, and the selective
    /// retransmission its copy legs propose to a far node, the same as
    /// a `Client` proposes to it.
    fn default() -> Self {
        NodeConfig {
            bind: "127.0.0.1:0".parse().expect("literal addr"),
            shards: 1,
            protocol: ProtocolConfig::lan(),
            linger: Duration::from_millis(250),
            session_timeout: Duration::from_secs(30),
            max_sessions: 1024,
            max_transfer_bytes: MAX_TRANSFER_BYTES,
        }
    }
}

/// Names one transfer a shard is driving, in its table and its timer
/// wheel.  Both kinds of id are chosen by clients, independently, so
/// the kind is part of the key: a copy id may equal a live session's
/// transfer id without either seeing the other's datagrams or timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Key {
    /// A session a client opened toward this node, by transfer id.
    Inbound(u32),
    /// A third-party copy this node drives toward another node, by
    /// copy id — which is also the transfer id of the outbound leg, so
    /// the client's id-uniqueness discipline extends to the remote
    /// node.
    Outbound(u32),
}

impl Key {
    fn id(self) -> u32 {
        match self {
            Key::Inbound(id) | Key::Outbound(id) => id,
        }
    }
}

/// One transfer in a shard's table.
struct Entry {
    /// A session's engine, until it finishes.  (A copy's lives in its
    /// [`Outbound`] leg.)
    engine: Option<Box<dyn Engine>>,
    /// The blob's name (moves into the session's report at the end).
    name: String,
    started: Instant,
    link: Link,
}

/// Where an entry's datagrams go, and what the node tracks about the
/// far end.
enum Link {
    Inbound(Session),
    /// A copy's leg toward the other node, handshaking or running.
    Outbound(Box<CopyLeg>),
    /// A copy that ended (or was refused at submit) with nobody left
    /// to answer: nothing remains but the status it tells queries until
    /// it is reaped — `Failed` with the real error code, not an
    /// amnesiac `Unknown`.
    Settled(CopyStatus),
}

/// The peer side of a session: datagrams leave through the shard
/// socket, addressed to `peer`.
struct Session {
    peer: SocketAddr,
    direction: Direction,
    /// The echo datagram, re-sent verbatim for duplicate requests.
    echo: Vec<u8>,
    /// The datagrams of the main socket's queue the echo granted the
    /// push (0 for a pull, or no grant), held until the session ends.
    granted: u32,
}

/// One third-party copy: the node acts as a *client* toward another
/// node — the same [`Outbound`] leg, FCS-framed, its own clients run —
/// driven from this shard's reactor loop (no blocking thread per copy).
///
/// Legs use the shard's egress socket for the remote's address family,
/// not the shard's `SO_REUSEPORT` socket: the kernel's 4-tuple hash over
/// the shared address would deliver the remote's replies to a sibling
/// shard.  Legs share that socket, its batches and its flush, as
/// sessions share the main one, and their timers ride the one wheel.
struct CopyLeg {
    mode: CopyMode,
    /// The far node: the shard's path table keys the leg by it, and
    /// only it may drive the leg.
    remote: SocketAddr,
    /// The egress socket's place in [`Shard::ports`].
    port: usize,
    /// What a query is told once the copy is terminal, and the part
    /// known from the start before that (for a push, its size and
    /// CRC-32; a pull's are fixed on completion).
    status: CopyStatus,
    outbound: Outbound<'static>,
    /// The datagrams of the egress socket's queue a pull copy's request
    /// granted (0 for a push copy, or no grant), held until it settles.
    granted: u32,
}

impl CopyLeg {
    /// The status a query is told: exact when terminal, read off the
    /// leg (echoed size, engine counters) while the data phase runs.
    fn status(&self) -> CopyStatus {
        let mut status = self.status;
        let (Some(engine), Some(echo)) = (self.outbound.engine(), self.outbound.echoed()) else {
            return status; // handshaking, or retired at completion
        };
        let st = engine.stats();
        let packets = match self.mode {
            // Every retransmission is also counted as sent.
            CopyMode::Push => st.data_packets_sent - st.data_packets_retransmitted,
            CopyMode::Pull => st.data_packets_received,
        };
        status.state = CopyState::Running;
        status.bytes_total = echo.len as u64;
        status.bytes_done = (packets * echo.packet_payload as u64).min(status.bytes_total);
        status
    }
}

impl Link {
    /// The socket (by place in [`Shard::ports`]) and address this entry
    /// sends to and hears from; `None` once a copy settled.
    fn peer(&self) -> Option<(usize, SocketAddr)> {
        match self {
            Link::Inbound(session) => Some((MAIN, session.peer)),
            Link::Outbound(copy) => Some((copy.port, copy.remote)),
            Link::Settled(_) => None,
        }
    }
}

impl Entry {
    /// The status a copy reports (`None` for a session).
    fn copy_status(&self) -> Option<CopyStatus> {
        match &self.link {
            Link::Inbound(_) => None,
            Link::Settled(status) => Some(*status),
            Link::Outbound(copy) => Some(copy.status()),
        }
    }
}

/// Stage a `len`-byte datagram that `write` builds into `io`'s batch
/// toward `peer`, FCS-framed ([`fcs::build`]) where the backend stages
/// it — the batched backend's send arena — so its bytes are written
/// once in user space.
fn stage(
    io: &mut NetIo,
    socket: &UdpSocket,
    peer: SocketAddr,
    len: usize,
    write: &mut dyn FnMut(&mut [u8]),
) -> io::Result<()> {
    io.queue_with(socket, len + fcs::FCS_LEN, Some(peer), &mut |frame| {
        fcs::build(frame, write)
    })
}

/// The datagrams of `port`'s queue granted to the transfers still
/// receiving on it: pushes in flight on the main socket, pull copies
/// not yet settled on an egress one.
fn granted(table: &HashMap<Key, Box<Entry>>, port: usize) -> usize {
    let held = |entry: &Entry| match &entry.link {
        Link::Inbound(session) if port == MAIN && entry.engine.is_some() => session.granted,
        Link::Outbound(copy) if copy.port == port => copy.granted,
        _ => 0,
    };
    table.values().map(|entry| held(entry) as usize).sum()
}

/// A status with nothing to report but a state and an error code.
fn bare_status(state: CopyState, error: u8) -> CopyStatus {
    CopyStatus {
        state,
        error,
        bytes_done: 0,
        bytes_total: 0,
        crc32: 0,
    }
}

/// One reactor shard: a socket, an event loop, and the table of
/// transfers the kernel's 4-tuple hash (sessions) and orchestrating
/// clients (copies) routed to it.
///
/// A single-shard node *is* one of these; [`NodeBuilder`] builds them.
struct NodeServer {
    shard: Shard,
    shutdown: Arc<AtomicBool>,
    /// Every transfer this shard is driving, sessions and copies alike.
    /// Boxed: the table doubles as it grows, and at thousands of short
    /// sessions a second most of its slots are empty.
    table: HashMap<Key, Box<Entry>>,
}

/// A socket and the syscall backend that drives it: GRO-coalesced
/// `recvmmsg` drains and GSO `sendmmsg` bursts with event-driven idle
/// waits where the kernel offers both offloads, the portable
/// single-syscall backend elsewhere (`BLAST_NETIO=portable` forces it).
struct Port {
    socket: UdpSocket,
    io: NetIo,
    /// The receive buffer the kernel reports for `socket`, which the
    /// grants this port's transfers get divide up; `None` where it
    /// cannot be read (no grant is sent then).
    rcvbuf: Option<usize>,
}

impl Port {
    fn new(socket: UdpSocket) -> Port {
        // Grow both socket queues (best effort): a node fans many
        // concurrent pushes into one socket (round-0 loss to a default
        // SO_RCVBUF was the measured goodput ceiling), and batched
        // bursts submit whole rounds per sendmmsg.
        sockopt::grow_buffers(&socket);
        let rcvbuf = sockopt::recv_buffer(&socket).ok();
        let io = NetIo::reactor(&socket);
        Port { socket, io, rcvbuf }
    }
}

/// The node's own socket's place in [`Shard::ports`].
const MAIN: usize = 0;

/// Everything on a shard that a table entry acts on — the socket, the
/// wheel, the store, the metrics.  Kept apart from the table so an
/// entry can be borrowed from the table and handed to these methods
/// without a second lookup.
struct Shard {
    /// The node's own socket at [`MAIN`], then the egress sockets, each
    /// drained and flushed once per tick; the main backend waits on all.
    ports: Vec<Port>,
    /// Where in `ports` the egress socket toward IPv4 (IPv6) remotes
    /// sits, once a copy opened it; it then lives as long as the shard.
    egress: [Option<usize>; 2],
    config: NodeConfig,
    store: SharedStore,
    /// The shard's own accumulator: plain fields, no lock — only this
    /// reactor thread touches it, so per-datagram accounting is a bare
    /// integer increment.
    local: NodeMetrics,
    /// The published snapshot the owning [`NodeHandle`] reads.  Written
    /// by [`publish`](Shard::publish) at the end of every tick — never
    /// from the per-datagram path.
    slot: Arc<Mutex<NodeMetrics>>,
    /// Engine timers of every entry, the copy legs' request retries,
    /// and the node-owned [`REAP`] and [`GIVE_UP`] tokens.
    timers: TimerWheel<(Key, TimerToken)>,
    /// Epoch for the engines' sans-I/O clock ([`Engine::set_now`]):
    /// every engine in the table shares this zero point, so the
    /// adaptive RTO's round-trip samples are plain differences.
    epoch: Instant,
    /// Completed pushes, answering their peers' tails; consulted only
    /// for datagrams that miss every session.
    tails: TailRecords,
    /// The same for pull copies, answering their remotes' tails through
    /// the egress sockets.
    copy_tails: TailRecords,
    /// The last pulls finished, whose clients' late status reports are
    /// theirs, not unroutable.
    pulled: FinishedPulls,
    /// The burst and round-trip estimate each peer's last completed
    /// transfer ended at, which seed the next sender toward it.
    paths: PathTable,
    /// The shard's measured receive interval per datagram (`Cr`),
    /// smoothed over the pushes and pull copies it received: what its
    /// grants report.
    drain: Option<Duration>,
    /// The blob the shard's last commit displaced, when no reader still
    /// held it: the next push of exactly its length receives into it
    /// instead of a fresh zero-filled allocation (see
    /// [`commit`](Shard::commit)).
    spare: Option<Vec<u8>>,
    /// The shard's flight recorder, when the node was built with
    /// telemetry.  Handed to every engine on admission.
    recorder: Option<Recorder>,
    /// Every shard's snapshot slot (own included), so a `Stats` query
    /// landing on this shard can answer for the whole node.
    peer_slots: Vec<Arc<Mutex<NodeMetrics>>>,
}

impl NodeServer {
    /// Wrap an already-bound socket in a reactor shard.
    fn with_socket(
        config: NodeConfig,
        store: SharedStore,
        socket: UdpSocket,
        shutdown: Arc<AtomicBool>,
    ) -> io::Result<Self> {
        socket.set_nonblocking(true)?;
        let main = Port::new(socket);
        let mut local = NodeMetrics::default();
        local.netio_backend = main.io.backend().name();
        local.netio_offload = main.io.offload().name();
        let slot = Arc::new(Mutex::new(local.clone()));
        let peer_slots = vec![Arc::clone(&slot)];
        Ok(NodeServer {
            shard: Shard {
                ports: vec![main],
                egress: [None; 2],
                tails: TailRecords::new(config.max_sessions),
                copy_tails: TailRecords::new(config.max_sessions),
                pulled: FinishedPulls(VecDeque::with_capacity(FINISHED_PULLS)),
                paths: PathTable::new(config.max_sessions),
                drain: None,
                config,
                store,
                local,
                slot,
                timers: TimerWheel::new(),
                epoch: Instant::now(),
                spare: None,
                recorder: None,
                peer_slots,
            },
            shutdown,
            table: HashMap::new(),
        })
    }

    /// Attach the shard's flight recorder.  The recorder's epoch
    /// replaces the engine clock's zero point, so engine `record_at`
    /// stamps and the backend's wall-clock `record` stamps land on one
    /// consistent node-wide timeline.
    fn attach_recorder(&mut self, recorder: Recorder) {
        self.shard.epoch = recorder.epoch();
        self.shard.ports[MAIN].io.set_recorder(recorder.clone());
        self.shard.recorder = Some(recorder);
    }

    /// The bound address clients should talk to.
    fn local_addr(&self) -> io::Result<SocketAddr> {
        self.shard.ports[MAIN].socket.local_addr()
    }

    /// Run the event loop until the shutdown flag is set.
    fn run(&mut self) -> io::Result<()> {
        // One receive buffer for the shard's lifetime, sized for the
        // largest per-datagram view the backend can pop: a
        // GRO-coalesced read's segments never exceed one framed
        // datagram, but 64 KB keeps the shard correct even if a peer
        // sends jumbo datagrams.
        let mut buf = vec![0u8; 64 * 1024];
        let mut result = Ok(());
        while result.is_ok() && !self.shutdown.load(Ordering::Relaxed) {
            result = self.tick(&mut buf);
        }
        // Whatever happened, leave the final state visible to the
        // handle before the thread exits.
        self.shard.publish();
        result
    }

    /// One reactor cycle: timers, then a drain of every socket, then a
    /// flush of everything the engines queued and a publish of the
    /// shard's metrics, then (if idle) an event-driven wait — one
    /// `ppoll` over the shard's sockets wakes on the first datagram or
    /// at the next timer deadline, whichever comes first (the portable
    /// fallback degrades to a bounded sleep).
    fn tick(&mut self, buf: &mut [u8]) -> io::Result<()> {
        let now = Instant::now();
        let mut timers_fired = 0u64;
        while let Some((key, token)) = self.shard.timers.pop_due(now) {
            timers_fired += 1;
            self.on_timer(key, token)?;
        }
        let mut drained = 0;
        for port in 0..self.shard.ports.len() {
            drained += self.drain(port, buf)?;
        }
        // Only ticks that did work are traced — idle wakeups would
        // drown the ring without saying anything.
        if drained > 0 || timers_fired > 0 {
            if let Some(rec) = &self.shard.recorder {
                rec.record(0, EventKind::ShardTick, drained as u64, timers_fired);
            }
        }
        let shard = &mut self.shard;
        // Everything staged this tick goes out before any wait: one
        // sendmmsg per socket carries the coalesced acks/bursts of all
        // its sessions or copies.
        for Port { socket, io, .. } in &mut shard.ports {
            // A refusal is its datagram's loss (see `tolerate`).
            shard.local.send_errors += u64::from(io.flush(socket).is_err());
        }
        shard.sync_io_stats();
        shard.publish();
        let (now, next) = (Instant::now(), shard.timers.next_deadline());
        // A deadline that came due during this tick's own work (a pace
        // gap shorter than the bursts it separates) is taken at once,
        // not after a `MIN_WAIT` sleep.
        if drained == 0 && next.is_none_or(|due| due > now) {
            let park = next
                .map_or(Duration::from_millis(5), |due| due - now)
                .clamp(PacingConfig::MIN_WAIT, Duration::from_millis(10));
            shard.ports[MAIN].io.wait(park)?;
        }
        Ok(())
    }

    /// Receive on `port` until it is dry (or a batch limit, so timers
    /// are never starved by a firehose).  Returns datagrams processed.
    fn drain(&mut self, port: usize, buf: &mut [u8]) -> io::Result<usize> {
        let mut drained = 0;
        while drained < 128 {
            // Pop from the last recvmmsg batch; refill with one kernel
            // crossing when it runs dry.
            let Port { socket, io, .. } = &mut self.shard.ports[port];
            let Some((n, peer)) = io.pop_into(buf) else {
                if io.fill(socket)? == 0 {
                    break;
                }
                continue;
            };
            let Some(peer) = peer else { continue };
            drained += 1;
            self.shard.local.datagrams_received += 1;
            let Some(body) = fcs::unframe(&buf[..n]) else {
                self.shard.local.fcs_drops += 1;
                continue;
            };
            self.on_datagram(&buf[..body], port, peer)?;
        }
        Ok(drained)
    }

    /// Route one datagram that arrived on `port` from `peer`: the main
    /// socket serves clients, an egress socket (which any host can
    /// reach too) only copy legs' remotes.  Only an entry's own peer
    /// drives it; what no entry takes may be a finished transfer's tail.
    fn on_datagram(&mut self, raw: &[u8], port: usize, peer: SocketAddr) -> io::Result<()> {
        let Ok(dgram) = Datagram::parse(raw) else {
            self.shard.local.malformed += 1;
            return Ok(());
        };
        let key = match dgram.kind {
            _ if port != MAIN => Key::Outbound(dgram.transfer_id),
            PacketKind::Request => return self.on_request(&dgram, peer),
            PacketKind::Stats => return self.shard.on_stats(&dgram, peer),
            PacketKind::Copy => return self.on_copy(&dgram, peer),
            _ => Key::Inbound(dgram.transfer_id),
        };
        let shard = &mut self.shard;
        match self.table.get_mut(&key) {
            Some(entry) if entry.link.peer() == Some((port, peer)) => {
                if shard.pump(key, entry, Input::Datagram(&dgram))? {
                    self.reap(key);
                }
            }
            _ => {
                let tails = match key {
                    Key::Inbound(_) => &mut shard.tails,
                    Key::Outbound(_) => &mut shard.copy_tails,
                };
                let (now, mut status) = (Instant::now(), [0u8; FinishedReceiver::STATUS_LEN]);
                match tails.answer(now, &dgram, peer, &mut status) {
                    Some(Some(n)) => shard.send_framed(port, peer, &status[..n])?,
                    Some(None) => {}
                    None if dgram.kind == PacketKind::Ack
                        && key == Key::Inbound(dgram.transfer_id)
                        && shard.pulled.holds(dgram.transfer_id, peer) => {}
                    None => shard.local.unroutable += 1,
                }
            }
        }
        Ok(())
    }

    fn on_request(&mut self, dgram: &Datagram<'_>, peer: SocketAddr) -> io::Result<()> {
        let id = dgram.transfer_id;
        let key = Key::Inbound(id);
        let shard = &mut self.shard;
        let Some(mut request) = Request::parse(dgram) else {
            shard.local.malformed += 1;
            return Ok(());
        };
        let held = shard.tails.peer(Instant::now(), id);
        match self.table.get(&key).map(|entry| &entry.link) {
            None if held.is_none() => {}
            // Duplicate request: our echo was lost; re-send it.
            Some(Link::Inbound(session)) if session.peer == peer => {
                return shard.send_framed(MAIN, peer, &session.echo);
            }
            // A duplicate that outlived its session: the peer has long
            // had the echo — it went on to send every byte.
            None if held == Some(peer) => return Ok(()),
            // Someone else's id: refuse rather than cross wires.
            _ => {
                shard.local.collisions += 1;
                return shard.send_cancel(id, peer);
            }
        }
        // Finished sessions hold no slot: what the cap bounds is engines
        // and receive buffers, and a finished session has neither.
        if shard.local.sessions_in_flight() >= shard.config.max_sessions as u64 {
            shard.local.rejected_busy += 1;
            return shard.send_cancel(id, peer);
        }
        // The announced length becomes an eager allocation: bound it
        // before trusting a 24-byte datagram with a terabyte.
        if request.direction == Direction::Push && request.len > shard.config.max_transfer_bytes {
            shard.local.rejected_oversize += 1;
            return shard.send_cancel(id, peer);
        }

        let mut engine_cfg = shard.config.protocol.clone();
        request.apply_to(&mut engine_cfg);
        let (mut engine, echo): (Box<dyn Engine>, Vec<u8>) = match request.direction {
            // Set the whole receive buffer aside from the announced
            // length — the paper's premise — and echo the request with
            // this shard's grant: its queue shared with the sessions it
            // already holds.  A spare of exactly that length is the
            // buffer; any other length drops it and allocates.
            Direction::Push => {
                let engine = match shard.spare.take() {
                    Some(buf) if buf.len() == request.len => {
                        BlastReceiver::with_buffer(id, buf, &engine_cfg)
                    }
                    _ => BlastReceiver::new(id, request.len, &engine_cfg),
                };
                let sessions = shard.local.sessions_in_flight() as usize + 1;
                let held = granted(&self.table, MAIN);
                request.grant = shard.grant(MAIN, request.packet_payload, sessions, held);
                (Box::new(engine), request.build_datagram(id))
            }
            Direction::Pull => {
                let Some(blob) = shard.store.get(&request.name) else {
                    shard.local.pull_misses += 1;
                    return shard.send_cancel(id, peer);
                };
                // Fill the length in before echoing: the echo is the
                // client's size announcement.  The client's grant sets
                // the sender's burst and tail timer; the echo carries
                // none back.
                request.len = blob.len();
                let granted = request.grant.take();
                let echo = request.build_datagram(id);
                let mut engine: Box<dyn Engine> = if request.multiblast_chunk > 0 {
                    Box::new(MultiBlastSender::new(id, blob, &engine_cfg))
                } else {
                    Box::new(BlastSender::new(id, blob, &engine_cfg))
                };
                if let (Some(granted), Some(control)) = (granted, engine.control_mut()) {
                    control.grant(granted);
                }
                (engine, echo)
            }
        };

        shard.local.sessions_accepted += 1;
        match request.direction {
            Direction::Push => shard.local.pushes += 1,
            Direction::Pull => shard.local.pulls += 1,
        }
        // Publish the admission before any datagram of the session can
        // reach the wire: a client returns the moment its transfer
        // completes, and whoever then counts sessions in flight
        // (`NodeHandle::wait_idle`) must find this one.
        shard.publish();
        // Echo before starting the engine so that, in order-preserving
        // conditions, the size announcement precedes round-0 data.  A
        // pull's echo leaves at once: staged, it would wait for the
        // first full batch of a granted round 0 (≈ 360 framed datagrams,
        // ≈ 0.3 ms), and the client cannot take a byte before it.
        shard.send_framed(MAIN, peer, &echo)?;
        if request.direction == Direction::Pull {
            let Port { socket, io, .. } = &mut shard.ports[MAIN];
            shard.local.send_errors += u64::from(io.flush(socket).is_err());
        }
        // A sender starts where the peer's last transfer left the burst
        // (within the grant) and the round-trip estimate.
        let carried = shard.paths.carried(Instant::now(), peer);
        path::seed(engine.as_mut(), carried);
        if let Some(rec) = &shard.recorder {
            engine.set_recorder(rec.clone());
            let pull = u64::from(request.direction == Direction::Pull);
            rec.record(id, EventKind::SessionAdmit, pull, request.len as u64);
        }
        shard
            .timers
            .arm((key, GIVE_UP), shard.config.session_timeout);
        let entry = self.table.entry(key).or_insert_with(|| {
            Box::new(Entry {
                engine: Some(engine),
                name: request.name,
                started: Instant::now(),
                link: Link::Inbound(Session {
                    peer,
                    direction: request.direction,
                    echo,
                    granted: request.grant.map_or(0, |g| g.queue),
                }),
            })
        });
        if shard.pump(key, entry, Input::Start)? {
            self.reap(key);
        }
        Ok(())
    }

    fn on_timer(&mut self, key: Key, token: TimerToken) -> io::Result<()> {
        if token == REAP {
            self.reap(key);
            return Ok(());
        }
        let Some(entry) = self.table.get_mut(&key) else {
            return Ok(());
        };
        let spent = match (token, &entry.link) {
            (GIVE_UP, Link::Inbound(_)) => {
                // The hard bound on session lifetime: fail an engine
                // that never completed.
                let stats = entry.engine.as_ref().map(|e| e.stats()).unwrap_or_default();
                let info = CompletionInfo::failure(
                    blast_core::CoreError::BadState {
                        what: "session timed out",
                    },
                    stats,
                );
                self.shard.finish_session(key, entry, &info);
                true
            }
            // The session-lifetime bound doubles as the copy's: an
            // outbound leg that has not settled by then is abandoned.
            (GIVE_UP, Link::Outbound(copy)) => {
                let error = match copy.outbound.echoed() {
                    None => errcode::HANDSHAKE_TIMEOUT,
                    Some(_) => errcode::TRANSFER_FAILED,
                };
                self.shard.end_copy(key, entry, Err(error));
                false
            }
            _ => self.shard.pump(key, entry, Input::Timer(token))?,
        };
        if spent {
            self.reap(key);
        }
        Ok(())
    }

    /// Drop `key`'s entry and whatever timers it still has armed.
    fn reap(&mut self, key: Key) {
        self.table.remove(&key);
        self.shard.forget_timers(key);
    }

    /// Dispatch one `Copy` control datagram from an orchestrating
    /// client: submit a copy, answer a status query, or digest a blob.
    fn on_copy(&mut self, dgram: &Datagram<'_>, peer: SocketAddr) -> io::Result<()> {
        let Some(msg) = CopyMsg::decode(dgram.payload) else {
            self.shard.local.malformed += 1;
            return Ok(());
        };
        let id = dgram.transfer_id;
        let nonce = dgram.seq;
        let reply = match msg {
            CopyMsg::Submit(submit) => CopyMsg::Status(self.on_copy_submit(id, submit)?),
            // An unknown id decodes to a terminal `Unknown` status:
            // never submitted, or already past the grace window.
            CopyMsg::Query => CopyMsg::Status(
                self.copy_status(id)
                    .unwrap_or(bare_status(CopyState::Unknown, errcode::NONE)),
            ),
            CopyMsg::Digest { name } => {
                let blob = self.shard.store.get(&name);
                CopyMsg::DigestReply(BlobDigest {
                    found: blob.is_some(),
                    len: blob.as_ref().map_or(0, |b| b.len() as u64),
                    crc32: blob.as_ref().map_or(0, |b| crc32(b)),
                })
            }
            // Replies are node-to-client; one arriving *at* a node is
            // noise from a confused or malicious peer.
            CopyMsg::Status(_) | CopyMsg::DigestReply(_) => {
                self.shard.local.unroutable += 1;
                return Ok(());
            }
        };
        // Echo the request nonce in `seq`.
        let payload = reply.encode();
        let mut buf = vec![0u8; blast_wire::HEADER_LEN + payload.len()];
        let n = DatagramBuilder::new(id)
            .build_copy(&mut buf, nonce, &payload)
            .expect("copy reply fits");
        self.shard.send_framed(MAIN, peer, &buf[..n])
    }

    /// The current status of copy `id`, if the table knows it.
    fn copy_status(&self, id: u32) -> Option<CopyStatus> {
        self.table.get(&Key::Outbound(id))?.copy_status()
    }

    /// Admit (or refuse) a copy order and return the status to report.
    /// Idempotent: a duplicate submit for a known id — the client
    /// retransmitting because our reply was lost — just re-reports the
    /// current status.
    fn on_copy_submit(&mut self, id: u32, submit: CopySubmit) -> io::Result<CopyStatus> {
        if let Some(status) = self.copy_status(id) {
            return Ok(status);
        }
        // Copies, live or settled, are admitted against `max_sessions`
        // apart from the sessions.
        let is_copy = |key: &&Key| matches!(key, Key::Outbound(_));
        let copies = self.table.keys().filter(is_copy).count();
        let shard = &mut self.shard;
        if copies >= shard.config.max_sessions {
            shard.local.rejected_busy += 1;
            return Ok(bare_status(CopyState::Failed, errcode::BUSY));
        }
        shard.local.copies_requested += 1;
        if let Some(rec) = &shard.recorder {
            rec.record(
                id,
                EventKind::CopyAdmit,
                u64::from(submit.mode == CopyMode::Pull),
                u64::from(submit.remote.port()),
            );
            if submit.epoch_ns != 0 {
                // The client shipped its trace epoch: anchor this
                // recorder's timeline to it so one Perfetto view lines
                // the hosts up.  Both epochs land as unix nanoseconds.
                let now_unix = std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_nanos() as u64)
                    .unwrap_or(0);
                let mine = now_unix.saturating_sub(shard.epoch.elapsed().as_nanos() as u64);
                rec.record(id, EventKind::ClockAnchor, submit.epoch_ns, mine);
            }
        }
        let key = Key::Outbound(id);
        let table = &self.table;
        let held = |port| granted(table, port);
        let link = match shard.open_copy(id, &submit, copies, held) {
            Ok(copy) => {
                shard
                    .timers
                    .arm((key, GIVE_UP), shard.config.session_timeout);
                Link::Outbound(Box::new(copy))
            }
            Err(error) => {
                let status = bare_status(CopyState::Handshaking, errcode::NONE);
                Link::Settled(shard.settle(key, status, Err(error)))
            }
        };
        let mut entry = Box::new(Entry {
            engine: None,
            name: submit.name,
            started: Instant::now(),
            link,
        });
        // The leg's first request goes out now.
        shard.pump(key, &mut entry, Input::Start)?;
        let status = entry.copy_status().expect("a copy's entry");
        self.table.insert(key, entry);
        Ok(status)
    }
}

impl Shard {
    /// Mirror the backends' syscall counters, summed over the shard's
    /// sockets, into the shard accumulator.  The backends are the
    /// authority on what actually reached the kernel: `datagrams_sent`
    /// counts flushed submissions only, so datagrams dropped at flush
    /// are never double-booked as sent.
    fn sync_io_stats(&mut self) {
        let mut io = self.ports[MAIN].io.stats;
        for port in &self.ports[MAIN + 1..] {
            io += port.io.stats;
        }
        self.local.io = io;
        self.local.datagrams_sent = io.datagrams_sent;
        self.local.send_drops = io.send_drops;
    }

    /// Refresh the published snapshot: one uncontended lock and a copy
    /// of the counters into the slot's own allocations, once per tick,
    /// never per datagram.
    fn publish(&mut self) {
        self.local
            .publish_into(&mut self.slot.lock().expect("metrics slot"));
    }

    /// Frame a copy of one datagram into `port`'s batch ([`stage`]): a
    /// whole burst goes out in one sendmmsg when the queue fills or the
    /// tick flushes.  Loss-like
    /// submission failures (peer's ICMP unreachable, full send buffer)
    /// are counted as drops inside the backend, and so are refusals
    /// ([`tolerate`](Shard::tolerate)) — the protocols recover by
    /// retransmission, so neither fails the server — and
    /// `datagrams_sent` is mirrored from the backend in
    /// [`sync_io_stats`](Shard::sync_io_stats): only datagrams that
    /// actually flushed count.
    fn send_framed(&mut self, port: usize, peer: SocketAddr, datagram: &[u8]) -> io::Result<()> {
        let Port { socket, io, .. } = &mut self.ports[port];
        let copy = &mut |body: &mut [u8]| body.copy_from_slice(datagram);
        let queued = stage(io, socket, peer, datagram.len(), copy);
        self.tolerate(queued);
        Ok(())
    }

    /// A send the kernel refused outright (a spoofed port-0 source, a
    /// broadcast address, no route, a firewall rule) costs its own
    /// datagram — counted in `send_drops` by the backend, whose batch
    /// still went out — never the shard, nor the other sessions or
    /// copies that share the socket: count it and carry on.
    fn tolerate(&mut self, sent: io::Result<()>) {
        if sent.is_err() {
            self.local.send_errors += 1;
        }
    }

    fn send_cancel(&mut self, id: u32, peer: SocketAddr) -> io::Result<()> {
        let mut buf = [0u8; blast_wire::HEADER_LEN];
        let n = DatagramBuilder::new(id)
            .build_cancel(&mut buf)
            .expect("cancel fits");
        self.send_framed(MAIN, peer, &buf[..n])
    }

    /// Build the outbound leg of a copy order, or say (as an
    /// [`errcode`]) what stops the copy at submit time.
    fn open_copy(
        &mut self,
        id: u32,
        submit: &CopySubmit,
        copies: usize,
        held: impl Fn(usize) -> usize,
    ) -> Result<CopyLeg, u8> {
        let remote = submit.remote;
        // Nothing can be sent there (`sendto` refuses both): fail now,
        // not after a session timeout of retries.
        if remote.port() == 0 || remote.ip() == IpAddr::V4(Ipv4Addr::BROADCAST) {
            return Err(errcode::TRANSFER_FAILED);
        }
        // A pull copy grants the egress socket's queue, shared with the
        // copies the table already holds (an upper bound on those using
        // the socket: it counts every copy, settled ones too) and less
        // what the pull copies on it still hold, so it opens the socket
        // first.
        let grant = match submit.mode {
            CopyMode::Pull => {
                let port = self.egress(remote).map_err(|_| errcode::TRANSFER_FAILED)?;
                let payload = self.config.protocol.packet_payload;
                self.grant(port, payload, copies + 1, held(port))
            }
            CopyMode::Push => None,
        };
        let protocol = &self.config.protocol;
        let mut status = bare_status(CopyState::Handshaking, errcode::NONE);
        let outbound = match submit.mode {
            CopyMode::Push => {
                let blob = self.store.get(&submit.name).ok_or(errcode::NOT_FOUND)?;
                status.bytes_total = blob.len() as u64;
                status.crc32 = crc32(&blob);
                Outbound::push(id, &submit.name, blob, protocol)
            }
            CopyMode::Pull => {
                let mut request = Request::pull(&submit.name, protocol);
                request.grant = grant;
                Outbound::pull(id, &request, protocol, self.config.max_transfer_bytes)
            }
        };
        let (Ok(mut outbound), Ok(port)) = (outbound, self.egress(remote)) else {
            return Err(errcode::TRANSFER_FAILED);
        };
        outbound.recorder = self.recorder.clone();
        outbound.carry(self.paths.carried(Instant::now(), remote));
        Ok(CopyLeg {
            mode: submit.mode,
            remote,
            port,
            status,
            outbound,
            granted: grant.map_or(0, |g| g.queue),
        })
    }

    /// The grant for one of `sessions` transfers of `packet_payload`-byte
    /// packets received on `port`, `held` datagrams of whose queue are
    /// granted already: its share of what is left and this shard's
    /// drain interval.  `None` where the queue cannot be read, or less
    /// than the configured initial burst is left of it.
    fn grant(&self, port: usize, payload: usize, sessions: usize, held: usize) -> Option<Grant> {
        let rcvbuf = self.ports[port].rcvbuf?;
        let floor = self.config.protocol.pacing.burst;
        grant::grant(rcvbuf, payload, sessions, held, floor, self.drain)
    }

    /// The place in `ports` of the egress socket toward `remote`'s
    /// address family, opened on first use: an ephemeral port, so
    /// replies reach this shard alone, watched by the main backend.
    fn egress(&mut self, remote: SocketAddr) -> io::Result<usize> {
        let family = usize::from(remote.is_ipv6());
        if let Some(port) = self.egress[family] {
            return Ok(port);
        }
        let any = ["0.0.0.0:0", "[::]:0"][family];
        let mut port = Port::new(UdpSocket::bind(any)?);
        if let Some(rec) = &self.recorder {
            port.io.set_recorder(rec.clone());
        }
        self.ports[MAIN].io.watch(&port.socket)?;
        self.ports.push(port);
        self.egress[family] = Some(self.ports.len() - 1);
        Ok(self.ports.len() - 1)
    }

    /// Cancel whatever timers `key`'s entry still has armed, the
    /// engine's and the node's own alike.
    fn forget_timers(&mut self, key: Key) {
        self.timers
            .cancel_range((key, TimerToken(0))..=(key, TimerToken(u64::MAX)));
    }

    /// Run one engine call for `entry` through the shared pump:
    /// transmissions are staged on the entry's socket toward its peer
    /// (flushed once per tick), timers ride the one wheel under `key`,
    /// and completion finishes the session or settles the copy.
    ///
    /// Returns whether the entry is spent — nothing left to do — for
    /// the caller, who owns the table, to reap.
    fn pump(&mut self, key: Key, entry: &mut Entry, input: Input<'_>) -> io::Result<bool> {
        let (epoch, now, timer_key) = (self.epoch, Instant::now(), |token| (key, token));
        let Some((port, peer)) = entry.link.peer() else {
            return Ok(false);
        };
        let Port { socket, io, .. } = &mut self.ports[port];
        let errors = &mut self.local.send_errors;
        let transmit = |len: usize, write: &mut dyn FnMut(&mut [u8])| {
            // A refusal is its datagram's loss (see `tolerate`).
            *errors += u64::from(stage(io, socket, peer, len, write).is_err());
            Ok(())
        };
        let done = match &mut entry.link {
            Link::Inbound(_) => {
                let Some(engine) = entry.engine.as_deref_mut() else {
                    return Ok(false);
                };
                pump::step(
                    engine,
                    epoch,
                    now,
                    input,
                    &mut self.timers,
                    timer_key,
                    transmit,
                )?
            }
            Link::Settled(_) => return Ok(false),
            Link::Outbound(copy) => {
                let asked = copy.outbound.requests_sent;
                let stepped =
                    copy.outbound
                        .step(epoch, now, input, &mut self.timers, timer_key, transmit);
                // Every request after the first is a retry.
                let retries = copy.outbound.requests_sent.saturating_sub(asked.max(1));
                self.local.copy_handshake_retx += retries;
                match stepped {
                    Ok(done) => done,
                    // The remote refused, or announced more than the
                    // transfer bound: that fails the copy, never the
                    // shard.
                    Err(e) => {
                        let error = match e.kind() {
                            io::ErrorKind::NotFound => errcode::NOT_FOUND,
                            _ => errcode::TRANSFER_FAILED,
                        };
                        self.end_copy(key, entry, Err(error));
                        return Ok(false);
                    }
                }
            }
        };
        let Some(info) = done else {
            return Ok(false);
        };
        let session = matches!(entry.link, Link::Inbound(_));
        if session {
            self.finish_session(key, entry, &info);
        } else {
            self.finish_copy(key, entry, &info);
        }
        Ok(session)
    }

    /// Book the end of a session and release its engine, leaving the
    /// entry spent.  A completed push leaves the [`FinishedReceiver`]
    /// its engine retired into in the tail table, to re-acknowledge
    /// until its peer has been quiet for [`NodeConfig::linger`].
    fn finish_session(&mut self, key: Key, entry: &mut Entry, info: &CompletionInfo) {
        let Link::Inbound(session) = &entry.link else {
            return;
        };
        let (peer, direction) = (session.peer, session.direction);
        let mut engine = entry.engine.take();
        // The AIMD burst trajectory, for paced sender engines: how far
        // the burst grew (or shrank) by the end of the session.
        let pacing = engine.as_deref().and_then(Engine::pacing_snapshot);
        let control = engine.as_deref().and_then(Engine::control);
        let rtt = control.and_then(|c| c.rtt_estimate());
        self.paths.record(Instant::now(), peer, info, pacing, rtt);
        if direction == Direction::Pull {
            self.pulled.hold(key.id(), peer);
        }
        if let Some(interval) = control.and_then(|c| c.receive_interval()) {
            self.drain = Some(grant::smooth(self.drain, interval));
        }
        let ok = info.is_success();
        let bytes = *info.result.as_ref().unwrap_or(&0);
        if ok && direction == Direction::Push {
            if let Some((data, finished)) = engine.as_deref_mut().and_then(Engine::retire) {
                // A completed push becomes a named blob other clients
                // can pull: the receive buffer itself moves into the
                // store.
                if !entry.name.is_empty() {
                    self.commit(&entry.name, data);
                }
                let until = entry.started + self.config.session_timeout;
                self.tails
                    .hold(Instant::now(), finished, peer, self.config.linger, until);
            }
        }
        let report = SessionReport {
            transfer_id: key.id(),
            direction,
            name: std::mem::take(&mut entry.name),
            bytes,
            elapsed: entry.started.elapsed(),
            stats: info.stats,
            pacing,
            ok,
        };
        self.local.record(report);
        if let Some(rec) = &self.recorder {
            rec.record(
                key.id(),
                EventKind::SessionReap,
                u64::from(ok),
                bytes as u64,
            );
        }
    }

    /// Answer a control-plane `Stats` query with a whole-node snapshot:
    /// the merged [`NodeMetrics`] summary plus one line per shard.  The
    /// query lands on whichever shard the client's 4-tuple hashes to,
    /// so shards read each other's *published* snapshots (the same ones
    /// a local [`NodeHandle`] merges) rather than anything shared on
    /// the packet path.
    fn on_stats(&mut self, dgram: &Datagram<'_>, peer: SocketAddr) -> io::Result<()> {
        // Cap the reply comfortably inside one datagram.
        const MAX_STATS_PAYLOAD: usize = 8 * 1024;
        // Publish first so the reply reflects this very tick.
        self.publish();
        let mut text = merged(&self.peer_slots, NodeMetrics::merge_counters_from).summary();
        text.push('\n');
        for (i, slot) in self.peer_slots.iter().enumerate() {
            text.push_str(&slot.lock().expect("metrics slot").shard_summary(i));
            text.push('\n');
        }
        if text.len() > MAX_STATS_PAYLOAD {
            let mut cut = MAX_STATS_PAYLOAD;
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            text.truncate(cut);
        }
        let mut buf = vec![0u8; blast_wire::HEADER_LEN + text.len()];
        let n = DatagramBuilder::new(dgram.transfer_id)
            .build_stats(&mut buf, dgram.seq, text.as_bytes())
            .expect("stats reply fits");
        // Recorded before the reply leaves: a querier that has the reply
        // then finds the event in the trace.
        if let Some(rec) = &self.recorder {
            rec.record(0, EventKind::StatsServed, text.len() as u64, 0);
        }
        self.send_framed(MAIN, peer, &buf[..n])
    }

    /// The outbound engine completed: store pulled bytes, fix the
    /// digest, and end the copy.
    fn finish_copy(&mut self, key: Key, entry: &mut Entry, info: &CompletionInfo) {
        let Link::Outbound(copy) = &mut entry.link else {
            return;
        };
        let Ok(bytes) = info.result else {
            return self.end_copy(key, entry, Err(errcode::TRANSFER_FAILED));
        };
        let control = copy.outbound.engine().and_then(|e| e.control());
        let rtt = control.and_then(|c| c.rtt_estimate());
        let pacing = copy.outbound.engine().and_then(|e| e.pacing_snapshot());
        self.paths
            .record(Instant::now(), copy.remote, info, pacing, rtt);
        if let Some(interval) = control.and_then(|c| c.receive_interval()) {
            self.drain = Some(grant::smooth(self.drain, interval));
        }
        if let Some((data, finished)) = copy.outbound.retire() {
            copy.status.crc32 = crc32(&data);
            copy.status.bytes_total = data.len() as u64;
            if !entry.name.is_empty() {
                self.commit(&entry.name, data);
            }
            // The remote sender has not heard our final ack yet and may
            // never: a record answers its tail in the leg's place.
            let now = Instant::now();
            self.copy_tails
                .hold(now, finished, copy.remote, COPY_GRACE, now + COPY_GRACE);
        }
        self.end_copy(key, entry, Ok(bytes as u64));
    }

    /// Store a completed receive buffer as `name`, moving it rather
    /// than copying it.  The blob it displaces becomes the shard's one
    /// spare only if nobody else holds it — no pull in flight, no
    /// reader of the store — so a buffer is recycled only once nothing
    /// can read it again.
    fn commit(&mut self, name: &str, data: Vec<u8>) {
        let displaced = self.store.get(name);
        self.store.put(name, Arc::new(data));
        if let Some(Ok(buf)) = displaced.map(Arc::try_unwrap) {
            self.spare = Some(buf);
        }
    }

    /// End a copy — `Ok` with the bytes it moved, `Err` with an
    /// [`errcode`] — releasing its leg and blob.  A no-op on a copy
    /// that already settled.
    fn end_copy(&mut self, key: Key, entry: &mut Entry, outcome: Result<u64, u8>) {
        if let Link::Outbound(copy) = &entry.link {
            entry.link = Link::Settled(self.settle(key, copy.status(), outcome));
        }
    }

    /// Book a copy's terminal state and open its status grace window;
    /// returns the terminal status.
    fn settle(&mut self, key: Key, mut status: CopyStatus, outcome: Result<u64, u8>) -> CopyStatus {
        match outcome {
            Ok(bytes) => {
                status.state = CopyState::Done;
                status.bytes_done = status.bytes_total;
                self.local.copies_completed += 1;
                self.local.copy_bytes_moved += bytes;
            }
            Err(error) => {
                status.state = CopyState::Failed;
                status.error = error;
                self.local.copies_failed += 1;
            }
        }
        if let Some(rec) = &self.recorder {
            let ok = u64::from(outcome.is_ok());
            rec.record(key.id(), EventKind::CopyDone, ok, outcome.unwrap_or(0));
        }
        self.forget_timers(key);
        self.timers.arm((key, REAP), COPY_GRACE);
        status
    }
}

/// Fluent construction of a (possibly sharded) node.
///
/// The one front door to a running node: pick the address, shard
/// count, store and protocol tunables, then [`start`](NodeBuilder::start)
/// to get a [`NodeHandle`].
///
/// ```no_run
/// use blast_node::server::NodeBuilder;
///
/// let node = NodeBuilder::new()
///     .bind("127.0.0.1:0".parse().unwrap())
///     .shards(4)
///     .start()
///     .unwrap();
/// println!("listening on {} across {} shard(s)", node.addr(), node.shards());
/// # node.shutdown().unwrap();
/// ```
#[derive(Debug, Clone, Default)]
pub struct NodeBuilder {
    config: NodeConfig,
    store: Option<SharedStore>,
    telemetry_capacity: Option<usize>,
}

impl NodeBuilder {
    /// A builder with [`NodeConfig::default`] settings: one shard on an
    /// ephemeral loopback port, LAN transmission control, a fresh
    /// in-memory store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Address to bind (port 0 for ephemeral).
    pub fn bind(mut self, addr: SocketAddr) -> Self {
        self.config.bind = addr;
        self
    }

    /// Reactor shards (clamped to at least 1).  More than one requires
    /// `SO_REUSEPORT` socket groups; on platforms without them the node
    /// silently falls back to a single shard — check
    /// [`NodeHandle::shards`] for the effective count.
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards.max(1);
        self
    }

    /// Serve (and fill) an existing store instead of a fresh one.
    pub fn store(mut self, store: SharedStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Retransmission-timeout policy for server-side engines.
    pub fn timeout(mut self, timeout: impl Into<AdaptiveTimeout>) -> Self {
        self.config.protocol.timeout = timeout.into();
        self
    }

    /// Per-packet retry budget for server-side engines.
    pub fn max_retries(mut self, retries: u32) -> Self {
        self.config.protocol.max_retries = retries;
        self
    }

    /// Quiet window through which a completed push keeps
    /// re-acknowledging duplicates (see [`NodeConfig::linger`]).
    pub fn linger(mut self, linger: Duration) -> Self {
        self.config.linger = linger;
        self
    }

    /// Hard bound on one session's lifetime.
    pub fn session_timeout(mut self, timeout: Duration) -> Self {
        self.config.session_timeout = timeout;
        self
    }

    /// Maximum concurrent unfinished sessions per shard (see
    /// [`NodeConfig::max_sessions`]).
    pub fn max_sessions(mut self, sessions: usize) -> Self {
        self.config.max_sessions = sessions;
        self
    }

    /// Largest transfer a push request may announce.
    pub fn max_transfer_bytes(mut self, bytes: usize) -> Self {
        self.config.max_transfer_bytes = bytes;
        self
    }

    /// Replace the whole [`NodeConfig`] (including the shard count).
    pub fn config(mut self, config: NodeConfig) -> Self {
        self.config = config;
        self
    }

    /// Enable the flight recorder: one bounded ring of `capacity`
    /// events per shard, drained through
    /// [`NodeHandle::drain_trace`].  The record path is lock-free and
    /// allocation-free; on overflow events are dropped and counted
    /// ([`NodeHandle::telemetry_dropped`]), never blocked on.
    pub fn telemetry(mut self, capacity: usize) -> Self {
        self.telemetry_capacity = Some(capacity);
        self
    }

    /// Bind the socket(s), spawn one reactor thread per shard, and
    /// return the control handle.
    ///
    /// With `shards > 1` this binds an `SO_REUSEPORT` group: the first
    /// socket may take an ephemeral port, the rest join it, and the
    /// kernel's 4-tuple hash pins each remote endpoint to one member.
    /// Platforms without reuseport groups fall back to a single shard.
    pub fn start(self) -> io::Result<NodeHandle> {
        let NodeBuilder {
            config,
            store,
            telemetry_capacity,
        } = self;
        let store = store.unwrap_or_else(shared_store);
        let shutdown = Arc::new(AtomicBool::new(false));
        let sockets = bind_shard_sockets(config.bind, config.shards.max(1))?;
        let telemetry = telemetry_capacity.map(|cap| Telemetry::new(sockets.len(), cap));
        let mut slots = Vec::with_capacity(sockets.len());
        let mut servers = Vec::with_capacity(sockets.len());
        let mut threads = Vec::with_capacity(sockets.len());
        let mut addr = None;
        for (shard, socket) in sockets.into_iter().enumerate() {
            let mut cfg = config.clone();
            if shard > 0 {
                // Every shard gets its own buffer pool: shard 0 keeps
                // the caller's (shared with whoever else holds it),
                // the rest stay thread-local so checkouts never cross
                // reactor threads.
                let pool = cfg.protocol.pool.clone();
                cfg.protocol = cfg
                    .protocol
                    .with_pool(BufferPool::new(pool.buf_capacity(), pool.max_free()));
            }
            let server =
                NodeServer::with_socket(cfg, Arc::clone(&store), socket, Arc::clone(&shutdown))?;
            addr.get_or_insert(server.local_addr()?);
            slots.push(Arc::clone(&server.shard.slot));
            servers.push(server);
        }
        // Second pass, once every slot exists: each shard learns all
        // the snapshot slots (so a `Stats` query answers for the whole
        // node) and gets its recorder, then moves onto its thread.
        for (shard, mut server) in servers.into_iter().enumerate() {
            server.shard.peer_slots = slots.clone();
            if let Some(tel) = &telemetry {
                server.attach_recorder(tel.recorder(shard));
            }
            threads.push(
                std::thread::Builder::new()
                    .name(format!("blast-node-{shard}"))
                    .spawn(move || server.run())?,
            );
        }
        Ok(NodeHandle {
            addr: addr.expect("at least one shard"),
            store,
            slots,
            shutdown,
            threads,
            telemetry,
        })
    }
}

/// Bind the socket group for `shards` reactors on `bind`.
///
/// One shard means one plain socket — byte-for-byte the pre-sharding
/// node.  More go through [`sockopt::bind_reuseport`]; if the platform
/// has no reuseport groups the node degrades to one plain socket
/// rather than failing, because a single-shard node is always correct,
/// just not parallel.
fn bind_shard_sockets(bind: SocketAddr, shards: usize) -> io::Result<Vec<UdpSocket>> {
    if shards == 1 {
        return Ok(vec![UdpSocket::bind(bind)?]);
    }
    let first = match sockopt::bind_reuseport(bind) {
        Ok(socket) => socket,
        Err(e) if e.kind() == io::ErrorKind::Unsupported => {
            return Ok(vec![UdpSocket::bind(bind)?]);
        }
        Err(e) => return Err(e),
    };
    // The first member resolves port 0; the rest must name its port.
    let group_addr = first.local_addr()?;
    let mut sockets = vec![first];
    for _ in 1..shards {
        sockets.push(sockopt::bind_reuseport(group_addr)?);
    }
    Ok(sockets)
}

/// Every shard's published snapshot, merged by `merge` into the node's
/// one view: what [`NodeHandle::metrics`] returns
/// ([`NodeMetrics::merge_from`]), and what a `Stats` reply summarises
/// and [`NodeHandle::wait_idle`] polls, which read no report
/// ([`NodeMetrics::merge_counters_from`]).
fn merged(
    slots: &[Arc<Mutex<NodeMetrics>>],
    merge: fn(&mut NodeMetrics, &NodeMetrics),
) -> NodeMetrics {
    let mut merged = NodeMetrics::default();
    for slot in slots {
        merge(&mut merged, &slot.lock().expect("metrics slot"));
    }
    merged
}

/// A running node: the single control surface returned by
/// [`NodeBuilder::start`].
///
/// Reads merge the per-shard snapshots into one [`NodeMetrics`] (the
/// pre-sharding shape), with [`shard_metrics`](NodeHandle::shard_metrics)
/// exposing the per-shard breakdown.
pub struct NodeHandle {
    addr: SocketAddr,
    store: SharedStore,
    slots: Vec<Arc<Mutex<NodeMetrics>>>,
    shutdown: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<io::Result<()>>>,
    telemetry: Option<Telemetry>,
}

impl NodeHandle {
    /// The address clients should talk to (all shards share it).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The node's blob store.
    pub fn store(&self) -> SharedStore {
        Arc::clone(&self.store)
    }

    /// How many reactor shards are actually running (may be fewer than
    /// requested on platforms without `SO_REUSEPORT` groups).
    pub fn shards(&self) -> usize {
        self.slots.len()
    }

    /// The aggregate metrics: every shard's published snapshot, merged.
    pub fn metrics(&self) -> NodeMetrics {
        merged(&self.slots, NodeMetrics::merge_from)
    }

    /// The flight-recorder handle, when the node was built with
    /// [`NodeBuilder::telemetry`].
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    /// Drain every shard's trace ring into one time-ordered stream
    /// (ready for `blast_telemetry::export::{jsonl, chrome_trace}`).
    /// Empty when telemetry was not enabled.
    pub fn drain_trace(&self) -> Vec<blast_telemetry::TraceEvent> {
        self.telemetry
            .as_ref()
            .map(Telemetry::drain)
            .unwrap_or_default()
    }

    /// Trace events dropped on ring overflow so far (0 without
    /// telemetry).
    pub fn telemetry_dropped(&self) -> u64 {
        self.telemetry.as_ref().map(Telemetry::dropped).unwrap_or(0)
    }

    /// The same snapshots, one per shard in shard order: did the
    /// kernel's hash actually spread the sessions?  (See
    /// [`NodeMetrics::shard_summary`].)
    pub fn shard_metrics(&self) -> Vec<NodeMetrics> {
        self.slots
            .iter()
            .map(|slot| slot.lock().expect("metrics slot").clone())
            .collect()
    }

    /// Block until no session is in flight on any shard (or `timeout`
    /// passes).
    ///
    /// A client can observe its transfer as complete while its final
    /// ack is still in flight to the node — the receiver side of any
    /// protocol finishes one packet before the sender side hears about
    /// it.  Callers that want every session accounted for (tests,
    /// fixed-workload examples) should drain before
    /// [`shutdown`](NodeHandle::shutdown).
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        self.wait_for(timeout, |m| m.sessions_in_flight() == 0)
    }

    /// Block until `n` sessions have finished (completed or failed)
    /// across all shards and none remain in flight, or `timeout`
    /// passes.  The "serve a fixed workload then report" mode.
    pub fn wait_sessions(&self, n: u64, timeout: Duration) -> bool {
        self.wait_for(timeout, |m| {
            m.sessions_completed + m.sessions_failed >= n && m.sessions_in_flight() == 0
        })
    }

    fn wait_for(&self, timeout: Duration, done: impl Fn(&NodeMetrics) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if done(&merged(&self.slots, NodeMetrics::merge_counters_from)) {
                return true;
            }
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Stop every shard's event loop, join the threads, and return the
    /// final merged metrics.
    pub fn shutdown(mut self) -> io::Result<NodeMetrics> {
        self.shutdown.store(true, Ordering::Relaxed);
        let mut first_err = None;
        for thread in std::mem::take(&mut self.threads) {
            if let Err(e) = thread.join().expect("node shard thread panicked") {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(self.metrics()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use blast_udp::channel::{Channel, UdpChannel};

    fn test_builder() -> NodeBuilder {
        NodeBuilder::new().timeout(Duration::from_millis(15))
    }

    fn client_cfg() -> ProtocolConfig {
        let mut c = ProtocolConfig::default();
        c.timeout = Duration::from_millis(15).into();
        c.max_retries = 1000;
        c
    }

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i.wrapping_mul(131) % 256) as u8).collect()
    }

    /// Shard snapshots refresh per reactor tick, so a client can react
    /// to a datagram a moment before the merged metrics show why it
    /// was sent; poll briefly instead of asserting on the first read.
    fn wait_metric(node: &NodeHandle, cond: impl Fn(&NodeMetrics) -> bool) -> NodeMetrics {
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let m = node.metrics();
            if cond(&m) || Instant::now() > deadline {
                return m;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn push_then_pull_roundtrip() {
        let node = test_builder().start().unwrap();
        assert_eq!(node.shards(), 1);
        let cfg = client_cfg();
        let data = payload(100_000);

        let mut client = Client::connect(node.addr()).unwrap().config(cfg);
        let push = client.push("hello", &data).unwrap();
        assert!(push.stats.data_packets_sent >= 98);

        let pull = client.pull("hello").unwrap();
        assert_eq!(pull.data, data);

        assert!(node.wait_idle(Duration::from_secs(5)), "tail ack drained");
        let m = node.shutdown().unwrap();
        assert_eq!(m.sessions_completed, 2);
        assert_eq!(m.pushes, 1);
        assert_eq!(m.pulls, 1);
        assert_eq!(m.bytes_received, 100_000);
        assert_eq!(m.bytes_sent, 100_000);
        assert!(m.session_goodput_mbps.mean() > 0.0);
    }

    #[test]
    fn pull_of_missing_blob_is_not_found() {
        let node = test_builder().start().unwrap();
        let cfg = client_cfg();
        let mut client = Client::connect(node.addr()).unwrap().config(cfg);
        let err = client.pull("nope").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        let m = wait_metric(&node, |m| m.pull_misses == 1);
        assert_eq!(m.pull_misses, 1);
        assert_eq!(m.sessions_accepted, 0);
        node.shutdown().unwrap();
    }

    #[test]
    fn pre_seeded_store_serves_pulls() {
        let store = shared_store();
        store.put("seeded", payload(30_000).into());
        let node = test_builder().store(store).start().unwrap();
        let cfg = client_cfg();
        let mut client = Client::connect(node.addr()).unwrap().config(cfg);
        let pull = client.pull("seeded").unwrap();
        assert_eq!(pull.data, payload(30_000));
        node.shutdown().unwrap();
    }

    #[test]
    fn colliding_transfer_id_from_other_peer_is_cancelled() {
        let store = shared_store();
        store.put("blob", payload(200_000).into());
        let node = test_builder().store(store).start().unwrap();
        let cfg = client_cfg();
        // First client opens session 5.
        let addr = node.addr();
        let cfg2 = cfg.clone();
        let t = std::thread::spawn(move || {
            let mut client = Client::connect(addr)
                .unwrap()
                .config(cfg2)
                .transfer_ids_from(5);
            client.pull("blob").unwrap()
        });
        // Wait until the node has actually accepted session 5 before
        // contending for the id from a different peer.
        while node.metrics().sessions_accepted == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // The contender is refused (Cancel → NotFound) while session 5
        // lives — or, if the first transfer already finished and was
        // reaped, it simply succeeds.  It must never hang or corrupt.
        let mut contender = Client::connect(addr)
            .unwrap()
            .config(cfg)
            .transfer_ids_from(5);
        match contender.pull("blob") {
            Ok(r) => assert_eq!(r.data, payload(200_000)),
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::NotFound),
        }
        let first = t.join().unwrap();
        assert_eq!(first.data, payload(200_000));
        node.shutdown().unwrap();
    }

    #[test]
    fn oversized_push_announcement_is_refused() {
        let node = test_builder()
            .max_transfer_bytes(64 * 1024)
            .start()
            .unwrap();
        let ccfg = client_cfg();
        let mut client = Client::connect(node.addr()).unwrap().config(ccfg);
        let err = client.push("big", &payload(65 * 1024)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound, "cancelled, not hung");
        let m = wait_metric(&node, |m| m.rejected_oversize == 1);
        assert_eq!(m.rejected_oversize, 1);
        assert_eq!(m.sessions_accepted, 0, "no buffer was allocated");
        node.shutdown().unwrap();
    }

    #[test]
    fn session_timeout_reaps_abandoned_push() {
        let node = NodeBuilder::new()
            .timeout(Duration::from_millis(15))
            .session_timeout(Duration::from_millis(250))
            .start()
            .unwrap();
        // Open a push session by hand, then walk away: no data phase.
        let req = Request::push(50_000, &client_cfg(), false).with_name("ghost");
        let dgram = req.build_datagram(77);
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Ask twice, as an initiator whose first echo was lost would:
        // the session in progress answers the duplicate with the same
        // echo and opens nothing new.  The echo is the request with the
        // node's grant added.
        let mut echoes = [[0u8; 128]; 2];
        for echo in &mut echoes {
            sock.send_to(&fcs::frame(&dgram), node.addr()).unwrap();
            let n = sock.recv(echo).unwrap();
            let body = fcs::unframe(&echo[..n]).expect("framed");
            let echoed = Request::parse(&Datagram::parse(&echo[..body]).unwrap()).unwrap();
            assert!(echoed.grant.is_some(), "the echo grants the queue");
            assert_eq!(
                Request {
                    grant: None,
                    ..echoed
                },
                req
            );
        }
        assert_eq!(echoes[0], echoes[1]);
        // The reactor must fail and reap the abandoned session on its
        // own timer, with no further traffic from us.
        let m = wait_metric(&node, |m| m.sessions_failed == 1);
        assert_eq!(m.sessions_accepted, 1);
        assert_eq!(m.sessions_failed, 1, "abandoned session must fail");
        assert!(node.wait_idle(Duration::from_secs(5)), "engine reaped");
        assert!(
            !node.store().contains("ghost"),
            "no blob from a failed push"
        );
        node.shutdown().unwrap();
    }

    /// Conservation: once a push, a pull, a completed copy each way and
    /// a refused copy have all been reaped, the shard holds nothing — its
    /// one table and its one wheel are both empty.
    #[test]
    fn table_and_wheel_drain_to_empty() {
        let remote = test_builder().start().unwrap();
        let remote_addr = remote.addr();
        let mut config = NodeConfig::default();
        config.protocol.timeout = Duration::from_millis(15).into();
        let socket = UdpSocket::bind(config.bind).unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut server = NodeServer::with_socket(config, shared_store(), socket, shutdown).unwrap();
        let addr = server.local_addr().unwrap();

        let mut client = Client::connect(addr)
            .unwrap()
            .config(client_cfg())
            .transfer_ids_from(1);
        let pushed = std::thread::spawn(move || {
            client.push("blob", &payload(40_000)).unwrap();
            client
        });
        let mut buf = vec![0u8; 64 * 1024];
        while !pushed.is_finished() {
            server.tick(&mut buf).unwrap();
        }
        let mut client = pushed.join().unwrap();
        // A finished push leaves no entry and no timer, only a record.
        assert!(server.table.is_empty());
        assert!(
            server.shard.timers.is_empty(),
            "a finished push left a timer"
        );
        assert!(server.shard.tails.peer(Instant::now(), 1).is_some());

        let copies = std::thread::spawn(move || {
            assert_eq!(client.pull("blob").unwrap().data, payload(40_000));
            assert!(client.copy_to("blob", remote_addr).unwrap().verified);
            let pulled = client.copy_from("blob", remote_addr).unwrap();
            assert!(pulled.verified);
            (client, pulled.copy_id)
        });
        let (mut client, pulled) = tick_through(&mut server, copies);
        // A finished pull copy leaves its status and a tail record that
        // answers the remote; neither holds a timer but the reap.
        let key = Key::Outbound(pulled);
        assert!(matches!(server.table[&key].link, Link::Settled(_)));
        let now = Instant::now();
        let remote_side = server.shard.copy_tails.peer(now, pulled);
        assert_eq!(remote_side, Some(remote_addr));
        let copies_held = server
            .table
            .keys()
            .filter(|k| matches!(k, Key::Outbound(_)));
        assert_eq!(server.shard.timers.len(), copies_held.count());

        let workload = std::thread::spawn(move || {
            let refused = client.copy_to("missing", remote_addr).unwrap_err();
            assert_eq!(refused.kind(), io::ErrorKind::NotFound);
        });
        // Drive the reactor by hand until the workload is done and
        // everything it created has been reaped: sessions leave as they
        // end, copies after `COPY_GRACE`.
        let started = Instant::now();
        while !(workload.is_finished() && server.table.is_empty()) {
            server.tick(&mut buf).unwrap();
            assert!(
                started.elapsed() < COPY_GRACE * 4,
                "leaked: {} entries, {} timers",
                server.table.len(),
                server.shard.timers.len()
            );
        }
        workload.join().unwrap();
        assert_eq!(server.shard.local.sessions_in_flight(), 0);
        assert!(
            server.shard.timers.is_empty(),
            "a reaped entry left a timer"
        );
        let m = &server.shard.local;
        assert_eq!((m.sessions_completed, m.sessions_failed), (2, 0));
        assert_eq!((m.copies_completed, m.copies_failed), (2, 1));
        remote.shutdown().unwrap();
    }

    /// A pace gap shorter than the burst before it comes due during the
    /// tick that sent the burst: the reactor takes it on the next tick
    /// at once, without parking `MIN_WAIT` first.
    #[test]
    fn a_tick_with_a_timer_already_due_does_not_park() {
        let mut config = NodeConfig::default();
        config.protocol.pacing = PacingConfig::new(8, Duration::from_nanos(1));
        let store = shared_store();
        store.put("blob", payload(64 * 1024).into());
        let socket = UdpSocket::bind(config.bind).unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut server = NodeServer::with_socket(config, store, socket, shutdown).unwrap();
        // A pull asked for by hand, whose data nobody acknowledges.
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        let request = Request::pull("blob", &client_cfg()).build_datagram(9);
        let addr = server.local_addr().unwrap();
        client.send_to(&fcs::frame(&request), addr).unwrap();
        let mut buf = vec![0u8; 64 * 1024];
        let started = Instant::now();
        while server.table.is_empty() {
            server.tick(&mut buf).unwrap();
            assert!(started.elapsed() < Duration::from_secs(5), "request lost");
        }
        // Each tick fires the pace timer the last burst armed, sends the
        // next burst, and finds that burst's gap already over.
        for _ in 0..3 {
            let before = server.shard.ports[MAIN].io.stats;
            server.tick(&mut buf).unwrap();
            let after = server.shard.ports[MAIN].io.stats;
            assert!(
                after.datagrams_sent > before.datagrams_sent,
                "a burst went out"
            );
            assert_eq!(
                (after.wakeups, after.timeouts),
                (before.wakeups, before.timeouts),
                "the tick waited with a timer due"
            );
        }
    }

    /// A shard whose reactor the test ticks by hand, and its address.
    fn hand_ticked(max_sessions: usize, linger: Duration) -> (NodeServer, SocketAddr) {
        let mut config = NodeConfig::default();
        config.protocol.timeout = Duration::from_millis(15).into();
        config.max_sessions = max_sessions;
        config.linger = linger;
        let socket = UdpSocket::bind(config.bind).unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let server = NodeServer::with_socket(config, shared_store(), socket, shutdown).unwrap();
        let addr = server.local_addr().unwrap();
        (server, addr)
    }

    /// Tick `server` until `work` is done, and return what it returned.
    fn tick_through<T>(server: &mut NodeServer, work: std::thread::JoinHandle<T>) -> T {
        let started = Instant::now();
        let mut buf = vec![0u8; 64 * 1024];
        while !work.is_finished() {
            server.tick(&mut buf).unwrap();
            assert!(started.elapsed() < Duration::from_secs(20));
        }
        work.join().unwrap()
    }

    /// What lingers is bounded by a count: once `max_sessions` younger
    /// pushes have finished behind it, a finished push is no longer
    /// answered for, however long its quiet window has left.
    #[test]
    fn tail_records_are_capped_at_max_sessions() {
        let (mut server, addr) = hand_ticked(2, Duration::from_secs(60));
        tick_through(
            &mut server,
            std::thread::spawn(move || {
                let mut client = Client::connect(addr)
                    .unwrap()
                    .config(client_cfg())
                    .transfer_ids_from(1);
                for i in 0..6 {
                    client.push(&format!("blob-{i}"), &payload(10_000)).unwrap();
                }
            }),
        );
        assert!(server.table.is_empty(), "finished pushes leave the table");
        assert!(server.shard.timers.is_empty(), "and arm no timer");
        let now = Instant::now();
        let held: Vec<u32> = (1..=6)
            .filter(|&id| server.shard.tails.peer(now, id).is_some())
            .collect();
        assert_eq!(held, [5, 6], "the two youngest");
        let m = &server.shard.local;
        assert_eq!((m.sessions_completed, m.rejected_busy), (6, 0));
    }

    /// A transfer id can finish twice on one shard, from two clients, a
    /// quiet window apart.  The younger push is answered for as long as
    /// any other: nothing of the older one's bookkeeping outlives it.
    #[test]
    fn a_reused_transfer_id_is_answered_for_after_the_first_record_expired() {
        let linger = Duration::from_millis(300);
        let (mut server, addr) = hand_ticked(2, linger);
        tick_through(
            &mut server,
            std::thread::spawn(move || {
                let mut a = Client::connect(addr)
                    .unwrap()
                    .config(client_cfg())
                    .transfer_ids_from(1);
                a.push("a", &payload(10_000)).unwrap();
            }),
        );
        // Let A's transfer 1 go quiet and be forgotten.
        let quiet = Instant::now() + 2 * linger;
        let mut buf = vec![0u8; 64 * 1024];
        while Instant::now() < quiet || !server.table.is_empty() {
            server.tick(&mut buf).unwrap();
        }

        // B, from another socket, reuses ids 1 and 2, keeping what it
        // sends; a clone of its socket stays with the test.
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        socket.connect(addr).unwrap();
        let replay = socket.try_clone().unwrap();
        let sent = Arc::new(Mutex::new(Vec::new()));
        let channel = Logged {
            inner: UdpChannel::from_socket(socket),
            sent: Arc::clone(&sent),
        };
        tick_through(
            &mut server,
            std::thread::spawn(move || {
                let mut b = Client::over(channel)
                    .config(client_cfg())
                    .transfer_ids_from(1);
                b.push("b1", &payload(10_000)).unwrap();
                b.push("b2", &payload(10_000)).unwrap();
            }),
        );

        // B's final ack for transfer 1 was lost, say: its tail again.
        let tail = sent
            .lock()
            .unwrap()
            .iter()
            .rfind(|frame: &&Vec<u8>| {
                let d = Datagram::parse(&frame[..fcs::unframe(frame).unwrap()]).unwrap();
                d.transfer_id == 1 && d.kind == PacketKind::Data && d.is_last()
            })
            .cloned()
            .expect("B sent transfer 1's tail");
        replay.send(&tail).unwrap();
        replay.set_nonblocking(true).unwrap();
        let deadline = Instant::now() + linger / 2;
        let mut reply = [0u8; 256];
        let n = loop {
            server.tick(&mut buf).unwrap();
            if let Ok(n) = replay.recv(&mut reply) {
                break n;
            }
            assert!(Instant::now() < deadline, "B's transfer 1 went unanswered");
        };
        let ack = Datagram::parse(&reply[..fcs::unframe(&reply[..n]).unwrap()]).unwrap();
        assert_eq!((ack.transfer_id, ack.kind), (1, PacketKind::Ack));
        assert_eq!(server.shard.local.unroutable, 0);
    }

    /// A pull's sender completes on its client's final ack, so the same
    /// ack again (the answer to a tail probe, say) finds no session:
    /// from the pull's own client it is a late answer, not unroutable;
    /// from any other address it still is.
    #[test]
    fn a_late_ack_for_a_finished_pull_is_not_unroutable() {
        let (mut server, addr) = hand_ticked(4, Duration::from_secs(60));
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        socket.connect(addr).unwrap();
        let replay = socket.try_clone().unwrap();
        let sent = Arc::new(Mutex::new(Vec::new()));
        let channel = Logged {
            inner: UdpChannel::from_socket(socket),
            sent: Arc::clone(&sent),
        };
        let data = payload(10_000);
        let pushed = data.clone();
        let pulled = tick_through(
            &mut server,
            std::thread::spawn(move || {
                let mut client = Client::over(channel)
                    .config(client_cfg())
                    .transfer_ids_from(1);
                client.push("blob", &pushed).unwrap();
                client.pull("blob").unwrap().data
            }),
        );
        assert_eq!(pulled, data);
        let mut buf = vec![0u8; 64 * 1024];
        let deadline = Instant::now() + Duration::from_secs(5);
        while !server.table.is_empty() {
            server.tick(&mut buf).unwrap();
            assert!(Instant::now() < deadline, "the pull's sender heard its ack");
        }

        // The client's final ack of pull 2, once more from the client and
        // once from a stranger.
        let ack = sent
            .lock()
            .unwrap()
            .iter()
            .rfind(|frame: &&Vec<u8>| {
                let d = Datagram::parse(&frame[..fcs::unframe(frame).unwrap()]).unwrap();
                d.transfer_id == 2 && d.kind == PacketKind::Ack
            })
            .cloned()
            .expect("the client acked pull 2");
        let before = server.shard.local.clone();
        replay.send(&ack).unwrap();
        UdpSocket::bind("127.0.0.1:0")
            .unwrap()
            .send_to(&ack, addr)
            .unwrap();
        while server.shard.local.datagrams_received < before.datagrams_received + 2 {
            server.tick(&mut buf).unwrap();
            assert!(Instant::now() < deadline, "both acks arrive");
        }
        let m = &server.shard.local;
        assert_eq!(m.unroutable, before.unroutable + 1, "the stranger's alone");
        assert_eq!(
            m.datagrams_sent, before.datagrams_sent,
            "neither is answered"
        );
    }

    /// A channel that keeps a copy of every frame it sends.
    struct Logged {
        inner: UdpChannel,
        sent: Arc<Mutex<Vec<Vec<u8>>>>,
    }

    impl Channel for Logged {
        fn send(&mut self, frame: &[u8]) -> io::Result<()> {
            self.sent.lock().unwrap().push(frame.to_vec());
            self.inner.send(frame)
        }

        fn recv_timeout(&mut self, buf: &mut [u8], timeout: Duration) -> io::Result<Option<usize>> {
            self.inner.recv_timeout(buf, timeout)
        }
    }

    #[test]
    fn builder_defaults_match_node_config() {
        let b = NodeBuilder::new()
            .linger(Duration::from_millis(99))
            .max_sessions(7)
            .session_timeout(Duration::from_secs(3))
            .max_retries(42);
        assert_eq!(b.config.linger, Duration::from_millis(99));
        assert_eq!(b.config.max_sessions, 7);
        assert_eq!(b.config.session_timeout, Duration::from_secs(3));
        assert_eq!(b.config.protocol.max_retries, 42);
        assert_eq!(b.config.protocol.pacing, PacingConfig::lan());
        assert_eq!(b.config.shards, 1);
    }

    #[test]
    fn sharded_start_accepts_sessions_on_every_requested_shard_count() {
        // On Linux this runs 2 real shards; elsewhere it falls back to
        // one — either way the node must serve correctly.
        let node = test_builder().shards(2).start().unwrap();
        assert!(node.shards() == 2 || !sockopt::reuseport_supported());
        let cfg = client_cfg();
        let data = payload(60_000);
        // Two clients, two distinct 4-tuples: the kernel may hash them
        // to different shards.
        let mut pusher = Client::connect(node.addr()).unwrap().config(cfg.clone());
        pusher.push("sharded", &data).unwrap();
        let mut puller = Client::connect(node.addr()).unwrap().config(cfg);
        let pull = puller.pull("sharded").unwrap();
        assert_eq!(pull.data, data);
        assert!(node.wait_idle(Duration::from_secs(5)));
        let per_shard = node.shard_metrics();
        assert_eq!(per_shard.len(), node.shards());
        let accepted: u64 = per_shard.iter().map(|s| s.sessions_accepted).sum();
        assert_eq!(accepted, 2);
        let m = node.shutdown().unwrap();
        assert_eq!(m.sessions_completed, 2);
        assert_eq!(m.bytes_received, 60_000);
        assert_eq!(m.bytes_sent, 60_000);
    }

    #[test]
    fn wait_sessions_counts_across_shards() {
        let node = test_builder().shards(2).start().unwrap();
        let cfg = client_cfg();
        let addr = node.addr();
        let threads: Vec<_> = (0..4u32)
            .map(|i| {
                let cfg = cfg.clone();
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).unwrap().config(cfg);
                    client.push(&format!("w{i}"), &payload(20_000)).unwrap()
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(node.wait_sessions(4, Duration::from_secs(10)));
        let m = node.shutdown().unwrap();
        assert_eq!(m.sessions_completed, 4);
        assert_eq!(m.bytes_received, 4 * 20_000);
    }
}
