//! Pluggable syscall backends: batched submission/completion I/O.
//!
//! The measured bottleneck behind ROADMAP's single-session goodput item
//! was never the protocol — it was the syscall bill.  A paced 32-packet
//! burst cost 32 `sendto(2)` crossings, every receive cost a
//! `setsockopt(SO_RCVTIMEO)` *plus* a `recvfrom(2)`, and sub-millisecond
//! pace gaps could not be waited at all (socket timeouts round up to a
//! scheduler tick), so the driver yield-spun through them.  This module
//! replaces all of that with a [`NetIo`] backend the channel, driver and
//! node reactor share.  There are two:
//!
//! * **Batched** (Linux, where the kernel accepts both `UDP_SEGMENT`
//!   and `UDP_GRO`): the staging layer coalesces same-destination
//!   equal-size datagrams from one flush into ~64 KB super-datagrams
//!   carrying a `UDP_SEGMENT` control message (segment size = the
//!   framed packet length, tail runt allowed — see [`crate::gso`]) and
//!   submits a burst with one `sendmmsg(2)`; a drain pulls a batch of
//!   GRO-coalesced buffers with one `recvmmsg(2)` and splits them back
//!   into per-datagram views without copying or allocating; and waits
//!   are event-driven — an `epoll(7)` instance watching the socket and
//!   a `timerfd(2)` armed at the precise deadline, so a 500 µs pace gap
//!   blocks for 500 µs, not a scheduler tick and not a spin.  The FFI
//!   is audited extern-C following the [`crate::sockopt`] precedent
//!   (crate `deny(unsafe_code)`, module-level allow, hardcoded
//!   asm-generic constants, so only the mainstream Linux targets take
//!   this path).
//! * **Portable** (everything else): one syscall per datagram and
//!   coarse `SO_RCVTIMEO` waits — exactly the pre-batching behaviour.
//!   `sendmmsg`/`recvmmsg` without the offloads cost what this costs
//!   per datagram (`benchmark/AA.md`), so a kernel that refuses either
//!   option gets this backend.
//!
//! Set `BLAST_NETIO=portable` to force the portable backend on Linux —
//! an operator's switch; the repo benchmark refuses to run with it set.
//! [`set_offload_enabled`]`(false)` is the same switch for callers that
//! cannot set an environment variable.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;
#[cfg(netio_batched)]
use std::time::Instant;

use blast_core::PacingConfig;
use blast_telemetry::{EventKind, Recorder};

/// Datagrams a single `sendmmsg`/`recvmmsg` submission can carry.  A
/// full AIMD-grown blast burst (256 packets) flushes in a handful of
/// kernel crossings instead of 256.
pub const BATCH: usize = 32;

/// Per-slot buffer capacity: the largest channel datagram plus the FCS
/// trailer, with headroom.
const SLOT_CAP: usize = crate::channel::MAX_DATAGRAM + 8;

/// `ENOBUFS`: no stable `io::ErrorKind`, matched by raw value (same as
/// the node's historical send-drop handling).
const ENOBUFS: i32 = 105;

/// Counters describing how the backend spent its syscalls.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NetIoStats {
    /// Datagrams handed to the kernel.
    pub datagrams_sent: u64,
    /// `sendmmsg` submissions (or single sends in portable mode) —
    /// `datagrams_sent / send_batches` is the amortisation factor.
    pub send_batches: u64,
    /// Datagrams the kernel dropped at submission (full buffer, peer
    /// unreachable) — loss the protocols recover from — or refused
    /// outright (a bad address, no route, a firewall rule).
    pub send_drops: u64,
    /// Datagrams pulled off the socket.
    pub datagrams_received: u64,
    /// `recvmmsg` completions (or single receives in portable mode).
    pub recv_batches: u64,
    /// Event-driven waits that ended because the socket went readable.
    pub wakeups: u64,
    /// Waits that expired at their deadline instead.
    pub timeouts: u64,
    /// GSO super-datagrams submitted (send slots carrying ≥ 2
    /// segments under one `UDP_SEGMENT` control message).
    pub gso_super_datagrams: u64,
    /// Datagrams that travelled inside those super-datagrams —
    /// `gso_segments / gso_super_datagrams` is the send coalescing
    /// factor.
    pub gso_segments: u64,
    /// GRO-coalesced reads drained (receives that carried ≥ 2
    /// datagrams in one buffer).
    pub gro_super_datagrams: u64,
    /// Datagrams split back out of those reads.
    pub gro_segments: u64,
}

impl std::ops::AddAssign for NetIoStats {
    /// Field-wise sum: the counters of several backends as one.
    fn add_assign(&mut self, other: NetIoStats) {
        self.datagrams_sent += other.datagrams_sent;
        self.send_batches += other.send_batches;
        self.send_drops += other.send_drops;
        self.datagrams_received += other.datagrams_received;
        self.recv_batches += other.recv_batches;
        self.wakeups += other.wakeups;
        self.timeouts += other.timeouts;
        self.gso_super_datagrams += other.gso_super_datagrams;
        self.gso_segments += other.gso_segments;
        self.gro_super_datagrams += other.gro_super_datagrams;
        self.gro_segments += other.gro_segments;
    }
}

/// Which backend a [`NetIo`] is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// `sendmmsg`/`recvmmsg` with epoll/timerfd waits.
    Batched,
    /// One syscall per datagram, `SO_RCVTIMEO` waits.
    Portable,
}

impl BackendKind {
    /// Stable lowercase name for logs and metrics.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Batched => "batched",
            BackendKind::Portable => "portable",
        }
    }
}

/// Which segmentation offloads a [`NetIo`] runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffloadState {
    /// Portable backend: segmentation offload does not apply.
    Portable,
    /// Batched backend: `UDP_SEGMENT` sends and `UDP_GRO` receives.
    GsoGro,
}

impl OffloadState {
    /// Stable lowercase name for logs and metrics.
    pub fn name(self) -> &'static str {
        match self {
            OffloadState::Portable => "portable",
            OffloadState::GsoGro => "gso+gro",
        }
    }
}

/// A pluggable I/O backend for one UDP socket.
///
/// Two usage modes share the type:
///
/// * **connected** ([`NetIo::connected`]): the socket is connected;
///   callers use [`queue`](NetIo::queue)/[`flush`](NetIo::flush) and
///   the blocking [`recv`](NetIo::recv).
/// * **reactor** ([`NetIo::reactor`]): the socket is unconnected and
///   non-blocking; callers use [`queue_with`](NetIo::queue_with) (or
///   its copying form [`queue_to`](NetIo::queue_to)),
///   [`fill`](NetIo::fill)/[`pop_into`](NetIo::pop_into) and the
///   non-consuming [`wait`](NetIo::wait).
///
/// Every staging call is [`queue_with`](NetIo::queue_with): the caller
/// builds the datagram in the memory it is staged in.
#[derive(Debug)]
pub struct NetIo {
    imp: Impl,
    /// Syscall accounting, exposed for node metrics and the benchmark.
    pub stats: NetIoStats,
    /// Flight recorder: batch submissions, wait outcomes and kernel
    /// send-drops become trace events (session track 0).
    recorder: Option<Recorder>,
}

#[derive(Debug)]
enum Impl {
    // Boxed: the batched backend carries its fixed-size length/address
    // tables inline and would otherwise dwarf the portable variant.
    #[cfg(netio_batched)]
    Batched(Box<batched::BatchedIo>),
    Portable(PortableIo),
}

impl NetIo {
    /// Backend for a connected socket, auto-selected: batched where the
    /// kernel accepts both offloads (puts the socket into non-blocking
    /// mode), portable otherwise or when `BLAST_NETIO=portable` or
    /// [`set_offload_enabled`]`(false)` forces it.  Infallible: any
    /// batched-setup failure silently degrades to the portable backend,
    /// which needs no setup.
    pub fn connected(socket: &UdpSocket) -> NetIo {
        Self::select(socket, false)
    }

    /// Backend for an unconnected reactor socket (the `blast-node`
    /// event loop).  The socket is put into non-blocking mode either
    /// way — the reactor contract.
    pub fn reactor(socket: &UdpSocket) -> NetIo {
        let _ = socket.set_nonblocking(true);
        Self::select(socket, true)
    }

    fn select(socket: &UdpSocket, reactor: bool) -> NetIo {
        if batched_allowed() {
            if let Some(io) = Self::try_batched(socket) {
                return io;
            }
        }
        if !reactor {
            // A half-finished batched setup (epoll/timerfd creation can
            // fail at the fd limit) leaves the socket non-blocking,
            // which would turn the portable backend's SO_RCVTIMEO waits
            // into a busy-poll; restore blocking mode for the connected
            // fallback.  Reactor sockets stay non-blocking by contract.
            let _ = socket.set_nonblocking(false);
        }
        NetIo::portable(reactor)
    }

    #[cfg(netio_batched)]
    fn try_batched(socket: &UdpSocket) -> Option<NetIo> {
        let imp = batched::BatchedIo::new(socket).ok()?;
        Some(NetIo {
            imp: Impl::Batched(Box::new(imp)),
            stats: NetIoStats::default(),
            recorder: None,
        })
    }

    #[cfg(not(netio_batched))]
    fn try_batched(_socket: &UdpSocket) -> Option<NetIo> {
        None
    }

    /// The portable backend, unconditionally.
    pub fn portable(reactor: bool) -> NetIo {
        NetIo {
            imp: Impl::Portable(PortableIo::new(reactor)),
            stats: NetIoStats::default(),
            recorder: None,
        }
    }

    /// Attach a flight recorder.  Afterwards every batch submission
    /// ([`EventKind::BatchSubmit`]: a = datagrams, b = syscalls), wait
    /// outcome ([`EventKind::WakeEvent`] / [`EventKind::WakeTimeout`]),
    /// kernel send-drop ([`EventKind::SendDrop`]) and offload
    /// coalescing delta ([`EventKind::GsoSubmit`] /
    /// [`EventKind::GroReceive`]) is traced on session track 0 of the
    /// recorder's shard.  Batched backends log their probe outcome
    /// once up front ([`EventKind::OffloadProbe`]: a = b = 1, since
    /// only a socket that accepted both offloads runs batched).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        if self.is_batched() {
            recorder.record(0, EventKind::OffloadProbe, 1, 1);
        }
        self.recorder = Some(recorder);
    }

    /// Emit trace events for whatever the counters say happened since
    /// `before`.  Diffing the public stats keeps the two backends free
    /// of trace plumbing: one site per public entry point.
    fn trace_delta(&self, before: &NetIoStats) {
        let Some(rec) = &self.recorder else { return };
        let s = &self.stats;
        if s.datagrams_sent > before.datagrams_sent {
            rec.record(
                0,
                EventKind::BatchSubmit,
                s.datagrams_sent - before.datagrams_sent,
                s.send_batches - before.send_batches,
            );
        }
        if s.send_drops > before.send_drops {
            rec.record(0, EventKind::SendDrop, s.send_drops - before.send_drops, 0);
        }
        if s.wakeups > before.wakeups {
            rec.record(0, EventKind::WakeEvent, s.wakeups - before.wakeups, 0);
        }
        if s.timeouts > before.timeouts {
            rec.record(0, EventKind::WakeTimeout, s.timeouts - before.timeouts, 0);
        }
        if s.gso_segments > before.gso_segments {
            rec.record(
                0,
                EventKind::GsoSubmit,
                s.gso_segments - before.gso_segments,
                s.gso_super_datagrams - before.gso_super_datagrams,
            );
        }
        if s.gro_segments > before.gro_segments {
            rec.record(
                0,
                EventKind::GroReceive,
                s.gro_segments - before.gro_segments,
                s.gro_super_datagrams - before.gro_super_datagrams,
            );
        }
    }

    /// Which backend this instance runs.
    pub fn backend(&self) -> BackendKind {
        match &self.imp {
            #[cfg(netio_batched)]
            Impl::Batched(_) => BackendKind::Batched,
            Impl::Portable(_) => BackendKind::Portable,
        }
    }

    /// True when the batched backend is compiled in and selected.
    pub fn is_batched(&self) -> bool {
        self.backend() == BackendKind::Batched
    }

    /// The segmentation offloads this instance runs with.
    pub fn offload(&self) -> OffloadState {
        match self.backend() {
            BackendKind::Batched => OffloadState::GsoGro,
            BackendKind::Portable => OffloadState::Portable,
        }
    }

    /// Stage one datagram on a connected socket for a batched flush
    /// (portable mode sends it immediately).  A full batch flushes
    /// itself.
    pub fn queue(&mut self, socket: &UdpSocket, frame: &[u8]) -> io::Result<()> {
        self.queue_to(socket, frame, None)
    }

    /// Stage a copy of `frame`, optionally addressed (reactor mode):
    /// [`queue_with`](NetIo::queue_with) with a writer that copies it.
    pub fn queue_to(
        &mut self,
        socket: &UdpSocket,
        frame: &[u8],
        to: Option<SocketAddr>,
    ) -> io::Result<()> {
        self.queue_with(socket, frame.len(), to, &mut |out| {
            out.copy_from_slice(frame)
        })
    }

    /// Stage one datagram of `len` bytes, optionally addressed (reactor
    /// mode), which `write` builds in the `len`-byte slice it is handed:
    /// the batched backend's send arena, where the flush's `sendmmsg`
    /// reads it (the GSO run it joins is decided from `len`), or the
    /// portable backend's reused scratch, sent at once.  A datagram
    /// larger than an arena slot is dropped and counted in
    /// [`send_drops`](NetIoStats::send_drops).  A refusal from the
    /// flush a full batch makes first (see [`flush`](NetIo::flush)) is
    /// returned once the datagram is staged.
    pub fn queue_with(
        &mut self,
        socket: &UdpSocket,
        len: usize,
        to: Option<SocketAddr>,
        write: &mut dyn FnMut(&mut [u8]),
    ) -> io::Result<()> {
        let before = self.stats;
        let result = match &mut self.imp {
            #[cfg(netio_batched)]
            Impl::Batched(b) => {
                let flushed = if b.send_full() {
                    b.flush(socket, &mut self.stats)
                } else {
                    Ok(())
                };
                if !b.stage(len, to, write) {
                    self.stats.send_drops += 1;
                }
                flushed
            }
            Impl::Portable(p) => p.send_with(socket, len, to, write, &mut self.stats),
        };
        self.trace_delta(&before);
        result
    }

    /// Put every staged datagram on the wire in as few syscalls as the
    /// backend can manage.  A no-op with nothing staged.  A datagram
    /// the kernel refuses outright (a port-0 or broadcast address, no
    /// route, a firewall rule) is dropped and counted in
    /// [`send_drops`](NetIoStats::send_drops); the rest still go out,
    /// and the first refusal is returned after them.
    pub fn flush(&mut self, socket: &UdpSocket) -> io::Result<()> {
        let before = self.stats;
        let result = match &mut self.imp {
            #[cfg(netio_batched)]
            Impl::Batched(b) => b.flush(socket, &mut self.stats),
            Impl::Portable(_) => Ok(()),
        };
        self.trace_delta(&before);
        result
    }

    /// Receive one datagram on a connected socket within `timeout`
    /// (`Ok(None)` on expiry).  Batched mode drains a whole `recvmmsg`
    /// batch per kernel crossing and pops from it on subsequent calls;
    /// waits block on epoll + timerfd at the exact deadline.  Portable
    /// mode is a classic `SO_RCVTIMEO` receive with the
    /// [`PacingConfig::MIN_WAIT`] floor.  A zero `timeout` polls: it
    /// returns what is already queued, or `Ok(None)`, without blocking
    /// on either backend.
    pub fn recv(
        &mut self,
        socket: &UdpSocket,
        buf: &mut [u8],
        timeout: Duration,
    ) -> io::Result<Option<usize>> {
        let before = self.stats;
        let result = match &mut self.imp {
            #[cfg(netio_batched)]
            Impl::Batched(b) => {
                // A datagram already filled is returned before the
                // deadline costs a clock read.
                let mut deadline = None;
                loop {
                    if let Some((n, _)) = b.pop_into(buf) {
                        break Ok(Some(n));
                    }
                    let deadline = *deadline.get_or_insert_with(|| Instant::now() + timeout);
                    if b.fill(socket, &mut self.stats)? > 0 {
                        continue;
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        self.stats.timeouts += 1;
                        break Ok(None);
                    }
                    if !b.wait(deadline - now, &mut self.stats)? {
                        break Ok(None);
                    }
                }
            }
            Impl::Portable(p) => p.recv(socket, buf, timeout, &mut self.stats),
        };
        self.trace_delta(&before);
        result
    }

    /// Non-blocking reactor drain: pull up to a batch of datagrams off
    /// the socket into the backend's slots.  Returns how many arrived
    /// (0 when the socket is dry).  Call when [`pop_into`] runs out.
    ///
    /// [`pop_into`]: NetIo::pop_into
    pub fn fill(&mut self, socket: &UdpSocket) -> io::Result<usize> {
        match &mut self.imp {
            #[cfg(netio_batched)]
            Impl::Batched(b) => b.fill(socket, &mut self.stats),
            Impl::Portable(p) => p.fill(socket, &mut self.stats),
        }
    }

    /// Pop one previously-[`fill`](NetIo::fill)ed datagram into `buf`,
    /// with the sender's address when the socket is unconnected.
    pub fn pop_into(&mut self, buf: &mut [u8]) -> Option<(usize, Option<SocketAddr>)> {
        match &mut self.imp {
            #[cfg(netio_batched)]
            Impl::Batched(b) => b.pop_into(buf),
            Impl::Portable(p) => p.pop_into(buf),
        }
    }

    /// Make [`wait`](NetIo::wait) also end when `socket` turns
    /// readable, so a reactor that drains a second socket through its
    /// own backend still waits in one place.  A no-op on the portable
    /// backend, whose wait only sleeps, and never for more than a
    /// millisecond.
    pub fn watch(&mut self, socket: &UdpSocket) -> io::Result<()> {
        match &mut self.imp {
            #[cfg(netio_batched)]
            Impl::Batched(b) => b.watch(socket),
            Impl::Portable(_) => Ok(()),
        }
    }

    /// Block until the socket is readable or `timeout` elapses; `true`
    /// means readable.  Batched mode waits on epoll + timerfd with
    /// sub-millisecond fidelity.  Portable reactor mode can only sleep
    /// (clamped to a millisecond) and conservatively reports a timeout;
    /// the caller's next [`fill`](NetIo::fill) discovers any traffic.
    pub fn wait(&mut self, timeout: Duration) -> io::Result<bool> {
        let before = self.stats;
        let result = match &mut self.imp {
            #[cfg(netio_batched)]
            Impl::Batched(b) => b.wait(timeout, &mut self.stats),
            Impl::Portable(p) => p.wait(timeout, &mut self.stats),
        };
        self.trace_delta(&before);
        result
    }
}

/// Process-wide batched-backend switch, default on.  See
/// [`set_offload_enabled`].
static OFFLOAD_ENABLED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(true);

/// Allow or forbid the batched backend, and with it `UDP_SEGMENT`/
/// `UDP_GRO` offload, for backends built *after* the call (existing
/// instances keep theirs).  `false` means what `BLAST_NETIO=portable`
/// means: the benchmark ledger uses it to time the portable backend
/// through [`NetIo::connected`] inside one process; normal callers
/// never need it.
pub fn set_offload_enabled(enabled: bool) {
    OFFLOAD_ENABLED.store(enabled, std::sync::atomic::Ordering::Relaxed);
}

/// May [`NetIo::connected`] and [`NetIo::reactor`] try the batched
/// backend?  `BLAST_NETIO` is read once per process (channels are
/// built per session; an env lookup per construction would be a
/// per-session allocation for a process-constant answer).
fn batched_allowed() -> bool {
    static FORCED_PORTABLE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    let forced = *FORCED_PORTABLE.get_or_init(|| {
        std::env::var("BLAST_NETIO").is_ok_and(|v| v.eq_ignore_ascii_case("portable"))
    });
    !forced && OFFLOAD_ENABLED.load(std::sync::atomic::Ordering::Relaxed)
}

/// Would sending fail in a way the blast protocols treat as loss, not
/// as channel failure?  (Peer's ICMP unreachable, full send buffer.)
fn is_send_drop(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionRefused | io::ErrorKind::WouldBlock | io::ErrorKind::OutOfMemory
    ) || e.raw_os_error() == Some(ENOBUFS)
}

/// The single-syscall fallback backend: current everywhere, fast
/// nowhere, correct always.
#[derive(Debug)]
struct PortableIo {
    /// One-datagram receive slot for [`fill`](PortableIo::fill);
    /// a connected instance grows it on first use.
    slot: Vec<u8>,
    /// Where [`send_with`](PortableIo::send_with) builds a datagram;
    /// grown to the largest one sent, never shrunk.
    out: Vec<u8>,
    slot_len: usize,
    slot_addr: Option<SocketAddr>,
    slot_full: bool,
    /// Reactor sockets are non-blocking by contract; a connected one
    /// blocks, because its receives wait on `SO_RCVTIMEO`.
    reactor: bool,
}

impl PortableIo {
    fn new(reactor: bool) -> PortableIo {
        PortableIo {
            slot: if reactor {
                vec![0u8; SLOT_CAP]
            } else {
                Vec::new()
            },
            out: Vec::new(),
            slot_len: 0,
            slot_addr: None,
            slot_full: false,
            reactor,
        }
    }

    /// Build a `len`-byte datagram with `write` in the reused scratch
    /// and send it at once.
    fn send_with(
        &mut self,
        socket: &UdpSocket,
        len: usize,
        to: Option<SocketAddr>,
        write: &mut dyn FnMut(&mut [u8]),
        stats: &mut NetIoStats,
    ) -> io::Result<()> {
        if self.out.len() < len {
            self.out.resize(len, 0);
        }
        let frame = &mut self.out[..len];
        write(frame);
        let result = match to {
            Some(addr) => socket.send_to(frame, addr).map(|_| ()),
            None => socket.send(frame).map(|_| ()),
        };
        match result {
            Ok(()) => {
                stats.datagrams_sent += 1;
                stats.send_batches += 1;
                Ok(())
            }
            Err(e) => {
                stats.send_drops += 1;
                if is_send_drop(&e) {
                    Ok(())
                } else {
                    Err(e)
                }
            }
        }
    }

    fn recv(
        &mut self,
        socket: &UdpSocket,
        buf: &mut [u8],
        timeout: Duration,
        stats: &mut NetIoStats,
    ) -> io::Result<Option<usize>> {
        // `SO_RCVTIMEO` as the last resort: `Some(ZERO)` is an error to
        // `std`, and the floor keeps paced senders' inter-burst gaps
        // from being rounded up into scheduler noise more than the
        // kernel already insists on.  A zero timeout is a poll (the
        // node's reactor asks each copy channel once per tick), which
        // `SO_RCVTIMEO` cannot express — the kernel rounds any value up
        // to a scheduler tick — so the socket goes non-blocking for
        // that one call instead.
        let poll = timeout.is_zero();
        if poll {
            socket.set_nonblocking(true)?;
        } else {
            socket.set_read_timeout(Some(timeout.max(PacingConfig::MIN_WAIT)))?;
        }
        let got = socket.recv(buf);
        if poll {
            socket.set_nonblocking(false)?;
        }
        match got {
            Ok(n) => {
                stats.datagrams_received += 1;
                stats.recv_batches += 1;
                stats.wakeups += 1;
                Ok(Some(n))
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                stats.timeouts += 1;
                Ok(None)
            }
            // A queued ICMP unreachable from our own earlier send: a
            // timeout slice with nothing delivered, not a failure.
            Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn fill(&mut self, socket: &UdpSocket, stats: &mut NetIoStats) -> io::Result<usize> {
        if self.slot_full {
            return Ok(0);
        }
        if self.reactor {
            return self.drain(socket, stats);
        }
        // A connected socket: poll it, as `recv` does for a zero
        // timeout.
        self.slot.resize(SLOT_CAP, 0);
        socket.set_nonblocking(true)?;
        let got = self.drain(socket, stats);
        socket.set_nonblocking(false)?;
        got
    }

    /// Receive one datagram into the slot if one is queued.
    fn drain(&mut self, socket: &UdpSocket, stats: &mut NetIoStats) -> io::Result<usize> {
        loop {
            match socket.recv_from(&mut self.slot) {
                Ok((n, peer)) => {
                    self.slot_len = n;
                    self.slot_addr = Some(peer);
                    self.slot_full = true;
                    stats.datagrams_received += 1;
                    stats.recv_batches += 1;
                    return Ok(1);
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(0)
                }
                // Queued ICMP unreachable for a departed peer: consume
                // it and keep draining.
                Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => continue,
                Err(e) => return Err(e),
            }
        }
    }

    fn pop_into(&mut self, buf: &mut [u8]) -> Option<(usize, Option<SocketAddr>)> {
        if !self.slot_full {
            return None;
        }
        self.slot_full = false;
        let n = self.slot_len.min(buf.len());
        buf[..n].copy_from_slice(&self.slot[..n]);
        Some((n, self.slot_addr))
    }

    fn wait(&mut self, timeout: Duration, stats: &mut NetIoStats) -> io::Result<bool> {
        // No selector in `std`: sleep, bounded so arriving traffic is
        // discovered within a millisecond (the pre-backend node park).
        std::thread::sleep(timeout.clamp(PacingConfig::MIN_WAIT, Duration::from_millis(1)));
        stats.timeouts += 1;
        Ok(false)
    }
}

#[cfg(netio_batched)]
#[allow(unsafe_code)]
mod batched {
    //! The Linux batched backend: audited extern-C FFI over
    //! `sendmmsg`/`recvmmsg`/`epoll`/`timerfd`, mirroring the
    //! `sockopt` precedent.  Every pointer handed to the kernel points
    //! into storage owned by this module for the duration of the call
    //! (slot buffers, stack-local header arrays), and nothing returned
    //! by the kernel is interpreted beyond the documented out-fields.

    use std::io;
    use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, UdpSocket};
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    use super::{is_send_drop, NetIoStats, BATCH, SLOT_CAP};
    use crate::gso;
    use crate::sockopt::imp::{close, encode_addr, setsockopt, AF_INET, AF_INET6};

    // Linked via std's libc dependency; declared here because the
    // workspace builds offline with no `libc` crate available.
    extern "C" {
        fn sendmmsg(fd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
        fn recvmmsg(
            fd: i32,
            msgvec: *mut MMsgHdr,
            vlen: u32,
            flags: i32,
            timeout: *mut TimeSpec,
        ) -> i32;
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn timerfd_create(clockid: i32, flags: i32) -> i32;
        fn timerfd_settime(
            fd: i32,
            flags: i32,
            new_value: *const ITimerSpec,
            old_value: *mut ITimerSpec,
        ) -> i32;
        fn read(fd: i32, buf: *mut core::ffi::c_void, count: usize) -> isize;
    }

    const EPOLL_CLOEXEC: i32 = 0x80000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLLIN: u32 = 0x001;
    const CLOCK_MONOTONIC: i32 = 1;
    const TFD_NONBLOCK: i32 = 0o4000;
    const TFD_CLOEXEC: i32 = 0o2000000;
    /// `sockaddr_storage` size: holds any address family.
    const SS_SIZE: usize = 128;
    const SOL_UDP: i32 = 17;
    const UDP_SEGMENT: i32 = 103;
    const UDP_GRO: i32 = 104;
    /// `cmsghdr` bytes on 64-bit Linux (`CMSG_ALIGN(sizeof(cmsghdr))`).
    const CMSG_HDR: usize = 16;
    /// Per-slot control-message capacity: one int-bearing cmsg,
    /// `CMSG_SPACE(sizeof(int))`.
    const CTRL_CAP: usize = 24;
    /// Receive slots: fewer than [`BATCH`] but larger, so one
    /// coalesced read can carry up to ~64 KB while the slab stays the
    /// size of 32 plain slots (8 × 64 KB ≈ 32 × 16 KB).
    const GRO_BATCH: usize = 8;
    /// Capacity of one GRO read slot: the largest buffer the kernel
    /// will coalesce into (the UDP payload ceiling, rounded up).
    const GRO_SLOT_CAP: usize = 65_536;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct IoVec {
        base: *mut core::ffi::c_void,
        len: usize,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct MsgHdr {
        msg_name: *mut core::ffi::c_void,
        msg_namelen: u32,
        msg_iov: *mut IoVec,
        msg_iovlen: usize,
        msg_control: *mut core::ffi::c_void,
        msg_controllen: usize,
        msg_flags: i32,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct MMsgHdr {
        hdr: MsgHdr,
        len: u32,
    }

    // `epoll_event` is packed on x86-64 (a kernel ABI quirk) and
    // naturally aligned everywhere else.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct TimeSpec {
        sec: i64,
        nsec: i64,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct ITimerSpec {
        interval: TimeSpec,
        value: TimeSpec,
    }

    const ZERO_IOV: IoVec = IoVec {
        base: std::ptr::null_mut(),
        len: 0,
    };

    const ZERO_MSG: MMsgHdr = MMsgHdr {
        hdr: MsgHdr {
            msg_name: std::ptr::null_mut(),
            msg_namelen: 0,
            msg_iov: std::ptr::null_mut(),
            msg_iovlen: 0,
            msg_control: std::ptr::null_mut(),
            msg_controllen: 0,
            msg_flags: 0,
        },
        len: 0,
    };

    /// Owned raw descriptor, closed on drop.
    #[derive(Debug)]
    struct Fd(i32);

    impl Drop for Fd {
        fn drop(&mut self) {
            // SAFETY: the descriptor was created by this module and is
            // closed exactly once.
            unsafe {
                close(self.0);
            }
        }
    }

    /// Staged outbound super-datagrams: one contiguous arena
    /// (`BATCH × SLOT_CAP` bytes) carved into up to `BATCH`
    /// variable-length slots, plus pre-allocated address and
    /// control-message slabs, so building a backend costs a fixed
    /// handful of allocations — channels are constructed per session,
    /// and construction cost shows up directly in the benchmark's
    /// `counting-alloc.allocs_per_datagram`.  A slot is a [`gso::Run`]
    /// of same-destination equal-size datagrams packed back to back
    /// (the kernel re-segments them at `seg_sizes`); once a route has
    /// refused GSO every slot holds exactly one datagram.  Pointer-free,
    /// so the backend stays `Send`;
    /// the kernel-facing header arrays are rebuilt on the stack for
    /// each syscall.
    #[derive(Debug)]
    struct SendRing {
        data: Vec<u8>,
        ctrl: Vec<u8>,
        addrs: Vec<u8>,
        offs: [usize; BATCH],
        lens: [usize; BATCH],
        seg_sizes: [usize; BATCH],
        seg_counts: [u32; BATCH],
        addr_lens: [u32; BATCH],
        /// Used slots; `run` mirrors the last one while it may still
        /// accept segments.
        slots: usize,
        /// Arena bytes consumed by the staged slots.
        used: usize,
        run: gso::Run,
    }

    impl SendRing {
        fn new() -> SendRing {
            SendRing {
                data: vec![0u8; BATCH * SLOT_CAP],
                ctrl: vec![0u8; BATCH * CTRL_CAP],
                addrs: vec![0u8; BATCH * SS_SIZE],
                offs: [0; BATCH],
                lens: [0; BATCH],
                seg_sizes: [0; BATCH],
                seg_counts: [0; BATCH],
                addr_lens: [0; BATCH],
                slots: 0,
                used: 0,
                run: closed_run(),
            }
        }

        fn addr(&self, i: usize) -> &[u8] {
            &self.addrs[i * SS_SIZE..(i + 1) * SS_SIZE]
        }

        fn addr_mut(&mut self, i: usize) -> &mut [u8] {
            &mut self.addrs[i * SS_SIZE..(i + 1) * SS_SIZE]
        }
    }

    /// A run that accepts nothing (the ring's initial state).
    fn closed_run() -> gso::Run {
        let mut run = gso::Run::start(0);
        run.close();
        run
    }

    /// Write the `UDP_SEGMENT` control message for one super-datagram
    /// into its control slot.  The kernel insists on exactly
    /// `CMSG_LEN(sizeof(__u16))`.
    fn write_segment_cmsg(ctrl: &mut [u8], seg_size: usize) {
        let cmsg_len: usize = CMSG_HDR + 2;
        ctrl[0..8].copy_from_slice(&cmsg_len.to_ne_bytes());
        ctrl[8..12].copy_from_slice(&SOL_UDP.to_ne_bytes());
        ctrl[12..16].copy_from_slice(&UDP_SEGMENT.to_ne_bytes());
        ctrl[16..18].copy_from_slice(&(seg_size as u16).to_ne_bytes());
        ctrl[18..CTRL_CAP].fill(0);
    }

    /// Read the `UDP_GRO` segment size out of a receive control
    /// buffer; 0 when the read was not coalesced.  Single-cmsg parse:
    /// `UDP_GRO` is the only option enabled on the socket, so the
    /// first header is the only candidate.
    fn parse_gro_cmsg(ctrl: &[u8], controllen: usize) -> usize {
        if controllen < CMSG_HDR + 4 || controllen > ctrl.len() {
            return 0;
        }
        let mut word = [0u8; 8];
        word.copy_from_slice(&ctrl[0..8]);
        let cmsg_len = usize::from_ne_bytes(word);
        let mut half = [0u8; 4];
        half.copy_from_slice(&ctrl[8..12]);
        let level = i32::from_ne_bytes(half);
        half.copy_from_slice(&ctrl[12..16]);
        let ty = i32::from_ne_bytes(half);
        if level != SOL_UDP || ty != UDP_GRO || cmsg_len < CMSG_HDR + 4 {
            return 0;
        }
        half.copy_from_slice(&ctrl[16..20]);
        i32::from_ne_bytes(half).max(0) as usize
    }

    /// Set a `SOL_UDP` int option.  A kernel without it answers
    /// `ENOPROTOOPT`.
    fn set_udp_option(fd: i32, name: i32, value: i32) -> io::Result<()> {
        // SAFETY: a plain setsockopt call with a stack-local int of the
        // stated length.
        if unsafe { setsockopt(fd, SOL_UDP, name, (&value as *const i32).cast(), 4) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Did the kernel reject the submission in a way a GSO
    /// super-datagram can cause (`EINVAL`: segment exceeds the route
    /// MTU, or a bad destination; `EIO`: the device path refused the
    /// offload)?
    fn is_gso_rejection(e: &io::Error) -> bool {
        matches!(e.raw_os_error(), Some(22) | Some(5))
    }

    /// Filled inbound slots, [`GRO_BATCH`] × [`GRO_SLOT_CAP`], so one
    /// read can carry a whole coalesced super-datagram; `seg_sizes`
    /// records each slot's `UDP_GRO` segment size (0 = plain) for
    /// [`BatchedIo::pop_into`] to split against.
    #[derive(Debug)]
    struct RecvRing {
        data: Vec<u8>,
        ctrl: Vec<u8>,
        addrs: Vec<u8>,
        lens: [usize; GRO_BATCH],
        seg_sizes: [usize; GRO_BATCH],
        addr_lens: [u32; GRO_BATCH],
    }

    impl RecvRing {
        fn new() -> RecvRing {
            RecvRing {
                data: vec![0u8; GRO_BATCH * GRO_SLOT_CAP],
                ctrl: vec![0u8; GRO_BATCH * CTRL_CAP],
                addrs: vec![0u8; GRO_BATCH * SS_SIZE],
                lens: [0; GRO_BATCH],
                seg_sizes: [0; GRO_BATCH],
                addr_lens: [0; GRO_BATCH],
            }
        }

        fn buf(&self, i: usize) -> &[u8] {
            &self.data[i * GRO_SLOT_CAP..(i + 1) * GRO_SLOT_CAP]
        }

        fn addr(&self, i: usize) -> &[u8] {
            &self.addrs[i * SS_SIZE..(i + 1) * SS_SIZE]
        }

        fn ctrl(&self, i: usize) -> &[u8] {
            &self.ctrl[i * CTRL_CAP..(i + 1) * CTRL_CAP]
        }
    }

    /// Decode a kernel `sockaddr` back into a socket address.
    fn decode_addr(buf: &[u8], len: u32) -> Option<SocketAddr> {
        if len < 8 {
            return None;
        }
        let family = u16::from_ne_bytes([buf[0], buf[1]]);
        let port = u16::from_be_bytes([buf[2], buf[3]]);
        match family {
            AF_INET => {
                let ip = Ipv4Addr::new(buf[4], buf[5], buf[6], buf[7]);
                Some(SocketAddr::from((ip, port)))
            }
            AF_INET6 if len >= 28 => {
                let mut octets = [0u8; 16];
                octets.copy_from_slice(&buf[8..24]);
                let flowinfo = u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]);
                let scope = u32::from_ne_bytes([buf[24], buf[25], buf[26], buf[27]]);
                Some(SocketAddr::V6(std::net::SocketAddrV6::new(
                    Ipv6Addr::from(octets),
                    port,
                    flowinfo,
                    scope,
                )))
            }
            _ => None,
        }
    }

    fn timespec(d: Duration) -> TimeSpec {
        TimeSpec {
            sec: d.as_secs() as i64,
            nsec: i64::from(d.subsec_nanos()),
        }
    }

    /// Epoll tags: a watched socket has data, or the timer fired.
    const READABLE: u64 = 0;
    const EXPIRED: u64 = 1;

    /// Have `epoll` report `fd` readable, tagged `tag`.
    fn add_to_epoll(epoll: &Fd, fd: i32, tag: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: EPOLLIN,
            data: tag,
        };
        // SAFETY: `epoll.0`, `fd` are live descriptors; `ev` is a
        // stack-local the kernel only reads.
        let rc = unsafe { epoll_ctl(epoll.0, EPOLL_CTL_ADD, fd, &mut ev) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// The batched backend for one socket.
    #[derive(Debug)]
    pub(super) struct BatchedIo {
        epoll: Fd,
        timer: Fd,
        sock_fd: i32,
        send: SendRing,
        recv: RecvRing,
        recv_head: usize,
        recv_len: usize,
        /// Byte offset of the next segment inside the slot at
        /// `recv_head` (a GRO read splits across several pops).
        recv_seg_off: usize,
        /// Send coalescing active.  A route-level rejection
        /// (`EINVAL`/`EIO` on a super-datagram whose segments then go
        /// out one by one) clears it at runtime.
        gso_send: bool,
    }

    impl BatchedIo {
        /// The backend, where the kernel accepts both offloads.
        /// `UDP_SEGMENT` is probed first (set to 0: no per-socket
        /// default, but the option must exist) and `UDP_GRO` is turned
        /// on last, once nothing else can fail, so a socket left to the
        /// portable backend never reads coalesced buffers.
        pub(super) fn new(socket: &UdpSocket) -> io::Result<BatchedIo> {
            socket.set_nonblocking(true)?;
            let sock_fd = socket.as_raw_fd();
            set_udp_option(sock_fd, UDP_SEGMENT, 0)?;
            // SAFETY: plain descriptor-creating syscalls; results are
            // checked and owned by `Fd` guards.
            let ep = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if ep < 0 {
                return Err(io::Error::last_os_error());
            }
            let epoll = Fd(ep);
            let tf = unsafe { timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC) };
            if tf < 0 {
                return Err(io::Error::last_os_error());
            }
            let timer = Fd(tf);
            add_to_epoll(&epoll, sock_fd, READABLE)?;
            add_to_epoll(&epoll, timer.0, EXPIRED)?;
            set_udp_option(sock_fd, UDP_GRO, 1)?;
            Ok(BatchedIo {
                epoll,
                timer,
                sock_fd,
                send: SendRing::new(),
                recv: RecvRing::new(),
                recv_head: 0,
                recv_len: 0,
                recv_seg_off: 0,
                gso_send: true,
            })
        }

        /// Wake [`wait`](BatchedIo::wait) on `socket` too.
        pub(super) fn watch(&self, socket: &UdpSocket) -> io::Result<()> {
            add_to_epoll(&self.epoll, socket.as_raw_fd(), READABLE)
        }

        pub(super) fn send_full(&self) -> bool {
            // Full when no slot is free or the arena cannot take a
            // worst-case datagram as a fresh slot.
            self.send.slots == BATCH || self.send.data.len() - self.send.used < SLOT_CAP
        }

        /// Have `write` build one `n`-byte datagram in the staging
        /// arena: appended to the open [`gso::Run`] when coalescing
        /// applies (same destination, equal size, within the kernel
        /// ceilings), otherwise opening a new slot.  `false`, with
        /// nothing staged, for a datagram larger than a slot.
        pub(super) fn stage(
            &mut self,
            n: usize,
            to: Option<SocketAddr>,
            write: &mut dyn FnMut(&mut [u8]),
        ) -> bool {
            debug_assert!(!self.send_full(), "flush before staging into a full batch");
            if n > SLOT_CAP {
                return false;
            }
            let mut addr_buf = [0u8; SS_SIZE];
            let addr_len = match to {
                Some(addr) => encode_addr(&addr, &mut addr_buf),
                None => 0,
            };
            let s = &mut self.send;
            if self.gso_send && s.slots > 0 {
                let i = s.slots - 1;
                let same_dest = s.addr_lens[i] == addr_len
                    && s.addr(i)[..addr_len as usize] == addr_buf[..addr_len as usize];
                let budget = s.data.len() - s.offs[i];
                if same_dest && s.run.try_append(n, budget) {
                    let at = s.offs[i] + s.lens[i];
                    write(&mut s.data[at..at + n]);
                    s.lens[i] += n;
                    s.seg_counts[i] += 1;
                    s.used += n;
                    return true;
                }
            }
            let i = s.slots;
            let off = s.used;
            s.offs[i] = off;
            write(&mut s.data[off..off + n]);
            s.lens[i] = n;
            s.seg_sizes[i] = n;
            s.seg_counts[i] = 1;
            s.addr_lens[i] = addr_len;
            if addr_len > 0 {
                s.addr_mut(i)[..addr_len as usize].copy_from_slice(&addr_buf[..addr_len as usize]);
            }
            s.run = if self.gso_send {
                gso::Run::start(n)
            } else {
                closed_run()
            };
            s.slots += 1;
            s.used += n;
            true
        }

        /// Submit every staged slot: one `sendmmsg` per `BATCH` slots,
        /// coalesced slots carrying their `UDP_SEGMENT` control
        /// message, with loss-like submission failures counted as
        /// drops (the protocols retransmit) rather than surfaced as
        /// errors.  A slot the kernel refuses outright (a port-0 or
        /// broadcast address, no route, a firewall rule) is dropped
        /// and counted too, and the rest of the batch still goes out;
        /// the first such refusal is returned after it.
        pub(super) fn flush(
            &mut self,
            _socket: &UdpSocket,
            stats: &mut NetIoStats,
        ) -> io::Result<()> {
            let n = self.send.slots;
            if n == 0 {
                return Ok(());
            }
            self.send.slots = 0;
            self.send.used = 0;
            self.send.run.close();
            let mut done = 0usize;
            // Pending ICMP errors from earlier sends surface as
            // `ECONNREFUSED` with nothing submitted; each retry consumes
            // one, so the budget bounds a pathological error queue.
            let mut refused_budget = n + 4;
            let mut refusal = None;
            while done < n {
                let count = n - done;
                let mut iovs = [ZERO_IOV; BATCH];
                let mut hdrs = [ZERO_MSG; BATCH];
                let data_ptr = self.send.data.as_mut_ptr();
                let addr_ptr = self.send.addrs.as_mut_ptr();
                let ctrl_ptr = self.send.ctrl.as_mut_ptr();
                for i in 0..count {
                    let slot = done + i;
                    iovs[i] = IoVec {
                        // SAFETY: in-bounds offsets into the send arena
                        // (`offs`/`lens` were bounds-checked by
                        // `stage`).
                        base: unsafe { data_ptr.add(self.send.offs[slot]) }.cast(),
                        len: self.send.lens[slot],
                    };
                    hdrs[i].hdr.msg_iov = &mut iovs[i];
                    hdrs[i].hdr.msg_iovlen = 1;
                    if self.send.addr_lens[slot] > 0 {
                        hdrs[i].hdr.msg_name = unsafe { addr_ptr.add(slot * SS_SIZE) }.cast();
                        hdrs[i].hdr.msg_namelen = self.send.addr_lens[slot];
                    }
                    if self.send.seg_counts[slot] > 1 {
                        let seg = self.send.seg_sizes[slot];
                        write_segment_cmsg(
                            &mut self.send.ctrl[slot * CTRL_CAP..(slot + 1) * CTRL_CAP],
                            seg,
                        );
                        hdrs[i].hdr.msg_control = unsafe { ctrl_ptr.add(slot * CTRL_CAP) }.cast();
                        hdrs[i].hdr.msg_controllen = CTRL_CAP;
                    }
                }
                // SAFETY: `hdrs[..count]` reference iovecs, buffers and
                // control slots that outlive the call; the kernel
                // writes only the documented `len`/`msg_flags`
                // out-fields.
                let rc = unsafe { sendmmsg(self.sock_fd, hdrs.as_mut_ptr(), count as u32, 0) };
                if rc > 0 {
                    for slot in done..done + rc as usize {
                        let segs = u64::from(self.send.seg_counts[slot]);
                        stats.datagrams_sent += segs;
                        if segs > 1 {
                            stats.gso_super_datagrams += 1;
                            stats.gso_segments += segs;
                        }
                    }
                    done += rc as usize;
                    stats.send_batches += 1;
                    continue;
                }
                let err = io::Error::last_os_error();
                match err.kind() {
                    io::ErrorKind::Interrupted => continue,
                    io::ErrorKind::ConnectionRefused if refused_budget > 0 => {
                        refused_budget -= 1;
                        continue;
                    }
                    _ if self.send.seg_counts[done] > 1 && is_gso_rejection(&err) => {
                        // Nothing was submitted, so nothing duplicates:
                        // send the super-datagram again segment by
                        // segment.  If those go out, the route refused
                        // the offload (a segment over the path MTU) and
                        // coalescing stops on this socket; if they are
                        // refused too, the destination was at fault (a
                        // port-0 address) and the socket keeps GSO.
                        let sent = stats.datagrams_sent;
                        if let Err(e) = self.flush_split(done, stats) {
                            refusal.get_or_insert(e);
                        }
                        if stats.datagrams_sent > sent {
                            self.gso_send = false;
                        }
                        done += 1;
                    }
                    _ if is_send_drop(&err) => {
                        for slot in done..n {
                            stats.send_drops += u64::from(self.send.seg_counts[slot]);
                        }
                        break;
                    }
                    _ => {
                        stats.send_drops += u64::from(self.send.seg_counts[done]);
                        done += 1;
                        refusal.get_or_insert(err);
                    }
                }
            }
            refusal.map_or(Ok(()), Err)
        }

        /// De-coalescing fallback for [`flush`](BatchedIo::flush):
        /// submit the super-datagram in `slot` segment by segment,
        /// dropping a refused segment as `flush` drops a refused slot;
        /// the first refusal is returned after the rest.
        fn flush_split(&mut self, slot: usize, stats: &mut NetIoStats) -> io::Result<()> {
            let base = self.send.offs[slot];
            let mut segs = [(0usize, 0usize); gso::MAX_SEGMENTS as usize];
            let mut count = 0usize;
            let mut off = 0usize;
            for len in gso::split(self.send.lens[slot], self.send.seg_sizes[slot]) {
                segs[count] = (base + off, len);
                off += len;
                count += 1;
            }
            let mut refusal = None;
            let mut done = 0usize;
            let mut refused_budget = count + 4;
            while done < count {
                let take = (count - done).min(BATCH);
                let mut iovs = [ZERO_IOV; BATCH];
                let mut hdrs = [ZERO_MSG; BATCH];
                let data_ptr = self.send.data.as_mut_ptr();
                let addr_ptr = self.send.addrs.as_mut_ptr();
                for i in 0..take {
                    let (seg_off, seg_len) = segs[done + i];
                    iovs[i] = IoVec {
                        // SAFETY: segment offsets stay inside the slot's
                        // arena range.
                        base: unsafe { data_ptr.add(seg_off) }.cast(),
                        len: seg_len,
                    };
                    hdrs[i].hdr.msg_iov = &mut iovs[i];
                    hdrs[i].hdr.msg_iovlen = 1;
                    if self.send.addr_lens[slot] > 0 {
                        hdrs[i].hdr.msg_name = unsafe { addr_ptr.add(slot * SS_SIZE) }.cast();
                        hdrs[i].hdr.msg_namelen = self.send.addr_lens[slot];
                    }
                }
                // SAFETY: as in `flush`.
                let rc = unsafe { sendmmsg(self.sock_fd, hdrs.as_mut_ptr(), take as u32, 0) };
                if rc > 0 {
                    done += rc as usize;
                    stats.datagrams_sent += rc as u64;
                    stats.send_batches += 1;
                    continue;
                }
                let err = io::Error::last_os_error();
                match err.kind() {
                    io::ErrorKind::Interrupted => continue,
                    io::ErrorKind::ConnectionRefused if refused_budget > 0 => {
                        refused_budget -= 1;
                        continue;
                    }
                    _ if is_send_drop(&err) => {
                        stats.send_drops += (count - done) as u64;
                        break;
                    }
                    _ => {
                        stats.send_drops += 1;
                        done += 1;
                        refusal.get_or_insert(err);
                    }
                }
            }
            refusal.map_or(Ok(()), Err)
        }

        /// Drain up to a ring of datagrams off the socket in one
        /// `recvmmsg` (GRO-coalesced reads count every datagram they
        /// carry).  Non-blocking; returns how many datagrams arrived.
        pub(super) fn fill(
            &mut self,
            _socket: &UdpSocket,
            stats: &mut NetIoStats,
        ) -> io::Result<usize> {
            debug_assert!(self.recv_head >= self.recv_len, "fill over undrained batch");
            let mut refused_budget = 16;
            loop {
                let mut iovs = [ZERO_IOV; GRO_BATCH];
                let mut hdrs = [ZERO_MSG; GRO_BATCH];
                let data_ptr = self.recv.data.as_mut_ptr();
                let addr_ptr = self.recv.addrs.as_mut_ptr();
                let ctrl_ptr = self.recv.ctrl.as_mut_ptr();
                for i in 0..GRO_BATCH {
                    iovs[i] = IoVec {
                        // SAFETY: in-bounds offsets into the recv slabs.
                        base: unsafe { data_ptr.add(i * GRO_SLOT_CAP) }.cast(),
                        len: GRO_SLOT_CAP,
                    };
                    hdrs[i].hdr.msg_iov = &mut iovs[i];
                    hdrs[i].hdr.msg_iovlen = 1;
                    hdrs[i].hdr.msg_name = unsafe { addr_ptr.add(i * SS_SIZE) }.cast();
                    hdrs[i].hdr.msg_namelen = SS_SIZE as u32;
                    hdrs[i].hdr.msg_control = unsafe { ctrl_ptr.add(i * CTRL_CAP) }.cast();
                    hdrs[i].hdr.msg_controllen = CTRL_CAP;
                }
                // SAFETY: as in `flush`; the kernel fills buffers,
                // address and control storage owned by `self.recv` and
                // reports per-message lengths in the headers.
                let rc = unsafe {
                    recvmmsg(
                        self.sock_fd,
                        hdrs.as_mut_ptr(),
                        GRO_BATCH as u32,
                        0,
                        std::ptr::null_mut(),
                    )
                };
                if rc > 0 {
                    let got = rc as usize;
                    let mut datagrams = 0u64;
                    for (i, hdr) in hdrs.iter().enumerate().take(got) {
                        let len = (hdr.len as usize).min(GRO_SLOT_CAP);
                        self.recv.lens[i] = len;
                        self.recv.addr_lens[i] = hdr.hdr.msg_namelen;
                        let seg = parse_gro_cmsg(self.recv.ctrl(i), hdr.hdr.msg_controllen);
                        self.recv.seg_sizes[i] = seg;
                        if seg > 0 && len > seg {
                            let count = gso::split(len, seg).count() as u64;
                            stats.gro_super_datagrams += 1;
                            stats.gro_segments += count;
                            datagrams += count;
                        } else {
                            datagrams += 1;
                        }
                    }
                    self.recv_head = 0;
                    self.recv_len = got;
                    self.recv_seg_off = 0;
                    stats.datagrams_received += datagrams;
                    stats.recv_batches += 1;
                    return Ok(datagrams as usize);
                }
                let err = io::Error::last_os_error();
                match err.kind() {
                    io::ErrorKind::WouldBlock => return Ok(0),
                    io::ErrorKind::Interrupted => continue,
                    // A queued ICMP unreachable from an earlier send:
                    // consume and keep draining, boundedly.
                    io::ErrorKind::ConnectionRefused if refused_budget > 0 => {
                        refused_budget -= 1;
                        continue;
                    }
                    io::ErrorKind::ConnectionRefused => return Ok(0),
                    _ => return Err(err),
                }
            }
        }

        /// Pop one filled datagram into `buf`.  A GRO-coalesced slot
        /// yields one segment per call — a view into the slot at the
        /// running segment offset, so the split costs no copy beyond
        /// the one every pop already makes and no allocation at all.
        pub(super) fn pop_into(&mut self, buf: &mut [u8]) -> Option<(usize, Option<SocketAddr>)> {
            loop {
                if self.recv_head >= self.recv_len {
                    return None;
                }
                let i = self.recv_head;
                let total = self.recv.lens[i];
                let off = self.recv_seg_off;
                if off >= total {
                    if off == 0 && total == 0 {
                        // A zero-length datagram is still one datagram.
                        self.recv_head += 1;
                        let addr = decode_addr(self.recv.addr(i), self.recv.addr_lens[i]);
                        return Some((0, addr));
                    }
                    self.recv_head += 1;
                    self.recv_seg_off = 0;
                    continue;
                }
                let seg = self.recv.seg_sizes[i];
                let want = if seg == 0 {
                    total - off
                } else {
                    seg.min(total - off)
                };
                let n = want.min(buf.len());
                buf[..n].copy_from_slice(&self.recv.buf(i)[off..off + n]);
                self.recv_seg_off = off + want;
                let addr = decode_addr(self.recv.addr(i), self.recv.addr_lens[i]);
                return Some((n, addr));
            }
        }

        /// Block until the socket is readable or `timeout` elapses.
        /// The deadline rides a one-shot timerfd, so sub-millisecond
        /// pace gaps wait exactly as long as they should — this is the
        /// wait that replaced the driver's yield-spin.
        pub(super) fn wait(
            &mut self,
            timeout: Duration,
            stats: &mut NetIoStats,
        ) -> io::Result<bool> {
            // A zero it_value disarms the timer; clamp to one tick so a
            // zero/near-zero timeout still fires immediately.
            let spec = ITimerSpec {
                interval: TimeSpec { sec: 0, nsec: 0 },
                value: timespec(timeout.max(Duration::from_nanos(1))),
            };
            // SAFETY: `timer` is live; `spec` is stack-local and only
            // read.  Re-arming also clears any stale expiration.
            let rc = unsafe { timerfd_settime(self.timer.0, 0, &spec, std::ptr::null_mut()) };
            if rc != 0 {
                return Err(io::Error::last_os_error());
            }
            loop {
                let mut events = [EpollEvent { events: 0, data: 0 }; 4];
                // SAFETY: the kernel writes at most 4 events into the
                // stack-local array.
                let rc = unsafe { epoll_wait(self.epoll.0, events.as_mut_ptr(), 4, -1) };
                if rc < 0 {
                    let err = io::Error::last_os_error();
                    if err.kind() == io::ErrorKind::Interrupted {
                        continue;
                    }
                    return Err(err);
                }
                let mut readable = false;
                let mut expired = false;
                for ev in events.iter().take(rc as usize) {
                    match ev.data {
                        READABLE => readable = true,
                        _ => expired = true,
                    }
                }
                if expired {
                    // Drain the expiration count so the timerfd goes
                    // quiet until re-armed.
                    let mut ticks = 0u64;
                    // SAFETY: reads 8 bytes into a stack-local u64, the
                    // timerfd read contract.
                    unsafe {
                        read(self.timer.0, (&mut ticks as *mut u64).cast(), 8);
                    }
                }
                if readable {
                    stats.wakeups += 1;
                    return Ok(true);
                }
                if expired {
                    stats.timeouts += 1;
                    return Ok(false);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (UdpSocket, UdpSocket) {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        let a_addr = a.local_addr().unwrap();
        let b_addr = b.local_addr().unwrap();
        a.connect(b_addr).unwrap();
        b.connect(a_addr).unwrap();
        (a, b)
    }

    fn roundtrip(mut tx: NetIo, mut rx: NetIo, a: &UdpSocket, b: &UdpSocket) {
        // Stage a whole burst, flush once, receive every datagram.
        for i in 0..10u8 {
            tx.queue(a, &[i; 100]).unwrap();
        }
        tx.flush(a).unwrap();
        let mut buf = [0u8; 256];
        for i in 0..10u8 {
            let n = rx
                .recv(b, &mut buf, Duration::from_secs(2))
                .unwrap()
                .expect("datagram arrives");
            assert_eq!(&buf[..n], &[i; 100][..], "order preserved");
        }
        assert_eq!(tx.stats.datagrams_sent, 10);
        assert_eq!(rx.stats.datagrams_received, 10);
        assert!(
            tx.stats.send_batches <= 10,
            "batching never exceeds one syscall per datagram"
        );
    }

    #[test]
    fn connected_roundtrip_auto_backend() {
        let (a, b) = pair();
        let tx = NetIo::connected(&a);
        let rx = NetIo::connected(&b);
        roundtrip(tx, rx, &a, &b);
    }

    #[test]
    fn connected_roundtrip_portable_backend() {
        let (a, b) = pair();
        let tx = NetIo::portable(false);
        let rx = NetIo::portable(false);
        assert_eq!(tx.backend(), BackendKind::Portable);
        roundtrip(tx, rx, &a, &b);
    }

    #[test]
    fn portable_zero_timeout_recv_is_a_poll() {
        let (a, b) = pair();
        let mut tx = NetIo::portable(false);
        let mut rx = NetIo::portable(false);
        let mut buf = [0u8; 16];
        // `SO_RCVTIMEO` would round each of these up to a scheduler
        // tick (1–4 ms): a hundred polls must cost far less than that.
        let start = std::time::Instant::now();
        for _ in 0..100 {
            assert_eq!(rx.recv(&b, &mut buf, Duration::ZERO).unwrap(), None);
        }
        assert!(start.elapsed() < Duration::from_millis(50));
        tx.queue(&a, b"ready").unwrap();
        assert_eq!(rx.recv(&b, &mut buf, Duration::ZERO).unwrap(), Some(5));
        // The socket is back in blocking mode for timed receives.
        let t = Duration::from_millis(20);
        let start = std::time::Instant::now();
        assert_eq!(rx.recv(&b, &mut buf, t).unwrap(), None);
        assert!(start.elapsed() >= t / 2);
    }

    #[cfg(netio_batched)]
    #[test]
    fn batched_backend_amortises_syscalls() {
        let (a, b) = pair();
        let (Some(mut tx), Some(mut rx)) = (NetIo::try_batched(&a), NetIo::try_batched(&b)) else {
            return; // the kernel refuses an offload
        };
        for i in 0..(BATCH as u8) {
            tx.queue(&a, &[i; 64]).unwrap();
        }
        tx.flush(&a).unwrap();
        assert_eq!(tx.stats.send_batches, 1, "one sendmmsg for a full batch");
        let mut buf = [0u8; 128];
        for _ in 0..BATCH {
            rx.recv(&b, &mut buf, Duration::from_secs(2))
                .unwrap()
                .expect("datagram arrives");
        }
        assert!(
            rx.stats.recv_batches < BATCH as u64,
            "recvmmsg drained multiple datagrams per crossing ({} batches)",
            rx.stats.recv_batches
        );
    }

    #[cfg(netio_batched)]
    #[test]
    fn batched_wait_has_submillisecond_fidelity() {
        let (a, _b) = pair();
        let Some(mut io) = NetIo::try_batched(&a) else {
            return; // the kernel refuses an offload
        };
        let t0 = Instant::now();
        let readable = io.wait(Duration::from_micros(500)).unwrap();
        let waited = t0.elapsed();
        assert!(!readable, "nothing was sent");
        assert!(
            waited >= Duration::from_micros(400),
            "returned early: {waited:?}"
        );
        assert!(
            waited < Duration::from_millis(10),
            "a 500 µs wait must not round up to a scheduler tick: {waited:?}"
        );
        assert_eq!(io.stats.timeouts, 1);
    }

    #[cfg(netio_batched)]
    #[test]
    fn batched_wait_wakes_on_traffic() {
        let (a, b) = pair();
        let Some(mut rx) = NetIo::try_batched(&b) else {
            return; // the kernel refuses an offload
        };
        a.send(b"ping").unwrap();
        let readable = rx.wait(Duration::from_secs(2)).unwrap();
        assert!(readable, "pending datagram must wake the waiter");
        assert_eq!(rx.stats.wakeups, 1);
        let mut buf = [0u8; 16];
        let n = rx.recv(&b, &mut buf, Duration::from_secs(1)).unwrap();
        assert_eq!(n, Some(4));
    }

    #[test]
    fn reactor_mode_carries_peer_addresses() {
        let server = UdpSocket::bind("127.0.0.1:0").unwrap();
        let server_addr = server.local_addr().unwrap();
        let mut io = NetIo::reactor(&server);
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client.send_to(b"hello", server_addr).unwrap();
        let mut buf = [0u8; 64];
        // Wait (event-driven or sleep), then drain.
        let mut got = None;
        for _ in 0..2000 {
            if let Some(popped) = io.pop_into(&mut buf) {
                got = Some(popped);
                break;
            }
            if io.fill(&server).unwrap() > 0 {
                continue;
            }
            io.wait(Duration::from_millis(1)).unwrap();
        }
        let (n, peer) = got.expect("datagram arrives");
        assert_eq!(&buf[..n], b"hello");
        assert_eq!(peer, Some(client.local_addr().unwrap()));
        // Reply through the queued send path.
        io.queue_to(&server, b"world", peer).unwrap();
        io.flush(&server).unwrap();
        let mut rbuf = [0u8; 16];
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let (n, from) = client.recv_from(&mut rbuf).unwrap();
        assert_eq!(&rbuf[..n], b"world");
        assert_eq!(from, server_addr);
    }

    #[test]
    fn a_watched_socket_wakes_the_wait() {
        let main = UdpSocket::bind("127.0.0.1:0").unwrap();
        let second = UdpSocket::bind("127.0.0.1:0").unwrap();
        let mut io = NetIo::reactor(&main);
        io.watch(&second).unwrap();
        if !io.is_batched() {
            return; // the portable wait only sleeps
        }
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client.send_to(b"x", second.local_addr().unwrap()).unwrap();
        assert!(io.wait(Duration::from_secs(2)).unwrap());
        assert_eq!((io.stats.wakeups, io.stats.timeouts), (1, 0));
    }

    #[test]
    fn send_drop_classification() {
        assert!(is_send_drop(&io::Error::from(
            io::ErrorKind::ConnectionRefused
        )));
        assert!(is_send_drop(&io::Error::from(io::ErrorKind::WouldBlock)));
        assert!(is_send_drop(&io::Error::from_raw_os_error(ENOBUFS)));
        assert!(!is_send_drop(&io::Error::from(
            io::ErrorKind::PermissionDenied
        )));
    }

    #[test]
    fn portable_backend_reports_offload_not_applicable() {
        let io = NetIo::portable(false);
        assert_eq!(io.offload(), OffloadState::Portable);
        assert_eq!(OffloadState::GsoGro.name(), "gso+gro");
    }

    /// `SO_NO_CHECK` makes Linux refuse every GSO send with `EINVAL`:
    /// while it is on, the socket stands in for a route refusing the
    /// offload.
    #[cfg(netio_batched)]
    #[allow(unsafe_code)]
    fn refuse_gso(socket: &UdpSocket, on: bool) {
        use std::os::fd::AsRawFd;
        const SOL_SOCKET: i32 = 1;
        const SO_NO_CHECK: i32 = 11;
        let one = i32::from(on);
        // SAFETY: a plain setsockopt call on a live descriptor with a
        // stack-local int of the stated length.
        let rc = unsafe {
            crate::sockopt::imp::setsockopt(
                socket.as_raw_fd(),
                SOL_SOCKET,
                SO_NO_CHECK,
                (&one as *const i32).cast(),
                4,
            )
        };
        assert_eq!(rc, 0, "SO_NO_CHECK: {}", io::Error::last_os_error());
    }

    #[cfg(netio_batched)]
    #[test]
    fn gso_coalesces_equal_size_bursts() {
        let (a, b) = pair();
        let (Some(mut tx), Some(mut rx)) = (NetIo::try_batched(&a), NetIo::try_batched(&b)) else {
            return; // the kernel refuses an offload
        };
        for i in 0..(BATCH as u8) {
            tx.queue(&a, &[i; 256]).unwrap();
        }
        tx.flush(&a).unwrap();
        assert_eq!(tx.stats.datagrams_sent, BATCH as u64, "logical count kept");
        assert_eq!(tx.stats.gso_super_datagrams, 1, "whole burst in one slot");
        assert_eq!(tx.stats.gso_segments, BATCH as u64);
        assert_eq!(tx.stats.send_batches, 1);
        let mut buf = [0u8; 512];
        for i in 0..(BATCH as u8) {
            let n = rx
                .recv(&b, &mut buf, Duration::from_secs(2))
                .unwrap()
                .expect("datagram arrives");
            assert_eq!(&buf[..n], &[i; 256][..], "boundaries and order preserved");
        }
        assert_eq!(rx.stats.datagrams_received, BATCH as u64);
    }

    #[cfg(netio_batched)]
    #[test]
    fn gso_tail_runt_joins_and_larger_frame_splits() {
        let (a, b) = pair();
        let (Some(mut tx), Some(mut rx)) = (NetIo::try_batched(&a), NetIo::try_batched(&b)) else {
            return; // the kernel refuses an offload
        };
        // Two equal frames, a runt (joins as tail and closes the run),
        // then a larger frame that must open a new slot.
        let frames: [&[u8]; 4] = [&[1; 300], &[2; 300], &[3; 120], &[4; 400]];
        for f in frames {
            tx.queue(&a, f).unwrap();
        }
        tx.flush(&a).unwrap();
        assert_eq!(tx.stats.datagrams_sent, 4);
        assert_eq!(tx.stats.gso_super_datagrams, 1);
        assert_eq!(tx.stats.gso_segments, 3, "runt rode the super-datagram");
        let mut buf = [0u8; 512];
        for f in frames {
            let n = rx
                .recv(&b, &mut buf, Duration::from_secs(2))
                .unwrap()
                .expect("datagram arrives");
            assert_eq!(&buf[..n], f, "sizes survive the segmentation round-trip");
        }
    }

    /// A datagram the kernel refuses outright (here: to port 0) is
    /// dropped alone: the rest of its batch still goes out, and the
    /// refusal is reported after it.
    #[cfg(netio_batched)]
    #[test]
    fn a_refused_datagram_does_not_abort_its_batch() {
        let server = UdpSocket::bind("127.0.0.1:0").unwrap();
        server.set_nonblocking(true).unwrap();
        let Some(mut io) = NetIo::try_batched(&server) else {
            return; // the kernel refuses an offload
        };
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        let good = Some(client.local_addr().unwrap());
        let port_zero = Some(SocketAddr::from(([127, 0, 0, 1], 0)));
        io.queue_to(&server, b"first", good).unwrap();
        io.queue_to(&server, b"refused", port_zero).unwrap();
        io.queue_to(&server, b"third", good).unwrap();
        let refusal = io.flush(&server).unwrap_err();
        assert_eq!(refusal.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(io.stats.send_drops, 1);
        assert_eq!(io.stats.datagrams_sent, 2);
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut buf = [0u8; 16];
        for want in [&b"first"[..], b"third"] {
            let n = client.recv(&mut buf).unwrap();
            assert_eq!(&buf[..n], want);
        }
    }

    #[cfg(netio_batched)]
    #[test]
    fn different_destinations_never_share_a_super_datagram() {
        let server = UdpSocket::bind("127.0.0.1:0").unwrap();
        let Some(mut io) = NetIo::try_batched(&server) else {
            return; // the kernel refuses an offload
        };
        let c1 = UdpSocket::bind("127.0.0.1:0").unwrap();
        let c2 = UdpSocket::bind("127.0.0.1:0").unwrap();
        let d1 = Some(c1.local_addr().unwrap());
        let d2 = Some(c2.local_addr().unwrap());
        // Interleaved destinations with equal sizes: every datagram
        // must open its own slot.
        for _ in 0..4 {
            io.queue_to(&server, &[7u8; 200], d1).unwrap();
            io.queue_to(&server, &[9u8; 200], d2).unwrap();
        }
        io.flush(&server).unwrap();
        assert_eq!(io.stats.datagrams_sent, 8);
        assert_eq!(io.stats.gso_super_datagrams, 0, "no cross-peer coalescing");
        for (sock, byte) in [(&c1, 7u8), (&c2, 9u8)] {
            sock.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let mut buf = [0u8; 256];
            for _ in 0..4 {
                let n = sock.recv(&mut buf).unwrap();
                assert_eq!(&buf[..n], &[byte; 200][..]);
            }
        }
    }

    /// One burst to a port-0 address is the destination's fault, not
    /// the route's: the socket keeps coalescing.
    #[cfg(netio_batched)]
    #[test]
    fn a_burst_to_port_zero_keeps_gso_on() {
        let server = UdpSocket::bind("127.0.0.1:0").unwrap();
        let Some(mut io) = NetIo::try_batched(&server) else {
            return; // the kernel refuses an offload
        };
        let port_zero = Some(SocketAddr::from(([127, 0, 0, 1], 0)));
        for _ in 0..8 {
            io.queue_to(&server, &[1u8; 200], port_zero).unwrap();
        }
        let refusal = io.flush(&server).unwrap_err();
        assert_eq!(refusal.kind(), io::ErrorKind::InvalidInput);
        assert_eq!((io.stats.datagrams_sent, io.stats.send_drops), (0, 8));
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        let live = Some(client.local_addr().unwrap());
        for i in 0..8u8 {
            io.queue_to(&server, &[i; 200], live).unwrap();
        }
        io.flush(&server).unwrap();
        assert_eq!(io.stats.gso_super_datagrams, 1, "GSO survived the refusal");
        assert_eq!(io.stats.gso_segments, 8);
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut buf = [0u8; 256];
        for i in 0..8u8 {
            let n = client.recv(&mut buf).unwrap();
            assert_eq!(&buf[..n], &[i; 200][..]);
        }
    }

    /// A route that refuses GSO at run time still gets every datagram,
    /// and the socket stops coalescing for good: the next flush goes
    /// out uncoalesced in one `sendmmsg`, even once the route would
    /// take GSO again.
    #[cfg(netio_batched)]
    #[test]
    fn a_route_that_refuses_gso_still_gets_every_datagram() {
        let (a, b) = pair();
        let (Some(mut tx), Some(mut rx)) = (NetIo::try_batched(&a), NetIo::try_batched(&b)) else {
            return; // the kernel refuses an offload
        };
        refuse_gso(&a, true);
        let mut buf = [0u8; 512];
        for round in 0..2u8 {
            if round == 1 {
                refuse_gso(&a, false);
            }
            let batches = tx.stats.send_batches;
            for i in 0..8u8 {
                tx.queue(&a, &[round * 8 + i; 200]).unwrap();
            }
            tx.flush(&a).unwrap();
            if round == 1 {
                assert_eq!(tx.stats.send_batches, batches + 1, "one sendmmsg");
            }
            for i in 0..8u8 {
                let n = rx
                    .recv(&b, &mut buf, Duration::from_secs(2))
                    .unwrap()
                    .expect("datagram arrives");
                assert_eq!(&buf[..n], &[round * 8 + i; 200][..], "order preserved");
            }
        }
        assert_eq!(tx.stats.datagrams_sent, 16);
        assert_eq!(tx.stats.gso_super_datagrams, 0);
        assert_eq!(tx.stats.send_drops, 0);
    }
}
