//! Datagram channels.

use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use blast_telemetry::Recorder;

use crate::netio::{BackendKind, NetIo, NetIoStats, OffloadState};

/// Largest datagram the drivers will send or receive.  Loopback UDP
/// carries much more than Ethernet; we keep a generous bound so large
/// packet-payload configurations still work.
pub const MAX_DATAGRAM: usize = 16 * 1024;

/// An unreliable datagram channel — the substrate the blast protocols
/// assume: datagrams may be lost, duplicated or reordered, never
/// corrupted silently (checksums convert corruption into loss).
pub trait Channel {
    /// Send one datagram.
    fn send(&mut self, buf: &[u8]) -> io::Result<()>;

    /// Receive one datagram into `buf` within `timeout`.
    /// Returns `Ok(None)` on timeout.
    fn recv_timeout(&mut self, buf: &mut [u8], timeout: Duration) -> io::Result<Option<usize>>;

    /// [`recv_timeout`](Channel::recv_timeout) for a caller that has
    /// just read the clock: the wait ends `timeout` after `now`, and a
    /// channel that would otherwise read the clock to keep that bound
    /// (a [`TimeWait`](crate::timewait::TimeWait) that answers a
    /// datagram and waits on) counts from `now` instead.  Wrappers
    /// should forward; the default is `recv_timeout`.
    fn recv_timeout_from(
        &mut self,
        buf: &mut [u8],
        timeout: Duration,
        now: Instant,
    ) -> io::Result<Option<usize>> {
        let _ = now;
        self.recv_timeout(buf, timeout)
    }

    /// Stage one datagram for a batched [`flush`](Channel::flush).
    ///
    /// Channels with a batching backend queue the bytes and submit the
    /// whole burst in one kernel crossing; the default sends
    /// immediately, so wrappers and test channels stay correct without
    /// opting in.  Staged datagrams are delivered in staging order,
    /// and a direct [`send`](Channel::send) flushes anything staged
    /// first, so ordering is never violated.
    fn stage(&mut self, buf: &[u8]) -> io::Result<()> {
        self.send(buf)
    }

    /// Stage one datagram of `len` bytes that `write` builds in the
    /// `len`-byte slice it is handed, as [`stage`](Channel::stage)
    /// would stage it.
    ///
    /// A channel with its own staging memory overrides this to hand
    /// `write` that memory, so the datagram is written once where it is
    /// staged ([`UdpChannel`]: its backend's send arena;
    /// [`FcsChannel`](crate::fcs::FcsChannel): its frame scratch, the
    /// FCS computed over it there).  Wrappers should forward.  The
    /// default builds the datagram in a fresh buffer and stages that.
    fn stage_with(&mut self, len: usize, write: &mut dyn FnMut(&mut [u8])) -> io::Result<()> {
        let mut datagram = vec![0; len];
        write(&mut datagram);
        self.stage(&datagram)
    }

    /// Put every staged datagram on the wire.  Default: no-op (nothing
    /// queues).
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Attach a flight recorder to the channel's I/O backend, for
    /// channels that trace syscall activity.  Wrappers should forward;
    /// the default discards the handle so test channels stay trivial.
    fn set_recorder(&mut self, _recorder: Recorder) {}

    /// Received datagrams the channel has discarded as corrupt so far
    /// (an [`FcsChannel`](crate::fcs::FcsChannel)'s failed checks), which
    /// no caller saw.  Wrappers should forward; the default is 0.
    fn discarded(&self) -> u64 {
        0
    }

    /// The receive-buffer size (`SO_RCVBUF`, as the kernel reports it)
    /// of the socket under the channel, which a receiver's
    /// [grant](crate::grant) divides into datagrams; `None` where it
    /// cannot be read.  Wrappers should forward; the default is what a
    /// socket grown by [`grow_buffers`](crate::sockopt::grow_buffers)
    /// reports on this host, as every channel this crate opens is.  A
    /// channel over a smaller queue that does not say so over-grants:
    /// its sender loses the excess, trims its burst by the share lost,
    /// and the path carries the trimmed burst to the next transfer.
    fn recv_buffer(&self) -> Option<usize> {
        crate::sockopt::grown_recv_buffer()
    }
}

/// A connected UDP socket as a [`Channel`], running on a pluggable
/// [`NetIo`] backend: GSO/GRO-coalesced `sendmmsg`/`recvmmsg`
/// submission with event-driven (`ppoll`) waits on Linux
/// kernels that accept both offloads, single-syscall portable I/O
/// elsewhere (or when `BLAST_NETIO=portable` forces it).
#[derive(Debug)]
pub struct UdpChannel {
    socket: UdpSocket,
    io: NetIo,
}

impl UdpChannel {
    /// Bind to `local` and connect to `remote`.  Both socket buffers
    /// are grown (best effort) so a whole blast round queues in the
    /// kernel instead of spilling — see [`crate::sockopt`].
    pub fn connect(local: SocketAddr, remote: SocketAddr) -> io::Result<Self> {
        let socket = UdpSocket::bind(local)?;
        crate::sockopt::grow_buffers(&socket);
        socket.connect(remote)?;
        Ok(Self::from_socket(socket))
    }

    /// Connect to `remote` from an ephemeral local port of its address
    /// family (a v4 socket cannot reach a v6 peer, nor vice versa).
    pub fn connect_to(remote: SocketAddr) -> io::Result<Self> {
        let local: SocketAddr = if remote.is_ipv4() {
            (Ipv4Addr::UNSPECIFIED, 0).into()
        } else {
            (Ipv6Addr::UNSPECIFIED, 0).into()
        };
        Self::connect(local, remote)
    }

    /// Wrap an already-connected socket.
    pub fn from_socket(socket: UdpSocket) -> Self {
        let io = NetIo::connected(&socket);
        UdpChannel { socket, io }
    }

    /// Create a connected loopback pair on ephemeral ports — the
    /// test/example workhorse.
    pub fn pair() -> io::Result<(UdpChannel, UdpChannel)> {
        let a = UdpSocket::bind("127.0.0.1:0")?;
        let b = UdpSocket::bind("127.0.0.1:0")?;
        crate::sockopt::grow_buffers(&a);
        crate::sockopt::grow_buffers(&b);
        let a_addr = a.local_addr()?;
        let b_addr = b.local_addr()?;
        a.connect(b_addr)?;
        b.connect(a_addr)?;
        Ok((Self::from_socket(a), Self::from_socket(b)))
    }

    /// The local address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Which [`NetIo`] backend this channel runs.
    pub fn backend(&self) -> BackendKind {
        self.io.backend()
    }

    /// The backend's syscall counters.
    pub fn io_stats(&self) -> NetIoStats {
        self.io.stats
    }

    /// The segmentation offloads this channel's backend runs with
    /// (see [`OffloadState`]).
    pub fn offload(&self) -> OffloadState {
        self.io.offload()
    }
}

impl Channel for UdpChannel {
    fn send(&mut self, buf: &[u8]) -> io::Result<()> {
        debug_assert!(buf.len() <= MAX_DATAGRAM, "datagram too large");
        // Queue-then-flush keeps ordering with any staged burst; drops
        // (peer's ICMP unreachable, full buffer) are loss, not failure,
        // and are counted in the backend stats.
        self.io.queue(&self.socket, buf)?;
        self.io.flush(&self.socket)
    }

    fn stage(&mut self, buf: &[u8]) -> io::Result<()> {
        debug_assert!(buf.len() <= MAX_DATAGRAM, "datagram too large");
        self.io.queue(&self.socket, buf)
    }

    fn stage_with(&mut self, len: usize, write: &mut dyn FnMut(&mut [u8])) -> io::Result<()> {
        debug_assert!(len <= MAX_DATAGRAM, "datagram too large");
        self.io.queue_with(&self.socket, len, None, write)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.io.flush(&self.socket)
    }

    fn recv_timeout(&mut self, buf: &mut [u8], timeout: Duration) -> io::Result<Option<usize>> {
        self.io.recv(&self.socket, buf, timeout)
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.io.set_recorder(recorder);
    }

    fn recv_buffer(&self) -> Option<usize> {
        crate::sockopt::recv_buffer(&self.socket).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_roundtrips_datagrams() {
        let (mut a, mut b) = UdpChannel::pair().unwrap();
        a.send(b"hello").unwrap();
        let mut buf = [0u8; 64];
        let n = b
            .recv_timeout(&mut buf, Duration::from_secs(1))
            .unwrap()
            .unwrap();
        assert_eq!(&buf[..n], b"hello");

        b.send(b"world").unwrap();
        let n = a
            .recv_timeout(&mut buf, Duration::from_secs(1))
            .unwrap()
            .unwrap();
        assert_eq!(&buf[..n], b"world");
    }

    #[test]
    fn recv_times_out_cleanly() {
        let (mut a, _b) = UdpChannel::pair().unwrap();
        let mut buf = [0u8; 16];
        let got = a.recv_timeout(&mut buf, Duration::from_millis(5)).unwrap();
        assert_eq!(got, None);
    }

    #[test]
    fn datagram_boundaries_preserved() {
        let (mut a, mut b) = UdpChannel::pair().unwrap();
        a.send(b"one").unwrap();
        a.send(b"two").unwrap();
        let mut buf = [0u8; 64];
        let n = b
            .recv_timeout(&mut buf, Duration::from_secs(1))
            .unwrap()
            .unwrap();
        assert_eq!(n, 3);
        let n = b
            .recv_timeout(&mut buf, Duration::from_secs(1))
            .unwrap()
            .unwrap();
        assert_eq!(n, 3);
    }

    #[test]
    fn large_datagrams_within_bound() {
        let (mut a, mut b) = UdpChannel::pair().unwrap();
        let big = vec![0xa5u8; 8 * 1024];
        a.send(&big).unwrap();
        let mut buf = vec![0u8; MAX_DATAGRAM];
        let n = b
            .recv_timeout(&mut buf, Duration::from_secs(1))
            .unwrap()
            .unwrap();
        assert_eq!(n, big.len());
        assert_eq!(&buf[..n], &big[..]);
    }

    #[test]
    fn staged_burst_flushes_in_order() {
        let (mut a, mut b) = UdpChannel::pair().unwrap();
        for i in 0..40u8 {
            a.stage(&[i; 32]).unwrap();
        }
        a.flush().unwrap();
        let mut buf = [0u8; 64];
        for i in 0..40u8 {
            let n = b
                .recv_timeout(&mut buf, Duration::from_secs(1))
                .unwrap()
                .unwrap();
            assert_eq!(&buf[..n], &[i; 32][..], "staging order preserved");
        }
        assert_eq!(a.io_stats().datagrams_sent, 40);
    }

    #[test]
    fn direct_send_flushes_staged_first() {
        let (mut a, mut b) = UdpChannel::pair().unwrap();
        a.stage(b"first").unwrap();
        a.send(b"second").unwrap();
        let mut buf = [0u8; 16];
        let n = b
            .recv_timeout(&mut buf, Duration::from_secs(1))
            .unwrap()
            .unwrap();
        assert_eq!(&buf[..n], b"first");
        let n = b
            .recv_timeout(&mut buf, Duration::from_secs(1))
            .unwrap()
            .unwrap();
        assert_eq!(&buf[..n], b"second");
    }
}
