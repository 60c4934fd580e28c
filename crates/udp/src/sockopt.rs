//! Socket-buffer tuning: grow `SO_RCVBUF` so a blast round fits.
//!
//! ROADMAP's measured bottleneck: a full blast round (≈ 256 KB at
//! 1400-byte payloads) dumped into a default-sized UDP receive buffer
//! (≈ 208 KB on Linux) loses its tail packets to the kernel before the
//! application ever sees them — the modern incarnation of the paper's
//! §3 *interface errors*, where "the receiver has no buffer available
//! for an incoming packet".  The paper's fix was more interface
//! buffers; ours is the same: ask the kernel for a bigger receive
//! queue at socket setup.
//!
//! `std::net::UdpSocket` exposes no buffer-size API, so on Linux this
//! module calls `setsockopt(2)`/`getsockopt(2)` directly through the
//! already-linked C library.  This is the crate's one sanctioned use of
//! `unsafe` (mirroring the `blast-counting-alloc` precedent): two
//! audited FFI calls on a valid file descriptor with stack-local
//! buffers, nothing else.  On other platforms the functions are no-ops
//! that report `Unsupported`; callers treat the whole thing as
//! best-effort — a socket with a small buffer still works, it just
//! drops more.
//!
//! The module also owns [`bind_reuseport`], the sharded node's socket
//! factory: `SO_REUSEPORT` must be set *before* `bind(2)`, which std's
//! bind-then-configure API cannot express, so the whole
//! socket/setsockopt/bind sequence runs through the same audited FFI
//! surface and the finished descriptor is handed to `UdpSocket` via
//! `FromRawFd`.  Every socket bound this way to the same address joins
//! one kernel group; the kernel's 4-tuple hash then distributes
//! incoming datagrams across the group, pinning each remote endpoint
//! to exactly one member socket.

use std::io;
use std::net::{SocketAddr, UdpSocket};

/// Receive-buffer request for blast workloads: 4 MiB comfortably holds
/// several concurrent 256 KB rounds.  The kernel clamps the effective
/// size to `net.core.rmem_max`; [`grown_recv_buffer`] reports what
/// it grants.
pub const BLAST_RECV_BUFFER: usize = 4 * 1024 * 1024;

// The hardcoded option constants below are the asm-generic values;
// MIPS and SPARC kernels use different ones (SOL_SOCKET = 0xffff), so
// those architectures take the unsupported fallback rather than poking
// the wrong socket level.
#[cfg(all(
    target_os = "linux",
    not(any(
        target_arch = "mips",
        target_arch = "mips64",
        target_arch = "sparc",
        target_arch = "sparc64"
    ))
))]
#[allow(unsafe_code)]
pub(crate) mod imp {
    use std::io;
    use std::net::{SocketAddr, UdpSocket};
    use std::os::fd::{AsRawFd, FromRawFd};

    // Linked via std's libc dependency; declared here because the
    // workspace builds offline with no `libc` crate available.
    extern "C" {
        pub(crate) fn setsockopt(
            fd: i32,
            level: i32,
            name: i32,
            value: *const core::ffi::c_void,
            len: u32,
        ) -> i32;
        fn getsockopt(
            fd: i32,
            level: i32,
            name: i32,
            value: *mut core::ffi::c_void,
            len: *mut u32,
        ) -> i32;
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn bind(fd: i32, addr: *const core::ffi::c_void, len: u32) -> i32;
        fn close(fd: i32) -> i32;
    }

    const SOL_SOCKET: i32 = 1;
    pub(super) const SO_SNDBUF: i32 = 7;
    const SO_RCVBUF: i32 = 8;
    const SO_REUSEPORT: i32 = 15;
    pub(crate) const AF_INET: u16 = 2;
    pub(crate) const AF_INET6: u16 = 10;
    const SOCK_DGRAM: i32 = 2;
    const SOCK_CLOEXEC: i32 = 0o2000000;

    fn set_buffer(socket: &UdpSocket, option: i32, bytes: usize) -> io::Result<usize> {
        let fd = socket.as_raw_fd();
        let request: i32 = bytes.min(i32::MAX as usize) as i32;
        // SAFETY: `fd` is a live descriptor owned by `socket` for the
        // duration of the call; the value pointer/length describe a
        // stack-local i32.
        let rc = unsafe {
            setsockopt(
                fd,
                SOL_SOCKET,
                option,
                (&request as *const i32).cast(),
                std::mem::size_of::<i32>() as u32,
            )
        };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        buffer(socket, option)
    }

    pub(super) fn buffer(socket: &UdpSocket, option: i32) -> io::Result<usize> {
        let fd = socket.as_raw_fd();
        let mut granted: i32 = 0;
        let mut len = std::mem::size_of::<i32>() as u32;
        // SAFETY: as above; the kernel writes at most `len` bytes into
        // the stack-local i32.
        let rc = unsafe {
            getsockopt(
                fd,
                SOL_SOCKET,
                option,
                (&mut granted as *mut i32).cast(),
                &mut len,
            )
        };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(granted.max(0) as usize)
    }

    pub fn set_recv_buffer(socket: &UdpSocket, bytes: usize) -> io::Result<usize> {
        set_buffer(socket, SO_RCVBUF, bytes)
    }

    pub fn recv_buffer(socket: &UdpSocket) -> io::Result<usize> {
        buffer(socket, SO_RCVBUF)
    }

    pub fn set_send_buffer(socket: &UdpSocket, bytes: usize) -> io::Result<usize> {
        set_buffer(socket, SO_SNDBUF, bytes)
    }

    /// Encode a socket address as a kernel `sockaddr` into the front
    /// of `out` (at least 28 bytes), returning its length.
    pub(crate) fn encode_addr(addr: &SocketAddr, out: &mut [u8]) -> u32 {
        match addr {
            SocketAddr::V4(a) => {
                out[0..2].copy_from_slice(&AF_INET.to_ne_bytes());
                out[2..4].copy_from_slice(&a.port().to_be_bytes());
                out[4..8].copy_from_slice(&a.ip().octets());
                out[8..16].fill(0);
                16
            }
            SocketAddr::V6(a) => {
                out[0..2].copy_from_slice(&AF_INET6.to_ne_bytes());
                out[2..4].copy_from_slice(&a.port().to_be_bytes());
                out[4..8].copy_from_slice(&a.flowinfo().to_be_bytes());
                out[8..24].copy_from_slice(&a.ip().octets());
                out[24..28].copy_from_slice(&a.scope_id().to_ne_bytes());
                28
            }
        }
    }

    pub fn reuseport_supported() -> bool {
        true
    }

    pub fn bind_reuseport(addr: SocketAddr) -> io::Result<UdpSocket> {
        let domain = match addr {
            SocketAddr::V4(_) => i32::from(AF_INET),
            SocketAddr::V6(_) => i32::from(AF_INET6),
        };
        // SAFETY: plain syscall; a negative return is checked before the
        // descriptor is used.
        let fd = unsafe { socket(domain, SOCK_DGRAM | SOCK_CLOEXEC, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // From here on the raw fd must be closed on every error path;
        // wrap each step so a failure releases it exactly once.
        let configure = || -> io::Result<()> {
            let one: i32 = 1;
            // SAFETY: `fd` is the live descriptor created above; the
            // value pointer/length describe a stack-local i32.
            let rc = unsafe {
                setsockopt(
                    fd,
                    SOL_SOCKET,
                    SO_REUSEPORT,
                    (&one as *const i32).cast(),
                    std::mem::size_of::<i32>() as u32,
                )
            };
            if rc != 0 {
                return Err(io::Error::last_os_error());
            }
            let mut raw = [0u8; 28];
            let len = encode_addr(&addr, &mut raw);
            // SAFETY: the pointer/length describe the stack-local
            // encoded sockaddr, valid for the duration of the call.
            let rc = unsafe { bind(fd, raw.as_ptr().cast(), len) };
            if rc != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        };
        match configure() {
            Ok(()) => {
                // SAFETY: `fd` is a freshly created, successfully bound
                // UDP socket owned by nothing else; ownership transfers
                // to the returned `UdpSocket`.
                Ok(unsafe { UdpSocket::from_raw_fd(fd) })
            }
            Err(err) => {
                // SAFETY: `fd` is live and owned here; closing it once
                // on the error path is the only release.
                unsafe { close(fd) };
                Err(err)
            }
        }
    }
}

#[cfg(not(all(
    target_os = "linux",
    not(any(
        target_arch = "mips",
        target_arch = "mips64",
        target_arch = "sparc",
        target_arch = "sparc64"
    ))
)))]
mod imp {
    use std::io;
    use std::net::{SocketAddr, UdpSocket};

    pub fn set_recv_buffer(_socket: &UdpSocket, _bytes: usize) -> io::Result<usize> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "SO_RCVBUF tuning is only implemented on Linux",
        ))
    }

    pub fn recv_buffer(_socket: &UdpSocket) -> io::Result<usize> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "SO_RCVBUF inspection is only implemented on Linux",
        ))
    }

    pub fn set_send_buffer(_socket: &UdpSocket, _bytes: usize) -> io::Result<usize> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "SO_SNDBUF tuning is only implemented on Linux",
        ))
    }

    pub fn reuseport_supported() -> bool {
        false
    }

    pub fn bind_reuseport(_addr: SocketAddr) -> io::Result<UdpSocket> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "SO_REUSEPORT socket groups are only implemented on Linux",
        ))
    }
}

/// Ask the kernel for a `bytes`-sized receive buffer and return what it
/// granted (Linux doubles the request for bookkeeping and clamps it to
/// `net.core.rmem_max`).  `Unsupported` on non-Linux platforms.
fn set_recv_buffer(socket: &UdpSocket, bytes: usize) -> io::Result<usize> {
    imp::set_recv_buffer(socket, bytes)
}

/// The socket's current receive-buffer size, as the kernel reports it.
pub fn recv_buffer(socket: &UdpSocket) -> io::Result<usize> {
    imp::recv_buffer(socket)
}

/// Ask the kernel for a `bytes`-sized send buffer and return what it
/// granted (clamped to `net.core.wmem_max`).  `Unsupported` on
/// non-Linux platforms.
fn set_send_buffer(socket: &UdpSocket, bytes: usize) -> io::Result<usize> {
    imp::set_send_buffer(socket, bytes)
}

/// Grow both socket buffers: the receive queue so a blast round does not
/// spill, and the send queue so a whole batched `sendmmsg` burst (an
/// AIMD-grown round can reach 256 × 1400 bytes) submits without
/// `ENOBUFS` drops.  Best effort: failures (permissions, platform) are
/// swallowed, and the socket keeps its default queue depth.
pub fn grow_buffers(socket: &UdpSocket) {
    let _ = set_recv_buffer(socket, BLAST_RECV_BUFFER);
    let _ = set_send_buffer(socket, BLAST_RECV_BUFFER);
}

/// The receive buffer a socket grown by [`grow_buffers`] reports on
/// this host (`BLAST_RECV_BUFFER` doubled for bookkeeping and clamped
/// to `net.core.rmem_max`), read once off a probe socket; `None` where
/// it cannot be read.
pub fn grown_recv_buffer() -> Option<usize> {
    static GROWN: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();
    *GROWN.get_or_init(|| {
        let probe = UdpSocket::bind((std::net::Ipv4Addr::UNSPECIFIED, 0)).ok()?;
        set_recv_buffer(&probe, BLAST_RECV_BUFFER).ok()
    })
}

/// Whether this platform can bind `SO_REUSEPORT` socket groups.
///
/// `false` means [`bind_reuseport`] always reports `Unsupported` and a
/// sharded node should fall back to a single reactor.
pub fn reuseport_supported() -> bool {
    imp::reuseport_supported()
}

/// Bind a UDP socket with `SO_REUSEPORT` set *before* `bind(2)`.
///
/// Binding N sockets this way to the same address forms one kernel
/// group: the 4-tuple hash spreads remote endpoints across the members,
/// and every datagram from a given remote socket keeps landing on the
/// same member — which is exactly the session-affinity a sharded node
/// needs.  The first member may bind port 0; later members must reuse
/// the concrete port it was assigned (read it back via `local_addr`).
///
/// Returns `Unsupported` on platforms without `SO_REUSEPORT` groups
/// (non-Linux, plus the MIPS/SPARC sockopt-constant exceptions).
pub fn bind_reuseport(addr: SocketAddr) -> io::Result<UdpSocket> {
    imp::bind_reuseport(addr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(all(
        target_os = "linux",
        not(any(
            target_arch = "mips",
            target_arch = "mips64",
            target_arch = "sparc",
            target_arch = "sparc64"
        ))
    ))]
    fn grow_and_read_back() {
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        let before = recv_buffer(&socket).unwrap();
        assert!(before > 0);
        let granted = set_recv_buffer(&socket, BLAST_RECV_BUFFER).unwrap();
        // The kernel may clamp to rmem_max, but it never grants zero,
        // and it must not *shrink* the buffer below the old size when
        // asked for more.
        assert!(granted > 0);
        assert!(granted >= before.min(BLAST_RECV_BUFFER));
        assert_eq!(recv_buffer(&socket).unwrap(), granted);
    }

    #[test]
    #[cfg(all(
        target_os = "linux",
        not(any(
            target_arch = "mips",
            target_arch = "mips64",
            target_arch = "sparc",
            target_arch = "sparc64"
        ))
    ))]
    fn grow_and_read_back_send_buffer() {
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        let send_buffer = |s| imp::buffer(s, imp::SO_SNDBUF).unwrap();
        let before = send_buffer(&socket);
        assert!(before > 0);
        let granted = set_send_buffer(&socket, BLAST_RECV_BUFFER).unwrap();
        assert!(granted > 0);
        assert!(granted >= before.min(BLAST_RECV_BUFFER));
        assert_eq!(send_buffer(&socket), granted);
    }

    #[test]
    #[cfg(all(
        target_os = "linux",
        not(any(
            target_arch = "mips",
            target_arch = "mips64",
            target_arch = "sparc",
            target_arch = "sparc64"
        ))
    ))]
    fn reuseport_group_shares_one_port() {
        assert!(reuseport_supported());
        let first = bind_reuseport("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = first.local_addr().unwrap();
        assert_ne!(addr.port(), 0);
        // Three more members on the very same address: only possible
        // because every member set SO_REUSEPORT before bind.
        let rest: Vec<UdpSocket> = (0..3).map(|_| bind_reuseport(addr).unwrap()).collect();
        for member in &rest {
            assert_eq!(member.local_addr().unwrap(), addr);
        }
        // A plain (non-reuseport) bind to the same port must still be
        // refused — the group does not leak the port to outsiders.
        assert!(UdpSocket::bind(addr).is_err());
        // The group members behave as normal UDP sockets.
        let probe = UdpSocket::bind("127.0.0.1:0").unwrap();
        probe.send_to(b"ping", addr).unwrap();
        let mut buf = [0u8; 8];
        let mut delivered = false;
        for member in std::iter::once(&first).chain(&rest) {
            member
                .set_read_timeout(Some(std::time::Duration::from_millis(40)))
                .unwrap();
            if let Ok((n, from)) = member.recv_from(&mut buf) {
                assert_eq!(&buf[..n], b"ping");
                assert_eq!(from, probe.local_addr().unwrap());
                delivered = true;
                break;
            }
        }
        assert!(delivered, "the datagram must land on one group member");
    }

    #[test]
    #[cfg(all(
        target_os = "linux",
        not(any(
            target_arch = "mips",
            target_arch = "mips64",
            target_arch = "sparc",
            target_arch = "sparc64"
        ))
    ))]
    fn reuseport_ipv6_binds() {
        let first = bind_reuseport("[::1]:0".parse().unwrap()).unwrap();
        let addr = first.local_addr().unwrap();
        let second = bind_reuseport(addr).unwrap();
        assert_eq!(second.local_addr().unwrap(), addr);
    }

    #[test]
    #[cfg(not(all(
        target_os = "linux",
        not(any(
            target_arch = "mips",
            target_arch = "mips64",
            target_arch = "sparc",
            target_arch = "sparc64"
        ))
    )))]
    fn reuseport_reports_unsupported() {
        assert!(!reuseport_supported());
        let err = bind_reuseport("127.0.0.1:0".parse().unwrap()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
    }
}
