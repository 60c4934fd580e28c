//! The benchmark's seam under [`blast_node::Client`]: a channel wrapper
//! that counts every datagram and byte the client puts on or takes off
//! the wire and, in the traced run, timestamps every call.
//!
//! `Client` owns its channel and hands nothing back, so both wrappers
//! share their state with the benchmark through `Rc<RefCell<_>>` (the
//! client and the benchmark live on one thread).

use std::cell::RefCell;
use std::io;
use std::rc::Rc;
use std::time::{Duration, Instant};

use blast_udp::channel::{Channel, UdpChannel};

/// A `UdpChannel` the benchmark can still reach (for
/// [`UdpChannel::io_stats`]) after a `Client` has swallowed it.
pub struct SharedUdp(pub Rc<RefCell<UdpChannel>>);

impl Channel for SharedUdp {
    fn send(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.borrow_mut().send(buf)
    }

    fn recv_timeout(&mut self, buf: &mut [u8], timeout: Duration) -> io::Result<Option<usize>> {
        self.0.borrow_mut().recv_timeout(buf, timeout)
    }

    fn stage(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.borrow_mut().stage(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.borrow_mut().flush()
    }
}

/// Which channel method a [`Call`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    Send,
    Stage,
    Flush,
    Recv,
}

impl CallKind {
    pub fn name(self) -> &'static str {
        match self {
            CallKind::Send => "chan.send",
            CallKind::Stage => "chan.stage",
            CallKind::Flush => "chan.flush",
            CallKind::Recv => "chan.recv_timeout",
        }
    }
}

/// One timestamped channel call (traced run only).  Times are
/// nanoseconds since the meter's epoch; `bytes` is the framed datagram
/// length, 0 for a flush or a receive that timed out.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub kind: CallKind,
    pub start_ns: u64,
    pub end_ns: u64,
    pub bytes: u32,
}

/// What the wrapper has seen so far.  Counted above any fault injector,
/// so a datagram the injector drops still counts as put on the wire —
/// the sender paid for it.
#[derive(Debug)]
pub struct Meter {
    pub epoch: Instant,
    pub datagrams_sent: u64,
    pub bytes_sent: u64,
    pub datagrams_received: u64,
    pub bytes_received: u64,
    /// `Some` turns timestamping on.
    pub calls: Option<Vec<Call>>,
}

impl Meter {
    pub fn new() -> Rc<RefCell<Meter>> {
        Rc::new(RefCell::new(Meter {
            epoch: Instant::now(),
            datagrams_sent: 0,
            bytes_sent: 0,
            datagrams_received: 0,
            bytes_received: 0,
            calls: None,
        }))
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// The counting (and optionally timestamping) channel.  The inner
/// channel is boxed so clean and fault-injected workloads share one
/// `Client` type.
pub struct TracedChannel {
    inner: Box<dyn Channel>,
    meter: Rc<RefCell<Meter>>,
}

impl TracedChannel {
    pub fn new(inner: Box<dyn Channel>, meter: Rc<RefCell<Meter>>) -> Self {
        TracedChannel { inner, meter }
    }

    /// Run `call` on the inner channel, timestamped when tracing is on,
    /// and account its outcome.
    fn metered<T>(
        &mut self,
        kind: CallKind,
        call: impl FnOnce(&mut dyn Channel) -> io::Result<T>,
        bytes_of: impl FnOnce(&T) -> usize,
    ) -> io::Result<T> {
        let start = {
            let m = self.meter.borrow();
            m.calls.is_some().then(|| m.now_ns())
        };
        let result = call(self.inner.as_mut());
        let mut m = self.meter.borrow_mut();
        let bytes = result.as_ref().map(bytes_of).unwrap_or(0);
        match kind {
            CallKind::Send | CallKind::Stage => {
                m.datagrams_sent += 1;
                m.bytes_sent += bytes as u64;
            }
            CallKind::Recv if bytes > 0 => {
                m.datagrams_received += 1;
                m.bytes_received += bytes as u64;
            }
            _ => {}
        }
        if let Some(start_ns) = start {
            let end_ns = m.now_ns();
            if let Some(calls) = m.calls.as_mut() {
                calls.push(Call {
                    kind,
                    start_ns,
                    end_ns,
                    bytes: bytes as u32,
                });
            }
        }
        result
    }
}

impl Channel for TracedChannel {
    fn send(&mut self, buf: &[u8]) -> io::Result<()> {
        self.metered(CallKind::Send, |c| c.send(buf), |()| buf.len())
    }

    fn recv_timeout(&mut self, buf: &mut [u8], timeout: Duration) -> io::Result<Option<usize>> {
        self.metered(
            CallKind::Recv,
            |c| c.recv_timeout(buf, timeout),
            |got| got.unwrap_or(0),
        )
    }

    fn stage(&mut self, buf: &[u8]) -> io::Result<()> {
        self.metered(CallKind::Stage, |c| c.stage(buf), |()| buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.metered(CallKind::Flush, |c| c.flush(), |()| 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_both_directions_and_timestamps_only_when_asked() {
        let (a, mut b) = UdpChannel::pair().expect("loopback pair");
        let meter = Meter::new();
        let mut ch =
            TracedChannel::new(Box::new(SharedUdp(Rc::new(RefCell::new(a)))), meter.clone());
        ch.stage(b"12345").unwrap();
        ch.flush().unwrap();
        assert!(meter.borrow().calls.is_none());

        meter.borrow_mut().calls = Some(Vec::new());
        ch.send(b"678").unwrap();
        let mut buf = [0u8; 16];
        for want in [5, 3] {
            let n = b.recv_timeout(&mut buf, Duration::from_secs(1)).unwrap();
            assert_eq!(n, Some(want));
        }
        b.send(b"pong").unwrap();
        let n = ch.recv_timeout(&mut buf, Duration::from_secs(1)).unwrap();
        assert_eq!(n, Some(4));
        assert_eq!(
            ch.recv_timeout(&mut buf, Duration::from_millis(1)).unwrap(),
            None
        );

        let m = meter.borrow();
        assert_eq!((m.datagrams_sent, m.bytes_sent), (2, 8));
        assert_eq!((m.datagrams_received, m.bytes_received), (1, 4));
        let calls = m.calls.as_ref().unwrap();
        let kinds: Vec<CallKind> = calls.iter().map(|c| c.kind).collect();
        assert_eq!(kinds, [CallKind::Send, CallKind::Recv, CallKind::Recv]);
        assert_eq!(calls[1].bytes, 4);
        assert_eq!(calls[2].bytes, 0);
        assert!(calls.iter().all(|c| c.end_ns >= c.start_ns));
    }
}
