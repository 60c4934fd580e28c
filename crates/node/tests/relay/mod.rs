//! A bottleneck in user space: a UDP relay between one client and a
//! node that serves each direction through a drop-tail FIFO at a fixed
//! rate, so a transfer meets a slower link with a shallow queue — the
//! paper's 10 Mbit/s Ethernet — without a network device.
//!
//! The relay has one socket facing the client (the address the client
//! connects to) and one facing the node, and one thread per direction.
//! A datagram that arrives while `queue` bytes of payload already wait
//! behind the one on the wire is dropped; otherwise it leaves when the
//! link has carried everything ahead of it, each datagram taking its
//! payload plus 42 B (Ethernet, IPv4 and UDP headers) at `rate`.
//! Departure times come from the arrival times and the rate alone, so
//! what the relay delivers and drops follows the model however late
//! its thread wakes; the wake-ups decide only when a datagram is
//! actually handed on.  Its model is
//! `blast_core::harness::with_bottleneck` and the paper's wire time `T`.
//!
//! It is for ≤ 100 Mbit/s, the paper's regime: at 1 Gbit/s its threads
//! are CPU-bound on two vCPUs and the link is the relay, not the model.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use blast_udp::sockopt;

/// The Ethernet (14 B), IPv4 (20 B) and UDP (8 B) headers: what each
/// datagram costs on the wire beyond its payload.
pub const OVERHEAD: usize = 42;

/// What one direction delivered and dropped, when its last datagram
/// left, and over how long its own thread read what arrived (both from
/// the first arrival).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub delivered: u64,
    pub dropped: u64,
    pub last_departure: Option<Duration>,
    /// From the first arrival's stamp to the last's.  Arrivals are
    /// stamped when the relay's thread reads them, so a thread that
    /// reads a burst late spreads it over a longer span than it was
    /// sent in, and the model then drops less of it.
    pub arrival_span: Duration,
}

#[derive(Default)]
struct Counters {
    delivered: AtomicU64,
    dropped: AtomicU64,
    /// Nanoseconds from the first arrival to the last departure.
    last_ns: AtomicU64,
    /// Nanoseconds from the first arrival to the last.
    arrival_ns: AtomicU64,
}

impl Counters {
    fn tally(&self) -> Tally {
        let last = self.last_ns.load(Ordering::Relaxed);
        Tally {
            delivered: self.delivered.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            last_departure: (last > 0).then(|| Duration::from_nanos(last)),
            arrival_span: Duration::from_nanos(self.arrival_ns.load(Ordering::Relaxed)),
        }
    }
}

/// A running relay; dropping it stops both threads.
pub struct Relay {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    up: Arc<Counters>,
    down: Arc<Counters>,
    threads: Vec<JoinHandle<()>>,
}

/// Where a direction hands its datagrams on.
enum Egress {
    /// The node-facing socket, connected to the node.
    Node(UdpSocket),
    /// The client-facing socket, to the client last heard from.
    Client(UdpSocket, Arc<Mutex<Option<SocketAddr>>>),
}

impl Egress {
    fn send(&self, bytes: &[u8]) {
        // A refused or failed send is a lost datagram, as on a wire.
        let _ = match self {
            Egress::Node(socket) => socket.send(bytes),
            Egress::Client(socket, peer) => match *peer.lock().unwrap() {
                Some(peer) => socket.send_to(bytes, peer),
                None => Ok(0),
            },
        };
    }
}

impl Relay {
    /// Relay between a client connecting to [`addr`](Relay::addr) and
    /// `node`, each direction at `rate` bit/s behind `queue` bytes.
    pub fn start(node: SocketAddr, rate: u64, queue: usize) -> io::Result<Relay> {
        let front = UdpSocket::bind("127.0.0.1:0")?;
        let back = UdpSocket::bind("127.0.0.1:0")?;
        back.connect(node)?;
        // The relay's queue is the bottleneck, not its sockets'.
        sockopt::grow_buffers(&front);
        sockopt::grow_buffers(&back);
        let addr = front.local_addr()?;
        let client = Arc::new(Mutex::new(None));
        let stop = Arc::new(AtomicBool::new(false));
        let (up, down) = (Arc::default(), Arc::default());
        let link = Link { rate, queue };
        let threads = vec![
            link.spawn(
                front.try_clone()?,
                Some(Arc::clone(&client)),
                Egress::Node(back.try_clone()?),
                Arc::clone(&stop),
                Arc::clone(&up),
            ),
            link.spawn(
                back,
                None,
                Egress::Client(front, client),
                Arc::clone(&stop),
                Arc::clone(&down),
            ),
        ];
        Ok(Relay {
            addr,
            stop,
            up,
            down,
            threads,
        })
    }

    /// The address a client connects to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The client-to-node direction so far.
    pub fn up(&self) -> Tally {
        self.up.tally()
    }

    /// The node-to-client direction so far.
    pub fn down(&self) -> Tally {
        self.down.tally()
    }
}

impl Drop for Relay {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// One direction's link: its rate in bit/s and its queue in bytes.
#[derive(Clone, Copy)]
struct Link {
    rate: u64,
    queue: usize,
}

/// A datagram in the FIFO and when the link has finished carrying it.
struct Queued {
    bytes: Vec<u8>,
    departs: Instant,
}

/// The longest a direction's thread sleeps with nothing queued, so it
/// notices a stop.
const IDLE_POLL: Duration = Duration::from_millis(5);

/// One direction's FIFO, its link and where it hands datagrams on.
struct Direction {
    link: Link,
    egress: Egress,
    counters: Arc<Counters>,
    fifo: VecDeque<Queued>,
    /// Payload bytes in the FIFO, the datagram on the wire included.
    queued: usize,
    /// When the link finishes carrying the FIFO's last datagram.
    busy_until: Option<Instant>,
    first_arrival: Option<Instant>,
}

impl Direction {
    /// Hand on every datagram the link has finished carrying by `now`.
    fn depart(&mut self, now: Instant) {
        while self.fifo.front().is_some_and(|q| q.departs <= now) {
            let q = self.fifo.pop_front().unwrap();
            self.queued -= q.bytes.len();
            self.egress.send(&q.bytes);
            self.counters.delivered.fetch_add(1, Ordering::Relaxed);
            let since = q.departs - self.first_arrival.unwrap_or(q.departs);
            let since = since.as_nanos() as u64;
            self.counters.last_ns.store(since, Ordering::Relaxed);
        }
    }

    /// A datagram arrived at `at`: it goes on the wire at once if the
    /// link is idle, waits if the payload waiting behind the datagram
    /// on the wire leaves room for it, and is dropped otherwise.
    fn arrive(&mut self, bytes: &[u8], at: Instant) {
        let first = *self.first_arrival.get_or_insert(at);
        let span = (at - first).as_nanos() as u64;
        self.counters.arrival_ns.store(span, Ordering::Relaxed);
        self.depart(at);
        // Every datagram that left by `at` is gone, so the head is the
        // one on the wire.
        if let Some(on_wire) = self.fifo.front() {
            if self.queued - on_wire.bytes.len() + bytes.len() > self.link.queue {
                self.counters.dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        let starts = self.busy_until.map_or(at, |t| t.max(at));
        let departs = starts + self.link.service(bytes.len());
        self.busy_until = Some(departs);
        self.queued += bytes.len();
        self.fifo.push_back(Queued {
            bytes: bytes.to_vec(),
            departs,
        });
    }
}

impl Link {
    /// How long the link takes to carry a datagram of `len` bytes.
    fn service(self, len: usize) -> Duration {
        let bits = 8 * (len + OVERHEAD) as u64;
        Duration::from_nanos(bits * 1_000_000_000 / self.rate)
    }

    /// Run one direction on its own thread: read `ingress`, noting each
    /// datagram's source in `sender` (the client-facing side), until
    /// `stop`.
    fn spawn(
        self,
        ingress: UdpSocket,
        sender: Option<Arc<Mutex<Option<SocketAddr>>>>,
        egress: Egress,
        stop: Arc<AtomicBool>,
        counters: Arc<Counters>,
    ) -> JoinHandle<()> {
        let mut dir = Direction {
            link: self,
            egress,
            counters,
            fifo: VecDeque::new(),
            queued: 0,
            busy_until: None,
            first_arrival: None,
        };
        std::thread::spawn(move || {
            let mut buf = vec![0u8; 65_536];
            while !stop.load(Ordering::Relaxed) {
                let now = Instant::now();
                dir.depart(now);
                let wait = dir.fifo.front().map_or(IDLE_POLL, |q| q.departs - now);
                let wait = wait.max(Duration::from_micros(1));
                ingress.set_read_timeout(Some(wait)).unwrap();
                // A timeout, or ECONNREFUSED from a closed peer: nothing
                // arrived.
                let Ok((len, from)) = ingress.recv_from(&mut buf) else {
                    continue;
                };
                if let Some(sender) = &sender {
                    *sender.lock().unwrap() = Some(from);
                }
                dir.arrive(&buf[..len], Instant::now());
            }
        })
    }
}
