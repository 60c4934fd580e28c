//! The initiator's leg: one transfer, from request to completion.
//!
//! The side that opens a transfer asks, waits for the echo that says
//! the responder's buffer is allocated (the paper's premise), then runs
//! the data phase.  [`Outbound`] is that sequence as one sans-I/O state
//! machine, called like an engine through [`step`](Outbound::step): it
//! re-sends the request on its own [`RETRY`] timer, first after the
//! path's carried RTO and then backing off to the retry interval
//! ([`Backoff`]); the echo makes it adopt the echoed parameters and
//! build its engine — for a push, granted what the echo grants
//! ([`crate::grant`]) — seeded with what the path carried; from then on it
//! hands the engine everything but handshake traffic and other
//! transfers' datagrams (a receiver places data by sequence number
//! alone, so a previous transfer's stale tail must never reach it).
//! `blast_node::Client` runs a leg to completion in one blocking loop
//! over its channel ([`run`](Outbound::run)); a node runs each
//! third-party copy's leg inside its reactor tick.

use std::io::{self, ErrorKind};
use std::time::{Duration, Instant};

use blast_core::api::{CompletionInfo, EngineStats, TimerToken};
use blast_core::blast::{BlastReceiver, BlastSender, FinishedReceiver};
use blast_core::txdata::TxBytes;
use blast_core::{Engine, PacingConfig, ProtocolConfig};
use blast_telemetry::Recorder;
use blast_wire::header::PacketKind;
use blast_wire::packet::Datagram;

use crate::channel::Channel;
use crate::handshake::{Backoff, Request, MAX_NAME_LEN};
use crate::path::{self, Carried};
use crate::peer::TransferReport;
use crate::pump::{self, Input};
use crate::timers::TimerWheel;

/// The leg's own timer, to re-send the request: a caller sharing one
/// wheel keeps its tokens clear of it (the engines' are far below).
pub const RETRY: TimerToken = TimerToken(u64::MAX - 2);

/// What the echo turns the leg into.
pub(crate) enum Then<'a> {
    /// A sender of this blob (a push).
    Send(TxBytes<'a>),
    /// A receiver of the announced length, refused above this (a pull).
    Receive(usize),
    /// Nothing: the leg completes at the echo ([`crate::handshake::initiate`]).
    Stop,
}

/// One initiated transfer: the request, its retries, the echo, and the
/// engine the echo promotes it into.  See the [module docs](self).
pub struct Outbound<'a> {
    id: u32,
    cfg: ProtocolConfig,
    /// The request datagram, re-sent verbatim until echoed.
    request: Vec<u8>,
    /// When to re-send it.
    pub(crate) retry: Backoff,
    then: Then<'a>,
    echoed: Option<Request>,
    /// The promoting call's instant, on its clock: where the data phase
    /// starts.
    echoed_at: Duration,
    engine: Option<Box<dyn Engine + 'a>>,
    /// Flight recorder handed to the engine the echo builds.
    pub recorder: Option<Recorder>,
    /// What the caller's [`PathTable`](crate::path::PathTable) carried
    /// over from the peer's last transfer ([`carry`](Outbound::carry)).
    carried: Option<Carried>,
    /// Request datagrams transmitted: the first and every retry.
    pub requests_sent: u64,
}

impl<'a> Outbound<'a> {
    /// Push `blob`, to be stored by the responder as `name`, with the
    /// transfer parameters of `cfg`.  `InvalidInput` for a name no
    /// responder could decode.
    ///
    /// The sender reads `blob` in place, in whichever [`TxBytes`] form
    /// it comes: a borrowed slice stays borrowed until the leg is
    /// dropped (a client's push, run while its caller waits), and a
    /// node's copy leg, which outlives the call that opens it, passes
    /// the store's `Arc`.
    pub fn push(
        id: u32,
        name: &str,
        blob: impl Into<TxBytes<'a>>,
        cfg: &ProtocolConfig,
    ) -> io::Result<Self> {
        let blob = blob.into();
        let request = Request::push(blob.len(), cfg, false).with_name(name);
        Self::new(id, &request, Then::Send(blob), cfg)
    }

    /// Pull what `req` asks for — [`Request::pull`], or one built by
    /// hand (say, with a multiblast chunk) — refusing an echo that
    /// announces more than `max` bytes.
    pub fn pull(id: u32, req: &Request, cfg: &ProtocolConfig, max: usize) -> io::Result<Self> {
        Self::new(id, req, Then::Receive(max), cfg)
    }

    pub(crate) fn new(
        id: u32,
        req: &Request,
        then: Then<'a>,
        cfg: &ProtocolConfig,
    ) -> io::Result<Self> {
        // Caught here, a name too long to encode is an immediate error
        // instead of a request nobody can decode, retried until timeout.
        if req.name.len() > MAX_NAME_LEN {
            let what = format!("blob name exceeds {MAX_NAME_LEN} bytes");
            return Err(io::Error::new(ErrorKind::InvalidInput, what));
        }
        Ok(Outbound {
            id,
            cfg: cfg.clone(),
            request: req.build_datagram(id),
            retry: Backoff::new(cfg, None),
            then,
            echoed: None,
            echoed_at: Duration::ZERO,
            engine: None,
            recorder: None,
            carried: None,
            requests_sent: 0,
        })
    }

    /// Start from what a [`PathTable`](crate::path::PathTable) carried
    /// over from the peer's last transfer, before the first
    /// [`step`](Outbound::step): the request re-sends start at its RTO
    /// and back off to the retry interval ([`Backoff`]), and the engine
    /// the echo builds starts at its burst, within the echo's grant,
    /// and its round-trip estimate ([`path::seed`]).  `None` starts at
    /// the grant (or the configured burst) and the configured timeout.
    pub fn carry(&mut self, carried: Option<Carried>) {
        self.retry = Backoff::new(&self.cfg, carried.and_then(|c| c.rtt));
        self.carried = carried;
    }

    /// The responder's echo, once it has arrived (for a pull, its `len`
    /// is the size announcement).
    pub fn echoed(&self) -> Option<&Request> {
        self.echoed.as_ref()
    }

    /// The engine the echo built, while the leg holds it.
    pub fn engine(&self) -> Option<&(dyn Engine + 'a)> {
        self.engine.as_deref()
    }

    /// Take the received bytes of a pull that completed, and the
    /// [`FinishedReceiver`] that re-acknowledges its tail in the
    /// engine's place; the engine goes.  `None` for a push, or before
    /// completion.
    pub fn retire(&mut self) -> Option<(Vec<u8>, FinishedReceiver)> {
        self.engine.take()?.retire()
    }

    /// One call, like [`pump::step`]: feed the leg `input` at the
    /// caller's instant `now`, on a clock that runs from `epoch`, hand
    /// each datagram it transmits to
    /// `transmit` (flushing is the caller's), arm and cancel its timers
    /// on `timers` under `key(token)` (the engine's pace timer counted
    /// from `now`), and return the completion report if this call
    /// finished the transfer.
    ///
    /// Errors: `NotFound` when the responder cancels before echoing,
    /// `InvalidData` when a pull's echo announces more than the bound,
    /// and whatever `transmit` returns.
    pub fn step<K, F, T>(
        &mut self,
        epoch: Instant,
        now: Instant,
        input: Input<'_>,
        timers: &mut TimerWheel<K>,
        key: F,
        mut transmit: T,
    ) -> io::Result<Option<CompletionInfo>>
    where
        K: Copy + Ord,
        F: Fn(TimerToken) -> K,
        T: FnMut(&[u8]) -> io::Result<()>,
    {
        if let Some(engine) = self.engine.as_deref_mut() {
            return match input {
                Input::Datagram(d) if d.transfer_id != self.id || d.kind == PacketKind::Request => {
                    Ok(None)
                }
                input => pump::step(engine, epoch, now, input, timers, key, transmit),
            };
        }
        let echoed = match input {
            _ if self.echoed.is_some() => return Ok(None),
            Input::Start | Input::Timer(_) => {
                transmit(&self.request)?;
                self.requests_sent += 1;
                timers.arm(key(RETRY), self.retry.next_wait());
                return Ok(None);
            }
            Input::Datagram(d) if d.transfer_id != self.id => return Ok(None),
            Input::Datagram(d) => match (d.kind, Request::parse(d)) {
                (PacketKind::Cancel, _) => {
                    let refusal = "responder cancelled the transfer";
                    return Err(io::Error::new(ErrorKind::NotFound, refusal));
                }
                (PacketKind::Request, Some(echoed)) => echoed,
                // Data racing ahead of a lost echo: the responder's
                // retransmission recovers it once the engine runs.
                _ => return Ok(None),
            },
        };
        // The echo: stop asking, build the engine it describes, start it.
        timers.cancel(key(RETRY));
        let mut cfg = self.cfg.clone();
        echoed.apply_to(&mut cfg);
        let (len, grant) = (echoed.len, echoed.grant);
        self.echoed = Some(echoed);
        self.echoed_at = now.saturating_duration_since(epoch);
        let mut engine: Box<dyn Engine + 'a> = match std::mem::replace(&mut self.then, Then::Stop) {
            Then::Send(blob) => {
                let mut sender = BlastSender::new(self.id, blob, &cfg);
                // The echo is the receiver's side of a push: its grant
                // sets the burst and the tail timer.
                if let (Some(grant), Some(control)) = (grant, sender.control_mut()) {
                    control.grant(grant);
                }
                Box::new(sender)
            }
            // The echo is the size announcement, and the receive buffer
            // an eager allocation: bound it before trusting a 24-byte
            // datagram with a terabyte.
            Then::Receive(max) if len > max => {
                let what = format!(
                    "pull refused: announced length {len} exceeds the {max}-byte transfer bound"
                );
                return Err(io::Error::new(ErrorKind::InvalidData, what));
            }
            Then::Receive(_) => Box::new(BlastReceiver::new(self.id, len, &cfg)),
            Then::Stop => return Ok(Some(CompletionInfo::success(len, EngineStats::default()))),
        };
        if let Some(rec) = &self.recorder {
            engine.set_recorder(rec.clone());
        }
        path::seed(engine.as_mut(), self.carried);
        let engine = self.engine.insert(engine);
        pump::step(
            engine.as_mut(),
            epoch,
            now,
            Input::Start,
            timers,
            key,
            transmit,
        )
    }

    /// Run the leg over `channel` until it completes, blocking, or until
    /// `limit` — one bound on the whole transfer, handshake and data
    /// phase alike — passes (`TimedOut`), receiving into `buf` (at least
    /// [`MAX_DATAGRAM`](crate::channel::MAX_DATAGRAM) bytes, so a caller
    /// running one leg after another allocates it once).  A call that
    /// transmits stages what it transmits and flushes once; one that
    /// transmits nothing flushes nothing.  Between calls the loop waits
    /// for a datagram until the next timer is due, within
    /// [`PacingConfig::MIN_WAIT`] and 50 ms.
    ///
    /// The loop reads the clock once per received datagram, the read
    /// its call runs at, and hands that instant on to the next wait
    /// ([`Channel::recv_timeout_from`]) when the call staged nothing; a
    /// call that staged datagrams reads it afresh, since framing a
    /// one-burst round of 2 979 datagrams takes ≈ 2 ms.
    ///
    /// The report's `elapsed` and receive counts run from the echo on
    /// (malformed includes the channel's
    /// [`discarded`](Channel::discarded) frames); its sent count
    /// includes the requests.
    pub fn run<C: Channel>(
        &mut self,
        channel: &mut C,
        buf: &mut [u8],
        limit: Duration,
    ) -> io::Result<TransferReport> {
        let started = Instant::now();
        let give_up = started + limit;
        // With a recorder, the engine's clock runs from its epoch, so
        // engine and backend events land on one timeline.
        let clock = self.recorder.as_ref().map_or(started, Recorder::epoch);
        let mut timers = TimerWheel::new();
        let (mut sent, mut received, mut malformed) = (0, 0, 0);
        let mut at_echo = None; // (received, malformed) then
        let mut start = true;
        let mut now = started;
        let info = loop {
            if now >= give_up {
                return Err(io::Error::new(ErrorKind::TimedOut, "transfer timed out"));
            }
            let dgram;
            let input = if std::mem::take(&mut start) {
                Input::Start
            } else if let Some(token) = timers.pop_due(now) {
                Input::Timer(token)
            } else {
                let wait = timers
                    .next_deadline()
                    .map_or(Duration::from_millis(20), |when| {
                        when.saturating_duration_since(now)
                    })
                    .clamp(PacingConfig::MIN_WAIT, Duration::from_millis(50))
                    .min(give_up - now);
                let got = channel.recv_timeout_from(buf, wait, now)?;
                now = Instant::now();
                let Some(n) = got else {
                    continue;
                };
                received += 1;
                // The checksum turned corruption into loss.
                let Ok(parsed) = Datagram::parse(&buf[..n]) else {
                    malformed += 1;
                    continue;
                };
                dgram = parsed;
                Input::Datagram(&dgram)
            };
            let staged = sent;
            let transmit = |bytes: &[u8]| {
                sent += 1;
                channel.stage(bytes)
            };
            let done = self.step(clock, now, input, &mut timers, |token| token, transmit)?;
            if sent > staged {
                channel.flush()?;
                now = Instant::now();
            }
            if at_echo.is_none() && self.echoed.is_some() {
                at_echo = Some((received, malformed + channel.discarded()));
            }
            if let Some(info) = done {
                break info;
            }
        };
        info.result
            .map_err(|e| io::Error::other(format!("transfer failed: {e}")))?;
        let (received_before, malformed_before) = at_echo.unwrap_or_default();
        Ok(TransferReport {
            data: Vec::new(),
            elapsed: clock.elapsed().saturating_sub(self.echoed_at),
            stats: info.stats,
            pacing: self.engine.as_ref().and_then(|e| e.pacing_snapshot()),
            datagrams_sent: sent,
            datagrams_received: received - received_before,
            malformed: malformed + channel.discarded() - malformed_before,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::MAX_DATAGRAM;
    use crate::handshake::retry_interval;
    use blast_core::control::{PROBE_FLOOR, ROUND0_FLOOR};
    use blast_wire::packet::DatagramBuilder;
    use blast_wire::Grant;
    use std::sync::Arc;

    const ID: u32 = 2;
    const PAYLOAD: usize = 1024;

    /// A leg driven by hand: datagrams fed in from a script, timers read
    /// off the wheel and fired at their deadlines (never waited for),
    /// and every transmission kept in order.
    struct Script<'a> {
        leg: Outbound<'a>,
        timers: TimerWheel<TimerToken>,
        wire: Vec<Vec<u8>>,
    }

    impl<'a> Script<'a> {
        fn new(leg: Outbound<'a>) -> Self {
            let mut script = Script {
                leg,
                timers: TimerWheel::new(),
                wire: Vec::new(),
            };
            script.feed(Input::Start).unwrap();
            script
        }

        fn feed(&mut self, input: Input<'_>) -> io::Result<Option<CompletionInfo>> {
            let (wire, now) = (&mut self.wire, Instant::now());
            self.leg.step(
                now,
                now,
                input,
                &mut self.timers,
                |t| t,
                |bytes| {
                    wire.push(bytes.to_vec());
                    Ok(())
                },
            )
        }

        fn hear(&mut self, datagram: &[u8]) -> io::Result<Option<CompletionInfo>> {
            self.feed(Input::Datagram(&Datagram::parse(datagram).unwrap()))
        }

        fn stats(&self) -> EngineStats {
            self.leg.engine().expect("promoted").stats()
        }

        /// The kinds of what went out after the first `skip` datagrams.
        fn kinds_after(&self, skip: usize) -> Vec<PacketKind> {
            let parse = |d: &Vec<u8>| Datagram::parse(d).unwrap().kind;
            self.wire[skip..].iter().map(parse).collect()
        }
    }

    fn cfg() -> ProtocolConfig {
        let mut cfg = ProtocolConfig::default();
        cfg.timeout = Duration::from_millis(15).into();
        cfg
    }

    fn pull_leg(max_len: usize) -> Outbound<'static> {
        let cfg = cfg();
        Outbound::pull(ID, &Request::pull("blob", &cfg), &cfg, max_len).unwrap()
    }

    /// The responder's echo of `leg`'s first request, announcing `len`.
    fn echo(script: &Script, len: usize) -> Vec<u8> {
        let request = Datagram::parse(&script.wire[0]).unwrap();
        let mut echo = Request::decode(request.payload).unwrap();
        echo.len = len;
        echo.build_datagram(request.transfer_id)
    }

    /// Packet `seq` of a `packets`-packet transfer `id`, every byte `fill`.
    fn data(id: u32, seq: u32, packets: u32, fill: u8) -> Vec<u8> {
        let mut buf = vec![0u8; 2048];
        let n = DatagramBuilder::new(id)
            .build_data(
                &mut buf,
                seq,
                packets,
                seq * PAYLOAD as u32,
                &[fill; PAYLOAD],
                0,
                seq + 1 == packets,
            )
            .unwrap();
        buf.truncate(n);
        buf
    }

    fn cancel(id: u32) -> Vec<u8> {
        let mut buf = vec![0u8; blast_wire::HEADER_LEN];
        let n = DatagramBuilder::new(id).build_cancel(&mut buf).unwrap();
        buf.truncate(n);
        buf
    }

    /// A channel played from a script for [`Outbound::run`]: each
    /// receive pops `incoming` (a timeout once it is empty), and every
    /// call on the sending side is counted.
    #[derive(Default)]
    struct Counted {
        incoming: std::collections::VecDeque<Vec<u8>>,
        staged: Vec<Vec<u8>>,
        flushes: usize,
        receives: usize,
    }

    impl Channel for Counted {
        fn send(&mut self, _: &[u8]) -> io::Result<()> {
            unreachable!("a leg stages what it sends")
        }

        fn stage(&mut self, buf: &[u8]) -> io::Result<()> {
            self.staged.push(buf.to_vec());
            Ok(())
        }

        fn flush(&mut self) -> io::Result<()> {
            self.flushes += 1;
            Ok(())
        }

        fn recv_timeout(&mut self, buf: &mut [u8], _: Duration) -> io::Result<Option<usize>> {
            self.receives += 1;
            Ok(self.incoming.pop_front().map(|d| {
                buf[..d.len()].copy_from_slice(&d);
                d.len()
            }))
        }
    }

    /// A pull's receive loop flushes after the calls that sent
    /// something — the request, the NACK for a hole, the final ack —
    /// and after no other: eight data packets, the echo and a
    /// retransmission cost one receive each and no flush.
    #[test]
    fn a_pull_flushes_once_per_call_that_sent_not_per_datagram() {
        let cfg = cfg();
        let request = Request::pull("blob", &cfg);
        let mut leg = Outbound::pull(ID, &request, &cfg, 1 << 20).unwrap();
        let mut channel = Counted::default();
        let echo = Request {
            len: 8 * PAYLOAD,
            ..request
        };
        channel.incoming.push_back(echo.build_datagram(ID));
        // Round 0 loses packet 3; round 1 re-sends it as its tail.
        for seq in (0..8).filter(|&seq| seq != 3) {
            channel.incoming.push_back(data(ID, seq, 8, seq as u8));
        }
        let mut resent = vec![0u8; 2048];
        let n = DatagramBuilder::new(ID)
            .build_data(
                &mut resent,
                3,
                8,
                3 * PAYLOAD as u32,
                &[3; PAYLOAD],
                1,
                true,
            )
            .unwrap();
        channel.incoming.push_back(resent[..n].to_vec());

        let mut buf = vec![0u8; MAX_DATAGRAM];
        let report = leg
            .run(&mut channel, &mut buf, Duration::from_secs(5))
            .unwrap();
        assert_eq!(report.stats.nacks_sent, 1, "the hole was reported");
        let kinds: Vec<_> = channel
            .staged
            .iter()
            .map(|d| Datagram::parse(d).unwrap().kind)
            .collect();
        assert_eq!(
            kinds,
            [PacketKind::Request, PacketKind::Ack, PacketKind::Ack]
        );
        assert_eq!(report.datagrams_sent, 3);
        assert_eq!(channel.flushes, 3, "one per call that sent");
        assert_eq!(channel.receives, 9, "the echo and eight data packets");
        let (bytes, _) = leg.retire().expect("complete");
        let expected: Vec<u8> = (0..8u8).flat_map(|seq| [seq; PAYLOAD]).collect();
        assert_eq!(bytes, expected);
    }

    #[test]
    fn request_is_resent_at_each_retry_interval_until_the_echo() {
        let retry = retry_interval(&cfg());
        // When each request went out: between these two instants.
        let mut armed = (Instant::now(), Instant::now());
        let mut script = Script::new(pull_leg(1 << 20));
        armed.1 = Instant::now();
        for resends in 1..=3 {
            let due = script.timers.next_deadline().expect("the retry is armed");
            assert!(due >= armed.0 + retry && due <= armed.1 + retry);
            assert_eq!(script.timers.pop_due(due - Duration::from_micros(1)), None);
            let token = script.timers.pop_due(due).unwrap();
            assert_eq!(token, RETRY);
            armed.0 = Instant::now();
            script.feed(Input::Timer(token)).unwrap();
            armed.1 = Instant::now();
            assert_eq!(script.wire.len(), 1 + resends, "one request per interval");
            assert!(script.wire.iter().all(|d| *d == script.wire[0]));
            assert_eq!(script.leg.requests_sent, 1 + resends as u64);
        }
        script.hear(&echo(&script, 3 * PAYLOAD)).unwrap();
        assert!(script.timers.is_empty(), "the echo cancels the retry");
        assert_eq!(script.wire.len(), 4, "a receiver sends nothing at start");
    }

    #[test]
    fn a_push_echo_starts_round_zero() {
        let blob: Arc<[u8]> = vec![5u8; 3 * PAYLOAD].into();
        let mut script = Script::new(Outbound::push(ID, "blob", blob, &cfg()).unwrap());
        assert!(script.leg.engine().is_none());
        script.hear(&echo(&script, 3 * PAYLOAD)).unwrap();
        assert_eq!(script.kinds_after(1), [PacketKind::Data; 3], "round 0");
        assert_eq!(script.stats().data_packets_sent, 3);
        assert_eq!(script.leg.echoed().unwrap().len, 3 * PAYLOAD);
    }

    #[test]
    fn a_push_of_a_borrowed_slice_sends_exactly_the_callers_bytes() {
        let blob: Vec<u8> = (0..3 * PAYLOAD - 100).map(|i| (i % 251) as u8).collect();
        let mut script = Script::new(Outbound::push(ID, "blob", &blob[..], &cfg()).unwrap());
        assert_eq!(script.wire.len(), 1, "only the request before the echo");
        script.hear(&echo(&script, blob.len())).unwrap();
        let mut sent = Vec::new();
        for (seq, datagram) in script.wire[1..].iter().enumerate() {
            let d = Datagram::parse(datagram).unwrap();
            assert_eq!((d.kind, d.seq), (PacketKind::Data, seq as u32));
            sent.extend_from_slice(d.payload);
        }
        assert_eq!(sent, blob);
    }

    /// The echo's grant sets the sender: a queue smaller than the
    /// transfer is its first burst, drawn from buffers warmed before the
    /// burst; one that holds the transfer sends it all at once, arms no
    /// pace timer, and waits for the tail's answer the RTO plus the
    /// receiver's time to drain the burst (`in flight × Cr`).
    #[test]
    fn a_push_echo_builds_a_sender_that_bursts_the_granted_queue() {
        let cfg = ProtocolConfig::lan();
        let blob: Arc<[u8]> = vec![5u8; 300 * PAYLOAD].into();
        let granted = |queue| {
            let mut script = Script::new(Outbound::push(ID, "blob", blob.clone(), &cfg).unwrap());
            let mut echo =
                Request::decode(Datagram::parse(&script.wire[0]).unwrap().payload).unwrap();
            echo.grant = Some(Grant {
                queue,
                drain_ns: 2_000,
            });
            let before = Instant::now();
            script.hear(&echo.build_datagram(ID)).unwrap();
            (script, before, Instant::now())
        };
        let (script, ..) = granted(128);
        let pacing = script.leg.engine().unwrap().pacing_snapshot().unwrap();
        assert_eq!((pacing.initial_burst, pacing.burst), (128, 128));
        assert_eq!(script.kinds_after(1), [PacketKind::Data; 128], "one burst");
        assert_eq!(cfg.pool.fresh_allocations(), 0, "warmed before it");

        let (mut script, before, after) = granted(4096);
        assert_eq!(script.kinds_after(1), [PacketKind::Data; 300], "all of it");
        let tail = cfg.timeout.initial() + 300 * Duration::from_micros(2);
        let due = script.timers.next_deadline().expect("the tail's timer");
        assert!(due >= before + tail && due <= after + tail);
        assert_eq!(script.timers.pop_due(due), Some(TimerToken(0)));
        assert!(script.timers.is_empty(), "no pace timer");
    }

    /// A carried burst starts the sender within the echo's grant: one
    /// that loss trimmed below the grant starts it there, one above the
    /// grant at the grant.
    #[test]
    fn a_push_echo_builds_a_sender_seeded_with_the_carried_burst() {
        let cfg = ProtocolConfig::lan();
        let blob: Arc<[u8]> = vec![5u8; 300 * PAYLOAD].into();
        for (burst, queue, start) in [(128, 4096, 128), (1024, 200, 200)] {
            let mut leg = Outbound::push(ID, "blob", blob.clone(), &cfg).unwrap();
            leg.carry(Some(Carried { burst, rtt: None }));
            let mut script = Script::new(leg);
            let mut echo =
                Request::decode(Datagram::parse(&script.wire[0]).unwrap().payload).unwrap();
            echo.grant = Some(Grant { queue, drain_ns: 0 });
            script.hear(&echo.build_datagram(ID)).unwrap();
            let pacing = script.leg.engine().unwrap().pacing_snapshot().unwrap();
            assert_eq!(
                pacing.initial_burst, start,
                "carried {burst}, granted {queue}"
            );
            let burst = vec![PacketKind::Data; start as usize];
            assert_eq!(script.kinds_after(1), burst, "one burst");
        }
        assert_eq!(cfg.pool.fresh_allocations(), 0, "warmed before it");
    }

    /// A leg that carries a loopback estimate re-sends its request at the
    /// carried RTO (the 2 ms `min` clamp, no round-0 floor), doubles the
    /// wait up to the retry interval and stays there, so a silent
    /// responder hears at most four more requests than at the interval
    /// alone.  The echo's sender then arms its round-0 retransmission
    /// timer at the floor, not at the 25 ms `initial`.
    #[test]
    fn a_carried_estimate_starts_the_retries_and_round_zero_at_the_probe_timeout() {
        let cfg = ProtocolConfig::lan();
        let retry = retry_interval(&cfg);
        let rtt = (Duration::from_micros(200), Duration::from_micros(50));
        let blob: Arc<[u8]> = vec![5u8; 3 * PAYLOAD].into();
        let mut leg = Outbound::push(ID, "blob", blob, &cfg).unwrap();
        leg.carry(Some(Carried {
            burst: 64,
            rtt: Some(rtt),
        }));
        // Twice the carried srtt, raised to the probe floor, doubling up
        // to the retry interval.
        let us = Duration::from_micros;
        assert_eq!(PROBE_FLOOR, us(1_000));
        let expected = [1_000, 2_000, 4_000, 8_000, 16_000, 25_000, 25_000, 25_000].map(us);
        assert_eq!(*expected.last().unwrap(), retry);
        let mut armed = (Instant::now(), Instant::now());
        let mut script = Script::new(leg);
        armed.1 = Instant::now();
        // When each request went out, counted in the waits before it.
        let mut sent_at = Duration::ZERO;
        for (resends, wait) in expected.into_iter().enumerate() {
            let due = script.timers.next_deadline().expect("the retry is armed");
            assert!(due >= armed.0 + wait && due <= armed.1 + wait, "{wait:?}");
            let token = script.timers.pop_due(due).unwrap();
            assert_eq!(token, RETRY);
            armed.0 = Instant::now();
            script.feed(Input::Timer(token)).unwrap();
            armed.1 = Instant::now();
            sent_at += wait;
            let requests = script.leg.requests_sent;
            assert_eq!(requests, resends as u64 + 2);
            // A leg re-sending every retry interval from the start had
            // sent this many by then.
            let parents = 1 + (sent_at.as_nanos() / retry.as_nanos()) as u64;
            assert!(requests <= parents + 5, "{requests} vs {parents}");
        }
        // The node's echo grants a queue and a 1 µs drain per datagram.
        let mut granted = Request::parse(&Datagram::parse(&echo(&script, 3 * PAYLOAD)).unwrap())
            .expect("an echo");
        granted.grant = Some(Grant {
            queue: 64,
            drain_ns: 1_000,
        });
        let before = Instant::now();
        script.hear(&granted.build_datagram(ID)).unwrap();
        let after = Instant::now();
        assert_eq!(script.kinds_after(9), [PacketKind::Data; 3], "round 0");
        let control = script.leg.engine().unwrap().control().unwrap();
        assert_eq!(control.rtt_estimate(), Some(rtt), "seeded, not sampled");
        assert_eq!(control.rto(), ROUND0_FLOOR);
        // The tail's timer first expires at the probe timeout: twice the
        // srtt plus the three packets' drain, 403 µs, raised to the floor.
        let pto = PROBE_FLOOR;
        let due = script.timers.next_deadline().expect("the tail's timer");
        assert!(due >= before + pto && due <= after + pto);
        assert_ne!(script.timers.pop_due(due), Some(RETRY), "the engine's");
        assert!(script.timers.is_empty(), "and nothing else");
    }

    #[test]
    fn a_pull_echo_builds_a_receiver_sized_by_the_echo() {
        let mut script = Script::new(pull_leg(1 << 20));
        script.hear(&echo(&script, 2 * PAYLOAD)).unwrap();
        assert_eq!(script.hear(&data(ID, 0, 2, 1)).unwrap(), None);
        let done = script.hear(&data(ID, 1, 2, 1)).unwrap();
        assert_eq!(done.expect("two packets fill it").result, Ok(2 * PAYLOAD));
        assert_eq!(script.kinds_after(1), [PacketKind::Ack]);
        let (bytes, _) = script.leg.retire().unwrap();
        assert_eq!(bytes, vec![1; 2 * PAYLOAD]);
    }

    /// A duplicate echo, data racing ahead of the echo, and a datagram
    /// of some other transfer — the retransmitted tail of the one before
    /// — never reach the engine, even when their geometry would fit.
    #[test]
    fn foreign_transfer_ids_never_reach_the_engine() {
        let mut script = Script::new(pull_leg(1 << 20));
        assert_eq!(script.hear(&data(ID, 2, 3, 0xEE)).unwrap(), None);
        assert!(script.leg.engine().is_none(), "data before the echo");
        let echo = echo(&script, 3 * PAYLOAD);
        script.hear(&echo).unwrap();
        let fresh = script.stats();
        script.hear(&echo).unwrap();
        script.hear(&data(1, 2, 3, 0xEE)).unwrap();
        script.hear(&cancel(1)).unwrap();
        assert_eq!(script.stats(), fresh, "nothing reached the engine");
        assert_eq!(script.wire.len(), 1, "and nothing was answered");
        for seq in 0..3 {
            script.hear(&data(ID, seq, 3, seq as u8)).unwrap();
        }
        let (bytes, _) = script.leg.retire().expect("complete");
        assert_eq!(
            bytes[2 * PAYLOAD..],
            [2; PAYLOAD],
            "the stale tail was not placed"
        );
    }

    #[test]
    fn a_cancel_before_the_echo_is_not_found() {
        let mut script = Script::new(pull_leg(1 << 20));
        assert_eq!(
            script.hear(&cancel(ID + 1)).unwrap(),
            None,
            "someone else's"
        );
        let err = script.hear(&cancel(ID)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn a_pull_echo_over_the_bound_is_refused_before_any_allocation() {
        let mut script = Script::new(pull_leg(2 * PAYLOAD));
        let err = script.hear(&echo(&script, 2 * PAYLOAD + 1)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("transfer bound"), "{err}");
        assert!(script.leg.engine().is_none(), "no receiver was built");
        assert!(script.timers.is_empty());
        script.hear(&data(ID, 2, 3, 0)).unwrap();
        assert_eq!(script.wire.len(), 1, "nobody answers the data");
    }
}
