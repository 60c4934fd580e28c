//! The blocking driver: one engine, one channel, real timers.
//!
//! The sim driver translates engine actions into simulated copy costs;
//! this driver translates them into socket sends and wall-clock timer
//! deadlines.  Same engines, same actions, different clock — that is
//! the point of the sans-I/O design.
//!
//! [`Driver::run`] returns the moment its engine completes.  A sender
//! completes on hearing the final ack, so nothing is left to answer; a
//! receiver completes one datagram before its sender does, and if that
//! last ack is lost someone must re-acknowledge the retransmitted tail
//! (§3.2.2).  That duty belongs to the channel, not to this loop: run a
//! receiver over a [`TimeWait`](crate::timewait::TimeWait) and hand it
//! the engine's `FinishedReceiver` afterwards.

use std::io;
use std::time::{Duration, Instant};

use blast_core::api::{CompletionInfo, TimerToken};
use blast_core::engine::Engine;
use blast_core::PacingConfig;
use blast_wire::header::PacketKind;
use blast_wire::packet::Datagram;

use crate::channel::{Channel, MAX_DATAGRAM};
use crate::pump::{self, Input};
use crate::timers::TimerWheel;

/// Outcome of a driver run.
#[derive(Debug)]
pub struct DriveOutcome {
    /// The engine's completion report.
    pub completion: CompletionInfo,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Datagrams sent on the channel.
    pub datagrams_sent: u64,
    /// Datagrams received (before filtering).
    pub datagrams_received: u64,
    /// Datagrams dropped as malformed (failed wire validation —
    /// corruption turned into loss, as the Ethernet FCS would).
    pub malformed: u64,
}

/// Runs a single engine over a channel until it completes.
pub struct Driver<C: Channel> {
    channel: C,
    /// Stop even if incomplete after this long (safety for tests).
    pub deadline: Duration,
    /// Flight recorder, handed to the engine and the channel at
    /// [`run`](Driver::run).  The recorder's epoch also becomes the
    /// engine's `set_now` base, so engine events and the backend's
    /// syscall events land on one consistent timeline.
    pub recorder: Option<blast_telemetry::Recorder>,
}

impl<C: Channel> Driver<C> {
    /// New driver over `channel`.
    pub fn new(channel: C) -> Self {
        Driver {
            channel,
            deadline: Duration::from_secs(60),
            recorder: None,
        }
    }

    /// Attach a flight recorder (see [`Driver::recorder`]).
    pub fn with_recorder(mut self, recorder: blast_telemetry::Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Set the overall deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Take back the channel.
    pub fn into_channel(self) -> C {
        self.channel
    }

    /// Run `engine` to completion.
    pub fn run(&mut self, engine: &mut dyn Engine) -> io::Result<DriveOutcome> {
        let start = Instant::now();
        // With a recorder attached, the engine's clock runs from the
        // recorder's epoch instead of the run start, so `record_at`
        // timestamps merge cleanly with the backend's `record` ones.
        let clock = match &self.recorder {
            Some(rec) => {
                engine.set_recorder(rec.clone());
                self.channel.set_recorder(rec.clone());
                rec.epoch()
            }
            None => start,
        };
        let mut run = Run {
            clock,
            timers: TimerWheel::new(),
            sent: 0,
            malformed: 0,
            completion: None,
        };
        let mut received = 0u64;
        let mut buf = vec![0u8; MAX_DATAGRAM];
        self.step(engine, &mut run, Input::Start)?;

        while run.completion.is_none() {
            let now = Instant::now();
            if now.duration_since(start) > self.deadline {
                break;
            }

            // Fire due timers.
            while let Some(token) = run.timers.pop_due(now) {
                self.step(engine, &mut run, Input::Timer(token))?;
            }
            if run.completion.is_some() {
                break;
            }

            // Wait for the next packet or the next timer, whichever
            // comes first.  The channel's backend makes this an
            // *event-driven* wait: the batched `NetIo` blocks on
            // epoll + timerfd at the exact deadline, so sub-millisecond
            // pace gaps (hundreds of µs between bursts) cost neither a
            // scheduler-tick round-up nor the yield-spin that used to
            // paper over it; the portable fallback degrades to a coarse
            // `SO_RCVTIMEO` wait with the shared floor.
            let until_timer = run
                .timers
                .next_deadline()
                .map(|when| when.saturating_duration_since(now))
                .unwrap_or(Duration::from_millis(20))
                .clamp(PacingConfig::MIN_WAIT, Duration::from_millis(50));
            let Some(n) = self.channel.recv_timeout(&mut buf, until_timer)? else {
                continue;
            };
            received += 1;
            let Ok(dgram) = Datagram::parse(&buf[..n]) else {
                run.malformed += 1; // checksum turned corruption into loss
                continue;
            };
            // Handshake traffic — a duplicate echo of the request that
            // opened this transfer — is invisible to the engines.
            if dgram.kind == PacketKind::Request {
                continue;
            }
            // Someone else's transfer — say, the tail a previous
            // transfer's sender is still retransmitting on this channel
            // — must not reach this engine: receivers place data by
            // sequence number alone.
            if dgram.transfer_id != engine.transfer_id() {
                continue;
            }
            self.step(engine, &mut run, Input::Datagram(&dgram))?;
        }

        let (completion, finished_at) = run.completion.unwrap_or_else(|| {
            let failure = CompletionInfo::failure(
                blast_core::CoreError::BadState {
                    what: "driver deadline exceeded",
                },
                engine.stats(),
            );
            (failure, Instant::now())
        });
        Ok(DriveOutcome {
            completion,
            elapsed: finished_at.duration_since(start),
            datagrams_sent: run.sent,
            datagrams_received: received,
            malformed: run.malformed,
        })
    }

    /// One engine call through the shared [`pump`](crate::pump).
    ///
    /// Transmissions are *staged* and flushed once at the end: a paced
    /// burst (one engine call's worth of packets) becomes a single
    /// `sendmmsg` submission on the batched backend instead of one
    /// kernel crossing per datagram.
    fn step(&mut self, engine: &mut dyn Engine, run: &mut Run, input: Input<'_>) -> io::Result<()> {
        let (channel, sent) = (&mut self.channel, &mut run.sent);
        let done = pump::step(
            engine,
            run.clock.elapsed(),
            input,
            &mut run.timers,
            |token| token,
            |bytes| {
                channel.stage(bytes)?;
                *sent += 1;
                Ok(())
            },
        )?;
        self.channel.flush()?;
        if let Some(info) = done {
            run.completion = Some((info, Instant::now()));
        }
        Ok(())
    }
}

/// The state of one [`Driver::run`].
struct Run {
    /// Zero point of the engine's `set_now` clock.
    clock: Instant,
    timers: TimerWheel<TimerToken>,
    sent: u64,
    malformed: u64,
    /// The engine's report, and when it came (the end of the
    /// elapsed-time measurement).
    completion: Option<(CompletionInfo, Instant)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::UdpChannel;
    use blast_core::blast::{BlastReceiver, BlastSender};
    use blast_core::saw::{SawReceiver, SawSender};
    use blast_core::ProtocolConfig;
    use std::sync::Arc;

    fn cfg() -> ProtocolConfig {
        let mut c = ProtocolConfig::default();
        c.timeout = Duration::from_millis(15).into();
        c
    }

    fn data(n: usize) -> Arc<[u8]> {
        (0..n)
            .map(|i| (i * 31 % 256) as u8)
            .collect::<Vec<u8>>()
            .into()
    }

    #[test]
    fn blast_over_loopback() {
        let (a, b) = UdpChannel::pair().unwrap();
        let c = cfg();
        let payload = data(50_000);
        let payload2 = payload.clone();
        let c2 = c.clone();
        let receiver = std::thread::spawn(move || {
            let mut engine = BlastReceiver::new(1, payload2.len(), &c2);
            let out = Driver::new(b).run(&mut engine).unwrap();
            assert!(out.completion.is_success());
            engine.into_data()
        });
        let mut engine = BlastSender::new(1, payload.clone(), &c);
        let mut driver = Driver::new(a);
        let out = driver.run(&mut engine).unwrap();
        assert!(out.completion.is_success(), "{:?}", out.completion);
        let received = receiver.join().unwrap();
        assert_eq!(received, payload.as_ref());
        assert!(out.datagrams_sent >= 49); // 49 data packets
    }

    #[test]
    fn saw_over_loopback() {
        let (a, b) = UdpChannel::pair().unwrap();
        let c = cfg();
        let payload = data(8_000);
        let payload2 = payload.clone();
        let c2 = c.clone();
        let receiver = std::thread::spawn(move || {
            let mut engine = SawReceiver::new(1, payload2.len(), &c2);
            Driver::new(b).run(&mut engine).unwrap();
            engine.into_data()
        });
        let mut engine = SawSender::new(1, payload.clone(), &c);
        let mut driver = Driver::new(a);
        let out = driver.run(&mut engine).unwrap();
        assert!(out.completion.is_success());
        assert_eq!(receiver.join().unwrap(), payload.as_ref());
    }

    /// A datagram of some other transfer on the same channel — the
    /// retransmitted tail of the one before — never reaches the engine,
    /// even when its geometry would fit.
    #[test]
    fn foreign_transfer_ids_never_reach_the_engine() {
        let (mut a, b) = UdpChannel::pair().unwrap();
        let c = cfg();
        let payload = data(3 * 1024);
        // The stale tail: transfer 1's last packet, all 0xEE.
        let mut stale = vec![0u8; 2048];
        let n = blast_wire::DatagramBuilder::new(1)
            .build_data(&mut stale, 2, 3, 2048, &[0xEE; 1024], 1, true)
            .unwrap();
        a.send(&stale[..n]).unwrap();
        let c2 = c.clone();
        let receiver = std::thread::spawn(move || {
            let mut engine = BlastReceiver::new(2, 3 * 1024, &c2);
            let out = Driver::new(b).run(&mut engine).unwrap();
            assert!(out.completion.is_success());
            (engine.into_data(), out.datagrams_received)
        });
        let mut engine = BlastSender::new(2, payload.clone(), &c);
        let out = Driver::new(a).run(&mut engine).unwrap();
        assert!(out.completion.is_success(), "{:?}", out.completion);
        let (received, datagrams) = receiver.join().unwrap();
        assert_eq!(received, payload.as_ref(), "the stale tail was not placed");
        assert_eq!(datagrams, 4, "it did arrive");
    }

    #[test]
    fn driver_deadline_prevents_hangs() {
        // No peer at all: the sender must give up at the deadline.
        let (a, _b) = UdpChannel::pair().unwrap();
        let mut c = cfg();
        c.max_retries = 1_000_000;
        c.timeout = Duration::from_millis(5).into();
        let mut engine = BlastSender::new(1, data(1024), &c);
        let mut driver = Driver::new(a).with_deadline(Duration::from_millis(100));
        let start = Instant::now();
        let out = driver.run(&mut engine).unwrap();
        assert!(!out.completion.is_success());
        assert!(start.elapsed() < Duration::from_secs(2));
    }
}
