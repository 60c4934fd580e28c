//! Time-wait: answering for finished receivers off the wall clock.
//!
//! A receiver finishes one datagram before its sender does: the final
//! status report can be lost, and then the sender retransmits its
//! reliable tail until someone re-acknowledges (§3.2.2's tail problem).
//! Blocking on the channel through a linger window after every transfer
//! would cover that, at the price of a timer on the critical path of
//! *every* transfer — a timer the paper's error-free elapsed-time model
//! does not contain.
//!
//! [`TimeWait`] keeps the duty off the clock, and is the one place a
//! channel-side receiver discharges it.  A caller whose receiver
//! completed hands the adaptor the [`FinishedReceiver`] the engine left
//! behind and returns at once; the adaptor answers for it from whatever
//! receive loop runs on the channel next — the next transfer's
//! [`Outbound`](crate::outbound::Outbound) leg, a control query — until
//! the record expires.  Neither loop knows: datagrams addressed to a
//! held transfer are answered (or not) and swallowed inside
//! [`recv_timeout`](Channel::recv_timeout).
//!
//! What it answers is exactly what the finished engine would have
//! ([`FinishedReceiver::reack`]): at most one datagram per datagram
//! received, only for transfers it holds.  The price of not blocking is
//! that nothing is answered while no receive loop runs, and nothing at
//! all once the channel is dropped.
//!
//! The records are few ([`MAX_RECORDS`]) and each is kept for its whole
//! window, so a caller about to start a receiver first
//! [`reserve`](TimeWait::reserve)s a place for it to finish into: with
//! every place taken by a live record it waits, answering, for the
//! oldest to expire.  That is the one clock left, and it binds only a
//! caller finishing receivers faster than `MAX_RECORDS` per window —
//! 2 560 a second at the 100 ms minimum — who would otherwise trade
//! away, silently, the cover the records exist to give.

use std::collections::VecDeque;
use std::io;
use std::time::{Duration, Instant};

use blast_core::blast::FinishedReceiver;
use blast_telemetry::Recorder;
use blast_wire::header::{BlastHeader, HEADER_LEN};
use blast_wire::packet::Datagram;

use crate::channel::{Channel, MAX_DATAGRAM};

/// Most records held at once: 12 KB at 48 bytes a record, searched
/// only for datagrams whose transfer id lies among the held ones.
pub const MAX_RECORDS: usize = 256;

/// A channel that re-acknowledges for receivers that have finished.
#[derive(Debug)]
pub struct TimeWait<C: Channel> {
    inner: C,
    /// Oldest first; expiries are not ordered (windows may differ).
    records: VecDeque<(FinishedReceiver, Instant)>,
    /// Lowest and highest transfer id held.  A client numbers its
    /// transfers upwards, so the transfer in progress lies above this
    /// span and its datagrams skip the search.
    span: (u32, u32),
    /// Status reports re-sent so far.
    pub reacks: u64,
}

/// What one datagram off the inner channel turned out to be.
enum Taken {
    /// Addressed to a held transfer: dealt with here.
    Swallowed,
    /// Anyone else's: the caller's, `n` bytes long.
    Passed(usize),
}

impl<C: Channel> TimeWait<C> {
    /// Wrap `inner`, holding nothing.
    pub fn new(inner: C) -> Self {
        TimeWait {
            inner,
            records: VecDeque::new(),
            span: (0, 0),
            reacks: 0,
        }
    }

    /// The wrapped channel.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Make sure a record can be [held](Self::hold) without displacing
    /// one still in its window: if every place is taken, stay on the
    /// channel — answering for the records held; other datagrams are
    /// dropped — until the first of them expires.  Returns at once
    /// otherwise.
    pub fn reserve(&mut self) -> io::Result<()> {
        let mut buf = Vec::new();
        loop {
            let now = Instant::now();
            self.records.retain(|&(_, expires)| expires > now);
            if self.records.len() < MAX_RECORDS {
                return Ok(());
            }
            let first = self.records.iter().map(|&(_, expires)| expires).min();
            buf.resize(MAX_DATAGRAM, 0);
            self.take(&mut buf, first.expect("every place taken") - now)?;
        }
    }

    /// Answer for `finished` on this channel for the next `window`.
    /// (Displaces the oldest record if the caller did not
    /// [`reserve`](Self::reserve) and every place is taken.)
    pub fn hold(&mut self, finished: FinishedReceiver, window: Duration) {
        let now = Instant::now();
        self.records.retain(|&(_, expires)| expires > now);
        if self.records.len() == MAX_RECORDS {
            self.records.pop_front();
        }
        self.records.push_back((finished, now + window));
        let ids = self.records.iter().map(|(f, _)| f.transfer_id());
        let lowest = ids.clone().min().expect("just pushed");
        self.span = (lowest, ids.max().expect("just pushed"));
    }

    /// Records held (expired ones leave at the next
    /// [`reserve`](Self::reserve) or [`hold`](Self::hold)).
    pub fn held(&self) -> usize {
        self.records.len()
    }

    /// Stay on the channel, answering, until it has been quiet for
    /// `quiet` (any datagram restarts the window: a peer still sending
    /// has not heard what it needs) or `limit` has passed.  The blocking
    /// form, for a caller with reason to expect retransmissions — its
    /// transfer saw loss.  Datagrams for nobody held are dropped.
    pub fn linger(&mut self, quiet: Duration, limit: Duration) -> io::Result<()> {
        let mut buf = vec![0u8; MAX_DATAGRAM];
        let started = Instant::now();
        let mut quiet_since = started;
        loop {
            let now = Instant::now();
            let left = quiet
                .saturating_sub(now.duration_since(quiet_since))
                .min(limit.saturating_sub(now.duration_since(started)));
            if left.is_zero() {
                return Ok(());
            }
            if self.take(&mut buf, left)?.is_some() {
                quiet_since = Instant::now();
            }
        }
    }

    /// Receive one datagram and deal with it if it is for a held
    /// transfer.  `None` on timeout.
    fn take(&mut self, buf: &mut [u8], timeout: Duration) -> io::Result<Option<Taken>> {
        let Some(n) = self.inner.recv_timeout(buf, timeout)? else {
            return Ok(None);
        };
        if self.records.is_empty() || n < HEADER_LEN {
            return Ok(Some(Taken::Passed(n)));
        }
        // Peek at the transfer id before paying for a parse: with
        // records held, nearly every datagram is still someone else's.
        let id = BlastHeader::new_unchecked(&buf[..n]).transfer_id();
        if id < self.span.0 || id > self.span.1 {
            return Ok(Some(Taken::Passed(n)));
        }
        let now = Instant::now();
        let Some(&(finished, _)) = self
            .records
            .iter()
            .find(|(f, expires)| f.transfer_id() == id && *expires > now)
        else {
            return Ok(Some(Taken::Passed(n)));
        };
        // Garbage that happens to carry a held id is the caller's to
        // count as malformed, like any other garbage.
        let Ok(dgram) = Datagram::parse(&buf[..n]) else {
            return Ok(Some(Taken::Passed(n)));
        };
        let mut status = [0u8; FinishedReceiver::STATUS_LEN];
        if let Some(len) = finished.reack(&dgram, &mut status) {
            self.inner.send(&status[..len])?;
            self.reacks += 1;
        }
        Ok(Some(Taken::Swallowed))
    }
}

impl<C: Channel> Channel for TimeWait<C> {
    fn send(&mut self, buf: &[u8]) -> io::Result<()> {
        self.inner.send(buf)
    }

    fn stage(&mut self, buf: &[u8]) -> io::Result<()> {
        self.inner.stage(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.inner.set_recorder(recorder);
    }

    fn discarded(&self) -> u64 {
        self.inner.discarded()
    }

    fn recv_timeout(&mut self, buf: &mut [u8], timeout: Duration) -> io::Result<Option<usize>> {
        if self.records.is_empty() {
            return self.inner.recv_timeout(buf, timeout);
        }
        let started = Instant::now();
        let mut left = timeout;
        loop {
            match self.take(buf, left)? {
                None => return Ok(None),
                Some(Taken::Passed(n)) => return Ok(Some(n)),
                // Not the caller's: keep waiting, within the same
                // budget.  A zero budget is a poll and stays one.
                Some(Taken::Swallowed) => left = timeout.saturating_sub(started.elapsed()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blast_core::blast::BlastReceiver;
    use blast_core::{Engine, ProtocolConfig};
    use blast_wire::ack::AckPayload;
    use blast_wire::packet::DatagramBuilder;

    /// A channel played from a script: `recv_timeout` pops `incoming`,
    /// `send` appends to `sent`.
    #[derive(Default)]
    struct Script {
        incoming: VecDeque<Vec<u8>>,
        sent: Vec<Vec<u8>>,
    }

    impl Channel for Script {
        fn send(&mut self, buf: &[u8]) -> io::Result<()> {
            self.sent.push(buf.to_vec());
            Ok(())
        }

        fn recv_timeout(&mut self, buf: &mut [u8], _: Duration) -> io::Result<Option<usize>> {
            Ok(self.incoming.pop_front().map(|d| {
                buf[..d.len()].copy_from_slice(&d);
                d.len()
            }))
        }
    }

    const PAYLOAD: usize = 1024;

    /// Packet `seq` of a `packets`-packet transfer of zeroes, flagged
    /// as the round's last when it is the tail.
    fn data(id: u32, seq: u32, packets: u32) -> Vec<u8> {
        let mut buf = vec![0u8; 2048];
        let n = DatagramBuilder::new(id)
            .build_data(
                &mut buf,
                seq,
                packets,
                seq * PAYLOAD as u32,
                &[0; PAYLOAD],
                0,
                seq + 1 == packets,
            )
            .unwrap();
        buf.truncate(n);
        buf
    }

    /// What a receiver of transfer `id` (`packets` full packets) leaves
    /// behind once complete.
    fn finished(id: u32, packets: u32) -> FinishedReceiver {
        let cfg = ProtocolConfig::default();
        assert_eq!(cfg.packet_payload, PAYLOAD);
        let mut rx = BlastReceiver::new(id, packets as usize * PAYLOAD, &cfg);
        let mut sink = Vec::new();
        for seq in 0..packets {
            rx.on_datagram(
                &Datagram::parse(&data(id, seq, packets)).unwrap(),
                &mut sink,
            );
        }
        rx.retire().expect("complete").1
    }

    fn acked(datagram: &[u8]) -> (u32, Option<AckPayload>) {
        let d = Datagram::parse(datagram).unwrap();
        (d.transfer_id, d.ack)
    }

    #[test]
    fn answers_the_tail_of_a_held_transfer_and_nothing_else() {
        let mut tw = TimeWait::new(Script::default());
        tw.hold(finished(7, 3), Duration::from_secs(5));
        let mut cancel = vec![0u8; 64];
        let n = DatagramBuilder::new(7).build_cancel(&mut cancel).unwrap();
        cancel.truncate(n);
        let mut garbage = data(7, 2, 3);
        garbage[20] ^= 0xFF; // header no longer checks out
        tw.inner.incoming.extend([
            data(7, 2, 3),  // the retransmitted tail: answered, swallowed
            data(7, 1, 3),  // a mid-sequence duplicate: swallowed, silently
            cancel.clone(), // held id, not data: swallowed, silently
            data(9, 2, 3),  // someone else's tail: the caller's
            data(7, 2, 3),  // the tail again: answered again, once
            garbage.clone(),
        ]);
        let mut buf = [0u8; 2048];
        let wait = Duration::from_millis(1);
        let n = tw.recv_timeout(&mut buf, wait).unwrap().unwrap();
        assert_eq!(&buf[..n], &data(9, 2, 3)[..], "foreign ids pass through");
        let n = tw.recv_timeout(&mut buf, wait).unwrap().unwrap();
        assert_eq!(&buf[..n], &garbage[..], "garbage is the caller's to count");
        assert_eq!(tw.recv_timeout(&mut buf, wait).unwrap(), None);
        let want = (7, Some(AckPayload::Positive { acked: 2 }));
        let sent: Vec<_> = tw.inner.sent.iter().map(|d| acked(d)).collect();
        assert_eq!(sent, [want.clone(), want], "one reply per tail received");
        assert_eq!(tw.reacks, 2);
    }

    #[test]
    fn records_are_bounded_and_expire() {
        let mut tw = TimeWait::new(Script::default());
        for id in 0..MAX_RECORDS as u32 + 10 {
            tw.hold(finished(id, 1), Duration::from_secs(5));
        }
        assert_eq!(tw.held(), MAX_RECORDS, "the oldest make room");
        tw.hold(finished(1000, 1), Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        // Evicted (3), expired (1000) and still held (200), in turn.
        tw.inner
            .incoming
            .extend([data(3, 0, 1), data(1000, 0, 1), data(200, 0, 1)]);
        let mut buf = [0u8; 2048];
        let wait = Duration::from_millis(1);
        for id in [3, 1000] {
            let n = tw.recv_timeout(&mut buf, wait).unwrap().unwrap();
            assert_eq!(acked(&buf[..n]).0, id, "no longer held: passed through");
        }
        assert_eq!(tw.recv_timeout(&mut buf, wait).unwrap(), None);
        assert_eq!(tw.inner.sent.len(), 1);
        assert_eq!(acked(&tw.inner.sent[0]).0, 200);
        // The next hold sweeps the expired record out.
        tw.hold(finished(1001, 1), Duration::from_secs(5));
        assert_eq!(tw.held(), MAX_RECORDS);
    }

    #[test]
    fn reserve_waits_for_the_oldest_record_only_when_every_place_is_taken() {
        let (a, mut b) = crate::channel::UdpChannel::pair().unwrap();
        let mut tw = TimeWait::new(a);
        let window = Duration::from_millis(60);
        let started = Instant::now();
        for id in 0..MAX_RECORDS as u32 {
            tw.reserve().unwrap();
            tw.hold(finished(id, 1), window);
        }
        assert!(started.elapsed() < window, "places to spare: no waiting");
        // Full.  The next reservation lasts until record 0 expires, and
        // record 0 is answered for while it does.
        b.send(&data(0, 0, 1)).unwrap();
        tw.reserve().unwrap();
        assert!(started.elapsed() >= window);
        assert!(tw.held() < MAX_RECORDS);
        assert_eq!(tw.reacks, 1);
        let mut buf = [0u8; 256];
        let n = b
            .recv_timeout(&mut buf, Duration::from_millis(100))
            .unwrap()
            .unwrap();
        assert_eq!(acked(&buf[..n]).0, 0);
    }

    #[test]
    fn linger_ends_after_a_quiet_window_and_answers_meanwhile() {
        let (a, mut b) = crate::channel::UdpChannel::pair().unwrap();
        let mut tw = TimeWait::new(a);
        tw.hold(finished(5, 2), Duration::from_secs(5));
        b.send(&data(5, 1, 2)).unwrap();
        let started = Instant::now();
        tw.linger(Duration::from_millis(30), Duration::from_secs(5))
            .unwrap();
        assert!(started.elapsed() >= Duration::from_millis(30));
        assert!(started.elapsed() < Duration::from_secs(2));
        assert_eq!(tw.reacks, 1);
        let mut buf = [0u8; 256];
        let n = b
            .recv_timeout(&mut buf, Duration::from_millis(100))
            .unwrap()
            .unwrap();
        assert_eq!(
            acked(&buf[..n]),
            (5, Some(AckPayload::Positive { acked: 1 }))
        );
        // A peer that never goes quiet cannot hold the caller forever:
        // chatter until told to stop (two seconds at most), a limit
        // well inside that.
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stopped = std::sync::Arc::clone(&stop);
        let started = Instant::now();
        let chatter = std::thread::spawn(move || {
            for _ in 0..400 {
                if stopped.load(std::sync::atomic::Ordering::Relaxed) {
                    break;
                }
                b.send(&data(5, 1, 2)).unwrap();
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        tw.linger(Duration::from_millis(50), Duration::from_millis(80))
            .unwrap();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        assert!(started.elapsed() >= Duration::from_millis(80));
        assert!(
            started.elapsed() < Duration::from_millis(1500),
            "limit holds"
        );
        chatter.join().unwrap();
    }
}
