//! Time-wait: answering for finished receivers off the wall clock.
//!
//! A receiver finishes one datagram before its sender does, and if its
//! final status report is lost the sender retransmits its tail until
//! someone re-acknowledges (§3.2.2).  No transfer waits out a timer for
//! that: the side that finished keeps the [`FinishedReceiver`] its engine
//! left behind — a few words — in a sans-I/O [`TailRecords`] table, which
//! answers exactly what the engine would have
//! ([`FinishedReceiver::reack`]), once per datagram, to the record's own
//! peer.  A node's shard holds one table for its finished pushes; a
//! channel-side receiver (a `Client`'s pull, a pull copy's leg) holds one
//! in [`TimeWait`], which answers from whatever receive loop runs on the
//! channel next, inside [`recv_timeout`](Channel::recv_timeout).
//! Nothing is answered while no loop runs, or once the channel is gone.
//! A datagram for no held record costs the loop a table lookup and no
//! clock read: a receive loop that passes the instant it has just read
//! ([`recv_timeout_from`](Channel::recv_timeout_from)) pays one read per
//! datagram it answers, and none for the rest.
//!
//! A channel's records are few ([`MAX_RECORDS`]) and each keeps its
//! window, so a caller about to start a receiver first
//! [`reserve`](TimeWait::reserve)s a place, waiting — answering — for the
//! oldest to expire if every place is taken: at most `MAX_RECORDS`
//! receivers per window, 2 560 a second at the 100 ms minimum.

use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use blast_core::blast::FinishedReceiver;
use blast_telemetry::Recorder;
use blast_wire::header::{BlastHeader, HEADER_LEN};
use blast_wire::packet::Datagram;

use crate::channel::{Channel, MAX_DATAGRAM};

/// Most records a channel holds at once.
pub const MAX_RECORDS: usize = 256;

/// The finished receivers a side answers for, sans I/O: the caller
/// passes the time, sends the replies and arms no timer for them.
///
/// A record is held for one peer (`P`: an address on a shared socket,
/// `()` on a connected channel) and expires `quiet` after it was held
/// or after the last datagram it answered, never later than its
/// `until`.  At most `capacity` are held; past that, holding one
/// displaces the oldest-held.  Lookup is by transfer id.
#[derive(Debug)]
pub struct TailRecords<P = SocketAddr> {
    records: HashMap<u32, Record<P>>,
    capacity: usize,
    /// Records held so far: orders them by age.
    held: u64,
}

#[derive(Debug)]
struct Record<P> {
    finished: FinishedReceiver,
    peer: P,
    quiet: Duration,
    expires: Instant,
    until: Instant,
    serial: u64,
}

impl<P: Copy + PartialEq> TailRecords<P> {
    /// An empty table that holds at most `capacity` records.
    pub fn new(capacity: usize) -> Self {
        TailRecords {
            // Room for twice the capacity: ids that come and go then
            // never make the map reallocate.
            records: HashMap::with_capacity(2 * capacity),
            capacity,
            held: 0,
        }
    }

    /// Answer for `finished` toward `peer` from `now` on, as described
    /// on the [type](Self).  Replaces a record of the same transfer.
    pub fn hold(
        &mut self,
        now: Instant,
        finished: FinishedReceiver,
        peer: P,
        quiet: Duration,
        until: Instant,
    ) {
        let id = finished.transfer_id();
        if !self.records.contains_key(&id) && self.full_until(now).is_some() {
            let oldest = self.records.iter().min_by_key(|(_, r)| r.serial);
            let oldest = *oldest.expect("full").0;
            self.records.remove(&oldest);
        }
        self.held += 1;
        let record = Record {
            finished,
            peer,
            quiet,
            expires: (now + quiet).min(until),
            until,
            serial: self.held,
        };
        self.records.insert(id, record);
    }

    /// The peer a live record of transfer `id` answers, if any.
    pub fn peer(&self, now: Instant, id: u32) -> Option<P> {
        let record = self.records.get(&id)?;
        (record.expires > now).then_some(record.peer)
    }

    /// Deal with `dgram`, received from `peer`, if a live record of its
    /// transfer answers that peer: write what the finished receiver
    /// would have replied into `status` and return `Some` of its length
    /// (`Some(None)` when it replies nothing), and restart the record's
    /// quiet window.  `None` if the datagram is not the table's.
    pub fn answer(
        &mut self,
        now: Instant,
        dgram: &Datagram<'_>,
        peer: P,
        status: &mut [u8; FinishedReceiver::STATUS_LEN],
    ) -> Option<Option<usize>> {
        let record = self.records.get_mut(&dgram.transfer_id)?;
        if record.expires <= now || record.peer != peer {
            return None;
        }
        // A peer still sending has not heard our final ack yet.
        record.expires = (now + record.quiet).min(record.until);
        Some(record.finished.reack(dgram, status))
    }

    /// When every place is taken by a live record, the instant the
    /// first of them expires; `None` while a place is free.  Sweeps
    /// expired records out once the table is full.
    pub fn full_until(&mut self, now: Instant) -> Option<Instant> {
        if self.records.len() >= self.capacity {
            self.records.retain(|_, r| r.expires > now);
        }
        if self.records.len() < self.capacity {
            return None;
        }
        self.records.values().map(|r| r.expires).min()
    }
}

/// A channel that re-acknowledges for receivers that have finished.
#[derive(Debug)]
pub struct TimeWait<C: Channel> {
    inner: C,
    tails: TailRecords<()>,
    /// Status reports re-sent so far.
    pub reacks: u64,
}

impl<C: Channel> TimeWait<C> {
    /// Wrap `inner`, holding nothing.
    pub fn new(inner: C) -> Self {
        TimeWait {
            inner,
            tails: TailRecords::new(MAX_RECORDS),
            reacks: 0,
        }
    }

    /// Make sure a record can be [held](Self::hold) without displacing
    /// a live one: while every place is taken, stay on the channel,
    /// answering (other datagrams are dropped), until the first expires.
    pub fn reserve(&mut self) -> io::Result<()> {
        let mut buf = Vec::new();
        loop {
            let now = Instant::now();
            let Some(free) = self.tails.full_until(now) else {
                return Ok(());
            };
            buf.resize(MAX_DATAGRAM, 0);
            if let Some(n) = self.inner.recv_timeout(&mut buf, free - now)? {
                self.swallow(&buf[..n])?;
            }
        }
    }

    /// Answer for `finished` until quiet for `quiet`, and not past
    /// `until` (see [`TailRecords`]; [`reserve`](Self::reserve) first).
    pub fn hold(&mut self, finished: FinishedReceiver, quiet: Duration, until: Instant) {
        self.tails.hold(Instant::now(), finished, (), quiet, until);
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
            if let Some(n) = self.inner.recv_timeout(&mut buf, left)? {
                self.swallow(&buf[..n])?;
                quiet_since = Instant::now();
            }
        }
    }

    /// Answer `datagram` if it is addressed to a held transfer; whether
    /// it was (and so is not the caller's).
    fn swallow(&mut self, datagram: &[u8]) -> io::Result<bool> {
        if self.tails.records.is_empty() || datagram.len() < HEADER_LEN {
            return Ok(false);
        }
        // Peek at the transfer id before paying for a parse: with
        // records held, nearly every datagram is still someone else's.
        // And at the table before reading the clock: on a busy pull
        // loop a few dozen records are always held, for ids that are
        // not the one arriving.
        let id = BlastHeader::new_unchecked(datagram).transfer_id();
        if !self.tails.records.contains_key(&id) {
            return Ok(false);
        }
        let now = Instant::now();
        if self.tails.peer(now, id).is_none() {
            return Ok(false);
        }
        // Garbage that happens to carry a held id is the caller's to
        // count as malformed, like any other garbage.
        let Ok(dgram) = Datagram::parse(datagram) else {
            return Ok(false);
        };
        let mut status = [0u8; FinishedReceiver::STATUS_LEN];
        if let Some(Some(len)) = self.tails.answer(now, &dgram, (), &mut status) {
            self.inner.send(&status[..len])?;
            self.reacks += 1;
        }
        Ok(true)
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

    fn recv_buffer(&self) -> Option<usize> {
        self.inner.recv_buffer()
    }

    fn recv_timeout(&mut self, buf: &mut [u8], timeout: Duration) -> io::Result<Option<usize>> {
        self.recv_timeout_from(buf, timeout, Instant::now())
    }

    /// Reads the clock only after answering a datagram: the wait goes
    /// on, within what is left of `timeout` after `now`.
    fn recv_timeout_from(
        &mut self,
        buf: &mut [u8],
        timeout: Duration,
        now: Instant,
    ) -> io::Result<Option<usize>> {
        let (mut left, mut at) = (timeout, now);
        loop {
            let Some(n) = self.inner.recv_timeout_from(buf, left, at)? else {
                return Ok(None);
            };
            if !self.swallow(&buf[..n])? {
                return Ok(Some(n));
            }
            // Swallowed datagrams are not the caller's: keep waiting,
            // within the same budget.  A zero budget is a poll and
            // stays one.
            at = Instant::now();
            left = timeout.saturating_sub(at.saturating_duration_since(now));
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
    use std::collections::VecDeque;

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

    fn cancel(id: u32) -> Vec<u8> {
        let mut buf = vec![0u8; 64];
        let n = DatagramBuilder::new(id).build_cancel(&mut buf).unwrap();
        buf.truncate(n);
        buf
    }

    const A: u8 = 1;
    const B: u8 = 2;
    const FOREVER: Duration = Duration::from_secs(5);

    /// What `records` makes of `datagram` from `peer` at `at` after
    /// `t0`: `Some` of the transfer id and report it answered with,
    /// `None` inside when it swallowed the datagram silently.
    fn answer(
        records: &mut TailRecords<u8>,
        t0: Instant,
        at: u64,
        datagram: &[u8],
        peer: u8,
    ) -> Option<Option<(u32, Option<AckPayload>)>> {
        let mut status = [0u8; FinishedReceiver::STATUS_LEN];
        let now = t0 + Duration::from_millis(at);
        let reply = records.answer(now, &Datagram::parse(datagram).unwrap(), peer, &mut status)?;
        Some(reply.map(|n| acked(&status[..n])))
    }

    #[test]
    fn answers_the_tail_of_a_held_transfer_and_nothing_else() {
        let t0 = Instant::now();
        let mut records = TailRecords::new(4);
        records.hold(t0, finished(7, 3), A, FOREVER, t0 + FOREVER);
        let tail = Some(Some((7, Some(AckPayload::Positive { acked: 2 }))));
        // The retransmitted tail is answered, once per copy received.
        assert_eq!(answer(&mut records, t0, 1, &data(7, 2, 3), A), tail);
        // A mid-sequence duplicate, and a held id that is not data:
        // swallowed silently.
        assert_eq!(answer(&mut records, t0, 2, &data(7, 1, 3), A), Some(None));
        assert_eq!(answer(&mut records, t0, 3, &cancel(7), A), Some(None));
        // Someone else's transfer is not the table's.
        assert_eq!(answer(&mut records, t0, 4, &data(9, 2, 3), A), None);
        assert_eq!(answer(&mut records, t0, 5, &data(7, 2, 3), A), tail);
    }

    #[test]
    fn records_are_bounded_and_expire() {
        let t0 = Instant::now();
        let mut records = TailRecords::new(MAX_RECORDS);
        for id in 0..MAX_RECORDS as u32 + 10 {
            records.hold(t0, finished(id, 1), A, FOREVER, t0 + FOREVER);
        }
        assert_eq!(records.records.len(), MAX_RECORDS, "the oldest make room");
        let short = Duration::from_millis(1);
        records.hold(t0, finished(1000, 1), A, short, t0 + short);
        // Evicted (3), expired (1000) and still held (200), in turn.
        assert_eq!(answer(&mut records, t0, 5, &data(3, 0, 1), A), None);
        assert_eq!(answer(&mut records, t0, 5, &data(1000, 0, 1), A), None);
        let held = answer(&mut records, t0, 5, &data(200, 0, 1), A);
        assert_eq!(held.flatten().map(|(id, _)| id), Some(200));
        // The next hold sweeps the expired record out.
        records.hold(t0, finished(1001, 1), A, FOREVER, t0 + FOREVER);
        assert_eq!(records.records.len(), MAX_RECORDS);
        assert_eq!(records.peer(t0 + short, 12), Some(A));
    }

    /// The node's rule: every datagram restarts a `quiet` window, up to
    /// a bound on the whole.
    #[test]
    fn the_quiet_window_restarts_up_to_until() {
        let t0 = Instant::now();
        let mut records = TailRecords::new(4);
        let until = t0 + Duration::from_millis(250);
        records.hold(t0, finished(5, 2), A, Duration::from_millis(100), until);
        for at in [90, 180, 240] {
            assert!(answer(&mut records, t0, at, &data(5, 1, 2), A).is_some());
        }
        assert_eq!(answer(&mut records, t0, 250, &data(5, 1, 2), A), None);
    }

    /// The client's rule: a window that already reaches `until` is not
    /// stretched by traffic.
    #[test]
    fn no_restart_when_quiet_reaches_until() {
        let t0 = Instant::now();
        let mut records = TailRecords::new(4);
        let window = Duration::from_millis(100);
        records.hold(t0, finished(5, 2), A, window, t0 + window);
        assert!(answer(&mut records, t0, 90, &data(5, 1, 2), A).is_some());
        assert_eq!(records.peer(t0 + Duration::from_millis(99), 5), Some(A));
        assert_eq!(answer(&mut records, t0, 100, &data(5, 1, 2), A), None);
    }

    #[test]
    fn no_reply_to_the_wrong_peer() {
        let t0 = Instant::now();
        let mut records = TailRecords::new(4);
        records.hold(t0, finished(5, 2), A, FOREVER, t0 + FOREVER);
        assert_eq!(answer(&mut records, t0, 1, &data(5, 1, 2), B), None);
        assert_eq!(records.peer(t0, 5), Some(A), "still held, for its peer");
        assert!(answer(&mut records, t0, 2, &data(5, 1, 2), A).is_some());
    }

    #[test]
    fn holding_past_capacity_displaces_the_oldest_held() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let mut records = TailRecords::new(3);
        records.hold(t0, finished(1, 1), A, FOREVER, t0 + FOREVER);
        records.hold(t0, finished(2, 1), A, ms(10), t0 + FOREVER);
        records.hold(t0, finished(3, 1), A, FOREVER, t0 + FOREVER);
        // Full, but record 2 has expired: it makes the room.
        records.hold(t0 + ms(20), finished(4, 1), A, FOREVER, t0 + FOREVER);
        let held = |records: &TailRecords<u8>| {
            let mut ids: Vec<u32> = (1..=5)
                .filter(|&id| records.peer(t0 + ms(20), id).is_some())
                .collect();
            ids.sort_unstable();
            ids
        };
        assert_eq!(held(&records), [1, 3, 4]);
        // Full of live records: the oldest-held goes, however recently
        // it answered.
        assert!(answer(&mut records, t0, 20, &data(1, 0, 1), A).is_some());
        records.hold(t0 + ms(20), finished(5, 1), A, FOREVER, t0 + FOREVER);
        assert_eq!(held(&records), [3, 4, 5]);
    }

    #[test]
    fn the_channel_swallows_held_transfers_and_passes_the_rest() {
        let mut tw = TimeWait::new(Script::default());
        tw.hold(finished(7, 3), FOREVER, Instant::now() + FOREVER);
        let mut garbage = data(7, 2, 3);
        garbage[20] ^= 0xFF; // header no longer checks out
        tw.inner.incoming.extend([
            data(7, 2, 3), // the retransmitted tail: answered, swallowed
            cancel(7),     // held id, not data: swallowed, silently
            data(9, 2, 3), // someone else's tail: the caller's
            garbage.clone(),
        ]);
        let mut buf = [0u8; 2048];
        let wait = Duration::from_millis(1);
        let n = tw.recv_timeout(&mut buf, wait).unwrap().unwrap();
        assert_eq!(&buf[..n], &data(9, 2, 3)[..], "foreign ids pass through");
        let n = tw.recv_timeout(&mut buf, wait).unwrap().unwrap();
        assert_eq!(&buf[..n], &garbage[..], "garbage is the caller's to count");
        assert_eq!(tw.recv_timeout(&mut buf, wait).unwrap(), None);
        assert_eq!(tw.inner.sent.len(), 1);
        assert_eq!(
            acked(&tw.inner.sent[0]),
            (7, Some(AckPayload::Positive { acked: 2 }))
        );
        assert_eq!(tw.reacks, 1);
    }

    /// A tail answered mid-wait does not restart the wait: silence after
    /// it ends the call `timeout` after it began (a restarted wait would
    /// end 100 ms later), whichever way the caller asks.
    #[test]
    fn an_answered_tail_does_not_stretch_the_wait() {
        let (a, mut b) = crate::channel::UdpChannel::pair().unwrap();
        let mut tw = TimeWait::new(a);
        tw.hold(finished(5, 2), FOREVER, Instant::now() + FOREVER);
        let ms = Duration::from_millis;
        let (timeout, slack) = (ms(200), ms(60));
        for (reacks, from_now) in [(1, false), (2, true)] {
            let mut buf = [0u8; 2048];
            let called = Instant::now();
            let got = std::thread::scope(|scope| {
                let b = &mut b;
                scope.spawn(move || {
                    std::thread::sleep(ms(100));
                    b.send(&data(5, 1, 2)).unwrap();
                });
                match from_now {
                    true => tw.recv_timeout_from(&mut buf, timeout, called),
                    false => tw.recv_timeout(&mut buf, timeout),
                }
            });
            let waited = called.elapsed();
            assert_eq!(got.unwrap(), None, "the tail was answered, not returned");
            assert_eq!(tw.reacks, reacks);
            assert!(waited >= timeout, "{waited:?}");
            assert!(waited < timeout + slack, "{waited:?}");
        }
    }

    #[test]
    fn reserve_waits_for_the_oldest_record_only_when_every_place_is_taken() {
        let (a, mut b) = crate::channel::UdpChannel::pair().unwrap();
        let mut tw = TimeWait::new(a);
        let window = Duration::from_millis(60);
        let started = Instant::now();
        for id in 0..MAX_RECORDS as u32 {
            tw.reserve().unwrap();
            tw.hold(finished(id, 1), window, Instant::now() + window);
        }
        assert!(started.elapsed() < window, "places to spare: no waiting");
        // Full.  The next reservation lasts until record 0 expires, and
        // record 0 is answered for while it does.
        b.send(&data(0, 0, 1)).unwrap();
        tw.reserve().unwrap();
        assert!(started.elapsed() >= window);
        assert!(tw.tails.records.len() < MAX_RECORDS);
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
        tw.hold(finished(5, 2), FOREVER, Instant::now() + FOREVER);
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
