//! Fault injection for channels.
//!
//! Loopback UDP virtually never loses packets, so retransmission paths
//! would go untested without injected faults.  [`FaultyChannel`] wraps
//! any [`Channel`] and applies — deterministically from a seed —
//! the four classic datagram pathologies: loss, duplication,
//! reordering and corruption.  Corrupted packets are *delivered*: the
//! wire-format checksums in `blast-wire` must turn them into drops,
//! exactly as the Ethernet FCS did on the paper's hardware.
//!
//! Loss is `blast-core`'s one [`LossModel`], the same model the
//! correctness harness and the simulator draw from.  Burst loss on real
//! sockets is
//! `FaultConfig { loss: LossModel::GilbertElliott { .. }, ..FaultConfig::none() }`.

use std::io;
use std::time::Duration;

use blast_core::loss::{check_probability, LossChain, LossModel};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::channel::Channel;

/// Per-packet faults: a loss model plus three probabilities (each in
/// `0.0..=1.0`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Which packets are dropped entirely.
    pub loss: LossModel,
    /// Send the packet twice.
    pub duplicate: f64,
    /// Hold the packet back and send it *after* the next one.
    pub reorder: f64,
    /// Flip one random bit of the payload before sending.
    pub corrupt: f64,
}

impl FaultConfig {
    /// No faults.
    pub fn none() -> Self {
        FaultConfig {
            loss: LossModel::None,
            duplicate: 0.0,
            reorder: 0.0,
            corrupt: 0.0,
        }
    }

    /// iid loss only, probability `p` — the paper's error model.
    pub fn loss(p: f64) -> Self {
        FaultConfig {
            loss: LossModel::iid(p),
            ..Self::none()
        }
    }

    /// A stress mix exercising every pathology at once.
    pub fn chaos(p: f64) -> Self {
        FaultConfig {
            loss: LossModel::iid(p),
            duplicate: p,
            reorder: p,
            corrupt: p,
        }
    }
}

fn chance(rng: &mut SmallRng, p: f64) -> bool {
    p > 0.0 && rng.gen::<f64>() < p
}

/// A channel wrapper that injects faults on the **send** side.
///
/// Sending does not allocate: an untouched datagram goes straight
/// through, a corrupted one is rebuilt in one reused scratch buffer,
/// and the reordered one waits in one reused hold buffer.
#[derive(Debug)]
pub struct FaultyChannel<C: Channel> {
    inner: C,
    config: FaultConfig,
    rng: SmallRng,
    chain: LossChain,
    /// Packet held back for reordering (valid while `holding`).
    held: Vec<u8>,
    holding: bool,
    /// Corruption scratch.
    scratch: Vec<u8>,
    /// Counters for test assertions.
    pub dropped: u64,
    /// Packets sent twice.
    pub duplicated: u64,
    /// Packets delivered out of order.
    pub reordered: u64,
    /// Packets with a flipped bit.
    pub corrupted: u64,
}

impl<C: Channel> FaultyChannel<C> {
    /// Wrap `inner`, injecting faults per `config`, deterministically
    /// from `seed`.
    ///
    /// # Panics
    /// If any probability in `config` is outside `0.0..=1.0`.
    pub fn new(inner: C, config: FaultConfig, seed: u64) -> Self {
        config.loss.validate();
        check_probability("duplicate", config.duplicate);
        check_probability("reorder", config.reorder);
        check_probability("corrupt", config.corrupt);
        FaultyChannel {
            inner,
            config,
            rng: SmallRng::seed_from_u64(seed),
            chain: LossChain::default(),
            held: Vec::new(),
            holding: false,
            scratch: Vec::new(),
            dropped: 0,
            duplicated: 0,
            reordered: 0,
            corrupted: 0,
        }
    }

    /// The wrapped channel.
    pub fn into_inner(self) -> C {
        self.inner
    }
}

impl<C: Channel> Channel for FaultyChannel<C> {
    fn send(&mut self, buf: &[u8]) -> io::Result<()> {
        // Release any held packet *after* this one (reorder complete).
        let release = std::mem::take(&mut self.holding);

        if self.chain.drops(&self.config.loss, || self.rng.gen()) {
            self.dropped += 1;
            // Still release the held packet, else it could be stuck
            // behind a dropped one forever.
            if release {
                self.inner.send(&self.held)?;
            }
            return Ok(());
        }

        let corrupt = chance(&mut self.rng, self.config.corrupt) && !buf.is_empty();
        if corrupt {
            let byte = self.rng.gen_range(0..buf.len());
            let bit = self.rng.gen_range(0u32..8);
            self.scratch.clear();
            self.scratch.extend_from_slice(buf);
            self.scratch[byte] ^= 1u8 << bit;
            self.corrupted += 1;
        }
        let packet = if corrupt { &self.scratch[..] } else { buf };

        if chance(&mut self.rng, self.config.reorder) && !release {
            // Hold this packet; it goes out after the next send.
            self.held.clear();
            self.held.extend_from_slice(packet);
            self.holding = true;
            self.reordered += 1;
            return Ok(());
        }

        self.inner.send(packet)?;
        if chance(&mut self.rng, self.config.duplicate) {
            self.inner.send(packet)?;
            self.duplicated += 1;
        }
        if release {
            self.inner.send(&self.held)?;
        }
        Ok(())
    }

    fn recv_timeout(&mut self, buf: &mut [u8], timeout: Duration) -> io::Result<Option<usize>> {
        self.inner.recv_timeout(buf, timeout)
    }

    fn set_recorder(&mut self, recorder: blast_telemetry::Recorder) {
        self.inner.set_recorder(recorder);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// An in-memory loopback channel for deterministic unit tests.
    #[derive(Default)]
    struct MemChannel {
        sent: VecDeque<Vec<u8>>,
    }

    impl Channel for MemChannel {
        fn send(&mut self, buf: &[u8]) -> io::Result<()> {
            self.sent.push_back(buf.to_vec());
            Ok(())
        }

        fn recv_timeout(
            &mut self,
            buf: &mut [u8],
            _timeout: Duration,
        ) -> io::Result<Option<usize>> {
            match self.sent.pop_front() {
                Some(p) => {
                    buf[..p.len()].copy_from_slice(&p);
                    Ok(Some(p.len()))
                }
                None => Ok(None),
            }
        }
    }

    #[test]
    fn no_faults_passes_through() {
        let mut ch = FaultyChannel::new(MemChannel::default(), FaultConfig::none(), 1);
        for i in 0..50u8 {
            ch.send(&[i]).unwrap();
        }
        let inner = ch.into_inner();
        assert_eq!(inner.sent.len(), 50);
        for (i, p) in inner.sent.iter().enumerate() {
            assert_eq!(p[0], i as u8, "order preserved");
        }
    }

    #[test]
    fn full_drop_drops_everything() {
        let mut ch = FaultyChannel::new(MemChannel::default(), FaultConfig::loss(1.0), 1);
        for _ in 0..10 {
            ch.send(b"x").unwrap();
        }
        assert_eq!(ch.dropped, 10);
        assert!(ch.into_inner().sent.is_empty());
    }

    #[test]
    fn duplicate_always_sends_twice() {
        let cfg = FaultConfig {
            duplicate: 1.0,
            ..FaultConfig::none()
        };
        let mut ch = FaultyChannel::new(MemChannel::default(), cfg, 1);
        ch.send(b"a").unwrap();
        assert_eq!(ch.duplicated, 1);
        assert_eq!(ch.into_inner().sent.len(), 2);
    }

    #[test]
    fn corrupt_flips_exactly_one_bit() {
        let cfg = FaultConfig {
            corrupt: 1.0,
            ..FaultConfig::none()
        };
        let mut ch = FaultyChannel::new(MemChannel::default(), cfg, 7);
        let original = [0u8; 32];
        ch.send(&original).unwrap();
        assert_eq!(ch.corrupted, 1);
        let sent = ch.into_inner().sent.pop_front().unwrap();
        let flipped: u32 = sent.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit differs");
    }

    #[test]
    fn reorder_swaps_adjacent_packets() {
        let cfg = FaultConfig {
            reorder: 1.0,
            ..FaultConfig::none()
        };
        let mut ch = FaultyChannel::new(MemChannel::default(), cfg, 3);
        ch.send(b"1").unwrap(); // held
        ch.send(b"2").unwrap(); // "2" held? — release rule: "1" follows "2"
        ch.send(b"3").unwrap();
        ch.send(b"4").unwrap();
        let inner = ch.into_inner();
        let order: Vec<u8> = inner.sent.iter().map(|p| p[0]).collect();
        // With reorder = 1.0 adjacent pairs swap: 2,1,4,3.
        assert_eq!(order, vec![b'2', b'1', b'4', b'3']);
    }

    #[test]
    fn reordered_packet_not_lost_behind_drop() {
        let cfg = FaultConfig {
            reorder: 1.0,
            ..FaultConfig::none()
        };
        let mut ch = FaultyChannel::new(MemChannel::default(), cfg, 3);
        ch.send(b"a").unwrap();
        // Change config to always drop, then send: held "a" must still
        // be released.
        ch.config = FaultConfig::loss(1.0);
        ch.send(b"b").unwrap();
        let inner = ch.into_inner();
        assert_eq!(inner.sent.len(), 1);
        assert_eq!(inner.sent[0], b"a");
    }

    #[test]
    fn determinism_by_seed() {
        let run = |seed| {
            let mut ch = FaultyChannel::new(MemChannel::default(), FaultConfig::chaos(0.3), seed);
            for i in 0..100u8 {
                ch.send(&[i]).unwrap();
            }
            (ch.dropped, ch.duplicated, ch.reordered, ch.corrupted)
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn invalid_probability_rejected() {
        let _ = FaultyChannel::new(MemChannel::default(), FaultConfig::loss(2.0), 1);
    }
}
