//! Protocol configuration shared by all engines.

use core::fmt;
use std::time::Duration;

use crate::control::{AdaptiveTimeout, PacingConfig};
use crate::error::{CoreError, CoreResult};
use crate::pool::BufferPool;

/// Which of the paper's protocol classes to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Stop-and-wait: "the source refrains from sending a packet until
    /// it has received an acknowledgement for the previous packet".
    StopAndWait,
    /// Sliding window: "every packet is individually acknowledged but
    /// the sender continues to transmit data without waiting".
    SlidingWindow,
    /// Blast: "all data packets are transmitted in sequence, with only a
    /// single acknowledgement for the entire packet sequence".
    Blast,
    /// Multi-blast (§3.1.3): the transfer is broken into a number of
    /// blasts, each acknowledged separately — for very large transfers
    /// where a failure of a single huge blast becomes too costly.
    MultiBlast,
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProtocolKind::StopAndWait => "stop-and-wait",
            ProtocolKind::SlidingWindow => "sliding-window",
            ProtocolKind::Blast => "blast",
            ProtocolKind::MultiBlast => "multi-blast",
        };
        f.write_str(s)
    }
}

/// Retransmission strategy for blast transfers (§3.2 of the paper).
///
/// The `#[default]` is go-back-n, the paper's recommendation, and what
/// [`ProtocolConfig::default`] and every paper reproduction run.  The
/// paper's "within noise of selective" holds at a 1985 LAN's error
/// rates: the simulator puts all four strategies' means within 2.3 % of
/// each other at a per-packet error rate of 1e-4, but at 1e-2 go-back-n
/// resends 19 packets per 64-packet blast where selective resends 0.7.
/// [`ProtocolConfig::lan`], which every real initiator builds from,
/// therefore proposes [`Selective`](RetxStrategy::Selective): on a
/// clean path it sends the same data and acknowledgements, and on a
/// lossy one it resends what was lost and nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RetxStrategy {
    /// (1) Full retransmission on error **without** negative
    /// acknowledgement: the receiver only ever sends a positive ack when
    /// the entire sequence arrived; the sender retransmits everything on
    /// timeout.  Simplest, and per §3.1.3 its *expected* time is nearly
    /// optimal at LAN error rates — but §3.2.1 shows its standard
    /// deviation is unacceptable for realistic timeout intervals.
    FullNoNack,
    /// (2) Full retransmission **with** negative acknowledgement: if the
    /// receiver gets the last packet but misses earlier ones it NACKs
    /// immediately, so the sender rarely waits out the full timeout.
    FullNack,
    /// (3) Partial retransmission from the first packet not received
    /// (go-back-n).  The paper's recommendation: "simple to implement
    /// and not significantly worse than more complicated strategies".
    #[default]
    GoBackN,
    /// (4) Selective retransmission of exactly the missing packets,
    /// reported in a bitmap NACK.
    Selective,
}

impl RetxStrategy {
    /// All strategies, in the paper's order.
    pub const ALL: [RetxStrategy; 4] = [
        RetxStrategy::FullNoNack,
        RetxStrategy::FullNack,
        RetxStrategy::GoBackN,
        RetxStrategy::Selective,
    ];

    /// Does the receiver send negative acknowledgements at all?
    pub fn uses_nack(&self) -> bool {
        !matches!(self, RetxStrategy::FullNoNack)
    }
}

impl fmt::Display for RetxStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RetxStrategy::FullNoNack => "full-no-nack",
            RetxStrategy::FullNack => "full-nack",
            RetxStrategy::GoBackN => "go-back-n",
            RetxStrategy::Selective => "selective",
        };
        f.write_str(s)
    }
}

/// Tunable parameters for a transfer.
///
/// The defaults reproduce the paper's experimental setup: 1024-byte data
/// packets, a retransmission interval equal to the error-free transfer
/// time of a 64-packet blast (`Tr = To(D)`, the best curve in Fig. 5/6),
/// go-back-n retransmission, and an effectively unbounded window for the
/// sliding-window protocol ("we assume that the window is large enough
/// so that it never gets closed").
#[derive(Debug, Clone)]
pub struct ProtocolConfig {
    /// Payload bytes per data packet.  The paper uses 1024 everywhere.
    pub packet_payload: usize,
    /// Retransmission-timeout policy.  [`AdaptiveTimeout::Fixed`] is the
    /// paper's interval `Tr` (Figure 5 sweeps it between `To(D)` and
    /// `100 × To(1)`); [`AdaptiveTimeout::Adaptive`] is the
    /// Jacobson/Karn estimator for real, variable-latency paths.
    pub timeout: AdaptiveTimeout,
    /// How multi-packet rounds are offered to the network:
    /// [`PacingConfig::off`] blasts at full speed (the paper's mode),
    /// anything else spreads each round into timed bursts.
    pub pacing: PacingConfig,
    /// How many retransmission rounds to attempt before giving up with
    /// [`CoreError::RetriesExhausted`].
    pub max_retries: u32,
    /// Blast retransmission strategy.
    pub strategy: RetxStrategy,
    /// Sliding-window size in packets.  `None` means unbounded — the
    /// paper's assumption.  `Some(w)` bounds the number of unacked
    /// packets in flight.
    pub window: Option<u32>,
    /// Packets per chunk for multi-blast transfers (§3.1.3).
    pub multiblast_chunk: u32,
    /// Set the KERNEL flag on all packets (V-kernel IPC traffic).
    pub kernel_flag: bool,
    /// The packet-buffer pool engines built from this config share,
    /// where a sink builds datagrams in pooled buffers
    /// ([`ActionSink::transmit`](crate::api::ActionSink::transmit)'s
    /// default: the simulator, the harness).
    ///
    /// Cloning a config clones the *handle*: every engine created from
    /// the same config (or a clone of it) recycles one bounded set of
    /// buffers — the zero-allocation hot path.  Excluded from equality: two configs
    /// with the same parameters are the same configuration regardless of
    /// which pool instance they drain.
    pub pool: BufferPool,
}

impl PartialEq for ProtocolConfig {
    fn eq(&self, other: &Self) -> bool {
        // Exhaustive destructuring: adding a field without deciding how
        // it compares is a compile error, not a silently-vacuous eq.
        let ProtocolConfig {
            packet_payload,
            timeout,
            pacing,
            max_retries,
            strategy,
            window,
            multiblast_chunk,
            kernel_flag,
            pool: _,
        } = self;
        *packet_payload == other.packet_payload
            && *timeout == other.timeout
            && *pacing == other.pacing
            && *max_retries == other.max_retries
            && *strategy == other.strategy
            && *window == other.window
            && *multiblast_chunk == other.multiblast_chunk
            && *kernel_flag == other.kernel_flag
    }
}

impl Eq for ProtocolConfig {}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            packet_payload: 1024,
            // ≈ the error-free time of a 64-packet V-kernel blast
            // (To(D) = 173 ms in Table 3) — the paper's best-case Tr,
            // kept fixed so the analytic model and calibrated simulator
            // reproduce the paper's numbers exactly.
            timeout: AdaptiveTimeout::Fixed(Duration::from_millis(173)),
            pacing: PacingConfig::off(),
            max_retries: 64,
            strategy: RetxStrategy::default(),
            window: None,
            multiblast_chunk: 64,
            kernel_flag: false,
            pool: BufferPool::default(),
        }
    }
}

impl ProtocolConfig {
    /// The profile every initiator on a real LAN builds from: the
    /// paper's defaults, plus the Jacobson/Karn timeout seeded for LAN
    /// round trips ([`AdaptiveTimeout::lan`]) instead of the fixed
    /// 173 ms `To(D)`, AIMD-paced rounds ([`PacingConfig::lan`]), a
    /// retry budget of 1 000 rounds, and selective retransmission (see
    /// [`RetxStrategy`] for why).  [`ProtocolConfig::default`] stays
    /// the paper's configuration for the analytic model, the simulator
    /// and the reproduction bins.
    pub fn lan() -> Self {
        ProtocolConfig {
            timeout: AdaptiveTimeout::lan(),
            pacing: PacingConfig::lan(),
            max_retries: 1000,
            strategy: RetxStrategy::Selective,
            ..ProtocolConfig::default()
        }
    }

    /// Validate the configuration, returning it for chaining.
    pub fn validated(self) -> CoreResult<Self> {
        if self.packet_payload == 0 {
            return Err(CoreError::BadConfig {
                what: "packet_payload must be > 0",
            });
        }
        if self.packet_payload > blast_wire::MAX_ETHERNET_PAYLOAD {
            return Err(CoreError::BadConfig {
                what: "packet_payload exceeds the maximum Ethernet payload",
            });
        }
        if let Some(what) = self.timeout.invalid() {
            return Err(CoreError::BadConfig { what });
        }
        if let Some(what) = self.pacing.invalid() {
            return Err(CoreError::BadConfig { what });
        }
        if self.window == Some(0) {
            return Err(CoreError::BadConfig {
                what: "window must be > 0 when bounded",
            });
        }
        if self.multiblast_chunk == 0 {
            return Err(CoreError::BadConfig {
                what: "multiblast_chunk must be > 0",
            });
        }
        Ok(self)
    }

    /// Number of data packets a transfer of `bytes` bytes needs.
    pub fn packets_for(&self, bytes: usize) -> u32 {
        if bytes == 0 {
            1 // a zero-byte transfer still sends one (empty) packet
        } else {
            bytes.div_ceil(self.packet_payload) as u32
        }
    }

    /// Builder-style setter for the strategy.
    pub fn with_strategy(mut self, strategy: RetxStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Builder-style setter for the timeout policy.  A plain
    /// [`Duration`] selects the paper's fixed mode; pass
    /// [`AdaptiveTimeout::Adaptive`] (or [`AdaptiveTimeout::lan`]) for
    /// the Jacobson/Karn estimator.
    pub fn with_timeout(mut self, timeout: impl Into<AdaptiveTimeout>) -> Self {
        self.timeout = timeout.into();
        self
    }

    /// Builder-style setter for round pacing.
    pub fn with_pacing(mut self, pacing: PacingConfig) -> Self {
        self.pacing = pacing;
        self
    }

    /// Builder-style setter for the window bound.
    pub fn with_window(mut self, window: Option<u32>) -> Self {
        self.window = window;
        self
    }

    /// Builder-style setter for the packet payload size.
    pub fn with_packet_payload(mut self, payload: usize) -> Self {
        self.packet_payload = payload;
        self
    }

    /// Builder-style setter for the multiblast chunk size.
    pub fn with_multiblast_chunk(mut self, chunk: u32) -> Self {
        self.multiblast_chunk = chunk;
        self
    }

    /// Builder-style setter for the shared buffer pool (e.g. to make
    /// several independently-built configs recycle one set of buffers).
    pub fn with_pool(mut self, pool: BufferPool) -> Self {
        self.pool = pool;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_paperlike() {
        let c = ProtocolConfig::default().validated().unwrap();
        assert_eq!(c.packet_payload, 1024);
        assert_eq!(c.strategy, RetxStrategy::GoBackN);
        assert!(c.window.is_none());
        // The paper's fixed Tr and full-speed blast are the defaults.
        assert_eq!(
            c.timeout,
            AdaptiveTimeout::Fixed(Duration::from_millis(173))
        );
        assert!(!c.pacing.enabled());
    }

    #[test]
    fn lan_profile_is_default_plus_lan_control_and_selective() {
        let c = ProtocolConfig::lan().validated().unwrap();
        assert_eq!(c.strategy, RetxStrategy::Selective);
        assert_eq!(c.timeout, AdaptiveTimeout::lan());
        assert_eq!(c.pacing, PacingConfig::lan());
        assert_eq!(c.max_retries, 1000);
        let lan_fields_as_default = ProtocolConfig {
            timeout: ProtocolConfig::default().timeout,
            pacing: PacingConfig::off(),
            max_retries: 64,
            strategy: RetxStrategy::GoBackN,
            ..c
        };
        assert_eq!(lan_fields_as_default, ProtocolConfig::default());
    }

    #[test]
    fn validation_rejects_nonsense() {
        assert!(ProtocolConfig {
            packet_payload: 0,
            ..Default::default()
        }
        .validated()
        .is_err());
        assert!(ProtocolConfig {
            packet_payload: 40_000,
            ..Default::default()
        }
        .validated()
        .is_err());
        assert!(ProtocolConfig {
            timeout: AdaptiveTimeout::Fixed(Duration::ZERO),
            ..Default::default()
        }
        .validated()
        .is_err());
        assert!(ProtocolConfig {
            timeout: AdaptiveTimeout::Adaptive {
                initial: Duration::from_millis(1),
                min: Duration::from_millis(5),
                max: Duration::from_millis(10),
            },
            ..Default::default()
        }
        .validated()
        .is_err());
        assert!(ProtocolConfig {
            pacing: PacingConfig::new(4, Duration::ZERO),
            ..Default::default()
        }
        .validated()
        .is_err());
        assert!(ProtocolConfig {
            window: Some(0),
            ..Default::default()
        }
        .validated()
        .is_err());
        assert!(ProtocolConfig {
            multiblast_chunk: 0,
            ..Default::default()
        }
        .validated()
        .is_err());
    }

    #[test]
    fn packets_for_rounds_up() {
        let c = ProtocolConfig::default();
        assert_eq!(c.packets_for(0), 1);
        assert_eq!(c.packets_for(1), 1);
        assert_eq!(c.packets_for(1024), 1);
        assert_eq!(c.packets_for(1025), 2);
        assert_eq!(c.packets_for(64 * 1024), 64);
        assert_eq!(c.packets_for(64 * 1024 + 1), 65);
    }

    #[test]
    fn builders_compose() {
        let c = ProtocolConfig::default()
            .with_strategy(RetxStrategy::Selective)
            .with_timeout(Duration::from_millis(10))
            .with_window(Some(8))
            .with_packet_payload(512)
            .with_multiblast_chunk(16)
            .with_pacing(PacingConfig::lan());
        assert_eq!(c.strategy, RetxStrategy::Selective);
        assert_eq!(c.timeout, AdaptiveTimeout::Fixed(Duration::from_millis(10)));
        assert_eq!(c.timeout.initial(), Duration::from_millis(10));
        assert_eq!(c.window, Some(8));
        assert_eq!(c.packet_payload, 512);
        assert_eq!(c.multiblast_chunk, 16);
        assert!(c.pacing.enabled());
        let c = c.with_timeout(AdaptiveTimeout::lan());
        assert!(c.timeout.is_adaptive());
        assert!(c.validated().is_ok());
    }

    #[test]
    fn strategy_metadata() {
        assert!(!RetxStrategy::FullNoNack.uses_nack());
        for s in [
            RetxStrategy::FullNack,
            RetxStrategy::GoBackN,
            RetxStrategy::Selective,
        ] {
            assert!(s.uses_nack());
        }
        assert_eq!(RetxStrategy::ALL.len(), 4);
        assert_eq!(RetxStrategy::GoBackN.to_string(), "go-back-n");
        assert_eq!(ProtocolKind::Blast.to_string(), "blast");
    }
}
