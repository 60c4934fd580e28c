//! Simulator configuration: the hardware being modelled and the fault
//! environment.

use blast_analytic::CostModel;

/// How packet loss is injected on the wire: `blast-core`'s one loss
/// model, drawn once per frame that finishes transmitting.
///
/// The paper's measurements put the 10 Mbit Ethernet's own error rate at
/// ~1e-5 under normal load, rising to ~1e-4 "when one station transmits
/// at full speed to another workstation" — with the excess attributed to
/// the 3-Com *interfaces*, not the cable (§3.1.3).  The simulator
/// separates the two: [`LossModel`] drops frames in flight (network
/// errors), while receive-buffer overruns in the interface model drop
/// them at the destination (interface errors) — see
/// [`SimConfig::rx_buffers`] and the host speed factors.
pub use blast_core::loss::LossModel;

/// How transmission and copy times are computed per frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingPolicy {
    /// The paper's model: every data packet costs exactly `C`/`T`,
    /// every acknowledgement exactly `Ca`/`Ta`, regardless of exact
    /// byte counts.  Use this to reproduce the paper's numbers.
    PerKind,
    /// Byte-accurate: copy cost is linear in frame bytes (calibrated
    /// through the paper's two measured points) and transmission time is
    /// `wire_len × 8 / bandwidth` including Ethernet header and minimum
    /// padding.  Use this for realism ablations.
    PerByte,
}

/// Full simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Copy/transmission cost constants (`C`, `Ca`, `T`, `Ta`, `τ`).
    pub cost: CostModel,
    /// Transmit buffers per interface: 1 = the 3-Com behaviour
    /// (copy and transmit strictly alternate), 2 = the double-buffered
    /// interface of §2.1.3/Figure 3.d.
    pub tx_buffers: usize,
    /// Receive buffers per interface.  When all are occupied an
    /// arriving frame is dropped — an *interface error*, the §3
    /// phenomenon that forces NACK-based retransmission strategies.
    pub rx_buffers: usize,
    /// Whether the processor busy-waits on transmission completion
    /// before doing anything else (§2.1.1: "each of the two programs
    /// simply busy-waits on the completion of its current operation").
    /// True models the paper's single-buffered measurements; set false
    /// for the double-buffered interface, which signals buffer-free
    /// instead.
    pub busy_wait_tx: bool,
    /// In-flight loss model (network errors).
    pub loss: LossModel,
    /// RNG seed for loss decisions.
    pub seed: u64,
    /// Collect a detailed trace for timeline rendering (Figures 2/3).
    pub trace: bool,
    /// Timing policy (paper-exact vs byte-accurate).
    pub timing: TimingPolicy,
    /// Nominal data payload size in bytes (for `PerByte` timing and
    /// reporting).
    pub data_bytes: usize,
    /// Nominal acknowledgement size in bytes.
    pub ack_bytes: usize,
    /// Hard event budget (guards runaway configurations).
    pub max_events: u64,
}

impl SimConfig {
    /// The standalone measurement setup of §2.1.1: Table 2 constants,
    /// single-buffered 3-Com interface, busy-waiting hosts, no loss.
    pub fn standalone() -> Self {
        SimConfig {
            cost: CostModel::standalone_sun(),
            tx_buffers: 1,
            rx_buffers: 64,
            busy_wait_tx: true,
            loss: LossModel::None,
            seed: 1,
            trace: false,
            timing: TimingPolicy::PerKind,
            data_bytes: 1024,
            ack_bytes: 64,
            max_events: 200_000_000,
        }
    }

    /// The V-kernel setup of §2.2: inflated copy costs covering header
    /// transmission, access checking, demultiplexing and interrupt
    /// handling.
    pub fn vkernel() -> Self {
        SimConfig {
            cost: CostModel::vkernel_sun(),
            ..Self::standalone()
        }
    }

    /// The hypothetical double-buffered interface of Figure 3.d.
    pub fn double_buffered() -> Self {
        SimConfig {
            tx_buffers: 2,
            busy_wait_tx: false,
            ..Self::standalone()
        }
    }

    /// Builder-style loss model.
    pub fn with_loss(mut self, loss: LossModel, seed: u64) -> Self {
        self.loss = loss;
        self.seed = seed;
        self
    }

    /// Builder-style trace collection.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Builder-style cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Builder-style rx buffer count.
    pub fn with_rx_buffers(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one receive buffer");
        self.rx_buffers = n;
        self
    }

    /// Builder-style timing policy.
    pub fn with_timing(mut self, timing: TimingPolicy) -> Self {
        self.timing = timing;
        self
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::standalone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_reflect_hardware() {
        let s = SimConfig::standalone();
        assert_eq!(s.tx_buffers, 1);
        assert!(s.busy_wait_tx);
        assert_eq!(s.cost, CostModel::standalone_sun());

        let d = SimConfig::double_buffered();
        assert_eq!(d.tx_buffers, 2);
        assert!(!d.busy_wait_tx);

        let v = SimConfig::vkernel();
        assert_eq!(v.cost, CostModel::vkernel_sun());
    }

    #[test]
    fn loss_model_constructor() {
        assert_eq!(LossModel::iid(0.0), LossModel::None);
        assert_eq!(LossModel::iid(0.5), LossModel::Iid { p: 0.5 });
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn loss_model_rejects_bad_p() {
        let _ = LossModel::iid(1.5);
    }

    #[test]
    fn builders() {
        let c = SimConfig::standalone()
            .with_loss(LossModel::iid(0.01), 42)
            .with_trace()
            .with_rx_buffers(2)
            .with_timing(TimingPolicy::PerByte);
        assert_eq!(c.seed, 42);
        assert!(c.trace);
        assert_eq!(c.rx_buffers, 2);
        assert_eq!(c.timing, TimingPolicy::PerByte);
    }
}
