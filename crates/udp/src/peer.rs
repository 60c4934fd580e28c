//! One-call bulk transfers with a pre-allocation handshake.
//!
//! The paper's premise is that "the recipient has sufficient buffers
//! allocated to receive the data before the transfer takes place".
//! Over UDP that guarantee comes from a tiny handshake:
//!
//! 1. the sender transmits a `Request` describing the transfer
//!    (byte length, packet payload size, retransmission strategy) and
//!    retransmits it until echoed;
//! 2. the receiver allocates the whole buffer, echoes the `Request`,
//!    and enters the data phase — continuing to echo duplicate
//!    requests, since its echo may be lost;
//! 3. the sender blasts, per the configured strategy.
//!
//! The `Request` echo is deliberately *not* an `Ack` packet: the blast
//! sender treats positive acks as completion signals, so handshake
//! traffic must be invisible to it (the driver filters `Request`
//! packets before the engine sees them).

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use blast_core::api::EngineStats;
use blast_core::blast::{BlastReceiver, BlastSender};
use blast_core::config::ProtocolConfig;
use blast_core::engine::Engine;
use blast_core::multiblast::MultiBlastSender;
use blast_wire::header::PacketKind;
use blast_wire::packet::Datagram;

use crate::channel::{Channel, MAX_DATAGRAM};
use crate::driver::{DriveOutcome, Driver};
use crate::fcs::FcsChannel;
use crate::handshake::{self, Request};

/// Outcome of a completed transfer (either side).
#[derive(Debug)]
pub struct TransferReport {
    /// The received bytes (empty for the sending side).
    pub data: Vec<u8>,
    /// Wall-clock duration of the data phase.
    pub elapsed: Duration,
    /// Engine counters.
    pub stats: EngineStats,
    /// The sender's AIMD pacing state at completion (`None` for
    /// receivers and unpaced senders) — the burst trajectory a
    /// transfer ended on.
    pub pacing: Option<blast_core::PacerSnapshot>,
    /// Datagrams sent on the channel (handshake included).
    pub datagrams_sent: u64,
    /// Datagrams received on the channel.
    pub datagrams_received: u64,
    /// Malformed datagrams dropped by wire validation.
    pub malformed: u64,
}

impl TransferReport {
    /// The report of one driven data phase, or an error naming `what`
    /// failed.  `handshake_sent` counts the datagrams the handshake
    /// put on the wire before the driver took over; `fcs_drops` the
    /// frames the channel's FCS check discarded during the run (they
    /// never reached the driver, so they join its malformed count).
    pub fn from_drive(
        what: &str,
        out: DriveOutcome,
        handshake_sent: u64,
        fcs_drops: u64,
        pacing: Option<blast_core::PacerSnapshot>,
        data: Vec<u8>,
    ) -> io::Result<Self> {
        match out.completion.result {
            Ok(_) => Ok(TransferReport {
                data,
                elapsed: out.elapsed,
                stats: out.completion.stats,
                pacing,
                datagrams_sent: out.datagrams_sent + handshake_sent,
                datagrams_received: out.datagrams_received,
                malformed: out.malformed + fcs_drops,
            }),
            Err(e) => Err(io::Error::other(format!("{what} failed: {e}"))),
        }
    }

    /// Effective goodput in megabits per second.
    pub fn goodput_mbps(&self, bytes: usize) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return f64::INFINITY;
        }
        (bytes * 8) as f64 / secs / 1e6
    }
}

/// Send `data` over `channel` as transfer `transfer_id`, blocking until
/// the receiver acknowledges the whole transfer.
pub fn send_data<C: Channel>(
    channel: C,
    transfer_id: u32,
    data: &[u8],
    cfg: &ProtocolConfig,
) -> io::Result<TransferReport> {
    send_impl(channel, transfer_id, data, cfg, false)
}

/// Like [`send_data`] but using multi-blast chunking (§3.1.3), for very
/// large transfers.
pub fn send_data_multiblast<C: Channel>(
    channel: C,
    transfer_id: u32,
    data: &[u8],
    cfg: &ProtocolConfig,
) -> io::Result<TransferReport> {
    send_impl(channel, transfer_id, data, cfg, true)
}

fn send_impl<C: Channel>(
    channel: C,
    transfer_id: u32,
    data: &[u8],
    cfg: &ProtocolConfig,
    multiblast: bool,
) -> io::Result<TransferReport> {
    // Every datagram travels under an Ethernet-style FCS (see
    // `crate::fcs`): corruption becomes loss, as on the paper's
    // hardware, so the engines only ever see intact packets.
    let mut channel = FcsChannel::new(channel);
    // Handshake: request until echoed.
    let request = Request::push(data.len(), cfg, multiblast);
    let reply = handshake::initiate(
        &mut channel,
        transfer_id,
        &request,
        handshake::retry_interval(cfg),
        Duration::from_secs(30),
    )?;

    // Data phase.
    let mut engine: Box<dyn Engine> = if multiblast {
        Box::new(MultiBlastSender::new(transfer_id, Arc::from(data), cfg))
    } else {
        Box::new(BlastSender::new(transfer_id, Arc::from(data), cfg))
    };
    let mut driver = Driver::new(channel);
    let out = driver.run(engine.as_mut())?;
    let fcs_drops = driver.into_channel().fcs_drops;
    TransferReport::from_drive(
        "transfer",
        out,
        reply.datagrams_sent,
        fcs_drops,
        engine.pacing_snapshot(),
        Vec::new(),
    )
}

/// Wait for a transfer on `channel` and receive it to completion.
///
/// The receive buffer is allocated *before* the data phase, from the
/// handshake's length field — the paper's pre-allocation premise.  The
/// sender's packet size and strategy are adopted from the request.
pub fn recv_data<C: Channel>(channel: C, cfg: &ProtocolConfig) -> io::Result<TransferReport> {
    let mut channel = FcsChannel::new(channel);
    // Wait for a request.
    let mut buf = vec![0u8; MAX_DATAGRAM];
    let deadline = Instant::now() + Duration::from_secs(30);
    let (transfer_id, info, echo) = loop {
        if Instant::now() > deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "no request received",
            ));
        }
        let Some(n) = channel.recv_timeout(&mut buf, Duration::from_millis(100))? else {
            continue;
        };
        let Ok(d) = Datagram::parse(&buf[..n]) else {
            continue;
        };
        if d.kind != PacketKind::Request {
            continue;
        }
        let Some(info) = Request::decode(d.payload) else {
            continue;
        };
        break (d.transfer_id, info, buf[..n].to_vec());
    };

    // Pre-allocate and echo.
    let mut rcfg = cfg.clone();
    info.apply_to(&mut rcfg);
    let mut engine = BlastReceiver::new(transfer_id, info.len, &rcfg);
    channel.send(&echo)?;

    let mut driver = Driver::new(channel).with_linger();
    driver.request_reply = Some(echo);
    let out = driver.run(&mut engine)?;
    let fcs_drops = driver.into_channel().fcs_drops;
    // The one datagram sent before the driver took over is the echo.
    TransferReport::from_drive("receive", out, 1, fcs_drops, None, engine.into_data())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::UdpChannel;
    use crate::fault::{FaultConfig, FaultyChannel};
    use blast_core::config::RetxStrategy;

    fn cfg(ms: u64) -> ProtocolConfig {
        let mut c = ProtocolConfig::default();
        c.timeout = Duration::from_millis(ms).into();
        c.max_retries = 100_000;
        c
    }

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i.wrapping_mul(97) % 256) as u8).collect()
    }

    #[test]
    fn clean_loopback_transfer() {
        let (a, b) = UdpChannel::pair().unwrap();
        let c = cfg(15);
        let data = payload(200_000);
        let data2 = data.clone();
        let c2 = c.clone();
        let rx = std::thread::spawn(move || recv_data(b, &c2).unwrap());
        let tx = send_data(a, 42, &data, &c).unwrap();
        let report = rx.join().unwrap();
        assert_eq!(report.data, data2);
        assert!(tx.stats.data_packets_sent >= 196);
        assert!(report.goodput_mbps(data2.len()) > 1.0);
    }

    #[test]
    fn lossy_transfer_recovers_all_strategies() {
        for strategy in RetxStrategy::ALL {
            let (a, b) = UdpChannel::pair().unwrap();
            let mut c = cfg(10);
            c.strategy = strategy;
            let data = payload(60_000);
            let data2 = data.clone();
            let c2 = c.clone();
            // 10 % loss on the sender side only (data packets).
            let faulty = FaultyChannel::new(a, FaultConfig::loss(0.10), 99);
            let rx = std::thread::spawn(move || recv_data(b, &c2).unwrap());
            let tx = send_data(faulty, 1, &data, &c).unwrap();
            let report = rx.join().unwrap();
            assert_eq!(report.data, data2, "{strategy}");
            assert!(
                tx.stats.data_packets_retransmitted > 0,
                "{strategy}: loss must cause retransmission"
            );
        }
    }

    #[test]
    fn chaos_transfer_is_still_correct() {
        // Loss + duplication + reordering + corruption on both sides.
        let (a, b) = UdpChannel::pair().unwrap();
        let c = cfg(10);
        let data = payload(40_000);
        let data2 = data.clone();
        let c2 = c.clone();
        let fa = FaultyChannel::new(a, FaultConfig::chaos(0.05), 7);
        let fb = FaultyChannel::new(b, FaultConfig::chaos(0.05), 8);
        let rx = std::thread::spawn(move || recv_data(fb, &c2).unwrap());
        let _tx = send_data(fa, 9, &data, &c).unwrap();
        let report = rx.join().unwrap();
        assert_eq!(report.data, data2);
    }

    #[test]
    fn corruption_is_detected_not_delivered() {
        let (a, b) = UdpChannel::pair().unwrap();
        let c = cfg(10);
        let data = payload(30_000);
        let data2 = data.clone();
        let c2 = c.clone();
        let fa = FaultyChannel::new(
            a,
            FaultConfig {
                corrupt: 0.2,
                ..FaultConfig::none()
            },
            3,
        );
        let rx = std::thread::spawn(move || recv_data(b, &c2).unwrap());
        let _tx = send_data(fa, 2, &data, &c).unwrap();
        let report = rx.join().unwrap();
        assert_eq!(
            report.data, data2,
            "corrupted packets must never corrupt the payload"
        );
        assert!(
            report.malformed > 0,
            "some corruption should have been caught on receive"
        );
    }

    #[test]
    fn multiblast_transfer() {
        let (a, b) = UdpChannel::pair().unwrap();
        let mut c = cfg(15);
        c.multiblast_chunk = 16;
        let data = payload(300_000);
        let data2 = data.clone();
        let c2 = c.clone();
        let rx = std::thread::spawn(move || recv_data(b, &c2).unwrap());
        let tx = send_data_multiblast(a, 77, &data, &c).unwrap();
        let report = rx.join().unwrap();
        assert_eq!(report.data, data2);
        // ~294 packets in chunks of 16 → ≥ 19 chunk acks.
        assert!(
            report.stats.acks_sent >= 19,
            "acks {}",
            report.stats.acks_sent
        );
        assert!(tx.elapsed > Duration::ZERO);
    }

    #[test]
    fn zero_length_transfer() {
        let (a, b) = UdpChannel::pair().unwrap();
        let c = cfg(15);
        let c2 = c.clone();
        let rx = std::thread::spawn(move || recv_data(b, &c2).unwrap());
        send_data(a, 3, &[], &c).unwrap();
        let report = rx.join().unwrap();
        assert!(report.data.is_empty());
    }
}
