//! The receiver's grant: how much of a blast its socket holds, and how
//! fast it drains it.
//!
//! The paper's blast goes as fast as the slower end can copy packets
//! into buffers the receiver set aside before the transfer.  Over UDP
//! the buffer that overflows first is the receiver's socket queue, and
//! only the receiver can see it, so the receiver's side of the
//! handshake states it (UDT's flow window is the same idea; SNIPPETS.md
//! §3): a node's push echo, a client's pull request, and the same two
//! messages on a node's third-party copy legs carry a
//! [`Grant`] in the extension area ([`blast_wire::ext`]).  The sender
//! bursts at most the grant and starts its first round there
//! ([`Control::grant`](blast_core::control::Control::grant)).
//!
//! * **The queue share** is what the socket holds: the `SO_RCVBUF` it
//!   reports over what the kernel charges per datagram of the
//!   transfer's size (`datagram_charge`), divided among the sessions
//!   on that socket and never more than the grants in force leave of
//!   it ([`grant`]).  On Linux, a 4 MiB request (reported as 8 MiB)
//!   holds 3 640 datagrams of 1 444 B; under the default
//!   `net.core.rmem_max` of 212 992 B, 184.
//! * **The drain interval** `Cr` is the receiver's own measured time
//!   per datagram: the mean interval between the round-0 datagrams of
//!   its last transfers
//!   ([`Control::receive_interval`](blast_core::control::Control::receive_interval)),
//!   smoothed by [`smooth`].  It sets how long a sender's tail timer
//!   waits, beyond the RTO, for the receiver to work through a round.

use std::time::Duration;

pub use blast_wire::Grant;

use crate::fcs::FCS_LEN;

/// What a Linux receive queue is charged for one datagram of `len`
/// bytes (the socket buffer's `truesize`): the data allocation, sized
/// to the next power of two of the datagram plus the kernel's headroom,
/// headers and shared info (at least 1 KiB), plus the 256-byte buffer
/// head.  Measured on loopback: 1 280 B up to 500-byte datagrams,
/// 2 304 B from 1 000 to 1 600 B, 4 352 B at 2 100 B — never above this.
fn datagram_charge(len: usize) -> usize {
    const OVERHEAD: usize = 448;
    const HEAD: usize = 256;
    (len + OVERHEAD).next_power_of_two().max(1024) + HEAD
}

/// The grant a receiver whose socket reports `rcvbuf` bytes gives the
/// next of `sessions` transfers of `packet_payload`-byte packets
/// (framed: blast header, payload, FCS) when `held` datagrams of the
/// queue are granted to transfers still receiving on it, having
/// measured `drain` per datagram (none yet: 0).  An equal share of the
/// queue, but never more than the grants in force leave of it, so they
/// never sum past the queue: a grant cannot shrink once given, and the
/// first of several overlapping sessions holds the whole queue.  `None`
/// when less than `floor` is left (or than the equal share, where that
/// is smaller): the sender then paces as one that was never granted.
pub fn grant(
    rcvbuf: usize,
    packet_payload: usize,
    sessions: usize,
    held: usize,
    floor: u32,
    drain: Option<Duration>,
) -> Option<Grant> {
    let datagram = blast_wire::HEADER_LEN + packet_payload + FCS_LEN;
    let queue = rcvbuf / datagram_charge(datagram);
    let fair = queue / sessions.max(1);
    let share = fair.min(queue.saturating_sub(held));
    if share == 0 || share < fair.min(floor as usize) {
        return None;
    }
    let drain_ns = drain.map_or(0, |d| d.as_nanos().min(u128::from(u32::MAX)) as u32);
    Some(Grant {
        queue: share.min(u32::MAX as usize) as u32,
        drain_ns,
    })
}

/// Fold one transfer's measured receive interval into the receiver's
/// drain estimate, with the round-trip estimator's gain of 1/8.
pub fn smooth(drain: Option<Duration>, sample: Duration) -> Duration {
    match drain {
        None => sample,
        Some(d) => d - d / 8 + sample / 8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_charge_matches_the_measured_truesize() {
        for (len, charge) in [(64, 1280), (500, 1280), (1000, 2304), (1444, 2304)] {
            assert_eq!(datagram_charge(len), charge, "{len}");
        }
        assert_eq!(datagram_charge(1600), 2304);
        assert_eq!(datagram_charge(2100), 4352);
    }

    #[test]
    fn a_grant_shares_the_queue_among_the_sessions() {
        // 1 408-byte packets frame to 1 444-byte datagrams.
        let eight_mib = 8 << 20;
        let queue =
            |rcvbuf, sessions, held| grant(rcvbuf, 1408, sessions, held, 64, None).map(|g| g.queue);
        assert_eq!(queue(eight_mib, 1, 0), Some(3640));
        assert_eq!(queue(425_984, 1, 0), Some(184));
        assert_eq!(queue(eight_mib, 4, 0), Some(910));
        assert_eq!(queue(eight_mib, 0, 0), Some(3640));
        // A queue smaller than the floor is still granted, whole.
        assert_eq!(grant(425_984, 8000, 1, 0, 64, None).unwrap().queue, 25);
        // Never more than the grants in force leave; none below the floor.
        assert_eq!(queue(eight_mib, 2, 3000), Some(640));
        assert_eq!(queue(eight_mib, 2, 3600), None);
        assert_eq!(queue(eight_mib, 2, 3640), None);
        assert_eq!(queue(eight_mib, 2, usize::MAX), None);
        assert_eq!(grant(eight_mib, 1408, 2, 3639, 0, None).unwrap().queue, 1);
        let drain = Some(Duration::from_nanos(850));
        let g = |drain| grant(eight_mib, 1408, 1, 0, 64, drain).unwrap().drain_ns;
        assert_eq!(g(drain), 850);
        assert_eq!(g(Some(Duration::from_secs(10))), u32::MAX);
    }

    #[test]
    fn the_drain_estimate_smooths_from_its_first_sample() {
        let us = Duration::from_micros;
        assert_eq!(smooth(None, us(8)), us(8));
        assert_eq!(smooth(Some(us(8)), us(16)), us(9));
    }
}
