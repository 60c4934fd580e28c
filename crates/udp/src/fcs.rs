//! Frame check sequence for UDP framing.
//!
//! On the paper's hardware the 3-Com interface appended and verified
//! the Ethernet FCS; corrupted frames were dropped before software ever
//! saw them, which is why the paper can model errors as packet *loss*.
//! The blast transport header carries its own checksum, but the payload
//! does not — by design, payload integrity is the FCS's job.
//! [`FcsChannel`] restores that division of labour over UDP: a CRC-32
//! (the Ethernet polynomial) trailer on every datagram, verified and
//! stripped on receive, with mismatches counted and dropped.
//!
//! Both sides pay the CRC once per datagram.  A sender builds each
//! datagram where it is staged ([`build`]): the engine writes it there
//! and the FCS is computed over those bytes while they are still in
//! cache and written after them, so framing copies nothing.  With
//! [`crc32`]'s 512-bit carry-less-multiply kernel (VPCLMULQDQ) that
//! CRC costs ≈ 30–50 ns for a 1 436-byte datagram on a 2-vCPU x86-64
//! Xeon, ≈ 75–105 ns with the 128-bit one (PCLMULQDQ), and ≈ 1 µs on
//! the slicing-by-8 tables (other CPUs).  [`frame`] and [`frame_into`]
//! frame a copy, for callers that hold a finished datagram.

use std::io;
use std::time::{Duration, Instant};

use blast_wire::checksum::crc32;

use crate::channel::Channel;

/// Bytes the FCS trailer adds to every datagram.
pub const FCS_LEN: usize = 4;

/// Build a wire frame in place: `write` fills `frame`'s body (all but
/// its last [`FCS_LEN`] bytes) and the body's FCS follows it.  Panics
/// if `frame` is shorter than the trailer.
///
/// The building block of every send path: an [`FcsChannel`] builds in
/// its frame scratch, and drivers that manage raw sockets themselves
/// (the `blast-node` server sends on an unconnected socket, which the
/// connected [`Channel`] abstraction cannot express) build in their
/// backend's send arena.
pub fn build(frame: &mut [u8], write: &mut dyn FnMut(&mut [u8])) {
    let (body, trailer) = frame.split_at_mut(frame.len() - FCS_LEN);
    write(body);
    trailer.copy_from_slice(&crc32(body).to_be_bytes());
}

/// Append the FCS trailer to a copy of `payload`, producing the wire
/// frame.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut framed = Vec::with_capacity(payload.len() + FCS_LEN);
    frame_into(payload, &mut framed);
    framed
}

/// Frame a copy of `payload` into `out` (cleared first), reusing
/// whatever capacity it already holds: the zero-allocation variant of
/// [`frame`].
pub fn frame_into(payload: &[u8], out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_be_bytes());
}

/// Verify and strip the FCS trailer of a received frame, returning the
/// payload length.  `None` means the frame is corrupt (or too short to
/// carry an FCS) and must be treated as loss.
pub fn unframe(frame: &[u8]) -> Option<usize> {
    let body = frame.len().checked_sub(4)?;
    let got = u32::from_be_bytes(frame[body..].try_into().expect("4-byte slice"));
    (crc32(&frame[..body]) == got).then_some(body)
}

/// Channel wrapper adding an Ethernet-style FCS to every datagram.
#[derive(Debug)]
pub struct FcsChannel<C: Channel> {
    inner: C,
    /// Datagrams dropped because their FCS failed to verify.
    pub fcs_drops: u64,
    /// Reused frame scratch, grown to the largest frame sent and never
    /// shrunk: after the first send, framing a datagram allocates and
    /// zero-fills nothing.
    scratch: Vec<u8>,
}

impl<C: Channel> FcsChannel<C> {
    /// Have `write` build a `len`-byte datagram in the frame scratch,
    /// framed ([`build`]), and hand the frame to `pass`.
    fn framed(
        &mut self,
        len: usize,
        write: &mut dyn FnMut(&mut [u8]),
        pass: impl FnOnce(&mut C, &[u8]) -> io::Result<()>,
    ) -> io::Result<()> {
        let n = len + FCS_LEN;
        if self.scratch.len() < n {
            self.scratch.resize(n, 0);
        }
        let frame = &mut self.scratch[..n];
        build(frame, write);
        pass(&mut self.inner, frame)
    }

    /// Wrap `inner`.
    pub fn new(inner: C) -> Self {
        FcsChannel {
            inner,
            fcs_drops: 0,
            scratch: Vec::new(),
        }
    }

    /// Take back the wrapped channel.
    pub fn into_inner(self) -> C {
        self.inner
    }
}

impl<C: Channel> Channel for FcsChannel<C> {
    fn send(&mut self, buf: &[u8]) -> io::Result<()> {
        self.framed(buf.len(), &mut |body| body.copy_from_slice(buf), C::send)
    }

    fn stage(&mut self, buf: &[u8]) -> io::Result<()> {
        self.stage_with(buf.len(), &mut |body| body.copy_from_slice(buf))
    }

    fn stage_with(&mut self, len: usize, write: &mut dyn FnMut(&mut [u8])) -> io::Result<()> {
        // Build and frame in the reused scratch, then hand the frame to
        // the inner channel's batch: its `stage` takes the finished
        // bytes, so this is the one copy between the two.
        self.framed(len, write, C::stage)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }

    fn set_recorder(&mut self, recorder: blast_telemetry::Recorder) {
        self.inner.set_recorder(recorder);
    }

    fn discarded(&self) -> u64 {
        self.fcs_drops
    }

    fn recv_buffer(&self) -> Option<usize> {
        self.inner.recv_buffer()
    }

    fn recv_timeout(&mut self, buf: &mut [u8], timeout: Duration) -> io::Result<Option<usize>> {
        self.unframed(buf, |inner, buf| inner.recv_timeout(buf, timeout))
    }

    fn recv_timeout_from(
        &mut self,
        buf: &mut [u8],
        timeout: Duration,
        now: Instant,
    ) -> io::Result<Option<usize>> {
        self.unframed(buf, |inner, buf| inner.recv_timeout_from(buf, timeout, now))
    }
}

impl<C: Channel> FcsChannel<C> {
    /// Receive through `recv` until a frame passes its check (its body's
    /// length) or `recv` times out.
    fn unframed(
        &mut self,
        buf: &mut [u8],
        mut recv: impl FnMut(&mut C, &mut [u8]) -> io::Result<Option<usize>>,
    ) -> io::Result<Option<usize>> {
        loop {
            let Some(n) = recv(&mut self.inner, buf)? else {
                return Ok(None);
            };
            match unframe(&buf[..n]) {
                Some(body) => return Ok(Some(body)),
                // Bad FCS (or a runt frame): the interface drops it
                // silently and the caller's timeout logic proceeds as if
                // it were lost.  Loop for another datagram within the
                // same call so a corrupted frame does not consume the
                // whole timeout budget.
                None => self.fcs_drops += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::UdpChannel;
    use crate::fault::{FaultConfig, FaultyChannel};

    #[test]
    fn clean_roundtrip_strips_fcs() {
        let (a, b) = UdpChannel::pair().unwrap();
        let mut tx = FcsChannel::new(a);
        let mut rx = FcsChannel::new(b);
        tx.send(b"framed!").unwrap();
        let mut buf = [0u8; 64];
        let n = rx
            .recv_timeout(&mut buf, Duration::from_secs(1))
            .unwrap()
            .unwrap();
        assert_eq!(&buf[..n], b"framed!");
        assert_eq!(rx.fcs_drops, 0);
    }

    #[test]
    fn corruption_between_fcs_endpoints_is_dropped() {
        let (a, b) = UdpChannel::pair().unwrap();
        // Corrupt every frame after the FCS is applied.
        let faulty = FaultyChannel::new(
            a,
            FaultConfig {
                corrupt: 1.0,
                ..FaultConfig::none()
            },
            5,
        );
        let mut tx = FcsChannel::new(faulty);
        let mut rx = FcsChannel::new(b);
        tx.send(b"doomed").unwrap();
        let mut buf = [0u8; 64];
        let got = rx
            .recv_timeout(&mut buf, Duration::from_millis(50))
            .unwrap();
        assert_eq!(got, None, "corrupted frame must be dropped, not delivered");
        assert_eq!(rx.fcs_drops, 1);
    }

    #[test]
    fn corrupted_frame_does_not_eat_good_one_in_same_call() {
        let (mut raw_a, b) = UdpChannel::pair().unwrap();
        let mut rx = FcsChannel::new(b);
        // One corrupted frame then one good frame, sent raw.
        let mut bad = b"good".to_vec();
        bad.extend_from_slice(&crc32(b"good").to_be_bytes());
        bad[0] ^= 0xff;
        raw_a.send(&bad).unwrap();
        let mut good = b"good".to_vec();
        good.extend_from_slice(&crc32(b"good").to_be_bytes());
        raw_a.send(&good).unwrap();
        let mut buf = [0u8; 64];
        let n = rx
            .recv_timeout(&mut buf, Duration::from_secs(1))
            .unwrap()
            .unwrap();
        assert_eq!(&buf[..n], b"good");
        assert_eq!(rx.fcs_drops, 1);
    }

    #[test]
    fn runt_frames_dropped() {
        let (mut raw_a, b) = UdpChannel::pair().unwrap();
        let mut rx = FcsChannel::new(b);
        raw_a.send(&[1, 2]).unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(
            rx.recv_timeout(&mut buf, Duration::from_millis(50))
                .unwrap(),
            None
        );
        assert_eq!(rx.fcs_drops, 1);
    }

    #[test]
    fn frame_unframe_roundtrip() {
        let framed = frame(b"payload");
        assert_eq!(framed.len(), 11);
        assert_eq!(unframe(&framed), Some(7));
        let mut bad = framed.clone();
        bad[2] ^= 0x10;
        assert_eq!(unframe(&bad), None);
        assert_eq!(unframe(&[1, 2, 3]), None, "runt frame");
        assert_eq!(unframe(&frame(b"")), Some(0));
    }

    #[test]
    fn a_frame_built_in_place_is_the_framed_copy() {
        let payload: Vec<u8> = (0..1436u32).map(|i| (i * 7) as u8).collect();
        let mut built = vec![0xEE; payload.len() + FCS_LEN];
        build(&mut built, &mut |body| body.copy_from_slice(&payload));
        assert_eq!(built, frame(&payload));
    }

    #[test]
    fn any_single_bit_flip_in_a_full_datagram_is_loss() {
        // A full-size datagram: 1 436 bytes, the size every bulk
        // transfer's data packets frame to.
        let payload: Vec<u8> = (0..1436u32).map(|i| (i * 31 + 7) as u8).collect();
        let framed = frame(&payload);
        assert_eq!(unframe(&framed), Some(payload.len()));
        let mut bad = framed.clone();
        for byte in 0..framed.len() {
            for bit in 0..8 {
                bad[byte] ^= 1 << bit;
                assert_eq!(unframe(&bad), None, "flip at byte {byte} bit {bit}");
                bad[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn empty_payload_frames_ok() {
        let (a, b) = UdpChannel::pair().unwrap();
        let mut tx = FcsChannel::new(a);
        let mut rx = FcsChannel::new(b);
        tx.send(b"").unwrap();
        let mut buf = [0u8; 16];
        let n = rx
            .recv_timeout(&mut buf, Duration::from_secs(1))
            .unwrap()
            .unwrap();
        assert_eq!(n, 0);
    }
}
