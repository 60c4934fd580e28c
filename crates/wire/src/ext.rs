//! The extension area: typed fields any datagram can carry after its
//! payload.
//!
//! The fixed header has no room for a new field, and each kind's
//! payload has a layout of its own (a `Request`'s ends at its name, an
//! acknowledgement's at its bitmap, a data packet's is all data).  So a
//! new field rides in one place, the same on every kind: when the
//! header's [`EXT`](crate::header::flags::EXT) flag is set, the payload
//! ends with an area of type-length-value fields and one byte giving
//! the area's length.
//!
//! ```text
//! payload := body ‖ field* ‖ area_len:u8      (area_len = bytes of field*)
//! field   := type:u8 ‖ len:u8 ‖ value[len]
//! ```
//!
//! One decoder ([`Ext::split`], run by
//! [`Datagram::parse`](crate::packet::Datagram::parse) on every kind)
//! validates it: the area is at most [`MAX_AREA`] bytes and lies inside
//! the payload, every field lies inside the area, a known field has its
//! known length and appears at most once, and an unknown type is
//! skipped.  Anything else fails the datagram.  The builders write the
//! area in place after the body
//! ([`DatagramBuilder::ext`](crate::packet::DatagramBuilder::ext)), so no
//! datagram that carries one allocates.
//!
//! One field is defined: the receiver's [`Grant`].

use core::time::Duration;

use crate::error::{WireError, WireResult};

/// Largest area, in bytes of fields (its length byte aside).
pub const MAX_AREA: usize = 64;

/// Field types.
mod ty {
    /// [`super::Grant`]: queue u32 ‖ drain_ns u32.
    pub const GRANT: u8 = 1;
}

/// Bytes of a grant field: its type and length bytes and two `u32`s.
const GRANT_FIELD: usize = 2 + 8;

/// The receiver's grant: how much of a transfer it can hold unread,
/// and how fast it drains it.  Sent by the receiving side of a
/// handshake (a node's push echo, a client's pull request), read by the
/// sender it describes.  See `blast_core::control::Control::grant`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Grant {
    /// Datagrams of the transfer's size the receiver's socket queue
    /// holds for this transfer: its share of the queue.
    pub queue: u32,
    /// The receiver's measured receive cost per datagram (`Cr`), in
    /// nanoseconds; 0 when it has measured none yet.
    pub drain_ns: u32,
}

impl Grant {
    /// [`drain_ns`](Grant::drain_ns) as a duration.
    pub fn drain(&self) -> Duration {
        Duration::from_nanos(u64::from(self.drain_ns))
    }
}

/// The known fields of one datagram's extension area (all `None`: no
/// area).  `Copy` and heap-free, so parsing and building one allocates
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Ext {
    /// The receiver's grant.
    pub grant: Option<Grant>,
}

impl Ext {
    /// No fields: the datagram carries no area.
    pub const NONE: Ext = Ext { grant: None };

    /// True when there is nothing to write.
    pub fn is_empty(&self) -> bool {
        self.grant.is_none()
    }

    /// Bytes the area adds to a datagram's payload, its length byte
    /// included (0 when empty).
    pub fn encoded_len(&self) -> usize {
        if self.is_empty() {
            0
        } else {
            GRANT_FIELD + 1
        }
    }

    /// Write the area into the start of `out`, returning the bytes
    /// written ([`encoded_len`](Ext::encoded_len)).
    pub fn write(&self, out: &mut [u8]) -> WireResult<usize> {
        let need = self.encoded_len();
        if out.len() < need {
            return Err(WireError::Truncated {
                needed: need,
                got: out.len(),
            });
        }
        if let Some(grant) = self.grant {
            out[0] = ty::GRANT;
            out[1] = 8;
            out[2..6].copy_from_slice(&grant.queue.to_be_bytes());
            out[6..10].copy_from_slice(&grant.drain_ns.to_be_bytes());
            out[GRANT_FIELD] = GRANT_FIELD as u8;
        }
        Ok(need)
    }

    /// Split the payload of a datagram whose `EXT` flag is set into its
    /// body and its area's known fields.
    pub fn split(payload: &[u8]) -> WireResult<(&[u8], Ext)> {
        let bad = |field| Err(WireError::BadField { field });
        let Some((&area_len, rest)) = payload.split_last() else {
            return Err(WireError::Truncated { needed: 1, got: 0 });
        };
        let area_len = usize::from(area_len);
        if area_len > MAX_AREA {
            return bad("ext length");
        }
        let Some(body_len) = rest.len().checked_sub(area_len) else {
            return Err(WireError::BadLength {
                claimed: area_len,
                available: rest.len(),
            });
        };
        let (body, mut area) = rest.split_at(body_len);
        let mut ext = Ext::NONE;
        while let [kind, len, tail @ ..] = area {
            let len = usize::from(*len);
            if tail.len() < len {
                return bad("ext field");
            }
            let (value, next) = tail.split_at(len);
            if *kind == ty::GRANT {
                let &[q0, q1, q2, q3, d0, d1, d2, d3] = value else {
                    return bad("ext grant");
                };
                if ext.grant.is_some() {
                    return bad("ext duplicate");
                }
                ext.grant = Some(Grant {
                    queue: u32::from_be_bytes([q0, q1, q2, q3]),
                    drain_ns: u32::from_be_bytes([d0, d1, d2, d3]),
                });
            }
            area = next;
        }
        if !area.is_empty() {
            // One byte left over: a field cut short of its length.
            return bad("ext field");
        }
        Ok((body, ext))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GRANT: Grant = Grant {
        queue: 3640,
        drain_ns: 850,
    };

    fn with_area(body: &[u8], ext: &Ext) -> Vec<u8> {
        let mut p = body.to_vec();
        p.resize(body.len() + ext.encoded_len(), 0);
        let n = ext.write(&mut p[body.len()..]).unwrap();
        assert_eq!(n, ext.encoded_len());
        p
    }

    #[test]
    fn a_grant_round_trips_behind_any_body() {
        let ext = Ext { grant: Some(GRANT) };
        assert_eq!(ext.encoded_len(), 11);
        for body in [&b""[..], b"x", b"a request body"] {
            let p = with_area(body, &ext);
            assert_eq!(Ext::split(&p).unwrap(), (body, ext));
        }
        assert_eq!(GRANT.drain(), Duration::from_nanos(850));
        assert_eq!(Ext::NONE.encoded_len(), 0);
        assert_eq!(
            Ext::split(&[0]).unwrap(),
            (&[][..], Ext::NONE),
            "empty area"
        );
    }

    #[test]
    fn unknown_fields_are_skipped() {
        let mut p = b"body".to_vec();
        p.extend_from_slice(&[9, 3, 1, 2, 3]);
        p.extend_from_slice(&[ty::GRANT, 8, 0, 0, 0, 7, 0, 0, 0, 9]);
        p.extend_from_slice(&[200, 0]);
        p.push(17);
        let (body, ext) = Ext::split(&p).unwrap();
        assert_eq!(body, b"body");
        let grant = Grant {
            queue: 7,
            drain_ns: 9,
        };
        assert_eq!(ext.grant, Some(grant));
    }

    #[test]
    fn truncated_overlong_and_duplicated_areas_fail() {
        let good = with_area(b"body", &Ext { grant: Some(GRANT) });
        // Truncated: no prefix panics the decoder.
        for cut in 0..good.len() {
            let _ = Ext::split(&good[..cut]);
        }
        assert!(Ext::split(&[]).is_err());
        assert!(Ext::split(&[5, 1, 2]).is_err(), "longer than the payload");
        let mut cut_field = b"b".to_vec();
        cut_field.extend_from_slice(&[ty::GRANT, 8, 1, 2, 3, 5]);
        assert!(Ext::split(&cut_field).is_err(), "field past the area");
        let mut short_grant = vec![ty::GRANT, 4, 1, 2, 3, 4];
        short_grant.push(6);
        assert!(
            Ext::split(&short_grant).is_err(),
            "a grant of the wrong length"
        );
        let mut lone = vec![ty::GRANT];
        lone.push(1);
        assert!(Ext::split(&lone).is_err(), "a lone type byte");
        // Overlong: past the bound, even when the payload has the bytes.
        let mut overlong = vec![0u8; MAX_AREA + 1];
        overlong.push((MAX_AREA + 1) as u8);
        assert!(Ext::split(&overlong).is_err());
        // Duplicated: the same known field twice.
        let mut twice = Vec::new();
        for _ in 0..2 {
            twice.extend_from_slice(&[ty::GRANT, 8, 0, 0, 0, 1, 0, 0, 0, 1]);
        }
        twice.push(20);
        assert_eq!(
            Ext::split(&twice).unwrap_err(),
            WireError::BadField {
                field: "ext duplicate"
            }
        );
    }
}
