//! A bounded pool of reusable packet buffers.
//!
//! The paper's central observation is that large-transfer performance is
//! limited by *per-packet software overhead*, not by the wire.  The most
//! gratuitous modern incarnation of that overhead is allocating a fresh
//! `Vec<u8>` for every datagram an engine emits.  [`BufferPool`] removes
//! it: [`ActionSink::transmit`](crate::api::ActionSink::transmit)'s
//! default checks a fixed-capacity buffer out, the engine builds its
//! packet in it, and the buffer returns to the pool automatically when
//! the driver drops the executed [`crate::api::Action::Transmit`] — so
//! a steady-state transfer recycles a small, bounded set of buffers and
//! performs **zero heap allocations per packet** (verified by the
//! counting-allocator test in `tests/zero_alloc.rs`).  The UDP drivers
//! skip the pool altogether: their sink has the engine build each
//! datagram where it is staged for the kernel.
//!
//! The pool is shared: [`crate::config::ProtocolConfig`] carries a
//! handle, cloning a config (as the `blast-node` server does per
//! session) shares the same pool, so one socket serving many sessions
//! recycles one bounded set of buffers.
//!
//! Ownership doubles as the double-free guard: a [`PooledBuf`] *is* the
//! checkout, and the only way to return a buffer is to drop it.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default capacity of each pooled buffer: one maximum Ethernet payload
/// plus the blast header, rounded up — every packet a validated
/// [`crate::config::ProtocolConfig`] can produce fits without reallocation.
pub const DEFAULT_BUF_CAPACITY: usize = 2048;

/// Default bound on buffers the pool retains when idle.
pub const DEFAULT_MAX_FREE: usize = 256;

#[derive(Debug)]
struct PoolInner {
    free: Mutex<Vec<Vec<u8>>>,
    buf_capacity: usize,
    max_free: usize,
    fresh: AtomicU64,
    discarded: AtomicU64,
}

/// A shared, bounded free-list of packet buffers.
///
/// Cloning the pool clones the *handle*; all clones draw from the same
/// free list.  [`checkout`](BufferPool::checkout) pops a retained buffer
/// (allocating a fresh one only when the pool runs dry), and dropping
/// the returned [`PooledBuf`] checks it back in.  The free list never
/// holds more than [`max_free`](BufferPool::max_free) buffers: surplus
/// check-ins are simply freed, so an arrival burst cannot ratchet the
/// pool's footprint up forever.
#[derive(Debug, Clone)]
pub struct BufferPool {
    inner: Arc<PoolInner>,
}

impl Default for BufferPool {
    fn default() -> Self {
        BufferPool::new(DEFAULT_BUF_CAPACITY, DEFAULT_MAX_FREE)
    }
}

impl BufferPool {
    /// A pool of `buf_capacity`-byte buffers retaining at most
    /// `max_free` of them when idle.
    pub fn new(buf_capacity: usize, max_free: usize) -> Self {
        BufferPool {
            inner: Arc::new(PoolInner {
                free: Mutex::new(Vec::with_capacity(max_free.min(1024))),
                buf_capacity,
                max_free,
                fresh: AtomicU64::new(0),
                discarded: AtomicU64::new(0),
            }),
        }
    }

    /// Check a buffer out.  The buffer is empty (`len == 0`) with at
    /// least [`buf_capacity`](BufferPool::buf_capacity) bytes of
    /// capacity; resizing within that capacity allocates nothing.
    pub fn checkout(&self) -> PooledBuf {
        let mut b = self.checkout_raw();
        b.clear();
        b
    }

    /// Check a buffer out pre-sized to `len` bytes of **unspecified
    /// content** — the fast path for builders that overwrite every byte
    /// anyway (`blast_wire::DatagramBuilder` does: header cleared and
    /// set, payload copied).  Recycled buffers keep their previous
    /// length, so in the steady state this truncate-or-extend writes
    /// nothing at all; a plain `vec![0; len]` would zero the lot just
    /// to have it overwritten.
    pub fn checkout_sized(&self, len: usize) -> PooledBuf {
        let mut b = self.checkout_raw();
        b.resize(len, 0);
        b
    }

    /// Pop a recycled buffer (length as it was checked in) or allocate.
    fn checkout_raw(&self) -> PooledBuf {
        let recycled = self.inner.free.lock().expect("pool lock").pop();
        let buf = match recycled {
            Some(buf) => buf,
            None => {
                self.inner.fresh.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(self.inner.buf_capacity)
            }
        };
        PooledBuf {
            buf,
            pool: Some(Arc::clone(&self.inner)),
        }
    }

    /// Pre-fill the free list so the first `n` checkouts are allocation
    /// free (capped at [`max_free`](BufferPool::max_free)).
    pub fn warm(&self, n: usize) {
        let mut free = self.inner.free.lock().expect("pool lock");
        while free.len() < n.min(self.inner.max_free) {
            free.push(Vec::with_capacity(self.inner.buf_capacity));
        }
    }

    /// Capacity each pooled buffer is created with.
    pub fn buf_capacity(&self) -> usize {
        self.inner.buf_capacity
    }

    /// Bound on buffers retained while idle.
    pub fn max_free(&self) -> usize {
        self.inner.max_free
    }

    /// Buffers currently retained, awaiting checkout.
    pub fn free_count(&self) -> usize {
        self.inner.free.lock().expect("pool lock").len()
    }

    /// Checkouts that had to allocate because the pool was dry
    /// (pre-filling via [`warm`](BufferPool::warm) is not counted, so
    /// this is a true dry-pool signal).
    pub fn fresh_allocations(&self) -> u64 {
        self.inner.fresh.load(Ordering::Relaxed)
    }

    /// Check-ins dropped because the free list was already full.
    pub fn discarded_checkins(&self) -> u64 {
        self.inner.discarded.load(Ordering::Relaxed)
    }
}

impl PoolInner {
    fn checkin(&self, buf: Vec<u8>) {
        let mut free = self.free.lock().expect("pool lock");
        if free.len() < self.max_free {
            // Retained as-is (length included): `checkout_sized` then
            // truncates rather than re-zeroing, and `checkout` clears —
            // both O(1).
            free.push(buf);
        } else {
            self.discarded.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// An owned packet buffer, checked out of a [`BufferPool`] (or detached,
/// when built from a plain `Vec<u8>`).
///
/// Dereferences to `Vec<u8>`, so the wire builders' `&mut [u8]` APIs and
/// `resize`/`truncate` work directly.  Dropping a pooled buffer returns
/// its storage to the pool; a detached buffer just frees.  Cloning
/// always produces a *detached* deep copy — clones are a test
/// convenience, not part of the hot path.
#[derive(Debug)]
pub struct PooledBuf {
    buf: Vec<u8>,
    pool: Option<Arc<PoolInner>>,
}

impl PooledBuf {
    /// A detached buffer wrapping `bytes` (no pool; dropping frees).
    fn detached(bytes: Vec<u8>) -> Self {
        PooledBuf {
            buf: bytes,
            pool: None,
        }
    }

    /// Extract the bytes, detaching them from the pool (the pool simply
    /// allocates afresh when it next runs dry).
    pub fn into_vec(mut self) -> Vec<u8> {
        self.pool = None;
        std::mem::take(&mut self.buf)
    }
}

impl From<Vec<u8>> for PooledBuf {
    fn from(bytes: Vec<u8>) -> Self {
        PooledBuf::detached(bytes)
    }
}

impl Clone for PooledBuf {
    fn clone(&self) -> Self {
        PooledBuf::detached(self.buf.clone())
    }
}

impl PartialEq for PooledBuf {
    fn eq(&self, other: &Self) -> bool {
        self.buf == other.buf
    }
}

impl Eq for PooledBuf {}

impl Deref for PooledBuf {
    type Target = Vec<u8>;

    fn deref(&self) -> &Vec<u8> {
        &self.buf
    }
}

impl DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.checkin(std::mem::take(&mut self.buf));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_recycles_on_drop() {
        let pool = BufferPool::new(128, 4);
        assert_eq!(pool.free_count(), 0);
        let a = pool.checkout();
        assert_eq!(pool.fresh_allocations(), 1);
        assert_eq!(a.len(), 0);
        assert!(a.capacity() >= 128);
        drop(a);
        assert_eq!(pool.free_count(), 1);
        let b = pool.checkout();
        assert_eq!(pool.fresh_allocations(), 1, "second checkout recycles");
        assert_eq!(pool.free_count(), 0);
        drop(b);
    }

    #[test]
    fn checkin_respects_bound() {
        let pool = BufferPool::new(64, 2);
        let bufs: Vec<PooledBuf> = (0..5).map(|_| pool.checkout()).collect();
        assert_eq!(pool.fresh_allocations(), 5);
        drop(bufs);
        assert_eq!(pool.free_count(), 2, "free list capped at max_free");
        assert_eq!(pool.discarded_checkins(), 3);
    }

    #[test]
    fn checked_in_buffers_come_back_empty() {
        let pool = BufferPool::new(64, 4);
        let mut a = pool.checkout_sized(48);
        a[0] = 0xAA;
        drop(a);
        let b = pool.checkout();
        assert_eq!(b.len(), 0, "recycled buffer is cleared");
        assert!(b.capacity() >= 48);
    }

    #[test]
    fn warm_prefills_up_to_bound() {
        let pool = BufferPool::new(64, 3);
        pool.warm(10);
        assert_eq!(pool.free_count(), 3);
        assert_eq!(
            pool.fresh_allocations(),
            0,
            "warming is not a dry-pool event"
        );
        let _a = pool.checkout();
        assert_eq!(
            pool.fresh_allocations(),
            0,
            "warmed checkout stays fresh-free"
        );
    }

    #[test]
    fn clones_share_the_free_list() {
        let pool = BufferPool::new(64, 4);
        let pool2 = pool.clone();
        drop(pool2.checkout());
        assert_eq!(pool.free_count(), 1);
        assert_eq!(BufferPool::default().free_count(), 0);
    }

    #[test]
    fn detached_buffers_skip_the_pool() {
        let pool = BufferPool::new(64, 4);
        let d: PooledBuf = vec![1, 2, 3].into();
        assert_eq!(&d[..], [1, 2, 3]);
        drop(d);
        assert_eq!(pool.free_count(), 0);
    }

    #[test]
    fn into_vec_detaches_a_pooled_buffer() {
        let pool = BufferPool::new(64, 4);
        let mut a = pool.checkout();
        a.extend_from_slice(b"abc");
        let v = a.into_vec();
        assert_eq!(v, b"abc");
        assert_eq!(pool.free_count(), 0, "extracted storage never checks in");
    }

    #[test]
    fn equality_and_clone_are_by_contents() {
        let pool = BufferPool::new(64, 4);
        let mut a = pool.checkout();
        a.extend_from_slice(b"xyz");
        let b = a.clone();
        assert_eq!(a, b);
        drop((a, b));
        assert_eq!(pool.free_count(), 1, "clones are detached");
    }
}
