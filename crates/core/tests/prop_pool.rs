//! Property tests for the [`BufferPool`]: random checkout/checkin
//! interleavings must never grow the free list past its bound, never
//! lose or duplicate a buffer (ownership is the double-free guard —
//! these tests verify the accounting that relies on it), and always
//! hand out empty, adequately-sized buffers.

use blast_core::pool::{BufferPool, PooledBuf};
use proptest::prelude::*;

proptest! {
    #[test]
    fn free_list_never_exceeds_bound(
        ops in proptest::collection::vec(any::<u8>(), 1..200),
        max_free in 1usize..16,
    ) {
        let pool = BufferPool::new(64, max_free);
        let mut held: Vec<PooledBuf> = Vec::new();
        for op in ops {
            // Even ops check out, odd ops check the oldest held buffer
            // back in (by dropping it).
            if op % 2 == 0 {
                held.push(pool.checkout());
            } else if !held.is_empty() {
                held.remove(0);
            }
            prop_assert!(pool.free_count() <= max_free,
                "free list grew past its bound");
        }
        drop(held);
        prop_assert!(pool.free_count() <= max_free);
    }

    #[test]
    fn no_buffer_is_lost_or_duplicated(
        ops in proptest::collection::vec(any::<u8>(), 1..200),
    ) {
        let pool = BufferPool::new(32, 1000);
        let mut held: Vec<PooledBuf> = Vec::new();
        for op in ops {
            if op % 3 != 0 {
                held.push(pool.checkout());
            } else if !held.is_empty() {
                held.remove(0);
            }
            // Conservation: every buffer ever created is either held by
            // us, retained in the free list, or was discarded over the
            // bound (impossible here, bound = 1000 > ops).
            let created = pool.fresh_allocations() as usize;
            let accounted = held.len() + pool.free_count()
                + pool.discarded_checkins() as usize;
            prop_assert_eq!(created, accounted,
                "created buffers must all be held, free, or discarded");
        }
    }

    #[test]
    fn checkouts_are_empty_and_sized(
        sizes in proptest::collection::vec(1usize..1500, 1..50),
    ) {
        let pool = BufferPool::new(1600, 8);
        for size in sizes {
            let mut buf = pool.checkout_sized(size);
            prop_assert_eq!(buf.len(), size);
            prop_assert!(buf.capacity() >= 1600);
            // Dirty the buffer, return it, and take it again: the pool
            // must clear it.
            buf.fill(0xEE);
            drop(buf);
            let again = pool.checkout();
            prop_assert_eq!(again.len(), 0, "recycled buffers come back empty");
        }
    }

    #[test]
    fn interleaved_use_preserves_contents(
        seeds in proptest::collection::vec(any::<u32>(), 2..20),
    ) {
        // Buffers checked out together must be independent: writing one
        // never corrupts another (a double-free/aliasing bug would).
        let pool = BufferPool::new(64, 8);
        let bufs: Vec<PooledBuf> = seeds
            .iter()
            .map(|&seed| {
                let mut b = pool.checkout();
                b.extend_from_slice(&seed.to_be_bytes());
                b
            })
            .collect();
        for (buf, &seed) in bufs.iter().zip(&seeds) {
            prop_assert_eq!(&buf[..], seed.to_be_bytes());
        }
    }
}
