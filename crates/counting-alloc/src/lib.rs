//! A counting allocator: wraps [`System`] and bumps two global counters
//! on every `alloc`/`realloc` — one by one, one by the bytes asked for.
//!
//! This is the measurement behind the repo's per-packet allocation
//! numbers: the repo benchmark divides the count's delta by the
//! datagrams moved (`counting-alloc.allocs_per_datagram`), and the four
//! `tests/zero_alloc.rs` suites (core, udp, node, telemetry) assert
//! their steady-state loops leave the count untouched.  The byte total
//! catches what a count cannot tell apart from a small allocation: a
//! whole-blob copy (node's suite bounds the bytes a push allocates).
//!
//! The crate exists so the one `unsafe impl` lives in exactly one
//! audited place; consumers stay `forbid(unsafe_code)`-clean and only
//! declare the registration:
//!
//! ```ignore
//! use blast_counting_alloc::CountingAlloc;
//!
//! #[global_allocator]
//! static GLOBAL: CountingAlloc = CountingAlloc;
//! ```

// The one sanctioned use of `unsafe` in the workspace (see the
// workspace lints table in the root Cargo.toml).
#![allow(unsafe_code)]
#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Delegates to [`System`], counting every `alloc` and `realloc` and
/// the bytes each asks for.
pub struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Allocations (plus reallocations) observed so far, process-wide.
/// Measure a region by differencing before/after.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Bytes requested by those allocations so far, process-wide (a
/// reallocation counts its whole new size; frees subtract nothing).
/// Measure a region by differencing before/after.
pub fn bytes_allocated() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

// SAFETY: delegates verbatim to `System`; the only additions are relaxed
// atomic increments of two counters, which allocate nothing and never
// touch the pointers or layouts handed through.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Registered for this test binary so the counter actually moves.
    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    #[test]
    fn counts_heap_activity() {
        let before = allocations();
        let v: Vec<u64> = (0..1024).collect();
        assert!(allocations() > before, "allocation must bump the counter");
        drop(v);
        let before = allocations();
        let _x = 17u64; // stack only
        assert_eq!(allocations(), before, "stack work must not");
    }

    #[test]
    fn counts_the_bytes_asked_for() {
        // Other tests' threads may allocate meanwhile: bound from below.
        let before = bytes_allocated();
        let v = vec![0u8; 1 << 20];
        assert!(bytes_allocated() - before >= 1 << 20, "alloc_zeroed");
        drop(v);
        let mut v: Vec<u8> = Vec::with_capacity(1 << 16);
        let before = bytes_allocated();
        v.reserve_exact(1 << 20);
        assert!(bytes_allocated() - before >= 1 << 20, "realloc, new size");
    }
}
