//! The blob store a node serves: one in-memory catalogue, [`MemStore`].
//!
//! This is the `blast-vkernel` file-server idea carried down to the
//! page level: the paper's motivating workload is a client that
//! "allocates a buffer big enough to contain that file", asks the
//! server for it by name, and has the whole thing moved into its
//! address space in one bulk transfer.  [`MemStore`] is that server's
//! catalogue — named, immutable byte blobs, each pulled or pushed as
//! one blast transfer — without the surrounding IPC machinery.
//!
//! Blobs are `Arc<Vec<u8>>` so that neither end of a transfer copies
//! the catalogue entry.  Serving a pull shares the allocation with the
//! session's sender engine, and a concurrent `put` under the same name
//! simply swaps the `Arc` without disturbing in-flight transfers.  A
//! completed push is committed by moving its receive buffer — a
//! `Vec<u8>` — into `Arc::new`: a pointer move, where an `Arc<[u8]>`
//! would copy every byte into a fresh allocation.  And a displaced blob
//! no reader still holds comes back out of its `Arc` as a `Vec` whole,
//! so the node can receive its next push of the same length into it.
//!
//! The node's reactor shards share one store ([`SharedStore`] =
//! `Arc<MemStore>`) behind one `RwLock`.  Every store call happens at a
//! session *boundary* (handshake, completion) — at most two per
//! transfer — and the per-packet hot path only ever touches the blob
//! it was handed, so it stays allocation-free and lock-free.

use std::collections::BTreeMap;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

type Blobs = BTreeMap<String, Arc<Vec<u8>>>;

/// A named catalogue of immutable byte blobs, shareable across the
/// node's reactor shards.
///
/// All methods take `&self`: `get` shares the allocation, and a `put`
/// under an existing name swaps the entry without disturbing in-flight
/// readers.
#[derive(Debug, Default)]
pub struct MemStore {
    blobs: RwLock<Blobs>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn read(&self) -> RwLockReadGuard<'_, Blobs> {
        self.blobs.read().expect("store poisoned")
    }

    fn write(&self) -> RwLockWriteGuard<'_, Blobs> {
        self.blobs.write().expect("store poisoned")
    }

    /// Fetch `name`, sharing the allocation.
    pub fn get(&self, name: &str) -> Option<Arc<Vec<u8>>> {
        self.read().get(name).cloned()
    }

    /// Insert (or replace) `name`.  In-flight pulls of a replaced blob
    /// keep the version they started with.
    pub fn put(&self, name: &str, data: Arc<Vec<u8>>) {
        self.write().insert(name.to_string(), data);
    }

    /// Whether `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.read().contains_key(name)
    }

    /// Remove `name`, returning the blob if present.
    pub fn remove(&self, name: &str) -> Option<Arc<Vec<u8>>> {
        self.write().remove(name)
    }

    /// Number of blobs stored.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// True when the catalogue is empty.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// Total payload bytes across all blobs.
    pub fn total_bytes(&self) -> usize {
        self.read().values().map(|b| b.len()).sum()
    }

    /// Blob names in sorted order.
    pub fn names(&self) -> Vec<String> {
        self.read().keys().cloned().collect()
    }
}

/// The store as shared between a running server, its shards, and its
/// owner.
pub type SharedStore = Arc<MemStore>;

/// A fresh, empty [`SharedStore`].
pub fn shared_store() -> SharedStore {
    Arc::new(MemStore::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_replace() {
        let s = MemStore::new();
        assert!(s.is_empty());
        s.put("a", vec![1u8, 2, 3].into());
        s.put("b", vec![9u8; 10].into());
        assert_eq!(s.len(), 2);
        assert_eq!(s.total_bytes(), 13);
        assert_eq!(s.get("a").unwrap().as_ref(), &[1, 2, 3]);
        assert!(s.get("missing").is_none());
        s.put("a", vec![7u8; 4].into());
        assert_eq!(s.len(), 2, "replacement, not duplication");
        assert_eq!(s.get("a").unwrap().len(), 4);
        assert_eq!(s.names(), vec!["a", "b"]);
    }

    #[test]
    fn inflight_pull_keeps_replaced_version() {
        let s = shared_store();
        s.put("model", vec![1u8; 100].into());
        let inflight = s.get("model").unwrap();
        s.put("model", vec![2u8; 50].into());
        assert_eq!(inflight.len(), 100, "old Arc still alive");
        assert_eq!(s.get("model").unwrap().len(), 50);
    }

    #[test]
    fn remove_and_contains() {
        let s = MemStore::new();
        s.put("x", vec![0u8; 8].into());
        assert!(s.contains("x"));
        assert_eq!(s.remove("x").unwrap().len(), 8);
        assert!(!s.contains("x"));
        assert!(s.remove("x").is_none());
    }

    #[test]
    fn mem_store_mirrors_blob_store_semantics() {
        let s = MemStore::new();
        assert!(s.is_empty());
        s.put("a", vec![1u8, 2, 3].into());
        s.put("b", vec![9u8; 10].into());
        assert_eq!(s.len(), 2);
        assert_eq!(s.total_bytes(), 13);
        assert_eq!(s.get("a").unwrap().as_ref(), &[1, 2, 3]);
        assert!(s.get("missing").is_none());
        s.put("a", vec![7u8; 4].into());
        assert_eq!(s.len(), 2, "replacement, not duplication");
        assert_eq!(s.names(), vec!["a", "b"]);
        assert!(s.contains("b"));
        assert_eq!(s.remove("b").unwrap().len(), 10);
        assert!(!s.contains("b"));
    }

    #[test]
    fn shared_store_is_a_trait_object() {
        let s: SharedStore = shared_store();
        s.put("x", vec![5u8; 5].into());
        let inflight = s.get("x").unwrap();
        s.put("x", vec![6u8; 2].into());
        assert_eq!(inflight.len(), 5, "in-flight Arc survives replacement");
        assert_eq!(s.get("x").unwrap().len(), 2);
        assert_eq!(s.names(), vec!["x"]);
    }
}
