//! The blob store a node serves, behind a [`Store`] trait.
//!
//! This is the `blast-vkernel` file-server idea carried down to the
//! page level: the paper's motivating workload is a client that
//! "allocates a buffer big enough to contain that file", asks the
//! server for it by name, and has the whole thing moved into its
//! address space in one bulk transfer.  [`BlobStore`] is that server's
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
//! Since the node itself is sharded across reactor threads, the store
//! is accessed concurrently and its public face is the object-safe
//! [`Store`] trait ([`SharedStore`] = `Arc<dyn Store>`): the default
//! [`MemStore`] shards a `RwLock`-guarded catalogue by name hash so
//! pulls on different shards never contend, and a file-backed
//! implementation can slot in later without another API break.  All
//! store calls happen at session *boundaries* (handshake, completion) —
//! the per-packet hot path only ever touches the blob it was
//! handed, so it stays allocation-free and lock-free.

use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

/// A named catalogue of immutable byte blobs.
#[derive(Debug, Default)]
pub struct BlobStore {
    blobs: BTreeMap<String, Arc<Vec<u8>>>,
    /// Blobs inserted over the store's lifetime (puts, not distinct
    /// names).
    pub puts: u64,
}

impl BlobStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert (or replace) `name`.  In-flight pulls of a replaced blob
    /// keep the version they started with.
    pub fn put(&mut self, name: &str, data: impl Into<Arc<Vec<u8>>>) {
        self.blobs.insert(name.to_string(), data.into());
        self.puts += 1;
    }

    /// Fetch `name`, sharing the allocation.
    pub fn get(&self, name: &str) -> Option<Arc<Vec<u8>>> {
        self.blobs.get(name).cloned()
    }

    /// Whether `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.blobs.contains_key(name)
    }

    /// Remove `name`, returning the blob if present.
    pub fn remove(&mut self, name: &str) -> Option<Arc<Vec<u8>>> {
        self.blobs.remove(name)
    }

    /// Number of blobs stored.
    pub fn len(&self) -> usize {
        self.blobs.len()
    }

    /// True when the catalogue is empty.
    pub fn is_empty(&self) -> bool {
        self.blobs.is_empty()
    }

    /// Total payload bytes across all blobs.
    pub fn total_bytes(&self) -> usize {
        self.blobs.values().map(|b| b.len()).sum()
    }

    /// Blob names in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.blobs.keys().map(String::as_str)
    }
}

/// A blob catalogue shareable across the node's reactor shards.
///
/// Object-safe by design: the node holds a `Arc<dyn Store>` so a
/// file-backed (or tiered) implementation can replace the in-memory
/// default without touching the server.  All methods take `&self` —
/// implementations synchronise internally, and the contract mirrors
/// [`BlobStore`]: `get` shares the allocation, a `put` under an
/// existing name swaps the entry without disturbing in-flight readers.
pub trait Store: Send + Sync + std::fmt::Debug {
    /// Fetch `name`, sharing the allocation.
    fn get(&self, name: &str) -> Option<Arc<Vec<u8>>>;

    /// Insert (or replace) `name`.
    fn put(&self, name: &str, data: Arc<Vec<u8>>);

    /// Whether `name` exists.
    fn contains(&self, name: &str) -> bool;

    /// Remove `name`, returning the blob if present.
    fn remove(&self, name: &str) -> Option<Arc<Vec<u8>>>;

    /// Number of blobs stored.
    fn len(&self) -> usize;

    /// True when the catalogue is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total payload bytes across all blobs.
    fn total_bytes(&self) -> usize;

    /// Blob names in sorted order.
    fn names(&self) -> Vec<String>;
}

/// How many independently locked catalogue shards [`MemStore`] keeps.
/// A small power of two: enough that concurrent sessions touching
/// different blobs practically never share a lock, cheap enough that
/// whole-store scans (`len`, `names`) stay trivial.
const STORE_SHARDS: usize = 8;

/// The default [`Store`]: an in-memory catalogue sharded by name hash.
///
/// Each shard is its own `RwLock<BlobStore>`, so reactor shards serving
/// pulls of different blobs take different read locks, and even the
/// same blob admits concurrent readers.  Store calls only happen at
/// session boundaries; the packet hot path works on the blob
/// handed out here and never comes back to the catalogue.
#[derive(Debug)]
pub struct MemStore {
    shards: Vec<RwLock<BlobStore>>,
}

impl Default for MemStore {
    fn default() -> Self {
        MemStore {
            shards: (0..STORE_SHARDS).map(|_| RwLock::default()).collect(),
        }
    }
}

impl MemStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// FNV-1a over the blob name picks the catalogue shard.
    fn shard(&self, name: &str) -> &RwLock<BlobStore> {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in name.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        &self.shards[(hash as usize) % self.shards.len()]
    }

    /// Blobs inserted over the store's lifetime (puts, not distinct
    /// names).
    pub fn puts(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.read().expect("store shard poisoned").puts)
            .sum()
    }
}

impl Store for MemStore {
    fn get(&self, name: &str) -> Option<Arc<Vec<u8>>> {
        self.shard(name)
            .read()
            .expect("store shard poisoned")
            .get(name)
    }

    fn put(&self, name: &str, data: Arc<Vec<u8>>) {
        self.shard(name)
            .write()
            .expect("store shard poisoned")
            .put(name, data);
    }

    fn contains(&self, name: &str) -> bool {
        self.shard(name)
            .read()
            .expect("store shard poisoned")
            .contains(name)
    }

    fn remove(&self, name: &str) -> Option<Arc<Vec<u8>>> {
        self.shard(name)
            .write()
            .expect("store shard poisoned")
            .remove(name)
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("store shard poisoned").len())
            .sum()
    }

    fn total_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("store shard poisoned").total_bytes())
            .sum()
    }

    fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .expect("store shard poisoned")
                    .names()
                    .map(str::to_string)
                    .collect::<Vec<_>>()
            })
            .collect();
        names.sort();
        names
    }
}

/// The store as shared between a running server, its shards, and its
/// owner.
pub type SharedStore = Arc<dyn Store>;

/// A fresh, empty [`SharedStore`] backed by [`MemStore`].
pub fn shared_store() -> SharedStore {
    Arc::new(MemStore::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_replace() {
        let mut s = BlobStore::new();
        assert!(s.is_empty());
        s.put("a", vec![1u8, 2, 3]);
        s.put("b", vec![9u8; 10]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.total_bytes(), 13);
        assert_eq!(s.get("a").unwrap().as_ref(), &[1, 2, 3]);
        assert!(s.get("missing").is_none());
        s.put("a", vec![7u8; 4]);
        assert_eq!(s.len(), 2, "replacement, not duplication");
        assert_eq!(s.get("a").unwrap().len(), 4);
        assert_eq!(s.puts, 3);
        assert_eq!(s.names().collect::<Vec<_>>(), vec!["a", "b"]);
    }

    #[test]
    fn inflight_pull_keeps_replaced_version() {
        let mut s = BlobStore::new();
        s.put("model", vec![1u8; 100]);
        let inflight = s.get("model").unwrap();
        s.put("model", vec![2u8; 50]);
        assert_eq!(inflight.len(), 100, "old Arc still alive");
        assert_eq!(s.get("model").unwrap().len(), 50);
    }

    #[test]
    fn remove_and_contains() {
        let mut s = BlobStore::new();
        s.put("x", vec![0u8; 8]);
        assert!(s.contains("x"));
        assert_eq!(s.remove("x").unwrap().len(), 8);
        assert!(!s.contains("x"));
        assert!(s.remove("x").is_none());
    }

    #[test]
    fn mem_store_mirrors_blob_store_semantics() {
        let s = MemStore::new();
        assert!(Store::is_empty(&s));
        s.put("a", vec![1u8, 2, 3].into());
        s.put("b", vec![9u8; 10].into());
        assert_eq!(Store::len(&s), 2);
        assert_eq!(s.total_bytes(), 13);
        assert_eq!(s.get("a").unwrap().as_ref(), &[1, 2, 3]);
        assert!(s.get("missing").is_none());
        s.put("a", vec![7u8; 4].into());
        assert_eq!(Store::len(&s), 2, "replacement, not duplication");
        assert_eq!(s.puts(), 3);
        assert_eq!(s.names(), vec!["a", "b"]);
        assert!(s.contains("b"));
        assert_eq!(s.remove("b").unwrap().len(), 10);
        assert!(!s.contains("b"));
    }

    #[test]
    fn mem_store_spreads_names_across_shards() {
        let s = MemStore::new();
        for i in 0..256 {
            s.put(&format!("blob-{i}"), vec![0u8; 1].into());
        }
        let occupied = s
            .shards
            .iter()
            .filter(|shard| !shard.read().unwrap().is_empty())
            .count();
        assert!(
            occupied >= STORE_SHARDS / 2,
            "FNV should reach most shards, got {occupied}/{STORE_SHARDS}"
        );
        assert_eq!(Store::len(&s), 256);
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
