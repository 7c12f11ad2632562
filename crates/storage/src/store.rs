//! The backend-agnostic [`Store`] abstraction.
//!
//! Every consumer of committed state — the commit pipeline, the campaign
//! invariants, the bench harness — talks to a `&dyn Store` instead of a
//! concrete [`MemStore`]. The trait is deliberately object-safe: a replica
//! holds one boxed store, so the trait requires `Send + Sync` and takes batch
//! slices rather than generic iterators.
//!
//! After genesis, [`Store::apply_batches`] is the only way state changes.
//! Engines, the validator and cross-shard execution read through [`KvRead`]
//! and hand the commit path write batches; the commit path applies them, one
//! call per stage of a committed sub-DAG.
//!
//! Two backends exist:
//!
//! * [`MemStore`] — one versioned map behind one lock; volatile, nearly
//!   free, the default.
//! * [`WalStore`](crate::WalStore) — a durable backend that logs every
//!   applied slice of batches as one CRC-guarded write-ahead-log frame in
//!   front of a [`MemStore`], and compacts into on-disk snapshots (see
//!   `docs/STORAGE.md`).

use crate::batch::WriteBatch;
use crate::mem::{MemStore, StoreStats};
use crate::snapshot::Snapshot;
use crate::traits::KvRead;
use tb_types::{Key, Value};

/// A committed `(dag, leader round, FNV-1a commit-order digest)` triple.
///
/// The replica appends one marker per committed sub-DAG; a durable backend
/// persists it (and makes everything before it durable), so crash recovery
/// can reconstruct not just the state but the exact commit digest the
/// replica had reached. Volatile backends ignore markers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommitMarker {
    /// DAG instance of the committed leader round.
    pub dag: u64,
    /// The committed leader round.
    pub round: u64,
    /// The replica's FNV-1a commit-order digest after this commit.
    pub digest: u64,
}

/// Object-safe storage backend interface: reads, atomic batch application,
/// snapshots, stats, bulk load, and commit-boundary durability hooks.
///
/// `&MemStore` coerces to `&dyn Store`, so existing call sites that pass a
/// concrete store keep working unchanged.
pub trait Store: KvRead + Send + Sync {
    /// Applies a sequence of write batches as one unit: after genesis
    /// ([`Store::load_entries`]) the only way state changes. Observably
    /// equivalent to applying each batch in order: same final values, same
    /// per-key versions, same [`StoreStats`].
    fn apply_batches(&self, batches: &[WriteBatch]);

    /// Applies one write batch atomically.
    fn apply_batch(&self, batch: &WriteBatch) {
        self.apply_batches(std::slice::from_ref(batch));
    }

    /// Takes a consistent point-in-time snapshot of the whole store.
    fn snapshot(&self) -> Snapshot;

    /// Returns aggregate statistics.
    fn stats(&self) -> StoreStats;

    /// Bulk-loads initial state (dyn-friendly form of [`MemStore::load`]).
    /// A durable backend both logs and applies the entries, so recovery is
    /// self-contained from an empty directory.
    fn load_entries(&self, entries: &mut dyn Iterator<Item = (Key, Value)>);

    /// Records a commit boundary. A durable backend appends the marker to
    /// its log and makes everything up to it durable (fsync); the default
    /// is a no-op for volatile backends.
    fn commit_marker(&self, _marker: CommitMarker) {}

    /// The last commit marker this backend has made durable, if any.
    fn last_commit(&self) -> Option<CommitMarker> {
        None
    }

    /// True when the backend survives a process crash.
    fn persistent(&self) -> bool {
        false
    }
}

impl Store for MemStore {
    fn apply_batches(&self, batches: &[WriteBatch]) {
        self.load(batches.iter().flat_map(WriteBatch::iter).cloned());
    }

    fn snapshot(&self) -> Snapshot {
        MemStore::snapshot(self)
    }

    fn stats(&self) -> StoreStats {
        MemStore::stats(self)
    }

    fn load_entries(&self, entries: &mut dyn Iterator<Item = (Key, Value)>) {
        self.load(entries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_store_works_through_the_trait_object() {
        let mem = MemStore::new();
        let store: &dyn Store = &mem;
        let mut batch = WriteBatch::new();
        batch.put(Key::checking(1), Value::int(5));
        store.apply_batch(&batch);
        assert_eq!(store.get(&Key::checking(1)), Value::int(5));
        assert_eq!(store.stats().total_writes, 1);
        assert_eq!(store.snapshot().len(), 1);
        assert!(!store.persistent());
        // Markers are a no-op on the volatile backend.
        store.commit_marker(CommitMarker {
            dag: 0,
            round: 2,
            digest: 42,
        });
        assert_eq!(store.last_commit(), None);
    }

    #[test]
    fn load_entries_matches_load() {
        let mem = MemStore::new();
        let store: &dyn Store = &mem;
        store.load_entries(&mut (0..4).map(|i| (Key::savings(i), Value::int(10))));
        assert_eq!(store.stats().keys, 4);
        assert_eq!(store.get_versioned(&Key::savings(0)).version, 1);
    }

    #[test]
    fn apply_batches_bumps_a_key_once_per_batch() {
        let mem = MemStore::new();
        let store: &dyn Store = &mem;
        let batches: Vec<WriteBatch> = (0..3)
            .map(|i| {
                let mut b = WriteBatch::new();
                b.put(Key::scratch(0), Value::int(i));
                b
            })
            .collect();
        store.apply_batches(&batches);
        assert_eq!(store.get(&Key::scratch(0)), Value::int(2));
        assert_eq!(store.get_versioned(&Key::scratch(0)).version, 3);
    }
}
