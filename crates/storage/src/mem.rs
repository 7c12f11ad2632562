//! The in-memory store.

use crate::batch::WriteBatch;
use crate::snapshot::Snapshot;
use crate::traits::{KvRead, KvWrite, Versioned};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use tb_types::{Key, KeyMap, Value};

/// Number of internal lock stripes. A power of two so the stripe index is a
/// cheap mask of the key hash.
const STRIPES: usize = 64;

/// Aggregate statistics of a store, used by tests and benchmark reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of keys currently holding a value.
    pub keys: usize,
    /// Total number of committed write operations since creation.
    pub total_writes: u64,
    /// Sum of all integer values (useful for conservation-of-money checks in
    /// the SmallBank workload).
    pub int_sum: i64,
}

/// A striped, versioned, in-memory key-value store.
///
/// Reads and writes to different stripes proceed in parallel; writes to the
/// same stripe serialize on a `parking_lot` rwlock. Every write bumps the
/// key's version counter.
#[derive(Debug)]
pub struct MemStore {
    stripes: Vec<RwLock<KeyMap<Versioned>>>,
    total_writes: AtomicU64,
}

impl Default for MemStore {
    fn default() -> Self {
        Self::new()
    }
}

impl MemStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        MemStore {
            stripes: (0..STRIPES).map(|_| RwLock::default()).collect(),
            total_writes: AtomicU64::new(0),
        }
    }

    fn stripe_of(&self, key: &Key) -> usize {
        // Multiply-shift hash of the compact key encoding.
        let h = key.encode().wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (h >> 32) as usize & (STRIPES - 1)
    }

    /// Applies a write batch atomically with respect to per-key versioning.
    ///
    /// The batch is applied stripe by stripe; the per-key versions are bumped
    /// exactly once per written key.
    pub fn apply_batch(&self, batch: &WriteBatch) {
        self.apply_many(std::iter::once(batch));
    }

    /// Applies a sequence of write batches, coalescing them stripe by stripe.
    ///
    /// Observably equivalent to calling [`MemStore::apply_batch`] on each
    /// batch in order — same final values, same per-key versions, same
    /// [`StoreStats`] — but each lock stripe is written under a single lock
    /// acquisition for the whole sequence instead of one acquisition per key
    /// per batch. This is what the pipelined commit path uses to write all
    /// valid blocks of a committed sub-DAG in one call.
    ///
    /// Writes to one key keep their cross-batch order because a key always
    /// hashes to the same stripe and the per-stripe buckets preserve the
    /// `(batch, insertion)` order of the input.
    pub fn apply_many<'a, I>(&self, batches: I)
    where
        I: IntoIterator<Item = &'a WriteBatch>,
    {
        let mut per_stripe: Vec<Vec<(Key, &'a Value)>> = vec![Vec::new(); STRIPES];
        let mut total = 0u64;
        for batch in batches {
            for (key, value) in batch.iter() {
                per_stripe[self.stripe_of(key)].push((*key, value));
                total += 1;
            }
        }
        if total == 0 {
            return;
        }
        for (idx, writes) in per_stripe.into_iter().enumerate() {
            if writes.is_empty() {
                continue;
            }
            let mut guard = self.stripes[idx].write();
            for (key, value) in writes {
                let entry = guard.entry(key).or_default();
                entry.version += 1;
                entry.value = value.clone();
            }
        }
        self.total_writes.fetch_add(total, Ordering::Relaxed);
    }

    /// Takes a consistent point-in-time snapshot of the whole store.
    pub fn snapshot(&self) -> Snapshot {
        // Acquire read locks on all stripes before copying any of them so the
        // snapshot cannot observe a torn multi-key update from apply_batch
        // callers that hold an external commit lock.
        let guards: Vec<_> = self.stripes.iter().map(|s| s.read()).collect();
        let mut map = HashMap::new();
        for guard in &guards {
            for (k, v) in guard.iter() {
                map.insert(*k, v.clone());
            }
        }
        Snapshot::from_map(map)
    }

    /// Writes every entry in turn, bumping each key's version like
    /// [`KvWrite::put`]: initial state, or the commit of one transaction's
    /// writes into an engine's batch-local store.
    pub fn load(&self, entries: impl IntoIterator<Item = (Key, Value)>) {
        for (k, v) in entries {
            self.put(k, v);
        }
    }

    /// Restores entries with their exact version counters, bypassing the
    /// version-bump and write-count bookkeeping of [`MemStore::put`].
    ///
    /// Only crash recovery should use this: a recovered store must report
    /// the same per-key versions as the store that wrote the snapshot, not
    /// versions restarted from 1. Pair with [`MemStore::set_total_writes`].
    pub fn restore(&self, entries: impl IntoIterator<Item = (Key, Versioned)>) {
        for (key, versioned) in entries {
            let stripe = &self.stripes[self.stripe_of(&key)];
            stripe.write().insert(key, versioned);
        }
    }

    /// Overwrites the lifetime write counter. Only crash recovery should
    /// use this, to carry [`StoreStats::total_writes`] across a restart.
    pub fn set_total_writes(&self, total: u64) {
        self.total_writes.store(total, Ordering::Relaxed);
    }

    /// Returns aggregate statistics.
    pub fn stats(&self) -> StoreStats {
        let mut stats = StoreStats {
            total_writes: self.total_writes.load(Ordering::Relaxed),
            ..StoreStats::default()
        };
        for stripe in &self.stripes {
            let guard = stripe.read();
            for v in guard.values() {
                if !v.value.is_none() {
                    stats.keys += 1;
                    // Wrapping: conservation checks compare sums for
                    // equality, and adversarial values must not panic.
                    stats.int_sum = stats.int_sum.wrapping_add(v.value.as_int());
                }
            }
        }
        stats
    }

    /// Number of keys currently holding a value.
    pub fn len(&self) -> usize {
        self.stats().keys
    }

    /// True if no key holds a value.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes every key. Used between benchmark iterations.
    pub fn clear(&self) {
        for stripe in &self.stripes {
            stripe.write().clear();
        }
    }
}

impl KvRead for MemStore {
    fn get(&self, key: &Key) -> Value {
        self.get_versioned(key).value
    }

    fn get_versioned(&self, key: &Key) -> Versioned {
        let stripe = &self.stripes[self.stripe_of(key)];
        stripe.read().get(key).cloned().unwrap_or_default()
    }
}

impl KvWrite for MemStore {
    fn put(&self, key: Key, value: Value) {
        let stripe = &self.stripes[self.stripe_of(&key)];
        let mut guard = stripe.write();
        let entry = guard.entry(key).or_default();
        entry.version += 1;
        entry.value = value;
        self.total_writes.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn absent_keys_read_as_none_with_version_zero() {
        let store = MemStore::new();
        let v = store.get_versioned(&Key::scratch(1));
        assert!(v.value.is_none());
        assert_eq!(v.version, 0);
        assert!(!store.contains(&Key::scratch(1)));
    }

    #[test]
    fn writes_bump_versions() {
        let store = MemStore::new();
        let k = Key::checking(7);
        store.put(k, Value::int(10));
        assert_eq!(store.get_versioned(&k), Versioned::new(Value::int(10), 1));
        store.put(k, Value::int(20));
        assert_eq!(store.get_versioned(&k), Versioned::new(Value::int(20), 2));
        assert!(store.contains(&k));
    }

    #[test]
    fn delete_writes_none_but_keeps_version_history() {
        let store = MemStore::new();
        let k = Key::scratch(3);
        store.put(k, Value::int(1));
        store.delete(k);
        let v = store.get_versioned(&k);
        assert!(v.value.is_none());
        assert_eq!(v.version, 2);
        assert!(!store.contains(&k));
    }

    #[test]
    fn apply_batch_writes_every_key_once() {
        let store = MemStore::new();
        let mut batch = WriteBatch::new();
        batch.put(Key::checking(1), Value::int(5));
        batch.put(Key::checking(2), Value::int(6));
        batch.put(Key::checking(1), Value::int(7));
        store.apply_batch(&batch);
        assert_eq!(store.get(&Key::checking(1)), Value::int(7));
        assert_eq!(store.get(&Key::checking(2)), Value::int(6));
        assert_eq!(store.get_versioned(&Key::checking(1)).version, 1);
    }

    #[test]
    fn stats_track_keys_sum_and_writes() {
        let store = MemStore::new();
        store.load((0..10).map(|i| (Key::checking(i), Value::int(100))));
        let stats = store.stats();
        assert_eq!(stats.keys, 10);
        assert_eq!(stats.int_sum, 1000);
        assert_eq!(stats.total_writes, 10);
        assert_eq!(store.len(), 10);
        assert!(!store.is_empty());
        store.clear();
        assert!(store.is_empty());
    }

    #[test]
    fn snapshot_is_immutable_under_later_writes() {
        let store = MemStore::new();
        store.put(Key::scratch(1), Value::int(1));
        let snap = store.snapshot();
        store.put(Key::scratch(1), Value::int(2));
        store.put(Key::scratch(2), Value::int(9));
        assert_eq!(snap.get(&Key::scratch(1)), Value::int(1));
        assert!(snap.get(&Key::scratch(2)).is_none());
        assert_eq!(store.get(&Key::scratch(1)), Value::int(2));
    }

    #[test]
    fn concurrent_writers_do_not_lose_version_bumps() {
        let store = Arc::new(MemStore::new());
        let k = Key::checking(0);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    store.put(k, Value::int(1));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.get_versioned(&k).version, 800);
        assert_eq!(store.stats().total_writes, 800);
    }
}
