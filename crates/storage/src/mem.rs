//! The in-memory store: one versioned map behind one lock.

use crate::snapshot::Snapshot;
use crate::traits::{KvRead, Versioned};
use std::sync::RwLock;
use tb_types::{Key, KeyMap, Value};

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

/// A versioned in-memory key-value store.
///
/// Readers share one lock, and a writer takes it once per call: a replica's
/// commit path once per [`Store::apply_batches`](crate::Store::apply_batches),
/// an engine's batch-local store once per committed transaction. Every write
/// bumps the key's version counter.
#[derive(Debug, Default)]
pub struct MemStore {
    state: RwLock<MemState>,
}

/// The map and its lifetime write counter, guarded together.
#[derive(Debug, Default)]
struct MemState {
    map: KeyMap<Versioned>,
    total_writes: u64,
}

impl MemStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        MemStore::default()
    }

    /// Takes a consistent point-in-time snapshot of the whole store.
    pub fn snapshot(&self) -> Snapshot {
        let state = self.state.read().expect("a store writer panicked");
        Snapshot::from_map(state.map.iter().map(|(k, v)| (*k, v.clone())).collect())
    }

    /// Writes every entry in turn under one lock acquisition, bumping the
    /// key's version once per entry: initial state, a commit-path batch, or
    /// the commit of one transaction's writes into an engine's batch-local
    /// store.
    pub fn load(&self, entries: impl IntoIterator<Item = (Key, Value)>) {
        let mut state = self.state.write().expect("a store writer panicked");
        for (key, value) in entries {
            let entry = state.map.entry(key).or_default();
            entry.version += 1;
            entry.value = value;
            state.total_writes += 1;
        }
    }

    /// Restores entries with their exact version counters, bypassing the
    /// version-bump and write-count bookkeeping of [`MemStore::load`].
    ///
    /// Only crash recovery should use this: a recovered store must report
    /// the same per-key versions as the store that wrote the snapshot, not
    /// versions restarted from 1. Pair with [`MemStore::set_total_writes`].
    pub fn restore(&self, entries: impl IntoIterator<Item = (Key, Versioned)>) {
        let mut state = self.state.write().expect("a store writer panicked");
        state.map.extend(entries);
    }

    /// Overwrites the lifetime write counter. Only crash recovery should
    /// use this, to carry [`StoreStats::total_writes`] across a restart.
    pub fn set_total_writes(&self, total: u64) {
        let mut state = self.state.write().expect("a store writer panicked");
        state.total_writes = total;
    }

    /// Returns aggregate statistics.
    pub fn stats(&self) -> StoreStats {
        let state = self.state.read().expect("a store writer panicked");
        let mut stats = StoreStats {
            total_writes: state.total_writes,
            ..StoreStats::default()
        };
        for v in state.map.values() {
            if !v.value.is_none() {
                stats.keys += 1;
                // Wrapping: conservation checks compare sums for equality,
                // and adversarial values must not panic.
                stats.int_sum = stats.int_sum.wrapping_add(v.value.as_int());
            }
        }
        stats
    }
}

impl KvRead for MemStore {
    fn get(&self, key: &Key) -> Value {
        self.get_versioned(key).value
    }

    fn get_versioned(&self, key: &Key) -> Versioned {
        let state = self.state.read().expect("a store writer panicked");
        state.map.get(key).cloned().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Store, WriteBatch};
    use std::sync::Arc;

    fn put(store: &MemStore, key: Key, value: Value) {
        store.load([(key, value)]);
    }

    #[test]
    fn absent_keys_read_as_none_with_version_zero() {
        let store = MemStore::new();
        let v = store.get_versioned(&Key::scratch(1));
        assert!(v.value.is_none());
        assert_eq!(v.version, 0);
    }

    #[test]
    fn writes_bump_versions() {
        let store = MemStore::new();
        let k = Key::checking(7);
        put(&store, k, Value::int(10));
        assert_eq!(store.get_versioned(&k), Versioned::new(Value::int(10), 1));
        put(&store, k, Value::int(20));
        assert_eq!(store.get_versioned(&k), Versioned::new(Value::int(20), 2));
    }

    #[test]
    fn writing_none_deletes_but_keeps_version_history() {
        let store = MemStore::new();
        let k = Key::scratch(3);
        put(&store, k, Value::int(1));
        put(&store, k, Value::None);
        let v = store.get_versioned(&k);
        assert!(v.value.is_none());
        assert_eq!(v.version, 2);
        assert_eq!(store.stats().keys, 0);
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
        assert_eq!(store.stats(), StoreStats::default());
        store.load((0..10).map(|i| (Key::checking(i), Value::int(100))));
        let stats = store.stats();
        assert_eq!(stats.keys, 10);
        assert_eq!(stats.int_sum, 1000);
        assert_eq!(stats.total_writes, 10);
    }

    #[test]
    fn snapshot_is_immutable_under_later_writes() {
        let store = MemStore::new();
        put(&store, Key::scratch(1), Value::int(1));
        let snap = store.snapshot();
        put(&store, Key::scratch(1), Value::int(2));
        put(&store, Key::scratch(2), Value::int(9));
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
                    put(&store, k, Value::int(1));
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
