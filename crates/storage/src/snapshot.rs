//! Point-in-time snapshots.

use crate::traits::{KvRead, Versioned};
use std::collections::HashMap;
use std::sync::Arc;
use tb_types::{Key, Value};

/// An immutable, cheaply clonable point-in-time view of a [`crate::MemStore`].
///
/// The OCC baseline executes transactions against a snapshot and validates
/// the versions it read against the live store; the benchmark harness uses
/// snapshots to compare the final state produced by different executors.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    map: Arc<HashMap<Key, Versioned>>,
}

impl Snapshot {
    /// Wraps an already-collected map.
    pub fn from_map(map: HashMap<Key, Versioned>) -> Self {
        Snapshot { map: Arc::new(map) }
    }

    /// Number of keys in the snapshot.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if the snapshot contains no keys.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over all entries.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &Versioned)> {
        self.map.iter()
    }

    /// Returns the set of keys on which two snapshots disagree (ignoring
    /// version counters, comparing only values). Useful in tests asserting
    /// that two execution strategies produced the same final state.
    pub fn diff_values(&self, other: &Snapshot) -> Vec<Key> {
        let mut diff = Vec::new();
        for (k, v) in self.map.iter() {
            if other.get(k) != v.value {
                diff.push(*k);
            }
        }
        for k in other.map.keys() {
            if !self.map.contains_key(k) && !other.get(k).is_none() {
                diff.push(*k);
            }
        }
        diff.sort_unstable();
        diff.dedup();
        diff
    }
}

impl KvRead for Snapshot {
    fn get(&self, key: &Key) -> Value {
        self.map
            .get(key)
            .map(|v| v.value.clone())
            .unwrap_or(Value::None)
    }

    fn get_versioned(&self, key: &Key) -> Versioned {
        self.map.get(key).cloned().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(entries: &[(u64, i64)]) -> Snapshot {
        let map = entries
            .iter()
            .map(|(k, v)| (Key::scratch(*k), Versioned::new(Value::int(*v), 1)))
            .collect();
        Snapshot::from_map(map)
    }

    #[test]
    fn empty_snapshot_reads_none() {
        let s = Snapshot::default();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(s.get(&Key::scratch(1)).is_none());
        assert_eq!(s.get_versioned(&Key::scratch(1)).version, 0);
    }

    #[test]
    fn len_and_iter_cover_every_key() {
        let s = snap(&[(1, 10), (2, 20), (3, -5)]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.iter().count(), 3);
    }

    #[test]
    fn diff_values_reports_divergent_keys_only() {
        let a = snap(&[(1, 10), (2, 20)]);
        let b = snap(&[(1, 10), (2, 21), (3, 30)]);
        assert_eq!(a.diff_values(&b), vec![Key::scratch(2), Key::scratch(3)]);
        assert_eq!(a.diff_values(&a), Vec::<Key>::new());
    }

    #[test]
    fn clones_share_the_underlying_map() {
        let a = snap(&[(1, 1)]);
        let b = a.clone();
        assert_eq!(b.get(&Key::scratch(1)), Value::int(1));
        assert_eq!(Arc::strong_count(&a.map), 2);
    }
}
