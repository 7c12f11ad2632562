//! Atomic write batches.
//!
//! The commit path of a replica applies a whole block's worth of validated
//! write sets at once; a [`WriteBatch`] collects those writes (last write per
//! key wins) so the store can apply them atomically.

use tb_types::{AccessRecord, Key, KeyHashBuilder, KeyMap, Value, WriteSet};

/// A set of writes applied atomically. Within a batch, later writes to the
/// same key overwrite earlier ones.
///
/// The batch keeps a key → slot index so deduplication stays O(1) per write;
/// commit-path batches carry hundreds of writes and are built on the hot
/// path.
#[derive(Clone, Debug, Default)]
pub struct WriteBatch {
    writes: Vec<(Key, Value)>,
    index: KeyMap<usize>,
}

impl PartialEq for WriteBatch {
    fn eq(&self, other: &Self) -> bool {
        self.writes == other.writes
    }
}

impl Eq for WriteBatch {}

impl WriteBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        WriteBatch::default()
    }

    /// Creates a batch with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        WriteBatch {
            writes: Vec::with_capacity(cap),
            index: KeyMap::with_capacity_and_hasher(cap, KeyHashBuilder::default()),
        }
    }

    /// Adds a write, overwriting any earlier write to the same key.
    pub fn put(&mut self, key: Key, value: Value) {
        match self.index.get(&key) {
            Some(&slot) => self.writes[slot].1 = value,
            None => {
                self.index.insert(key, self.writes.len());
                self.writes.push((key, value));
            }
        }
    }

    /// Adds every entry of a transaction's write set.
    pub fn extend_from_write_set(&mut self, write_set: &WriteSet) {
        for AccessRecord { key, value } in write_set {
            self.put(*key, value.clone());
        }
    }

    /// The value the batch writes to `key`, if it writes it.
    pub fn get(&self, key: &Key) -> Option<&Value> {
        self.index.get(key).map(|&slot| &self.writes[slot].1)
    }

    /// Number of distinct keys written.
    pub fn len(&self) -> usize {
        self.writes.len()
    }

    /// True if the batch contains no writes.
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty()
    }

    /// Iterates over the writes in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &(Key, Value)> {
        self.writes.iter()
    }

    /// Consumes the batch and returns the writes.
    pub fn into_writes(self) -> Vec<(Key, Value)> {
        self.writes
    }
}

impl Extend<(Key, Value)> for WriteBatch {
    fn extend<T: IntoIterator<Item = (Key, Value)>>(&mut self, iter: T) {
        for (k, v) in iter {
            self.put(k, v);
        }
    }
}

impl FromIterator<(Key, Value)> for WriteBatch {
    fn from_iter<T: IntoIterator<Item = (Key, Value)>>(iter: T) -> Self {
        let mut batch = WriteBatch::new();
        batch.extend(iter);
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_write_per_key_wins() {
        let mut b = WriteBatch::new();
        b.put(Key::scratch(1), Value::int(1));
        b.put(Key::scratch(2), Value::int(2));
        b.put(Key::scratch(1), Value::int(3));
        assert_eq!(b.len(), 2);
        assert_eq!(b.get(&Key::scratch(1)), Some(&Value::int(3)));
        assert_eq!(b.get(&Key::scratch(3)), None);
        let writes = b.into_writes();
        assert!(writes.contains(&(Key::scratch(1), Value::int(3))));
        assert!(writes.contains(&(Key::scratch(2), Value::int(2))));
    }

    #[test]
    fn extend_from_write_set_copies_all_records() {
        let ws = vec![
            AccessRecord::new(Key::scratch(1), Value::int(10)),
            AccessRecord::new(Key::scratch(2), Value::int(20)),
        ];
        let mut b = WriteBatch::with_capacity(2);
        b.extend_from_write_set(&ws);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
    }

    #[test]
    fn from_iterator_collects() {
        let b: WriteBatch = vec![
            (Key::scratch(1), Value::int(1)),
            (Key::scratch(1), Value::int(2)),
        ]
        .into_iter()
        .collect();
        assert_eq!(b.len(), 1);
        assert_eq!(b.iter().next().unwrap().1, Value::int(2));
    }
}
