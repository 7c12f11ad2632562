//! Property test: the coalesced multi-batch apply is observably equivalent
//! to applying the batches one at a time, in order — same values, same
//! per-key versions, same [`tb_storage::StoreStats`].
//!
//! This is the invariant the pipelined commit path leans on: it hands the
//! write batches of a whole committed sub-DAG to one
//! [`Store::apply_batches`] call without changing what any later reader can
//! observe.

use proptest::prelude::*;
use tb_storage::{KvRead, MemStore, Store, WriteBatch};
use tb_types::{Key, Value};

/// A small hot key pool so batches genuinely overlap on keys (the
/// interesting case for version accounting and last-write-wins).
fn key(raw: u64) -> Key {
    match raw % 3 {
        0 => Key::checking(raw / 3),
        1 => Key::savings(raw / 3),
        _ => Key::scratch(raw / 3),
    }
}

fn batches(
    max_batches: usize,
    max_writes: usize,
    key_pool: u64,
) -> impl Strategy<Value = Vec<Vec<(u64, i64)>>> {
    prop::collection::vec(
        prop::collection::vec((0..key_pool, -1_000..1_000i64), 0..max_writes),
        0..max_batches,
    )
}

fn build(batch_writes: &[(u64, i64)]) -> WriteBatch {
    let mut batch = WriteBatch::new();
    for (raw, value) in batch_writes {
        batch.put(key(*raw), Value::int(*value));
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn apply_batches_equals_sequential_apply(raw_batches in batches(8, 24, 12)) {
        let sequential = MemStore::new();
        let coalesced = MemStore::new();
        // Seed both stores so versions start above zero for some keys.
        for store in [&sequential, &coalesced] {
            store.load((0..4).map(|i| (key(i), Value::int(0))));
        }

        let built: Vec<WriteBatch> = raw_batches.iter().map(|b| build(b)).collect();
        for batch in &built {
            sequential.apply_batch(batch);
        }
        coalesced.apply_batches(&built);

        // Same values on every key either store has ever seen.
        let seq_snapshot = sequential.snapshot();
        let coal_snapshot = coalesced.snapshot();
        prop_assert_eq!(seq_snapshot.len(), coal_snapshot.len());
        for (k, versioned) in seq_snapshot.iter() {
            // Same value AND same version: a key written by `n` batches has
            // its version bumped exactly `n` times either way.
            prop_assert_eq!(versioned, &coalesced.get_versioned(k));
        }
        // Aggregate statistics agree (keys, total writes, integer sum).
        prop_assert_eq!(sequential.stats(), coalesced.stats());
    }
}
