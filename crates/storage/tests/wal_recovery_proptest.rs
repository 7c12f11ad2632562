//! Property tests for [`WalStore`] crash recovery.
//!
//! Two properties the durable backend stakes its correctness on:
//!
//! * **Idempotence** — recovering a directory twice yields exactly the
//!   state recovering it once does, which in turn is exactly the state the
//!   store held before it was dropped (values, versions, commit marker).
//! * **Prefix-correctness** — truncating the WAL at *any* byte (the crash
//!   window) recovers precisely the state reached by replaying the valid
//!   frame prefix, with the torn tail cleanly discarded.
//!
//! Scripts are random sequences of commit-pipeline operations (a coalesced
//! single-shard apply, a cross-shard apply, commit boundaries) over a small
//! key range, so overwrites and version bumps are common; options vary
//! across compaction regimes, which must not change any recovered state.

use proptest::prelude::*;
use tb_storage::wal::{decode_frames, wal_header_bytes, WAL_FILE};
use tb_storage::{
    CommitMarker, MemStore, Snapshot, Store, TempDir, WalOptions, WalRecord, WalStore, WriteBatch,
};
use tb_types::{Key, Value};

/// Compaction regimes the recovered state must be invariant under: never,
/// often, at every commit boundary.
const OPTIONS: [WalOptions; 3] = [
    WalOptions {
        compact_wal_bytes: 4 * 1024 * 1024,
    },
    WalOptions {
        compact_wal_bytes: 512,
    },
    WalOptions {
        compact_wal_bytes: 1,
    },
];

/// One step of a write script, shaped like the commit pipeline's usage:
/// the single-shard (G1) batches, the cross-shard (G2) batch, an optional
/// commit boundary sealing everything so far.
#[derive(Clone, Debug)]
struct Step {
    batches: Vec<WriteBatch>,
    cross_shard: WriteBatch,
    commit: bool,
}

// --- strategies -------------------------------------------------------------

fn arb_key() -> impl Strategy<Value = Key> {
    prop_oneof![
        (0u64..12).prop_map(Key::checking),
        (0u64..12).prop_map(Key::savings),
    ]
}

fn arb_value() -> impl Strategy<Value = Value> {
    any::<i64>().prop_map(Value::int)
}

fn arb_batch() -> impl Strategy<Value = WriteBatch> {
    prop::collection::vec((arb_key(), arb_value()), 0..5)
        .prop_map(|writes| writes.into_iter().collect())
}

fn arb_step() -> impl Strategy<Value = Step> {
    (
        prop::collection::vec(arb_batch(), 0..3),
        arb_batch(),
        any::<bool>(),
    )
        .prop_map(|(batches, cross_shard, commit)| Step {
            batches,
            cross_shard,
            commit,
        })
}

fn arb_script() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(arb_step(), 1..10)
}

// --- driver and state comparison -------------------------------------------

/// Replays `script` against any backend exactly as the commit path would.
fn run_script<S: Store>(store: &S, script: &[Step]) {
    for (i, step) in script.iter().enumerate() {
        if !step.batches.is_empty() {
            store.apply_batches(&step.batches);
        }
        if !step.cross_shard.is_empty() {
            store.apply_batch(&step.cross_shard);
        }
        if step.commit {
            let seq = i as u64;
            store.commit_marker(CommitMarker {
                dag: seq / 4,
                round: seq,
                digest: seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1,
            });
        }
    }
}

/// Full observable state — values *and* version counters — in a canonical
/// order. Stricter than `Snapshot::diff_values`, which ignores versions.
fn canonical(snapshot: &Snapshot) -> Vec<(Key, Value, u64)> {
    let mut rows: Vec<_> = snapshot
        .iter()
        .map(|(key, versioned)| (*key, versioned.value.clone(), versioned.version))
        .collect();
    rows.sort_unstable_by_key(|(key, _, _)| *key);
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Recovering twice equals recovering once equals the pre-drop state,
    /// under every compaction regime.
    #[test]
    fn recovery_is_idempotent(script in arb_script(), opts_sel in 0usize..OPTIONS.len()) {
        let opts = OPTIONS[opts_sel];
        let dir = TempDir::new("wal-prop-idem").expect("scoped temp dir");

        let store = WalStore::open(dir.path(), opts).expect("fresh open");
        run_script(&store, &script);
        let live_state = canonical(&store.snapshot());
        let live_marker = store.last_commit();
        drop(store);

        let first = WalStore::open(dir.path(), opts).expect("first recovery");
        let first_state = canonical(&first.snapshot());
        let first_marker = first.last_commit();
        let first_info = first.recovery();
        prop_assert_eq!(&first_state, &live_state);
        prop_assert_eq!(first_marker, live_marker);
        drop(first);

        let second = WalStore::open(dir.path(), opts).expect("second recovery");
        prop_assert_eq!(&canonical(&second.snapshot()), &first_state);
        prop_assert_eq!(second.last_commit(), first_marker);
        prop_assert_eq!(second.recovery(), first_info);
    }

    /// A WAL cut at any byte recovers exactly the replay of its valid frame
    /// prefix: same values, same versions, same commit marker; the torn
    /// tail is counted and discarded; and a second open of the truncated
    /// directory finds nothing left to repair.
    #[test]
    fn any_wal_prefix_recovers_the_corresponding_state(
        script in arb_script(),
        cut_sel in any::<u64>(),
    ) {
        // No compaction: the WAL holds the full history at generation 0, so
        // byte-truncating it simulates a crash at any point in that history.
        let opts = WalOptions { compact_wal_bytes: u64::MAX };
        let dir = TempDir::new("wal-prop-prefix").expect("scoped temp dir");
        let store = WalStore::open(dir.path(), opts).expect("fresh open");
        run_script(&store, &script);
        drop(store);

        let wal = std::fs::read(dir.path().join(WAL_FILE)).expect("read wal.log");
        let header_len = wal_header_bytes(0).len();
        prop_assert!(wal.len() >= header_len);
        let cut = (cut_sel % (wal.len() as u64 + 1)) as usize;

        // Independent replay of the decoded prefix = the expected state. A
        // cut inside the header means no usable WAL at all.
        let (records, valid) = if cut >= header_len {
            decode_frames(&wal[header_len..cut])
        } else {
            (Vec::new(), 0)
        };
        let shadow = MemStore::new();
        let mut shadow_marker = None;
        for record in &records {
            match record {
                WalRecord::Batches(batches) => shadow.apply_batches(batches),
                WalRecord::Commit(marker) => shadow_marker = Some(*marker),
            }
        }
        let expected_truncated = if cut >= header_len {
            (cut - header_len - valid) as u64
        } else {
            cut as u64
        };

        let crash_dir = TempDir::new("wal-prop-crash").expect("scoped temp dir");
        std::fs::write(crash_dir.path().join(WAL_FILE), &wal[..cut]).expect("plant crash file");
        let recovered = WalStore::open(crash_dir.path(), opts).expect("recover prefix");
        let info = recovered.recovery();
        prop_assert!(!info.snapshot_loaded);
        prop_assert_eq!(info.replayed_records, records.len() as u64);
        prop_assert_eq!(info.truncated_bytes, expected_truncated);
        prop_assert_eq!(recovered.last_commit(), shadow_marker);
        prop_assert_eq!(canonical(&recovered.snapshot()), canonical(&shadow.snapshot()));
        drop(recovered);

        // The first open already cut the torn tail; the second must find a
        // clean log and land on the identical state.
        let again = WalStore::open(crash_dir.path(), opts).expect("recover again");
        prop_assert_eq!(again.recovery().truncated_bytes, 0);
        prop_assert_eq!(again.last_commit(), shadow_marker);
        prop_assert_eq!(canonical(&again.snapshot()), canonical(&shadow.snapshot()));
    }
}
