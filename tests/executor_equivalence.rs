//! Cross-crate integration tests: every execution engine (concurrent
//! executor, OCC, 2PL-No-Wait, serial) must produce an equivalent, money-
//! conserving final state on the SmallBank workload, and every honest
//! preplay must pass validation.

use thunderbolt::prelude::*;

fn funded_store(accounts: u64) -> MemStore {
    let store = MemStore::new();
    store.load(initial_smallbank_state(accounts, SMALLBANK_DEFAULT_BALANCE));
    store
}

fn workload(accounts: u64, pr_read: f64, theta: f64, seed: u64) -> SmallBankWorkload {
    SmallBankWorkload::new(SmallBankConfig {
        accounts,
        pr_read,
        theta,
        n_shards: 1,
        seed,
        ..SmallBankConfig::default()
    })
}

#[test]
fn every_engine_conserves_total_balance_under_high_contention() {
    let engines: Vec<(&str, Box<dyn BatchExecutor>)> = vec![
        (
            "Thunderbolt",
            Box::new(ConcurrentExecutor::new(
                CeConfig::new(8, 256).without_synthetic_cost(),
            )),
        ),
        (
            "OCC",
            Box::new(OccExecutor::new(
                CeConfig::new(8, 256).without_synthetic_cost(),
            )),
        ),
        (
            "2PL-No-Wait",
            Box::new(TwoPlNoWaitExecutor::new(
                CeConfig::new(8, 256).without_synthetic_cost(),
            )),
        ),
        ("Serial", Box::new(SerialExecutor::default())),
    ];
    for (name, engine) in engines {
        let store = funded_store(32);
        let expected_total = store.stats().int_sum;
        let mut generator = workload(32, 0.2, 0.9, 11);
        for _ in 0..3 {
            let batch = generator.batch(128, SimTime::ZERO);
            let result = engine.execute_batch(&batch, &store);
            assert_eq!(result.committed(), batch.len(), "{name} lost transactions");
        }
        assert_eq!(
            store.stats().int_sum,
            expected_total,
            "{name} does not conserve money"
        );
    }
}

#[test]
fn concurrent_executor_and_two_pl_survive_contention() {
    // The qualitative claim behind Figure 11 — the CE's rescheduling produces
    // fewer aborts than 2PL-No-Wait on a contended workload — has no
    // counterpart here: this CE speculates contiguous chunks and repairs them
    // in one serial pass, and reschedules nothing (docs/PIPELINE.md). Here we
    // check both engines stay live and correct under contention.
    // Re-execution counts of the threaded engines are measured by the
    // benchmark's executor probes (`benchmark/README.md`), not asserted.
    let config = CeConfig::new(8, 256).without_synthetic_cost();
    for seed in 0..3u64 {
        let batch = workload(64, 0.0, 0.9, 100 + seed).batch(256, SimTime::ZERO);
        let ce_store = funded_store(64);
        let two_pl_store = funded_store(64);
        let expected_total = ce_store.stats().int_sum;
        let ce_result = ConcurrentExecutor::new(config).execute_batch(&batch, &ce_store);
        let two_pl_result = TwoPlNoWaitExecutor::new(config).execute_batch(&batch, &two_pl_store);
        assert_eq!(ce_result.committed(), batch.len(), "CE lost transactions");
        assert_eq!(
            two_pl_result.committed(),
            batch.len(),
            "2PL-No-Wait lost transactions"
        );
        assert_eq!(ce_store.stats().int_sum, expected_total);
        assert_eq!(two_pl_store.stats().int_sum, expected_total);
    }
}

#[test]
fn honest_preplay_of_any_engine_output_validates_against_base_state() {
    let store = funded_store(16);
    let batch = workload(16, 0.5, 0.85, 3).batch(200, SimTime::ZERO);
    let ce = ConcurrentExecutor::new(CeConfig::new(4, 256).without_synthetic_cost());
    let result = ce.preplay(&batch, &store);
    let report = validate_block(&result.preplayed, &store, &ValidationConfig::new(4));
    assert!(report.is_valid());
    assert_eq!(report.checked, batch.len());
}

#[test]
fn ce_and_serial_agree_on_final_state_for_the_same_batch() {
    let batch = workload(24, 0.3, 0.85, 9).batch(150, SimTime::ZERO);
    let ce_store = funded_store(24);
    let serial_store = funded_store(24);
    ConcurrentExecutor::new(CeConfig::new(6, 256).without_synthetic_cost())
        .execute_batch(&batch, &ce_store);
    SerialExecutor::default().execute_batch(&batch, &serial_store);
    // The CE may serialize the batch in a different order than arrival, so
    // individual balances may differ — but the total must match and both
    // must validate as a serial execution of *some* order. Sum conservation
    // plus per-engine serializability (tested elsewhere) is the invariant.
    assert_eq!(ce_store.stats().int_sum, serial_store.stats().int_sum);
}
