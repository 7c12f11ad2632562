//! Quickstart: preplay a SmallBank batch with the concurrent executor,
//! validate it like a remote replica would, and apply it to storage.
//!
//! This is the executor-level tour; see `smallbank_cluster` for the
//! scenario-level `ScenarioBuilder` entry point.
//!
//! Run with: `cargo run --release --example quickstart`

use thunderbolt::prelude::*;

fn main() {
    // 1. A store holding the SmallBank accounts.
    let store = MemStore::new();
    let workload_config = SmallBankConfig {
        accounts: 1_000,
        theta: 0.85,
        pr_read: 0.5,
        n_shards: 1,
        ..SmallBankConfig::default()
    };
    let mut workload = SmallBankWorkload::new(workload_config);
    store.load(workload.initial_state());
    println!(
        "loaded {} SmallBank accounts (total balance {})",
        workload_config.accounts,
        store.stats().int_sum
    );

    // 2. Preplay one batch with the concurrent executor (the EOV path a
    //    Thunderbolt shard proposer runs before consensus).
    let ce = ConcurrentExecutor::new(CeConfig::new(8, 500));
    let batch = workload.batch(500, SimTime::ZERO);
    let result = ce.preplay(&batch, &store);
    println!(
        "preplayed {} transactions in {:?} ({:.0} tps, {} re-executions)",
        result.committed(),
        result.elapsed,
        result.throughput_tps(),
        result.reexecutions,
    );

    // 3. Validate the preplay results exactly like every other replica does
    //    after consensus (parallel re-execution over the declared reads,
    //    which are checked against the store).
    let report = validate_block(&result.preplayed, &store, &ValidationConfig::new(8));
    println!(
        "validation: {} transactions checked, valid = {}",
        report.checked,
        report.is_valid()
    );
    assert!(report.is_valid());

    // 4. Apply the serialized write sets to storage.
    let before = store.get(&Key::checking(0));
    result.apply_to(&store);
    println!(
        "applied block to storage; checking/0 went from {before} to {}",
        store.get(&Key::checking(0))
    );
    println!(
        "total balance is conserved: {}",
        store.stats().int_sum == workload_config.accounts as i64 * 2 * 100_000
    );
}
