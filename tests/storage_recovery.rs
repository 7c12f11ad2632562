//! Crash recovery as a tier-1 integration test: a WAL-backed cluster is
//! killed and rebuilt over the same data directories, and every replica must
//! recover exactly its pre-crash state — values, durable commit marker and
//! FNV-1a commit-order digest.
//!
//! CI's `storage-smoke` job runs exactly this file
//! (`cargo test --test storage_recovery`), so the crash-recovery claim is
//! exercised end-to-end on every push; `default_campaign_passes_at_smoke_scale`
//! in `chaos_campaign.rs` covers the same scenario as part of the campaign.

use thunderbolt::prelude::*;

fn wal_config(dir: &TempDir) -> StorageConfig {
    StorageConfig {
        backend: StorageBackend::Wal,
        data_dir: dir.path().display().to_string(),
        // Small thresholds so even a smoke-sized run flushes the write
        // buffer and compacts the WAL into a snapshot at least once.
        compact_wal_bytes: 32 * 1024,
        flush_buffered_writes: 32,
    }
}

fn wal_scenario(storage: StorageConfig, rounds: u64) -> ScenarioBuilder {
    ScenarioBuilder::new(4)
        .executors(2, 32)
        .validators(2)
        .rounds(rounds)
        .seed(21)
        .latency(LatencyModel::Fixed { micros: 200 })
        .tune(|system| system.ce = system.ce.without_synthetic_cost())
        .workload(SmallBankConfig {
            accounts: 128,
            n_shards: 4,
            cross_shard_fraction: 0.1,
            ..SmallBankConfig::default()
        })
        .storage(storage)
}

/// The campaign's crash-recovery scenario, runnable on its own so the CI
/// `storage-smoke` job stays fast: replica 3 crashes mid-run and the
/// `durable-recovery` invariant reopens every on-disk store.
#[test]
fn crash_recover_durable_scenario_passes_at_smoke_scale() {
    let scenario = default_campaign(CampaignProfile::smoke())
        .into_iter()
        .find(|s| s.name() == "crash-recover-durable")
        .expect("the default campaign carries the crash-recovery scenario");
    let result = scenario.run();
    assert!(
        result.passed,
        "crash-recover-durable violated {:?}",
        result.failures
    );
    assert!(result.committed_txs > 0);
    assert!(
        result.invariants.iter().any(|i| i == "durable-recovery"),
        "the durable-recovery invariant must be machine-checked, got {:?}",
        result.invariants
    );
    assert_eq!(result.faults_unapplied, 0);
}

/// Whole-cluster restart: run a WAL-backed simulation to completion, drop it
/// (every file handle closes, as in a process exit), then rebuild the cluster
/// over the same directories. Every replica must come back with its exact
/// committed values and marker, and genesis must NOT be re-loaded over the
/// recovered state.
#[test]
fn restarted_replicas_recover_exact_state_without_reloading_genesis() {
    let dir = TempDir::new("storage-recovery-test").expect("scoped temp dir");
    let storage = wal_config(&dir);

    let mut sim = wal_scenario(storage.clone(), 8).build();
    let report = sim.run();
    assert!(report.committed_txs > 0, "the seeding run must commit");
    let expected: Vec<_> = (0..4)
        .map(|id| {
            let replica = sim.replica(ReplicaId::new(id));
            let last = replica
                .metrics()
                .round_commits
                .last()
                .map(|s| (s.dag, s.round.as_u64(), s.digest))
                .expect("every replica of a fault-free run commits");
            (last, replica.store().snapshot())
        })
        .collect();
    drop(sim);

    // ClusterSimulation::new runs the restart path for every replica:
    // open the store (recovering from disk) and attempt the genesis load,
    // which a recovered store must skip.
    let restarted = wal_scenario(storage, 8).build();
    for (id, (last, snapshot)) in expected.iter().enumerate() {
        let store = restarted.replica(ReplicaId::new(id as u32)).store();
        assert!(store.persistent());
        let marker = store.last_commit().expect("recovered commit marker");
        assert_eq!(
            (marker.dag, marker.round, marker.digest),
            *last,
            "replica {id} recovered the wrong commit marker"
        );
        let diverged = store.snapshot().diff_values(snapshot);
        assert!(
            diverged.is_empty(),
            "replica {id} recovered a diverged store: {} keys differ (first: {:?})",
            diverged.len(),
            diverged.first()
        );
    }

    // The observer's recovered digest is the run's digest: the durable
    // marker chain and the report agree bit-for-bit.
    let observer = restarted.replica(ReplicaId::new(0)).store();
    let digest = observer.last_commit().expect("observer marker").digest;
    assert_eq!(
        format!("{digest:016x}"),
        report.commit_order_digest,
        "recovered digest must equal the reported commit-order digest"
    );
}

/// Persistence is a refinement, not a behaviour change: the same seeded
/// lockstep scenario (all single-shard, so block content is a function of
/// the seed alone) commits the identical order on the in-memory backend and
/// on the WAL backend.
#[test]
fn mem_and_wal_backends_commit_the_identical_order() {
    let dir = TempDir::new("storage-backend-equivalence").expect("scoped temp dir");
    let run = |storage: StorageConfig| {
        wal_scenario(storage, 8)
            .lockstep()
            .workload(SmallBankConfig {
                accounts: 128,
                n_shards: 4,
                cross_shard_fraction: 0.0,
                ..SmallBankConfig::default()
            })
            .run()
    };
    let mem = run(StorageConfig::mem());
    let wal = run(wal_config(&dir));
    assert!(mem.committed_txs > 0, "the scenario must commit");
    assert_eq!(mem.committed_txs, wal.committed_txs);
    assert_eq!(
        mem.commit_order_digest, wal.commit_order_digest,
        "the storage backend changed commit semantics"
    );
}
