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
use thunderbolt::tb_storage::wal::{decode_frames, wal_header_bytes, WAL_FILE};
use thunderbolt::tb_storage::{Snapshot, WalRecord};

fn wal_config(dir: &TempDir) -> StorageConfig {
    StorageConfig {
        backend: StorageBackend::Wal,
        data_dir: dir.path().display().to_string(),
        // A small threshold so even a smoke-sized run compacts the WAL into
        // a snapshot at least once.
        compact_wal_bytes: 32 * 1024,
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
            (last, replica.app().store().snapshot())
        })
        .collect();
    drop(sim);

    // ClusterSimulation::new runs the restart path for every replica:
    // open the store (recovering from disk) and attempt the genesis load,
    // which a recovered store must skip.
    let restarted = wal_scenario(storage, 8).build();
    for (id, (last, snapshot)) in expected.iter().enumerate() {
        let store = restarted.replica(ReplicaId::new(id as u32)).app().store();
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
    let observer = restarted.replica(ReplicaId::new(0)).app().store();
    let digest = observer.last_commit().expect("observer marker").digest;
    assert_eq!(
        format!("{digest:016x}"),
        report.commit_order_digest,
        "recovered digest must equal the reported commit-order digest"
    );
}

/// A seeded lockstep run whose block content is a function of the seed
/// alone: all single-shard (`cross_shard_fraction` 0) or all cross-shard (1),
/// with the observer's final store. The run ends when the observer reaches
/// its round budget, so the other replicas stop wherever they are and only
/// the observer's state is a function of the seed.
fn lockstep_run(storage: StorageConfig, cross_shard_fraction: f64) -> (RunReport, Snapshot) {
    let mut sim = wal_scenario(storage, 8)
        .lockstep()
        .workload(SmallBankConfig {
            accounts: 128,
            n_shards: 4,
            cross_shard_fraction,
            ..SmallBankConfig::default()
        })
        .build();
    let report = sim.run();
    let observer = sim.replica(ReplicaId::new(0)).app().store().snapshot();
    (report, observer)
}

/// Persistence is a refinement, not a behaviour change: the same seeded
/// lockstep scenario commits the identical order on the in-memory backend and
/// on the WAL backend, single-shard and cross-shard alike, and the observer's
/// directory reopens to the values its in-memory twin ended on.
#[test]
fn mem_and_wal_backends_commit_the_identical_order() {
    for cross_shard_fraction in [0.0, 1.0] {
        let dir = TempDir::new("storage-backend-equivalence").expect("scoped temp dir");
        let (mem, mem_observer) = lockstep_run(StorageConfig::mem(), cross_shard_fraction);
        let (wal, _) = lockstep_run(wal_config(&dir), cross_shard_fraction);
        assert!(mem.committed_txs > 0, "the scenario must commit");
        assert_eq!(mem.committed_txs, wal.committed_txs);
        assert_eq!(
            mem.commit_order_digest, wal.commit_order_digest,
            "the storage backend changed commit semantics at cross-shard fraction \
             {cross_shard_fraction}"
        );
        let options = WalOptions {
            compact_wal_bytes: wal_config(&dir).compact_wal_bytes,
        };
        let reopened = WalStore::open(dir.path().join("replica-0"), options)
            .expect("reopen the observer's directory");
        let diverged = reopened.snapshot().diff_values(&mem_observer);
        assert!(
            diverged.is_empty(),
            "at cross-shard fraction {cross_shard_fraction} the observer reopened to \
             different values on {diverged:?}"
        );
    }
}

/// The WAL holds whole batches only: after genesis, a commit marker follows
/// at most two `Batches` frames — the single-shard (G1) apply and the
/// cross-shard (G2) apply of its sub-DAG — even on an all-cross-shard run.
#[test]
fn the_wal_logs_one_frame_per_commit_stage() {
    let dir = TempDir::new("storage-wal-frames").expect("scoped temp dir");
    let storage = StorageConfig::wal(dir.path().display().to_string());
    let (report, _) = lockstep_run(storage, 1.0);
    assert!(
        report.cross_shard_txs > 0,
        "the scenario must commit cross-shard"
    );

    let log = std::fs::read(dir.path().join("replica-0").join(WAL_FILE)).expect("read wal.log");
    let (records, _) = decode_frames(&log[wal_header_bytes(0).len()..]);
    let (mut commits, mut since_commit, mut longest) = (0, 0, 0);
    // The first frame is genesis.
    for record in &records[1..] {
        match record {
            WalRecord::Commit(_) => {
                commits += 1;
                since_commit = 0;
            }
            _ => {
                since_commit += 1;
                longest = longest.max(since_commit);
            }
        }
    }
    assert!(commits > 0, "no commit marker logged");
    assert!(longest > 0, "no cross-shard write logged");
    assert!(
        longest <= 2,
        "{longest} frames between two commit markers; a commit logs at most G1 and G2"
    );
}
