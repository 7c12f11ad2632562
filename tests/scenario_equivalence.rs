//! API-redesign equivalence: SmallBank driven through the `Workload` trait
//! must be indistinguishable from the legacy hardwired path.
//!
//! Before the scenario-first redesign, the cluster harness constructed a
//! `SmallBankWorkload` itself, mutating the config in place (`n_shards` to
//! the committee size, the cluster seed folded into the workload seed).
//! These tests replay that exact legacy wiring next to the boxed
//! `Box<dyn Workload>` path on a deterministic synchronous cluster (FIFO
//! delivery, zero latency, no wall clock in the schedule) and require the
//! FNV-1a commit-order digest, the commit counters and the final storage
//! state to be identical — proving the redesign changed no committed
//! behavior for SmallBank. The workload yields one stream per home shard,
//! so the two paths are compared shard by shard.

use std::collections::VecDeque;
use thunderbolt::prelude::*;

const CLUSTER_SEED: u64 = 7;
const REPLICAS: u32 = 4;
const TX_COUNT: usize = 400;

fn base_workload_config() -> SmallBankConfig {
    SmallBankConfig {
        accounts: 64,
        cross_shard_fraction: 0.2,
        seed: 99,
        ..SmallBankConfig::default()
    }
}

fn cluster_config() -> ClusterConfig {
    // Multi-worker preplay is deterministic (the concurrent executor
    // finalizes its serialized order as batch order regardless of worker
    // count), so this test still isolates the *workload path* as the only
    // possible source of divergence.
    ScenarioBuilder::new(REPLICAS)
        .executors(4, 64)
        .seed(CLUSTER_SEED)
        .tune(|system| {
            system.ce = system.ce.without_synthetic_cost();
            system.validators = 2;
        })
        .config()
        .clone()
}

/// Synchronous, wall-clock-free message driver: both runs see the exact
/// same message schedule, so any divergence can only come from the
/// transaction stream itself.
fn run_synchronously(replicas: &mut [Replica], rounds_budget: usize) {
    let mut inbox: VecDeque<(ReplicaId, ReplicaId, Message)> = VecDeque::new();
    let now = SimTime::ZERO;
    let n = replicas.len();
    let enqueue = |inbox: &mut VecDeque<(ReplicaId, ReplicaId, Message)>,
                   from: ReplicaId,
                   outbound: Outbound| {
        match outbound.dest {
            Destination::Broadcast => {
                for to in 0..n {
                    inbox.push_back((from, ReplicaId::new(to as u32), outbound.msg.clone()));
                }
            }
            Destination::To(to) => inbox.push_back((from, to, outbound.msg)),
        }
    };
    for replica in replicas.iter_mut() {
        for outbound in replica.start(now) {
            enqueue(&mut inbox, replica.id(), outbound);
        }
    }
    let mut steps = 0usize;
    let budget = rounds_budget * n * n * 20;
    while let Some((from, to, msg)) = inbox.pop_front() {
        steps += 1;
        if steps > budget {
            break;
        }
        let replica = &mut replicas[to.as_inner() as usize];
        if replica.current_round().as_u64() >= rounds_budget as u64 {
            continue;
        }
        for outbound in replica.handle(from, msg, now) {
            enqueue(&mut inbox, replica.id(), outbound);
        }
    }
}

/// Runs the deterministic cluster on a pre-generated transaction stream.
fn run_cluster(initial_state: Vec<(Key, Value)>, txs: Vec<Transaction>) -> Vec<Replica> {
    let cfg = cluster_config();
    let mut replicas: Vec<Replica> = (0..REPLICAS)
        .map(|i| {
            let mut replica = Replica::new(ReplicaId::new(i), cfg.clone());
            replica.app_mut().load_state(initial_state.iter().cloned());
            replica
        })
        .collect();
    // Route each transaction to the replica serving its home shard
    // (replica i serves shard i in DAG 0) — the same routing rule the
    // cluster harness applies.
    for tx in txs {
        let home = tx.home_shard().as_inner() as usize;
        replicas[home].app_mut().queues_mut().enqueue(tx);
    }
    run_synchronously(&mut replicas, 10);
    replicas
}

/// The legacy hardwired generator: the exact config mutation the pre-trait
/// `ClusterSimulation::new` performed before constructing `SmallBankWorkload`.
fn legacy_generator() -> SmallBankWorkload {
    let mut config = base_workload_config();
    config.n_shards = REPLICAS;
    config.seed = config.seed.wrapping_add(CLUSTER_SEED);
    SmallBankWorkload::new(config)
}

/// The redesigned path: the same base config boxed through the trait and
/// configured by the harness's single entry point.
fn trait_generator() -> Box<dyn Workload> {
    let mut workload: Box<dyn Workload> = base_workload_config().into();
    workload.configure_for_cluster(REPLICAS, CLUSTER_SEED);
    workload
}

#[test]
fn trait_path_generates_the_identical_transaction_stream() {
    let mut legacy = legacy_generator();
    let mut boxed = trait_generator();
    let legacy_state: Vec<(Key, Value)> = legacy.initial_state().collect();
    assert_eq!(legacy_state, boxed.initial_state());
    // Shard by shard on one side, round-robin on the other: each shard's
    // stream is its own, whatever is drawn from the others in between.
    let legacy_streams: Vec<Vec<Transaction>> = (0..REPLICAS)
        .map(|s| {
            (0..500)
                .map(|_| legacy.next_transaction(ShardId::new(s), SimTime::ZERO))
                .collect()
        })
        .collect();
    for i in 0..500 {
        for (s, stream) in legacy_streams.iter().enumerate() {
            let b = boxed.next_transaction(ShardId::new(s as u32), SimTime::ZERO);
            assert_eq!(
                stream[i], b,
                "shard {s}'s stream diverged at transaction {i}"
            );
        }
    }
}

#[test]
fn trait_path_commits_the_identical_digest_and_state() {
    let mut legacy = legacy_generator();
    let per_shard = TX_COUNT / REPLICAS as usize;
    let legacy_replicas = run_cluster(
        legacy.initial_state().collect(),
        (0..REPLICAS)
            .flat_map(|s| vec![ShardId::new(s); per_shard])
            .map(|home| legacy.next_transaction(home, SimTime::ZERO))
            .collect(),
    );

    let mut boxed = trait_generator();
    let initial_state = boxed.initial_state();
    let txs = boxed.batch(TX_COUNT, SimTime::ZERO);
    let trait_replicas = run_cluster(initial_state, txs);

    for (legacy, traited) in legacy_replicas.iter().zip(trait_replicas.iter()) {
        assert!(
            legacy.metrics().committed_txs > 0,
            "replica {} committed nothing — the comparison would be vacuous",
            legacy.id()
        );
        assert_eq!(
            legacy.metrics().committed_txs,
            traited.metrics().committed_txs,
            "replica {} committed different amounts",
            legacy.id()
        );
        assert_eq!(
            legacy.metrics().single_shard_txs,
            traited.metrics().single_shard_txs
        );
        assert_eq!(
            legacy.metrics().cross_shard_txs,
            traited.metrics().cross_shard_txs
        );
        assert_eq!(
            legacy.metrics().commit_order_digest,
            traited.metrics().commit_order_digest,
            "replica {} committed a different order through the trait path",
            legacy.id()
        );
        // Final storage stats: same number of live keys, same total balance.
        let legacy_stats = legacy.app().store().stats();
        let trait_stats = traited.app().store().stats();
        assert_eq!(legacy_stats.keys, trait_stats.keys);
        assert_eq!(legacy_stats.int_sum, trait_stats.int_sum);
        let diff = legacy
            .app()
            .store()
            .snapshot()
            .diff_values(&traited.app().store().snapshot());
        assert!(
            diff.is_empty(),
            "replica {} state diverged on {diff:?}",
            legacy.id()
        );
    }
}
