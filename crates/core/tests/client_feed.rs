//! The closed-loop client ([`ClientFeed`]) on both of its uses: the sim
//! driver, where one feed serves every proposer, and the node-style use,
//! where a feed serves one replica and only that replica's requests advance
//! the stream.
//!
//! What is pinned here: on the repository's workloads the stream is drawn
//! about once per committed transaction, and balanced cross-shard routing
//! leaves no proposer of a cross-shard workload starved or hoarding.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tb_core::{ClientFeed, ClusterConfig, ClusterSimulation, Replica};
use tb_types::{CeConfig, Key, LatencyModel, ReplicaId, SimTime, Transaction, Value};
use tb_workload::{SmallBankConfig, SmallBankWorkload, Workload};

/// Counts the draws made on the workload it wraps.
struct Counted<W> {
    inner: W,
    draws: Arc<AtomicU64>,
}

impl<W: Workload + 'static> Counted<W> {
    fn boxed(inner: W) -> (Box<dyn Workload>, Arc<AtomicU64>) {
        let draws = Arc::new(AtomicU64::new(0));
        let counted = Counted {
            inner,
            draws: Arc::clone(&draws),
        };
        (Box::new(counted), draws)
    }
}

impl<W: Workload> Workload for Counted<W> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn n_shards(&self) -> u32 {
        self.inner.n_shards()
    }
    fn configure_for_cluster(&mut self, n_shards: u32, cluster_seed: u64) {
        self.inner.configure_for_cluster(n_shards, cluster_seed);
    }
    fn initial_state(&self) -> Vec<(Key, Value)> {
        self.inner.initial_state()
    }
    fn next_transaction(&mut self, submitted_at: SimTime) -> Transaction {
        self.draws.fetch_add(1, Ordering::Relaxed);
        self.inner.next_transaction(submitted_at)
    }
}

fn lockstep_config(rounds: u64, batch: usize) -> ClusterConfig {
    let mut config = ClusterConfig::thunderbolt(4).with_lockstep();
    config.system.ce = CeConfig::new(2, batch).without_synthetic_cost();
    config.system.validators = 2;
    config.system.max_rounds = rounds;
    config.system.latency = LatencyModel::lan();
    config
}

/// Transactions in the blocks `author` proposed in rounds `rounds`, as the
/// observer's DAG holds them.
fn proposed_by(sim: &ClusterSimulation, author: u32, rounds: std::ops::Range<u64>) -> Vec<usize> {
    sim.replica(ReplicaId::new(0))
        .dag()
        .iter()
        .filter(|v| v.author() == ReplicaId::new(author) && rounds.contains(&v.round().as_u64()))
        .map(|v| v.block.tx_count())
        .collect()
}

#[test]
fn a_node_fills_its_own_queue_from_its_copy_of_the_stream() {
    // Node-style: the feed serves replica 3 alone and drops what is homed
    // elsewhere, so it draws about n transactions per one it queues.
    let batch = 32;
    let (mut workload, draws) = Counted::boxed(SmallBankWorkload::new(SmallBankConfig::default()));
    workload.configure_for_cluster(4, 7);
    let mut feed = ClientFeed::new(workload, batch);
    let mut replica = Replica::new(ReplicaId::new(3), lockstep_config(8, batch));

    feed.top_up(std::slice::from_mut(&mut replica), 0, SimTime::ZERO);
    assert_eq!(replica.pending_client_txs(), 2 * batch);
    let drawn = draws.load(Ordering::Relaxed);
    assert!(
        (4 * batch as u64..8 * 4 * batch as u64).contains(&drawn),
        "{drawn} draws for two batches of one shard in four"
    );
    // Above one batch the feed leaves the stream alone.
    feed.top_up(std::slice::from_mut(&mut replica), 0, SimTime::ZERO);
    assert_eq!(draws.load(Ordering::Relaxed), drawn);
}

#[test]
fn every_proposer_of_a_cross_shard_workload_is_supplied_and_none_hoards() {
    // The shape of the benchmark's `sim-cross`, at a quarter of its batch.
    let batch = 50;
    let (workload, draws) = Counted::boxed(SmallBankWorkload::new(SmallBankConfig {
        accounts: 1_000,
        theta: 0.85,
        cross_shard_fraction: 1.0,
        ..SmallBankConfig::default()
    }));
    let mut sim = ClusterSimulation::with_defaults(lockstep_config(120, batch), workload);
    let report = sim.run();
    assert_eq!(report.cross_shard_txs, report.committed_txs);

    let draws = draws.load(Ordering::Relaxed) as f64;
    let committed = report.committed_txs as f64;
    assert!(
        draws <= 1.5 * committed,
        "{draws} draws for {committed} committed transactions"
    );
    for replica in 0..4 {
        let queued = sim.replica(ReplicaId::new(replica)).pending_client_txs() as f64;
        assert!(
            queued <= 0.15 * committed,
            "replica {replica} ends with {queued} queued for {committed} committed"
        );
        let blocks = proposed_by(&sim, replica, 10..100);
        let mean = blocks.iter().sum::<usize>() as f64 / blocks.len() as f64;
        assert!(
            mean >= 0.5 * batch as f64,
            "replica {replica} proposes {mean:.0} transactions per block"
        );
    }
}
