//! The closed-loop client ([`ClientFeed`]) on both of its uses: the sim
//! driver, where one feed serves every proposer, and the node-style use,
//! where a feed serves one replica and only that replica's requests advance
//! the stream.
//!
//! What is pinned here: on the repository's workloads the stream is drawn
//! about once per committed transaction; every proposer's queue is the
//! home-filtered stream, held to two batches, however unevenly the stream
//! supplies the shards; a transaction is submitted when it is handed to its
//! proposer, so latency does not grow with the length of the run.

use std::sync::{Arc, Mutex};
use tb_core::{
    ClientFeed, ClusterConfig, ClusterSimulation, Message, Replica, RunReport, ScenarioBuilder,
};
use tb_types::{
    ClientId, ContractCall, Key, LatencyModel, ReplicaId, ShardId, SimTime, SmallBankProcedure,
    Transaction, TxId, Value,
};
use tb_workload::{SmallBankConfig, SmallBankWorkload, Workload};

/// Client transactions queued at `replica`.
fn queued(replica: &Replica) -> usize {
    let queues = replica.app().queues();
    queues.pending_single() + queues.pending_cross()
}

/// One draw from the stream: the transaction, its home shard, and the time
/// the feed drew it.
type Draw = (TxId, ShardId, SimTime);

/// Logs the draws made on the workload it wraps.
struct Recorded<W> {
    inner: W,
    draws: Arc<Mutex<Vec<Draw>>>,
}

impl<W: Workload + 'static> Recorded<W> {
    fn boxed(inner: W) -> (Box<dyn Workload>, Arc<Mutex<Vec<Draw>>>) {
        let draws = Arc::new(Mutex::new(Vec::new()));
        let recorded = Recorded {
            inner,
            draws: Arc::clone(&draws),
        };
        (Box::new(recorded), draws)
    }
}

impl<W: Workload> Workload for Recorded<W> {
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
        let tx = self.inner.next_transaction(submitted_at);
        let draw = (tx.id, tx.home_shard(), submitted_at);
        self.draws.lock().unwrap().push(draw);
        tx
    }
}

/// Cross-shard payments over four shards, homed on shard 0 half of the time
/// and on each other shard a sixth of the time.
#[derive(Default)]
struct Skewed {
    next: u64,
}

impl Workload for Skewed {
    fn name(&self) -> &str {
        "skewed"
    }
    fn n_shards(&self) -> u32 {
        4
    }
    fn configure_for_cluster(&mut self, n_shards: u32, _cluster_seed: u64) {
        assert_eq!(n_shards, 4);
    }
    fn initial_state(&self) -> Vec<(Key, Value)> {
        Vec::new()
    }
    fn next_transaction(&mut self, submitted_at: SimTime) -> Transaction {
        let id = self.next;
        self.next += 1;
        // Shards {0, other}: an even id homes on shard 0, an odd id on the
        // other one (`Transaction::home_shard`).
        let other = if id.is_multiple_of(2) {
            1
        } else {
            1 + (id / 2) % 3
        };
        let call = SmallBankProcedure::SendPayment {
            from: 4 * (id % 64),
            to: 4 * (id % 64) + other,
            amount: 1,
        };
        Transaction::new(
            TxId::new(id),
            ClientId::new(0),
            ContractCall::SmallBank(call),
            4,
            submitted_at,
        )
    }
}

fn lockstep(rounds: u64, batch: usize) -> ScenarioBuilder {
    ScenarioBuilder::new(4)
        .lockstep()
        .executors(2, batch)
        .validators(2)
        .rounds(rounds)
        .latency(LatencyModel::lan())
        .tune(|system| system.ce = system.ce.without_synthetic_cost())
}

fn lockstep_config(rounds: u64, batch: usize) -> ClusterConfig {
    lockstep(rounds, batch).config().clone()
}

/// The single-shard Zipf workload of the benchmark's `sim-single`.
fn zipf_single_shard() -> SmallBankConfig {
    SmallBankConfig {
        accounts: 1_000,
        theta: 0.85,
        cross_shard_fraction: 0.0,
        ..SmallBankConfig::default()
    }
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

/// The cross-shard transactions of the block `replica` proposes first.
fn first_block(replica: &mut Replica, now: SimTime) -> Vec<Transaction> {
    let outbound = replica.start(now);
    match &outbound[0].msg {
        Message::Header { block, .. } => block.payload.cross_shard.clone(),
        other => panic!("a first proposal is a header, got {other:?}"),
    }
}

#[test]
fn a_node_fills_its_own_queue_from_its_copy_of_the_stream() {
    // Node-style: the feed serves replica 3 alone and drops what is homed
    // elsewhere, so it draws about n transactions per one it queues.
    let batch = 32;
    let (mut workload, draws) = Recorded::boxed(SmallBankWorkload::new(SmallBankConfig::default()));
    workload.configure_for_cluster(4, 7);
    let mut feed = ClientFeed::new(workload, batch);
    let mut replica = Replica::new(ReplicaId::new(3), lockstep_config(8, batch));

    feed.top_up(std::slice::from_mut(&mut replica), 0, SimTime::ZERO);
    assert_eq!(queued(&replica), 2 * batch);
    let drawn = draws.lock().unwrap().len();
    assert!(
        (4 * batch..8 * 4 * batch).contains(&drawn),
        "{drawn} draws for two batches of one shard in four"
    );
    // Above one batch the feed leaves the stream alone.
    feed.top_up(std::slice::from_mut(&mut replica), 0, SimTime::ZERO);
    assert_eq!(draws.lock().unwrap().len(), drawn);
}

#[test]
fn every_proposer_of_a_cross_shard_workload_is_supplied_and_none_hoards() {
    // The shape of the benchmark's `sim-cross`, at a quarter of its batch.
    let batch = 50;
    let (workload, draws) = Recorded::boxed(SmallBankWorkload::new(SmallBankConfig {
        cross_shard_fraction: 1.0,
        ..zipf_single_shard()
    }));
    let mut sim = lockstep(120, batch).workload(workload).build();
    let report = sim.run();
    assert_eq!(report.cross_shard_txs, report.committed_txs);

    let draws = draws.lock().unwrap().len() as f64;
    let committed = report.committed_txs as f64;
    assert!(
        draws <= 1.5 * committed,
        "{draws} draws for {committed} committed transactions"
    );
    for replica in 0..4 {
        let queued = queued(sim.replica(ReplicaId::new(replica)));
        assert!(
            queued <= 2 * batch,
            "replica {replica} ends with {queued} queued, batch {batch}"
        );
        let blocks = proposed_by(&sim, replica, 10..100);
        let mean = blocks.iter().sum::<usize>() as f64 / blocks.len() as f64;
        assert!(
            mean >= 0.5 * batch as f64,
            "replica {replica} proposes {mean:.0} transactions per block"
        );
    }
}

#[test]
fn no_proposer_of_a_lockstep_sim_holds_more_than_two_batches() {
    // A queue only grows in a top-up, so sampling the queues at the end of
    // runs of every length samples them after top-ups all through a run.
    let batch = 50;
    for rounds in (10..=160).step_by(30) {
        let mut sim = lockstep(rounds, batch)
            .workload(SmallBankWorkload::new(zipf_single_shard()))
            .build();
        let report = sim.run();
        assert!(report.committed_txs > 0);
        for replica in 0..4 {
            let queued = queued(sim.replica(ReplicaId::new(replica)));
            assert!(
                queued <= 2 * batch,
                "replica {replica} holds {queued} after {rounds} rounds, batch {batch}"
            );
        }
    }
}

#[test]
fn a_skewed_stream_fills_each_queue_in_stream_order_and_stamps_at_hand_over() {
    let batch = 10;
    let (workload, draws) = Recorded::boxed(Skewed::default());
    let mut feed = ClientFeed::new(workload, batch);
    let mut replicas: Vec<Replica> = (0..4)
        .map(|i| Replica::new(ReplicaId::new(i), lockstep_config(8, batch)))
        .collect();
    let serving = |replicas: &[Replica], shard: u32| {
        replicas
            .iter()
            .position(|r| r.current_shard() == ShardId::new(shard))
            .expect("every shard is served")
    };
    let (asker, hoarder) = (serving(&replicas, 1), serving(&replicas, 0));

    // Shard 1 asks first. Its proposer gets only a sixth of the draws, so
    // the draws for it leave shard 0 more than two batches.
    let asked_at = SimTime::from_millis(1);
    feed.top_up(&mut replicas, asker, asked_at);
    let drawn = draws.lock().unwrap().len();
    let for_shard_0 = draws
        .lock()
        .unwrap()
        .iter()
        .filter(|(_, home, _)| *home == ShardId::new(0))
        .count();
    assert!(
        for_shard_0 > 2 * batch,
        "{for_shard_0} of {drawn} for shard 0"
    );
    // Shard 0 asks later and is served from what was drawn for shard 1.
    let handed_at = SimTime::from_millis(2);
    feed.top_up(&mut replicas, hoarder, handed_at);
    assert_eq!(draws.lock().unwrap().len(), drawn, "no new draws");
    for replica in &replicas {
        assert!(queued(replica) <= 2 * batch);
    }
    assert_eq!(queued(&replicas[hoarder]), 2 * batch);

    let draws = draws.lock().unwrap().clone();
    for (replica, submitted_at) in [(asker, asked_at), (hoarder, handed_at)] {
        let shard = replicas[replica].current_shard();
        let block = first_block(&mut replicas[replica], SimTime::from_millis(3));
        assert_eq!(block.len(), batch);
        let ids: Vec<TxId> = block.iter().map(|tx| tx.id).collect();
        let stream: Vec<TxId> = draws
            .iter()
            .filter(|(_, home, _)| *home == shard)
            .map(|(id, _, _)| *id)
            .take(batch)
            .collect();
        assert_eq!(ids, stream, "{shard}: the home-filtered stream, in order");
        for tx in &block {
            assert_eq!(tx.submitted_at, submitted_at, "{shard}: {}", tx.id);
        }
    }
    // Every transaction shard 0 proposed was drawn at the first request and
    // held until the second.
    assert!(draws.iter().all(|(_, _, at)| *at == asked_at));
}

#[test]
fn latency_does_not_grow_with_the_length_of_the_run() {
    let run = |rounds| -> RunReport {
        lockstep(rounds, 50)
            .workload(SmallBankWorkload::new(zipf_single_shard()))
            .run()
    };
    let (short, long) = (run(60), run(240));
    let ratio = long.avg_latency_secs() / short.avg_latency_secs();
    assert!(
        ratio < 1.5,
        "mean latency {:.2} ms over 60 rounds, {:.2} ms over 240",
        short.avg_latency_secs() * 1e3,
        long.avg_latency_secs() * 1e3
    );
    // Queue wait is a part of latency, and a bounded one.
    for report in [&short, &long] {
        assert!(report.avg_queue_wait_secs() > 0.0);
        assert!(report.avg_queue_wait_secs() < report.avg_latency_secs());
    }
}
