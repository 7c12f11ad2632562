//! The closed-loop client ([`ClientFeed`]) on both of its uses: the sim
//! driver, where one feed serves every proposer, and the node-style use,
//! where a feed serves one replica and draws its shard's stream alone.
//!
//! What is pinned here: a feed draws exactly what it queues, so the streams
//! are drawn about once per committed transaction; every proposer's queue
//! is its shard's stream in order, held to two batches; a node's feed hands
//! its proposer exactly what the sim's feed hands the same proposer, at any
//! request schedule; a transaction is submitted when it is drawn for its
//! proposer, so latency does not grow with the length of the run.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use tb_core::{
    ClientFeed, ClusterConfig, ClusterSimulation, Message, Replica, RunReport, ScenarioBuilder,
};
use tb_types::{Key, LatencyModel, ReplicaId, ShardId, SimTime, Transaction, TxId, Value};
use tb_workload::{KvWorkloadConfig, SmallBankConfig, SmallBankWorkload, Workload};

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
    fn next_transaction(&mut self, home: ShardId, submitted_at: SimTime) -> Transaction {
        let tx = self.inner.next_transaction(home, submitted_at);
        assert_eq!(tx.home_shard(), home, "{tx}");
        self.draws.lock().unwrap().push((tx.id, home, submitted_at));
        tx
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

/// Runs `sim` and returns its report and the transactions in each block
/// the observer (replica 0) admitted, by `(round, author)`: the run outlasts
/// the collection depth, so its DAG no longer holds the early rounds at the
/// end.
fn run_counting_blocks(sim: &mut ClusterSimulation) -> (RunReport, BTreeMap<(u64, u32), usize>) {
    let mut blocks = BTreeMap::new();
    let report = sim.run_with(|replicas| {
        for vertex in replicas[0].dag().iter() {
            let key = (vertex.round().as_u64(), vertex.author().as_inner());
            blocks.entry(key).or_insert_with(|| vertex.block.tx_count());
        }
    });
    (report, blocks)
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
fn a_node_draws_its_own_shard_and_exactly_what_it_queues() {
    // Node-style: the feed serves replica 3 alone, so it draws from shard
    // 3's stream only, one transaction per one it queues.
    let batch = 32;
    let (mut workload, draws) = Recorded::boxed(SmallBankWorkload::new(SmallBankConfig::default()));
    workload.configure_for_cluster(4, 7);
    let mut feed = ClientFeed::new(workload, batch);
    let mut replica = Replica::new(ReplicaId::new(3), lockstep_config(8, batch));
    let shard = replica.current_shard();

    feed.top_up(&mut replica, SimTime::ZERO);
    assert_eq!(queued(&replica), 2 * batch);
    let drawn = draws.lock().unwrap().clone();
    assert_eq!(drawn.len(), 2 * batch, "draws for two batches");
    assert!(drawn.iter().all(|(_, home, _)| *home == shard));
    // Above one batch the feed leaves the stream alone.
    feed.top_up(&mut replica, SimTime::ZERO);
    assert_eq!(draws.lock().unwrap().len(), drawn.len());
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
    let (report, blocks) = run_counting_blocks(&mut sim);
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
        let proposed: Vec<usize> = blocks
            .iter()
            .filter(|((round, author), _)| (10..100).contains(round) && *author == replica)
            .map(|(_, txs)| *txs)
            .collect();
        assert_eq!(proposed.len(), 90, "replica {replica}: one block a round");
        let mean = proposed.iter().sum::<usize>() as f64 / proposed.len() as f64;
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
fn each_queue_is_its_shards_stream_in_order_stamped_when_asked() {
    let batch = 10;
    let (mut workload, draws) = Recorded::boxed(SmallBankWorkload::new(SmallBankConfig {
        cross_shard_fraction: 1.0,
        ..zipf_single_shard()
    }));
    workload.configure_for_cluster(4, 3);
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
    let (first, second) = (serving(&replicas, 1), serving(&replicas, 0));

    // Shard 1 asks first and is drawn two batches of its own stream; shard
    // 0's stream is not touched until shard 0 asks.
    let first_at = SimTime::from_millis(1);
    feed.top_up(&mut replicas[first], first_at);
    assert_eq!(draws.lock().unwrap().len(), 2 * batch);
    let second_at = SimTime::from_millis(2);
    feed.top_up(&mut replicas[second], second_at);
    assert_eq!(draws.lock().unwrap().len(), 4 * batch);
    for replica in &replicas {
        assert!(queued(replica) <= 2 * batch);
    }
    assert_eq!(queued(&replicas[second]), 2 * batch);

    let draws = draws.lock().unwrap().clone();
    for (replica, submitted_at) in [(first, first_at), (second, second_at)] {
        let shard = replicas[replica].current_shard();
        // The stamps stay in the queue: a block does not ship them.
        let mut queue = replicas[replica].app().queues().clone();
        for tx in queue.take_cross_batch(batch) {
            assert_eq!(tx.submitted_at, submitted_at, "{shard}: {}", tx.id);
        }
        let block = first_block(&mut replicas[replica], SimTime::from_millis(3));
        assert_eq!(block.len(), batch);
        let ids: Vec<TxId> = block.iter().map(|tx| tx.id).collect();
        let stream: Vec<TxId> = draws
            .iter()
            .filter(|(_, home, _)| *home == shard)
            .map(|(id, _, _)| *id)
            .take(batch)
            .collect();
        assert_eq!(ids, stream, "{shard}: its stream, in order");
        assert!(draws
            .iter()
            .filter(|(_, home, _)| *home == shard)
            .all(|(_, _, at)| *at == submitted_at));
    }
}

/// What one proposer was handed, in order: each transaction's id, call and
/// submission time.
type Handed = Vec<(TxId, tb_types::ContractCall, SimTime)>;

/// Takes one block's worth of `replica`'s queue into `handed`, as a
/// proposal of `batch` transactions does: singles first, then cross-shard
/// transactions up to the batch.
fn propose(replica: &mut Replica, batch: usize, handed: &mut Handed) {
    let queues = replica.app_mut().queues_mut();
    let mut taken = queues.take_single_batch();
    taken.extend(queues.take_cross_batch(batch - taken.len()));
    handed.extend(
        taken
            .into_iter()
            .map(|tx| (tx.id, tx.call, tx.submitted_at)),
    );
}

/// Drives the sim's all-shard feed and one node-style feed per shard with
/// one random request schedule, and returns what each side handed each
/// proposer.
fn handed_under_a_random_schedule(
    workload: impl Fn() -> Box<dyn Workload>,
    seed: u64,
) -> [Vec<Handed>; 2] {
    let batch = 8;
    let config = lockstep_config(8, batch);
    let replicas = || -> Vec<Replica> {
        (0..4)
            .map(|i| Replica::new(ReplicaId::new(i), config.clone()))
            .collect()
    };
    let configured = || {
        let mut w = workload();
        w.configure_for_cluster(4, seed);
        w
    };
    let mut sim = (ClientFeed::new(configured(), batch), replicas());
    let mut nodes: Vec<ClientFeed> = (0..4)
        .map(|_| ClientFeed::new(configured(), batch))
        .collect();
    let mut node_replicas = replicas();
    let (mut sim_handed, mut node_handed) = (vec![Handed::new(); 4], vec![Handed::new(); 4]);

    // SplitMix64 over the seed: which proposer asks, and whether a
    // proposal took a block from its queue first.
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for step in 0..60 {
        let (r, roll) = (next() as usize % 4, next());
        let now = SimTime::from_micros(step);
        if roll % 3 != 0 {
            propose(&mut sim.1[r], batch, &mut sim_handed[r]);
            propose(&mut node_replicas[r], batch, &mut node_handed[r]);
        }
        sim.0.top_up(&mut sim.1[r], now);
        nodes[r].top_up(&mut node_replicas[r], now);
    }
    // What is still queued was handed over too.
    for r in 0..4 {
        for _ in 0..4 {
            propose(&mut sim.1[r], batch, &mut sim_handed[r]);
            propose(&mut node_replicas[r], batch, &mut node_handed[r]);
        }
        assert_eq!(queued(&sim.1[r]), 0);
    }
    [sim_handed, node_handed]
}

#[test]
fn a_node_feed_hands_its_proposer_what_the_sim_feed_does_at_any_schedule() {
    let smallbank = || -> Box<dyn Workload> {
        SmallBankConfig {
            cross_shard_fraction: 0.2,
            ..zipf_single_shard()
        }
        .into()
    };
    let kv = || -> Box<dyn Workload> {
        KvWorkloadConfig {
            cross_shard_fraction: 0.2,
            ..KvWorkloadConfig::default()
        }
        .into()
    };
    for seed in 0..100 {
        for (name, [sim, node]) in [
            ("smallbank", handed_under_a_random_schedule(smallbank, seed)),
            ("kv", handed_under_a_random_schedule(kv, seed)),
        ] {
            for (r, (sim, node)) in sim.iter().zip(&node).enumerate() {
                assert!(
                    !sim.is_empty(),
                    "{name}, seed {seed}: replica {r} was never asked"
                );
                assert_eq!(sim, node, "{name}, seed {seed}: replica {r}");
            }
        }
    }
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
