//! The commit pipeline's batching (one read check and one storage apply per
//! sub-DAG) must be a pure granularity choice: commit order and applied
//! state are identical between one commit of a sub-DAG and the oracle that
//! commits each of its blocks as a sub-DAG of its own, one after the other
//! at one worker, at any validation-worker and preplay-executor count, with
//! honest and with invalid blocks. How much faster it is is measured by
//! `benchmark/` (see `benchmark/README.md`), not asserted here.

use std::collections::VecDeque;
use std::sync::Arc;
use tb_core::commit::{CommitOutput, CommitPipeline, PostCommitExecution};
use tb_core::{ClusterConfig, ExecutionMode, Message, Replica};
use tb_dag::{CommittedSubDag, DagBuilder};
use tb_executor::{BatchExecutor, ConcurrentExecutor};
use tb_storage::MemStore;
use tb_types::{
    AccessRecord, BlockKind, BlockPayload, CeConfig, ClientId, Committee, ContractCall, DagId, Key,
    PreplayedTx, ReplicaId, Round, SimTime, SmallBankProcedure, SystemConfig, Transaction, TxId,
    Value,
};
use tb_workload::{SmallBankConfig, SmallBankWorkload, Workload};

fn seeded_workload(accounts: u64, seed: u64) -> SmallBankWorkload {
    SmallBankWorkload::new(SmallBankConfig {
        accounts,
        n_shards: 1,
        theta: 0.85,
        seed,
        ..SmallBankConfig::default()
    })
}

fn funded_store(workload: &SmallBankWorkload) -> MemStore {
    let store = MemStore::new();
    store.load(workload.initial_state());
    store
}

/// Preplays `rounds` consecutive blocks of a seeded SmallBank workload, each
/// chained on the state the previous block left behind.
fn seeded_blocks(rounds: usize, per_block: usize) -> Vec<Vec<PreplayedTx>> {
    let mut workload = seeded_workload(64, 7);
    let scratch = funded_store(&workload);
    let ce = ConcurrentExecutor::new(CeConfig::new(4, per_block).without_synthetic_cost());
    let mut blocks = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let txs = workload.batch(per_block, SimTime::ZERO);
        let result = ce.preplay(&txs, &scratch);
        result.apply_to(&scratch);
        blocks.push(result.preplayed);
    }
    blocks
}

fn sub_dag_of(blocks: &[Vec<PreplayedTx>]) -> CommittedSubDag {
    let committee = Committee::new(4);
    let mut builder = DagBuilder::new(committee, DagId::new(0), Round::ZERO);
    let mut vertices = Vec::new();
    for (i, block) in blocks.iter().enumerate() {
        let payload = BlockPayload {
            single_shard: block.clone(),
            cross_shard: vec![],
        };
        vertices.push(Arc::new(builder.make_vertex(
            ReplicaId::new((i % 4) as u32),
            Round::new((i / 4) as u64),
            BlockKind::Normal,
            payload,
            vec![],
        )));
    }
    let leader = vertices.last().expect("at least one block").clone();
    CommittedSubDag {
        leader,
        leader_round: Round::new(1),
        vertices,
    }
}

/// The oracle the batched commit is checked against: each of `blocks`
/// committed to `store` as a sub-DAG of its own, in order, through the
/// pipeline at one worker. The outputs are summed.
fn commit_block_by_block(blocks: &[Vec<PreplayedTx>], store: &MemStore) -> CommitOutput {
    let pipeline = CommitPipeline::new(PostCommitExecution::Pipelined { workers: 1 });
    let mut total = CommitOutput::default();
    for block in blocks {
        let sub_dag = sub_dag_of(std::slice::from_ref(block));
        let output = pipeline.process(&sub_dag, store, SimTime::from_secs(1));
        total.committed.extend(output.committed);
        total.invalid_blocks += output.invalid_blocks;
        total.single_shard_committed += output.single_shard_committed;
    }
    total
}

/// A seeded 20-block SmallBank sub-DAG commits the identical sequence and
/// final storage state in one commit at eight workers and block by block.
#[test]
fn one_commit_matches_block_by_block_commits_on_twenty_blocks() {
    let blocks = seeded_blocks(20, 100);
    let workload = seeded_workload(64, 7);

    let oracle_store = funded_store(&workload);
    let oracle = commit_block_by_block(&blocks, &oracle_store);
    let store = funded_store(&workload);
    let output = CommitPipeline::new(PostCommitExecution::Pipelined { workers: 8 }).process(
        &sub_dag_of(&blocks),
        &store,
        SimTime::from_secs(1),
    );

    assert_eq!(oracle.invalid_blocks, 0, "honest blocks must validate");
    assert_eq!(output.invalid_blocks, 0);
    assert_eq!(oracle.committed, output.committed);
    let diff = oracle_store.snapshot().diff_values(&store.snapshot());
    assert!(diff.is_empty(), "state divergence on {diff:?}");
}

/// One commit at any worker count and block-by-block commits must commit
/// byte-identical sequences: the FNV-1a fold over the committed transaction
/// ids (the same digest replicas and run reports carry) is pinned equal
/// across them, for honest and tampered inputs alike.
#[test]
fn all_worker_counts_agree_with_block_by_block_commits_on_the_fnv1a_digest() {
    let mut blocks = seeded_blocks(8, 40);
    // One tampered block: the digest agreement must also hold when the
    // paths discard a block (its transactions never enter the fold).
    blocks[3][0].outcome.read_set[0].value = Value::int(999_999);
    let sub_dag = sub_dag_of(&blocks);
    let workload = seeded_workload(64, 7);

    let oracle_store = funded_store(&workload);
    let oracle = commit_block_by_block(&blocks, &oracle_store);
    let oracle_digest = commit_digest(&oracle.committed);
    let oracle_state = oracle_store.snapshot();
    assert!(
        oracle.invalid_blocks >= 1,
        "the tampered block must be discarded"
    );
    for workers in [1, 2, 8] {
        let store = funded_store(&workload);
        let pipeline = CommitPipeline::new(PostCommitExecution::Pipelined { workers });
        let output = pipeline.process(&sub_dag, &store, SimTime::from_secs(1));
        assert_eq!(
            output.invalid_blocks, oracle.invalid_blocks,
            "{workers} workers: discard divergence"
        );
        assert_eq!(
            commit_digest(&output.committed),
            oracle_digest,
            "{workers} workers committed a different order than block by block"
        );
        let diff = store.snapshot().diff_values(&oracle_state);
        assert!(
            diff.is_empty(),
            "{workers} workers: state diverged on {diff:?}"
        );
    }
}

/// The FNV-1a fold over the committed transaction ids: the digest replicas
/// and run reports carry.
fn commit_digest(committed: &[(TxId, SimTime)]) -> u64 {
    committed
        .iter()
        .fold(tb_core::app::COMMIT_DIGEST_SEED, |digest, (id, _)| {
            (digest ^ id.as_inner()).wrapping_mul(0x0100_0000_01b3)
        })
}

/// SplitMix64: a seeded stream of test decisions without a dependency.
struct TestRng(u64);

impl TestRng {
    fn below(&mut self, bound: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % bound as u64) as usize
    }
}

/// The four ways a Byzantine proposer can misdeclare a preplayed block: a
/// block declares reads, and positions by where it puts its transactions,
/// and nothing else.
#[derive(Clone, Copy, Debug)]
enum Tamper {
    ReadValue,
    ExtraRead,
    DroppedRead,
    /// Two transactions preplayed at one position: the block's first
    /// transaction again right behind it, declaring the reads it made
    /// before the first one's write.
    SamePosition,
}

const TAMPERS: [Tamper; 4] = [
    Tamper::ReadValue,
    Tamper::ExtraRead,
    Tamper::DroppedRead,
    Tamper::SamePosition,
];

fn tamper(block: &mut Vec<PreplayedTx>, how: Tamper) {
    let again = block[0].clone();
    let reads = &mut block[0].outcome.read_set;
    assert!(!reads.is_empty(), "the hot payment reads");
    match how {
        Tamper::ReadValue => reads[0].value = Value::int(-1),
        // A key no SmallBank call reads: the replay never reads it, so the
        // count rule fails while every write comes out honest.
        Tamper::ExtraRead => reads.push(AccessRecord::new(Key::scratch(1 << 40), Value::None)),
        Tamper::DroppedRead => drop(reads.remove(0)),
        Tamper::SamePosition => block.insert(1, again),
    }
}

/// Preplays `rounds` chained blocks of one shard proposer (consecutive
/// rounds, each on the state the previous block left). Every block opens
/// with a payment out of account 0, so every block reads a value that only
/// its predecessor wrote.
fn hot_chained_blocks(seed: u64, rounds: usize, per_block: usize) -> Vec<Vec<PreplayedTx>> {
    let mut workload = seeded_workload(16, seed);
    let scratch = funded_store(&workload);
    let ce = ConcurrentExecutor::new(CeConfig::new(2, per_block).without_synthetic_cost());
    (0..rounds)
        .map(|round| {
            let mut txs = vec![Transaction::new(
                TxId::new(1_000_000 + round as u64),
                ClientId::new(0),
                ContractCall::SmallBank(SmallBankProcedure::SendPayment {
                    from: 0,
                    to: 1 + round as u64 % 15,
                    amount: 1,
                }),
                1,
                SimTime::ZERO,
            )];
            txs.extend(workload.batch(per_block - 1, SimTime::ZERO));
            let result = ce.preplay(&txs, &scratch);
            result.apply_to(&scratch);
            result.preplayed
        })
        .collect()
}

/// Asserts that one commit of `blocks` over 16 funded accounts, at every
/// worker count, commits exactly as block-by-block commits do, and returns
/// the oracle's output.
fn assert_one_commit_matches_block_by_block(
    blocks: &[Vec<PreplayedTx>],
    case: &str,
) -> CommitOutput {
    let funded = || funded_store(&seeded_workload(16, 0));
    let oracle_store = funded();
    let oracle = commit_block_by_block(blocks, &oracle_store);
    let oracle_state = oracle_store.snapshot();
    for workers in [1, 2, 4] {
        let what = format!("{case}, {workers} workers");
        let store = funded();
        let out = CommitPipeline::new(PostCommitExecution::Pipelined { workers }).process(
            &sub_dag_of(blocks),
            &store,
            SimTime::from_secs(1),
        );
        let state = store.snapshot();
        assert_eq!(out.committed, oracle.committed, "{what}");
        assert_eq!(out.invalid_blocks, oracle.invalid_blocks, "{what}");
        assert_eq!(
            out.single_shard_committed, oracle.single_shard_committed,
            "{what}"
        );
        assert_eq!(
            commit_digest(&out.committed),
            commit_digest(&oracle.committed),
            "{what}"
        );
        let diff = state.diff_values(&oracle_state);
        assert!(diff.is_empty(), "{what}: state diverged on {diff:?}");
        assert_eq!(state.len(), oracle_state.len(), "{what}");
    }
    oracle
}

/// Seeded random sub-DAGs of 1–12 chained blocks, 0–3 of them invalid in one
/// of the four ways: one read check with restarts must discard exactly the
/// blocks that block-by-block commits discard — the tampered ones and every
/// later block that read a value only a discarded block wrote.
#[test]
fn random_sub_dags_with_invalid_blocks_commit_like_block_by_block_commits() {
    let mut discarded = 0;
    for seed in 0..40u64 {
        let mut rng = TestRng(seed);
        let rounds = 1 + rng.below(12);
        let mut blocks = hot_chained_blocks(seed, rounds, 12);
        let invalid = rng.below(4).min(rounds);
        for _ in 0..invalid {
            let position = rng.below(rounds);
            tamper(&mut blocks[position], TAMPERS[rng.below(TAMPERS.len())]);
        }
        let oracle = assert_one_commit_matches_block_by_block(&blocks, &format!("seed {seed}"));
        assert!(invalid == 0 || oracle.invalid_blocks >= 1, "seed {seed}");
        discarded += oracle.invalid_blocks;
    }
    assert!(
        discarded >= 20,
        "only {discarded} blocks were ever discarded"
    );
}

/// The case a single fan-out gets wrong without the restart rule: with an
/// extra declared read (or a transaction repeated at one position), block 1's
/// replay derives its honest writes, so block 2 — which read the balance of
/// account 0 that only block 1 wrote — passes a read check over block 1's
/// batch. Block 1 is discarded, so block 2 must be too, and block 3 with it;
/// block 0 commits.
#[test]
fn a_block_that_read_what_only_a_discarded_block_wrote_is_discarded_too() {
    for how in TAMPERS {
        let mut blocks = hot_chained_blocks(3, 4, 12);
        tamper(&mut blocks[1], how);
        let oracle = assert_one_commit_matches_block_by_block(&blocks, &format!("{how:?}"));
        assert_eq!(oracle.invalid_blocks, 3, "{how:?}");
        assert_eq!(oracle.single_shard_committed, 12, "{how:?}");
    }
}

// ---------------------------------------------------------------------------
// Deterministic cluster comparison: replicas preplaying with different
// executor counts must commit the same sequence and end in the same state.
// ---------------------------------------------------------------------------

fn cluster_config(executors: usize) -> ClusterConfig {
    let mut system = SystemConfig::with_replicas(4);
    // Multi-worker preplay is safe here: the concurrent executor finalizes
    // its serialized order deterministically (batch order), so the emitted
    // blocks are independent of worker count and scheduling — pinned by
    // `executor_count_does_not_change_the_committed_sequence` below.
    system.ce = CeConfig::new(executors, 64).without_synthetic_cost();
    system.validators = 2;
    ClusterConfig {
        system,
        mode: ExecutionMode::Thunderbolt,
        use_skip_blocks: false,
        seed: 7,
        label: None,
        byzantine: None,
        lockstep: false,
    }
}

/// Synchronous, wall-clock-free message driver (FIFO delivery, zero
/// latency): every run sees the exact same message schedule, so any
/// divergence can only come from the replicas themselves.
fn run_synchronously(replicas: &mut [Replica], rounds_budget: usize) {
    let mut inbox: VecDeque<(ReplicaId, ReplicaId, Message)> = VecDeque::new();
    let now = SimTime::ZERO;
    let n = replicas.len();
    let enqueue = |inbox: &mut VecDeque<(ReplicaId, ReplicaId, Message)>,
                   from: ReplicaId,
                   outbound: tb_core::replica::Outbound| {
        match outbound.dest {
            tb_core::replica::Destination::Broadcast => {
                for to in 0..n {
                    inbox.push_back((from, ReplicaId::new(to as u32), outbound.msg.clone()));
                }
            }
            tb_core::replica::Destination::To(to) => inbox.push_back((from, to, outbound.msg)),
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

fn run_cluster(cfg: ClusterConfig) -> Vec<Replica> {
    let mut workload = SmallBankWorkload::new(SmallBankConfig {
        accounts: 64,
        n_shards: 4,
        cross_shard_fraction: 0.2,
        seed: 99,
        ..SmallBankConfig::default()
    });
    let mut replicas: Vec<Replica> = (0..4)
        .map(|i| {
            let mut replica = Replica::new(ReplicaId::new(i), cfg.clone());
            replica.app_mut().load_state(workload.initial_state());
            replica
        })
        .collect();
    // Route a seeded stream of transactions to the replica serving each
    // transaction's home shard (replica i serves shard i in DAG 0).
    let txs: Vec<Transaction> = (0..400)
        .map(|_| workload.next_transaction(SimTime::ZERO))
        .collect();
    for tx in txs {
        let home = tx.home_shard().as_inner() as usize;
        replicas[home].app_mut().queues_mut().enqueue(tx);
    }
    run_synchronously(&mut replicas, 10);
    replicas
}

#[test]
fn executor_count_does_not_change_the_committed_sequence() {
    // The pipelined commit path runs digest-gated in production with
    // multi-worker preplay; the deterministic finalize pass must make the
    // committed sequence a pure function of the scenario, whatever the
    // executor count.
    let reference = run_cluster(cluster_config(1));
    assert!(reference
        .iter()
        .all(|replica| replica.metrics().committed_txs > 0));
    for executors in [2usize, 4, 8] {
        let run = run_cluster(cluster_config(executors));
        for (a, b) in run.iter().zip(reference.iter()) {
            assert_eq!(
                a.metrics().committed_txs,
                b.metrics().committed_txs,
                "replica {} committed different amounts with {executors} executors",
                a.id()
            );
            assert_eq!(
                a.metrics().commit_order_digest,
                b.metrics().commit_order_digest,
                "replica {} committed a different order with {executors} executors",
                a.id()
            );
            let diff = a
                .app()
                .store()
                .snapshot()
                .diff_values(&b.app().store().snapshot());
            assert!(
                diff.is_empty(),
                "replica {} state diverged on {diff:?} with {executors} executors",
                a.id()
            );
        }
    }
}
