//! Gate on the apply granularity of the commit pipeline.
//!
//! A committed sub-DAG is the batch: the pipeline read-checks all of its
//! preplayed blocks in one pass and hands all of their write batches to
//! storage in **one** [`Store::apply_batches`](tb_storage::Store) call, so
//! `CommitOutput::apply_calls` is 1 per fault-free `process` and
//! `coalesced_batches` is the number of valid blocks whenever there are at
//! least two. Both are properties of the code's structure, not of thread
//! scheduling, so they can be asserted exactly. This file pins the structure
//! from both sides:
//!
//! * a deep backlog commits in one storage call, and identically to
//!   committing each of its blocks as a sub-DAG of its own;
//! * a longer backlog coalesces all of its blocks into one storage call.

use std::sync::Arc;
use tb_core::commit::{CommitOutput, CommitPipeline, PostCommitExecution};
use tb_dag::{CommittedSubDag, DagBuilder};
use tb_executor::{BatchExecutor, ConcurrentExecutor};
use tb_storage::MemStore;
use tb_types::{
    BlockKind, BlockPayload, CeConfig, ClientId, Committee, ContractCall, DagId, PreplayedTx,
    ReplicaId, Round, SimTime, SmallBankProcedure, Transaction, TxId,
};

fn funded_store(accounts: u64) -> MemStore {
    let store = MemStore::new();
    store.load(tb_workload::initial_smallbank_state(
        accounts,
        tb_contracts::SMALLBANK_DEFAULT_BALANCE,
    ));
    store
}

fn payment(id: u64, from: u64, to: u64, amount: i64) -> Transaction {
    Transaction::new(
        TxId::new(id),
        ClientId::new(0),
        ContractCall::SmallBank(SmallBankProcedure::SendPayment { from, to, amount }),
        1,
        SimTime::ZERO,
    )
}

/// Preplays `rounds` consecutive SmallBank payment blocks, each chained on
/// the previous block's writes, and wraps them in one committed sub-DAG —
/// the shape the G1 path batches.
fn backlogged_sub_dag(accounts: u64, rounds: usize, per_block: usize) -> CommittedSubDag {
    let scratch = funded_store(accounts);
    let ce = ConcurrentExecutor::new(CeConfig::new(2, 64).without_synthetic_cost());
    let mut blocks: Vec<Vec<PreplayedTx>> = Vec::new();
    let mut next_id = 0u64;
    for _ in 0..rounds {
        let txs: Vec<Transaction> = (0..per_block)
            .map(|i| {
                next_id += 1;
                payment(next_id, 0, ((i as u64) % (accounts / 2)) * 2, 1)
            })
            .collect();
        let result = ce.preplay(&txs, &scratch);
        result.apply_to(&scratch);
        blocks.push(result.preplayed);
    }

    let committee = Committee::new(4);
    let mut builder = DagBuilder::new(committee, DagId::new(0), Round::ZERO);
    let mut vertices = Vec::new();
    for (i, block) in blocks.into_iter().enumerate() {
        let payload = BlockPayload {
            single_shard: block,
            cross_shard: vec![],
        };
        vertices.push(Arc::new(builder.make_vertex(
            ReplicaId::new((i % 4) as u32),
            Round::new(i as u64 / 4),
            BlockKind::Normal,
            payload,
            vec![],
        )));
    }
    let leader = vertices.last().expect("at least one vertex").clone();
    CommittedSubDag {
        leader,
        leader_round: Round::new(rounds as u64 / 4 + 1),
        vertices,
    }
}

/// The oracle: each vertex of `sub_dag` committed to `store` as a sub-DAG of
/// its own, in delivery order, at one worker. The outputs are summed.
fn commit_block_by_block(sub_dag: &CommittedSubDag, store: &MemStore) -> CommitOutput {
    let pipeline = CommitPipeline::new(PostCommitExecution::Pipelined { workers: 1 });
    let mut total = CommitOutput::default();
    for vertex in &sub_dag.vertices {
        let alone = CommittedSubDag {
            leader: vertex.clone(),
            leader_round: sub_dag.leader_round,
            vertices: vec![vertex.clone()],
        };
        let output = pipeline.process(&alone, store, SimTime::from_secs(1));
        total.committed.extend(output.committed);
        total.invalid_blocks += output.invalid_blocks;
        total.single_shard_committed += output.single_shard_committed;
    }
    total
}

/// A deep backlog of chained blocks goes to storage in one call, all of its
/// blocks coalesced, and commits exactly what committing its blocks one by
/// one commits — the same transactions in the same order ending in the same
/// state.
#[test]
fn a_backlog_coalesces_and_commits_like_block_by_block_commits() {
    let sub_dag = backlogged_sub_dag(16, 40, 8);

    let oracle_store = funded_store(16);
    let oracle = commit_block_by_block(&sub_dag, &oracle_store);
    assert_eq!(oracle.invalid_blocks, 0);

    let store = funded_store(16);
    let pipeline = CommitPipeline::new(PostCommitExecution::Pipelined { workers: 2 });
    let output = pipeline.process(&sub_dag, &store, SimTime::from_secs(1));
    assert_eq!(output.invalid_blocks, 0);
    // Strictly fewer apply calls than there are blocks — fault-free,
    // exactly one for the whole sub-DAG.
    assert!(
        output.apply_calls < 40,
        "{} apply calls for 40 blocks — no coalescing",
        output.apply_calls
    );
    assert_eq!(output.apply_calls, 1);
    assert_eq!(output.coalesced_batches, 40);

    // Identical commit sequence and state regardless of coalescing.
    assert_eq!(oracle.committed, output.committed);
    assert_eq!(oracle.single_shard_committed, output.single_shard_committed);
    let diff = oracle_store.snapshot().diff_values(&store.snapshot());
    assert!(diff.is_empty(), "state divergence on {diff:?}");
}

/// A commit of 160 chained blocks must coalesce — all of them, into one
/// storage call, on any scheduler.
#[test]
fn a_backlogged_commit_actually_coalesces() {
    let sub_dag = backlogged_sub_dag(16, 160, 4);
    let store = funded_store(16);
    let pipeline = CommitPipeline::new(PostCommitExecution::Pipelined { workers: 2 });
    let output = pipeline.process(&sub_dag, &store, SimTime::from_secs(1));
    assert_eq!(output.invalid_blocks, 0);
    assert!(
        output.coalesced_batches > 0,
        "160 back-to-back blocks never coalesced: the commit went back to \
         one storage call per block (the coalesced_batches:0 pathology)"
    );
    assert!(
        output.apply_calls <= 81,
        "{} apply calls for 160 blocks",
        output.apply_calls
    );
    assert_eq!(output.apply_calls, 1, "fault-free: one apply per `process`");
}
