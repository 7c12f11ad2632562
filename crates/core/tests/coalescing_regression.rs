//! Gate on the apply granularity of the pipelined commit path.
//!
//! A committed sub-DAG is the batch: the pipelined path validates all of its
//! preplayed blocks in one fan-out and hands all of their write batches to
//! storage in **one** [`Store::apply_batches`](tb_storage::Store) call, so
//! `CommitOutput::apply_calls` is 1 per fault-free `process` and
//! `coalesced_batches` is the number of valid blocks whenever there are at
//! least two. Both are properties of the code's structure, not of thread
//! scheduling, so they can be asserted exactly. This file pins the structure
//! from both sides:
//!
//! * the accounting stays exclusive to the pipelined path (the serial path
//!   applies one batch per block and never reports coalescing), and a deep
//!   backlog commits identically on both paths;
//! * a backlogged pipelined commit coalesces all of its blocks into one
//!   storage call.

use std::sync::Arc;
use tb_core::commit::{CommitPipeline, PostCommitExecution};
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
/// the shape the pipelined G1 path batches.
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

/// `coalesced_batches` is an exclusive property of the pipelined path (the
/// serial path always reports zero), and a deep backlog of chained blocks
/// commits identically on both paths — the same transactions in the same
/// order ending in the same state — at either apply granularity.
#[test]
fn coalescing_accounting_is_pipelined_only_and_backlogs_stay_correct() {
    let sub_dag = backlogged_sub_dag(16, 40, 8);

    let staged_store = funded_store(16);
    let staged = CommitPipeline::new(PostCommitExecution::Serial);
    let staged_out = staged.process(&sub_dag, &staged_store, SimTime::from_secs(1));
    assert_eq!(
        staged_out.coalesced_batches, 0,
        "the serial path applies block by block, so it must never coalesce"
    );
    assert_eq!(staged_out.invalid_blocks, 0);

    // The serial path applies one batch per valid block.
    assert_eq!(staged_out.apply_calls, 40);

    let pipelined_store = funded_store(16);
    let pipelined = CommitPipeline::new(PostCommitExecution::Pipelined { workers: 2 });
    let pipelined_out = pipelined.process(&sub_dag, &pipelined_store, SimTime::from_secs(1));
    assert_eq!(pipelined_out.invalid_blocks, 0);
    // The pipelined path needs strictly fewer apply calls than there are
    // blocks — fault-free, exactly one for the whole sub-DAG.
    assert!(
        pipelined_out.apply_calls < 40,
        "pipelined path made {} apply calls for 40 blocks — no coalescing",
        pipelined_out.apply_calls
    );
    assert_eq!(pipelined_out.apply_calls, 1);
    assert_eq!(pipelined_out.coalesced_batches, 40);

    // Identical commit sequence and state regardless of coalescing.
    assert_eq!(staged_out.committed, pipelined_out.committed);
    assert_eq!(
        staged_out.single_shard_committed,
        pipelined_out.single_shard_committed
    );
    let diff = staged_store
        .snapshot()
        .diff_values(&pipelined_store.snapshot());
    assert!(diff.is_empty(), "state divergence on {diff:?}");
}

/// A pipelined commit of 160 chained blocks must coalesce — all of them,
/// into one storage call, on any scheduler.
#[test]
fn backlogged_pipelined_path_actually_coalesces() {
    let sub_dag = backlogged_sub_dag(16, 160, 4);
    let store = funded_store(16);
    let pipeline = CommitPipeline::new(PostCommitExecution::Pipelined { workers: 2 });
    let output = pipeline.process(&sub_dag, &store, SimTime::from_secs(1));
    assert_eq!(output.invalid_blocks, 0);
    assert!(
        output.coalesced_batches > 0,
        "160 back-to-back blocks never coalesced: the pipelined path went \
         back to one storage call per block (the coalesced_batches:0 pathology)"
    );
    assert!(
        output.apply_calls <= 81,
        "{} apply calls for 160 blocks",
        output.apply_calls
    );
    assert_eq!(output.apply_calls, 1, "fault-free: one apply per `process`");
}
