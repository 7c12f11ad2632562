//! Regression gate for the `coalesced_batches: 0` pathology (the closed
//! ROADMAP item 2).
//!
//! The pipelined commit path's applier thread drains every write batch that
//! queued up into a single [`MemStore::apply_many`] call, and
//! `CommitOutput::coalesced_batches` counts how many batches were drained
//! together with at least one other. Three consecutive committed perf
//! baselines recorded `coalesced_batches: 0` on every scenario: the old
//! one-batch mpsc handoff woke the applier per batch, and
//! because a `MemStore` apply is far cheaper than validating the next
//! block, the applier never fell behind — the coalescing machinery was dead
//! weight on every measured configuration.
//!
//! The bounded drain-on-wake `ApplyQueue` fixed this: the applier now waits
//! until a second batch is queued (or the queue closes) before draining, so
//! every sub-DAG with two or more valid blocks coalesces *deterministically*
//! on any scheduler, including a single hardware thread. This file pins the
//! fix from both sides:
//!
//! * the accounting stays exclusive to the pipelined applier (the serial
//!   path never reports coalescing) and a deep backlog commits identically
//!   on both paths;
//! * the formerly-`#[ignore]`d red anchor — a backlogged pipelined commit
//!   must actually coalesce — is now a hard CI gate. If it ever goes red
//!   again, the drain policy regressed to one-batch handoffs.

use std::sync::Arc;
use tb_core::commit::{CommitPipeline, PostCommitExecution};
use tb_dag::{CommittedSubDag, DagBuilder};
use tb_executor::ConcurrentExecutor;
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
/// the shape the pipelined G1 path overlaps on.
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

/// Green half of the anchor: `coalesced_batches` is an exclusive property
/// of the pipelined applier (the serial path always reports zero), and a
/// deep backlog of chained blocks commits identically on both paths — the
/// same transactions in the same order ending in the same state — whether
/// or not the applier happened to coalesce.
#[test]
fn coalescing_accounting_is_pipelined_only_and_backlogs_stay_correct() {
    let sub_dag = backlogged_sub_dag(16, 40, 8);

    let staged_store = funded_store(16);
    let staged = CommitPipeline::new(PostCommitExecution::Serial);
    let staged_out = staged.process(&sub_dag, &staged_store, SimTime::from_secs(1));
    assert_eq!(
        staged_out.coalesced_batches, 0,
        "the serial path has no applier thread, so it must never coalesce"
    );
    assert_eq!(staged_out.invalid_blocks, 0);

    // The serial path applies one batch per valid block.
    assert_eq!(staged_out.apply_calls, 40);

    let pipelined_store = funded_store(16);
    let pipelined = CommitPipeline::new(PostCommitExecution::Pipelined { workers: 2 });
    let pipelined_out = pipelined.process(&sub_dag, &pipelined_store, SimTime::from_secs(1));
    assert_eq!(pipelined_out.invalid_blocks, 0);
    // The pipelined applier drains at least two batches per wake-up, so it
    // needs strictly fewer apply calls than there are blocks.
    assert!(
        pipelined_out.apply_calls < 40,
        "pipelined path made {} apply calls for 40 blocks — no coalescing",
        pipelined_out.apply_calls
    );

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

/// The promoted red anchor of ROADMAP item 2, now a hard gate: a pipelined
/// commit of 160 chained blocks must coalesce. With the drain-on-wake
/// `ApplyQueue` the applier waits for a second batch before draining, so
/// this holds deterministically on any scheduler — `#[ignore]` removed the
/// day the drain policy made coalescing a property of the design instead of
/// an accident of preemption.
#[test]
fn backlogged_pipelined_path_actually_coalesces() {
    let sub_dag = backlogged_sub_dag(16, 160, 4);
    let store = funded_store(16);
    let pipeline = CommitPipeline::new(PostCommitExecution::Pipelined { workers: 2 });
    let output = pipeline.process(&sub_dag, &store, SimTime::from_secs(1));
    assert_eq!(output.invalid_blocks, 0);
    assert!(
        output.coalesced_batches > 0,
        "160 back-to-back blocks never coalesced: the drain policy in \
         commit_preplayed_pipelined regressed to one-batch handoffs \
         (the coalesced_batches:0 pathology)"
    );
    // 160 blocks drained at >= 2 batches per wake-up (plus at most one
    // single-batch flush at close) bounds the apply calls at 81.
    assert!(
        output.apply_calls <= 81,
        "{} apply calls for 160 blocks",
        output.apply_calls
    );
}
