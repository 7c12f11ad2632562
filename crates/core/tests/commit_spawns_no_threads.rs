//! The commit path creates no thread: validation fan-outs and cross-shard
//! waves run on the shared worker pool, whose helpers are started once per
//! process. This file holds one test so that libtest runs nothing beside it;
//! a watcher samples the process's thread count while 200 sub-DAGs are
//! committed, because a thread that is created and joined inside `process`
//! leaves the count unchanged afterwards.
#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use tb_core::commit::{CommitPipeline, PostCommitExecution};
use tb_dag::{CommittedSubDag, DagBuilder};
use tb_executor::{BatchExecutor, ConcurrentExecutor};
use tb_storage::MemStore;
use tb_types::{
    BlockKind, BlockPayload, CeConfig, ClientId, Committee, ContractCall, DagId, ReplicaId, Round,
    SimTime, SmallBankProcedure, Transaction, TxId,
};

const SHARDS: u32 = 64;

fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .expect("status reports a thread count");
    line.trim().parse().expect("thread count is a number")
}

fn payment(id: &mut u64, from: u64, to: u64) -> Transaction {
    *id += 1;
    Transaction::new(
        TxId::new(*id),
        ClientId::new(0),
        ContractCall::SmallBank(SmallBankProcedure::SendPayment {
            from,
            to,
            amount: 1,
        }),
        SHARDS,
        SimTime::ZERO,
    )
}

/// Two preplayed blocks on disjoint accounts (shards 0 and 1), preplayed
/// against the store as it is now, plus one wave of 24 shard-disjoint
/// cross-shard payments: at 2 µs per operation that wave is worth two
/// workers.
fn mixed_sub_dag(store: &MemStore, next_id: &mut u64) -> CommittedSubDag {
    let ce = ConcurrentExecutor::new(CeConfig::new(1, 16).without_synthetic_cost());
    let mut builder = DagBuilder::new(Committee::new(4), DagId::new(0), Round::ZERO);
    let mut vertices = Vec::new();
    for shard in 0..2u64 {
        let txs: Vec<Transaction> = (0..10u64)
            .map(|i| {
                let from = shard + u64::from(SHARDS) * (i % 4);
                let to = shard + u64::from(SHARDS) * ((i + 1) % 4);
                payment(next_id, from, to)
            })
            .collect();
        let payload = BlockPayload {
            single_shard: ce.preplay(&txs, store).preplayed,
            cross_shard: vec![],
        };
        vertices.push(Arc::new(builder.make_vertex(
            ReplicaId::new(shard as u32),
            Round::ZERO,
            BlockKind::Normal,
            payload,
            vec![],
        )));
    }
    let cross_shard: Vec<Transaction> = (0..24u64)
        .map(|i| payment(next_id, 2 + 2 * i, 3 + 2 * i))
        .collect();
    assert!(cross_shard.iter().all(|tx| tx.shards.len() == 2));
    let payload = BlockPayload {
        single_shard: vec![],
        cross_shard,
    };
    vertices.push(Arc::new(builder.make_vertex(
        ReplicaId::new(2),
        Round::ZERO,
        BlockKind::Normal,
        payload,
        vec![],
    )));
    CommittedSubDag {
        leader: vertices[2].clone(),
        leader_round: Round::new(1),
        vertices,
    }
}

#[test]
fn processing_sub_dags_leaves_the_thread_count_unchanged() {
    let store = MemStore::new();
    store.load(tb_workload::initial_smallbank_state(
        4 * u64::from(SHARDS),
        tb_contracts::SMALLBANK_DEFAULT_BALANCE,
    ));
    let pipeline =
        CommitPipeline::with_op_cost(PostCommitExecution::Pipelined { workers: 2 }, 2_000);
    let mut next_id = 0u64;
    let mut commit_one = || {
        let sub_dag = mixed_sub_dag(&store, &mut next_id);
        let output = pipeline.process(&sub_dag, &store, SimTime::ZERO);
        assert_eq!(output.invalid_blocks, 0);
        assert_eq!(output.committed_count(), 44);
    };
    // The warm-up call starts the pool's helpers; they stay for good.
    commit_one();

    let stop = Arc::new(AtomicBool::new(false));
    let peak = Arc::new(AtomicUsize::new(0));
    let watcher = {
        let (stop, peak) = (Arc::clone(&stop), Arc::clone(&peak));
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                peak.fetch_max(thread_count(), Ordering::SeqCst);
            }
        })
    };
    while peak.load(Ordering::SeqCst) == 0 {
        std::thread::yield_now();
    }
    let before = thread_count();

    for _ in 0..200 {
        commit_one();
    }

    assert_eq!(thread_count(), before, "a thread outlived `process`");
    stop.store(true, Ordering::SeqCst);
    watcher.join().expect("the watcher only reads procfs");
    assert_eq!(
        peak.load(Ordering::SeqCst),
        before,
        "a thread was created while committing"
    );
}
