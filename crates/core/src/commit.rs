//! The post-consensus commit pipeline.
//!
//! When the committer delivers a leader's causal history, every replica runs
//! the same pipeline (Figure 3, steps 3–4, and the G1/G2 ordering rules of
//! Section 5.1):
//!
//! 1. **Single-shard first (G1).** The preplayed single-shard payloads of the
//!    delivered blocks are validated against the reads they declare; the
//!    writes a valid payload derives from them are applied to storage in
//!    its serialized order, those of all valid payloads in one storage call.
//!    Invalid blocks are discarded (their transactions are simply not
//!    applied — a Byzantine proposer can only hurt its own shard).
//!    Validation's stage 2, the replay of each transaction over its declared
//!    reads, reads no state, so a replica runs it — deriving the block's
//!    write batch and its external reads — when the block's vertex enters
//!    its DAG, in the driver's step after a handler's output is sent
//!    (`ReplayCache`). The commit then runs only the read check of the
//!    external reads, over all blocks of the sub-DAG in one pass, joins it
//!    with the cached verdicts and applies the cached batches; the blocks it
//!    delivers before they were replayed it replays itself, by the same
//!    function, in one fan-out over the validator workers.
//! 2. **Cross-shard second (G2).** The cross-shard transactions of the same
//!    delivered sub-DAG are executed deterministically in `(round, author,
//!    position)` order against a read view — their own writes, over the G2
//!    writes of the transactions before them, over the store — and their
//!    writes are collected into one [`WriteBatch`] that goes to storage in
//!    one call. Execution is parallelised QueCC-style: transactions whose
//!    declared shard sets are disjoint form a wave, and a wave worth the pool
//!    runs concurrently on private writes, kept only if no key was touched by
//!    two of its transactions and re-run inline otherwise.
//!
//! Only [`Store::apply_batches`] writes the store, so G2 equals serial
//! execution at any worker count, even for a contract that touches keys it
//! never declared.
//!
//! Every engine commits through this one pipeline. Tusk preplays nothing, so
//! its G1 is empty, and it runs the pipeline at one worker: its G2 executes
//! serially, in commit order.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tb_contracts::{execute_call, ExecError, StateAccess};
use tb_dag::CommittedSubDag;
use tb_executor::traits::synthetic_work;
use tb_executor::validation::{replay_blocks, validate_replayed, Replay, ValidationConfig};
use tb_executor::{effective_workers, pool};
use tb_storage::{Store, WriteBatch};
use tb_types::{
    Block, BlockKind, Digest, Key, KeyMap, PreplayedTx, SealedBlock, ShardId, SimTime, Transaction,
    TxId, Value,
};

/// How many workers the pipeline validates and executes on after consensus.
///
/// There is one commit path; this enum survives with its one variant only
/// because `benchmark/src/walk.rs` builds it by name. ROADMAP item 15
/// retires it together with the benchmark's own commit walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PostCommitExecution {
    /// Validate and apply the preplayed blocks of a committed sub-DAG in
    /// **one** read check, joined with their replays (made ahead, or here),
    /// and **one** [`Store::apply_batches`] call — a block found invalid is
    /// dropped and the blocks after it are read-checked again over the
    /// applied prefix — then execute the cross-shard transactions in
    /// shard-disjoint waves. No thread is created and nothing is queued.
    /// Thunderbolt runs it at `validators` workers, Tusk at one. The worker
    /// count moves only the stage timings, and the committed sequence and
    /// state equal those of committing each preplayed block as a sub-DAG of
    /// its own (`crates/core/tests/pipeline_determinism.rs`).
    Pipelined {
        /// Number of validator / executor workers.
        workers: usize,
    },
}

/// Statistics and effects of committing one batch of sub-DAGs.
#[derive(Clone, Debug, Default)]
pub struct CommitOutput {
    /// Transactions whose effects were applied, in commit order, with their
    /// commit time. Their latency is their proposers' to time: a block does
    /// not carry submission times.
    pub committed: Vec<(TxId, SimTime)>,
    /// Number of committed cross-shard transactions.
    pub cross_shard_committed: usize,
    /// Number of committed single-shard (preplayed) transactions.
    pub single_shard_committed: usize,
    /// Number of preplayed blocks that failed validation and were discarded.
    pub invalid_blocks: usize,
    /// Authors of the delivered Shift blocks (input to the reconfiguration
    /// rule).
    pub shift_authors: Vec<tb_types::ReplicaId>,
    /// Wall-clock time spent validating, applying and executing, which the
    /// replica driver charges to the replica's clock.
    pub busy: std::time::Duration,
    /// Wall-clock time the validation stage was busy: read-checking the
    /// preplayed blocks, and replaying those not replayed ahead.
    pub stage_validate: Duration,
    /// Wall-clock time the apply stage was busy writing batches to storage.
    pub stage_apply: Duration,
    /// Wall-clock time the cross-shard execution stage was busy.
    pub stage_execute: Duration,
    /// Number of write batches that went to storage in one
    /// [`Store::apply_batches`] call together with at least one other batch:
    /// every valid block of a commit that has two or more.
    pub coalesced_batches: u64,
    /// Number of storage apply calls the commit performed: one
    /// [`Store::apply_batches`] for its preplayed blocks, plus one per
    /// invalid block that has valid blocks after it, plus one for a sub-DAG
    /// whose cross-shard transactions write anything.
    pub apply_calls: u64,
    /// Preplayed blocks whose replay was cached when this commit delivered
    /// them: replayed when their vertex entered the DAG.
    pub blocks_replayed_ahead: u64,
    /// Preplayed blocks this commit replayed itself, because it delivered
    /// them before they were replayed ahead.
    pub blocks_replayed_inline: u64,
}

impl CommitOutput {
    /// Number of transactions committed in total.
    pub fn committed_count(&self) -> usize {
        self.committed.len()
    }
}

/// The commit pipeline of one replica.
#[derive(Clone, Debug)]
pub struct CommitPipeline {
    /// Worker count and synthetic op cost of G2's execution and of the
    /// replay of the blocks a commit finds unreplayed. Blocks replayed ahead
    /// were replayed on the calling thread, at the same op cost.
    validation: ValidationConfig,
}

impl CommitPipeline {
    /// Creates a pipeline with no synthetic per-operation cost.
    pub fn new(execution: PostCommitExecution) -> Self {
        Self::with_op_cost(execution, 0)
    }

    /// Creates a pipeline that charges `op_cost_ns` of synthetic work per
    /// state operation during validation and post-consensus execution,
    /// matching the cost model used during preplay.
    pub fn with_op_cost(execution: PostCommitExecution, op_cost_ns: u64) -> Self {
        let PostCommitExecution::Pipelined { workers } = execution;
        let mut validation = ValidationConfig::new(effective_workers(workers));
        validation.op_cost_ns = op_cost_ns;
        CommitPipeline { validation }
    }

    /// Processes one delivered sub-DAG against `store`, applying effects and
    /// returning the commit statistics. A replica's own commits find most
    /// blocks replayed ahead, when their vertices entered its DAG; here
    /// nothing was, so the commit replays every preplayed block itself
    /// (`blocks_replayed_inline`), with the same outcome.
    ///
    /// # Determinism
    ///
    /// For a given `(sub_dag, store, commit_time)` the committed transaction
    /// sequence, the applied state and every commit counter except the
    /// wall-clock stage timings are identical at any worker count: the
    /// worker count is a wall-clock choice, never a semantic one. They are
    /// also what committing each preplayed block as a sub-DAG of its own
    /// gives, except `coalesced_batches` and `apply_calls`.
    ///
    /// # Panics
    ///
    /// Never panics on malformed, tampered or Byzantine block contents —
    /// those surface as `invalid_blocks`. A panic inside a pool worker (a
    /// bug, not an input condition) propagates to the caller rather than
    /// being swallowed.
    pub fn process(
        &self,
        sub_dag: &CommittedSubDag,
        store: &dyn Store,
        commit_time: SimTime,
    ) -> CommitOutput {
        self.process_cached(sub_dag, store, commit_time, &mut ReplayCache::default())
    }

    /// [`process`](CommitPipeline::process) with the replays of the
    /// delivered blocks taken from `replays`, which loses them: a delivered
    /// block is only read-checked and applied if it was replayed ahead, and
    /// is replayed here otherwise. The outcome does not depend on what
    /// `replays` holds.
    pub(crate) fn process_cached(
        &self,
        sub_dag: &CommittedSubDag,
        store: &dyn Store,
        commit_time: SimTime,
        replays: &mut ReplayCache,
    ) -> CommitOutput {
        let started = Instant::now();
        let mut output = CommitOutput::default();

        // Gather payloads in delivery order.
        let mut preplayed_blocks: Vec<&SealedBlock> = Vec::new();
        let mut cross_shard: Vec<&Transaction> = Vec::new();
        for vertex in &sub_dag.vertices {
            if vertex.block.kind == BlockKind::Shift {
                output.shift_authors.push(vertex.author());
                continue;
            }
            if commits_preplayed(&vertex.block) {
                preplayed_blocks.push(&vertex.block);
            }
            // Every delivered cross-shard transaction commits below.
            cross_shard.extend(&vertex.block.payload.cross_shard);
        }

        // G1: single-shard (preplayed) transactions first.
        let taken = replays.take_or_replay(&preplayed_blocks, &self.validation, &mut output);
        let blocks = preplayed_blocks
            .iter()
            .zip(taken)
            .map(|(block, replay)| (&block.payload.single_shard[..], replay))
            .collect();
        self.commit_preplayed_batched(blocks, store, commit_time, &mut output);

        // G2: cross-shard transactions afterwards, in a deterministic order,
        // their writes collected into one batch and applied in one call.
        let execute_started = Instant::now();
        let mut g2 = WriteBatch::new();
        for wave in shard_disjoint_waves(&cross_shard) {
            execute_wave(wave, store, &mut g2, &self.validation);
            output
                .committed
                .extend(wave.iter().map(|tx| (tx.id, commit_time)));
        }
        output.stage_execute += execute_started.elapsed();
        if !g2.is_empty() {
            let apply_started = Instant::now();
            store.apply_batch(&g2);
            output.stage_apply += apply_started.elapsed();
            output.apply_calls += 1;
        }
        output.cross_shard_committed += cross_shard.len();
        output.busy = started.elapsed();
        output
    }

    /// The batched G1 path over blocks already replayed: one read check over
    /// all remaining blocks, joined with their replays, then one storage
    /// call for the cached write batches of the valid blocks in front of the
    /// first invalid one. A report is exact only while every block before it
    /// is valid ([`validate_replayed`]), so an invalid block is counted and
    /// dropped and the blocks after it are read-checked again — the store
    /// then holds the prefix, exactly the state a commit of each block on
    /// its own would show them; their replays stand, since a replay reads no
    /// state. Fault-free that is one read check and one apply per sub-DAG;
    /// each Byzantine block costs one more read check.
    fn commit_preplayed_batched(
        &self,
        mut blocks: Vec<(&[PreplayedTx], Replay)>,
        store: &dyn Store,
        commit_time: SimTime,
        output: &mut CommitOutput,
    ) {
        let mut remaining = &mut blocks[..];
        while !remaining.is_empty() {
            let payloads: Vec<&[PreplayedTx]> = remaining.iter().map(|(block, _)| *block).collect();
            let replays: Vec<&Replay> = remaining.iter().map(|(_, replay)| replay).collect();
            let validate_started = Instant::now();
            let reports = validate_replayed(&payloads, &replays, store);
            output.stage_validate += validate_started.elapsed();
            let valid = reports.iter().take_while(|r| r.is_valid()).count();
            let (prefix, rest) = std::mem::take(&mut remaining).split_at_mut(valid);
            if !prefix.is_empty() {
                let batches: Vec<WriteBatch> = prefix
                    .iter_mut()
                    .map(|(_, replay)| std::mem::take(&mut replay.batch))
                    .collect();
                let apply_started = Instant::now();
                store.apply_batches(&batches);
                output.stage_apply += apply_started.elapsed();
                output.apply_calls += 1;
                if batches.len() > 1 {
                    output.coalesced_batches += batches.len() as u64;
                }
                for (block, _) in prefix.iter() {
                    let ids = block.iter().map(|p| (p.tx.id, commit_time));
                    output.committed.extend(ids);
                    output.single_shard_committed += block.len();
                }
            }
            // `rest` is empty or starts with the first invalid block.
            remaining = match rest.split_first_mut() {
                Some((_invalid, after)) => {
                    output.invalid_blocks += 1;
                    after
                }
                None => &mut [],
            };
        }
    }
}

/// Whether a delivered block commits preplayed transactions in G1: it
/// carries some, and it is not a Shift block, which commits nothing.
fn commits_preplayed(block: &Block) -> bool {
    block.kind != BlockKind::Shift && !block.payload.single_shard.is_empty()
}

/// Replays a run of blocks ([`Replay`]): stage 2 of all their transactions
/// in one [`replay_blocks`] fan-out over `config.validators` workers. The
/// one place a replica replays a block, whether ahead, when its vertex enters
/// the DAG, or in the commit that delivers it. Returns the replays in run
/// order, and the time they took, which counts as validation.
fn replay_run(blocks: &[&[PreplayedTx]], config: &ValidationConfig) -> (Vec<Replay>, Duration) {
    let started = Instant::now();
    let replays = replay_blocks(blocks, config);
    (replays, started.elapsed())
}

/// One replica's replays of the preplayed blocks admitted to its DAG and not
/// yet delivered, keyed by block digest. The driver replays admitted blocks
/// after a handler's output is sent ([`replay_admitted`]), so a commit finds
/// them replayed and only read-checks and applies them; the blocks a commit
/// delivers before that are replayed by the commit ([`take_or_replay`]).
/// Both replay through [`replay_run`]. An entry leaves when its block is
/// delivered.
///
/// The cache belongs to one replica: a replay is a pure function of the
/// block, but sharing a cache through a block or vertex that several
/// replicas hold would let one replica's replay stand in for another's.
///
/// [`replay_admitted`]: ReplayCache::replay_admitted
/// [`take_or_replay`]: ReplayCache::take_or_replay
#[derive(Default)]
pub(crate) struct ReplayCache {
    /// Every block admitted and not yet delivered, with its replay once it
    /// has one.
    replays: HashMap<Digest, Option<Replay>>,
    /// Blocks admitted since the last [`replay_admitted`](Self::replay_admitted),
    /// in admission order.
    admitted: Vec<Arc<SealedBlock>>,
}

impl ReplayCache {
    /// Notes a block whose vertex just entered the DAG undelivered, so the
    /// next [`replay_admitted`](Self::replay_admitted) replays it. A block
    /// with nothing preplayed has nothing to replay.
    pub(crate) fn admit(&mut self, block: &Arc<SealedBlock>) {
        if commits_preplayed(block) && !self.replays.contains_key(&block.digest()) {
            self.replays.insert(block.digest(), None);
            self.admitted.push(Arc::clone(block));
        }
    }

    /// Replays every block admitted since the last call that is still
    /// undelivered, on the calling thread: a step off the commit's path
    /// that the pool would cost more CPU than it saves. Returns the time
    /// stage 2 took.
    pub(crate) fn replay_admitted(&mut self, op_cost_ns: u64) -> Duration {
        let mut admitted = std::mem::take(&mut self.admitted);
        admitted.retain(|block| matches!(self.replays.get(&block.digest()), Some(None)));
        let payloads: Vec<&[PreplayedTx]> = admitted
            .iter()
            .map(|block| &block.payload.single_shard[..])
            .collect();
        let on_the_caller = ValidationConfig {
            validators: 1,
            op_cost_ns,
        };
        let (replays, replayed) = replay_run(&payloads, &on_the_caller);
        for (block, replay) in admitted.iter().zip(replays) {
            self.replays.insert(block.digest(), Some(replay));
        }
        replayed
    }

    /// Forgets every block: the DAG they were admitted to is gone.
    pub(crate) fn clear(&mut self) {
        self.replays.clear();
        self.admitted.clear();
    }

    /// The replays of the blocks a commit delivers, in order: each one this
    /// cache holds leaves it, and the others are replayed now, all in one
    /// [`replay_run`] over `config`'s workers. Counts both kinds and the
    /// replay's stage-2 time in `output`. No block has an entry afterwards.
    fn take_or_replay(
        &mut self,
        blocks: &[&SealedBlock],
        config: &ValidationConfig,
        output: &mut CommitOutput,
    ) -> Vec<Replay> {
        let held: Vec<Option<Replay>> = blocks
            .iter()
            .map(|block| self.replays.remove(&block.digest()).flatten())
            .collect();
        let missing: Vec<&[PreplayedTx]> = blocks
            .iter()
            .zip(&held)
            .filter(|(_, replay)| replay.is_none())
            .map(|(block, _)| &block.payload.single_shard[..])
            .collect();
        output.blocks_replayed_ahead += (blocks.len() - missing.len()) as u64;
        output.blocks_replayed_inline += missing.len() as u64;
        let (replayed, took) = replay_run(&missing, config);
        output.stage_validate += took;
        let mut replayed = replayed.into_iter();
        held.into_iter()
            .map(|replay| replay.unwrap_or_else(|| replayed.next().expect("one replay per miss")))
            .collect()
    }
}

/// Groups cross-shard transactions into waves whose declared shard sets are
/// pairwise disjoint. Transactions within one wave can execute concurrently
/// without conflicting, because keys never cross shards; waves execute in
/// order, preserving the deterministic total order.
///
/// A transaction can only join the *last* wave (otherwise it would overtake
/// a conflicting transaction in an earlier wave), so a wave is a run of
/// consecutive transactions that ends where the next one touches a shard the
/// run already uses.
fn shard_disjoint_waves<'s, 'a>(txs: &'s [&'a Transaction]) -> Vec<&'s [&'a Transaction]> {
    let mut waves = Vec::new();
    // A wave touches a handful of shards: a linear scan beats hashing them.
    let mut used: Vec<ShardId> = Vec::new();
    let mut start = 0;
    for (i, tx) in txs.iter().enumerate() {
        if tx.shards.iter().any(|shard| used.contains(shard)) {
            waves.push(&txs[start..i]);
            start = i;
            used.clear();
        }
        used.extend(tx.shards.iter().copied());
    }
    if start < txs.len() {
        waves.push(&txs[start..]);
    }
    waves
}

/// Handing a share of a wave to a pool worker and waiting for it costs tens
/// of microseconds, and how many depends on the host's scheduler; a wave gets
/// one worker per this much estimated work, and runs on the caller below two.
/// A cross-shard transaction is estimated at the interpreter's fixed cost of
/// about a microsecond plus the synthetic cost of the four state operations
/// of a two-account call.
const MIN_SHARE_NS: u64 = 50_000;

/// Executes one wave of shard-disjoint transactions into `g2`, with the
/// outcome of executing them one after the other in wave order.
///
/// The wave gets up to `config.validators` slots of the shared worker pool,
/// fewer when it is too small to repay them (at zero op cost, any wave a
/// small committee can build runs inline). Inline, each transaction reads and
/// writes `g2` itself. In parallel, each writes only its own batch; the wave
/// keeps those batches, in wave order, when no key was touched by two of its
/// transactions. Otherwise one of them may have missed a write that serial
/// order shows it, and the wave re-runs inline from the same `g2`, which
/// nothing has written yet.
fn execute_wave(
    wave: &[&Transaction],
    store: &dyn Store,
    g2: &mut WriteBatch,
    config: &ValidationConfig,
) {
    let worth = (wave.len() as u64).saturating_mul(1_000 + 4 * config.op_cost_ns) / MIN_SHARE_NS;
    let workers = config
        .validators
        .min(wave.len())
        .min(usize::try_from(worth).unwrap_or(usize::MAX));
    if workers > 1 {
        if let Some(writes) = execute_in_parallel(wave, store, g2, workers, config.op_cost_ns) {
            for batch in writes {
                g2.extend(batch.into_writes());
            }
            return;
        }
    }
    let mut session = G2Session::new(store, None, std::mem::take(g2), config.op_cost_ns);
    for tx in wave {
        session.execute(tx);
    }
    *g2 = session.writes;
}

/// Executes `wave` on `workers` pool slots, each transaction over `g2` into
/// a batch of its own. Returns those batches in wave order, or `None` when a
/// key was touched — read or written — by two of the transactions.
fn execute_in_parallel(
    wave: &[&Transaction],
    store: &dyn Store,
    g2: &WriteBatch,
    workers: usize,
    op_cost_ns: u64,
) -> Option<Vec<WriteBatch>> {
    let shares: Vec<_> = wave.chunks(wave.len().div_ceil(workers)).collect();
    let done: Vec<Mutex<Vec<G2Session>>> = shares.iter().map(|_| Mutex::default()).collect();
    pool::global().run(shares.len(), &|slot| {
        let sessions = shares[slot].iter().map(|tx| {
            let mut session = G2Session::new(store, Some(g2), WriteBatch::new(), op_cost_ns);
            session.execute(tx);
            session
        });
        *done[slot]
            .lock()
            .expect("each slot locks only its own entry") = sessions.collect();
    });
    // Joined in share order, the sessions are in wave order.
    let sessions: Vec<G2Session> = done
        .into_iter()
        .flat_map(|m| m.into_inner().expect("a panicked slot re-throws in `run`"))
        .collect();
    let mut toucher: KeyMap<usize> = KeyMap::default();
    for (i, session) in sessions.iter().enumerate() {
        let reads = session.reads.iter().flatten();
        for key in reads.chain(session.writes.iter().map(|(key, _)| key)) {
            if *toucher.entry(*key).or_insert(i) != i {
                return None;
            }
        }
    }
    Some(sessions.into_iter().map(|s| s.writes).collect())
}

/// A cross-shard transaction's state: its `writes`, over the G2 writes of the
/// transactions before its wave (`earlier`), over the store. Inline,
/// `writes` is the G2 batch itself, there is no `earlier` and no read is
/// recorded.
struct G2Session<'a> {
    store: &'a dyn Store,
    earlier: Option<&'a WriteBatch>,
    writes: WriteBatch,
    /// Every key read, for a parallel wave's conflict check; `None` inline.
    reads: Option<Vec<Key>>,
    op_cost_ns: u64,
}

impl<'a> G2Session<'a> {
    fn new(
        store: &'a dyn Store,
        earlier: Option<&'a WriteBatch>,
        writes: WriteBatch,
        op_cost_ns: u64,
    ) -> Self {
        G2Session {
            store,
            earlier,
            reads: earlier.map(|_| Vec::new()),
            writes,
            op_cost_ns,
        }
    }

    /// Executes `tx`. A cross-shard transaction commits whatever its call
    /// does: a rejection is its result, and no access here fails.
    fn execute(&mut self, tx: &Transaction) {
        let _ = execute_call(&tx.call, self);
    }
}

impl StateAccess for G2Session<'_> {
    fn read(&mut self, key: Key) -> Result<Value, ExecError> {
        synthetic_work(self.op_cost_ns);
        if let Some(reads) = &mut self.reads {
            reads.push(key);
        }
        let pending = self.writes.get(&key).or_else(|| self.earlier?.get(&key));
        Ok(pending.cloned().unwrap_or_else(|| self.store.get(&key)))
    }

    fn write(&mut self, key: Key, value: Value) -> Result<(), ExecError> {
        synthetic_work(self.op_cost_ns);
        self.writes.put(key, value);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tb_contracts::SMALLBANK_DEFAULT_BALANCE;
    use tb_dag::DagBuilder;
    use tb_executor::{BatchExecutor, ConcurrentExecutor, SerialExecutor};
    use tb_storage::{KvRead, MemStore, Store};
    use tb_types::wire::Wire;
    use tb_types::{
        BlockPayload, CeConfig, ClientId, Committee, ContractCall, DagId, Key, ReplicaId, Round,
        ShardId, SmallBankProcedure, Vertex,
    };

    impl ReplayCache {
        /// Number of blocks admitted and undelivered.
        pub(crate) fn len(&self) -> usize {
            self.replays.len()
        }

        /// Whether `block` is admitted and undelivered.
        pub(crate) fn holds(&self, block: &SealedBlock) -> bool {
            self.replays.contains_key(&block.digest())
        }
    }

    fn funded_store(accounts: u64) -> MemStore {
        let store = MemStore::new();
        store.load(tb_workload::initial_smallbank_state(
            accounts,
            SMALLBANK_DEFAULT_BALANCE,
        ));
        store
    }

    fn payment(id: u64, from: u64, to: u64, amount: i64, n_shards: u32) -> Transaction {
        Transaction::new(
            tb_types::TxId::new(id),
            ClientId::new(0),
            ContractCall::SmallBank(SmallBankProcedure::SendPayment { from, to, amount }),
            n_shards,
            SimTime::ZERO,
        )
    }

    fn sub_dag_with(
        committee: Committee,
        preplayed: Vec<PreplayedTx>,
        cross_shard: Vec<Transaction>,
        shift_authors: &[u32],
    ) -> CommittedSubDag {
        let mut builder = DagBuilder::new(committee, DagId::new(0), Round::ZERO);
        let mut vertices = Vec::new();
        // Round 0: one block with the preplayed payload, one with the
        // cross-shard payload, plus any shift blocks, authored by distinct
        // replicas.
        let mut author = 0u32;
        let mut push = |kind: BlockKind, payload: BlockPayload, builder: &mut DagBuilder| {
            let v = builder.make_vertex(ReplicaId::new(author), Round::ZERO, kind, payload, vec![]);
            author += 1;
            Arc::new(v)
        };
        vertices.push(push(
            BlockKind::Normal,
            BlockPayload {
                single_shard: preplayed,
                cross_shard: vec![],
            },
            &mut builder,
        ));
        vertices.push(push(
            BlockKind::Normal,
            BlockPayload {
                single_shard: vec![],
                cross_shard,
            },
            &mut builder,
        ));
        for _ in shift_authors {
            vertices.push(push(BlockKind::Shift, BlockPayload::empty(), &mut builder));
        }
        let leader = vertices.last().expect("at least one vertex").clone();
        CommittedSubDag {
            leader,
            leader_round: Round::new(1),
            vertices,
        }
    }

    #[test]
    fn valid_preplay_is_applied_in_serialized_order() {
        let committee = Committee::new(4);
        let store = funded_store(8);
        let txs = vec![payment(1, 0, 4, 10, 1), payment(2, 4, 0, 3, 1)];
        let ce = ConcurrentExecutor::new(CeConfig::new(2, 16).without_synthetic_cost());
        let preplay = ce.preplay(&txs, &store);
        let sub_dag = sub_dag_with(committee, preplay.preplayed.clone(), vec![], &[]);
        let pipeline = CommitPipeline::new(PostCommitExecution::Pipelined { workers: 4 });
        let output = pipeline.process(&sub_dag, &store, SimTime::from_secs(2));
        assert_eq!(output.single_shard_committed, 2);
        assert_eq!(output.invalid_blocks, 0);
        assert_eq!(output.committed_count(), 2);
        assert!(output
            .committed
            .iter()
            .all(|&(_, at)| at == SimTime::from_secs(2)));
        assert_eq!(
            store.get(&Key::checking(0)),
            Value::int(SMALLBANK_DEFAULT_BALANCE - 10 + 3)
        );
        assert_eq!(
            store.get(&Key::checking(4)),
            Value::int(SMALLBANK_DEFAULT_BALANCE + 10 - 3)
        );
    }

    #[test]
    fn tampered_preplay_blocks_are_discarded_entirely() {
        let committee = Committee::new(4);
        let store = funded_store(4);
        let txs = vec![payment(1, 0, 1, 10, 1)];
        let ce = ConcurrentExecutor::new(CeConfig::new(1, 16).without_synthetic_cost());
        let mut preplay = ce.preplay(&txs, &store);
        preplay.preplayed[0].outcome.read_set[0].value = Value::int(77_777);
        let sub_dag = sub_dag_with(committee, preplay.preplayed.clone(), vec![], &[]);
        let pipeline = CommitPipeline::new(PostCommitExecution::Pipelined { workers: 2 });
        let before = store.snapshot();
        let output = pipeline.process(&sub_dag, &store, SimTime::from_secs(1));
        assert_eq!(output.invalid_blocks, 1);
        assert_eq!(output.committed_count(), 0);
        assert!(store.snapshot().diff_values(&before).is_empty());
    }

    #[test]
    fn cross_shard_transactions_execute_after_single_shard_ones() {
        // The single-shard payload pays account 0 -> 4 (same shard of 4);
        // the cross-shard transaction then moves the money on to account 1.
        // If the order were reversed, account 1 would receive less.
        let committee = Committee::new(4);
        let store = funded_store(8);
        // empty account 1's checking first so the effect is visible
        store.load([
            (Key::checking(1), Value::int(0)),
            (Key::checking(0), Value::int(0)),
        ]);
        let single = payment(1, 4, 0, 500, 1); // both map to shard 0 of 4
        let ce = ConcurrentExecutor::new(CeConfig::new(1, 16).without_synthetic_cost());
        let preplay = ce.preplay(std::slice::from_ref(&single), &store);
        let cross = payment(2, 0, 1, 400, 4);
        assert_eq!(cross.shards.len(), 2);
        let sub_dag = sub_dag_with(committee, preplay.preplayed.clone(), vec![cross], &[]);
        let pipeline = CommitPipeline::new(PostCommitExecution::Pipelined { workers: 2 });
        let output = pipeline.process(&sub_dag, &store, SimTime::from_secs(1));
        assert_eq!(output.single_shard_committed, 1);
        assert_eq!(output.cross_shard_committed, 1);
        // Account 0 received 500 from the preplay, then sent 400 on.
        assert_eq!(store.get(&Key::checking(0)), Value::int(100));
        assert_eq!(store.get(&Key::checking(1)), Value::int(400));
    }

    #[test]
    fn g2_at_any_worker_count_produces_the_state_of_serial_execution() {
        // At zero op cost every wave runs on the calling thread; at 20 µs
        // per operation a two-transaction wave is worth two threads.
        let cross: Vec<Transaction> = (0..20)
            .map(|i| payment(i, i % 16, (i + 5) % 16, 7, 4))
            .collect();
        let oracle = funded_store(16);
        oracle.apply_batch(
            &SerialExecutor::default()
                .preplay(&cross, &oracle)
                .write_batch(),
        );
        let sub_dag = sub_dag_with(Committee::new(4), vec![], cross, &[]);
        for op_cost_ns in [0, 20_000] {
            for workers in [1, 4] {
                let store = funded_store(16);
                CommitPipeline::with_op_cost(
                    PostCommitExecution::Pipelined { workers },
                    op_cost_ns,
                )
                .process(&sub_dag, &store, SimTime::ZERO);
                let diff = store.snapshot().diff_values(&oracle.snapshot());
                assert!(
                    diff.is_empty(),
                    "{workers} workers at {op_cost_ns} ns disagree with serial execution on {diff:?}"
                );
            }
        }
    }

    #[test]
    fn g2_equals_serial_execution_when_a_program_strays_from_its_declaration() {
        // Pointer slot 4 (shard 0) names slot 1 (shard 1). The indirect call
        // declares only the pointer, so it shares a wave with a counter
        // declared on slot 1, and at 20 µs per operation the wave is worth
        // two workers: both read-modify-write slot 1 from different threads.
        let (pointer, target) = (4, 1);
        let program = |code: tb_contracts::Program, slot: u64, delta: i64| ContractCall::Program {
            code: code.into_bytes(),
            args: vec![slot as i64, delta],
            declared_keys: vec![Key::contract(slot)],
        };
        let txs = vec![
            Transaction::new(
                TxId::new(1),
                ClientId::new(0),
                program(tb_contracts::ProgramBuilder::indirect_touch(), pointer, 5),
                4,
                SimTime::ZERO,
            ),
            Transaction::new(
                TxId::new(2),
                ClientId::new(0),
                program(tb_contracts::ProgramBuilder::counter_add(), target, 1),
                4,
                SimTime::ZERO,
            ),
        ];
        assert_eq!(
            shard_disjoint_waves(&txs.iter().collect::<Vec<_>>()).len(),
            1
        );
        let genesis = || {
            let store = MemStore::new();
            store.load([
                (Key::contract(pointer), Value::int(target as i64)),
                (Key::contract(target), Value::int(100)),
            ]);
            store
        };
        let sub_dag = sub_dag_with(Committee::new(4), vec![], txs.clone(), &[]);
        let op_cost_ns = 20_000;

        let oracle = genesis();
        oracle.apply_batch(
            &SerialExecutor::default()
                .preplay(&txs, &oracle)
                .write_batch(),
        );
        assert_eq!(oracle.get(&Key::contract(target)), Value::int(106));

        let pipelined =
            CommitPipeline::with_op_cost(PostCommitExecution::Pipelined { workers: 2 }, op_cost_ns);
        for iteration in 0..200 {
            let store = genesis();
            pipelined.process(&sub_dag, &store, SimTime::ZERO);
            let diff = store.snapshot().diff_values(&oracle.snapshot());
            assert!(
                diff.is_empty(),
                "iteration {iteration} diverged on {diff:?}"
            );
        }
    }

    #[test]
    fn shift_blocks_are_counted_not_executed() {
        let committee = Committee::new(4);
        let store = funded_store(4);
        let sub_dag = sub_dag_with(committee, vec![], vec![], &[2, 3]);
        let pipeline = CommitPipeline::new(PostCommitExecution::Pipelined { workers: 2 });
        let output = pipeline.process(&sub_dag, &store, SimTime::ZERO);
        assert_eq!(output.shift_authors.len(), 2);
        assert_eq!(output.shift_authors.len(), 2);
        assert_eq!(output.committed_count(), 0);
    }

    /// Builds one sub-DAG whose vertices carry one preplayed block each, in
    /// delivery order — the shape the batched G1 path validates in one pass.
    fn sub_dag_with_blocks(committee: Committee, blocks: Vec<Vec<PreplayedTx>>) -> CommittedSubDag {
        let mut builder = DagBuilder::new(committee, DagId::new(0), Round::ZERO);
        let mut vertices = Vec::new();
        for (author, block) in blocks.into_iter().enumerate() {
            let payload = BlockPayload {
                single_shard: block,
                cross_shard: vec![],
            };
            vertices.push(Arc::new(builder.make_vertex(
                ReplicaId::new(author as u32),
                Round::ZERO,
                BlockKind::Normal,
                payload,
                vec![],
            )));
        }
        let leader = vertices.last().expect("at least one vertex").clone();
        CommittedSubDag {
            leader,
            leader_round: Round::new(1),
            vertices,
        }
    }

    /// The oracle the batched G1 path is checked against: each block of
    /// `sub_dag`, which carries no cross-shard transaction, committed as a
    /// sub-DAG of its own, in delivery order, through the pipeline at one
    /// worker. The outputs are summed.
    fn commit_block_by_block(
        sub_dag: &CommittedSubDag,
        store: &dyn Store,
        commit_time: SimTime,
    ) -> CommitOutput {
        let pipeline = CommitPipeline::new(PostCommitExecution::Pipelined { workers: 1 });
        let mut total = CommitOutput::default();
        for vertex in &sub_dag.vertices {
            assert!(vertex.block.payload.cross_shard.is_empty());
            let alone = CommittedSubDag {
                leader: vertex.clone(),
                leader_round: sub_dag.leader_round,
                vertices: vec![vertex.clone()],
            };
            let output = pipeline.process(&alone, store, commit_time);
            total.committed.extend(output.committed);
            total.invalid_blocks += output.invalid_blocks;
            total.single_shard_committed += output.single_shard_committed;
        }
        total
    }

    /// Preplays `rounds` consecutive SmallBank payment blocks, each chained
    /// on the previous block's writes (the proposer-overlay situation the
    /// batched validator must reproduce from the declared reads alone).
    fn chained_blocks(accounts: u64, rounds: usize, per_block: usize) -> Vec<Vec<PreplayedTx>> {
        let scratch = funded_store(accounts);
        let ce = ConcurrentExecutor::new(CeConfig::new(2, 64).without_synthetic_cost());
        let mut blocks = Vec::new();
        let mut next_id = 0u64;
        for _ in 0..rounds {
            let txs: Vec<Transaction> = (0..per_block)
                .map(|i| {
                    next_id += 1;
                    // Hot keys: every block touches account 0, so consecutive
                    // blocks genuinely depend on each other.
                    payment(next_id, 0, ((i as u64) % (accounts / 2)) * 2, 1, 1)
                })
                .collect();
            let result = ce.preplay(&txs, &scratch);
            result.apply_to(&scratch);
            blocks.push(result.preplayed);
        }
        blocks
    }

    #[test]
    fn one_commit_of_a_sub_dag_matches_block_by_block_commits_exactly() {
        let blocks = chained_blocks(8, 6, 10);
        let sub_dag = sub_dag_with_blocks(Committee::new(4), blocks);
        let oracle_store = funded_store(8);
        let oracle = commit_block_by_block(&sub_dag, &oracle_store, SimTime::from_secs(1));
        let store = funded_store(8);
        let pipeline = CommitPipeline::new(PostCommitExecution::Pipelined { workers: 2 });
        let output = pipeline.process(&sub_dag, &store, SimTime::from_secs(1));

        assert_eq!(oracle.invalid_blocks, 0);
        assert_eq!(output.invalid_blocks, 0);
        // Same transactions, in the same commit order.
        assert_eq!(oracle.committed, output.committed);
        assert_eq!(oracle.single_shard_committed, output.single_shard_committed);
        // Same applied state.
        let diff = oracle_store.snapshot().diff_values(&store.snapshot());
        assert!(diff.is_empty(), "state divergence on {diff:?}");
        // The commit measured both stages.
        assert!(output.stage_validate > std::time::Duration::ZERO);
        assert!(output.stage_apply > std::time::Duration::ZERO);
    }

    #[test]
    fn one_commit_of_a_sub_dag_discards_tampered_blocks_and_keeps_the_rest() {
        let mut blocks = chained_blocks(8, 4, 6);
        // Tamper the second block: its writes must not be applied and the
        // later blocks (which chain on block 1's honest writes) are judged
        // exactly as in block-by-block commits.
        blocks[1][0].outcome.read_set[0].value = Value::int(123_456_789);
        let sub_dag = sub_dag_with_blocks(Committee::new(4), blocks);
        let oracle_store = funded_store(8);
        let oracle = commit_block_by_block(&sub_dag, &oracle_store, SimTime::from_secs(1));
        let store = funded_store(8);
        let pipeline = CommitPipeline::new(PostCommitExecution::Pipelined { workers: 2 });
        let output = pipeline.process(&sub_dag, &store, SimTime::from_secs(1));
        assert!(oracle.invalid_blocks >= 1);
        assert_eq!(oracle.invalid_blocks, output.invalid_blocks);
        assert_eq!(oracle.committed, output.committed);
        let diff = oracle_store.snapshot().diff_values(&store.snapshot());
        assert!(diff.is_empty(), "state divergence on {diff:?}");
    }

    #[test]
    fn a_commit_through_replays_made_ahead_equals_one_that_replays_itself() {
        // Each block preplayed on the state the one before it declared, as
        // its proposer's overlay would show it.
        let ce = ConcurrentExecutor::new(CeConfig::new(1, 16).without_synthetic_cost());
        let scratch = funded_store(8);
        let preplay = |txs: &[Transaction], tamper: bool| {
            let result = ce.preplay(txs, &scratch);
            scratch.apply_batch(&result.write_batch());
            let mut payload = BlockPayload {
                single_shard: result.preplayed,
                cross_shard: vec![],
            };
            if tamper {
                payload = crate::app::tamper_reads(payload);
            }
            payload.single_shard
        };
        let blocks = vec![
            preplay(&[payment(1, 0, 4, 10, 1), payment(2, 2, 6, 5, 1)], false),
            // A ByzantineBehavior::TamperReads proposer's block.
            preplay(&[payment(3, 4, 0, 7, 1)], true),
            // Reads both keys only the tampered block wrote.
            preplay(&[payment(4, 0, 4, 1, 1)], false),
            preplay(&[payment(5, 2, 6, 1, 1)], false),
        ];
        let sub_dag = sub_dag_with_blocks(Committee::new(4), blocks);
        let at = SimTime::from_secs(1);
        let pipeline = CommitPipeline::new(PostCommitExecution::Pipelined { workers: 2 });

        let oracle_store = funded_store(8);
        let oracle = commit_block_by_block(&sub_dag, &oracle_store, at);
        let committed: Vec<TxId> = oracle.committed.iter().map(|(id, _)| *id).collect();
        assert_eq!(committed, [1, 2, 5].map(TxId::new));
        assert_eq!(oracle.invalid_blocks, 2);

        let inline_store = funded_store(8);
        let inline = pipeline.process(&sub_dag, &inline_store, at);
        assert_eq!(inline.blocks_replayed_inline, 4);
        assert_eq!(inline.committed, oracle.committed);
        assert_eq!(inline.invalid_blocks, oracle.invalid_blocks);
        assert!(inline_store
            .snapshot()
            .diff_values(&oracle_store.snapshot())
            .is_empty());

        // Every subset of the blocks replayed ahead, the rest by the commit.
        for ahead in 0..16usize {
            let mut replays = ReplayCache::default();
            for (i, vertex) in sub_dag.vertices.iter().enumerate() {
                if ahead & (1 << i) != 0 {
                    replays.admit(&vertex.block);
                }
            }
            replays.replay_admitted(0);
            let store = funded_store(8);
            let output = pipeline.process_cached(&sub_dag, &store, at, &mut replays);
            assert_eq!(
                output.blocks_replayed_ahead,
                u64::from(ahead.count_ones()),
                "{ahead:04b}"
            );
            assert_eq!(
                output.blocks_replayed_inline,
                4 - output.blocks_replayed_ahead
            );
            assert_eq!(replays.len(), 0, "delivered blocks leave the cache");
            assert_eq!(output.committed, inline.committed, "{ahead:04b}");
            assert_eq!(output.invalid_blocks, inline.invalid_blocks, "{ahead:04b}");
            assert_eq!(output.apply_calls, inline.apply_calls, "{ahead:04b}");
            let diff = store.snapshot().diff_values(&inline_store.snapshot());
            assert!(diff.is_empty(), "{ahead:04b}: state divergence on {diff:?}");
        }
    }

    /// A block names no vertex, so two vertices may carry byte-identical
    /// blocks under one digest, the key of the replay cache. Both commit,
    /// each with the replay a fresh commit makes: a replay is a function of
    /// the block alone.
    #[test]
    fn two_vertices_with_one_block_digest_both_commit_through_the_cache() {
        let ce = ConcurrentExecutor::new(CeConfig::new(1, 16).without_synthetic_cost());
        let balance = Transaction::new(
            TxId::new(1),
            ClientId::new(0),
            ContractCall::SmallBank(SmallBankProcedure::GetBalance { account: 3 }),
            1,
            SimTime::ZERO,
        );
        let block = ce.preplay(&[balance], &funded_store(8)).preplayed;
        let sub_dag = sub_dag_with_blocks(Committee::new(4), vec![block.clone(), block]);
        let [first, second] = &sub_dag.vertices[..] else {
            panic!("two vertices");
        };
        assert_eq!(first.block.digest(), second.block.digest());
        assert_ne!(first.id(), second.id());

        let at = SimTime::from_secs(1);
        let pipeline = CommitPipeline::new(PostCommitExecution::Pipelined { workers: 2 });
        let fresh_store = funded_store(8);
        let fresh = pipeline.process(&sub_dag, &fresh_store, at);
        assert_eq!(fresh.committed, [(TxId::new(1), at); 2]);

        let mut replays = ReplayCache::default();
        for vertex in &sub_dag.vertices {
            replays.admit(&vertex.block);
        }
        replays.replay_admitted(0);
        let store = funded_store(8);
        let output = pipeline.process_cached(&sub_dag, &store, at, &mut replays);
        assert_eq!(
            output.blocks_replayed_ahead + output.blocks_replayed_inline,
            2
        );
        assert_eq!(replays.len(), 0, "delivered blocks leave the cache");
        assert_eq!(output.committed, fresh.committed);
        assert_eq!(output.invalid_blocks, 0);
        assert_eq!(output.single_shard_committed, 2);
        let diff = store.snapshot().diff_values(&fresh_store.snapshot());
        assert!(diff.is_empty(), "state divergence on {diff:?}");
    }

    /// A Byzantine proposer's in-memory block may claim shard sets that
    /// disagree with its calls and repeat `order` values. The seal derives
    /// both, so the block the simulation shares and the block a receiver
    /// decodes from the wire are one block, and they commit identically:
    /// the same transactions, in the same order, to the same state.
    #[test]
    fn a_block_with_false_shards_and_repeated_orders_commits_the_same_after_a_wire_round_trip() {
        let ce = ConcurrentExecutor::new(CeConfig::new(1, 8).without_synthetic_cost());
        let genesis = funded_store(12);
        // Accounts 0, 4 and 8 lie on shard 0 of 4; 1 and 2 on shards 1, 2.
        let txs = [
            payment(1, 0, 4, 10, 4),
            payment(2, 4, 8, 10, 4),
            payment(3, 0, 8, 5, 4),
        ];
        let mut preplayed = ce.preplay(&txs, &genesis).preplayed;
        for p in &mut preplayed {
            p.order = 0;
            p.tx.shards = vec![ShardId::new(3)];
        }
        let mut cross = payment(4, 1, 2, 3, 4);
        cross.shards = vec![ShardId::new(0)];
        let sim = sub_dag_with(Committee::new(4), preplayed, vec![cross], &[]);
        let block = &sim.vertices[0].block;
        assert!(block
            .payload
            .single_shard
            .iter()
            .enumerate()
            .all(|(i, p)| p.order as usize == i && p.tx.shards == [ShardId::new(0)]));
        assert_eq!(
            sim.vertices[1].block.payload.cross_shard[0].shards,
            [ShardId::new(1), ShardId::new(2)]
        );
        let wire = CommittedSubDag {
            vertices: sim
                .vertices
                .iter()
                .map(|vertex| {
                    let decoded =
                        Vertex::from_wire_bytes(&vertex.to_wire_bytes()).expect("decodes");
                    assert_eq!(&decoded, vertex.as_ref());
                    Arc::new(decoded)
                })
                .collect(),
            ..sim.clone()
        };
        let pipeline = CommitPipeline::new(PostCommitExecution::Pipelined { workers: 2 });
        let (sim_store, wire_store) = (funded_store(12), funded_store(12));
        let sim_output = pipeline.process(&sim, &sim_store, SimTime::ZERO);
        let wire_output = pipeline.process(&wire, &wire_store, SimTime::ZERO);
        assert_eq!(sim_output.invalid_blocks, 0);
        assert_eq!(sim_output.committed_count(), 4);
        assert_eq!(wire_output.committed, sim_output.committed);
        assert_eq!(wire_output.invalid_blocks, sim_output.invalid_blocks);
        let diff = wire_store.snapshot().diff_values(&sim_store.snapshot());
        assert!(diff.is_empty(), "state divergence on {diff:?}");
    }

    #[test]
    fn a_block_with_duplicate_order_values_is_discarded_and_money_is_conserved() {
        // Two payments out of account 1, each preplayed alone against the
        // same state, so both claim position 0. Applying both as declared
        // would debit one balance once and credit two accounts. The seal
        // puts them at positions 0 and 1, where the second one's declared
        // read of the payer's balance misses the first one's debit: the
        // read check discards the block.
        let ce = ConcurrentExecutor::new(CeConfig::new(1, 8).without_synthetic_cost());
        let genesis = funded_store(4);
        let total = genesis.stats().int_sum;
        let double_spend: Vec<PreplayedTx> = [payment(1, 1, 2, 10, 1), payment(2, 1, 3, 10, 1)]
            .iter()
            .flat_map(|tx| ce.preplay(std::slice::from_ref(tx), &genesis).preplayed)
            .collect();
        assert!(double_spend.iter().all(|p| p.order == 0));
        let honest = ce.preplay(&[payment(3, 0, 2, 5, 1)], &genesis).preplayed;
        let sub_dag = sub_dag_with_blocks(Committee::new(4), vec![double_spend, honest]);
        for workers in [1, 2] {
            let store = funded_store(4);
            let output = CommitPipeline::new(PostCommitExecution::Pipelined { workers }).process(
                &sub_dag,
                &store,
                SimTime::ZERO,
            );
            assert_eq!(output.invalid_blocks, 1, "{workers} workers");
            assert_eq!(output.single_shard_committed, 1, "{workers} workers");
            assert_eq!(output.committed, vec![(TxId::new(3), SimTime::ZERO)]);
            assert_eq!(
                store.stats().int_sum,
                total,
                "{workers} workers minted money"
            );
        }
    }

    #[test]
    fn shard_disjoint_waves_never_split_conflicting_transactions() {
        let a = payment(1, 0, 1, 1, 4); // shards {0,1}
        let b = payment(2, 2, 3, 1, 4); // shards {2,3}
        let c = payment(3, 1, 2, 1, 4); // shards {1,2} conflicts with both
        let txs = [&a, &b, &c];
        let waves = shard_disjoint_waves(&txs);
        assert_eq!(waves.len(), 2);
        assert_eq!(waves[0].len(), 2, "a and b are disjoint");
        assert_eq!(waves[1].len(), 1);
        assert_eq!(waves[1][0].id, c.id);
    }

    #[test]
    fn wave_order_preserves_the_total_order_for_conflicting_transactions() {
        // c conflicts with a; even though c and b would be disjoint, c must
        // not jump into an earlier wave than a.
        let a = payment(1, 0, 1, 1, 4); // {0,1}
        let c = payment(2, 1, 2, 1, 4); // {1,2} conflicts with a
        let b = payment(3, 3, 7, 1, 4); // {3}
        let txs = [&a, &c, &b];
        let waves = shard_disjoint_waves(&txs);
        assert_eq!(waves.len(), 2);
        assert_eq!(waves[0][0].id, a.id);
        assert_eq!(waves[1][0].id, c.id);
        // b joins the last open wave (with c), never an earlier one than its
        // position allows.
        assert_eq!(waves[1].len(), 2);
    }
}
