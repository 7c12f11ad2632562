//! Post-consensus validation of preplayed blocks (paper Section 4).
//!
//! A block ships its preplayed transactions in their serialized order, each
//! as what only its proposer knows: the call and the reads its preplay
//! observed (key and value). A transaction's place in the serialized order
//! is its position in the block, so there is no order to police. A replica
//! does not trust the reads. It derives everything else from them — the
//! writes, and so the block's write batch — and checks them: the
//! transaction at position `(block, i)` of a run of blocks must have read,
//! for every key it reads, the value of the last write before its
//! position, or committed storage's if there is none. A block is valid iff
//! every transaction's declared reads are exactly the keys its replay
//! reads, each holding that value. Invalid blocks are discarded.
//!
//! # Derive, don't compare
//!
//! A block declares no writes, result or abort flag: replaying a
//! transaction over its declared reads yields them, and every honest replica
//! derives the same ones from the same call and reads — the determinism
//! cross-shard execution already relies on. So the block digest, which
//! covers the calls and the reads, binds the block's effects, and a
//! Byzantine proposer's only lever is a false read, which the read check
//! rejects.
//!
//! # Two stages
//!
//! [`validate_blocks`] takes the whole run of blocks a commit delivered:
//!
//! 1. *Read check* (sequential, on the caller, [`validate_replayed`]). One
//!    pass walks the run in block order with the last write per key of the
//!    blocks before the current one in one map sized to the run; every
//!    *external read* of the current block — a declared read that no earlier
//!    transaction of its block wrote — is checked against that map, or
//!    against committed storage when no earlier block wrote the key
//!    ([`read_holds`]); then the block's write batch enters the map. This is
//!    the only stage that reads state, and it resolves each external read
//!    once.
//! 2. *Replay* (no state, [`replay_blocks`]). Each transaction runs again
//!    with its own writes over its own declared reads as its whole state. No
//!    worker touches a store, another transaction's writes or a lock, so the
//!    transactions of all blocks are chunked across at most
//!    [`effective_workers`](crate::traits::effective_workers)`(validators)`
//!    slots of the shared [`pool`](crate::pool): one pool job per run. On the
//!    caller, each block is then walked by position: a declared read that
//!    an earlier transaction of the block wrote is checked against that
//!    derived write, every other one is kept as an external read, and the
//!    transaction's writes join the block's write batch ([`Replay`]).
//!
//! A transaction is valid iff both stages pass it. Stage 2 depends on the
//! block alone, so the stages may run apart: a replica replays a block when
//! its vertex enters the DAG and runs only the read check when the block
//! commits (`docs/PIPELINE.md`); [`validate_blocks`] runs both at once.
//!
//! # Why two stages give the verdict of one re-execution against the view
//!
//! The single-stage validator re-executes each transaction, in position
//! order, against the view — its own writes, over the writes of the
//! transactions before it, over storage — and accepts it iff the keys it
//! reads are exactly the declared ones, once each, at the declared values.
//! A replay is checked as it runs: reading a key the transaction has
//! neither written nor declared ends it as invalid, and on return the number
//! of distinct first reads must equal the number of declared reads (the
//! count rule), which makes the declared read keys exactly the keys the
//! replay reads.
//!
//! * If every declared read of a transaction holds the view's value, each
//!   read of the replay returns what a read of the view would, so by
//!   induction over its operations the replay *is* the re-execution against
//!   the view: same keys, same writes. By induction over positions, the
//!   writes a valid prefix derives are the view's writes.
//! * If the first failing transaction declares a read that differs from the
//!   view, its replay reads that key (count rule) where the re-execution
//!   sees another value, and one of the two stages fails it; if it reads an
//!   undeclared key or leaves a declared one unread, both validators see the
//!   same replay up to there, and both fail it.
//!
//! So the verdict of a block whose predecessors in the run are valid is
//! exact, and so is its write batch when it is valid. What stage 2 reports
//! for the transactions after a failing one rests on writes that will never
//! be applied; the block is invalid either way.
//!
//! The buffers of stage 2 are reused across a chunk, so replaying an honest
//! transaction allocates only its share of the chunk's write list. See
//! `docs/PIPELINE.md` for how validation slots into the commit pipeline.

use crate::traits::synthetic_work;
use std::sync::Mutex;
use tb_contracts::{execute_call, ExecError, StateAccess};
use tb_storage::{KvRead, WriteBatch};
use tb_types::{AccessRecord, Key, KeyMap, PreplayedTx, TxId, Value};

/// Configuration of the validation pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ValidationConfig {
    /// Number of validator workers re-executing transactions in parallel
    /// (the paper's system evaluation uses 16).
    pub validators: usize,
    /// Synthetic per-operation cost, matching the executors.
    pub op_cost_ns: u64,
}

impl Default for ValidationConfig {
    fn default() -> Self {
        ValidationConfig {
            validators: 16,
            op_cost_ns: 0,
        }
    }
}

impl ValidationConfig {
    /// Creates a config with the given parallelism and no synthetic cost.
    pub fn new(validators: usize) -> Self {
        ValidationConfig {
            validators,
            op_cost_ns: 0,
        }
    }
}

/// Result of validating one block.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ValidationReport {
    /// Number of transactions replayed.
    pub checked: usize,
    /// Transactions whose replay failed or whose declared reads do not hold
    /// the values of the state before them.
    pub mismatches: Vec<TxId>,
}

impl ValidationReport {
    /// True if every transaction validated successfully.
    pub fn is_valid(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Everything about a preplayed block's validation and commit that does not
/// depend on state: stage 2's product ([`replay_blocks`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Replay {
    /// One verdict per transaction, in block order: the transaction's replay
    /// read exactly its declared keys, and each declared read an earlier
    /// transaction of the block wrote holds that write.
    pub verdicts: Vec<bool>,
    /// The block's derived writes in block order, which is its serialized
    /// order (later transactions overwrite earlier ones): what it applies
    /// if valid.
    pub batch: WriteBatch,
    /// The declared reads no earlier transaction of the block wrote, each
    /// with the index of its transaction: what the block reads from the
    /// state before it, and all that the read check looks at.
    pub external_reads: Vec<(usize, AccessRecord)>,
}

/// Stage 1's check of one declared read: true iff `read` holds the value of
/// the last write to its key in `earlier`, the writes of the blocks before
/// its own, or `base`'s value if none of them writes it. A commit checks a
/// block's external reads against its run's earlier batches over the store;
/// a proposer checks the external reads of a batch it preplayed ahead of
/// its round against the view it proposes on, with nothing earlier. If they
/// all hold, preplaying the batch on that view again yields the same
/// outcomes, by the induction in the module docs.
pub fn read_holds(
    read: &AccessRecord,
    earlier: &KeyMap<&Value>,
    base: &(dyn KvRead + Sync),
) -> bool {
    match earlier.get(&read.key) {
        Some(value) => **value == read.value,
        None => base.get(&read.key) == read.value,
    }
}

/// Stage 2's per-transaction product for a stretch of transactions: one
/// verdict each, and the writes each made, in one list.
#[derive(Default)]
struct Replayed {
    passed: Vec<bool>,
    writes: Vec<AccessRecord>,
    /// Where each transaction's writes end in `writes`.
    ends: Vec<usize>,
}

impl Replayed {
    /// The verdict and the writes of the `i`-th transaction.
    fn get(&self, i: usize) -> (bool, &[AccessRecord]) {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        (self.passed[i], &self.writes[start..self.ends[i]])
    }

    /// Appends another stretch's product.
    fn append(&mut self, mut other: Replayed) {
        let offset = self.writes.len();
        self.passed.append(&mut other.passed);
        self.writes.append(&mut other.writes);
        self.ends
            .extend(other.ends.into_iter().map(|end| offset + end));
    }
}

/// Stage 2's whole state for one transaction: its own writes over its own
/// declared reads. Replays the transaction and checks its reads against its
/// declaration as it runs. The writes of every transaction the session
/// replayed stay in `replayed`, the current one's from `start` on.
struct ReplaySession<'a> {
    op_cost: u64,
    declared_reads: &'a [AccessRecord],
    reads: Vec<Key>,
    replayed: Replayed,
    start: usize,
}

impl<'a> ReplaySession<'a> {
    fn new(op_cost: u64) -> Self {
        ReplaySession {
            op_cost,
            declared_reads: &[],
            reads: Vec::new(),
            replayed: Replayed::default(),
            start: 0,
        }
    }

    /// Replays `p` over its declared reads and records its verdict — it ran,
    /// reading each declared key and no other, so its first reads number as
    /// many as its declared ones — and the writes it made.
    fn replay(&mut self, p: &'a PreplayedTx) {
        self.declared_reads = &p.outcome.read_set;
        self.reads.clear();
        self.start = self.replayed.writes.len();
        let ran = execute_call(&p.tx.call, &mut *self).is_ok();
        let replayed = &mut self.replayed;
        replayed
            .passed
            .push(ran && self.reads.len() == self.declared_reads.len());
        replayed.ends.push(replayed.writes.len());
    }
}

impl StateAccess for ReplaySession<'_> {
    fn read(&mut self, key: Key) -> Result<Value, ExecError> {
        synthetic_work(self.op_cost);
        let own = &self.replayed.writes[self.start..];
        if let Some(own) = own.iter().find(|rec| rec.key == key) {
            return Ok(own.value.clone());
        }
        let Some(declared) = self.declared_reads.iter().find(|rec| rec.key == key) else {
            return Err(ExecError::aborted("read of an undeclared key"));
        };
        // A repeated read observes the same value; only the first counts.
        if !self.reads.contains(&key) {
            self.reads.push(key);
        }
        Ok(declared.value.clone())
    }

    fn write(&mut self, key: Key, value: Value) -> Result<(), ExecError> {
        synthetic_work(self.op_cost);
        let own = &mut self.replayed.writes[self.start..];
        match own.iter_mut().find(|rec| rec.key == key) {
            Some(own) => own.value = value,
            None => self.replayed.writes.push(AccessRecord::new(key, value)),
        }
        Ok(())
    }
}

/// Validates the single-shard payload of one block: [`validate_blocks`] on a
/// run of one.
pub fn validate_block(
    preplayed: &[PreplayedTx],
    base: &(dyn KvRead + Sync),
    config: &ValidationConfig,
) -> ValidationReport {
    validate_blocks(&[preplayed], base, config)
        .pop()
        .expect("one report per block")
}

/// Validates a run of blocks delivered together, in delivery order, and
/// returns one report per block: [`replay_blocks`], then
/// [`validate_replayed`]. One parallel fan-out replays every transaction
/// over its own declared reads, checking while it runs that it reads exactly
/// them; a walk of each block by position checks the reads an earlier
/// transaction of the block wrote against that transaction's derived write;
/// then one sequential pass checks every other declared read against the
/// last write of an earlier block of the run, or `base`. A transaction is
/// valid iff both stages pass it.
///
/// The transaction at `(block, i)` is judged against its own writes,
/// over the derived writes before its position, over `base`. Report `k` is
/// therefore exact **provided blocks `0..k` are valid**: block `k` then sees
/// its own earlier writes over the final writes of blocks `0..k` over
/// `base`, which is the state a validate-apply-validate loop would show it.
/// Reports after the first invalid one were computed over writes that will
/// never be applied; the caller discards them and validates those blocks
/// again once the valid prefix is in `base`.
///
/// A block's serialized order is its position order: a sealed or decoded
/// block numbers each preplayed transaction's `order` by its position
/// (`Block::seal`), and validation reads positions alone.
///
/// The two stages reach the verdicts of re-executing every transaction
/// against that view; the module documentation gives the argument, and a
/// proptest pins it against the single-stage re-execution on honest,
/// tampered and malformed runs.
///
/// # Parallelism contract
///
/// Only the read check reads `base`: on the calling thread, at most once per
/// external read. The replay reads no state. It occupies at most
/// `effective_workers(config.validators)` slots of the shared worker pool
/// (clamped to the transaction count); with one effective worker — a
/// single-core machine, or `validators: 1` — no pool job is submitted and
/// the whole pass runs inline on the caller, so single-core CI measures
/// exactly the sequential cost.
///
/// # Determinism
///
/// The reports are a pure function of `(blocks, base, config)` — they do
/// not depend on the worker count, chunk boundaries or thread scheduling.
/// Per-chunk replays are joined in chunk order and `mismatches` is sorted
/// by [`TxId`], so two calls with different `validators` values return
/// byte-identical reports (pinned by a proptest in
/// `tests/proptest_invariants.rs`).
///
/// # Panics
///
/// Worker threads never panic on malformed or Byzantine block contents —
/// interpreter failures are verdicts (`Err` from [`execute_call`] marks the
/// transaction as a mismatch), not panics. If a worker does panic (a bug in
/// the contract interpreter), the pool re-throws the panic on the calling
/// thread once the job drains; it is never swallowed. A panicking [`KvRead`]
/// panics on the calling thread, in the read check.
pub fn validate_blocks(
    blocks: &[&[PreplayedTx]],
    base: &(dyn KvRead + Sync),
    config: &ValidationConfig,
) -> Vec<ValidationReport> {
    let replays = replay_blocks(blocks, config);
    let replays: Vec<&Replay> = replays.iter().collect();
    validate_replayed(blocks, &replays, base)
}

/// Stage 2 on a run of blocks: each block's [`Replay`], in block order. It
/// reads no state, so it is a pure function of the blocks and may run at
/// any time before they are validated; [`validate_replayed`] joins it with
/// the read check. The transactions of all blocks share one fan-out over at
/// most `effective_workers(config.validators)` pool slots, and run on the
/// caller with one; each block is then walked by position on the caller.
pub fn replay_blocks(blocks: &[&[PreplayedTx]], config: &ValidationConfig) -> Vec<Replay> {
    let txs: Vec<&PreplayedTx> = blocks.iter().flat_map(|block| block.iter()).collect();
    let replayed = parallel_replays(&txs, config);
    let mut first = 0;
    blocks
        .iter()
        .map(|block| {
            let replay = walk_block(block, &replayed, first);
            first += block.len();
            replay
        })
        .collect()
}

/// Walks `block` by position, its serialized order, over its transactions'
/// replays, which start at `first` in `replayed`: checks each declared read
/// an earlier transaction of the block wrote against that write, keeps the
/// others as external reads, and gathers the writes into the block's batch.
/// A transaction's writes join the batch whatever its verdict: a block with
/// a failing transaction is invalid anyway.
fn walk_block(block: &[PreplayedTx], replayed: &Replayed, first: usize) -> Replay {
    let writes = (first..first + block.len())
        .map(|i| replayed.get(i).1.len())
        .sum();
    let mut replay = Replay {
        verdicts: Vec::with_capacity(block.len()),
        batch: WriteBatch::with_capacity(writes),
        external_reads: Vec::new(),
    };
    for (i, preplayed) in block.iter().enumerate() {
        let (passed, writes) = replayed.get(first + i);
        let mut holds = true;
        for read in &preplayed.outcome.read_set {
            match replay.batch.get(&read.key) {
                Some(written) => holds &= *written == read.value,
                None => replay.external_reads.push((i, read.clone())),
            }
        }
        replay.verdicts.push(passed && holds);
        for write in writes {
            replay.batch.put(write.key, write.value.clone());
        }
    }
    replay
}

/// The two stages joined: `replays[k]` is stage 2 of `blocks[k]`
/// ([`replay_blocks`]), made whenever; the read check runs against `base`
/// now, over the external reads alone. The reports are those of
/// [`validate_blocks`] on the same `(blocks, base)`, byte for byte.
pub fn validate_replayed(
    blocks: &[&[PreplayedTx]],
    replays: &[&Replay],
    base: &(dyn KvRead + Sync),
) -> Vec<ValidationReport> {
    assert_eq!(blocks.len(), replays.len(), "one replay per block");
    let writes = replays.iter().map(|replay| replay.batch.len()).sum();
    let mut earlier: KeyMap<&Value> = KeyMap::with_capacity_and_hasher(writes, Default::default());
    let mut reports = Vec::with_capacity(blocks.len());
    for (preplayed, replay) in blocks.iter().zip(replays) {
        assert_eq!(
            preplayed.len(),
            replay.verdicts.len(),
            "one verdict per transaction"
        );
        let mut passed = replay.verdicts.clone();
        for (i, read) in &replay.external_reads {
            if passed[*i] && !read_holds(read, &earlier, base) {
                passed[*i] = false;
            }
        }
        earlier.extend(replay.batch.iter().map(|(key, value)| (*key, value)));
        let mut mismatches: Vec<TxId> = preplayed
            .iter()
            .zip(passed)
            .filter(|(_, passed)| !passed)
            .map(|(p, _)| p.tx.id)
            .collect();
        mismatches.sort_unstable();
        reports.push(ValidationReport {
            checked: preplayed.len(),
            mismatches,
        });
    }
    reports
}

/// Stage 2's replays on the caller: one session, its buffers reused across
/// `txs`.
fn replay_all<'a>(txs: impl IntoIterator<Item = &'a PreplayedTx>, op_cost_ns: u64) -> Replayed {
    let mut session = ReplaySession::new(op_cost_ns);
    for p in txs {
        session.replay(p);
    }
    session.replayed
}

/// Stage 2's fan-out: replays every transaction over its own declarations
/// and returns their verdicts and writes, in input order. Workers share only
/// the immutable blocks, so no synchronisation is needed beyond the final
/// join.
fn parallel_replays(txs: &[&PreplayedTx], config: &ValidationConfig) -> Replayed {
    let workers = crate::traits::effective_workers(config.validators).min(txs.len());
    if workers <= 1 {
        return replay_all(txs.iter().copied(), config.op_cost_ns);
    }
    let chunks: Vec<_> = txs.chunks(txs.len().div_ceil(workers)).collect();
    let replays: Vec<Mutex<Replayed>> = chunks.iter().map(|_| Mutex::default()).collect();
    crate::pool::global().run(chunks.len(), &|slot| {
        *replays[slot]
            .lock()
            .expect("each slot locks only its own entry") =
            replay_all(chunks[slot].iter().copied(), config.op_cost_ns);
    });
    // Appending in chunk order keeps the replays in input order no matter
    // which pool worker ran which chunk.
    let mut replayed = Replayed::default();
    for chunk in replays {
        replayed.append(
            chunk
                .into_inner()
                .expect("a panicked slot re-throws in `run`"),
        );
    }
    replayed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ce::ConcurrentExecutor;
    use crate::occ::OccExecutor;
    use crate::serial::SerialExecutor;
    use crate::traits::BatchExecutor;
    use crate::two_pl::TwoPlNoWaitExecutor;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::{self, ThreadId};
    use tb_contracts::{TrackingState, SMALLBANK_DEFAULT_BALANCE};
    use tb_storage::{MemStore, Store, Versioned};
    use tb_types::{
        Block, BlockKind, BlockPayload, CeConfig, ClientId, ContractCall, KeySet, Operation,
        SimTime, SmallBankProcedure, Transaction,
    };
    use tb_workload::{SmallBankConfig, SmallBankWorkload, Workload};

    /// The single-stage validator's view of one transaction: its own
    /// writes, over the writes of its block's earlier transactions, over the
    /// store holding the valid blocks before its own.
    struct OracleView<'a> {
        store: &'a MemStore,
        block_writes: &'a WriteBatch,
    }

    impl StateAccess for OracleView<'_> {
        fn read(&mut self, key: Key) -> Result<Value, ExecError> {
            let earlier = self.block_writes.get(&key).cloned();
            Ok(earlier.unwrap_or_else(|| self.store.get(&key)))
        }

        fn write(&mut self, _: Key, _: Value) -> Result<(), ExecError> {
            Ok(())
        }
    }

    fn same_access_set(a: &[AccessRecord], b: &[AccessRecord]) -> bool {
        a.len() == b.len()
            && a.iter().all(|rec| {
                b.iter()
                    .any(|other| other.key == rec.key && other.value == rec.value)
            })
    }

    /// The single-stage validator as an oracle, run as a validate-apply
    /// loop: each block in turn, each transaction in position order
    /// re-executed against the view while recording its outcome, valid iff
    /// the reads it recorded are its declared ones; a valid block's writes
    /// are applied before the next block is judged. Returns one entry per
    /// block up to and including the first invalid one: the block's write
    /// batch if it is valid, `None` if not.
    fn oracle_prefix(blocks: &[&[PreplayedTx]], base: &MemStore) -> Vec<Option<WriteBatch>> {
        let store = MemStore::new();
        store.load(base.snapshot().iter().map(|(k, v)| (*k, v.value.clone())));
        let mut prefix = Vec::new();
        for block in blocks {
            let mut block_writes = WriteBatch::new();
            let valid = block.iter().all(|p| {
                let mut tracking = TrackingState::new(OracleView {
                    store: &store,
                    block_writes: &block_writes,
                });
                let ran = execute_call(&p.tx.call, &mut tracking).is_ok();
                let (outcome, _) = tracking.finish();
                block_writes.extend_from_write_set(&outcome.write_set);
                ran && same_access_set(&outcome.read_set, &p.outcome.read_set)
            });
            if !valid {
                prefix.push(None);
                break;
            }
            store.apply_batch(&block_writes);
            prefix.push(Some(block_writes));
        }
        prefix
    }

    /// What the two stages say about the same blocks, in the oracle's form.
    fn two_stage_prefix(blocks: &[&[PreplayedTx]], base: &MemStore) -> Vec<Option<WriteBatch>> {
        let reports = validate_blocks(blocks, base, &ValidationConfig::new(1));
        let replays = replay_blocks(blocks, &ValidationConfig::new(1));
        let mut prefix = Vec::new();
        for (report, replay) in reports.iter().zip(replays) {
            if !report.is_valid() {
                prefix.push(None);
                break;
            }
            prefix.push(Some(replay.batch));
        }
        prefix
    }

    /// A batch of one of the three call kinds — SmallBank, raw KV,
    /// interpreter `Program`s — over a small hot key pool, and a store
    /// holding the workload's initial state.
    fn contended_batch(kind: usize, seed: u64, len: usize) -> (Vec<Transaction>, MemStore) {
        let store = MemStore::new();
        let txs = match kind {
            0 => {
                let mut workload = SmallBankWorkload::new(SmallBankConfig {
                    accounts: 8,
                    theta: 0.9,
                    n_shards: 1,
                    seed,
                    ..SmallBankConfig::default()
                });
                store.load(workload.initial_state());
                workload.batch(len, SimTime::ZERO)
            }
            1 => {
                let mut workload = tb_workload::KvWorkload::new(tb_workload::KvWorkloadConfig {
                    keys: 12,
                    ops_per_tx: 3,
                    n_shards: 1,
                    seed,
                    ..tb_workload::KvWorkloadConfig::default()
                });
                store.load(workload.initial_state());
                workload.batch(len, SimTime::ZERO)
            }
            _ => {
                let mut workload =
                    tb_workload::ContractWorkload::new(tb_workload::ContractWorkloadConfig {
                        slots: 12,
                        n_shards: 1,
                        seed,
                        ..tb_workload::ContractWorkloadConfig::default()
                    });
                store.load(workload.initial_state());
                workload.batch(len, SimTime::ZERO)
            }
        };
        (txs, store)
    }

    /// The preplayed transactions of `preplayed` as a block ships them: the
    /// payload of the sealed block.
    fn shipped(preplayed: Vec<PreplayedTx>) -> Vec<PreplayedTx> {
        let block = Block::new(
            BlockKind::Normal,
            1,
            BlockPayload {
                single_shard: preplayed,
                cross_shard: Vec::new(),
            },
        );
        Block::clone(&block.seal()).payload.single_shard
    }

    /// Preplays each chunk with the one-worker CE on a copy of `store`, each
    /// chunk chained on the state the previous one left behind.
    fn preplay_chained(chunks: &[Vec<Transaction>], store: &MemStore) -> Vec<Vec<PreplayedTx>> {
        let ce = ConcurrentExecutor::new(CeConfig::new(1, 64).without_synthetic_cost());
        let scratch = MemStore::new();
        scratch.load(store.snapshot().iter().map(|(k, v)| (*k, v.value.clone())));
        chunks
            .iter()
            .map(|chunk| {
                let result = ce.preplay(chunk, &scratch);
                result.apply_to(&scratch);
                result.preplayed
            })
            .collect()
    }

    /// Changes the declared reads of `p`, the one thing a block declares
    /// about a preplayed transaction: every read value; an extra, missing or
    /// duplicate read key.
    fn tamper(p: &mut PreplayedTx, field: usize, forged: i64) {
        let reads = &mut p.outcome.read_set;
        match field {
            0 => reads.iter_mut().for_each(|r| r.value = Value::int(forged)),
            1 => reads.push(AccessRecord::new(Key::scratch(1 << 40), Value::int(forged))),
            2 => *reads = reads[..reads.len().saturating_sub(1)].to_vec().into(),
            _ => {
                if let Some(first) = reads.first().cloned() {
                    reads.push(first);
                }
            }
        }
    }

    /// The first transaction of `block` at or after index `from`, wrapping
    /// around, for which `wanted` holds.
    fn pick(
        block: &mut [PreplayedTx],
        from: usize,
        wanted: impl Fn(&PreplayedTx) -> bool,
    ) -> Option<&mut PreplayedTx> {
        let len = block.len();
        let index = (0..len)
            .map(|step| (from + step) % len)
            .find(|&i| wanted(&block[i]))?;
        Some(&mut block[index])
    }

    /// The run validated as a replica validates it: each block replayed
    /// first, on its own and on the caller, and the replays joined with the
    /// read check later. Replaying the whole run in one fan-out over
    /// `validators` workers, as a commit replays the blocks it finds
    /// unreplayed, must give the same replays.
    fn replayed_ahead(
        run: &[&[PreplayedTx]],
        base: &MemStore,
        validators: usize,
    ) -> Vec<ValidationReport> {
        let replays: Vec<Replay> = run
            .iter()
            .flat_map(|block| replay_blocks(&[block], &ValidationConfig::new(1)))
            .collect();
        assert_eq!(
            replay_blocks(run, &ValidationConfig::new(validators)),
            replays
        );
        let replays: Vec<&Replay> = replays.iter().collect();
        validate_replayed(run, &replays, base)
    }

    /// The checks every proptest below makes of a run: the two stages judge
    /// the valid prefix and its batches as the oracle does, and give the
    /// same reports at one validator, at several, and replayed ahead.
    fn check_run(run: &[&[PreplayedTx]], store: &MemStore, validators: usize) {
        assert_eq!(two_stage_prefix(run, store), oracle_prefix(run, store));
        let reports = validate_blocks(run, store, &ValidationConfig::new(1));
        assert_eq!(
            validate_blocks(run, store, &ValidationConfig::new(validators)),
            reports
        );
        assert_eq!(replayed_ahead(run, store, validators), reports);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// On two chained blocks with one tampered read declaration, for
        /// every call kind and tampered field, the two stages find the valid
        /// prefix and derive its write batches as the single-stage oracle
        /// does, at one validator and at several.
        #[test]
        fn two_stages_match_the_single_stage_oracle_on_tampered_reads(
            kind in 0usize..3,
            seed in 0u64..1_000,
            len in 2usize..40,
            field in 0usize..4,
            victim in 0usize..64,
            forged in -3i64..3,
            validators in 2usize..9,
        ) {
            let (txs, store) = contended_batch(kind, seed, len);
            let chunks: Vec<Vec<Transaction>> =
                txs.chunks(len.div_ceil(2)).map(<[Transaction]>::to_vec).collect();
            let mut blocks: Vec<Vec<PreplayedTx>> =
                preplay_chained(&chunks, &store).into_iter().map(shipped).collect();
            let victim = victim % len;
            let (block, index) = (victim / len.div_ceil(2), victim % len.div_ceil(2));
            tamper(&mut blocks[block][index], field, forged);

            let run: Vec<&[PreplayedTx]> = blocks.iter().map(Vec::as_slice).collect();
            check_run(&run, &store, validators);
        }

        /// The same on three chained blocks with any mix of: a middle block
        /// with two transactions swapped out of their serialized order; a
        /// read key declared twice; a forged read value; and
        /// a transaction that reads a key after writing it, honestly
        /// declared or with that read declared at the value the view holds.
        #[test]
        fn two_stages_match_the_single_stage_oracle_on_malformed_runs(
            kind in 0usize..3,
            seed in 0u64..1_000,
            len in 2usize..24,
            swapped in 0usize..2,
            read_twice in 0usize..2,
            forge_read in 0usize..2,
            read_after_write in 0usize..3,
            victim in 0usize..64,
            validators in 2usize..9,
        ) {
            let (txs, store) = contended_batch(kind, seed, 3 * len);
            let mut chunks: Vec<Vec<Transaction>> =
                txs.chunks(len).map(<[Transaction]>::to_vec).collect();
            let (target, at) = (victim % 3, victim % len);
            let rereader = TxId::new(1 << 40);
            let reread = chunks[target][at]
                .call
                .declared_keys()
                .first()
                .copied()
                .unwrap_or(Key::scratch(0));
            if read_after_write > 0 {
                let call = ContractCall::KvOps(vec![
                    Operation::write(reread, Value::int(victim as i64)),
                    Operation::read(reread),
                ]);
                chunks[target].insert(at, Transaction::new(rereader, ClientId::new(0), call, 1, SimTime::ZERO));
            }
            let blocks = preplay_chained(&chunks, &store);
            // The value the view holds for `reread` at the rereader's
            // position: the CE emits its batches in serialized order.
            let position = blocks[target].iter().position(|p| p.tx.id == rereader);
            let seen = blocks[..target]
                .iter()
                .flatten()
                .chain(blocks[target].iter().take(position.unwrap_or(0)))
                .flat_map(|p| &p.outcome.write_set)
                .rfind(|rec| rec.key == reread)
                .map_or_else(|| store.get(&reread), |rec| rec.value.clone());
            let mut blocks: Vec<Vec<PreplayedTx>> = blocks.into_iter().map(shipped).collect();
            if read_after_write == 2 {
                let p = pick(&mut blocks[target], 0, |p| p.tx.id == rereader).expect("inserted");
                p.outcome.read_set.push(AccessRecord::new(reread, seen));
            }
            if read_twice == 1 {
                if let Some(p) = pick(&mut blocks[(target + 2) % 3], at, |p| !p.outcome.read_set.is_empty()) {
                    let again = p.outcome.read_set[0].clone();
                    p.outcome.read_set.push(again);
                }
            }
            if forge_read == 1 {
                if let Some(p) = pick(&mut blocks[target], at + 1, |p| !p.outcome.read_set.is_empty()) {
                    p.outcome.read_set[0].value = Value::int(-424_242);
                }
            }
            if swapped == 1 {
                let len = blocks[1].len();
                blocks[1].swap(at % len, (at + 1) % len);
            }

            let run: Vec<&[PreplayedTx]> = blocks.iter().map(Vec::as_slice).collect();
            check_run(&run, &store, validators);
        }
    }

    /// A [`KvRead`] over a store that counts reads made on the thread that
    /// created it and on every other thread.
    struct CountingRead<'a> {
        inner: &'a MemStore,
        caller: ThreadId,
        on_caller: AtomicUsize,
        elsewhere: AtomicUsize,
    }

    impl CountingRead<'_> {
        fn count(&self) {
            let counter = if thread::current().id() == self.caller {
                &self.on_caller
            } else {
                &self.elsewhere
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    impl KvRead for CountingRead<'_> {
        fn get(&self, key: &Key) -> Value {
            self.count();
            self.inner.get(key)
        }

        fn get_versioned(&self, key: &Key) -> Versioned {
            self.count();
            self.inner.get_versioned(key)
        }
    }

    #[test]
    fn the_fan_out_reads_no_state() {
        let blocks = chained_blocks(8);
        let store = funded_store(8);
        let counting = CountingRead {
            inner: &store,
            caller: thread::current().id(),
            on_caller: AtomicUsize::new(0),
            elsewhere: AtomicUsize::new(0),
        };
        let run: Vec<&[PreplayedTx]> = blocks.iter().map(Vec::as_slice).collect();
        let reports = validate_blocks(&run, &counting, &ValidationConfig::new(2));
        assert!(reports.iter().all(|r| r.is_valid()));
        assert_eq!(counting.elsewhere.load(Ordering::Relaxed), 0);

        // The declared reads no earlier transaction of their block wrote.
        let mut external = 0;
        for block in &blocks {
            let mut written = KeySet::default();
            for p in block {
                external += p
                    .outcome
                    .read_set
                    .iter()
                    .filter(|rec| !written.contains(&rec.key))
                    .count();
                written.extend(p.outcome.write_set.iter().map(|rec| rec.key));
            }
        }
        let on_caller = counting.on_caller.load(Ordering::Relaxed);
        assert!(
            on_caller <= external,
            "{on_caller} reads on the caller, {external} external reads"
        );
    }

    fn funded_store(accounts: u64) -> MemStore {
        let store = MemStore::new();
        store.load(tb_workload::initial_smallbank_state(
            accounts,
            SMALLBANK_DEFAULT_BALANCE,
        ));
        store
    }

    fn smallbank_batch(accounts: u64, n: usize) -> Vec<Transaction> {
        let cfg = SmallBankConfig {
            accounts,
            theta: 0.9,
            pr_read: 0.3,
            n_shards: 1,
            ..SmallBankConfig::default()
        };
        SmallBankWorkload::new(cfg).batch(n, SimTime::ZERO)
    }

    #[test]
    fn empty_block_is_trivially_valid() {
        let store = MemStore::new();
        let report = validate_block(&[], &store, &ValidationConfig::default());
        assert!(report.is_valid());
        assert_eq!(report.checked, 0);
    }

    /// A receiver gets a block's reads, not its effects, and derives from
    /// them the very writes the proposer's engine produced: for honest
    /// batches of every engine, the replayed batch of the shipped block is
    /// `BatchResult::write_batch`, the same list, and the block validates.
    /// Engines and the replay both record accesses in execution order, so
    /// a payment to a lower-numbered account writes its payer first.
    #[test]
    fn a_receiver_derives_the_write_batch_the_proposer_applies() {
        let config = CeConfig::new(4, 512).without_synthetic_cost();
        let engines: [(&str, Box<dyn BatchExecutor>); 5] = [
            (
                "CE, 1 worker",
                Box::new(ConcurrentExecutor::new(
                    CeConfig::new(1, 512).without_synthetic_cost(),
                )),
            ),
            ("CE, 4 workers", Box::new(ConcurrentExecutor::new(config))),
            ("OCC", Box::new(OccExecutor::new(config))),
            ("2PL-No-Wait", Box::new(TwoPlNoWaitExecutor::new(config))),
            ("Serial", Box::new(SerialExecutor::default())),
        ];
        let downhill = (0..40).map(|i| payment(1_000 + i, 8 + i % 24, i % 8, 5));
        let txs: Vec<Transaction> = smallbank_batch(32, 80)
            .into_iter()
            .chain(downhill)
            .collect();
        for (name, engine) in &engines {
            let store = funded_store(32);
            let result = engine.preplay(&txs, &store);
            let first_downhill = result
                .preplayed
                .iter()
                .find(|p| p.tx.id == TxId::new(1_000))
                .expect("every transaction commits");
            let written: Vec<Key> = first_downhill
                .outcome
                .write_set
                .iter()
                .map(|w| w.key)
                .collect();
            assert_eq!(written, [Key::checking(8), Key::checking(0)], "{name}");
            let block = shipped(result.preplayed.clone());
            assert!(block.iter().all(|p| p.outcome.write_set.is_empty()));
            let replay = replay_blocks(&[&block], &ValidationConfig::new(4)).remove(0);
            assert_eq!(replay.batch, result.write_batch(), "{name}");
            let report = validate_block(&block, &store, &ValidationConfig::new(4));
            assert!(report.is_valid(), "{name}: {report:?}");
            assert_eq!(report.checked, txs.len());
        }
    }

    /// Nothing but the reads is taken from a block: a write set it carries
    /// anyway is neither compared nor applied.
    #[test]
    fn declared_effects_are_ignored() {
        let store = funded_store(8);
        let ce = ConcurrentExecutor::new(CeConfig::new(1, 64).without_synthetic_cost());
        let honest = ce.preplay(&smallbank_batch(8, 30), &store);
        let mut claimed = honest.preplayed.clone();
        for p in &mut claimed {
            for rec in &mut p.outcome.write_set {
                rec.value = Value::int(9_999_999);
            }
        }
        assert!(validate_block(&claimed, &store, &ValidationConfig::new(2)).is_valid());
        let replay = replay_blocks(&[&claimed], &ValidationConfig::new(2)).remove(0);
        assert_eq!(replay.batch, honest.write_batch());
    }

    #[test]
    fn tampered_read_set_is_detected() {
        let store = funded_store(8);
        let txs = smallbank_batch(8, 30);
        let ce = ConcurrentExecutor::new(CeConfig::new(4, 512).without_synthetic_cost());
        let mut block = shipped(ce.preplay(&txs, &store).preplayed);
        let victim = block
            .iter_mut()
            .find(|p| !p.outcome.read_set.is_empty())
            .expect("some transaction reads");
        victim.outcome.read_set[0].value = Value::int(-1);
        let tampered_id = victim.tx.id;
        let report = validate_block(&block, &store, &ValidationConfig::new(4));
        assert!(!report.is_valid());
        assert!(report.mismatches.contains(&tampered_id));
    }

    /// A forged read inside a block — of a key an earlier transaction of
    /// the block wrote — is caught by the replay itself, before any state is
    /// read.
    #[test]
    fn a_read_of_an_earlier_write_in_the_block_is_checked_against_it() {
        let store = funded_store(4);
        let ce = ConcurrentExecutor::new(CeConfig::new(1, 8).without_synthetic_cost());
        let txs = [payment(1, 1, 2, 10), payment(2, 1, 3, 10)];
        let mut block = shipped(ce.preplay(&txs, &store).preplayed);
        let second = 1;
        let replay = replay_blocks(&[&block], &ValidationConfig::new(1)).remove(0);
        assert!(replay.verdicts.iter().all(|v| *v));
        // The second payment's read of account 1 is the first one's write,
        // so it is not an external read.
        let payer = Key::checking(1);
        assert!(!replay
            .external_reads
            .iter()
            .any(|(i, read)| *i == second && read.key == payer));
        let read = block[second]
            .outcome
            .read_set
            .iter_mut()
            .find(|rec| rec.key == payer)
            .expect("reads the payer");
        read.value = Value::int(SMALLBANK_DEFAULT_BALANCE);
        let replay = replay_blocks(&[&block], &ValidationConfig::new(1)).remove(0);
        assert!(!replay.verdicts[second]);
        assert!(!validate_block(&block, &store, &ValidationConfig::new(1)).is_valid());
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

    #[test]
    fn duplicate_order_values_make_the_block_invalid() {
        // Two payments out of account 1, each preplayed alone against the
        // same state, so both claim position 0. Neither saw the other's
        // write; a block puts them at positions 0 and 1, where the second
        // one's declared read of the payer's balance misses the first one's
        // debit, so the read check rejects it and the block with it.
        let store = funded_store(4);
        let ce = ConcurrentExecutor::new(CeConfig::new(1, 8).without_synthetic_cost());
        let mut preplayed = Vec::new();
        for tx in [payment(1, 1, 2, 10), payment(2, 1, 3, 10)] {
            let alone = ce.preplay(std::slice::from_ref(&tx), &store).preplayed;
            assert!(validate_block(&alone, &store, &ValidationConfig::new(1)).is_valid());
            preplayed.extend(alone);
        }
        assert!(preplayed.iter().all(|p| p.order == 0));
        let block = shipped(preplayed);
        assert_eq!(block.iter().map(|p| p.order).collect::<Vec<_>>(), [0, 1]);
        let report = validate_block(&block, &store, &ValidationConfig::new(2));
        assert!(!report.is_valid());
        assert_eq!(report.checked, 2);
        assert_eq!(report.mismatches, vec![TxId::new(2)]);
    }

    /// Preplays `rounds` blocks over 8 funded accounts, each chained on the
    /// state the previous one left behind.
    fn chained_blocks(rounds: usize) -> Vec<Vec<PreplayedTx>> {
        let scratch = funded_store(8);
        let ce = ConcurrentExecutor::new(CeConfig::new(2, 64).without_synthetic_cost());
        let mut workload = SmallBankWorkload::new(SmallBankConfig {
            accounts: 8,
            theta: 0.9,
            n_shards: 1,
            ..SmallBankConfig::default()
        });
        (0..rounds)
            .map(|_| {
                let result = ce.preplay(&workload.batch(20, SimTime::ZERO), &scratch);
                result.apply_to(&scratch);
                result.preplayed
            })
            .collect()
    }

    /// The oracle: validate a block, apply its derived writes if valid, move
    /// to the next.
    fn validate_apply_loop(
        blocks: &[Vec<PreplayedTx>],
        store: &MemStore,
        config: &ValidationConfig,
    ) -> Vec<ValidationReport> {
        let mut reports = Vec::new();
        for block in blocks {
            let report = validate_block(block, store, config);
            if report.is_valid() {
                store.apply_batch(&replay_blocks(&[block], config).remove(0).batch);
            }
            reports.push(report);
        }
        reports
    }

    #[test]
    fn a_run_of_blocks_validates_like_a_validate_apply_loop() {
        let config = ValidationConfig::new(3);
        let mut blocks: Vec<Vec<PreplayedTx>> =
            chained_blocks(5).into_iter().map(shipped).collect();
        let as_run = |blocks: &[Vec<PreplayedTx>]| {
            let run: Vec<&[PreplayedTx]> = blocks.iter().map(Vec::as_slice).collect();
            validate_blocks(&run, &funded_store(8), &config)
        };
        let reports = as_run(&blocks);
        assert!(reports.iter().all(|r| r.is_valid()));
        assert_eq!(
            reports,
            validate_apply_loop(&blocks, &funded_store(8), &config)
        );

        // Tamper block 2: the reports up to and including the first invalid
        // one are still the loop's. The later ones are not — they saw writes
        // the loop never applies — which is why callers validate the rest
        // again.
        let victim = blocks[2]
            .iter_mut()
            .find(|p| !p.outcome.read_set.is_empty())
            .expect("some transaction reads");
        victim.outcome.read_set[0].value = Value::int(-1);
        let reports = as_run(&blocks);
        let oracle = validate_apply_loop(&blocks, &funded_store(8), &config);
        assert!(reports[0].is_valid() && reports[1].is_valid() && !reports[2].is_valid());
        assert_eq!(reports[..3], oracle[..3]);
    }

    #[test]
    fn validation_matches_regardless_of_worker_count() {
        let store = funded_store(16);
        let txs = smallbank_batch(16, 80);
        let ce = ConcurrentExecutor::new(CeConfig::new(4, 512).without_synthetic_cost());
        let block = shipped(ce.preplay(&txs, &store).preplayed);
        let replay = replay_blocks(&[&block], &ValidationConfig::new(1));
        for validators in [1, 2, 7, 32] {
            let config = ValidationConfig::new(validators);
            let report = validate_block(&block, &store, &config);
            assert!(report.is_valid(), "failed with {validators} validators");
            assert_eq!(replay_blocks(&[&block], &config), replay);
        }
    }

    #[test]
    fn tampered_reports_are_identical_for_every_worker_count() {
        let store = funded_store(16);
        let txs = smallbank_batch(16, 80);
        let ce = ConcurrentExecutor::new(CeConfig::new(4, 512).without_synthetic_cost());
        let mut block = shipped(ce.preplay(&txs, &store).preplayed);
        // Tamper several transactions spread across the block so mismatches
        // land in different worker chunks for every fan-out width.
        let mut tampered = 0;
        for p in block.iter_mut().step_by(11) {
            if let Some(rec) = p.outcome.read_set.first_mut() {
                rec.value = Value::int(-424_242);
                tampered += 1;
            }
        }
        assert!(tampered >= 3, "need several tampered transactions");
        let sequential = validate_block(&block, &store, &ValidationConfig::new(1));
        assert!(!sequential.is_valid());
        for validators in [2, 3, 8, 32] {
            let parallel = validate_block(&block, &store, &ValidationConfig::new(validators));
            assert_eq!(
                sequential, parallel,
                "verdicts diverged with {validators} validators"
            );
        }
    }
}
