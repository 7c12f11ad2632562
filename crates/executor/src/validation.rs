//! Post-consensus validation of preplayed blocks (paper Section 4).
//!
//! When a replica receives a block through the DAG it does not trust the
//! proposer's preplay results: it rebuilds the dependency structure from the
//! read/write sets declared in the block and re-executes every transaction
//! *in parallel*. The transaction at position `(block, order)` of a run of
//! blocks must observe, for every key it reads, the last write declared
//! strictly before its position, or committed storage if there is none. A
//! block is valid iff its `order` values are pairwise distinct and every
//! transaction's re-executed read set, write set and result match what the
//! block declares. Invalid blocks are discarded.
//!
//! # Two stages
//!
//! [`validate_blocks`] takes the whole run of blocks a commit delivered:
//!
//! 1. *Read check* (sequential, on the caller). One pass walks the run in
//!    position order, keeping the last declared write per key in one map
//!    sized to the run. Every declared read is checked against that map, or
//!    against committed storage when no earlier declared write shadows it;
//!    then the transaction's declared writes enter the map. The per-block
//!    sort that orders the walk also finds a repeated `order`. This is the
//!    only stage that reads state, and it resolves each declared read once.
//! 2. *Replay* (parallel, [`replay_blocks`]). Each transaction runs again
//!    with its own writes over its own declared reads as its whole state.
//!    No worker touches a store, another transaction's writes or a lock, so
//!    the transactions of all blocks are chunked across at most
//!    [`effective_workers`](crate::traits::effective_workers)`(validators)`
//!    slots of the shared [`pool`](crate::pool): one pool job per run. The
//!    verdicts are joined **in chunk order** on the caller.
//!
//! [`validate_replayed`] folds the two stages into one [`ValidationReport`]
//! per block: a transaction is valid iff both pass it. Stage 2 depends on
//! the block alone, so the stages may run apart. A replica replays a block
//! when its vertex enters the DAG and runs only the read check when the
//! block commits (`docs/PIPELINE.md`); [`validate_blocks`] runs both at
//! once.
//!
//! # Why two stages give the verdict of one re-execution against the view
//!
//! A re-execution is checked as it runs. Reading a key the transaction has
//! neither written nor declared ends it as invalid. On return, the number of
//! distinct first reads must equal the number of declared reads, the write
//! set (last value per key) must equal the declared one record for record,
//! and the return value and abort flag must match. The count rule makes the
//! declared read keys exactly the keys the transaction reads, once each.
//!
//! * If stage 1 passes, every declared read holds the value the view holds,
//!   so each read of the re-execution returns what a read of the view would.
//!   By induction over its operations the two executions are identical (the
//!   argument the CE's `finalize_batch` makes for speculative reads), and so
//!   are their verdicts.
//! * If stage 1 fails, some declared record disagrees with the view. A
//!   re-execution against the view either reads that key and finds a
//!   different value, or leaves a record unread and fails the count rule.
//!
//! The buffers of stage 2 are reused across a chunk, so checking an honest
//! transaction allocates nothing once they have grown. See
//! `docs/PIPELINE.md` for how validation slots into the commit pipeline.

use crate::traits::synthetic_work;
use std::sync::Mutex;
use tb_contracts::{execute_call, ExecError, StateAccess};
use tb_storage::KvRead;
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
    /// Number of transactions re-executed.
    pub checked: usize,
    /// Transactions whose re-execution disagreed with the declared outcome.
    pub mismatches: Vec<TxId>,
}

impl ValidationReport {
    /// True if every transaction validated successfully.
    pub fn is_valid(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Stage 1, the read check. Returns one flag per transaction of the run, in
/// block and then declaration order: true iff the transaction's block has
/// pairwise distinct `order` values and every read it declares holds the
/// value of the last write declared before its position, or `base`'s value
/// if there is none. Every transaction's writes enter the map, whether its
/// reads passed or not, so later flags judge the run as it was declared.
///
/// A proposer applies the same rule to a batch it preplayed ahead of its
/// round: if every flag is true against the view it proposes on, preplaying
/// the batch on that view again yields the same outcomes, by the induction
/// in the module docs.
pub fn check_reads(blocks: &[&[PreplayedTx]], base: &(dyn KvRead + Sync)) -> Vec<bool> {
    let run = || blocks.iter().flat_map(|preplayed| preplayed.iter());
    let writes = run().map(|p| p.outcome.write_set.len()).sum();
    let mut last_write: KeyMap<&Value> =
        KeyMap::with_capacity_and_hasher(writes, Default::default());
    let mut reads_pass = Vec::with_capacity(run().count());
    let mut by_position: Vec<usize> = Vec::new();
    for preplayed in blocks {
        by_position.clear();
        by_position.extend(0..preplayed.len());
        // The index breaks ties as a stable sort would: the writes a
        // malformed block declares at one position enter in block order.
        by_position.sort_unstable_by_key(|&i| (preplayed[i].order, i));
        let well_ordered = by_position
            .windows(2)
            .all(|pair| preplayed[pair[0]].order != preplayed[pair[1]].order);
        let first = reads_pass.len();
        reads_pass.resize(first + preplayed.len(), false);
        for &i in &by_position {
            let outcome = &preplayed[i].outcome;
            reads_pass[first + i] = well_ordered
                && outcome
                    .read_set
                    .iter()
                    .all(|rec| match last_write.get(&rec.key) {
                        Some(value) => **value == rec.value,
                        None => base.get(&rec.key) == rec.value,
                    });
            for rec in &outcome.write_set {
                last_write.insert(rec.key, &rec.value);
            }
        }
    }
    reads_pass
}

/// Stage 2's whole state for one transaction: its own writes over its own
/// declared reads. Re-executes the transaction and checks it against its
/// declaration as it runs.
struct ReplaySession<'a> {
    op_cost: u64,
    declared_reads: &'a [AccessRecord],
    reads: Vec<Key>,
    writes: Vec<AccessRecord>,
}

impl<'a> ReplaySession<'a> {
    /// True iff re-executing `p` reproduces its declared outcome. A set
    /// matches when it has as many records as the declaration, each with an
    /// equal declared record, so a duplicate, extra or missing key fails.
    fn check(&mut self, p: &'a PreplayedTx) -> bool {
        let declared = &p.outcome;
        self.declared_reads = &declared.read_set;
        self.reads.clear();
        self.writes.clear();
        let Ok(result) = execute_call(&p.tx.call, &mut *self) else {
            return false;
        };
        self.reads.len() == declared.read_set.len()
            && self.writes.len() == declared.write_set.len()
            && self
                .writes
                .iter()
                .all(|rec| declared.write_set.contains(rec))
            && result.return_value == declared.return_value
            && result.logically_aborted == declared.logically_aborted
    }
}

impl StateAccess for ReplaySession<'_> {
    fn read(&mut self, key: Key) -> Result<Value, ExecError> {
        synthetic_work(self.op_cost);
        if let Some(own) = self.writes.iter().find(|rec| rec.key == key) {
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
        match self.writes.iter_mut().find(|rec| rec.key == key) {
            Some(own) => own.value = value,
            None => self.writes.push(AccessRecord::new(key, value)),
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
/// [`validate_replayed`]. One parallel fan-out re-executes every
/// transaction over its own declarations, checking while it executes that
/// its reads, write set and result match them; then one sequential pass
/// checks every declared read against the last write declared before it,
/// or `base` ([`check_reads`]). A transaction is valid iff both stages pass
/// it.
///
/// The transaction at `(block, order)` is judged against its own writes,
/// over the last write declared strictly before its position, over `base`.
/// Report `k` is therefore exact **provided blocks `0..k` are valid**: block
/// `k` then sees its own earlier writes over the final writes of blocks
/// `0..k` over `base`, which is the state a validate-apply-validate loop
/// would show it. Reports after the first invalid one were computed over
/// writes that will never be applied; the caller discards them and validates
/// those blocks again once the valid prefix is in `base`.
///
/// A block whose `order` values are not pairwise distinct is reported
/// invalid, every transaction a mismatch, whatever its replay says: two
/// transactions at one position would each miss the other's write and both
/// be applied (executors emit a permutation,
/// [`BatchResult::order_is_permutation`](crate::batch::BatchResult::order_is_permutation)).
///
/// The two stages reach the verdicts of re-executing every transaction
/// against that view; the module documentation gives the argument, and a
/// proptest pins it against the single-stage re-execution on honest,
/// tampered and malformed runs.
///
/// # Parallelism contract
///
/// Only the read check reads `base`: on the calling thread, at most once per
/// declared read that no earlier declared write shadows. The replay reads no
/// state. It occupies at most `effective_workers(config.validators)` slots
/// of the shared worker pool (clamped to the transaction count); with one
/// effective worker — a single-core machine, or `validators: 1` — no pool
/// job is submitted and the whole pass runs inline on the caller, so
/// single-core CI measures exactly the sequential cost.
///
/// # Determinism
///
/// The reports are a pure function of `(blocks, base, config)` — they do
/// not depend on the worker count, chunk boundaries or thread scheduling.
/// Per-chunk verdicts are joined in chunk order and `mismatches` is sorted
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
    let replays: Vec<&[bool]> = replays.iter().map(Vec::as_slice).collect();
    validate_replayed(blocks, &replays, base)
}

/// Stage 2 on a run of blocks: the verdict of re-executing each transaction
/// over its own declarations, one vector per block in block order, every
/// transaction whatever its reads. It reads no state, so it is a pure
/// function of the blocks and may run at any time before they are
/// validated; [`validate_replayed`] joins it with the read check. The
/// transactions of all blocks share one fan-out over at most
/// `effective_workers(config.validators)` pool slots, and run on the caller
/// with one.
pub fn replay_blocks(blocks: &[&[PreplayedTx]], config: &ValidationConfig) -> Vec<Vec<bool>> {
    let txs: Vec<&PreplayedTx> = blocks.iter().flat_map(|block| block.iter()).collect();
    let mut verdicts = parallel_verdicts(&txs, config).into_iter();
    blocks
        .iter()
        .map(|block| verdicts.by_ref().take(block.len()).collect())
        .collect()
}

/// The two stages joined: `replays[k]` is stage 2 of `blocks[k]`
/// ([`replay_blocks`]), made whenever; the read check runs against `base`
/// now. The reports are those of [`validate_blocks`] on the same
/// `(blocks, base)`, byte for byte.
pub fn validate_replayed(
    blocks: &[&[PreplayedTx]],
    replays: &[&[bool]],
    base: &(dyn KvRead + Sync),
) -> Vec<ValidationReport> {
    assert_eq!(blocks.len(), replays.len(), "one replay per block");
    let mut reads_pass = check_reads(blocks, base).into_iter();
    let mut reports = Vec::with_capacity(blocks.len());
    for (preplayed, replay) in blocks.iter().zip(replays) {
        assert_eq!(preplayed.len(), replay.len(), "one verdict per transaction");
        let mut mismatches = Vec::new();
        for (p, replayed) in preplayed.iter().zip(*replay) {
            let pass = reads_pass.next().expect("one flag per transaction");
            if !(pass && *replayed) {
                mismatches.push(p.tx.id);
            }
        }
        mismatches.sort_unstable();
        reports.push(ValidationReport {
            checked: preplayed.len(),
            mismatches,
        });
    }
    reports
}

/// Stage 2 on the caller: one session, its buffers reused across `txs`.
fn replay_all<'a>(txs: impl IntoIterator<Item = &'a PreplayedTx>, op_cost_ns: u64) -> Vec<bool> {
    let mut session = ReplaySession {
        op_cost: op_cost_ns,
        declared_reads: &[],
        reads: Vec::new(),
        writes: Vec::new(),
    };
    txs.into_iter().map(|p| session.check(p)).collect()
}

/// Stage 2's fan-out: re-executes every transaction over its own
/// declarations and returns one verdict per transaction, in input order.
/// Workers share only the immutable blocks, so no synchronisation is needed
/// beyond the final join.
fn parallel_verdicts(txs: &[&PreplayedTx], config: &ValidationConfig) -> Vec<bool> {
    let workers = crate::traits::effective_workers(config.validators).min(txs.len());
    if workers <= 1 {
        return replay_all(txs.iter().copied(), config.op_cost_ns);
    }
    let chunks: Vec<_> = txs.chunks(txs.len().div_ceil(workers)).collect();
    let verdicts: Vec<Mutex<Vec<bool>>> = chunks.iter().map(|_| Mutex::new(Vec::new())).collect();
    crate::pool::global().run(chunks.len(), &|slot| {
        *verdicts[slot].lock().unwrap() =
            replay_all(chunks[slot].iter().copied(), config.op_cost_ns);
    });
    // Flattening in chunk order keeps the verdict vector in input order no
    // matter which pool worker ran which chunk.
    verdicts
        .into_iter()
        .flat_map(|m| m.into_inner().unwrap_or_default())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ce::ConcurrentExecutor;
    use crate::serial::SerialExecutor;
    use crate::traits::BatchExecutor;
    use std::ops::Range;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::{self, ThreadId};
    use tb_contracts::SMALLBANK_DEFAULT_BALANCE;
    use tb_storage::{MemStore, Versioned};
    use tb_types::{
        CeConfig, ClientId, ContractCall, KeySet, Operation, SimTime, SmallBankProcedure,
        Transaction,
    };
    use tb_workload::{SmallBankConfig, SmallBankWorkload};

    /// Where a transaction sits in a run of blocks: `(block index, order)`.
    type Position = (usize, u32);

    /// The oracle's view of the writes a run of blocks declares: one flat
    /// list in which each written key's writes are a contiguous run sorted by
    /// position, and an index from each key to its run. A transaction's read
    /// of a key resolves to the latest declared write before it, or to
    /// committed storage if there is none.
    struct WriteTimeline<'a> {
        writes: Vec<(Position, &'a Value)>,
        runs: KeyMap<Range<usize>>,
    }

    impl<'a> WriteTimeline<'a> {
        /// A counting sort by key: count each key's writes, give each key its
        /// slice of one list, fill the slices in declaration order, then sort
        /// each by position.
        fn build(blocks: &[&'a [PreplayedTx]]) -> Self {
            let declared = || {
                blocks.iter().enumerate().flat_map(|(block, preplayed)| {
                    preplayed.iter().flat_map(move |p| {
                        let position = (block, p.order);
                        p.outcome
                            .write_set
                            .iter()
                            .map(move |rec| (rec.key, position, &rec.value))
                    })
                })
            };
            let Some((_, _, placeholder)) = declared().next() else {
                return WriteTimeline {
                    writes: Vec::new(),
                    runs: KeyMap::default(),
                };
            };
            let total = declared().count();
            let mut runs: KeyMap<Range<usize>> = KeyMap::default();
            for (key, _, _) in declared() {
                runs.entry(key).or_insert(0..0).end += 1;
            }
            // Each run starts empty at its offset and grows as it is filled.
            let mut offset = 0;
            for run in runs.values_mut() {
                let len = run.end;
                *run = offset..offset;
                offset += len;
            }
            let mut writes = vec![((0, 0), placeholder); total];
            for (key, position, value) in declared() {
                let run = runs.get_mut(&key).expect("every declared key was counted");
                writes[run.end] = (position, value);
                run.end += 1;
            }
            // Stable: writes a malformed block declares twice at one position
            // keep their declaration order.
            for run in runs.values() {
                writes[run.clone()].sort_by_key(|(position, _)| *position);
            }
            WriteTimeline { writes, runs }
        }

        /// The value the transaction at `position` should observe for `key`,
        /// if any transaction before it wrote the key.
        fn value_before(&self, key: &Key, position: Position) -> Option<&'a Value> {
            let run = &self.writes[self.runs.get(key)?.clone()];
            let earlier = run.partition_point(|(p, _)| *p < position);
            earlier.checked_sub(1).map(|last| run[last].1)
        }
    }

    fn orders_are_distinct(preplayed: &[PreplayedTx]) -> bool {
        let mut orders: Vec<u32> = preplayed.iter().map(|p| p.order).collect();
        orders.sort_unstable();
        orders.windows(2).all(|pair| pair[0] != pair[1])
    }

    /// The single-stage validator as an oracle: re-executes the transaction
    /// at `position` against its own writes, over the declared writes before
    /// it, over committed storage, and checks each first read against the
    /// declared read set as it runs.
    struct CheckSession<'a> {
        base: &'a (dyn KvRead + Sync),
        timeline: &'a WriteTimeline<'a>,
        position: Position,
        declared_reads: &'a [AccessRecord],
        reads: Vec<Key>,
        writes: Vec<AccessRecord>,
    }

    impl StateAccess for CheckSession<'_> {
        fn read(&mut self, key: Key) -> Result<Value, ExecError> {
            if let Some(own) = self.writes.iter().find(|rec| rec.key == key) {
                return Ok(own.value.clone());
            }
            let value = match self.timeline.value_before(&key, self.position) {
                Some(value) => value.clone(),
                None => self.base.get(&key),
            };
            if !self.reads.contains(&key) {
                if !self
                    .declared_reads
                    .iter()
                    .any(|r| r.key == key && r.value == value)
                {
                    return Err(ExecError::aborted("read differs from the declaration"));
                }
                self.reads.push(key);
            }
            Ok(value)
        }

        fn write(&mut self, key: Key, value: Value) -> Result<(), ExecError> {
            match self.writes.iter_mut().find(|rec| rec.key == key) {
                Some(own) => own.value = value,
                None => self.writes.push(AccessRecord::new(key, value)),
            }
            Ok(())
        }
    }

    /// One transaction's verdict from an oracle.
    type Verdict = fn(&PreplayedTx, usize, &(dyn KvRead + Sync), &WriteTimeline<'_>) -> bool;

    /// The verdict of the single-stage check-while-executing validator.
    fn check_while_executing_verdict(
        p: &PreplayedTx,
        block: usize,
        base: &(dyn KvRead + Sync),
        timeline: &WriteTimeline<'_>,
    ) -> bool {
        let declared = &p.outcome;
        let mut session = CheckSession {
            base,
            timeline,
            position: (block, p.order),
            declared_reads: &declared.read_set,
            reads: Vec::new(),
            writes: Vec::new(),
        };
        let Ok(result) = execute_call(&p.tx.call, &mut session) else {
            return false;
        };
        session.reads.len() == declared.read_set.len()
            && session.writes.len() == declared.write_set.len()
            && session
                .writes
                .iter()
                .all(|rec| declared.write_set.contains(rec))
            && result.return_value == declared.return_value
            && result.logically_aborted == declared.logically_aborted
    }

    /// The recording verdict: record the re-execution's whole outcome
    /// through `TrackingState` over the same view, then compare it with the
    /// declaration, order-insensitively.
    fn recording_verdict(
        p: &PreplayedTx,
        block: usize,
        base: &(dyn KvRead + Sync),
        timeline: &WriteTimeline<'_>,
    ) -> bool {
        let session = OracleSession {
            base,
            timeline,
            position: (block, p.order),
            local_writes: KeyMap::default(),
        };
        let mut tracking = tb_contracts::TrackingState::new(session);
        let Ok(result) = execute_call(&p.tx.call, &mut tracking) else {
            return false;
        };
        let (outcome, _) = tracking.finish();
        same_access_set(&outcome.read_set, &p.outcome.read_set)
            && same_access_set(&outcome.write_set, &p.outcome.write_set)
            && result.return_value == p.outcome.return_value
            && result.logically_aborted == p.outcome.logically_aborted
    }

    fn same_access_set(a: &[AccessRecord], b: &[AccessRecord]) -> bool {
        a.len() == b.len()
            && a.iter().all(|rec| {
                b.iter()
                    .any(|other| other.key == rec.key && other.value == rec.value)
            })
    }

    /// The recording oracle's read view: own writes, over the declared
    /// writes before `position`, over committed storage.
    struct OracleSession<'a> {
        base: &'a (dyn KvRead + Sync),
        timeline: &'a WriteTimeline<'a>,
        position: Position,
        local_writes: KeyMap<Value>,
    }

    impl StateAccess for OracleSession<'_> {
        fn read(&mut self, key: Key) -> Result<Value, ExecError> {
            if let Some(local) = self.local_writes.get(&key) {
                return Ok(local.clone());
            }
            if let Some(value) = self.timeline.value_before(&key, self.position) {
                return Ok(value.clone());
            }
            Ok(self.base.get(&key))
        }

        fn write(&mut self, key: Key, value: Value) -> Result<(), ExecError> {
            self.local_writes.insert(key, value);
            Ok(())
        }
    }

    /// [`validate_blocks`] as an oracle computes it, one transaction at a
    /// time.
    fn oracle_reports(
        blocks: &[&[PreplayedTx]],
        base: &MemStore,
        verdict: Verdict,
    ) -> Vec<ValidationReport> {
        let timeline = WriteTimeline::build(blocks);
        blocks
            .iter()
            .enumerate()
            .map(|(block, preplayed)| {
                let well_ordered = orders_are_distinct(preplayed);
                let mut mismatches: Vec<TxId> = preplayed
                    .iter()
                    .filter(|p| !(well_ordered && verdict(p, block, base, &timeline)))
                    .map(|p| p.tx.id)
                    .collect();
                mismatches.sort_unstable();
                ValidationReport {
                    checked: preplayed.len(),
                    mismatches,
                }
            })
            .collect()
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

    /// Changes one declared field of `p`: a read value; an extra, missing or
    /// duplicate read key; a write value; an extra or missing write; the
    /// return value; the abort flag.
    fn tamper(p: &mut PreplayedTx, field: usize, forged: i64) {
        let outcome = &mut p.outcome;
        let stranger = AccessRecord::new(Key::scratch(1 << 40), Value::int(forged));
        match field {
            0 => outcome
                .read_set
                .iter_mut()
                .for_each(|r| r.value = Value::int(forged)),
            1 => outcome.read_set.push(stranger),
            2 => drop(outcome.read_set.pop()),
            3 => {
                if let Some(first) = outcome.read_set.first().cloned() {
                    outcome.read_set.push(first);
                }
            }
            4 => outcome
                .write_set
                .iter_mut()
                .for_each(|r| r.value = Value::int(forged)),
            5 => outcome.write_set.push(stranger),
            6 => drop(outcome.write_set.pop()),
            7 => outcome.return_value = Value::int(forged),
            _ => outcome.logically_aborted = !outcome.logically_aborted,
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
    /// unreplayed, must give the same verdicts.
    fn replayed_ahead(
        run: &[&[PreplayedTx]],
        base: &MemStore,
        validators: usize,
    ) -> Vec<ValidationReport> {
        let replays: Vec<Vec<bool>> = run
            .iter()
            .flat_map(|block| replay_blocks(&[block], &ValidationConfig::new(1)))
            .collect();
        assert_eq!(
            replay_blocks(run, &ValidationConfig::new(validators)),
            replays
        );
        let replays: Vec<&[bool]> = replays.iter().map(Vec::as_slice).collect();
        validate_replayed(run, &replays, base)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Checking while executing reaches the recording oracle's verdict
        /// on two chained blocks with one tampered declaration, for every
        /// call kind and tampered field, at one validator and at several.
        #[test]
        fn check_while_executing_matches_the_recording_oracle(
            kind in 0usize..3,
            seed in 0u64..1_000,
            len in 2usize..40,
            field in 0usize..9,
            victim in 0usize..64,
            forged in -3i64..3,
            validators in 2usize..9,
        ) {
            let (txs, store) = contended_batch(kind, seed, len);
            let chunks: Vec<Vec<Transaction>> =
                txs.chunks(len.div_ceil(2)).map(<[Transaction]>::to_vec).collect();
            let mut blocks = preplay_chained(&chunks, &store);
            let victim = victim % len;
            let (block, index) = (victim / len.div_ceil(2), victim % len.div_ceil(2));
            tamper(&mut blocks[block][index], field, forged);

            let run: Vec<&[PreplayedTx]> = blocks.iter().map(Vec::as_slice).collect();
            let oracle = oracle_reports(&run, &store, recording_verdict);
            for validators in [1, validators] {
                let reports = validate_blocks(&run, &store, &ValidationConfig::new(validators));
                proptest::prop_assert_eq!(&reports, &oracle);
            }
            proptest::prop_assert_eq!(&replayed_ahead(&run, &store, validators), &oracle);
        }

        /// Every report of the two stages equals the single-stage
        /// check-while-executing oracle's, and the recording oracle's, on
        /// three chained blocks with any mix of: an ill-ordered middle
        /// block; a key written twice by one transaction (same value or
        /// another); a read key declared twice; a forged read value; and a
        /// transaction that reads a key after writing it, honestly declared
        /// or with that read declared at the value the view holds.
        #[test]
        fn two_stages_match_the_single_stage_oracle_on_malformed_runs(
            kind in 0usize..3,
            seed in 0u64..1_000,
            len in 2usize..24,
            ill_ordered in 0usize..2,
            write_twice in 0usize..3,
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
            let mut blocks = preplay_chained(&chunks, &store);
            if read_after_write == 2 {
                let run: Vec<&[PreplayedTx]> = blocks.iter().map(Vec::as_slice).collect();
                let order = run[target].iter().find(|p| p.tx.id == rereader).expect("inserted").order;
                let seen = WriteTimeline::build(&run)
                    .value_before(&reread, (target, order))
                    .cloned()
                    .unwrap_or_else(|| store.get(&reread));
                let p = pick(&mut blocks[target], 0, |p| p.tx.id == rereader).expect("inserted");
                p.outcome.read_set.push(AccessRecord::new(reread, seen));
            }
            if write_twice > 0 {
                if let Some(p) = pick(&mut blocks[(target + 1) % 3], at, |p| !p.outcome.write_set.is_empty()) {
                    let mut again = p.outcome.write_set[0].clone();
                    if write_twice == 2 {
                        again.value = Value::int(-7);
                    }
                    p.outcome.write_set.push(again);
                }
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
            if ill_ordered == 1 {
                let middle = &mut blocks[1];
                let (a, b) = (at % middle.len(), (at + 1) % middle.len());
                middle[a].order = middle[b].order;
            }

            let run: Vec<&[PreplayedTx]> = blocks.iter().map(Vec::as_slice).collect();
            let oracle = oracle_reports(&run, &store, check_while_executing_verdict);
            proptest::prop_assert_eq!(&oracle, &oracle_reports(&run, &store, recording_verdict));
            for validators in [1, validators] {
                let reports = validate_blocks(&run, &store, &ValidationConfig::new(validators));
                proptest::prop_assert_eq!(&reports, &oracle);
            }
            proptest::prop_assert_eq!(&replayed_ahead(&run, &store, validators), &oracle);
        }

        /// The timeline answers every read as a scan of the declared writes
        /// would, malformed declarations included: positions repeated within
        /// a block, and a key written twice at one position (the later
        /// declaration wins, as it does in the write set).
        #[test]
        fn write_timeline_matches_a_scan_of_the_declared_writes(
            seed in 0u64..1_000,
            len in 1usize..40,
            n_blocks in 1usize..4,
        ) {
            let (txs, store) = contended_batch(1, seed, len * n_blocks);
            let ce = ConcurrentExecutor::new(CeConfig::new(1, len).without_synthetic_cost());
            let mut blocks: Vec<Vec<PreplayedTx>> =
                txs.chunks(len).map(|chunk| ce.preplay(chunk, &store).preplayed).collect();
            let mut mix = seed;
            for (i, p) in blocks.iter_mut().flatten().enumerate() {
                mix = mix.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i as u64);
                p.order = (mix >> 60) as u32 % 5;
                if let Some(first) = p.outcome.write_set.first().cloned() {
                    if mix % 3 == 0 {
                        p.outcome.write_set.push(AccessRecord::new(first.key, Value::int(-(i as i64))));
                    }
                }
            }
            let run: Vec<&[PreplayedTx]> = blocks.iter().map(Vec::as_slice).collect();
            let declared: Vec<(Key, Position, &Value)> = run
                .iter()
                .enumerate()
                .flat_map(|(b, preplayed)| preplayed.iter().map(move |p| (b, p)))
                .flat_map(|(b, p)| p.outcome.write_set.iter().map(move |r| (r.key, (b, p.order), &r.value)))
                .collect();
            let timeline = WriteTimeline::build(&run);
            let mut keys: Vec<Key> = declared.iter().map(|(key, _, _)| *key).collect();
            keys.push(Key::scratch(1 << 40));
            for key in keys {
                for position in (0..=n_blocks).flat_map(|b| (0..6).map(move |o| (b, o))) {
                    let scan = declared
                        .iter()
                        .filter(|(k, at, _)| *k == key && *at < position)
                        .fold(None, |best: Option<(Position, &Value)>, &(_, at, value)| {
                            match best {
                                Some((seen, _)) if seen > at => best,
                                _ => Some((at, value)),
                            }
                        })
                        .map(|(_, value)| value);
                    proptest::prop_assert_eq!(timeline.value_before(&key, position), scan);
                }
            }
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

        // The declared reads no earlier declared write shadows.
        let mut written = KeySet::default();
        let mut unshadowed = 0;
        for block in &blocks {
            let mut by_position: Vec<&PreplayedTx> = block.iter().collect();
            by_position.sort_by_key(|p| p.order);
            for p in by_position {
                unshadowed += p
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
            on_caller <= unshadowed,
            "{on_caller} reads on the caller, {unshadowed} unshadowed declared reads"
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

    #[test]
    fn honest_preplay_from_the_concurrent_executor_validates() {
        let store = funded_store(32);
        let txs = smallbank_batch(32, 120);
        let ce = ConcurrentExecutor::new(CeConfig::new(8, 512).without_synthetic_cost());
        let result = ce.preplay(&txs, &store);
        let report = validate_block(&result.preplayed, &store, &ValidationConfig::new(8));
        assert!(report.is_valid(), "mismatches: {:?}", report.mismatches);
        assert_eq!(report.checked, txs.len());
    }

    #[test]
    fn honest_serial_execution_validates() {
        let store = funded_store(16);
        let exec_store = funded_store(16);
        let txs = smallbank_batch(16, 60);
        let result = SerialExecutor::new().execute_batch(&txs, &exec_store);
        let report = validate_block(&result.preplayed, &store, &ValidationConfig::new(4));
        assert!(report.is_valid());
    }

    #[test]
    fn tampered_write_set_is_detected() {
        let store = funded_store(8);
        let txs = smallbank_batch(8, 30);
        let ce = ConcurrentExecutor::new(CeConfig::new(4, 512).without_synthetic_cost());
        let mut result = ce.preplay(&txs, &store);
        // A malicious proposer inflates one balance.
        let victim = result
            .preplayed
            .iter_mut()
            .find(|p| !p.outcome.write_set.is_empty())
            .expect("some transaction writes");
        victim.outcome.write_set[0].value = Value::int(9_999_999);
        let tampered_id = victim.tx.id;
        let report = validate_block(&result.preplayed, &store, &ValidationConfig::new(4));
        assert!(!report.is_valid());
        assert!(report.mismatches.contains(&tampered_id));
    }

    #[test]
    fn tampered_read_set_is_detected() {
        let store = funded_store(8);
        let txs = smallbank_batch(8, 30);
        let ce = ConcurrentExecutor::new(CeConfig::new(4, 512).without_synthetic_cost());
        let mut result = ce.preplay(&txs, &store);
        let victim = result
            .preplayed
            .iter_mut()
            .find(|p| !p.outcome.read_set.is_empty())
            .expect("some transaction reads");
        victim.outcome.read_set[0].value = Value::int(-1);
        let tampered_id = victim.tx.id;
        let report = validate_block(&result.preplayed, &store, &ValidationConfig::new(4));
        assert!(!report.is_valid());
        assert!(report.mismatches.contains(&tampered_id));
    }

    #[test]
    fn fabricated_return_value_is_detected() {
        let store = funded_store(4);
        let tx = Transaction::new(
            TxId::new(1),
            ClientId::new(0),
            ContractCall::SmallBank(SmallBankProcedure::GetBalance { account: 0 }),
            1,
            SimTime::ZERO,
        );
        let ce = ConcurrentExecutor::new(CeConfig::new(1, 8).without_synthetic_cost());
        let mut result = ce.preplay(std::slice::from_ref(&tx), &store);
        result.preplayed[0].outcome.return_value = Value::int(123);
        let report = validate_block(&result.preplayed, &store, &ValidationConfig::new(1));
        assert!(!report.is_valid());
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
        // same state and both shipped at position 0: neither sees the
        // other's write, so each re-executes exactly as declared, and
        // applying both would pay out of one balance twice.
        let store = funded_store(4);
        let ce = ConcurrentExecutor::new(CeConfig::new(1, 8).without_synthetic_cost());
        let mut block = Vec::new();
        for tx in [payment(1, 1, 2, 10), payment(2, 1, 3, 10)] {
            let alone = ce.preplay(std::slice::from_ref(&tx), &store).preplayed;
            assert!(validate_block(&alone, &store, &ValidationConfig::new(1)).is_valid());
            block.extend(alone);
        }
        assert!(block.iter().all(|p| p.order == 0));
        let report = validate_block(&block, &store, &ValidationConfig::new(2));
        assert!(!report.is_valid());
        assert_eq!(report.checked, 2);
        assert_eq!(report.mismatches, vec![TxId::new(1), TxId::new(2)]);
        // The same two transactions at distinct positions do not validate
        // either: the second now sees the first one's debit.
        block[1].order = 1;
        assert!(!validate_block(&block, &store, &ValidationConfig::new(2)).is_valid());
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

    /// The oracle: validate a block, apply it if valid, move to the next.
    fn validate_apply_loop(
        blocks: &[Vec<PreplayedTx>],
        store: &MemStore,
        config: &ValidationConfig,
    ) -> Vec<ValidationReport> {
        let mut reports = Vec::new();
        for block in blocks {
            let report = validate_block(block, store, config);
            if report.is_valid() {
                let mut ordered: Vec<&PreplayedTx> = block.iter().collect();
                ordered.sort_by_key(|p| p.order);
                store.load(
                    ordered
                        .iter()
                        .flat_map(|p| &p.outcome.write_set)
                        .map(|rec| (rec.key, rec.value.clone())),
                );
            }
            reports.push(report);
        }
        reports
    }

    #[test]
    fn a_run_of_blocks_validates_like_a_validate_apply_loop() {
        let config = ValidationConfig::new(3);
        let mut blocks = chained_blocks(5);
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
            .find(|p| !p.outcome.write_set.is_empty())
            .expect("some transaction writes");
        victim.outcome.write_set[0].value = Value::int(-1);
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
        let result = ce.preplay(&txs, &store);
        for validators in [1, 2, 7, 32] {
            let report = validate_block(
                &result.preplayed,
                &store,
                &ValidationConfig::new(validators),
            );
            assert!(report.is_valid(), "failed with {validators} validators");
        }
    }

    #[test]
    fn tampered_reports_are_identical_for_every_worker_count() {
        let store = funded_store(16);
        let txs = smallbank_batch(16, 80);
        let ce = ConcurrentExecutor::new(CeConfig::new(4, 512).without_synthetic_cost());
        let mut result = ce.preplay(&txs, &store);
        // Tamper several transactions spread across the block so mismatches
        // land in different worker chunks for every fan-out width.
        let mut tampered = 0;
        for p in result.preplayed.iter_mut().step_by(11) {
            if let Some(rec) = p.outcome.write_set.first_mut() {
                rec.value = Value::int(-424_242);
                tampered += 1;
            }
        }
        assert!(tampered >= 3, "need several tampered transactions");
        let sequential = validate_block(&result.preplayed, &store, &ValidationConfig::new(1));
        assert!(!sequential.is_valid());
        for validators in [2, 3, 8, 32] {
            let parallel = validate_block(
                &result.preplayed,
                &store,
                &ValidationConfig::new(validators),
            );
            assert_eq!(
                sequential, parallel,
                "verdicts diverged with {validators} validators"
            );
        }
    }
}
