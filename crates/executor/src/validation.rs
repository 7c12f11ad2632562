//! Post-consensus validation of preplayed blocks (paper Section 4).
//!
//! When a replica receives a block through the DAG it does not trust the
//! proposer's preplay results: it rebuilds the dependency structure from the
//! read/write sets declared in the block and re-executes every transaction
//! *in parallel*, each against a read view assembled from the declared write
//! sets of the transactions ordered before it (and committed storage below
//! that). A block is valid iff its `order` values are pairwise distinct and
//! every transaction's re-executed read set, write set and result match what
//! the block declares. Invalid blocks are discarded.
//!
//! # Two-stage structure
//!
//! [`validate_blocks`] takes the whole run of blocks a commit delivered and
//! is split into a **stateless parallel stage** and a **cheap sequential
//! finalize** (the same shape oskr uses to verify messages in parallel):
//!
//! 1. *Fan-out.* Each transaction's re-execution depends only on the run's
//!    immutable write timeline (one flat list of the declared writes, grouped
//!    by key and sorted by `(block, order)` position within each key, plus
//!    one index from key to group) and committed storage, never on
//!    another worker's progress, so the per-transaction checks are
//!    embarrassingly parallel. The transactions of all blocks are flattened
//!    and chunked across at most
//!    [`effective_workers`](crate::traits::effective_workers)`(validators)`
//!    slots of the shared long-lived [`pool`](crate::pool): one pool job per
//!    run, however many blocks it has.
//! 2. *Finalize.* The verdict vectors are joined back **in chunk order** on
//!    the calling thread and folded into one [`ValidationReport`] per block.
//!
//! # Checking while executing
//!
//! A re-execution is compared with the declaration as it runs, not recorded
//! and compared afterwards: each first read is matched on the spot against
//! the declared read set, and the first mismatch ends the transaction as
//! invalid. The buffers are reused across a chunk, so checking an honest
//! transaction allocates nothing once they have grown.
//!
//! See `docs/PIPELINE.md` for how this stage slots into the commit pipeline.

use crate::traits::synthetic_work;
use std::ops::Range;
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

/// Where a transaction sits in a run of blocks: `(block index, order)`.
type Position = (usize, u32);

/// The timeline of the writes a run of blocks declares: one flat list in
/// which each written key's writes are a contiguous run sorted by position,
/// and an index from each key to its run. A transaction's read of a key
/// resolves to the latest declared write before it, or to committed storage
/// if there is none.
struct WriteTimeline<'a> {
    writes: Vec<(Position, &'a Value)>,
    runs: KeyMap<Range<usize>>,
}

impl<'a> WriteTimeline<'a> {
    /// A counting sort by key: count each key's writes, give each key its
    /// slice of one list, fill the slices in declaration order, then sort
    /// each by position. Two allocations however many keys are written.
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
        let mut runs: KeyMap<Range<usize>> =
            KeyMap::with_capacity_and_hasher(total, Default::default());
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
        // Placeholders: the loop below writes every slot exactly once.
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

    /// The value the transaction at `position` should observe for `key`, if
    /// any transaction before it wrote the key.
    fn value_before(&self, key: &Key, position: Position) -> Option<&'a Value> {
        let run = &self.writes[self.runs.get(key)?.clone()];
        let earlier = run.partition_point(|(p, _)| *p < position);
        earlier.checked_sub(1).map(|last| run[last].1)
    }
}

/// Re-executes transactions and checks them against their declarations as
/// they run. The transaction at `position` reads its own `writes` (last value
/// per key), over the declared writes before it, over committed storage.
struct CheckSession<'a> {
    base: &'a (dyn KvRead + Sync),
    timeline: &'a WriteTimeline<'a>,
    op_cost: u64,
    position: Position,
    declared_reads: &'a [AccessRecord],
    reads: Vec<Key>,
    writes: Vec<AccessRecord>,
}

impl<'a> CheckSession<'a> {
    /// True iff re-executing `p` reproduces its declared outcome. A set
    /// matches when it has as many records as the declaration, each with an
    /// equal declared record, so a duplicate, extra or missing key fails.
    fn check(&mut self, p: &'a PreplayedTx, block: usize) -> bool {
        let declared = &p.outcome;
        self.position = (block, p.order);
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

impl StateAccess for CheckSession<'_> {
    fn read(&mut self, key: Key) -> Result<Value, ExecError> {
        synthetic_work(self.op_cost);
        if let Some(own) = self.writes.iter().find(|rec| rec.key == key) {
            return Ok(own.value.clone());
        }
        let value = match self.timeline.value_before(&key, self.position) {
            Some(value) => value.clone(),
            None => self.base.get(&key),
        };
        // A repeated read observes the same value; only the first is declared.
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

/// Validates a run of blocks delivered together, in delivery order, with one
/// fan-out: re-executes every transaction of every block in parallel against
/// the declared dependency structure, checking while it executes that read
/// sets, write sets and results match the declaration. Returns one report
/// per block.
///
/// The transaction at `(block, order)` reads its own writes first, then the
/// last write declared strictly before its position, then `base`. Report `k`
/// is therefore exact **provided blocks `0..k` are valid**: block `k` then
/// sees its own earlier writes over the final writes of blocks `0..k` over
/// `base`, which is the state a validate-apply-validate loop would show it.
/// Reports after the first invalid one were computed over writes that will
/// never be applied; the caller discards them and validates those blocks
/// again once the valid prefix is in `base`.
///
/// A block whose `order` values are not pairwise distinct is reported
/// invalid, every transaction a mismatch, without being re-executed: two
/// transactions at one position would each miss the other's write and both
/// be applied (executors emit a permutation,
/// [`BatchResult::order_is_permutation`](crate::batch::BatchResult::order_is_permutation)).
///
/// # Parallelism contract
///
/// The fan-out occupies at most `effective_workers(config.validators)`
/// slots of the shared worker pool (clamped to the transaction count); with
/// one effective worker — a single-core machine, or `validators: 1` — no
/// pool job is submitted and the whole pass runs inline on the caller, so
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
/// the contract interpreter, or a panicking [`KvRead`] implementation), the
/// pool re-throws the panic on the calling thread once the job drains; it
/// is never swallowed.
pub fn validate_blocks(
    blocks: &[&[PreplayedTx]],
    base: &(dyn KvRead + Sync),
    config: &ValidationConfig,
) -> Vec<ValidationReport> {
    let timeline = WriteTimeline::build(blocks);
    let well_ordered: Vec<bool> = blocks.iter().map(|b| orders_are_distinct(b)).collect();
    let txs: Vec<(usize, &PreplayedTx)> = blocks
        .iter()
        .enumerate()
        .filter(|(block, _)| well_ordered[*block])
        .flat_map(|(block, preplayed)| preplayed.iter().map(move |p| (block, p)))
        .collect();
    let mut verdicts = parallel_verdicts(&txs, base, &timeline, config).into_iter();
    let mut reports = Vec::with_capacity(blocks.len());
    for (preplayed, well_ordered) in blocks.iter().zip(well_ordered) {
        let mut mismatches = Vec::new();
        for p in *preplayed {
            // Only well-ordered blocks went through the fan-out.
            if !(well_ordered && verdicts.next().expect("one verdict per transaction")) {
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

fn orders_are_distinct(preplayed: &[PreplayedTx]) -> bool {
    let mut orders: Vec<u32> = preplayed.iter().map(|p| p.order).collect();
    orders.sort_unstable();
    orders.windows(2).all(|pair| pair[0] != pair[1])
}

/// The stateless fan-out: re-executes every transaction against the shared
/// [`WriteTimeline`] and returns one verdict per transaction, in input
/// order. Workers share only immutable state, so no synchronisation is
/// needed beyond the final join.
fn parallel_verdicts(
    txs: &[(usize, &PreplayedTx)],
    base: &(dyn KvRead + Sync),
    timeline: &WriteTimeline<'_>,
    config: &ValidationConfig,
) -> Vec<bool> {
    let workers = crate::traits::effective_workers(config.validators).min(txs.len());
    let revalidate_all = |chunk: &[(usize, &PreplayedTx)]| -> Vec<bool> {
        let mut session = CheckSession {
            base,
            timeline,
            op_cost: config.op_cost_ns,
            position: (0, 0),
            declared_reads: &[],
            reads: Vec::new(),
            writes: Vec::new(),
        };
        chunk
            .iter()
            .map(|(block, p)| session.check(p, *block))
            .collect()
    };
    if workers <= 1 {
        return revalidate_all(txs);
    }
    let chunks: Vec<_> = txs.chunks(txs.len().div_ceil(workers)).collect();
    let verdicts: Vec<Mutex<Vec<bool>>> = chunks.iter().map(|_| Mutex::new(Vec::new())).collect();
    crate::pool::global().run(chunks.len(), &|slot| {
        *verdicts[slot].lock().unwrap() = revalidate_all(chunks[slot]);
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
    use tb_contracts::SMALLBANK_DEFAULT_BALANCE;
    use tb_storage::MemStore;
    use tb_types::{
        CeConfig, ClientId, ContractCall, KeyMap, SimTime, SmallBankProcedure, Transaction, TxId,
    };
    use tb_workload::{SmallBankConfig, SmallBankWorkload};

    /// The reference verdict: record the re-execution's whole outcome
    /// through `TrackingState` over the same view, then compare it with the
    /// declaration, order-insensitively.
    fn oracle_verdict(
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

    /// The oracle's read view: own writes, over the declared writes before
    /// `position`, over committed storage.
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

    /// [`validate_blocks`] as the oracle computes it, one transaction at a
    /// time.
    fn oracle_reports(blocks: &[&[PreplayedTx]], base: &MemStore) -> Vec<ValidationReport> {
        let timeline = WriteTimeline::build(blocks);
        blocks
            .iter()
            .enumerate()
            .map(|(block, preplayed)| {
                let well_ordered = orders_are_distinct(preplayed);
                let mut mismatches: Vec<TxId> = preplayed
                    .iter()
                    .filter(|p| !(well_ordered && oracle_verdict(p, block, base, &timeline)))
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
            let ce = ConcurrentExecutor::new(CeConfig::new(1, len).without_synthetic_cost());
            let scratch = MemStore::new();
            scratch.load(store.snapshot().iter().map(|(k, v)| (*k, v.value.clone())));
            let mut blocks: Vec<Vec<PreplayedTx>> = txs
                .chunks(len.div_ceil(2))
                .map(|half| {
                    let result = ce.preplay(half, &scratch);
                    result.apply_to(&scratch);
                    result.preplayed
                })
                .collect();
            let victim = victim % len;
            let (block, index) = (victim / len.div_ceil(2), victim % len.div_ceil(2));
            tamper(&mut blocks[block][index], field, forged);

            let run: Vec<&[PreplayedTx]> = blocks.iter().map(Vec::as_slice).collect();
            let oracle = oracle_reports(&run, &store);
            for validators in [1, validators] {
                let reports = validate_blocks(&run, &store, &ValidationConfig::new(validators));
                proptest::prop_assert_eq!(&reports, &oracle);
            }
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
                for rec in ordered.iter().flat_map(|p| &p.outcome.write_set) {
                    tb_storage::KvWrite::put(store, rec.key, rec.value.clone());
                }
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
