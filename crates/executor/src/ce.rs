//! The Concurrent Executor (`CE`, paper Section 7).
//!
//! The CE preplays a batch: it executes every transaction against the read
//! view and records what it read and what it wrote, in execution order. The
//! output is the block payload of the EOV path: every transaction's
//! read/write set and its position in the serialized execution order.
//! Read/write sets are outputs of preplay, never declarations.
//!
//! # One serial pass
//!
//! The serialization is always **batch order**, emitted by one sequential
//! walk (`finalize_batch`) that executes each transaction against the writes
//! of those before it over `base`. With one effective worker that walk *is*
//! preplay: no speculation, no pool job. With N, the batch is first split
//! into N contiguous chunks, and each pool slot runs the same serial logic
//! over its own chunk against `base` (`speculate_chunks`). A chunk does not
//! see the writes of the chunks before it, so the walk then keeps a
//! speculative outcome iff its recorded reads match the walk's view
//! (identical reads imply an identical trace) and re-executes it otherwise:
//! dependencies are resolved at run time, by that read check, and only a
//! conflict that crosses a chunk boundary costs a repair. The
//! [`BatchResult`] is thus a pure function of `(txs, base)`, independent of
//! worker count, core count and scheduling (`BatchResult::commit_digest`,
//! docs/PIPELINE.md).

use crate::batch::BatchResult;
use crate::pool;
use crate::traits::{effective_workers, synthetic_work, BatchExecutor};
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use tb_contracts::{execute_call, ExecError, StateAccess};
use tb_storage::KvRead;
use tb_types::{CeConfig, ExecOutcome, Key, KeyMap, PreplayedTx, Transaction, Value};

/// The Thunderbolt concurrent executor.
#[derive(Clone, Debug)]
pub struct ConcurrentExecutor {
    config: CeConfig,
}

impl ConcurrentExecutor {
    /// Creates an executor with the given configuration.
    pub fn new(config: CeConfig) -> Self {
        ConcurrentExecutor { config }
    }
}

/// Speculation in `chunks` contiguous chunks of the batch, one per slot of
/// the shared pool, then [`finalize_batch`]. Each slot runs the serial logic
/// over a chunk-local overlay against `base`, so only the first chunk sees
/// every write it depends on; the pass keeps every outcome whose reads match
/// batch order and repairs the rest. A transaction's latency is its time in
/// its chunk plus its time in the pass, so their sum, the third element, is
/// the chunks' times plus the pass's.
fn speculate_chunks(
    txs: &[Transaction],
    base: &(dyn KvRead + Sync),
    chunks: usize,
    op_cost: u64,
) -> (Vec<PreplayedTx>, u64, Duration) {
    let speculated: Vec<OnceLock<(Vec<ExecOutcome>, Duration)>> =
        (0..chunks).map(|_| OnceLock::new()).collect();
    pool::global().run(chunks, &|slot| {
        let started = Instant::now();
        let chunk = &txs[slot * txs.len() / chunks..(slot + 1) * txs.len() / chunks];
        let mut overlay: KeyMap<Value> = KeyMap::default();
        let outcomes = chunk
            .iter()
            .map(|tx| {
                let outcome = execute_serially(tx, &overlay, base, op_cost);
                for rec in &outcome.write_set {
                    overlay.insert(rec.key, rec.value.clone());
                }
                outcome
            })
            .collect();
        speculated[slot]
            .set((outcomes, started.elapsed()))
            .expect("each slot runs once");
    });
    let speculated: Vec<(Vec<ExecOutcome>, Duration)> = speculated
        .into_iter()
        .map(|chunk| chunk.into_inner().expect("every slot ran"))
        .collect();
    let speculating: Duration = speculated.iter().map(|(_, chunk_time)| *chunk_time).sum();
    let outcomes = speculated.into_iter().flat_map(|(outcomes, _)| outcomes);
    let (preplayed, repairs, pass) = finalize_batch(txs, outcomes.map(Some), base, op_cost);
    (preplayed, repairs, speculating + pass)
}

/// The serial pass: serializes the batch in **batch order**, the canonical
/// topological order of the conflict graph once every conflict edge is
/// oriented from lower to higher batch index. `speculative` yields one entry
/// per transaction. A speculative outcome is accepted iff every recorded
/// read matches the view `overlay ∪ base` (the writes of the transactions
/// before it over committed storage): matching reads imply the speculative
/// trace is the serial one. A mismatch is re-executed against that view and
/// counted as a repair; a transaction without an outcome — every one on one
/// worker — is just executed. Returns the batch, the repair count and the
/// pass's time, which is the sum of each transaction's time in the pass.
/// `tests/proptest_invariants.rs` pins `executors(N) ≡ executors(1)`.
fn finalize_batch(
    txs: &[Transaction],
    speculative: impl IntoIterator<Item = Option<ExecOutcome>>,
    base: &(dyn KvRead + Sync),
    op_cost: u64,
) -> (Vec<PreplayedTx>, u64, Duration) {
    let started = Instant::now();
    let mut overlay: KeyMap<Value> = KeyMap::default();
    let mut preplayed = Vec::with_capacity(txs.len());
    let mut repairs = 0u64;
    for (idx, (tx, outcome)) in txs.iter().zip(speculative).enumerate() {
        let outcome = match outcome {
            Some(outcome) if reads_match_serial_view(&outcome, &overlay, base) => outcome,
            speculated => {
                repairs += u64::from(speculated.is_some());
                execute_serially(tx, &overlay, base, op_cost)
            }
        };
        for rec in &outcome.write_set {
            overlay.insert(rec.key, rec.value.clone());
        }
        preplayed.push(PreplayedTx::new(tx.clone(), outcome, idx as u32));
    }
    (preplayed, repairs, started.elapsed())
}

/// True if every read the speculative attempt recorded observes exactly the
/// value the serial batch-order view (`overlay` over `base`) holds. Repeated
/// reads and reads-after-own-write are served from the transaction's own
/// records during preplay, so checking the recorded first-reads is
/// sufficient: identical read values make the whole execution trace — and
/// with it the write set — identical by induction.
fn reads_match_serial_view(
    outcome: &ExecOutcome,
    overlay: &KeyMap<Value>,
    base: &(dyn KvRead + Sync),
) -> bool {
    outcome
        .read_set
        .iter()
        .all(|rec| match overlay.get(&rec.key) {
            Some(value) => *value == rec.value,
            None => base.get(&rec.key) == rec.value,
        })
}

/// Executes `tx` against `overlay` over `base`: the finalized prefix in the
/// pass, the chunk's own prefix in speculation. The read/write sets are in
/// execution order, as every engine and the admission replay record them.
fn execute_serially(
    tx: &Transaction,
    overlay: &KeyMap<Value>,
    base: &(dyn KvRead + Sync),
    op_cost: u64,
) -> ExecOutcome {
    let mut view = SerialView {
        base,
        overlay,
        outcome: ExecOutcome::default(),
        op_cost,
    };
    execute_call(&tx.call, &mut view)
        .expect("serial execution over a plain overlay never conflicts");
    view.outcome
}

/// Read view of the serial logic — own writes over the prefix overlay over
/// committed storage — recording first reads and last writes as it goes.
struct SerialView<'a> {
    base: &'a (dyn KvRead + Sync),
    overlay: &'a KeyMap<Value>,
    outcome: ExecOutcome,
    op_cost: u64,
}

impl StateAccess for SerialView<'_> {
    fn read(&mut self, key: Key) -> Result<Value, ExecError> {
        synthetic_work(self.op_cost);
        if let Some(own) = self.outcome.written_value(&key) {
            return Ok(own.clone());
        }
        let value = self
            .overlay
            .get(&key)
            .cloned()
            .unwrap_or_else(|| self.base.get(&key));
        self.outcome.record_read(key, value.clone());
        Ok(value)
    }

    fn write(&mut self, key: Key, value: Value) -> Result<(), ExecError> {
        synthetic_work(self.op_cost);
        self.outcome.record_write(key, value);
        Ok(())
    }
}

impl Default for ConcurrentExecutor {
    fn default() -> Self {
        ConcurrentExecutor::new(CeConfig::default())
    }
}

impl BatchExecutor for ConcurrentExecutor {
    fn preplay(&self, txs: &[Transaction], base: &(dyn KvRead + Sync)) -> BatchResult {
        let started = Instant::now();
        let workers = effective_workers(self.config.executors).min(txs.len());
        let op_cost = self.config.synthetic_op_cost_ns;
        let (preplayed, reexecutions, total_latency) = if workers <= 1 {
            finalize_batch(txs, std::iter::repeat_with(|| None), base, op_cost)
        } else {
            speculate_chunks(txs, base, workers, op_cost)
        };
        BatchResult {
            preplayed,
            reexecutions,
            elapsed: started.elapsed(),
            total_latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_contracts::SMALLBANK_DEFAULT_BALANCE;
    use tb_storage::MemStore;
    use tb_types::{ClientId, ContractCall, SimTime, SmallBankProcedure, TxId};
    use tb_workload::{SmallBankConfig, SmallBankWorkload, Workload};

    fn send_payment(id: u64, from: u64, to: u64, amount: i64) -> Transaction {
        Transaction::new(
            TxId::new(id),
            ClientId::new(0),
            ContractCall::SmallBank(SmallBankProcedure::SendPayment { from, to, amount }),
            1,
            SimTime::ZERO,
        )
    }

    fn ce(executors: usize) -> ConcurrentExecutor {
        ConcurrentExecutor::new(CeConfig::new(executors, 512).without_synthetic_cost())
    }

    fn funded_store(accounts: u64) -> MemStore {
        let store = MemStore::new();
        store.load(tb_workload::initial_smallbank_state(
            accounts,
            SMALLBANK_DEFAULT_BALANCE,
        ));
        store
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let store = MemStore::new();
        let result = ce(4).preplay(&[], &store);
        assert_eq!(result.committed(), 0);
    }

    #[test]
    fn preplay_does_not_touch_the_store() {
        let store = funded_store(4);
        let txs = vec![send_payment(1, 0, 1, 10)];
        let before = store.get(&Key::checking(0));
        let result = ce(2).preplay(&txs, &store);
        assert_eq!(result.committed(), 1);
        assert_eq!(store.get(&Key::checking(0)), before);
        // Applying the result moves the money.
        result.apply_to(&store);
        assert_eq!(
            store.get(&Key::checking(0)),
            Value::int(SMALLBANK_DEFAULT_BALANCE - 10)
        );
        assert_eq!(
            store.get(&Key::checking(1)),
            Value::int(SMALLBANK_DEFAULT_BALANCE + 10)
        );
    }

    #[test]
    fn hot_account_contention_commits_every_transaction() {
        // Many transfers all touching account 0: heavy write contention.
        let store = funded_store(8);
        let txs: Vec<Transaction> = (0..64)
            .map(|i| send_payment(i, 0, 1 + (i % 7), 1))
            .collect();
        let result = ce(8).preplay(&txs, &store);
        assert_eq!(result.committed(), 64);
        let mut order: Vec<u32> = result.preplayed.iter().map(|p| p.order).collect();
        order.sort_unstable();
        assert!(order.into_iter().eq(0..64), "the order is a permutation");
        result.apply_to(&store);
        assert_eq!(
            store.get(&Key::checking(0)),
            Value::int(SMALLBANK_DEFAULT_BALANCE - 64)
        );
    }

    #[test]
    fn serialized_order_replays_to_the_same_final_state() {
        // The emitted order + write sets must equal a serial re-execution of
        // the same transactions in that order (serializability check).
        let store = funded_store(16);
        let cfg = SmallBankConfig {
            accounts: 16,
            theta: 0.9,
            pr_read: 0.3,
            n_shards: 1,
            ..SmallBankConfig::default()
        };
        let mut workload = SmallBankWorkload::new(cfg);
        let txs = workload.batch(128, SimTime::ZERO);
        let result = ce(8).preplay(&txs, &store);
        assert_eq!(result.committed(), txs.len());

        // Replay serially in the emitted order on a copy of the store.
        let replay_store = funded_store(16);
        let mut ordered = result.preplayed.clone();
        ordered.sort_by_key(|p| p.order);
        for p in &ordered {
            let mut state = tb_contracts::MapState::over(|k| replay_store.get(k));
            let mut tracking = tb_contracts::TrackingState::new(&mut state);
            execute_call(&p.tx.call, &mut tracking).unwrap();
            let (outcome, _) = tracking.finish();
            replay_store.load(
                outcome
                    .write_set
                    .iter()
                    .map(|rec| (rec.key, rec.value.clone())),
            );
            assert_eq!(
                outcome, p.outcome,
                "read and write sets of {} must match a serial replay, in order",
                p.tx.id
            );
        }

        // Final balances must also match applying the preplay write sets.
        let applied = funded_store(16);
        result.apply_to(&applied);
        let diff = applied.snapshot().diff_values(&replay_store.snapshot());
        assert!(diff.is_empty(), "state diverged on keys {diff:?}");
    }

    #[test]
    fn conservation_of_money_under_contention() {
        let store = funded_store(8);
        let initial_total = store.stats().int_sum;
        let cfg = SmallBankConfig {
            accounts: 8,
            theta: 0.9,
            pr_read: 0.0,
            n_shards: 1,
            max_amount: 50,
            ..SmallBankConfig::default()
        };
        let mut workload = SmallBankWorkload::new(cfg);
        let txs = workload.batch(200, SimTime::ZERO);
        let result = ce(6).execute_batch(&txs, &store);
        assert_eq!(result.committed(), 200);
        assert_eq!(
            store.stats().int_sum,
            initial_total,
            "SendPayment must conserve the total balance"
        );
    }

    #[test]
    fn read_only_batch_needs_no_reexecutions() {
        let store = funded_store(32);
        let txs: Vec<Transaction> = (0..50)
            .map(|i| {
                Transaction::new(
                    TxId::new(i),
                    ClientId::new(0),
                    ContractCall::SmallBank(SmallBankProcedure::GetBalance { account: i % 32 }),
                    1,
                    SimTime::ZERO,
                )
            })
            .collect();
        let result = ce(8).preplay(&txs, &store);
        assert_eq!(result.committed(), 50);
        assert_eq!(result.reexecutions, 0);
        let first = &result.preplayed[0].outcome;
        assert_eq!(
            first.read_set,
            [Key::checking(0), Key::savings(0)]
                .map(|key| tb_types::AccessRecord::new(key, Value::int(SMALLBANK_DEFAULT_BALANCE)))
        );
        assert!(first.write_set.is_empty());
    }

    #[test]
    fn single_executor_degrades_to_serial_but_still_works() {
        let store = funded_store(4);
        let txs: Vec<Transaction> = (0..20).map(|i| send_payment(i, 0, 1, 1)).collect();
        let result = ce(1).execute_batch(&txs, &store);
        assert_eq!(result.committed(), 20);
        assert_eq!(result.reexecutions, 0, "a single executor never conflicts");
        assert_eq!(
            store.get(&Key::checking(0)),
            Value::int(SMALLBANK_DEFAULT_BALANCE - 20)
        );
    }

    #[test]
    fn preplay_is_deterministic_across_worker_counts() {
        // Heavy contention so speculation really does read across chunk
        // boundaries — the finalize pass must repair that.
        let cfg = SmallBankConfig {
            accounts: 8,
            theta: 0.95,
            pr_read: 0.2,
            n_shards: 1,
            ..SmallBankConfig::default()
        };
        let mut workload = SmallBankWorkload::new(cfg);
        let txs = workload.batch(96, SimTime::ZERO);
        let store = funded_store(8);
        let reference = ce(1).preplay(&txs, &store);
        // The serialized order is batch order by construction.
        for (idx, p) in reference.preplayed.iter().enumerate() {
            assert_eq!(p.order as usize, idx);
            assert_eq!(p.tx.id, txs[idx].id);
        }
        for workers in [2, 3, 8] {
            let result = ce(workers).preplay(&txs, &store);
            assert_eq!(
                result.commit_digest(),
                reference.commit_digest(),
                "{workers} workers diverged from the single-worker run"
            );
            assert_eq!(result.committed(), reference.committed());
        }
    }

    #[test]
    fn finalize_repairs_schedule_skewed_speculative_outcomes() {
        // Feeds the finalize pass speculative outcomes from a *different*
        // schedule directly: the ones a completion-order run that executed
        // t1 before t0 would have produced.
        let store = funded_store(4);
        let t0 = send_payment(0, 0, 1, 10);
        let t1 = send_payment(1, 0, 2, 5);
        let txs = vec![t0.clone(), t1.clone()];
        let reference = ce(1).preplay(&txs, &store);

        let swapped = ce(1).preplay(&[t1, t0], &store);
        let speculative = vec![
            Some(swapped.preplayed[1].outcome.clone()), // t0, but executed second
            Some(swapped.preplayed[0].outcome.clone()), // t1, but executed first
        ];
        let (preplayed, repairs, _) = finalize_batch(&txs, speculative, &store, 0);
        assert_eq!(repairs, 2, "both outcomes observed stale reads");
        let repaired = BatchResult {
            preplayed,
            ..BatchResult::default()
        };
        assert_eq!(
            repaired.commit_digest(),
            reference.commit_digest(),
            "finalize must repair a schedule-skewed run back to batch order"
        );

        // Transactions that never speculated are executed, not repaired.
        let (preplayed, repairs, _) = finalize_batch(&txs, vec![None, None], &store, 0);
        assert_eq!(repairs, 0);
        let rebuilt = BatchResult {
            preplayed,
            ..BatchResult::default()
        };
        assert_eq!(rebuilt.commit_digest(), reference.commit_digest());
    }

    /// A raw key-value transaction that reads `reads` and then writes its id
    /// to each of `writes`.
    fn kv(id: u64, reads: &[u64], writes: &[u64]) -> Transaction {
        let ops = reads
            .iter()
            .map(|&k| tb_types::Operation::read(Key::scratch(k)))
            .chain(
                writes
                    .iter()
                    .map(|&k| tb_types::Operation::write(Key::scratch(k), Value::int(id as i64))),
            )
            .collect();
        Transaction::new(
            TxId::new(id),
            ClientId::new(0),
            ContractCall::KvOps(ops),
            1,
            SimTime::ZERO,
        )
    }

    /// Speculates `txs` in `chunks` chunks, asserts the batch is byte-equal
    /// to the one-worker pass and returns the repair count. The chunk count
    /// is explicit, so this runs the N-worker path on any host.
    fn chunked_repairs(txs: &[Transaction], store: &MemStore, chunks: usize) -> u64 {
        use tb_types::wire::Wire;
        let one_worker = ce(1).preplay(txs, store);
        let (preplayed, repairs, _) = speculate_chunks(txs, store, chunks, 0);
        assert_eq!(
            preplayed.to_wire_bytes(),
            one_worker.preplayed.to_wire_bytes(),
            "{chunks} chunks must finalize to the one-worker pass"
        );
        repairs
    }

    #[test]
    fn disjoint_keys_need_no_repair_at_any_chunk_count() {
        let txs: Vec<Transaction> = (0..12).map(|i| kv(i, &[i], &[i, 100 + i])).collect();
        let store = MemStore::new();
        for chunks in [2, 3, txs.len() + 5] {
            assert_eq!(chunked_repairs(&txs, &store, chunks), 0, "{chunks} chunks");
        }
    }

    #[test]
    fn a_read_across_a_chunk_boundary_is_the_one_repair() {
        // Two chunks of two: t1 (chunk 0) writes key 7, which t2 (the first
        // transaction of chunk 1) reads before chunk 0's writes exist.
        let txs = vec![
            kv(0, &[0], &[0]),
            kv(1, &[1], &[1, 7]),
            kv(2, &[7], &[2]),
            kv(3, &[3], &[3]),
        ];
        assert_eq!(chunked_repairs(&txs, &MemStore::new(), 2), 1);
    }

    #[test]
    fn uneven_chunks_finalize_to_the_one_worker_pass() {
        // Contended batches whose length no chunk count here divides.
        let smallbank = SmallBankWorkload::new(SmallBankConfig {
            accounts: 8,
            theta: 0.95,
            pr_read: 0.2,
            n_shards: 1,
            ..SmallBankConfig::default()
        })
        .batch(97, SimTime::ZERO);
        let keys: Vec<Transaction> = (0..64u64)
            .map(|i| kv(i, &[i % 3, i * 7 % 5], &[i * 7 % 5, i % 3]))
            .collect();
        for (txs, store) in [(smallbank, funded_store(8)), (keys, MemStore::new())] {
            for chunks in [3, 5, 7] {
                assert_ne!(txs.len() % chunks, 0);
                let repairs = chunked_repairs(&txs, &store, chunks);
                assert!(repairs > 0, "contention across {chunks} chunks must repair");
            }
        }
    }

    #[test]
    fn logical_rejections_still_commit() {
        let store = MemStore::new(); // empty accounts: every payment is rejected
        let txs = vec![send_payment(1, 0, 1, 10), send_payment(2, 1, 2, 5)];
        let result = ce(2).preplay(&txs, &store);
        assert_eq!(result.committed(), 2);
        assert!(result
            .preplayed
            .iter()
            .all(|p| p.outcome.write_set.is_empty()));
    }
}
