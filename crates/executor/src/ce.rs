//! The Concurrent Executor (`CE`, paper Section 7).
//!
//! Executor workers from the shared [`pool`] pull transactions
//! off a common queue and run their contract code against the
//! [`ConcurrencyController`]. Reads may observe uncommitted values of other
//! in-flight transactions; conflicts the controller cannot reschedule abort
//! the transaction, which is put back on the queue and re-executed. The
//! output of a batch is the block payload of the EOV path: every
//! transaction's read/write set, result and its position in the serialized
//! execution order.
//!
//! # Deterministic finalize
//!
//! The parallel phase alone cannot produce a reproducible serialization:
//! the dependency graph's conflict edges follow *arrival* order (e.g. a
//! write-write conflict is oriented towards whichever worker wrote first),
//! so its commit sequence depends on OS scheduling. Preplay therefore adds
//! a sequential **finalize pass** that re-orients every conflict edge from
//! lower to higher batch index, making batch order the unique tie-broken
//! topological order of the conflict graph. Concretely, the pass walks the
//! batch in index order keeping an overlay of finalized writes, accepts a
//! speculative outcome iff each of its recorded reads matches the
//! overlay-over-storage view (identical read values imply an identical
//! execution trace), and serially re-executes the transaction against that
//! view otherwise (counted as a re-execution). The emitted
//! [`BatchResult`] is thus a pure function of `(txs, base)` — independent
//! of worker count and scheduling — which is what lets digest-gated
//! deployments run `executors(N)` instead of pinning `executors(1)`
//! (`BatchResult::commit_digest`, docs/PIPELINE.md).

use crate::batch::{BatchResult, ExecutorKind};
use crate::cc::controller::{ConcurrencyController, FinishStatus};
use crate::cc::graph::TxIdx;
use crate::pool::{self, Backoff};
use crate::traits::{effective_workers, synthetic_work, BatchExecutor};
use crossbeam::queue::SegQueue;
use parking_lot::Mutex;
use std::time::Instant;
use tb_contracts::{execute_call, ExecError, StateAccess, TrackingState};
use tb_storage::{KvRead, MemStore};
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

    /// The configuration in use.
    pub fn config(&self) -> &CeConfig {
        &self.config
    }

    /// Preplays a batch of transactions against the committed state in
    /// `base` **without** applying any writes: the results live only in the
    /// returned [`BatchResult`], exactly like the preplay outcomes a shard
    /// proposer ships inside its block (Figure 3, step 1).
    pub fn preplay(&self, txs: &[Transaction], base: &(dyn KvRead + Sync)) -> BatchResult {
        let started = Instant::now();
        if txs.is_empty() {
            return BatchResult::default();
        }
        let controller = ConcurrencyController::new(base);
        controller.register_batch(txs);

        let queue: SegQueue<TxIdx> = SegQueue::new();
        for idx in 0..txs.len() {
            queue.push(idx);
        }
        // Transactions that exceeded the retry budget; they are executed
        // serially once the parallel phase has drained, which is guaranteed
        // to succeed because no concurrent transaction can abort them then.
        let deferred: Mutex<Vec<TxIdx>> = Mutex::new(Vec::new());

        let workers = effective_workers(self.config.executors).min(txs.len());
        let op_cost = self.config.synthetic_op_cost_ns;
        let max_retries = self.config.max_retries as u64;

        pool::global().run(workers, &|_slot| {
            let mut backoff = Backoff::new();
            loop {
                match queue.pop() {
                    Some(idx) => {
                        backoff.reset();
                        if controller.retries(idx) > max_retries {
                            deferred.lock().push(idx);
                            continue;
                        }
                        run_one(&controller, txs, idx, op_cost);
                    }
                    None => {
                        let aborted = controller.take_aborted();
                        if !aborted.is_empty() {
                            backoff.reset();
                            for idx in aborted {
                                queue.push(idx);
                            }
                            continue;
                        }
                        let done = controller.committed_count() + deferred.lock().len();
                        if done >= txs.len() && queue.is_empty() {
                            break;
                        }
                        backoff.wait();
                    }
                }
            }
        });

        // Serial fallback for transactions that exceeded the retry budget.
        let leftovers = std::mem::take(&mut *deferred.lock());
        for idx in leftovers {
            let mut attempts = 0;
            while !run_one(&controller, txs, idx, op_cost) {
                attempts += 1;
                assert!(
                    attempts < 1_000,
                    "serial fallback must terminate: transaction {idx} keeps aborting"
                );
            }
        }
        // Any stragglers aborted by the fallback executions.
        loop {
            let aborted = controller.take_aborted();
            if aborted.is_empty() {
                break;
            }
            for idx in aborted {
                let mut attempts = 0;
                while !run_one(&controller, txs, idx, op_cost) {
                    attempts += 1;
                    assert!(attempts < 1_000, "serial fallback must terminate");
                }
            }
        }
        debug_assert!(controller.all_committed());

        let (speculative, total_latency, latencies) = controller.collect_speculative(txs.len());
        let (preplayed, repairs) = finalize_batch(txs, speculative, base, op_cost);
        let logical_rejections = preplayed
            .iter()
            .filter(|p| p.outcome.logically_aborted)
            .count() as u64;
        BatchResult {
            preplayed,
            reexecutions: controller.total_aborts() + repairs,
            logical_rejections,
            elapsed: started.elapsed(),
            total_latency,
            latencies,
        }
    }
}

/// The sequential finalize pass: re-serializes the batch in **batch order**,
/// which is the canonical topological order of the conflict graph once every
/// conflict edge is oriented from lower to higher batch index (batch-index
/// tie-break). For each transaction the pass accepts the speculative outcome
/// iff every recorded read matches the view `overlay ∪ base` (the writes of
/// transactions finalized before it over committed storage); matching read
/// values imply the speculative execution trace is exactly the serial one,
/// so write set and result carry over. A mismatch — or a transaction that
/// never committed speculatively — is re-executed serially against that view
/// and counted as a repair.
///
/// A single-worker speculative phase *is* a serial batch-order run, so it
/// validates without repairs; `executors(N)` converges to the same fixed
/// point, which is the `executors(N) ≡ executors(1)` determinism proof
/// pinned by `tests/proptest_invariants.rs`.
fn finalize_batch(
    txs: &[Transaction],
    speculative: Vec<Option<ExecOutcome>>,
    base: &(dyn KvRead + Sync),
    op_cost: u64,
) -> (Vec<PreplayedTx>, u64) {
    let mut overlay: KeyMap<Value> = KeyMap::default();
    let mut preplayed = Vec::with_capacity(txs.len());
    let mut repairs = 0u64;
    for (idx, (tx, outcome)) in txs.iter().zip(speculative).enumerate() {
        let outcome = match outcome {
            Some(outcome) if reads_match_serial_view(&outcome, &overlay, base) => outcome,
            _ => {
                repairs += 1;
                reexecute_serially(tx, &overlay, base, op_cost)
            }
        };
        for rec in &outcome.write_set {
            overlay.insert(rec.key, rec.value.clone());
        }
        preplayed.push(PreplayedTx::new(tx.clone(), outcome, idx as u32));
    }
    (preplayed, repairs)
}

/// True if every read the speculative attempt recorded observes exactly the
/// value the serial batch-order view (`overlay` over `base`) holds. Repeated
/// reads and reads-after-own-write are served from the transaction's own
/// records during preplay, so checking the recorded first-reads is
/// sufficient: identical read values make the whole execution trace — and
/// with it the write set and result — identical by induction.
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

/// Serially re-executes `tx` against the finalized prefix view, charging the
/// same synthetic per-operation cost as the parallel phase. The read/write
/// sets are sorted by key to match the convention of speculative outcomes.
fn reexecute_serially(
    tx: &Transaction,
    overlay: &KeyMap<Value>,
    base: &(dyn KvRead + Sync),
    op_cost: u64,
) -> ExecOutcome {
    let session = FinalizeSession {
        base,
        overlay,
        local: KeyMap::default(),
        op_cost,
    };
    let mut tracking = TrackingState::new(session);
    let result = execute_call(&tx.call, &mut tracking)
        .expect("serial re-execution over a plain overlay never conflicts");
    let (mut outcome, _) = tracking.finish();
    outcome.read_set.sort_by_key(|r| r.key);
    outcome.write_set.sort_by_key(|r| r.key);
    outcome.return_value = result.return_value;
    outcome.logically_aborted = result.logically_aborted;
    outcome
}

/// Read view of a finalize repair: own writes over the finalized prefix over
/// committed storage.
struct FinalizeSession<'a> {
    base: &'a (dyn KvRead + Sync),
    overlay: &'a KeyMap<Value>,
    local: KeyMap<Value>,
    op_cost: u64,
}

impl StateAccess for FinalizeSession<'_> {
    fn read(&mut self, key: Key) -> Result<Value, ExecError> {
        synthetic_work(self.op_cost);
        Ok(self
            .local
            .get(&key)
            .or_else(|| self.overlay.get(&key))
            .cloned()
            .unwrap_or_else(|| self.base.get(&key)))
    }

    fn write(&mut self, key: Key, value: Value) -> Result<(), ExecError> {
        synthetic_work(self.op_cost);
        self.local.insert(key, value);
        Ok(())
    }
}

impl Default for ConcurrentExecutor {
    fn default() -> Self {
        ConcurrentExecutor::new(CeConfig::default())
    }
}

impl BatchExecutor for ConcurrentExecutor {
    fn kind(&self) -> ExecutorKind {
        ExecutorKind::ConcurrentExecutor
    }

    fn execute_batch(&self, txs: &[Transaction], store: &MemStore) -> BatchResult {
        let result = self.preplay(txs, store);
        result.apply_to(store);
        result
    }
}

/// Executes one attempt of transaction `idx`. Returns `true` when the attempt
/// finished (committed or pending commit), `false` when it aborted and needs
/// to be retried. Transactions that are not in a runnable state count as
/// finished: another worker is (or was) responsible for them.
fn run_one(
    controller: &ConcurrencyController<'_>,
    txs: &[Transaction],
    idx: TxIdx,
    op_cost: u64,
) -> bool {
    let Some(handle) = controller.begin(idx) else {
        return true;
    };
    let mut session = CcSession {
        controller,
        handle,
        op_cost,
    };
    match execute_call(&txs[idx].call, &mut session) {
        Ok(result) => controller.finish(handle, result) != FinishStatus::Aborted,
        Err(err) => {
            debug_assert!(err.is_abort(), "only aborts escape execute_call: {err}");
            false
        }
    }
}

/// [`StateAccess`] implementation bridging contract execution to the
/// concurrency controller. The synthetic per-operation cost is charged
/// *outside* the controller's critical section.
struct CcSession<'a, 'b> {
    controller: &'a ConcurrencyController<'b>,
    handle: crate::cc::controller::TxHandle,
    op_cost: u64,
}

impl StateAccess for CcSession<'_, '_> {
    fn read(&mut self, key: Key) -> Result<Value, ExecError> {
        synthetic_work(self.op_cost);
        self.controller.read(self.handle, key)
    }

    fn write(&mut self, key: Key, value: Value) -> Result<(), ExecError> {
        synthetic_work(self.op_cost);
        self.controller.write(self.handle, key, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_contracts::SMALLBANK_DEFAULT_BALANCE;
    use tb_storage::KvRead;
    use tb_types::{ClientId, ContractCall, SimTime, SmallBankProcedure, TxId};
    use tb_workload::{SmallBankConfig, SmallBankWorkload};

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
        assert!(result.order_is_permutation());
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
            let outcome = {
                let mut tracking = tb_contracts::TrackingState::new(&mut state);
                execute_call(&p.tx.call, &mut tracking).unwrap();
                tracking.outcome().clone()
            };
            for rec in &outcome.write_set {
                use tb_storage::KvWrite;
                replay_store.put(rec.key, rec.value.clone());
            }
            let sort = |mut set: Vec<tb_types::AccessRecord>| {
                set.sort_by_key(|r| r.key);
                set
            };
            assert_eq!(
                sort(outcome.write_set.clone()),
                sort(p.outcome.write_set.clone()),
                "write set of {} must match a serial replay",
                p.tx.id
            );
            assert_eq!(
                sort(outcome.read_set.clone()),
                sort(p.outcome.read_set.clone()),
                "read set of {} must match a serial replay",
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
        assert_eq!(
            result.return_value(TxId::new(0)),
            Some(&Value::int(2 * SMALLBANK_DEFAULT_BALANCE))
        );
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
        // Heavy contention so the speculative phase really does produce
        // schedule-dependent graphs — the finalize pass must erase that.
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
        // On a single-core machine the parallel phase cannot interleave, so
        // this test feeds the finalize pass speculative outcomes from a
        // *different* schedule directly: the ones a completion-order run
        // that executed t1 before t0 would have produced.
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
        let (preplayed, repairs) = finalize_batch(&txs, speculative, &store, 0);
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

        // Transactions that never committed speculatively are repaired too.
        let (preplayed, repairs) = finalize_batch(&txs, vec![None, None], &store, 0);
        assert_eq!(repairs, 2);
        let rebuilt = BatchResult {
            preplayed,
            ..BatchResult::default()
        };
        assert_eq!(rebuilt.commit_digest(), reference.commit_digest());
    }

    #[test]
    fn logical_rejections_are_counted_but_still_commit() {
        let store = MemStore::new(); // empty accounts: every payment is rejected
        let txs = vec![send_payment(1, 0, 1, 10), send_payment(2, 1, 2, 5)];
        let result = ce(2).preplay(&txs, &store);
        assert_eq!(result.committed(), 2);
        assert_eq!(result.logical_rejections, 2);
    }
}
