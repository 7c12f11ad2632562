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
//! # One serial pass
//!
//! The serialization is always **batch order**, emitted by one sequential
//! walk (`finalize_batch`) that executes each transaction against the writes
//! of those before it over `base`. With one effective worker that walk *is*
//! preplay: no controller, no dependency graph, no pool job. With N, the
//! workers first speculate through the controller, whose commit order
//! follows arrival order and so OS scheduling; the walk then keeps a
//! speculative outcome iff its recorded reads match the walk's view
//! (identical reads imply an identical trace) and re-executes it otherwise,
//! re-orienting every conflict edge from lower to higher batch index. The
//! [`BatchResult`] is thus a pure function of `(txs, base)`, independent of
//! worker count, core count and scheduling (`BatchResult::commit_digest`,
//! docs/PIPELINE.md).

use crate::batch::{BatchResult, ExecutorKind};
use crate::cc::controller::{ConcurrencyController, FinishStatus};
use crate::cc::graph::TxIdx;
use crate::pool::{self, Backoff};
use crate::traits::{effective_workers, synthetic_work, BatchExecutor};
use parking_lot::Mutex;
use std::collections::VecDeque;
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

    /// The configuration in use.
    pub fn config(&self) -> &CeConfig {
        &self.config
    }

    /// Speculation through the controller on `workers` pool slots, then
    /// [`finalize_batch`]; latencies run from first attempt to commit.
    fn speculate_and_finalize(
        &self,
        txs: &[Transaction],
        base: &(dyn KvRead + Sync),
        workers: usize,
    ) -> (Vec<PreplayedTx>, u64, Vec<Duration>) {
        let controller = ConcurrencyController::new(base);
        controller.register_batch(txs);

        let queue: Mutex<VecDeque<TxIdx>> = Mutex::new((0..txs.len()).collect());
        // Transactions that exceeded the retry budget; they are executed
        // serially once the parallel phase has drained, which is guaranteed
        // to succeed because no concurrent transaction can abort them then.
        let deferred: Mutex<Vec<TxIdx>> = Mutex::new(Vec::new());

        let op_cost = self.config.synthetic_op_cost_ns;
        let max_retries = self.config.max_retries as u64;

        pool::global().run(workers, &|_slot| {
            let mut backoff = Backoff::new();
            loop {
                // Bound first: a guard in the `match` scrutinee would hold
                // the queue lock for the whole attempt.
                let next = queue.lock().pop_front();
                match next {
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
                            queue.lock().extend(aborted);
                            continue;
                        }
                        let done = controller.committed_count() + deferred.lock().len();
                        if done >= txs.len() && queue.lock().is_empty() {
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

        let (speculative, _, latencies) = controller.collect_speculative(txs.len());
        let (preplayed, repairs, _) = finalize_batch(txs, speculative, base, op_cost);
        (preplayed, controller.total_aborts() + repairs, latencies)
    }
}

/// The serial pass: serializes the batch in **batch order**, the canonical
/// topological order of the conflict graph once every conflict edge is
/// oriented from lower to higher batch index. `speculative` yields one entry
/// per transaction. A speculative outcome is accepted iff every recorded
/// read matches the view `overlay ∪ base` (the writes of the transactions
/// before it over committed storage): matching reads imply the speculative
/// trace is the serial one. A mismatch is re-executed against that view and
/// counted as a repair; a transaction without an outcome — every one on one
/// worker — is just executed. Returns the batch, the repair count and each
/// transaction's time in the pass. `tests/proptest_invariants.rs` pins
/// `executors(N) ≡ executors(1)`.
fn finalize_batch(
    txs: &[Transaction],
    speculative: impl IntoIterator<Item = Option<ExecOutcome>>,
    base: &(dyn KvRead + Sync),
    op_cost: u64,
) -> (Vec<PreplayedTx>, u64, Vec<Duration>) {
    let mut overlay: KeyMap<Value> = KeyMap::default();
    let mut preplayed = Vec::with_capacity(txs.len());
    let mut latencies = Vec::with_capacity(txs.len());
    let mut repairs = 0u64;
    let mut tx_started = Instant::now();
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
        // One clock read per transaction: its end is the next one's start.
        let tx_done = Instant::now();
        latencies.push(tx_done - tx_started);
        tx_started = tx_done;
    }
    (preplayed, repairs, latencies)
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

/// Executes `tx` against the finalized prefix view. The read/write sets are
/// sorted by key, the convention of speculative outcomes.
fn execute_serially(
    tx: &Transaction,
    overlay: &KeyMap<Value>,
    base: &(dyn KvRead + Sync),
    op_cost: u64,
) -> ExecOutcome {
    let mut view = SerialView {
        base,
        overlay,
        outcome: ExecOutcome::empty(),
        op_cost,
    };
    let result = execute_call(&tx.call, &mut view)
        .expect("serial execution over a plain overlay never conflicts");
    let mut outcome = view.outcome;
    outcome.read_set.sort_by_key(|r| r.key);
    outcome.write_set.sort_by_key(|r| r.key);
    outcome.return_value = result.return_value;
    outcome.logically_aborted = result.logically_aborted;
    outcome
}

/// Read view of the serial pass — own writes over the finalized prefix over
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
    fn kind(&self) -> ExecutorKind {
        ExecutorKind::ConcurrentExecutor
    }

    fn preplay(&self, txs: &[Transaction], base: &(dyn KvRead + Sync)) -> BatchResult {
        let started = Instant::now();
        let workers = effective_workers(self.config.executors).min(txs.len());
        let op_cost = self.config.synthetic_op_cost_ns;
        let (preplayed, reexecutions, latencies) = if workers <= 1 {
            finalize_batch(txs, std::iter::repeat_with(|| None), base, op_cost)
        } else {
            self.speculate_and_finalize(txs, base, workers)
        };
        let logical_rejections = preplayed
            .iter()
            .filter(|p| p.outcome.logically_aborted)
            .count() as u64;
        BatchResult {
            preplayed,
            reexecutions,
            logical_rejections,
            elapsed: started.elapsed(),
            total_latency: latencies.iter().sum(),
            latencies,
        }
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
    use tb_storage::MemStore;
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
            replay_store.load(
                outcome
                    .write_set
                    .iter()
                    .map(|rec| (rec.key, rec.value.clone())),
            );
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

    /// One logical executor's transaction, stepped one controller operation
    /// per turn: the contract call is re-run from the start, the operations
    /// of earlier turns are answered from `log`, one new operation goes to
    /// the controller and the next one yields. Contracts are deterministic,
    /// so any call — SmallBank, raw KV, bytecode — can be interleaved at
    /// operation grain without threads.
    struct Stepper<'c, 'b> {
        controller: &'c ConcurrencyController<'b>,
        idx: TxIdx,
        handle: crate::cc::controller::TxHandle,
        log: Vec<Value>,
        replayed: usize,
        stepped: bool,
        aborted: bool,
    }

    impl Stepper<'_, '_> {
        fn op(
            &mut self,
            run: impl FnOnce(&ConcurrencyController<'_>) -> Result<Value, ExecError>,
        ) -> Result<Value, ExecError> {
            if let Some(value) = self.log.get(self.replayed) {
                self.replayed += 1;
                return Ok(value.clone());
            }
            if self.stepped {
                return Err(ExecError::aborted("yield the turn"));
            }
            self.stepped = true;
            match run(self.controller) {
                Ok(value) => {
                    self.log.push(value.clone());
                    self.replayed += 1;
                    Ok(value)
                }
                Err(err) => {
                    self.aborted = true;
                    Err(err)
                }
            }
        }

        /// Runs one turn; `Some(finished)` once the transaction is done
        /// with this attempt, `finished` telling whether it needs a retry.
        fn turn(&mut self, tx: &Transaction) -> Option<bool> {
            self.replayed = 0;
            self.stepped = false;
            match execute_call(&tx.call, &mut *self) {
                Ok(result) => {
                    Some(self.controller.finish(self.handle, result) != FinishStatus::Aborted)
                }
                Err(_) if self.aborted => Some(false),
                Err(_) => None,
            }
        }
    }

    impl StateAccess for Stepper<'_, '_> {
        fn read(&mut self, key: Key) -> Result<Value, ExecError> {
            let handle = self.handle;
            self.op(|cc| cc.read(handle, key))
        }

        fn write(&mut self, key: Key, value: Value) -> Result<(), ExecError> {
            let handle = self.handle;
            self.op(|cc| cc.write(handle, key, value).map(|()| Value::None))
                .map(drop)
        }
    }

    /// Speculates `txs` through the controller under one fixed round-robin
    /// interleaving of `slots` logical executors (the scheme of `two_pl.rs`'
    /// interleaving test) and returns the speculative outcomes and the
    /// speculative commit order. Like `preplay`, a transaction that keeps
    /// losing its conflicts is deferred and run alone once the slots drain,
    /// which breaks the abort cycles a fixed interleaving can repeat forever.
    fn round_robin_speculation(
        txs: &[Transaction],
        base: &MemStore,
        slots: usize,
    ) -> (Vec<Option<ExecOutcome>>, Vec<TxIdx>) {
        const RETRY_BUDGET: u64 = 4;
        let controller = ConcurrencyController::new(base);
        controller.register_batch(txs);
        let start = |idx: TxIdx| {
            controller.begin(idx).map(|handle| Stepper {
                controller: &controller,
                idx,
                handle,
                log: Vec::new(),
                replayed: 0,
                stepped: false,
                aborted: false,
            })
        };
        let mut queue: std::collections::VecDeque<TxIdx> = (0..txs.len()).collect();
        let mut deferred: Vec<TxIdx> = Vec::new();
        let mut running: Vec<Option<Stepper>> = (0..slots).map(|_| None).collect();
        let mut turns = 0;
        while !controller.all_committed() {
            turns += 1;
            assert!(turns < 100_000, "interleaved CC run did not converge");
            for slot in running.iter_mut() {
                if slot.is_none() && deferred.is_empty() {
                    // `begin` refuses committed or running transactions
                    // (stale duplicates from the abort queue).
                    match queue.pop_front() {
                        Some(idx) if controller.retries(idx) > RETRY_BUDGET => deferred.push(idx),
                        Some(idx) => *slot = start(idx),
                        None => {}
                    }
                }
                let Some(stepper) = slot else {
                    continue;
                };
                if let Some(finished) = stepper.turn(&txs[stepper.idx]) {
                    if !finished {
                        queue.push_back(stepper.idx);
                    }
                    *slot = None;
                }
            }
            queue.extend(controller.take_aborted());
            if running.iter().all(Option::is_none) {
                for idx in deferred.drain(..) {
                    while let Some(mut alone) = start(idx) {
                        if let Some(true) =
                            std::iter::repeat_with(|| alone.turn(&txs[idx])).find_map(|turn| turn)
                        {
                            break;
                        }
                    }
                }
            }
        }
        let (speculative, _, _) = controller.collect_speculative(txs.len());
        (speculative, controller.committed_order())
    }

    #[test]
    fn interleaved_speculation_finalizes_to_the_one_worker_pass() {
        // The N-worker path checked without depending on the host's cores:
        // with one core `preplay` never reaches the controller, so this
        // drives it through a fixed interleaving instead.
        let smallbank = SmallBankWorkload::new(SmallBankConfig {
            accounts: 8,
            theta: 0.95,
            pr_read: 0.2,
            n_shards: 1,
            ..SmallBankConfig::default()
        })
        .batch(96, SimTime::ZERO);
        let kv: Vec<Transaction> = (0..64u64)
            .map(|i| {
                let (a, b) = (Key::scratch(i % 3), Key::scratch(i * 7 % 5));
                let ops = vec![
                    tb_types::Operation::read(a),
                    tb_types::Operation::write(b, Value::int(i as i64)),
                    tb_types::Operation::read(b),
                    tb_types::Operation::write(a, Value::int(-(i as i64))),
                ];
                Transaction::new(
                    TxId::new(i),
                    ClientId::new(0),
                    ContractCall::KvOps(ops),
                    1,
                    SimTime::ZERO,
                )
            })
            .collect();
        for (txs, store) in [(smallbank, funded_store(8)), (kv, MemStore::new())] {
            use tb_types::wire::Wire;
            let one_worker = ce(1).preplay(&txs, &store);
            let (speculative, order) = round_robin_speculation(&txs, &store, 8);
            assert_ne!(
                order,
                (0..txs.len()).collect::<Vec<_>>(),
                "the interleaving must serialize against batch order"
            );
            let (preplayed, repairs, _) = finalize_batch(&txs, speculative, &store, 0);
            assert!(repairs > 0, "finalize must have had something to repair");
            assert_eq!(
                preplayed.to_wire_bytes(),
                one_worker.preplayed.to_wire_bytes(),
                "finalize must turn any interleaving into the one-worker pass"
            );
        }
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
