//! Optimistic concurrency control (paper Section 11.1).
//!
//! Executors on the shared [`pool`] claim transactions and run them locally:
//! reads fetch versioned values from the writes committed earlier in the
//! batch over the read view, writes stay in a transaction-private buffer. On
//! completion the executor hands the read versions and the write buffer to a
//! central verifier, which re-checks every read version against the batch's
//! committed writes; a mismatch rejects the commit and the transaction is
//! re-executed. Valid transactions commit their writes into a batch-local
//! store while still holding the verifier lock, which is what makes commits
//! atomic; the read view itself is never written.

use crate::batch::{BatchResult, CommitLog};
use crate::pool;
use crate::traits::{read_committed, synthetic_work, BatchExecutor};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use tb_contracts::{execute_call, ExecError, StateAccess, TrackingState};
use tb_storage::{KvRead, MemStore};
use tb_types::{CeConfig, Key, KeyMap, Transaction, Value};

/// The OCC baseline executor.
#[derive(Clone, Debug)]
pub struct OccExecutor {
    config: CeConfig,
}

impl OccExecutor {
    /// Creates an OCC executor.
    pub fn new(config: CeConfig) -> Self {
        OccExecutor { config }
    }
}

impl Default for OccExecutor {
    fn default() -> Self {
        OccExecutor::new(CeConfig::default())
    }
}

/// Transaction-private session: optimistic reads, buffered writes.
struct OccSession<'a> {
    committed: &'a MemStore,
    base: &'a (dyn KvRead + Sync),
    read_versions: KeyMap<u64>,
    writes: KeyMap<Value>,
    op_cost: u64,
}

impl StateAccess for OccSession<'_> {
    fn read(&mut self, key: Key) -> Result<Value, ExecError> {
        synthetic_work(self.op_cost);
        if let Some(local) = self.writes.get(&key) {
            return Ok(local.clone());
        }
        let versioned = read_committed(self.committed, self.base, &key);
        self.read_versions.entry(key).or_insert(versioned.version);
        Ok(versioned.value)
    }

    fn write(&mut self, key: Key, value: Value) -> Result<(), ExecError> {
        synthetic_work(self.op_cost);
        self.writes.insert(key, value);
        Ok(())
    }
}

impl BatchExecutor for OccExecutor {
    fn preplay(&self, txs: &[Transaction], base: &(dyn KvRead + Sync)) -> BatchResult {
        let started = Instant::now();
        let committed = MemStore::new();
        // The central verifier: validation and commit happen under this
        // lock, and the log's length is the next commit's order.
        let verifier = Mutex::new(CommitLog::with_capacity(txs.len()));
        let reexecutions = AtomicU64::new(0);
        let op_cost = self.config.synthetic_op_cost_ns;

        pool::for_each_index(self.config.executors, txs.len(), &|idx| {
            let tx = &txs[idx];
            let tx_started = Instant::now();
            loop {
                let mut tracking = TrackingState::new(OccSession {
                    committed: &committed,
                    base,
                    read_versions: KeyMap::default(),
                    writes: KeyMap::default(),
                    op_cost,
                });
                execute_call(&tx.call, &mut tracking)
                    .expect("the OCC session never aborts mid-execution");
                let (outcome, session) = tracking.finish();

                let mut log = verifier.lock().expect("an OCC worker panicked");
                let valid = session
                    .read_versions
                    .iter()
                    .all(|(key, version)| committed.get_versioned(key).version == *version);
                if valid {
                    committed.load(session.writes);
                    log.commit(tx, outcome, tx_started.elapsed());
                    return;
                }
                drop(log);
                // Validation failed: re-execute from scratch.
                reexecutions.fetch_add(1, Ordering::Relaxed);
            }
        });
        let log = verifier.into_inner().expect("an OCC worker panicked");
        log.finish(reexecutions.into_inner(), started)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_contracts::SMALLBANK_DEFAULT_BALANCE;
    use tb_types::{ClientId, ContractCall, SimTime, SmallBankProcedure, TxId};

    fn payment(id: u64, from: u64, to: u64, amount: i64) -> Transaction {
        Transaction::new(
            TxId::new(id),
            ClientId::new(0),
            ContractCall::SmallBank(SmallBankProcedure::SendPayment { from, to, amount }),
            1,
            SimTime::ZERO,
        )
    }

    fn occ(executors: usize) -> OccExecutor {
        OccExecutor::new(CeConfig::new(executors, 512).without_synthetic_cost())
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
    fn commits_every_transaction_and_conserves_money() {
        let store = funded_store(8);
        let initial = store.stats().int_sum;
        let txs: Vec<Transaction> = (0..100)
            .map(|i| payment(i, i % 8, (i + 1) % 8, 1))
            .collect();
        let result = occ(8).execute_batch(&txs, &store);
        assert_eq!(result.committed(), 100);
        let mut order: Vec<u32> = result.preplayed.iter().map(|p| p.order).collect();
        order.sort_unstable();
        assert!(order.into_iter().eq(0..100), "the order is a permutation");
        assert_eq!(store.stats().int_sum, initial);
    }

    #[test]
    fn contention_causes_reexecutions_but_not_losses() {
        let store = funded_store(2);
        // Every transaction touches account 0: maximal contention.
        let txs: Vec<Transaction> = (0..64).map(|i| payment(i, 0, 1, 1)).collect();
        let result = occ(8).execute_batch(&txs, &store);
        assert_eq!(result.committed(), 64);
        assert_eq!(
            store.get(&Key::checking(0)),
            Value::int(SMALLBANK_DEFAULT_BALANCE - 64)
        );
        assert_eq!(
            store.get(&Key::checking(1)),
            Value::int(SMALLBANK_DEFAULT_BALANCE + 64)
        );
    }

    #[test]
    fn single_executor_never_reexecutes() {
        let store = funded_store(4);
        let txs: Vec<Transaction> = (0..32).map(|i| payment(i, 0, 1, 1)).collect();
        let result = occ(1).execute_batch(&txs, &store);
        assert_eq!(result.reexecutions, 0);
        assert_eq!(result.committed(), 32);
    }

    #[test]
    fn empty_batch_short_circuits() {
        let store = funded_store(1);
        let result = occ(4).execute_batch(&[], &store);
        assert_eq!(result.committed(), 0);
    }
}
