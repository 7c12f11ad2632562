//! 2PL-No-Wait (paper Section 11.1).
//!
//! Executors on the shared [`pool`] claim transactions and acquire read/write
//! locks through a central lock table as they touch keys. If a lock cannot
//! be granted immediately, the transaction releases everything it holds and
//! re-executes from scratch (the "no wait" policy, which trades aborts for
//! deadlock freedom). Reads see the writes committed earlier in the batch
//! over the read view. Writes are buffered and committed into a batch-local
//! store, and the commit takes its place in the serialized order, before
//! the locks are released.

use crate::batch::{BatchResult, CommitLog};
use crate::pool;
use crate::traits::{read_committed, synthetic_work, BatchExecutor};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use tb_contracts::{execute_call, ExecError, StateAccess, TrackingState};
use tb_storage::{KvRead, MemStore};
use tb_types::{CeConfig, Key, KeyHashBuilder, KeyMap, Transaction, Value};

/// A set of transaction indices, hashed like the key maps beside it.
type TxSet = HashSet<usize, KeyHashBuilder>;

/// Lock modes in the central lock table.
#[derive(Clone, Debug, PartialEq, Eq)]
enum LockState {
    /// Held in shared mode by the given transactions.
    Shared(TxSet),
    /// Held exclusively by one transaction.
    Exclusive(usize),
}

/// The central lock table.
#[derive(Debug, Default)]
struct LockTable {
    locks: Mutex<KeyMap<LockState>>,
}

impl LockTable {
    fn new() -> Self {
        LockTable::default()
    }

    /// Tries to acquire a shared lock for `owner`. Returns false on conflict.
    fn lock_shared(&self, key: Key, owner: usize) -> bool {
        let mut locks = self.locks.lock().expect("a 2PL worker panicked");
        match locks.get_mut(&key) {
            None => {
                locks.insert(key, LockState::Shared(TxSet::from_iter([owner])));
                true
            }
            Some(LockState::Shared(holders)) => {
                holders.insert(owner);
                true
            }
            Some(LockState::Exclusive(holder)) => *holder == owner,
        }
    }

    /// Tries to acquire (or upgrade to) an exclusive lock for `owner`.
    fn lock_exclusive(&self, key: Key, owner: usize) -> bool {
        let mut locks = self.locks.lock().expect("a 2PL worker panicked");
        match locks.get_mut(&key) {
            None => {
                locks.insert(key, LockState::Exclusive(owner));
                true
            }
            Some(LockState::Exclusive(holder)) => *holder == owner,
            Some(LockState::Shared(holders)) => {
                if holders.len() == 1 && holders.contains(&owner) {
                    locks.insert(key, LockState::Exclusive(owner));
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Releases every lock held by `owner`.
    fn release_all(&self, owner: usize) {
        let mut locks = self.locks.lock().expect("a 2PL worker panicked");
        locks.retain(|_, state| match state {
            LockState::Exclusive(holder) => *holder != owner,
            LockState::Shared(holders) => {
                holders.remove(&owner);
                !holders.is_empty()
            }
        });
    }
}

/// The 2PL-No-Wait baseline executor.
#[derive(Clone, Debug)]
pub struct TwoPlNoWaitExecutor {
    config: CeConfig,
}

impl TwoPlNoWaitExecutor {
    /// Creates a 2PL-No-Wait executor.
    pub fn new(config: CeConfig) -> Self {
        TwoPlNoWaitExecutor { config }
    }
}

impl Default for TwoPlNoWaitExecutor {
    fn default() -> Self {
        TwoPlNoWaitExecutor::new(CeConfig::default())
    }
}

/// Per-attempt session: acquires locks as keys are touched.
struct TwoPlSession<'a> {
    committed: &'a MemStore,
    base: &'a (dyn KvRead + Sync),
    table: &'a LockTable,
    owner: usize,
    writes: KeyMap<Value>,
    op_cost: u64,
}

impl StateAccess for TwoPlSession<'_> {
    fn read(&mut self, key: Key) -> Result<Value, ExecError> {
        synthetic_work(self.op_cost);
        if let Some(local) = self.writes.get(&key) {
            return Ok(local.clone());
        }
        if !self.table.lock_shared(key, self.owner) {
            return Err(ExecError::aborted(format!("read lock on {key} denied")));
        }
        Ok(read_committed(self.committed, self.base, &key).value)
    }

    fn write(&mut self, key: Key, value: Value) -> Result<(), ExecError> {
        synthetic_work(self.op_cost);
        if !self.table.lock_exclusive(key, self.owner) {
            return Err(ExecError::aborted(format!("write lock on {key} denied")));
        }
        self.writes.insert(key, value);
        Ok(())
    }
}

impl BatchExecutor for TwoPlNoWaitExecutor {
    fn preplay(&self, txs: &[Transaction], base: &(dyn KvRead + Sync)) -> BatchResult {
        let started = Instant::now();
        let committed = MemStore::new();
        let table = LockTable::new();
        // The commit log: its length is the next commit's order.
        let log = Mutex::new(CommitLog::with_capacity(txs.len()));
        let reexecutions = AtomicU64::new(0);
        let op_cost = self.config.synthetic_op_cost_ns;

        pool::for_each_index(self.config.executors, txs.len(), &|idx| {
            let tx = &txs[idx];
            let tx_started = Instant::now();
            loop {
                let mut tracking = TrackingState::new(TwoPlSession {
                    committed: &committed,
                    base,
                    table: &table,
                    owner: idx,
                    writes: KeyMap::default(),
                    op_cost,
                });
                match execute_call(&tx.call, &mut tracking) {
                    Ok(_) => {
                        let (outcome, session) = tracking.finish();
                        // Commit and take the order while every lock is
                        // still held: a transaction that read this one's
                        // writes cannot have locked them yet, so it is
                        // numbered after it and the order replays.
                        committed.load(session.writes);
                        log.lock().expect("a 2PL worker panicked").commit(
                            tx,
                            outcome,
                            tx_started.elapsed(),
                        );
                        table.release_all(idx);
                        return;
                    }
                    Err(err) => {
                        debug_assert!(err.is_abort());
                        // No-wait: drop every lock and retry.
                        table.release_all(idx);
                        reexecutions.fetch_add(1, Ordering::Relaxed);
                        std::thread::yield_now();
                    }
                }
            }
        });
        let log = log.into_inner().expect("a 2PL worker panicked");
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

    fn two_pl(executors: usize) -> TwoPlNoWaitExecutor {
        TwoPlNoWaitExecutor::new(CeConfig::new(executors, 512).without_synthetic_cost())
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
    fn lock_table_grants_and_blocks() {
        let table = LockTable::new();
        let k = Key::scratch(1);
        assert!(table.lock_shared(k, 0));
        assert!(table.lock_shared(k, 1), "shared locks are compatible");
        assert!(!table.lock_exclusive(k, 2), "exclusive blocked by readers");
        table.release_all(1);
        assert!(!table.lock_exclusive(k, 2), "still blocked by reader 0");
        table.release_all(0);
        assert!(table.lock_exclusive(k, 2));
        assert!(!table.lock_shared(k, 0), "shared blocked by writer");
        assert!(table.lock_exclusive(k, 2), "re-acquire by owner is fine");
        table.release_all(2);
        assert!(table.lock_shared(k, 0));
    }

    #[test]
    fn upgrade_from_sole_shared_holder_succeeds() {
        let table = LockTable::new();
        let k = Key::scratch(9);
        assert!(table.lock_shared(k, 5));
        assert!(table.lock_exclusive(k, 5));
        assert!(!table.lock_shared(k, 6));
    }

    #[test]
    fn commits_everything_and_conserves_money_under_contention() {
        let store = funded_store(2);
        let initial = store.stats().int_sum;
        let txs: Vec<Transaction> = (0..64).map(|i| payment(i, 0, 1, 1)).collect();
        let result = two_pl(8).execute_batch(&txs, &store);
        assert_eq!(result.committed(), 64);
        assert_eq!(store.stats().int_sum, initial);
        assert_eq!(
            store.get(&Key::checking(0)),
            Value::int(SMALLBANK_DEFAULT_BALANCE - 64)
        );
    }

    #[test]
    fn no_contention_means_no_reexecutions() {
        let store = funded_store(64);
        let txs: Vec<Transaction> = (0..32).map(|i| payment(i, i * 2, i * 2 + 1, 1)).collect();
        let result = two_pl(4).execute_batch(&txs, &store);
        assert_eq!(result.reexecutions, 0);
        assert_eq!(result.committed(), 32);
    }

    #[test]
    fn empty_batch_short_circuits() {
        let store = funded_store(1);
        let result = two_pl(4).execute_batch(&[], &store);
        assert_eq!(result.committed(), 0);
    }
}
