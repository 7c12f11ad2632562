//! Serial in-order execution.
//!
//! This is what a DAG protocol with sequential post-consensus execution
//! (plain Tusk in the evaluation) does: transactions are executed one after
//! the other in their consensus order. It also serves as the reference
//! implementation the property tests compare the concurrent engines against.

use crate::batch::{BatchResult, CommitLog};
use crate::traits::{synthetic_work, BatchExecutor};
use std::time::Instant;
use tb_contracts::{execute_call, ExecError, StateAccess, TrackingState};
use tb_storage::KvRead;
use tb_types::{CeConfig, Key, KeyMap, Transaction, Value};

/// Executes transactions serially, each one seeing the writes of those
/// before it.
#[derive(Clone, Debug, Default)]
pub struct SerialExecutor {
    /// Synthetic per-operation cost, matching the other engines so that
    /// comparisons are apples-to-apples.
    pub op_cost_ns: u64,
}

impl SerialExecutor {
    /// Creates a serial executor matching the costs of a [`CeConfig`].
    pub fn from_config(config: &CeConfig) -> Self {
        SerialExecutor {
            op_cost_ns: config.synthetic_op_cost_ns,
        }
    }
}

/// Session over the batch's writes so far (`overlay`) over the read view:
/// writes land in the overlay at once, where the next read — of this
/// transaction or a later one — finds them.
struct SerialSession<'a> {
    base: &'a (dyn KvRead + Sync),
    overlay: &'a mut KeyMap<Value>,
    op_cost: u64,
}

impl StateAccess for SerialSession<'_> {
    fn read(&mut self, key: Key) -> Result<Value, ExecError> {
        synthetic_work(self.op_cost);
        Ok(self
            .overlay
            .get(&key)
            .cloned()
            .unwrap_or_else(|| self.base.get(&key)))
    }

    fn write(&mut self, key: Key, value: Value) -> Result<(), ExecError> {
        synthetic_work(self.op_cost);
        self.overlay.insert(key, value);
        Ok(())
    }
}

impl BatchExecutor for SerialExecutor {
    fn preplay(&self, txs: &[Transaction], base: &(dyn KvRead + Sync)) -> BatchResult {
        let started = Instant::now();
        let mut overlay = KeyMap::default();
        let mut log = CommitLog::with_capacity(txs.len());
        for tx in txs {
            let tx_started = Instant::now();
            let mut tracking = TrackingState::new(SerialSession {
                base,
                overlay: &mut overlay,
                op_cost: self.op_cost_ns,
            });
            execute_call(&tx.call, &mut tracking).expect("serial execution never aborts");
            log.commit(tx, tracking.finish().0, tx_started.elapsed());
        }
        log.finish(0, started)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_storage::MemStore;
    use tb_types::{AccessRecord, ClientId, ContractCall, SimTime, SmallBankProcedure, TxId};

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
    fn executes_in_input_order_and_applies_writes() {
        let store = MemStore::new();
        store.load([(Key::checking(0), Value::int(100))]);
        store.load([(Key::checking(1), Value::int(0))]);
        let txs = vec![payment(1, 0, 1, 60), payment(2, 0, 1, 60)];
        let result = SerialExecutor::default().execute_batch(&txs, &store);
        assert_eq!(result.committed(), 2);
        // The second payment sees only 40 left and is rejected: it writes
        // nothing.
        assert!(result.preplayed[1].outcome.write_set.is_empty());
        assert_eq!(store.get(&Key::checking(0)), Value::int(40));
        assert_eq!(store.get(&Key::checking(1)), Value::int(60));
        assert_eq!(result.preplayed[0].order, 0);
        assert_eq!(result.preplayed[1].order, 1);
        assert_eq!(result.reexecutions, 0);
    }

    #[test]
    fn tracks_read_and_write_sets() {
        let store = MemStore::new();
        store.load([(Key::checking(3), Value::int(10))]);
        let txs = vec![payment(1, 3, 4, 5)];
        let result = SerialExecutor::default().execute_batch(&txs, &store);
        let outcome = &result.preplayed[0].outcome;
        assert!(outcome
            .read_set
            .contains(&AccessRecord::new(Key::checking(3), Value::int(10))));
        assert_eq!(
            outcome.written_value(&Key::checking(3)),
            Some(&Value::int(5))
        );
        assert_eq!(
            outcome.written_value(&Key::checking(4)),
            Some(&Value::int(5))
        );
    }
}
