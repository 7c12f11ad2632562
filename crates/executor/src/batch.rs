//! Batch execution results and statistics.

use std::time::{Duration, Instant};
use tb_storage::{MemStore, Store, WriteBatch};
use tb_types::{ExecOutcome, PreplayedTx, Transaction, Value};

/// FNV-1a 64-bit offset basis: the seed of [`BatchResult::commit_digest`]
/// and of the commit-order digest tb-core replicas carry, so the two digest
/// families are directly comparable in reports.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// One FNV-1a step: folds `v` into `digest`.
pub fn fnv_fold(digest: u64, v: u64) -> u64 {
    (digest ^ v).wrapping_mul(FNV_PRIME)
}

fn fold_value(digest: u64, value: &Value) -> u64 {
    match value {
        Value::None => fnv_fold(digest, 0),
        Value::Int(i) => fnv_fold(fnv_fold(digest, 1), *i as u64),
        Value::Bytes(bytes) => bytes
            .iter()
            .fold(fnv_fold(digest, 2), |d, byte| fnv_fold(d, u64::from(*byte))),
    }
}

/// The outcome of executing (or preplaying) one batch of transactions.
#[derive(Clone, Debug, Default)]
pub struct BatchResult {
    /// The transactions in their serialized execution order, together with
    /// the reads and writes each made, in execution order: the reads are a
    /// block's single-shard payload, the writes what the proposer applies.
    pub preplayed: Vec<PreplayedTx>,
    /// Total number of re-executions: aborts under OCC and 2PL-No-Wait,
    /// repairs of speculative outcomes in the CE's serial pass (the paper's
    /// "# of Re-executions" metric counts the *average* per transaction,
    /// which is `reexecutions / preplayed.len()`).
    pub reexecutions: u64,
    /// Wall-clock time spent executing the batch.
    pub elapsed: Duration,
    /// Sum over transactions of the time between first execution attempt and
    /// commit; divided by the batch size this is the average transaction
    /// latency reported in Figures 11 and 12.
    pub total_latency: Duration,
}

/// The commit log of an engine that numbers transactions as they commit:
/// the batch so far in serialized order, and the sum of its transactions'
/// times from first attempt to commit.
pub(crate) struct CommitLog {
    preplayed: Vec<PreplayedTx>,
    total_latency: Duration,
}

impl CommitLog {
    /// An empty log for a batch of `txs` transactions.
    pub(crate) fn with_capacity(txs: usize) -> Self {
        CommitLog {
            preplayed: Vec::with_capacity(txs),
            total_latency: Duration::ZERO,
        }
    }

    /// Commits `tx` with `outcome` at the next place of the order, `latency`
    /// after its first attempt began.
    pub(crate) fn commit(&mut self, tx: &Transaction, outcome: ExecOutcome, latency: Duration) {
        let order = self.preplayed.len() as u32;
        self.preplayed
            .push(PreplayedTx::new(tx.clone(), outcome, order));
        self.total_latency += latency;
    }

    /// The result of the batch that began at `started`, after
    /// `reexecutions` re-executions.
    pub(crate) fn finish(self, reexecutions: u64, started: Instant) -> BatchResult {
        BatchResult {
            preplayed: self.preplayed,
            reexecutions,
            elapsed: started.elapsed(),
            total_latency: self.total_latency,
        }
    }
}

impl BatchResult {
    /// Number of committed transactions.
    pub fn committed(&self) -> usize {
        self.preplayed.len()
    }

    /// Throughput in transactions per second over the batch.
    pub fn throughput_tps(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.committed() as f64 / self.elapsed.as_secs_f64()
    }

    /// The combined write batch of the serialized order (later transactions
    /// overwrite earlier ones), ready to be applied to a store: what a
    /// replica that replays the batch's block derives, too.
    pub fn write_batch(&self) -> WriteBatch {
        let mut serialized: Vec<&PreplayedTx> = self.preplayed.iter().collect();
        serialized.sort_by_key(|p| p.order);
        let writes = self
            .preplayed
            .iter()
            .map(|p| p.outcome.write_set.len())
            .sum();
        let mut batch = WriteBatch::with_capacity(writes);
        for p in serialized {
            batch.extend_from_write_set(&p.outcome.write_set);
        }
        batch
    }

    /// Applies the batch's write sets to a store in serialized order, as one
    /// [`Store::apply_batch`] of [`BatchResult::write_batch`].
    pub fn apply_to(&self, store: &MemStore) {
        store.apply_batch(&self.write_batch());
    }

    /// Folds the serialized execution order and every transaction's id,
    /// read set and write set, as recorded, into a 64-bit FNV-1a digest. The
    /// transactions are walked in serialized order, and every engine records
    /// accesses in execution order, so two runs of the same batch produce
    /// the same digest iff they agree on the order and on every access —
    /// digest equality across worker counts is the machine-checked
    /// determinism proof that multi-worker preplay serializes to one order.
    pub fn commit_digest(&self) -> u64 {
        let mut sorted: Vec<&PreplayedTx> = self.preplayed.iter().collect();
        sorted.sort_by_key(|p| p.order);
        let mut digest = FNV_OFFSET;
        for p in sorted {
            digest = fnv_fold(digest, u64::from(p.order));
            digest = fnv_fold(digest, p.tx.id.as_inner());
            for set in [&p.outcome.read_set, &p.outcome.write_set] {
                digest = fnv_fold(digest, set.len() as u64);
                for rec in set {
                    digest = fnv_fold(digest, rec.key.encode());
                    digest = fold_value(digest, &rec.value);
                }
            }
        }
        digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_storage::KvRead;
    use tb_types::{AccessRecord, ClientId, ContractCall, Key, SimTime, TxId};

    fn preplayed(id: u64, order: u32, writes: &[(Key, i64)]) -> PreplayedTx {
        let tx = Transaction::new(
            TxId::new(id),
            ClientId::new(0),
            ContractCall::Noop,
            4,
            SimTime::ZERO,
        );
        let mut outcome = ExecOutcome::default();
        for (k, v) in writes {
            outcome
                .write_set
                .push(AccessRecord::new(*k, Value::int(*v)));
        }
        PreplayedTx::new(tx, outcome, order)
    }

    #[test]
    fn empty_batch_has_zero_metrics() {
        let r = BatchResult::default();
        assert_eq!(r.committed(), 0);
        assert_eq!(r.throughput_tps(), 0.0);
    }

    #[test]
    fn write_batch_respects_serialized_order_not_vec_order() {
        let r = BatchResult {
            preplayed: vec![
                preplayed(2, 1, &[(Key::scratch(1), 20)]),
                preplayed(1, 0, &[(Key::scratch(1), 10)]),
            ],
            ..BatchResult::default()
        };
        // Order index 1 (value 20) must win over order index 0 (value 10).
        let store = MemStore::new();
        r.apply_to(&store);
        assert_eq!(store.get(&Key::scratch(1)), Value::int(20));
    }

    #[test]
    fn metrics_are_computed_from_counts() {
        let r = BatchResult {
            preplayed: vec![preplayed(1, 0, &[]), preplayed(2, 1, &[])],
            elapsed: Duration::from_millis(10),
            ..BatchResult::default()
        };
        assert_eq!(r.committed(), 2);
        assert!((r.throughput_tps() - 200.0).abs() < 1.0);
    }

    #[test]
    fn commit_digest_is_sensitive_to_order_values_and_ids() {
        let base = BatchResult {
            preplayed: vec![
                preplayed(1, 0, &[(Key::scratch(1), 10)]),
                preplayed(2, 1, &[(Key::scratch(2), 20)]),
            ],
            ..BatchResult::default()
        };
        let same = base.clone();
        assert_eq!(base.commit_digest(), same.commit_digest());

        // Vec order does not matter, serialized order does.
        let mut shuffled = base.clone();
        shuffled.preplayed.swap(0, 1);
        assert_eq!(base.commit_digest(), shuffled.commit_digest());

        let mut reordered = base.clone();
        reordered.preplayed[0].order = 1;
        reordered.preplayed[1].order = 0;
        assert_ne!(base.commit_digest(), reordered.commit_digest());

        let mut tampered = base.clone();
        tampered.preplayed[0].outcome.write_set[0].value = Value::int(11);
        assert_ne!(base.commit_digest(), tampered.commit_digest());

        let mut renamed = base.clone();
        renamed.preplayed[0].tx.id = TxId::new(9);
        assert_ne!(base.commit_digest(), renamed.commit_digest());
    }
}
