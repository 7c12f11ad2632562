//! The concurrency controller: the operation-level API executor workers use.
//!
//! The controller wraps the [`DependencyGraph`] in a mutex and implements
//! the insertion rules of paper Sections 8.2–8.4:
//!
//! * a **read** takes its value from the latest writer of the key (walking
//!   back through earlier writers, and finally committed storage, when the
//!   latest writer cannot be ordered before the reader), creating a data-flow
//!   edge from the chosen writer and an ordering edge towards the writer that
//!   follows it;
//! * a **write** is ordered after the current chain tail and after every
//!   active reader of the key; rewriting a key whose previous value has
//!   already been read by others cascades an abort through those readers
//!   (Table 1, time 5);
//! * conflicts that cannot be rescheduled abort the issuing transaction and
//!   its data-flow dependents.
//!
//! Transactions commit in dependency order; the commit sequence is the
//! serialized execution order shipped in the block.

use crate::cc::graph::{DependencyGraph, TxIdx, TxnStatus};
use parking_lot::Mutex;
use std::time::{Duration, Instant};
use tb_contracts::{CallResult, ExecError};
use tb_storage::KvRead;
use tb_types::{Key, Transaction, Value};

/// A lease on a transaction for one execution attempt. Operations carry the
/// epoch so that attempts invalidated by a cascade abort are rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxHandle {
    /// Index of the transaction in the batch.
    pub idx: TxIdx,
    /// Execution epoch this handle is valid for.
    pub epoch: u64,
}

/// Result of reporting a transaction as finished.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FinishStatus {
    /// The transaction committed immediately.
    Committed,
    /// The transaction is waiting for its dependencies to commit; it will be
    /// committed automatically once they do.
    Pending,
    /// The transaction was aborted (possibly by a concurrent cascade) and
    /// must be re-executed.
    Aborted,
}

/// The concurrency controller shared by all executor workers of one batch.
pub struct ConcurrencyController<'a> {
    graph: Mutex<DependencyGraph>,
    base: &'a (dyn KvRead + Sync),
}

impl<'a> ConcurrencyController<'a> {
    /// Creates a controller whose root reads come from `base` (the committed
    /// storage of the shard).
    pub fn new(base: &'a (dyn KvRead + Sync)) -> Self {
        ConcurrencyController {
            graph: Mutex::new(DependencyGraph::new()),
            base,
        }
    }

    /// Registers every transaction of a batch in order.
    pub fn register_batch(&self, txs: &[Transaction]) -> Vec<TxIdx> {
        let mut graph = self.graph.lock();
        txs.iter().map(|tx| graph.register(tx.id)).collect()
    }

    /// Starts (or restarts) an execution attempt for `idx`. Returns `None`
    /// when the transaction is not in a runnable state — e.g. another worker
    /// already picked it up, or it has already committed.
    pub fn begin(&self, idx: TxIdx) -> Option<TxHandle> {
        let mut graph = self.graph.lock();
        let node = graph.node_mut(idx);
        match node.status {
            TxnStatus::Pending | TxnStatus::Aborted => {
                node.status = TxnStatus::Active;
                if node.started_at.is_none() {
                    node.started_at = Some(Instant::now());
                }
                Some(TxHandle {
                    idx,
                    epoch: node.epoch,
                })
            }
            _ => None,
        }
    }

    fn check_live(graph: &DependencyGraph, handle: TxHandle) -> Result<(), ExecError> {
        let node = graph.node(handle.idx);
        if node.epoch != handle.epoch || node.status != TxnStatus::Active {
            return Err(ExecError::aborted("superseded by a concurrent abort"));
        }
        Ok(())
    }

    /// Performs a read on behalf of `handle` (paper Sections 8.2–8.3).
    pub fn read(&self, handle: TxHandle, key: Key) -> Result<Value, ExecError> {
        let mut graph = self.graph.lock();
        Self::check_live(&graph, handle)?;
        let idx = handle.idx;

        // Read-after-own-write and repeated reads are served from the node's
        // own records.
        if let Some(record) = graph.node(idx).record(&key) {
            if let Some(write) = &record.last_write {
                return Ok(write.clone());
            }
            if let Some(read) = &record.first_read {
                return Ok(read.clone());
            }
        }

        // Walk the write chain from the latest writer towards the oldest,
        // looking for a writer the reader can be placed after (and, when the
        // writer is not the tail, before the next writer in the chain).
        let chain = graph.write_chain(&key);
        let mut source = None;
        for pos in (0..chain.len()).rev() {
            let writer = chain[pos];
            if writer == idx {
                continue;
            }
            let next = chain.get(pos + 1).copied();
            if let Some(next) = next {
                // Reading an overwritten value is only valid while the
                // overwriting transaction has not committed yet.
                if graph.node(next).status == TxnStatus::Committed {
                    break;
                }
            }
            if graph.can_add_edge(writer, idx) && next.is_none_or(|n| graph.can_add_edge(idx, n)) {
                source = Some((writer, next));
                break;
            }
        }
        let first = chain.first().copied();

        if let Some((writer, next)) = source {
            let value = graph
                .node(writer)
                .record(&key)
                .and_then(|r| r.last_write.clone())
                .expect("chain members always carry a write record");
            graph
                .add_edge(writer, idx)
                .expect("feasibility was just checked");
            if let Some(next) = next {
                graph
                    .add_edge(idx, next)
                    .expect("feasibility was just checked");
            }
            graph.record_read(idx, key, value.clone(), Some(writer));
            return Ok(value);
        }

        // Root fallback: read committed storage, ordering the reader before
        // the first uncommitted writer of the key.
        let root_ok = match first {
            None => true,
            Some(first) => {
                graph.node(first).status != TxnStatus::Committed && graph.can_add_edge(idx, first)
            }
        };
        if root_ok {
            let value = self.base.get(&key);
            if let Some(first) = first {
                graph
                    .add_edge(idx, first)
                    .expect("feasibility was just checked");
            }
            graph.record_read(idx, key, value.clone(), None);
            return Ok(value);
        }

        // No valid position exists: abort the reader (Section 8.4, case 1 —
        // extended to a cascade if it already produced writes others read).
        graph.abort_cascade(idx);
        Err(ExecError::aborted(format!(
            "no serializable position for read of {key}"
        )))
    }

    /// Performs a write on behalf of `handle` (paper Sections 8.2–8.4).
    pub fn write(&self, handle: TxHandle, key: Key, value: Value) -> Result<(), ExecError> {
        let mut graph = self.graph.lock();
        Self::check_live(&graph, handle)?;
        let idx = handle.idx;

        let already_wrote = graph
            .node(idx)
            .record(&key)
            .is_some_and(|r| r.last_write.is_some());
        if already_wrote {
            // Rewriting a value that other transactions already read makes
            // their reads stale: cascade-abort them (Table 1, time 5).
            let stale_readers: Vec<TxIdx> = graph.dependent_readers(&key, idx).collect();
            for reader in stale_readers {
                // The reader may already have been aborted by an earlier
                // iteration of this loop.
                if graph.node(reader).status != TxnStatus::Aborted {
                    graph.abort_cascade(reader);
                }
            }
            graph.record_write(idx, key, value);
            return Ok(());
        }

        // First write of this transaction to the key: find a position in the
        // key's write chain where the writer can be placed. Appending (the
        // common case) serializes it last; if that is impossible — e.g. a
        // later writer already depends on this transaction — the writer is
        // rescheduled to an earlier slot instead of aborting (Figure 1).
        let chain = graph.write_chain(&key);
        // The order of already-committed writers is fixed, so the new writer
        // can only be placed after the last committed one.
        let min_pos = chain
            .iter()
            .rposition(|&w| graph.node(w).status == TxnStatus::Committed)
            .map_or(0, |i| i + 1);
        let readers = graph
            .key_state(&key)
            .map_or(&[][..], |state| &state.readers);

        let mut placement = None;
        for pos in (min_pos..=chain.len()).rev() {
            let prev = pos.checked_sub(1).map(|p| chain[p]);
            let next = chain.get(pos).copied();
            if !(prev.is_none_or(|p| graph.can_add_edge(p, idx))
                && next.is_none_or(|n| graph.can_add_edge(idx, n)))
            {
                continue;
            }
            // Readers that observed a value older than this position must be
            // serialized before the new writer.
            let mut reader_edges = Vec::new();
            let mut feasible = true;
            for &reader in readers {
                let node = graph.node(reader);
                if reader == idx || node.status == TxnStatus::Committed {
                    continue;
                }
                let source = node.record(&key).and_then(|r| r.read_from);
                let source_pos = source.and_then(|w| chain.iter().position(|&c| c == w));
                let reads_older_value = source_pos.is_none_or(|j| j < pos);
                if reads_older_value {
                    if graph.can_add_edge(reader, idx) {
                        reader_edges.push(reader);
                    } else {
                        feasible = false;
                        break;
                    }
                }
            }
            if feasible {
                placement = Some((pos, prev, next, reader_edges));
                break;
            }
        }

        let Some((pos, prev, next, reader_edges)) = placement else {
            graph.abort_cascade(idx);
            return Err(ExecError::aborted(format!(
                "no serializable position for write of {key}"
            )));
        };
        let mut edges_ok = true;
        if let Some(prev) = prev {
            edges_ok &= graph.add_edge(prev, idx).is_ok();
        }
        if let Some(next) = next {
            edges_ok &= graph.add_edge(idx, next).is_ok();
        }
        for reader in reader_edges {
            edges_ok &= graph.add_edge(reader, idx).is_ok();
        }
        if !edges_ok {
            // The individually-checked edges interacted through a path the
            // feasibility check could not see; fall back to aborting.
            graph.abort_cascade(idx);
            return Err(ExecError::aborted(format!(
                "conflicting placement for write of {key}"
            )));
        }
        graph.record_write_at(idx, key, value, pos);
        Ok(())
    }

    /// Reports that the executor finished running the transaction.
    pub fn finish(&self, handle: TxHandle, result: CallResult) -> FinishStatus {
        let mut graph = self.graph.lock();
        if Self::check_live(&graph, handle).is_err() {
            return FinishStatus::Aborted;
        }
        let node = graph.node_mut(handle.idx);
        node.result = Some(result);
        node.status = TxnStatus::Finishing;
        if graph.try_commit(handle.idx) {
            FinishStatus::Committed
        } else {
            FinishStatus::Pending
        }
    }

    /// Drains the queue of transactions aborted by cascades; the executor
    /// pool re-schedules them.
    pub fn take_aborted(&self) -> Vec<TxIdx> {
        self.graph.lock().take_pending_aborts()
    }

    /// Number of committed transactions so far.
    pub fn committed_count(&self) -> usize {
        self.graph.lock().committed_count()
    }

    /// True once every registered transaction committed.
    pub fn all_committed(&self) -> bool {
        self.graph.lock().all_committed()
    }

    /// Number of re-execution attempts recorded for a transaction.
    pub fn retries(&self, idx: TxIdx) -> u64 {
        self.graph.lock().node(idx).retries
    }

    /// Total number of aborts across the batch.
    pub fn total_aborts(&self) -> u64 {
        self.graph.lock().total_aborts()
    }

    /// The committed execution order (indices into the batch).
    pub fn committed_order(&self) -> Vec<TxIdx> {
        self.graph.lock().committed_order().to_vec()
    }

    /// The speculative outcome of every transaction, indexed by batch
    /// position, plus the total and per-transaction latencies (first
    /// execution attempt to speculative commit). A `None` entry means the
    /// transaction never committed speculatively; the deterministic finalize
    /// pass of [`ConcurrentExecutor`](crate::ce::ConcurrentExecutor)'s preplay
    /// re-executes such entries serially.
    pub fn collect_speculative(
        &self,
        n: usize,
    ) -> (Vec<Option<tb_types::ExecOutcome>>, Duration, Vec<Duration>) {
        let graph = self.graph.lock();
        let mut outcomes = vec![None; n];
        let mut total_latency = Duration::ZERO;
        let mut latencies = Vec::with_capacity(n);
        for (idx, node) in graph.iter() {
            if node.status != TxnStatus::Committed {
                continue;
            }
            if let (Some(started), Some(committed)) = (node.started_at, node.committed_at) {
                let latency = committed.duration_since(started);
                total_latency += latency;
                latencies.push(latency);
            }
            if idx < n {
                outcomes[idx] = Some(node.outcome());
            }
        }
        (outcomes, total_latency, latencies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_storage::MemStore;
    use tb_types::{ClientId, ContractCall, SimTime, TxId};

    fn tx(id: u64) -> Transaction {
        Transaction::new(
            TxId::new(id),
            ClientId::new(0),
            ContractCall::Noop,
            4,
            SimTime::ZERO,
        )
    }

    fn key(row: u64) -> Key {
        Key::scratch(row)
    }

    fn setup(store: &MemStore, n: u64) -> (ConcurrencyController<'_>, Vec<Transaction>) {
        let txs: Vec<Transaction> = (0..n).map(tx).collect();
        let cc = ConcurrencyController::new(store);
        cc.register_batch(&txs);
        (cc, txs)
    }

    #[test]
    fn reads_fall_back_to_storage_through_the_root() {
        let store = MemStore::new();
        store.load([(key(1), Value::int(42))]);
        let (cc, _txs) = setup(&store, 1);
        let h = cc.begin(0).unwrap();
        assert_eq!(cc.read(h, key(1)).unwrap(), Value::int(42));
        assert_eq!(cc.read(h, key(9)).unwrap(), Value::None);
        assert_eq!(
            cc.finish(h, CallResult::ok(Value::None)),
            FinishStatus::Committed
        );
        assert!(cc.all_committed());
    }

    #[test]
    fn read_observes_uncommitted_write_and_waits_for_it() {
        let store = MemStore::new();
        let (cc, _txs) = setup(&store, 2);
        let writer = cc.begin(0).unwrap();
        let reader = cc.begin(1).unwrap();
        cc.write(writer, key(1), Value::int(7)).unwrap();
        // The reader sees the uncommitted value (read-uncommitted inside the
        // preplay batch) ...
        assert_eq!(cc.read(reader, key(1)).unwrap(), Value::int(7));
        // ... but cannot commit before the writer.
        assert_eq!(
            cc.finish(reader, CallResult::ok(Value::None)),
            FinishStatus::Pending
        );
        assert_eq!(
            cc.finish(writer, CallResult::ok(Value::None)),
            FinishStatus::Committed
        );
        assert!(cc.all_committed());
        assert_eq!(cc.committed_order(), vec![0, 1]);
    }

    #[test]
    fn write_write_order_follows_first_write_arrival() {
        let store = MemStore::new();
        let (cc, _txs) = setup(&store, 2);
        let a = cc.begin(0).unwrap();
        let b = cc.begin(1).unwrap();
        cc.write(a, key(1), Value::int(1)).unwrap();
        cc.write(b, key(1), Value::int(2)).unwrap();
        cc.finish(b, CallResult::ok(Value::None));
        cc.finish(a, CallResult::ok(Value::None));
        assert!(cc.all_committed());
        // Serialized order puts a's write first, so the final value is b's.
        assert_eq!(cc.committed_order(), vec![0, 1]);
        let (outcomes, _, _) = cc.collect_speculative(2);
        assert_eq!(
            outcomes[1].as_ref().unwrap().written_value(&key(1)),
            Some(&Value::int(2))
        );
    }

    #[test]
    fn rescheduling_avoids_the_figure_1_abort() {
        // T1: A = B + 1 (reads B, writes A); T2: A = A + 1 (reads A, writes A).
        // T2 reads A before T1 writes it; the CC orders T2 before T1 instead
        // of aborting either transaction.
        let store = MemStore::new();
        store.load([(key(10), Value::int(5))]); // A
        store.load([(key(11), Value::int(8))]); // B
        let (cc, _txs) = setup(&store, 2);
        let t1 = cc.begin(0).unwrap();
        let t2 = cc.begin(1).unwrap();

        // T2 starts first and reads A from storage.
        let a_for_t2 = cc.read(t2, key(10)).unwrap().as_int();
        // T1 reads B and writes A.
        let b = cc.read(t1, key(11)).unwrap().as_int();
        cc.write(t1, key(10), Value::int(b + 1)).unwrap();
        // T2 writes A based on its earlier read — no abort is needed because
        // T2 can be serialized before T1.
        cc.write(t2, key(10), Value::int(a_for_t2 + 1)).unwrap();

        assert_eq!(
            cc.finish(t2, CallResult::ok(Value::None)),
            FinishStatus::Committed
        );
        assert_eq!(
            cc.finish(t1, CallResult::ok(Value::None)),
            FinishStatus::Committed
        );
        assert_eq!(cc.total_aborts(), 0);
        assert_eq!(cc.committed_order(), vec![1, 0]);
    }

    #[test]
    fn rewriting_a_value_read_by_others_cascades_aborts_table1() {
        // Table 1 walk-through: T1 writes D=3, T2 and T3 read it, then T1
        // writes D=5 which invalidates both readers; they re-execute and the
        // final order is [T1, T3, T2].
        let store = MemStore::new();
        store.load([(key(0), Value::int(3))]); // initial D = 3
        let (cc, _txs) = setup(&store, 3);
        let t1 = cc.begin(0).unwrap();
        let t2 = cc.begin(1).unwrap();
        let t3 = cc.begin(2).unwrap();

        // time 1-3: T1 writes D=3; T2 and T3 read D from T1.
        cc.write(t1, key(0), Value::int(3)).unwrap();
        assert_eq!(cc.read(t2, key(0)).unwrap(), Value::int(3));
        assert_eq!(cc.read(t3, key(0)).unwrap(), Value::int(3));
        // time 4: T3 finishes and must wait for T1.
        assert_eq!(
            cc.finish(t3, CallResult::ok(Value::None)),
            FinishStatus::Pending
        );
        // time 5: T1 writes D=5 — T2 and T3 read a stale value and abort.
        cc.write(t1, key(0), Value::int(5)).unwrap();
        let mut aborted = cc.take_aborted();
        aborted.sort_unstable();
        assert_eq!(aborted, vec![1, 2]);
        // time 6: T3 re-executes and now reads D=5 from T1.
        let t3 = cc.begin(2).unwrap();
        assert_eq!(cc.read(t3, key(0)).unwrap(), Value::int(5));
        // time 7-8: T1 commits, then T3 commits.
        assert_eq!(
            cc.finish(t1, CallResult::ok(Value::None)),
            FinishStatus::Committed
        );
        assert_eq!(
            cc.finish(t3, CallResult::ok(Value::None)),
            FinishStatus::Committed
        );
        // time 9-12: T2 re-executes, reads D=5 and writes D=2, then commits.
        let t2 = cc.begin(1).unwrap();
        assert_eq!(cc.read(t2, key(0)).unwrap(), Value::int(5));
        cc.write(t2, key(0), Value::int(2)).unwrap();
        assert_eq!(
            cc.finish(t2, CallResult::ok(Value::None)),
            FinishStatus::Committed
        );

        assert!(cc.all_committed());
        assert_eq!(cc.committed_order(), vec![0, 2, 1]);
        assert_eq!(cc.total_aborts(), 2);
        let (outcomes, _, latencies) = cc.collect_speculative(3);
        assert!(outcomes.iter().all(Option::is_some));
        assert_eq!(latencies.len(), 3);
    }

    #[test]
    fn stale_handles_are_rejected_after_an_abort() {
        let store = MemStore::new();
        let (cc, _txs) = setup(&store, 2);
        let t1 = cc.begin(0).unwrap();
        let t2 = cc.begin(1).unwrap();
        cc.write(t1, key(0), Value::int(1)).unwrap();
        assert_eq!(cc.read(t2, key(0)).unwrap(), Value::int(1));
        // T1 rewrites the key: T2 is aborted.
        cc.write(t1, key(0), Value::int(2)).unwrap();
        // The stale handle can no longer be used.
        assert!(cc.read(t2, key(0)).unwrap_err().is_abort());
        assert!(cc.write(t2, key(0), Value::int(9)).unwrap_err().is_abort());
        assert_eq!(
            cc.finish(t2, CallResult::ok(Value::None)),
            FinishStatus::Aborted
        );
        // Re-beginning yields a fresh epoch that works again.
        let t2 = cc.begin(1).unwrap();
        assert_eq!(cc.read(t2, key(0)).unwrap(), Value::int(2));
    }

    #[test]
    fn cyclic_conflict_aborts_the_issuing_transaction() {
        // T1 reads A then writes B; T2 reads B then writes A. Whatever edges
        // exist, one of the two writes closes a cycle and aborts its issuer.
        let store = MemStore::new();
        store.load([(key(1), Value::int(1))]); // A
        store.load([(key(2), Value::int(2))]); // B
        let (cc, _txs) = setup(&store, 2);
        let t1 = cc.begin(0).unwrap();
        let t2 = cc.begin(1).unwrap();
        let _ = cc.read(t1, key(1)).unwrap();
        let _ = cc.read(t2, key(2)).unwrap();
        cc.write(t1, key(2), Value::int(20)).unwrap(); // T2 (reader of B) -> T1
        let err = cc.write(t2, key(1), Value::int(10)); // would need T1 -> T2: cycle
        assert!(err.unwrap_err().is_abort());
        // T1 is unaffected and commits; T2 re-executes afterwards.
        assert_eq!(
            cc.finish(t1, CallResult::ok(Value::None)),
            FinishStatus::Committed
        );
        let t2 = cc.begin(1).unwrap();
        assert_eq!(cc.read(t2, key(2)).unwrap(), Value::int(20));
        cc.write(t2, key(1), Value::int(10)).unwrap();
        assert_eq!(
            cc.finish(t2, CallResult::ok(Value::None)),
            FinishStatus::Committed
        );
        assert!(cc.all_committed());
    }

    #[test]
    fn reader_can_be_scheduled_before_an_existing_writer_it_cannot_follow() {
        // Figure 10a-style recovery: the reader walks back to the root value
        // when reading from the latest writer would create a cycle.
        let store = MemStore::new();
        store.load([(key(1), Value::int(100))]); // A
        store.load([(key(2), Value::int(200))]); // B
        let (cc, _txs) = setup(&store, 2);
        let t1 = cc.begin(0).unwrap();
        let t3 = cc.begin(1).unwrap();
        // T3 reads A (from root) and writes B.
        assert_eq!(cc.read(t3, key(1)).unwrap(), Value::int(100));
        cc.write(t3, key(2), Value::int(3)).unwrap();
        // T1 writes A: ordered after T3 (reader of A).
        cc.write(t1, key(1), Value::int(5)).unwrap();
        // T1 now reads B. Reading from T3 would require T3 -> T1 ... which
        // already exists, so that is fine — but reading from T3 *and* being
        // ordered before it is impossible. The controller serves the read
        // from T3 (the latest writer) because T3 -> T1 is already the edge
        // direction. The value is T3's uncommitted write.
        assert_eq!(cc.read(t1, key(2)).unwrap(), Value::int(3));
        assert_eq!(
            cc.finish(t1, CallResult::ok(Value::None)),
            FinishStatus::Pending
        );
        assert_eq!(
            cc.finish(t3, CallResult::ok(Value::None)),
            FinishStatus::Committed
        );
        assert!(cc.all_committed());
        assert_eq!(cc.committed_order(), vec![1, 0]);
        assert_eq!(cc.total_aborts(), 0);
    }

    #[test]
    fn collect_speculative_indexes_outcomes_by_batch_position() {
        let store = MemStore::new();
        let (cc, _txs) = setup(&store, 3);
        for idx in [2usize, 0, 1] {
            let h = cc.begin(idx).unwrap();
            cc.write(h, key(idx as u64 + 100), Value::int(idx as i64))
                .unwrap();
            cc.finish(h, CallResult::ok(Value::int(idx as i64)));
        }
        assert_eq!(cc.committed_order(), vec![2, 0, 1]);
        let (outcomes, _, _) = cc.collect_speculative(3);
        for (idx, outcome) in outcomes.iter().enumerate() {
            let outcome = outcome.as_ref().expect("every transaction committed");
            assert_eq!(outcome.return_value, Value::int(idx as i64));
        }
    }

    #[test]
    fn begin_refuses_transactions_in_flight_or_done() {
        let store = MemStore::new();
        let (cc, _txs) = setup(&store, 1);
        let h = cc.begin(0).unwrap();
        assert!(cc.begin(0).is_none(), "active transactions cannot restart");
        cc.finish(h, CallResult::ok(Value::None));
        assert!(
            cc.begin(0).is_none(),
            "committed transactions cannot restart"
        );
    }
}
