//! The dependency graph data structure used by the concurrency controller.
//!
//! Nodes are transactions; each node keeps, per key, the *first read* and
//! the *last write* together with their values (paper Section 8.1). Edges
//! `u -> v` mean "u must commit before v". Per key the graph additionally
//! keeps the *write chain* (the writers in their tentative serialization
//! order) and the set of readers, which is what the insertion rules of
//! Sections 8.2–8.4 operate on.
//!
//! The structure itself is not thread-safe; [`super::controller`] wraps it in
//! a mutex and exposes the operation-level API used by executor workers.

use std::cell::RefCell;
use std::collections::HashSet;
use std::time::Instant;
use tb_contracts::CallResult;
use tb_types::{ExecOutcome, Key, KeyHashBuilder, KeyMap, TxId, Value};

/// Index of a transaction inside one batch.
pub type TxIdx = usize;

/// A set of transaction indices, hashed like the key maps beside it.
pub type TxSet = HashSet<TxIdx, KeyHashBuilder>;

/// Lifecycle of a transaction inside the concurrency controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnStatus {
    /// Registered but not yet picked up by an executor.
    Pending,
    /// Currently executing operations.
    Active,
    /// The executor reported completion; waiting for dependencies to commit.
    Finishing,
    /// Committed; part of the serialized order.
    Committed,
    /// Aborted; must be re-executed from scratch.
    Aborted,
}

/// Per-key record kept inside a transaction node: at most the first read and
/// the last write (Section 8.1, "we remain at most two operations in the
/// nodes"), and where the first read took its value from.
#[derive(Clone, Debug)]
pub struct KeyRecord {
    /// The key.
    pub key: Key,
    /// Value observed by the first (external) read of the key.
    pub first_read: Option<Value>,
    /// Value produced by the last write to the key.
    pub last_write: Option<Value>,
    /// The writer the first read took its value from (`None` means the
    /// root, i.e. committed storage, or no external read).
    pub read_from: Option<TxIdx>,
}

/// One transaction node.
#[derive(Debug)]
pub struct TxnNode {
    /// The transaction id this node stands for.
    pub id: TxId,
    /// Re-execution epoch; bumped on every abort so operations issued by a
    /// stale execution attempt can be rejected.
    pub epoch: u64,
    /// Current lifecycle state.
    pub status: TxnStatus,
    /// Per-key first-read / last-write records, sorted by key. A
    /// transaction touches a handful of keys, so a sorted `Vec` beats a map.
    pub records: Vec<KeyRecord>,
    /// Incoming edges: transactions that must commit before this one.
    pub preds: Vec<TxIdx>,
    /// Outgoing edges: transactions that must commit after this one.
    pub succs: Vec<TxIdx>,
    /// Result reported by the executor on completion.
    pub result: Option<CallResult>,
    /// Position in the committed order, once committed.
    pub commit_index: Option<u32>,
    /// Number of times the transaction was re-executed due to aborts.
    pub retries: u64,
    /// First time an executor started working on the transaction.
    pub started_at: Option<Instant>,
    /// Time the transaction committed.
    pub committed_at: Option<Instant>,
}

impl TxnNode {
    fn new(id: TxId) -> Self {
        TxnNode {
            id,
            epoch: 0,
            status: TxnStatus::Pending,
            records: Vec::new(),
            preds: Vec::new(),
            succs: Vec::new(),
            result: None,
            commit_index: None,
            retries: 0,
            started_at: None,
            committed_at: None,
        }
    }

    /// True if the node has any write record.
    pub fn has_writes(&self) -> bool {
        self.records.iter().any(|r| r.last_write.is_some())
    }

    /// The node's record of `key`, if it touched the key.
    pub fn record(&self, key: &Key) -> Option<&KeyRecord> {
        let at = self.records.binary_search_by_key(key, |r| r.key).ok()?;
        Some(&self.records[at])
    }

    fn record_mut(&mut self, key: Key) -> &mut KeyRecord {
        let at = self
            .records
            .binary_search_by_key(&key, |r| r.key)
            .unwrap_or_else(|at| {
                let record = KeyRecord {
                    key,
                    first_read: None,
                    last_write: None,
                    read_from: None,
                };
                self.records.insert(at, record);
                at
            });
        &mut self.records[at]
    }

    /// Builds the externally visible outcome of the node.
    pub fn outcome(&self) -> ExecOutcome {
        let mut outcome = ExecOutcome::empty();
        for record in &self.records {
            if let Some(read) = &record.first_read {
                outcome.record_read(record.key, read.clone());
            }
            if let Some(write) = &record.last_write {
                outcome.record_write(record.key, write.clone());
            }
        }
        if let Some(result) = &self.result {
            outcome.return_value = result.return_value.clone();
            outcome.logically_aborted = result.logically_aborted;
        }
        outcome
    }
}

/// Per-key bookkeeping.
#[derive(Clone, Debug, Default)]
pub struct KeyState {
    /// Writers of the key in tentative serialization order.
    pub write_chain: Vec<TxIdx>,
    /// Transactions that performed an external read of the key.
    pub readers: Vec<TxIdx>,
}

/// Error returned when an edge insertion would create a cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CycleError;

/// Working memory of [`DependencyGraph::reaches`], kept between calls so a
/// search allocates nothing once the buffers have grown to the batch size.
#[derive(Debug, Default)]
struct ReachScratch {
    /// `visited[i] == generation` marks node `i` as seen by the current
    /// search; bumping `generation` clears every mark at once.
    visited: Vec<u64>,
    generation: u64,
    frontier: Vec<TxIdx>,
}

/// The dependency graph over one batch of transactions.
#[derive(Debug, Default)]
pub struct DependencyGraph {
    nodes: Vec<TxnNode>,
    keys: KeyMap<KeyState>,
    committed_order: Vec<TxIdx>,
    /// Transactions aborted by cascades that the executor pool has not yet
    /// been told to re-execute.
    pending_aborts: Vec<TxIdx>,
    /// Total number of aborts (re-executions) across the batch.
    total_aborts: u64,
    reach_scratch: RefCell<ReachScratch>,
}

impl DependencyGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        DependencyGraph::default()
    }

    /// Registers a transaction and returns its index.
    pub fn register(&mut self, id: TxId) -> TxIdx {
        let idx = self.nodes.len();
        self.nodes.push(TxnNode::new(id));
        idx
    }

    /// Number of registered transactions.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no transaction is registered.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Immutable access to a node.
    pub fn node(&self, idx: TxIdx) -> &TxnNode {
        &self.nodes[idx]
    }

    /// Mutable access to a node.
    pub fn node_mut(&mut self, idx: TxIdx) -> &mut TxnNode {
        &mut self.nodes[idx]
    }

    /// Per-key state (empty default if the key was never touched).
    pub fn key_state(&self, key: &Key) -> Option<&KeyState> {
        self.keys.get(key)
    }

    /// The committed order so far.
    pub fn committed_order(&self) -> &[TxIdx] {
        &self.committed_order
    }

    /// Number of committed transactions.
    pub fn committed_count(&self) -> usize {
        self.committed_order.len()
    }

    /// Total number of aborts recorded.
    pub fn total_aborts(&self) -> u64 {
        self.total_aborts
    }

    /// Drains the queue of cascade-aborted transactions.
    pub fn take_pending_aborts(&mut self) -> Vec<TxIdx> {
        std::mem::take(&mut self.pending_aborts)
    }

    /// True if `from` can reach `to` by following outgoing edges.
    pub fn reaches(&self, from: TxIdx, to: TxIdx) -> bool {
        if from == to {
            return true;
        }
        if self.nodes[from].succs.is_empty() {
            return false;
        }
        let mut scratch = self.reach_scratch.borrow_mut();
        let ReachScratch {
            visited,
            generation,
            frontier,
        } = &mut *scratch;
        visited.resize(self.nodes.len(), 0);
        *generation += 1;
        frontier.clear();
        frontier.push(from);
        visited[from] = *generation;
        while let Some(current) = frontier.pop() {
            for &next in &self.nodes[current].succs {
                if next == to {
                    return true;
                }
                if visited[next] != *generation {
                    visited[next] = *generation;
                    frontier.push(next);
                }
            }
        }
        false
    }

    /// Adds an edge `from -> to`, rejecting it if it would create a cycle.
    /// Self-edges and duplicate edges are ignored.
    pub fn add_edge(&mut self, from: TxIdx, to: TxIdx) -> Result<(), CycleError> {
        if from == to || self.nodes[from].succs.contains(&to) {
            return Ok(());
        }
        if self.reaches(to, from) {
            return Err(CycleError);
        }
        self.nodes[from].succs.push(to);
        self.nodes[to].preds.push(from);
        Ok(())
    }

    /// Checks whether the edge `from -> to` could be added without a cycle,
    /// without actually adding it.
    pub fn can_add_edge(&self, from: TxIdx, to: TxIdx) -> bool {
        from == to || self.nodes[from].succs.contains(&to) || !self.reaches(to, from)
    }

    /// Registers `idx` as a reader of `key` that took its value from
    /// `from_writer` (`None` = storage). Only the first read is kept.
    pub fn record_read(&mut self, idx: TxIdx, key: Key, value: Value, from_writer: Option<TxIdx>) {
        let readers = &mut self.keys.entry(key).or_default().readers;
        if !readers.contains(&idx) {
            readers.push(idx);
        }
        let record = self.nodes[idx].record_mut(key);
        if record.first_read.is_none() {
            record.first_read = Some(value);
            record.read_from = from_writer;
        }
    }

    /// Registers a write of `value` to `key` by `idx`, appending `idx` to the
    /// key's write chain if this is its first write to the key.
    pub fn record_write(&mut self, idx: TxIdx, key: Key, value: Value) {
        let position = self.keys.entry(key).or_default().write_chain.len();
        self.record_write_at(idx, key, value, position);
    }

    /// Registers a write of `value` to `key` by `idx`, inserting `idx` into
    /// the key's write chain at `position` (clamped to the chain length) if
    /// this is its first write to the key. The position encodes where in the
    /// tentative serialization order of writers the transaction was placed —
    /// the rescheduling freedom illustrated in Figure 1.
    pub fn record_write_at(&mut self, idx: TxIdx, key: Key, value: Value, position: usize) {
        let entry = self.keys.entry(key).or_default();
        if !entry.write_chain.contains(&idx) {
            let position = position.min(entry.write_chain.len());
            entry.write_chain.insert(position, idx);
        }
        self.nodes[idx].record_mut(key).last_write = Some(value);
    }

    /// The writers of `key` in chain order.
    pub fn write_chain(&self, key: &Key) -> &[TxIdx] {
        self.keys
            .get(key)
            .map(|s| s.write_chain.as_slice())
            .unwrap_or(&[])
    }

    /// Active (not aborted, not committed) transactions whose recorded read
    /// of `key` came from `writer`.
    pub fn dependent_readers<'a>(
        &'a self,
        key: &'a Key,
        writer: TxIdx,
    ) -> impl Iterator<Item = TxIdx> + 'a {
        let readers = self.keys.get(key).map_or(&[][..], |state| &state.readers);
        readers.iter().copied().filter(move |&r| {
            r != writer
                && self.nodes[r].status != TxnStatus::Aborted
                && self.nodes[r]
                    .record(key)
                    .is_some_and(|rec| rec.read_from == Some(writer))
        })
    }

    /// Aborts a transaction and cascades through every transaction that read
    /// one of its written values (paper Section 8.4). Returns the set of
    /// aborted transaction indices (including `root`). Committed transactions
    /// are never aborted — the controller guarantees a reader can only commit
    /// after the writer it read from, so a committed reader cannot have taken
    /// a value from a still-active writer.
    ///
    /// Every victim (including the root) is queued in the pending-abort list;
    /// the executor pool drains that list to schedule re-executions, and a
    /// worker that picks up an index which is not in a re-executable state
    /// simply skips it.
    pub fn abort_cascade(&mut self, root: TxIdx) -> Vec<TxIdx> {
        let mut to_abort = vec![root];
        let mut seen: TxSet = to_abort.iter().copied().collect();
        let mut cursor = 0;
        while cursor < to_abort.len() {
            let current = to_abort[cursor];
            cursor += 1;
            // Every reader that took a value written by `current` must also
            // be re-executed.
            let written = self.nodes[current].records.iter();
            for rec in written.filter(|rec| rec.last_write.is_some()) {
                for reader in self.dependent_readers(&rec.key, current) {
                    if seen.insert(reader) {
                        to_abort.push(reader);
                    }
                }
            }
        }
        // Successors of the victims may have been waiting only on a victim;
        // remember them so they can be re-examined for commit once the
        // victims are detached.
        let mut unblocked: Vec<TxIdx> = Vec::new();
        for &idx in &to_abort {
            for &s in &self.nodes[idx].succs {
                if !seen.contains(&s) {
                    unblocked.push(s);
                }
            }
        }
        for &idx in &to_abort {
            self.detach(idx);
        }
        self.total_aborts += to_abort.len() as u64;
        for &idx in &to_abort {
            self.pending_aborts.push(idx);
        }
        for s in unblocked {
            if self.nodes[s].status == TxnStatus::Finishing {
                self.try_commit(s);
            }
        }
        to_abort
    }

    /// Removes a transaction from the per-key structures of the keys it
    /// touched and from the edge set, bumps its epoch and marks it aborted.
    fn detach(&mut self, idx: TxIdx) {
        debug_assert_ne!(
            self.nodes[idx].status,
            TxnStatus::Committed,
            "committed transactions must never be aborted"
        );
        let node = &mut self.nodes[idx];
        let preds = std::mem::take(&mut node.preds);
        let succs = std::mem::take(&mut node.succs);
        let records = std::mem::take(&mut node.records);
        for p in preds {
            self.nodes[p].succs.retain(|&s| s != idx);
        }
        for s in succs {
            self.nodes[s].preds.retain(|&p| p != idx);
        }
        for rec in &records {
            if let Some(state) = self.keys.get_mut(&rec.key) {
                state.readers.retain(|&r| r != idx);
                state.write_chain.retain(|&w| w != idx);
            }
        }
        let node = &mut self.nodes[idx];
        node.result = None;
        node.epoch += 1;
        node.retries += 1;
        node.status = TxnStatus::Aborted;
    }

    /// Marks `idx` as finishing and commits it (and, transitively, any of its
    /// successors that were only waiting for it) if all its predecessors have
    /// committed. Returns `true` if `idx` itself committed.
    pub fn try_commit(&mut self, idx: TxIdx) -> bool {
        if self.nodes[idx].status != TxnStatus::Finishing {
            return false;
        }
        let all_preds_committed = self.nodes[idx]
            .preds
            .iter()
            .all(|&p| self.nodes[p].status == TxnStatus::Committed);
        if !all_preds_committed {
            return false;
        }
        let commit_index = self.committed_order.len() as u32;
        {
            let node = &mut self.nodes[idx];
            node.status = TxnStatus::Committed;
            node.commit_index = Some(commit_index);
            node.committed_at = Some(Instant::now());
        }
        self.committed_order.push(idx);
        // Committing this node may unblock finishing successors. Committing
        // never changes an edge, so the successor list can be walked by index.
        for at in 0..self.nodes[idx].succs.len() {
            self.try_commit(self.nodes[idx].succs[at]);
        }
        true
    }

    /// True when every registered transaction has committed.
    pub fn all_committed(&self) -> bool {
        self.committed_order.len() == self.nodes.len()
    }

    /// Iterates over the nodes together with their indices.
    pub fn iter(&self) -> impl Iterator<Item = (TxIdx, &TxnNode)> {
        self.nodes.iter().enumerate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_with(n: usize) -> DependencyGraph {
        let mut g = DependencyGraph::new();
        for i in 0..n {
            g.register(TxId::new(i as u64));
        }
        g
    }

    #[test]
    fn register_assigns_sequential_indices() {
        let mut g = DependencyGraph::new();
        assert!(g.is_empty());
        assert_eq!(g.register(TxId::new(10)), 0);
        assert_eq!(g.register(TxId::new(11)), 1);
        assert_eq!(g.len(), 2);
        assert_eq!(g.node(0).id, TxId::new(10));
        assert_eq!(g.node(1).status, TxnStatus::Pending);
    }

    #[test]
    fn add_edge_rejects_cycles() {
        let mut g = graph_with(3);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        assert!(g.reaches(0, 2));
        assert!(!g.reaches(2, 0));
        assert_eq!(g.add_edge(2, 0), Err(CycleError));
        // Duplicate and self edges are fine.
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 1).unwrap();
        assert!(g.can_add_edge(0, 2));
        assert!(!g.can_add_edge(2, 0));
    }

    #[test]
    fn record_read_keeps_first_value_only() {
        let mut g = graph_with(1);
        let k = Key::scratch(1);
        g.record_read(0, k, Value::int(1), None);
        g.record_read(0, k, Value::int(2), None);
        assert_eq!(
            g.node(0).record(&k).unwrap().first_read,
            Some(Value::int(1))
        );
        assert!(g.key_state(&k).unwrap().readers.contains(&0));
    }

    #[test]
    fn record_write_appends_to_chain_once() {
        let mut g = graph_with(2);
        let k = Key::scratch(1);
        g.record_write(0, k, Value::int(1));
        g.record_write(0, k, Value::int(2));
        g.record_write(1, k, Value::int(3));
        assert_eq!(g.write_chain(&k), &[0, 1]);
        assert_eq!(
            g.node(0).record(&k).unwrap().last_write,
            Some(Value::int(2))
        );
        assert!(g.node(0).has_writes());
    }

    #[test]
    fn dependent_readers_tracks_read_from() {
        let mut g = graph_with(3);
        let k = Key::scratch(1);
        g.record_write(0, k, Value::int(1));
        g.record_read(1, k, Value::int(1), Some(0));
        g.record_read(2, k, Value::int(0), None);
        assert_eq!(g.dependent_readers(&k, 0).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn abort_cascade_follows_data_flow_only() {
        let mut g = graph_with(4);
        let k = Key::scratch(1);
        // 0 writes k; 1 reads from 0; 2 reads from 1's write on another key.
        g.record_write(0, k, Value::int(1));
        g.record_read(1, k, Value::int(1), Some(0));
        let k2 = Key::scratch(2);
        g.record_write(1, k2, Value::int(5));
        g.record_read(2, k2, Value::int(5), Some(1));
        // 3 reads k from storage: must not be aborted.
        g.record_read(3, k, Value::int(0), None);
        g.node_mut(0).status = TxnStatus::Active;
        g.node_mut(1).status = TxnStatus::Active;
        g.node_mut(2).status = TxnStatus::Active;
        g.node_mut(3).status = TxnStatus::Active;

        let mut aborted = g.abort_cascade(0);
        aborted.sort_unstable();
        assert_eq!(aborted, vec![0, 1, 2]);
        assert_eq!(g.node(3).status, TxnStatus::Active);
        assert_eq!(g.node(0).epoch, 1);
        assert_eq!(g.node(1).retries, 1);
        assert_eq!(g.total_aborts(), 3);
        // Every victim (root included) is queued for re-execution.
        let mut pending = g.take_pending_aborts();
        pending.sort_unstable();
        assert_eq!(pending, vec![0, 1, 2]);
        assert!(g.take_pending_aborts().is_empty());
        // The key structures no longer mention the aborted transactions.
        assert!(g.write_chain(&k).is_empty());
        assert_eq!(g.key_state(&k).unwrap().readers, vec![3]);
    }

    #[test]
    fn try_commit_respects_dependencies_and_cascades() {
        let mut g = graph_with(3);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        for idx in 0..3 {
            g.node_mut(idx).status = TxnStatus::Finishing;
        }
        // Committing 2 first is blocked by its predecessors.
        assert!(!g.try_commit(2));
        assert!(g.try_commit(0));
        // Committing 0 cascades: 1 and 2 were finishing and become committed.
        assert!(g.all_committed());
        assert_eq!(g.committed_order(), &[0, 1, 2]);
        assert_eq!(g.node(2).commit_index, Some(2));
        assert_eq!(g.committed_count(), 3);
    }

    #[test]
    fn outcome_collects_records_and_result() {
        let mut g = graph_with(1);
        let k = Key::scratch(1);
        g.record_read(0, k, Value::int(3), None);
        g.record_write(0, k, Value::int(4));
        g.node_mut(0).result = Some(CallResult::ok(Value::int(4)));
        let outcome = g.node(0).outcome();
        assert_eq!(outcome.read_value(&k), Some(&Value::int(3)));
        assert_eq!(outcome.written_value(&k), Some(&Value::int(4)));
        assert_eq!(outcome.return_value, Value::int(4));
        assert!(!outcome.logically_aborted);
    }
}
