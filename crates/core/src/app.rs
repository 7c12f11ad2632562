//! The shard app: everything a replica does to state.
//!
//! A Thunderbolt replica plays two roles (Section 3.1): DAG replica, which
//! is [`Replica`](crate::replica::Replica), and shard proposer and executor
//! (EOV for single-shard transactions, OE for cross-shard ones), which is
//! [`ShardApp`]. The app owns the store, the preplay engine, the client
//! queues and the commit pipeline (`commit.rs`); the replica reaches it
//! through the six calls of [`App`] only.
//!
//! In the driver's step after each handler ([`App::after_emission`]) the
//! app preplays the front of its client queue ahead of the round; the next
//! proposal ships that batch if it is still the batch the queue gives and
//! every read it declares still holds, and preplays afresh otherwise
//! (`docs/PIPELINE.md`, "Preplay runs ahead of the round"). In the same
//! step it replays the preplayed blocks whose vertices the handler
//! admitted, so the commit that delivers them only read-checks and applies
//! them (`docs/PIPELINE.md`, "Validation replays on admission").
//!
//! The app also times its own transactions: a proposal notes when each
//! transaction it takes was submitted and proposed, and the commit that
//! delivers it records its latency, all on this replica's clock
//! (`docs/PIPELINE.md`, "Queue wait"). Blocks carry no submission time.

use crate::cluster::{ClusterConfig, ExecutionMode};
use crate::commit::{CommitOutput, CommitPipeline, PostCommitExecution, ReplayCache};
use crate::metrics::RunReport;
use crate::proposer::{
    decide, ByzantineBehavior, ProposalContext, ProposalDecision, ShardProposer,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::BuildHasher;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tb_dag::CommittedSubDag;
use tb_executor::batch::{fnv_fold, FNV_OFFSET};
use tb_executor::validation::read_holds;
use tb_executor::{BatchExecutor, ConcurrentExecutor, OccExecutor};
use tb_storage::{CommitMarker, KvRead, MemStore, Store, Versioned, WalOptions, WalStore};
use tb_types::{
    AccessRecord, BlockKind, BlockPayload, Committee, DagId, Digest, Key, KeyHashBuilder, KeyMap,
    PreplayedTx, ReplicaId, Round, ShardAssignment, ShardId, SimTime, StorageBackend,
    StorageConfig, Transaction, TxId, Value, Vertex,
};

/// The initial value of the commit-order digest: the FNV-1a offset basis
/// (an all-zero seed would collapse zero-valued transaction ids).
pub const COMMIT_DIGEST_SEED: u64 = FNV_OFFSET;

/// What a [`Replica`](crate::replica::Replica) asks of the application it
/// orders blocks for: the only calls the consensus core makes into it.
/// Counters go to the replica's [`RunReport`]. The replica is busy for
/// the whole of [`propose`](App::propose), for [`CommitOutput::busy`] and
/// for what [`after_emission`](App::after_emission) returns.
pub trait App {
    /// The kind and payload of this replica's block for `round`, proposed
    /// at `now`. `leader_present` says whether the previous leader's vertex
    /// is in the DAG (rule P6), `should_shift` whether this replica votes to
    /// reconfigure now (Section 6).
    fn propose(
        &mut self,
        round: Round,
        leader_present: bool,
        should_shift: bool,
        now: SimTime,
        metrics: &mut RunReport,
    ) -> (BlockKind, BlockPayload);

    /// `vertex` is new to the DAG, so not delivered yet. Called once per
    /// vertex, before any [`delivered`](App::delivered) that carries it.
    fn admitted(&mut self, vertex: &Vertex);

    /// Commits the sub-DAG the committer just delivered, at `now`.
    fn delivered(
        &mut self,
        sub_dag: &CommittedSubDag,
        now: SimTime,
        metrics: &mut RunReport,
    ) -> CommitOutput;

    /// The step the driver runs after each handler, once the handler's
    /// output is on the wire and the client queue topped up. Returns the
    /// wall-clock time its work took, which the replica is charged after
    /// the emission.
    fn after_emission(&mut self, metrics: &mut RunReport) -> Duration;

    /// `undelivered` left the DAG below the replica's collection horizon
    /// before the committer delivered them: they will never be delivered.
    /// Called after [`after_emission`](App::after_emission), off the
    /// critical path like it.
    fn collected(&mut self, undelivered: &[Arc<Vertex>]);

    /// The replica serves `shard` in a new DAG instance; the undelivered
    /// vertices of the old one will never be delivered.
    fn reconfigure(&mut self, shard: ShardId);
}

/// The Thunderbolt shard proposer and executor of one replica.
pub struct ShardApp {
    id: ReplicaId,
    /// The block budget: single-shard plus cross-shard transactions.
    batch_size: usize,
    /// Synthetic cost per state operation of a replay ahead.
    op_cost_ns: u64,
    use_skip_blocks: bool,
    byzantine: Option<ByzantineBehavior>,
    /// The preplay engine: the CE for Thunderbolt, OCC for Thunderbolt-OCC,
    /// none for Tusk, which orders everything before executing it.
    engine: Option<Box<dyn BatchExecutor>>,
    pipeline: CommitPipeline,
    store: Box<dyn Store>,
    queues: ShardProposer,
    /// Undelivered DAG vertices that carry a cross-shard transaction
    /// touching this replica's shard: the input to rules P3/P4.
    conflicting_undelivered: HashSet<Digest>,
    /// The preplayed blocks of undelivered DAG vertices, replayed after the
    /// handler that admitted them (`docs/PIPELINE.md`, "Validation replays
    /// on admission"). Empty for Tusk, which preplays nothing.
    replays: ReplayCache,
    /// Write sets of this replica's own preplayed-but-uncommitted blocks.
    /// Preplay reads see them on top of committed storage so that
    /// consecutive blocks from the same shard chain correctly.
    overlay: Overlay,
    /// The last proposal preplayed its batch, so the next one likely will
    /// too: [`preplay_ahead`](ShardApp::preplay_ahead) may preplay that
    /// batch now.
    last_preplayed: bool,
    /// The front batch of the client queue, preplayed ahead of the round
    /// that will take it. Every proposal takes it, so it is never older
    /// than the last take from the queue.
    ahead: Option<Preplayed>,
    /// The transactions this replica proposed and has not seen commit, each
    /// with when it was submitted and when it was proposed, on this
    /// replica's clock. A commit times those it delivers.
    proposed: HashMap<TxId, (SimTime, SimTime), KeyHashBuilder>,
}

impl ShardApp {
    /// The app of replica `id` in DAG 0, over the storage backend `config`
    /// selects. A durable backend may carry recovered state from a previous
    /// incarnation.
    pub fn new(id: ReplicaId, config: &ClusterConfig) -> Self {
        let system = &config.system;
        let engine: Option<Box<dyn BatchExecutor>> = match config.mode {
            ExecutionMode::Thunderbolt => Some(Box::new(ConcurrentExecutor::new(system.ce))),
            ExecutionMode::ThunderboltOcc => Some(Box::new(OccExecutor::new(system.ce))),
            ExecutionMode::Tusk => None,
        };
        // Tusk executes after consensus, serially and in commit order.
        let workers = engine.as_ref().map_or(1, |_| system.validators);
        let execution = PostCommitExecution::Pipelined { workers };
        let op_cost_ns = system.ce.synthetic_op_cost_ns;
        let assignment = ShardAssignment::new(Committee::new(system.n_replicas), DagId::new(0));
        ShardApp {
            id,
            batch_size: system.ce.batch_size,
            op_cost_ns,
            use_skip_blocks: config.use_skip_blocks,
            byzantine: config
                .byzantine
                .filter(|&(b, _)| b == id)
                .map(|(_, how)| how),
            engine,
            pipeline: CommitPipeline::with_op_cost(execution, op_cost_ns),
            store: open_store(id, &system.storage),
            queues: ShardProposer::new(assignment.shard_of(id), system.ce.batch_size),
            conflicting_undelivered: HashSet::new(),
            replays: ReplayCache::default(),
            overlay: Overlay::default(),
            last_preplayed: false,
            ahead: None,
            proposed: HashMap::default(),
        }
    }

    /// The replica's local storage.
    pub fn store(&self) -> &dyn Store {
        self.store.as_ref()
    }

    /// Loads initial state into the store (used before a run). A durable
    /// backend logs the entries too, so a replica that crashes before its
    /// first commit still recovers its genesis state.
    ///
    /// A durable store that already recovered a committed prefix from a
    /// previous incarnation is *past* genesis: re-loading the initial state
    /// would roll committed values back, so the load is skipped.
    pub fn load_state(&mut self, entries: impl IntoIterator<Item = (Key, Value)>) {
        if self.store.last_commit().is_some() {
            return;
        }
        self.store.load_entries(&mut entries.into_iter());
    }

    /// The client queues of the shard this replica proposes for.
    pub fn queues(&self) -> &ShardProposer {
        &self.queues
    }

    /// The client queues, to submit transactions to.
    pub fn queues_mut(&mut self) -> &mut ShardProposer {
        &mut self.queues
    }

    /// The preplayed form of `singles`, the batch `round` took, against
    /// committed state plus this replica's own uncommitted preplay results;
    /// its writes join those results. `ahead` is the batch preplayed ahead of
    /// the round, if any: it is used when it preplayed exactly `singles` and
    /// every external read it declares holds on the current view
    /// (validation's read check), because preplaying `singles` again would
    /// then yield the same outcomes. Without an engine (Tusk) nothing is
    /// preplayed.
    fn preplay_batch(
        &mut self,
        singles: &[Transaction],
        ahead: Option<Preplayed>,
        round: Round,
        metrics: &mut RunReport,
    ) -> Vec<PreplayedTx> {
        let Some(engine) = self.engine.as_deref() else {
            return Vec::new();
        };
        if singles.is_empty() {
            return Vec::new();
        }
        let view = OverlayRead {
            store: self.store.as_ref(),
            overlay: &self.overlay,
        };
        // No take from the queue since `ahead` was preplayed, so a batch of
        // its length is the one it preplayed. It is checked against the view
        // alone: no block comes before it.
        let nothing_earlier = KeyMap::default();
        let batch = match ahead {
            Some(ahead)
                if ahead.txs.len() == singles.len()
                    && ahead
                        .external_reads
                        .iter()
                        .all(|read| read_holds(read, &nothing_earlier, &view)) =>
            {
                debug_assert!(ahead
                    .txs
                    .iter()
                    .all(|p| singles.iter().any(|tx| tx.id == p.tx.id)));
                metrics.batches_reused += 1;
                ahead
            }
            ahead => {
                metrics.batches_repreplayed += u64::from(ahead.is_some());
                Preplayed::new(engine, singles, &view)
            }
        };
        metrics.reexecutions += batch.reexecutions;
        self.overlay.push(round, batch.writes);
        batch.txs
    }

    /// The first half of [`after_emission`](App::after_emission): if the
    /// last proposal preplayed and no uncommitted cross-shard transaction
    /// touches this shard (P3/P4), the batch the next proposal will take is
    /// preplayed now, against committed state plus the uncommitted preplay
    /// results of every block proposed so far. The next proposal then only
    /// re-checks its reads. Nothing is taken from the queue. A batch
    /// preplayed ahead is kept until the queue offers a longer one. Returns
    /// the time the work took.
    fn preplay_ahead(&mut self) -> Duration {
        if !self.last_preplayed || !self.conflicting_undelivered.is_empty() {
            return Duration::ZERO;
        }
        let Some(engine) = self.engine.as_deref() else {
            return Duration::ZERO;
        };
        let started = Instant::now();
        let txs = self.queues.next_single_batch();
        if txs.len() > self.ahead.as_ref().map_or(0, |ahead| ahead.txs.len()) {
            let view = OverlayRead {
                store: self.store.as_ref(),
                overlay: &self.overlay,
            };
            self.ahead = Some(Preplayed::new(engine, txs, &view));
        }
        started.elapsed()
    }

    /// [`ByzantineBehavior::OverfullWrongShard`]: stuff a second single-shard
    /// batch *and* the block's cross-shard transactions, preplayed (a P1
    /// violation: their writes land outside this proposer's shard), into the
    /// block, ordered after the block's own batch.
    fn overfill_payload(
        &mut self,
        payload: &mut BlockPayload,
        round: Round,
        metrics: &mut RunReport,
    ) {
        let mut extra = self.queues.take_single_batch();
        extra.append(&mut payload.cross_shard);
        if !extra.is_empty() {
            let after = u32::try_from(payload.single_shard.len()).expect("a block fits u32");
            let mut preplayed = self.preplay_batch(&extra, None, round, metrics);
            preplayed.iter_mut().for_each(|p| p.order += after);
            payload.single_shard.extend(preplayed);
        }
    }
}

impl App for ShardApp {
    fn propose(
        &mut self,
        round: Round,
        leader_present: bool,
        should_shift: bool,
        now: SimTime,
        metrics: &mut RunReport,
    ) -> (BlockKind, BlockPayload) {
        let decision = decide(ProposalContext {
            // Tusk has no preplay path: everything is ordered first and
            // executed after consensus, as if the leader were missing (P6).
            // Shift blocks still apply.
            leader_vertex_present: leader_present && self.engine.is_some(),
            conflicting_cross_shard_pending: !self.conflicting_undelivered.is_empty(),
            should_shift,
            use_skip_blocks: self.use_skip_blocks,
        });
        // Whatever the decision, this proposal is the last to find the batch
        // preplayed ahead at the front of the queue.
        let ahead = self.ahead.take();
        self.last_preplayed = decision == ProposalDecision::Preplay;

        let mut payload = BlockPayload::empty();
        let kind = match decision {
            ProposalDecision::Shift => BlockKind::Shift,
            ProposalDecision::Preplay => {
                let (singles, cross) = self.queues.take_preplay_batch();
                payload.cross_shard = cross;
                payload.single_shard = self.preplay_batch(&singles, ahead, round, metrics);
                BlockKind::Normal
            }
            ProposalDecision::ConvertToCross => {
                let cross = &mut payload.cross_shard;
                *cross = self.queues.take_single_batch();
                let budget = self.batch_size.saturating_sub(cross.len());
                cross.extend(self.queues.take_cross_batch(budget));
                BlockKind::Normal
            }
            ProposalDecision::Skip => {
                payload.cross_shard = self.queues.take_cross_batch(self.batch_size);
                BlockKind::Skip
            }
        };
        match self.byzantine {
            Some(ByzantineBehavior::TamperReads) if kind == BlockKind::Normal => {
                payload = tamper_reads(payload);
            }
            Some(ByzantineBehavior::OverfullWrongShard) if kind == BlockKind::Normal => {
                self.overfill_payload(&mut payload, round, metrics);
            }
            _ => {}
        }
        // The block will not carry the submission times: keep them here.
        let txs = payload.single_shard.iter().map(|p| &p.tx);
        for tx in txs.chain(&payload.cross_shard) {
            self.proposed.insert(tx.id, (tx.submitted_at, now));
        }
        (kind, payload)
    }

    /// Remembers the vertex if it carries a cross-shard transaction on this
    /// replica's shard, and queues its preplayed block for replay. The shard
    /// only changes on reconfiguration, which clears both.
    fn admitted(&mut self, vertex: &Vertex) {
        let cross = &vertex.block.payload.cross_shard;
        if cross.iter().any(|tx| tx.touches_shard(self.queues.shard())) {
            self.conflicting_undelivered.insert(vertex.id());
        }
        if self.engine.is_some() {
            self.replays.admit(&vertex.block);
        }
    }

    fn delivered(
        &mut self,
        sub_dag: &CommittedSubDag,
        now: SimTime,
        metrics: &mut RunReport,
    ) -> CommitOutput {
        let output =
            self.pipeline
                .process_cached(sub_dag, self.store.as_ref(), now, &mut self.replays);
        // FNV-1a fold over every delivered call, block by block, then the
        // committed ids in commit order: what was ordered, not only where in
        // the streams. Honest replicas agree on both.
        let calls = KeyHashBuilder::with_seed(COMMIT_DIGEST_SEED);
        let mut digest = metrics.commit_order_digest;
        for vertex in &sub_dag.vertices {
            let payload = &vertex.block.payload;
            let txs = payload.single_shard.iter().map(|p| &p.tx);
            for tx in txs.chain(&payload.cross_shard) {
                digest = fnv_fold(digest, calls.hash_one(&tx.call));
            }
        }
        for (tx_id, _) in &output.committed {
            digest = fnv_fold(digest, tx_id.as_inner());
            // This replica times the transactions it proposed, once each.
            if let Some((submitted_at, proposed_at)) = self.proposed.remove(tx_id) {
                metrics.time_commit(submitted_at, proposed_at, now);
            }
        }
        metrics.commit_order_digest = digest;
        // Commit boundary: a durable backend persists the marker and fsyncs
        // everything before it, so recovery reproduces both the state and
        // the digest the replica had reached here.
        self.store.commit_marker(CommitMarker {
            dag: sub_dag.leader.dag().as_inner(),
            round: sub_dag.leader_round.as_u64(),
            digest: metrics.commit_order_digest,
        });
        // Delivered vertices no longer hold back preplay (P3/P4), and this
        // replica's own delivered blocks leave the overlay. The preplayed
        // transactions of an own block found invalid never commit: their
        // times go too.
        for vertex in &sub_dag.vertices {
            self.conflicting_undelivered.remove(&vertex.id());
            if vertex.author() == self.id {
                self.overlay.deliver(vertex.round());
                if output.invalid_blocks > 0 {
                    for p in &vertex.block.payload.single_shard {
                        self.proposed.remove(&p.tx.id);
                    }
                }
            }
        }
        output
    }

    /// Preplays ahead (`preplay_ahead`), then replays the preplayed blocks
    /// whose vertices entered the DAG since the last call and builds their
    /// write batches, so the commit that delivers them only read-checks and
    /// applies them. The replay counts as validation, as it did in the commit.
    fn after_emission(&mut self, metrics: &mut RunReport) -> Duration {
        let preplayed = self.preplay_ahead();
        let started = Instant::now();
        metrics.validate_busy_secs += self.replays.replay_admitted(self.op_cost_ns).as_secs_f64();
        preplayed + started.elapsed()
    }

    /// Forgets what the collected vertices left behind: their P3/P4 entries
    /// and replays, and, for this replica's own blocks, their overlay
    /// writes and the times of their transactions, which never commit.
    fn collected(&mut self, undelivered: &[Arc<Vertex>]) {
        for vertex in undelivered {
            self.conflicting_undelivered.remove(&vertex.id());
            self.replays.forget(&vertex.block);
            if vertex.author() == self.id {
                // Every own block up to this round is delivered or collected.
                self.overlay.deliver(vertex.round());
                let payload = &vertex.block.payload;
                let txs = payload.single_shard.iter().map(|p| &p.tx);
                for tx in txs.chain(&payload.cross_shard) {
                    self.proposed.remove(&tx.id);
                }
            }
        }
    }

    fn reconfigure(&mut self, shard: ShardId) {
        self.conflicting_undelivered.clear();
        self.replays.clear();
        self.overlay.clear();
        // The old DAG's undelivered blocks never commit.
        self.proposed.clear();
        // The queue may be cleared below: drop its preplayed front with it.
        self.ahead = None;
        self.queues.reassign(shard);
    }
}

/// Opens the storage backend `storage` selects for replica `id`. A durable
/// backend lives in its own per-replica directory and may carry recovered
/// state from a previous incarnation.
fn open_store(id: ReplicaId, storage: &StorageConfig) -> Box<dyn Store> {
    match storage.backend {
        StorageBackend::Mem => Box::new(MemStore::new()),
        StorageBackend::Wal => {
            let dir = std::path::PathBuf::from(&storage.data_dir)
                .join(format!("replica-{}", id.as_inner()));
            let options = WalOptions {
                compact_wal_bytes: storage.compact_wal_bytes,
            };
            Box::new(
                WalStore::open(&dir, options)
                    .unwrap_or_else(|err| panic!("open WAL store {}: {err}", dir.display())),
            )
        }
    }
}

/// [`ByzantineBehavior::TamperReads`]: corrupt the first declared read, the
/// one input a proposer gives its block's effects, so the block's reads no
/// longer hold.
pub(crate) fn tamper_reads(mut payload: BlockPayload) -> BlockPayload {
    for preplayed in payload.single_shard.iter_mut() {
        if let Some(record) = preplayed.outcome.read_set.first_mut() {
            record.value = Value::int(i64::MIN / 2);
            break;
        }
    }
    payload
}

/// One batch's preplay: the transactions a block ships, and what the
/// proposer keeps of its engine's outcomes — the writes its overlay takes,
/// and the reads a proposal re-checks if the batch was preplayed ahead.
struct Preplayed {
    /// Sorted by `order`.
    txs: Vec<PreplayedTx>,
    /// The last write per key.
    writes: KeyMap<Value>,
    /// The declared reads no earlier transaction of the batch wrote: what
    /// the batch read from the view it was preplayed on.
    external_reads: Vec<AccessRecord>,
    reexecutions: u64,
}

impl Preplayed {
    /// Preplays `txs` against `view`: the replica's one call of
    /// [`BatchExecutor::preplay`], and the one place it reads its engine's
    /// writes.
    fn new(engine: &dyn BatchExecutor, txs: &[Transaction], view: &OverlayRead<'_>) -> Self {
        let result = engine.preplay(txs, view);
        // Executors return the batch sorted by `order`, so later writes of a
        // key overwrite earlier ones here.
        let mut writes: KeyMap<Value> = KeyMap::default();
        let mut external_reads = Vec::new();
        for p in &result.preplayed {
            let external = p.outcome.read_set.iter();
            external_reads.extend(
                external
                    .filter(|rec| !writes.contains_key(&rec.key))
                    .cloned(),
            );
            for rec in &p.outcome.write_set {
                writes.insert(rec.key, rec.value.clone());
            }
        }
        Preplayed {
            txs: result.preplayed,
            writes,
            external_reads,
            reexecutions: result.reexecutions,
        }
    }
}

/// The write sets of a proposer's own preplayed-but-uncommitted blocks.
#[derive(Default)]
struct Overlay {
    /// One write set per block, oldest first, with the block's round.
    blocks: VecDeque<(Round, KeyMap<Value>)>,
    /// The newest write per key in `blocks`, with its block's round, so a
    /// read costs one lookup however many blocks are uncommitted.
    newest: KeyMap<(Round, Value)>,
}

impl Overlay {
    fn push(&mut self, round: Round, writes: KeyMap<Value>) {
        for (key, value) in &writes {
            self.newest.insert(*key, (round, value.clone()));
        }
        self.blocks.push_back((round, writes));
    }

    /// Drops the write sets of the blocks up to `round`, which a commit
    /// just delivered.
    fn deliver(&mut self, round: Round) {
        while self.blocks.front().is_some_and(|(at, _)| *at <= round) {
            let (at, writes) = self.blocks.pop_front().expect("a front block");
            for key in writes.keys() {
                if self
                    .newest
                    .get(key)
                    .is_some_and(|(newest, _)| *newest <= at)
                {
                    self.newest.remove(key);
                }
            }
        }
    }

    fn clear(&mut self) {
        self.blocks.clear();
        self.newest.clear();
    }
}

/// Committed storage plus the proposer's own uncommitted preplay writes.
struct OverlayRead<'a> {
    store: &'a dyn Store,
    overlay: &'a Overlay,
}

impl OverlayRead<'_> {
    /// The newest uncommitted write to `key`: newer rounds shadow older ones.
    fn pending(&self, key: &Key) -> Option<&Value> {
        self.overlay.newest.get(key).map(|(_, value)| value)
    }
}

impl KvRead for OverlayRead<'_> {
    fn get(&self, key: &Key) -> Value {
        self.pending(key)
            .cloned()
            .unwrap_or_else(|| self.store.get(key))
    }

    fn get_versioned(&self, key: &Key) -> Versioned {
        match self.pending(key) {
            Some(value) => {
                let base = self.store.get_versioned(key);
                Versioned::new(value.clone(), base.version + 1)
            }
            None => self.store.get_versioned(key),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::Message;
    use crate::replica::tests::{ack, config, enqueue, payment, quorum_certificate};
    use crate::replica::{Outbound, Replica};
    use tb_types::{Block, CeConfig, Header, SealedBlock, TxId};
    use tb_workload::Workload;

    impl ShardApp {
        /// The replays of the undelivered preplayed blocks.
        pub(crate) fn replays(&self) -> &ReplayCache {
            &self.replays
        }

        /// The undelivered vertices that hold back preplay (P3/P4).
        pub(crate) fn conflicting_undelivered(&self) -> &HashSet<Digest> {
            &self.conflicting_undelivered
        }
    }

    /// Client transactions queued at `replica`.
    fn queued(replica: &Replica) -> usize {
        let queues = replica.app().queues();
        queues.pending_single() + queues.pending_cross()
    }

    #[test]
    fn occ_preplay_through_the_overlay_matches_a_scratch_copy_of_it() {
        // The oracle is how Thunderbolt-OCC used to preplay: copy committed
        // state and every overlay round into a scratch store, execute there.
        let oracle = |app: &ShardApp, occ: &OccExecutor, txs: &[Transaction]| {
            let scratch = MemStore::new();
            scratch.load(
                app.store
                    .snapshot()
                    .iter()
                    .map(|(k, v)| (*k, v.value.clone())),
            );
            for (_, writes) in &app.overlay.blocks {
                scratch.load(writes.iter().map(|(k, v)| (*k, v.clone())));
            }
            occ.execute_batch(txs, &scratch).commit_digest()
        };
        let mut cfg = config(4);
        cfg.mode = ExecutionMode::ThunderboltOcc;
        cfg.system.ce = CeConfig::new(1, 64).without_synthetic_cost();
        let occ = OccExecutor::new(cfg.system.ce);
        let mut app = ShardApp::new(ReplicaId::new(0), &cfg);
        app.load_state(tb_workload::initial_smallbank_state(16, 1_000));
        let mut metrics = RunReport::default();
        // Hot accounts, so every round reads what earlier rounds wrote.
        let mut workload = tb_workload::SmallBankWorkload::new(tb_workload::SmallBankConfig {
            accounts: 16,
            theta: 0.9,
            n_shards: 1,
            ..tb_workload::SmallBankConfig::default()
        });
        for round in 0..6 {
            let txs = workload.batch(48, SimTime::ZERO);
            let expected = oracle(&app, &occ, &txs);
            let preplayed = tb_executor::BatchResult {
                preplayed: app.preplay_batch(&txs, None, Round::ZERO, &mut metrics),
                ..Default::default()
            };
            assert_eq!(preplayed.commit_digest(), expected, "round {round}");
        }
        assert_eq!(app.overlay.blocks.len(), 6, "six chained overlay rounds");
    }

    #[test]
    fn an_overfull_block_is_well_ordered_and_replays_valid() {
        let mut cfg = config(4);
        cfg.system.ce = CeConfig::new(1, 8).without_synthetic_cost();
        cfg.byzantine = Some((ReplicaId::new(0), ByzantineBehavior::OverfullWrongShard));
        let genesis = || tb_workload::initial_smallbank_state(16, 1_000);
        let mut app = ShardApp::new(ReplicaId::new(0), &cfg);
        app.load_state(genesis());
        // Shard 0 holds the accounts divisible by 4: 16 single-shard
        // payments, two batches, then 4 payments from shard 0 into shard 1,
        // homed on the payer's shard 0.
        for id in 0..16 {
            let tx = payment(id, 4 * (id % 4), 4 * ((id + 1) % 4), 4);
            assert!(app.queues_mut().enqueue(tx));
        }
        for id in (16..24).step_by(2) {
            assert!(app.queues_mut().enqueue(payment(id, 4 * (id % 4), 1, 4)));
        }
        let mut metrics = RunReport::default();
        let (kind, payload) = app.propose(Round::ZERO, true, false, SimTime::ZERO, &mut metrics);
        assert_eq!(kind, BlockKind::Normal);
        let block = &payload.single_shard;
        assert_eq!(
            block.len(),
            16,
            "its own 4 in the room its 4 cross-shard payments left, then 8 + those 4"
        );
        assert!(payload.cross_shard.is_empty(), "every payment is preplayed");
        let mut orders: Vec<u32> = block.iter().map(|p| p.order).collect();
        orders.sort_unstable();
        assert_eq!(orders, (0..16).collect::<Vec<u32>>());

        let honest = MemStore::new();
        honest.load(genesis());
        let config = tb_executor::validation::ValidationConfig::new(1);
        let report = tb_executor::validation::validate_block(block, &honest, &config);
        assert!(report.is_valid(), "{report:?}");
    }

    #[test]
    fn a_vertex_collected_undelivered_leaves_nothing_behind_in_the_app() {
        let mut cfg = config(4);
        cfg.system.ce = CeConfig::new(1, 8).without_synthetic_cost();
        let genesis = || tb_workload::initial_smallbank_state(16, 1_000);
        let app = || {
            let mut app = ShardApp::new(ReplicaId::new(0), &cfg);
            app.load_state(genesis());
            app
        };
        let vertex = |author: u32, kind, payload| {
            let block = Block::new(kind, 4, payload).seal();
            let (dag, round, author) = (DagId::new(0), Round::ZERO, ReplicaId::new(author));
            let header = Header::new(dag, round, author, block.digest(), vec![], SimTime::ZERO);
            let certificate = quorum_certificate(&header);
            Arc::new(Vertex::new(header, block, certificate))
        };
        let mut metrics = RunReport::default();
        // Its own preplayed block (accounts 0 and 4 lie on shard 0), and
        // replica 1's block with a payment into shard 0 (P3/P4).
        let mut collecting = app();
        assert!(collecting.queues_mut().enqueue(payment(1, 0, 4, 4)));
        let (kind, payload) =
            collecting.propose(Round::ZERO, true, false, SimTime::ZERO, &mut metrics);
        assert_eq!(payload.single_shard.len(), 1);
        let own = vertex(0, kind, payload);
        let mut into_shard = BlockPayload::empty();
        into_shard.cross_shard.push(payment(2, 1, 0, 4));
        let other = vertex(1, BlockKind::Normal, into_shard);
        for vertex in [&own, &other] {
            collecting.admitted(vertex);
        }
        assert_eq!(collecting.replays().len(), 1);
        assert_eq!(collecting.conflicting_undelivered().len(), 1);
        assert_eq!(collecting.overlay.blocks.len(), 1);
        assert!(collecting.proposed.contains_key(&TxId::new(1)));

        collecting.collected(&[own, other]);
        assert_eq!(collecting.replays().len(), 0);
        assert!(collecting.conflicting_undelivered().is_empty());
        assert!(collecting.overlay.blocks.is_empty() && collecting.overlay.newest.is_empty());
        assert!(collecting.proposed.is_empty());
        // A payment from the same account now preplays against committed
        // state, as on a replica that never proposed the collected block.
        let next = [payment(3, 0, 8, 4)];
        let mut reads = |app: &mut ShardApp| {
            let preplayed = app.preplay_batch(&next, None, Round::new(2), &mut metrics);
            preplayed[0].outcome.read_set.clone()
        };
        let fresh = reads(&mut app());
        assert_eq!(reads(&mut collecting), fresh);
    }

    /// A replica times each transaction it proposed on its own clock:
    /// queued from its submission to the proposal that took it, then on to
    /// the commit that delivered it. The block it proposed carries no
    /// submission time, so nothing here reads one off the block.
    #[test]
    fn queue_wait_runs_from_submission_to_the_proposal() {
        for validators in [1, 2] {
            let mut cfg = config(4);
            cfg.system.ce = CeConfig::new(1, 8).without_synthetic_cost();
            cfg.system.validators = validators;
            let mut app = ShardApp::new(ReplicaId::new(0), &cfg);
            app.load_state(tb_workload::initial_smallbank_state(8, 1_000));
            // Accounts 0 and 4 lie on shard 0 of 4, account 1 on shard 1.
            let mut single = payment(1, 0, 4, 4);
            single.submitted_at = SimTime::from_millis(1);
            let mut cross = payment(2, 0, 1, 4);
            cross.submitted_at = SimTime::from_millis(2);
            assert!(app.queues_mut().enqueue(single));
            assert!(app.queues_mut().enqueue(cross));

            let mut metrics = RunReport::default();
            let proposed_at = SimTime::from_millis(5);
            let (kind, payload) = app.propose(Round::ZERO, true, false, proposed_at, &mut metrics);
            assert_eq!(payload.single_shard.len(), 1, "{validators} validators");
            assert_eq!(payload.cross_shard.len(), 1, "{validators} validators");
            let block = Block::new(kind, 4, payload).seal();
            let txs = block.payload.single_shard.iter().map(|p| &p.tx);
            assert!(txs
                .chain(&block.payload.cross_shard)
                .all(|tx| tx.submitted_at == SimTime::ZERO));
            let header = Header::new(
                DagId::new(0),
                Round::ZERO,
                ReplicaId::new(0),
                block.digest(),
                Vec::new(),
                proposed_at,
            );
            let certificate = quorum_certificate(&header);
            let vertex = Arc::new(Vertex::new(header, block, certificate));
            app.admitted(&vertex);
            let sub_dag = CommittedSubDag {
                leader: Arc::clone(&vertex),
                leader_round: Round::ZERO,
                vertices: vec![vertex],
            };

            let output = app.delivered(&sub_dag, SimTime::from_millis(10), &mut metrics);
            assert_eq!(output.committed_count(), 2, "{validators} validators");
            assert_eq!(metrics.timed_txs, 2, "{validators} validators");
            assert_eq!(metrics.latency_hist.count(), 2, "{validators} validators");
            // Queued 4 + 3 ms of the 9 + 8 ms from submission to commit.
            assert!(
                (metrics.total_queue_wait_secs - 0.007).abs() < 1e-9,
                "{validators} validators"
            );
            assert!(
                (metrics.total_latency_secs - 0.017).abs() < 1e-9,
                "{validators} validators"
            );
            // A transaction is timed once.
            app.delivered(&sub_dag, SimTime::from_millis(20), &mut metrics);
            assert_eq!(metrics.timed_txs, 2, "{validators} validators");
        }
    }

    #[test]
    fn delivering_a_block_leaves_newer_overlay_writes_visible() {
        let writes = |entries: &[(u64, i64)]| -> KeyMap<Value> {
            entries
                .iter()
                .map(|&(account, v)| (Key::checking(account), Value::int(v)))
                .collect()
        };
        let store = MemStore::new();
        store.load([(Key::checking(2), Value::int(7))]);
        let mut overlay = Overlay::default();
        overlay.push(Round::new(1), writes(&[(0, 10), (1, 11)]));
        overlay.push(Round::new(2), writes(&[(1, 21)]));
        overlay.push(Round::new(3), writes(&[(2, 32)]));
        let read = |overlay: &Overlay, account| {
            OverlayRead {
                store: &store,
                overlay,
            }
            .get(&Key::checking(account))
        };
        assert_eq!(read(&overlay, 1), Value::int(21), "the newest block wins");
        // Round 1 leaves: its write to account 0 goes, round 2's write to
        // account 1 stays. (The store lacks round 1's writes, as if its
        // block were invalid.)
        overlay.deliver(Round::new(1));
        assert_eq!(read(&overlay, 0), Value::None);
        assert_eq!(read(&overlay, 1), Value::int(21));
        overlay.deliver(Round::new(2));
        assert_eq!(overlay.blocks.len(), 1);
        assert_eq!(read(&overlay, 1), Value::None);
        assert_eq!(read(&overlay, 2), Value::int(32));
        overlay.deliver(Round::new(3));
        assert_eq!(read(&overlay, 2), Value::int(7));
        assert!(overlay.newest.is_empty());
    }

    /// Preplay ahead of the round, driven the way `driver::drive` drives it:
    /// handle a message, top the client queue up, preplay ahead.
    mod preplay_ahead {
        use super::*;
        use tb_types::{BlockKind, TxClass};

        fn cfg() -> ClusterConfig {
            let mut cfg = config(4);
            cfg.system.ce = CeConfig::new(2, 16).without_synthetic_cost();
            cfg.system.reconfig = tb_types::ReconfigConfig::new(1 << 40, 1 << 41);
            cfg
        }

        fn funded(id: u32, cfg: &ClusterConfig) -> Replica {
            let mut replica = Replica::new(ReplicaId::new(id), cfg.clone());
            replica
                .app_mut()
                .load_state(tb_workload::initial_smallbank_state(16, 1_000));
            replica
        }

        /// The blocks of the headers `replica` proposed in `out`, in order.
        fn proposals<'a>(
            replica: &Replica,
            out: &'a [Outbound],
        ) -> Vec<(&'a Header, &'a Arc<SealedBlock>)> {
            out.iter()
                .filter_map(|o| match &o.msg {
                    Message::Header { header, block } if header.author == replica.id() => {
                        Some((header, block))
                    }
                    _ => None,
                })
                .collect()
        }

        /// Checks that the batch each of `blocks` preplayed — the proposals
        /// of one handler, in order, with no commit or reconfiguration
        /// between them — equals a fresh preplay of its transactions on the
        /// view it was proposed on: the replica's store now, under its
        /// overlay as it stood before that proposal. Returns how many it
        /// checked.
        fn assert_fresh_preplays(
            replica: &Replica,
            blocks: &[(&Header, &Arc<SealedBlock>)],
        ) -> u64 {
            let engine = ConcurrentExecutor::new(cfg().system.ce);
            let batches: Vec<&Vec<PreplayedTx>> = blocks
                .iter()
                .map(|(_, block)| &block.payload.single_shard)
                .filter(|preplayed| !preplayed.is_empty())
                .collect();
            let blocks = &replica.app().overlay.blocks;
            let mut overlay = Overlay::default();
            for (round, writes) in blocks.range(..blocks.len() - batches.len()) {
                overlay.push(*round, writes.clone());
            }
            for preplayed in &batches {
                let view = OverlayRead {
                    store: replica.app().store(),
                    overlay: &overlay,
                };
                let txs: Vec<Transaction> = preplayed.iter().map(|p| p.tx.clone()).collect();
                let fresh = engine.preplay(&txs, &view).preplayed;
                // A block ships each transaction's reads and position.
                let shipped = |p: &PreplayedTx| (p.tx.id, p.outcome.read_set.clone(), p.order);
                assert!(
                    fresh.iter().map(shipped).eq(preplayed.iter().map(shipped)),
                    "{}: a block is not a fresh preplay on its view",
                    replica.id()
                );
                // The next proposal saw this one's writes.
                let (round, writes) = &blocks[overlay.blocks.len()];
                overlay.push(*round, writes.clone());
            }
            batches.len() as u64
        }

        /// Client transactions for 16 accounts, four per shard (account `a`
        /// lies on shard `a % 4`), under strictly increasing ids.
        struct Clients {
            next_id: u64,
            /// Every this many transactions, a shard other than 0 gets a
            /// payment between one of its accounts and one of shard 0.
            cross_every: Option<u64>,
        }

        impl Clients {
            /// The next transaction homed on `shard`.
            fn next(&mut self, shard: ShardId) -> Transaction {
                let s = u64::from(shard.as_inner());
                loop {
                    let id = self.next_id;
                    self.next_id += 1;
                    let cross = s != 0
                        && self
                            .cross_every
                            .is_some_and(|every| id.is_multiple_of(every));
                    let to = if cross {
                        4 * (id % 4)
                    } else {
                        s + 4 * ((id + 1) % 4)
                    };
                    let tx = payment(id, s + 4 * (id % 4), to, 4);
                    if tx.home_shard() == shard {
                        return tx;
                    }
                }
            }
        }

        /// One replica's client queue as the test expects it: the ids of
        /// the single-shard transactions submitted to it and not yet
        /// proposed.
        struct Fifo {
            shard: ShardId,
            ids: VecDeque<TxId>,
        }

        impl Fifo {
            /// The queue of `shard`: a replica that moves to another shard
            /// drops the transactions of the last one.
            fn of(&mut self, shard: ShardId) -> &mut VecDeque<TxId> {
                if shard != self.shard {
                    self.shard = shard;
                    self.ids.clear();
                }
                &mut self.ids
            }
        }

        /// What a run observed, summed over the replicas.
        #[derive(Default)]
        struct Seen {
            /// Proposals checked by [`assert_fresh_preplays`].
            checked: u64,
            /// The part of `checked` that shipped a batch preplayed ahead.
            checked_reused: u64,
            /// Proposals, per replica.
            proposed: [u64; 4],
            /// Single-shard transactions proposed as cross-shard ones.
            converted: u64,
            skip_blocks: u64,
        }

        /// How messages are picked from the inbox.
        #[derive(Clone, Copy)]
        enum Delivery {
            /// In send order.
            Fifo,
            /// In an order drawn from the seed, with messages to replica 0
            /// picked one time in eight while anything else is queued.
            SlowReceiver(u64),
        }

        /// Runs a fresh 4-replica cluster until it quiesces at `target`
        /// (headers of `target` and later rounds are dropped), topping every
        /// client queue up to two batches after each handler and then
        /// preplaying ahead. Every proposal is checked on the way: its
        /// single-shard transactions are the front of its proposer's queue,
        /// in order, and its preplayed batch passes
        /// [`assert_fresh_preplays`] unless the handler reconfigured.
        fn run(
            cfg: &ClusterConfig,
            clients: &mut Clients,
            target: u64,
            delivery: Delivery,
        ) -> (Vec<Replica>, Seen) {
            let mut replicas: Vec<Replica> = (0..4).map(|i| funded(i, cfg)).collect();
            let batch = cfg.system.ce.batch_size;
            let mut seen = Seen::default();
            let mut fifos: Vec<Fifo> = replicas
                .iter()
                .map(|replica| Fifo {
                    shard: replica.current_shard(),
                    ids: VecDeque::new(),
                })
                .collect();
            let top_up = |replica: &mut Replica, fifo: &mut Fifo, clients: &mut Clients| {
                let shard = replica.current_shard();
                let queue = fifo.of(shard);
                while queued(replica) < 2 * batch {
                    let tx = clients.next(shard);
                    if tx.class() == TxClass::SingleShard {
                        queue.push_back(tx.id);
                    }
                    assert!(replica.app_mut().queues_mut().enqueue(tx));
                }
            };
            let mut step = |replica: &mut Replica,
                            fifo: &mut Fifo,
                            clients: &mut Clients,
                            handled: Option<(ReplicaId, Message)>|
             -> Vec<Outbound> {
                let (reused, reconfigurations) = (
                    replica.metrics().batches_reused,
                    replica.metrics().reconfigurations,
                );
                let out = match handled {
                    None => replica.start(SimTime::ZERO),
                    Some((from, msg)) => replica.handle(from, msg, SimTime::ZERO),
                };
                let blocks = proposals(replica, &out);
                seen.proposed[replica.id().as_inner() as usize] += blocks.len() as u64;
                for (header, block) in &blocks {
                    let payload = &block.payload;
                    let converted = payload
                        .cross_shard
                        .iter()
                        .filter(|tx| tx.class() == TxClass::SingleShard);
                    seen.converted += converted.clone().count() as u64;
                    seen.skip_blocks += u64::from(block.kind == BlockKind::Skip);
                    let proposed: Vec<TxId> = payload
                        .single_shard
                        .iter()
                        .map(|p| &p.tx)
                        .chain(converted)
                        .map(|tx| tx.id)
                        .collect();
                    let assignment = ShardAssignment::new(Committee::new(4), header.dag);
                    let queue = fifo.of(assignment.shard_of(header.author));
                    assert!(
                        proposed.len() <= queue.len(),
                        "{}: unsubmitted",
                        replica.id()
                    );
                    let front: Vec<TxId> = queue.drain(..proposed.len()).collect();
                    assert_eq!(proposed, front, "{} round {}", replica.id(), header.round);
                }
                if replica.metrics().reconfigurations == reconfigurations {
                    seen.checked += assert_fresh_preplays(replica, &blocks);
                    seen.checked_reused += replica.metrics().batches_reused - reused;
                }
                top_up(replica, fifo, clients);
                replica.after_emission();
                out
            };

            let mut state = match delivery {
                Delivery::Fifo => 0,
                Delivery::SlowReceiver(seed) => seed,
            };
            let mut next = move || {
                // splitmix64
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            let mut inbox: VecDeque<(ReplicaId, ReplicaId, Message)> = VecDeque::new();
            for (replica, fifo) in replicas.iter_mut().zip(&mut fifos) {
                top_up(replica, fifo, clients);
                for outbound in step(replica, fifo, clients, None) {
                    enqueue(&mut inbox, replica.id(), outbound, 4);
                }
            }
            while !inbox.is_empty() {
                let pick = match delivery {
                    Delivery::Fifo => 0,
                    Delivery::SlowReceiver(_) => {
                        let slow = ReplicaId::new(0);
                        let fast: Vec<usize> =
                            (0..inbox.len()).filter(|&i| inbox[i].1 != slow).collect();
                        if fast.is_empty() || next() % 8 == 0 {
                            next() as usize % inbox.len()
                        } else {
                            fast[next() as usize % fast.len()]
                        }
                    }
                };
                let (from, to, msg) = inbox.remove(pick).expect("index in range");
                if matches!(&msg, Message::Header { header, .. } if header.round.as_u64() >= target)
                {
                    continue;
                }
                let i = to.as_inner() as usize;
                for outbound in step(&mut replicas[i], &mut fifos[i], clients, Some((from, msg))) {
                    enqueue(&mut inbox, to, outbound, 4);
                }
            }
            (replicas, seen)
        }

        #[test]
        fn preplay_ahead_batches_equal_a_fresh_preplay_on_the_proposal_view() {
            let mut cfg = cfg();
            cfg.lockstep = true;
            let mut clients = Clients {
                next_id: 0,
                cross_every: None,
            };
            let (replicas, seen) = run(&cfg, &mut clients, 16, Delivery::Fifo);
            // Every block after each replica's round-0 one shipped the batch
            // preplayed ahead, and each equals a fresh preplay.
            let proposed: u64 = seen.proposed.iter().sum();
            assert_eq!(proposed, 4 * 17);
            assert_eq!(seen.checked, proposed);
            assert_eq!(seen.checked_reused, proposed - 4);
            for (replica, proposed) in replicas.iter().zip(seen.proposed) {
                let metrics = replica.metrics();
                assert_eq!(metrics.batches_reused, proposed - 1);
                assert_eq!(metrics.batches_repreplayed, 0);
                assert_eq!(metrics.invalid_blocks, 0);
            }
        }

        #[test]
        fn preplay_ahead_yields_to_a_cross_shard_commit_on_its_shard() {
            // Replica 0 is driven by hand: rounds 0–2 complete normally.
            // In round 3 (led by replica 1) the leader's block carries a
            // payment from account 0 of replica 0's shard, and replica 0
            // takes it after the batch of its round-4 proposal was
            // preplayed ahead. It then holds replica 3's round-3 vertex last,
            // so the handler that inserts it commits round 3 — and with it
            // the payment — and then proposes round 4.
            let cfg = cfg();
            let mut replica = funded(0, &cfg);
            // Account 0 first appears in round 4's batch, so that batch
            // reads it from the store, not from the overlay.
            for id in 0..128 {
                let (from, to) = if id < 64 {
                    (4 + 4 * (id % 3), 4 + 4 * ((id + 1) % 3))
                } else {
                    (4 * (id % 4), 4 * ((id + 1) % 4))
                };
                assert!(replica
                    .app_mut()
                    .queues_mut()
                    .enqueue(payment(id, from, to, 4)));
            }
            let dag = DagId::new(0);
            let leader = Committee::new(4).leader(dag, Round::new(3));
            assert_eq!(leader, ReplicaId::new(1));
            // The header of the round replica 0 proposed last.
            let own_header = |out: &[Outbound]| {
                out.iter().rev().find_map(|o| match &o.msg {
                    Message::Header { header, .. } if header.author == ReplicaId::new(0) => {
                        Some(header.clone())
                    }
                    _ => None,
                })
            };
            let start = replica.start(SimTime::ZERO);
            replica.after_emission();
            let mut header = own_header(&start).expect("a round-0 header");
            let mut own: Vec<Arc<SealedBlock>> = proposals(&replica, &start)
                .into_iter()
                .map(|(_, block)| Arc::clone(block))
                .collect();
            let mut deliver = |replica: &mut Replica, from: u32, msg: Message| {
                let out = replica.handle(ReplicaId::new(from), msg, SimTime::ZERO);
                replica.after_emission();
                for (_, block) in proposals(replica, &out) {
                    own.push(Arc::clone(block));
                }
                out
            };
            let vertex = |author: u32, round: u64, parents: &[Digest], cross: Vec<Transaction>| {
                let author = ReplicaId::new(author);
                let payload = BlockPayload {
                    single_shard: Vec::new(),
                    cross_shard: cross,
                };
                let block = Block::new(BlockKind::Normal, 4, payload).seal();
                let header = Header::new(
                    dag,
                    Round::new(round),
                    author,
                    block.digest(),
                    parents.to_vec(),
                    SimTime::ZERO,
                );
                let certificate = quorum_certificate(&header);
                Vertex::new(header, block, certificate)
            };

            let mut parents: Vec<Digest> = Vec::new();
            for round in 0..3u64 {
                // Its own vertex: two acknowledgements, then the
                // certificate comes back to it.
                deliver(&mut replica, 1, ack(&header, 1));
                let out = deliver(&mut replica, 2, ack(&header, 2));
                let Some(Message::Certificate(certificate)) = out.first().map(|o| o.msg.clone())
                else {
                    panic!("round {round}: no certificate");
                };
                let mut ids = vec![certificate.digest()];
                deliver(&mut replica, 0, Message::Certificate(certificate));
                for author in 1..4 {
                    let v = vertex(author, round, &parents, Vec::new());
                    ids.push(v.id());
                    let out = deliver(&mut replica, author, Message::Vertex(Box::new(v)));
                    header = own_header(&out).unwrap_or(header);
                }
                parents = ids;
            }
            assert_eq!(replica.current_round(), Round::new(3));
            assert_eq!(header.round, Round::new(3));
            assert_eq!(replica.metrics().batches_reused, 3);
            assert!(
                replica.app().ahead.is_some(),
                "round 4's batch is preplayed ahead"
            );

            let payment_from_shard_0 = payment(1_000, 0, 1, 4);
            let round_3: Vec<Vertex> = (1..4)
                .map(|author| {
                    let cross = if author == 1 {
                        vec![payment_from_shard_0.clone()]
                    } else {
                        Vec::new()
                    };
                    vertex(author, 3, &parents, cross)
                })
                .collect();
            let ids: Vec<Digest> = round_3.iter().map(Vertex::id).collect();
            let mut round_3 = round_3.into_iter();
            for v in round_3.by_ref().take(2) {
                let author = v.header.author.as_inner();
                assert!(deliver(&mut replica, author, Message::Vertex(Box::new(v))).is_empty());
            }
            assert!(!replica.app().conflicting_undelivered.is_empty());
            let round_4: Vec<Vertex> = (1..4)
                .map(|author| vertex(author, 4, &ids, Vec::new()))
                .collect();
            for v in &round_4 {
                let author = v.header.author.as_inner();
                deliver(&mut replica, author, Message::Vertex(Box::new(v.clone())));
            }
            // All three wait for the last round-3 vertex, their parent.
            assert!(round_4
                .iter()
                .all(|v| replica.awaits_vertex(&v.certificate.header_digest)));
            assert_eq!(replica.metrics().cross_shard_txs, 0);

            let last = round_3.next().unwrap();
            let out = deliver(&mut replica, 3, Message::Vertex(Box::new(last)));
            assert_eq!(
                replica.metrics().cross_shard_txs,
                1,
                "the payment committed"
            );
            let blocks = proposals(&replica, &out);
            let rounds: Vec<u64> = blocks.iter().map(|(h, _)| h.round.as_u64()).collect();
            assert_eq!(rounds, vec![4, 5]);
            assert_eq!(replica.metrics().batches_repreplayed, 1);
            assert_eq!(replica.metrics().batches_reused, 3);
            assert_eq!(assert_fresh_preplays(&replica, &blocks), 2);
            // Both blocks preplayed, in queue order.
            let ids: Vec<u64> = own
                .iter()
                .flat_map(|block| &block.payload.single_shard)
                .map(|p| p.tx.id.as_inner())
                .collect();
            assert_eq!(ids, (0..16 * 6).collect::<Vec<_>>());
        }

        #[test]
        fn convert_skip_and_reconfiguration_keep_the_queue_order() {
            for use_skip_blocks in [false, true] {
                let mut cfg = cfg();
                cfg.use_skip_blocks = use_skip_blocks;
                cfg.system.reconfig = tb_types::ReconfigConfig::new(5, 6);
                let mut clients = Clients {
                    next_id: 0,
                    cross_every: Some(3),
                };
                let (replicas, seen) = run(&cfg, &mut clients, 40, Delivery::SlowReceiver(3));
                assert!(replicas[0].metrics().reconfigurations >= 2);
                let reused: u64 = replicas.iter().map(|r| r.metrics().batches_reused).sum();
                assert!(reused > 0);
                assert!(seen.checked > 0);
                if use_skip_blocks {
                    assert!(seen.skip_blocks > 0);
                } else {
                    assert!(seen.converted > 0);
                }
            }
        }
    }
}
