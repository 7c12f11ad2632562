//! The Thunderbolt replica: one node of the system.
//!
//! A replica plays three roles at once (Section 3.1): it is the *shard
//! proposer* of its current shard (preplaying single-shard transactions and
//! proposing one block per round), a *replica* participating in DAG
//! construction (acknowledging headers, storing certified vertices), and a
//! *committer* applying the committed sequence to its local storage.
//!
//! The replica is written as a deterministic state machine: it consumes
//! protocol messages and produces outbound messages, so it can be driven
//! by [`drive`](crate::driver::drive) over any transport or directly by unit
//! tests. All heavy work (preplay, validation, post-commit execution) is
//! timed and surfaced through [`Replica::take_busy`], which the driver
//! charges to the replica's clock.
//!
//! A proposer preplays each batch ahead of its round: after every handler
//! the driver calls `Replica::preplay_ahead`, which preplays the front of
//! the client queue once the last proposal has gone out, against committed
//! state plus the replica's uncommitted blocks. The next proposal ships
//! that batch if it is still the batch the queue gives and every read it
//! declares still holds (validation's read check), and preplays afresh
//! otherwise, so its block is the one a fresh preplay would give
//! (`docs/PIPELINE.md`, "Preplay runs ahead of the round").

use crate::cluster::{ClusterConfig, ExecutionMode};
use crate::commit::{CommitPipeline, PostCommitExecution};
use crate::messages::Message;
use crate::metrics::{LatencyHistogram, RoundCommitSample, RunReport};
use crate::proposer::{
    decide, ByzantineBehavior, ProposalContext, ProposalDecision, ShardProposer,
};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tb_dag::{Committer, DagError, DagStore};
use tb_executor::validation::check_reads;
use tb_executor::{BatchExecutor, ConcurrentExecutor, OccExecutor};
use tb_network::NetworkStats;
use tb_storage::{CommitMarker, KvRead, MemStore, Store, Versioned, WalOptions, WalStore};
use tb_types::{
    Block, BlockKind, BlockPayload, Certificate, Committee, DagId, Digest, Header, Key, KeyMap,
    PreplayedTx, ReplicaId, Round, SealedBlock, SeqNo, ShardAssignment, ShardId, SimTime,
    StorageBackend, StorageConfig, Transaction, Value, Vertex,
};

/// Where an outbound message should go.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Destination {
    /// Send to every replica (including the sender itself).
    Broadcast,
    /// Send to a single replica.
    To(ReplicaId),
}

/// An outbound protocol message produced by a replica handler.
#[derive(Clone, Debug)]
pub struct Outbound {
    /// Where the message goes.
    pub dest: Destination,
    /// The message itself.
    pub msg: Message,
}

impl Outbound {
    fn broadcast(msg: Message) -> Self {
        Outbound {
            dest: Destination::Broadcast,
            msg,
        }
    }

    fn to(dest: ReplicaId, msg: Message) -> Self {
        Outbound {
            dest: Destination::To(dest),
            msg,
        }
    }
}

/// A header the replica proposed and is collecting acknowledgements for.
/// The `(header, block)` pair itself sits in [`Replica::retained`] under
/// `digest`, like every pair the replica acknowledged.
#[derive(Clone, Debug)]
struct PendingHeader {
    digest: Digest,
    /// Signers so far. The author signs its own header by proposing it, so
    /// the set starts with the author and the certificate forms on the
    /// second remote acknowledgement at `n = 4` (`2f` remote ones in
    /// general).
    acks: HashSet<ReplicaId>,
    certified: bool,
}

/// How many of its author's later rounds an unclaimed `(header, block)` pair
/// (or a certificate without its header) is kept for. Only a certificate
/// from the author can claim a pair, and the author sends it before it
/// proposes again, so on an ordered link one round would do; the slack is
/// for transports that reorder one sender's messages. Measured against the
/// author's own headers, not this replica's commit frontier, so a slow
/// sender's late certificates still find their pairs.
const RETENTION_ROUNDS: u64 = 32;

/// How long a replica waits for the signer it asked for a vertex before it
/// asks the next one. Measured on the `now` the handlers are called with and
/// checked whenever a message is handled, so a replica that hears nothing
/// asks nothing more. Longer than a wide-area round trip (75 ms ± 70 ms a
/// hop in the `wan-tail` scenario), so a slow answer is not asked for twice.
const FETCH_RETRY: SimTime = SimTime::from_millis(300);

/// A certificate held without its `(header, block)` pair, and the signer
/// last asked for the vertex it names.
struct HeldCertificate {
    certificate: Certificate,
    asked: ReplicaId,
    asked_at: SimTime,
}

/// Certificates this replica holds without their `(header, block)` pair,
/// keyed by header digest, each with a request for its vertex out to one of
/// its signers. Ordered by digest, so retries leave in the same order on
/// every run. An entry leaves when its header lands, when the vertex arrives,
/// when its author moves [`RETENTION_ROUNDS`] on, or on reconfiguration.
struct Fetches {
    /// The replica that fetches, never asked itself.
    me: ReplicaId,
    held: BTreeMap<Digest, HeldCertificate>,
}

impl Fetches {
    fn new(me: ReplicaId) -> Self {
        Fetches {
            me,
            held: BTreeMap::new(),
        }
    }

    fn len(&self) -> usize {
        self.held.len()
    }

    fn contains(&self, header_digest: &Digest) -> bool {
        self.held.contains_key(header_digest)
    }

    /// Holds `certificate` and returns the first request for its vertex: to
    /// the signer after this replica in signer order, if there is one.
    fn hold(&mut self, certificate: Certificate, now: SimTime) -> Option<(ReplicaId, Certificate)> {
        let asked = next_signer(&certificate, self.me, self.me);
        let request = asked.map(|to| (to, certificate.clone()));
        self.held.insert(
            certificate.header_digest,
            HeldCertificate {
                certificate,
                asked: asked.unwrap_or(self.me),
                asked_at: now,
            },
        );
        request
    }

    /// Every vertex whose last request went out [`FETCH_RETRY`] or more
    /// before `now`, to be asked of the next signer.
    fn due(&mut self, now: SimTime) -> Vec<(ReplicaId, Certificate)> {
        let me = self.me;
        let mut requests = Vec::new();
        for entry in self.held.values_mut() {
            if now < entry.asked_at + FETCH_RETRY {
                continue;
            }
            if let Some(next) = next_signer(&entry.certificate, entry.asked, me) {
                entry.asked = next;
                entry.asked_at = now;
                requests.push((next, entry.certificate.clone()));
            }
        }
        requests
    }

    fn take(&mut self, header_digest: &Digest) -> Option<Certificate> {
        self.held
            .remove(header_digest)
            .map(|entry| entry.certificate)
    }

    fn retain(&mut self, mut keep: impl FnMut(&Certificate) -> bool) {
        self.held.retain(|_, entry| keep(&entry.certificate));
    }

    fn clear(&mut self) {
        self.held.clear();
    }
}

/// The signer after `after` in `certificate`'s (sorted) signer list,
/// wrapping around and skipping `me`; `None` if `me` is the only signer.
fn next_signer(certificate: &Certificate, after: ReplicaId, me: ReplicaId) -> Option<ReplicaId> {
    let signers = &certificate.signers;
    let start = signers.partition_point(|signer| *signer <= after);
    (0..signers.len())
        .map(|i| signers[(start + i) % signers.len()])
        .find(|signer| *signer != me)
}

/// FNV-1a 64-bit offset basis: the initial value of the commit-order digest
/// (an all-zero seed would collapse zero-valued transaction ids).
pub const COMMIT_DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Counters accumulated by one replica over a run.
#[derive(Clone, Debug)]
pub struct ReplicaMetrics {
    /// Committed transactions (single-shard + cross-shard).
    pub committed_txs: u64,
    /// Committed single-shard (preplayed) transactions.
    pub single_shard_txs: u64,
    /// Committed cross-shard transactions.
    pub cross_shard_txs: u64,
    /// Preplayed blocks discarded by validation.
    pub invalid_blocks: u64,
    /// Preplay re-executions on this replica's own proposals.
    pub reexecutions: u64,
    /// Proposals that shipped the batch this replica preplayed ahead of
    /// their round: it was still the batch the queue gave, and every read it
    /// declared still held on the proposal's view.
    pub batches_reused: u64,
    /// Proposals that found a batch preplayed ahead of their round unusable
    /// and preplayed afresh: a declared read no longer held, or the queue
    /// had grown a longer batch.
    pub batches_repreplayed: u64,
    /// Completed DAG reconfigurations.
    pub reconfigurations: u64,
    /// Summed commit latencies in seconds.
    pub total_latency_secs: f64,
    /// The part of `total_latency_secs` spent in proposer client queues.
    pub total_queue_wait_secs: f64,
    /// Histogram of per-transaction commit latencies.
    pub latency_hist: LatencyHistogram,
    /// Wall-clock time the validation stage was busy.
    pub validate_busy: Duration,
    /// Wall-clock time the storage-apply stage was busy.
    pub apply_busy: Duration,
    /// Wall-clock time the cross-shard execution stage was busy.
    pub execute_busy: Duration,
    /// Write batches applied together with at least one other batch by the
    /// pipelined commit path.
    pub coalesced_batches: u64,
    /// Storage apply calls performed by the commit path (one per valid block
    /// when staged; one per commit, plus one per invalid block with valid
    /// blocks after it, when pipelined).
    pub apply_calls: u64,
    /// FNV-1a digest over committed transaction ids in commit order.
    pub commit_order_digest: u64,
    /// Per-leader-round commit times.
    pub round_commits: Vec<RoundCommitSample>,
    /// Vertices and certificates dropped on receipt because certificate,
    /// header and block did not bind together (or the certificate lacked a
    /// quorum). Zero unless a peer is Byzantine.
    pub rejected_vertices: u64,
    /// `Fetch` requests sent: one when a certificate arrives without its
    /// block, one more per retry period (300 ms) until the vertex comes.
    pub fetches_sent: u64,
    /// `Fetch` requests this replica answered with the vertex.
    pub fetches_answered: u64,
    /// `Fetch` requests dropped unanswered: a certificate of another DAG or
    /// without a quorum, or a vertex this replica does not hold.
    pub fetches_refused: u64,
    /// Vertices admitted from the answer to one of this replica's fetches.
    pub vertices_fetched: u64,
    /// Certificates without their block dropped because two rounds' worth
    /// were held already: vertices this replica never fetches.
    pub certificates_dropped: u64,
}

impl Default for ReplicaMetrics {
    fn default() -> Self {
        ReplicaMetrics {
            committed_txs: 0,
            single_shard_txs: 0,
            cross_shard_txs: 0,
            invalid_blocks: 0,
            reexecutions: 0,
            batches_reused: 0,
            batches_repreplayed: 0,
            reconfigurations: 0,
            total_latency_secs: 0.0,
            total_queue_wait_secs: 0.0,
            latency_hist: LatencyHistogram::default(),
            validate_busy: Duration::ZERO,
            apply_busy: Duration::ZERO,
            execute_busy: Duration::ZERO,
            coalesced_batches: 0,
            apply_calls: 0,
            commit_order_digest: COMMIT_DIGEST_SEED,
            round_commits: Vec::new(),
            rejected_vertices: 0,
            fetches_sent: 0,
            fetches_answered: 0,
            fetches_refused: 0,
            vertices_fetched: 0,
            certificates_dropped: 0,
        }
    }
}

/// One Thunderbolt replica.
pub struct Replica {
    id: ReplicaId,
    committee: Committee,
    config: ClusterConfig,
    /// The preplay engine: the CE for Thunderbolt, OCC for Thunderbolt-OCC,
    /// none for Tusk, which orders everything before executing it.
    executor: Option<Box<dyn BatchExecutor>>,
    pipeline: CommitPipeline,
    store: Box<dyn Store>,
    proposer: ShardProposer,

    dag_id: DagId,
    assignment: ShardAssignment,
    dag: DagStore,
    committer: Committer,
    current_round: Round,
    proposed_current: bool,
    seq: u64,
    my_header: Option<PendingHeader>,
    /// The `(header, block)` pairs this replica proposed or acknowledged,
    /// keyed by header digest, until the vertex arrives: a bare certificate
    /// is completed from here, a fetch for it is answered from here, and a
    /// full vertex for a retained header shares the retained block's
    /// allocation. A pair leaves when its vertex is admitted; one whose header
    /// was abandoned leaves once its author proposes [`RETENTION_ROUNDS`]
    /// further on; reconfiguration clears the map.
    retained: HashMap<Digest, (Header, Arc<SealedBlock>)>,
    /// Quorum certificates whose header this replica does not hold (yet),
    /// with the fetches out for their vertices. Every replica acknowledges
    /// every header it receives, so this stays empty unless a message was
    /// lost or a peer misbehaves; it is capped at two rounds' worth and
    /// pruned with `retained`.
    fetches: Fetches,
    pending_vertices: Vec<Arc<Vertex>>,
    /// Undelivered DAG vertices that carry a cross-shard transaction
    /// touching this replica's shard: the input to rules P3/P4.
    conflicting_undelivered: HashSet<Digest>,
    future_messages: Vec<(ReplicaId, Message)>,

    /// Write sets of this replica's own preplayed-but-uncommitted blocks.
    /// Preplay reads see them on top of committed storage so that
    /// consecutive blocks from the same shard chain correctly.
    overlay: Overlay,
    /// The last proposal preplayed its batch, so the next one likely will
    /// too: [`Replica::preplay_ahead`] may preplay that batch now.
    last_preplayed: bool,
    /// The front batch of the client queue, preplayed ahead of the round
    /// that will take it. Every proposal takes it, so it is never older
    /// than the last take from the queue.
    ahead: Option<Preplayed>,

    shifted_in_dag: bool,
    rounds_proposed_in_dag: u64,
    shift_quorum_authors: HashSet<ReplicaId>,

    metrics: ReplicaMetrics,
    busy: Duration,
}

impl Replica {
    /// Opens the storage backend `config` selects for replica `id`. A
    /// durable backend lives in its own per-replica directory and may carry
    /// recovered state from a previous incarnation.
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

    /// Creates a replica with the initial shard assignment of DAG 0 and an
    /// empty store pre-loaded by the caller.
    pub fn new(id: ReplicaId, config: ClusterConfig) -> Self {
        let committee = Committee::new(config.system.n_replicas);
        let dag_id = DagId::new(0);
        let assignment = ShardAssignment::new(committee, dag_id);
        let shard = assignment.shard_of(id);
        let op_cost = config.system.ce.synthetic_op_cost_ns;
        let execution = match config.mode {
            ExecutionMode::Tusk => PostCommitExecution::Serial,
            ExecutionMode::Thunderbolt | ExecutionMode::ThunderboltOcc => {
                PostCommitExecution::Pipelined {
                    workers: config.system.validators,
                }
            }
        };
        let pipeline = CommitPipeline::with_op_cost(execution, op_cost);
        let executor: Option<Box<dyn BatchExecutor>> = match config.mode {
            ExecutionMode::Thunderbolt => Some(Box::new(ConcurrentExecutor::new(config.system.ce))),
            ExecutionMode::ThunderboltOcc => Some(Box::new(OccExecutor::new(config.system.ce))),
            ExecutionMode::Tusk => None,
        };
        Replica {
            id,
            committee,
            executor,
            pipeline,
            store: Self::open_store(id, &config.system.storage),
            proposer: ShardProposer::new(shard, config.system.ce.batch_size),
            dag_id,
            assignment,
            dag: DagStore::new(committee, dag_id, Round::ZERO),
            committer: Committer::new(committee, dag_id, Round::ZERO),
            current_round: Round::ZERO,
            proposed_current: false,
            seq: 0,
            my_header: None,
            retained: HashMap::new(),
            fetches: Fetches::new(id),
            pending_vertices: Vec::new(),
            conflicting_undelivered: HashSet::new(),
            future_messages: Vec::new(),
            overlay: Overlay::default(),
            last_preplayed: false,
            ahead: None,
            shifted_in_dag: false,
            rounds_proposed_in_dag: 0,
            shift_quorum_authors: HashSet::new(),
            metrics: ReplicaMetrics::default(),
            config,
            busy: Duration::ZERO,
        }
    }

    /// The replica id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// The shard the replica currently serves as proposer.
    pub fn current_shard(&self) -> ShardId {
        self.proposer.shard()
    }

    /// The current DAG instance.
    pub fn current_dag(&self) -> DagId {
        self.dag_id
    }

    /// The round the replica is currently proposing for.
    pub fn current_round(&self) -> Round {
        self.current_round
    }

    /// The replica's local storage.
    pub fn store(&self) -> &dyn Store {
        self.store.as_ref()
    }

    /// The replica's view of the current DAG instance.
    pub fn dag(&self) -> &DagStore {
        &self.dag
    }

    /// Whether this replica is waiting for the vertex of the header with
    /// digest `header_digest`: it acknowledged the header and waits for the
    /// certificate, it holds the certificate and has asked a signer for the
    /// vertex, or it holds the vertex and waits for a parent to insert it
    /// under.
    pub fn awaits_vertex(&self, header_digest: &Digest) -> bool {
        self.retained.contains_key(header_digest)
            || self.fetches.contains(header_digest)
            || self
                .pending_vertices
                .iter()
                .any(|vertex| vertex.certificate.header_digest == *header_digest)
    }

    /// Loads initial state into the replica's store (used before a run). A
    /// durable backend logs the entries too, so a replica that crashes
    /// before its first commit still recovers its genesis state.
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

    /// Accumulated metrics.
    pub fn metrics(&self) -> &ReplicaMetrics {
        &self.metrics
    }

    /// Number of client transactions waiting in the proposer queues.
    pub fn pending_client_txs(&self) -> usize {
        self.proposer.pending_single() + self.proposer.pending_cross()
    }

    /// Enqueues a client transaction if this replica currently serves the
    /// transaction's home shard.
    pub fn enqueue(&mut self, tx: Transaction) -> bool {
        self.proposer.enqueue(tx)
    }

    /// Returns (and resets) the wall-clock execution time accumulated by the
    /// last handler invocation; the driver charges it to this replica's
    /// clock.
    pub fn take_busy(&mut self) -> Duration {
        std::mem::take(&mut self.busy)
    }

    /// Builds the run report from this replica's point of view. The replica
    /// does not know what generated its traffic or what the transport
    /// carried, so its owner (the cluster simulation or a node process)
    /// supplies the workload name and the network statistics; fault
    /// accounting is left at zero for a driver that injects faults to fill.
    pub fn report(
        &self,
        label: &str,
        workload: &str,
        duration: SimTime,
        net: NetworkStats,
    ) -> RunReport {
        RunReport {
            label: label.to_string(),
            workload: workload.to_string(),
            replicas: self.committee.size(),
            committed_txs: self.metrics.committed_txs,
            single_shard_txs: self.metrics.single_shard_txs,
            cross_shard_txs: self.metrics.cross_shard_txs,
            invalid_blocks: self.metrics.invalid_blocks,
            reexecutions: self.metrics.reexecutions,
            reconfigurations: self.metrics.reconfigurations,
            duration,
            total_latency_secs: self.metrics.total_latency_secs,
            total_queue_wait_secs: self.metrics.total_queue_wait_secs,
            latency_p50_secs: self.metrics.latency_hist.quantile_secs(0.5),
            latency_p99_secs: self.metrics.latency_hist.quantile_secs(0.99),
            validate_busy_secs: self.metrics.validate_busy.as_secs_f64(),
            apply_busy_secs: self.metrics.apply_busy.as_secs_f64(),
            execute_busy_secs: self.metrics.execute_busy.as_secs_f64(),
            coalesced_batches: self.metrics.coalesced_batches,
            apply_calls: self.metrics.apply_calls,
            commit_order_digest: format!("{:016x}", self.metrics.commit_order_digest),
            round_commits: self.metrics.round_commits.clone(),
            highest_round: self.dag.highest_round(),
            msgs_sent: net.sent,
            msgs_delivered: net.delivered,
            msgs_dropped: net.dropped,
            bytes_sent: net.bytes_sent,
            bytes_delivered: net.bytes_delivered,
            faults_applied: 0,
            faults_unapplied: 0,
        }
    }

    /// Starts the replica: proposes its block for the first round.
    pub fn start(&mut self, now: SimTime) -> Vec<Outbound> {
        self.propose(now)
    }

    /// Handles one protocol message.
    pub fn handle(&mut self, from: ReplicaId, msg: Message, now: SimTime) -> Vec<Outbound> {
        let mut out = match msg {
            Message::Header { header, block } => self.on_header(from, header, block, now),
            Message::Ack {
                header_digest,
                dag,
                signer,
                ..
            } => self.on_ack(from, dag, header_digest, signer),
            Message::Certificate(certificate) => self.on_certificate(from, certificate, now),
            Message::Fetch(certificate) => self.on_fetch(from, certificate),
            Message::Vertex(vertex) => self.on_vertex(from, *vertex, now),
        };
        for (to, certificate) in self.fetches.due(now) {
            out.push(self.fetch(to, certificate));
        }
        out
    }

    // ------------------------------------------------------------------
    // Proposal path
    // ------------------------------------------------------------------

    fn propose(&mut self, now: SimTime) -> Vec<Outbound> {
        if self.proposed_current {
            return Vec::new();
        }
        let started = Instant::now();
        let context = ProposalContext {
            leader_vertex_present: self.previous_leader_present(),
            conflicting_cross_shard_pending: self.conflicting_cross_pending(),
            should_shift: self.should_shift(),
            use_skip_blocks: self.config.use_skip_blocks,
        };
        let decision = if self.executor.is_none() {
            // Tusk has no preplay path: everything is ordered first and
            // executed after consensus. Shift blocks still apply.
            if context.should_shift {
                ProposalDecision::Shift
            } else {
                ProposalDecision::ConvertToCross
            }
        } else {
            decide(context)
        };
        // Whatever the decision, this proposal is the last to find the batch
        // preplayed ahead at the front of the queue.
        let ahead = self.ahead.take();
        self.last_preplayed = decision == ProposalDecision::Preplay;

        let (kind, payload) = match decision {
            ProposalDecision::Shift => {
                self.shifted_in_dag = true;
                (BlockKind::Shift, BlockPayload::empty())
            }
            ProposalDecision::Preplay => {
                let singles = self.proposer.take_single_batch();
                let budget = self
                    .config
                    .system
                    .ce
                    .batch_size
                    .saturating_sub(singles.len());
                let cross = self.proposer.take_cross_batch(budget);
                let preplayed = self.preplay_batch(&singles, ahead);
                (
                    BlockKind::Normal,
                    BlockPayload {
                        single_shard: preplayed,
                        cross_shard: cross,
                    },
                )
            }
            ProposalDecision::ConvertToCross => {
                let mut cross = self.proposer.take_single_batch();
                let budget = self.config.system.ce.batch_size.saturating_sub(cross.len());
                cross.extend(self.proposer.take_cross_batch(budget));
                (
                    BlockKind::Normal,
                    BlockPayload {
                        single_shard: Vec::new(),
                        cross_shard: cross,
                    },
                )
            }
            ProposalDecision::Skip => {
                let cross = self
                    .proposer
                    .take_cross_batch(self.config.system.ce.batch_size);
                (
                    BlockKind::Skip,
                    BlockPayload {
                        single_shard: Vec::new(),
                        cross_shard: cross,
                    },
                )
            }
        };

        let parents = if self.current_round == self.dag.start_round() {
            Vec::new()
        } else {
            self.dag.certificates_at_round(self.current_round.prev())
        };
        self.seq += 1;
        let byzantine = self.byzantine_behavior();
        let payload = match byzantine {
            Some(ByzantineBehavior::TamperWrites) if kind == BlockKind::Normal => {
                Self::tamper_writes(payload)
            }
            Some(ByzantineBehavior::OverfullWrongShard) if kind == BlockKind::Normal => {
                self.overfill_payload(payload)
            }
            _ => payload,
        };
        let mut block = Block::normal(
            self.dag_id,
            self.current_round,
            self.id,
            self.proposer.shard(),
            SeqNo::new(self.seq),
            payload,
            now,
        );
        block.kind = kind;
        let block = Arc::new(block.seal());
        let header = Header::new(
            self.dag_id,
            self.current_round,
            self.id,
            block.digest(),
            parents,
            now,
        );
        let digest = header.digest();
        self.retained
            .insert(digest, (header.clone(), Arc::clone(&block)));
        self.my_header = Some(PendingHeader {
            digest,
            acks: HashSet::from([self.id]),
            certified: false,
        });
        self.proposed_current = true;
        self.rounds_proposed_in_dag += 1;
        self.busy += started.elapsed();
        if byzantine == Some(ByzantineBehavior::Equivocate) && kind == BlockKind::Normal {
            return self.equivocate(header, block);
        }
        vec![Outbound::broadcast(Message::Header { header, block })]
    }

    /// The Byzantine behaviour this replica is configured to exhibit, if any.
    fn byzantine_behavior(&self) -> Option<ByzantineBehavior> {
        match self.config.byzantine {
            Some((id, behavior)) if id == self.id => Some(behavior),
            _ => None,
        }
    }

    /// [`ByzantineBehavior::TamperWrites`]: corrupt the first declared write
    /// so the block's declared effects no longer re-execute.
    fn tamper_writes(mut payload: BlockPayload) -> BlockPayload {
        for preplayed in payload.single_shard.iter_mut() {
            if let Some(record) = preplayed.outcome.write_set.first_mut() {
                record.value = Value::int(i64::MIN / 2);
                break;
            }
        }
        payload
    }

    /// [`ByzantineBehavior::OverfullWrongShard`]: stuff a second single-shard
    /// batch *and* preplayed cross-shard transactions (a P1 violation: their
    /// writes land outside this proposer's shard) into the block.
    fn overfill_payload(&mut self, mut payload: BlockPayload) -> BlockPayload {
        let mut extra = self.proposer.take_single_batch();
        extra.extend(
            self.proposer
                .take_cross_batch(self.config.system.ce.batch_size),
        );
        if !extra.is_empty() {
            let preplayed = self.preplay_batch(&extra, None);
            payload.single_shard.extend(preplayed);
        }
        payload
    }

    /// [`ByzantineBehavior::Equivocate`]: send the real (header, block) pair
    /// to itself plus the smallest quorum of peers, and a conflicting empty
    /// variant for the same round to everyone else. Only one variant can
    /// gather a certificate, so honest replicas adopt a single vertex.
    fn equivocate(&mut self, header: Header, block: Arc<SealedBlock>) -> Vec<Outbound> {
        let alt_block = Block::normal(
            self.dag_id,
            self.current_round,
            self.id,
            self.proposer.shard(),
            SeqNo::new(self.seq),
            BlockPayload::empty(),
            header.created_at,
        );
        let alt_block = Arc::new(alt_block.seal());
        let alt_header = Header::new(
            self.dag_id,
            self.current_round,
            self.id,
            alt_block.digest(),
            header.parents.clone(),
            header.created_at,
        );
        let quorum = self.committee.quorum_threshold();
        let mut out = vec![Outbound::to(
            self.id,
            Message::Header {
                header: header.clone(),
                block: Arc::clone(&block),
            },
        )];
        let mut primary_recipients = 1; // the self-ack counts toward quorum
        for peer in self.committee.replicas() {
            if peer == self.id {
                continue;
            }
            if primary_recipients < quorum {
                out.push(Outbound::to(
                    peer,
                    Message::Header {
                        header: header.clone(),
                        block: Arc::clone(&block),
                    },
                ));
                primary_recipients += 1;
            } else {
                out.push(Outbound::to(
                    peer,
                    Message::Header {
                        header: alt_header.clone(),
                        block: Arc::clone(&alt_block),
                    },
                ));
            }
        }
        out
    }

    /// The preplayed form of `singles`, the batch this round took, against
    /// committed state plus this replica's own uncommitted preplay results;
    /// its writes join those results. `ahead` is the batch preplayed ahead of
    /// the round, if any: it is used when it preplayed exactly `singles` and
    /// every read it declares holds on the current view (validation's read
    /// check), because preplaying `singles` again would then yield the same
    /// outcomes. Without an engine (Tusk) nothing is preplayed.
    fn preplay_batch(
        &mut self,
        singles: &[Transaction],
        ahead: Option<Preplayed>,
    ) -> Vec<PreplayedTx> {
        let Some(executor) = self.executor.as_deref() else {
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
        // its length is the one it preplayed.
        let batch = match ahead {
            Some(ahead)
                if ahead.txs.len() == singles.len()
                    && check_reads(&[&ahead.txs], &view)
                        .into_iter()
                        .all(|pass| pass) =>
            {
                debug_assert!(ahead
                    .txs
                    .iter()
                    .all(|p| singles.iter().any(|tx| tx.id == p.tx.id)));
                self.metrics.batches_reused += 1;
                ahead
            }
            ahead => {
                self.metrics.batches_repreplayed += u64::from(ahead.is_some());
                Preplayed::new(executor, singles, &view)
            }
        };
        self.metrics.reexecutions += batch.reexecutions;
        self.overlay.push(self.current_round, batch.writes);
        batch.txs
    }

    /// The step the driver runs after each message, once the output is sent
    /// and the client queue topped up: if the last proposal preplayed and no
    /// uncommitted cross-shard transaction touches this shard (P3/P4), the
    /// batch the next proposal will take is preplayed now, against committed
    /// state plus the uncommitted preplay results of every block proposed so
    /// far. The next proposal then only re-checks its reads. Nothing is
    /// taken from the queue. A batch preplayed ahead is kept until the queue
    /// offers a longer one. The work is reported through
    /// [`take_busy`](Self::take_busy) like a handler's.
    pub(crate) fn preplay_ahead(&mut self) {
        if !self.last_preplayed || !self.conflicting_undelivered.is_empty() {
            return;
        }
        let Some(executor) = self.executor.as_deref() else {
            return;
        };
        let started = Instant::now();
        let txs = self.proposer.next_single_batch();
        if txs.len() <= self.ahead.as_ref().map_or(0, |ahead| ahead.txs.len()) {
            return;
        }
        let view = OverlayRead {
            store: self.store.as_ref(),
            overlay: &self.overlay,
        };
        self.ahead = Some(Preplayed::new(executor, txs, &view));
        self.busy += started.elapsed();
    }

    fn previous_leader_present(&self) -> bool {
        let current = self.current_round.as_u64();
        let start = self.dag.start_round().as_u64();
        if current <= start + 1 {
            return true;
        }
        // The latest leader round strictly before the current round.
        let candidate = current - 1;
        let leader_round = if candidate % 2 == 1 {
            candidate
        } else {
            candidate - 1
        };
        if leader_round < start.max(1) {
            return true;
        }
        let round = Round::new(leader_round);
        let leader = self.committee.leader(self.dag_id, round);
        self.dag.by_author_round(leader, round).is_some()
    }

    fn conflicting_cross_pending(&self) -> bool {
        !self.conflicting_undelivered.is_empty()
    }

    /// Bookkeeping for a vertex the DAG just accepted: remember it while it
    /// is undelivered and carries a cross-shard transaction on this
    /// replica's shard. The shard only changes on reconfiguration, which
    /// starts a new DAG and clears the set.
    fn track_inserted(&mut self, id: Digest, vertex: &Vertex) {
        let my_shard = self.proposer.shard();
        let conflicts = vertex
            .block
            .payload
            .cross_shard
            .iter()
            .any(|tx| tx.touches_shard(my_shard));
        if conflicts && !self.committer.is_delivered(&id) {
            self.conflicting_undelivered.insert(id);
        }
    }

    fn should_shift(&self) -> bool {
        if self.shifted_in_dag {
            return false;
        }
        let reconfig = self.config.system.reconfig;
        // Condition 2: the replica proposed for K' rounds in this DAG.
        if self.rounds_proposed_in_dag >= reconfig.period_k_prime {
            return true;
        }
        let current = self.current_round.as_u64();
        let start = self.dag.start_round().as_u64();
        // Condition 1: some proposer has been silent for K rounds.
        if current >= start + reconfig.silent_rounds_k {
            for author in self.committee.replicas() {
                if author == self.id {
                    continue;
                }
                let seen = (current - reconfig.silent_rounds_k..current)
                    .any(|r| self.dag.by_author_round(author, Round::new(r)).is_some());
                if !seen {
                    return true;
                }
            }
        }
        // Condition 3: f + 1 Shift blocks in the previous round.
        if current > start {
            let shift_count = self
                .dag
                .at_round(self.current_round.prev())
                .iter()
                .filter(|v| v.block.is_shift())
                .count();
            if shift_count >= self.committee.validity_threshold() {
                return true;
            }
        }
        false
    }

    // ------------------------------------------------------------------
    // Message handlers
    // ------------------------------------------------------------------

    /// A header for `round` shows how far `author` has come: its pairs and
    /// held certificates from more than [`RETENTION_ROUNDS`] earlier were
    /// certified or abandoned long ago, and everything the author sent about
    /// them has arrived.
    fn drop_stale(&mut self, author: ReplicaId, round: Round) {
        let stale = |of: ReplicaId, at: Round| {
            of == author && at.as_u64() + RETENTION_ROUNDS < round.as_u64()
        };
        self.retained
            .retain(|_, (header, _)| !stale(header.author, header.round));
        self.fetches
            .retain(|certificate| !stale(certificate.author, certificate.round));
    }

    fn on_header(
        &mut self,
        from: ReplicaId,
        header: Header,
        block: Arc<SealedBlock>,
        now: SimTime,
    ) -> Vec<Outbound> {
        if header.dag > self.dag_id {
            self.future_messages
                .push((from, Message::Header { header, block }));
            return Vec::new();
        }
        if header.dag < self.dag_id
            || header.author != from
            || header.round < self.dag.start_round()
        {
            return Vec::new();
        }
        if block.digest() != header.block_digest {
            return Vec::new();
        }
        let header_digest = header.digest();
        // Its own proposal coming back on the loop-back, or a duplicate.
        let known = self.retained.contains_key(&header_digest);
        self.drop_stale(header.author, header.round);
        let mut out = vec![Outbound::to(
            from,
            Message::Ack {
                header_digest,
                dag: header.dag,
                round: header.round,
                signer: self.id,
            },
        )];
        if known {
            return out;
        }
        if let Some(certificate) = self.fetches.take(&header_digest) {
            if certificate.certifies(&header) {
                let vertex = Vertex::new(header, block, certificate);
                out.extend(self.admit(Arc::new(vertex), now));
                return out;
            }
            self.metrics.rejected_vertices += 1;
        }
        // Once the author's vertex for this round is in the DAG no
        // certificate for the pair can be of use any more.
        if self
            .dag
            .by_author_round(header.author, header.round)
            .is_none()
        {
            self.retained.insert(header_digest, (header, block));
        }
        out
    }

    fn on_ack(
        &mut self,
        from: ReplicaId,
        dag: DagId,
        header_digest: Digest,
        signer: ReplicaId,
    ) -> Vec<Outbound> {
        // An acknowledgement speaks for its sender only: a signer must
        // really hold the block, since it answers fetches for it.
        if dag != self.dag_id || signer != from || !self.committee.contains(signer) {
            return Vec::new();
        }
        let quorum = self.committee.quorum_threshold();
        let Some(pending) = self.my_header.as_mut() else {
            return Vec::new();
        };
        if pending.digest != header_digest || pending.certified {
            return Vec::new();
        }
        pending.acks.insert(signer);
        if pending.acks.len() < quorum {
            return Vec::new();
        }
        let Some((header, _)) = self.retained.get(&header_digest) else {
            return Vec::new();
        };
        pending.certified = true;
        let certificate = Certificate::for_header(header, pending.acks.iter().copied().collect());
        // The certificate alone, to everyone: a replica whose acknowledgement
        // was not counted acknowledged all the same and holds the pair, and
        // one whose header went missing fetches the vertex from a signer.
        vec![Outbound::broadcast(Message::Certificate(certificate))]
    }

    /// A bare certificate from its author: completed from the retained
    /// pair, or held, and its vertex fetched, until the header lands.
    fn on_certificate(
        &mut self,
        from: ReplicaId,
        certificate: Certificate,
        now: SimTime,
    ) -> Vec<Outbound> {
        if certificate.dag > self.dag_id {
            self.future_messages
                .push((from, Message::Certificate(certificate)));
            return Vec::new();
        }
        if certificate.dag < self.dag_id {
            return Vec::new();
        }
        if certificate.author != from || !certificate.is_valid(&self.committee) {
            self.metrics.rejected_vertices += 1;
            return Vec::new();
        }
        let header_digest = certificate.header_digest;
        match self.retained.get(&header_digest) {
            Some((header, _)) if certificate.certifies(header) => {
                let (header, block) = self
                    .retained
                    .remove(&header_digest)
                    .expect("looked up just above");
                self.admit(Arc::new(Vertex::new(header, block, certificate)), now)
            }
            Some(_) => {
                self.metrics.rejected_vertices += 1;
                Vec::new()
            }
            None => self.hold(certificate, now),
        }
    }

    /// Holds a certificate whose `(header, block)` pair this replica does
    /// not have, and asks a signer for its vertex at once: in lockstep a
    /// replica missing one vertex holds up everyone's next round, so waiting
    /// for a later message to ask could wait forever.
    fn hold(&mut self, certificate: Certificate, now: SimTime) -> Vec<Outbound> {
        if self.fetches.contains(&certificate.header_digest)
            || self.dag.contains(&certificate.digest())
        {
            return Vec::new();
        }
        if self.fetches.len() >= 2 * self.committee.size() as usize {
            self.metrics.certificates_dropped += 1;
            return Vec::new();
        }
        match self.fetches.hold(certificate, now) {
            Some((to, certificate)) => vec![self.fetch(to, certificate)],
            None => Vec::new(),
        }
    }

    fn fetch(&mut self, to: ReplicaId, certificate: Certificate) -> Outbound {
        self.metrics.fetches_sent += 1;
        Outbound::to(to, Message::Fetch(certificate))
    }

    /// A request for the vertex `certificate` names. It is answered when the
    /// certificate is a valid one of the current DAG and this replica holds
    /// the vertex, admitted or as the pair it acknowledged; anything else is
    /// dropped and counted.
    fn on_fetch(&mut self, from: ReplicaId, certificate: Certificate) -> Vec<Outbound> {
        let vertex = if certificate.dag != self.dag_id || !certificate.is_valid(&self.committee) {
            None
        } else if let Some(vertex) = self.dag.get(&certificate.digest()) {
            Some(Vertex::clone(vertex))
        } else {
            self.retained
                .get(&certificate.header_digest)
                .filter(|(header, _)| certificate.certifies(header))
                .map(|(header, block)| Vertex::new(header.clone(), Arc::clone(block), certificate))
        };
        match vertex {
            Some(vertex) => {
                self.metrics.fetches_answered += 1;
                vec![Outbound::to(from, Message::Vertex(Box::new(vertex)))]
            }
            None => {
                self.metrics.fetches_refused += 1;
                Vec::new()
            }
        }
    }

    /// A full vertex from the wire, the answer to a fetch. Its id is derived
    /// from the certificate alone, so before it may enter the DAG the
    /// certificate must carry a quorum and certify exactly this header, and
    /// the block must be the one the header commits to.
    fn on_vertex(&mut self, from: ReplicaId, mut vertex: Vertex, now: SimTime) -> Vec<Outbound> {
        if vertex.dag() > self.dag_id {
            self.future_messages
                .push((from, Message::Vertex(Box::new(vertex))));
            return Vec::new();
        }
        if vertex.dag() < self.dag_id {
            return Vec::new();
        }
        if !vertex.certificate.is_valid(&self.committee)
            || !vertex.certificate.certifies(&vertex.header)
        {
            self.metrics.rejected_vertices += 1;
            return Vec::new();
        }
        match self.retained.remove(&vertex.certificate.header_digest) {
            // The retained block was checked against this header when it was
            // acknowledged; keeping it shares one allocation among holders.
            Some((_, block)) => vertex.block = block,
            None if vertex.block.digest() != vertex.header.block_digest => {
                self.metrics.rejected_vertices += 1;
                return Vec::new();
            }
            None => {}
        }
        if self
            .fetches
            .take(&vertex.certificate.header_digest)
            .is_some()
        {
            self.metrics.vertices_fetched += 1;
        }
        self.admit(Arc::new(vertex), now)
    }

    /// Inserts a vertex whose certificate, header and block are known to
    /// bind together, then runs whatever the insert unblocks.
    fn admit(&mut self, vertex: Arc<Vertex>, now: SimTime) -> Vec<Outbound> {
        match self.dag.insert(Arc::clone(&vertex)) {
            Ok(id) => self.track_inserted(id, &vertex),
            Err(DagError::MissingParent { .. }) => {
                self.pending_vertices.push(vertex);
                return Vec::new();
            }
            Err(_) => return Vec::new(),
        }
        self.drain_pending_vertices();

        let mut out = Vec::new();
        out.extend(self.run_commit_loop(now));
        out.extend(self.maybe_advance(now));
        out
    }

    fn drain_pending_vertices(&mut self) {
        loop {
            let mut progressed = false;
            let pending = std::mem::take(&mut self.pending_vertices);
            for vertex in pending {
                if vertex.dag() != self.dag_id {
                    continue;
                }
                match self.dag.insert(Arc::clone(&vertex)) {
                    Ok(id) => {
                        self.track_inserted(id, &vertex);
                        progressed = true;
                    }
                    Err(DagError::MissingParent { .. }) => self.pending_vertices.push(vertex),
                    Err(_) => {}
                }
            }
            if !progressed {
                break;
            }
        }
    }

    // ------------------------------------------------------------------
    // Commit + reconfiguration
    // ------------------------------------------------------------------

    fn run_commit_loop(&mut self, now: SimTime) -> Vec<Outbound> {
        let mut out = Vec::new();
        for sub_dag in self.committer.try_commit(&self.dag) {
            let output = self.pipeline.process(&sub_dag, self.store.as_ref(), now);
            self.busy += output.busy;
            self.metrics.committed_txs += output.committed_count() as u64;
            self.metrics.single_shard_txs += output.single_shard_committed as u64;
            self.metrics.cross_shard_txs += output.cross_shard_committed as u64;
            self.metrics.invalid_blocks += output.invalid_blocks as u64;
            self.metrics.total_latency_secs += output.total_latency_secs;
            self.metrics.total_queue_wait_secs += output.total_queue_wait_secs;
            self.metrics.validate_busy += output.stage_validate;
            self.metrics.apply_busy += output.stage_apply;
            self.metrics.execute_busy += output.stage_execute;
            self.metrics.coalesced_batches += output.coalesced_batches;
            self.metrics.apply_calls += output.apply_calls;
            for latency in &output.latency_samples_secs {
                self.metrics.latency_hist.record_secs(*latency);
            }
            for (tx_id, _) in &output.committed {
                // FNV-1a fold over the commit order; honest replicas agree on
                // the sequence, so they agree on the digest.
                self.metrics.commit_order_digest = (self.metrics.commit_order_digest
                    ^ tx_id.as_inner())
                .wrapping_mul(0x0100_0000_01b3);
            }
            self.metrics.round_commits.push(RoundCommitSample {
                dag: self.dag_id.as_inner(),
                round: sub_dag.leader_round,
                committed_at: now,
                digest: self.metrics.commit_order_digest,
            });
            // Commit boundary: a durable backend persists the marker and
            // fsyncs everything before it, so recovery reproduces both the
            // state and the digest the replica had reached here.
            self.store.commit_marker(CommitMarker {
                dag: self.dag_id.as_inner(),
                round: sub_dag.leader_round.as_u64(),
                digest: self.metrics.commit_order_digest,
            });
            // Delivered vertices no longer hold back preplay (P3/P4), and
            // this replica's own delivered blocks leave the overlay.
            for vertex in &sub_dag.vertices {
                self.conflicting_undelivered.remove(&vertex.id());
                if vertex.author() == self.id {
                    self.overlay.deliver(vertex.round());
                }
            }
            // Reconfiguration: the first committed sub-DAG whose cumulative
            // Shift-block authors reach 2f + 1 fixes the ending round.
            for author in &output.shift_authors {
                self.shift_quorum_authors.insert(*author);
            }
            if self.shift_quorum_authors.len() >= self.committee.quorum_threshold() {
                out.extend(self.reconfigure(sub_dag.leader_round, now));
                return out;
            }
        }
        out
    }

    fn reconfigure(&mut self, ending_round: Round, now: SimTime) -> Vec<Outbound> {
        self.metrics.reconfigurations += 1;
        self.dag_id = DagId::new(self.dag_id.as_inner() + 1);
        self.assignment = self.assignment.next();
        self.dag = DagStore::new(self.committee, self.dag_id, ending_round);
        self.committer = Committer::new(self.committee, self.dag_id, ending_round);
        self.current_round = ending_round;
        self.proposed_current = false;
        self.my_header = None;
        self.retained.clear();
        self.fetches.clear();
        self.pending_vertices.retain(|v| v.dag() == self.dag_id);
        self.conflicting_undelivered.clear();
        self.overlay.clear();
        // The queue may be cleared below: drop its preplayed front with it.
        self.ahead = None;
        self.shifted_in_dag = false;
        self.rounds_proposed_in_dag = 0;
        self.shift_quorum_authors.clear();
        self.proposer.reassign(self.assignment.shard_of(self.id));

        let mut out = self.propose(now);
        // Replay buffered messages that were ahead of us.
        let buffered: Vec<(ReplicaId, Message)> = std::mem::take(&mut self.future_messages);
        for (from, msg) in buffered {
            out.extend(self.handle(from, msg, now));
        }
        out
    }

    fn maybe_advance(&mut self, now: SimTime) -> Vec<Outbound> {
        let mut out = Vec::new();
        while self.proposed_current && self.dag.round_has_quorum(self.current_round) {
            // Lockstep mode waits for the *complete* round — all n vertices,
            // not just a 2f+1 quorum — before advancing. With a complete DAG
            // the committed sub-DAG sequence is a pure function of the
            // transaction stream, which is what lets a real-TCP run be
            // digest-compared against an in-process sim run (see
            // `ClusterConfig::lockstep` for the crash-tolerance trade-off).
            if self.config.lockstep
                && self.dag.authors_at_round(self.current_round) < self.committee.size() as usize
            {
                break;
            }
            self.current_round = self.current_round.next();
            self.proposed_current = false;
            self.my_header = None;
            out.extend(self.propose(now));
        }
        out
    }
}

/// One batch's preplay: the outcomes a block ships and the writes the
/// proposer's overlay takes for it.
struct Preplayed {
    /// Sorted by `order`.
    txs: Vec<PreplayedTx>,
    /// The last write per key.
    writes: KeyMap<Value>,
    reexecutions: u64,
}

impl Preplayed {
    /// Preplays `txs` against `view`: the replica's one call of
    /// [`BatchExecutor::preplay`].
    fn new(executor: &dyn BatchExecutor, txs: &[Transaction], view: &OverlayRead<'_>) -> Self {
        let result = executor.preplay(txs, view);
        // Executors return the batch sorted by `order`, so later writes of a
        // key overwrite earlier ones here.
        let mut writes: KeyMap<Value> = KeyMap::default();
        for rec in result.preplayed.iter().flat_map(|p| &p.outcome.write_set) {
            writes.insert(rec.key, rec.value.clone());
        }
        Preplayed {
            txs: result.preplayed,
            writes,
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
    use crate::cluster::{ClusterConfig, ExecutionMode};
    use tb_types::{CeConfig, ClientId, ContractCall, SmallBankProcedure, SystemConfig, TxId};

    fn config(n: u32) -> ClusterConfig {
        let mut system = SystemConfig::with_replicas(n);
        system.ce = CeConfig::new(2, 64).without_synthetic_cost();
        system.validators = 2;
        ClusterConfig {
            system,
            mode: ExecutionMode::Thunderbolt,
            use_skip_blocks: false,
            seed: 7,
            label: None,
            byzantine: None,
            lockstep: false,
        }
    }

    fn payment(id: u64, from: u64, to: u64, n_shards: u32) -> Transaction {
        Transaction::new(
            TxId::new(id),
            ClientId::new(0),
            ContractCall::SmallBank(SmallBankProcedure::SendPayment {
                from,
                to,
                amount: 1,
            }),
            n_shards,
            SimTime::ZERO,
        )
    }

    /// Drives a set of replicas to completion by synchronously delivering
    /// every outbound message (no latency, no faults). Returns when no more
    /// messages are produced.
    fn run_synchronously(replicas: &mut [Replica], rounds_budget: usize) {
        let mut inbox: VecDeque<(ReplicaId, ReplicaId, Message)> = VecDeque::new();
        let now = SimTime::ZERO;
        let n = replicas.len();
        for replica in replicas.iter_mut() {
            for outbound in replica.start(now) {
                enqueue(&mut inbox, replica.id(), outbound, n);
            }
        }
        let mut steps = 0usize;
        let budget = rounds_budget * n * n * 20;
        while let Some((from, to, msg)) = inbox.pop_front() {
            steps += 1;
            if steps > budget {
                break;
            }
            let replica = &mut replicas[to.as_inner() as usize];
            if replica.current_round().as_u64() >= rounds_budget as u64 {
                continue;
            }
            for outbound in replica.handle(from, msg, now) {
                enqueue(&mut inbox, replica.id(), outbound, n);
            }
        }
    }

    fn enqueue(
        inbox: &mut VecDeque<(ReplicaId, ReplicaId, Message)>,
        from: ReplicaId,
        outbound: Outbound,
        n: usize,
    ) {
        match outbound.dest {
            Destination::Broadcast => {
                for to in 0..n {
                    inbox.push_back((from, ReplicaId::new(to as u32), outbound.msg.clone()));
                }
            }
            Destination::To(to) => inbox.push_back((from, to, outbound.msg.clone())),
        }
    }

    #[test]
    fn start_proposes_a_header_for_round_zero() {
        let mut replica = Replica::new(ReplicaId::new(0), config(4));
        let out = replica.start(SimTime::ZERO);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].msg.kind(), "header");
        assert_eq!(out[0].msg.round(), Round::ZERO);
        assert_eq!(replica.current_shard(), ShardId::new(0));
        assert_eq!(replica.current_dag(), DagId::new(0));
    }

    fn ack(header: &Header, signer: u32) -> Message {
        Message::Ack {
            header_digest: header.digest(),
            dag: header.dag,
            round: header.round,
            signer: ReplicaId::new(signer),
        }
    }

    /// Starts replica 0 of a 4-cluster and returns it with its round-0
    /// proposal.
    fn proposer_with_header() -> (Replica, Header, Arc<SealedBlock>) {
        let mut proposer = Replica::new(ReplicaId::new(0), config(4));
        let out = proposer.start(SimTime::ZERO);
        let Message::Header { header, block } = out[0].msg.clone() else {
            panic!("expected header");
        };
        (proposer, header, block)
    }

    fn quorum_certificate(header: &Header) -> Certificate {
        Certificate::for_header(header, (0..3).map(ReplicaId::new).collect())
    }

    #[test]
    fn two_remote_acks_broadcast_the_bare_certificate() {
        let (mut proposer, header, block) = proposer_with_header();
        let mut signer = Replica::new(ReplicaId::new(1), config(4));
        let mut late = Replica::new(ReplicaId::new(2), config(4));
        // Two other replicas acknowledge the header.
        for replica in [&mut signer, &mut late] {
            let acks = replica.handle(
                ReplicaId::new(0),
                Message::Header {
                    header: header.clone(),
                    block: Arc::clone(&block),
                },
                SimTime::ZERO,
            );
            assert_eq!(acks.len(), 1);
            assert_eq!(acks[0].msg.kind(), "ack");
            assert_eq!(acks[0].dest, Destination::To(ReplicaId::new(0)));
        }

        // An acknowledgement speaks for its sender only.
        let forged = proposer.handle(ReplicaId::new(2), ack(&header, 3), SimTime::ZERO);
        assert!(forged.is_empty());
        // The author signed by proposing: the second remote ack completes
        // the quorum, the third changes nothing.
        let first = proposer.handle(ReplicaId::new(1), ack(&header, 1), SimTime::ZERO);
        assert!(first.is_empty());
        let out = proposer.handle(ReplicaId::new(3), ack(&header, 3), SimTime::ZERO);
        let counted_too_late = proposer.handle(ReplicaId::new(2), ack(&header, 2), SimTime::ZERO);
        assert!(counted_too_late.is_empty());

        // One broadcast: the same bare certificate for all four replicas.
        assert_eq!(out.len(), 1);
        let mut inbox = VecDeque::new();
        enqueue(&mut inbox, ReplicaId::new(0), out[0].clone(), 4);
        let delivered: Vec<(ReplicaId, &str)> =
            inbox.iter().map(|(_, to, msg)| (*to, msg.kind())).collect();
        assert_eq!(
            delivered,
            (0..4)
                .map(|to| (ReplicaId::new(to), "certificate"))
                .collect::<Vec<_>>()
        );
        let Message::Certificate(certificate) = out[0].msg.clone() else {
            panic!("expected certificate");
        };
        assert_eq!(
            certificate.signers,
            vec![ReplicaId::new(0), ReplicaId::new(1), ReplicaId::new(3)]
        );

        // The signer and the replica whose ack came too late to count both
        // complete the certificate from the pair they retained: nobody
        // fetches, and the block is the one shared copy.
        for replica in [&mut signer, &mut late] {
            assert!(replica.awaits_vertex(&certificate.header_digest));
            let out = replica.handle(
                ReplicaId::new(0),
                Message::Certificate(certificate.clone()),
                SimTime::ZERO,
            );
            assert!(!replica.awaits_vertex(&certificate.header_digest));
            assert!(out.iter().all(|o| o.msg.kind() != "fetch"));
            let stored = replica
                .dag()
                .by_author_round(ReplicaId::new(0), Round::ZERO)
                .expect("vertex assembled locally");
            assert!(Arc::ptr_eq(&stored.block, &block));
            assert!(replica.retained.is_empty());
            assert_eq!(replica.metrics().fetches_sent, 0);
        }
    }

    #[test]
    fn certificate_before_its_header_waits_for_the_header() {
        let (_, header, block) = proposer_with_header();
        let mut other = Replica::new(ReplicaId::new(1), config(4));
        let certificate = quorum_certificate(&header);
        let header_digest = certificate.header_digest;
        assert!(!other.awaits_vertex(&header_digest));
        // Signers 0, 1 and 2: replica 1 asks the next one after itself.
        let out = other.handle(
            ReplicaId::new(0),
            Message::Certificate(certificate.clone()),
            SimTime::ZERO,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dest, Destination::To(ReplicaId::new(2)));
        assert_eq!(out[0].msg, Message::Fetch(certificate));
        assert!(other.dag().is_empty());
        assert_eq!(other.fetches.len(), 1);
        assert!(other.awaits_vertex(&header_digest));

        // The header overtakes the answer: the held certificate completes
        // it, and the answer arriving later changes nothing.
        let out = other.handle(
            ReplicaId::new(0),
            Message::Header { header, block },
            SimTime::ZERO,
        );
        assert_eq!(out[0].msg.kind(), "ack");
        assert_eq!(other.dag().len(), 1);
        assert_eq!(other.fetches.len(), 0);
        assert!(other.retained.is_empty());
        assert!(!other.awaits_vertex(&header_digest));
        assert_eq!(other.metrics().fetches_sent, 1);
        assert_eq!(other.metrics().vertices_fetched, 0);
    }

    #[test]
    fn unmatched_certificates_and_retained_pairs_stay_bounded() {
        // Certificates whose headers never arrive are held, and their
        // vertices fetched, up to a cap; beyond it they are dropped and
        // counted.
        let mut replica = Replica::new(ReplicaId::new(1), config(4));
        for round in 0..100 {
            let header = Header::new(
                DagId::new(0),
                Round::new(round),
                ReplicaId::new(0),
                Digest::ZERO,
                vec![],
                SimTime::ZERO,
            );
            let certificate = Message::Certificate(quorum_certificate(&header));
            let out = replica.handle(ReplicaId::new(0), certificate, SimTime::ZERO);
            let kinds: Vec<&str> = out.iter().map(|o| o.msg.kind()).collect();
            let expected: &[&str] = if round < 8 { &["fetch"] } else { &[] };
            assert_eq!(kinds, expected, "round {round}");
        }
        assert_eq!(replica.fetches.len(), 8);
        let metrics = replica.metrics();
        assert_eq!(metrics.fetches_sent, 8);
        assert_eq!(metrics.certificates_dropped, 92);
        assert_eq!(metrics.rejected_vertices, 0);

        // A long fault-free run consumes every pair it retains: what is left
        // is the round in flight.
        let mut cfg = config(4);
        cfg.lockstep = true;
        let mut replicas: Vec<Replica> = (0..4)
            .map(|i| Replica::new(ReplicaId::new(i), cfg.clone()))
            .collect();
        run_synchronously(&mut replicas, 50);
        for replica in &replicas {
            assert!(replica.current_round().as_u64() >= 50);
            assert!(
                replica.retained.len() <= 4,
                "replica {} retains {} pairs",
                replica.id(),
                replica.retained.len()
            );
            assert_eq!(replica.fetches.len(), 0);
            assert_eq!(replica.metrics().fetches_sent, 0);
        }
    }

    /// Delivers every message eventually, in an order drawn from `seed`,
    /// with replica 0's sends picked only one time in eight while anything
    /// else is queued (a slow sender whose headers, certificates and
    /// vertices all arrive late and out of order). Headers for `target` and
    /// later rounds are dropped so the run quiesces with every replica at
    /// `target`. Returns `false` if the inbox drained before that.
    fn run_reordered(replicas: &mut [Replica], target: u64, seed: u64) -> bool {
        let mut state = seed;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let n = replicas.len();
        let now = SimTime::ZERO;
        let mut inbox: VecDeque<(ReplicaId, ReplicaId, Message)> = VecDeque::new();
        for replica in replicas.iter_mut() {
            for outbound in replica.start(now) {
                enqueue(&mut inbox, replica.id(), outbound, n);
            }
        }
        while !inbox.is_empty() {
            let slow = ReplicaId::new(0);
            let fast: Vec<usize> = (0..inbox.len()).filter(|&i| inbox[i].0 != slow).collect();
            let pick = if fast.is_empty() || next() % 8 == 0 {
                next() as usize % inbox.len()
            } else {
                fast[next() as usize % fast.len()]
            };
            let (from, to, msg) = inbox.swap_remove_back(pick).expect("index in range");
            if matches!(&msg, Message::Header { header, .. } if header.round.as_u64() >= target) {
                continue;
            }
            let replica = &mut replicas[to.as_inner() as usize];
            for outbound in replica.handle(from, msg, now) {
                enqueue(&mut inbox, replica.id(), outbound, n);
            }
        }
        replicas
            .iter()
            .all(|replica| replica.current_round().as_u64() == target)
    }

    /// Runs a fresh 4-replica cluster through [`run_reordered`] and checks
    /// that it reached `target` with nothing stuck, every certified vertex
    /// on every replica, and one committed sequence.
    fn reordered_cluster(cfg: &ClusterConfig, target: u64, seed: u64) -> Vec<Replica> {
        let mut replicas: Vec<Replica> = (0..4)
            .map(|i| Replica::new(ReplicaId::new(i), cfg.clone()))
            .collect();
        let reached = run_reordered(&mut replicas, target, seed);
        let rounds: Vec<u64> = replicas
            .iter()
            .map(|r| r.current_round().as_u64())
            .collect();
        let pending: Vec<usize> = replicas.iter().map(|r| r.pending_vertices.len()).collect();
        assert!(
            reached,
            "seed {seed}: stalled at rounds {rounds:?}, pending {pending:?}"
        );
        assert_eq!(pending, vec![0; 4], "seed {seed}: vertices stuck");

        let ids = |replica: &Replica| -> Vec<Digest> {
            replica.dag().iter().map(|vertex| vertex.id()).collect()
        };
        let reference = ids(&replicas[0]);
        let observer = replicas[0].metrics();
        assert!(!observer.round_commits.is_empty());
        for replica in &replicas[1..] {
            assert!(
                ids(replica) == reference,
                "seed {seed}: replica {} holds {} vertices, replica 0 holds {}",
                replica.id(),
                replica.dag().len(),
                reference.len()
            );
            let metrics = replica.metrics();
            assert_eq!(metrics.round_commits.len(), observer.round_commits.len());
            assert_eq!(metrics.commit_order_digest, observer.commit_order_digest);
            assert_eq!(metrics.reconfigurations, observer.reconfigurations);
            assert_eq!(metrics.rejected_vertices, 0);
        }
        replicas
    }

    #[test]
    fn reordered_delivery_with_a_slow_sender_neither_stalls_nor_diverges() {
        // Non-lockstep: replicas advance on a 2f+1 quorum, so the slow
        // sender's headers are acknowledged rounds late, its certificates
        // land after later leaders committed, and it abandons headers while
        // catching up.
        for seed in 0..200 {
            reordered_cluster(&config(4), 24, seed);
        }
        // Long enough for the others to declare the slow sender silent
        // (K = 50) and reconfigure around it.
        for seed in 0..5 {
            let replicas = reordered_cluster(&config(4), 120, seed);
            assert!(replicas[0].metrics().reconfigurations >= 1);
        }
    }

    #[test]
    fn abandoned_pairs_are_dropped_as_their_author_moves_on() {
        let mut cfg = config(4);
        cfg.system.reconfig = tb_types::ReconfigConfig::new(1 << 40, 1 << 41);
        for seed in 0..5 {
            let replicas = reordered_cluster(&cfg, 120, seed);
            // The slow sender abandoned nearly every one of its 120 headers
            // and all four replicas acknowledged each of them.
            assert!(replicas[0].dag().len() < 3 * 120 + 10);
            for replica in &replicas {
                assert!(
                    replica.retained.len() < 2 * RETENTION_ROUNDS as usize,
                    "seed {seed}: replica {} retains {} pairs",
                    replica.id(),
                    replica.retained.len()
                );
                assert_eq!(replica.fetches.len(), 0);
            }
        }
    }

    /// Delivers every message in send order, dropping the headers of
    /// `target` and later rounds (so the run quiesces with every replica at
    /// `target`) and every message `lost` picks.
    fn run_fifo(
        replicas: &mut [Replica],
        target: u64,
        lost: impl Fn(ReplicaId, ReplicaId, &Message) -> bool,
    ) {
        let n = replicas.len();
        let now = SimTime::ZERO;
        let mut inbox: VecDeque<(ReplicaId, ReplicaId, Message)> = VecDeque::new();
        for replica in replicas.iter_mut() {
            for outbound in replica.start(now) {
                enqueue(&mut inbox, replica.id(), outbound, n);
            }
        }
        while let Some((from, to, msg)) = inbox.pop_front() {
            if lost(from, to, &msg)
                || matches!(&msg, Message::Header { header, .. } if header.round.as_u64() >= target)
            {
                continue;
            }
            let replica = &mut replicas[to.as_inner() as usize];
            for outbound in replica.handle(from, msg, now) {
                enqueue(&mut inbox, replica.id(), outbound, n);
            }
        }
    }

    #[test]
    fn a_replica_that_missed_a_header_fetches_the_vertex_once() {
        let mut replicas: Vec<Replica> = (0..4)
            .map(|i| Replica::new(ReplicaId::new(i), config(4)))
            .collect();
        // Replica 0's round-2 header never reaches replica 3, so replica 3
        // cannot acknowledge it and receives a certificate it cannot
        // complete.
        run_fifo(&mut replicas, 8, |from, to, msg| {
            from == ReplicaId::new(0)
                && to == ReplicaId::new(3)
                && matches!(msg, Message::Header { header, .. } if header.round == Round::new(2))
        });
        let fetches: Vec<(u64, u64, u64)> = replicas
            .iter()
            .map(|r| {
                let m = r.metrics();
                (m.fetches_sent, m.fetches_answered, m.vertices_fetched)
            })
            .collect();
        // It asks the signer after itself, wrapping to replica 0, the
        // author, which answers.
        assert_eq!(fetches, vec![(0, 1, 0), (0, 0, 0), (0, 0, 0), (1, 0, 1)]);
        let ids = |replica: &Replica| -> Vec<Digest> {
            replica.dag().iter().map(|vertex| vertex.id()).collect()
        };
        let reference = ids(&replicas[0]);
        assert_eq!(reference.len(), 4 * 8, "every round up to the target");
        for replica in &replicas {
            assert_eq!(replica.current_round(), Round::new(8));
            assert_eq!(ids(replica), reference, "replica {}", replica.id());
            assert_eq!(replica.fetches.len(), 0);
            assert!(replica.pending_vertices.is_empty());
            assert_eq!(replica.metrics().fetches_refused, 0);
            assert_eq!(replica.metrics().rejected_vertices, 0);
        }
    }

    #[test]
    fn an_unanswered_fetch_is_asked_of_the_next_signer_after_the_retry_time() {
        let (_, header, _) = proposer_with_header();
        let certificate =
            Certificate::for_header(&header, [0, 2, 3].into_iter().map(ReplicaId::new).collect());
        let mut replica = Replica::new(ReplicaId::new(1), config(4));
        let asked = |out: Vec<Outbound>| -> Vec<Destination> {
            out.into_iter()
                .filter(|o| o.msg == Message::Fetch(certificate.clone()))
                .map(|o| o.dest)
                .collect()
        };
        let at = SimTime::from_micros;
        let first = replica.handle(
            ReplicaId::new(0),
            Message::Certificate(certificate.clone()),
            at(1_000),
        );
        assert_eq!(asked(first), vec![Destination::To(ReplicaId::new(2))]);
        // Any later message is a chance to re-ask, but only once the retry
        // time has passed since the last request.
        let unrelated = || ack(&header, 2);
        let just_before = at(1_000) + FETCH_RETRY - at(1);
        let out = replica.handle(ReplicaId::new(2), unrelated(), just_before);
        assert!(out.is_empty());
        let out = replica.handle(ReplicaId::new(2), unrelated(), at(1_000) + FETCH_RETRY);
        assert_eq!(asked(out), vec![Destination::To(ReplicaId::new(3))]);
        let again = at(1_000) + FETCH_RETRY + FETCH_RETRY;
        let out = replica.handle(ReplicaId::new(2), unrelated(), again);
        assert_eq!(asked(out), vec![Destination::To(ReplicaId::new(0))]);
        assert_eq!(replica.metrics().fetches_sent, 3);
        assert_eq!(replica.fetches.len(), 1);
    }

    #[test]
    fn a_fetch_is_answered_only_for_a_valid_certificate_of_a_held_vertex() {
        let (_, header, block) = proposer_with_header();
        let certificate = quorum_certificate(&header);
        let mut responder = Replica::new(ReplicaId::new(2), config(4));
        let fetch = |responder: &mut Replica, certificate: Certificate| {
            responder.handle(
                ReplicaId::new(3),
                Message::Fetch(certificate),
                SimTime::ZERO,
            )
        };
        // Before it saw the header the responder has nothing to send.
        assert!(fetch(&mut responder, certificate.clone()).is_empty());

        responder.handle(
            ReplicaId::new(0),
            Message::Header {
                header: header.clone(),
                block: Arc::clone(&block),
            },
            SimTime::ZERO,
        );
        // Too few signers, or another DAG instance.
        let mut no_quorum = certificate.clone();
        no_quorum.signers.truncate(2);
        assert!(fetch(&mut responder, no_quorum).is_empty());
        let mut other_dag = certificate.clone();
        other_dag.dag = DagId::new(1);
        assert!(fetch(&mut responder, other_dag).is_empty());
        // A header the responder never saw.
        let mut unseen = header.clone();
        unseen.round = Round::new(1);
        assert!(fetch(&mut responder, quorum_certificate(&unseen)).is_empty());
        assert_eq!(responder.metrics().fetches_refused, 4);

        // From the pair it acknowledged, before the vertex is admitted, and
        // from its DAG after: the requester gets the vertex either way.
        let expected = Message::Vertex(Box::new(Vertex::new(
            header.clone(),
            Arc::clone(&block),
            certificate.clone(),
        )));
        let from_pair = fetch(&mut responder, certificate.clone());
        responder.handle(
            ReplicaId::new(0),
            Message::Certificate(certificate.clone()),
            SimTime::ZERO,
        );
        assert!(responder.retained.is_empty());
        let from_dag = fetch(&mut responder, certificate.clone());
        for out in [from_pair, from_dag] {
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].dest, Destination::To(ReplicaId::new(3)));
            assert_eq!(out[0].msg, expected);
        }
        assert_eq!(responder.metrics().fetches_answered, 2);
    }

    #[test]
    fn a_vertex_that_does_not_bind_to_its_certificate_is_rejected() {
        let (_, header, block) = proposer_with_header();
        let certificate = quorum_certificate(&header);
        let mut swapped = Block::clone(&block);
        swapped.seq = SeqNo::new(99);
        let mut other_header = header.clone();
        other_header.round = Round::new(1);

        let mut replica = Replica::new(ReplicaId::new(2), config(4));
        // Same certified header, different block.
        let swapped_vertex = Vertex::new(header.clone(), swapped.seal(), certificate.clone());
        // An honest certificate stapled to another header.
        let foreign_certificate =
            Vertex::new(other_header, Arc::clone(&block), certificate.clone());
        // Too few signers.
        let mut no_quorum = certificate.clone();
        no_quorum.signers.truncate(2);
        let no_quorum = Vertex::new(header.clone(), Arc::clone(&block), no_quorum);
        for vertex in [swapped_vertex.clone(), foreign_certificate, no_quorum] {
            let out = replica.handle(
                ReplicaId::new(0),
                Message::Vertex(Box::new(vertex)),
                SimTime::ZERO,
            );
            assert!(out.is_empty());
        }
        assert_eq!(replica.metrics().rejected_vertices, 3);
        assert!(replica.dag().is_empty());

        // A replica that acknowledged the header keeps the block it checked:
        // the swapped copy inside a later full vertex never reaches the DAG.
        replica.handle(
            ReplicaId::new(0),
            Message::Header {
                header,
                block: Arc::clone(&block),
            },
            SimTime::ZERO,
        );
        replica.handle(
            ReplicaId::new(0),
            Message::Vertex(Box::new(swapped_vertex)),
            SimTime::ZERO,
        );
        let stored = replica
            .dag()
            .by_author_round(ReplicaId::new(0), Round::ZERO)
            .expect("the certified vertex is accepted");
        assert!(Arc::ptr_eq(&stored.block, &block));
    }

    /// A header commits to every byte of its block: a copy that differs
    /// from the honest one only in a cross-shard payment's amount gets no
    /// acknowledgement, and inside a certified vertex it is rejected.
    #[test]
    fn a_block_that_differs_only_in_a_cross_shard_amount_is_refused() {
        let mut proposer = Replica::new(ReplicaId::new(0), config(4));
        assert!(proposer.enqueue(payment(2, 0, 1, 4)));
        let out = proposer.start(SimTime::ZERO);
        let Message::Header { header, block } = out[0].msg.clone() else {
            panic!("expected header");
        };
        assert_eq!(block.payload.cross_shard.len(), 1);
        let mut tampered = Block::clone(&block);
        tampered.payload.cross_shard[0].call =
            ContractCall::SmallBank(SmallBankProcedure::SendPayment {
                from: 0,
                to: 1,
                amount: 1_000,
            });
        let tampered = Arc::new(tampered.seal());

        let mut replica = Replica::new(ReplicaId::new(2), config(4));
        let header_message = |block| Message::Header {
            header: header.clone(),
            block,
        };
        let out = replica.handle(
            ReplicaId::new(0),
            header_message(Arc::clone(&tampered)),
            SimTime::ZERO,
        );
        assert!(
            out.is_empty(),
            "acknowledged a block its header does not name"
        );
        let vertex = Vertex::new(header.clone(), tampered, quorum_certificate(&header));
        let out = replica.handle(
            ReplicaId::new(0),
            Message::Vertex(Box::new(vertex)),
            SimTime::ZERO,
        );
        assert!(out.is_empty());
        assert_eq!(replica.metrics().rejected_vertices, 1);
        assert!(replica.dag().is_empty());

        // The honest block under the same header is acknowledged.
        let out = replica.handle(ReplicaId::new(0), header_message(block), SimTime::ZERO);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].msg.kind(), "ack");
    }

    #[test]
    fn four_replicas_commit_single_shard_payments_end_to_end() {
        let cfg = config(4);
        let mut replicas: Vec<Replica> = (0..4)
            .map(|i| {
                let mut r = Replica::new(ReplicaId::new(i), cfg.clone());
                r.load_state(tb_workload::initial_smallbank_state(16, 1_000));
                r
            })
            .collect();
        // Give shard 0's proposer (replica 0) some single-shard payments
        // (accounts 0 and 4 are both in shard 0 of 4).
        for i in 0..10u64 {
            assert!(replicas[0].enqueue(payment(i, 0, 4, 4)));
        }
        run_synchronously(&mut replicas, 8);

        for replica in &replicas {
            assert!(
                replica.metrics().committed_txs >= 10,
                "replica {} committed only {}",
                replica.id(),
                replica.metrics().committed_txs
            );
            assert_eq!(replica.metrics().invalid_blocks, 0);
            // The payments moved 10 units from account 0 to account 4.
            assert_eq!(
                replica.store().get(&Key::checking(0)),
                Value::int(1_000 - 10)
            );
            assert_eq!(
                replica.store().get(&Key::checking(4)),
                Value::int(1_000 + 10)
            );
        }
        // All replicas agree on the final state.
        let reference = replicas[0].store().snapshot();
        for replica in &replicas[1..] {
            let diff = replica.store().snapshot().diff_values(&reference);
            assert!(diff.is_empty(), "state divergence on {diff:?}");
        }
    }

    #[test]
    fn cross_shard_transactions_commit_on_every_replica() {
        let cfg = config(4);
        let mut replicas: Vec<Replica> = (0..4)
            .map(|i| {
                let mut r = Replica::new(ReplicaId::new(i), cfg.clone());
                r.load_state(tb_workload::initial_smallbank_state(16, 1_000));
                r
            })
            .collect();
        // A cross-shard payment from account 0 (shard 0) to account 1
        // (shard 1). Its odd id homes it on the second of its shards, so
        // replica 1 proposes it and replica 0 turns it away.
        assert!(!replicas[0].enqueue(payment(1, 0, 1, 4)));
        assert!(replicas[1].enqueue(payment(1, 0, 1, 4)));
        run_synchronously(&mut replicas, 8);
        for replica in &replicas {
            assert!(replica.metrics().cross_shard_txs >= 1);
            assert_eq!(replica.store().get(&Key::checking(0)), Value::int(999));
            assert_eq!(replica.store().get(&Key::checking(1)), Value::int(1_001));
        }
    }

    #[test]
    fn tusk_mode_commits_the_same_state_without_preplay() {
        let mut cfg = config(4);
        cfg.mode = ExecutionMode::Tusk;
        let mut replicas: Vec<Replica> = (0..4)
            .map(|i| {
                let mut r = Replica::new(ReplicaId::new(i), cfg.clone());
                r.load_state(tb_workload::initial_smallbank_state(16, 1_000));
                r
            })
            .collect();
        for i in 0..6u64 {
            replicas[0].enqueue(payment(i, 0, 4, 4));
        }
        run_synchronously(&mut replicas, 8);
        for replica in &replicas {
            assert!(replica.metrics().committed_txs >= 6);
            assert_eq!(
                replica.metrics().single_shard_txs,
                0,
                "Tusk never ships preplayed payloads"
            );
            assert_eq!(replica.store().get(&Key::checking(0)), Value::int(994));
        }
    }

    #[test]
    fn periodic_reconfiguration_rotates_shards_without_stopping() {
        let mut cfg = config(4);
        cfg.system.reconfig = tb_types::ReconfigConfig::new(3, 4);
        let mut replicas: Vec<Replica> = (0..4)
            .map(|i| Replica::new(ReplicaId::new(i), cfg.clone()))
            .collect();
        run_synchronously(&mut replicas, 20);
        for replica in &replicas {
            assert!(
                replica.metrics().reconfigurations >= 1,
                "replica {} never reconfigured",
                replica.id()
            );
            assert!(replica.current_dag().as_inner() >= 1);
        }
        // After one reconfiguration replica 0 serves shard n-1 … i.e. the
        // assignment rotated.
        let r0 = &replicas[0];
        assert_ne!(r0.current_shard(), ShardId::new(0));
    }

    #[test]
    fn overlay_lets_consecutive_blocks_chain_on_hot_keys() {
        // Two consecutive batches touching the same account must both
        // validate: the second preplay has to observe the first one's writes
        // even though they are not committed yet.
        let cfg = config(4);
        let mut replicas: Vec<Replica> = (0..4)
            .map(|i| {
                let mut r = Replica::new(ReplicaId::new(i), cfg.clone());
                r.load_state(tb_workload::initial_smallbank_state(16, 1_000));
                r
            })
            .collect();
        for i in 0..40u64 {
            replicas[0].enqueue(payment(i, 0, 4, 4));
        }
        run_synchronously(&mut replicas, 12);
        for replica in &replicas {
            assert_eq!(replica.metrics().invalid_blocks, 0);
            assert!(replica.metrics().committed_txs >= 40);
            assert_eq!(replica.store().get(&Key::checking(0)), Value::int(960));
        }
    }

    #[test]
    fn occ_preplay_through_the_overlay_matches_a_scratch_copy_of_it() {
        // The oracle is how Thunderbolt-OCC used to preplay: copy committed
        // state and every overlay round into a scratch store, execute there.
        let oracle = |replica: &Replica, occ: &OccExecutor, txs: &[Transaction]| {
            let scratch = MemStore::new();
            scratch.load(
                replica
                    .store
                    .snapshot()
                    .iter()
                    .map(|(k, v)| (*k, v.value.clone())),
            );
            for (_, writes) in &replica.overlay.blocks {
                scratch.load(writes.iter().map(|(k, v)| (*k, v.clone())));
            }
            occ.execute_batch(txs, &scratch).commit_digest()
        };
        let mut cfg = config(4);
        cfg.mode = ExecutionMode::ThunderboltOcc;
        cfg.system.ce = CeConfig::new(1, 64).without_synthetic_cost();
        let occ = OccExecutor::new(cfg.system.ce);
        let mut replica = Replica::new(ReplicaId::new(0), cfg);
        replica.load_state(tb_workload::initial_smallbank_state(16, 1_000));
        // Hot accounts, so every round reads what earlier rounds wrote.
        let mut workload = tb_workload::SmallBankWorkload::new(tb_workload::SmallBankConfig {
            accounts: 16,
            theta: 0.9,
            n_shards: 1,
            ..tb_workload::SmallBankConfig::default()
        });
        for round in 0..6 {
            let txs = workload.batch(48, SimTime::ZERO);
            let expected = oracle(&replica, &occ, &txs);
            let preplayed = tb_executor::BatchResult {
                preplayed: replica.preplay_batch(&txs, None),
                ..Default::default()
            };
            assert_eq!(preplayed.commit_digest(), expected, "round {round}");
        }
        assert_eq!(
            replica.overlay.blocks.len(),
            6,
            "six chained overlay rounds"
        );
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
        use tb_types::TxClass;

        fn cfg() -> ClusterConfig {
            let mut cfg = config(4);
            cfg.system.ce = CeConfig::new(2, 16).without_synthetic_cost();
            cfg.system.reconfig = tb_types::ReconfigConfig::new(1 << 40, 1 << 41);
            cfg
        }

        fn funded(id: u32, cfg: &ClusterConfig) -> Replica {
            let mut replica = Replica::new(ReplicaId::new(id), cfg.clone());
            replica.load_state(tb_workload::initial_smallbank_state(16, 1_000));
            replica
        }

        /// The blocks of the headers `replica` proposed in `out`, in order.
        fn proposals<'a>(replica: &Replica, out: &'a [Outbound]) -> Vec<&'a Arc<SealedBlock>> {
            out.iter()
                .filter_map(|o| match &o.msg {
                    Message::Header { header, block } if header.author == replica.id => Some(block),
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
        fn assert_fresh_preplays(replica: &Replica, blocks: &[&Arc<SealedBlock>]) -> u64 {
            let engine = ConcurrentExecutor::new(replica.config.system.ce);
            let batches: Vec<&Vec<PreplayedTx>> = blocks
                .iter()
                .map(|block| &block.payload.single_shard)
                .filter(|preplayed| !preplayed.is_empty())
                .collect();
            let blocks = &replica.overlay.blocks;
            let mut overlay = Overlay::default();
            for (round, writes) in blocks.range(..blocks.len() - batches.len()) {
                overlay.push(*round, writes.clone());
            }
            for preplayed in &batches {
                let view = OverlayRead {
                    store: replica.store.as_ref(),
                    overlay: &overlay,
                };
                let txs: Vec<Transaction> = preplayed.iter().map(|p| p.tx.clone()).collect();
                let fresh = engine.preplay(&txs, &view).preplayed;
                assert!(
                    fresh == **preplayed,
                    "{}: a block is not a fresh preplay on its view",
                    replica.id
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
                while replica.pending_client_txs() < 2 * batch {
                    let tx = clients.next(shard);
                    if tx.class() == TxClass::SingleShard {
                        queue.push_back(tx.id);
                    }
                    assert!(replica.enqueue(tx));
                }
            };
            let mut step = |replica: &mut Replica,
                            fifo: &mut Fifo,
                            clients: &mut Clients,
                            handled: Option<(ReplicaId, Message)>|
             -> Vec<Outbound> {
                let (reused, reconfigurations) = (
                    replica.metrics.batches_reused,
                    replica.metrics.reconfigurations,
                );
                let out = match handled {
                    None => replica.start(SimTime::ZERO),
                    Some((from, msg)) => replica.handle(from, msg, SimTime::ZERO),
                };
                let blocks = proposals(replica, &out);
                for block in &blocks {
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
                    let queue = fifo.of(block.shard);
                    assert!(proposed.len() <= queue.len(), "{}: unsubmitted", replica.id);
                    let front: Vec<TxId> = queue.drain(..proposed.len()).collect();
                    assert_eq!(proposed, front, "{} round {}", replica.id, block.round);
                }
                if replica.metrics.reconfigurations == reconfigurations {
                    seen.checked += assert_fresh_preplays(replica, &blocks);
                    seen.checked_reused += replica.metrics.batches_reused - reused;
                }
                top_up(replica, fifo, clients);
                replica.preplay_ahead();
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
                    enqueue(&mut inbox, replica.id, outbound, 4);
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
            let proposed: u64 = replicas.iter().map(|r| r.rounds_proposed_in_dag).sum();
            assert_eq!(proposed, 4 * 17);
            assert_eq!(seen.checked, proposed);
            assert_eq!(seen.checked_reused, proposed - 4);
            for replica in &replicas {
                let metrics = replica.metrics();
                assert_eq!(metrics.batches_reused, replica.rounds_proposed_in_dag - 1);
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
                assert!(replica.enqueue(payment(id, from, to, 4)));
            }
            let dag = DagId::new(0);
            let leader = replica.committee.leader(dag, Round::new(3));
            assert_eq!(leader, ReplicaId::new(1));
            let start = replica.start(SimTime::ZERO);
            replica.preplay_ahead();
            let mut own: Vec<Arc<SealedBlock>> =
                proposals(&replica, &start).into_iter().cloned().collect();
            let mut deliver = |replica: &mut Replica, from: u32, msg: Message| {
                let out = replica.handle(ReplicaId::new(from), msg, SimTime::ZERO);
                replica.preplay_ahead();
                for block in proposals(replica, &out) {
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
                let block = Block::normal(
                    dag,
                    Round::new(round),
                    author,
                    ShardId::new(author.as_inner()),
                    SeqNo::new(round + 1),
                    payload,
                    SimTime::ZERO,
                )
                .seal();
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
                let header = replica.retained[&replica.my_header.as_ref().unwrap().digest]
                    .0
                    .clone();
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
                    deliver(&mut replica, author, Message::Vertex(Box::new(v)));
                }
                parents = ids;
            }
            assert_eq!(replica.current_round(), Round::new(3));
            assert_eq!(replica.metrics.batches_reused, 3);
            assert!(
                replica.ahead.is_some(),
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
            assert!(replica.conflicting_cross_pending());
            for author in 1..4 {
                let v = vertex(author, 4, &ids, Vec::new());
                deliver(&mut replica, author, Message::Vertex(Box::new(v)));
            }
            assert_eq!(replica.pending_vertices.len(), 3);
            assert_eq!(replica.metrics.cross_shard_txs, 0);

            let last = round_3.next().unwrap();
            let out = deliver(&mut replica, 3, Message::Vertex(Box::new(last)));
            assert_eq!(replica.metrics.cross_shard_txs, 1, "the payment committed");
            let blocks = proposals(&replica, &out);
            let rounds: Vec<u64> = blocks.iter().map(|b| b.round.as_u64()).collect();
            assert_eq!(rounds, vec![4, 5]);
            assert_eq!(replica.metrics.batches_repreplayed, 1);
            assert_eq!(replica.metrics.batches_reused, 3);
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
