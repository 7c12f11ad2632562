//! The Thunderbolt replica, as a DAG replica.
//!
//! A replica plays two roles (Section 3.1). A [`Replica`] is the consensus
//! one: it proposes, acknowledges and certifies headers, fetches the
//! vertices it misses, runs the commit rule and rotates the shard
//! assignment when enough Shift blocks commit (Section 6). The other role,
//! shard proposer and executor, is its [`App`] (by default [`ShardApp`]),
//! which holds all state and does all execution.
//!
//! The replica is a deterministic state machine: it consumes protocol
//! messages and produces outbound messages, so it can be driven by
//! [`drive`](crate::driver::drive) over any transport or directly by unit
//! tests. Its app's work, in the handlers and in the driver's step after
//! each emission (`Replica::after_emission`), is timed and surfaced through
//! [`Replica::take_busy`], which the driver charges to the replica's clock.

use crate::app::{App, ShardApp, COMMIT_DIGEST_SEED};
use crate::cluster::ClusterConfig;
use crate::messages::Message;
use crate::metrics::{ReplicaMetrics, RoundCommitSample, RunReport};
use crate::proposer::ByzantineBehavior;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tb_dag::{Committer, DagError, DagStore};
use tb_network::NetworkStats;
use tb_types::{
    Block, BlockKind, BlockPayload, Certificate, Committee, DagId, Digest, Header, ReplicaId,
    Round, SealedBlock, SeqNo, ShardAssignment, ShardId, SimTime, Vertex,
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

/// One Thunderbolt replica, driving the app `A`.
pub struct Replica<A = ShardApp> {
    id: ReplicaId,
    committee: Committee,
    config: ClusterConfig,
    /// Everything that touches state: the store, preplay, the client
    /// queues, validation and execution.
    app: A,

    dag_id: DagId,
    shard: ShardId,
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
    future_messages: Vec<(ReplicaId, Message)>,

    shifted_in_dag: bool,
    rounds_proposed_in_dag: u64,
    shift_quorum_authors: HashSet<ReplicaId>,

    metrics: ReplicaMetrics,
    busy: Duration,
}

impl Replica {
    /// Creates a replica with the initial shard assignment of DAG 0 and the
    /// [`ShardApp`] `config` describes, over an empty store the caller
    /// pre-loads through [`app_mut`](Replica::app_mut).
    pub fn new(id: ReplicaId, config: ClusterConfig) -> Self {
        let app = ShardApp::new(id, &config);
        Self::with_app(id, config, app)
    }
}

impl<A: App> Replica<A> {
    /// Creates a replica with the initial shard assignment of DAG 0 that
    /// drives `app`.
    pub fn with_app(id: ReplicaId, config: ClusterConfig, app: A) -> Self {
        let committee = Committee::new(config.system.n_replicas);
        let dag_id = DagId::new(0);
        Replica {
            id,
            committee,
            config,
            app,
            dag_id,
            shard: ShardAssignment::new(committee, dag_id).shard_of(id),
            dag: DagStore::new(committee, dag_id, Round::ZERO),
            committer: Committer::new(committee, dag_id, Round::ZERO),
            current_round: Round::ZERO,
            proposed_current: false,
            seq: 0,
            my_header: None,
            retained: HashMap::new(),
            fetches: Fetches::new(id),
            pending_vertices: Vec::new(),
            future_messages: Vec::new(),
            shifted_in_dag: false,
            rounds_proposed_in_dag: 0,
            shift_quorum_authors: HashSet::new(),
            metrics: ReplicaMetrics {
                commit_order_digest: COMMIT_DIGEST_SEED,
                ..ReplicaMetrics::default()
            },
            busy: Duration::ZERO,
        }
    }

    /// The replica id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// The shard the replica currently serves as proposer.
    pub fn current_shard(&self) -> ShardId {
        self.shard
    }

    /// The current DAG instance.
    pub fn current_dag(&self) -> DagId {
        self.dag_id
    }

    /// The round the replica is currently proposing for.
    pub fn current_round(&self) -> Round {
        self.current_round
    }

    /// The app this replica drives: for a [`ShardApp`], its store and queues.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// The app, to load state into or submit client transactions to.
    pub fn app_mut(&mut self) -> &mut A {
        &mut self.app
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

    /// Accumulated metrics.
    pub fn metrics(&self) -> &ReplicaMetrics {
        &self.metrics
    }

    /// Returns (and resets) the wall-clock execution time accumulated by the
    /// last handler invocation; the driver charges it to this replica's
    /// clock.
    pub fn take_busy(&mut self) -> Duration {
        std::mem::take(&mut self.busy)
    }

    /// The step the driver runs after each message, once the output is sent
    /// and the client queue topped up: the app's
    /// [`after_emission`](App::after_emission), whose work is reported
    /// through [`take_busy`](Self::take_busy) like a handler's.
    pub(crate) fn after_emission(&mut self) {
        self.busy += self.app.after_emission(&mut self.metrics);
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
        let round = self.current_round;
        let leader = self.previous_leader_present();
        let shift = self.should_shift();
        let (kind, payload) = self.app.propose(round, leader, shift, &mut self.metrics);
        self.shifted_in_dag |= kind == BlockKind::Shift;
        let parents = if self.current_round == self.dag.start_round() {
            Vec::new()
        } else {
            self.dag.certificates_at_round(self.current_round.prev())
        };
        self.seq += 1;
        let (header, block) = self.seal(kind, payload, parents, now);
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
        let equivocates = matches!(
            self.config.byzantine,
            Some((id, ByzantineBehavior::Equivocate)) if id == self.id
        );
        if equivocates && kind == BlockKind::Normal {
            return self.equivocate(header, block);
        }
        vec![Outbound::broadcast(Message::Header { header, block })]
    }

    /// This replica's block for the current round, sealed, and the header
    /// naming it.
    fn seal(
        &self,
        kind: BlockKind,
        payload: BlockPayload,
        parents: Vec<Digest>,
        now: SimTime,
    ) -> (Header, Arc<SealedBlock>) {
        let mut block = Block::normal(
            self.dag_id,
            self.current_round,
            self.id,
            self.current_shard(),
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
        (header, block)
    }

    /// [`ByzantineBehavior::Equivocate`]: send the real (header, block) pair
    /// to itself plus the smallest quorum of peers, and a conflicting empty
    /// variant for the same round to everyone else. Only one variant can
    /// gather a certificate, so honest replicas adopt a single vertex.
    fn equivocate(&self, header: Header, block: Arc<SealedBlock>) -> Vec<Outbound> {
        let (alt_header, alt_block) = self.seal(
            BlockKind::Normal,
            BlockPayload::empty(),
            header.parents.clone(),
            header.created_at,
        );
        // The author first: its own acknowledgement counts toward the quorum.
        let quorum = self.committee.quorum_threshold();
        let peers = self.committee.replicas().filter(|peer| *peer != self.id);
        std::iter::once(self.id)
            .chain(peers)
            .enumerate()
            .map(|(i, to)| {
                let (header, block) = if i < quorum {
                    (header.clone(), Arc::clone(&block))
                } else {
                    (alt_header.clone(), Arc::clone(&alt_block))
                };
                Outbound::to(to, Message::Header { header, block })
            })
            .collect()
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

    /// A vertex the DAG just accepted goes to the app if it is undelivered.
    fn track_inserted(&mut self, id: Digest, vertex: &Vertex) {
        if !self.committer.is_delivered(&id) {
            self.app.admitted(vertex);
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
            let output = self.app.delivered(&sub_dag, now, &mut self.metrics);
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
            self.metrics.blocks_replayed_ahead += output.blocks_replayed_ahead;
            self.metrics.blocks_replayed_inline += output.blocks_replayed_inline;
            for latency in &output.latency_samples_secs {
                self.metrics.latency_hist.record_secs(*latency);
            }
            self.metrics.round_commits.push(RoundCommitSample {
                dag: self.dag_id.as_inner(),
                round: sub_dag.leader_round,
                committed_at: now,
                digest: self.metrics.commit_order_digest,
            });
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
        self.shard = ShardAssignment::new(self.committee, self.dag_id).shard_of(self.id);
        self.dag = DagStore::new(self.committee, self.dag_id, ending_round);
        self.committer = Committer::new(self.committee, self.dag_id, ending_round);
        self.current_round = ending_round;
        self.proposed_current = false;
        self.my_header = None;
        self.retained.clear();
        self.fetches.clear();
        self.pending_vertices.retain(|v| v.dag() == self.dag_id);
        self.shifted_in_dag = false;
        self.rounds_proposed_in_dag = 0;
        self.shift_quorum_authors.clear();
        self.app.reconfigure(self.shard);

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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cluster::ExecutionMode;
    use crate::commit::CommitOutput;
    use std::collections::VecDeque;
    use tb_dag::CommittedSubDag;
    use tb_types::{
        CeConfig, ClientId, ContractCall, Key, ShardId, SmallBankProcedure, SystemConfig,
        Transaction, TxId, Value,
    };

    pub(crate) fn config(n: u32) -> ClusterConfig {
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

    pub(crate) fn payment(id: u64, from: u64, to: u64, n_shards: u32) -> Transaction {
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
    fn run_synchronously<A: App>(replicas: &mut [Replica<A>], rounds_budget: usize) {
        run_synchronously_with(replicas, rounds_budget, |_| {});
    }

    /// [`run_synchronously`], calling `after` on each replica after it
    /// handles a message.
    fn run_synchronously_with<A: App>(
        replicas: &mut [Replica<A>],
        rounds_budget: usize,
        mut after: impl FnMut(&mut Replica<A>),
    ) {
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
            after(replica);
        }
    }

    pub(crate) fn enqueue(
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

    pub(crate) fn ack(header: &Header, signer: u32) -> Message {
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

    pub(crate) fn quorum_certificate(header: &Header) -> Certificate {
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
        assert!(proposer.app_mut().queues_mut().enqueue(payment(2, 0, 1, 4)));
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
                r.app_mut()
                    .load_state(tb_workload::initial_smallbank_state(16, 1_000));
                r
            })
            .collect();
        // Give shard 0's proposer (replica 0) some single-shard payments
        // (accounts 0 and 4 are both in shard 0 of 4).
        for i in 0..10u64 {
            assert!(replicas[0]
                .app_mut()
                .queues_mut()
                .enqueue(payment(i, 0, 4, 4)));
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
                replica.app().store().get(&Key::checking(0)),
                Value::int(1_000 - 10)
            );
            assert_eq!(
                replica.app().store().get(&Key::checking(4)),
                Value::int(1_000 + 10)
            );
        }
        // All replicas agree on the final state.
        let reference = replicas[0].app().store().snapshot();
        for replica in &replicas[1..] {
            let diff = replica.app().store().snapshot().diff_values(&reference);
            assert!(diff.is_empty(), "state divergence on {diff:?}");
        }
    }

    #[test]
    fn cross_shard_transactions_commit_on_every_replica() {
        let cfg = config(4);
        let mut replicas: Vec<Replica> = (0..4)
            .map(|i| {
                let mut r = Replica::new(ReplicaId::new(i), cfg.clone());
                r.app_mut()
                    .load_state(tb_workload::initial_smallbank_state(16, 1_000));
                r
            })
            .collect();
        // A cross-shard payment from account 0 (shard 0) to account 1
        // (shard 1). Its odd id homes it on the second of its shards, so
        // replica 1 proposes it and replica 0 turns it away.
        assert!(!replicas[0]
            .app_mut()
            .queues_mut()
            .enqueue(payment(1, 0, 1, 4)));
        assert!(replicas[1]
            .app_mut()
            .queues_mut()
            .enqueue(payment(1, 0, 1, 4)));
        run_synchronously(&mut replicas, 8);
        for replica in &replicas {
            assert!(replica.metrics().cross_shard_txs >= 1);
            assert_eq!(
                replica.app().store().get(&Key::checking(0)),
                Value::int(999)
            );
            assert_eq!(
                replica.app().store().get(&Key::checking(1)),
                Value::int(1_001)
            );
        }
    }

    #[test]
    fn tusk_mode_commits_the_same_state_without_preplay() {
        let mut cfg = config(4);
        cfg.mode = ExecutionMode::Tusk;
        let mut replicas: Vec<Replica> = (0..4)
            .map(|i| {
                let mut r = Replica::new(ReplicaId::new(i), cfg.clone());
                r.app_mut()
                    .load_state(tb_workload::initial_smallbank_state(16, 1_000));
                r
            })
            .collect();
        for i in 0..6u64 {
            replicas[0]
                .app_mut()
                .queues_mut()
                .enqueue(payment(i, 0, 4, 4));
        }
        run_synchronously(&mut replicas, 8);
        for replica in &replicas {
            assert!(replica.metrics().committed_txs >= 6);
            assert_eq!(
                replica.metrics().single_shard_txs,
                0,
                "Tusk never ships preplayed payloads"
            );
            assert_eq!(
                replica.app().store().get(&Key::checking(0)),
                Value::int(994)
            );
        }
    }

    /// The blocks `replica` holds a replay for are exactly the preplayed
    /// blocks of the undelivered vertices of its current DAG.
    fn assert_replays_track_the_undelivered(replica: &Replica) {
        let undelivered: Vec<&Arc<Vertex>> = replica
            .dag
            .iter()
            .filter(|v| {
                !replica.committer.is_delivered(&v.id()) && !v.block.payload.single_shard.is_empty()
            })
            .collect();
        let replays = replica.app().replays();
        assert_eq!(replays.len(), undelivered.len());
        assert!(undelivered.iter().all(|v| replays.holds(&v.block)));
    }

    #[test]
    fn periodic_reconfiguration_rotates_shards_without_stopping() {
        let mut cfg = config(4);
        cfg.system.reconfig = tb_types::ReconfigConfig::new(3, 4);
        let mut replicas: Vec<Replica> = (0..4)
            .map(|i| {
                let mut r = Replica::new(ReplicaId::new(i), cfg.clone());
                r.app_mut()
                    .load_state(tb_workload::initial_smallbank_state(16, 1_000));
                r
            })
            .collect();
        // Payments within each replica's first shard, a full batch for
        // every round of the first DAG.
        for (i, replica) in replicas.iter_mut().enumerate() {
            for k in 0..1_000u64 {
                let from = i as u64 + 4 * (k % 4);
                assert!(replica.app_mut().queues_mut().enqueue(payment(
                    4 * k + i as u64,
                    from,
                    (from + 4) % 16,
                    4
                )));
            }
        }
        // After each message a replica replays what it admitted, as the
        // driver has it do; what it holds is checked after every step, and
        // what it held before the step that ended its first DAG is kept.
        let mut held = [0; 4];
        let mut held_when_the_first_dag_ended = [None; 4];
        run_synchronously_with(&mut replicas, 20, |replica| {
            let i = replica.id().as_inner() as usize;
            if replica.metrics().reconfigurations > 0 && held_when_the_first_dag_ended[i].is_none()
            {
                held_when_the_first_dag_ended[i] = Some(held[i]);
            }
            replica.after_emission();
            assert_replays_track_the_undelivered(replica);
            held[i] = replica.app().replays().len();
        });
        // The first DAG ended holding replays of blocks it never delivered,
        // and none of them outlived it. (Reconfiguration empties the client
        // queues, so later DAGs carry no preplayed blocks.)
        for held in held_when_the_first_dag_ended {
            assert!(held.is_some_and(|held| held > 0), "{held:?}");
        }
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
    fn every_block_a_lockstep_run_delivers_was_replayed_ahead() {
        // Shaped like the benchmark's sim-single workload.
        let mut sim = crate::scenario::ScenarioBuilder::new(4)
            .smallbank(tb_workload::SmallBankConfig {
                cross_shard_fraction: 0.0,
                ..tb_workload::SmallBankConfig::default()
            })
            .latency(tb_types::LatencyModel::lan())
            .executors(1, 64)
            .validators(2)
            .rounds(40)
            .seed(42)
            .lockstep()
            .tune(|system| system.ce = system.ce.without_synthetic_cost())
            .build();
        sim.run();
        for id in 0..4 {
            let replica = sim.replica(ReplicaId::new(id));
            assert_eq!(replica.metrics().reconfigurations, 0);
            let delivered = replica
                .dag
                .iter()
                .filter(|v| {
                    replica.committer.is_delivered(&v.id())
                        && !v.block.payload.single_shard.is_empty()
                })
                .count() as u64;
            assert!(delivered >= 60, "{delivered} preplayed blocks delivered");
            assert_eq!(replica.metrics().blocks_replayed_ahead, delivered);
            assert_eq!(replica.metrics().blocks_replayed_inline, 0);
            assert_replays_track_the_undelivered(replica);
        }
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
                r.app_mut()
                    .load_state(tb_workload::initial_smallbank_state(16, 1_000));
                r
            })
            .collect();
        for i in 0..40u64 {
            replicas[0]
                .app_mut()
                .queues_mut()
                .enqueue(payment(i, 0, 4, 4));
        }
        run_synchronously(&mut replicas, 12);
        for replica in &replicas {
            assert_eq!(replica.metrics().invalid_blocks, 0);
            assert!(replica.metrics().committed_txs >= 40);
            assert_eq!(
                replica.app().store().get(&Key::checking(0)),
                Value::int(960)
            );
        }
    }

    /// What the consensus core told a [`Recording`] app, in call order.
    enum Call {
        Propose(Round),
        Admitted(Digest),
        Delivered(Vec<Digest>),
    }

    /// An app that proposes empty blocks, or Shift blocks when asked to,
    /// and records the calls it gets.
    #[derive(Default)]
    struct Recording {
        calls: Vec<Call>,
    }

    impl App for Recording {
        fn propose(
            &mut self,
            round: Round,
            _leader_present: bool,
            should_shift: bool,
            _metrics: &mut ReplicaMetrics,
        ) -> (BlockKind, BlockPayload) {
            self.calls.push(Call::Propose(round));
            let kind = if should_shift {
                BlockKind::Shift
            } else {
                BlockKind::Normal
            };
            (kind, BlockPayload::empty())
        }

        fn admitted(&mut self, vertex: &Vertex) {
            self.calls.push(Call::Admitted(vertex.id()));
        }

        fn delivered(
            &mut self,
            sub_dag: &CommittedSubDag,
            _now: SimTime,
            _metrics: &mut ReplicaMetrics,
        ) -> CommitOutput {
            let ids = sub_dag.vertices.iter().map(|vertex| vertex.id()).collect();
            self.calls.push(Call::Delivered(ids));
            CommitOutput::default()
        }

        fn after_emission(&mut self, _metrics: &mut ReplicaMetrics) -> Duration {
            Duration::ZERO
        }

        fn reconfigure(&mut self, _shard: ShardId) {}
    }

    #[test]
    fn consensus_drives_a_recording_app_through_the_five_calls() {
        // Lockstep: every round is complete, so every leader has its votes.
        let mut cfg = config(4);
        cfg.lockstep = true;
        cfg.system.reconfig = tb_types::ReconfigConfig::new(1 << 40, 1 << 41);
        let mut replicas: Vec<Replica<Recording>> = (0..4)
            .map(|i| Replica::with_app(ReplicaId::new(i), cfg.clone(), Recording::default()))
            .collect();
        run_synchronously(&mut replicas, 12);
        for replica in &replicas {
            let id = replica.id();
            let calls = &replica.app().calls;
            // One proposal per round, in order.
            let proposed: Vec<u64> = calls
                .iter()
                .filter_map(|call| match call {
                    Call::Propose(round) => Some(round.as_u64()),
                    _ => None,
                })
                .collect();
            assert_eq!(proposed, (0..=12).collect::<Vec<_>>(), "{id}");
            // Every vertex of the DAG is admitted once, each delivered one
            // was admitted before, and none is delivered twice.
            let mut admitted: HashMap<Digest, usize> = HashMap::new();
            let mut delivered: HashSet<Digest> = HashSet::new();
            let mut commits = 0;
            for (at, call) in calls.iter().enumerate() {
                match call {
                    Call::Admitted(vertex) => {
                        assert!(
                            admitted.insert(*vertex, at).is_none(),
                            "{id}: admitted twice"
                        );
                    }
                    Call::Delivered(vertices) => {
                        commits += 1;
                        for vertex in vertices {
                            assert!(admitted.contains_key(vertex), "{id}: delivered unadmitted");
                            assert!(delivered.insert(*vertex), "{id}: delivered twice");
                        }
                    }
                    Call::Propose(_) => {}
                }
            }
            assert_eq!(admitted.len(), replica.dag().len(), "{id}");
            assert!(replica.dag().iter().all(|v| admitted.contains_key(&v.id())));
            // Every leader round commits, one sample per delivered sub-DAG.
            let committed: Vec<u64> = replica
                .metrics()
                .round_commits
                .iter()
                .map(|sample| sample.round.as_u64())
                .collect();
            assert_eq!(committed, vec![1, 3, 5, 7, 9], "{id}");
            assert_eq!(commits, committed.len(), "{id}");
        }
    }
}
