//! The Thunderbolt replica, as a DAG replica.
//!
//! A replica plays two roles (Section 3.1). A [`Replica`] is the consensus
//! one: it proposes, runs the commit rule and rotates the shard assignment
//! when enough Shift blocks commit (Section 6); its dissemination state
//! (`crate::dissemination`) gets vertices into its DAG. The other role,
//! shard proposer and executor, is its [`App`] (by default [`ShardApp`]),
//! which holds all state, does all execution and hears of each new vertex.
//!
//! The replica is a deterministic state machine: it consumes protocol
//! messages and produces outbound messages, so it can be driven by
//! [`drive`](crate::driver::drive) over any transport or directly by unit
//! tests. Its app's work, in the handlers and in the driver's step after
//! each emission (`Replica::after_emission`), is timed and surfaced through
//! [`Replica::take_busy`], which the driver charges to the replica's clock.

use crate::app::{App, ShardApp, COMMIT_DIGEST_SEED};
use crate::cluster::ClusterConfig;
use crate::dissemination::Dissemination;
use crate::messages::Message;
use crate::metrics::{RoundCommitSample, RunReport};
use crate::proposer::ByzantineBehavior;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tb_dag::{Committer, DagStore};
use tb_network::NetworkStats;
use tb_types::{
    Block, BlockKind, BlockPayload, Committee, DagId, Digest, Header, ReplicaId, Round,
    SealedBlock, ShardAssignment, ShardId, SimTime,
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
    pub(crate) fn broadcast(msg: Message) -> Self {
        Outbound {
            dest: Destination::Broadcast,
            msg,
        }
    }

    pub(crate) fn to(dest: ReplicaId, msg: Message) -> Self {
        Outbound {
            dest: Destination::To(dest),
            msg,
        }
    }
}

/// One Thunderbolt replica, driving the app `A`.
pub struct Replica<A = ShardApp> {
    id: ReplicaId,
    committee: Committee,
    config: ClusterConfig,
    /// Everything that touches state: the store, preplay, the client
    /// queues, validation and execution.
    app: A,

    shard: ShardId,
    /// The DAG, and every vertex on its way into it.
    dissemination: Dissemination,
    committer: Committer,
    current_round: Round,
    proposed_current: bool,

    shifted_in_dag: bool,
    rounds_proposed_in_dag: u64,
    shift_quorum_authors: HashSet<ReplicaId>,

    /// Everything counted so far, by the replica and by its app.
    metrics: RunReport,
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
            shard: ShardAssignment::new(committee, dag_id).shard_of(id),
            dissemination: Dissemination::new(id, DagStore::new(committee, dag_id, Round::ZERO)),
            committer: Committer::new(committee, dag_id, Round::ZERO),
            current_round: Round::ZERO,
            proposed_current: false,
            shifted_in_dag: false,
            rounds_proposed_in_dag: 0,
            shift_quorum_authors: HashSet::new(),
            metrics: RunReport {
                replicas: committee.size(),
                commit_order_digest: COMMIT_DIGEST_SEED,
                ..RunReport::default()
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
        self.dag().dag_id()
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
        self.dissemination.dag()
    }

    /// Whether the vertex of the header with digest `header_digest` is on its
    /// way into this replica's DAG: acknowledged, held or waiting for a parent.
    pub fn awaits_vertex(&self, header_digest: &Digest) -> bool {
        self.dissemination.awaits_vertex(header_digest)
    }

    /// The counters so far. The owner's fields (label, workload, duration,
    /// traffic) and the latency quantiles are filled in by
    /// [`report`](Self::report).
    pub fn metrics(&self) -> &RunReport {
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

    /// Builds the run report from this replica's point of view: its
    /// counters, plus what only its owner (the cluster simulation or a node
    /// process) knows, the workload name, the duration and the network
    /// statistics, and the latency quantiles. Fault accounting is left at
    /// zero for a driver that injects faults to fill.
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
            duration,
            latency_p50_secs: self.metrics.latency_hist.quantile_secs(0.5),
            latency_p99_secs: self.metrics.latency_hist.quantile_secs(0.99),
            highest_round: self.dag().highest_round(),
            msgs_sent: net.sent,
            msgs_delivered: net.delivered,
            msgs_dropped: net.dropped,
            bytes_sent: net.bytes_sent,
            bytes_delivered: net.bytes_delivered,
            ..self.metrics.clone()
        }
    }

    /// Starts the replica: proposes its block for the first round.
    pub fn start(&mut self, now: SimTime) -> Vec<Outbound> {
        self.propose(now)
    }

    /// Handles one protocol message: each vertex new to the DAG goes to the
    /// app, then the commit rule runs and the replica advances as far as the
    /// DAG lets it. Fetches due again go last.
    pub fn handle(&mut self, from: ReplicaId, msg: Message, now: SimTime) -> Vec<Outbound> {
        let (mut out, admitted) = self.dissemination.handle(from, msg, now, &mut self.metrics);
        if !admitted.is_empty() {
            for vertex in &admitted {
                self.app.admitted(vertex);
            }
            out.extend(self.run_commit_loop(now));
            out.extend(self.maybe_advance(now));
        }
        out.extend(self.dissemination.retries(now, &mut self.metrics));
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
        let (kind, payload) = self
            .app
            .propose(round, leader, shift, now, &mut self.metrics);
        self.shifted_in_dag |= kind == BlockKind::Shift;
        let parents = if self.current_round == self.dag().start_round() {
            Vec::new()
        } else {
            self.dag().certificates_at_round(self.current_round.prev())
        };
        let (header, block) = self.seal(kind, payload, parents, now);
        self.dissemination
            .proposed(header.clone(), Arc::clone(&block));
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
        let block = Arc::new(Block::new(kind, self.committee.n_shards(), payload).seal());
        let header = Header::new(
            self.current_dag(),
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
        let start = self.dag().start_round().as_u64();
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
        let leader = self.committee.leader(self.current_dag(), round);
        self.dag().by_author_round(leader, round).is_some()
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
        let start = self.dag().start_round().as_u64();
        // Condition 1: some proposer has been silent for K rounds.
        if current >= start + reconfig.silent_rounds_k {
            for author in self.committee.replicas() {
                if author == self.id {
                    continue;
                }
                let seen = (current - reconfig.silent_rounds_k..current)
                    .any(|r| self.dag().by_author_round(author, Round::new(r)).is_some());
                if !seen {
                    return true;
                }
            }
        }
        // Condition 3: f + 1 Shift blocks in the previous round.
        if current > start {
            let shift_count = self
                .dag()
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
    // Commit + reconfiguration
    // ------------------------------------------------------------------

    fn run_commit_loop(&mut self, now: SimTime) -> Vec<Outbound> {
        let mut out = Vec::new();
        for sub_dag in self.committer.try_commit(self.dissemination.dag()) {
            let output = self.app.delivered(&sub_dag, now, &mut self.metrics);
            self.busy += output.busy;
            self.metrics.committed_txs += output.committed_count() as u64;
            self.metrics.single_shard_txs += output.single_shard_committed as u64;
            self.metrics.cross_shard_txs += output.cross_shard_committed as u64;
            self.metrics.invalid_blocks += output.invalid_blocks as u64;
            self.metrics.validate_busy_secs += output.stage_validate.as_secs_f64();
            self.metrics.apply_busy_secs += output.stage_apply.as_secs_f64();
            self.metrics.execute_busy_secs += output.stage_execute.as_secs_f64();
            self.metrics.coalesced_batches += output.coalesced_batches;
            self.metrics.apply_calls += output.apply_calls;
            self.metrics.blocks_replayed_ahead += output.blocks_replayed_ahead;
            self.metrics.blocks_replayed_inline += output.blocks_replayed_inline;
            self.metrics.round_commits.push(RoundCommitSample {
                dag: self.current_dag().as_inner(),
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
        let dag_id = DagId::new(self.current_dag().as_inner() + 1);
        let dag = DagStore::new(self.committee, dag_id, ending_round);
        let buffered = self.dissemination.reconfigure(dag);
        self.shard = ShardAssignment::new(self.committee, dag_id).shard_of(self.id);
        self.committer = Committer::new(self.committee, dag_id, ending_round);
        self.current_round = ending_round;
        self.proposed_current = false;
        self.shifted_in_dag = false;
        self.rounds_proposed_in_dag = 0;
        self.shift_quorum_authors.clear();
        self.app.reconfigure(self.shard);

        let mut out = self.propose(now);
        // The messages that were ahead of the old DAG, handled again.
        for (from, msg) in buffered {
            out.extend(self.handle(from, msg, now));
        }
        out
    }

    fn maybe_advance(&mut self, now: SimTime) -> Vec<Outbound> {
        let mut out = Vec::new();
        while self.proposed_current && self.dag().round_has_quorum(self.current_round) {
            // Lockstep mode waits for the *complete* round — all n vertices,
            // not just a 2f+1 quorum — before advancing. With a complete DAG
            // the committed sub-DAG sequence is a pure function of the
            // transaction stream, which is what lets a real-TCP run be
            // digest-compared against an in-process sim run (see
            // `ClusterConfig::lockstep` for the crash-tolerance trade-off).
            if self.config.lockstep
                && self.dag().authors_at_round(self.current_round) < self.committee.size() as usize
            {
                break;
            }
            self.current_round = self.current_round.next();
            self.proposed_current = false;
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
    use std::collections::{HashMap, HashSet, VecDeque};
    use tb_dag::CommittedSubDag;
    use tb_types::{
        CeConfig, Certificate, ClientId, ContractCall, Digest, Key, ShardId, SmallBankProcedure,
        SystemConfig, Transaction, TxId, Value, Vertex,
    };

    impl<A> Replica<A> {
        /// The replica's dissemination state, for tests to read.
        pub(crate) fn dissemination(&self) -> &Dissemination {
            &self.dissemination
        }
    }

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
    pub(crate) fn run_synchronously<A: App>(replicas: &mut [Replica<A>], rounds_budget: usize) {
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

    pub(crate) fn quorum_certificate(header: &Header) -> Certificate {
        Certificate::for_header(header, (0..3).map(ReplicaId::new).collect())
    }

    #[test]
    fn messages_of_a_later_dag_wait_for_the_replica_to_reconfigure() {
        // Round 5 is the first round of DAG 1, so its vertices need no
        // parents. Replica 1 is still in DAG 0.
        let (dag, round) = (DagId::new(1), Round::new(5));
        let pair = |author: u32| {
            let author = ReplicaId::new(author);
            let block = Block::new(BlockKind::Normal, 4, BlockPayload::empty());
            let block = Arc::new(block.seal());
            let header = Header::new(dag, round, author, block.digest(), vec![], SimTime::ZERO);
            (header, block)
        };
        let (acked, block) = pair(0);
        let (held, _) = pair(3);
        let (fetched, fetched_block) = pair(2);
        let fetched_id = quorum_certificate(&fetched).digest();
        let ahead = [
            (
                0,
                Message::Header {
                    header: acked.clone(),
                    block,
                },
            ),
            (3, Message::Certificate(quorum_certificate(&held))),
            (
                2,
                Message::Vertex(Box::new(Vertex::new(
                    fetched.clone(),
                    fetched_block,
                    quorum_certificate(&fetched),
                ))),
            ),
        ];
        let mut replica = Replica::new(ReplicaId::new(1), config(4));
        replica.start(SimTime::ZERO);
        for (from, msg) in ahead {
            assert_eq!(msg.dag(), dag);
            let out = replica.handle(ReplicaId::new(from), msg, SimTime::ZERO);
            assert!(out.is_empty(), "{:?}", out.first().map(|o| o.msg.kind()));
        }
        // No acknowledgement, no hold and no fetch while they are ahead.
        assert!(!replica.awaits_vertex(&acked.digest()));
        assert!(!replica.awaits_vertex(&held.digest()));
        assert!(replica.dag().is_empty());
        assert_eq!(replica.metrics().fetches_sent, 0);

        // Reconfiguring into DAG 1 handles each of them: the header is
        // acknowledged and retained, the certificate held and its vertex
        // fetched, and the vertex admitted.
        let out = replica.reconfigure(round, SimTime::ZERO);
        assert_eq!(replica.current_dag(), dag);
        let sent: Vec<(&str, Destination)> =
            out.iter().map(|o| (o.msg.kind(), o.dest.clone())).collect();
        assert_eq!(
            sent,
            vec![
                ("header", Destination::Broadcast),
                ("ack", Destination::To(ReplicaId::new(0))),
                ("fetch", Destination::To(ReplicaId::new(2))),
            ]
        );
        assert!(replica.awaits_vertex(&acked.digest()));
        assert!(replica.awaits_vertex(&held.digest()));
        assert!(replica.dag().contains(&fetched_id));
        assert_eq!(replica.metrics().fetches_sent, 1);

        // A header of the DAG the replica left is dropped.
        let (_, header, block) = crate::dissemination::tests::proposer_with_header();
        let out = replica.handle(
            ReplicaId::new(0),
            Message::Header { header, block },
            SimTime::ZERO,
        );
        assert!(out.is_empty());
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

    /// The vertices `replica` has delivered in its current DAG: the stored
    /// history of every leader it committed there, walked as its committer
    /// walks it.
    fn delivered(replica: &Replica) -> HashSet<Digest> {
        let dag = replica.current_dag();
        let mut delivered = HashSet::new();
        for sample in &replica.metrics().round_commits {
            if sample.dag != dag.as_inner() {
                continue;
            }
            let leader = replica
                .dag()
                .by_author_round(replica.committee.leader(dag, sample.round), sample.round)
                .expect("a committed leader is stored");
            replica
                .dag()
                .causal_history(&leader.id(), &mut delivered, &mut 0);
        }
        delivered
    }

    /// The blocks `replica` holds a replay for are exactly the preplayed
    /// blocks of the undelivered vertices of its current DAG.
    fn assert_replays_track_the_undelivered(replica: &Replica) {
        let delivered = delivered(replica);
        let undelivered: Vec<&Arc<Vertex>> = replica
            .dag()
            .iter()
            .filter(|v| !delivered.contains(&v.id()) && !v.block.payload.single_shard.is_empty())
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
            let ids = delivered(replica);
            let delivered = replica
                .dag()
                .iter()
                .filter(|v| ids.contains(&v.id()) && !v.block.payload.single_shard.is_empty())
                .count() as u64;
            assert!(delivered >= 60, "{delivered} preplayed blocks delivered");
            assert_eq!(replica.metrics().blocks_replayed_ahead, delivered);
            assert_eq!(replica.metrics().blocks_replayed_inline, 0);
            assert_replays_track_the_undelivered(replica);
        }
    }

    /// A replica times the committed transactions it proposed, each once,
    /// on its own clock, and no other; a cluster's report pools them all.
    #[test]
    fn each_replica_times_exactly_the_committed_transactions_it_proposed() {
        let mut sim = crate::scenario::ScenarioBuilder::new(4)
            .smallbank(tb_workload::SmallBankConfig {
                cross_shard_fraction: 0.2,
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
        let report = sim.run();
        let mut timed = 0;
        for id in 0..4 {
            let replica = sim.replica(ReplicaId::new(id));
            let metrics = replica.metrics();
            assert_eq!(metrics.reconfigurations, 0);
            assert_eq!(metrics.invalid_blocks, 0);
            let delivered = delivered(replica);
            let own_committed: u64 = replica
                .dag()
                .iter()
                .filter(|v| v.author() == replica.id() && delivered.contains(&v.id()))
                .map(|v| v.block.tx_count() as u64)
                .sum();
            assert!(own_committed > 0, "{}", replica.id());
            assert_eq!(metrics.timed_txs, own_committed, "{}", replica.id());
            assert_eq!(
                metrics.latency_hist.count(),
                own_committed,
                "{}",
                replica.id()
            );
            assert!(metrics.total_queue_wait_secs > 0.0);
            assert!(metrics.total_latency_secs > metrics.total_queue_wait_secs);
            timed += metrics.timed_txs;
        }
        assert_eq!(report.timed_txs, timed);
        assert_eq!(report.latency_hist.count(), timed);
        let observer = sim.replica(ReplicaId::new(0)).metrics();
        assert!(report.timed_txs > observer.timed_txs);
        assert!(report.latency_p50_secs > 0.0);
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
            _now: SimTime,
            _metrics: &mut RunReport,
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
            _metrics: &mut RunReport,
        ) -> CommitOutput {
            let ids = sub_dag.vertices.iter().map(|vertex| vertex.id()).collect();
            self.calls.push(Call::Delivered(ids));
            CommitOutput::default()
        }

        fn after_emission(&mut self, _metrics: &mut RunReport) -> Duration {
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
