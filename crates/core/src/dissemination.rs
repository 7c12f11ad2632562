//! Dissemination: how vertices get into a replica's DAG.
//!
//! [`Dissemination`] owns a [`Replica`](crate::replica::Replica)'s
//! [`DagStore`] and every way in: a header is acknowledged and its
//! `(header, block)` pair retained until its certificate completes it, a
//! certificate without its pair is held and its vertex fetched from a
//! signer, a fetch is answered, a vertex whose parent is missing waits, and
//! the replica's own header collects acknowledgements into its certificate
//! ([`crate::messages`], `docs/NET.md`). Besides the messages to send, its
//! only output is the vertices new to the DAG, which the replica hands to
//! its app before it runs the commit rule.
//!
//! Everything it keeps is bounded by the replica's collection horizon
//! ([`Committer::horizon`](tb_dag::Committer::horizon)): when the replica
//! collects the DAG below it ([`Dissemination::collect_below`]), the pairs,
//! held certificates and waiting vertices of those rounds go too, and a
//! header that arrives below it is acknowledged but not kept.

use crate::messages::Message;
use crate::metrics::RunReport;
use crate::replica::Outbound;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use tb_dag::{DagError, DagStore};
use tb_types::{
    Certificate, DagId, Digest, Header, ReplicaId, Round, SealedBlock, SimTime, Vertex,
};

/// How long a replica waits for the signer it asked for a vertex before it
/// asks the next one. Measured on the `now` the handlers are called with and
/// checked whenever a message is handled, so a replica that hears nothing
/// asks nothing more. Longer than a wide-area round trip (75 ms ± 70 ms a
/// hop in the `wan-tail` scenario), so a slow answer is not asked for twice.
const FETCH_RETRY: SimTime = SimTime::from_millis(300);

/// The header this replica proposed for its current round, until it is
/// certified. The `(header, block)` pair itself sits in `retained`.
struct PendingHeader {
    digest: Digest,
    /// Signers so far. The author signs its own header by proposing it, so
    /// the set starts with the author and the certificate forms on the
    /// second remote acknowledgement at `n = 4` (`2f` remote ones in
    /// general).
    acks: HashSet<ReplicaId>,
}

/// A certificate held without its `(header, block)` pair, and the signer
/// last asked for the vertex it names.
struct HeldCertificate {
    certificate: Certificate,
    asked: ReplicaId,
    asked_at: SimTime,
}

/// One replica's DAG and the state of every vertex on its way in.
pub(crate) struct Dissemination {
    /// The replica this state belongs to, never asked for a vertex itself.
    me: ReplicaId,
    dag: DagStore,
    own: Option<PendingHeader>,
    /// The `(header, block)` pairs this replica proposed or acknowledged,
    /// keyed by header digest, until the vertex arrives: a bare certificate
    /// is completed from here, a fetch for it is answered from here, and a
    /// full vertex for a retained header shares the retained block's
    /// allocation. A pair leaves when its vertex is admitted; one whose header
    /// was abandoned leaves when its round is collected; reconfiguration
    /// clears the map.
    retained: HashMap<Digest, (Header, Arc<SealedBlock>)>,
    /// Quorum certificates whose header this replica does not hold (yet),
    /// each with a request for its vertex out to one of its signers. Every
    /// replica acknowledges every header it receives, so this stays empty
    /// unless a message was lost or a peer misbehaves. Capped at two rounds'
    /// worth and ordered by digest, so retries leave in the same order on
    /// every run. An entry leaves when its header lands, when the vertex
    /// arrives, when its round is collected, or on reconfiguration.
    held: BTreeMap<Digest, HeldCertificate>,
    /// Vertices waiting for a parent to be inserted under, until their round
    /// is collected.
    pending_vertices: Vec<Arc<Vertex>>,
    /// A collection raised the horizon to the round of a waiting vertex,
    /// which no longer needs the parents it waited for: the next message
    /// handled inserts it.
    retry_pending: bool,
    /// Headers, certificates and vertices of a later DAG instance, in
    /// arrival order, handled again on reconfiguration.
    future_messages: Vec<(ReplicaId, Message)>,
    /// The vertices the message in hand brought into the DAG.
    admitted: Vec<Arc<Vertex>>,
}

impl Dissemination {
    /// The state of replica `me` with nothing on its way into `dag` yet.
    pub(crate) fn new(me: ReplicaId, dag: DagStore) -> Self {
        Dissemination {
            me,
            dag,
            own: None,
            retained: HashMap::new(),
            held: BTreeMap::new(),
            pending_vertices: Vec::new(),
            retry_pending: false,
            future_messages: Vec::new(),
            admitted: Vec::new(),
        }
    }

    /// The replica's view of the current DAG instance.
    pub(crate) fn dag(&self) -> &DagStore {
        &self.dag
    }

    /// Whether the vertex of the header with digest `header_digest` is on its
    /// way in: its pair retained, its certificate held, or waiting for a parent.
    pub(crate) fn awaits_vertex(&self, header_digest: &Digest) -> bool {
        self.retained.contains_key(header_digest)
            || self.held.contains_key(header_digest)
            || self
                .pending_vertices
                .iter()
                .any(|vertex| vertex.certificate.header_digest == *header_digest)
    }

    /// Moves on to the new DAG instance `dag`. Everything about the old one
    /// goes; the messages buffered for later instances are returned, to be
    /// handled again in arrival order.
    pub(crate) fn reconfigure(&mut self, dag: DagStore) -> Vec<(ReplicaId, Message)> {
        let buffered = std::mem::take(&mut self.future_messages);
        *self = Dissemination::new(self.me, dag);
        buffered
    }

    /// This replica proposed `header`: it collects acknowledgements for it
    /// from now on, and retains the pair like any it acknowledged.
    pub(crate) fn proposed(&mut self, header: Header, block: Arc<SealedBlock>) {
        let digest = header.digest();
        self.retained.insert(digest, (header, block));
        self.own = Some(PendingHeader {
            digest,
            acks: HashSet::from([self.me]),
        });
    }

    /// Handles one protocol message and returns the messages to send and
    /// the vertices new to the DAG, in insertion order. A header,
    /// certificate or vertex of a later DAG instance is buffered, and one of
    /// an earlier instance dropped; an acknowledgement or a fetch of another
    /// instance is dropped or refused by its handler. Waiting vertices a
    /// collection unblocked go in first.
    pub(crate) fn handle(
        &mut self,
        from: ReplicaId,
        msg: Message,
        now: SimTime,
        metrics: &mut RunReport,
    ) -> (Vec<Outbound>, Vec<Arc<Vertex>>) {
        if std::mem::take(&mut self.retry_pending) {
            let pending = std::mem::take(&mut self.pending_vertices);
            self.insert_all(pending);
        }
        let current = self.dag.dag_id();
        let out = match msg {
            Message::Ack {
                header_digest,
                dag,
                signer,
                ..
            } => self.on_ack(from, dag, header_digest, signer),
            Message::Fetch(certificate) => self.on_fetch(from, certificate, metrics),
            msg if msg.dag() > current => {
                self.future_messages.push((from, msg));
                Vec::new()
            }
            msg if msg.dag() < current => Vec::new(),
            Message::Header { header, block } => self.on_header(from, header, block, metrics),
            Message::Certificate(certificate) => {
                self.on_certificate(from, certificate, now, metrics)
            }
            Message::Vertex(vertex) => self.on_vertex(*vertex, metrics),
        };
        (out, std::mem::take(&mut self.admitted))
    }

    /// Asks the next signer for every held vertex whose last request went
    /// out [`FETCH_RETRY`] or more before `now`.
    pub(crate) fn retries(&mut self, now: SimTime, metrics: &mut RunReport) -> Vec<Outbound> {
        let mut out = Vec::new();
        for entry in self.held.values_mut() {
            if now < entry.asked_at + FETCH_RETRY {
                continue;
            }
            if let Some(next) = next_signer(&entry.certificate, entry.asked, self.me) {
                entry.asked = next;
                entry.asked_at = now;
                out.push(fetch(next, entry.certificate.clone(), metrics));
            }
        }
        out
    }

    /// Collects the DAG below `horizon` and returns the vertices it held
    /// there. The pairs, held certificates and waiting vertices of those
    /// rounds go too: nothing below the horizon can enter the DAG any more.
    /// A vertex waiting at the horizon itself may have waited for a parent
    /// that is now collected: the next message retries it.
    pub(crate) fn collect_below(&mut self, horizon: Round) -> Vec<Arc<Vertex>> {
        self.retained
            .retain(|_, (header, _)| header.round >= horizon);
        self.held
            .retain(|_, entry| entry.certificate.round >= horizon);
        self.pending_vertices
            .retain(|vertex| vertex.round() >= horizon);
        let collected = self.dag.collect_below(horizon);
        self.retry_pending |= self
            .pending_vertices
            .iter()
            .any(|vertex| vertex.round() == self.dag.horizon());
        collected
    }

    fn on_header(
        &mut self,
        from: ReplicaId,
        header: Header,
        block: Arc<SealedBlock>,
        metrics: &mut RunReport,
    ) -> Vec<Outbound> {
        if header.round < self.dag.start_round() {
            return Vec::new();
        }
        if header.author != from
            || block.digest() != header.block_digest
            || !self.counts_our_shards(&block)
        {
            metrics.rejected_vertices += 1;
            return Vec::new();
        }
        let header_digest = header.digest();
        // Its own proposal coming back on the loop-back, a duplicate, or a
        // header of a collected round, which its author may still need
        // acknowledged but which can no longer enter the DAG.
        let known = self.retained.contains_key(&header_digest) || header.round < self.dag.horizon();
        let ack = vec![Outbound::to(
            from,
            Message::Ack {
                header_digest,
                dag: header.dag,
                round: header.round,
                signer: self.me,
            },
        )];
        if known {
            return ack;
        }
        if let Some(held) = self.held.remove(&header_digest) {
            if held.certificate.certifies(&header) {
                self.insert(Vertex::new(header, block, held.certificate));
                return ack;
            }
            metrics.rejected_vertices += 1;
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
        ack
    }

    /// An acknowledgement of this replica's own header. The one that
    /// completes the quorum certifies the header, which takes it out, so a
    /// later acknowledgement finds nothing.
    fn on_ack(
        &mut self,
        from: ReplicaId,
        dag: DagId,
        header_digest: Digest,
        signer: ReplicaId,
    ) -> Vec<Outbound> {
        // An acknowledgement speaks for its sender only: a signer must
        // really hold the block, since it answers fetches for it.
        let committee = self.dag.committee();
        if dag != self.dag.dag_id() || signer != from || !committee.contains(signer) {
            return Vec::new();
        }
        let Some(own) = self.own.as_mut().filter(|own| own.digest == header_digest) else {
            return Vec::new();
        };
        own.acks.insert(signer);
        if own.acks.len() < committee.quorum_threshold() {
            return Vec::new();
        }
        let signers = self.own.take().expect("matched above").acks;
        let Some((header, _)) = self.retained.get(&header_digest) else {
            return Vec::new();
        };
        let certificate = Certificate::for_header(header, signers.into_iter().collect());
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
        metrics: &mut RunReport,
    ) -> Vec<Outbound> {
        if certificate.author != from || !certificate.is_valid(&self.dag.committee()) {
            metrics.rejected_vertices += 1;
            return Vec::new();
        }
        let header_digest = certificate.header_digest;
        match self.retained.get(&header_digest) {
            Some((header, _)) if certificate.certifies(header) => {
                let (header, block) = self
                    .retained
                    .remove(&header_digest)
                    .expect("looked up just above");
                self.insert(Vertex::new(header, block, certificate));
            }
            Some(_) => metrics.rejected_vertices += 1,
            None => return self.hold(certificate, now, metrics),
        }
        Vec::new()
    }

    /// Holds a certificate whose `(header, block)` pair this replica does
    /// not have, and asks a signer for its vertex at once: in lockstep a
    /// replica missing one vertex holds up everyone's next round, so waiting
    /// for a later message to ask could wait forever. The first request goes
    /// to the signer after this replica in signer order, if there is one.
    /// A certificate of a collected round is not held: no answer could enter
    /// the DAG.
    fn hold(
        &mut self,
        certificate: Certificate,
        now: SimTime,
        metrics: &mut RunReport,
    ) -> Vec<Outbound> {
        if self.held.contains_key(&certificate.header_digest)
            || self.dag.contains(&certificate.digest())
            || certificate.round < self.dag.horizon()
        {
            return Vec::new();
        }
        if self.held.len() >= 2 * self.dag.committee().size() as usize {
            metrics.certificates_dropped += 1;
            return Vec::new();
        }
        let asked = next_signer(&certificate, self.me, self.me);
        let request = asked.map(|to| fetch(to, certificate.clone(), metrics));
        self.held.insert(
            certificate.header_digest,
            HeldCertificate {
                certificate,
                asked: asked.unwrap_or(self.me),
                asked_at: now,
            },
        );
        request.into_iter().collect()
    }

    /// A request for the vertex `certificate` names. It is answered when the
    /// certificate is a valid one of the current DAG and this replica holds
    /// the vertex, admitted or as the pair it acknowledged; anything else,
    /// a vertex of a collected round among it, is dropped and counted.
    fn on_fetch(
        &self,
        from: ReplicaId,
        certificate: Certificate,
        metrics: &mut RunReport,
    ) -> Vec<Outbound> {
        let vertex = if certificate.dag != self.dag.dag_id()
            || !certificate.is_valid(&self.dag.committee())
        {
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
                metrics.fetches_answered += 1;
                vec![Outbound::to(from, Message::Vertex(Box::new(vertex)))]
            }
            None => {
                metrics.fetches_refused += 1;
                Vec::new()
            }
        }
    }

    /// A full vertex from the wire, the answer to a fetch. Its id is derived
    /// from the certificate alone, so before it may enter the DAG the
    /// certificate must carry a quorum and certify exactly this header, and
    /// the block must be the one the header commits to.
    fn on_vertex(&mut self, mut vertex: Vertex, metrics: &mut RunReport) -> Vec<Outbound> {
        if !vertex.certificate.is_valid(&self.dag.committee())
            || !vertex.certificate.certifies(&vertex.header)
        {
            metrics.rejected_vertices += 1;
            return Vec::new();
        }
        let header_digest = vertex.certificate.header_digest;
        match self.retained.remove(&header_digest) {
            // The retained block was checked against this header when it was
            // acknowledged; keeping it shares one allocation among holders.
            Some((_, block)) => vertex.block = block,
            None if vertex.block.digest() != vertex.header.block_digest
                || !self.counts_our_shards(&vertex.block) =>
            {
                metrics.rejected_vertices += 1;
                return Vec::new();
            }
            None => {}
        }
        if self.held.remove(&header_digest).is_some() {
            metrics.vertices_fetched += 1;
        }
        self.insert(vertex);
        Vec::new()
    }

    /// Whether `block` derives its transactions' shard sets from this
    /// committee's shard count. Under any other count a receiver would derive
    /// sets that place the calls' keys on other shards, so such a block is
    /// neither acknowledged nor admitted.
    fn counts_our_shards(&self, block: &SealedBlock) -> bool {
        block.n_shards == self.dag.committee().n_shards()
    }

    /// Inserts a vertex whose certificate, header and block are known to
    /// bind together, then every waiting vertex the insert unblocks.
    fn insert(&mut self, vertex: Vertex) {
        self.insert_all(vec![Arc::new(vertex)]);
    }

    /// Inserts `batch`, then every waiting vertex an insert unblocks, until
    /// a pass inserts nothing. The vertices new to the DAG are admitted in
    /// insertion order: one the DAG already holds is not admitted again,
    /// and one whose parent is missing waits.
    fn insert_all(&mut self, mut batch: Vec<Arc<Vertex>>) {
        loop {
            let before = self.admitted.len();
            for vertex in batch {
                if self.dag.contains(&vertex.id()) {
                    continue;
                }
                match self.dag.insert(Arc::clone(&vertex)) {
                    Ok(_) => self.admitted.push(vertex),
                    Err(DagError::MissingParent { .. }) => self.pending_vertices.push(vertex),
                    Err(_) => {}
                }
            }
            if self.admitted.len() == before {
                return;
            }
            batch = std::mem::take(&mut self.pending_vertices);
        }
    }
}

/// A request to `to` for the vertex `certificate` names.
fn fetch(to: ReplicaId, certificate: Certificate, metrics: &mut RunReport) -> Outbound {
    metrics.fetches_sent += 1;
    Outbound::to(to, Message::Fetch(certificate))
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::replica::tests::{
        ack, config, enqueue, payment, quorum_certificate, run_synchronously,
    };
    use crate::replica::{Destination, Replica};
    use crate::scenario::ScenarioBuilder;
    use std::collections::VecDeque;
    use tb_dag::COLLECTION_DEPTH;
    use tb_types::{Block, BlockKind, CeConfig, ContractCall, LatencyModel, SmallBankProcedure};
    use tb_workload::SmallBankConfig;

    /// Starts replica 0 of a 4-cluster and returns it with its round-0
    /// proposal.
    pub(crate) fn proposer_with_header() -> (Replica, Header, Arc<SealedBlock>) {
        let mut proposer = Replica::new(ReplicaId::new(0), config(4));
        let out = proposer.start(SimTime::ZERO);
        let Message::Header { header, block } = out[0].msg.clone() else {
            panic!("expected header");
        };
        (proposer, header, block)
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
            assert!(replica.dissemination().retained.is_empty());
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
        assert_eq!(other.dissemination().held.len(), 1);
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
        assert_eq!(other.dissemination().held.len(), 0);
        assert!(other.dissemination().retained.is_empty());
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
        assert_eq!(replica.dissemination().held.len(), 8);
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
                replica.dissemination().retained.len() <= 4,
                "replica {} retains {} pairs",
                replica.id(),
                replica.dissemination().retained.len()
            );
            assert_eq!(replica.dissemination().held.len(), 0);
            assert_eq!(replica.metrics().fetches_sent, 0);
        }
    }

    /// Delivers every message eventually, in an order drawn from `seed`,
    /// with replica 0's sends picked only one time in eight while anything
    /// else is queued (a slow sender whose headers, certificates and
    /// vertices all arrive late and out of order), and runs the driver's
    /// after-emission step, which collects the DAG, after each. Headers for
    /// `target` and later rounds are dropped so the run quiesces with every
    /// replica at `target`. Returns `false` if the inbox drained before
    /// that.
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
            replica.after_emission();
        }
        replicas
            .iter()
            .all(|replica| replica.current_round().as_u64() == target)
    }

    /// Runs a fresh 4-replica cluster through [`run_reordered`] and checks
    /// that it reached `target` with nothing stuck, every certified vertex
    /// every replica still holds on every replica, and one committed
    /// sequence.
    fn reordered_cluster(cfg: &ClusterConfig, target: u64, seed: u64) -> Vec<Replica> {
        let mut replicas: Vec<Replica> = (0..4)
            .map(|i| Replica::new(ReplicaId::new(i), cfg.clone()))
            .collect();
        let reached = run_reordered(&mut replicas, target, seed);
        let rounds: Vec<u64> = replicas
            .iter()
            .map(|r| r.current_round().as_u64())
            .collect();
        let pending: Vec<usize> = replicas
            .iter()
            .map(|r| r.dissemination().pending_vertices.len())
            .collect();
        assert!(
            reached,
            "seed {seed}: stalled at rounds {rounds:?}, pending {pending:?}"
        );
        assert_eq!(pending, vec![0; 4], "seed {seed}: vertices stuck");

        // The rounds every replica still holds.
        let horizon = replicas.iter().map(|r| r.dag().horizon()).max();
        let ids = |replica: &Replica| -> Vec<Digest> {
            let held = replica.dag().iter();
            let kept = held.filter(|vertex| Some(vertex.round()) >= horizon);
            kept.map(|vertex| vertex.id()).collect()
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
            let observer = &replicas[0];
            let admitted = observer.dag().len() as u64 + observer.metrics().vertices_collected;
            assert!(admitted < 3 * 120 + 10);
            for replica in &replicas {
                assert!(
                    replica.dissemination().retained.len() < RETAINED_BOUND,
                    "seed {seed}: replica {} retains {} pairs",
                    replica.id(),
                    replica.dissemination().retained.len()
                );
                assert_eq!(replica.dissemination().held.len(), 0);
            }
        }
    }

    #[test]
    fn a_vertex_waiting_at_the_new_horizon_enters_with_the_next_message() {
        let committee = tb_types::Committee::new(4);
        let dag = DagId::new(0);
        let mut builder = tb_dag::DagBuilder::new(committee, dag, Round::ZERO);
        let mut make = |author: u32, round: u64, parents: Vec<Digest>| {
            let (author, round) = (ReplicaId::new(author), Round::new(round));
            let kind = BlockKind::Normal;
            builder.make_vertex(author, round, kind, Default::default(), parents)
        };
        let first: Vec<Vertex> = (0..4).map(|author| make(author, 0, vec![])).collect();
        let parents: Vec<Digest> = first.iter().map(Vertex::id).collect();
        let second: Vec<Vertex> = (0..4)
            .map(|author| make(author, 1, parents.clone()))
            .collect();
        let parents: Vec<Digest> = second.iter().map(Vertex::id).collect();
        let waiting = make(0, 2, parents);

        let mut state = Dissemination::new(
            ReplicaId::new(1),
            DagStore::new(committee, dag, Round::ZERO),
        );
        let mut metrics = RunReport::default();
        let mut deliver = |state: &mut Dissemination, vertex: &Vertex| {
            let from = vertex.author();
            let msg = Message::Vertex(Box::new(vertex.clone()));
            state.handle(from, msg, SimTime::ZERO, &mut metrics).1
        };
        // Round 1 lacks replica 3's vertex, so round 2's waits for it.
        for vertex in first.iter().chain(&second[..3]) {
            assert_eq!(deliver(&mut state, vertex).len(), 1);
        }
        assert!(deliver(&mut state, &waiting).is_empty());
        assert!(state.awaits_vertex(&waiting.certificate.header_digest));

        // The horizon rises to round 2: the missing parent is collected,
        // and the waiting vertex no longer needs it.
        assert_eq!(state.collect_below(Round::new(2)).len(), 7);
        let admitted = deliver(&mut state, &second[3]);
        let ids: Vec<Digest> = admitted.iter().map(|vertex| vertex.id()).collect();
        assert_eq!(ids, vec![waiting.id()]);
        assert!(!state.awaits_vertex(&waiting.certificate.header_digest));
        assert!(state.pending_vertices.is_empty());
        assert_eq!(state.dag().len(), 1);
    }

    #[test]
    fn vertices_certified_too_late_to_be_referenced_leave_the_app_when_collected() {
        // Replica 3's certificates reach each peer only once the peer has
        // proposed the next round, so no vertex but replica 3's own next one
        // references its vertices: no leader delivers them, and each is
        // collected undelivered. Its own undelivered blocks keep its P3/P4
        // set non-empty, so it converts every batch, and each of its
        // vertices leaves a P3/P4 entry at every replica until collected:
        // kept until reconfiguration, they would pile up one a round.
        let mut cfg = config(4);
        cfg.system.ce = CeConfig::new(2, 8).without_synthetic_cost();
        cfg.system.reconfig = tb_types::ReconfigConfig::new(1 << 40, 1 << 41);
        let mut workload: Box<dyn tb_workload::Workload> = SmallBankConfig {
            accounts: 256,
            cross_shard_fraction: 0.2,
            ..SmallBankConfig::default()
        }
        .into();
        workload.configure_for_cluster(4, 7);
        let mut replicas: Vec<Replica> = (0..4)
            .map(|i| Replica::new(ReplicaId::new(i), cfg.clone()))
            .collect();
        let mut feed = crate::ClientFeed::new(workload, 8);
        for replica in &mut replicas {
            replica
                .app_mut()
                .load_state(feed.workload().initial_state());
            feed.top_up(replica, SimTime::ZERO);
        }
        let late = ReplicaId::new(3);
        let (mut conflicting, mut replays) = (0, 0);
        run_fifo_with(
            &mut replicas,
            120,
            |replicas, from, to, msg| match msg {
                Message::Certificate(certificate)
                    if from == late
                        && to != late
                        && replicas[to.as_inner() as usize].current_round()
                            <= certificate.round =>
                {
                    Fate::Defer
                }
                _ => Fate::Deliver,
            },
            |replica| {
                feed.top_up(replica, SimTime::ZERO);
                replica.after_emission();
                conflicting = conflicting.max(replica.app().conflicting_undelivered().len());
                replays = replays.max(replica.app().replays().len());
            },
        );

        let observer = replicas[0].metrics();
        assert!(observer.committed_txs > 0);
        for replica in &replicas {
            let (id, metrics) = (replica.id(), replica.metrics());
            assert_eq!(replica.current_round(), Round::new(120), "{id}");
            // One of replica 3's vertices a round, bar the last few.
            assert!(metrics.vertices_collected_undelivered > 100, "{id}");
            // As many as a build without collection finds on this run.
            assert_eq!(metrics.invalid_blocks, 0, "{id}");
            assert_eq!(metrics.round_commits.len(), observer.round_commits.len());
            assert_eq!(metrics.commit_order_digest, observer.commit_order_digest);
        }
        // What any replica held at any point: (depth + 4) rounds' worth.
        let bound = 4 * (COLLECTION_DEPTH as usize + 4);
        assert!(conflicting <= bound, "{conflicting} P3/P4 entries");
        assert!(replays <= bound, "{replays} replays");
    }

    /// What a replica of a 4-cluster may retain in the reordered runs: the
    /// pairs of the rounds above its horizon, which sits
    /// [`COLLECTION_DEPTH`] below its last committed leader, a few rounds
    /// below the one in flight.
    const RETAINED_BOUND: usize = 4 * (COLLECTION_DEPTH as usize + 6);

    #[test]
    fn collection_bounds_what_a_replica_keeps_over_2000_lockstep_rounds() {
        // Small batches with cross-shard traffic, so P3/P4 entries and
        // replays come and go all through the run.
        let mut sim = ScenarioBuilder::new(4)
            .lockstep()
            .executors(1, 8)
            .validators(1)
            .rounds(2_000)
            .latency(LatencyModel::Fixed { micros: 100 })
            .smallbank(SmallBankConfig {
                accounts: 256,
                cross_shard_fraction: 0.2,
                ..SmallBankConfig::default()
            })
            .tune(|system| system.ce = system.ce.without_synthetic_cost())
            .build();
        // At every commit of every replica, each thing it keeps per vertex
        // holds at most (depth + 4) rounds' worth.
        let bound = 4 * (COLLECTION_DEPTH as usize + 4);
        let mut commits = [0; 4];
        let mut first_certificate = None;
        let report = sim.run_with(|replicas| {
            for replica in replicas {
                let seen = &mut commits[replica.id().as_inner() as usize];
                if replica.metrics().round_commits.len() == *seen {
                    continue;
                }
                *seen = replica.metrics().round_commits.len();
                let first = replica.dag().at_round(Round::ZERO);
                if let Some(vertex) = first.first().filter(|_| first_certificate.is_none()) {
                    first_certificate = Some(vertex.certificate.clone());
                }
                let state = replica.dissemination();
                let app = replica.app();
                let kept = [
                    ("vertices", replica.dag().len()),
                    ("delivered", replica.committer().delivered_len()),
                    ("retained", state.retained.len()),
                    ("held", state.held.len()),
                    ("pending", state.pending_vertices.len()),
                    ("conflicting", app.conflicting_undelivered().len()),
                    ("replays", app.replays().len()),
                ];
                for (what, len) in kept {
                    assert!(
                        len <= bound,
                        "replica {} at commit {seen}: {len} {what}",
                        replica.id()
                    );
                }
            }
        });
        assert_eq!(report.round_commits.len(), 1_000);
        assert!(report.cross_shard_txs > 0);
        for id in (0..4).map(ReplicaId::new) {
            let metrics = sim.replica(id).metrics();
            assert!(metrics.vertices_collected > 3_900, "{id}");
            assert_eq!(metrics.vertices_collected_undelivered, 0, "{id}");
        }

        // Round 0 is long gone: a fetch for one of its vertices is refused
        // and counted.
        let fetch = Message::Fetch(first_certificate.expect("round 0 was held"));
        let responder = sim.replica_mut(ReplicaId::new(1));
        let refused = responder.metrics().fetches_refused;
        assert!(responder
            .handle(ReplicaId::new(2), fetch, SimTime::ZERO)
            .is_empty());
        assert_eq!(responder.metrics().fetches_refused, refused + 1);
    }

    /// What [`run_fifo_with`] does with a message.
    enum Fate {
        Deliver,
        Lose,
        /// Hold it back, in send order with the others held back, until
        /// `fate` lets it through or nothing else is left to deliver.
        Defer,
    }

    /// Takes messages in send order, dropping the headers of `target` and
    /// later rounds (so the run quiesces with every replica at `target`),
    /// and delivers, drops or holds back each as `fate`, shown the
    /// replicas, says. A message held back is delivered before anything
    /// new once `fate` says so, and the oldest one is once nothing new is
    /// left. Runs `step` on a replica after it handles a message.
    fn run_fifo_with(
        replicas: &mut [Replica],
        target: u64,
        mut fate: impl FnMut(&[Replica], ReplicaId, ReplicaId, &Message) -> Fate,
        mut step: impl FnMut(&mut Replica),
    ) {
        let n = replicas.len();
        let now = SimTime::ZERO;
        let mut inbox: VecDeque<(ReplicaId, ReplicaId, Message)> = VecDeque::new();
        for replica in replicas.iter_mut() {
            for outbound in replica.start(now) {
                enqueue(&mut inbox, replica.id(), outbound, n);
            }
        }
        let mut deferred: VecDeque<(ReplicaId, ReplicaId, Message)> = VecDeque::new();
        loop {
            let ready = deferred.iter().position(|(from, to, msg)| {
                matches!(fate(replicas, *from, *to, msg), Fate::Deliver)
            });
            let (from, to, msg) = if let Some(ready) = ready {
                deferred.remove(ready).expect("a position in range")
            } else if let Some((from, to, msg)) = inbox.pop_front() {
                if matches!(&msg, Message::Header { header, .. } if header.round.as_u64() >= target)
                {
                    continue;
                }
                match fate(replicas, from, to, &msg) {
                    Fate::Deliver => (from, to, msg),
                    Fate::Lose => continue,
                    Fate::Defer => {
                        deferred.push_back((from, to, msg));
                        continue;
                    }
                }
            } else if let Some(oldest) = deferred.pop_front() {
                oldest
            } else {
                return;
            };
            let replica = &mut replicas[to.as_inner() as usize];
            for outbound in replica.handle(from, msg, now) {
                enqueue(&mut inbox, replica.id(), outbound, n);
            }
            step(replica);
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
        let fate = |_: &[Replica], from, to, msg: &Message| {
            let lost = from == ReplicaId::new(0)
                && to == ReplicaId::new(3)
                && matches!(msg, Message::Header { header, .. } if header.round == Round::new(2));
            if lost {
                Fate::Lose
            } else {
                Fate::Deliver
            }
        };
        run_fifo_with(&mut replicas, 8, fate, |_| {});
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
        // The rounds every replica still holds.
        let horizon = replicas.iter().map(|r| r.dag().horizon()).max();
        let ids = |replica: &Replica| -> Vec<Digest> {
            let held = replica.dag().iter();
            let kept = held.filter(|vertex| Some(vertex.round()) >= horizon);
            kept.map(|vertex| vertex.id()).collect()
        };
        let reference = ids(&replicas[0]);
        assert_eq!(reference.len(), 4 * 8, "every round up to the target");
        for replica in &replicas {
            assert_eq!(replica.current_round(), Round::new(8));
            assert_eq!(ids(replica), reference, "replica {}", replica.id());
            assert_eq!(replica.dissemination().held.len(), 0);
            assert!(replica.dissemination().pending_vertices.is_empty());
            assert_eq!(replica.metrics().fetches_refused, 0);
            assert_eq!(replica.metrics().rejected_vertices, 0);
        }
    }

    /// Runs a 4-cluster through [`run_fifo_with`] to round `lag + 8` with
    /// replica 3 hearing nothing until the others reach round `lag`, and
    /// replica 0's round-1 header, which it must then fetch, lost on its way
    /// to replica 3. Returns the replicas.
    fn run_with_a_lagging_replica(lag: u64) -> Vec<Replica> {
        let mut replicas: Vec<Replica> = (0..4)
            .map(|i| Replica::new(ReplicaId::new(i), config(4)))
            .collect();
        let laggard = ReplicaId::new(3);
        run_fifo_with(
            &mut replicas,
            lag + 8,
            |replicas, from, to, msg| {
                let lagging = replicas[..3]
                    .iter()
                    .any(|r| r.current_round().as_u64() < lag);
                match msg {
                    Message::Header { header, .. }
                        if from == ReplicaId::new(0)
                            && to == laggard
                            && header.round == Round::new(1) =>
                    {
                        Fate::Lose
                    }
                    _ if to == laggard && from != laggard && lagging => Fate::Defer,
                    _ => Fate::Deliver,
                }
            },
            Replica::after_emission,
        );
        replicas
    }

    #[test]
    fn a_replica_lagging_up_to_four_rounds_past_the_depth_catches_up() {
        // The laggard must fetch a round-1 vertex from peers that have
        // moved `lag` rounds on. A peer's horizon trails its round by the
        // depth plus the rounds a commit trails the round, so up to
        // `COLLECTION_DEPTH + 4` rounds of lag the answer comes and the
        // laggard catches up; one round more and every peer has collected
        // round 1, refuses, and the laggard stalls behind the vertex.
        let caught_up = COLLECTION_DEPTH + 4;
        for lag in 1..=caught_up + 1 {
            let replicas = run_with_a_lagging_replica(lag);
            let (laggard, observer) = (&replicas[3], replicas[0].metrics());
            let metrics = laggard.metrics();
            let refused: u64 = replicas.iter().map(|r| r.metrics().fetches_refused).sum();
            assert_eq!(metrics.fetches_sent, 1, "lag {lag}");
            if lag > caught_up {
                assert_eq!(refused, 1, "lag {lag}");
                assert_eq!(laggard.current_round(), Round::new(2), "lag {lag}");
                assert!(metrics.round_commits.is_empty(), "lag {lag}");
                continue;
            }
            assert_eq!((refused, metrics.vertices_fetched), (0, 1), "lag {lag}");
            assert_eq!(laggard.current_round(), Round::new(lag + 8), "lag {lag}");
            assert_eq!(metrics.round_commits.len(), observer.round_commits.len());
            assert_eq!(metrics.commit_order_digest, observer.commit_order_digest);
            assert!(laggard.dissemination().held.is_empty(), "lag {lag}");
            assert!(
                laggard.dissemination().pending_vertices.is_empty(),
                "lag {lag}"
            );
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
        assert_eq!(replica.dissemination().held.len(), 1);
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
        assert!(responder.dissemination().retained.is_empty());
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
        swapped.kind = BlockKind::Skip;
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
    /// acknowledgement, and inside a certified vertex it is rejected. A
    /// header speaks for its author alone: the honest pair sent by another
    /// replica gets no acknowledgement either. Each refusal is counted.
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
        assert_eq!(replica.metrics().rejected_vertices, 2);
        assert!(replica.dag().is_empty());
        let out = replica.handle(
            ReplicaId::new(1),
            header_message(Arc::clone(&block)),
            SimTime::ZERO,
        );
        assert!(
            out.is_empty(),
            "acknowledged a header its author did not send"
        );
        assert_eq!(replica.metrics().rejected_vertices, 3);

        // The honest block under the same header is acknowledged.
        let out = replica.handle(ReplicaId::new(0), header_message(block), SimTime::ZERO);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].msg.kind(), "ack");
    }

    /// A block derives its transactions' shard sets from the shard count it
    /// ships, so one claiming another count than the committee's is neither
    /// acknowledged as a header nor admitted inside a vertex, and each
    /// refusal is counted.
    #[test]
    fn a_block_with_another_shard_count_is_refused_and_counted() {
        let mut proposer = Replica::new(ReplicaId::new(0), config(4));
        assert!(proposer.app_mut().queues_mut().enqueue(payment(2, 0, 2, 4)));
        let out = proposer.start(SimTime::ZERO);
        let Message::Header { header, block } = out[0].msg.clone() else {
            panic!("expected header");
        };
        assert_eq!(block.n_shards, 4);
        let mut recounted = Block::clone(&block);
        recounted.n_shards = 2;
        let recounted = Arc::new(recounted.seal());
        // Accounts 0 and 2 lie on two of four shards, but on one of two.
        assert_eq!(block.payload.cross_shard[0].shards.len(), 2);
        assert_eq!(recounted.payload.cross_shard[0].shards.len(), 1);
        let mut forged = header.clone();
        forged.block_digest = recounted.digest();

        let mut replica = Replica::new(ReplicaId::new(2), config(4));
        let out = replica.handle(
            ReplicaId::new(0),
            Message::Header {
                header: forged.clone(),
                block: Arc::clone(&recounted),
            },
            SimTime::ZERO,
        );
        assert!(
            out.is_empty(),
            "acknowledged a block of another shard count"
        );
        assert_eq!(replica.metrics().rejected_vertices, 1);
        let vertex = Vertex::new(forged.clone(), recounted, quorum_certificate(&forged));
        let out = replica.handle(
            ReplicaId::new(0),
            Message::Vertex(Box::new(vertex)),
            SimTime::ZERO,
        );
        assert!(out.is_empty());
        assert_eq!(replica.metrics().rejected_vertices, 2);
        assert!(replica.dag().is_empty());

        // The honest block is acknowledged.
        let out = replica.handle(
            ReplicaId::new(0),
            Message::Header { header, block },
            SimTime::ZERO,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].msg.kind(), "ack");
    }
}
