//! The Tusk commit rule (paper Section 2).
//!
//! Leaders are elected on odd rounds by round-robin. The leader vertex of
//! round `r` commits *directly* once the local DAG holds `2f + 1` vertices of
//! round `r + 1` and at least `f + 1` of them reference the leader. Leaders
//! that miss direct commitment can still be committed *indirectly*: when a
//! later leader commits, every undecided earlier leader found in its causal
//! history is committed first. Committing a leader delivers its whole
//! undelivered causal history in `(round, author)` order, so all honest
//! replicas deliver the same sequence.
//!
//! Nothing more than [`COLLECTION_DEPTH`] rounds below the last committed
//! leader is delivered any more ([`Committer::horizon`]), so a replica may
//! collect those rounds ([`DagStore::collect_below`]) whenever it likes
//! without changing what it delivers.

use crate::store::DagStore;
use std::collections::HashSet;
use std::sync::Arc;
use tb_types::{Committee, DagId, Digest, Round, Vertex};

/// How many rounds below the last committed leader a replica keeps: the
/// [horizon](Committer::horizon) is that leader's round minus this depth
/// (Narwhal's `gc_depth`). A vertex below it is never delivered, even if a
/// later leader reaches it, and a replica that lags so far behind its
/// peers that it must fetch a vertex they collected cannot catch up. In
/// the lagging-replica test of `tb-core`'s `dissemination.rs`, a replica
/// of a 4-cluster that must fetch a vertex `depth + 4` rounds behind its
/// peers' round catches up, and one a round further behind stalls.
///
/// Chosen as the smallest depth between 8 and Narwhal's 50 with which the
/// full and smoke chaos campaigns (`campaign_report`, quick and
/// `TB_BENCH_SMOKE=1`) and the reordered-delivery tests with a slow sender
/// (`tb-core`'s `dissemination.rs`) pass. They pass at 2 and 4 as well;
/// 8, the bottom of the range, gives a lagging replica the slack measured
/// above.
pub const COLLECTION_DEPTH: u64 = 8;

/// One committed leader together with the undelivered part of its causal
/// history (the leader itself is the last element). The vertices are the
/// store's own `Arc`s: delivering a sub-DAG copies no block.
#[derive(Clone, Debug)]
pub struct CommittedSubDag {
    /// The committed leader vertex.
    pub leader: Arc<Vertex>,
    /// The leader round that triggered the commit.
    pub leader_round: Round,
    /// Every newly delivered vertex, ordered by `(round, author)`.
    pub vertices: Vec<Arc<Vertex>>,
}

/// Tracks commit progress over one DAG instance.
#[derive(Clone, Debug)]
pub struct Committer {
    committee: Committee,
    dag: DagId,
    start_round: Round,
    next_leader_round: Round,
    last_committed_leader_round: Option<Round>,
    /// Closed under ancestry down to the horizon: a vertex enters only
    /// together with its whole undelivered history above it, which is what
    /// lets history walks stop here. Holds nothing the store does not: a
    /// collected vertex leaves ([`collected`](Self::collected)).
    delivered: HashSet<Digest>,
    /// References the history walks have followed so far, counted inside
    /// [`DagStore::causal_history`]. A walk enters only what it delivers, so
    /// this grows with the sub-DAGs delivered (a vertex and its parent
    /// references each), not with the depth of the DAG under them.
    walk_steps: u64,
}

impl Committer {
    /// Creates a committer for DAG `dag` starting at `start_round`.
    pub fn new(committee: Committee, dag: DagId, start_round: Round) -> Self {
        Committer {
            committee,
            dag,
            start_round,
            next_leader_round: committee.leader_round_for(start_round),
            last_committed_leader_round: None,
            delivered: HashSet::new(),
            walk_steps: 0,
        }
    }

    /// The collection horizon: the last committed leader's round minus
    /// [`COLLECTION_DEPTH`], and the start round before the first commit.
    /// The history walks enter nothing below it, so a store collected up to
    /// it delivers what the full store would.
    pub fn horizon(&self) -> Round {
        self.last_committed_leader_round
            .map_or(self.start_round, |leader| {
                Round::new(leader.as_u64().saturating_sub(COLLECTION_DEPTH))
            })
            .max(self.start_round)
    }

    /// Number of vertices delivered and still held by the store.
    pub fn delivered_len(&self) -> usize {
        self.delivered.len()
    }

    /// `vertices` left the store ([`DagStore::collect_below`]): the
    /// delivered set forgets them. Returns those it never delivered, which
    /// it never will.
    pub fn collected(&mut self, vertices: Vec<Arc<Vertex>>) -> Vec<Arc<Vertex>> {
        vertices
            .into_iter()
            .filter(|vertex| !self.delivered.remove(&vertex.id()))
            .collect()
    }

    /// Runs the commit rule against the current local DAG and returns every
    /// newly committed leader (in commit order) with its delivered history.
    pub fn try_commit(&mut self, store: &DagStore) -> Vec<CommittedSubDag> {
        let mut out = Vec::new();
        loop {
            let leader_round = self.next_leader_round;
            let support_round = leader_round.next();
            // The support round must hold a quorum before the leader can be
            // decided either way.
            if !store.round_has_quorum(support_round) {
                break;
            }
            let leader_author = self.committee.leader(self.dag, leader_round);
            let direct_leader = store
                .by_author_round(leader_author, leader_round)
                .filter(|v| {
                    store.support(&v.id(), support_round) >= self.committee.validity_threshold()
                })
                .cloned();

            if let Some(leader_vertex) = direct_leader {
                out.extend(self.commit_chain(store, leader_vertex, leader_round));
            }
            // Decided (committed or skipped): move to the next leader round.
            self.next_leader_round = Round::new(leader_round.as_u64() + 2);
        }
        out
    }

    /// Commits `leader_vertex` plus every undecided earlier leader found in
    /// its causal history, oldest first. Each one's history is walked down
    /// to the horizon the commit before it left.
    fn commit_chain(
        &mut self,
        store: &DagStore,
        leader_vertex: Arc<Vertex>,
        leader_round: Round,
    ) -> Vec<CommittedSubDag> {
        // Walk back through the leader rounds that were skipped since the
        // last committed leader and pick up those that are ancestors of the
        // commit chain (indirect commitment).
        let mut current = leader_vertex.id();
        let mut chain = vec![(leader_round, leader_vertex)];
        let first = self.committee.leader_round_for(store.start_round());
        let lower_bound = self
            .last_committed_leader_round
            .map_or(first.as_u64(), |r| r.as_u64() + 2);
        let mut plr = leader_round.as_u64();
        while plr >= 2 && plr - 2 >= lower_bound {
            plr -= 2;
            let round = Round::new(plr);
            let author = self.committee.leader(self.dag, round);
            if let Some(prev_leader) = store.by_author_round(author, round) {
                if store.is_ancestor(&prev_leader.id(), &current) {
                    current = prev_leader.id();
                    chain.push((round, Arc::clone(prev_leader)));
                }
            }
        }
        chain.reverse();

        chain
            .into_iter()
            .map(|(leader_round, leader)| {
                let floor = self.horizon();
                let vertices = store.causal_history(
                    &leader.id(),
                    &mut self.delivered,
                    floor,
                    &mut self.walk_steps,
                );
                self.last_committed_leader_round = Some(leader_round);
                CommittedSubDag {
                    leader,
                    leader_round,
                    vertices,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DagBuilder;
    use tb_types::{BlockKind, ReplicaId};

    fn committee() -> Committee {
        Committee::new(4)
    }

    fn full_dag(rounds: u64) -> DagStore {
        DagBuilder::new(committee(), DagId::new(0), Round::ZERO)
            .build_rounds(rounds, |_, _| BlockKind::Normal)
    }

    #[test]
    fn complete_dag_commits_every_leader_in_order() {
        let store = full_dag(8); // rounds 0..=7
        let mut committer = Committer::new(committee(), DagId::new(0), Round::ZERO);
        let committed = committer.try_commit(&store);
        // Leaders at rounds 1, 3, 5 commit (round 7 lacks a support round).
        let rounds: Vec<u64> = committed.iter().map(|c| c.leader_round.as_u64()).collect();
        assert_eq!(rounds, vec![1, 3, 5]);
        // Leader authors follow the round-robin schedule.
        let authors: Vec<u32> = committed
            .iter()
            .map(|c| c.leader.author().as_inner())
            .collect();
        assert_eq!(authors, vec![0, 1, 2]);
        // The causal history of the round-5 leader is delivered exactly once:
        // every vertex of rounds 0..=4 plus the leader itself (the three
        // other round-5 vertices are delivered by the next leader).
        let delivered: usize = committed.iter().map(|c| c.vertices.len()).sum();
        assert_eq!(delivered, 4 * 5 + 1);
        assert_eq!(committer.delivered.len(), 21);
        assert_eq!(committer.next_leader_round, Round::new(7));
        // Delivery shares the store's vertices (and so their blocks): no
        // copy is made on the way to the commit pipeline.
        for sub_dag in &committed {
            assert!(Arc::ptr_eq(
                &sub_dag.leader,
                store.get(&sub_dag.leader.id()).unwrap()
            ));
            for vertex in &sub_dag.vertices {
                let stored = store.get(&vertex.id()).unwrap();
                assert!(Arc::ptr_eq(vertex, stored));
                assert!(Arc::ptr_eq(&vertex.block, &stored.block));
            }
        }
    }

    #[test]
    fn commit_is_incremental_and_idempotent() {
        let store = full_dag(8);
        let mut committer = Committer::new(committee(), DagId::new(0), Round::ZERO);
        let first = committer.try_commit(&store);
        assert!(!first.is_empty());
        // Running again on the same store commits nothing new.
        assert!(committer.try_commit(&store).is_empty());
    }

    #[test]
    fn incremental_feeding_matches_one_shot_ordering() {
        // Build the full DAG once, and replay it round by round into a second
        // committer; the delivered sequences must be identical.
        let full = full_dag(10);
        let mut one_shot = Committer::new(committee(), DagId::new(0), Round::ZERO);
        let reference: Vec<Digest> = one_shot
            .try_commit(&full)
            .into_iter()
            .flat_map(|c| c.vertices.into_iter().map(|v| v.id()))
            .collect();

        let mut incremental_store = DagStore::new(committee(), DagId::new(0), Round::ZERO);
        let mut incremental = Committer::new(committee(), DagId::new(0), Round::ZERO);
        let mut sequence = Vec::new();
        for round in 0..10 {
            for vertex in full.at_round(Round::new(round)) {
                incremental_store.insert(Arc::clone(vertex)).unwrap();
            }
            for sub_dag in incremental.try_commit(&incremental_store) {
                sequence.extend(sub_dag.vertices.iter().map(|v| v.id()));
            }
        }
        assert_eq!(sequence, reference);
    }

    #[test]
    fn leader_without_enough_support_is_skipped_then_committed_indirectly() {
        // Replica 0 leads round 1. Build a DAG where round 2 exists but only
        // one vertex references the leader (< f + 1 = 2): the leader cannot
        // commit directly. The leader of round 3 commits and pulls the round-1
        // leader in indirectly through its causal history.
        let committee = committee();
        let mut builder = DagBuilder::new(committee, DagId::new(0), Round::ZERO);
        let mut store = DagStore::new(committee, DagId::new(0), Round::ZERO);

        // Round 0: everyone proposes.
        for author in committee.replicas() {
            let v = builder.make_vertex(
                author,
                Round::new(0),
                BlockKind::Normal,
                Default::default(),
                vec![],
            );
            store.insert(v).unwrap();
        }
        let r0_certs = store.certificates_at_round(Round::new(0));
        // Round 1: everyone proposes (including the leader, replica 0).
        for author in committee.replicas() {
            let v = builder.make_vertex(
                author,
                Round::new(1),
                BlockKind::Normal,
                Default::default(),
                r0_certs.clone(),
            );
            store.insert(v).unwrap();
        }
        let leader1 = store
            .by_author_round(ReplicaId::new(0), Round::new(1))
            .unwrap()
            .id();
        let r1_certs = store.certificates_at_round(Round::new(1));
        // Round 2: only replica 1's vertex references the leader; the others
        // reference the three non-leader vertices.
        let without_leader: Vec<Digest> =
            r1_certs.iter().copied().filter(|d| *d != leader1).collect();
        for author in committee.replicas() {
            let parents = if author == ReplicaId::new(1) {
                r1_certs.clone()
            } else {
                without_leader.clone()
            };
            let v = builder.make_vertex(
                author,
                Round::new(2),
                BlockKind::Normal,
                Default::default(),
                parents,
            );
            store.insert(v).unwrap();
        }
        let mut committer = Committer::new(committee, DagId::new(0), Round::ZERO);
        assert!(
            committer.try_commit(&store).is_empty(),
            "leader 1 lacks f+1 support and round 3 does not exist yet"
        );
        assert_eq!(committer.next_leader_round, Round::new(3));

        // Rounds 3 and 4: complete; the leader of round 3 (replica 1) commits
        // and, because replica 1's round-2 vertex references the round-1
        // leader, the round-1 leader is committed indirectly first.
        let store = builder
            .extend_rounds(store, 2, |_, _| true, |_, _| BlockKind::Normal)
            .unwrap();
        let committed = committer.try_commit(&store);
        let rounds: Vec<u64> = committed.iter().map(|c| c.leader_round.as_u64()).collect();
        assert_eq!(
            rounds,
            vec![1, 3],
            "round-1 leader commits indirectly first"
        );
        let total: usize = committed.iter().map(|c| c.vertices.len()).sum();
        assert_eq!(
            committer.delivered.len(),
            total,
            "no vertex is delivered twice"
        );
    }

    #[test]
    fn dags_starting_late_use_the_first_odd_round_as_leader_round() {
        let start = Round::new(6);
        let mut builder = DagBuilder::new(committee(), DagId::new(1), start);
        let store = builder.build_rounds(4, |_, _| BlockKind::Normal); // rounds 6..=9
        let mut committer = Committer::new(committee(), DagId::new(1), start);
        assert_eq!(committer.next_leader_round, Round::new(7));
        let committed = committer.try_commit(&store);
        assert_eq!(committed.len(), 1);
        assert_eq!(committed[0].leader_round, Round::new(7));
        // The leader schedule accounts for the DAG id, so DAG 1's round-7
        // leader differs from DAG 0's.
        assert_eq!(
            committed[0].leader.author(),
            committee().leader(DagId::new(1), Round::new(7))
        );
        // The leader's causal history — all of round 6 plus the leader — is
        // delivered.
        assert_eq!(committed[0].vertices.len(), 5);
        assert!(committed[0]
            .vertices
            .iter()
            .all(|v| v.block.tx_count() == 0));
    }

    #[test]
    fn silent_replica_does_not_block_commits() {
        // Replica 3 never proposes; the DAG still has 2f+1 = 3 vertices per
        // round, so leaders keep committing.
        let committee = committee();
        let mut builder = DagBuilder::new(committee, DagId::new(0), Round::ZERO);
        let store = builder
            .build_partial(
                6,
                |_, author| author != ReplicaId::new(3),
                |_, _| BlockKind::Normal,
            )
            .unwrap();
        let mut committer = Committer::new(committee, DagId::new(0), Round::ZERO);
        let committed = committer.try_commit(&store);
        let rounds: Vec<u64> = committed.iter().map(|c| c.leader_round.as_u64()).collect();
        assert_eq!(rounds, vec![1, 3]);
    }

    /// SplitMix64: a seeded stream without a dev-dependency.
    fn next_u64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// True once in `n` calls, on average.
    fn one_in(n: u64, state: &mut u64) -> bool {
        next_u64(state).is_multiple_of(n)
    }

    /// Everything reachable from `from`, by a walk that knows nothing about
    /// delivery.
    fn reachable(store: &DagStore, from: Digest) -> HashSet<Digest> {
        let mut seen = HashSet::from([from]);
        let mut queue = vec![from];
        while let Some(id) = queue.pop() {
            for parent in store.get(&id).unwrap().parents() {
                if store.contains(parent) && seen.insert(*parent) {
                    queue.push(*parent);
                }
            }
        }
        seen
    }

    /// The vertices of `round` in a DAG with holes over seven replicas: a
    /// replica may sit the round out, and a vertex references a random
    /// quorum of the previous round as `store` holds it, so leaders go
    /// missing, lack support, are skipped and are committed indirectly.
    fn random_round(
        builder: &mut DagBuilder,
        store: &DagStore,
        round: Round,
        rng: &mut u64,
    ) -> Vec<Vertex> {
        let committee = store.committee();
        let quorum = committee.quorum_threshold();
        let previous = if round == Round::ZERO {
            Vec::new()
        } else {
            store.certificates_at_round(round.prev())
        };
        let mut authors: Vec<ReplicaId> = committee.replicas().collect();
        while authors.len() > quorum && one_in(3, rng) {
            authors.swap_remove(next_u64(rng) as usize % authors.len());
        }
        // Every other support round shuns its leader: most vertices leave it
        // out, so it misses f + 1 support and can only be committed through
        // a later leader, if at all.
        let shunned = store
            .by_author_round(committee.leader(DagId::new(0), round.prev()), round.prev())
            .map(|v| v.id())
            .filter(|_| round.prev().is_leader_round() && one_in(2, rng));
        authors
            .into_iter()
            .map(|author| {
                let mut parents = previous.clone();
                if parents.len() > quorum && !one_in(4, rng) {
                    parents.retain(|p| Some(*p) != shunned);
                }
                while parents.len() > quorum && one_in(2, rng) {
                    parents.swap_remove(next_u64(rng) as usize % parents.len());
                }
                let kind = BlockKind::Normal;
                builder.make_vertex(author, round, kind, Default::default(), parents)
            })
            .collect()
    }

    #[test]
    fn pruned_delivery_matches_full_history_minus_delivered_on_random_dags() {
        let committee = Committee::new(7);
        let (mut indirect, mut skipped) = (0, 0);
        for seed in 0..20u64 {
            let mut rng = seed;
            let mut builder = DagBuilder::new(committee, DagId::new(0), Round::ZERO);
            let mut store = DagStore::new(committee, DagId::new(0), Round::ZERO);
            let mut committer = Committer::new(committee, DagId::new(0), Round::ZERO);
            let mut delivered: HashSet<Digest> = HashSet::new();
            for round in 0..40 {
                let round = Round::new(round);
                for vertex in random_round(&mut builder, &store, round, &mut rng) {
                    store.insert(vertex).unwrap();
                }

                let committed = committer.try_commit(&store);
                indirect += committed.len().saturating_sub(1);
                for sub_dag in committed {
                    let mut expected: Vec<&Arc<Vertex>> = reachable(&store, sub_dag.leader.id())
                        .difference(&delivered)
                        .map(|id| store.get(id).unwrap())
                        .collect();
                    expected.sort_unstable_by_key(|v| (v.round(), v.author()));
                    let expected: Vec<Digest> = expected.iter().map(|v| v.id()).collect();
                    let got: Vec<Digest> = sub_dag.vertices.iter().map(|v| v.id()).collect();
                    assert_eq!(
                        got, expected,
                        "seed {seed}, leader {}",
                        sub_dag.leader_round
                    );
                    assert_eq!(got.last(), Some(&sub_dag.leader.id()));
                    delivered.extend(got);
                }
                assert_eq!(committer.delivered.len(), delivered.len());
            }
            // The full history is the empty-set case of the same walk.
            let tip = store.at_round(Round::new(39))[0].id();
            let full: HashSet<Digest> = store
                .causal_history(&tip, &mut HashSet::new(), Round::ZERO, &mut 0)
                .iter()
                .map(|v| v.id())
                .collect();
            assert_eq!(full, reachable(&store, tip));
            let decided = (committer.next_leader_round.as_u64() - 1) / 2;
            let leaders = (0..decided)
                .map(|i| Round::new(2 * i + 1))
                .filter(|r| {
                    store
                        .by_author_round(committee.leader(DagId::new(0), *r), *r)
                        .is_some_and(|v| committer.delivered.contains(&v.id()))
                })
                .count() as u64;
            skipped += decided - leaders;
        }
        assert!(indirect > 0, "no seed produced an indirect commit");
        assert!(skipped > 0, "no seed skipped a leader for good");
    }

    #[test]
    fn a_store_collected_to_the_horizon_delivers_what_the_full_store_delivers() {
        let committee = Committee::new(7);
        let dag = DagId::new(0);
        let leaders = |sub_dags: Vec<CommittedSubDag>| -> Vec<(Round, Vec<Digest>)> {
            let ids = |s: &CommittedSubDag| s.vertices.iter().map(|v| v.id()).collect();
            sub_dags.iter().map(|s| (s.leader_round, ids(s))).collect()
        };
        let (mut collected_delivered, mut collected_undelivered) = (0, 0);
        for seed in 0..20u64 {
            let mut rng = seed;
            let mut builder = DagBuilder::new(committee, dag, Round::ZERO);
            let mut full = DagStore::new(committee, dag, Round::ZERO);
            let mut collected = DagStore::new(committee, dag, Round::ZERO);
            let mut over_full = Committer::new(committee, dag, Round::ZERO);
            let mut over_collected = Committer::new(committee, dag, Round::ZERO);
            for round in 0..80 {
                for vertex in random_round(&mut builder, &full, Round::new(round), &mut rng) {
                    let vertex = Arc::new(vertex);
                    full.insert(Arc::clone(&vertex)).unwrap();
                    collected.insert(vertex).unwrap();
                }
                assert_eq!(
                    leaders(over_collected.try_commit(&collected)),
                    leaders(over_full.try_commit(&full)),
                    "seed {seed}, round {round}"
                );
                let horizon = over_collected.horizon();
                let gone = collected.collect_below(horizon);
                assert!(gone.iter().all(|v| v.round() < horizon));
                let total = gone.len();
                let undelivered = over_collected.collected(gone).len();
                collected_delivered += total - undelivered;
                collected_undelivered += undelivered;
                assert_eq!(collected.horizon(), horizon);
                assert!(over_collected.delivered.len() <= collected.len());
            }
            assert!(collected.len() < full.len() / 2, "seed {seed}");
        }
        assert!(collected_delivered > 0);
        // A vertex no later vertex references is never delivered: this is
        // where collection lets it go.
        assert!(collected_undelivered > 0);
    }

    #[test]
    fn history_walks_cost_what_they_deliver_however_deep_the_dag() {
        let mut builder = DagBuilder::new(committee(), DagId::new(0), Round::ZERO);
        let mut store = DagStore::new(committee(), DagId::new(0), Round::ZERO);
        let mut committer = Committer::new(committee(), DagId::new(0), Round::ZERO);
        let mut delivered = 0;
        for _ in 0..4_000 {
            store = builder
                .extend_rounds(store, 1, |_, _| true, |_, _| BlockKind::Normal)
                .unwrap();
            for sub_dag in committer.try_commit(&store) {
                delivered += sub_dag.vertices.len() as u64;
            }
        }
        // Leaders up to round 3 997 committed: every vertex below that round
        // plus the last leader itself.
        assert_eq!(delivered, 4 * 3_997 + 1);
        // Each delivered vertex is entered once and its n parent references
        // are looked at once. Walking every leader's history to round 0 and
        // filtering afterwards takes some 64 000 000 steps here.
        let n = u64::from(committee().size());
        assert!(
            committer.walk_steps <= (n + 1) * delivered,
            "{} walk steps to deliver {delivered} vertices",
            committer.walk_steps
        );
    }
}
