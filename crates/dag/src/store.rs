//! Local storage of one DAG instance.
//!
//! Vertices are held as `Arc<Vertex>`: lookups hand out references to the
//! shared vertex, and the committer delivers clones of the `Arc`, never of
//! the block it carries.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use tb_types::{Committee, DagId, Digest, ReplicaId, Round, Vertex};

/// Errors raised when inserting vertices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DagError {
    /// The vertex belongs to a different DAG instance.
    WrongDag {
        /// DAG id the store manages.
        expected: DagId,
        /// DAG id carried by the vertex.
        got: DagId,
    },
    /// The vertex's round precedes the DAG's start round.
    BeforeStart {
        /// First round of this DAG.
        start: Round,
        /// Round carried by the vertex.
        got: Round,
    },
    /// The vertex's round lies below the store's collection horizon
    /// ([`DagStore::collect_below`]): its round was collected, and with it
    /// whatever the vertex could still have been delivered with.
    BelowHorizon {
        /// The lowest round the store still holds.
        horizon: Round,
        /// Round carried by the vertex.
        got: Round,
    },
    /// A parent certificate is unknown; the caller must fetch and insert the
    /// causal history first (the validity property of Section 2).
    MissingParent {
        /// The missing parent digest.
        parent: Digest,
    },
    /// A parent reference does not point back in time: it names a vertex of
    /// the same or a later round, or the vertex sits in the DAG's first
    /// round, which has nothing before it.
    ParentNotEarlier {
        /// The offending parent digest.
        parent: Digest,
        /// Round carried by the vertex.
        round: Round,
    },
    /// The author already has a vertex in this round (equivocation or a
    /// duplicate delivery); the insert is rejected.
    DuplicateAuthor {
        /// The authoring replica.
        author: ReplicaId,
        /// The round in question.
        round: Round,
    },
    /// The vertex certificate does not carry a valid quorum.
    InvalidCertificate,
}

impl std::fmt::Display for DagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DagError::WrongDag { expected, got } => {
                write!(f, "vertex belongs to {got}, store manages {expected}")
            }
            DagError::BeforeStart { start, got } => {
                write!(f, "vertex round {got} precedes DAG start {start}")
            }
            DagError::BelowHorizon { horizon, got } => {
                write!(f, "vertex round {got} lies below the collected {horizon}")
            }
            DagError::MissingParent { parent } => {
                write!(f, "missing parent certificate {}", parent.short())
            }
            DagError::ParentNotEarlier { parent, round } => {
                write!(
                    f,
                    "parent {} of a {round} vertex is not older",
                    parent.short()
                )
            }
            DagError::DuplicateAuthor { author, round } => {
                write!(f, "{author} already proposed in {round}")
            }
            DagError::InvalidCertificate => write!(f, "certificate lacks a quorum"),
        }
    }
}

impl std::error::Error for DagError {}

/// The local view of one DAG instance.
#[derive(Clone, Debug)]
pub struct DagStore {
    committee: Committee,
    dag: DagId,
    start_round: Round,
    vertices: HashMap<Digest, Arc<Vertex>>,
    /// Per round, the vertex of each author — ordered by author, so every
    /// `(round, author)`-ordered read is a plain walk of the slot.
    by_round: BTreeMap<Round, BTreeMap<ReplicaId, Digest>>,
    /// The lowest round the store holds: every round below it was
    /// collected ([`collect_below`](Self::collect_below)). The start round
    /// until the first collection.
    horizon: Round,
    /// Per author, the highest round of a vertex of theirs that was
    /// collected.
    last_collected: BTreeMap<ReplicaId, Round>,
}

impl DagStore {
    /// Creates an empty store for DAG `dag` starting at `start_round`.
    pub fn new(committee: Committee, dag: DagId, start_round: Round) -> Self {
        DagStore {
            committee,
            dag,
            start_round,
            vertices: HashMap::new(),
            by_round: BTreeMap::new(),
            horizon: start_round,
            last_collected: BTreeMap::new(),
        }
    }

    /// The committee this DAG runs over.
    pub fn committee(&self) -> Committee {
        self.committee
    }

    /// The DAG instance id.
    pub fn dag_id(&self) -> DagId {
        self.dag
    }

    /// The first round of this DAG instance.
    pub fn start_round(&self) -> Round {
        self.start_round
    }

    /// The lowest round the store holds; everything below it was collected.
    pub fn horizon(&self) -> Round {
        self.horizon
    }

    /// Number of vertices stored.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// True if the store holds no vertices.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Inserts a certified vertex after validating it against the local view.
    /// Takes an owned [`Vertex`] or an already shared `Arc<Vertex>`.
    ///
    /// A vertex below the [horizon](Self::horizon) is refused. One at the
    /// horizon may name parents the store no longer holds: they lie below
    /// it, so they were delivered or abandoned before they were collected
    /// (Narwhal's rule). Above the horizon every parent must be held.
    pub fn insert(&mut self, vertex: impl Into<Arc<Vertex>>) -> Result<Digest, DagError> {
        let vertex: Arc<Vertex> = vertex.into();
        if vertex.dag() != self.dag {
            return Err(DagError::WrongDag {
                expected: self.dag,
                got: vertex.dag(),
            });
        }
        if vertex.round() < self.start_round {
            return Err(DagError::BeforeStart {
                start: self.start_round,
                got: vertex.round(),
            });
        }
        if vertex.round() < self.horizon {
            return Err(DagError::BelowHorizon {
                horizon: self.horizon,
                got: vertex.round(),
            });
        }
        if !vertex.certificate.is_valid(&self.committee) {
            return Err(DagError::InvalidCertificate);
        }
        // Every parent must be a certificate we already hold (validity
        // property) of an earlier round — what lets `is_ancestor` stop at the
        // ancestor's round — unless it lies below the horizon. The first
        // round of a DAG has nothing before it, so its vertices carry no
        // parents at all.
        let after_start = vertex.round() > self.start_round;
        for parent in vertex.parents() {
            match self.vertices.get(parent) {
                Some(p) if p.round() < vertex.round() => {}
                None if after_start && vertex.round() == self.horizon => {}
                None if after_start => {
                    return Err(DagError::MissingParent { parent: *parent });
                }
                _ => {
                    return Err(DagError::ParentNotEarlier {
                        parent: *parent,
                        round: vertex.round(),
                    });
                }
            }
        }
        let id = vertex.id();
        if self.vertices.contains_key(&id) {
            return Ok(id); // idempotent re-insert
        }
        let slot = self.by_round.entry(vertex.round()).or_default();
        if slot.contains_key(&vertex.author()) {
            return Err(DagError::DuplicateAuthor {
                author: vertex.author(),
                round: vertex.round(),
            });
        }
        slot.insert(vertex.author(), id);
        self.vertices.insert(id, vertex);
        Ok(id)
    }

    /// Removes every round below `horizon` and returns its vertices in
    /// `(round, author)` order; from now on [`insert`](Self::insert) refuses
    /// them. A horizon at or below the current one collects nothing.
    pub fn collect_below(&mut self, horizon: Round) -> Vec<Arc<Vertex>> {
        if horizon <= self.horizon {
            return Vec::new();
        }
        self.horizon = horizon;
        let kept = self.by_round.split_off(&horizon);
        let mut collected = Vec::new();
        for (round, slot) in std::mem::replace(&mut self.by_round, kept) {
            for (author, id) in slot {
                self.last_collected.insert(author, round);
                collected.push(
                    self.vertices
                        .remove(&id)
                        .expect("a slot names a stored vertex"),
                );
            }
        }
        collected
    }

    /// The highest round of a vertex by `author` that was collected: the
    /// record a collected round leaves of who proposed in it.
    pub fn last_collected(&self, author: ReplicaId) -> Option<Round> {
        self.last_collected.get(&author).copied()
    }

    /// Looks a vertex up by digest.
    pub fn get(&self, id: &Digest) -> Option<&Arc<Vertex>> {
        self.vertices.get(id)
    }

    /// True if the vertex is present.
    pub fn contains(&self, id: &Digest) -> bool {
        self.vertices.contains_key(id)
    }

    /// The vertex proposed by `author` in `round`, if any.
    pub fn by_author_round(&self, author: ReplicaId, round: Round) -> Option<&Arc<Vertex>> {
        self.by_round
            .get(&round)
            .and_then(|slot| slot.get(&author))
            .and_then(|id| self.vertices.get(id))
    }

    /// All vertices of a round, ordered by author.
    pub fn at_round(&self, round: Round) -> Vec<&Arc<Vertex>> {
        self.slot(round).map(|id| &self.vertices[id]).collect()
    }

    /// Digests of all vertices of a round (the certificates a proposer of the
    /// next round references as parents), ordered by author.
    pub fn certificates_at_round(&self, round: Round) -> Vec<Digest> {
        self.slot(round).copied().collect()
    }

    /// The vertex ids of a round in author order.
    fn slot(&self, round: Round) -> impl Iterator<Item = &Digest> {
        self.by_round
            .get(&round)
            .into_iter()
            .flat_map(|s| s.values())
    }

    /// Number of distinct authors with a vertex in `round`.
    pub fn authors_at_round(&self, round: Round) -> usize {
        self.by_round.get(&round).map_or(0, |slot| slot.len())
    }

    /// True when the round holds a `2f + 1` quorum of vertices, i.e. a
    /// proposer may advance to the next round.
    pub fn round_has_quorum(&self, round: Round) -> bool {
        self.authors_at_round(round) >= self.committee.quorum_threshold()
    }

    /// The highest round with at least one vertex.
    pub fn highest_round(&self) -> Round {
        self.by_round
            .keys()
            .next_back()
            .copied()
            .unwrap_or(self.start_round)
    }

    /// Number of vertices in `round` that reference `target` as a parent
    /// (the "support" used by the commit rule).
    pub fn support(&self, target: &Digest, round: Round) -> usize {
        self.slot(round)
            .filter(|id| self.vertices[*id].parents().contains(target))
            .count()
    }

    /// The part of `from`'s causal history (`from` included) at or above
    /// round `floor` that `delivered` does not hold yet, sorted by `(round,
    /// author)` — the deterministic delivery order used at commit time.
    /// Every returned vertex is added to `delivered`.
    ///
    /// The walk never enters a vertex that is already in `delivered`, so it
    /// expands exactly the vertices it returns. Nothing is missed as long as
    /// `delivered` is closed under ancestry — it holds the stored history of
    /// every vertex it holds, down to the floor — which this call preserves;
    /// see the [crate docs](crate). Nor does it enter a vertex below `floor`,
    /// so whether the store still holds such a vertex does not change what
    /// is returned. With an empty set and the start round as the floor the
    /// result is the full history.
    ///
    /// `steps` is advanced once per reference the walk follows (`from`
    /// counts as one): the cost of the call, whatever it returns.
    pub fn causal_history(
        &self,
        from: &Digest,
        delivered: &mut HashSet<Digest>,
        floor: Round,
        steps: &mut u64,
    ) -> Vec<Arc<Vertex>> {
        let mut history = Vec::new();
        let mut stack = vec![*from];
        while let Some(id) = stack.pop() {
            *steps += 1;
            if delivered.contains(&id) {
                continue;
            }
            let Some(vertex) = self.vertices.get(&id).filter(|v| v.round() >= floor) else {
                continue;
            };
            delivered.insert(id);
            stack.extend(vertex.parents());
            history.push(Arc::clone(vertex));
        }
        history.sort_unstable_by_key(|v| (v.round(), v.author()));
        history
    }

    /// True if `ancestor` lies in the causal history of `descendant`.
    pub fn is_ancestor(&self, ancestor: &Digest, descendant: &Digest) -> bool {
        let Some(floor) = self.vertices.get(ancestor).map(|v| v.round()) else {
            return false;
        };
        if ancestor == descendant {
            return true;
        }
        let mut seen: HashSet<Digest> = HashSet::new();
        let mut stack = vec![*descendant];
        while let Some(current) = stack.pop() {
            // A vertex references certificates of earlier rounds only
            // (`insert` refuses anything else), so nothing at or below the
            // ancestor's round can lead to it.
            let Some(vertex) = self.vertices.get(&current).filter(|v| v.round() > floor) else {
                continue;
            };
            for parent in vertex.parents() {
                if parent == ancestor {
                    return true;
                }
                if seen.insert(*parent) {
                    stack.push(*parent);
                }
            }
        }
        false
    }

    /// Iterates over all vertices in `(round, author)` order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<Vertex>> {
        self.by_round
            .values()
            .flat_map(|slot| slot.values())
            .map(|id| &self.vertices[id])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DagBuilder;
    use tb_types::{BlockKind, Committee};

    fn committee() -> Committee {
        Committee::new(4)
    }

    #[test]
    fn insert_and_lookup_round_trip() {
        let mut builder = DagBuilder::new(committee(), DagId::new(0), Round::ZERO);
        let store = builder.build_rounds(3, |_, _| BlockKind::Normal);
        assert_eq!(store.len(), 12);
        assert!(!store.is_empty());
        assert_eq!(store.authors_at_round(Round::new(0)), 4);
        assert!(store.round_has_quorum(Round::new(2)));
        assert_eq!(store.highest_round(), Round::new(2));
        let v = store
            .by_author_round(ReplicaId::new(2), Round::new(1))
            .unwrap();
        assert_eq!(v.author(), ReplicaId::new(2));
        assert!(store.contains(&v.id()));
        assert_eq!(store.get(&v.id()).unwrap().round(), Round::new(1));
    }

    #[test]
    fn insert_rejects_wrong_dag_and_missing_parents() {
        let mut builder = DagBuilder::new(committee(), DagId::new(0), Round::ZERO);
        let store = builder.build_rounds(2, |_, _| BlockKind::Normal);
        let some_vertex = store.at_round(Round::new(1))[0].clone();

        let mut other = DagStore::new(committee(), DagId::new(1), Round::ZERO);
        assert!(matches!(
            other.insert(some_vertex.clone()),
            Err(DagError::WrongDag { .. })
        ));

        let mut fresh = DagStore::new(committee(), DagId::new(0), Round::ZERO);
        assert!(matches!(
            fresh.insert(some_vertex),
            Err(DagError::MissingParent { .. })
        ));
    }

    #[test]
    fn insert_rejects_parents_that_are_not_older_than_the_vertex() {
        // Replica 3 sits round 1 out, then proposes its round-1 vertex late,
        // referencing what the others have built on top in the meantime.
        let late = ReplicaId::new(3);
        let mut builder = DagBuilder::new(committee(), DagId::new(0), Round::ZERO);
        let mut store = builder
            .build_partial(
                3,
                |round, author| round != Round::new(1) || author != late,
                |_, _| BlockKind::Normal,
            )
            .unwrap();
        let older = store.certificates_at_round(Round::new(0));
        let mut propose = |extra_parent: Option<Digest>| {
            let parents = older.iter().copied().chain(extra_parent).collect();
            let kind = BlockKind::Normal;
            builder.make_vertex(late, Round::new(1), kind, Default::default(), parents)
        };
        for parent_round in [1, 2] {
            let parent = store.certificates_at_round(Round::new(parent_round))[0];
            assert_eq!(
                store.insert(propose(Some(parent))),
                Err(DagError::ParentNotEarlier {
                    parent,
                    round: Round::new(1)
                })
            );
        }
        assert_eq!(store.len(), 11);
        store.insert(propose(None)).unwrap();

        // The first round has nothing before it: whatever a vertex there
        // names as a parent, stored or not, is refused.
        let parents = vec![store.certificates_at_round(Round::new(2))[0]];
        let kind = BlockKind::Normal;
        let first = builder.make_vertex(late, Round::ZERO, kind, Default::default(), parents);
        let mut fresh = DagStore::new(committee(), DagId::new(0), Round::ZERO);
        assert!(matches!(
            fresh.insert(first),
            Err(DagError::ParentNotEarlier { .. })
        ));
    }

    #[test]
    fn insert_rejects_duplicate_authors_but_is_idempotent_per_vertex() {
        let mut builder = DagBuilder::new(committee(), DagId::new(0), Round::ZERO);
        let store = builder.build_rounds(1, |_, _| BlockKind::Normal);
        let vertex = store.at_round(Round::new(0))[0].clone();
        let mut copy = DagStore::new(committee(), DagId::new(0), Round::ZERO);
        copy.insert(vertex.clone()).unwrap();
        // Same vertex again: fine.
        copy.insert(vertex.clone()).unwrap();
        // A different vertex by the same author in the same round: rejected.
        let mut block = tb_types::Block::clone(&vertex.block);
        block.kind = BlockKind::Skip;
        let block = block.seal();
        let header = tb_types::Header::new(
            vertex.header.dag,
            vertex.header.round,
            vertex.header.author,
            block.digest(),
            vec![],
            vertex.header.created_at,
        );
        let cert = tb_types::Certificate::for_header(
            &header,
            vec![ReplicaId::new(0), ReplicaId::new(1), ReplicaId::new(2)],
        );
        let dup = Vertex::new(header, block, cert);
        assert!(matches!(
            copy.insert(dup),
            Err(DagError::DuplicateAuthor { .. })
        ));
    }

    #[test]
    fn support_counts_children_referencing_the_target() {
        let mut builder = DagBuilder::new(committee(), DagId::new(0), Round::ZERO);
        let store = builder.build_rounds(2, |_, _| BlockKind::Normal);
        let target = store
            .by_author_round(ReplicaId::new(0), Round::new(0))
            .unwrap()
            .id();
        // The builder links every vertex to every certificate of the previous
        // round, so support equals the number of round-1 vertices.
        assert_eq!(store.support(&target, Round::new(1)), 4);
        assert_eq!(store.support(&target, Round::new(5)), 0);
    }

    #[test]
    fn causal_history_is_complete_and_deterministically_ordered() {
        let mut builder = DagBuilder::new(committee(), DagId::new(0), Round::ZERO);
        let store = builder.build_rounds(3, |_, _| BlockKind::Normal);
        let tip = store
            .by_author_round(ReplicaId::new(1), Round::new(2))
            .unwrap()
            .id();
        let mut delivered = HashSet::new();
        let history = store.causal_history(&tip, &mut delivered, Round::ZERO, &mut 0);
        // Full DAG up to round 1 plus the tip itself.
        assert_eq!(history.len(), 9);
        assert_eq!(delivered.len(), 9);
        let order: Vec<(Round, ReplicaId)> =
            history.iter().map(|v| (v.round(), v.author())).collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted, "history must be ordered by (round, author)");
        // What is delivered is not entered again: a sibling of the tip adds
        // only itself.
        let sibling = store
            .by_author_round(ReplicaId::new(2), Round::new(2))
            .unwrap();
        let rest = store.causal_history(&sibling.id(), &mut delivered, Round::ZERO, &mut 0);
        assert_eq!(rest.len(), 1);
        assert!(Arc::ptr_eq(&rest[0], sibling));
        assert!(store
            .causal_history(&tip, &mut delivered, Round::ZERO, &mut 0)
            .is_empty());
        // Ancestor checks agree with the history.
        let ancestor = store
            .by_author_round(ReplicaId::new(3), Round::new(0))
            .unwrap()
            .id();
        assert!(store.is_ancestor(&ancestor, &tip));
        assert!(!store.is_ancestor(&tip, &ancestor));
        assert!(store.is_ancestor(&tip, &tip));
        // Same round, different author: a miss that stops at the ancestor's
        // round rather than walking to round 0.
        assert!(!store.is_ancestor(&sibling.id(), &tip));
        assert!(!store.is_ancestor(&Digest::ZERO, &tip));
    }

    #[test]
    fn insert_refuses_collected_rounds_and_takes_the_horizon_without_its_parents() {
        let mut builder = DagBuilder::new(committee(), DagId::new(0), Round::ZERO);
        let full = builder.build_rounds(4, |_, _| BlockKind::Normal);
        let round = |r: u64| full.at_round(Round::new(r));
        let mut store = DagStore::new(committee(), DagId::new(0), Round::ZERO);
        for vertex in round(0).into_iter().chain(round(1)) {
            store.insert(Arc::clone(vertex)).unwrap();
        }

        let gone = store.collect_below(Round::new(2));
        let order: Vec<(u64, u32)> = gone
            .iter()
            .map(|v| (v.round().as_u64(), v.author().as_inner()))
            .collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!((order.len(), order), (8, sorted));
        assert!(store.is_empty());
        assert_eq!(store.horizon(), Round::new(2));
        assert_eq!(store.last_collected(ReplicaId::new(3)), Some(Round::new(1)));
        assert!(store.collect_below(Round::new(1)).is_empty());
        assert_eq!(store.horizon(), Round::new(2));

        // Below the horizon: refused, however complete.
        assert_eq!(
            store.insert(Arc::clone(round(1)[0])),
            Err(DagError::BelowHorizon {
                horizon: Round::new(2),
                got: Round::new(1)
            })
        );
        // At the horizon: its parents were collected, and it is taken.
        store.insert(Arc::clone(round(2)[0])).unwrap();
        // Above it every parent must be held.
        assert!(matches!(
            store.insert(Arc::clone(round(3)[0])),
            Err(DagError::MissingParent { .. })
        ));
        for vertex in &round(2)[1..] {
            store.insert(Arc::clone(vertex)).unwrap();
        }
        store.insert(Arc::clone(round(3)[0])).unwrap();
        assert_eq!(store.len(), 5);
    }

    #[test]
    fn invalid_certificates_are_rejected() {
        let mut builder = DagBuilder::new(committee(), DagId::new(0), Round::ZERO);
        let store = builder.build_rounds(1, |_, _| BlockKind::Normal);
        let mut vertex = Vertex::clone(store.at_round(Round::new(0))[0]);
        vertex.certificate.signers.truncate(1);
        let mut fresh = DagStore::new(committee(), DagId::new(0), Round::ZERO);
        assert_eq!(fresh.insert(vertex), Err(DagError::InvalidCertificate));
    }

    #[test]
    fn iteration_is_round_then_author_ordered() {
        let mut builder = DagBuilder::new(committee(), DagId::new(0), Round::ZERO);
        let store = builder.build_rounds(2, |_, _| BlockKind::Normal);
        let order: Vec<(u64, u32)> = store
            .iter()
            .map(|v| (v.round().as_u64(), v.author().as_inner()))
            .collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted);
        assert_eq!(order.len(), 8);
    }
}
