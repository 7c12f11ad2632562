//! Local storage of one DAG instance.
//!
//! Vertices are held as `Arc<Vertex>`: lookups hand out references to the
//! shared vertex, and the committer delivers clones of the `Arc`, never of
//! the block it carries.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
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
    /// A parent certificate is unknown; the caller must fetch and insert the
    /// causal history first (the validity property of Section 2).
    MissingParent {
        /// The missing parent digest.
        parent: Digest,
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
            DagError::MissingParent { parent } => {
                write!(f, "missing parent certificate {}", parent.short())
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
    by_round: BTreeMap<Round, HashMap<ReplicaId, Digest>>,
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
        if !vertex.certificate.is_valid(&self.committee) {
            return Err(DagError::InvalidCertificate);
        }
        // Vertices in the first round of a DAG have no parents; all others
        // must reference certificates we already hold (validity property).
        if vertex.round() > self.start_round {
            for parent in vertex.parents() {
                if !self.vertices.contains_key(parent) {
                    return Err(DagError::MissingParent { parent: *parent });
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
        let Some(slot) = self.by_round.get(&round) else {
            return Vec::new();
        };
        let mut authors: Vec<_> = slot.keys().copied().collect();
        authors.sort_unstable();
        authors
            .into_iter()
            .filter_map(|a| self.vertices.get(&slot[&a]))
            .collect()
    }

    /// Digests of all vertices of a round (the certificates a proposer of the
    /// next round references as parents), ordered by author.
    pub fn certificates_at_round(&self, round: Round) -> Vec<Digest> {
        self.at_round(round).iter().map(|v| v.id()).collect()
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
        self.at_round(round)
            .iter()
            .filter(|v| v.parents().contains(target))
            .count()
    }

    /// Every vertex reachable from `from` through parent references,
    /// including `from` itself. The result is sorted by `(round, author)`,
    /// which is the deterministic delivery order used at commit time.
    pub fn causal_history(&self, from: &Digest) -> Vec<Digest> {
        let mut seen: HashSet<Digest> = HashSet::new();
        let mut queue = VecDeque::new();
        if self.vertices.contains_key(from) {
            queue.push_back(*from);
            seen.insert(*from);
        }
        while let Some(current) = queue.pop_front() {
            let vertex = &self.vertices[&current];
            for parent in vertex.parents() {
                if self.vertices.contains_key(parent) && seen.insert(*parent) {
                    queue.push_back(*parent);
                }
            }
        }
        let mut result: Vec<Digest> = seen.into_iter().collect();
        result.sort_by_key(|d| {
            let v = &self.vertices[d];
            (v.round(), v.author())
        });
        result
    }

    /// True if `ancestor` lies in the causal history of `descendant`.
    pub fn is_ancestor(&self, ancestor: &Digest, descendant: &Digest) -> bool {
        if ancestor == descendant {
            return self.vertices.contains_key(ancestor);
        }
        let mut seen: HashSet<Digest> = HashSet::new();
        let mut queue = VecDeque::from([*descendant]);
        while let Some(current) = queue.pop_front() {
            let Some(vertex) = self.vertices.get(&current) else {
                continue;
            };
            for parent in vertex.parents() {
                if parent == ancestor {
                    return true;
                }
                if seen.insert(*parent) {
                    queue.push_back(*parent);
                }
            }
        }
        false
    }

    /// Iterates over all vertices in `(round, author)` order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<Vertex>> {
        self.by_round.values().flat_map(move |slot| {
            let mut authors: Vec<_> = slot.keys().copied().collect();
            authors.sort_unstable();
            authors.into_iter().map(move |a| &self.vertices[&slot[&a]])
        })
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
        block.seq = tb_types::SeqNo::new(99);
        let header = tb_types::Header::new(
            vertex.header.dag,
            vertex.header.round,
            vertex.header.author,
            tb_types::Hashable::digest(&block),
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
        let history = store.causal_history(&tip);
        // Full DAG up to round 1 plus the tip itself.
        assert_eq!(history.len(), 9);
        let rounds: Vec<u64> = history
            .iter()
            .map(|d| store.get(d).unwrap().round().as_u64())
            .collect();
        let mut sorted = rounds.clone();
        sorted.sort_unstable();
        assert_eq!(rounds, sorted, "history must be ordered by round");
        // Ancestor checks agree with the history.
        let ancestor = store
            .by_author_round(ReplicaId::new(3), Round::new(0))
            .unwrap()
            .id();
        assert!(store.is_ancestor(&ancestor, &tip));
        assert!(!store.is_ancestor(&tip, &ancestor));
        assert!(store.is_ancestor(&tip, &tip));
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
