//! Construction helpers for DAGs.
//!
//! [`DagBuilder`] produces fully-certified DAGs round by round. It serves two
//! purposes: the protocol tests and property tests of the commit rule build
//! synthetic DAGs with it (complete DAGs, DAGs with silent replicas, DAGs
//! with Shift blocks), and the `thunderbolt` replica uses the same primitive
//! (`make_vertex`) to certify the vertices it assembles from network traffic.

use crate::store::{DagError, DagStore};
use tb_types::{
    Block, BlockKind, BlockPayload, Certificate, Committee, DagId, Digest, Header, ReplicaId,
    Round, SeqNo, ShardAssignment, SimTime, Vertex,
};

/// Builds certified vertices and whole synthetic DAGs.
#[derive(Clone, Debug)]
pub struct DagBuilder {
    committee: Committee,
    dag: DagId,
    start_round: Round,
    seq: u64,
}

impl DagBuilder {
    /// Creates a builder for DAG `dag` starting at `start_round`.
    pub fn new(committee: Committee, dag: DagId, start_round: Round) -> Self {
        DagBuilder {
            committee,
            dag,
            start_round,
            seq: 0,
        }
    }

    /// The committee the builder signs certificates with.
    pub fn committee(&self) -> Committee {
        self.committee
    }

    /// Creates a certified vertex for `author` in `round` with the given
    /// block kind and parent certificates. The certificate is signed by the
    /// first `2f + 1` replicas (a full quorum).
    pub fn make_vertex(
        &mut self,
        author: ReplicaId,
        round: Round,
        kind: BlockKind,
        payload: BlockPayload,
        parents: Vec<Digest>,
    ) -> Vertex {
        let assignment = ShardAssignment::new(self.committee, self.dag);
        let shard = assignment.shard_of(author);
        self.seq += 1;
        let mut block = Block::normal(
            self.dag,
            round,
            author,
            shard,
            self.committee.n_shards(),
            SeqNo::new(self.seq),
            payload,
            SimTime::ZERO,
        );
        block.kind = kind;
        let block = block.seal();
        let header = Header::new(
            self.dag,
            round,
            author,
            block.digest(),
            parents,
            SimTime::ZERO,
        );
        let signers: Vec<ReplicaId> = self
            .committee
            .replicas()
            .take(self.committee.quorum_threshold())
            .collect();
        let certificate = Certificate::for_header(&header, signers);
        Vertex::new(header, block, certificate)
    }

    /// Builds a DAG with `rounds` complete rounds (every replica proposes,
    /// every vertex references every certificate of the previous round). The
    /// block kind of each vertex is chosen by `kind_of(round, author)`.
    pub fn build_rounds(
        &mut self,
        rounds: u64,
        kind_of: impl Fn(Round, ReplicaId) -> BlockKind,
    ) -> DagStore {
        self.extend_rounds(
            DagStore::new(self.committee, self.dag, self.start_round),
            rounds,
            |_, _| true,
            kind_of,
        )
        .expect("complete DAGs always insert cleanly")
    }

    /// Builds a DAG where `participates(round, author)` controls which
    /// replicas propose in each round (silent replicas model crashed or
    /// censoring proposers). Vertices reference every certificate of the
    /// previous round.
    pub fn build_partial(
        &mut self,
        rounds: u64,
        participates: impl Fn(Round, ReplicaId) -> bool,
        kind_of: impl Fn(Round, ReplicaId) -> BlockKind,
    ) -> Result<DagStore, DagError> {
        self.extend_rounds(
            DagStore::new(self.committee, self.dag, self.start_round),
            rounds,
            participates,
            kind_of,
        )
    }

    /// Extends an existing store by `rounds` additional rounds.
    pub fn extend_rounds(
        &mut self,
        mut store: DagStore,
        rounds: u64,
        participates: impl Fn(Round, ReplicaId) -> bool,
        kind_of: impl Fn(Round, ReplicaId) -> BlockKind,
    ) -> Result<DagStore, DagError> {
        let first = if store.is_empty() {
            store.start_round()
        } else {
            store.highest_round().next()
        };
        for offset in 0..rounds {
            let round = Round::new(first.as_u64() + offset);
            let parents = if round == store.start_round() {
                Vec::new()
            } else {
                store.certificates_at_round(round.prev())
            };
            for author in self.committee.replicas() {
                if !participates(round, author) {
                    continue;
                }
                let vertex = self.make_vertex(
                    author,
                    round,
                    kind_of(round, author),
                    BlockPayload::empty(),
                    parents.clone(),
                );
                store.insert(vertex)?;
            }
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_dag_has_one_vertex_per_replica_per_round() {
        let committee = Committee::new(4);
        let mut builder = DagBuilder::new(committee, DagId::new(0), Round::ZERO);
        let store = builder.build_rounds(5, |_, _| BlockKind::Normal);
        assert_eq!(store.len(), 20);
        for round in 0..5 {
            assert_eq!(store.authors_at_round(Round::new(round)), 4);
        }
        // Every vertex beyond the first round references a full quorum.
        for v in store.iter() {
            if v.round() > Round::ZERO {
                assert!(v.parents().len() >= committee.quorum_threshold());
            }
        }
    }

    #[test]
    fn partial_dag_respects_participation() {
        let committee = Committee::new(4);
        let mut builder = DagBuilder::new(committee, DagId::new(0), Round::ZERO);
        let silent = ReplicaId::new(3);
        let store = builder
            .build_partial(
                4,
                |round, author| author != silent || round < Round::new(2),
                |_, _| BlockKind::Normal,
            )
            .unwrap();
        assert_eq!(store.authors_at_round(Round::new(1)), 4);
        assert_eq!(store.authors_at_round(Round::new(2)), 3);
        assert_eq!(store.authors_at_round(Round::new(3)), 3);
        assert!(store.round_has_quorum(Round::new(3)));
    }

    #[test]
    fn extend_continues_from_the_highest_round() {
        let committee = Committee::new(4);
        let mut builder = DagBuilder::new(committee, DagId::new(0), Round::ZERO);
        let store = builder.build_rounds(2, |_, _| BlockKind::Normal);
        let store = builder
            .extend_rounds(store, 2, |_, _| true, |_, _| BlockKind::Normal)
            .unwrap();
        assert_eq!(store.highest_round(), Round::new(3));
        assert_eq!(store.len(), 16);
    }

    #[test]
    fn kind_callback_controls_block_kinds() {
        let committee = Committee::new(4);
        let mut builder = DagBuilder::new(committee, DagId::new(0), Round::ZERO);
        let store = builder.build_rounds(2, |round, author| {
            if round == Round::new(1) && author == ReplicaId::new(2) {
                BlockKind::Shift
            } else {
                BlockKind::Normal
            }
        });
        let shift = store
            .by_author_round(ReplicaId::new(2), Round::new(1))
            .unwrap();
        assert!(shift.block.is_shift());
        let normal = store
            .by_author_round(ReplicaId::new(0), Round::new(1))
            .unwrap();
        assert!(!normal.block.is_shift());
    }

    #[test]
    fn dags_starting_at_a_later_round_have_parentless_first_vertices() {
        let committee = Committee::new(4);
        let start = Round::new(6);
        let mut builder = DagBuilder::new(committee, DagId::new(2), start);
        let store = builder.build_rounds(2, |_, _| BlockKind::Normal);
        assert_eq!(store.start_round(), start);
        for v in store.at_round(start) {
            assert!(v.parents().is_empty());
        }
        for v in store.at_round(start.next()) {
            assert_eq!(v.parents().len(), 4);
        }
    }
}
