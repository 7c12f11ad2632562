//! DAG vertices, headers and certificates.
//!
//! Following Narwhal/Tusk (paper Section 2), every round each replica
//! broadcasts a *header* describing its block and referencing at least
//! `2f + 1` certificates from the previous round. Once `2f + 1` replicas
//! acknowledge the header, a *certificate* is formed; certificates of round
//! `r` become the parents of headers in round `r + 1`. A [`Vertex`] bundles a
//! certified header with its block payload, which is what the local DAG
//! stores. Each link is the digest of an encoding ([`Digest::of_bytes`]): the
//! header names its block, the certificate its header, and the vertex id is
//! the digest of what the certificate names. The block is immutable shared
//! content (`Arc<SealedBlock>`, hashed once), and every holder of the vertex —
//! the proposer, the transports' fan-out, the DAG, the commit pipeline —
//! shares one allocation.

use crate::block::SealedBlock;
use crate::committee::Committee;
use crate::digest::Digest;
use crate::ids::{DagId, ReplicaId, Round};
use crate::time::SimTime;
use crate::wire::Wire;
use std::fmt;
use std::sync::Arc;

/// The header of a DAG vertex: everything except the block body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Header {
    /// DAG instance the header belongs to.
    pub dag: DagId,
    /// Round the header was proposed in.
    pub round: Round,
    /// Authoring replica.
    pub author: ReplicaId,
    /// Digest of the block carried by the vertex.
    pub block_digest: Digest,
    /// Digests of the parent certificates from round `round - 1`
    /// (empty only in the first round of a DAG).
    pub parents: Vec<Digest>,
    /// Simulated creation time of the vertex and its block: where the queue
    /// wait of the block's transactions ends.
    pub created_at: SimTime,
}

impl Header {
    /// Creates a header.
    pub fn new(
        dag: DagId,
        round: Round,
        author: ReplicaId,
        block_digest: Digest,
        parents: Vec<Digest>,
        created_at: SimTime,
    ) -> Self {
        Header {
            dag,
            round,
            author,
            block_digest,
            parents,
            created_at,
        }
    }

    /// The header's digest: the hash of its encoding.
    pub fn digest(&self) -> Digest {
        Digest::of_bytes(&self.to_wire_bytes())
    }
}

impl fmt::Display for Header {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Header[{} {} {} parents={}]",
            self.dag,
            self.round,
            self.author,
            self.parents.len()
        )
    }
}

/// A certificate: proof that `2f + 1` replicas acknowledged a header.
///
/// Signatures are modelled as an explicit, deduplicated list of signer ids;
/// [`Certificate::is_valid`] checks the quorum threshold against the
/// committee, which is all the protocol logic depends on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certificate {
    /// Digest of the certified header.
    pub header_digest: Digest,
    /// DAG instance of the certified header.
    pub dag: DagId,
    /// Round of the certified header.
    pub round: Round,
    /// Author of the certified header.
    pub author: ReplicaId,
    /// Replicas that acknowledged the header (deduplicated, sorted).
    pub signers: Vec<ReplicaId>,
}

impl Certificate {
    /// Creates a certificate, normalizing the signer list.
    pub fn new(
        header_digest: Digest,
        dag: DagId,
        round: Round,
        author: ReplicaId,
        mut signers: Vec<ReplicaId>,
    ) -> Self {
        signers.sort_unstable();
        signers.dedup();
        Certificate {
            header_digest,
            dag,
            round,
            author,
            signers,
        }
    }

    /// Builds the certificate for a header given the acknowledging replicas.
    pub fn for_header(header: &Header, signers: Vec<ReplicaId>) -> Self {
        Certificate::new(
            header.digest(),
            header.dag,
            header.round,
            header.author,
            signers,
        )
    }

    /// True if this certificate is for exactly `header`: it names the
    /// header's digest and repeats its `(dag, round, author)`. The vertex id
    /// is derived from the certificate alone, so a vertex whose certificate
    /// does not certify its header must never enter a DAG.
    pub fn certifies(&self, header: &Header) -> bool {
        self.dag == header.dag
            && self.round == header.round
            && self.author == header.author
            && self.header_digest == header.digest()
    }

    /// The vertex id: the hash of the encoding of `(header_digest, dag,
    /// round, author)`. Signers are left out, so two certificates for one
    /// header are interchangeable parents.
    pub fn digest(&self) -> Digest {
        let named = ((self.header_digest, self.dag), (self.round, self.author));
        Digest::of_bytes(&named.to_wire_bytes())
    }

    /// True if the certificate carries a `2f + 1` quorum of distinct,
    /// committee-member signers.
    pub fn is_valid(&self, committee: &Committee) -> bool {
        let distinct_members = self
            .signers
            .iter()
            .filter(|s| committee.contains(**s))
            .count();
        distinct_members >= committee.quorum_threshold()
    }
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Cert[{} {} {} signers={}]",
            self.dag,
            self.round,
            self.author,
            self.signers.len()
        )
    }
}

/// A certified DAG vertex: header, block body and certificate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Vertex {
    /// The vertex header.
    pub header: Header,
    /// The block carried by the vertex, shared with every other holder.
    pub block: Arc<SealedBlock>,
    /// The certificate proving `2f + 1` replicas acknowledged the header.
    pub certificate: Certificate,
}

impl Vertex {
    /// Creates a vertex from a sealed block it owns or already shares.
    pub fn new(header: Header, block: impl Into<Arc<SealedBlock>>, cert: Certificate) -> Self {
        Vertex {
            header,
            block: block.into(),
            certificate: cert,
        }
    }

    /// The digest identifying this vertex (the certificate digest, which is
    /// derived from the header digest).
    pub fn id(&self) -> Digest {
        self.certificate.digest()
    }

    /// Round of the vertex.
    pub fn round(&self) -> Round {
        self.header.round
    }

    /// Author of the vertex.
    pub fn author(&self) -> ReplicaId {
        self.header.author
    }

    /// DAG instance of the vertex.
    pub fn dag(&self) -> DagId {
        self.header.dag
    }

    /// Digests of the parent certificates.
    pub fn parents(&self) -> &[Digest] {
        &self.header.parents
    }
}

impl fmt::Display for Vertex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Vertex[{} {} {} {}]",
            self.dag(),
            self.round(),
            self.author(),
            self.block.kind
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Block, BlockKind, BlockPayload};

    fn committee4() -> Committee {
        Committee::new(4)
    }

    fn header(author: u32, round: u64) -> Header {
        Header::new(
            DagId::new(0),
            Round::new(round),
            ReplicaId::new(author),
            Digest::ZERO,
            vec![],
            SimTime::ZERO,
        )
    }

    #[test]
    fn certificate_quorum_validation() {
        let committee = committee4();
        let h = header(0, 1);
        let ok = Certificate::for_header(
            &h,
            vec![ReplicaId::new(0), ReplicaId::new(1), ReplicaId::new(2)],
        );
        assert!(ok.is_valid(&committee));

        let too_few = Certificate::for_header(&h, vec![ReplicaId::new(0), ReplicaId::new(1)]);
        assert!(!too_few.is_valid(&committee));

        // Duplicate signers are collapsed and do not count twice.
        let dupes = Certificate::for_header(
            &h,
            vec![ReplicaId::new(0), ReplicaId::new(0), ReplicaId::new(1)],
        );
        assert!(!dupes.is_valid(&committee));

        // Signers outside the committee do not count.
        let outsiders = Certificate::for_header(
            &h,
            vec![ReplicaId::new(0), ReplicaId::new(1), ReplicaId::new(99)],
        );
        assert!(!outsiders.is_valid(&committee));
    }

    #[test]
    fn certificate_digest_ignores_signers() {
        let h = header(1, 2);
        let a = Certificate::for_header(
            &h,
            vec![ReplicaId::new(0), ReplicaId::new(1), ReplicaId::new(2)],
        );
        let b = Certificate::for_header(
            &h,
            vec![ReplicaId::new(1), ReplicaId::new(2), ReplicaId::new(3)],
        );
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn certificate_certifies_only_its_own_header() {
        let h = header(1, 2);
        let signers = vec![ReplicaId::new(0), ReplicaId::new(1), ReplicaId::new(2)];
        let cert = Certificate::for_header(&h, signers.clone());
        assert!(cert.certifies(&h));
        assert!(!cert.certifies(&header(1, 3)));
        assert!(!cert.certifies(&header(2, 2)));
        // Same header digest, different claimed round: a different vertex id.
        let relabelled = Certificate::new(h.digest(), h.dag, Round::new(9), h.author, signers);
        assert!(!relabelled.certifies(&h));
    }

    #[test]
    fn header_digest_depends_on_parents() {
        let mut a = header(0, 3);
        let b = header(0, 3);
        assert_eq!(a.digest(), b.digest());
        a.parents.push(Digest([42, 0, 0, 0]));
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn vertex_accessors() {
        let h = header(2, 5);
        let c = Certificate::for_header(
            &h,
            vec![ReplicaId::new(0), ReplicaId::new(1), ReplicaId::new(2)],
        );
        let block = Block::new(BlockKind::Normal, 4, BlockPayload::empty());
        let v = Vertex::new(h.clone(), block.seal(), c.clone());
        assert_eq!(v.round(), Round::new(5));
        assert_eq!(v.author(), ReplicaId::new(2));
        assert_eq!(v.dag(), DagId::new(0));
        assert_eq!(v.id(), c.digest());
        assert!(v.parents().is_empty());
    }
}
