//! The wire protocol between replicas.
//!
//! Thunderbolt piggybacks everything on the DAG construction messages; there
//! is no extra coordination protocol for cross-shard transactions — that is
//! the point of the design. Four messages build one vertex, and one
//! request–answer pair repairs a replica that missed a block:
//!
//! | message       | from → to                               | carries                       |
//! |---------------|-----------------------------------------|-------------------------------|
//! | `Header`      | author → all `n` (loop-back too)        | header + block                |
//! | `Ack`         | each receiver → author                  | header digest, signer (~43 B) |
//! | `Certificate` | author → all `n` (loop-back too)        | certificate only (~47 B)      |
//! | `Fetch`       | replica without the block → one signer  | the certificate (~47 B)       |
//! | `Vertex`      | that signer → the requester             | header + block + certificate  |
//!
//! A replica that acknowledges a header keeps the `(header, block)` pair,
//! keyed by header digest, and assembles the vertex locally when the
//! certificate arrives. The author counts itself as a signer from the moment
//! it proposes, so the certificate forms on the second remote `Ack` and
//! always names exactly `2f + 1` signers. The `f` replicas whose
//! acknowledgement came too late to be counted acknowledged all the same, so
//! they hold the pair too. Only a replica whose header never arrived (a lost
//! or withheld message, an equivocating author) holds a bare certificate; it
//! asks one signer at a time for the vertex with `Fetch`, and the answer is an
//! ordinary `Vertex` that passes the same checks as any other.
//!
//! Block copies per vertex are therefore `n` (headers) in a run without
//! faults, where nobody fetches: 4 at `n = 4`, down from `n + f = 5` when the
//! late `f` were sent a full vertex, and `2n = 8` when the vertex was
//! broadcast.
//!
//! In memory a block is shared content: `Message::Header.block` and
//! `Vertex.block` are `Arc<SealedBlock>`, so cloning a message for fan-out
//! copies no transaction and hashes no block again.
//!
//! # Wire encoding
//!
//! [`Message`] implements [`Wire`] with a **versioned envelope** so the same
//! bytes can travel over the real TCP transport: every encoded message starts
//! with [`WIRE_MAGIC`] and [`WIRE_FORMAT_VERSION`], followed by a variant tag
//! and the variant fields in the `tb_types::wire` format. Decoding rejects
//! wrong magic or unknown versions up front, so two nodes built from
//! different wire revisions fail loudly instead of mis-parsing each other.

use std::sync::Arc;
use tb_network::WireSized;
use tb_types::wire::{Wire, WireError, WireReader, WireWriter};
use tb_types::{Certificate, DagId, Digest, Header, ReplicaId, Round, SealedBlock, Vertex};

/// First four bytes of every encoded [`Message`]: `"TBM1"` little-endian.
pub const WIRE_MAGIC: u32 = 0x314d_4254;

/// Version of the message wire format. Bump on any change to the encoding of
/// [`Message`] or the types it contains (version 2 added
/// [`Message::Certificate`], version 3 made integers varints, version 4 added
/// [`Message::Fetch`], version 5 made each digest the hash of an encoding: the
/// bytes did not move, but peers that hash differently never certify;
/// version 6 ships a preplayed transaction's reads without the write set,
/// result and abort flag a receiver derives from them; version 7 ships the
/// shard count once per block instead of a shard set per transaction, and
/// a preplayed transaction's place in the serialized order as its position
/// instead of an `order` field; version 8 ships a block as kind, shard count
/// and payload, leaving its DAG, round, author and creation time to the
/// header; version 9 ships a transaction as id, client and call, without the
/// submission time only its proposer reads);
/// `tb_network::TCP_FRAME_VERSION` moves with it, and `tests::format_golden`
/// pins the encoding it names.
pub const WIRE_FORMAT_VERSION: u16 = 9;

/// A protocol message exchanged between replicas.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// A proposer disseminates its block and header for the current round.
    Header {
        /// The header under certification.
        header: Header,
        /// The block the header commits to.
        block: Arc<SealedBlock>,
    },
    /// A replica acknowledges a header it considers valid (the simulated
    /// equivalent of a signature share).
    Ack {
        /// Digest of the acknowledged header.
        header_digest: Digest,
        /// DAG instance of the header.
        dag: DagId,
        /// Round of the acknowledged header.
        round: Round,
        /// The acknowledging replica.
        signer: ReplicaId,
    },
    /// The certificate of a header, broadcast by its author: a replica that
    /// acknowledged the header kept the `(header, block)` pair and assembles
    /// the vertex locally.
    Certificate(Certificate),
    /// A request for the vertex a certificate names, sent to one of its
    /// signers by a replica that holds the certificate but not the block.
    Fetch(Certificate),
    /// A fully certified vertex (header + block + certificate): the answer
    /// to a [`Message::Fetch`].
    Vertex(Box<Vertex>),
}

impl Message {
    /// Short label used in traces and tests.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::Header { .. } => "header",
            Message::Ack { .. } => "ack",
            Message::Certificate(_) => "certificate",
            Message::Fetch(_) => "fetch",
            Message::Vertex(_) => "vertex",
        }
    }

    /// The DAG instance the message refers to.
    pub fn dag(&self) -> DagId {
        match self {
            Message::Header { header, .. } => header.dag,
            Message::Ack { dag, .. } => *dag,
            Message::Certificate(certificate) | Message::Fetch(certificate) => certificate.dag,
            Message::Vertex(vertex) => vertex.dag(),
        }
    }
}

/// The fixed-width envelope in front of every [`Message`]: [`WIRE_MAGIC`]
/// and [`WIRE_FORMAT_VERSION`]. Decoding it refuses any other magic or
/// version before the variant tag is read.
struct Envelope;

impl Wire for Envelope {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32_le(WIRE_MAGIC);
        w.put_u16_le(WIRE_FORMAT_VERSION);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let magic = r.u32_le()?;
        if magic != WIRE_MAGIC {
            return Err(WireError::BadMagic { found: magic });
        }
        let version = r.u16_le()?;
        if version != WIRE_FORMAT_VERSION {
            return Err(WireError::UnsupportedVersion { found: version });
        }
        Ok(Envelope)
    }
}

tb_types::wire_enum!(Message: Envelope {
    0 => Header { header, block },
    1 => Ack { header_digest, dag, round, signer },
    2 => Vertex(vertex),
    3 => Certificate(certificate),
    4 => Fetch(certificate),
});

impl WireSized for Message {
    fn wire_size(&self) -> usize {
        self.encoded_len()
    }
}

#[cfg(test)]
impl Message {
    /// The round the message refers to.
    pub(crate) fn round(&self) -> Round {
        match self {
            Message::Header { header, .. } => header.round,
            Message::Ack { round, .. } => *round,
            Message::Certificate(certificate) | Message::Fetch(certificate) => certificate.round,
            Message::Vertex(vertex) => vertex.round(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_types::{
        Block, BlockKind, BlockPayload, ClientId, Committee, ContractCall, ExecOutcome, Key,
        PreplayedTx, SimTime, SmallBankProcedure, Transaction, TxId, Value,
    };

    #[test]
    fn message_accessors() {
        let block: Arc<SealedBlock> = Block::new(BlockKind::Normal, 4, BlockPayload::empty())
            .seal()
            .into();
        let header = Header::new(
            DagId::new(0),
            Round::new(3),
            ReplicaId::new(1),
            block.digest(),
            vec![],
            SimTime::ZERO,
        );
        let ack = Message::Ack {
            header_digest: header.digest(),
            dag: DagId::new(0),
            round: Round::new(3),
            signer: ReplicaId::new(2),
        };
        let hdr = Message::Header {
            header: header.clone(),
            block: block.clone(),
        };
        assert_eq!(hdr.kind(), "header");
        assert_eq!(hdr.round(), Round::new(3));
        assert_eq!(ack.kind(), "ack");
        assert_eq!(ack.round(), Round::new(3));

        let committee = Committee::new(4);
        let cert = Certificate::for_header(&header, committee.replicas().take(3).collect());
        let certificate = Message::Certificate(cert.clone());
        assert_eq!(certificate.kind(), "certificate");
        assert_eq!(certificate.round(), Round::new(3));
        let fetch = Message::Fetch(cert.clone());
        assert_eq!(fetch.kind(), "fetch");
        assert_eq!(fetch.round(), Round::new(3));
        let vertex = Message::Vertex(Box::new(Vertex::new(header, block, cert)));
        assert_eq!(vertex.kind(), "vertex");
        assert_eq!(vertex.round(), Round::new(3));
    }

    #[test]
    fn envelope_rejects_wrong_magic_and_version() {
        let ack = Message::Ack {
            header_digest: Digest::ZERO,
            dag: DagId::new(0),
            round: Round::new(1),
            signer: ReplicaId::new(0),
        };
        let mut bytes = ack.to_wire_bytes();
        assert_eq!(Message::from_wire_bytes(&bytes), Ok(ack.clone()));
        assert_eq!(WireSized::wire_size(&ack), bytes.len());
        // A fixed-width envelope (magic `u32`, version `u16`), the tag, the
        // 32-byte digest, then dag, round and signer as one-byte varints.
        assert_eq!(bytes[..4], WIRE_MAGIC.to_le_bytes());
        assert_eq!(bytes[4..6], WIRE_FORMAT_VERSION.to_le_bytes());
        assert_eq!(bytes[6], 1);
        assert_eq!(bytes[39..], [0, 1, 0]);

        // Corrupt the magic.
        bytes[0] ^= 0xff;
        assert!(matches!(
            Message::from_wire_bytes(&bytes),
            Err(WireError::BadMagic { .. })
        ));

        // Restore the magic, bump the version.
        bytes[0] ^= 0xff;
        bytes[4] = 0xfe;
        assert!(matches!(
            Message::from_wire_bytes(&bytes),
            Err(WireError::UnsupportedVersion { found: 0xfe })
        ));

        // Envelopes from older builds are refused by this one: version 1
        // (no `Certificate` message, the vertex broadcast to everyone),
        // version 2 (fixed-width integers), version 3 (no `Fetch`, the
        // vertex sent to the replicas that were not signers), version 4
        // (digests over hand-kept field lists), version 5 (write sets on
        // the wire), version 6 (a shard set and an order per transaction)
        // and version 7 (a block repeating its header's fields).
        for old in [1u8, 2, 3, 4, 5, 6, 7] {
            bytes[4] = old;
            assert_eq!(
                Message::from_wire_bytes(&bytes),
                Err(WireError::UnsupportedVersion {
                    found: u16::from(old)
                })
            );
        }
    }

    /// The encoding of a fixed message set, hashed. A change to how any
    /// message encodes changes this hash; it must come with a bump of
    /// [`WIRE_FORMAT_VERSION`] (and `tb_network::TCP_FRAME_VERSION`), and the
    /// pair below is then re-recorded together.
    #[test]
    fn format_golden() {
        const GOLDEN: (u16, u64) = (9, 0xff69_1fa5_ea32_650d);
        let tx = |id: u64, call: SmallBankProcedure| {
            Transaction::new(
                TxId::new(id),
                ClientId::new(id as u32 % 4),
                ContractCall::SmallBank(call),
                4,
                SimTime::from_micros(1_000 + id),
            )
        };
        let mut send = ExecOutcome::default();
        send.record_read(Key::checking(17), Value::int(100_000));
        send.record_read(Key::checking(401), Value::int(-3));
        send.record_write(Key::checking(17), Value::int(99_990));
        send.record_write(Key::checking(401), Value::int(7));
        let mut balance = ExecOutcome::default();
        balance.record_read(Key::checking(5), Value::int(100_000));
        balance.record_read(Key::savings(5), Value::None);
        let block: Arc<SealedBlock> = Block::new(
            BlockKind::Normal,
            4,
            BlockPayload {
                single_shard: vec![
                    PreplayedTx::new(
                        tx(
                            7,
                            SmallBankProcedure::SendPayment {
                                from: 17,
                                to: 401,
                                amount: 10,
                            },
                        ),
                        send,
                        0,
                    ),
                    PreplayedTx::new(
                        tx(8, SmallBankProcedure::GetBalance { account: 5 }),
                        balance,
                        1,
                    ),
                ],
                cross_shard: vec![tx(9, SmallBankProcedure::Amalgamate { from: 2, to: 3 })],
            },
        )
        .seal()
        .into();
        let header = Header::new(
            DagId::new(0),
            Round::new(9),
            ReplicaId::new(2),
            block.digest(),
            vec![Digest([1, 2, 3, 4]), Digest([5, 6, 7, u64::MAX])],
            SimTime::from_micros(5_001),
        );
        let certificate = Certificate::for_header(
            &header,
            vec![ReplicaId::new(0), ReplicaId::new(1), ReplicaId::new(2)],
        );
        let messages = [
            Message::Header {
                header: header.clone(),
                block: Arc::clone(&block),
            },
            Message::Ack {
                header_digest: header.digest(),
                dag: DagId::new(0),
                round: Round::new(9),
                signer: ReplicaId::new(1),
            },
            Message::Certificate(certificate.clone()),
            Message::Fetch(certificate.clone()),
            Message::Vertex(Box::new(Vertex::new(header, block, certificate))),
        ];
        let hash = messages.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, msg| {
            msg.to_wire_bytes().iter().fold(hash, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
        });
        assert_eq!(
            (WIRE_FORMAT_VERSION, hash),
            GOLDEN,
            "the message encoding changed: bump WIRE_FORMAT_VERSION and \
             TCP_FRAME_VERSION, then record the new (version, hash) pair"
        );
    }
}
