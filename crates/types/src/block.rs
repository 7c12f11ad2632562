//! Blocks proposed by shard proposers.
//!
//! A block is the payload of one DAG vertex. In the EOV path it carries a
//! batch of preplayed single-shard transactions (Figure 3), each with what
//! only its proposer knows: the reads its preplay observed and its place in
//! the serialized order. Everything else about the preplay — write set,
//! result, abort flag — every replica derives by replaying the transaction
//! over those reads, so a sealed block does not carry it. Cross-shard
//! transactions ride in the same block but without preplay results (OE path,
//! rule P1). Skip blocks and Shift blocks are special block kinds used for
//! preplay recovery (Section 5.4) and non-blocking reconfiguration
//! (Section 6) respectively.

use crate::digest::Digest;
use crate::ids::{DagId, ReplicaId, Round, SeqNo, ShardId};
use crate::ops::ExecOutcome;
use crate::time::SimTime;
use crate::transaction::Transaction;
use crate::wire::{Wire, WireError, WireReader, WireWriter};
use std::fmt;
use std::ops::Deref;

/// A single-shard transaction together with its preplay outcome and its
/// position in the serialized order produced by the concurrent executor.
///
/// An engine fills the whole outcome. A block ships the read set alone
/// (`wire_struct!(PreplayedTx { tx, outcome: reads, order })`), and
/// [`Block::seal`] drops the rest, so a sealed block held in memory equals
/// its decoded copy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PreplayedTx {
    /// The original transaction.
    pub tx: Transaction,
    /// Read/write sets and results obtained during preplay; only the read
    /// set survives [`Block::seal`].
    pub outcome: ExecOutcome,
    /// Index of the transaction in the serialized execution order chosen by
    /// the preplay engine (0-based within the block).
    pub order: u32,
}

impl PreplayedTx {
    /// Creates a preplayed transaction entry.
    pub fn new(tx: Transaction, outcome: ExecOutcome, order: u32) -> Self {
        PreplayedTx { tx, outcome, order }
    }
}

/// The role of a block in the protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum BlockKind {
    /// An ordinary block carrying transactions.
    #[default]
    Normal,
    /// A skip block: the proposer could not safely preplay because prior
    /// leaders' cross-shard transactions are not yet finalized (Section 5.4).
    Skip,
    /// A Shift block voting for a reconfiguration of shard assignments
    /// (Section 6).
    Shift,
}

impl fmt::Display for BlockKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockKind::Normal => f.write_str("normal"),
            BlockKind::Skip => f.write_str("skip"),
            BlockKind::Shift => f.write_str("shift"),
        }
    }
}

/// The transaction payload of a block.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BlockPayload {
    /// Single-shard transactions preplayed by the concurrent executor, in
    /// their serialized order.
    pub single_shard: Vec<PreplayedTx>,
    /// Cross-shard transactions (including converted single-shard ones),
    /// submitted without preplay.
    pub cross_shard: Vec<Transaction>,
}

impl BlockPayload {
    /// An empty payload.
    pub fn empty() -> Self {
        BlockPayload::default()
    }

    /// Total number of transactions carried.
    pub fn len(&self) -> usize {
        self.single_shard.len() + self.cross_shard.len()
    }

    /// True if the payload contains no transactions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A block produced by a shard proposer for one DAG round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    /// The DAG instance this block belongs to.
    pub dag: DagId,
    /// The round the block was proposed in.
    pub round: Round,
    /// The replica that authored the block.
    pub author: ReplicaId,
    /// The shard the author was serving when it proposed the block.
    pub shard: ShardId,
    /// Per-author monotone sequence number (used for client deduplication).
    pub seq: SeqNo,
    /// What kind of block this is.
    pub kind: BlockKind,
    /// The transactions carried by the block.
    pub payload: BlockPayload,
    /// Simulated creation time.
    pub created_at: SimTime,
}

impl Block {
    /// Creates a normal block.
    pub fn normal(
        dag: DagId,
        round: Round,
        author: ReplicaId,
        shard: ShardId,
        seq: SeqNo,
        payload: BlockPayload,
        created_at: SimTime,
    ) -> Self {
        Block {
            dag,
            round,
            author,
            shard,
            seq,
            kind: BlockKind::Normal,
            payload,
            created_at,
        }
    }

    /// Creates a skip block (optionally still carrying cross-shard
    /// transactions, which never need preplay).
    pub fn skip(
        dag: DagId,
        round: Round,
        author: ReplicaId,
        shard: ShardId,
        seq: SeqNo,
        cross_shard: Vec<Transaction>,
        created_at: SimTime,
    ) -> Self {
        Block {
            dag,
            round,
            author,
            shard,
            seq,
            kind: BlockKind::Skip,
            payload: BlockPayload {
                single_shard: Vec::new(),
                cross_shard,
            },
            created_at,
        }
    }

    /// Creates a Shift block.
    pub fn shift(
        dag: DagId,
        round: Round,
        author: ReplicaId,
        shard: ShardId,
        seq: SeqNo,
        created_at: SimTime,
    ) -> Self {
        Block {
            dag,
            round,
            author,
            shard,
            seq,
            kind: BlockKind::Shift,
            payload: BlockPayload::empty(),
            created_at,
        }
    }

    /// True if this is a Shift block.
    pub fn is_shift(&self) -> bool {
        self.kind == BlockKind::Shift
    }

    /// True if this is a skip block.
    pub fn is_skip(&self) -> bool {
        self.kind == BlockKind::Skip
    }

    /// Number of transactions carried.
    pub fn tx_count(&self) -> usize {
        self.payload.len()
    }
}

/// A block and its digest, the hash of its canonical encoding, taken once:
/// by [`Block::seal`], or by decoding, over the span the block was decoded
/// from (strict decoding makes that span the block's one encoding). With no
/// `DerefMut` and no setter the digest cannot go stale; to change a block,
/// clone it out (`Block::clone(&sealed)`) and seal the copy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SealedBlock {
    block: Block,
    digest: Digest,
}

impl Block {
    /// Seals the block: keeps of each preplayed transaction's outcome only
    /// the read set the block ships, and hashes its encoding once, for every
    /// later holder.
    pub fn seal(mut self) -> SealedBlock {
        for preplayed in &mut self.payload.single_shard {
            let read_set = std::mem::take(&mut preplayed.outcome.read_set);
            preplayed.outcome = ExecOutcome {
                read_set,
                ..Default::default()
            };
        }
        SealedBlock {
            digest: Digest::of_bytes(&self.to_wire_bytes()),
            block: self,
        }
    }
}

impl SealedBlock {
    /// The digest of the block's canonical encoding.
    pub fn digest(&self) -> Digest {
        self.digest
    }
}

impl Deref for SealedBlock {
    type Target = Block;
    fn deref(&self) -> &Block {
        &self.block
    }
}

/// A sealed block encodes as the block; decoding hashes the bytes it read.
impl Wire for SealedBlock {
    fn encode(&self, w: &mut WireWriter) {
        self.block.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let unread = r.unread();
        let block = Block::decode(r)?;
        let digest = Digest::of_bytes(&unread[..unread.len() - r.remaining()]);
        Ok(SealedBlock { block, digest })
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Block[{} {} {} {} kind={} txs={}]",
            self.dag,
            self.round,
            self.author,
            self.shard,
            self.kind,
            self.tx_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ClientId, TxId};
    use crate::key::Key;
    use crate::transaction::{ContractCall, SmallBankProcedure};
    use crate::value::Value;

    fn sample_tx(id: u64) -> Transaction {
        Transaction::new(
            TxId::new(id),
            ClientId::new(0),
            ContractCall::Noop,
            4,
            SimTime::ZERO,
        )
    }

    fn sample_block(kind: BlockKind) -> Block {
        let mut block = Block::normal(
            DagId::new(0),
            Round::new(1),
            ReplicaId::new(2),
            ShardId::new(2),
            SeqNo::new(7),
            BlockPayload::empty(),
            SimTime::ZERO,
        );
        block.kind = kind;
        block
    }

    #[test]
    fn constructors_set_kinds() {
        let n = sample_block(BlockKind::Normal);
        assert!(!n.is_shift() && !n.is_skip());
        let s = Block::skip(
            DagId::new(0),
            Round::new(2),
            ReplicaId::new(1),
            ShardId::new(1),
            SeqNo::new(0),
            vec![sample_tx(5)],
            SimTime::ZERO,
        );
        assert!(s.is_skip());
        assert_eq!(s.tx_count(), 1);
        let sh = Block::shift(
            DagId::new(0),
            Round::new(3),
            ReplicaId::new(1),
            ShardId::new(1),
            SeqNo::new(0),
            SimTime::ZERO,
        );
        assert!(sh.is_shift());
        assert_eq!(sh.tx_count(), 0);
    }

    /// Every field a block encodes moves its digest, down to the ones a
    /// hand-kept field list once left out: a call's arguments, the client,
    /// the shards, a declared read's key and value, a byte value past its
    /// eighth byte, the order, the submission and creation times. What a
    /// receiver derives from a preplayed transaction's reads — its writes,
    /// result and abort flag — is not shipped, so editing it before sealing
    /// moves nothing.
    #[test]
    fn digest_depends_on_contents() {
        fn payment(amount: i64) -> ContractCall {
            ContractCall::SmallBank(SmallBankProcedure::SendPayment {
                from: 1,
                to: 2,
                amount,
            })
        }
        fn bytes(tenth: u8) -> Value {
            let mut bytes = vec![7; 12];
            bytes[10] = tenth;
            Value::bytes(bytes)
        }
        let block = || {
            let tx = |id| {
                Transaction::new(
                    TxId::new(id),
                    ClientId::new(1),
                    payment(5),
                    4,
                    SimTime::ZERO,
                )
            };
            let mut outcome = ExecOutcome::empty();
            outcome.record_read(Key::checking(1), bytes(7));
            outcome.record_write(Key::checking(1), Value::int(3));
            outcome.return_value = Value::int(3);
            let mut block = sample_block(BlockKind::Normal);
            block
                .payload
                .single_shard
                .push(PreplayedTx::new(tx(1), outcome, 0));
            block.payload.cross_shard.push(tx(2));
            block
        };
        let digest = block().seal().digest();
        assert_eq!(block().seal().digest(), digest);
        type Edit = (&'static str, fn(&mut Block));
        let moves: [Edit; 12] = [
            ("kind", |b| b.kind = BlockKind::Skip),
            ("one more transaction", |b| {
                b.payload.cross_shard.push(sample_tx(1))
            }),
            ("cross-shard amount", |b| {
                b.payload.cross_shard[0].call = payment(6)
            }),
            ("preplayed call", |b| {
                b.payload.single_shard[0].tx.call = payment(6)
            }),
            ("client", |b| {
                b.payload.cross_shard[0].client = ClientId::new(2)
            }),
            ("shards", |b| {
                b.payload.cross_shard[0].shards.push(ShardId::new(3))
            }),
            ("read key", |b| {
                b.payload.single_shard[0].outcome.read_set[0].key = Key::savings(1)
            }),
            ("bytes past the eighth", |b| {
                b.payload.single_shard[0].outcome.read_set[0].value = bytes(8)
            }),
            ("order", |b| b.payload.single_shard[0].order = 1),
            ("submitted at", |b| {
                b.payload.single_shard[0].tx.submitted_at = SimTime::from_micros(1)
            }),
            ("created at", |b| b.created_at = SimTime::from_micros(1)),
            ("one more read", |b| {
                b.payload.single_shard[0]
                    .outcome
                    .record_read(Key::checking(2), Value::int(0))
            }),
        ];
        for (field, edit) in moves {
            let mut edited = block();
            edit(&mut edited);
            assert_ne!(edited.seal().digest(), digest, "{field}");
        }
        let derived: [Edit; 3] = [
            ("write set", |b| {
                b.payload.single_shard[0].outcome.write_set[0].value = Value::int(4)
            }),
            ("return value", |b| {
                b.payload.single_shard[0].outcome.return_value = Value::int(1)
            }),
            ("logically aborted", |b| {
                b.payload.single_shard[0].outcome.logically_aborted = true
            }),
        ];
        for (field, edit) in derived {
            let mut edited = block();
            edit(&mut edited);
            assert_eq!(edited.seal().digest(), digest, "{field}");
        }
    }

    /// A sealed block keeps exactly what it ships: it equals the block its
    /// encoding decodes to, digest included.
    #[test]
    fn a_sealed_block_equals_its_decoded_copy() {
        let mut outcome = ExecOutcome::empty();
        outcome.record_read(Key::checking(1), Value::int(10));
        outcome.record_write(Key::checking(1), Value::int(5));
        outcome.return_value = Value::int(5);
        outcome.logically_aborted = true;
        let mut block = sample_block(BlockKind::Normal);
        block
            .payload
            .single_shard
            .push(PreplayedTx::new(sample_tx(1), outcome, 0));
        let sealed = block.seal();
        let outcome = &sealed.payload.single_shard[0].outcome;
        assert_eq!(outcome.read_set.len(), 1);
        assert!(outcome.write_set.is_empty() && !outcome.logically_aborted);
        assert_eq!(outcome.return_value, Value::None);
        let decoded = SealedBlock::from_wire_bytes(&sealed.to_wire_bytes()).expect("decodes");
        assert_eq!(decoded, sealed);
    }

    #[test]
    fn payload_len_counts_both_classes() {
        let mut p = BlockPayload::empty();
        assert!(p.is_empty());
        p.cross_shard.push(sample_tx(1));
        p.single_shard
            .push(PreplayedTx::new(sample_tx(2), ExecOutcome::empty(), 0));
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    fn display_mentions_round_and_kind() {
        let b = sample_block(BlockKind::Normal);
        let s = b.to_string();
        assert!(s.contains("r1"));
        assert!(s.contains("normal"));
    }
}
