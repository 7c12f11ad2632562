//! Blocks proposed by shard proposers.
//!
//! A block is the payload of one DAG vertex. In the EOV path it carries a
//! batch of preplayed single-shard transactions (Figure 3), in their
//! serialized order, each with what only its proposer knows: the reads its
//! preplay observed. Everything else about the preplay — write set, result,
//! abort flag — every replica derives by replaying the transaction over
//! those reads, so a sealed block does not carry it. Nor does it carry what
//! a receiver derives from the call: each transaction's shard set follows
//! from the call and the block's shard count, and a preplayed transaction's
//! place in the serialized order is its position. Cross-shard transactions
//! ride in the same block but without preplay results (OE path, rule P1).
//! Skip blocks and Shift blocks are special block kinds used for preplay
//! recovery (Section 5.4) and non-blocking reconfiguration (Section 6)
//! respectively.

use crate::digest::Digest;
use crate::ids::{DagId, ReplicaId, Round, SeqNo, ShardId};
use crate::ops::ExecOutcome;
use crate::time::SimTime;
use crate::transaction::Transaction;
use crate::wire::{Wire, WireError, WireReader, WireWriter};
use std::fmt;
use std::ops::Deref;

/// A single-shard transaction together with its preplay outcome and its
/// place in the serialized order produced by the preplay engine.
///
/// An engine fills the whole outcome and the order. A block ships the
/// transaction and the read set alone
/// (`wire_struct!(PreplayedTx { tx, outcome: reads } derives { order })`):
/// [`Block::seal`] puts the batch in serialized order, numbers `order` by
/// position and drops the rest of the outcome, and the decoder numbers it
/// the same way, so a sealed block held in memory equals its decoded copy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PreplayedTx {
    /// The original transaction.
    pub tx: Transaction,
    /// Read/write sets and results obtained during preplay; only the read
    /// set survives [`Block::seal`].
    pub outcome: ExecOutcome,
    /// Index of the transaction in the serialized execution order chosen by
    /// the preplay engine (0-based within the batch). It is the engine's
    /// output, and stays in memory for whoever reads a batch before it is
    /// sealed — the CE's serial pass emits its batch in this order, OCC
    /// numbers transactions by commit, and the benchmark's layer walk sorts
    /// by it. In a sealed or decoded block it equals the position, which is
    /// what validation walks; it is not shipped.
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
    /// The system's shard count (`Committee::n_shards`): every transaction's
    /// [`shards`](Transaction::shards) is derived from its call and this
    /// count, by the decoder and by [`Block::seal`]. Admission refuses a
    /// block whose count is not the committee's.
    pub n_shards: u32,
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
    /// Creates a normal block by `author`, serving shard `shard` of
    /// `n_shards`.
    #[allow(clippy::too_many_arguments)]
    pub fn normal(
        dag: DagId,
        round: Round,
        author: ReplicaId,
        shard: ShardId,
        n_shards: u32,
        seq: SeqNo,
        payload: BlockPayload,
        created_at: SimTime,
    ) -> Self {
        Block {
            dag,
            round,
            author,
            shard,
            n_shards,
            seq,
            kind: BlockKind::Normal,
            payload,
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
    /// Seals the block: puts the preplayed batch in serialized order (a
    /// stable sort by `order`, so transactions that claim one place keep
    /// their batch order), keeps of each preplayed transaction's outcome
    /// only the read set the block ships, derives what a receiver derives
    /// (each `order` from its position, each shard set from its call and
    /// [`n_shards`](Block::n_shards)), and hashes the encoding once, for every
    /// later holder. A sealed block therefore equals its decoded copy,
    /// whatever shard sets and order values it was built with.
    pub fn seal(mut self) -> SealedBlock {
        // Every engine emits its batch in serialized order already.
        if !self.payload.single_shard.is_sorted_by_key(|p| p.order) {
            self.payload.single_shard.sort_by_key(|p| p.order);
        }
        for preplayed in &mut self.payload.single_shard {
            let read_set = std::mem::take(&mut preplayed.outcome.read_set);
            preplayed.outcome = ExecOutcome {
                read_set,
                ..Default::default()
            };
        }
        self.derive();
        SealedBlock {
            digest: Digest::of_bytes(&self.to_wire_bytes()),
            block: self,
        }
    }

    /// Derives the fields a block does not ship: each preplayed
    /// transaction's `order` is its position, and each transaction's
    /// `shards` comes from its call and [`n_shards`](Block::n_shards)
    /// ([`ContractCall::shards`](crate::ContractCall::shards), the function
    /// [`Transaction::new`] uses).
    fn derive(&mut self) {
        let n_shards = self.n_shards;
        for (position, preplayed) in self.payload.single_shard.iter_mut().enumerate() {
            preplayed.order = u32::try_from(position).expect("a block fits u32 positions");
            let tx = &mut preplayed.tx;
            tx.call.shards_into(n_shards, &mut tx.shards);
        }
        for tx in &mut self.payload.cross_shard {
            tx.call.shards_into(n_shards, &mut tx.shards);
        }
    }

    /// The decoder's last step (`wire_struct!(Block { … } then
    /// Block::received)`): refuses a shard count of zero, which no call's
    /// keys can be placed in, and derives what the block does not ship.
    pub(crate) fn received(&mut self) -> Result<(), WireError> {
        if self.n_shards == 0 {
            return Err(WireError::OutOfRange {
                type_name: "Block::n_shards",
                value: 0,
            });
        }
        self.derive();
        Ok(())
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
            4,
            SeqNo::new(7),
            BlockPayload::empty(),
            SimTime::ZERO,
        );
        block.kind = kind;
        block
    }

    #[test]
    fn kinds_are_told_apart() {
        let n = sample_block(BlockKind::Normal);
        assert!(!n.is_shift() && !n.is_skip());
        assert!(sample_block(BlockKind::Skip).is_skip());
        assert!(sample_block(BlockKind::Shift).is_shift());
        assert_eq!(n.tx_count(), 0);
    }

    /// Every field a block encodes moves its digest, down to the ones a
    /// hand-kept field list once left out: a call's arguments, the client,
    /// the shard count, a declared read's key and value, a byte value past
    /// its eighth byte, the submission and creation times. What a receiver
    /// derives — a preplayed transaction's writes, result and abort flag
    /// from its reads, its order from its position, every shard set from
    /// the call — is not shipped, so editing it before sealing moves
    /// nothing.
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
        let moves: [Edit; 11] = [
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
            ("shard count", |b| b.n_shards = 5),
            ("read key", |b| {
                b.payload.single_shard[0].outcome.read_set[0].key = Key::savings(1)
            }),
            ("bytes past the eighth", |b| {
                b.payload.single_shard[0].outcome.read_set[0].value = bytes(8)
            }),
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
        let derived: [Edit; 5] = [
            ("write set", |b| {
                b.payload.single_shard[0].outcome.write_set[0].value = Value::int(4)
            }),
            ("return value", |b| {
                b.payload.single_shard[0].outcome.return_value = Value::int(1)
            }),
            ("logically aborted", |b| {
                b.payload.single_shard[0].outcome.logically_aborted = true
            }),
            ("shards", |b| {
                b.payload.cross_shard[0].shards.push(ShardId::new(3))
            }),
            ("order", |b| b.payload.single_shard[0].order = 1),
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

    /// A proposer's in-memory block may claim anything about what receivers
    /// derive: shard sets that disagree with the calls, repeated or
    /// scattered order values. Sealing keeps the claimed serialized order
    /// (ties in batch order), numbers it by position and derives every
    /// shard set, so the sealed block, its encoding and its decoded copy
    /// are one block.
    #[test]
    fn derived_fields_are_rebuilt_by_the_seal_and_the_decoder() {
        let preplayed = |id, order| {
            let mut tx = sample_tx(id);
            tx.call = ContractCall::SmallBank(SmallBankProcedure::GetBalance { account: id });
            tx.shards = vec![ShardId::new(3), ShardId::new(9)];
            PreplayedTx::new(tx, ExecOutcome::empty(), order)
        };
        let mut block = sample_block(BlockKind::Normal);
        block.payload.single_shard = vec![preplayed(1, 7), preplayed(2, 0), preplayed(3, 7)];
        let mut cross = sample_tx(4);
        cross.call = ContractCall::SmallBank(SmallBankProcedure::SendPayment {
            from: 1,
            to: 2,
            amount: 1,
        });
        cross.shards = Vec::new();
        block.payload.cross_shard.push(cross);

        let sealed = block.seal();
        let single = &sealed.payload.single_shard;
        let ids: Vec<u64> = single.iter().map(|p| p.tx.id.as_inner()).collect();
        assert_eq!(ids, [2, 1, 3], "serialized order, ties in batch order");
        assert!(single
            .iter()
            .enumerate()
            .all(|(i, p)| p.order as usize == i));
        for p in single {
            assert_eq!(p.tx.shards, p.tx.call.shards(4));
        }
        assert_eq!(
            sealed.payload.cross_shard[0].shards,
            [ShardId::new(1), ShardId::new(2)]
        );
        let bytes = sealed.to_wire_bytes();
        let decoded = SealedBlock::from_wire_bytes(&bytes).expect("decodes");
        assert_eq!(decoded, sealed);
        assert_eq!(decoded.to_wire_bytes(), bytes);
    }

    /// A shard count of zero places no call's keys: the decoder refuses it
    /// rather than reach `Key::shard`'s assertion.
    #[test]
    fn a_block_claiming_zero_shards_does_not_decode() {
        let mut block = sample_block(BlockKind::Normal);
        block.n_shards = 0;
        assert!(matches!(
            Block::from_wire_bytes(&block.to_wire_bytes()),
            Err(WireError::OutOfRange { .. })
        ));
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
