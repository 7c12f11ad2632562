//! Blocks proposed by shard proposers.
//!
//! A block is the payload of one DAG vertex and nothing else: its kind, the
//! system's shard count and its transactions. Which vertex it belongs to —
//! DAG, round, author — and when it was created, the vertex's
//! [`Header`](crate::Header) says, and names the block by digest; the shard
//! its author serves follows from the header through
//! [`ShardAssignment::shard_of`](crate::ShardAssignment::shard_of). So two
//! vertices may carry byte-identical blocks (two empty blocks, say) and stay
//! two vertices.
//!
//! In the EOV path a block carries a batch of preplayed single-shard
//! transactions (Figure 3), in their serialized order, each with what only
//! its proposer knows: the reads its preplay observed. The preplay's writes
//! every replica derives by replaying the transaction over those reads, so
//! a sealed block does not carry them. Nor does it carry what a receiver derives from the call: each
//! transaction's shard set follows from the call and the block's shard
//! count, and a preplayed transaction's place in the serialized order is its
//! position. Nor does it carry a transaction's submission time, which only
//! its proposer reads: the proposer keeps it beside the transaction and
//! times the transaction on its own clock. Cross-shard transactions ride in
//! the same block but without preplay results (OE path, rule P1). Skip blocks and Shift blocks are
//! special block kinds used for preplay recovery (Section 5.4) and
//! non-blocking reconfiguration (Section 6) respectively.

use crate::digest::Digest;
use crate::ops::{ExecOutcome, WriteSet};
use crate::time::SimTime;
use crate::transaction::Transaction;
use crate::wire::{Wire, WireError, WireReader, WireWriter};
use std::fmt;
use std::ops::Deref;

/// A single-shard transaction together with its preplay outcome and its
/// place in the serialized order produced by the preplay engine.
///
/// An engine fills the outcome and the order. A block ships the
/// transaction and the read set alone
/// (`wire_struct!(PreplayedTx { tx, outcome: reads } derives { order })`):
/// [`Block::seal`] puts the batch in serialized order, numbers `order` by
/// position and drops the write set, and the decoder numbers it
/// the same way, so a sealed block held in memory equals its decoded copy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PreplayedTx {
    /// The original transaction.
    pub tx: Transaction,
    /// Read and write sets obtained during preplay; only the read set
    /// survives [`Block::seal`].
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

/// A block produced by a shard proposer for one DAG round. The vertex's
/// header names the round, the DAG, the author and the creation time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    /// What kind of block this is.
    pub kind: BlockKind,
    /// The system's shard count (`Committee::n_shards`): every transaction's
    /// [`shards`](Transaction::shards) is derived from its call and this
    /// count, by the decoder and by [`Block::seal`]. Admission refuses a
    /// block whose count is not the committee's.
    pub n_shards: u32,
    /// The transactions carried by the block.
    pub payload: BlockPayload,
}

impl Block {
    /// Creates a block of `kind` for a system of `n_shards` shards.
    pub fn new(kind: BlockKind, n_shards: u32, payload: BlockPayload) -> Self {
        Block {
            kind,
            n_shards,
            payload,
        }
    }

    /// True if this is a Shift block.
    pub fn is_shift(&self) -> bool {
        self.kind == BlockKind::Shift
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
    /// their batch order), drops each preplayed transaction's write set,
    /// which the block does not ship, derives what a receiver derives
    /// (each `order` from its position, each shard set from its call and
    /// [`n_shards`](Block::n_shards), each submission time zero), and hashes
    /// the encoding once, for every later holder. A sealed block therefore
    /// equals its decoded copy, whatever shard sets, order values and
    /// submission times it was built with.
    pub fn seal(mut self) -> SealedBlock {
        // Every engine emits its batch in serialized order already.
        if !self.payload.single_shard.is_sorted_by_key(|p| p.order) {
            self.payload.single_shard.sort_by_key(|p| p.order);
        }
        for preplayed in &mut self.payload.single_shard {
            preplayed.outcome.write_set = WriteSet::new();
        }
        self.derive();
        SealedBlock {
            digest: Digest::of_bytes(&self.to_wire_bytes()),
            block: self,
        }
    }

    /// Derives the fields a block does not ship: each preplayed
    /// transaction's `order` is its position, each transaction's `shards`
    /// comes from its call and [`n_shards`](Block::n_shards)
    /// ([`ContractCall::shards`](crate::ContractCall::shards), the function
    /// [`Transaction::new`] uses), and each `submitted_at` is zero, since
    /// only the proposer, which keeps its own, reads it.
    fn derive(&mut self) {
        let n_shards = self.n_shards;
        let derive_tx = |tx: &mut Transaction| {
            tx.call.shards_into(n_shards, &mut tx.shards);
            tx.submitted_at = SimTime::ZERO;
        };
        for (position, preplayed) in self.payload.single_shard.iter_mut().enumerate() {
            preplayed.order = u32::try_from(position).expect("a block fits u32 positions");
            derive_tx(&mut preplayed.tx);
        }
        self.payload.cross_shard.iter_mut().for_each(derive_tx);
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
        write!(f, "Block[kind={} txs={}]", self.kind, self.tx_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ClientId, DagId, ReplicaId, Round, ShardId, TxId};
    use crate::key::Key;
    use crate::transaction::{ContractCall, ShardSet, SmallBankProcedure};
    use crate::value::Value;
    use crate::vertex::Header;

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
        Block::new(kind, 4, BlockPayload::empty())
    }

    #[test]
    fn kinds_are_told_apart() {
        let n = sample_block(BlockKind::Normal);
        assert!(!n.is_shift());
        assert!(!sample_block(BlockKind::Skip).is_shift());
        assert!(sample_block(BlockKind::Shift).is_shift());
        assert_eq!(n.tx_count(), 0);
    }

    /// Every field a block encodes moves its digest, down to the ones a
    /// hand-kept field list once left out: a call's arguments, the client,
    /// the shard count, a declared read's key and value, a byte value past
    /// its eighth byte. What a receiver derives — a preplayed transaction's
    /// writes from its reads, its order from its
    /// position, every shard set from the call — and the submission time,
    /// which only the proposer reads, are not shipped, so editing them
    /// before sealing moves nothing. Which vertex the
    /// block belongs to, and when it was made, is the header's: the DAG,
    /// round, author and creation time move the header's digest, and only
    /// kind, shard count and payload move the block's.
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
            let mut outcome = ExecOutcome::default();
            outcome.record_read(Key::checking(1), bytes(7));
            outcome.record_write(Key::checking(1), Value::int(3));
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
        let moves: [Edit; 9] = [
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
            ("shards", |b| {
                b.payload.cross_shard[0].shards.push(ShardId::new(3))
            }),
            ("order", |b| b.payload.single_shard[0].order = 1),
            ("preplayed submitted at", |b| {
                b.payload.single_shard[0].tx.submitted_at = SimTime::from_micros(1)
            }),
            ("cross-shard submitted at", |b| {
                b.payload.cross_shard[0].submitted_at = SimTime::from_micros(2)
            }),
        ];
        for (field, edit) in derived {
            let mut edited = block();
            edit(&mut edited);
            assert_eq!(edited.seal().digest(), digest, "{field}");
        }

        let header = Header::new(
            DagId::new(0),
            Round::new(1),
            ReplicaId::new(2),
            digest,
            vec![],
            SimTime::ZERO,
        );
        type HeaderEdit = (&'static str, fn(&mut Header));
        let identity: [HeaderEdit; 4] = [
            ("dag", |h| h.dag = DagId::new(1)),
            ("round", |h| h.round = Round::new(2)),
            ("author", |h| h.author = ReplicaId::new(3)),
            ("created at", |h| h.created_at = SimTime::from_micros(1)),
        ];
        for (field, edit) in identity {
            let mut edited = header.clone();
            edit(&mut edited);
            assert_ne!(edited.digest(), header.digest(), "{field}");
        }
    }

    /// A sealed block keeps exactly what it ships: it equals the block its
    /// encoding decodes to, digest included. The submission times its
    /// proposer stamped are not shipped, so the seal zeroes them.
    #[test]
    fn a_sealed_block_equals_its_decoded_copy() {
        let mut outcome = ExecOutcome::default();
        outcome.record_read(Key::checking(1), Value::int(10));
        outcome.record_write(Key::checking(1), Value::int(5));
        let stamped = |id| Transaction {
            submitted_at: SimTime::from_millis(id),
            ..sample_tx(id)
        };
        let mut block = sample_block(BlockKind::Normal);
        block
            .payload
            .single_shard
            .push(PreplayedTx::new(stamped(1), outcome, 0));
        block.payload.cross_shard.push(stamped(2));
        let sealed = block.seal();
        let outcome = &sealed.payload.single_shard[0].outcome;
        assert_eq!(outcome.read_set.len(), 1);
        assert!(outcome.write_set.is_empty());
        let payload = &sealed.payload;
        let txs = payload.single_shard.iter().map(|p| &p.tx);
        assert!(txs
            .chain(&payload.cross_shard)
            .all(|tx| tx.submitted_at == SimTime::ZERO));
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
            tx.shards = vec![ShardId::new(3), ShardId::new(9)].into();
            PreplayedTx::new(tx, ExecOutcome::default(), order)
        };
        let mut block = sample_block(BlockKind::Normal);
        block.payload.single_shard = vec![preplayed(1, 7), preplayed(2, 0), preplayed(3, 7)];
        let mut cross = sample_tx(4);
        cross.call = ContractCall::SmallBank(SmallBankProcedure::SendPayment {
            from: 1,
            to: 2,
            amount: 1,
        });
        cross.shards = ShardSet::new();
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
            *sealed.payload.cross_shard[0].shards,
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
            .push(PreplayedTx::new(sample_tx(2), ExecOutcome::default(), 0));
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    fn display_mentions_kind_and_count() {
        let s = sample_block(BlockKind::Normal).to_string();
        assert!(s.contains("normal"));
        assert!(s.contains("txs=0"));
    }
}
