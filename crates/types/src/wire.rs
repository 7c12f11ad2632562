//! Hand-rolled binary wire codec for everything that crosses a process
//! boundary.
//!
//! The workspace builds offline with no serialization framework, so this
//! module is the one codec: the [`Wire`] trait is a compact, deterministic,
//! little-endian binary encoding with explicit enum tags and `u32`-prefixed
//! collections, implemented by hand for every type that appears inside a
//! consensus message ([`crate::vertex::Vertex`] and below).
//!
//! Format rules (see `docs/NET.md` for the full frame layout):
//!
//! - integers are fixed-width little-endian (`u8`/`u16`/`u32`/`u64`/`i64`);
//!   `f64` travels as its IEEE-754 bit pattern in a `u64`,
//! - enums are a `u8` tag followed by the variant fields in declaration
//!   order,
//! - collections (`Vec<T>`, byte strings, `String`) are a `u32` element
//!   count followed by the elements,
//! - structs are their fields in declaration order, no framing.
//!
//! Decoding is strict: unknown tags fail with [`WireError::InvalidTag`] and
//! [`Wire::from_wire_bytes`] rejects trailing garbage, so `encode → decode`
//! is identity and nothing else parses (pinned by proptest round-trips in
//! `tb-core`).

use crate::block::{Block, BlockKind, BlockPayload, PreplayedTx};
use crate::config::{
    CeConfig, LatencyModel, ReconfigConfig, StorageBackend, StorageConfig, SystemConfig,
};
use crate::digest::Digest;
use crate::ids::{ClientId, DagId, ReplicaId, Round, SeqNo, ShardId, TxId};
use crate::key::{Key, KeySpace};
use crate::ops::{AccessRecord, ExecOutcome, Operation};
use crate::time::SimTime;
use crate::transaction::{ContractCall, SmallBankProcedure, Transaction};
use crate::value::Value;
use crate::vertex::{Certificate, Header, Vertex};
use std::fmt;
use std::sync::Arc;

/// Errors produced while decoding (or validating) a wire buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    UnexpectedEof,
    /// An enum tag byte had no matching variant.
    InvalidTag {
        /// Name of the type being decoded.
        type_name: &'static str,
        /// The offending tag value.
        tag: u32,
    },
    /// Bytes remained after the top-level value was fully decoded.
    TrailingBytes {
        /// Number of unread bytes.
        remaining: usize,
    },
    /// A message envelope carried the wrong magic number.
    BadMagic {
        /// The magic value found in the buffer.
        found: u32,
    },
    /// A message envelope carried a wire-format version we do not speak.
    UnsupportedVersion {
        /// The version found in the buffer.
        found: u16,
    },
    /// A length prefix was too large for the remaining buffer.
    LengthOverflow,
    /// A string field was not valid UTF-8.
    InvalidUtf8,
    /// A hex string contained a non-hex character or had odd length.
    InvalidHex,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof => f.write_str("unexpected end of wire buffer"),
            WireError::InvalidTag { type_name, tag } => {
                write!(f, "invalid tag {tag} while decoding {type_name}")
            }
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after decoded value")
            }
            WireError::BadMagic { found } => write!(f, "bad envelope magic {found:#010x}"),
            WireError::UnsupportedVersion { found } => {
                write!(f, "unsupported wire format version {found}")
            }
            WireError::LengthOverflow => f.write_str("length prefix exceeds remaining buffer"),
            WireError::InvalidUtf8 => f.write_str("string field is not valid UTF-8"),
            WireError::InvalidHex => f.write_str("invalid hex string"),
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only encoder. In *counting* mode it only tracks the encoded size,
/// which lets [`Wire::encoded_len`] measure a value without allocating.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
    counting: bool,
    count: usize,
}

impl WireWriter {
    /// A writer that materializes bytes.
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// A writer that only counts bytes (nothing is stored).
    pub fn counting() -> Self {
        WireWriter {
            buf: Vec::new(),
            counting: true,
            count: 0,
        }
    }

    /// Bytes written (or counted) so far.
    pub fn len(&self) -> usize {
        if self.counting {
            self.count
        } else {
            self.buf.len()
        }
    }

    /// True if nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consumes the writer, returning the encoded bytes. Empty in counting
    /// mode.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends raw bytes.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        if self.counting {
            self.count += bytes.len();
        } else {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.put_raw(&[v]);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a `u32` element-count prefix, failing loudly on overflow.
    pub fn put_len(&mut self, len: usize) {
        let len32 = u32::try_from(len).expect("collection length exceeds u32::MAX");
        self.put_u32(len32);
    }
}

/// Cursor over a wire buffer.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Unread bytes left in the buffer.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(self.u64()? as i64)
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool byte, rejecting anything but 0 or 1.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::InvalidTag {
                type_name: "bool",
                tag: u32::from(tag),
            }),
        }
    }

    /// Reads a `u32` element count, sanity-checked against the remaining
    /// buffer so a corrupt prefix cannot trigger huge allocations.
    pub fn seq_len(&mut self) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        // Every encoded element occupies at least one byte, so a count
        // exceeding the remaining bytes is necessarily corrupt.
        if n > self.remaining() {
            return Err(WireError::LengthOverflow);
        }
        Ok(n)
    }

    /// Succeeds only if the whole buffer was consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                remaining: self.remaining(),
            })
        }
    }
}

/// Deterministic binary encoding to / decoding from a byte buffer.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to the writer.
    fn encode(&self, w: &mut WireWriter);

    /// Decodes one value from the reader, advancing its cursor.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Size of the encoding in bytes, computed without allocating.
    fn encoded_len(&self) -> usize {
        let mut w = WireWriter::counting();
        self.encode(&mut w);
        w.len()
    }

    /// Encodes `self` into a fresh buffer.
    fn to_wire_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Decodes a value that must occupy the whole buffer.
    fn from_wire_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let value = Self::decode(&mut r)?;
        r.finish()?;
        Ok(value)
    }
}

macro_rules! wire_prim {
    ($ty:ty, $put:ident, $get:ident) => {
        impl Wire for $ty {
            fn encode(&self, w: &mut WireWriter) {
                w.$put(*self);
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                r.$get()
            }
        }
    };
}

wire_prim!(u8, put_u8, u8);
wire_prim!(u16, put_u16, u16);
wire_prim!(u32, put_u32, u32);
wire_prim!(u64, put_u64, u64);
wire_prim!(i64, put_i64, i64);
wire_prim!(f64, put_f64, f64);
wire_prim!(bool, put_bool, bool);

impl Wire for String {
    fn encode(&self, w: &mut WireWriter) {
        w.put_len(self.len());
        w.put_raw(self.as_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.seq_len()?;
        let bytes = r.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::InvalidUtf8)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut WireWriter) {
        w.put_len(self.len());
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.seq_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

/// Shared content encodes as the content itself; decoding allocates the one
/// copy every later holder shares.
impl<T: Wire> Wire for Arc<T> {
    fn encode(&self, w: &mut WireWriter) {
        (**self).encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        T::decode(r).map(Arc::new)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::InvalidTag {
                type_name: "Option",
                tag: u32::from(tag),
            }),
        }
    }
}

/// Implements [`Wire`] for a fieldless enum as the one-byte tags listed.
/// Encoding matches every variant, so a variant without a tag does not
/// compile; decoding an unlisted tag is [`WireError::InvalidTag`].
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident { $($tag:literal => $variant:ident),+ $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            fn encode(&self, w: &mut $crate::wire::WireWriter) {
                w.put_u8(match self {
                    $($ty::$variant => $tag,)+
                });
            }
            fn decode(
                r: &mut $crate::wire::WireReader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                match r.u8()? {
                    $($tag => Ok($ty::$variant),)+
                    tag => Err($crate::wire::WireError::InvalidTag {
                        type_name: stringify!($ty),
                        tag: u32::from(tag),
                    }),
                }
            }
        }
    };
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, w: &mut WireWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

macro_rules! wire_id {
    ($ty:ty, $inner:ty, $put:ident, $get:ident) => {
        impl Wire for $ty {
            fn encode(&self, w: &mut WireWriter) {
                w.$put(self.as_inner());
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok(<$ty>::new(r.$get()?))
            }
        }
    };
}

wire_id!(ReplicaId, u32, put_u32, u32);
wire_id!(ShardId, u32, put_u32, u32);
wire_id!(ClientId, u32, put_u32, u32);
wire_id!(TxId, u64, put_u64, u64);
wire_id!(SeqNo, u64, put_u64, u64);
wire_id!(DagId, u64, put_u64, u64);

impl Wire for Round {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.as_u64());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Round::new(r.u64()?))
    }
}

impl Wire for SimTime {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.as_micros());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(SimTime::from_micros(r.u64()?))
    }
}

impl Wire for Digest {
    fn encode(&self, w: &mut WireWriter) {
        for limb in self.0 {
            w.put_u64(limb);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let mut limbs = [0u64; 4];
        for limb in &mut limbs {
            *limb = r.u64()?;
        }
        Ok(Digest(limbs))
    }
}

wire_enum!(KeySpace {
    0 => Checking,
    1 => Savings,
    2 => Contract,
    3 => Scratch,
});

impl Wire for Key {
    fn encode(&self, w: &mut WireWriter) {
        self.space.encode(w);
        w.put_u64(self.row);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Key {
            space: KeySpace::decode(r)?,
            row: r.u64()?,
        })
    }
}

impl Wire for Value {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            Value::None => w.put_u8(0),
            Value::Int(v) => {
                w.put_u8(1);
                w.put_i64(*v);
            }
            Value::Bytes(b) => {
                w.put_u8(2);
                w.put_len(b.len());
                w.put_raw(&b[..]);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(Value::None),
            1 => Ok(Value::Int(r.i64()?)),
            2 => {
                let n = r.seq_len()?;
                Ok(Value::Bytes(r.take(n)?.into()))
            }
            tag => Err(WireError::InvalidTag {
                type_name: "Value",
                tag: u32::from(tag),
            }),
        }
    }
}

impl Wire for Operation {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            Operation::Read { key } => {
                w.put_u8(0);
                Wire::encode(key, w);
            }
            Operation::Write { key, value } => {
                w.put_u8(1);
                Wire::encode(key, w);
                value.encode(w);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(Operation::Read {
                key: Key::decode(r)?,
            }),
            1 => Ok(Operation::Write {
                key: Key::decode(r)?,
                value: Value::decode(r)?,
            }),
            tag => Err(WireError::InvalidTag {
                type_name: "Operation",
                tag: u32::from(tag),
            }),
        }
    }
}

impl Wire for AccessRecord {
    fn encode(&self, w: &mut WireWriter) {
        Wire::encode(&self.key, w);
        self.value.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(AccessRecord {
            key: Key::decode(r)?,
            value: Value::decode(r)?,
        })
    }
}

impl Wire for ExecOutcome {
    fn encode(&self, w: &mut WireWriter) {
        self.read_set.encode(w);
        self.write_set.encode(w);
        self.return_value.encode(w);
        w.put_bool(self.logically_aborted);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ExecOutcome {
            read_set: Vec::decode(r)?,
            write_set: Vec::decode(r)?,
            return_value: Value::decode(r)?,
            logically_aborted: r.bool()?,
        })
    }
}

impl Wire for SmallBankProcedure {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            SmallBankProcedure::Amalgamate { from, to } => {
                w.put_u8(0);
                w.put_u64(*from);
                w.put_u64(*to);
            }
            SmallBankProcedure::GetBalance { account } => {
                w.put_u8(1);
                w.put_u64(*account);
            }
            SmallBankProcedure::DepositChecking { account, amount } => {
                w.put_u8(2);
                w.put_u64(*account);
                w.put_i64(*amount);
            }
            SmallBankProcedure::SendPayment { from, to, amount } => {
                w.put_u8(3);
                w.put_u64(*from);
                w.put_u64(*to);
                w.put_i64(*amount);
            }
            SmallBankProcedure::TransactSavings { account, amount } => {
                w.put_u8(4);
                w.put_u64(*account);
                w.put_i64(*amount);
            }
            SmallBankProcedure::WriteCheck { account, amount } => {
                w.put_u8(5);
                w.put_u64(*account);
                w.put_i64(*amount);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(SmallBankProcedure::Amalgamate {
                from: r.u64()?,
                to: r.u64()?,
            }),
            1 => Ok(SmallBankProcedure::GetBalance { account: r.u64()? }),
            2 => Ok(SmallBankProcedure::DepositChecking {
                account: r.u64()?,
                amount: r.i64()?,
            }),
            3 => Ok(SmallBankProcedure::SendPayment {
                from: r.u64()?,
                to: r.u64()?,
                amount: r.i64()?,
            }),
            4 => Ok(SmallBankProcedure::TransactSavings {
                account: r.u64()?,
                amount: r.i64()?,
            }),
            5 => Ok(SmallBankProcedure::WriteCheck {
                account: r.u64()?,
                amount: r.i64()?,
            }),
            tag => Err(WireError::InvalidTag {
                type_name: "SmallBankProcedure",
                tag: u32::from(tag),
            }),
        }
    }
}

impl Wire for ContractCall {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            ContractCall::SmallBank(p) => {
                w.put_u8(0);
                p.encode(w);
            }
            ContractCall::Program {
                code,
                args,
                declared_keys,
            } => {
                w.put_u8(1);
                w.put_len(code.len());
                w.put_raw(code);
                args.encode(w);
                declared_keys.encode(w);
            }
            ContractCall::KvOps(ops) => {
                w.put_u8(2);
                ops.encode(w);
            }
            ContractCall::Noop => w.put_u8(3),
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(ContractCall::SmallBank(SmallBankProcedure::decode(r)?)),
            1 => {
                let n = r.seq_len()?;
                let code = r.take(n)?.to_vec();
                Ok(ContractCall::Program {
                    code,
                    args: Vec::decode(r)?,
                    declared_keys: Vec::decode(r)?,
                })
            }
            2 => Ok(ContractCall::KvOps(Vec::decode(r)?)),
            3 => Ok(ContractCall::Noop),
            tag => Err(WireError::InvalidTag {
                type_name: "ContractCall",
                tag: u32::from(tag),
            }),
        }
    }
}

impl Wire for Transaction {
    fn encode(&self, w: &mut WireWriter) {
        self.id.encode(w);
        self.client.encode(w);
        self.call.encode(w);
        self.shards.encode(w);
        self.submitted_at.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Transaction {
            id: TxId::decode(r)?,
            client: ClientId::decode(r)?,
            call: ContractCall::decode(r)?,
            shards: Vec::decode(r)?,
            submitted_at: SimTime::decode(r)?,
        })
    }
}

impl Wire for PreplayedTx {
    fn encode(&self, w: &mut WireWriter) {
        self.tx.encode(w);
        self.outcome.encode(w);
        w.put_u32(self.order);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(PreplayedTx {
            tx: Transaction::decode(r)?,
            outcome: ExecOutcome::decode(r)?,
            order: r.u32()?,
        })
    }
}

wire_enum!(BlockKind {
    0 => Normal,
    1 => Skip,
    2 => Shift,
});

impl Wire for BlockPayload {
    fn encode(&self, w: &mut WireWriter) {
        self.single_shard.encode(w);
        self.cross_shard.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(BlockPayload {
            single_shard: Vec::decode(r)?,
            cross_shard: Vec::decode(r)?,
        })
    }
}

impl Wire for Block {
    fn encode(&self, w: &mut WireWriter) {
        self.dag.encode(w);
        self.round.encode(w);
        self.author.encode(w);
        self.shard.encode(w);
        self.seq.encode(w);
        self.kind.encode(w);
        self.payload.encode(w);
        self.created_at.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Block {
            dag: DagId::decode(r)?,
            round: Round::decode(r)?,
            author: ReplicaId::decode(r)?,
            shard: ShardId::decode(r)?,
            seq: SeqNo::decode(r)?,
            kind: BlockKind::decode(r)?,
            payload: BlockPayload::decode(r)?,
            created_at: SimTime::decode(r)?,
        })
    }
}

impl Wire for Header {
    fn encode(&self, w: &mut WireWriter) {
        self.dag.encode(w);
        self.round.encode(w);
        self.author.encode(w);
        self.block_digest.encode(w);
        self.parents.encode(w);
        self.created_at.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Header {
            dag: DagId::decode(r)?,
            round: Round::decode(r)?,
            author: ReplicaId::decode(r)?,
            block_digest: Digest::decode(r)?,
            parents: Vec::decode(r)?,
            created_at: SimTime::decode(r)?,
        })
    }
}

impl Wire for Certificate {
    fn encode(&self, w: &mut WireWriter) {
        self.header_digest.encode(w);
        self.dag.encode(w);
        self.round.encode(w);
        self.author.encode(w);
        self.signers.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        // `Certificate::new` re-normalizes the signer list, so a peer cannot
        // smuggle duplicates past `is_valid`'s distinct-signer count.
        Ok(Certificate::new(
            Digest::decode(r)?,
            DagId::decode(r)?,
            Round::decode(r)?,
            ReplicaId::decode(r)?,
            Vec::decode(r)?,
        ))
    }
}

impl Wire for Vertex {
    fn encode(&self, w: &mut WireWriter) {
        self.header.encode(w);
        self.block.encode(w);
        self.certificate.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Vertex {
            header: Header::decode(r)?,
            block: Arc::decode(r)?,
            certificate: Certificate::decode(r)?,
        })
    }
}

// The configuration a node process is launched with. Decoders are struct
// literals, so a field added to a config type does not compile until it
// travels too.

impl Wire for LatencyModel {
    fn encode(&self, w: &mut WireWriter) {
        match *self {
            LatencyModel::Instant => w.put_u8(0),
            LatencyModel::Fixed { micros } => {
                w.put_u8(1);
                w.put_u64(micros);
            }
            LatencyModel::Jittered {
                base_micros,
                jitter_micros,
            } => {
                w.put_u8(2);
                w.put_u64(base_micros);
                w.put_u64(jitter_micros);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(LatencyModel::Instant),
            1 => Ok(LatencyModel::Fixed { micros: r.u64()? }),
            2 => Ok(LatencyModel::Jittered {
                base_micros: r.u64()?,
                jitter_micros: r.u64()?,
            }),
            tag => Err(WireError::InvalidTag {
                type_name: "LatencyModel",
                tag: u32::from(tag),
            }),
        }
    }
}

wire_enum!(StorageBackend { 0 => Mem, 1 => Wal });

impl Wire for SystemConfig {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(self.n_replicas);
        w.put_u64(self.ce.executors as u64);
        w.put_u64(self.ce.batch_size as u64);
        w.put_u64(self.ce.max_retries as u64);
        w.put_u64(self.ce.synthetic_op_cost_ns);
        w.put_u64(self.validators as u64);
        w.put_u64(self.reconfig.silent_rounds_k);
        w.put_u64(self.reconfig.period_k_prime);
        self.latency.encode(w);
        w.put_u64(self.max_rounds);
        self.storage.backend.encode(w);
        self.storage.data_dir.encode(w);
        w.put_u64(self.storage.compact_wal_bytes);
        w.put_u64(self.storage.flush_buffered_writes);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(SystemConfig {
            n_replicas: r.u32()?,
            ce: CeConfig {
                executors: r.u64()? as usize,
                batch_size: r.u64()? as usize,
                max_retries: r.u64()? as usize,
                synthetic_op_cost_ns: r.u64()?,
            },
            validators: r.u64()? as usize,
            reconfig: ReconfigConfig {
                silent_rounds_k: r.u64()?,
                period_k_prime: r.u64()?,
            },
            latency: LatencyModel::decode(r)?,
            max_rounds: r.u64()?,
            storage: StorageConfig {
                backend: StorageBackend::decode(r)?,
                data_dir: String::decode(r)?,
                compact_wal_bytes: r.u64()?,
                flush_buffered_writes: r.u64()?,
            },
        })
    }
}

/// Lower-case hex encoding, used to pass wire buffers through environment
/// variables and stdout lines (node spec / node report hand-off).
pub fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(char::from_digit(u32::from(b >> 4), 16).unwrap());
        out.push(char::from_digit(u32::from(b & 0xf), 16).unwrap());
    }
    out
}

/// Inverse of [`to_hex`].
pub fn from_hex(s: &str) -> Result<Vec<u8>, WireError> {
    let s = s.trim();
    if !s.len().is_multiple_of(2) {
        return Err(WireError::InvalidHex);
    }
    let digits = s.as_bytes();
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in digits.chunks_exact(2) {
        let hi = (pair[0] as char)
            .to_digit(16)
            .ok_or(WireError::InvalidHex)?;
        let lo = (pair[1] as char)
            .to_digit(16)
            .ok_or(WireError::InvalidHex)?;
        out.push(((hi << 4) | lo) as u8);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = value.to_wire_bytes();
        assert_eq!(bytes.len(), value.encoded_len(), "counting mode disagrees");
        let back = T::from_wire_bytes(&bytes).expect("decode");
        assert_eq!(back, value);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(u16::MAX);
        round_trip(0xdead_beefu32);
        round_trip(u64::MAX);
        round_trip(-42i64);
        round_trip(true);
        round_trip(std::f64::consts::PI);
        round_trip(String::from("héllo wire"));
        round_trip(vec![1u32, 2, 3]);
        round_trip(Option::<u64>::None);
        round_trip(Some(7u64));
    }

    #[test]
    fn ids_and_time_round_trip() {
        round_trip(ReplicaId::new(3));
        round_trip(ShardId::new(9));
        round_trip(ClientId::new(1));
        round_trip(TxId::new(u64::MAX));
        round_trip(SeqNo::new(12));
        round_trip(DagId::new(2));
        round_trip(Round::new(77));
        round_trip(SimTime::from_micros(123_456));
        round_trip(Digest([1, 2, 3, u64::MAX]));
    }

    #[test]
    fn values_and_ops_round_trip() {
        round_trip(Value::None);
        round_trip(Value::int(-5));
        round_trip(Value::bytes(vec![1, 2, 3]));
        round_trip(Key::checking(42));
        round_trip(Operation::read(Key::savings(1)));
        round_trip(Operation::write(Key::scratch(2), Value::int(9)));
        let mut outcome = ExecOutcome::empty();
        outcome.record_read(Key::checking(1), Value::int(10));
        outcome.record_write(Key::checking(1), Value::int(5));
        outcome.logically_aborted = true;
        round_trip(outcome);
    }

    #[test]
    fn transaction_and_vertex_round_trip() {
        let tx = Transaction::new(
            TxId::new(7),
            ClientId::new(1),
            ContractCall::SmallBank(SmallBankProcedure::SendPayment {
                from: 0,
                to: 1,
                amount: 3,
            }),
            4,
            SimTime::from_micros(10),
        );
        round_trip(tx.clone());

        let block = Block::normal(
            DagId::new(0),
            Round::new(2),
            ReplicaId::new(1),
            ShardId::new(1),
            SeqNo::new(4),
            BlockPayload {
                single_shard: vec![PreplayedTx::new(tx.clone(), ExecOutcome::empty(), 0)],
                cross_shard: vec![tx],
            },
            SimTime::ZERO,
        );
        round_trip(block.clone());

        let header = Header::new(
            DagId::new(0),
            Round::new(2),
            ReplicaId::new(1),
            Digest([9, 9, 9, 9]),
            vec![Digest::ZERO],
            SimTime::ZERO,
        );
        let cert = Certificate::for_header(
            &header,
            vec![ReplicaId::new(0), ReplicaId::new(1), ReplicaId::new(2)],
        );
        round_trip(header.clone());
        round_trip(cert.clone());
        round_trip(Arc::new(block.clone()));
        round_trip(Vertex::new(header, block, cert));
    }

    #[test]
    fn strict_decoding_rejects_corruption() {
        assert_eq!(
            Value::from_wire_bytes(&[9]),
            Err(WireError::InvalidTag {
                type_name: "Value",
                tag: 9
            })
        );
        assert_eq!(u32::from_wire_bytes(&[1, 2]), Err(WireError::UnexpectedEof));
        assert_eq!(
            u8::from_wire_bytes(&[1, 2]),
            Err(WireError::TrailingBytes { remaining: 1 })
        );
        // A corrupt huge length prefix must not allocate.
        let mut bad = 0xffff_ffffu32.to_le_bytes().to_vec();
        bad.push(0);
        assert_eq!(
            Vec::<u64>::from_wire_bytes(&bad),
            Err(WireError::LengthOverflow)
        );
    }

    #[test]
    fn hex_round_trip() {
        let bytes = vec![0x00, 0x0f, 0xf0, 0xff, 0x12];
        let hex = to_hex(&bytes);
        assert_eq!(hex, "000ff0ff12");
        assert_eq!(from_hex(&hex).unwrap(), bytes);
        assert_eq!(from_hex("zz"), Err(WireError::InvalidHex));
        assert_eq!(from_hex("abc"), Err(WireError::InvalidHex));
    }
}
