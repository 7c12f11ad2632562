//! Hand-rolled binary wire codec for everything that crosses a process
//! boundary.
//!
//! The workspace builds offline with no serialization framework, so this
//! module is the one codec: the [`Wire`] trait is a compact, deterministic
//! binary encoding with explicit enum tags and varint-prefixed collections.
//!
//! Format rules (see `docs/NET.md` for the full frame layout):
//!
//! - every value-like integer — ids, rounds, times, sequence numbers,
//!   collection lengths, key rows, balances, configuration fields — is an
//!   unsigned LEB128 varint: seven bits per byte, least significant group
//!   first, the high bit set on every byte but the last; `i64` is zigzag
//!   mapped first (`0, -1, 1, -2, …` → `0, 1, 2, 3, …`), so small magnitudes
//!   of either sign stay short,
//! - fixed-width little-endian only where the bits are uniformly random or
//!   the layout is positional: [`Digest`] limbs, `f64` bit patterns, the FNV
//!   digests in commit markers and commit samples, the message envelope's
//!   magic and version, and the hand-written TCP and WAL frame and file
//!   headers ([`WireWriter::put_u32_le`] and friends),
//! - a struct is its fields and an enum a `u8` tag and then its variant's
//!   fields, in the order the type's wire declaration lists them, unframed,
//! - collections (`Vec<T>`, byte strings, `String`) are a varint element
//!   count followed by the elements.
//!
//! Decoding is strict, so every buffer that decodes re-encodes to itself:
//! unknown tags fail with [`WireError::InvalidTag`], a varint that is
//! overlong (a zero final byte after the first) or longer than ten bytes
//! fails with [`WireError::InvalidVarint`], a value too large for its field
//! with [`WireError::OutOfRange`], a count larger than the bytes left with
//! [`WireError::LengthOverflow`], and [`Wire::from_wire_bytes`] rejects
//! trailing garbage (pinned for every wire type by `tests/wire_roundtrip.rs`).
//!
//! # Declaring a wire type
//!
//! One macro call lists a type's fields once, and that list writes both the
//! encoder and the decoder.
//! - [`wire_struct!`](crate::wire_struct)`(T { a, b: le })` encodes the
//!   fields in the order listed and decodes the struct literal
//!   `T { a: Wire::decode(r)?, … }`, so a field left out does not compile;
//!   a trailing `if check` names a `fn(&T) -> bool` whose `false` is
//!   [`WireError::NonCanonical`].
//! - A field a receiver derives is not shipped: `T { a, b } derives { c }`
//!   decodes `c` as its `Default`, and a trailing `then finish` names a
//!   `fn(&mut T) -> Result<(), WireError>` that runs last, where the
//!   enclosing value derives it. A block ships its shard count once; its
//!   `finish` numbers each preplayed transaction's `order` by position and
//!   derives every transaction's `shards` from its call and that count.
//! - [`wire_enum!`](crate::wire_enum)`(E { 0 => A { x }, 1 => B(y), 2 => C })`
//!   writes each variant's tag, then its fields; `E: Prefix { … }` first
//!   encodes the unit struct `Prefix` (the message envelope).
//! - A field is its type's own [`Wire`] unless a `wire_struct!` list names
//!   a codec for it: `le`, a fixed-width `u64`, for the FNV digests of
//!   commit samples and commit markers, and `reads`, the read set of an
//!   [`ExecOutcome`](crate::ExecOutcome) alone, for a preplayed
//!   transaction, which ships the reads its proposer observed and nothing a
//!   receiver derives from them (`block.rs`).
//!
//! Write an impl by hand only where the bytes are not a field list: a
//! primitive or a container, an envelope or a file header, a decoder that
//! must refuse what a field list cannot see (a WAL batch naming a key twice),
//! a shared buffer (`Value::Bytes`), or a decoder that keeps the hash of the
//! span it read (`SealedBlock`, in `block.rs`).

use crate::block::{Block, BlockKind, BlockPayload, PreplayedTx};
use crate::config::{
    CeConfig, LatencyModel, ReconfigConfig, StorageBackend, StorageConfig, SystemConfig,
};
use crate::digest::Digest;
use crate::ids::{ClientId, DagId, ReplicaId, Round, SeqNo, ShardId, TxId};
use crate::key::{Key, KeySpace};
use crate::ops::{AccessRecord, Operation};
use crate::time::SimTime;
use crate::transaction::{ContractCall, SmallBankProcedure, Transaction};
use crate::value::Value;
use crate::vertex::{Certificate, Header, Vertex};
use std::fmt;
use std::sync::Arc;

/// Longest varint encoding: a `u64` needs ⌈64 / 7⌉ = 10 bytes.
const MAX_VARINT_LEN: usize = 10;

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
    /// A varint was overlong (ended in a zero byte after its first) or ran
    /// past ten bytes or 64 bits.
    InvalidVarint,
    /// A varint decoded to a value its field cannot hold.
    OutOfRange {
        /// Name of the field's type.
        type_name: &'static str,
        /// The decoded value.
        value: u64,
    },
    /// A value decoded, but not in the one form its encoder produces (a
    /// signer list out of order, a key written twice in one batch), so it
    /// would not re-encode to the same bytes.
    NonCanonical {
        /// Name of the type being decoded.
        type_name: &'static str,
    },
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
            WireError::InvalidVarint => f.write_str("overlong or oversized varint"),
            WireError::OutOfRange { type_name, value } => {
                write!(f, "value {value} out of range for {type_name}")
            }
            WireError::NonCanonical { type_name } => {
                write!(f, "non-canonical encoding of {type_name}")
            }
            WireError::InvalidUtf8 => f.write_str("string field is not valid UTF-8"),
            WireError::InvalidHex => f.write_str("invalid hex string"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encoded length of `v` as a varint, from its highest set bit:
/// ⌈bits / 7⌉, computed as `(9 · bits + 64) / 64`, which agrees with it for
/// every `bits` in 1..=64 and costs a multiply-add and a shift.
#[inline]
const fn varint_len(v: u64) -> usize {
    let bits = 64 - (v | 1).leading_zeros() as usize;
    (bits * 9 + 64) / 64
}

/// Zigzag mapping of a signed integer onto an unsigned one.
#[inline]
const fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
const fn unzigzag(u: u64) -> i64 {
    (u >> 1) as i64 ^ -((u & 1) as i64)
}

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

    /// Appends a fixed-width little-endian `u16` (positional headers only).
    pub fn put_u16_le(&mut self, v: u16) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Appends a fixed-width little-endian `u32` (positional headers only).
    pub fn put_u32_le(&mut self, v: u32) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Appends a fixed-width little-endian `u64`, for bits that are
    /// uniformly random (digests) or sit at a fixed offset.
    pub fn put_u64_le(&mut self, v: u64) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Appends `v` as an unsigned LEB128 varint.
    #[inline]
    pub fn put_varint(&mut self, mut v: u64) {
        if self.counting {
            self.count += varint_len(v);
            return;
        }
        // With the longest encoding reserved up front, no push below takes
        // the growth path.
        self.buf.reserve(MAX_VARINT_LEN);
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Appends a collection's element count as a varint.
    pub fn put_len(&mut self, len: usize) {
        self.put_varint(len as u64);
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

    /// The bytes not read yet; the span a value is then decoded from is
    /// their first `unread().len() - remaining()` bytes.
    pub fn unread(&self) -> &'a [u8] {
        &self.buf[self.pos..]
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

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a fixed-width little-endian `u16`.
    pub fn u16_le(&mut self) -> Result<u16, WireError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a fixed-width little-endian `u32`.
    pub fn u32_le(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a fixed-width little-endian `u64`.
    pub fn u64_le(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads an unsigned LEB128 varint in its one canonical form.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, WireError> {
        match self.buf.get(self.pos) {
            Some(&byte) if byte < 0x80 => {
                self.pos += 1;
                Ok(u64::from(byte))
            }
            _ => self.varint_multi_byte(),
        }
    }

    #[inline]
    fn varint_multi_byte(&mut self) -> Result<u64, WireError> {
        let mut value = 0u64;
        for (i, &byte) in self.buf[self.pos..].iter().take(MAX_VARINT_LEN).enumerate() {
            // The tenth byte carries bit 63 alone: 1 is the only value that
            // neither overflows nor continues.
            if i == MAX_VARINT_LEN - 1 && byte > 1 {
                return Err(WireError::InvalidVarint);
            }
            value |= u64::from(byte & 0x7f) << (7 * i);
            if byte < 0x80 {
                if byte == 0 && i > 0 {
                    return Err(WireError::InvalidVarint);
                }
                self.pos += i + 1;
                return Ok(value);
            }
        }
        Err(WireError::UnexpectedEof)
    }

    /// Reads a varint that must fit in `T`.
    fn varint_in<T: TryFrom<u64>>(&mut self, type_name: &'static str) -> Result<T, WireError> {
        let value = self.varint()?;
        T::try_from(value).map_err(|_| WireError::OutOfRange { type_name, value })
    }

    /// Reads a varint element count, sanity-checked against the remaining
    /// buffer so a corrupt prefix cannot trigger huge allocations.
    pub fn seq_len(&mut self) -> Result<usize, WireError> {
        let n = self.varint()?;
        // Every encoded element occupies at least one byte, so a count
        // exceeding the remaining bytes is necessarily corrupt.
        match usize::try_from(n) {
            Ok(n) if n <= self.remaining() => Ok(n),
            _ => Err(WireError::LengthOverflow),
        }
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
    ($ty:ty, |$w:ident, $v:ident| $put:expr, |$r:ident| $get:expr) => {
        impl Wire for $ty {
            #[inline]
            fn encode(&self, $w: &mut WireWriter) {
                let $v = *self;
                $put
            }
            fn decode($r: &mut WireReader<'_>) -> Result<Self, WireError> {
                $get
            }
        }
    };
}

wire_prim!(u8, |w, v| w.put_u8(v), |r| r.u8());
wire_prim!(u16, |w, v| w.put_varint(u64::from(v)), |r| r
    .varint_in("u16"));
wire_prim!(u32, |w, v| w.put_varint(u64::from(v)), |r| r
    .varint_in("u32"));
wire_prim!(u64, |w, v| w.put_varint(v), |r| r.varint());
wire_prim!(usize, |w, v| w.put_len(v), |r| r.varint_in("usize"));
wire_prim!(i64, |w, v| w.put_varint(zigzag(v)), |r| r
    .varint()
    .map(unzigzag));
wire_prim!(f64, |w, v| w.put_u64_le(v.to_bits()), |r| r
    .u64_le()
    .map(f64::from_bits));
wire_prim!(bool, |w, v| w.put_u8(u8::from(v)), |r| match r.u8()? {
    0 => Ok(false),
    1 => Ok(true),
    tag => Err(WireError::InvalidTag {
        type_name: "bool",
        tag: u32::from(tag),
    }),
});

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

/// Boxed or shared content encodes as itself; decoding allocates one copy.
macro_rules! wire_pointer {
    ($($ptr:ident),+) => {$(
        impl<T: Wire> Wire for $ptr<T> {
            fn encode(&self, w: &mut WireWriter) {
                (**self).encode(w);
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                T::decode(r).map($ptr::new)
            }
        }
    )+};
}

wire_pointer!(Box, Arc);

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

/// Implements [`Wire`] for a struct as its fields in the order listed (see
/// "Declaring a wire type" in the module doc). Decoding is a struct literal,
/// so a field left out of the list does not compile.
#[macro_export]
macro_rules! wire_struct {
    (@put $w:ident, $v:expr) => { $crate::wire::Wire::encode($v, $w) };
    (@put $w:ident, $v:expr, le) => { $w.put_u64_le(*$v) };
    (@put $w:ident, $v:expr, reads) => { $crate::wire::Wire::encode(&$v.read_set, $w) };
    (@get $r:ident) => { $crate::wire::Wire::decode($r)? };
    (@get $r:ident, le) => { $r.u64_le()? };
    (@get $r:ident, reads) => {
        $crate::ExecOutcome {
            read_set: $crate::wire::Wire::decode($r)?,
            ..Default::default()
        }
    };
    ($ty:ident { $($field:ident $(: $codec:ident)?),+ $(,)? }
        $(derives { $($derived:ident),+ $(,)? })?
        $(if $check:ident)?
        $(then $finish:path)?) => {
        impl $crate::wire::Wire for $ty {
            fn encode(&self, w: &mut $crate::wire::WireWriter) {
                $($crate::wire_struct!(@put w, &self.$field $(, $codec)?);)+
            }
            #[inline]
            fn decode(
                r: &mut $crate::wire::WireReader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                let value = $ty {
                    $($field: $crate::wire_struct!(@get r $(, $codec)?),)+
                    $($($derived: Default::default(),)+)?
                };
                $(if !$check(&value) {
                    return Err($crate::wire::WireError::NonCanonical {
                        type_name: stringify!($ty),
                    });
                })?
                $(let mut value = value;
                $finish(&mut value)?;)?
                Ok(value)
            }
        }
    };
}

/// Implements [`Wire`] for an enum as a one-byte tag per variant followed by
/// the variant's fields in the order listed (see "Declaring a wire type" in
/// the module doc). Encoding matches every variant, so a variant without a
/// tag does not compile; decoding an unlisted tag is
/// [`WireError::InvalidTag`].
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident $(: $prefix:ident)? { $($tag:literal => $variant:ident
        $({ $($field:ident),+ $(,)? })?
        $(($($item:ident),+))?
    ),+ $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            fn encode(&self, w: &mut $crate::wire::WireWriter) {
                $($crate::wire::Wire::encode(&$prefix, w);)?
                match self {
                    $($ty::$variant $({ $($field),+ })? $(($($item),+))? => {
                        w.put_u8($tag);
                        $($($crate::wire::Wire::encode($field, w);)+)?
                        $($($crate::wire::Wire::encode($item, w);)+)?
                    })+
                }
            }
            fn decode(
                r: &mut $crate::wire::WireReader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                $(<$prefix as $crate::wire::Wire>::decode(r)?;)?
                match r.u8()? {
                    $($tag => {
                        $($(let $item = $crate::wire::Wire::decode(r)?;)+)?
                        Ok($ty::$variant
                            $({ $($field: $crate::wire::Wire::decode(r)?),+ })?
                            $(($($item),+))?)
                    })+
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

/// Ids, rounds and times are varints of their inner integer.
macro_rules! wire_newtype {
    ($ty:ty, |$v:ident| $inner:expr, $new:expr) => {
        impl Wire for $ty {
            fn encode(&self, w: &mut WireWriter) {
                let $v = *self;
                $inner.encode(w);
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Wire::decode(r).map($new)
            }
        }
    };
}

wire_newtype!(ReplicaId, |v| v.as_inner(), ReplicaId::new);
wire_newtype!(ShardId, |v| v.as_inner(), ShardId::new);
wire_newtype!(ClientId, |v| v.as_inner(), ClientId::new);
wire_newtype!(TxId, |v| v.as_inner(), TxId::new);
wire_newtype!(SeqNo, |v| v.as_inner(), SeqNo::new);
wire_newtype!(DagId, |v| v.as_inner(), DagId::new);
wire_newtype!(Round, |v| v.as_u64(), Round::new);
wire_newtype!(SimTime, |v| v.as_micros(), SimTime::from_micros);

/// Digest limbs are uniformly random: a varint would only lengthen them.
impl Wire for Digest {
    fn encode(&self, w: &mut WireWriter) {
        for limb in self.0 {
            w.put_u64_le(limb);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let mut limbs = [0u64; 4];
        for limb in &mut limbs {
            *limb = r.u64_le()?;
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

wire_struct!(Key { space, row });

impl Wire for Value {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            Value::None => w.put_u8(0),
            Value::Int(v) => {
                w.put_u8(1);
                v.encode(w);
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
            1 => Ok(Value::Int(i64::decode(r)?)),
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

wire_enum!(Operation {
    0 => Read { key },
    1 => Write { key, value },
});
wire_struct!(AccessRecord { key, value });

wire_enum!(SmallBankProcedure {
    0 => Amalgamate { from, to },
    1 => GetBalance { account },
    2 => DepositChecking { account, amount },
    3 => SendPayment { from, to, amount },
    4 => TransactSavings { account, amount },
    5 => WriteCheck { account, amount },
});

wire_enum!(ContractCall {
    0 => SmallBank(procedure),
    1 => Program { code, args, declared_keys },
    2 => KvOps(ops),
    3 => Noop,
});

// A transaction and a preplayed transaction travel only inside a block, whose
// decoder derives what they do not ship (`Block::received`).
wire_struct!(Transaction { id, client, call, submitted_at } derives { shards });
wire_struct!(PreplayedTx { tx, outcome: reads } derives { order });

wire_enum!(BlockKind {
    0 => Normal,
    1 => Skip,
    2 => Shift,
});
wire_struct!(BlockPayload {
    single_shard,
    cross_shard
});

wire_struct!(Block {
    dag,
    round,
    author,
    shard,
    n_shards,
    seq,
    kind,
    payload,
    created_at
} then Block::received);

wire_struct!(Header {
    dag,
    round,
    author,
    block_digest,
    parents,
    created_at
});

wire_struct!(Certificate { header_digest, dag, round, author, signers } if signers_are_canonical);

/// `Certificate::new` keeps signers sorted and distinct; a list in any other
/// form would smuggle duplicates past `is_valid`'s distinct-signer count and
/// would not re-encode to its own bytes.
fn signers_are_canonical(certificate: &Certificate) -> bool {
    certificate.signers.windows(2).all(|pair| pair[0] < pair[1])
}

wire_struct!(Vertex {
    header,
    block,
    certificate
});

// A node's launch configuration; structs are unframed, so nesting is flat.

wire_enum!(LatencyModel {
    0 => Instant,
    1 => Fixed { micros },
    2 => Jittered { base_micros, jitter_micros },
});
wire_enum!(StorageBackend { 0 => Mem, 1 => Wal });
wire_struct!(CeConfig {
    executors,
    batch_size,
    synthetic_op_cost_ns
});
wire_struct!(ReconfigConfig {
    silent_rounds_k,
    period_k_prime
});
wire_struct!(StorageConfig {
    backend,
    data_dir,
    compact_wal_bytes
});

wire_struct!(SystemConfig {
    n_replicas,
    ce,
    validators,
    reconfig,
    latency,
    max_rounds,
    storage
});

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
    use crate::ExecOutcome;

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
    fn varints_have_their_documented_bytes_at_the_edges() {
        let cases: [(u64, &[u8]); 7] = [
            (0, &[0x00]),
            (1, &[0x01]),
            (127, &[0x7f]),
            (128, &[0x80, 0x01]),
            (300, &[0xac, 0x02]),
            (u64::from(u32::MAX), &[0xff, 0xff, 0xff, 0xff, 0x0f]),
            (
                u64::MAX,
                &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01],
            ),
        ];
        for (value, bytes) in cases {
            assert_eq!(value.to_wire_bytes(), bytes, "{value}");
            assert_eq!(varint_len(value), bytes.len(), "{value}");
            assert_eq!(u64::from_wire_bytes(bytes), Ok(value));
        }
        // Zigzag keeps small magnitudes of either sign short and reaches
        // both ends of the range.
        for (value, bytes) in [
            (0i64, &[0x00][..]),
            (-1, &[0x01]),
            (1, &[0x02]),
            (-64, &[0x7f]),
        ] {
            assert_eq!(value.to_wire_bytes(), bytes, "{value}");
        }
        for value in [i64::MIN, i64::MAX, i64::MIN + 1, -100_000, 100_000] {
            let bytes = value.to_wire_bytes();
            assert_eq!(i64::from_wire_bytes(&bytes), Ok(value));
        }
        assert_eq!(i64::MAX.to_wire_bytes().len(), MAX_VARINT_LEN);
        assert_eq!(i64::MIN.to_wire_bytes().len(), MAX_VARINT_LEN);
        // Every length boundary agrees with counting mode, and decodes the
        // same at the end of a buffer and with bytes after it.
        for shift in 0..64 {
            for value in [(1u64 << shift) - 1, 1u64 << shift] {
                assert_eq!(value.encoded_len(), value.to_wire_bytes().len(), "{value}");
                round_trip(value);
                let mut padded = value.to_wire_bytes();
                padded.extend_from_slice(&[0xff; 8]);
                let mut r = WireReader::new(&padded);
                assert_eq!(r.varint(), Ok(value));
                assert_eq!(r.remaining(), 8, "{value}");
            }
        }
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
        round_trip(AccessRecord::new(Key::checking(1), Value::int(10)));
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
        // Alone, a transaction decodes without the shard set only the block
        // carrying it can derive; inside one it decodes whole.
        let bare = Transaction::from_wire_bytes(&tx.to_wire_bytes()).expect("decodes");
        assert!(bare.shards.is_empty());
        assert_eq!(
            Transaction {
                shards: tx.shards.clone(),
                ..bare
            },
            tx
        );

        let block = Block::normal(
            DagId::new(0),
            Round::new(2),
            ReplicaId::new(1),
            ShardId::new(1),
            4,
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
        round_trip(Arc::new(block.clone().seal()));
        round_trip(Vertex::new(header, block.seal(), cert));
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
        // A varint cut short, and a fixed-width field cut short.
        assert_eq!(u32::from_wire_bytes(&[0x81]), Err(WireError::UnexpectedEof));
        assert_eq!(
            Digest::from_wire_bytes(&[1, 2]),
            Err(WireError::UnexpectedEof)
        );
        assert_eq!(
            u8::from_wire_bytes(&[1, 2]),
            Err(WireError::TrailingBytes { remaining: 1 })
        );
        assert_eq!(
            u64::from_wire_bytes(&[5, 0]),
            Err(WireError::TrailingBytes { remaining: 1 })
        );
        // Overlong: zero written in two bytes, 1 in three — alone, and with
        // bytes behind them.
        for overlong in [&[0x80, 0x00][..], &[0x81, 0x80, 0x00]] {
            assert_eq!(
                u64::from_wire_bytes(overlong),
                Err(WireError::InvalidVarint)
            );
            let mut padded = overlong.to_vec();
            padded.extend_from_slice(&[0; 8]);
            assert_eq!(
                WireReader::new(&padded).varint(),
                Err(WireError::InvalidVarint)
            );
        }
        // Eleven bytes, and ten whose last carries more than bit 63.
        let mut eleven = vec![0xff; MAX_VARINT_LEN];
        eleven.push(0x01);
        assert_eq!(u64::from_wire_bytes(&eleven), Err(WireError::InvalidVarint));
        let mut past_u64 = vec![0xff; MAX_VARINT_LEN - 1];
        past_u64.push(0x02);
        assert_eq!(
            u64::from_wire_bytes(&past_u64),
            Err(WireError::InvalidVarint)
        );
        // A value past its field's width.
        let too_big = (u64::from(u32::MAX) + 1).to_wire_bytes();
        assert_eq!(
            u32::from_wire_bytes(&too_big),
            Err(WireError::OutOfRange {
                type_name: "u32",
                value: u64::from(u32::MAX) + 1
            })
        );
        assert!(matches!(
            ReplicaId::from_wire_bytes(&too_big),
            Err(WireError::OutOfRange { .. })
        ));
        assert_eq!(
            u32::from_wire_bytes(&u32::MAX.to_wire_bytes()),
            Ok(u32::MAX)
        );
        // A corrupt huge length prefix must not allocate.
        let mut bad = u64::MAX.to_wire_bytes();
        bad.push(0);
        assert_eq!(
            Vec::<u64>::from_wire_bytes(&bad),
            Err(WireError::LengthOverflow)
        );
        // Signers out of order or repeated are refused, not normalised.
        let header = Header::new(
            DagId::new(0),
            Round::new(1),
            ReplicaId::new(0),
            Digest::ZERO,
            vec![],
            SimTime::ZERO,
        );
        let mut cert = Certificate::for_header(&header, vec![ReplicaId::new(1)]);
        for signers in [vec![2, 1], vec![1, 1]] {
            cert.signers = signers.into_iter().map(ReplicaId::new).collect();
            assert_eq!(
                Certificate::from_wire_bytes(&cert.to_wire_bytes()),
                Err(WireError::NonCanonical {
                    type_name: "Certificate"
                })
            );
        }
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
