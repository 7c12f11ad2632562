//! Operations, access records and execution outcomes.
//!
//! A contract interacts with the state through `<Read, K>` and
//! `<Write, K, V>` operations (paper Section 3.1). Preplaying a transaction
//! produces an [`ExecOutcome`]: the read set (with the values observed) and
//! the write set (with the values produced), each in the order the
//! transaction first touched its keys. A shard proposer ships the read set
//! inside its block, and every replica derives the write set from it (paper
//! Section 4, "Validation").

use crate::inline_vec::InlineVec;
use crate::key::Key;
use crate::value::Value;
use std::fmt;

/// Kind of a state operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// `<Read, K>`: observe the current value of a key.
    Read,
    /// `<Write, K, V>`: replace the value of a key.
    Write,
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpKind::Read => f.write_str("R"),
            OpKind::Write => f.write_str("W"),
        }
    }
}

/// A single state operation issued by an executing contract.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Operation {
    /// Read the value stored under `key`.
    Read {
        /// Key to read.
        key: Key,
    },
    /// Write `value` under `key`.
    Write {
        /// Key to write.
        key: Key,
        /// New value.
        value: Value,
    },
}

impl Operation {
    /// Creates a read operation.
    pub const fn read(key: Key) -> Self {
        Operation::Read { key }
    }

    /// Creates a write operation.
    pub const fn write(key: Key, value: Value) -> Self {
        Operation::Write { key, value }
    }

    /// The key this operation touches.
    pub const fn key(&self) -> Key {
        match self {
            Operation::Read { key } | Operation::Write { key, .. } => *key,
        }
    }

    /// The kind of the operation.
    pub const fn kind(&self) -> OpKind {
        match self {
            Operation::Read { .. } => OpKind::Read,
            Operation::Write { .. } => OpKind::Write,
        }
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operation::Read { key } => write!(f, "(R, {key})"),
            Operation::Write { key, value } => write!(f, "(W, {key}, {value})"),
        }
    }
}

/// Whether an access observed or produced the associated value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// The value was read.
    Read,
    /// The value was written.
    Write,
}

/// One entry of a read or write set: the key together with the value that was
/// observed (reads) or produced (writes) during preplay. The default is the
/// filler of an unused slot of a [`ReadSet`] or [`WriteSet`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AccessRecord {
    /// The accessed key.
    pub key: Key,
    /// The observed / produced value.
    pub value: Value,
}

impl AccessRecord {
    /// Creates an access record.
    pub const fn new(key: Key, value: Value) -> Self {
        AccessRecord { key, value }
    }
}

impl fmt::Display for AccessRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.key, self.value)
    }
}

/// How many accesses a read or write set holds in place. SmallBank's
/// widest call, `Amalgamate`, reads and writes three keys, so no SmallBank
/// transaction's sets leave the transaction, and a block of them, decoded,
/// replayed or dropped, costs a constant number of allocations rather than
/// one or two per transaction: on `tcp-durable` at seed 42 a committed
/// transaction cost 11.6 allocations, summed over the 4 nodes, with the
/// sets as `Vec`s, and 2.0 with three slots. A fourth slot holds nothing
/// for SmallBank and makes every outcome 80 bytes larger; it raised
/// `tcp-durable`'s `cpu_us_per_tx` from 3.48 to 3.66 µs at seed 42 (medians
/// of 6 alternating pairs, slower in 5, 2 vCPUs). A contract program that
/// touches more keys spills to the heap.
pub const INLINE_ACCESSES: usize = 3;

/// Read set of a transaction: each key it read before writing it, once,
/// with the value its *first* read observed, in the order of those first
/// reads. Up to [`INLINE_ACCESSES`] records live in place.
pub type ReadSet = InlineVec<AccessRecord, INLINE_ACCESSES>;

/// Write set of a transaction: the *final* value written per key, in the
/// order of the first write to each key. Up to [`INLINE_ACCESSES`] records
/// live in place.
pub type WriteSet = InlineVec<AccessRecord, INLINE_ACCESSES>;

/// What preplaying one transaction yields: the reads a block ships, and the
/// writes the proposer's overlay takes. Nothing reads a contract's return
/// value or abort flag, so an outcome does not keep them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecOutcome {
    /// Keys read and the values observed.
    pub read_set: ReadSet,
    /// Keys written and the final values produced.
    pub write_set: WriteSet,
}

impl ExecOutcome {
    /// Records a read of `key` observing `value`, keeping only the first read
    /// per key.
    pub fn record_read(&mut self, key: Key, value: Value) {
        if !self.read_set.iter().any(|r| r.key == key) {
            self.read_set.push(AccessRecord::new(key, value));
        }
    }

    /// Records a write of `value` to `key`, keeping only the last write per
    /// key.
    pub fn record_write(&mut self, key: Key, value: Value) {
        if let Some(existing) = self.write_set.iter_mut().find(|r| r.key == key) {
            existing.value = value;
        } else {
            self.write_set.push(AccessRecord::new(key, value));
        }
    }

    /// The value written to `key`, if any.
    pub fn written_value(&self, key: &Key) -> Option<&Value> {
        self.write_set
            .iter()
            .find(|r| r.key == *key)
            .map(|r| &r.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(row: u64) -> Key {
        Key::scratch(row)
    }

    #[test]
    fn operation_accessors() {
        let r = Operation::read(k(1));
        let w = Operation::write(k(2), Value::int(5));
        assert_eq!(r.key(), k(1));
        assert_eq!(r.kind(), OpKind::Read);
        assert_eq!(w.key(), k(2));
        assert_eq!(w.kind(), OpKind::Write);
        assert_eq!(r.to_string(), "(R, scratch/1)");
        assert_eq!(w.to_string(), "(W, scratch/2, 5)");
    }

    #[test]
    fn outcome_keeps_first_read_and_last_write() {
        let mut out = ExecOutcome::default();
        out.record_read(k(1), Value::int(3));
        out.record_read(k(1), Value::int(99));
        out.record_write(k(1), Value::int(4));
        out.record_write(k(1), Value::int(5));
        assert_eq!(*out.read_set, [AccessRecord::new(k(1), Value::int(3))]);
        assert_eq!(out.written_value(&k(1)), Some(&Value::int(5)));
        assert_eq!(out.write_set.len(), 1);
    }

    #[test]
    fn access_record_display() {
        let rec = AccessRecord::new(k(4), Value::int(2));
        assert_eq!(rec.to_string(), "scratch/4=2");
    }
}
