//! Values stored under keys.
//!
//! The evaluation workload (SmallBank) stores account balances, so the
//! dominant representation is a signed integer. Contract programs may also
//! store opaque byte strings, and a missing key reads as [`Value::None`].

use std::fmt;
use std::sync::Arc;

/// A value stored in the state, read by a `<Read, K>` operation or written by
/// a `<Write, K, V>` operation (paper Section 3.1 data model).
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum Value {
    /// The key is absent (or was deleted).
    #[default]
    None,
    /// A signed 64-bit integer; used for all SmallBank balances.
    Int(i64),
    /// An opaque byte string produced by contract programs; clones share
    /// the buffer.
    Bytes(Arc<[u8]>),
}

impl Value {
    /// Convenience constructor for integer values.
    pub const fn int(v: i64) -> Self {
        Value::Int(v)
    }

    /// Convenience constructor for byte values.
    pub fn bytes(v: impl Into<Arc<[u8]>>) -> Self {
        Value::Bytes(v.into())
    }

    /// Returns the integer content, treating `None` as zero.
    ///
    /// SmallBank initializes missing accounts lazily, so an absent balance is
    /// semantically zero; contract programs follow the same convention.
    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(v) => *v,
            Value::None => 0,
            Value::Bytes(b) => {
                let mut buf = [0u8; 8];
                let n = b.len().min(8);
                buf[..n].copy_from_slice(&b[..n]);
                i64::from_le_bytes(buf)
            }
        }
    }

    /// Returns `true` if the value is [`Value::None`].
    pub fn is_none(&self) -> bool {
        matches!(self, Value::None)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::None => write!(f, "∅"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Bytes(b) => write!(f, "0x{}", hex(b)),
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<Option<i64>> for Value {
    fn from(v: Option<i64>) -> Self {
        v.map(Value::Int).unwrap_or(Value::None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_reads_as_zero() {
        assert_eq!(Value::None.as_int(), 0);
        assert!(Value::None.is_none());
    }

    #[test]
    fn int_round_trip() {
        let v = Value::int(-17);
        assert_eq!(v.as_int(), -17);
        assert!(!v.is_none());
        assert_eq!(v, Value::from(-17));
    }

    #[test]
    fn bytes_as_int_uses_le_prefix() {
        let v = Value::bytes(vec![1, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(v.as_int(), 1);
        let short = Value::bytes(vec![2]);
        assert_eq!(short.as_int(), 2);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::int(5).to_string(), "5");
        assert_eq!(Value::None.to_string(), "∅");
        assert_eq!(Value::bytes(vec![0xab, 0x01]).to_string(), "0xab01");
    }

    #[test]
    fn encoded_len_reflects_payload() {
        use crate::wire::Wire;
        assert_eq!(Value::None.encoded_len(), 1);
        assert_eq!(Value::int(1).encoded_len(), 2);
        assert_eq!(Value::int(100_000).encoded_len(), 4);
        assert_eq!(Value::bytes(vec![0; 10]).encoded_len(), 12);
    }
}
