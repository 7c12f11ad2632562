//! Read access to storage. Writing is [`Store::apply_batches`](crate::Store::apply_batches)'s
//! job alone.

use tb_types::{Key, Value};

/// A value together with the version counter of its key.
///
/// The version starts at zero for absent keys and increases by one with
/// every committed write. The OCC baseline validates transactions by
/// comparing the versions it read against the current versions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Versioned {
    /// The stored value ([`Value::None`] when the key is absent).
    pub value: Value,
    /// Number of committed writes to the key.
    pub version: u64,
}

impl Versioned {
    /// Creates a versioned value.
    pub fn new(value: Value, version: u64) -> Self {
        Versioned { value, version }
    }
}

/// Read access to a key-value state.
pub trait KvRead {
    /// Returns the current value of `key` ([`Value::None`] if absent).
    fn get(&self, key: &Key) -> Value;

    /// Returns the current value and version of `key`.
    fn get_versioned(&self, key: &Key) -> Versioned;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_versioned_is_zero() {
        let v = Versioned::default();
        assert_eq!(v.version, 0);
        assert!(v.value.is_none());
    }

    #[test]
    fn constructor_stores_fields() {
        let v = Versioned::new(Value::int(5), 3);
        assert_eq!(v.value, Value::int(5));
        assert_eq!(v.version, 3);
    }
}
