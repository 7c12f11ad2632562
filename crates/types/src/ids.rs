//! Identifier newtypes used across the system.
//!
//! Every identifier is a thin, `Copy`, ordered wrapper around an integer so
//! they can be used as map keys and serialized cheaply, while keeping the
//! type system able to distinguish e.g. a replica index from a shard index.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $inner:ty, $prefix:expr) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub $inner);

        impl $name {
            /// Creates a new identifier from the raw integer.
            pub const fn new(raw: $inner) -> Self {
                Self(raw)
            }

            /// Returns the raw integer value.
            pub const fn as_inner(self) -> $inner {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", $prefix, self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(raw: $inner) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for $inner {
            fn from(id: $name) -> $inner {
                id.0
            }
        }
    };
}

id_type!(
    /// Index of a replica in the committee (`0..n`). Each replica also acts as
    /// a shard proposer for exactly one shard at a time (paper Section 3.1).
    ReplicaId,
    u32,
    "R"
);

id_type!(
    /// Identifier of a data shard. Every key is statically assigned to one
    /// shard (its `SID`); the replica currently responsible for the shard is
    /// given by the [`crate::committee::ShardAssignment`].
    ShardId,
    u32,
    "S"
);

id_type!(
    /// Identifier of a client submitting transactions.
    ClientId,
    u32,
    "C"
);

id_type!(
    /// Globally unique transaction identifier.
    TxId,
    u64,
    "T"
);

id_type!(
    /// Identifier of one DAG instance. A new DAG (with a new `DagId`) is
    /// started on every non-blocking reconfiguration (paper Section 6).
    DagId,
    u64,
    "D"
);

/// A DAG round. Rounds advance in lock step inside one DAG instance; the
/// round counter restarts from the *ending round* when a new DAG begins.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Round(pub u64);

impl Round {
    /// The first round of a DAG.
    pub const ZERO: Round = Round(0);

    /// Creates a round from the raw counter.
    pub const fn new(raw: u64) -> Self {
        Round(raw)
    }

    /// Returns the next round.
    pub const fn next(self) -> Round {
        Round(self.0 + 1)
    }

    /// Returns the previous round, saturating at zero.
    pub const fn prev(self) -> Round {
        Round(self.0.saturating_sub(1))
    }

    /// Returns the raw counter.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Whether this round elects a leader. Tusk commits a leader vertex every
    /// two rounds; we follow the paper's convention of electing leaders on
    /// odd rounds (Figure 4 selects leaders in rounds 1, 3, 5, ...).
    pub const fn is_leader_round(self) -> bool {
        self.0 % 2 == 1
    }
}

impl fmt::Display for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl From<u64> for Round {
    fn from(raw: u64) -> Self {
        Round(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_display_uses_prefix() {
        assert_eq!(ReplicaId::new(3).to_string(), "R3");
        assert_eq!(ShardId::new(7).to_string(), "S7");
        assert_eq!(TxId::new(42).to_string(), "T42");
        assert_eq!(DagId::new(1).to_string(), "D1");
        assert_eq!(Round::new(5).to_string(), "r5");
    }

    #[test]
    fn round_arithmetic() {
        let r = Round::new(4);
        assert_eq!(r.next(), Round::new(5));
        assert_eq!(r.prev(), Round::new(3));
        assert_eq!(Round::ZERO.prev(), Round::ZERO);
    }

    #[test]
    fn leader_rounds_are_odd() {
        assert!(!Round::new(0).is_leader_round());
        assert!(Round::new(1).is_leader_round());
        assert!(!Round::new(2).is_leader_round());
        assert!(Round::new(3).is_leader_round());
    }

    #[test]
    fn ids_are_ordered_by_raw_value() {
        assert!(ReplicaId::new(1) < ReplicaId::new(2));
        assert!(TxId::new(10) > TxId::new(9));
    }

    #[test]
    fn conversion_round_trips() {
        let id: ReplicaId = 9u32.into();
        let raw: u32 = id.into();
        assert_eq!(raw, 9);
        assert_eq!(ReplicaId::new(9).as_inner(), 9);
    }
}
