//! Keys and their static shard assignment.
//!
//! The paper's data model (Section 3.1) assigns every key a shard id (`SID`)
//! before it can be used; the assignment is known by all replicas and routes
//! transactions to the right shard proposer. We model keys as a
//! `(key space, row)` pair — SmallBank uses two key spaces (checking and
//! savings) — and derive the shard deterministically from the row number so
//! that both accounts of a `SendPayment` land in predictable shards.

use crate::ids::ShardId;
use std::fmt;

/// Logical table / namespace a key belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum KeySpace {
    /// SmallBank checking balances.
    #[default]
    Checking,
    /// SmallBank savings balances.
    Savings,
    /// Storage used by deployed contract programs.
    Contract,
    /// Free-form keys used by tests and examples.
    Scratch,
}

impl KeySpace {
    /// Stable small integer tag used for hashing and display.
    pub const fn tag(self) -> u16 {
        match self {
            KeySpace::Checking => 0,
            KeySpace::Savings => 1,
            KeySpace::Contract => 2,
            KeySpace::Scratch => 3,
        }
    }

    /// All key spaces, useful for property tests.
    pub const ALL: [KeySpace; 4] = [
        KeySpace::Checking,
        KeySpace::Savings,
        KeySpace::Contract,
        KeySpace::Scratch,
    ];
}

impl fmt::Display for KeySpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            KeySpace::Checking => "checking",
            KeySpace::Savings => "savings",
            KeySpace::Contract => "contract",
            KeySpace::Scratch => "scratch",
        };
        f.write_str(name)
    }
}

/// A data key: a row inside a [`KeySpace`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Key {
    /// The namespace the key lives in.
    pub space: KeySpace,
    /// Row identifier inside the namespace (e.g. the SmallBank account id).
    pub row: u64,
}

impl Key {
    /// Creates a key in the given space.
    pub const fn new(space: KeySpace, row: u64) -> Self {
        Key { space, row }
    }

    /// SmallBank checking balance of `account`.
    pub const fn checking(account: u64) -> Self {
        Key::new(KeySpace::Checking, account)
    }

    /// SmallBank savings balance of `account`.
    pub const fn savings(account: u64) -> Self {
        Key::new(KeySpace::Savings, account)
    }

    /// A contract-storage key.
    pub const fn contract(slot: u64) -> Self {
        Key::new(KeySpace::Contract, slot)
    }

    /// A scratch key for tests.
    pub const fn scratch(row: u64) -> Self {
        Key::new(KeySpace::Scratch, row)
    }

    /// Static shard assignment: the `SID` of this key among `n_shards` shards.
    ///
    /// All key spaces of the same row map to the same shard so that a
    /// single-account SmallBank transaction (touching both its checking and
    /// savings balances) stays single-shard, exactly as in the paper's
    /// account-partitioned setup.
    pub fn shard(&self, n_shards: u32) -> ShardId {
        assert!(n_shards > 0, "the system needs at least one shard");
        ShardId::new((self.row % u64::from(n_shards)) as u32)
    }

    /// Compact 64-bit encoding used by hashers and dense maps.
    pub const fn encode(&self) -> u64 {
        ((self.space.tag() as u64) << 56) | (self.row & 0x00FF_FFFF_FFFF_FFFF)
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.space, self.row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_assignment_is_stable_and_space_independent() {
        let n = 8;
        for row in 0..100u64 {
            let c = Key::checking(row).shard(n);
            let s = Key::savings(row).shard(n);
            assert_eq!(c, s, "checking and savings of one account share a shard");
            assert_eq!(c, ShardId::new((row % 8) as u32));
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = Key::checking(1).shard(0);
    }

    #[test]
    fn encode_distinguishes_spaces_and_rows() {
        let a = Key::checking(5).encode();
        let b = Key::savings(5).encode();
        let c = Key::checking(6).encode();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(Key::checking(3).to_string(), "checking/3");
        assert_eq!(Key::savings(9).to_string(), "savings/9");
        assert_eq!(Key::contract(1).to_string(), "contract/1");
        assert_eq!(Key::scratch(0).to_string(), "scratch/0");
    }

    #[test]
    fn keyspace_tags_are_unique() {
        let mut tags: Vec<u16> = KeySpace::ALL.iter().map(|s| s.tag()).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), KeySpace::ALL.len());
    }
}
