//! Keys and their static shard assignment.
//!
//! The paper's data model (Section 3.1) assigns every key a shard id (`SID`)
//! before it can be used; the assignment is known by all replicas and routes
//! transactions to the right shard proposer. We model keys as a
//! `(key space, row)` pair — SmallBank uses two key spaces (checking and
//! savings) — and derive the shard deterministically from the row number so
//! that both accounts of a `SendPayment` land in predictable shards.

use crate::ids::ShardId;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::OnceLock;

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
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Default)]
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

impl Hash for Key {
    /// One integer per key, so a [`KeyHasher`] pays one multiply for it.
    /// Equal to [`Key::encode`] for rows below 2^56 and, unlike it, keeps the
    /// top byte of larger rows: at most one key per space shares a hash
    /// input, so no long collision chain can be crafted from the encoding.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.row ^ (u64::from(self.space.tag()) << 56));
    }
}

/// Hasher of the [`Key`]- and index-keyed maps on the execution and commit
/// paths: every written integer costs one widening multiply whose two halves
/// are folded together, so each output bit — the low bits a table indexes by
/// as much as the top bits it tags by — depends on every input bit and on
/// the seed. (A wrapping multiply followed by a rotate is as cheap but loses
/// the middle of the product to the table: keys that differ only in their
/// top bits then collide whatever the seed.)
#[derive(Clone, Copy, Debug)]
pub struct KeyHasher {
    state: u64,
}

impl KeyHasher {
    /// An odd constant without structure (2^64 divided by the golden ratio).
    const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        let product = u128::from(self.state ^ word) * u128::from(Self::MULTIPLIER);
        self.state = (product as u64) ^ ((product >> 64) as u64);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

/// Builds [`KeyHasher`]s. The default seed is drawn once per process from
/// [`RandomState`]: map iteration order stays as unpredictable as with the
/// standard hasher and colliding key sets cannot be computed offline, while
/// every map of one process agrees on it.
#[derive(Clone, Copy, Debug)]
pub struct KeyHashBuilder {
    seed: u64,
}

impl KeyHashBuilder {
    /// A builder with an explicit seed, for tests that need repeatable hashes.
    pub const fn with_seed(seed: u64) -> Self {
        KeyHashBuilder { seed }
    }
}

impl Default for KeyHashBuilder {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        KeyHashBuilder::with_seed(*SEED.get_or_init(|| RandomState::new().hash_one(0u64)))
    }
}

impl BuildHasher for KeyHashBuilder {
    type Hasher = KeyHasher;

    fn build_hasher(&self) -> KeyHasher {
        KeyHasher { state: self.seed }
    }
}

/// A map indexed by [`Key`], hashed with [`KeyHasher`].
pub type KeyMap<V> = HashMap<Key, V, KeyHashBuilder>;

/// A set of [`Key`]s, hashed with [`KeyHasher`].
pub type KeySet = HashSet<Key, KeyHashBuilder>;

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

    /// Share of the values `bits(hash)` could take over `keys` that it does
    /// take, hashing with a fixed seed so the figure repeats.
    fn spread(keys: &[Key], width: u32, bits: impl Fn(u64) -> u64) -> f64 {
        let builder = KeyHashBuilder::with_seed(0x005e_ed0f_7e57);
        let taken: HashSet<u64> = keys.iter().map(|k| bits(builder.hash_one(k))).collect();
        let possible = keys.len().min(1 << width);
        taken.len() as f64 / possible as f64
    }

    #[test]
    fn key_hasher_spreads_structured_keys_over_index_and_tag_bits() {
        // hashbrown indexes buckets by the low bits of a hash and tags
        // entries by its top seven; both must vary over the key sets the
        // workloads produce, which differ in few, low, regularly spaced bits.
        let mut key_sets: Vec<Vec<Key>> = (0..4u64)
            .map(|shard| {
                // The 2 × 250 SmallBank keys of one shard of four.
                (0..250)
                    .flat_map(|i| [Key::checking(4 * i + shard), Key::savings(4 * i + shard)])
                    .collect()
            })
            .collect();
        key_sets.push((0..4096).map(Key::contract).collect());
        for keys in &key_sets {
            let low = spread(keys, 10, |h| h & 0x3ff);
            let top = spread(keys, 7, |h| h >> 57);
            assert!(low >= 0.6, "low 10 bits take {low:.2} of their values");
            assert!(top >= 0.6, "top 7 bits take {top:.2} of their values");
        }
    }

    #[test]
    fn key_hasher_separates_keys_that_differ_only_in_high_bits() {
        // The case a wrapping multiply loses: rows a multiple of 2^48 apart
        // must not share both the bucket index and the tag.
        let keys: Vec<Key> = (0..256).map(|j| Key::contract(7 + (j << 48))).collect();
        assert!(spread(&keys, 10, |h| h & 0x3ff) >= 0.6);
        assert!(spread(&keys, 7, |h| h >> 57) >= 0.6);
    }

    #[test]
    fn default_builders_of_one_process_agree() {
        let a = KeyHashBuilder::default().hash_one(Key::savings(3));
        let b = KeyHashBuilder::default().hash_one(Key::savings(3));
        assert_eq!(a, b);
        let mut map: KeyMap<u32> = KeyMap::default();
        map.insert(Key::checking(1), 1);
        map.insert(Key::savings(1), 2);
        assert_eq!(map[&Key::checking(1)], 1);
        assert_eq!(map[&Key::savings(1)], 2);
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
