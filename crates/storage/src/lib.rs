//! Versioned key-value storage: an in-memory store plus a durable
//! WAL-backed backend.
//!
//! The paper stores account balances in LevelDB; this reproduction keeps a
//! versioned store with two interchangeable backends behind the [`Store`]
//! trait (see docs/STORAGE.md):
//!
//! * [`MemStore`] — one map behind one lock, volatile. The version counter
//!   per key is what the OCC baseline validates against; atomic write
//!   batches and point-in-time snapshots are what the Thunderbolt commit
//!   path applies validated preplay and cross-shard results through.
//! * [`WalStore`] — the same store fronted by a CRC-guarded write-ahead
//!   log, snapshot compaction and crash recovery ([`WalStore::open`]
//!   replays snapshot + WAL tail back to the exact pre-crash state and
//!   commit digest).
//!
//! Everything outside this crate reads through [`KvRead`]; after genesis,
//! [`Store::apply_batches`] is the one way to change state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod mem;
pub mod snapshot;
pub mod store;
pub mod tempdir;
pub mod traits;
pub mod wal;

pub use batch::WriteBatch;
pub use mem::{MemStore, StoreStats};
pub use snapshot::Snapshot;
pub use store::{CommitMarker, Store};
pub use tempdir::TempDir;
pub use traits::{KvRead, Versioned};
pub use wal::{RecoveryInfo, WalOptions, WalRecord, WalStore};
