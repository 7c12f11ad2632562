//! Core types shared by every crate of the Thunderbolt reproduction.
//!
//! This crate deliberately contains only *data*: identifiers, keys and
//! values, transaction payloads, block and DAG-vertex formats, committee
//! descriptions and simulated-time primitives. All behaviour (execution,
//! consensus, storage) lives in the downstream crates so that the type
//! vocabulary stays dependency-free and serializable.
//!
//! The layout mirrors the paper's data model (Section 3.1): transactions
//! carry a contract call whose read/write sets are unknown before execution,
//! every key is statically mapped to a shard id (`SID`), and blocks either
//! carry preplayed single-shard transactions (EOV path) or raw cross-shard
//! transactions (OE path).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod committee;
pub mod config;
pub mod digest;
pub mod ids;
pub mod inline_vec;
pub mod key;
pub mod ops;
pub mod time;
pub mod transaction;
pub mod value;
pub mod vertex;
pub mod wire;

pub use block::{Block, BlockKind, BlockPayload, PreplayedTx, SealedBlock};
pub use committee::{Committee, ShardAssignment};
pub use config::{
    CeConfig, LatencyModel, ReconfigConfig, StorageBackend, StorageConfig, SystemConfig,
};
pub use digest::Digest;
pub use ids::{ClientId, DagId, ReplicaId, Round, ShardId, TxId};
pub use inline_vec::InlineVec;
pub use key::{Key, KeyHashBuilder, KeyHasher, KeyMap, KeySet, KeySpace};
pub use ops::{AccessKind, AccessRecord, ExecOutcome, OpKind, Operation, ReadSet, WriteSet};
pub use time::SimTime;
pub use transaction::{ContractCall, ShardSet, SmallBankProcedure, Transaction, TxClass};
pub use value::Value;
pub use vertex::{Certificate, Header, Vertex};
pub use wire::{Wire, WireError, WireReader, WireWriter};
