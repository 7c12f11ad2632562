//! Workload generation for the Thunderbolt evaluation.
//!
//! The paper evaluates with the SmallBank benchmark: accounts are selected
//! with a Zipfian distribution (skew parameter `θ`), the read/write mix is
//! controlled by `Pr` (probability of the read-only `GetBalance`), and the
//! system evaluation additionally designates a percentage `P` of transactions
//! as cross-shard (Sections 11.2 and 12). This crate provides:
//!
//! * [`Workload`] — the scenario-facing trait every generator implements:
//!   a stable report name, the initial state, and one deterministic
//!   transaction stream per home shard, with shard tagging,
//! * [`ZipfianGenerator`] — the YCSB-style Zipfian sampler, scrambled so
//!   the hottest keys spread over the domain (each workload confines it to
//!   one shard's rows per stream),
//! * [`SmallBankWorkload`] — a deterministic, seedable generator of SmallBank
//!   transactions following the paper's parameters,
//! * [`ContractWorkload`] — a mixed interpreter-program workload used by the
//!   examples and extension benchmarks,
//! * [`KvWorkload`] — a Zipfian hot-key read/write workload over raw
//!   operation lists,
//! * [`initial_smallbank_state`] — the initial balances loaded into every
//!   replica's store.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contract;
pub mod kv;
pub mod smallbank;
pub mod traits;
pub mod zipf;

pub use contract::{ContractWorkload, ContractWorkloadConfig};
pub use kv::{KvWorkload, KvWorkloadConfig};
pub use smallbank::{initial_smallbank_state, SmallBankConfig, SmallBankWorkload};
pub use traits::Workload;
pub use zipf::ZipfianGenerator;
