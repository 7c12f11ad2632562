//! `thunderbolt` — the workspace façade for the Thunderbolt reproduction.
//!
//! This crate is the single import path through which the examples, the
//! integration tests at the repository root, and downstream users address
//! the whole system. The implementation lives in the member crates under
//! `crates/*`; this façade re-exports them and curates a [`prelude`] for
//! scenario-first usage:
//!
//! ```
//! use thunderbolt::prelude::*;
//!
//! let report = ScenarioBuilder::new(4)
//!     .engine(ExecutionMode::Thunderbolt)
//!     .workload(SmallBankConfig::system_eval(4, 0.1))
//!     .executors(2, 32)
//!     .rounds(8)
//!     .seed(7)
//!     .run();
//! assert!(report.committed_txs > 0);
//! assert_eq!(report.workload, "smallbank");
//! ```
//!
//! The member crates, re-exported whole for anything the prelude omits:
//!
//! * [`core`] (`tb-core`) — the protocol (replicas, cluster simulation,
//!   scenario builder, commit pipeline, reconfiguration),
//! * [`tb_executor`] — the concurrent executor and the OCC / 2PL / serial
//!   baselines,
//! * [`tb_dag`] — the Tusk-style DAG substrate,
//! * [`tb_network`] — the transport abstraction, the discrete-event
//!   network simulator and the real TCP transport,
//! * [`tb_workload`] — the [`Workload`](prelude::Workload) trait plus the
//!   SmallBank, contract and hot-key KV generators,
//! * [`tb_contracts`] — the contract runtime (SmallBank + interpreter),
//! * [`tb_storage`] — the store backends: the versioned in-memory store and
//!   the durable WAL + snapshot backend (see `docs/STORAGE.md`),
//! * [`tb_types`] — shared types.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tb_contracts;
pub use tb_core as core;
pub use tb_dag;
pub use tb_executor;
pub use tb_network;
pub use tb_storage;
pub use tb_types;
pub use tb_workload;

// Protocol items at the crate root, so pre-prelude paths like
// `thunderbolt::ClusterSimulation` keep working.
pub use tb_core::{
    assert_honest_agreement, check_honest_agreement, ByzantineBehavior, CampaignProfile,
    CampaignScenario, ClusterConfig, ClusterSimulation, CommitOutput, CommitPipeline, Destination,
    ExecutionMode, Invariant, InvariantContext, LatencyHistogram, Message, Outbound,
    PostCommitExecution, RealNetPlan, Replica, RoundCommitSample, RunReport, ScenarioBuilder,
    ScenarioError, ScenarioResult, ShardProposer,
};

/// The curated single-import surface for writing scenarios.
///
/// `use thunderbolt::prelude::*` brings in everything a typical experiment,
/// example or integration test needs: the scenario builder and cluster
/// harness, the [`Workload`](tb_workload::Workload) trait with the three
/// bundled generators, the execution engines, the store, and the shared
/// types they all speak.
pub mod prelude {
    pub use tb_core::campaign::{
        assert_honest_agreement, check_honest_agreement, default_campaign, run_campaign,
        validate_campaigns, CampaignProfile, CampaignScenario, Invariant, InvariantContext,
        ScenarioResult,
    };
    pub use tb_core::cluster::{ClusterConfig, ClusterSimulation, ExecutionMode};
    pub use tb_core::metrics::{LatencyHistogram, RoundCommitSample, RunReport};
    pub use tb_core::proposer::ByzantineBehavior;
    pub use tb_core::replica::{Destination, Outbound, Replica};
    pub use tb_core::scenario::{RealNetPlan, ScenarioBuilder, ScenarioError};
    pub use tb_core::Message;

    pub use tb_workload::{
        initial_smallbank_state, ContractWorkload, ContractWorkloadConfig, KvWorkload,
        KvWorkloadConfig, SmallBankConfig, SmallBankWorkload, Workload, ZipfianGenerator,
    };

    pub use tb_executor::{
        validate_block, BatchExecutor, ConcurrentExecutor, OccExecutor, SerialExecutor,
        TwoPlNoWaitExecutor, ValidationConfig,
    };

    pub use tb_contracts::{
        execute_call, MapState, ProgramBuilder, TrackingState, SMALLBANK_DEFAULT_BALANCE,
    };

    pub use tb_network::{FaultAction, FaultPlan, TcpPeer, TcpTransport, Transport};
    pub use tb_storage::{CommitMarker, KvRead, MemStore, Store, TempDir, WalOptions, WalStore};

    pub use tb_types::{
        CeConfig, ClientId, ContractCall, Key, KeySpace, LatencyModel, Operation, ReconfigConfig,
        ReplicaId, ShardId, SimTime, SmallBankProcedure, StorageBackend, StorageConfig,
        SystemConfig, Transaction, TxClass, TxId, Value,
    };
}
