//! Thunderbolt: concurrent smart contract execution with non-blocking
//! reconfiguration for sharded DAGs (EDBT 2026) — reproduction.
//!
//! Every replica doubles as a *shard proposer*: it preplays the single-shard
//! transactions of its shard with the concurrent executor (`tb-executor`),
//! ships the preplay outcomes in a block through a Tusk-style DAG
//! (`tb-dag`), and validates the preplay results of every other shard after
//! consensus. Cross-shard transactions bypass the preplay (rule P1) and are
//! executed deterministically in commit order. Shift blocks rotate the
//! shard-to-replica assignment without pausing the DAG (Section 6).
//!
//! The crate is organised as:
//!
//! * [`messages`] — the wire protocol between replicas,
//! * [`proposer`] — the shard proposer (client queues, rules P1–P6, Shift
//!   decisions),
//! * [`commit`] — the post-consensus pipeline (G1/G2 ordering, parallel
//!   validation, deterministic cross-shard execution, storage apply),
//! * [`replica`] — the per-replica consensus state machine: proposal, the
//!   commit rule and reconfiguration,
//! * `dissemination` (crate-private) — how vertices get into a replica's
//!   DAG: acknowledgements, certificates, vertex fetch, waiting parents,
//! * [`app`] — the shard app a replica drives: store, preplay, client
//!   queues, validation and execution, behind the six calls of [`App`],
//! * [`feed`] — the closed-loop client: one shared transaction stream
//!   routed by home shard, drawn as fast as the proposers take it,
//! * [`driver`] — the one loop that runs replicas over any transport: the
//!   simulated network in-process, TCP in a node process,
//! * [`cluster`] — the multi-replica simulation harness used by the
//!   examples, the integration tests and every system benchmark
//!   (Figures 13–17),
//! * [`node`] — one replica as an OS process over TCP,
//! * [`scenario`] — the fluent [`ScenarioBuilder`] assembling engine,
//!   workload, rounds, faults, seed and label into a runnable simulation,
//! * [`metrics`] — run reports (throughput, latency, per-round commit times),
//! * [`campaign`] — the chaos campaign: adversarial scenarios (Byzantine
//!   proposers, healing partitions, WAN tails, crashes + reconfiguration)
//!   with machine-checked safety/liveness invariants.
//!
//! The library is named `tb_core`; downstream users normally reach it
//! through the workspace façade crate `thunderbolt` and its prelude
//! (`use thunderbolt::prelude::*`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod campaign;
pub mod cluster;
pub mod commit;
mod dissemination;
pub mod driver;
pub mod feed;
pub mod messages;
pub mod metrics;
pub mod node;
pub mod proposer;
pub mod replica;
pub mod scenario;

pub use app::{App, ShardApp};
pub use campaign::{
    assert_honest_agreement, check_honest_agreement, default_campaign, run_campaign,
    validate_campaigns, CampaignProfile, CampaignScenario, Invariant, InvariantContext,
    ScenarioResult,
};
pub use cluster::{ClusterConfig, ClusterSimulation, ExecutionMode};
pub use commit::{CommitOutput, CommitPipeline, PostCommitExecution};
pub use feed::ClientFeed;
pub use messages::Message;
pub use metrics::{LatencyHistogram, RoundCommitSample, RunReport};
pub use node::{run_node, NodeSpec, NODE_AT_TARGET_LINE, NODE_REPORT_PREFIX};
pub use proposer::{ByzantineBehavior, ProposalDecision, ShardProposer};
pub use replica::{Destination, Outbound, Replica};
pub use scenario::{RealNetPlan, ScenarioBuilder, ScenarioError};
