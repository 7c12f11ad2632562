//! The chaos campaign: adversarial scenarios with machine-checked
//! safety/liveness invariants.
//!
//! The cluster bench suite measures the system on clean runs; this module
//! tests the paper's *robustness* claims. A [`CampaignScenario`] is a
//! declarative bundle of a [`ScenarioBuilder`] setup (Byzantine proposers,
//! healing partitions, WAN-tail latency, crashes under reconfiguration, a
//! long soak) and the [`Invariant`]s that must hold after the run:
//!
//! * **agreement** — the FNV-1a commit-order digests of all honest replicas
//!   are prefix-consistent ([`check_honest_agreement`]), and replicas that
//!   committed the same full sequence hold byte-identical stores;
//! * **liveness** — the commit height advances whenever at most `f` replicas
//!   are faulty ([`Liveness`]);
//! * **no lost commits across reconfiguration** — the digest chain spans the
//!   DAG-instance boundary ([`ReconfigurationCompletes`]);
//! * **no vacuous faults** — every scheduled fault actually fired
//!   ([`FaultsAllApplied`]), and chaos runs report the messages their faults
//!   dropped ([`MessageLossObserved`]);
//! * **no missing vertices** — honest replicas hold the same certified
//!   vertices for every settled round, so a replica that never got a block
//!   fetched it ([`EveryCertifiedVertexEverywhere`]).
//!
//! [`default_campaign`] assembles the standard scenario list; the
//! `campaign_report` binary in `tb-bench` runs it, writes the pass/fail
//! table to `CAMPAIGN_report.json` and gates the `chaos-smoke` CI job on
//! [`validate_campaigns`]. The invariants are ordinary values, so the root
//! integration tests share them (see `tests/chaos_campaign.rs`).

use crate::cluster::ClusterSimulation;
use crate::metrics::RunReport;
use crate::proposer::ByzantineBehavior;
use crate::replica::Replica;
use crate::scenario::ScenarioBuilder;
use std::collections::BTreeMap;
use std::sync::Arc;
use tb_network::FaultPlan;
use tb_storage::{Store, TempDir, WalOptions, WalStore};
use tb_types::{
    Digest, LatencyModel, ReconfigConfig, ReplicaId, SimTime, StorageBackend, StorageConfig,
};
use tb_workload::SmallBankConfig;

/// Everything an [`Invariant`] may inspect after a run: the finished
/// simulation (per-replica metrics and stores), the observer's report, and
/// the replicas the scenario declared faulty.
pub struct InvariantContext<'a> {
    /// The finished simulation.
    pub sim: &'a ClusterSimulation,
    /// The observer's run report.
    pub report: &'a RunReport,
    /// Replicas the scenario made Byzantine, crashed or censored. Agreement
    /// is only required among the others.
    pub faulty: &'a [ReplicaId],
}

/// A machine-checked post-run property of a chaos scenario.
pub trait Invariant {
    /// Stable name used in failure messages and reports.
    fn name(&self) -> &'static str;
    /// Checks the property, returning a human-readable violation on failure.
    fn check(&self, ctx: &InvariantContext<'_>) -> Result<(), String>;
}

/// Checks that every replica outside `faulty` committed a prefix of the same
/// `(dag, leader round, commit-order digest)` sequence, and that replicas
/// with identical full sequences hold byte-identical stores. This is the
/// safety core of the campaign: equal digests mean equal committed
/// transaction sequences, and the store diff catches any divergence in how
/// those sequences were applied.
pub fn check_honest_agreement(sim: &ClusterSimulation, faulty: &[ReplicaId]) -> Result<(), String> {
    /// One replica's commit history as comparable `(dag, round, digest)` triples.
    type CommitSequence = Vec<(u64, u64, u64)>;
    let honest: Vec<ReplicaId> = (0..sim.replica_count())
        .map(ReplicaId::new)
        .filter(|id| !faulty.contains(id))
        .collect();
    let sequences: Vec<(ReplicaId, CommitSequence)> = honest
        .iter()
        .map(|id| {
            let samples = sim
                .replica(*id)
                .metrics()
                .round_commits
                .iter()
                .map(|s| (s.dag, s.round.as_u64(), s.digest))
                .collect();
            (*id, samples)
        })
        .collect();
    let (longest_id, longest) = sequences
        .iter()
        .max_by_key(|(_, s)| s.len())
        .cloned()
        .ok_or_else(|| "no honest replicas to compare".to_string())?;
    for (id, sequence) in &sequences {
        if !longest.starts_with(sequence) {
            return Err(format!(
                "replica {} committed a sequence that is not a prefix of replica {}'s: \
                 {:?} vs {:?}",
                id.as_inner(),
                longest_id.as_inner(),
                sequence,
                longest
            ));
        }
    }
    // Replicas that committed the whole sequence must agree on state.
    let state = |id: ReplicaId| sim.replica(id).app().store().snapshot();
    let reference = state(longest_id);
    for (id, sequence) in &sequences {
        if *id != longest_id && sequence.len() == longest.len() {
            let diverged = state(*id).diff_values(&reference);
            if !diverged.is_empty() {
                return Err(format!(
                    "replicas {} and {} committed the same sequence but diverge on {} keys \
                     (first: {:?})",
                    id.as_inner(),
                    longest_id.as_inner(),
                    diverged.len(),
                    diverged.first()
                ));
            }
        }
    }
    Ok(())
}

/// Panicking form of [`check_honest_agreement`] for test suites.
pub fn assert_honest_agreement(sim: &ClusterSimulation, faulty: &[ReplicaId]) {
    if let Err(violation) = check_honest_agreement(sim, faulty) {
        panic!("honest-replica agreement violated: {violation}");
    }
}

/// Agreement + state consistency among the honest replicas
/// ([`check_honest_agreement`] as an [`Invariant`]).
pub struct HonestAgreement;

impl Invariant for HonestAgreement {
    fn name(&self) -> &'static str {
        "honest-agreement"
    }

    fn check(&self, ctx: &InvariantContext<'_>) -> Result<(), String> {
        check_honest_agreement(ctx.sim, ctx.faulty)
    }
}

/// Commit height advances: the observer committed at least
/// `min_round_commits` leader rounds and at least one transaction.
pub struct Liveness {
    /// Minimum leader-round commits required on the observer.
    pub min_round_commits: usize,
}

impl Invariant for Liveness {
    fn name(&self) -> &'static str {
        "liveness"
    }

    fn check(&self, ctx: &InvariantContext<'_>) -> Result<(), String> {
        let commits = ctx.report.round_commits.len();
        if commits < self.min_round_commits {
            return Err(format!(
                "only {} leader rounds committed, needed {}",
                commits, self.min_round_commits
            ));
        }
        if ctx.report.committed_txs == 0 {
            return Err("no transactions committed".to_string());
        }
        Ok(())
    }
}

/// The run's faults visibly dropped messages (`msgs_dropped > 0`) — a chaos
/// scenario whose faults never cost a message did not disturb anything.
pub struct MessageLossObserved;

impl Invariant for MessageLossObserved {
    fn name(&self) -> &'static str {
        "message-loss-observed"
    }

    fn check(&self, ctx: &InvariantContext<'_>) -> Result<(), String> {
        if ctx.report.msgs_dropped == 0 {
            return Err(format!(
                "faults dropped no messages ({} sent, {} delivered)",
                ctx.report.msgs_sent, ctx.report.msgs_delivered
            ));
        }
        Ok(())
    }
}

/// Every scheduled fault fired before the run ended — a schedule that
/// outlives the run tested nothing and must fail the scenario.
pub struct FaultsAllApplied;

impl Invariant for FaultsAllApplied {
    fn name(&self) -> &'static str {
        "faults-all-applied"
    }

    fn check(&self, ctx: &InvariantContext<'_>) -> Result<(), String> {
        if ctx.report.faults_unapplied > 0 {
            return Err(format!(
                "{} scheduled faults never applied (schedule outlived the run)",
                ctx.report.faults_unapplied
            ));
        }
        Ok(())
    }
}

/// At least `min` reconfigurations completed, with commits on both sides of
/// the DAG-instance boundary. Together with [`HonestAgreement`]'s digest
/// chain (the FNV-1a fold carries across DAG instances), this checks that no
/// committed transaction is lost across a reconfiguration.
pub struct ReconfigurationCompletes {
    /// Minimum completed reconfigurations.
    pub min: u64,
}

impl Invariant for ReconfigurationCompletes {
    fn name(&self) -> &'static str {
        "reconfiguration-completes"
    }

    fn check(&self, ctx: &InvariantContext<'_>) -> Result<(), String> {
        if ctx.report.reconfigurations < self.min {
            return Err(format!(
                "{} reconfigurations completed, needed {}",
                ctx.report.reconfigurations, self.min
            ));
        }
        let before = ctx.report.round_commits.iter().any(|s| s.dag == 0);
        let after = ctx.report.round_commits.iter().any(|s| s.dag >= 1);
        if !before || !after {
            return Err(format!(
                "commits must span the reconfiguration boundary (dag 0: {before}, dag ≥ 1: {after})"
            ));
        }
        Ok(())
    }
}

/// The observer detected and discarded invalid preplayed blocks — the
/// expected footprint of a read-tampering Byzantine proposer.
pub struct InvalidBlocksDetected;

impl Invariant for InvalidBlocksDetected {
    fn name(&self) -> &'static str {
        "invalid-blocks-detected"
    }

    fn check(&self, ctx: &InvariantContext<'_>) -> Result<(), String> {
        if ctx.report.invalid_blocks == 0 {
            return Err("validation discarded no blocks, tampering went unnoticed".to_string());
        }
        Ok(())
    }
}

/// Honest replicas hold the same certified vertices: for every round the
/// most advanced of them has passed, minus the round in flight, and none of
/// them has collected yet (the highest of their horizons and up), their
/// DAGs hold the same vertex ids. Replicas are compared with the others in
/// the same DAG instance (a reconfiguration starts an empty DAG). A certificate
/// that reaches a replica without its block leaves a hole here unless the
/// replica fetches the vertex, and so does a replica stuck behind a parent
/// it lacks. The observer's commits do not show either: the others commit
/// on without it. A vertex a replica lacks but awaits when the run stops
/// ([`Replica::awaits_vertex`]: its certificate or its answer to a fetch is
/// on the way, or it waits for a parent) is in flight, not a hole; the
/// parent it waits for is then either awaited too or reported.
pub struct EveryCertifiedVertexEverywhere;

impl Invariant for EveryCertifiedVertexEverywhere {
    fn name(&self) -> &'static str {
        "every-certified-vertex-everywhere"
    }

    fn check(&self, ctx: &InvariantContext<'_>) -> Result<(), String> {
        let mut by_dag: BTreeMap<u64, Vec<&Replica>> = BTreeMap::new();
        for id in (0..ctx.sim.replica_count()).map(ReplicaId::new) {
            if !ctx.faulty.contains(&id) {
                let replica = ctx.sim.replica(id);
                by_dag
                    .entry(replica.current_dag().as_inner())
                    .or_default()
                    .push(replica);
            }
        }
        for replicas in by_dag.values() {
            // The rounds the most advanced replica has passed, minus the one
            // in flight: a replica stuck behind a vertex it lacks must not
            // pull the horizon down to where it stopped.
            let settled = replicas
                .iter()
                .map(|replica| replica.current_round().as_u64())
                .max()
                .unwrap_or(0)
                .saturating_sub(1);
            // Below this round one replica may have collected what another
            // still holds.
            let horizon = replicas
                .iter()
                .map(|replica| replica.dag().horizon().as_u64())
                .max()
                .unwrap_or(0);
            let compared = horizon..settled;
            // Each vertex by (author, round): its id, and its header digest
            // to ask a replica that lacks it whether it awaits it.
            let held = |replica: &Replica| -> BTreeMap<(u32, u64), (Digest, Digest)> {
                replica
                    .dag()
                    .iter()
                    .filter(|vertex| compared.contains(&vertex.round().as_u64()))
                    .map(|vertex| {
                        let key = (vertex.author().as_inner(), vertex.round().as_u64());
                        (key, (vertex.id(), vertex.certificate.header_digest))
                    })
                    .collect()
            };
            let reference = held(replicas[0]);
            for replica in &replicas[1..] {
                let theirs = held(replica);
                for (has, lacks, holder, lacker) in [
                    (&reference, &theirs, replicas[0], replica),
                    (&theirs, &reference, replica, &replicas[0]),
                ] {
                    let missing: Vec<(u32, u64)> = has
                        .iter()
                        .filter(|(key, (id, header))| match lacks.get(key) {
                            None => !lacker.awaits_vertex(header),
                            Some((other, _)) => other != id,
                        })
                        .map(|(key, _)| *key)
                        .collect();
                    if !missing.is_empty() {
                        return Err(format!(
                            "replica {} lacks {} vertices replica {} holds in rounds \
                             {compared:?}: {}",
                            lacker.id().as_inner(),
                            missing.len(),
                            holder.id().as_inner(),
                            describe_vertices(&missing)
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// `(author, round)` pairs as "author A rounds [x, y]; author B …".
fn describe_vertices(vertices: &[(u32, u64)]) -> String {
    let mut by_author: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for (author, round) in vertices {
        by_author.entry(*author).or_default().push(*round);
    }
    let authors: Vec<String> = by_author
        .iter()
        .map(|(author, rounds)| format!("author {author} rounds {rounds:?}"))
        .collect();
    authors.join("; ")
}

/// Crash recovery reconstructs exactly the pre-crash state from disk.
///
/// After the run, every replica's WAL/snapshot directory is reopened with
/// [`WalStore::open`] — the same code path a restarted process takes — and
/// three properties are machine-checked per replica:
///
/// 1. the recovered store is value-identical to the replica's live in-memory
///    store (`diff_values` empty);
/// 2. the recovered durable commit marker equals the replica's last committed
///    `(dag, round, digest)` triple;
/// 3. the recovered marker sits at the matching position of the observer's
///    commit sequence, so the durable state of a *crashed* replica never
///    contradicts what the survivors agreed on.
///
/// Finally, every replica the scenario crashed must have committed at least
/// one round before dying — otherwise the crash landed too early and the
/// scenario proved nothing about recovery.
pub struct DurableRecovery {
    /// Keeps the scenario's scoped data directory alive until the check ran.
    pub data_dir: Arc<TempDir>,
    /// The storage knobs the scenario ran with; recovery must use the same.
    pub storage: StorageConfig,
}

impl Invariant for DurableRecovery {
    fn name(&self) -> &'static str {
        "durable-recovery"
    }

    fn check(&self, ctx: &InvariantContext<'_>) -> Result<(), String> {
        let options = WalOptions {
            compact_wal_bytes: self.storage.compact_wal_bytes,
        };
        let observer_commits: Vec<(u64, u64, u64)> = ctx
            .report
            .round_commits
            .iter()
            .map(|s| (s.dag, s.round.as_u64(), s.digest))
            .collect();
        for id in 0..ctx.sim.replica_count() {
            let replica = ctx.sim.replica(ReplicaId::new(id));
            let live = replica.app().store();
            if !live.persistent() {
                return Err(format!(
                    "replica {id} runs a non-persistent store in a durable-recovery scenario"
                ));
            }
            let dir = std::path::Path::new(&self.storage.data_dir).join(format!("replica-{id}"));
            let recovered = WalStore::open(&dir, options)
                .map_err(|err| format!("reopen replica {id} store at {}: {err}", dir.display()))?;
            let info = recovered.recovery();
            if !info.snapshot_loaded && info.replayed_records == 0 {
                return Err(format!(
                    "replica {id} recovered nothing from {}",
                    dir.display()
                ));
            }
            let diverged = recovered.snapshot().diff_values(&live.snapshot());
            if !diverged.is_empty() {
                return Err(format!(
                    "replica {id}: recovered store diverges from the live store on {} keys \
                     (first: {:?})",
                    diverged.len(),
                    diverged.first()
                ));
            }
            let live_last = replica
                .metrics()
                .round_commits
                .last()
                .map(|s| (s.dag, s.round.as_u64(), s.digest));
            let recovered_last = recovered.last_commit().map(|m| (m.dag, m.round, m.digest));
            if recovered_last != live_last {
                return Err(format!(
                    "replica {id}: recovered commit marker {recovered_last:?} does not match \
                     the live last commit {live_last:?}"
                ));
            }
            if let Some(marker) = recovered_last {
                let position = replica.metrics().round_commits.len() - 1;
                if observer_commits.get(position) != Some(&marker) {
                    return Err(format!(
                        "replica {id}: durable marker {marker:?} disagrees with the observer's \
                         commit at position {position} ({:?})",
                        observer_commits.get(position)
                    ));
                }
            }
        }
        for id in ctx.faulty {
            if ctx.sim.replica(*id).metrics().round_commits.is_empty() {
                return Err(format!(
                    "crashed replica {} never committed; the crash landed too early to test \
                     recovery",
                    id.as_inner()
                ));
            }
        }
        Ok(())
    }
}

/// Scale knobs of the default campaign: [`smoke`](Self::smoke) for CI,
/// [`quick`](Self::quick) for the committed report. The `campaign_report`
/// binary picks one by `TB_BENCH_SMOKE`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CampaignProfile {
    /// Leader-round budget of most scenarios.
    pub rounds: u64,
    /// Leader-round budget of the reconfiguration scenarios (must leave room
    /// for the silence condition `K` to trigger).
    pub reconfig_rounds: u64,
    /// Leader-round budget of the long soak.
    pub soak_rounds: u64,
    /// Preplay executor threads per replica.
    pub executors: usize,
    /// Transactions per block.
    pub batch: usize,
    /// SmallBank account pool size.
    pub accounts: u64,
}

impl CampaignProfile {
    /// The CI smoke profile: small enough for a debug-build test run.
    pub fn smoke() -> Self {
        CampaignProfile {
            rounds: 10,
            reconfig_rounds: 26,
            soak_rounds: 16,
            executors: 2,
            batch: 32,
            accounts: 128,
        }
    }

    /// The committed-report profile: a longer soak and bigger batches.
    pub fn quick() -> Self {
        CampaignProfile {
            rounds: 12,
            reconfig_rounds: 26,
            soak_rounds: 40,
            executors: 2,
            batch: 48,
            accounts: 256,
        }
    }

    /// The profile's name, recorded as `"scale"` in `CAMPAIGN_report.json`.
    pub fn label(&self) -> &'static str {
        match *self {
            p if p == Self::smoke() => "smoke",
            p if p == Self::quick() => "quick",
            _ => "custom",
        }
    }
}

/// One adversarial scenario: a builder recipe, the replicas it corrupts, and
/// the invariants that must hold afterwards.
pub struct CampaignScenario {
    name: String,
    description: String,
    faulty: Vec<ReplicaId>,
    builder: Box<dyn FnOnce() -> ScenarioBuilder>,
    invariants: Vec<Box<dyn Invariant>>,
}

impl CampaignScenario {
    /// Creates a scenario from a name, a one-line description and a builder
    /// recipe. Every scenario checks [`HonestAgreement`] — it is the
    /// campaign's reason to exist — [`EveryCertifiedVertexEverywhere`] and
    /// [`FaultsAllApplied`], which holds trivially without faults, so they
    /// are pre-installed here.
    pub fn new(
        name: impl Into<String>,
        description: impl Into<String>,
        builder: impl FnOnce() -> ScenarioBuilder + 'static,
    ) -> Self {
        CampaignScenario {
            name: name.into(),
            description: description.into(),
            faulty: Vec::new(),
            builder: Box::new(builder),
            invariants: vec![
                Box::new(HonestAgreement),
                Box::new(EveryCertifiedVertexEverywhere),
                Box::new(FaultsAllApplied),
            ],
        }
    }

    /// Declares which replicas the scenario corrupts (excluded from the
    /// agreement check).
    pub fn faulty(mut self, replicas: impl IntoIterator<Item = u32>) -> Self {
        self.faulty = replicas.into_iter().map(ReplicaId::new).collect();
        self
    }

    /// Adds an invariant to check after the run.
    pub fn invariant(mut self, invariant: impl Invariant + 'static) -> Self {
        self.invariants.push(Box::new(invariant));
        self
    }

    /// The scenario's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Builds the simulation, runs it, checks every invariant and returns
    /// the per-scenario result row.
    pub fn run(self) -> ScenarioResult {
        let mut sim = (self.builder)().build();
        let report = sim.run();
        let ctx = InvariantContext {
            sim: &sim,
            report: &report,
            faulty: &self.faulty,
        };
        let invariants: Vec<String> = self
            .invariants
            .iter()
            .map(|inv| inv.name().to_string())
            .collect();
        let mut failures = Vec::new();
        for invariant in &self.invariants {
            if let Err(violation) = invariant.check(&ctx) {
                failures.push(format!("{}: {}", invariant.name(), violation));
            }
        }
        ScenarioResult {
            scenario: self.name,
            description: self.description,
            passed: failures.is_empty(),
            failures,
            invariants,
            vertices_fetched: (0..sim.replica_count())
                .map(|id| sim.replica(ReplicaId::new(id)).metrics().vertices_fetched)
                .sum(),
            report,
        }
    }
}

/// The pass/fail + metrics row of one scenario (one entry of the
/// `campaigns` array in `CAMPAIGN_report.json`).
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// Scenario name (stable across runs).
    pub scenario: String,
    /// One-line description of the adversarial setup.
    pub description: String,
    /// True when every invariant held.
    pub passed: bool,
    /// Invariant violations, empty when `passed`.
    pub failures: Vec<String>,
    /// Names of the invariants that were checked.
    pub invariants: Vec<String>,
    /// Vertices admitted from the answer to a fetch, summed over all
    /// replicas: certificates that arrived without their block.
    pub vertices_fetched: u64,
    /// The observer's run report.
    pub report: RunReport,
}

impl ScenarioResult {
    /// The row as one JSON object — the only JSON the workspace emits, so it
    /// is written by hand rather than through a serialization framework.
    pub fn to_json(&self) -> String {
        let report = &self.report;
        let strings = |items: &[String]| {
            let quoted: Vec<String> = items.iter().map(|s| json_string(s)).collect();
            format!("[{}]", quoted.join(", "))
        };
        let fields = [
            ("scenario", json_string(&self.scenario)),
            ("description", json_string(&self.description)),
            ("passed", self.passed.to_string()),
            ("failures", strings(&self.failures)),
            ("invariants", strings(&self.invariants)),
            ("committed_txs", report.committed_txs.to_string()),
            ("invalid_blocks", report.invalid_blocks.to_string()),
            ("reconfigurations", report.reconfigurations.to_string()),
            ("vertices_fetched", self.vertices_fetched.to_string()),
            ("msgs_sent", report.msgs_sent.to_string()),
            ("msgs_delivered", report.msgs_delivered.to_string()),
            ("msgs_dropped", report.msgs_dropped.to_string()),
            ("faults_applied", report.faults_applied.to_string()),
            ("faults_unapplied", report.faults_unapplied.to_string()),
            // Finite by construction (`RunReport::throughput_tps`), and
            // `f64`'s `Display` never prints an exponent, so this is a
            // valid JSON number.
            ("throughput_tps", report.throughput_tps().to_string()),
            (
                "commit_order_digest",
                format!("\"{:016x}\"", report.commit_order_digest),
            ),
        ];
        let body: Vec<String> = fields
            .iter()
            .map(|(name, value)| format!("\"{name}\": {value}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// `s` as a quoted JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The scenario whose Byzantine replica tampers with its blocks' declared
/// reads: the one row that must report invalid blocks.
const TAMPER_SCENARIO: &str = "byz-tamper-reads";

/// The gate on a finished campaign, shared by the `campaign_report` binary
/// (CI `chaos-smoke`) and `tests/chaos_campaign.rs`: at least six scenarios,
/// every one passed (which covers firing all of its scheduled faults,
/// [`FaultsAllApplied`]) and committed transactions, the `byz-tamper-reads`
/// row itself detected invalid blocks (another scenario's invalid blocks
/// say nothing about whether tampered reads are caught), and the campaign
/// as a whole exercised real adversity — some scenario lost messages, some
/// completed a reconfiguration, and some replica fetched a vertex it was
/// missing.
pub fn validate_campaigns(campaigns: &[ScenarioResult]) -> Result<(), String> {
    if campaigns.len() < 6 {
        return Err(format!(
            "only {} campaign scenarios recorded, need at least 6",
            campaigns.len()
        ));
    }
    for row in campaigns {
        if !row.passed {
            return Err(format!(
                "campaign scenario {} failed: {}",
                row.scenario,
                row.failures.join("; ")
            ));
        }
        if row.report.committed_txs == 0 {
            return Err(format!(
                "campaign scenario {} committed nothing",
                row.scenario
            ));
        }
    }
    let tamper = campaigns.iter().find(|row| row.scenario == TAMPER_SCENARIO);
    if tamper.is_none_or(|row| row.report.invalid_blocks == 0) {
        return Err(format!(
            "campaign scenario {TAMPER_SCENARIO} is missing or reported no invalid_blocks"
        ));
    }
    type Probe = fn(&ScenarioResult) -> u64;
    let adversity: [(&str, Probe); 3] = [
        ("msgs_dropped", |r| r.report.msgs_dropped),
        ("reconfigurations", |r| r.report.reconfigurations),
        ("vertices_fetched", |r| r.vertices_fetched),
    ];
    for (counter, probe) in adversity {
        if campaigns.iter().all(|row| probe(row) == 0) {
            return Err(format!("no campaign scenario reported {counter} > 0"));
        }
    }
    Ok(())
}

/// Runs every scenario in order, returning one result row each.
pub fn run_campaign(scenarios: Vec<CampaignScenario>) -> Vec<ScenarioResult> {
    scenarios.into_iter().map(CampaignScenario::run).collect()
}

/// The standard adversarial scenario list at the given profile. Every
/// scenario checks the invariants [`CampaignScenario::new`] pre-installs;
/// each adds the liveness and fault-specific invariants that make its
/// adversary meaningful.
pub fn default_campaign(profile: CampaignProfile) -> Vec<CampaignScenario> {
    let p = profile;
    let base = move |n: u32, rounds: u64, seed: u64, cross: f64| {
        ScenarioBuilder::new(n)
            .executors(p.executors, p.batch)
            .validators(p.executors)
            .rounds(rounds)
            .seed(seed)
            .latency(LatencyModel::Fixed { micros: 200 })
            .tune(|system| system.ce = system.ce.without_synthetic_cost())
            .workload(SmallBankConfig {
                accounts: p.accounts,
                n_shards: n,
                cross_shard_fraction: cross,
                ..SmallBankConfig::default()
            })
    };
    vec![
        CampaignScenario::new(
            TAMPER_SCENARIO,
            "replica 3 corrupts the first declared read of its preplayed blocks",
            // Lockstep: a proposer waits for the complete previous round, so
            // whether it preplays or converts a batch no longer depends on
            // host timing and replica 3 always has preplayed blocks to
            // tamper with. Every other scenario still runs on the host's
            // clock (ROADMAP item 1).
            move || {
                base(4, p.rounds, 11, 0.1)
                    .lockstep()
                    .byzantine(ReplicaId::new(3), ByzantineBehavior::TamperReads)
            },
        )
        .faulty([3])
        .invariant(Liveness {
            min_round_commits: 1,
        })
        .invariant(InvalidBlocksDetected),
        CampaignScenario::new(
            "byz-equivocate",
            "replica 3 sends conflicting (header, block) pairs for every round",
            move || {
                base(4, p.rounds, 12, 0.1)
                    .byzantine(ReplicaId::new(3), ByzantineBehavior::Equivocate)
            },
        )
        .faulty([3])
        .invariant(Liveness {
            min_round_commits: 1,
        }),
        CampaignScenario::new(
            "byz-overfull-wrong-shard",
            "replica 3 preplays cross-shard transactions and overfills its blocks (P1 violation)",
            move || {
                base(4, p.rounds, 13, 0.3)
                    .byzantine(ReplicaId::new(3), ByzantineBehavior::OverfullWrongShard)
            },
        )
        .faulty([3])
        .invariant(Liveness {
            min_round_commits: 1,
        }),
        CampaignScenario::new(
            "partition-heal",
            "replica 2's outbound links to replicas 0 and 1 are cut from the start and heal mid-run",
            move || {
                // The partition starts at t=0: the DAG has no retransmission,
                // so a vertex certified *before* the cut but delivered to only
                // part of the committee would wedge the rest behind a parent
                // they can never fetch. Cutting before replica 2 can certify
                // anything keeps the scenario about healing, not recovery.
                base(4, p.rounds, 14, 0.1).faults(FaultPlan::asymmetric_partition(
                    &[ReplicaId::new(2)],
                    &[ReplicaId::new(0), ReplicaId::new(1)],
                    SimTime::ZERO,
                    SimTime::from_millis(3),
                ))
            },
        )
        .invariant(Liveness {
            min_round_commits: 1,
        })
        .invariant(MessageLossObserved),
        CampaignScenario::new(
            "wan-tail",
            "cross-continent base latency with a heavy jitter tail",
            move || {
                base(4, p.rounds, 15, 0.1).latency(LatencyModel::Jittered {
                    base_micros: 75_000,
                    jitter_micros: 70_000,
                })
            },
        )
        .invariant(Liveness {
            min_round_commits: 1,
        }),
        CampaignScenario::new(
            "crash-two-of-seven",
            "two of seven replicas (f = 2) crash at the start",
            move || {
                base(7, p.rounds, 16, 0.1).faults(FaultPlan::crash_replicas(7, 2, SimTime::ZERO))
            },
        )
        .faulty([5, 6])
        .invariant(Liveness {
            min_round_commits: 1,
        })
        .invariant(MessageLossObserved),
        CampaignScenario::new(
            "censor-reconfig",
            "replica 2 censors from the start; the K-silence rule must rotate shards",
            move || {
                base(4, p.reconfig_rounds, 17, 0.0)
                    .reconfig(ReconfigConfig::new(3, 1_000))
                    .faults(FaultPlan::silence_from_start(ReplicaId::new(2)))
            },
        )
        .faulty([2])
        .invariant(Liveness {
            min_round_commits: 1,
        })
        .invariant(ReconfigurationCompletes { min: 1 })
        .invariant(MessageLossObserved),
        CampaignScenario::new(
            "crash-under-reconfig",
            "periodic K' rotation under load while replica 3 crashes mid-run",
            move || {
                let mut faults = FaultPlan::none();
                faults.push(
                    SimTime::from_micros(800),
                    tb_network::FaultAction::Crash(ReplicaId::new(3)),
                );
                base(4, p.reconfig_rounds, 18, 0.0)
                    .reconfig(ReconfigConfig::new(4, 6))
                    .faults(faults)
            },
        )
        .faulty([3])
        .invariant(Liveness {
            min_round_commits: 1,
        })
        .invariant(ReconfigurationCompletes { min: 1 }),
        CampaignScenario::new(
            "soak-open-loop",
            "long fault-free open-loop run under LAN jitter",
            move || base(4, p.soak_rounds, 19, 0.1).latency(LatencyModel::lan()),
        )
        .invariant(Liveness {
            min_round_commits: (p.soak_rounds / 4).max(1) as usize,
        }),
        {
            let data_dir = Arc::new(
                TempDir::new("campaign-durable")
                    .expect("scoped data dir for the durable-recovery scenario"),
            );
            let storage = StorageConfig {
                backend: StorageBackend::Wal,
                data_dir: data_dir.path().display().to_string(),
                // A small threshold so a smoke-sized run still exercises
                // snapshot compaction.
                compact_wal_bytes: 64 * 1024,
            };
            let builder_storage = storage.clone();
            CampaignScenario::new(
                "crash-recover-durable",
                "all replicas run the WAL backend; replica 3 crashes mid-run and every \
                 on-disk state must replay to exactly its pre-crash state",
                move || {
                    // Commit timing is busy-inflated (measured execution
                    // time feeds simulated time), so a hardcoded crash time
                    // is brittle on loaded runners: the crash must land
                    // after replica 3's first commit but before the run
                    // ends. A fault-free in-memory twin of the same
                    // scenario, run on the same machine moments earlier,
                    // yields replica 3's actual commit window; the crash is
                    // scheduled at its midpoint.
                    let mut probe = base(4, p.reconfig_rounds, 20, 0.1).build();
                    probe.run();
                    let commits = &probe
                        .replica(ReplicaId::new(3))
                        .metrics()
                        .round_commits;
                    let first = commits
                        .first()
                        .map_or(SimTime::from_millis(4), |s| s.committed_at);
                    let last = commits
                        .last()
                        .map_or(SimTime::from_millis(40), |s| s.committed_at);
                    let crash_at =
                        SimTime::from_micros((first.as_micros() + last.as_micros()) / 2);
                    let mut faults = FaultPlan::none();
                    faults.push(
                        crash_at,
                        tb_network::FaultAction::Crash(ReplicaId::new(3)),
                    );
                    base(4, p.reconfig_rounds, 20, 0.1)
                        .storage(builder_storage)
                        .faults(faults)
                },
            )
            .faulty([3])
            .invariant(Liveness {
                min_round_commits: 1,
            })
            .invariant(DurableRecovery { data_dir, storage })
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ExecutionMode;

    fn tiny(n: u32, rounds: u64) -> ScenarioBuilder {
        ScenarioBuilder::new(n)
            .engine(ExecutionMode::Thunderbolt)
            .executors(2, 32)
            .validators(2)
            .rounds(rounds)
            .latency(LatencyModel::Fixed { micros: 100 })
            .tune(|system| system.ce = system.ce.without_synthetic_cost())
            .workload(SmallBankConfig {
                accounts: 64,
                n_shards: n,
                cross_shard_fraction: 0.1,
                ..SmallBankConfig::default()
            })
    }

    #[test]
    fn clean_run_satisfies_agreement_and_liveness() {
        let result = CampaignScenario::new("clean", "no faults", || tiny(4, 8))
            .invariant(Liveness {
                min_round_commits: 1,
            })
            .run();
        assert!(result.passed, "failures: {:?}", result.failures);
        assert!(result.report.committed_txs > 0);
        assert_eq!(result.report.faults_unapplied, 0);
        assert_eq!(
            result.invariants,
            vec![
                "honest-agreement",
                "every-certified-vertex-everywhere",
                "faults-all-applied",
                "liveness"
            ],
            "three are pre-installed, liveness added"
        );
    }

    #[test]
    fn impossible_invariant_marks_the_scenario_failed() {
        let result =
            CampaignScenario::new("doomed", "asks for more commits than the budget", || {
                tiny(4, 8)
            })
            .invariant(Liveness {
                min_round_commits: 10_000,
            })
            .run();
        assert!(!result.passed);
        assert_eq!(result.failures.len(), 1);
        assert!(
            result.failures[0].starts_with("liveness:"),
            "{:?}",
            result.failures
        );
    }

    #[test]
    fn unapplied_faults_fail_the_faults_all_applied_invariant() {
        let mut faults = FaultPlan::none();
        faults.push(
            SimTime::from_secs(3_600),
            tb_network::FaultAction::Crash(ReplicaId::new(3)),
        );
        let result =
            CampaignScenario::new("outlived", "fault schedule outlives the run", move || {
                tiny(4, 8).faults(faults)
            })
            .run();
        assert!(!result.passed);
        assert_eq!(result.report.faults_unapplied, 1);
        assert!(
            result
                .failures
                .iter()
                .any(|f| f.starts_with("faults-all-applied:")),
            "{:?}",
            result.failures
        );
    }

    #[test]
    fn tampering_proposer_is_detected_and_tolerated() {
        // Lockstep, as in `byz-tamper-reads`: without it host timing can
        // leave replica 3 no preplayed block to tamper with (ROADMAP item 1).
        let result = CampaignScenario::new("tamper", "byzantine reads", || {
            tiny(4, 8)
                .lockstep()
                .byzantine(ReplicaId::new(3), ByzantineBehavior::TamperReads)
        })
        .faulty([3])
        .invariant(Liveness {
            min_round_commits: 1,
        })
        .invariant(InvalidBlocksDetected)
        .run();
        assert!(result.passed, "failures: {:?}", result.failures);
        assert!(result.report.invalid_blocks > 0);
    }

    fn passing_row(name: &str) -> ScenarioResult {
        ScenarioResult {
            scenario: name.to_string(),
            description: String::new(),
            passed: true,
            failures: Vec::new(),
            invariants: vec!["honest-agreement".to_string()],
            vertices_fetched: 1,
            report: RunReport {
                committed_txs: 10_001,
                invalid_blocks: 1,
                reconfigurations: 1,
                duration: SimTime::from_secs(8),
                msgs_sent: 5,
                msgs_delivered: 4,
                msgs_dropped: 1,
                commit_order_digest: 0xdead_beef,
                ..RunReport::default()
            },
        }
    }

    #[test]
    fn validate_campaigns_gates_rows_and_campaign_wide_adversity() {
        let mut rows: Vec<ScenarioResult> = (0..6).map(|i| passing_row(&format!("s{i}"))).collect();
        rows[0].scenario = TAMPER_SCENARIO.to_string();
        assert_eq!(validate_campaigns(&rows), Ok(()));
        assert!(validate_campaigns(&rows[1..]).is_err(), "too few scenarios");

        type Break = fn(&mut ScenarioResult);
        let per_row: [(Break, &str); 2] = [
            (|r| r.passed = false, "failed"),
            (|r| r.report.committed_txs = 0, "committed nothing"),
        ];
        for (break_row, expected) in per_row {
            let mut broken = rows.clone();
            break_row(&mut broken[3]);
            let err = validate_campaigns(&broken).expect_err(expected);
            assert!(err.contains("s3") && err.contains(expected), "{err}");
        }

        let campaign_wide: [(Break, &str); 3] = [
            (|r| r.report.msgs_dropped = 0, "msgs_dropped"),
            (|r| r.report.reconfigurations = 0, "reconfigurations"),
            (|r| r.vertices_fetched = 0, "vertices_fetched"),
        ];
        for (zero, counter) in campaign_wide {
            let mut quiet = rows.clone();
            quiet.iter_mut().for_each(zero);
            let err = validate_campaigns(&quiet).expect_err(counter);
            assert!(err.contains(counter), "{err}");
        }
    }

    /// Invalid blocks are the tamper scenario's evidence: other rows that
    /// report some (an equivocator's or a partition's) cannot stand in for
    /// it.
    #[test]
    fn validate_campaigns_requires_invalid_blocks_on_the_tamper_row_itself() {
        let mut rows: Vec<ScenarioResult> = (0..6).map(|i| passing_row(&format!("s{i}"))).collect();
        rows[2].scenario = TAMPER_SCENARIO.to_string();
        assert_eq!(validate_campaigns(&rows), Ok(()));

        let mut quiet_tamper = rows.clone();
        quiet_tamper[2].report.invalid_blocks = 0;
        assert!(quiet_tamper.iter().any(|r| r.report.invalid_blocks > 0));
        let err = validate_campaigns(&quiet_tamper).expect_err("a quiet tamper row");
        assert!(
            err.contains(TAMPER_SCENARIO) && err.contains("invalid_blocks"),
            "{err}"
        );

        let mut no_tamper = rows.clone();
        no_tamper[2].scenario = "s2".to_string();
        let err = validate_campaigns(&no_tamper).expect_err("no tamper row");
        assert!(err.contains(TAMPER_SCENARIO), "{err}");

        // Only the tamper row needs invalid blocks.
        let mut only_tamper = rows;
        for (i, row) in only_tamper.iter_mut().enumerate() {
            if i != 2 {
                row.report.invalid_blocks = 0;
            }
        }
        assert_eq!(validate_campaigns(&only_tamper), Ok(()));
    }

    #[test]
    fn scenario_result_json_escapes_strings_and_keeps_every_field() {
        let mut row = passing_row("byz \"quoted\"");
        row.passed = false;
        row.failures = vec!["liveness: path C:\\tmp\nline two".to_string()];
        assert_eq!(
            row.to_json(),
            "{\"scenario\": \"byz \\\"quoted\\\"\", \"description\": \"\", \"passed\": false, \
             \"failures\": [\"liveness: path C:\\\\tmp\\u000aline two\"], \
             \"invariants\": [\"honest-agreement\"], \"committed_txs\": 10001, \
             \"invalid_blocks\": 1, \"reconfigurations\": 1, \"vertices_fetched\": 1, \
             \"msgs_sent\": 5, \"msgs_delivered\": 4, \"msgs_dropped\": 1, \"faults_applied\": 0, \
             \"faults_unapplied\": 0, \"throughput_tps\": 1250.125, \
             \"commit_order_digest\": \"00000000deadbeef\"}"
        );
    }

    #[test]
    fn default_campaign_lists_the_documented_scenarios() {
        let scenarios = default_campaign(CampaignProfile::smoke());
        assert!(
            scenarios.len() >= 6,
            "need at least six adversarial scenarios"
        );
        let names: Vec<&str> = scenarios.iter().map(|s| s.name()).collect();
        for expected in [
            "byz-tamper-reads",
            "byz-equivocate",
            "byz-overfull-wrong-shard",
            "partition-heal",
            "wan-tail",
            "crash-two-of-seven",
            "censor-reconfig",
            "crash-under-reconfig",
            "soak-open-loop",
            "crash-recover-durable",
        ] {
            assert!(names.contains(&expected), "missing scenario {expected}");
        }
    }
}
