//! Process launcher for out-of-process Thunderbolt clusters.
//!
//! Takes a validated [`RealNetPlan`] (from
//! [`ScenarioBuilder::build_real_net`](tb_core::ScenarioBuilder::build_real_net)),
//! expands it into one [`NodeSpec`] per replica, spawns N copies of the
//! current executable as node processes on localhost TCP, and collects one
//! [`RunReport`] per process. Any binary can serve as the node image by
//! calling [`maybe_run_node_from_env`] at the top of `main` — the launcher
//! re-executes `std::env::current_exe()` with the spec hex-encoded in the
//! [`NODE_SPEC_ENV`] environment variable, and the child answers with a
//! single `TB_NODE_REPORT <hex>` line on stdout.
//!
//! After the cluster drains, the launcher checks **cross-node agreement**
//! (all nodes carry identical `(dag, round, digest)` commit samples on their
//! common prefix) and, optionally, runs an in-process **sim twin** of the
//! same scenario and compares its digests too — the lockstep determinism
//! argument in `docs/NET.md` says they must match for fault-free,
//! fully-single-shard scenarios.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::{self, Read};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use tb_core::scenario::RealNetPlan;
use tb_core::{run_node, ClusterSimulation, NodeSpec, RoundCommitSample, RunReport};
use tb_network::FaultPlan;
use tb_types::wire::{from_hex, to_hex, Wire};

/// Environment variable carrying the hex-encoded [`NodeSpec`] to a child
/// process. Its presence turns any cooperating binary into a node.
pub const NODE_SPEC_ENV: &str = "TB_NODE_SPEC";

/// Prefix of the single stdout line a node process answers with.
pub const NODE_REPORT_PREFIX: &str = "TB_NODE_REPORT ";

/// Node-process dispatch hook. Call this first in `main` (and in
/// `harness = false` test mains) of every binary that may be re-executed as
/// a node. Returns `false` immediately when [`NODE_SPEC_ENV`] is unset;
/// otherwise runs the node to completion, prints its report line and
/// returns `true` so the caller can exit.
///
/// A malformed spec or a node failure terminates the process with a nonzero
/// exit code — the launcher surfaces the missing report.
pub fn maybe_run_node_from_env() -> bool {
    let Ok(hex) = std::env::var(NODE_SPEC_ENV) else {
        return false;
    };
    let spec = from_hex(&hex)
        .and_then(|bytes| NodeSpec::from_wire_bytes(&bytes))
        .unwrap_or_else(|err| {
            eprintln!("thunderbolt-node: bad {NODE_SPEC_ENV}: {err}");
            std::process::exit(2);
        });
    match run_node(spec) {
        Ok(report) => {
            println!("{NODE_REPORT_PREFIX}{}", to_hex(&report.to_wire_bytes()));
            true
        }
        Err(err) => {
            eprintln!("thunderbolt-node: {err}");
            std::process::exit(1);
        }
    }
}

/// Knobs of one launcher invocation.
#[derive(Clone, Debug)]
pub struct LaunchOptions {
    /// Hard wall-clock deadline handed to every node process.
    pub node_deadline: Duration,
    /// Also run an in-process sim twin of the scenario and digest-compare
    /// it against node 0. Only meaningful for lockstep scenarios with
    /// `cross_shard_fraction == 0.0` (see `docs/NET.md`); the result lands
    /// in [`RealNetOutcome::sim_digest_match`].
    pub check_sim_digest: bool,
}

impl Default for LaunchOptions {
    fn default() -> Self {
        LaunchOptions {
            node_deadline: Duration::from_secs(60),
            check_sim_digest: false,
        }
    }
}

/// What a real-net run produced.
#[derive(Clone, Debug)]
pub struct RealNetOutcome {
    /// One report per node, indexed by replica id.
    pub reports: Vec<RunReport>,
    /// Node 0's report.
    pub observer: RunReport,
    /// All nodes carry identical `(dag, round, digest)` samples on the
    /// common prefix of their commit sequences, and every node committed
    /// at least one round.
    pub nodes_agree: bool,
    /// Whether the in-process sim twin ran.
    pub sim_digest_checked: bool,
    /// Sim twin's commit samples prefix-match node 0's (`false` whenever
    /// the twin did not run).
    pub sim_digest_match: bool,
    /// The sim twin's report, when it ran.
    pub sim_report: Option<RunReport>,
}

/// Expands the plan into per-node specs on freshly reserved localhost
/// ports. Exposed for tests; most callers want [`run_real_net_scenario`].
pub fn node_specs(plan: &RealNetPlan, options: &LaunchOptions) -> io::Result<Vec<NodeSpec>> {
    let ports = reserve_ports(plan.config.system.n_replicas)?;
    Ok((0..plan.config.system.n_replicas)
        .map(|node| NodeSpec {
            node,
            ports: ports.clone(),
            run_deadline_millis: options.node_deadline.as_millis() as u64,
            config: plan.config.clone(),
            smallbank: plan.smallbank,
        })
        .collect())
}

/// Runs the plan as `n` OS processes (re-executing the current binary, see
/// [`maybe_run_node_from_env`]) and gathers every node's report.
pub fn run_real_net_scenario(
    plan: &RealNetPlan,
    options: &LaunchOptions,
) -> io::Result<RealNetOutcome> {
    let shipped: Vec<Vec<u8>> = node_specs(plan, options)?
        .iter()
        .map(Wire::to_wire_bytes)
        .collect();
    let exe = std::env::current_exe()?;
    let mut children: Vec<Child> = Vec::with_capacity(shipped.len());
    for spec in &shipped {
        let child = Command::new(&exe)
            .env(NODE_SPEC_ENV, to_hex(spec))
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn();
        match child {
            Ok(child) => children.push(child),
            Err(err) => {
                for mut child in children {
                    let _ = child.kill();
                }
                return Err(err);
            }
        }
    }

    // Nodes self-terminate at their own deadline; the watchdog margin only
    // catches a hung child (which would otherwise hang CI).
    let watchdog = Instant::now() + options.node_deadline + Duration::from_secs(15);
    let mut reports = Vec::with_capacity(children.len());
    for (i, mut child) in children.into_iter().enumerate() {
        loop {
            match child.try_wait()? {
                Some(_) => break,
                None if Instant::now() >= watchdog => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("node {i} exceeded its deadline and was killed"),
                    ));
                }
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        let mut stdout = String::new();
        if let Some(mut pipe) = child.stdout.take() {
            let _ = pipe.read_to_string(&mut stdout);
        }
        let report = stdout
            .lines()
            .find_map(|line| line.strip_prefix(NODE_REPORT_PREFIX))
            .and_then(|hex| from_hex(hex.trim()).ok())
            .and_then(|bytes| RunReport::from_wire_bytes(&bytes).ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("node {i} exited without a parsable {NODE_REPORT_PREFIX}line"),
                )
            })?;
        reports.push(report);
    }

    let nodes_agree = reports.iter().all(|r| !r.round_commits.is_empty())
        && reports
            .windows(2)
            .all(|pair| prefixes_agree(&pair[0].round_commits, &pair[1].round_commits));

    let observer = reports[0].clone();

    let (sim_digest_checked, sim_digest_match, sim_report) = if options.check_sim_digest {
        // The twin runs what node 0 decoded, not `plan` directly, so a knob
        // the spec failed to carry shows up as a mismatch.
        let spec = NodeSpec::from_wire_bytes(&shipped[0])
            .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err))?;
        let mut sim = ClusterSimulation::new(spec.config, spec.smallbank, FaultPlan::none());
        let sim_run = sim.run();
        let matches = !sim_run.round_commits.is_empty()
            && !reports[0].round_commits.is_empty()
            && prefixes_agree(&sim_run.round_commits, &reports[0].round_commits);
        (true, matches, Some(sim_run))
    } else {
        (false, false, None)
    };

    Ok(RealNetOutcome {
        reports,
        observer,
        nodes_agree,
        sim_digest_checked,
        sim_digest_match,
        sim_report,
    })
}

/// `(dag, round, digest)` equality over the common prefix of two commit
/// sample sequences; `committed_at` is timing and deliberately ignored.
pub fn prefixes_agree(a: &[RoundCommitSample], b: &[RoundCommitSample]) -> bool {
    a.iter()
        .zip(b.iter())
        .all(|(x, y)| x.dag == y.dag && x.round == y.round && x.digest == y.digest)
}

/// Reserves `n` distinct localhost ports by binding ephemeral listeners and
/// recording their ports before dropping them. A racing process could grab
/// a port between reservation and node start-up; node dial retries and the
/// launcher's agreement checks turn that rare race into a clean failure
/// rather than silent corruption.
fn reserve_ports(n: u32) -> io::Result<Vec<u16>> {
    let listeners: Vec<std::net::TcpListener> = (0..n)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<_>>()?;
    listeners
        .iter()
        .map(|listener| listener.local_addr().map(|addr| addr.port()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_core::ScenarioBuilder;
    use tb_types::Round;
    use tb_types::SimTime;

    fn sample(round: u64, digest: u64) -> RoundCommitSample {
        RoundCommitSample {
            dag: 0,
            round: Round::new(round),
            committed_at: SimTime::from_millis(round),
            digest,
        }
    }

    #[test]
    fn prefix_agreement_ignores_timing_and_length() {
        let a = vec![sample(1, 10), sample(3, 20)];
        let mut b = vec![sample(1, 10), sample(3, 20), sample(5, 30)];
        b[0].committed_at = SimTime::from_secs(99);
        assert!(prefixes_agree(&a, &b));
        b[1].digest = 21;
        assert!(!prefixes_agree(&a, &b));
        assert!(prefixes_agree(&[], &a));
    }

    #[test]
    fn node_specs_share_everything_but_identity() {
        let plan = ScenarioBuilder::new(4)
            .lockstep()
            .rounds(8)
            .storage(tb_types::StorageConfig::wal("/tmp/tb-launcher-test"))
            .build_real_net()
            .expect("default scenario is launchable");
        let specs = node_specs(&plan, &LaunchOptions::default()).expect("ports reserved");
        assert_eq!(specs.len(), 4);
        assert_eq!(specs[0].ports, specs[3].ports);
        assert_eq!(specs[0].ports.len(), 4);
        assert_eq!(specs[2].node, 2);
        for spec in &specs {
            assert_eq!(spec.config, plan.config);
            assert_eq!(spec.smallbank, plan.smallbank);
        }
        // Distinct reserved ports.
        let mut ports = specs[0].ports.clone();
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), 4);
    }
}
