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
use std::thread::JoinHandle;
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
    let mut nodes: Vec<NodeProcess> = Vec::with_capacity(shipped.len());
    for spec in &shipped {
        let child = Command::new(&exe)
            .env(NODE_SPEC_ENV, to_hex(spec))
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn();
        match child {
            Ok(child) => nodes.push(NodeProcess::new(child)),
            Err(err) => {
                nodes.into_iter().for_each(NodeProcess::kill);
                return Err(err);
            }
        }
    }

    // Nodes self-terminate at their own deadline; the watchdog margin only
    // catches a hung child (which would otherwise hang CI).
    let watchdog = Instant::now() + options.node_deadline + Duration::from_secs(15);
    let reports = nodes
        .into_iter()
        .enumerate()
        .map(|(i, node)| node.report(i, watchdog))
        .collect::<io::Result<Vec<_>>>()?;

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

/// A spawned node process whose stdout is read on a thread of its own from
/// the start, so a report line longer than the pipe buffer never leaves the
/// child blocked in `write`, unable to exit.
struct NodeProcess {
    child: Child,
    stdout: JoinHandle<String>,
}

impl NodeProcess {
    /// Takes over a child spawned with a piped stdout and starts draining it.
    fn new(mut child: Child) -> Self {
        let pipe = child.stdout.take();
        let stdout = std::thread::spawn(move || {
            let mut out = String::new();
            if let Some(mut pipe) = pipe {
                let _ = pipe.read_to_string(&mut out);
            }
            out
        });
        NodeProcess { child, stdout }
    }

    /// Kills the node and reaps it; its pipe then closes, so the reader
    /// ends and is joined.
    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = self.stdout.join();
    }

    /// Waits for node `i` to exit, killing it at `watchdog`, and decodes the
    /// report line it printed.
    fn report(mut self, i: usize, watchdog: Instant) -> io::Result<RunReport> {
        while self.child.try_wait()?.is_none() {
            if Instant::now() >= watchdog {
                self.kill();
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("node {i} exceeded its deadline and was killed"),
                ));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let stdout = self
            .stdout
            .join()
            .map_err(|_| io::Error::other(format!("node {i}'s stdout reader panicked")))?;
        stdout
            .lines()
            .find_map(|line| line.strip_prefix(NODE_REPORT_PREFIX))
            .and_then(|hex| from_hex(hex.trim()).ok())
            .and_then(|bytes| RunReport::from_wire_bytes(&bytes).ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("node {i} exited without a parsable {NODE_REPORT_PREFIX}line"),
                )
            })
    }
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

    /// A report of ~3 000 commit samples is one stdout line well past the
    /// 64 KiB pipe buffer; the child can finish writing it, and exit, only
    /// because its stdout is drained while it runs.
    #[test]
    fn a_report_longer_than_the_pipe_buffer_is_collected() {
        let report = RunReport {
            label: "long".to_string(),
            round_commits: (0..3_000)
                .map(|i| sample(2 * i + 1, 0x0123_4567_89ab_cdef ^ i))
                .collect(),
            ..RunReport::default()
        };
        let line = format!("{NODE_REPORT_PREFIX}{}\n", to_hex(&report.to_wire_bytes()));
        assert!(line.len() > 64 * 1024, "{} bytes", line.len());
        let path = std::env::temp_dir().join(format!("tb-long-report-{}", std::process::id()));
        std::fs::write(&path, line).expect("temp file written");
        let child = Command::new("sh")
            .arg("-c")
            .arg("cat \"$0\"")
            .arg(&path)
            .stdout(Stdio::piped())
            .spawn()
            .expect("sh spawns");
        let started = Instant::now();
        let collected = NodeProcess::new(child).report(0, started + Duration::from_secs(10));
        let _ = std::fs::remove_file(&path);
        assert_eq!(collected.expect("report collected"), report);
        assert!(started.elapsed() < Duration::from_secs(5));
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
