//! End-to-end smoke test of the out-of-process cluster: 4 OS processes over
//! localhost TCP commit a SmallBank workload, agree on their commit-order
//! digests, and match an in-process sim run of the same scenario.
//!
//! `harness = false`: the test binary doubles as its own node image — the
//! launcher re-executes `current_exe()` with `TB_NODE_SPEC` set, and the
//! dispatch at the top of `main` turns those re-executions into nodes.

use std::time::Duration;
use tb_core::ScenarioBuilder;
use tb_launcher::{maybe_run_node_from_env, run_real_net_scenario, LaunchOptions};
use tb_workload::SmallBankConfig;

fn main() {
    if maybe_run_node_from_env() {
        return;
    }

    let plan = ScenarioBuilder::new(4)
        .smallbank(SmallBankConfig {
            accounts: 128,
            cross_shard_fraction: 0.0,
            ..SmallBankConfig::default()
        })
        .executors(4, 32)
        .validators(2)
        // Long enough that the blocks still in flight when a run stops are a
        // small share of its traffic: the sim stops at the commit target,
        // and the byte-parity check below compares the two per committed
        // transaction (at 8 rounds they differ by 4–12 %, at 120 by ~1 %).
        // The whole test takes ~0.4 s in release.
        .rounds(120)
        .seed(7)
        .lockstep()
        .tune(|system| system.ce = system.ce.without_synthetic_cost())
        .build_real_net()
        .expect("fault-free smallbank scenario must be launchable");
    let target = (plan.config.system.max_rounds / 2).max(1) as usize;

    let options = LaunchOptions {
        node_deadline: Duration::from_secs(45),
        check_sim_digest: true,
    };
    let outcome = run_real_net_scenario(&plan, &options).expect("cluster launch failed");

    assert_eq!(outcome.reports.len(), 4, "one report per node process");
    for (node, report) in outcome.reports.iter().enumerate() {
        assert!(report.committed_txs > 0, "node {node} committed nothing");
        assert!(
            report.round_commits.len() >= target,
            "node {node} committed {} rounds, wanted {target}",
            report.round_commits.len(),
        );
        // A node stops once every node has reached the target, not on a
        // timer: a few commits past its own target at most.
        assert!(
            report.round_commits.len() <= target + 4,
            "node {node} committed {} rounds, {target} wanted: it ran on past the target",
            report.round_commits.len(),
        );
        assert!(report.bytes_sent > 0, "byte accounting must be wired up");
        assert!(report.msgs_delivered > 0);
        assert_eq!(report.workload, "smallbank");
        // A node's report carries the counters its replica keeps for
        // itself too: every block it committed here was preplayed, so the
        // commit found it replayed ahead or replayed it inline.
        assert!(
            report.blocks_replayed_ahead + report.blocks_replayed_inline > 0,
            "node {node} reported no replayed blocks"
        );
        // Each node times the transactions it proposed, on its own clock.
        assert!(report.timed_txs > 0, "node {node} timed nothing");
        assert!(
            report.avg_latency_secs() > 0.0,
            "node {node} timed its transactions at zero latency"
        );
    }
    // The observer's latency covers every node's timed transactions.
    assert_eq!(
        outcome.observer.timed_txs,
        outcome.reports.iter().map(|r| r.timed_txs).sum::<u64>()
    );
    // A node reports its replica's own commit-path counters, not zeros: on
    // this all-single-shard scenario every committed block went through the
    // storage apply stage.
    assert!(
        outcome.observer.apply_calls > 0,
        "the observer's report lost its commit-path counters: {:?}",
        outcome.observer
    );
    assert!(
        outcome.nodes_agree,
        "nodes disagreed on commit-order digests: {:?}",
        outcome
            .reports
            .iter()
            .map(|r| format!("{:016x}", r.commit_order_digest))
            .collect::<Vec<_>>()
    );
    assert!(outcome.sim_digest_checked);
    assert!(
        outcome.sim_digest_match,
        "TCP run diverged from the in-process sim twin:\n  tcp  {:?}\n  sim  {:?}",
        outcome.reports[0]
            .round_commits
            .iter()
            .map(|s| (s.round, s.digest))
            .collect::<Vec<_>>(),
        outcome.sim_report.as_ref().map(|sim| sim
            .round_commits
            .iter()
            .map(|s| (s.round, s.digest))
            .collect::<Vec<_>>())
    );
    // Both transports count the `Wire` encoding of every message handed to
    // them, loop-back included, so one node's traffic per committed
    // transaction must match the sim twin's, whose counters cover all `n`
    // replicas.
    let sim = outcome.sim_report.as_ref().expect("twin ran");
    let n = plan.config.system.n_replicas as f64;
    let node = &outcome.reports[0];
    let tcp_bytes_per_tx = node.bytes_sent as f64 / node.committed_txs as f64;
    let sim_bytes_per_tx = sim.bytes_sent as f64 / (n * sim.committed_txs as f64);
    assert!(
        (tcp_bytes_per_tx / sim_bytes_per_tx - 1.0).abs() < 0.05,
        "byte accounting differs between transports: {tcp_bytes_per_tx:.1} B/tx over TCP, \
         {sim_bytes_per_tx:.1} B/tx in the sim"
    );
    println!(
        "real-net smoke OK: 4 processes, {} txs committed on node 0, digests agree with sim, \
         {tcp_bytes_per_tx:.1} B/tx over TCP vs {sim_bytes_per_tx:.1} B/tx in the sim",
        node.committed_txs
    );
}
