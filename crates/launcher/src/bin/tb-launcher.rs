//! Launches an N-replica Thunderbolt cluster as N OS processes over
//! localhost TCP and prints every node's results.
//!
//! ```text
//! tb-launcher [replicas] [rounds]     # defaults: 4 replicas, 10 DAG rounds
//! ```
//!
//! The cluster runs a fault-free, single-shard SmallBank scenario in
//! lockstep and digest-compares the result against an in-process sim run of
//! the same scenario; a digest mismatch is a hard error. See `docs/NET.md`.

use std::time::Duration;
use tb_core::ScenarioBuilder;
use tb_launcher::{maybe_run_node_from_env, run_real_net_scenario, LaunchOptions};
use tb_workload::SmallBankConfig;

fn main() {
    // This binary is also its own node image: children re-execute it with
    // TB_NODE_SPEC set and take this branch.
    if maybe_run_node_from_env() {
        return;
    }

    let mut args = std::env::args().skip(1);
    let replicas: u32 = args
        .next()
        .map(|arg| arg.parse().expect("replicas must be a number"))
        .unwrap_or(4);
    let rounds: u64 = args
        .next()
        .map(|arg| arg.parse().expect("rounds must be a number"))
        .unwrap_or(10);

    let plan = ScenarioBuilder::new(replicas)
        .smallbank(SmallBankConfig {
            accounts: 1024,
            cross_shard_fraction: 0.0,
            ..SmallBankConfig::default()
        })
        .executors(4, 64)
        .validators(2)
        .rounds(rounds)
        .lockstep()
        .label("Thunderbolt/tcp")
        .tune(|system| system.ce = system.ce.without_synthetic_cost())
        .build_real_net()
        .expect("fault-free smallbank scenario must be launchable");

    let options = LaunchOptions {
        node_deadline: Duration::from_secs(60),
        check_sim_digest: true,
    };
    let outcome = run_real_net_scenario(&plan, &options).expect("cluster launch failed");

    println!(
        "{} processes over localhost TCP, {} DAG rounds requested ({} leader commits)",
        replicas,
        rounds,
        (rounds / 2).max(1)
    );
    for (node, report) in outcome.reports.iter().enumerate() {
        println!(
            "  node {node}: {} txs committed, {} rounds, {} msgs sent / {} delivered, \
             {} B sent, digest {:016x}",
            report.committed_txs,
            report.round_commits.len(),
            report.msgs_sent,
            report.msgs_delivered,
            report.bytes_sent,
            report.commit_order_digest
        );
    }
    println!(
        "  cross-node digest agreement: {}",
        if outcome.nodes_agree { "OK" } else { "FAILED" }
    );
    if let Some(sim) = &outcome.sim_report {
        println!(
            "  sim twin: {} txs committed, digest {:016x} -> {}",
            sim.committed_txs,
            sim.commit_order_digest,
            if outcome.sim_digest_match {
                "matches node 0"
            } else {
                "MISMATCH"
            }
        );
    }
    if !outcome.nodes_agree || !outcome.sim_digest_match {
        std::process::exit(1);
    }
}
