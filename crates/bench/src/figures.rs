//! One entry point per evaluation figure.
//!
//! Each function sweeps the same parameter grid as the corresponding figure
//! in the paper (scaled by [`Scale`]) and prints the measured rows; the
//! `figures` binary is a thin wrapper around these functions.

use crate::{print_exec_rows, print_reports, run_executor_cell, Engine, ExecRow, Scale, SystemRun};
use tb_core::{ExecutionMode, RunReport};
use tb_types::{LatencyModel, ReconfigConfig};

/// Figure 11: concurrent-executor throughput / latency / re-executions as a
/// function of the number of executors, for batch sizes 300 and 500, under a
/// read-write balanced (`Pr = 0.5`) and an update-only (`Pr = 0`) workload.
pub fn run_fig11(scale: Scale) -> Vec<ExecRow> {
    let executors = if scale == Scale::full() {
        vec![1usize, 4, 8, 12, 16]
    } else {
        vec![1usize, 4, 8]
    };
    let batches = [300usize, 500];
    let mut all_rows = Vec::new();
    for pr in [0.5, 0.0] {
        let mut rows = Vec::new();
        for &batch in &batches {
            for &n_exec in &executors {
                for engine in Engine::ALL {
                    rows.push(run_executor_cell(
                        engine,
                        n_exec,
                        batch,
                        0.85,
                        pr,
                        scale.executor_accounts,
                        scale.executor_txs,
                        scale.op_cost_ns,
                    ));
                }
            }
        }
        let title = if pr > 0.0 {
            "Figure 11a: read-write balanced workload (Pr = 0.5)"
        } else {
            "Figure 11b: update-only workload (Pr = 0)"
        };
        print_exec_rows(title, &rows);
        all_rows.extend(rows);
    }
    all_rows
}

/// Figure 12: throughput and latency while sweeping the Zipfian skew `θ`
/// (a, b) and the read fraction `Pr` (c, d).
pub fn run_fig12(scale: Scale) -> Vec<ExecRow> {
    let executors = if scale == Scale::full() { 12 } else { 8 };
    let batches: &[usize] = if scale == Scale::full() {
        &[300, 500]
    } else {
        &[500]
    };
    let mut all_rows = Vec::new();

    let mut theta_rows = Vec::new();
    for &batch in batches {
        for theta in [0.75, 0.8, 0.85, 0.9] {
            for engine in Engine::ALL {
                theta_rows.push(run_executor_cell(
                    engine,
                    executors,
                    batch,
                    theta,
                    0.5,
                    scale.executor_accounts,
                    scale.executor_txs,
                    scale.op_cost_ns,
                ));
            }
        }
    }
    print_exec_rows("Figure 12a/b: skew sweep (Pr = 0.5)", &theta_rows);
    all_rows.extend(theta_rows);

    let mut pr_rows = Vec::new();
    for &batch in batches {
        for pr in [1.0, 0.8, 0.5, 0.1, 0.0] {
            for engine in Engine::ALL {
                pr_rows.push(run_executor_cell(
                    engine,
                    executors,
                    batch,
                    0.85,
                    pr,
                    scale.executor_accounts,
                    scale.executor_txs,
                    scale.op_cost_ns,
                ));
            }
        }
    }
    print_exec_rows("Figure 12c/d: read-fraction sweep (theta = 0.85)", &pr_rows);
    all_rows.extend(pr_rows);
    all_rows
}

/// Figure 13: system throughput and latency as the committee grows, on LAN
/// and WAN, for Thunderbolt, Thunderbolt-OCC and Tusk. Also prints the
/// headline Thunderbolt-vs-Tusk speedup at the largest committee.
pub fn run_fig13(scale: Scale) -> Vec<(String, RunReport)> {
    let replica_counts: Vec<u32> = if scale == Scale::full() {
        vec![8, 16, 32, 64]
    } else {
        vec![4, 8, 16]
    };
    let mut rows = Vec::new();
    for (net_label, latency) in [("LAN", LatencyModel::lan()), ("WAN", LatencyModel::wan())] {
        for &n in &replica_counts {
            for mode in [
                ExecutionMode::Thunderbolt,
                ExecutionMode::ThunderboltOcc,
                ExecutionMode::Tusk,
            ] {
                let mut run = SystemRun::new(mode, n, scale);
                run.latency = latency;
                let report = run.run();
                rows.push((format!("{net_label} {} n={n}", mode.label()), report));
            }
        }
    }
    print_reports("Figure 13: scalability (LAN and WAN)", &rows);

    // Headline speedup: Thunderbolt vs Tusk at the largest LAN committee.
    let largest = *replica_counts.last().expect("non-empty");
    let tb = rows
        .iter()
        .find(|(l, _)| l == &format!("LAN Thunderbolt n={largest}"))
        .map(|(_, r)| r.throughput_tps())
        .unwrap_or(0.0);
    let tusk = rows
        .iter()
        .find(|(l, _)| l == &format!("LAN Tusk n={largest}"))
        .map(|(_, r)| r.throughput_tps())
        .unwrap_or(1.0);
    if tusk > 0.0 {
        println!(
            "\nHeadline: Thunderbolt / Tusk speedup at n={largest} (LAN): {:.1}x (paper reports ~50x at n=64)",
            tb / tusk
        );
    }
    rows
}

/// Figure 14: throughput and latency as the fraction of cross-shard
/// transactions grows, at a fixed committee size.
pub fn run_fig14(scale: Scale) -> Vec<(String, RunReport)> {
    let n = if scale == Scale::full() { 16 } else { 8 };
    let fractions = [0.0, 0.04, 0.08, 0.2, 0.6, 1.0];
    let mut rows = Vec::new();
    for mode in [
        ExecutionMode::Thunderbolt,
        ExecutionMode::ThunderboltOcc,
        ExecutionMode::Tusk,
    ] {
        for &p in &fractions {
            let mut run = SystemRun::new(mode, n, scale);
            run.cross_shard = p;
            let report = run.run();
            rows.push((format!("{} P={:.0}%", mode.label(), p * 100.0), report));
        }
    }
    print_reports(
        &format!("Figure 14: cross-shard transaction ratio (n = {n})"),
        &rows,
    );
    rows
}

/// Figure 15: throughput and latency for different reconfiguration periods
/// `K'` on a small committee.
pub fn run_fig15(scale: Scale) -> Vec<(String, RunReport)> {
    let n = 8;
    let periods: Vec<u64> = if scale == Scale::full() {
        vec![10, 100, 500, 1_000, 5_000]
    } else {
        vec![4, 8, 16, 1_000]
    };
    let mut rows = Vec::new();
    for &k_prime in &periods {
        let mut run = SystemRun::new(ExecutionMode::Thunderbolt, n, scale);
        run.reconfig = ReconfigConfig::new(k_prime.saturating_sub(1).max(1), k_prime);
        let report = run.run();
        rows.push((format!("Thunderbolt K'={k_prime}"), report));
    }
    print_reports("Figure 15: reconfiguration period sweep (n = 8)", &rows);
    rows
}

/// Figure 16: average commit-to-commit runtime per window of leader rounds
/// while reconfiguring periodically.
pub fn run_fig16(scale: Scale) -> Vec<(usize, f64)> {
    let mut run = SystemRun::new(ExecutionMode::Thunderbolt, 8, scale);
    let (k_prime, window) = if scale == Scale::full() {
        (300u64, 50usize)
    } else {
        (8u64, 4usize)
    };
    run.reconfig = ReconfigConfig::new(k_prime - 1, k_prime);
    let mut scaled = scale;
    scaled.system_rounds = if scale == Scale::full() { 1_300 } else { 40 };
    run.scale = scaled;
    let report = run.run();
    let series = report.per_round_runtime(window);
    println!("\n== Figure 16: per-round commit runtime (K' = {k_prime}) ==");
    println!("{:<16} {:>14}", "rounds (window)", "avg runtime (s)");
    for (end, avg) in &series {
        println!("{end:<16} {avg:>14.5}");
    }
    println!(
        "reconfigurations during the run: {} (consensus never stalled: {} leader commits)",
        report.reconfigurations,
        report.round_commits.len()
    );
    series
}

/// Figure 17: throughput and latency with `f` crashed replicas while the
/// cross-shard ratio grows.
pub fn run_fig17(scale: Scale) -> Vec<(String, RunReport)> {
    let n = if scale == Scale::full() { 16 } else { 8 };
    let fractions = [0.0, 0.2, 1.0];
    let crashes = [0u32, 1, 2];
    let mut rows = Vec::new();
    for &crashed in &crashes {
        for &p in &fractions {
            let mut run = SystemRun::new(ExecutionMode::Thunderbolt, n, scale);
            run.cross_shard = p;
            run.crashed = crashed;
            let report = run.run();
            let label = if crashed == 0 {
                format!("Thunderbolt P={:.0}%", p * 100.0)
            } else {
                format!("Thunderbolt/{crashed} P={:.0}%", p * 100.0)
            };
            rows.push((label, report));
        }
    }
    print_reports(
        &format!("Figure 17: crash faults under cross-shard load (n = {n})"),
        &rows,
    );
    rows
}
