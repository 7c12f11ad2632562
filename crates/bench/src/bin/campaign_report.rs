//! Runs the chaos campaign and writes its machine-readable report.
//!
//! ```text
//! cargo run --release -p tb-bench --bin campaign_report [output-path]
//! ```
//!
//! Drives every adversarial scenario of the default campaign — Byzantine
//! proposers, healing partitions, WAN tails, crashes under reconfiguration,
//! a long soak — with machine-checked safety/liveness invariants after each
//! run, and writes `CAMPAIGN_report.json` (or the given path):
//! `{"scale": …, "campaigns": [one `ScenarioResult` row per scenario]}`.
//! `TB_BENCH_SMOKE=1` (CI chaos-smoke) selects the smoke profile, anything
//! else the quick one. The scenarios and the rows are documented in
//! `docs/CHAOS.md`.
//!
//! Exits non-zero if the campaign fails `validate_campaigns`, so CI gates on
//! a broken safety or liveness property.

use tb_bench::env_flag;
use tb_core::campaign::{default_campaign, run_campaign, validate_campaigns, CampaignProfile};

fn main() {
    let profile = if env_flag("TB_BENCH_SMOKE") {
        CampaignProfile::smoke()
    } else {
        CampaignProfile::quick()
    };
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "CAMPAIGN_report.json".to_string());
    eprintln!(
        "campaign_report: scale={} cores={} -> {out_path}",
        profile.label(),
        tb_executor::available_cores()
    );

    let campaigns = run_campaign(default_campaign(profile));

    let rows: Vec<String> = campaigns
        .iter()
        .map(|row| format!("    {}", row.to_json()))
        .collect();
    let json = format!(
        "{{\n  \"scale\": \"{}\",\n  \"campaigns\": [\n{}\n  ]\n}}\n",
        profile.label(),
        rows.join(",\n")
    );
    if let Err(err) = std::fs::write(&out_path, json) {
        eprintln!("campaign_report: cannot write {out_path}: {err}");
        std::process::exit(1);
    }

    // Human-readable recap on stdout; the JSON on disk is the interface.
    println!(
        "{:<26} {:<6} {:>10} {:>9} {:>9} {:>9} {:>9} {:>8} {:>12}",
        "scenario",
        "pass",
        "committed",
        "invalid",
        "dropped",
        "reconfig",
        "fetched",
        "faults",
        "tps"
    );
    for row in &campaigns {
        println!(
            "{:<26} {:<6} {:>10} {:>9} {:>9} {:>9} {:>9} {:>5}/{:<2} {:>12.0}",
            row.scenario,
            if row.passed { "ok" } else { "FAIL" },
            row.report.committed_txs,
            row.report.invalid_blocks,
            row.report.msgs_dropped,
            row.report.reconfigurations,
            row.vertices_fetched,
            row.report.faults_applied,
            row.report.faults_unapplied,
            row.report.throughput_tps(),
        );
        for failure in &row.failures {
            println!("    FAILED: {failure}");
        }
    }

    if let Err(reason) = validate_campaigns(&campaigns) {
        eprintln!("campaign_report: INVALID campaign: {reason}");
        std::process::exit(1);
    }
    println!("\nwrote {out_path}");
}
