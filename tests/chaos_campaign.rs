//! The chaos campaign as a tier-1 integration test: every adversarial
//! scenario of the default campaign — Byzantine proposers, a healing
//! asymmetric partition, WAN tails, crashes, censorship under
//! reconfiguration, a soak — runs at smoke scale and must satisfy its
//! machine-checked safety/liveness invariants.
//!
//! `campaign_report` (tb-bench) runs the same campaign through the same
//! `validate_campaigns` gate for CI's `chaos-smoke` job; this test keeps
//! `cargo test` self-sufficient.

use thunderbolt::prelude::*;

#[test]
fn default_campaign_passes_at_smoke_scale() {
    let results = run_campaign(default_campaign(CampaignProfile::smoke()));
    // The same gate CI's `chaos-smoke` job applies: every scenario passed,
    // committed and fired all its faults, and the campaign exercised real
    // adversity (message loss, invalid Byzantine blocks, a reconfiguration,
    // a fetched vertex).
    validate_campaigns(&results).expect("the default campaign passes its gate");
    let equivocate = results
        .iter()
        .find(|result| result.scenario == "byz-equivocate")
        .expect("the equivocation scenario runs");
    // The replica an equivocator sends the other variant to holds the
    // certificate without the block every round and must fetch it.
    assert!(equivocate.vertices_fetched > 0);
    for result in &results {
        assert!(!result.invariants.is_empty());
        let digest = format!(
            "\"commit_order_digest\": \"{:016x}\"",
            result.report.commit_order_digest
        );
        assert!(result.to_json().contains(&digest), "16-hex-digit digest");
    }
}

/// A custom scenario through the public API: an invariant that cannot hold
/// marks the scenario failed instead of panicking, so campaign runners can
/// report every scenario even when one breaks.
#[test]
fn custom_scenarios_report_failures_without_panicking() {
    struct Impossible;
    impl Invariant for Impossible {
        fn name(&self) -> &'static str {
            "impossible"
        }
        fn check(&self, _ctx: &InvariantContext<'_>) -> Result<(), String> {
            Err("always fails".to_string())
        }
    }

    let results = run_campaign(vec![CampaignScenario::new(
        "custom-impossible",
        "a scenario carrying an invariant that always fails",
        || {
            ScenarioBuilder::new(4)
                .executors(2, 32)
                .validators(2)
                .rounds(6)
                .latency(LatencyModel::Fixed { micros: 200 })
                .tune(|s| s.ce = s.ce.without_synthetic_cost())
        },
    )
    .invariant(Impossible)]);
    assert_eq!(results.len(), 1);
    assert!(!results[0].passed);
    assert!(results[0].failures.iter().any(|f| f.contains("impossible")));
}
