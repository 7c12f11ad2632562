//! Results: what one workload produced, how it is printed and stored, how
//! two result files compare, and how the output is held against
//! `BENCHMARK.json`.

use crate::contract::{Contract, MetricSpec};
use crate::json::{obj, Json};
use crate::stats::{verdict, worsening, Metric, Summary, Verdict};

/// Everything reported about one workload.
pub struct WorkloadResult {
    pub name: &'static str,
    pub why: &'static str,
    /// Whether `BENCHMARK.json` names this workload (see
    /// `Spec::digest_repeats`).
    pub gating: bool,
    /// Rounds, repeats, workers asked for and granted: what the numbers
    /// were taken under.
    pub conditions: Json,
    pub attempted: u64,
    pub failed: u64,
    pub fingerprint: Option<String>,
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.to_json()))
            .collect(),
    )
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn to_json(&self) -> Json {
        obj([
            ("why", self.why.into()),
            ("gating", self.gating.into()),
            ("conditions", self.conditions.clone()),
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            (
                "fingerprint",
                self.fingerprint.clone().map_or(Json::Null, Json::from),
            ),
            (
                "failures",
                Json::Arr(self.failures.iter().map(|f| f.as_str().into()).collect()),
            ),
            ("end_to_end", metrics_json(&self.end_to_end)),
            ("per_layer", metrics_json(&self.per_layer)),
        ])
    }

    /// One line per metric: `workload metric value unit`, then the spread
    /// where there is one.
    pub fn print(&self) {
        for metric in self.end_to_end.iter().chain(&self.per_layer) {
            let s = &metric.summary;
            let spread = if s.n > 1 {
                format!("  (q1 {:.6} q3 {:.6} n {})", s.q1, s.q3, s.n)
            } else {
                String::new()
            };
            let flag = if metric.measured {
                ""
            } else {
                "  [not measured on this host]"
            };
            println!(
                "{} {} {:.6} {}{spread}{flag}",
                self.name, metric.name, s.median, metric.unit
            );
        }
        if let Some(note) = self.conditions.str("note") {
            println!("{} note: {note}", self.name);
        }
        if let Some(fingerprint) = &self.fingerprint {
            println!("{} fingerprint {fingerprint}", self.name);
        }
        println!(
            "{} failed_share {:.6} ratio  ({} of {} transactions)",
            self.name,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        for failure in &self.failures {
            println!("{} FAILED {failure}", self.name);
        }
    }
}

/// The line the driver reads: `correct`, `attempted`, `failed` and the
/// end-to-end metrics (tracing off) or the per-layer metrics (tracing on).
/// With several workloads in one invocation the names carry the workload.
pub fn final_line(results: &[WorkloadResult], trace: bool) -> Json {
    let qualify = results.len() > 1;
    let metrics = results
        .iter()
        .flat_map(|result| {
            let chosen = if trace {
                &result.per_layer
            } else {
                &result.end_to_end
            };
            chosen.iter().map(move |m| {
                let name = if qualify {
                    format!("{}/{}", result.name, m.name)
                } else {
                    m.name.clone()
                };
                (
                    name,
                    obj([("value", m.value().into()), ("unit", m.unit.into())]),
                )
            })
        })
        .collect();
    obj([
        (
            "correct",
            results.iter().all(WorkloadResult::correct).into(),
        ),
        (
            "attempted",
            results
                .iter()
                .map(|r| r.attempted)
                .sum::<u64>()
                .max(1)
                .into(),
        ),
        (
            "failed",
            results.iter().map(|r| r.failed).sum::<u64>().into(),
        ),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// Holds what was emitted against `BENCHMARK.json`: the same gating
/// workloads, and for every workload each named metric present with the
/// named unit, and nothing emitted that the file does not name.
pub fn check_against_contract(contract: &Contract, results: &[WorkloadResult]) -> Vec<String> {
    let mut problems = Vec::new();
    let emitted: Vec<&str> = results
        .iter()
        .filter(|r| r.gating)
        .map(|r| r.name)
        .collect();
    if contract.workloads != emitted {
        problems.push(format!(
            "workloads differ: BENCHMARK.json names {:?}, the harness ran {emitted:?}",
            contract.workloads
        ));
    }
    for result in results {
        for (kind, specs, metrics) in [
            ("end_to_end", &contract.end_to_end, &result.end_to_end),
            ("per_layer", &contract.per_layer, &result.per_layer),
        ] {
            for spec in specs {
                match metrics.iter().find(|m| m.name == spec.name) {
                    None => problems.push(format!(
                        "{}: {kind} metric {} is not emitted",
                        result.name, spec.name
                    )),
                    Some(m) if m.unit != spec.unit => problems.push(format!(
                        "{}: {} is emitted in {} but declared in {}",
                        result.name, spec.name, m.unit, spec.unit
                    )),
                    Some(m) if !m.value().is_finite() => {
                        problems.push(format!("{}: {} has no value", result.name, spec.name))
                    }
                    Some(_) => {}
                }
            }
            for metric in metrics {
                if !specs.iter().any(|s| s.name == metric.name) {
                    problems.push(format!(
                        "{}: {} is emitted but missing from {kind} in BENCHMARK.json",
                        result.name, metric.name
                    ));
                }
            }
        }
    }
    problems
}

/// Compares two result files metric by metric. Returns the printed rows and
/// whether any end-to-end metric got worse by more than its bound.
pub fn compare(contract: &Contract, base: &Json, new: &Json) -> (Vec<String>, bool) {
    let mut rows = Vec::new();
    let mut any_worse = false;
    let workloads = |file: &Json| {
        file.get("workloads")
            .map(Json::entries)
            .unwrap_or_default()
            .to_vec()
    };
    for (workload, base_result) in workloads(base) {
        let Some(new_result) = new.get("workloads").and_then(|w| w.get(&workload)) else {
            rows.push(format!("{workload}: only in the first file"));
            continue;
        };
        for (kind, specs) in [
            ("end_to_end", &contract.end_to_end),
            ("per_layer", &contract.per_layer),
        ] {
            for spec in specs {
                let side = |result: &Json| {
                    result
                        .get(kind)?
                        .get(&spec.name)
                        .and_then(Summary::from_json)
                };
                let (Some(a), Some(b)) = (side(&base_result), side(new_result)) else {
                    continue;
                };
                let row = compare_row(spec, &a, &b);
                any_worse |= row.1 == Some(Verdict::Worse);
                rows.push(format!("{workload:<12} {}", row.0));
            }
        }
    }
    (rows, any_worse)
}

fn compare_row(spec: &MetricSpec, base: &Summary, new: &Summary) -> (String, Option<Verdict>) {
    let worse_by = worsening(base, new, spec.higher_is_better);
    // Per-layer metrics have no bound: they explain, they do not gate.
    let outcome = spec
        .bound
        .map(|bound| verdict(base, new, spec.higher_is_better, bound));
    let label = match (outcome, spec.bound) {
        (Some(v), Some(bound)) => format!("{} (bound {:.1}%)", v.label(), bound * 100.0),
        _ => "info".to_string(),
    };
    let row = format!(
        "{:<44} {:>14.4} -> {:>14.4} {:<6} {:+6.1}% worse  spread {:.1}%/{:.1}%  {label}",
        spec.name,
        base.median,
        new.median,
        spec.unit,
        worse_by * 100.0,
        base.spread() * 100.0,
        new.spread() * 100.0,
    );
    (row, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(name: &'static str, e2e: &[(&str, &'static str, f64)]) -> WorkloadResult {
        WorkloadResult {
            name,
            why: "",
            gating: true,
            conditions: Json::Null,
            attempted: 10,
            failed: 0,
            fingerprint: None,
            failures: Vec::new(),
            end_to_end: e2e
                .iter()
                .map(|(n, u, v)| Metric::single(n, u, *v))
                .collect(),
            per_layer: Vec::new(),
        }
    }

    const CONTRACT: &str = r#"{"workloads": [{"name": "w"}],
        "end_to_end": [{"name": "tps", "unit": "tx/s", "better": "higher", "bound": 0.1}],
        "per_layer": []}"#;

    #[test]
    fn contract_check_finds_missing_extra_and_mis_united_metrics() {
        let contract = Contract::parse(CONTRACT).unwrap();
        assert!(
            check_against_contract(&contract, &[result("w", &[("tps", "tx/s", 1.0)])]).is_empty()
        );
        let problems = check_against_contract(
            &contract,
            &[result("w", &[("tps", "1/s", 1.0), ("extra", "s", 1.0)])],
        );
        assert_eq!(problems.len(), 2, "{problems:?}");
        let problems = check_against_contract(&contract, &[result("other", &[])]);
        assert_eq!(
            problems.len(),
            2,
            "wrong workload and missing metric: {problems:?}"
        );
    }

    #[test]
    fn final_line_has_exactly_the_contract_keys() {
        let line = final_line(&[result("w", &[("tps", "tx/s", 2.5)])], false);
        let keys: Vec<&str> = line.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            line.get("metrics")
                .unwrap()
                .get("tps")
                .unwrap()
                .num("value"),
            Some(2.5)
        );
        // Tracing on reports the per-layer metrics only, of which there are none here.
        assert!(final_line(&[result("w", &[("tps", "tx/s", 2.5)])], true)
            .get("metrics")
            .unwrap()
            .entries()
            .is_empty());
    }

    #[test]
    fn compare_flags_a_regression_beyond_the_bound() {
        let contract = Contract::parse(CONTRACT).unwrap();
        let file = |tps: f64| {
            obj([(
                "workloads",
                obj([("w", result("w", &[("tps", "tx/s", tps)]).to_json())]),
            )])
        };
        let (rows, worse) = compare(&contract, &file(100.0), &file(95.0));
        assert!(!worse && rows[0].contains("same"), "{rows:?}");
        let (rows, worse) = compare(&contract, &file(100.0), &file(80.0));
        assert!(worse && rows[0].contains("worse (bound"), "{rows:?}");
    }
}
