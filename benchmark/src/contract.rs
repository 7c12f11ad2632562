//! `BENCHMARK.json` as the harness reads it: the one place metric names,
//! units, directions and bounds are written down. `compare` takes its bounds
//! from it and `--check` holds the harness's output against it.

use crate::json::Json;

/// Read relative to the directory the benchmark is run from, the root of
/// the checkout.
pub const PATH: &str = "BENCHMARK.json";

#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the base median an end-to-end metric may worsen by;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

#[derive(Clone, Debug)]
pub struct Contract {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Contract {
    pub fn load() -> Result<Contract, String> {
        let text = std::fs::read_to_string(PATH).map_err(|e| format!("{PATH}: {e}"))?;
        Contract::parse(&text).map_err(|e| format!("{PATH}: {e}"))
    }

    pub fn parse(text: &str) -> Result<Contract, String> {
        let json = Json::parse(text)?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            json.arr(key)
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.str(f)
                            .ok_or_else(|| format!("{key}: metric without \"{f}\""))
                    };
                    Ok(MetricSpec {
                        name: field("name")?.to_string(),
                        unit: field("unit")?.to_string(),
                        higher_is_better: match field("better")? {
                            "higher" => true,
                            "lower" => false,
                            other => return Err(format!("{key}: better is \"{other}\"")),
                        },
                        bound: m.num("bound"),
                    })
                })
                .collect()
        };
        Ok(Contract {
            workloads: json
                .arr("workloads")
                .iter()
                .filter_map(|w| w.str("name").map(str::to_string))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_names_units_directions_and_bounds() {
        let contract = Contract::parse(
            r#"{"workloads": [{"name": "a", "why": "x"}, {"name": "b", "why": "y"}],
                "end_to_end": [{"name": "tps", "unit": "tx/s", "better": "higher", "bound": 0.1}],
                "per_layer": [{"name": "dag.insert", "unit": "us", "better": "lower"}]}"#,
        )
        .unwrap();
        assert_eq!(contract.workloads, ["a", "b"]);
        assert_eq!(contract.end_to_end[0].bound, Some(0.1));
        assert!(contract.end_to_end[0].higher_is_better);
        assert_eq!(contract.per_layer[0].bound, None);
        assert!(!contract.per_layer[0].higher_is_better);
    }

    #[test]
    fn rejects_an_unknown_direction() {
        let text = r#"{"end_to_end": [{"name": "x", "unit": "s", "better": "faster"}]}"#;
        assert!(Contract::parse(text).is_err());
    }
}
