//! Median and quartiles, the named metric built on them, and the regression
//! rule every comparison uses.

use crate::json::{obj, Json};

/// Median and quartiles of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
    /// them (the "exclusive" method), because that is what the driver that
    /// accepts or rejects this benchmark uses. One sample has no spread.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        if n == 0 {
            return None;
        }
        if n == 1 {
            return Some(Summary::point(sorted[0]));
        }
        let cut = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
        };
        Some(Summary {
            n,
            median: cut(2),
            q1: cut(1),
            q3: cut(3),
        })
    }

    /// The summary of a single sample.
    pub fn point(value: f64) -> Summary {
        Summary {
            n: 1,
            median: value,
            q1: value,
            q3: value,
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        (self.q3 - self.q1).abs() / self.median.abs()
    }

    pub fn from_json(value: &Json) -> Option<Summary> {
        let median = value.num("value")?;
        Some(Summary {
            n: value.num("n").unwrap_or(1.0) as usize,
            median,
            q1: value.num("q1").unwrap_or(median),
            q3: value.num("q3").unwrap_or(median),
        })
    }
}

/// One named value with its unit and, when sampled more than once, spread.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub summary: Summary,
    /// False when this host cannot exercise what the metric measures (fewer
    /// cores than workers, no `/proc`, a field the TCP report does not
    /// carry): the value is recorded but must not be read as a finding.
    pub measured: bool,
}

impl Metric {
    pub fn sampled(name: &str, unit: &'static str, samples: &[f64]) -> Option<Metric> {
        Some(Metric {
            name: name.to_string(),
            unit,
            summary: Summary::of(samples)?,
            measured: true,
        })
    }

    pub fn single(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            summary: Summary::point(value),
            measured: true,
        }
    }

    pub fn unmeasured(mut self) -> Metric {
        self.measured = false;
        self
    }

    pub fn value(&self) -> f64 {
        self.summary.median
    }

    /// As stored in `result.json`; `Summary::from_json` reads it back.
    pub fn to_json(&self) -> Json {
        obj([
            ("value", self.summary.median.into()),
            ("unit", self.unit.into()),
            ("q1", self.summary.q1.into()),
            ("q3", self.summary.q3.into()),
            ("n", self.summary.n.into()),
            ("measured", self.measured.into()),
        ])
    }
}

/// What `compare` says about one (workload, metric) row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The quartile spread of either side exceeds the bound, so a median
    /// difference within the bound cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of `base`'s median `new`'s median is worse (negative when
/// it is better), given the metric's direction.
pub fn worsening(base: &Summary, new: &Summary, higher_is_better: bool) -> f64 {
    if base.median == 0.0 {
        return 0.0;
    }
    let change = (new.median - base.median) / base.median.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

/// Applies a metric's bound: `bound` is the share of the base median by
/// which the new median may be worse before it is a regression.
pub fn verdict(base: &Summary, new: &Summary, higher_is_better: bool, bound: f64) -> Verdict {
    if base.spread() > bound || new.spread() > bound {
        return Verdict::Unresolved;
    }
    let worse_by = worsening(base, new, higher_is_better);
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(samples: &[f64]) -> Summary {
        Summary::of(samples).unwrap()
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = summary(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let s = summary(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 3.75));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let s = summary(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = summary(&[10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
    }

    #[test]
    fn one_sample_has_no_spread_and_none_has_no_summary() {
        let s = summary(&[7.0]);
        assert_eq!((s.n, s.median, s.spread()), (1, 7.0, 0.0));
        assert!(Summary::of(&[]).is_none());
        assert!(Summary::of(&[f64::NAN]).is_none());
    }

    #[test]
    fn spread_is_the_interquartile_share_of_the_median() {
        let s = summary(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bound_arithmetic_respects_direction() {
        let tight = |m: f64| summary(&[m * 0.999, m, m * 1.001]);
        let base = tight(100.0);
        // Throughput (higher is better), bound 10 %.
        assert_eq!(verdict(&base, &tight(95.0), true, 0.10), Verdict::Same);
        assert_eq!(verdict(&base, &tight(89.0), true, 0.10), Verdict::Worse);
        assert_eq!(verdict(&base, &tight(111.0), true, 0.10), Verdict::Better);
        // Latency (lower is better): the same medians flip.
        assert_eq!(verdict(&base, &tight(89.0), false, 0.10), Verdict::Better);
        assert_eq!(verdict(&base, &tight(111.0), false, 0.10), Verdict::Worse);
        assert!((worsening(&base, &tight(89.0), true) - 0.11).abs() < 1e-9);
        assert!((worsening(&base, &tight(89.0), false) + 0.11).abs() < 1e-9);
    }

    #[test]
    fn wide_spread_is_unresolved_not_same() {
        let noisy = summary(&[80.0, 100.0, 120.0]);
        let base = summary(&[99.0, 100.0, 101.0]);
        assert_eq!(verdict(&base, &noisy, true, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(&noisy, &base, true, 0.10), Verdict::Unresolved);
    }

    #[test]
    fn summary_survives_json() {
        let metric = Metric::sampled("x", "ms", &[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(Summary::from_json(&metric.to_json()), Some(metric.summary));
    }
}
