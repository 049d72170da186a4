//! Metrics as a run reports them, and the helpers that turn samples into
//! named values.

use std::collections::BTreeMap;

use crate::stats::{geomean, median, percentile, quartiles, sorted, tail_percentile};

/// One reported metric: its value plus the distribution it came from.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// Samples behind the value.
    pub samples: usize,
    /// Median of the underlying distribution (for a geomean: of the
    /// per-cell values).
    pub median: f64,
    /// First quartile of the same distribution.
    pub q1: f64,
    /// Third quartile of the same distribution.
    pub q3: f64,
    /// For a percentile of samples: the highest percentile with at
    /// least ten samples beyond it at this sample count.
    pub tail_limit: Option<f64>,
}

impl Metric {
    /// A value with no distribution (a count or a single measurement).
    pub fn scalar(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            samples: 1,
            median: value,
            q1: value,
            q3: value,
            tail_limit: None,
        }
    }

    /// A value derived from `values` (its median and quartiles are
    /// recorded beside it).
    pub fn over(
        name: &str,
        unit: &'static str,
        value: f64,
        values: &[f64],
        samples: usize,
    ) -> Metric {
        let (q1, med, q3) = match values.len() {
            0 => (value, value, value),
            1 => (values[0], values[0], values[0]),
            _ => {
                let [q1, _, q3] = quartiles(values);
                (q1, median(values), q3)
            }
        };
        Metric { name: name.into(), unit, value, samples, median: med, q1, q3, tail_limit: None }
    }

    /// The nearest-rank `p`-th percentile of a non-empty sample set.
    pub fn percentile(name: &str, unit: &'static str, samples: &[f64], p: f64) -> Metric {
        let value = percentile(&sorted(samples), p);
        let mut m = Metric::over(name, unit, value, samples, samples.len());
        m.tail_limit = tail_percentile(samples.len());
        m
    }

    /// The geomean over cells of a per-cell statistic.
    pub fn geomean(name: &str, unit: &'static str, per_cell: &[f64], samples: usize) -> Metric {
        Metric::over(name, unit, geomean(per_cell), per_cell, samples)
    }
}

/// What a run produced.
#[derive(Default)]
pub struct Outcome {
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Operations attempted (runs, prepares, requests).
    pub attempted: u64,
    /// Operations that failed or returned a wrong output or counter.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub failures: Vec<String>,
    /// Traced runs: per-layer self time, ms, including `unattributed`.
    pub self_ms: BTreeMap<String, f64>,
    /// Free-form facts recorded in the result file (cell count, sizes).
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// Records an operation's success or failure.
    pub fn tally(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failure that is not an attempted operation of its own
    /// (a check of an operation already tallied).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    /// Adds a metric.
    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    /// Adds a note.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.into(), value.to_string()));
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
