//! Compare mode: two sets of stamped result files (a parent and a
//! change), one row per workload × end-to-end metric, judged against the
//! bounds in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::Path;

use systec_serve::json::Json;

use crate::stats::{iqr_share, is_gain, median, pair_tally};

/// One end-to-end metric's contract.
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

/// `workload → seed → metric → value` from the untraced result files of
/// one directory.
type Runs = BTreeMap<String, BTreeMap<u64, BTreeMap<String, f64>>>;

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))
}

fn bounds(benchmark: &Path) -> Result<Vec<Bound>, String> {
    let json = read_json(benchmark)?;
    let metrics = json.get("end_to_end").and_then(Json::as_arr).ok_or("no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m.get("name").and_then(Json::as_str).ok_or("metric without name")?.into(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m.get("bound").and_then(Json::as_f64).ok_or("metric without bound")?,
            })
        })
        .collect()
}

fn runs(dir: &Path) -> Result<Runs, String> {
    let mut out = Runs::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let json = read_json(&path)?;
        if json.get("trace").and_then(Json::as_u64) != Some(0) {
            continue;
        }
        let workload = json.get("workload").and_then(Json::as_str).ok_or("no workload")?;
        let seed = json.get("seed").and_then(Json::as_u64).ok_or("no seed")?;
        let metrics = json.get("metrics").and_then(Json::as_obj).ok_or("no metrics")?;
        let values = metrics
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value").and_then(Json::as_f64)?)))
            .collect();
        out.entry(workload.to_string()).or_default().insert(seed, values);
    }
    Ok(out)
}

/// The verdict for one workload × metric.
pub fn verdict(
    parent: &[f64],
    change: &[f64],
    pairs: &[(f64, f64)],
    lower: bool,
    bound: f64,
) -> &'static str {
    let (pm, cm) = (median(parent), median(change));
    let worse = if lower { (cm - pm) / pm } else { (pm - cm) / pm };
    let all_better = if lower {
        change.iter().all(|c| parent.iter().all(|p| c < p))
    } else {
        change.iter().all(|c| parent.iter().all(|p| c > p))
    };
    if iqr_share(parent) > bound || iqr_share(change) > bound {
        return if all_better { "better" } else { "unresolved" };
    }
    if worse > bound {
        "REGRESSION"
    } else if is_gain(pairs, lower) {
        "gain"
    } else {
        "within-bound"
    }
}

/// Prints the comparison table; returns whether any row regressed.
///
/// # Errors
///
/// Unreadable directories, result files or benchmark file.
pub fn compare(parent_dir: &Path, change_dir: &Path, benchmark: &Path) -> Result<bool, String> {
    let bounds = bounds(benchmark)?;
    let (parent, change) = (runs(parent_dir)?, runs(change_dir)?);
    println!(
        "{:<14} {:<24} {:>12} {:>12} {:>8} {:>8} {:>7} {:>6} {:>6}  verdict",
        "workload",
        "metric",
        "parent_p50",
        "change_p50",
        "delta%",
        "bound%",
        "spread%",
        "wins",
        "pairs"
    );
    let mut regressed = false;
    for (workload, p_runs) in &parent {
        let Some(c_runs) = change.get(workload) else {
            println!("{workload:<14} (no runs of the change)");
            continue;
        };
        for b in &bounds {
            let values = |runs: &BTreeMap<u64, BTreeMap<String, f64>>| -> Vec<f64> {
                runs.values().filter_map(|m| m.get(&b.name).copied()).collect()
            };
            let (pv, cv) = (values(p_runs), values(c_runs));
            if pv.len() < 2 || cv.len() < 2 {
                println!("{workload:<14} {:<24} (fewer than two runs a side)", b.name);
                continue;
            }
            let pairs: Vec<(f64, f64)> = p_runs
                .iter()
                .filter_map(|(seed, m)| Some((*m.get(&b.name)?, *c_runs.get(seed)?.get(&b.name)?)))
                .collect();
            let v = verdict(&pv, &cv, &pairs, b.lower_is_better, b.bound);
            regressed |= v == "REGRESSION";
            let (pm, cm) = (median(&pv), median(&cv));
            let spread = iqr_share(&pv).max(iqr_share(&cv));
            println!(
                "{workload:<14} {:<24} {pm:>12.4} {cm:>12.4} {:>8.2} {:>8.1} {:>7.2} {:>6} {:>6}  {v}",
                b.name,
                (cm - pm) / pm * 100.0,
                b.bound * 100.0,
                spread * 100.0,
                pair_tally(&pairs, b.lower_is_better).wins,
                pairs.len(),
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let base: Vec<f64> = (0..10).map(|k| 100.0 + k as f64 * 0.2).collect();
        let pairs = |c: &[f64]| base.iter().copied().zip(c.iter().copied()).collect::<Vec<_>>();
        // 20% slower on a lower-is-better metric with a 10% bound.
        let slow: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        assert_eq!(verdict(&base, &slow, &pairs(&slow), true, 0.10), "REGRESSION");
        // 5% faster in every pair: a gain.
        let fast: Vec<f64> = base.iter().map(|v| v * 0.95).collect();
        assert_eq!(verdict(&base, &fast, &pairs(&fast), true, 0.10), "gain");
        // Same values: within bound.
        assert_eq!(verdict(&base, &base, &pairs(&base), true, 0.10), "within-bound");
        // A spread wider than the bound is unresolved...
        let wide: Vec<f64> = (0..10).map(|k| 50.0 + k as f64 * 15.0).collect();
        assert_eq!(verdict(&wide, &base, &pairs(&base), true, 0.10), "unresolved");
        // ...unless every change run beats every parent run.
        let tiny: Vec<f64> = base.iter().map(|v| v * 0.1).collect();
        assert_eq!(verdict(&wide, &tiny, &pairs(&tiny), true, 0.10), "better");
        // Higher-is-better metrics regress downwards.
        assert_eq!(verdict(&base, &fast, &pairs(&fast), false, 0.02), "REGRESSION");
    }
}
