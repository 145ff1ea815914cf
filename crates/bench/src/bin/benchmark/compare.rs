//! `benchmark compare BASE_DIR NEW_DIR`: for each workload and
//! end-to-end metric, each side's median and quartiles over its runs,
//! the metric's bound from `BENCHMARK.json`, and a verdict.
//!
//! * **better** — every new run beats every base run, or the new median
//!   is better by more than the base runs' spread (their interquartile
//!   range) and the new run wins at least nine in ten run pairs;
//! * **unresolved** — otherwise, when either side's spread exceeds the
//!   bound;
//! * **worse** — the new median is worse than the base median by more
//!   than the bound;
//! * **unchanged** — anything else.
//!
//! Spreads and changes are shares of the base median. Each workload also
//! gets a `failed` line: worse when the new runs fail a larger share of
//! the operations they attempt. The command exits nonzero when any
//! verdict is "worse". Quick runs, runs whose load generator fell behind
//! and runs with a wrong answer are refused.

use crate::report::END_TO_END;
use crate::stats::{median, quartiles};
use dpioa_server::json::Json;
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    Unresolved,
}

/// The verdict on one metric. `base` and `new` are run values in run
/// order (pairs are formed by position); `bound` is a share of the base
/// median.
pub fn verdict(base: &[f64], new: &[f64], bound: f64, higher_is_better: bool) -> Verdict {
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    // Positive means worse.
    let worse = |from: f64, to: f64| sign * (to - from);
    let (mb, mn) = (median(base), median(new));
    let scale = mb.abs().max(f64::MIN_POSITIVE);
    let spread = |v: &[f64], m: f64| {
        let (q1, q3) = quartiles(v);
        (q3 - q1) / m.abs().max(f64::MIN_POSITIVE)
    };
    let base_spread = spread(base, mb);
    let change = worse(mb, mn) / scale;

    let all_better = base.iter().all(|&b| new.iter().all(|&n| worse(b, n) < 0.0));
    if all_better {
        return Verdict::Better;
    }
    if base_spread > bound || spread(new, mn) > bound {
        return Verdict::Unresolved;
    }
    if change > bound {
        return Verdict::Worse;
    }
    let pairs: Vec<f64> = base.iter().zip(new).map(|(&b, &n)| worse(b, n)).collect();
    let wins = pairs.iter().filter(|&&d| d < 0.0).count();
    if -change > base_spread && !pairs.is_empty() && wins * 10 >= pairs.len() * 9 {
        return Verdict::Better;
    }
    Verdict::Unchanged
}

/// (higher is better, bound) per end-to-end metric in `BENCHMARK.json`.
fn read_bounds(path: &Path) -> Result<BTreeMap<String, (bool, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let metrics = json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let higher = m.get("better").and_then(Json::as_str) == Some("higher");
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name}: no bound"))?;
            Ok((name.to_string(), (higher, bound)))
        })
        .collect()
}

/// One run's end-to-end values by metric name.
type Run = BTreeMap<String, f64>;

/// One result file, once it has passed the checks that make it
/// comparable.
struct Parsed {
    workload: String,
    seed: u64,
    attempted: u64,
    failed: u64,
    values: Run,
}

/// Parse one untraced result. Quick runs, runs whose load generator
/// fell behind and runs with a wrong answer are refused: none of them
/// measures what the parent measured.
fn parse_run(text: &str) -> Result<Parsed, String> {
    let json = Json::parse(text)?;
    let field = |k: &str| json.get(k);
    if field("quick").and_then(Json::as_bool) != Some(false) {
        return Err("a --quick result is not comparable".into());
    }
    if field("valid").and_then(Json::as_bool) != Some(true) {
        return Err("the run was marked invalid".into());
    }
    if field("correct").and_then(Json::as_bool) != Some(true) {
        return Err("the run gave wrong answers".into());
    }
    let count = |k: &str| {
        field(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("no {k} count"))
    };
    let mut values = BTreeMap::new();
    if let Some(Json::Obj(metrics)) = field("metrics") {
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                values.insert(name.clone(), v);
            }
        }
    }
    Ok(Parsed {
        workload: field("workload")
            .and_then(Json::as_str)
            .ok_or("no workload")?
            .to_string(),
        seed: field("seed").and_then(Json::as_u64).unwrap_or(0),
        attempted: count("attempted")?,
        failed: count("failed")?,
        values,
    })
}

/// One side's runs of one workload, sorted by seed, and the operations
/// they attempted and failed in total.
#[derive(Default)]
struct Side {
    runs: Vec<Run>,
    attempted: u64,
    failed: u64,
}

/// Untraced run results in `dir`, by workload.
fn read_runs(dir: &Path) -> Result<BTreeMap<String, Side>, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.ends_with(".json") && !name.ends_with(".trace.json")
        })
        .collect();
    files.sort();
    let mut parsed: BTreeMap<String, Vec<Parsed>> = BTreeMap::new();
    for path in files {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let run = parse_run(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        parsed.entry(run.workload.clone()).or_default().push(run);
    }
    Ok(parsed
        .into_iter()
        .map(|(w, mut runs)| {
            runs.sort_by_key(|r| r.seed);
            let side = Side {
                attempted: runs.iter().map(|r| r.attempted).sum(),
                failed: runs.iter().map(|r| r.failed).sum(),
                runs: runs.into_iter().map(|r| r.values).collect(),
            };
            (w, side)
        })
        .collect())
}

/// The verdict on failures: worse when the new side fails a larger
/// share of what it attempted, better when a smaller one. `base` and
/// `new` are (attempted, failed).
pub fn fail_verdict(base: (u64, u64), new: (u64, u64)) -> Verdict {
    // failed_new / attempted_new against failed_base / attempted_base,
    // cross-multiplied so equal shares compare equal.
    let lhs = u128::from(new.1) * u128::from(base.0.max(1));
    let rhs = u128::from(base.1) * u128::from(new.0.max(1));
    match lhs.cmp(&rhs) {
        std::cmp::Ordering::Greater => Verdict::Worse,
        std::cmp::Ordering::Less => Verdict::Better,
        std::cmp::Ordering::Equal => Verdict::Unchanged,
    }
}

pub fn run(base_dir: &Path, new_dir: &Path, bounds_path: &Path) -> Result<bool, String> {
    let bounds = read_bounds(bounds_path)?;
    let base = read_runs(base_dir)?;
    let new = read_runs(new_dir)?;
    let mut any_worse = false;
    println!(
        "{:<14} {:<15} {:>34} {:>34} {:>6} {:>8}  verdict",
        "workload",
        "metric",
        "base median [q1, q3] (n)",
        "new median [q1, q3] (n)",
        "bound",
        "change"
    );
    for (workload, base_side) in &base {
        let Some(new_side) = new.get(workload) else {
            println!("{workload:<14} (no runs in {})", new_dir.display());
            continue;
        };
        let v = fail_verdict(
            (base_side.attempted, base_side.failed),
            (new_side.attempted, new_side.failed),
        );
        any_worse |= v == Verdict::Worse;
        println!(
            "{workload:<14} {:<15} {:>34} {:>34} {:>6} {:>8}  {}",
            "failed",
            format!("{} of {}", base_side.failed, base_side.attempted),
            format!("{} of {}", new_side.failed, new_side.attempted),
            "-",
            "",
            format!("{v:?}").to_lowercase()
        );
        let (base_runs, new_runs) = (&base_side.runs, &new_side.runs);
        for (metric, _) in END_TO_END {
            let Some(&(higher, bound)) = bounds.get(*metric) else {
                return Err(format!("BENCHMARK.json has no bound for {metric}"));
            };
            let pick = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.get(*metric).copied())
                    .collect()
            };
            let (b, n) = (pick(base_runs), pick(new_runs));
            if b.is_empty() || n.is_empty() {
                continue;
            }
            let v = verdict(&b, &n, bound, higher);
            any_worse |= v == Verdict::Worse;
            let side = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!("{:.4} [{q1:.4}, {q3:.4}] ({})", median(v), v.len())
            };
            let change = (median(&n) - median(&b)) / median(&b).abs().max(f64::MIN_POSITIVE);
            println!(
                "{workload:<14} {metric:<15} {:>34} {:>34} {:>6.3} {:>+7.1}%  {}",
                side(&b),
                side(&n),
                bound,
                change * 100.0,
                format!("{v:?}").to_lowercase()
            );
        }
    }
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STEADY: [f64; 10] = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.02, 9.98];

    fn shifted(by: f64) -> Vec<f64> {
        STEADY.iter().map(|v| v * by).collect()
    }

    #[test]
    fn verdict_rules() {
        // Latency (lower is better), bound 10 %.
        assert_eq!(
            verdict(&STEADY, &shifted(1.02), 0.1, false),
            Verdict::Unchanged
        );
        assert_eq!(verdict(&STEADY, &shifted(1.15), 0.1, false), Verdict::Worse);
        assert_eq!(verdict(&STEADY, &shifted(0.8), 0.1, false), Verdict::Better);
        // Throughput (higher is better): the same shift reads the other way.
        assert_eq!(verdict(&STEADY, &shifted(0.85), 0.1, true), Verdict::Worse);
        assert_eq!(verdict(&STEADY, &shifted(1.2), 0.1, true), Verdict::Better);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        assert_eq!(verdict(&noisy, &noisy, 0.1, false), Verdict::Unresolved);
        let worse: Vec<f64> = noisy.iter().map(|v| v * 1.5).collect();
        assert_eq!(verdict(&noisy, &worse, 0.1, false), Verdict::Unresolved);
        let far_better: Vec<f64> = noisy.iter().map(|v| v / 10.0).collect();
        assert_eq!(verdict(&noisy, &far_better, 0.1, false), Verdict::Better);
    }

    #[test]
    fn more_failures_are_worse() {
        assert_eq!(fail_verdict((1000, 0), (1000, 1)), Verdict::Worse);
        assert_eq!(fail_verdict((1000, 2), (1000, 1)), Verdict::Better);
        assert_eq!(fail_verdict((1000, 0), (1000, 0)), Verdict::Unchanged);
        // Shares, not counts: 2 of 2000 is the share of 1 of 1000.
        assert_eq!(fail_verdict((1000, 1), (2000, 2)), Verdict::Unchanged);
        assert_eq!(fail_verdict((2000, 2), (1000, 2)), Verdict::Worse);
    }

    fn result(quick: bool, valid: bool, correct: bool) -> String {
        format!(
            r#"{{"workload":"cascade-cold","seed":3,"quick":{quick},"valid":{valid},"correct":{correct},"attempted":21,"failed":1,"metrics":{{"p50_ms":{{"value":0.5,"unit":"ms"}}}}}}"#
        )
    }

    #[test]
    fn only_quick_free_valid_correct_runs_are_read() {
        let run = parse_run(&result(false, true, true)).expect("comparable run");
        assert_eq!((run.workload.as_str(), run.seed), ("cascade-cold", 3));
        assert_eq!((run.attempted, run.failed), (21, 1));
        assert_eq!(run.values.get("p50_ms"), Some(&0.5));
        for refused in [
            result(true, true, true),
            result(false, false, true),
            result(false, true, false),
        ] {
            assert!(parse_run(&refused).is_err(), "{refused}");
        }
    }

    #[test]
    fn a_small_gain_within_the_spread_is_unchanged() {
        // Better median by 0.5 %, inside the base spread.
        assert_eq!(
            verdict(&STEADY, &shifted(0.995), 0.1, false),
            Verdict::Unchanged
        );
    }
}
