//! `--compare A.json B.json`: the A/A check and the tool later changes use
//! to show a claim.
//!
//! A result set is the `summary.json` a parent run writes: a stamp plus
//! one record per child run. For every workload × end-to-end metric this
//! prints both medians, their ratio with its base, the worse side's
//! spread, the metric's bound, and a verdict; it also checks the served
//! error bound, which repeats exactly on one seed, seed by seed.

use std::collections::BTreeMap;

use crate::json::{parse, Value};
use crate::spec::{Better, END_TO_END, WORKLOADS};
use crate::stats;

/// The outcome for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Pass,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// Run-to-run spread is wider than the bound, and B's runs do not all
    /// read better than A's: the data cannot say.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Pass => "PASS",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "UNRESOLVED",
        }
    }
}

/// One comparison, with the numbers behind its verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// Median of A (the base of the ratio).
    pub median_a: f64,
    /// Median of B.
    pub median_b: f64,
    /// By how much of A's median B is worse (negative: better).
    pub worse_by: f64,
    /// The wider of the two sides' inter-quartile spreads, as a share of
    /// that side's median.
    pub spread: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares B's runs of one metric against A's.
pub fn compare(a: &[f64], b: &[f64], better: Better, bound: f64) -> Comparison {
    let (a, b) = (stats::sorted(a.to_vec()), stats::sorted(b.to_vec()));
    let (median_a, median_b) = (stats::median(&a), stats::median(&b));
    let delta = match better {
        Better::Lower => median_b - median_a,
        Better::Higher => median_a - median_b,
    };
    let worse_by = if median_a == 0.0 {
        0.0
    } else {
        delta / median_a.abs()
    };
    let spread = stats::spread(&a).max(stats::spread(&b));
    let all_better = match (better, a.first(), a.last(), b.first(), b.last()) {
        (Better::Lower, Some(a_min), _, _, Some(b_max)) => b_max < a_min,
        (Better::Higher, _, Some(a_max), Some(b_min), _) => b_min > a_max,
        _ => false,
    };
    let verdict = if spread > bound {
        if all_better {
            Verdict::Pass
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Pass
    };
    Comparison {
        median_a,
        median_b,
        worse_by,
        spread,
        verdict,
    }
}

/// `(workload, metric) → values`, split by trace mode; plus the served
/// error bound per `(workload, seed)`.
#[derive(Debug, Default)]
struct ResultSet {
    end_to_end: BTreeMap<(String, String), Vec<f64>>,
    err_abs: BTreeMap<(String, u64), f64>,
}

fn load(path: &str) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: no \"runs\" array"))?;
    let mut set = ResultSet::default();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string();
        let traced = run.get("trace").and_then(Value::as_u64) == Some(1);
        let seed = run.get("seed").and_then(Value::as_u64).unwrap_or(0);
        let Some(Value::Obj(metrics)) = run.get("metrics") else {
            continue;
        };
        for (name, entry) in metrics {
            let Some(value) = entry.get("value").and_then(Value::as_f64) else {
                continue;
            };
            if traced {
                if name == "core.err_abs" {
                    set.err_abs.insert((workload.clone(), seed), value);
                }
            } else {
                set.end_to_end
                    .entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(set)
}

/// Runs the comparison, prints the table, and returns whether anything
/// regressed.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!("A = {path_a}\nB = {path_b}\nratio = B median / A median (A is the base)\n");
    println!(
        "{:<14} {:<12} {:>4} {:>14} {:>14} {:>7} {:>8} {:>6}  verdict",
        "workload", "metric", "runs", "A median", "B median", "ratio", "spread", "bound"
    );
    let mut regressed = false;
    for w in WORKLOADS {
        for m in END_TO_END {
            let key = (w.name.to_string(), m.name.to_string());
            let (Some(va), Some(vb)) = (a.end_to_end.get(&key), b.end_to_end.get(&key)) else {
                continue;
            };
            let bound = m.bound.unwrap_or(0.0);
            let c = compare(va, vb, m.better, bound);
            regressed |= c.verdict == Verdict::Regressed;
            println!(
                "{:<14} {:<12} {:>4} {:>14.6} {:>14.6} {:>7.3} {:>7.1}% {:>5.0}%  {}",
                w.name,
                m.name,
                va.len().min(vb.len()),
                c.median_a,
                c.median_b,
                if c.median_a == 0.0 {
                    1.0
                } else {
                    c.median_b / c.median_a
                },
                c.spread * 100.0,
                bound * 100.0,
                c.verdict.as_str(),
            );
        }
    }
    // The served error bound is deterministic per seed: on a seed both
    // sets ran, any increase is a regression, whatever its size.
    for ((workload, seed), &ea) in &a.err_abs {
        let Some(&eb) = b.err_abs.get(&(workload.clone(), *seed)) else {
            continue;
        };
        let verdict = if eb > ea {
            Verdict::Regressed
        } else {
            Verdict::Pass
        };
        regressed |= verdict == Verdict::Regressed;
        println!(
            "{:<14} {:<12} seed {:<6} {:>11.6} {:>14.6} {:>7.3} {:>8} {:>5.0}%  {}",
            workload,
            "core.err_abs",
            seed,
            ea,
            eb,
            if ea == 0.0 { 1.0 } else { eb / ea },
            "exact",
            0.0,
            verdict.as_str(),
        );
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten runs around `centre` with an inter-quartile spread of about
    /// `width` of it.
    fn runs(centre: f64, width: f64) -> Vec<f64> {
        (0..10)
            .map(|i| centre * (1.0 + width * (i as f64 - 4.5) / 5.5))
            .collect()
    }

    #[test]
    fn verdicts_at_and_around_the_bound() {
        let tight = |c| runs(c, 0.01);
        // Lower is better, bound 10 %.
        let v = |b: f64| compare(&tight(100.0), &tight(b), Better::Lower, 0.10).verdict;
        assert_eq!(v(100.0), Verdict::Pass);
        assert_eq!(v(109.9), Verdict::Pass);
        assert_eq!(
            v(110.0),
            Verdict::Pass,
            "exactly the bound is still within it"
        );
        assert_eq!(v(110.2), Verdict::Regressed);
        assert_eq!(v(60.0), Verdict::Pass, "better is never a regression");

        // Higher is better: the same distances, mirrored.
        let v = |b: f64| compare(&tight(100.0), &tight(b), Better::Higher, 0.10).verdict;
        assert_eq!(v(90.1), Verdict::Pass);
        assert_eq!(v(89.8), Verdict::Regressed);
        assert_eq!(v(150.0), Verdict::Pass);

        // A bound of zero makes any worsening a regression.
        assert_eq!(
            compare(&[5.0], &[5.0], Better::Lower, 0.0).verdict,
            Verdict::Pass
        );
        assert_eq!(
            compare(&[5.0], &[5.000001], Better::Lower, 0.0).verdict,
            Verdict::Regressed
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let noisy = |c| runs(c, 0.30);
        let c = compare(&noisy(100.0), &noisy(101.0), Better::Lower, 0.10);
        assert!(c.spread > 0.10);
        assert_eq!(
            c.verdict,
            Verdict::Unresolved,
            "not PASS: the data cannot say"
        );
        // Even a large apparent regression is unresolved under that noise…
        assert_eq!(
            compare(&noisy(100.0), &noisy(130.0), Better::Lower, 0.10).verdict,
            Verdict::Unresolved
        );
        // …but B winning every single pairing resolves it.
        assert_eq!(
            compare(&noisy(100.0), &noisy(40.0), Better::Lower, 0.10).verdict,
            Verdict::Pass
        );
        assert_eq!(
            compare(&noisy(100.0), &noisy(250.0), Better::Higher, 0.10).verdict,
            Verdict::Pass
        );
        // Spread exactly at the bound still resolves.
        let at = compare(&runs(100.0, 0.05), &runs(100.0, 0.05), Better::Lower, 0.25);
        assert_eq!(at.verdict, Verdict::Pass);
    }

    #[test]
    fn ratio_has_a_as_its_base() {
        let c = compare(&[200.0], &[150.0], Better::Lower, 0.10);
        assert_eq!((c.median_a, c.median_b), (200.0, 150.0));
        assert!((c.worse_by + 0.25).abs() < 1e-12);
        let c = compare(&[200.0], &[150.0], Better::Higher, 0.10);
        assert!((c.worse_by - 0.25).abs() < 1e-12);
        assert_eq!(c.verdict, Verdict::Regressed);
    }
}
