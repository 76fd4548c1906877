//! H-WTopk (Appendix A.4, \[21\]): TPUT-style three-round distributed
//! top-k over signed partial coefficients.
//!
//! Works on L2-normalized partial coefficients so that "largest magnitude"
//! is the conventional-synopsis criterion. Each round is one MapReduce
//! job; mappers are stateless and recompute their local partials per round
//! (as Hadoop mappers re-read their input block):
//!
//! 1. every mapper sends its `k` highest and `k` lowest partials plus its
//!    k-th-value thresholds; the reducer forms lower bounds `τ(x)` and the
//!    first threshold `T1`;
//! 2. mappers send everything above `T1/m` in magnitude; the reducer
//!    refines upper/lower bounds, computes `T2`, and prunes the candidate
//!    set `L`;
//! 3. mappers send exact partials for all of `L`; the reducer aggregates
//!    and selects the final top-k.
//!
//! With `k = B = N/8` the first round alone ships `2kB`-scale traffic —
//! the cost blow-up the paper reports (it OOMs on their cluster); H-WTopk
//! only wins for tiny budgets (Figure 11).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use dwmaxerr_runtime::metrics::DriverMetrics;
use dwmaxerr_runtime::{Cluster, JobBuilder, Kernel, MapContext, Pipeline, ReduceContext};
use dwmaxerr_wavelet::basis::partial_coefficients;
use dwmaxerr_wavelet::tree::TreeTopology;
use dwmaxerr_wavelet::Synopsis;

use crate::error::CoreError;
use crate::splits::{block_splits, SliceSplit};

/// Reserved shuffle keys for per-mapper thresholds.
const KTH_HIGH: u64 = u64::MAX;
const KTH_LOW: u64 = u64::MAX - 1;

/// Result of an H-WTopk run, with the protocol's internals exposed for the
/// benchmark harness.
#[derive(Debug, Clone)]
pub struct HWTopkReport {
    /// The conventional B-term synopsis.
    pub synopsis: Synopsis,
    /// Candidate-set size after round-2 pruning.
    pub candidates: usize,
    /// Round-1 threshold on candidate magnitudes.
    pub t1: f64,
    /// Refined round-2 threshold.
    pub t2: f64,
    /// Metrics of the three rounds.
    pub metrics: DriverMetrics,
}

/// Local normalized partial coefficients of one block.
fn local_partials(n: usize, split: &SliceSplit) -> Vec<(u64, f64)> {
    let topo = TreeTopology::new(n).expect("power-of-two n");
    partial_coefficients(n, split.start(), split.slice())
        .into_iter()
        .map(|(node, v)| (node as u64, v * super::norm_factor(&topo, node)))
        .collect()
}

/// `τ(x)` from bounds: 0 when the signs disagree, else the smaller
/// magnitude.
fn tau(plus: f64, minus: f64) -> f64 {
    if plus.signum() != minus.signum() && plus != 0.0 && minus != 0.0 {
        0.0
    } else {
        plus.abs().min(minus.abs())
    }
}

/// The `k`-th largest value of a list (0 when the list is shorter).
fn kth_largest(mut values: Vec<f64>, k: usize) -> f64 {
    if values.len() < k || k == 0 {
        return 0.0;
    }
    values.sort_unstable_by(|a, b| b.total_cmp(a));
    values[k - 1]
}

/// Runs H-WTopk with budget `b` over `parts` unaligned blocks.
pub fn hwtopk(
    cluster: &Cluster,
    data: &[f64],
    b: usize,
    parts: usize,
) -> Result<HWTopkReport, CoreError> {
    let n = data.len();
    dwmaxerr_wavelet::error::ensure_pow2(n)?;
    let splits = block_splits(data, parts)?;
    if b == 0 {
        return Ok(HWTopkReport {
            synopsis: Synopsis::empty(n)?,
            candidates: 0,
            t1: 0.0,
            t2: 0.0,
            metrics: DriverMetrics::new(),
        });
    }
    let m = splits.len();
    // Appendix A.5: with k = B, round 1 collects 2k records from every
    // mapper at one reducer; beyond the per-task memory budget the job
    // genuinely cannot run (the paper's OOM at B = N/8, 8M+ points).
    let reducer_need = dwmaxerr_algos::memory::hwtopk_round1_reducer_bytes(m, b);
    if reducer_need > cluster.config().task_memory_bytes {
        return Err(CoreError::Runtime(
            dwmaxerr_runtime::RuntimeError::TaskOutOfMemory {
                needed: reducer_need,
                available: cluster.config().task_memory_bytes,
            },
        ));
    }
    // ---- Round 1: top/bottom k per mapper + thresholds ----
    let k = b;
    let r1 = JobBuilder::new("hwtopk-round1")
        .map(
            move |split: &SliceSplit, ctx: &mut MapContext<u64, (u32, f64)>| {
                ctx.charge(Kernel::Values, split.len() as u64);
                let mut partials = local_partials(n, split);
                partials.sort_unstable_by(|a, b| b.1.total_cmp(&a.1));
                let len = partials.len();
                let hi = k.min(len);
                let lo = k.min(len.saturating_sub(hi));
                for &(node, v) in &partials[..hi] {
                    ctx.emit(node, (split.id, v));
                }
                for &(node, v) in &partials[len - lo..] {
                    ctx.emit(node, (split.id, v));
                }
                let kth_high = if len >= k { partials[k - 1].1 } else { 0.0 };
                let kth_low = if len >= k { partials[len - k].1 } else { 0.0 };
                ctx.emit(KTH_HIGH, (split.id, kth_high));
                ctx.emit(KTH_LOW, (split.id, kth_low));
            },
        )
        .input_bytes(SliceSplit::bytes)
        .reduce(|key, vals, ctx: &mut ReduceContext<u64, (u32, f64)>| {
            for v in vals {
                ctx.emit(*key, v);
            }
        });
    let pipe = Pipeline::on(cluster)
        .stage(&r1, &splits)?
        .then(|(_, pairs)| {
            let mut kth_high = vec![0.0f64; m];
            let mut kth_low = vec![0.0f64; m];
            let mut seen: HashMap<u64, Vec<(u32, f64)>> = HashMap::new();
            for (key, (mapper, v)) in pairs {
                match key {
                    KTH_HIGH => kth_high[mapper as usize] = v,
                    KTH_LOW => kth_low[mapper as usize] = v,
                    node => seen.entry(node).or_default().push((mapper, v)),
                }
            }
            // τ(x) with round-1 bounds: non-senders bounded by their k-th
            // values (clamped by 0, since an unheld coefficient's partial is
            // exactly 0).
            let taus: Vec<f64> = seen
                .values()
                .map(|senders| {
                    let sent: HashSet<u32> = senders.iter().map(|&(j, _)| j).collect();
                    let exact: f64 = senders.iter().map(|&(_, v)| v).sum();
                    let mut plus = exact;
                    let mut minus = exact;
                    for j in 0..m as u32 {
                        if !sent.contains(&j) {
                            plus += kth_high[j as usize].max(0.0);
                            minus += kth_low[j as usize].min(0.0);
                        }
                    }
                    tau(plus, minus)
                })
                .collect();
            kth_largest(taus, k)
        });
    let t1 = *pipe.value();

    // ---- Round 2: everything above T1/m, refine, prune ----
    let threshold = t1 / m as f64;
    let r2 = JobBuilder::new("hwtopk-round2")
        .map(
            move |split: &SliceSplit, ctx: &mut MapContext<u64, (u32, f64)>| {
                ctx.charge(Kernel::Values, split.len() as u64);
                let mut partials = local_partials(n, split);
                partials.sort_unstable_by(|a, b| b.1.total_cmp(&a.1));
                let len = partials.len();
                let hi = k.min(len);
                let lo = k.min(len.saturating_sub(hi));
                for (idx, &(node, v)) in partials.iter().enumerate() {
                    // Union of round-1 emissions (top/bottom k) and the
                    // magnitude filter, so the reducer holds every value any
                    // round has shipped.
                    let in_round1 = idx < hi || idx >= len - lo;
                    // Strict `>` per the paper's Round 2; the round-1 union
                    // keeps every value the reducer has ever seen available
                    // for bound refinement.
                    if in_round1 || v.abs() > threshold {
                        ctx.emit(node, (split.id, v));
                    }
                }
            },
        )
        .input_bytes(SliceSplit::bytes)
        .reduce(|key, vals, ctx: &mut ReduceContext<u64, (u32, f64)>| {
            for v in vals {
                ctx.emit(*key, v);
            }
        });
    let pipe = pipe.stage(&r2, &splits)?.then(|(_, pairs)| {
        let mut seen2: HashMap<u64, Vec<(u32, f64)>> = HashMap::new();
        for (node, (mapper, v)) in pairs {
            seen2.entry(node).or_default().push((mapper, v));
        }
        let bounds: HashMap<u64, (f64, f64)> = seen2
            .iter()
            .map(|(&node, senders)| {
                let sent: HashSet<u32> = senders.iter().map(|&(j, _)| j).collect();
                let exact: f64 = senders.iter().map(|&(_, v)| v).sum();
                let absent = (m - sent.len()) as f64;
                // Non-senders now bounded by ±T1/m.
                (
                    node,
                    (exact + absent * threshold, exact - absent * threshold),
                )
            })
            .collect();
        let t2 = kth_largest(bounds.values().map(|&(p, mi)| tau(p, mi)).collect(), k);
        let candidates: HashSet<u64> = bounds
            .iter()
            .filter(|(_, &(p, mi))| p.abs().max(mi.abs()) >= t2)
            .map(|(&node, _)| node)
            .collect();
        (t2, Arc::new(candidates))
    });
    let (t2, cand) = pipe.value().clone();

    // ---- Round 3: exact values for the candidate set ----
    // Raw (un-normalized) partials here: summing dyadic-rational raw
    // contributions reproduces the centralized transform bit-for-bit,
    // whereas normalizing each partial by 1/sqrt(2^l) before summation
    // would accumulate rounding error into the stored coefficients.
    let cand_map = Arc::clone(&cand);
    let r3 = JobBuilder::new("hwtopk-round3")
        .map(move |split: &SliceSplit, ctx: &mut MapContext<u64, f64>| {
            ctx.charge(Kernel::Values, split.len() as u64);
            for (node, v) in partial_coefficients(n, split.start(), split.slice()) {
                if cand_map.contains(&(node as u64)) {
                    ctx.emit(node as u64, v);
                }
            }
        })
        .input_bytes(SliceSplit::bytes)
        .reduce(|key, vals, ctx: &mut ReduceContext<u64, f64>| {
            ctx.emit(*key, vals.sum());
        });
    let ((_, pairs), metrics) = pipe.stage(&r3, &splits)?.finish();

    // Final top-k by normalized magnitude over the raw aggregates.
    let entries = super::top_b_by_normalized(pairs, n, b);
    Ok(HWTopkReport {
        synopsis: Synopsis::from_entries(n, entries)?,
        candidates: cand.len(),
        t1,
        t2,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwmaxerr_algos::conventional::conventional_synopsis;
    use dwmaxerr_runtime::ClusterConfig;
    use dwmaxerr_wavelet::transform::forward;

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::with_slots(4, 2))
    }

    #[test]
    fn matches_reference_small_budget() {
        let data: Vec<f64> = (0..128)
            .map(|i| ((i * 17) % 53) as f64 + if i == 77 { 300.0 } else { 0.0 })
            .collect();
        for b in [1usize, 3, 8] {
            let expect = conventional_synopsis(&forward(&data).unwrap(), b).unwrap();
            let rep = hwtopk(&cluster(), &data, b, 6).unwrap();
            assert_eq!(rep.synopsis, expect, "b={b}");
            assert!(rep.t1 >= 0.0 && rep.t2 >= 0.0);
        }
    }

    #[test]
    fn pruning_shrinks_candidates_for_small_b() {
        let data: Vec<f64> = (0..256).map(|i| ((i * 31) % 97) as f64).collect();
        let rep = hwtopk(&cluster(), &data, 4, 8).unwrap();
        assert!(rep.candidates < 256, "candidates {}", rep.candidates);
        assert!(rep.candidates >= 4);
    }

    #[test]
    fn big_budget_blows_up_round1_traffic() {
        // The Figure-10 pathology: with k = B = N/8, round 1 alone ships
        // on the order of 2·k records per mapper.
        let data: Vec<f64> = (0..256).map(|i| (i % 19) as f64).collect();
        let b = 32;
        let rep = hwtopk(&cluster(), &data, b, 4).unwrap();
        let round1 = &rep.metrics.jobs[0];
        assert!(
            round1.shuffle_records as usize >= 4 * b,
            "round-1 records {}",
            round1.shuffle_records
        );
    }

    #[test]
    fn zero_budget() {
        let data: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let rep = hwtopk(&cluster(), &data, 0, 2).unwrap();
        assert_eq!(rep.synopsis.size(), 0);
        assert_eq!(rep.metrics.job_count(), 0);
    }

    #[test]
    fn tau_sign_logic() {
        assert_eq!(tau(5.0, 3.0), 3.0);
        assert_eq!(tau(-5.0, -3.0), 3.0);
        assert_eq!(tau(5.0, -3.0), 0.0);
        assert_eq!(tau(0.0, -3.0), 0.0);
    }

    #[test]
    fn kth_largest_behaviour() {
        assert_eq!(kth_largest(vec![3.0, 1.0, 2.0], 2), 2.0);
        assert_eq!(kth_largest(vec![3.0], 2), 0.0);
        assert_eq!(kth_largest(vec![], 1), 0.0);
    }
}
