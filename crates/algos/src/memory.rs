//! Working-set estimators for the centralized algorithms.
//!
//! The paper's evaluation leans on memory limits: "for sizes greater than
//! 17M points, neither GreedyAbs nor IndirectHaar could run, as their
//! execution demanded more main memory than the available 8GB"
//! (Section 6.1), mapper sub-trees "bigger than 1M do not fit in our
//! mapper's main memory" (Figure 5a), and H-WTopk "runs out of memory"
//! for B = N/8 (Appendix A.5). These estimators model each algorithm's
//! peak resident bytes so the engine and the benchmark harness can
//! reproduce those OOM boundaries deterministically instead of actually
//! exhausting the host.
//!
//! The estimates count the dominant data structures only (arrays, error
//! trees, DP rows, shuffle buffers); constants are derived from the concrete
//! Rust layouts in this workspace.

/// Peak bytes for a full GreedyAbs run over `n` coefficients: one 64-byte
/// error-tree node per coefficient (four extrema, the coefficient, the
/// sub-tree's smallest `(MA, id)`, its retained count and the node's own
/// flag — the tree is its own priority queue) and the 16-byte entry the
/// node leaves in the removal trace.
pub fn greedy_abs_bytes(n: usize) -> u64 {
    (n as u64) * (64 + 16)
}

/// Peak bytes for GreedyRel: GreedyAbs's tournament plus envelopes. On
/// realistic data hull sizes are small; we charge an average of
/// `avg_hull_lines` 16-byte lines per internal node plus per-leaf
/// denominators.
pub fn greedy_rel_bytes(n: usize, avg_hull_lines: usize) -> u64 {
    greedy_abs_bytes(n) + (n as u64) * (8 + 16 * avg_hull_lines as u64)
}

/// Peak bytes for a MinHaarSpace run: all `n` DP rows of `O(2ε/δ)` cells
/// in one arena (4 bytes per cell, a `u32` cost; choices are computed
/// where the replay reads them), each node's 24-byte span into it (a grid
/// index and a range), plus the 8-byte datum.
pub fn min_haar_space_bytes(n: usize, epsilon: f64, delta: f64) -> u64 {
    let cells = (2.0 * epsilon / delta).ceil() as u64 + 2;
    let span = std::mem::size_of::<crate::min_haar_space::Span>() as u64;
    (n as u64) * (4 * cells + span + 8)
}

/// Peak bytes for IndirectHaar: the worst probe is at the upper bound
/// error `e_u`.
pub fn indirect_haar_bytes(n: usize, e_upper: f64, delta: f64) -> u64 {
    min_haar_space_bytes(n, e_upper, delta)
}

/// Peak reducer bytes for H-WTopk's first round: every mapper ships its
/// `2k` extreme partials, all collected at one reducer
/// (`records × (8-byte node + 4-byte mapper + 8-byte value)` plus the
/// grouping map overhead).
pub fn hwtopk_round1_reducer_bytes(mappers: usize, k: usize) -> u64 {
    (mappers as u64) * (2 * k as u64) * 48
}

/// Formats a byte count for reports.
pub fn fmt_bytes(b: u64) -> String {
    const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
    const MIB: f64 = 1024.0 * 1024.0;
    let bf = b as f64;
    if bf >= GIB {
        format!("{:.1} GiB", bf / GIB)
    } else if bf >= MIB {
        format!("{:.1} MiB", bf / MIB)
    } else {
        format!("{:.0} KiB", bf / 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: u64 = 1 << 30;

    #[test]
    fn paper_oom_boundaries_reproduce() {
        // Section 6.1: GreedyAbs and IndirectHaar ran at 17M but not at
        // 34M with 8 GB on the paper's machines (Java object overheads
        // roughly double our tight Rust layouts, so the model's boundary
        // sits between 17M and its 4x).
        let n17 = 17_000_000usize;
        assert!(greedy_abs_bytes(n17) < 8 * GIB, "17M must fit");
        assert!(
            greedy_abs_bytes(n17 * 8) > 8 * GIB,
            "137M must not fit in 8 GiB"
        );
        // IndirectHaar on NYCT: achieved error ~570, delta = 50.
        assert!(indirect_haar_bytes(n17, 600.0, 50.0) < 8 * GIB);
        assert!(indirect_haar_bytes(n17 * 4, 600.0, 50.0) > 8 * GIB);
    }

    #[test]
    fn min_haar_space_model_covers_the_rows_held() {
        use crate::min_haar_space::{subtree_rows, MhsParams, Span};
        use dwmaxerr_datagen::{uniform, wd_like};
        // What `subtree_rows` holds when it returns: every node's cells (a
        // `u32` cost each) and its span, beside the data it was given.
        let held = |data: &[f64], eps: f64, delta: f64| {
            let rows = subtree_rows(data, &MhsParams::new(eps, delta).unwrap()).unwrap();
            let cells: usize = (1..rows.leaves()).map(|i| rows.costs(i).1.len()).sum();
            (cells * 4 + rows.leaves() * std::mem::size_of::<Span>() + data.len() * 8) as f64
        };
        // `build-dp`'s base slices at the ε its search settles on, and the
        // WD surrogate at Figure 9's `(ε/δ)² ≈ 36`.
        let ints: Vec<f64> = uniform(512, 56.0, 17).into_iter().map(f64::round).collect();
        let wd = wd_like(4096, 1e-4, 5);
        for (name, data, eps, delta) in [
            ("build-dp", &ints, 25.0, 1.0),
            ("build-dp wide", &ints, 40.0, 1.0),
            ("wd-like", &wd, 12.0, 2.0),
            ("wd-like fine", &wd, 30.0, 0.5),
        ] {
            let ratio =
                min_haar_space_bytes(data.len(), eps, delta) as f64 / held(data, eps, delta);
            println!("{name}: model / held = {ratio:.3}");
            assert!(
                (1.0..=1.5).contains(&ratio),
                "{name}: model / held = {ratio}"
            );
        }
    }

    #[test]
    fn mapper_subtree_boundary() {
        // Figure 5a: 1M-node sub-trees fit a 1 GB task, larger ones are
        // problematic once the full greedy state is resident.
        let one_gib = GIB;
        assert!(greedy_abs_bytes(1 << 20) < one_gib);
        assert!(greedy_rel_bytes(1 << 24, 8) > one_gib);
        // The largest power-of-two sub-tree a default 1 GiB task admits.
        assert!(greedy_abs_bytes(1 << 23) <= one_gib);
        assert!(greedy_abs_bytes(1 << 24) > one_gib);
    }

    #[test]
    fn hwtopk_blowup() {
        // B = N/8 at N = 64M with 40 mappers: far beyond a 1 GB reducer.
        assert!(hwtopk_round1_reducer_bytes(40, 8_000_000) > GIB);
        // B = 50 is trivially small.
        assert!(hwtopk_round1_reducer_bytes(40, 50) < 1 << 20);
    }

    #[test]
    fn estimators_are_monotone() {
        assert!(greedy_abs_bytes(2048) > greedy_abs_bytes(1024));
        assert!(min_haar_space_bytes(1024, 100.0, 1.0) > min_haar_space_bytes(1024, 10.0, 1.0));
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_bytes(2048), "2 KiB");
        assert_eq!(fmt_bytes(5 * (1 << 20)), "5.0 MiB");
        assert_eq!(fmt_bytes(3 * (1 << 30)), "3.0 GiB");
    }
}
