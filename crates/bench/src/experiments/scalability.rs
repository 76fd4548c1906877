//! Section 6.1 — scalability with sub-tree size, budget, data size and
//! parallel tasks (Figure 5).
//!
//! Workload: uniformly distributed values in `[0, 1K]` (the paper's
//! choice for this subsection), `B = N/8`, `δ = 50` for DIndirectHaar.

use dwmaxerr_datagen::synthetic::uniform;

use crate::report::{secs, Table};
use crate::setup::{cluster_with_map_slots, paper_cluster, Scale};

use super::{
    run_dgreedy_abs, run_dindirect_haar, run_greedy_abs_centralized, run_indirect_haar_centralized,
    CENTRALIZED_NOTE,
};

const RANGE: f64 = 1_000.0;
const DELTA: f64 = 50.0;

/// Figure 5a: running time vs sub-tree size.
pub fn fig5a(scale: Scale) -> Vec<Table> {
    let n: usize = 1 << scale.pick(17, 20);
    let b = n / 8;
    let data = uniform(n, RANGE, 51);
    let cluster = paper_cluster();
    let mut t = Table::new(
        format!(
            "Figure 5a — running time vs sub-tree size (N=2^{}, B=N/8)",
            n.trailing_zeros()
        ),
        "the size of the sub-trees does not significantly affect the running-time of the job \
         (flat curves; only very small partitions pay task overhead)",
        &[
            "sub-tree leaves",
            "DGreedyAbs sim time",
            "DIndirectHaar sim time",
        ],
    );
    let log_s: Vec<u32> = scale.pick(vec![10, 11, 12, 13, 14], vec![12, 13, 14, 15, 16]);
    for ls in log_s {
        let s = 1usize << ls;
        let g = run_dgreedy_abs(&cluster, &data, b, s, 1.0);
        let d = run_dindirect_haar(&cluster, &data, b, s, DELTA);
        t.row(vec![
            format!("2^{ls}"),
            secs(g.secs),
            d.map(|o| secs(o.secs)).unwrap_or_else(|| "n/a".into()),
        ]);
    }
    vec![t]
}

/// Figure 5b: running time vs budget B.
pub fn fig5b(scale: Scale) -> Vec<Table> {
    let n: usize = 1 << scale.pick(17, 20);
    let data = uniform(n, RANGE, 52);
    let s = n / 16;
    let cluster = paper_cluster();
    let mut t = Table::new(
        format!(
            "Figure 5b — running time vs budget (N=2^{})",
            n.trailing_zeros()
        ),
        "DGreedyAbs is not considerably affected by the synopsis size; DIndirectHaar's \
         running-time may even DECREASE as B grows (tighter errors converge faster)",
        &["B", "DGreedyAbs sim time", "DIndirectHaar sim time"],
    );
    for div in [64usize, 32, 16, 8] {
        let b = n / div;
        let g = run_dgreedy_abs(&cluster, &data, b, s, 1.0);
        let d = run_dindirect_haar(&cluster, &data, b, s, DELTA);
        t.row(vec![
            format!("N/{div}"),
            secs(g.secs),
            d.map(|o| secs(o.secs)).unwrap_or_else(|| "n/a".into()),
        ]);
    }
    vec![t]
}

/// Figure 5c: DGreedyAbs — time vs data size and parallel map tasks,
/// against centralized GreedyAbs.
pub fn fig5c(scale: Scale) -> Vec<Table> {
    let logs: Vec<u32> = scale.pick(vec![15, 16, 17, 18, 19], vec![17, 18, 19, 20, 21]);
    let slot_counts = [10usize, 20, 40];
    let mut t = Table::new(
        "Figure 5c — DGreedyAbs: time vs N and parallel tasks",
        "linear scalability with N; halving cluster capacity doubles running-time; \
         DGreedyAbs is 7.4x faster than centralized GreedyAbs at 17M (here: at the \
         largest N, with the centralized run single-threaded by definition)",
        &[
            "N",
            "GreedyAbs (centralized)",
            "DGreedyAbs 10 slots",
            "DGreedyAbs 20 slots",
            "DGreedyAbs 40 slots",
        ],
    );
    for ln in logs {
        let n = 1usize << ln;
        let b = n / 8;
        let data = uniform(n, RANGE, 53);
        let s = (n / 64).max(1 << 10);
        let central = run_greedy_abs_centralized(&data, b);
        let mut cells = vec![format!("2^{ln}"), secs(central.secs)];
        for &slots in &slot_counts {
            let cluster = cluster_with_map_slots(slots);
            let g = run_dgreedy_abs(&cluster, &data, b, s, 1.0);
            cells.push(secs(g.secs));
        }
        t.row(cells);
    }
    t.note("every column is simulated seconds, each task priced from its TaskCost.");
    t.note(CENTRALIZED_NOTE);
    vec![t]
}

/// Figure 5d: DIndirectHaar — time vs data size and parallel map tasks,
/// against centralized IndirectHaar.
pub fn fig5d(scale: Scale) -> Vec<Table> {
    let logs: Vec<u32> = scale.pick(vec![16, 17, 18, 19], vec![17, 18, 19, 20]);
    let slot_counts = [10usize, 20, 40];
    let mut t = Table::new(
        "Figure 5d — DIndirectHaar: time vs N and parallel tasks",
        "linear scaling with N; IndirectHaar beats DIndirectHaar when the dataset is \
         small or tasks few (its in-memory probes skip job overhead); the distributed \
         version wins once jobs are compute-intensive",
        &[
            "N",
            "IndirectHaar (centralized)",
            "DIndirectHaar 10 slots",
            "DIndirectHaar 20 slots",
            "DIndirectHaar 40 slots",
        ],
    );
    for ln in logs {
        let n = 1usize << ln;
        let b = n / 8;
        let data = uniform(n, RANGE, 54);
        let s = (n / 64).max(1 << 10);
        let central = run_indirect_haar_centralized(&data, b, DELTA);
        let mut cells = vec![
            format!("2^{ln}"),
            central
                .map(|o| secs(o.secs))
                .unwrap_or_else(|| "n/a".into()),
        ];
        for &slots in &slot_counts {
            let cluster = cluster_with_map_slots(slots);
            let d = run_dindirect_haar(&cluster, &data, b, s, DELTA);
            cells.push(d.map(|o| secs(o.secs)).unwrap_or_else(|| "n/a".into()));
        }
        t.row(cells);
    }
    t.note(CENTRALIZED_NOTE);
    vec![t]
}
