//! Memory-footprint projections reproducing the paper's OOM boundaries
//! (Section 6.1 and Appendix A.5) from the workspace's concrete data
//! layouts.

use dwmaxerr_algos::memory::{
    fmt_bytes, greedy_abs_bytes, hwtopk_round1_reducer_bytes, indirect_haar_bytes,
};
use dwmaxerr_bench::report::Table;

fn main() {
    const GIB: u64 = 1 << 30;
    let mut t = Table::new(
        "Memory model — centralized algorithms vs the paper's 8 GB machine",
        "\"For sizes greater than 17M points, neither GreedyAbs nor IndirectHaar \
         could run, as their execution demanded more main memory than the \
         available 8GB\" (Section 6.1)",
        &[
            "N",
            "GreedyAbs",
            "IndirectHaar (ε*≈570, δ=50)",
            "fits 8 GB?",
        ],
    );
    for n in [
        17_000_000usize,
        34_000_000,
        68_000_000,
        137_000_000,
        537_000_000,
    ] {
        let ga = greedy_abs_bytes(n);
        let ih = indirect_haar_bytes(n, 600.0, 50.0);
        t.row(vec![
            format!("{}M", n / 1_000_000),
            fmt_bytes(ga),
            fmt_bytes(ih),
            if ga.max(ih) <= 8 * GIB {
                "yes"
            } else {
                "no (OOM)"
            }
            .into(),
        ]);
    }
    t.note(
        "both fit at 17M, as in the paper. IndirectHaar's rows hold costs only \
         (4 bytes per cell; the replay computes each choice it reads), so this \
         model also fits 34M, where the paper's Java implementation ran out of \
         memory: the Java heap roughly doubles these tight Rust layouts. The \
         model's boundary falls between 34M (fits) and 68M (OOM).",
    );
    println!("{}", t.to_markdown());

    let mut t = Table::new(
        "Memory model — H-WTopk round-1 reducer vs a 1 GB task",
        "\"for datasizes larger than 8 millions of datapoints, it runs out of \
         memory ... since it needs to emit the B largest and B smallest \
         coefficients\" (Appendix A.5, B = N/8, 20 mappers as in its Figure 10 setup)",
        &["N", "B = N/8", "round-1 reducer bytes", "fits 1 GB task?"],
    );
    for ln in [20u32, 21, 22, 23, 24] {
        let n = 1usize << ln;
        let b = n / 8;
        let need = hwtopk_round1_reducer_bytes(20, b);
        t.row(vec![
            format!("2^{ln} (~{}M)", n >> 20),
            b.to_string(),
            fmt_bytes(need),
            if need <= 1 << 30 { "yes" } else { "no (OOM)" }.into(),
        ]);
    }
    t.note("the modelled boundary lands at 2^23 = 8M — the paper's exact figure.");
    println!("{}", t.to_markdown());
}
