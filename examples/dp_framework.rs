//! The Section-4 framework's generality: one driver (`core::layered` —
//! Algorithm 1 plus the top-down extraction pass), two of its three DP
//! instances.
//!
//! Runs the same layered MapReduce decomposition over (a) MinHaarSpace
//! (the dual Problem 2, `O(ε/δ)` rows) and (b) MinRelVar (the
//! budget-indexed probabilistic DP whose `(v, y, l)` cells appear in the
//! paper's Figure 2, `O(B·q)` rows), and prints the per-stage row traffic
//! of each — the measured version of the paper's argument for building
//! DIndirectHaar on the dual problem.
//!
//! Run with: `cargo run --release --example dp_framework`

use dwmaxerr::algos::min_haar_space::MhsParams;
use dwmaxerr::algos::min_rel_var::MrvParams;
use dwmaxerr::core::dmin_haar_space::{dmin_haar_space, DmhsConfig};
use dwmaxerr::core::dmin_rel_var::{dmin_rel_var, DmrvConfig};
use dwmaxerr::datagen::wd_like;
use dwmaxerr::runtime::{Cluster, ClusterConfig};

fn main() {
    let n = 1 << 12;
    let data = wd_like(n, 0.0, 13);
    let cluster = Cluster::new(ClusterConfig::default());

    // (a) DMHaarSpace: minimize size under an error bound.
    let eps = 20.0;
    let sol = dmin_haar_space(
        &cluster,
        &data,
        &MhsParams::new(eps, 1.0).unwrap(),
        &DmhsConfig {
            base_leaves: 256,
            fan_in: 4,
        },
    )
    .expect("DMHaarSpace runs");
    let mhs_row_bytes: u64 = sol
        .metrics
        .jobs
        .iter()
        .filter(|j| j.name.contains("layer"))
        .map(|j| j.shuffle_bytes)
        .sum();
    println!(
        "DMHaarSpace  (ε = {eps}): {} coefficients, actual error {:.1}, \
         {} bytes of M-rows exchanged",
        sol.size, sol.actual_error, mhs_row_bytes
    );

    // (b) DMinRelVar: minimize max relative error under an expected budget.
    for b in [n / 64, n / 16, n / 8] {
        let cfg = DmrvConfig {
            base_leaves: 256,
            fan_in: 4,
            params: MrvParams::new(4, 1.0).unwrap(),
            seed: 99,
        };
        let sol = dmin_rel_var(&cluster, &data, b, &cfg).expect("DMinRelVar runs");
        let row_bytes: u64 = sol
            .metrics
            .jobs
            .iter()
            .filter(|j| j.name.contains("layer"))
            .map(|j| j.shuffle_bytes)
            .sum();
        println!(
            "DMinRelVar   (B = {b:>4}): expected size {:.1}, max-NSE² bound {:.5}, \
             {} bytes of M-rows exchanged",
            sol.expected_size, sol.nse_bound, row_bytes
        );
    }
    println!(
        "\nThe MinRelVar rows grow with B (O(B·q) cells) while the MinHaarSpace \
         rows stay O(ε/δ) — Section 4's reason to solve the dual problem."
    );
}
