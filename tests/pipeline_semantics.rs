//! Cross-crate refactor guard: every distributed algorithm, now driven by
//! `runtime::pipeline`, must produce **bit-identical** synopses to the
//! pre-refactor job-chaining implementations.
//!
//! The golden digests below were captured from the seed implementation
//! (driver-side `Job::run` chaining with hand-summed metrics) on a fixed
//! workload, before the Pipeline port. Each test re-runs the same workload
//! through the pipelines and checks:
//!
//! * the FNV-1a digest over the synopsis entry bytes is unchanged,
//! * the executed job-name sequence is unchanged (same stages, same order),
//! * both still hold under an injected [`FaultPlan`] (deterministic
//!   recovery),
//! * the three DP families' row exchange — records per job, bottom-up
//!   bytes — is unchanged ([`DP_ROW_EXCHANGE`]), and
//! * the trace's `summary::per_stage` rows partition the job ledger, and
//!   the trace's clock is the ledger's total bit for bit.

use dwmaxerr::algos::min_haar_space::MhsParams;
use dwmaxerr::algos::min_rel_var::MrvParams;
use dwmaxerr::core::conventional::{con, hwtopk, send_coef, send_coef_combined, send_v};
use dwmaxerr::core::dgreedy_abs::{dgreedy_abs, DGreedyAbsConfig};
use dwmaxerr::core::dgreedy_rel::{dgreedy_rel, DGreedyRelConfig};
use dwmaxerr::core::dhaar_plus::{dhaar_plus, DhpConfig};
use dwmaxerr::core::dindirect_haar::{dindirect_haar, DIndirectHaarConfig};
use dwmaxerr::core::dmin_haar_space::{dmin_haar_space, DmhsConfig};
use dwmaxerr::core::dmin_rel_var::{dmin_rel_var, DmrvConfig};
use dwmaxerr::datagen::synthetic::uniform;
use dwmaxerr::runtime::codec::{FnvHasher, WireSink};
use dwmaxerr::runtime::trace::{summary, TraceEventKind};
use dwmaxerr::runtime::{Cluster, ClusterConfig, DriverMetrics, FaultPlan, TaskPhase};
use dwmaxerr::wavelet::Synopsis;

/// Golden `(algorithm, synopsis digest, executed job-name sequence)` rows
/// captured from the seed implementation. `dindirect_haar`'s sequence is
/// assembled by [`dih_names`] (three bound jobs plus seven probes).
const GOLDENS: &[(&str, u64, &str)] = &[
    (
        "dgreedy_abs",
        0x9cd78121061a16d6,
        "dgreedyabs-averages,dgreedyabs-errhist,dgreedyabs-synopsis",
    ),
    // Not the seed's digest (0x96152d5454b8b41c): that one recorded
    // GreedyRel discarding by stale `MR` keys; this is the arg-min's.
    (
        "dgreedy_rel",
        0xb70da7aed7b443fe,
        "dgreedyrel-averages,dgreedyrel-errhist,dgreedyrel-synopsis,eval-max-rel",
    ),
    ("dmin_haar_space", 0x5522dada1daf9f24, MHS_CHAIN),
    ("dindirect_haar", 0x22a4c439ab01b27b, ""),
    (
        "dmin_rel_var",
        0x0ee9e5028e6dbe47,
        "dmrv-layer0,dmrv-layer-up,dmrv-layer-up,dmrv-extract,dmrv-extract,dmrv-extract-base",
    ),
    (
        "dhaar_plus",
        0x0f4542fcf6d6a4b3,
        "dhp-layer0,dhp-layer-up,dhp-layer-up,dhp-extract,dhp-extract,dhp-extract-base",
    ),
    ("con", 0x07147c732b1c089e, "con"),
    ("send_v", 0x07147c732b1c089e, "send-v"),
    ("send_coef", 0x748f5e00ab4dbc30, "send-coef"),
    (
        "send_coef_combined",
        0x328506b2097b1244,
        "send-coef+combiner",
    ),
    (
        "hwtopk",
        0x328506b2097b1244,
        "hwtopk-round1,hwtopk-round2,hwtopk-round3",
    ),
];

/// Eq. 6's quantity, golden rather than only measured by the
/// `dp_communication` ablation: per DP family, the `shuffle_records` of
/// every job of its chain and the `shuffle_bytes` of the bottom-up row
/// exchange (`-layer0`, then the two `-layer-up` jobs), captured on the
/// golden workload before the three drivers were folded into
/// `core::layered` — but for DHaarPlus's layer 0, whose eight records lost
/// a one-byte failure flag there (18,856 B before), and for DMHaarSpace's
/// bytes, which roughly halved when its rows stopped carrying a choice per cell
/// ([6424, 1600, 800] before).
const DP_ROW_EXCHANGE: &[(&str, &[u64], [u64; 3])] = &[
    ("dmin_haar_space", &[8, 2, 1, 2, 8, 0, 8], [3276, 816, 408]),
    ("dmin_rel_var", &[8, 2, 1, 2, 11, 12], [3920, 964, 482]),
    ("dhaar_plus", &[8, 2, 1, 2, 8, 0], [18848, 4820, 2416]),
];

/// One full DMHaarSpace chain on the golden workload (two merge layers,
/// two extract layers) followed by the driver's evaluation job.
const MHS_CHAIN: &str =
    "dmhs-layer0,dmhs-layer-up,dmhs-layer-up,dmhs-extract,dmhs-extract,dmhs-extract-base,\
     eval-max-abs";

/// What a DIndirectHaar probe runs when the size on its root row is over
/// budget: the bottom-up jobs, which is where that size is known.
const MHS_BOTTOM_UP: &str = "dmhs-layer0,dmhs-layer-up,dmhs-layer-up";

/// DIndirectHaar's golden job sequence: the lower-bound job, CON plus its
/// evaluation for the upper bound, then seven binary-search probes. Probes
/// 4–6 come back over budget (sizes 49, 39 and 33 against B = 32); they
/// were full chains in the seed's sequence, whose extraction and
/// evaluation Algorithm 2 discarded unread.
fn dih_names() -> String {
    let mut names = vec!["dih-lower-bound", "con", "eval-max-abs"];
    names.extend(std::iter::repeat_n(MHS_CHAIN, 3));
    names.extend(std::iter::repeat_n(MHS_BOTTOM_UP, 3));
    names.push(MHS_CHAIN);
    names.join(",")
}

fn syn_digest(s: &Synopsis) -> u64 {
    let mut h = FnvHasher::new();
    for &(i, v) in s.entries() {
        h.write(&i.to_le_bytes());
        h.write(&v.to_bits().to_le_bytes());
    }
    h.finish()
}

fn hp_digest(s: &dwmaxerr::algos::haar_plus::HaarPlusSynopsis) -> u64 {
    use dwmaxerr::algos::haar_plus::Role;
    let mut h = FnvHasher::new();
    for &(i, role, v) in s.entries() {
        let r: u8 = match role {
            Role::Head => 0,
            Role::LeftSupp => 1,
            Role::RightSupp => 2,
            Role::Top => 3,
        };
        h.write(&i.to_le_bytes());
        h.write(&[r]);
        h.write(&v.to_bits().to_le_bytes());
    }
    h.finish()
}

fn quiet_cluster(plan: Option<FaultPlan>) -> Cluster {
    let mut cfg = ClusterConfig::with_slots(8, 4);
    cfg.task_startup = std::time::Duration::from_micros(10);
    cfg.job_setup = std::time::Duration::from_micros(10);
    cfg.fault_plan = plan;
    Cluster::new(cfg)
}

/// The fault plan the goldens were also captured under: the first attempt
/// of map task 0 and reduce task 0 of every job fails and is retried.
fn golden_fault_plan() -> FaultPlan {
    FaultPlan::seeded(3)
        .with_targeted(TaskPhase::Map, 0, vec![1])
        .with_targeted(TaskPhase::Reduce, 0, vec![1])
}

fn job_names(m: &DriverMetrics) -> String {
    m.jobs
        .iter()
        .map(|j| j.name.as_str())
        .collect::<Vec<_>>()
        .join(",")
}

/// One algorithm's run: `(name, synopsis digest, job-name sequence,
/// ledger, the cluster it ran on alone)`.
type Run = (&'static str, u64, String, DriverMetrics, Cluster);

/// Runs all eleven algorithms on the golden workload, each on a cluster of
/// its own.
fn run_all(plan: Option<FaultPlan>) -> Vec<Run> {
    let n = 256usize;
    let b = 32usize;
    let data = uniform(n, 100.0, 42);
    let mut out = Vec::new();

    let c = quiet_cluster(plan.clone());
    let r = dgreedy_abs(
        &c,
        &data,
        b,
        &DGreedyAbsConfig {
            base_leaves: 32,
            bucket_width: 0.25,
            reducers: 2,
            max_candidates: None,
        },
    )
    .unwrap();
    let names = job_names(&r.metrics);
    out.push(("dgreedy_abs", syn_digest(&r.synopsis), names, r.metrics, c));

    let c = quiet_cluster(plan.clone());
    let r = dgreedy_rel(
        &c,
        &data,
        b,
        &DGreedyRelConfig {
            base_leaves: 32,
            bucket_width: 0.05,
            reducers: 2,
            sanity: 1.0,
        },
    )
    .unwrap();
    let names = job_names(&r.metrics);
    out.push(("dgreedy_rel", syn_digest(&r.synopsis), names, r.metrics, c));

    let c = quiet_cluster(plan.clone());
    let r = dmin_haar_space(
        &c,
        &data,
        &MhsParams::new(50.0, 1.0).unwrap(),
        &DmhsConfig {
            base_leaves: 32,
            fan_in: 4,
        },
    )
    .unwrap();
    let names = job_names(&r.metrics);
    out.push((
        "dmin_haar_space",
        syn_digest(&r.synopsis),
        names,
        r.metrics,
        c,
    ));

    let c = quiet_cluster(plan.clone());
    let r = dindirect_haar(
        &c,
        &data,
        b,
        &DIndirectHaarConfig {
            delta: 1.0,
            probe: DmhsConfig {
                base_leaves: 32,
                fan_in: 4,
            },
        },
    )
    .unwrap();
    let names = job_names(&r.metrics);
    out.push((
        "dindirect_haar",
        syn_digest(&r.synopsis),
        names,
        r.metrics,
        c,
    ));

    let c = quiet_cluster(plan.clone());
    let r = dmin_rel_var(
        &c,
        &data,
        16,
        &DmrvConfig {
            base_leaves: 32,
            fan_in: 4,
            params: MrvParams::new(2, 1.0).unwrap(),
            seed: 7,
        },
    )
    .unwrap();
    let names = job_names(&r.metrics);
    out.push(("dmin_rel_var", syn_digest(&r.synopsis), names, r.metrics, c));

    let c = quiet_cluster(plan.clone());
    let r = dhaar_plus(
        &c,
        &data,
        &MhsParams::new(50.0, 1.0).unwrap(),
        &DhpConfig {
            base_leaves: 32,
            fan_in: 4,
        },
    )
    .unwrap();
    let names = job_names(&r.metrics);
    out.push(("dhaar_plus", hp_digest(&r.synopsis), names, r.metrics, c));

    let c = quiet_cluster(plan.clone());
    let (s, m) = con(&c, &data, b, 32).unwrap();
    let names = job_names(&m);
    out.push(("con", syn_digest(&s), names, m, c));

    let c = quiet_cluster(plan.clone());
    let (s, m) = send_v(&c, &data, b, 4).unwrap();
    let names = job_names(&m);
    out.push(("send_v", syn_digest(&s), names, m, c));

    let c = quiet_cluster(plan.clone());
    let (s, m) = send_coef(&c, &data, b, 4).unwrap();
    let names = job_names(&m);
    out.push(("send_coef", syn_digest(&s), names, m, c));

    let c = quiet_cluster(plan.clone());
    let (s, m) = send_coef_combined(&c, &data, b, 4).unwrap();
    let names = job_names(&m);
    out.push(("send_coef_combined", syn_digest(&s), names, m, c));

    let c = quiet_cluster(plan);
    let r = hwtopk(&c, &data, b, 4).unwrap();
    let names = job_names(&r.metrics);
    out.push(("hwtopk", syn_digest(&r.synopsis), names, r.metrics, c));

    out
}

fn assert_matches_goldens(results: &[Run], tag: &str) {
    assert_eq!(results.len(), GOLDENS.len());
    let dih = dih_names();
    for ((name, digest, names, ..), (g_name, g_digest, g_names)) in results.iter().zip(GOLDENS) {
        let expected_names = if *g_name == "dindirect_haar" {
            dih.as_str()
        } else {
            g_names
        };
        assert_eq!(name, g_name, "[{tag}] algorithm order drifted");
        assert_eq!(
            digest, g_digest,
            "[{tag}] {name}: synopsis no longer bit-identical to the seed"
        );
        assert_eq!(
            names, expected_names,
            "[{tag}] {name}: executed job sequence drifted from the seed"
        );
    }
}

#[test]
fn pipelines_reproduce_seed_synopses_bit_identically() {
    assert_matches_goldens(&run_all(None), "clean");
}

#[test]
fn dp_row_exchange_is_golden() {
    let results = run_all(None);
    for (name, records, row_bytes) in DP_ROW_EXCHANGE {
        let (_, _, _, metrics, _) = results
            .iter()
            .find(|(n, ..)| n == name)
            .expect("a golden row per DP family");
        let got: Vec<u64> = metrics.jobs.iter().map(|j| j.shuffle_records).collect();
        assert_eq!(&got, records, "{name}: per-job shuffle_records moved");
        let bytes: Vec<u64> = metrics.jobs[..3].iter().map(|j| j.shuffle_bytes).collect();
        assert_eq!(bytes, row_bytes, "{name}: bottom-up row bytes moved");
    }
}

#[test]
fn pipelines_reproduce_seed_synopses_under_injected_faults() {
    let results = run_all(Some(golden_fault_plan()));
    assert_matches_goldens(&results, "faulted");
    // The plan must actually have been exercised: every algorithm's trace
    // records failed first attempts and their retries.
    for (name, .., cluster) in &results {
        let (mut failed, mut retried) = (0, 0);
        for row in summary::per_stage(&cluster.trace_events()) {
            failed += row.map.failed + row.reduce.failed;
            retried += row.map.retried + row.reduce.retried;
        }
        assert!(failed > 0, "{name}: fault plan injected no failures");
        assert!(retried > 0, "{name}: no retries recorded");
    }
}

#[test]
fn per_stage_rows_partition_each_ledger() {
    for (name, _, _, metrics, cluster) in run_all(Some(golden_fault_plan())) {
        let stages = summary::per_stage(&cluster.trace_events());
        let runs: usize = stages.iter().map(|s| s.runs).sum();
        assert_eq!(runs, metrics.job_count(), "{name}: stage runs != job count");

        let sim: f64 = stages.iter().map(|s| s.sim_secs).sum();
        let total_sim = metrics.total_simulated().secs();
        assert!(
            (sim - total_sim).abs() <= 1e-9 * total_sim.max(1.0),
            "{name}: stage sim {sim} != total {total_sim}"
        );

        let shuffle: u64 = stages.iter().map(|s| s.shuffle.bytes).sum();
        assert_eq!(
            shuffle,
            metrics.total_shuffle_bytes(),
            "{name}: stage shuffle bytes don't sum to the total"
        );

        // Stage names are unique (grouping actually grouped).
        let mut names: Vec<&str> = stages.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), stages.len(), "{name}: duplicate stage rows");
    }
}

/// The trace and the ledger hold one simulated clock: every algorithm,
/// alone on its cluster, has its `job_end`s sum — and the sink's clock
/// read — exactly the ledger's `total_simulated`, clean and under the
/// golden fault plan. Send-V's central step counts: it is charged inside
/// its reducer, so the reduce attempt is priced with it before the job is
/// traced.
#[test]
fn trace_clock_is_the_ledger_total_bitwise() {
    for plan in [None, Some(golden_fault_plan())] {
        for (name, _, _, metrics, cluster) in run_all(plan) {
            let total = metrics.total_simulated().secs();
            let ended = cluster
                .trace_events()
                .iter()
                .filter_map(|e| match e.kind {
                    TraceEventKind::JobEnd { sim_secs } => Some(sim_secs),
                    _ => None,
                })
                .fold(0.0, |acc, secs| acc + secs);
            assert_eq!(ended.to_bits(), total.to_bits(), "{name}: Σ job_end");
            let now = cluster.trace().now();
            assert_eq!(now.to_bits(), total.to_bits(), "{name}: trace clock");
        }
    }
}

/// What the searches *return*, beyond the synopsis digests above:
/// `(synopsis digest, error.to_bits(), probes)` of DIndirectHaar on the
/// golden workload (real-valued errors) and on a `build-dp`-shaped input
/// (rounded uniform values ≤ 56, whole errors), and DGreedyRel's
/// `error.to_bits()` — the numbers `max_error_job` measures — clean and
/// under the golden fault plan. Captured while every probe ran its full
/// chain and the evaluation job reconstructed value by value.
#[test]
fn search_outcomes_are_golden() {
    let golden = uniform(256, 100.0, 42);
    let dp_shaped: Vec<f64> = uniform(1 << 13, 56.0, 1901)
        .into_iter()
        .map(f64::round)
        .collect();
    for plan in [None, Some(golden_fault_plan())] {
        for (data, b, base_leaves, want) in [
            (&golden, 32, 32, (0x22a4c439ab01b27b, 0x4043dfad6c46dd3e, 7)),
            (
                &dp_shaped,
                512,
                512,
                (0x53308395cc2ba9bc, 0x4039000000000000, 6),
            ),
        ] {
            let probe = DmhsConfig {
                base_leaves,
                fan_in: 4,
            };
            let cfg = DIndirectHaarConfig { delta: 1.0, probe };
            let r = dindirect_haar(&quiet_cluster(plan.clone()), data, b, &cfg).unwrap();
            assert_eq!(
                (syn_digest(&r.synopsis), r.error.to_bits(), r.probes),
                want,
                "dindirect_haar N={} B={b}: error {}",
                data.len(),
                r.error
            );
        }

        let cfg = DGreedyRelConfig {
            base_leaves: 32,
            bucket_width: 0.05,
            reducers: 2,
            sanity: 1.0,
        };
        let r = dgreedy_rel(&quiet_cluster(plan), &golden, 32, &cfg).unwrap();
        assert_eq!(
            (syn_digest(&r.synopsis), r.error.to_bits()),
            (0xb70da7aed7b443fe, 0x4017024b4bf3d652),
            "dgreedy_rel: error {}",
            r.error
        );
    }
}
