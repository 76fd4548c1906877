//! Acceptance tests for incremental maintenance and the serving driver
//! (the progressive serving layer).
//!
//! Five guarantees are pinned here:
//!
//! 1. **Golden digest** — the driver's published synopsis is
//!    bit-identical to a one-shot `dgreedy_abs` build of the same window,
//!    on both spill backends, with and without injected faults.
//! 2. **Proportional work** — after appending ≤ 1/16 of the window, the
//!    rebuild re-runs map tasks proportional to the dirty subtrees (far
//!    fewer than a full rebuild), verified through `TickReport` counters,
//!    the `DriverMetrics` ledger, and the trace.
//! 3. **Incremental ≡ from-scratch** — a property test drives random
//!    append/slide schedules (power-of-two fills and ragged zero-padded
//!    tails alike) and requires the incrementally maintained DGreedyAbs
//!    synopsis to equal from-scratch builds bit for bit; a sliding
//!    wind-direction feed on `sensor_stream`'s shape does the same while
//!    the errhist stage leaves out `C_root` candidates.
//! 4. **Golden tick schedule** — a fixed ten-tick schedule pins what each
//!    tick re-ran (dirty bases, tasks, GreedyAbs runs) and what it served,
//!    and that each tick mints exactly one version.
//! 5. **Non-finite input** — NaN / ±∞ are refused with a typed error by
//!    `tick` and by the maintainer, nothing moves, and the next clean
//!    update is again bit-identical to a one-shot build.

use std::time::Duration;

use dwmaxerr::core::dgreedy_abs::{dgreedy_abs, DGreedyAbsConfig};
use dwmaxerr::core::progressive::{IncrementalDGreedyAbs, PhasedSynopsisDriver, StreamWindow};
use dwmaxerr::core::query::point_answer;
use dwmaxerr::core::CoreError;
use dwmaxerr::datagen::wd_like;
use dwmaxerr::runtime::codec::{FnvHasher, WireSink};
use dwmaxerr::runtime::trace::{self, TraceEventKind};
use dwmaxerr::runtime::{Cluster, ClusterConfig, FaultPlan, Pipeline, SpillBackend, TaskPhase};
use dwmaxerr::wavelet::metrics::max_abs;
use dwmaxerr::wavelet::Synopsis;
use proptest::prelude::*;

const N: usize = 256;
const BASE: usize = 16; // 16 bases of 16 leaves

fn cluster_on(backend: SpillBackend, plan: Option<FaultPlan>) -> Cluster {
    let mut cfg = ClusterConfig::with_slots(4, 2);
    cfg.task_startup = Duration::from_millis(1);
    cfg.job_setup = Duration::from_millis(1);
    cfg.spill_backend = backend;
    cfg.fault_plan = plan;
    Cluster::new(cfg)
}

fn dg_cfg() -> DGreedyAbsConfig {
    DGreedyAbsConfig {
        base_leaves: BASE,
        bucket_width: 1e-9,
        reducers: 2,
        max_candidates: None,
    }
}

/// Integer-valued workload: float sums are exact regardless of
/// association, so a mean-preserving overwrite reproduces the base
/// average bit for bit.
fn int_data(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as u64).wrapping_mul(2_862_933_555) ^ seed) % 97)
        .map(|v| v as f64)
        .collect()
}

fn syn_digest(s: &Synopsis) -> u64 {
    let mut h = FnvHasher::new();
    for &(i, v) in s.entries() {
        h.write(&i.to_le_bytes());
        h.write(&v.to_bits().to_le_bytes());
    }
    h.finish()
}

fn hostile_plan() -> FaultPlan {
    FaultPlan::seeded(23)
        .with_failure_prob(0.12)
        .with_straggler(TaskPhase::Map, 0, 5.0)
        .with_straggler(TaskPhase::Map, 2, 3.0)
}

/// The driver's published synopsis is bit-identical to a one-shot
/// DGreedyAbs build — on both spill backends, clean and under
/// injected faults — and every produced trace validates.
#[test]
fn phased_final_synopsis_matches_one_shot_on_both_backends() {
    let data = int_data(N, 41);
    let budget = N / 8;
    let reference = dgreedy_abs(
        &cluster_on(SpillBackend::Memory, None),
        &data,
        budget,
        &dg_cfg(),
    )
    .unwrap();
    let golden = syn_digest(&reference.synopsis);

    for backend in [SpillBackend::Memory, SpillBackend::Disk] {
        for plan in [None, Some(hostile_plan())] {
            let faulty = plan.is_some();
            let cluster = cluster_on(backend, plan);
            let mut driver = PhasedSynopsisDriver::new(N, budget, &dg_cfg()).unwrap();
            let report = driver.tick(&cluster, &data).unwrap();
            let latest = driver.latest().unwrap();
            assert_eq!(
                syn_digest(&latest.value.synopsis),
                golden,
                "final synopsis diverged on {backend:?} faulty={faulty}"
            );
            assert_eq!(
                report.exact_error.to_bits(),
                reference.estimated_error.to_bits(),
                "{backend:?} faulty={faulty}"
            );
            assert_eq!(
                latest.value.bound, reference.bound,
                "{backend:?} faulty={faulty}"
            );
            let events = cluster.trace().snapshot();
            trace::validate(&events)
                .unwrap_or_else(|e| panic!("trace invalid on {backend:?} faulty={faulty}: {e}"));
        }
    }
}

/// The exact snapshot on the driver's own handle advertises a bound that
/// holds for every value of the window it was built from. Wide buckets
/// (`e_b` = 0.5) make the estimate read the cut a bucket low: on seed 0 it
/// under-reports the measured max-abs on every tick (37 against
/// 37.2421875 on the fill), which is what the handle used to advertise as
/// its guarantee. Integer data keeps every reconstruction exact, so the
/// check needs no slack.
#[test]
fn handle_advertises_a_bound_that_holds_pointwise() {
    const SEED: u64 = 0;
    let cluster = cluster_on(SpillBackend::from_env(), None);
    let cfg = DGreedyAbsConfig {
        bucket_width: 0.5,
        ..dg_cfg()
    };
    let mut driver = PhasedSynopsisDriver::new(N, N / 8, &cfg).unwrap();
    let handle = driver.handle();
    let mut under_reported = 0;
    for (tick, values) in [
        int_data(N, SEED),
        int_data(BASE / 2, SEED + 1),
        int_data(3 * BASE + 5, SEED + 2),
        int_data(N - 7, SEED + 3),
    ]
    .iter()
    .enumerate()
    {
        let report = driver.tick(&cluster, values).unwrap();
        let snap = handle.latest().unwrap();
        let window = driver.window().data();
        let bound = snap.value.bound;
        assert_eq!(
            bound.err_abs,
            Some(report.exact_error + 0.5),
            "tick {tick}: the bound is not the estimate widened by one bucket"
        );
        for (j, &d) in window.iter().enumerate() {
            let a = point_answer(&snap.value.synopsis, &bound, j);
            assert!(
                a.bounds_hold(d, 0.0),
                "tick {tick}, value {j}: {} is not within {bound:?} of {d}",
                a.value
            );
        }
        let measured = max_abs(window, &snap.value.synopsis.reconstruct_all());
        under_reported += usize::from(measured > report.exact_error);
    }
    assert_eq!(
        under_reported, 4,
        "seed {SEED} no longer shows the widening"
    );
}

/// Acceptance: appending 1/16 of the window (one of 16 base slices,
/// mean-preserving so the root configuration is stable) re-runs map
/// tasks proportional to the single dirty subtree — an order of
/// magnitude below the full rebuild — while the final synopsis stays
/// bit-identical to a one-shot build of the updated window.
#[test]
fn incremental_tick_work_is_proportional_to_dirty_subtrees() {
    let cluster = cluster_on(SpillBackend::from_env(), None);
    let data = int_data(N, 7);
    let budget = N / 8;
    let mut driver = PhasedSynopsisDriver::new(N, budget, &dg_cfg()).unwrap();

    // Tick 1: full build, every base dirty.
    let full = driver.tick(&cluster, &data).unwrap();
    assert_eq!(full.dirty_bases, N / BASE);
    assert!(full.background_tasks >= 3 * (N / BASE) - 2);

    // Tick 2: overwrite exactly one base slice (1/16 of the window) with
    // new values of identical integer sum — the averages, and therefore
    // the root configuration and every clean base's incoming error, are
    // reproduced bit for bit.
    let old = &data[..BASE];
    let sum: f64 = old.iter().sum();
    let mut fresh: Vec<f64> = (0..BASE - 1).map(|i| ((i * 13) % 29) as f64).collect();
    fresh.push(sum - fresh.iter().sum::<f64>());
    let inc = driver.tick(&cluster, &fresh).unwrap();
    assert_eq!(inc.dirty_bases, 1);

    // Proportional work: one averages task + one errhist task + one
    // synopsis task for the dirty base. The full rebuild ran ~3R tasks.
    assert!(
        inc.background_tasks <= 3,
        "incremental tick ran {} background map tasks (full rebuild: {})",
        inc.background_tasks,
        full.background_tasks
    );
    assert!(inc.background_tasks * 8 <= full.background_tasks);
    assert!(inc.greedy_runs <= full.greedy_runs / 8);

    // The metrics ledger agrees with the counter.
    let map_tasks: usize = inc.metrics.jobs.iter().map(|j| j.map_tasks()).sum();
    assert_eq!(map_tasks, inc.background_tasks);

    // Bit-identity: the served exact synopsis equals a one-shot build of
    // the updated window.
    let reference = dgreedy_abs(
        &cluster_on(SpillBackend::Memory, None),
        driver.window().data(),
        budget,
        &dg_cfg(),
    )
    .unwrap();
    let latest = driver.latest().unwrap();
    assert_eq!(
        syn_digest(&latest.value.synopsis),
        syn_digest(&reference.synopsis)
    );
    assert_eq!(
        inc.exact_error.to_bits(),
        reference.estimated_error.to_bits()
    );
    assert_eq!(latest.value.bound, reference.bound);

    // The trace tells the same story: two ticks → two publishes with
    // monotone versions, stamped later on the simulated clock each time.
    let events = cluster.trace().snapshot();
    trace::validate(&events).unwrap();
    let publishes: Vec<(u64, f64)> = events
        .iter()
        .filter_map(|e| match e.kind {
            TraceEventKind::SnapshotPublished { version, .. } => Some((version, e.time)),
            _ => None,
        })
        .collect();
    assert_eq!(
        publishes.iter().map(|p| p.0).collect::<Vec<_>>(),
        vec![1, 2]
    );
    assert!(publishes.windows(2).all(|w| w[1].1 > w[0].1));
}

/// One row of [`TICK_SCHEDULE`]: `(dirty_bases, background_tasks,
/// greedy_runs, exact digest, exact_error bits, best |C_root|)`.
type TickRow = (usize, usize, usize, u64, u64, usize);

/// What each tick of `tick_schedule_is_golden` re-ran and served, captured
/// while Section 5 was still written three times (before `core::errhist`
/// became the one driver). The work columns (background tasks, GreedyAbs
/// runs) were captured again when the incremental errhist stage began to
/// leave out the `C_root` candidates that cannot win; what each tick
/// served did not move. Which work an update repeats is the maintainers'
/// contract; the tests above only bound it by inequalities.
#[rustfmt::skip]
const TICK_SCHEDULE: &[TickRow] = &[
    (16, 64, 110, 0x4989ac2abd97e857, 0x40446e8000000000, 1),
    (1, 3, 7, 0x4abefaa938e60961, 0x4044ee8000000000, 1),
    (1, 33, 74, 0x3a5a18412d669b4d, 0x4045038000000000, 1),
    (2, 34, 76, 0x1456491f42bec560, 0x4045080000000000, 2),
    (0, 0, 0, 0x1456491f42bec560, 0x4045080000000000, 2),
    (1, 33, 72, 0xe03c04704ba8c5d8, 0x40450d0000000000, 1),
    (15, 62, 106, 0xf981053b9e669884, 0x4044ee0000000000, 4),
    (1, 3, 7, 0xf981053b9e669884, 0x4044ee0000000000, 4),
    (1, 3, 7, 0x0228186a10766920, 0x40451b0000000000, 4),
    (0, 0, 0, 0x0228186a10766920, 0x40451b0000000000, 4),
];

/// Ten ticks over a 256-value ring of 16 bases, budget 32: the full fill;
/// a mean-preserving overwrite of base 0; three values that move base 1's
/// mean; an append straddling bases 1 and 2; an empty append; one value;
/// a wrap-around of the ring (15 bases touched, the write position ends
/// inside base 0); the rest of base 0 rewritten with the values it already
/// holds; a mean-preserving overwrite of base 1; an empty append.
#[test]
fn tick_schedule_is_golden() {
    let cluster = cluster_on(SpillBackend::from_env(), None);
    let budget = 32;
    let mut driver = PhasedSynopsisDriver::new(N, budget, &dg_cfg()).unwrap();
    // `BASE` integers with the sum of `old`: the base average is reproduced
    // bit for bit.
    let same_sum = |old: &[f64], salt: usize| -> Vec<f64> {
        let mut fresh: Vec<f64> = (0..BASE - 1)
            .map(|i| ((i * 13 + salt) % 29) as f64)
            .collect();
        fresh.push(old.iter().sum::<f64>() - fresh.iter().sum::<f64>());
        fresh
    };

    let mut got: Vec<TickRow> = Vec::new();
    let mut traced = 0;
    for tick in 0..10 {
        let held = driver.window().data();
        let values = match tick {
            0 => int_data(N, 5),
            1 => same_sum(&held[..BASE], 0),
            2 => vec![96.0, 0.0, 55.0],
            3 => int_data(BASE + 4, 9),
            5 => vec![41.0],
            6 => int_data(N - 40 + 8, 77),
            7 => held[8..BASE].to_vec(),
            8 => same_sum(&held[BASE..2 * BASE], 3),
            _ => Vec::new(),
        };
        let report = driver.tick(&cluster, &values).unwrap();
        let window = driver.window().data();
        assert_eq!(
            driver.window().pushed() as usize % N,
            [0, 16, 19, 39, 39, 40, 8, 16, 32, 32][tick],
            "write position after tick {tick}"
        );

        // One tick, one version: the handle counts ticks, and the tick's
        // slice of the trace publishes once.
        assert_eq!(driver.handle().version(), tick as u64 + 1);
        let events = cluster.trace().snapshot();
        let published = events[traced..]
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::SnapshotPublished { .. }))
            .count();
        assert_eq!(published, 1, "tick {tick}");
        traced = events.len();
        let one_shot = dgreedy_abs(
            &cluster_on(SpillBackend::Memory, None),
            window,
            budget,
            &dg_cfg(),
        )
        .unwrap();
        let latest = driver.latest().unwrap();
        assert_eq!(latest.value.synopsis, one_shot.synopsis, "tick {tick}");
        assert_eq!(
            report.exact_error.to_bits(),
            one_shot.estimated_error.to_bits(),
            "tick {tick}"
        );
        assert_eq!(latest.value.bound, one_shot.bound, "tick {tick}");
        got.push((
            report.dirty_bases,
            report.background_tasks,
            report.greedy_runs,
            syn_digest(&latest.value.synopsis),
            report.exact_error.to_bits(),
            one_shot.best_croot_size,
        ));
    }
    let listing: Vec<String> = got
        .iter()
        .map(|r| {
            format!(
                "({}, {}, {}, {:#018x}, {:#018x}, {}),",
                r.0, r.1, r.2, r.3, r.4, r.5
            )
        })
        .collect();
    assert_eq!(got, TICK_SCHEDULE, "measured:\n{}", listing.join("\n"));
}

/// `sensor_stream`'s shape (a 4 096-value window of 256-value bases,
/// budget 256, wind-direction readings arriving 256 per tick): every update
/// serves what a one-shot build serves, bit for bit, while the errhist
/// stage leaves out the `C_root` candidates whose residual floor is above
/// the all-retained candidate's score.
#[test]
fn pruned_candidates_leave_every_sensor_tick_exact() {
    let (n, base, batch, ticks) = (1 << 12, 1 << 8, 1 << 8, 24);
    let cfg = DGreedyAbsConfig {
        base_leaves: base,
        bucket_width: 1e-6,
        reducers: 2,
        max_candidates: None,
    };
    let budget = n / 16;
    let cluster = cluster_on(SpillBackend::from_env(), None);
    let reference = cluster_on(SpillBackend::Memory, None);
    let feed = wd_like(n + ticks * batch, 2e-4, 7);
    let mut window = StreamWindow::new(n, base).unwrap();
    let mut inc = IncrementalDGreedyAbs::new(n, budget, &cfg).unwrap();
    let mut pruned = 0;
    for (tick, chunk) in std::iter::once(&feed[..n])
        .chain(feed[n..].chunks(batch))
        .enumerate()
    {
        window.push(chunk);
        for j in window.take_dirty_bases() {
            inc.invalidate(j);
        }
        let (pipe, up) = inc.update(Pipeline::on(&cluster), window.data()).unwrap();
        let _ = pipe.into_metrics();
        let one_shot = dgreedy_abs(&reference, window.data(), budget, &cfg).unwrap();
        assert_eq!(up.synopsis, one_shot.synopsis, "tick {tick}");
        assert_eq!(
            up.estimated_error.to_bits(),
            one_shot.estimated_error.to_bits(),
            "tick {tick}"
        );
        assert_eq!(up.bound, one_shot.bound, "tick {tick}");
        assert_eq!(up.best_croot_size, one_shot.best_croot_size, "tick {tick}");
        pruned = pruned.max(up.stats.pruned_candidates);
    }
    assert!(pruned > 0, "no tick left a candidate out");
}

/// A candidate whose residual floor equals the all-retained candidate's
/// score `U` can still win: it ties at `U`, and equal scores pick the
/// smaller `|C_root|`. On the first window the one-shot build picks
/// `|C_root|` = 1 at an estimate of 1 where the all-retained candidate also
/// scores 1; pruning at `ρ_k ≥ U` instead of `ρ_k > U` served
/// `|C_root|` = 3. On the second a budget of the whole window lets the
/// all-retained candidate keep everything at a score of 0 = `ρ_k`, and the
/// same mistake pruned every candidate.
#[test]
fn candidates_tied_with_the_all_retained_score_are_kept() {
    let cluster = cluster_on(SpillBackend::from_env(), None);
    let tied = [
        2.0, 1.0, 2.0, 1.0, 1.0, 1.0, 2.0, 0.0, 1.0, 1.0, 2.0, 1.0, 0.0, 1.0, 0.0, 0.0, 2.0, 2.0,
        1.0, 1.0, 2.0, 0.0, 0.0, 2.0, 1.0, 0.0, 2.0, 0.0, 1.0, 0.0, 1.0, 1.0,
    ];
    let cases = [(tied.to_vec(), 4, 1, 1.0), (int_data(32, 3), 32, 16, 0.0)];
    for (data, budget, croot, estimate) in cases {
        let cfg = DGreedyAbsConfig {
            base_leaves: 2,
            bucket_width: 1.0,
            reducers: 1,
            max_candidates: None,
        };
        let mut inc = IncrementalDGreedyAbs::new(data.len(), budget, &cfg).unwrap();
        let (_, up) = inc.update(Pipeline::on(&cluster), &data).unwrap();
        let one_shot = dgreedy_abs(&cluster, &data, budget, &cfg).unwrap();
        assert_eq!(up.synopsis, one_shot.synopsis, "budget {budget}");
        assert_eq!(
            up.estimated_error.to_bits(),
            one_shot.estimated_error.to_bits()
        );
        assert_eq!(up.best_croot_size, one_shot.best_croot_size);
        assert_eq!(
            (one_shot.best_croot_size, one_shot.estimated_error),
            (croot, estimate)
        );
    }
}

/// NaN and ±∞ never get a bound advertised over them. `tick` refuses such
/// values before the window sees them — nothing moves, the last snapshot
/// keeps serving — and the maintainer refuses a base whose average is not
/// finite and keeps it invalidated. The clean update that follows equals a
/// one-shot build bit for bit. (`tick` used to panic inside the CON sort;
/// `IncrementalDGreedyAbs::update` used to return a guarantee of 0 over a
/// NaN and of 3.09 over a +∞.)
#[test]
fn non_finite_input_is_refused_and_the_next_clean_update_is_exact() {
    let cluster = cluster_on(SpillBackend::from_env(), None);
    let reference = cluster_on(SpillBackend::Memory, None);
    let budget = N / 8;
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut driver = PhasedSynopsisDriver::new(N, budget, &dg_cfg()).unwrap();
        driver.tick(&cluster, &int_data(N, 3)).unwrap();
        driver.tick(&cluster, &int_data(BASE + 2, 4)).unwrap();
        let held = driver.window().data().to_vec();
        let serving = driver.latest().unwrap();
        // The third value would land in base 1 (slots 16..32).
        let refused = driver.tick(&cluster, &[1.0, 2.0, bad]);
        assert!(
            matches!(refused, Err(CoreError::NonFiniteInput { base: 1 })),
            "{bad}: {refused:?}"
        );
        assert_eq!(driver.window().data(), held);
        assert_eq!(driver.window().pushed() as usize, N + BASE + 2);
        assert!(driver.window().dirty().is_empty());
        assert!(std::sync::Arc::ptr_eq(&driver.latest().unwrap(), &serving));
        // The maintainer was not touched: the next tick re-runs one base.
        let report = driver.tick(&cluster, &[5.0, 6.0]).unwrap();
        let averages = &report.metrics.jobs[0];
        assert_eq!(
            (
                report.dirty_bases,
                averages.name.as_str(),
                averages.map_tasks()
            ),
            (1, "dgreedyabs-inc-averages", 1)
        );
        let one_shot = dgreedy_abs(&reference, driver.window().data(), budget, &dg_cfg()).unwrap();
        let latest = driver.latest().unwrap();
        assert_eq!(latest.version, serving.version + 1);
        assert_eq!(latest.value.synopsis, one_shot.synopsis, "{bad}");
        assert_eq!(
            report.exact_error.to_bits(),
            one_shot.estimated_error.to_bits()
        );

        // Through the maintainer's `update`: one bad cell among 64 values.
        let cfg = DGreedyAbsConfig {
            base_leaves: 8,
            ..dg_cfg()
        };
        let mut data = int_data(64, 6);
        data[29] = bad;
        let mut exact = IncrementalDGreedyAbs::new(64, 12, &cfg).unwrap();
        for _ in 0..2 {
            let refused = exact
                .update(Pipeline::on(&cluster), &data)
                .map(|(_, up)| up);
            assert!(
                matches!(refused, Err(CoreError::NonFiniteInput { base: 3 })),
                "{bad}: {refused:?}"
            );
        }
        // Repaired, and nobody invalidates base 3 again: the refusals kept it
        // (and every other base of the first build) marked.
        data[29] = 29.0;
        let (_, up) = exact.update(Pipeline::on(&cluster), &data).unwrap();
        let batch = dgreedy_abs(&reference, &data, 12, &cfg).unwrap();
        assert_eq!(up.synopsis, batch.synopsis, "{bad}");
        assert_eq!(
            up.estimated_error.to_bits(),
            batch.estimated_error.to_bits()
        );
    }
}

/// Arbitrary window shape plus an append schedule: initial fill length
/// (possibly ragged), then 1..4 appends of 1..=2·BASE values each.
fn append_schedule() -> impl Strategy<Value = (Vec<f64>, Vec<Vec<f64>>)> {
    let n = 64usize;
    (1usize..=n).prop_flat_map(move |fill| {
        (
            prop::collection::vec(-100.0..100.0f64, fill..=fill),
            prop::collection::vec(prop::collection::vec(-100.0..100.0f64, 1..=16), 1..=3),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // After every random append/slide the
    // incremental DGreedyAbs equals a from-scratch build bit for bit —
    // coefficient set and guaranteed error alike — through ragged
    // zero-padded prefixes and full ring wrap-around.
    // The candidate cap and the reducer count reach the incremental path
    // only through the steps it shares with the batch driver.
    #[test]
    fn incremental_dgreedy_equals_from_scratch(
        (fill, appends) in append_schedule(),
        capped in any::<bool>(),
        three_reducers in any::<bool>(),
    ) {
        let n = 64;
        let cfg = DGreedyAbsConfig {
            base_leaves: 8,
            bucket_width: 1e-9,
            reducers: if three_reducers { 3 } else { 1 },
            max_candidates: capped.then_some(2),
        };
        let cluster = cluster_on(SpillBackend::from_env(), None);
        let mut window = StreamWindow::new(n, 8).unwrap();
        let mut inc = IncrementalDGreedyAbs::new(n, 12, &cfg).unwrap();
        window.push(&fill);
        for chunk in std::iter::once(Vec::new()).chain(appends) {
            window.push(&chunk);
            for j in window.take_dirty_bases() {
                inc.invalidate(j);
            }
            let (pipe, up) = inc.update(Pipeline::on(&cluster), window.data()).unwrap();
            let _ = pipe.into_metrics();
            let batch = dgreedy_abs(
                &cluster_on(SpillBackend::Memory, None),
                window.data(),
                12,
                &cfg,
            ).unwrap();
            prop_assert_eq!(up.synopsis.entries(), batch.synopsis.entries());
            prop_assert_eq!(up.estimated_error.to_bits(), batch.estimated_error.to_bits());
            prop_assert_eq!(up.best_croot_size, batch.best_croot_size);
        }
    }
}
