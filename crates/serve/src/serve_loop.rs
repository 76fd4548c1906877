//! The build→publish→serve loop: drives `PhasedSynopsisDriver` and
//! publishes each exact rebuild into the query store.
//!
//! [`ServeDriver`] owns both halves of the serving story. On every
//! [`tick`](ServeDriver::tick) it (1) runs the incremental DGreedyAbs
//! rebuild over the appended values ([`PhasedSynopsisDriver::tick`]),
//! then (2) re-shards the update's synopsis and atomically swaps it into
//! the [`SynopsisStore`] with the bound the update states,
//! [`DGreedyAbsUpdate::bound`](dwmaxerr_core::progressive::DGreedyAbsUpdate::bound)
//! (its estimate widened by one bucket width `e_b`); the driver computes
//! nothing about that bound. The store mints the tick's one version, and
//! the tick records it on the cluster's trace as a `snapshot_published`
//! instant under the store's label — the version every answer from that
//! snapshot carries.
//!
//! The publish is stamped with the cluster's simulated clock at the end of
//! the rebuild, so staleness measured through the store is measured on the
//! build's clock.

use dwmaxerr_core::dgreedy_abs::DGreedyAbsConfig;
use dwmaxerr_core::progressive::{PhasedSynopsisDriver, TickReport};
use dwmaxerr_core::query::ErrorBound;
use dwmaxerr_runtime::{Cluster, TraceEventKind};

use crate::error::ServeError;
use crate::store::SynopsisStore;

/// What one [`ServeDriver::tick`] did: the build-side report plus the
/// store swap it triggered.
#[derive(Debug, Clone)]
pub struct ServeTickReport {
    /// The rebuild's own report (the update it served, task counts).
    pub build: TickReport,
    /// The store version the re-sharded exact synopsis was published
    /// as.
    pub store_version: u64,
    /// The error guarantee attached to every answer served from this
    /// version: a copy of `build.update.bound`, kept for callers that
    /// read it here.
    pub bound: ErrorBound,
}

/// Drives the incremental build and publishes each result into a sharded
/// query store.
#[derive(Debug)]
pub struct ServeDriver {
    driver: PhasedSynopsisDriver,
    store: SynopsisStore,
}

impl ServeDriver {
    /// Creates a serve loop over an `n`-value sliding window with
    /// synopsis budget `b`, re-sharding each rebuild into `num_shards`
    /// error-tree partitions.
    pub fn new(
        n: usize,
        b: usize,
        cfg: &DGreedyAbsConfig,
        num_shards: usize,
        label: &str,
    ) -> Result<Self, ServeError> {
        Ok(ServeDriver {
            driver: PhasedSynopsisDriver::new(n, b, cfg)?,
            store: SynopsisStore::new(label, num_shards),
        })
    }

    /// The query store. Clone it (cheap handle clone) and hand it to
    /// query threads; they take [`readers`](SynopsisStore::reader)
    /// independently of the build loop.
    #[inline]
    pub fn store(&self) -> &SynopsisStore {
        &self.store
    }

    /// The underlying build driver (window access).
    #[inline]
    pub fn driver(&self) -> &PhasedSynopsisDriver {
        &self.driver
    }

    /// Appends `values`, runs the incremental rebuild, publishes its
    /// synopsis into the query store with the bound the update states,
    /// and records the new version on `cluster`'s trace.
    ///
    /// A failed rebuild (cluster fault past its retry budget, or values
    /// that are not finite) surfaces as a typed [`ServeError`] instead of
    /// panicking the serving loop: the store is not touched and the trace
    /// records no publish, so readers — and the networked front — keep
    /// serving the previous pinned version.
    pub fn tick(
        &mut self,
        cluster: &Cluster,
        values: &[f64],
    ) -> Result<ServeTickReport, ServeError> {
        let build = self.driver.tick(cluster, values)?;
        let update = &build.update;
        let trace = cluster.trace();
        let version = self
            .store
            .publish(&update.synopsis, update.bound, trace.now(), 0)?
            .version();
        trace.instant(TraceEventKind::SnapshotPublished {
            label: self.store.label().to_string(),
            version,
        });
        Ok(ServeTickReport {
            bound: update.bound,
            build,
            store_version: version,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use dwmaxerr_core::dgreedy_abs::dgreedy_abs;
    use dwmaxerr_core::CoreError;
    use dwmaxerr_runtime::{Cluster, ClusterConfig, FaultPlan};

    fn cluster() -> Cluster {
        let mut cfg = ClusterConfig::with_slots(4, 2);
        cfg.task_startup = Duration::from_millis(1);
        cfg.job_setup = Duration::from_millis(1);
        Cluster::new(cfg)
    }

    /// A cluster on which every attempt fails, so every rebuild exhausts
    /// its retry budget.
    fn poisoned() -> Cluster {
        let mut cfg = ClusterConfig::with_slots(4, 2);
        cfg.task_startup = Duration::from_millis(1);
        cfg.job_setup = Duration::from_millis(1);
        cfg.fault_plan = Some(FaultPlan::seeded(7).with_failure_prob(1.0));
        cfg.max_attempts = 2;
        Cluster::new(cfg)
    }

    fn dg_cfg() -> DGreedyAbsConfig {
        DGreedyAbsConfig {
            base_leaves: 16,
            bucket_width: 1e-9,
            reducers: 2,
            max_candidates: None,
        }
    }

    fn int_data(n: usize, seed: u64) -> Vec<f64> {
        (0..n)
            .map(|i| ((i as u64).wrapping_mul(2_862_933_555) ^ seed) % 97)
            .map(|v| v as f64)
            .collect()
    }

    #[test]
    fn tick_publishes_bounded_store_version() {
        let n = 128;
        let cluster = cluster();
        let mut sd = ServeDriver::new(n, n / 8, &dg_cfg(), 8, "serve-test").unwrap();
        let data = int_data(n, 3);
        let report = sd.tick(&cluster, &data).unwrap();
        assert_eq!(report.store_version, 1);
        let window = sd.driver().window().data();
        let one_shot = dgreedy_abs(&cluster, window, n / 8, &dg_cfg()).unwrap();
        let update = &report.build.update;
        assert_eq!(update.bound, one_shot.bound);
        assert_eq!(report.bound, update.bound);
        // The served bound is the build's estimate widened by exactly one
        // bucket width.
        assert_eq!(
            update.bound.err_abs,
            Some(update.estimated_error + dg_cfg().bucket_width)
        );

        // Every served point is within the advertised bound of the
        // window's true values.
        let reader = sd.store().reader().unwrap();
        assert_eq!(reader.version(), 1);
        for (j, &d) in sd.driver().window().data().iter().enumerate() {
            let a = reader.point(j).unwrap();
            assert!(a.bounds_hold(d, 1e-9), "point {j}");
        }

        // A second tick appends fresh data and swaps in version 2; the
        // old reader stays pinned.
        let report2 = sd.tick(&cluster, &int_data(16, 9)).unwrap();
        assert_eq!(report2.store_version, 2);
        assert_eq!(reader.version(), 1);
        assert_eq!(sd.store().reader().unwrap().version(), 2);
    }

    /// A rebuild hiccup must not panic the serving loop: the failed
    /// tick surfaces as a typed error and the store keeps serving the
    /// previous pinned version.
    #[test]
    fn failed_tick_degrades_to_previous_snapshot() {
        let n = 128;
        let mut sd = ServeDriver::new(n, n / 8, &dg_cfg(), 8, "degrade-test").unwrap();

        // Tick 1 on a healthy cluster publishes version 1.
        let report = sd.tick(&cluster(), &int_data(n, 3)).unwrap();
        assert_eq!(report.store_version, 1);
        let pinned = sd.store().reader().unwrap();
        assert_eq!(pinned.version(), 1);
        let before = pinned.point(5).unwrap();

        // Tick 2 on a cluster whose every attempt fails: the rebuild
        // exhausts its retry budget and the tick errors — typed, not a
        // panic.
        assert!(sd.tick(&poisoned(), &int_data(16, 9)).is_err());

        // So is a tick over values no bound can be advertised over.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let refused = sd.tick(&cluster(), &[4.0, bad]);
            let non_finite = ServeError::Core(CoreError::NonFiniteInput { base: 1 });
            assert_eq!(refused.err(), Some(non_finite), "{bad}");
        }

        // The store was never touched: version 1 still serves, bit for
        // bit, to both old and fresh readers.
        assert_eq!(sd.store().version(), 1);
        let fresh = sd.store().reader().unwrap();
        assert_eq!(fresh.version(), 1);
        let after = fresh.point(5).unwrap();
        assert_eq!(after.value.to_bits(), before.value.to_bits());

        // The next clean tick serves what a one-shot build of the window
        // (which holds the failed tick's values, not the refused ones) gives.
        let report = sd.tick(&cluster(), &int_data(4, 2)).unwrap();
        assert_eq!(report.store_version, 2);
        let window = sd.driver().window().data();
        let one_shot = dgreedy_abs(&cluster(), window, n / 8, &dg_cfg()).unwrap();
        let update = &report.build.update;
        assert_eq!(update.synopsis, one_shot.synopsis);
        assert_eq!(
            update.estimated_error.to_bits(),
            one_shot.estimated_error.to_bits()
        );
        // It reprocessed base 0, which the failed tick left stale, and base
        // 1, its own append: the count is the maintainer's, and so is the
        // averages job's task count.
        let averages = &report.build.metrics.jobs[0];
        assert_eq!(averages.name, "dgreedyabs-inc-averages");
        assert_eq!(report.build.dirty_bases, 2);
        assert_eq!(averages.map_tasks(), report.build.dirty_bases);
    }

    /// Each tick that serves records exactly one `snapshot_published` on
    /// its cluster's trace, under the store's label, carrying the version
    /// its answers carry; a failed or refused tick records none.
    #[test]
    fn trace_names_the_served_version() {
        use dwmaxerr_runtime::trace;

        let n = 128;
        let cluster = cluster();
        let mut sd = ServeDriver::new(n, n / 8, &dg_cfg(), 8, "traced").unwrap();
        let published = |from: usize| -> Vec<(String, u64, f64)> {
            let events = cluster.trace().snapshot();
            let of = |e: &trace::TraceEvent| match &e.kind {
                TraceEventKind::SnapshotPublished { label, version } => {
                    Some((label.clone(), *version, e.time))
                }
                _ => None,
            };
            events[from..].iter().filter_map(of).collect()
        };
        let mut traced = 0;
        let mut last_time = f64::NEG_INFINITY;
        for (tick, values) in [int_data(n, 3), int_data(16, 9), int_data(5, 1)]
            .iter()
            .enumerate()
        {
            let report = sd.tick(&cluster, values).unwrap();
            let slice = published(traced);
            traced = cluster.trace().snapshot().len();
            assert_eq!(slice.len(), 1, "tick {tick}: {slice:?}");
            let (label, version, time) = slice[0].clone();
            assert_eq!(label, sd.store().label());
            assert_eq!(version, report.store_version, "tick {tick}");
            assert_eq!(version, sd.store().reader().unwrap().version());
            assert!(time > last_time, "tick {tick}: published at {time}");
            last_time = time;

            // A refused tick records nothing, and neither does one that fails
            // on its cluster.
            assert!(sd.tick(&cluster, &[f64::NAN]).is_err());
            assert!(published(traced).is_empty(), "tick {tick}");
            let failing = poisoned();
            assert!(sd.tick(&failing, &int_data(4, 5)).is_err());
            assert!(failing
                .trace()
                .snapshot()
                .iter()
                .all(|e| !matches!(e.kind, TraceEventKind::SnapshotPublished { .. })));
            assert_eq!(sd.store().version(), report.store_version);
        }
        trace::validate(&cluster.trace().snapshot()).unwrap();
    }
}
