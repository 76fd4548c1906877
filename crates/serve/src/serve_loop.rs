//! The build→publish→serve loop: drives `PhasedSynopsisDriver` and
//! swaps each exact rebuild into the query store.
//!
//! [`ServeDriver`] owns both halves of the serving story. On every
//! [`tick`](ServeDriver::tick) it (1) runs the incremental DGreedyAbs
//! rebuild over the appended values ([`PhasedSynopsisDriver::tick`]),
//! which publishes one snapshot, then (2) re-shards that snapshot's
//! synopsis and atomically swaps it into the [`SynopsisStore`] with the
//! bound it was published with,
//! [`ServedSynopsis::bound`](dwmaxerr_core::progressive::ServedSynopsis::bound).
//! The driver computes nothing about that bound: the incremental
//! maintainer states it (its estimate widened by one bucket width `e_b`,
//! see [`DGreedyAbsUpdate::bound`](dwmaxerr_core::progressive::DGreedyAbsUpdate::bound)).
//!
//! Every snapshot the build publishes carries a max-error guarantee, as
//! the store's contract requires of every answer. The store swap reuses
//! the producer snapshot's simulated-clock timestamp, so staleness
//! measured through the store equals staleness measured at the build.

use dwmaxerr_core::dgreedy_abs::DGreedyAbsConfig;
use dwmaxerr_core::progressive::{PhasedSynopsisDriver, TickReport};
use dwmaxerr_core::query::ErrorBound;
use dwmaxerr_runtime::Cluster;

use crate::error::ServeError;
use crate::store::SynopsisStore;

/// What one [`ServeDriver::tick`] did: the build-side report plus the
/// store swap it triggered.
#[derive(Debug, Clone)]
pub struct ServeTickReport {
    /// The rebuild's own report (the snapshot it published, task
    /// counts).
    pub build: TickReport,
    /// The store version the re-sharded exact synopsis was published
    /// as.
    pub store_version: u64,
    /// The error guarantee attached to every answer served from this
    /// version.
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

    /// The underlying build driver (window access, producer-side snapshot
    /// handle).
    #[inline]
    pub fn driver(&self) -> &PhasedSynopsisDriver {
        &self.driver
    }

    /// Appends `values`, runs the incremental rebuild, and swaps the
    /// snapshot it published into the query store with the bound it was
    /// published with.
    ///
    /// A failed rebuild (cluster fault past its retry budget, or values
    /// that are not finite) surfaces as a typed [`ServeError`] instead of
    /// panicking the serving loop: the store is not touched, so readers —
    /// and the networked front — keep serving the previous pinned
    /// version.
    pub fn tick(
        &mut self,
        cluster: &Cluster,
        values: &[f64],
    ) -> Result<ServeTickReport, ServeError> {
        let build = self.driver.tick(cluster, values)?;
        let built = &build.snapshot;
        let bound = built.value.bound;
        let snap = self.store.publish(
            &built.value.synopsis,
            bound,
            built.published_at,
            built.version,
        )?;
        Ok(ServeTickReport {
            build,
            store_version: snap.version,
            bound,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use dwmaxerr_core::dgreedy_abs::dgreedy_abs;
    use dwmaxerr_core::CoreError;
    use dwmaxerr_runtime::{Cluster, ClusterConfig};

    fn cluster() -> Cluster {
        let mut cfg = ClusterConfig::with_slots(4, 2);
        cfg.task_startup = Duration::from_millis(1);
        cfg.job_setup = Duration::from_millis(1);
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
        // One tick mints one version, in the store and on the build's
        // own handle alike.
        assert_eq!(report.store_version, sd.driver().latest().unwrap().version);
        let window = sd.driver().window().data();
        let one_shot = dgreedy_abs(&cluster, window, n / 8, &dg_cfg()).unwrap();
        assert_eq!(report.bound, one_shot.bound);
        // The served bound is the build's estimate widened by exactly one
        // bucket width.
        assert_eq!(
            report.bound.err_abs,
            Some(report.build.exact_error + dg_cfg().bucket_width)
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
        assert_eq!(report2.store_version, sd.driver().latest().unwrap().version);
        assert_eq!(reader.version(), 1);
        assert_eq!(sd.store().reader().unwrap().version(), 2);
    }

    /// A rebuild hiccup must not panic the serving loop: the failed
    /// tick surfaces as a typed error and the store keeps serving the
    /// previous pinned version.
    #[test]
    fn failed_tick_degrades_to_previous_snapshot() {
        use dwmaxerr_runtime::FaultPlan;

        let n = 128;
        let mut sd = ServeDriver::new(n, n / 8, &dg_cfg(), 8, "degrade-test").unwrap();

        // Tick 1 on a healthy cluster publishes version 1.
        let report = sd.tick(&cluster(), &int_data(n, 3)).unwrap();
        assert_eq!(report.store_version, sd.driver().latest().unwrap().version);
        let pinned = sd.store().reader().unwrap();
        assert_eq!(pinned.version(), 1);
        let before = pinned.point(5).unwrap();

        // Tick 2 on a cluster whose every attempt fails: the rebuild
        // exhausts its retry budget and the tick errors — typed, not a
        // panic.
        let mut cfg = ClusterConfig::with_slots(4, 2);
        cfg.task_startup = Duration::from_millis(1);
        cfg.job_setup = Duration::from_millis(1);
        cfg.fault_plan = Some(FaultPlan::seeded(7).with_failure_prob(1.0));
        cfg.max_attempts = 2;
        let poisoned = Cluster::new(cfg);
        assert!(sd.tick(&poisoned, &int_data(16, 9)).is_err());

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
        assert_eq!(report.store_version, sd.driver().latest().unwrap().version);
        let window = sd.driver().window().data();
        let one_shot = dgreedy_abs(&cluster(), window, n / 8, &dg_cfg()).unwrap();
        let latest = sd.driver().latest().unwrap();
        assert_eq!(latest.value.synopsis, one_shot.synopsis);
        assert_eq!(
            report.build.exact_error.to_bits(),
            one_shot.estimated_error.to_bits()
        );
    }
}
