//! # dwmaxerr — Distributed Wavelet Thresholding for Maximum Error Metrics
//!
//! A Rust reproduction of the SIGMOD 2016 paper by Mytilinis, Tsoumakos and
//! Koziris. This facade crate re-exports the whole workspace so downstream
//! users depend on a single crate:
//!
//! * [`wavelet`] — Haar transform, error trees, synopses, error metrics.
//! * [`runtime`] — the in-process mini-MapReduce engine (the paper's
//!   Hadoop substitute).
//! * [`algos`] — centralized thresholding algorithms: GreedyAbs, GreedyRel,
//!   MinHaarSpace, IndirectHaar and the conventional L2 scheme.
//! * [`core`] — the paper's contribution: the DP-parallelisation framework,
//!   DGreedyAbs / DGreedyRel, DIndirectHaar, and the conventional-synopsis
//!   baselines CON, Send-V, Send-Coef and H-WTopk.
//! * [`datagen`] — synthetic and real-dataset-surrogate workload
//!   generators.
//! * [`serve`] — the sharded synopsis-serving query layer: lock-free
//!   point/range-sum reads with guaranteed error bounds, batched
//!   execution, and atomic store swap on rebuild.
//!
//! ## Quickstart
//!
//! ```
//! use dwmaxerr::wavelet::transform::forward;
//!
//! let data = vec![5.0, 5.0, 0.0, 26.0, 1.0, 3.0, 14.0, 2.0];
//! let coeffs = forward(&data).unwrap();
//! assert_eq!(coeffs[0], 7.0); // overall average
//! ```

pub use dwmaxerr_algos as algos;
pub use dwmaxerr_core as core;
pub use dwmaxerr_datagen as datagen;
pub use dwmaxerr_runtime as runtime;
pub use dwmaxerr_serve as serve;
pub use dwmaxerr_wavelet as wavelet;

/// README.md's code blocks, compiled (and, unless marked `no_run`, run) as
/// doctests so its examples cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
