#![deny(missing_docs)]

//! Haar wavelet machinery for maximum-error wavelet synopses.
//!
//! This crate implements the wavelet substrate of the SIGMOD'16 paper
//! *Distributed Wavelet Thresholding for Maximum Error Metrics*:
//!
//! * the one-dimensional [Haar transform](transform) (forward and inverse),
//! * the [error tree](tree) index algebra (levels, paths, subtree leaf
//!   spans, reconstruction signs),
//! * sparse [synopses](synopsis) with per-value and range-sum
//!   [reconstruction](reconstruct),
//! * the aggregate [error metrics](metrics) `L2`, `max_abs` and `max_rel`,
//! * the [wavelet basis vectors](basis) used by streaming-style algorithms
//!   (Send-Coef, Appendix A.3 of the paper).
//!
//! All coefficient arithmetic uses the *unnormalized* Haar convention of the
//! paper (pairwise averages and differences), with the L2-normalized
//! significance `|c_i| / sqrt(2^level(c_i))` available through
//! [`tree::ErrorTree::normalized_abs`].
//!
//! # Example
//!
//! ```
//! use dwmaxerr_wavelet::transform::{forward, inverse};
//!
//! let data = vec![5.0, 5.0, 0.0, 26.0, 1.0, 3.0, 14.0, 2.0];
//! let w = forward(&data).unwrap();
//! assert_eq!(w, vec![7.0, 2.0, -4.0, -3.0, 0.0, -13.0, -1.0, 6.0]);
//! assert_eq!(inverse(&w).unwrap(), data);
//! ```
//!
//! # Module map
//!
//! | Module          | Role |
//! |-----------------|------|
//! | [`transform`]   | Forward/inverse unnormalized Haar transform over power-of-two arrays |
//! | [`tree`]        | Error-tree index algebra: levels, root-to-leaf paths, subtree spans, signs |
//! | [`synopsis`]    | Sparse coefficient [`Synopsis`] — the object every algorithm produces |
//! | [`reconstruct`] | Point and range-sum reconstruction from a synopsis |
//! | [`metrics`]     | Aggregate error metrics: `l2`, `max_abs`, `max_rel` |
//! | [`basis`]       | Haar basis vectors for the streaming-style baselines (Send-Coef) |
//! | [`error`]       | [`WaveletError`]: non-power-of-two and domain violations |

pub mod basis;
pub mod error;
pub mod metrics;
pub mod reconstruct;
pub mod synopsis;
pub mod transform;
pub mod tree;

pub use error::WaveletError;
pub use synopsis::Synopsis;
pub use tree::ErrorTree;
