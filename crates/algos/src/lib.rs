#![deny(missing_docs)]

//! Centralized wavelet-thresholding algorithms.
//!
//! These are the paper's building blocks and baselines, each implemented
//! from its published description:
//!
//! * [`conventional`] — the linear-time L2-optimal scheme (Section 2.3).
//! * [`greedy_abs`] — GreedyAbs \[22\], the near-linear greedy heuristic
//!   for maximum absolute error (Section 5.1).
//! * [`greedy_rel`] — GreedyRel \[22\], the relative-error variant with a
//!   sanity bound (Section 5.4).
//! * [`mod@min_haar_space`] — MinHaarSpace \[24\], the quantized DP for the
//!   dual Problem 2 (minimize synopsis size under an error bound) with
//!   unrestricted coefficient values.
//! * [`mod@indirect_haar`] — IndirectHaar \[24\], solving Problem 1 by binary
//!   search over error bounds, each probe a MinHaarSpace run
//!   (Algorithm 2 generalizes to the distributed probe as well).
//!
//! The greedy engines and the MinHaarSpace row combiner deliberately
//! operate on *sub-trees with an incoming context* — that is the exact
//! interface the distributed layer (`dwmaxerr-core`) parallelizes.
//!
//! # Module map
//!
//! | Module                | Role |
//! |-----------------------|------|
//! | [`conventional`]      | Linear-time L2-optimal thresholding (Section 2.3) |
//! | [`greedy_abs`]        | GreedyAbs engine over sub-trees with incoming context; the error tree is its own priority queue |
//! | [`greedy_rel`]        | GreedyRel: relative-error greedy with sanity bound, same sub-tree minima |
//! | [`mod@min_haar_space`]| MinHaarSpace quantized DP rows and combiner |
//! | [`mod@indirect_haar`] | IndirectHaar: binary search over MinHaarSpace probes |
//! | [`haar_plus`]         | Haar+ tree DP (MinHaarSpace/IndirectHaar on Haar+) |
//! | [`mod@min_rel_var`]   | MinRelVar: relative-variance DP |
//! | [`memory`]            | Working-set accounting used for task memory estimates |

pub mod conventional;
pub mod greedy_abs;
pub mod greedy_rel;
pub mod haar_plus;
pub mod indirect_haar;
pub mod memory;
pub mod min_haar_space;
pub mod min_rel_var;

pub use conventional::conventional_synopsis;
pub use greedy_abs::{greedy_abs_synopsis, GreedyAbs, Removal};
pub use greedy_rel::{greedy_rel_synopsis, GreedyRel};
pub use haar_plus::{haar_plus_indirect, haar_plus_min_space, HaarPlusSynopsis};
pub use indirect_haar::{indirect_haar, IndirectHaarReport};
pub use min_haar_space::{min_haar_space, MhsParams, Row};
pub use min_rel_var::{min_rel_var, MrvParams};
