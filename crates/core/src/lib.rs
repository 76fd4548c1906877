#![deny(missing_docs)]

//! The paper's contribution: distributed wavelet thresholding for maximum
//! error metrics (SIGMOD'16).
//!
//! * [`partition`] — the locality-preserving error-tree partitioning that
//!   underlies everything (Section 4, Figures 3-4).
//! * [`mod@dgreedy_abs`] / [`mod@dgreedy_rel`] — the distributed greedy algorithms
//!   (Section 5, Algorithms 3-6).
//! * [`mod@dmin_haar_space`] — DMHaarSpace, the distributed DP probe: the
//!   Section-4 framework (Algorithm 1) instantiated with MinHaarSpace.
//! * [`mod@dindirect_haar`] — DIndirectHaar, binary search over DMHaarSpace
//!   probes (Algorithm 2).
//! * [`conventional`] — the parallel conventional-synopsis baselines of
//!   Appendix A: CON, Send-V, Send-Coef, H-WTopk.
//!
//! # Module map
//!
//! | Module                 | Role |
//! |------------------------|------|
//! | [`partition`]          | Locality-preserving error-tree partitioning: base partitions and [`LayerPlan`] |
//! | `layered` (private)    | The one layered DP driver: validation via [`LayerPlan`], the `-layer0` / `-layer-up` / `-extract` / `-extract-base` jobs, hand-offs, global node ids |
//! | `errhist` (private)    | The one Section-5 driver (DGreedyAbs, DGreedyRel, the incremental DGreedyAbs maintainer): validated shape, averages job, genRootSets, the errhist stage (grouping by incoming error, block ownership, whole-histogram emission, the cut by selection), the pick, the synopsis job |
//! | `eval` (private)       | The `eval-max-abs` / `eval-max-rel` evaluation job |
//! | [`splits`]             | Typed split payloads shipped to map tasks across all algorithms |
//! | [`mod@dgreedy_abs`]    | DGreedyAbs: distributed greedy, max-abs error (Algorithms 3-4) |
//! | [`mod@dgreedy_rel`]    | DGreedyRel: relative-error variant (Algorithms 5-6) |
//! | [`mod@dmin_haar_space`]| DMHaarSpace: the framework's MinHaarSpace instance (Algorithm 1's probe) |
//! | [`mod@dindirect_haar`] | DIndirectHaar: binary search over DMHaarSpace probes (Algorithm 2) |
//! | [`mod@dhaar_plus`]     | DHaarPlus: the framework's Haar+ instance |
//! | [`mod@dmin_rel_var`]   | DMinRelVar: the framework's MinRelVar instance |
//! | [`conventional`]       | Appendix-A baselines: CON, Send-V, Send-Coef(-combined), H-WTopk |
//! | [`progressive`]        | Streaming windows, incremental DGreedyAbs maintenance (caches around the batch driver's own steps), the streaming driver that rebuilds one exact synopsis per tick; refuses non-finite appends |
//! | [`query`]              | Bounded point/range-sum query API: every answer carries its error guarantee |
//! | [`error`]              | [`CoreError`]: algorithm-level failures wrapping runtime errors |

pub mod conventional;
pub mod dgreedy_abs;
pub mod dgreedy_rel;
pub mod dhaar_plus;
pub mod dindirect_haar;
pub mod dmin_haar_space;
pub mod dmin_rel_var;
mod errhist;
pub mod error;
mod eval;
mod layered;
pub mod partition;
pub mod progressive;
pub mod query;
pub mod splits;

pub use dgreedy_abs::{dgreedy_abs, DGreedyAbsConfig, DGreedyAbsResult};
pub use dgreedy_rel::{dgreedy_rel, DGreedyRelConfig, DGreedyRelResult};
pub use dhaar_plus::{dhaar_plus, DhpConfig, DhpResult};
pub use dindirect_haar::{dindirect_haar, DIndirectHaarConfig, DIndirectHaarResult};
pub use dmin_haar_space::{dmin_haar_space, DmhsConfig, DmhsResult};
pub use dmin_rel_var::{dmin_rel_var, DmrvConfig, DmrvResult};
pub use error::CoreError;
pub use partition::{BasePartition, LayerPlan};
pub use progressive::{IncrementalDGreedyAbs, PhasedSynopsisDriver, StreamWindow, TickReport};
pub use query::{point_answer, range_answer, Answer, ErrorBound, RelBound};
