//! The distributed evaluation job: DMHaarSpace and DGreedyRel re-measure
//! their synopsis with it, DIndirectHaar its upper bound (Algorithm 2 line 1).

use dwmaxerr_runtime::{Cluster, JobBuilder, JobMetrics, Kernel, MapContext, ReduceContext};
use dwmaxerr_wavelet::metrics::max_or_nan;
use dwmaxerr_wavelet::Synopsis;

use crate::error::CoreError;
use crate::splits::SliceSplit;

/// Runs the job `name`: every worker reconstructs its slice — one dyadic
/// block of `splits`, which every caller cuts with `aligned_splits` — from
/// the broadcast synopsis and emits its local maximum of
/// `error(approximation, datum)`; one reducer takes the global maximum. A
/// NaN error anywhere makes the maximum NaN.
pub(crate) fn max_error_job(
    cluster: &Cluster,
    name: &str,
    splits: &[SliceSplit],
    synopsis: &Synopsis,
    error: impl Fn(f64, f64) -> f64 + Sync,
) -> Result<(f64, JobMetrics), CoreError> {
    let out = JobBuilder::new(name)
        .map(|split: &SliceSplit, ctx: &mut MapContext<u8, f64>| {
            ctx.charge(Kernel::Values, split.len() as u64);
            let approx = synopsis.reconstruct_block(split.start(), split.len());
            let errors = approx
                .into_iter()
                .zip(split.slice())
                .map(|(a, &d)| error(a, d));
            ctx.emit(0, errors.fold(0.0, max_or_nan));
        })
        .input_bytes(SliceSplit::bytes)
        .reduce(|_k, vals, ctx: &mut ReduceContext<u8, f64>| {
            ctx.emit(0, vals.fold(0.0, max_or_nan));
        })
        .run(cluster, splits)?;
    let err = out
        .pairs
        .first()
        .map(|&(_, e)| e)
        .ok_or(CoreError::Protocol("evaluation job produced no output"))?;
    Ok((err, out.metrics))
}
