//! The distributed evaluation job: DMHaarSpace and DGreedyRel re-measure
//! their synopsis with it, DIndirectHaar its upper bound (Algorithm 2 line 1).

use dwmaxerr_runtime::{Cluster, JobBuilder, JobMetrics, MapContext, ReduceContext};
use dwmaxerr_wavelet::Synopsis;

use crate::error::CoreError;
use crate::splits::SliceSplit;

/// Runs the job `name`: every worker reconstructs its slice from the
/// broadcast synopsis and emits its local maximum of
/// `error(approximation, datum)`; one reducer takes the global maximum.
pub(crate) fn max_error_job(
    cluster: &Cluster,
    name: &str,
    splits: &[SliceSplit],
    synopsis: &Synopsis,
    error: impl Fn(f64, f64) -> f64 + Sync,
) -> Result<(f64, JobMetrics), CoreError> {
    let out = JobBuilder::new(name)
        .map(|split: &SliceSplit, ctx: &mut MapContext<u8, f64>| {
            let mut local_max = 0.0f64;
            for (off, &d) in split.slice().iter().enumerate() {
                let approx = synopsis.reconstruct_value(split.start() + off);
                local_max = local_max.max(error(approx, d));
            }
            ctx.emit(0, local_max);
        })
        .input_bytes(SliceSplit::bytes)
        .reduce(|_k, vals, ctx: &mut ReduceContext<u8, f64>| {
            ctx.emit(0, vals.fold(0.0, f64::max));
        })
        .run(cluster, splits)?;
    let err = out
        .pairs
        .first()
        .map(|&(_, e)| e)
        .ok_or(CoreError::Protocol("evaluation job produced no output"))?;
    Ok((err, out.metrics))
}
