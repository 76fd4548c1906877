#![deny(missing_docs)]

//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (Section 6 and Appendix A.5).
//!
//! Each experiment is a library function returning [`report::Table`]s; the
//! `fig*`/`table*` binaries print one experiment each, and
//! `all_experiments` runs the full suite and writes a combined report.
//!
//! Scale is controlled by the `DWM_SCALE` environment variable:
//! `quick` (default — minutes on a laptop core) or `full` (hours; larger
//! N, more sizes). Absolute times differ from the paper's 9-node Hadoop
//! cluster by construction; the *shapes* (who wins, by what factor, where
//! crossovers fall) are the reproduction target, and each table states
//! the paper's claim next to the measurement.
//!
//! The `fault_sweep` binary additionally exports the execution trace of
//! its worst-case run (`--trace-dir`) as JSONL and Chrome trace-event
//! JSON, and the `trace_check` binary validates exported traces — see
//! `dwmaxerr_runtime::trace`. `memory_model` prints the paper's
//! out-of-memory boundaries from the working-set estimators.
//!
//! This crate holds what only it does: the paper's evaluation, the fault
//! sweeps and the criterion ablations under `benches/`. How fast the
//! product builds, shuffles, serves and streams is measured by the
//! `perf/` package (`BENCHMARK.json`), one workload each, with a
//! correctness gate on every operation and a parent-versus-change
//! protocol; there is no wall-clock shuffle or serving bin here.
//!
//! # Module map
//!
//! | Module          | Role |
//! |-----------------|------|
//! | [`setup`]       | [`setup::Scale`] (quick/full), shared cluster configs and workloads |
//! | [`experiments`] | One module per evaluation section; one function per table/figure |
//! | [`report`]      | Markdown [`report::Table`] rendering, trace summary tables, report assembly |

pub mod experiments;
pub mod report;
pub mod setup;
