//! Wall-clock shuffle benchmark: the sort-merge shuffle on uniform and
//! skewed key distributions, under memory pressure, and across executor
//! thread counts.
//!
//! Usage: `shuffle_bench [--smoke] [--out <path>] [--pressure-out <path>]
//! [--threads-out <path>]`
//!
//! * `--smoke` — CI sizes (2^14..2^18) instead of the full sweep
//!   (2^16..2^20); the sanity gates are what CI fails on.
//! * `--out <path>` — where to write the JSON document (default
//!   `BENCH_shuffle.json` in the current directory).
//! * `--pressure-out <path>` — where to write the memory-pressure sweep
//!   (default `BENCH_shuffle_pressure.json`).
//! * `--threads-out <path>` — where to write the executor-scaling sweep
//!   (default `BENCH_shuffle_threads.json`).
//!
//! Exit status is non-zero if any sanity gate fails. The digest checks
//! are exact, immune to host noise; shuffle *speed* is gated against the
//! parent commit by the `build-shuffle` workload of `BENCHMARK.json` (the
//! one-time sort-merge-vs-global-sort comparison this bin used to gate is
//! recorded in EXPERIMENTS.md).
//!
//! 1. **Pressure correctness** (every budget level): shrinking the
//!    per-task memory budget must leave the output digest bit-identical
//!    to the unconstrained run, and the tightest budget must actually
//!    exercise the external path (multiple spill passes per task plus at
//!    least one intermediate merge pass).
//! 2. **Executor scaling** (largest thread count): the output digest must
//!    be bit-identical to the serial (`threads=1`) run — exact, always
//!    enforced — and on hosts exposing more than one core the
//!    multi-threaded wall time must not exceed the serial wall time by
//!    more than 10%. On a single-core host the wall comparison is
//!    reported but not gated: the pool cannot beat the serial path there.

use std::path::PathBuf;

use dwmaxerr_bench::{experiments, report};

fn main() {
    let mut smoke = false;
    let mut out_path = PathBuf::from("BENCH_shuffle.json");
    let mut pressure_path = PathBuf::from("BENCH_shuffle_pressure.json");
    let mut threads_path = PathBuf::from("BENCH_shuffle_threads.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                out_path = PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a path argument");
                    std::process::exit(2);
                }));
            }
            "--pressure-out" => {
                pressure_path = PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--pressure-out requires a path argument");
                    std::process::exit(2);
                }));
            }
            "--threads-out" => {
                threads_path = PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--threads-out requires a path argument");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!(
                    "unknown argument {other:?} (expected --smoke / --out <path> / \
                     --pressure-out <path> / --threads-out <path>)"
                );
                std::process::exit(2);
            }
        }
    }

    let sizes: Vec<usize> = if smoke {
        vec![1 << 14, 1 << 16, 1 << 18]
    } else {
        vec![1 << 16, 1 << 18, 1 << 20]
    };

    let samples = experiments::shuffle_sweep(&sizes);

    // Memory-pressure sweep: skewed workload at one size, per-task budget
    // stepped down until every map task is far below its working set
    // (~records/8 tasks x 16 wire bytes each).
    let pressure_records = if smoke { 1 << 14 } else { 1 << 16 };
    let budgets: [u64; 3] = [1 << 16, 1 << 13, 1 << 10];
    let pressure = experiments::pressure_sweep(pressure_records, &budgets);

    // Executor-scaling sweep: serial first (the speedup baseline), then
    // the doubling ladder, then the host's own core count when it goes
    // beyond the ladder.
    let mut thread_counts = vec![1usize, 2, 4];
    let cores = report::host_cores();
    if cores > 4 {
        thread_counts.push(cores);
    }
    let threads_records = if smoke { 1 << 16 } else { 1 << 18 };
    let threads = experiments::threads_sweep(threads_records, &thread_counts);

    report::print_all(&[
        experiments::shuffle_table(&samples),
        experiments::pressure_table(&pressure),
        experiments::threads_table(&threads),
    ]);

    let json = experiments::shuffle_json(&samples, smoke);
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("failed to write {}: {e}", out_path.display());
        std::process::exit(1);
    }
    println!("wrote {}", out_path.display());

    let pressure_json = experiments::shuffle_pressure_json(&pressure, smoke);
    if let Err(e) = std::fs::write(&pressure_path, pressure_json) {
        eprintln!("failed to write {}: {e}", pressure_path.display());
        std::process::exit(1);
    }
    println!("wrote {}", pressure_path.display());

    let threads_json = experiments::shuffle_threads_json(&threads, smoke);
    if let Err(e) = std::fs::write(&threads_path, threads_json) {
        eprintln!("failed to write {}: {e}", threads_path.display());
        std::process::exit(1);
    }
    println!("wrote {}", threads_path.display());

    let mut failed = false;
    // Pressure gates: exact, noise-immune.
    let base = &pressure[0];
    for s in &pressure[1..] {
        if s.digest != base.digest {
            eprintln!(
                "SANITY FAIL: output digest {:016x} under a {}-byte budget diverged from \
                 the unconstrained digest {:016x} — external spills changed the bytes",
                s.digest, s.task_memory_bytes, base.digest
            );
            failed = true;
        }
    }
    let tight = pressure.last().expect("non-empty pressure sweep");
    if tight.max_spill_passes < 2 || tight.merge_passes == 0 {
        eprintln!(
            "SANITY FAIL: tightest budget ({} bytes) spilled at most {} pass(es) per task \
             and ran {} intermediate merge pass(es) — the external path was not exercised",
            tight.task_memory_bytes, tight.max_spill_passes, tight.merge_passes
        );
        failed = true;
    }
    // Executor-scaling gates: digest equality is exact and always
    // enforced; the wall gate only binds when the host can actually run
    // threads in parallel.
    let serial = threads.first().expect("non-empty threads sweep");
    for s in &threads[1..] {
        if s.digest != serial.digest {
            eprintln!(
                "SANITY FAIL: output digest {:016x} at {} executor threads diverged from \
                 the serial digest {:016x} — the pool changed the bytes",
                s.digest, s.threads, serial.digest
            );
            failed = true;
        }
    }
    let widest = threads.last().expect("non-empty threads sweep");
    let wall_ratio = widest.wall_secs / serial.wall_secs.max(1e-12);
    if cores >= 2 && wall_ratio > 1.10 {
        eprintln!(
            "SANITY FAIL: {} executor threads ran {wall_ratio:.2}x the serial wall time \
             on a {cores}-core host — the pool must not lose to the serial path",
            widest.threads
        );
        failed = true;
    } else if cores < 2 {
        println!(
            "note: single-core host — executor wall ratio {wall_ratio:.2}x at {} threads \
             reported, not gated",
            widest.threads
        );
    }
    if failed {
        std::process::exit(1);
    }
}
