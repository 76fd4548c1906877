//! Fault-tolerance sweeps: DGreedyAbs under injected attempt failures and
//! stragglers, then under whole-node kills (lost map outputs, corrupt
//! spill runs). `DWM_SCALE=full` for larger sizes.
//!
//! Flags and environment:
//!
//! * `--smoke` — force the quick scale and assert the sweep's invariants
//!   (bit-identical outputs, visible re-execution on every killed-node
//!   cell, and on a host with two or more cores the widest executor
//!   thread count within 1.10x of the serial wall time) instead of merely
//!   reporting them; the CI entry point.
//! * `DWM_FAULT_SEED=<u64>` — override the seed every cell's `FaultPlan`
//!   derives from (default 41). The effective seed and its source are
//!   printed and stamped into the JSON document.
//! * `--out <path>` — where to write the node sweep's results
//!   (default `BENCH_fault_nodes.json`).
//! * `--trace-dir <dir>` (or `DWM_TRACE_DIR`) — export execution traces
//!   next to the report: `fault_sweep.trace.jsonl`/`.json` from the
//!   highest-failure-rate attempt-sweep run and
//!   `fault_sweep_nodes.trace.jsonl`/`.json` from the heaviest node-kill
//!   cell (Chrome traces open at <https://ui.perfetto.dev>).
use std::path::PathBuf;

use dwmaxerr_bench::{experiments, report, setup::Scale};

/// `--smoke`, hosts with two or more cores: the widest thread count of the
/// executor ladder may run at most this multiple of the serial wall time.
const MAX_WALL_RATIO: f64 = 1.10;

fn main() {
    let mut trace_dir: Option<PathBuf> = std::env::var_os("DWM_TRACE_DIR").map(PathBuf::from);
    let mut out = PathBuf::from("BENCH_fault_nodes.json");
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--trace-dir" => {
                let dir = args.next().unwrap_or_else(|| {
                    eprintln!("--trace-dir requires a directory argument");
                    std::process::exit(2);
                });
                trace_dir = Some(PathBuf::from(dir));
            }
            "--out" => {
                let path = args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a file argument");
                    std::process::exit(2);
                });
                out = PathBuf::from(path);
            }
            other => {
                eprintln!(
                    "unknown argument {other:?} \
                     (expected --smoke, --out <file>, --trace-dir <dir>)"
                );
                std::process::exit(2);
            }
        }
    }

    let (seed, source) = match std::env::var("DWM_FAULT_SEED") {
        Ok(raw) => match raw.trim().parse::<u64>() {
            Ok(v) => (v, "from DWM_FAULT_SEED"),
            Err(_) => {
                eprintln!("DWM_FAULT_SEED={raw:?} is not a u64");
                std::process::exit(2);
            }
        },
        Err(_) => (experiments::DEFAULT_FAULT_SEED, "default"),
    };
    println!("fault seed: {seed} ({source})");

    let scale = if smoke {
        Scale::Quick
    } else {
        Scale::from_env()
    };
    let tables = experiments::fault_sweep_traced(scale, seed, trace_dir.as_deref());
    report::print_all(&tables);

    let sweep = experiments::node_fault_sweep(scale, seed, trace_dir.as_deref());
    report::print_all(&sweep.tables);

    let exec = experiments::executor_threads_sweep(scale, seed);
    report::print_all(std::slice::from_ref(&exec.table));
    if smoke {
        assert!(
            exec.identical,
            "executor-threads sweep diverged: some thread count rebuilt a different synopsis"
        );
        // The wall gate only binds when the host can actually run threads
        // in parallel: on one core the pool can only tie the serial path.
        let cores = report::host_cores();
        let (_, serial_wall) = exec.walls[0];
        let (threads, wall) = *exec.walls.last().expect("the ladder has rungs");
        let wall_ratio = wall / serial_wall.max(1e-12);
        if cores >= 2 {
            assert!(
                wall_ratio <= MAX_WALL_RATIO,
                "{threads} executor threads ran {wall_ratio:.2}x the serial wall time on a \
                 {cores}-core host — the pool must not lose to the serial path"
            );
        } else {
            println!(
                "note: single-core host — executor wall ratio {wall_ratio:.2}x at {threads} \
                 threads reported, not gated"
            );
        }
        // Smoke gates: every cell recovered bit-identically, every
        // killed-node cell shows the recovery machinery actually firing.
        for s in &sweep.samples {
            assert!(
                s.identical,
                "cell (kills={}, corruption={}) was not bit-identical",
                s.nodes_killed, s.corruption
            );
            if s.nodes_killed > 0 {
                assert!(
                    s.recovery.nodes_failed >= s.nodes_killed,
                    "cell kills={} saw only {} node failures",
                    s.nodes_killed,
                    s.recovery.nodes_failed
                );
                assert!(
                    s.recovery.maps_reexecuted > 0 && s.recovery.fetch_retries > 0,
                    "cell kills={} shows no re-execution: {:?}",
                    s.nodes_killed,
                    s.recovery
                );
            }
            if s.corruption {
                assert!(
                    s.recovery.corrupt_runs > 0,
                    "corruption cell detected no corrupt runs: {:?}",
                    s.recovery
                );
            }
        }
        println!(
            "smoke OK: {} node-sweep cells recovered bit-identically",
            sweep.samples.len()
        );
    }
    std::fs::write(&out, sweep.to_json(smoke)).expect("write BENCH_fault_nodes.json");
    println!("wrote {}", out.display());
}
