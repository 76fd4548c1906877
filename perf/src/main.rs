//! `perf` — one end-to-end benchmark for build → publish → serve, with
//! per-layer attribution. See `README.md` beside this package and
//! `BENCHMARK.json` at the repository root.
//!
//! ```text
//! perf --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! perf [--seed N] [--seconds S] [--runs K] [--traced] [--out DIR]
//! perf --compare A.json B.json
//! ```
//!
//! With `--workload` the process runs that workload once and prints, as
//! the last line of its standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Without it the process
//! re-executes itself once per workload and run, so each gets a fresh heap
//! and its own `VmHWM`, and writes one JSON per workload plus a merged
//! `summary.json` under `--out`. Any correctness failure is a non-zero
//! exit.

mod alloc;
mod builds;
mod compare;
mod gen;
mod json;
mod probes;
mod run;
mod serve;
mod spans;
mod spec;
mod stats;
mod stream;
mod yardstick;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::Value;
use spec::{Metric, Workload, END_TO_END, PER_LAYER, PRINT_ONLY, WORKLOADS};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  perf --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
  perf [--seed N] [--seconds S] [--runs K] [--traced] [--out DIR]
  perf --compare A.json B.json
workloads: build-greedy build-shuffle build-dp serve-point serve-scan stream-serve";

/// Parsed command line.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    traced: bool,
    runs: usize,
    out: Option<PathBuf>,
    compare: Option<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 17,
        seconds: 15.0,
        trace: false,
        traced: false,
        runs: 1,
        out: None,
        compare: None,
    };
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, flag)?),
            "--seed" => {
                args.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => args.traced = true,
            "--runs" => {
                args.runs = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if args.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--out" => args.out = Some(PathBuf::from(value(&mut it, flag)?)),
            "--compare" => args.compare = Some((value(&mut it, flag)?, value(&mut it, flag)?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The result object: `metrics` holds exactly the metrics of `table`.
fn result_object(outcome: &run::Outcome, table: &[Metric]) -> Result<Value, String> {
    let mut metrics = Vec::with_capacity(table.len());
    for m in table {
        let value = outcome
            .metrics
            .get(m.name)
            .copied()
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is not a number", m.name));
        }
        metrics.push((
            m.name,
            json::obj([("value", json::num(value)), ("unit", json::string(m.unit))]),
        ));
    }
    Ok(json::obj([
        ("correct", Value::Bool(outcome.failed == 0)),
        ("attempted", json::num(outcome.attempted as f64)),
        ("failed", json::num(outcome.failed as f64)),
        ("metrics", json::obj(metrics)),
    ]))
}

/// Runs one workload in this process.
fn single(w: &Workload, args: &Args) -> Result<bool, String> {
    let threads = spec::load_threads();
    println!("perf: {}: {}", w.name, w.why);
    println!(
        "perf: workload={} seed={} seconds={} trace={} n={} budget={} base_leaves={} host_cores={} T={} pool_threads={} spill_backend=memory",
        w.name, args.seed, args.seconds, u8::from(args.trace), w.n, w.budget(), w.base_leaves,
        spec::host_cores(), threads, spec::POOL_THREADS,
    );
    let outcome = run::run(w, args.seed, args.seconds, args.trace)?;
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let result = result_object(&outcome, table)?;
    let extras = PRINT_ONLY
        .iter()
        .filter(|m| args.trace && outcome.metrics.contains_key(m.name));
    for m in table.iter().chain(extras) {
        println!(
            "{:<32} {:>18.6} {:<10} ({} is better)",
            m.name,
            outcome.metrics[m.name],
            m.unit,
            m.better.as_str()
        );
    }
    if let (Some(speed), false) = (outcome.metrics.get("bench.host_speed"), args.trace) {
        let scale = speed.powf(yardstick::DAMPING);
        println!(
            "host speed {speed:.4} of the reference: times above are measured x {scale:.4}, rates measured / {scale:.4}"
        );
    }
    println!(
        "operations: attempted={} failed={}",
        outcome.attempted, outcome.failed
    );
    if let Some(error) = &outcome.error {
        println!("first error: {error}");
    }
    if let (Some(dir), true) = (&args.out, args.trace) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("{}.trace.json", w.name));
        std::fs::write(&path, json::write(&outcome.spans.to_chrome(w.name)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "spans: {} written to {}",
            outcome.spans.spans().len(),
            path.display()
        );
    }
    println!("{}", json::write(&result));
    Ok(outcome.failed == 0)
}

/// First line of `program args…`'s standard output, or `"unknown"`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// What every result file is stamped with.
fn stamp(args: &Args) -> Value {
    let sizes = WORKLOADS.iter().map(|w| {
        (
            w.name,
            json::obj([
                ("n", json::num(w.n as f64)),
                ("budget", json::num(w.budget() as f64)),
                ("base_leaves", json::num(w.base_leaves as f64)),
            ]),
        )
    });
    json::obj([
        ("seed", json::num(args.seed as f64)),
        ("seconds", json::num(args.seconds)),
        (
            "commit",
            json::string(first_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("rustc", json::string(first_line("rustc", &["-V"]))),
        ("host_cores", json::num(spec::host_cores() as f64)),
        ("load_threads", json::num(spec::load_threads() as f64)),
        ("pool_threads", json::num(spec::POOL_THREADS as f64)),
        ("spill_backend", json::string("memory")),
        ("shards", json::num(spec::SHARDS as f64)),
        ("sizes", json::obj(sizes)),
    ])
}

/// Runs `w` in a child process and returns its result object, tagged with
/// the workload, seed and trace mode.
fn child(
    exe: &Path,
    w: &Workload,
    seed: u64,
    trace: bool,
    args: &Args,
    out: &Path,
) -> Result<Value, String> {
    let output = Command::new(exe)
        .args(["--workload", w.name, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .arg("--out")
        .arg(out)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot re-execute {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or_default();
    let Value::Obj(mut result) =
        json::parse(last).map_err(|e| format!("{}: no result line: {e}", w.name))?
    else {
        return Err(format!("{}: result line is not an object", w.name));
    };
    result.insert("workload".into(), json::string(w.name));
    result.insert("seed".into(), json::num(seed as f64));
    result.insert("trace".into(), json::num(f64::from(u8::from(trace))));
    result.insert("exit_ok".into(), Value::Bool(output.status.success()));
    Ok(Value::Obj(result))
}

/// Runs every workload `--runs` times (seeds `seed`, `seed + 1`, …), each
/// in its own process, and writes the result files.
fn parent(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("target/perf"));
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let stamp = stamp(args);
    println!("perf: stamp {}", json::write(&stamp));
    let mut all = Vec::new();
    let mut ok = true;
    for w in WORKLOADS {
        let mut runs = Vec::new();
        for k in 0..args.runs as u64 {
            for trace in [false, true] {
                if trace && !args.traced {
                    continue;
                }
                let result = child(&exe, w, args.seed + k, trace, args, &out)?;
                ok &= result.get("exit_ok").and_then(Value::as_bool) == Some(true)
                    && result.get("correct").and_then(Value::as_bool) == Some(true);
                runs.push(result);
            }
        }
        let doc = json::obj([("stamp", stamp.clone()), ("runs", Value::Arr(runs.clone()))]);
        let path = out.join(format!("{}.json", w.name));
        std::fs::write(&path, json::write(&doc) + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
        all.extend(runs);
    }
    let path = out.join("summary.json");
    let doc = json::obj([("stamp", stamp), ("runs", Value::Arr(all))]);
    std::fs::write(&path, json::write(&doc) + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "perf: results in {} ({})",
        path.display(),
        if ok { "all correct" } else { "FAILURES" }
    );
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some((a, b)) = &args.compare {
        compare::run(a, b).map(|regressed| !regressed)
    } else if let Some(name) = &args.workload {
        match spec::workload(name) {
            Some(w) => single(w, &args),
            None => Err(format!("unknown workload {name}\n{USAGE}")),
        }
    } else {
        parent(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(1)
        }
    }
}
