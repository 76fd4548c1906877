//! End-to-end tests of the `dwm` command-line tool.

use std::path::PathBuf;
use std::process::Command;

fn dwm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dwm"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dwm-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn gen_build_eval_query_pipeline() {
    let data = tmp("data.csv");
    let syn = tmp("syn.csv");

    let out = dwm()
        .args(["gen", "--kind", "wd", "--n", "1024", "--seed", "7"])
        .args(["--out", data.to_str().unwrap()])
        .output()
        .expect("gen runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = dwm()
        .args(["build", "--input", data.to_str().unwrap()])
        .args(["--budget", "128", "--algo", "greedy-abs"])
        .args(["--out", syn.to_str().unwrap()])
        .output()
        .expect("build runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("built greedy-abs synopsis"), "{stderr}");

    let out = dwm()
        .args(["eval", "--input", data.to_str().unwrap()])
        .args(["--synopsis", syn.to_str().unwrap()])
        .output()
        .expect("eval runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("max_abs:"), "{stdout}");
    assert!(stdout.contains("coefficients: "), "{stdout}");

    let out = dwm()
        .args(["query", "--synopsis", syn.to_str().unwrap(), "--point", "5"])
        .output()
        .expect("query runs");
    assert!(out.status.success());
    let v: f64 = String::from_utf8_lossy(&out.stdout).trim().parse().unwrap();
    assert!(v.is_finite());

    let out = dwm()
        .args(["query", "--synopsis", syn.to_str().unwrap()])
        .args(["--range", "0", "1023"])
        .output()
        .expect("range query runs");
    assert!(out.status.success());
    let sum: f64 = String::from_utf8_lossy(&out.stdout).trim().parse().unwrap();
    assert!(sum.is_finite() && sum > 0.0);

    let _ = std::fs::remove_file(&data);
    let _ = std::fs::remove_file(&syn);
}

#[test]
fn build_pads_non_power_of_two_input() {
    let data = tmp("odd.csv");
    let syn = tmp("odd-syn.csv");
    let values: String = (0..1000).map(|i| format!("{}\n", i % 50)).collect();
    std::fs::write(&data, values).unwrap();
    let out = dwm()
        .args(["build", "--input", data.to_str().unwrap()])
        .args(["--budget", "64", "--algo", "conventional"])
        .args(["--out", syn.to_str().unwrap()])
        .output()
        .expect("build runs");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("padded 1000 values to 1024"), "{stderr}");
    let _ = std::fs::remove_file(&data);
    let _ = std::fs::remove_file(&syn);
}

#[test]
fn helpful_errors() {
    let out = dwm().output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));

    let out = dwm().args(["build", "--algo", "nope"]).output().unwrap();
    assert!(!out.status.success());

    let out = dwm()
        .args(["query", "--synopsis", "/nonexistent", "--point", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

/// A one-line file is a one-coefficient tree; `greedy-rel` used to panic
/// on it where `greedy-abs` answered.
#[test]
fn build_accepts_a_single_value() {
    let data = tmp("one.csv");
    std::fs::write(&data, "5\n").unwrap();
    for algo in ["greedy-abs", "greedy-rel"] {
        let syn = tmp(&format!("one-{algo}.csv"));
        let out = dwm()
            .args(["build", "--input", data.to_str().unwrap()])
            .args(["--budget", "1", "--algo", algo])
            .args(["--out", syn.to_str().unwrap()])
            .output()
            .expect("build runs");
        assert!(
            out.status.success(),
            "{algo}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let _ = std::fs::remove_file(&syn);
    }
    let _ = std::fs::remove_file(&data);
}

/// The CLI's row of the edge-input table: the conventional build does not
/// refuse a NaN cell, so its report must not bound what it could not
/// measure — `max_abs=0.0000` used to stand beside `L2=NaN`.
#[test]
fn build_over_a_nan_cell_reports_nan_errors() {
    let data = tmp("nan.csv");
    let syn = tmp("nan-syn.csv");
    let values: String = (0..16)
        .map(|i| {
            if i == 6 {
                "NaN\n".to_string()
            } else {
                format!("{}\n", (i * 5) % 11)
            }
        })
        .collect();
    std::fs::write(&data, values).unwrap();
    let out = dwm()
        .args(["build", "--input", data.to_str().unwrap()])
        .args(["--budget", "4", "--algo", "conventional"])
        .args(["--out", syn.to_str().unwrap()])
        .output()
        .expect("build runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(
        stderr.contains("max_abs=NaN max_rel=NaN L2=NaN"),
        "{stderr}"
    );

    let out = dwm()
        .args(["eval", "--input", data.to_str().unwrap()])
        .args(["--synopsis", syn.to_str().unwrap()])
        .output()
        .expect("eval runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("max_abs:      NaN"),
        "{stdout}"
    );
    let _ = std::fs::remove_file(&data);
    let _ = std::fs::remove_file(&syn);
}
