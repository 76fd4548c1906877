//! The `.unwrap()` / `.expect(` budget of the product crates.
//!
//! A panic on the serving or build path is a bug the caller cannot handle,
//! so each site that may still panic is counted against a committed
//! budget, per file under `crates/*/src`. A site counts when it sits above
//! the file's first `#[cfg(test)]` on a line that is not a comment (a
//! line whose text starts with `//`). A file missing from [`BUDGET`] may
//! hold none.
//!
//! The budget may only go down: a count above its row fails, and so does
//! a count below it, with the row to write instead. Removing a site means
//! lowering its row in the same change.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Sites per file, repo-relative, sorted by path.
const BUDGET: &[(&str, usize)] = &[
    ("crates/algos/src/haar_plus.rs", 1),
    ("crates/algos/src/indirect_haar.rs", 2),
    ("crates/algos/src/min_haar_space.rs", 1),
    ("crates/bench/src/bin/all_experiments.rs", 1),
    ("crates/bench/src/bin/fault_sweep.rs", 2),
    ("crates/bench/src/experiments/comparison.rs", 2),
    ("crates/bench/src/experiments/conventional.rs", 5),
    ("crates/bench/src/experiments/faults.rs", 11),
    ("crates/bench/src/experiments/mod.rs", 3),
    ("crates/core/src/conventional/hwtopk_impl.rs", 1),
    ("crates/core/src/conventional/mod.rs", 1),
    ("crates/core/src/dgreedy_abs.rs", 1),
    ("crates/core/src/dgreedy_rel.rs", 1),
    ("crates/core/src/dmin_rel_var.rs", 3),
    ("crates/core/src/partition.rs", 3),
    ("crates/runtime/src/cluster.rs", 1),
    ("crates/runtime/src/codec.rs", 2),
    ("crates/runtime/src/executor.rs", 2),
    ("crates/runtime/src/job/fetch.rs", 2),
    ("crates/runtime/src/job/map.rs", 2),
    ("crates/runtime/src/job/spill.rs", 15),
    ("crates/runtime/src/pipeline.rs", 2),
    ("crates/runtime/src/reference.rs", 3),
    ("crates/runtime/src/trace.rs", 5),
    ("crates/runtime/src/trace/json.rs", 5),
    ("crates/serve/src/net.rs", 5),
    ("crates/wavelet/src/basis.rs", 1),
    ("crates/wavelet/src/reconstruct.rs", 2),
    ("crates/wavelet/src/synopsis.rs", 3),
    ("crates/wavelet/src/transform.rs", 1),
];

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The sites of `source` by the rule in the module docs.
fn sites(source: &str) -> usize {
    source
        .lines()
        .map(str::trim_start)
        .take_while(|line| !line.starts_with("#[cfg(test)]"))
        .filter(|line| !line.starts_with("//"))
        .map(|line| line.matches(".unwrap()").count() + line.matches(".expect(").count())
        .sum()
}

#[test]
fn counting_rule() {
    let source = "\
let a = x.unwrap(); let b = y.expect(\"why\");
// a comment naming .unwrap() does not count
    /// nor does a doc line: .expect(
let c = z.unwrap_or(0);
#[cfg(test)]
mod tests { fn t() { w.unwrap(); } }
";
    assert_eq!(sites(source), 2);
}

#[test]
fn unwrap_and_expect_sites_stay_within_budget() {
    let root = repo_root();
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        let src = krate.expect("a crate").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let counted: BTreeMap<String, usize> = files
        .iter()
        .map(|path| {
            let rel = path.strip_prefix(root).expect("under the repo");
            let source = fs::read_to_string(path).expect("readable source");
            (rel.to_string_lossy().replace('\\', "/"), sites(&source))
        })
        .collect();

    let budget: BTreeMap<&str, usize> = BUDGET.iter().copied().collect();
    assert_eq!(budget.len(), BUDGET.len(), "a file has two rows");
    let mut problems = Vec::new();
    for file in budget.keys().filter(|f| !counted.contains_key(**f)) {
        problems.push(format!("{file}: no such file, remove its row"));
    }
    for (file, &count) in &counted {
        let allowed = budget.get(file.as_str()).copied().unwrap_or(0);
        if count > allowed {
            problems.push(format!(
                "{file}: {count} sites, over its budget of {allowed}"
            ));
        } else if count < allowed {
            problems.push(format!(
                "{file}: {count} sites under a budget of {allowed}: lower the budget to {count}"
            ));
        }
    }
    assert!(problems.is_empty(), "\n{}", problems.join("\n"));
}
