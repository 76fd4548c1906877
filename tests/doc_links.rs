//! Documentation cross-reference checker (offline `cargo doc`
//! link-check companion).
//!
//! `RUSTDOCFLAGS=-D warnings cargo doc` already verifies rustdoc intra-
//! doc links; this test covers the hand-written markdown the rustdoc
//! gate can't see. For `README.md`, `DESIGN.md`, `EXPERIMENTS.md`,
//! `ROADMAP.md`, and `CHANGES.md` it verifies that
//!
//! 1. every markdown link `[text](path)` to a relative path resolves to
//!    a file in the repository (external URLs and pure anchors are
//!    skipped),
//! 2. every backticked source path (`` `foo/bar.rs` `` and friends)
//!    exists, either repo-relative or under `crates/` (the docs
//!    abbreviate `crates/bench/...` as `bench/...`) — generated
//!    artifacts like `BENCH_*.json` and exported traces are exempt, and
//! 3. every `§N` reference on a line that names `DESIGN.md` points at a
//!    real `## N.`-numbered DESIGN section, so section renumbering
//!    can't silently strand the README/EXPERIMENTS cross-references.
//!
//! And for the run instructions — `README.md`, `DESIGN.md`,
//! `EXPERIMENTS.md` and the CI workflow; `ROADMAP.md` and `CHANGES.md`
//! are plans and history and may name a bin that is gone — that
//!
//! 4. every `--bin NAME` names a binary target that exists,
//!    `crates/bench/src/bin/NAME.rs` or `src/bin/NAME.rs`.
//!
//! And for DESIGN.md's module maps, that
//!
//! 5. in every table row whose first cell is a backticked `.rs` path,
//!    each backticked plain identifier of the second cell occurs as a
//!    word in that file, so a map cannot keep naming a deleted type.

use std::collections::BTreeSet;
use std::path::Path;

const DOCS: &[&str] = &[
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "CHANGES.md",
];

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Generated-at-runtime artifacts the docs legitimately name before
/// they exist in a fresh checkout.
fn is_generated(path: &str) -> bool {
    let name = path.rsplit('/').next().unwrap_or(path);
    name.starts_with("BENCH_")
        || name.ends_with(".trace.json")
        || name.ends_with(".trace.jsonl")
        || path.starts_with("target/")
        || path.starts_with("traces/")
}

fn path_resolves(path: &str) -> bool {
    let root = repo_root();
    root.join(path).exists() || root.join("crates").join(path).exists()
}

/// Extracts `(capture, rest_of_line)` pairs for a crude single-line
/// pattern: every occurrence of text between `open` and `close`.
fn between<'a>(line: &'a str, open: &str, close: &str) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(start) = rest.find(open) {
        rest = &rest[start + open.len()..];
        if let Some(end) = rest.find(close) {
            out.push(&rest[..end]);
            rest = &rest[end + close.len()..];
        } else {
            break;
        }
    }
    out
}

#[test]
fn markdown_links_resolve() {
    let mut broken = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(repo_root().join(doc)).expect(doc);
        for (lineno, line) in text.lines().enumerate() {
            for target in between(line, "](", ")") {
                let target = target.split_whitespace().next().unwrap_or("");
                if target.is_empty()
                    || target.starts_with('#')
                    || target.contains("://")
                    || target.starts_with("mailto:")
                {
                    continue;
                }
                let path = target.split('#').next().unwrap_or(target);
                if !is_generated(path) && !path_resolves(path) {
                    broken.push(format!("{doc}:{}: broken link to {path}", lineno + 1));
                }
            }
        }
    }
    assert!(
        broken.is_empty(),
        "broken markdown links:\n{}",
        broken.join("\n")
    );
}

#[test]
fn backticked_source_paths_exist() {
    let exts = [".rs", ".md", ".toml", ".json", ".jsonl"];
    let mut broken = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(repo_root().join(doc)).expect(doc);
        for (lineno, line) in text.lines().enumerate() {
            for tick in between(line, "`", "`") {
                if !exts.iter().any(|e| tick.ends_with(e))
                    || tick.contains(char::is_whitespace)
                    || tick.contains('*')
                {
                    continue;
                }
                if !is_generated(tick) && !path_resolves(tick) {
                    broken.push(format!("{doc}:{}: missing file `{tick}`", lineno + 1));
                }
            }
        }
    }
    assert!(
        broken.is_empty(),
        "stale file references:\n{}",
        broken.join("\n")
    );
}

#[test]
fn design_section_references_resolve() {
    let design = std::fs::read_to_string(repo_root().join("DESIGN.md")).expect("DESIGN.md");
    let sections: BTreeSet<u32> = design
        .lines()
        .filter_map(|l| l.strip_prefix("## "))
        .filter_map(|h| h.split(['.', ' ']).next().and_then(|n| n.parse().ok()))
        .collect();
    assert!(
        sections.contains(&13),
        "sanity: DESIGN.md numbering changed shape ({sections:?})"
    );

    let mut broken = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(repo_root().join(doc)).expect(doc);
        for (lineno, line) in text.lines().enumerate() {
            if !line.contains("DESIGN.md") {
                continue;
            }
            for chunk in line.split('§').skip(1) {
                let digits: String = chunk.chars().take_while(char::is_ascii_digit).collect();
                let Ok(n) = digits.parse::<u32>() else {
                    continue;
                };
                if !sections.contains(&n) {
                    broken.push(format!(
                        "{doc}:{}: §{n} does not match any '## {n}.' DESIGN.md section",
                        lineno + 1
                    ));
                }
            }
        }
    }
    assert!(
        broken.is_empty(),
        "stale DESIGN.md section references:\n{}",
        broken.join("\n")
    );
}

#[test]
fn named_bins_exist() {
    let sources = [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        ".github/workflows/ci.yml",
    ];
    let mut named = 0;
    let mut broken = Vec::new();
    for doc in sources {
        let text = std::fs::read_to_string(repo_root().join(doc)).expect(doc);
        for (lineno, line) in text.lines().enumerate() {
            for rest in line.split("--bin").skip(1) {
                let name: String = rest
                    .trim_start()
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '-')
                    .collect();
                // `--bin <name>` and the like: a placeholder, not a target.
                if name.is_empty() {
                    continue;
                }
                named += 1;
                let dirs = ["bench/src/bin", "src/bin"];
                if !dirs
                    .iter()
                    .any(|d| path_resolves(&format!("{d}/{name}.rs")))
                {
                    broken.push(format!("{doc}:{}: no bin named {name}", lineno + 1));
                }
            }
        }
    }
    assert!(
        named > 0,
        "sanity: the docs and CI no longer name any bin — did the syntax change?"
    );
    assert!(
        broken.is_empty(),
        "run instructions for bins that do not exist:\n{}",
        broken.join("\n")
    );
}

/// Whether `word` occurs in `text` with no identifier character on
/// either side.
fn has_word(text: &str, word: &str) -> bool {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    text.match_indices(word).any(|(at, _)| {
        let before = text[..at].chars().next_back();
        let after = text[at + word.len()..].chars().next();
        !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
    })
}

#[test]
fn module_map_rows_name_what_their_file_defines() {
    let design = std::fs::read_to_string(repo_root().join("DESIGN.md")).expect("DESIGN.md");
    let mut rows = 0;
    let mut broken = Vec::new();
    for (lineno, line) in design.lines().enumerate() {
        let mut cells = line.split('|').skip(1).map(str::trim);
        let (Some(first), Some(second)) = (cells.next(), cells.next()) else {
            continue;
        };
        let Some(path) = first
            .strip_prefix('`')
            .and_then(|c| c.strip_suffix('`'))
            .filter(|p| p.ends_with(".rs") && !p.contains('`'))
        else {
            continue;
        };
        let file = [
            repo_root().join(path),
            repo_root().join("crates").join(path),
        ]
        .into_iter()
        .find_map(|f| std::fs::read_to_string(f).ok())
        .unwrap_or_else(|| panic!("DESIGN.md:{}: no file `{path}`", lineno + 1));
        rows += 1;
        for name in between(second, "`", "`") {
            let plain = name.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
                && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
            if plain && !has_word(&file, name) {
                broken.push(format!(
                    "DESIGN.md:{}: `{name}` does not occur in {path}",
                    lineno + 1
                ));
            }
        }
    }
    assert!(
        rows > 0,
        "sanity: DESIGN.md has no module-map rows — did the table syntax change?"
    );
    assert!(
        broken.is_empty(),
        "module maps naming what their file does not define:\n{}",
        broken.join("\n")
    );
}
