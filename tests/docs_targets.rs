//! Docs name only targets that exist. Every `--bin|--bench|--test|--example
//! <name>` in the user-facing docs, the CI workflow and the verify skill,
//! and every back-ticked `exp_*` / `diag_*` / `bench_*` name, must resolve
//! to a source file — so deleting a binary or a bench cannot leave a stale
//! command behind — and so must every back-ticked `crates/….rs` or
//! `tests/….rs` path, so splitting or moving a file cannot leave a dangling
//! reference. No model fit: this reads a handful of text files.

use std::path::{Path, PathBuf};

const DOCS: [&str; 5] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".github/workflows/ci.yml",
    ".claude/skills/verify/SKILL.md",
];

/// A back-ticked harness name with no flag in front of it.
const HARNESS: &str = "harness";

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Is there a `<name>.rs` where a target of this `kind` lives?
fn resolves(kind: &str, name: &str) -> bool {
    let at = |rel: &str| root().join(rel);
    let dirs: Vec<PathBuf> = match kind {
        "--bin" => vec![at("crates/bench/src/bin")],
        "--bench" => vec![at("crates/bench/benches")],
        "--example" => vec![at("examples")],
        "--test" => std::fs::read_dir(at("crates"))
            .expect("crates/ is readable")
            .map(|e| e.expect("dir entry").path().join("tests"))
            .chain([at("tests")])
            .collect(),
        // A binary or a criterion bench.
        _ => vec![at("crates/bench/src/bin"), at("crates/bench/benches")],
    };
    dirs.iter().any(|d| d.join(format!("{name}.rs")).is_file())
}

/// The leading run of target-name characters of `token`.
fn ident(token: &str) -> &str {
    let end = token
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(token.len());
    &token[..end]
}

/// `(kind, name)` for every target `text` names: the word after a target
/// flag (a placeholder like `<name>` has no identifier and is skipped),
/// and every back-ticked span that is exactly one `exp_` / `diag_` /
/// `bench_` identifier.
fn named_targets(text: &str) -> Vec<(&'static str, String)> {
    let mut out = Vec::new();
    let mut words = text.split_whitespace().peekable();
    while let Some(word) = words.next() {
        for flag in ["--bin", "--bench", "--test", "--example"] {
            // The flag may be glued to an opening back-tick or quote.
            if word.trim_start_matches(['`', '"', '\'']) == flag {
                let name = ident(words.peek().copied().unwrap_or(""));
                if !name.is_empty() {
                    out.push((flag, name.to_string()));
                }
            }
        }
    }
    for span in text.split('`') {
        let prefixed = ["exp_", "diag_", "bench_"]
            .iter()
            .any(|p| span.starts_with(p));
        if prefixed && ident(span) == span {
            out.push((HARNESS, span.to_string()));
        }
    }
    out
}

/// Every source file `text` cites: a back-ticked span that is one path
/// under `crates/` or `tests/` ending in `.rs`, without its `:line` suffix
/// if it has one, and with one `{a,b}` group spelled out.
fn cited_files(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for span in text.split('`') {
        let path = span.split(':').next().unwrap_or("");
        let rooted = path.starts_with("crates/") || path.starts_with("tests/");
        if !rooted || !path.ends_with(".rs") || path.contains(char::is_whitespace) {
            continue;
        }
        match (path.find('{'), path.find('}')) {
            (Some(open), Some(close)) if open < close => {
                let (head, tail) = (&path[..open], &path[close + 1..]);
                let names = path[open + 1..close].split(',');
                out.extend(names.map(|name| format!("{head}{name}{tail}")));
            }
            _ => out.push(path.to_string()),
        }
    }
    out
}

#[test]
fn every_named_target_resolves_to_a_source_file() {
    let mut dangling = Vec::new();
    let mut checked = 0usize;
    let mut files = 0usize;
    for doc in DOCS {
        let text = std::fs::read_to_string(root().join(doc))
            .unwrap_or_else(|e| panic!("cannot read {doc}: {e}"));
        for (kind, name) in named_targets(&text) {
            checked += 1;
            if !resolves(kind, &name) {
                dangling.push(format!("{doc}: {kind} {name}"));
            }
        }
        for file in cited_files(&text) {
            files += 1;
            if !root().join(&file).is_file() {
                dangling.push(format!("{doc}: file {file}"));
            }
        }
    }
    assert!(
        dangling.is_empty(),
        "docs name targets with no source file:\n  {}",
        dangling.join("\n  ")
    );
    // A scanner that silently matches nothing would pass the check above;
    // the five files name well over fifty targets between them.
    assert!(checked >= 50, "only {checked} target names found");
    assert!(files >= 30, "only {files} file paths found");
}

#[test]
fn scanner_sees_flags_and_backticked_names_and_skips_the_rest() {
    let text = "run `cargo run --bin exp_table2` or --test\nwire_client; see `bench_kernels`, \
                the `diag_*` bins, `bench_output.txt`, `BENCH_kernels.json`, --bin <name>.";
    assert_eq!(
        named_targets(text),
        vec![
            ("--bin", "exp_table2".to_string()),
            ("--test", "wire_client".to_string()),
            (HARNESS, "bench_kernels".to_string()),
        ]
    );
    assert_eq!(
        cited_files(
            "`crates/nn/src/{layers,moe}.rs`, `tests/wire_client.rs:12-40`; not `tests/`, \
             `crates/wire`, `tests/fixtures/wire_frame_v1.bin` or `cargo test tests/x.rs`"
        ),
        [
            "crates/nn/src/layers.rs",
            "crates/nn/src/moe.rs",
            "tests/wire_client.rs"
        ]
    );
    assert!(resolves(HARNESS, "bench_kernels") && resolves("--bin", "exp_table2"));
    assert!(!resolves("--bin", "exp_no_such_binary") && !resolves("--bench", "exp_table2"));
}
