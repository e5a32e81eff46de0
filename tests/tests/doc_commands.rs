//! Every `--bin`, `--example`, `--bench` and `--test` named in the
//! user-facing docs must name a cargo target that exists, so deleting or
//! renaming a target cannot leave a dead command behind.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// The documents whose commands readers copy.
const DOCS: [&str; 4] = [
    "README.md",
    "EXPERIMENTS.md",
    "DESIGN.md",
    "tests/README.md",
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests/ sits in the repository root")
        .to_path_buf()
}

/// Package directories: the workspace members plus the standalone
/// `benchmark/` package.
fn packages(root: &Path) -> Vec<PathBuf> {
    let mut dirs = vec![root.join("tests"), root.join("benchmark")];
    for group in ["crates", "vendor"] {
        for entry in fs::read_dir(root.join(group)).expect("member directory") {
            dirs.push(entry.expect("directory entry").path());
        }
    }
    dirs.retain(|d| d.join("Cargo.toml").is_file());
    dirs
}

/// File stems of the `*.rs` files directly in `dir` (none if it is absent).
fn rs_stems(dir: &Path) -> Vec<String> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    entries
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect()
}

/// `name = "…"` of every `[[kind]]` entry in a manifest.
fn manifest_targets(manifest: &str, kind: &str) -> Vec<String> {
    let header = format!("[[{kind}]]");
    let mut inside = false;
    let mut names = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            inside = line == header;
        } else if let Some(value) = line.strip_prefix("name").filter(|_| inside) {
            let value = value.trim_start().trim_start_matches('=').trim();
            names.push(value.trim_matches('"').to_string());
        }
    }
    names
}

/// Every target of `kind` (`bin`, `example`, `bench`, `test`) in the repo:
/// declared in a manifest or auto-discovered from its directory.
fn targets(root: &Path, kind: &str) -> BTreeSet<String> {
    let dir = match kind {
        "bin" => "src/bin",
        "example" => "examples",
        "bench" => "benches",
        _ => "tests",
    };
    let mut names = BTreeSet::new();
    for pkg in packages(root) {
        let manifest = fs::read_to_string(pkg.join("Cargo.toml")).expect("manifest");
        names.extend(manifest_targets(&manifest, kind));
        names.extend(rs_stems(&pkg.join(dir)));
    }
    names
}

/// `(flag, name)` for every `--bin`/`--example`/`--bench`/`--test` in
/// `text`; a command wrapped over two lines still pairs up, and
/// placeholders such as `<name>` or `$b` are skipped.
fn commands(text: &str) -> Vec<(&'static str, String)> {
    let trim = |t: &str| {
        t.trim_matches(|c: char| !(c.is_alphanumeric() || "-_<>$".contains(c)))
            .to_string()
    };
    let tokens: Vec<String> = text.split_whitespace().map(trim).collect();
    let mut found = Vec::new();
    for pair in tokens.windows(2) {
        let kind = match pair[0].as_str() {
            "--bin" => "bin",
            "--example" => "example",
            "--bench" => "bench",
            "--test" => "test",
            _ => continue,
        };
        let name = &pair[1];
        if !name.is_empty() && !name.starts_with(['<', '$', '-']) {
            found.push((kind, name.clone()));
        }
    }
    found
}

#[test]
fn scanner_pairs_wrapped_flags_and_skips_placeholders() {
    let text = "run `cargo run --bin table1` … `--bin fig5`, or\n`cargo test --test\nfleet`; \
                `--bin <name>`, `--bin $b` and `--bench paper`";
    assert_eq!(
        commands(text),
        vec![
            ("bin", "table1".to_string()),
            ("bin", "fig5".to_string()),
            ("test", "fleet".to_string()),
            ("bench", "paper".to_string()),
        ]
    );
}

#[test]
fn targets_cover_manifest_entries_and_discovered_files() {
    let root = repo_root();
    let bins = targets(&root, "bin");
    for name in ["table1", "perfbench", "report", "fastt-fuzz", "benchmark"] {
        assert!(bins.contains(name), "bin `{name}` not found: {bins:?}");
    }
    assert!(targets(&root, "example").contains("quickstart"));
    assert!(targets(&root, "test").contains("doc_commands"));
}

#[test]
fn every_documented_command_names_an_existing_target() {
    let root = repo_root();
    let known: BTreeMap<_, _> = ["bin", "example", "bench", "test"]
        .map(|kind| (kind, targets(&root, kind)))
        .into();
    let mut dead = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        for (kind, name) in commands(&text) {
            checked += 1;
            if !known[kind].contains(&name) {
                dead.push(format!("{doc}: --{kind} {name}"));
            }
        }
    }
    assert!(
        checked >= 20,
        "only {checked} commands found; is the scanner broken?"
    );
    assert!(
        dead.is_empty(),
        "commands naming no target:\n{}",
        dead.join("\n")
    );
}
