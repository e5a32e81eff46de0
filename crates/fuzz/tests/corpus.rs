//! Tier-1 regression corpus: every minimized reproducer committed under
//! `fuzz/corpus/` replays through the full oracle on every `cargo test`,
//! and the sabotage reproducer is re-derived from scratch to pin the
//! whole catch → minimize → serialize pipeline.

use fastt_fuzz::oracle::{check, Sabotage, PLACEMENT_VALIDITY};
use fastt_fuzz::{minimize, replay, Scenario};
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../fuzz/corpus")
}

fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("fuzz/corpus must exist")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "fuzz"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "fuzz/corpus is empty");
    files
}

#[test]
fn every_committed_reproducer_replays_clean() {
    for path in corpus_files() {
        let text = std::fs::read_to_string(&path).unwrap();
        let sc = replay::parse(&text)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        // fault and lifecycle lines are written as `Display` writes them
        let canonical = replay::to_text(&sc);
        for line in text
            .lines()
            .filter(|l| l.starts_with("fault") || l.starts_with("lifecycle"))
        {
            assert!(
                canonical.lines().any(|c| c == line),
                "{}: `{line}` is not in canonical form",
                path.display()
            );
        }
        let violations = check(&sc, Sabotage::None, None);
        assert!(
            violations.is_empty(),
            "{} regressed: {violations:?}",
            path.display()
        );
    }
}

#[test]
fn sabotaged_invariant_is_caught_and_minimized_to_committed_reproducer() {
    // The intentionally-broken invariant (test-only hook) must be caught
    // on a generated scenario...
    let sc = (0..8)
        .map(|i| Scenario::generate(7, i))
        .find(|sc| {
            check(sc, Sabotage::Placement, None)
                .iter()
                .any(|v| v.family == PLACEMENT_VALIDITY)
        })
        .expect("placement sabotage must fire within the first 8 scenarios");

    // ...auto-minimized to a tiny reproducer...
    let min = minimize(&sc, Sabotage::Placement, PLACEMENT_VALIDITY, 200);
    assert!(
        min.scenario.faults.len() <= 3,
        "reproducer carries {} faults",
        min.scenario.faults.len()
    );
    assert!(
        min.scenario.graph.forward_op_count() <= 8,
        "reproducer carries {} forward ops",
        min.scenario.graph.forward_op_count()
    );

    // ...that replays deterministically from its committed scenario file.
    let committed_path = corpus_dir().join("sabotage-placement.fuzz");
    let committed = std::fs::read_to_string(&committed_path).unwrap();
    assert_eq!(
        replay::to_text(&min.scenario),
        committed,
        "minimizer no longer reproduces {}",
        committed_path.display()
    );
    let replayed = replay::parse(&committed).unwrap();
    assert!(
        check(&replayed, Sabotage::Placement, None)
            .iter()
            .any(|v| v.family == PLACEMENT_VALIDITY),
        "committed sabotage reproducer no longer fires"
    );
    assert!(
        check(&replayed, Sabotage::None, None).is_empty(),
        "sabotage reproducer must be clean without the hook"
    );
}
