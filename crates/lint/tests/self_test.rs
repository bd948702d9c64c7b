//! The fixture corpus must behave exactly as labelled: pass fixtures
//! lint clean, fail fixtures trip precisely their named rule.

use std::fs;
use std::path::PathBuf;

use prc_lint::{self_test, RULE_IDS};

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

#[test]
fn every_fixture_behaves_as_labelled() {
    let results = self_test(&fixtures_dir()).expect("fixture corpus must be readable");
    let failures: Vec<String> = results
        .iter()
        .filter_map(|r| r.problem.as_ref().map(|p| format!("{}: {p}", r.name)))
        .collect();
    assert!(
        failures.is_empty(),
        "fixture failures:\n{}",
        failures.join("\n")
    );
}

/// Fixture file names under `fixtures/<sub>/` whose rule prefix is
/// `rule`, paired with the first path each declares in its header.
fn fixtures_of(sub: &str, rule: &str) -> Vec<(String, String)> {
    let prefix = format!("{}_", rule.to_lowercase());
    let mut out: Vec<(String, String)> = fs::read_dir(fixtures_dir().join(sub))
        .expect("fixture directory must be readable")
        .map(|e| e.expect("fixture entry must be readable").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .filter_map(|p| {
            let name = p.file_name()?.to_string_lossy().into_owned();
            name.starts_with(&prefix).then(|| {
                let source = fs::read_to_string(&p).expect("fixture must be readable");
                (name, declared_path(&source))
            })
        })
        .collect();
    out.sort();
    out
}

/// The first `// prc-lint-fixture: path = …` a fixture declares.
fn declared_path(source: &str) -> String {
    source
        .lines()
        .find_map(|line| line.trim().strip_prefix("// prc-lint-fixture: path ="))
        .map(|path| path.trim().to_owned())
        .unwrap_or_default()
}

#[test]
fn corpus_covers_every_rule() {
    let results = self_test(&fixtures_dir()).expect("fixture corpus must be readable");
    // Every rule has a base pass/fail pair. Any further pair is a scope
    // pin: its fail and pass fixture declare the same path, pinning that
    // path into the rule's scope (the pipeline modules and the tree
    // driver for D001; the compaction policy and the query engine for
    // D002). The expected corpus size follows from the pins it declares.
    let mut scope_pins = 0;
    for rule in RULE_IDS {
        let fails = fixtures_of("fail", rule);
        let passes = fixtures_of("pass", rule);
        assert!(!fails.is_empty(), "no fail fixture for rule {rule}");
        assert_eq!(
            fails.len(),
            passes.len(),
            "rule {rule}: fail and pass fixtures must come in pairs"
        );
        let pinned = fails
            .iter()
            .filter(|(_, path)| passes.iter().any(|(_, p)| p == path))
            .count();
        let extra = fails.len() - 1;
        assert!(
            pinned >= extra,
            "rule {rule}: {extra} extra pairs but only {pinned} declare a shared path"
        );
        scope_pins += extra;
    }
    assert_eq!(results.len(), 2 * (RULE_IDS.len() + scope_pins));
}

#[test]
fn self_test_errors_on_missing_corpus() {
    let missing = fixtures_dir().join("no-such-dir");
    assert!(self_test(&missing).is_err());
}
