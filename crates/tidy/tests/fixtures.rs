//! Self-tests: every rule must fire on its fixture file, exactly where the
//! fixture says it should, and nowhere else.

use vg_tidy::config::Config;
use vg_tidy::rules::{check_file, FileMeta, FileReport, Finding};

/// Loads a fixture and checks it as if it were library code at `rel`.
fn check(fixture: &str, rel: &str, config: &Config) -> FileReport {
    let path = format!("{}/fixtures/{fixture}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let meta = FileMeta {
        rel: rel.to_string(),
        crate_dir: rel.split('/').take(2).collect::<Vec<_>>().join("/"),
        is_lib: true,
    };
    check_file(&meta, &src, config)
}

/// The findings of [`check`].
fn run(fixture: &str, rel: &str, config: &Config) -> Vec<Finding> {
    check(fixture, rel, config).findings
}

fn config() -> Config {
    Config::parse_str(
        r#"
[wall_clock]
allow_crates = ["crates/bench"]

[float_cmp]
allow = []

[hot_alloc]
paths = ["crates/fake/src/hot.rs"]
"#,
    )
    .expect("fixture config parses")
}

/// (rule, line) pairs, sorted — the shape the assertions compare.
fn fired(findings: &[Finding]) -> Vec<(&'static str, u32)> {
    let mut v: Vec<(&'static str, u32)> = findings.iter().map(|f| (f.rule, f.line)).collect();
    v.sort_unstable();
    v
}

#[test]
fn default_hasher_fires() {
    let f = run("default_hasher.rs", "crates/fake/src/lib.rs", &config());
    assert_eq!(
        fired(&f),
        vec![
            ("default_hasher", 4),
            ("default_hasher", 6),
            ("default_hasher", 9)
        ]
    );
}

#[test]
fn wall_clock_fires_and_respects_crate_allowlist() {
    let cfg = config();
    let f = run("wall_clock.rs", "crates/fake/src/lib.rs", &cfg);
    assert_eq!(
        fired(&f),
        vec![("wall_clock", 3), ("wall_clock", 6), ("wall_clock", 10)]
    );
    // The same file inside an allowlisted crate is clean.
    let f = run("wall_clock.rs", "crates/bench/src/lib.rs", &cfg);
    assert_eq!(fired(&f), vec![]);
}

#[test]
fn float_cmp_fires_on_literal_comparisons_only() {
    let f = run("float_cmp.rs", "crates/fake/src/lib.rs", &config());
    assert_eq!(fired(&f), vec![("float_cmp", 5), ("float_cmp", 6)]);
}

#[test]
fn hot_alloc_fires_only_in_declared_hot_files() {
    let cfg = config();
    // Not declared hot: the alloc idioms are silent — so the fixture's
    // waiver has nothing to suppress and is itself flagged as unused.
    let f = run("hot_alloc.rs", "crates/fake/src/cold.rs", &cfg);
    assert_eq!(fired(&f), vec![("waiver", 12)]);
    // Declared hot: one finding per idiom, waived line excluded.
    let f = run("hot_alloc.rs", "crates/fake/src/hot.rs", &cfg);
    assert_eq!(
        fired(&f),
        vec![
            ("hot_alloc", 5),  // vec!
            ("hot_alloc", 6),  // collect
            ("hot_alloc", 7),  // format!
            ("hot_alloc", 8),  // Box::new
            ("hot_alloc", 9),  // String::from
            ("hot_alloc", 10), // .clone()
            ("hot_alloc", 11), // .to_vec()
        ]
    );
}

#[test]
fn unsafe_safety_fires_on_uncommented_unsafe_only() {
    let f = run("unsafe_safety.rs", "crates/fake/src/lib.rs", &config());
    assert_eq!(fired(&f), vec![("unsafe_safety", 7), ("unsafe_safety", 18)]);
}

#[test]
fn waiver_hygiene_is_enforced() {
    let f = run("waivers.rs", "crates/fake/src/lib.rs", &config());
    assert_eq!(
        fired(&f),
        vec![("waiver", 4), ("waiver", 7), ("waiver", 10)]
    );
}

#[test]
fn code_lines_skip_blanks_comments_and_test_regions() {
    let report = check("code_lines.rs", "crates/fake/src/lib.rs", &config());
    assert_eq!(fired(&report.findings), vec![]);
    assert_eq!(report.code_lines, 4);
}
