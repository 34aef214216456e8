//! Data-driven rule corpus: every rule R1–R9 has a `bad` fixture that must
//! produce at least one finding of that rule, and a `clean` fixture that must
//! produce no findings at all. Fixtures live in `tests/fixtures/` and start
//! with a `//!path <synthetic workspace path>` directive, because most rules
//! are path-sensitive (serve-only, facade allowlists, kernel files). The
//! fixture directory is excluded from the real workspace lint run.

use std::path::Path;

use xtask::rules::{self, Finding};

const CASES: &[(&str, &str)] = &[
    ("r1", "raw-atomic-import"),
    ("r2", "ordering-creep"),
    ("r3", "naked-par-accum"),
    ("r4", "kernel-missing-serial-test"),
    ("r5", "serve-socket-unwrap"),
    ("r6", "guard-across-blocking"),
    ("r7", "ordering-protocol"),
    ("r8", "panic-reachability"),
    ("r9", "hot-loop-index"),
];

fn lint_fixture(name: &str) -> Vec<Finding> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()));
    let synthetic = src
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("//!path "))
        .unwrap_or_else(|| panic!("{name}: fixture must start with `//!path <synthetic path>`"))
        .trim()
        .to_string();
    rules::lint_sources(&[(synthetic, src)])
}

#[test]
fn bad_fixtures_fire_their_rule() {
    for (stem, rule) in CASES {
        let findings = lint_fixture(&format!("{stem}_bad.rs"));
        assert!(
            findings.iter().any(|f| f.rule == *rule),
            "{stem}_bad.rs: expected a `{rule}` finding, got {findings:?}"
        );
        // And nothing else: a bad fixture isolates exactly one rule, so a
        // stray second rule means the fixture (or a rule) regressed.
        assert!(
            findings.iter().all(|f| f.rule == *rule),
            "{stem}_bad.rs: cross-rule noise: {findings:?}"
        );
    }
}

#[test]
fn clean_fixtures_stay_silent() {
    for (stem, _) in CASES {
        let findings = lint_fixture(&format!("{stem}_clean.rs"));
        assert!(findings.is_empty(), "{stem}_clean.rs: expected no findings, got {findings:?}");
    }
}

#[test]
fn allow_markers_escape_each_taggable_rule() {
    // The escape hatch must work for every rule that documents one; a tag
    // on the finding line (or the loop header for hot_index) silences it.
    let tagged: &[(&str, &str, &str)] = &[
        ("crates/bc/src/apgre/fixture.rs", "naked-par-accum", "r3_bad.rs"),
        ("crates/serve/src/fixture.rs", "serve-socket-unwrap", "r5_bad.rs"),
        ("crates/serve/src/fixture.rs", "guard-across-blocking", "r6_bad.rs"),
        ("crates/bc/src/apgre/fixture.rs", "ordering-protocol", "r7_bad.rs"),
        ("crates/serve/src/fixture.rs", "panic-reachability", "r8_bad.rs"),
        ("crates/bc/src/apgre/fixture.rs", "hot-loop-index", "r9_bad.rs"),
    ];
    let tag_for = |rule: &str| match rule {
        "naked-par-accum" => "par_accum",
        "serve-socket-unwrap" => "serve_unwrap",
        "guard-across-blocking" => "guard_blocking",
        "ordering-protocol" => "ordering_protocol",
        "panic-reachability" => "panic_path",
        "hot-loop-index" => "hot_index",
        other => panic!("no tag for {other}"),
    };
    for (synthetic, rule, file) in tagged {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(file);
        let src = std::fs::read_to_string(&path).expect("fixture exists");
        let bare = lint_fixture(file);
        let lines: Vec<usize> = bare.iter().filter(|f| f.rule == *rule).map(|f| f.line).collect();
        assert!(!lines.is_empty(), "{file}: no {rule} finding to tag");
        let tag = format!("// lint:allow({})", tag_for(rule));
        let tagged_src: String =
            src.lines()
                .enumerate()
                .map(|(i, l)| {
                    if lines.contains(&(i + 1)) {
                        format!("{l} {tag}\n")
                    } else {
                        format!("{l}\n")
                    }
                })
                .collect();
        let findings = rules::lint_sources(&[(synthetic.to_string(), tagged_src)]);
        assert!(
            findings.iter().all(|f| f.rule != *rule),
            "{file}: `{tag}` did not silence {rule}: {findings:?}"
        );
    }
}

#[test]
fn r9_reaches_every_kernel_sweep() {
    // The sub-graph kernel is one public entry point over private strategy
    // sweeps; R9 selects them by name, so a rename that slips past the
    // filter would silently drop its loops from the audit.
    let file = "r9_sweeps_bad.rs";
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(file);
    let src = std::fs::read_to_string(&path).expect("fixture exists");
    let targets: Vec<usize> = src
        .lines()
        .enumerate()
        .filter(|(_, l)| l.ends_with("// r9-target"))
        .map(|(i, _)| i + 1)
        .collect();
    assert_eq!(targets.len(), 5, "{file}: one target per kernel function");
    let findings = lint_fixture(file);
    for line in targets {
        assert!(
            findings.iter().any(|f| f.rule == "hot-loop-index" && f.line == line),
            "{file}:{line}: R9 did not reach this sweep: {findings:?}"
        );
    }
    assert!(
        findings.iter().all(|f| f.rule == "hot-loop-index"),
        "{file}: cross-rule noise: {findings:?}"
    );
}

#[test]
fn r4_pins_every_store_entry_point() {
    // Each store entry point listed in R4 fires when no test pins it, and a
    // test file calling it next to its from-scratch oracle silences it.
    let cases = [
        ("r4_store_pins_bad.rs", "verify_against_fresh"),
        ("r4_sample_store_pins_bad.rs", "verify_against_scratch"),
    ];
    for (file, oracle) in cases {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(file);
        let src = std::fs::read_to_string(&path).expect("fixture exists");
        let targets: Vec<usize> = src
            .lines()
            .enumerate()
            .filter(|(_, l)| l.ends_with("// r4-target"))
            .map(|(i, _)| i + 1)
            .collect();
        assert!(!targets.is_empty(), "{file}: no r4-target lines");
        let findings = lint_fixture(file);
        for &line in &targets {
            assert!(
                findings.iter().any(|f| f.rule == "kernel-missing-serial-test" && f.line == line),
                "{file}:{line}: R4 did not flag this unpinned entry point: {findings:?}"
            );
        }
        assert_eq!(findings.len(), targets.len(), "{file}: unexpected findings: {findings:?}");

        let synthetic = src.lines().next().and_then(|l| l.strip_prefix("//!path ")).unwrap();
        let pin =
            format!("#[test]\nfn pinned() {{ view(); chunks(); apply_splice(); {oracle}(); }}\n");
        let pinned = rules::lint_sources(&[
            (synthetic.trim().to_string(), src.clone()),
            ("crates/store/tests/pin.rs".to_string(), pin),
        ]);
        assert!(pinned.is_empty(), "{file}: a pinning test did not silence R4: {pinned:?}");
    }
}

#[test]
fn r1_allows_no_graph_side_facade() {
    // The graph crate holds no atomics, so no path in it is allowlisted:
    // re-creating its old mirror facade must trip R1 like any other file.
    let file = "r1_graph_sync_bad.rs";
    let findings = lint_fixture(file);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "raw-atomic-import" && f.path == "crates/graph/src/sync.rs"),
        "{file}: expected a `raw-atomic-import` finding, got {findings:?}"
    );
    assert!(
        findings.iter().all(|f| f.rule == "raw-atomic-import"),
        "{file}: cross-rule noise: {findings:?}"
    );
}
