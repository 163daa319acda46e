//! Golden-fixture tests: each tree under `tests/fixtures/` pins one
//! rule's positive and negative behaviour, and the last test
//! self-checks the real workspace — the same invocation CI gates on.

use std::path::Path;

use phylint::{run, Finding, Report, RuleId};

fn fixture(name: &str) -> Report {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    run(&root).expect("fixture tree readable")
}

/// 1-based line of the first fixture-source line containing `needle`,
/// so the tests assert real spans without hardcoding line numbers.
fn line_of(name: &str, file: &str, needle: &str) -> u32 {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
        .join(file);
    let src = std::fs::read_to_string(&path).expect("fixture source readable");
    for (idx, line) in src.lines().enumerate() {
        if line.contains(needle) {
            return (idx + 1) as u32;
        }
    }
    panic!("{needle:?} not found in {}", path.display());
}

fn rule_findings(report: &Report, rule: RuleId) -> Vec<(String, u32, String)> {
    report
        .findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| (f.path.display().to_string(), f.line, f.msg.clone()))
        .collect()
}

/// Full findings (including proving call paths) for one rule.
fn full_findings(report: &Report, rule: RuleId) -> Vec<&Finding> {
    report.findings.iter().filter(|f| f.rule == rule).collect()
}

#[test]
fn clean_fixture_is_clean() {
    let report = fixture("clean");
    assert!(
        report.is_clean(),
        "clean fixture must produce no findings, got:\n{}",
        report
            .findings
            .iter()
            .map(|f| format!("  {f}\n"))
            .collect::<String>()
    );
    assert_eq!(report.files_scanned, 2, "lib.rs + no_index.rs");
    assert_eq!(
        report.suppressions_used, 1,
        "the one trailing allow(panic_path) must count as used"
    );
}

#[test]
fn panic_path_fixture_finds_every_construct_with_spans() {
    let report = fixture("panic_path");
    let found = rule_findings(&report, RuleId::PanicPath);
    assert_eq!(found.len(), 5, "unwrap, expect, panic!, todo!, [idx]: {found:?}");
    for (path, _, _) in &found {
        assert_eq!(path, "src/lib.rs", "tests/itest.rs must never be flagged");
    }
    for needle in ["v.unwrap()", "v.expect(\"boom\")", "panic!(\"bad\")", "todo!()", "xs[0]"] {
        let want = line_of("panic_path", "src/lib.rs", needle);
        assert!(
            found.iter().any(|(_, line, _)| *line == want),
            "no finding at line {want} ({needle}): {found:?}"
        );
    }
    assert_eq!(report.count(RuleId::Marker), 0, "datapath marker is well-formed");
}

#[test]
fn alloc_hot_fixture_flags_only_the_hot_region() {
    let report = fixture("alloc_hot");
    let found = rule_findings(&report, RuleId::AllocHot);
    assert_eq!(found.len(), 6, "{found:?}");
    let region_start = line_of("alloc_hot", "src/lib.rs", "phylint: hot");
    for (_, line, _) in &found {
        assert!(
            *line > region_start,
            "finding at line {line} is outside the hot region (cold code flagged)"
        );
    }
    for what in [
        "Vec::new",
        "format!",
        ".to_string()",
        ".to_vec()",
        "Box::new",
        ".collect()",
    ] {
        assert!(
            found.iter().any(|(_, _, msg)| msg.contains(what)),
            "no finding mentions {what}: {found:?}"
        );
    }
}

#[test]
fn unsafe_fixture_requires_safety_comments() {
    let report = fixture("unsafe_safety");
    let found = rule_findings(&report, RuleId::UnsafeSafety);
    assert_eq!(found.len(), 2, "both unsafe tokens in `bare`: {found:?}");
    let bare_fn = line_of("unsafe_safety", "src/lib.rs", "pub unsafe fn bare");
    assert!(found.iter().all(|(_, line, _)| *line >= bare_fn));
}

#[test]
fn feature_gate_fixture_flags_undeclared_feature() {
    let report = fixture("feature_gate");
    let found = rule_findings(&report, RuleId::FeatureGate);
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].1, line_of("feature_gate", "src/lib.rs", "imaginary"));
    assert!(found[0].2.contains("imaginary"));
}

#[test]
fn marker_fixture_flags_stale_and_malformed_markers() {
    let report = fixture("unused_allow");
    let found = rule_findings(&report, RuleId::Marker);
    assert_eq!(found.len(), 3, "{found:?}");
    assert!(found.iter().any(|(_, _, m)| m.contains("unused suppression")));
    assert!(found.iter().any(|(_, _, m)| m.contains("unrecognised")));
    assert!(found.iter().any(|(_, _, m)| m.contains("justification")));
}

#[test]
fn wire_fixture_catches_control_length_drift() {
    let report = fixture("wire_bad");
    let found = rule_findings(&report, RuleId::WireFormat);
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].0, "crates/transport/src/lib.rs");
    assert_eq!(
        found[0].1,
        line_of("wire_bad", "crates/transport/src/lib.rs", "fixed 22 bytes")
    );
    assert!(found[0].2.contains("22"), "{}", found[0].2);
    assert!(found[0].2.contains("21"), "{}", found[0].2);
}

#[test]
fn hot_transitive_fixture_proves_the_smuggled_allocation() {
    let report = fixture("hot_transitive");
    assert_eq!(
        report.findings.len(),
        1,
        "exactly the planted allocation, nothing else:\n{}",
        report
            .findings
            .iter()
            .map(|f| format!("  {f}\n"))
            .collect::<String>()
    );
    let found = full_findings(&report, RuleId::HotTransitive);
    assert_eq!(found.len(), 1);
    let f = found[0];
    assert_eq!(f.path.display().to_string(), "src/lib.rs");
    assert_eq!(
        f.line,
        line_of("hot_transitive", "src/lib.rs", "Vec::with_capacity"),
        "the finding lands on the allocation site, not the hot region"
    );
    assert!(f.msg.contains("Vec::with_capacity"), "{}", f.msg);
    assert!(f.msg.contains("leaf_alloc"), "{}", f.msg);
    // The proving call path walks hot region -> middle -> leaf.
    assert_eq!(f.call_path.len(), 3, "{:?}", f.call_path);
    assert!(f.call_path[0].contains("hot_entry"), "{:?}", f.call_path);
    let call_site = line_of("hot_transitive", "src/lib.rs", "middle(4)");
    assert!(
        f.call_path[0].contains(&format!("src/lib.rs:{call_site}")),
        "first hop pins the in-region call site: {:?}",
        f.call_path
    );
    assert!(f.call_path[1].contains("middle"), "{:?}", f.call_path);
    assert!(f.call_path[2].contains("leaf_alloc"), "{:?}", f.call_path);
}

#[test]
fn hot_transitive_follows_calls_through_array_returning_functions() {
    let report = fixture("hot_transitive_array");
    let found = full_findings(&report, RuleId::HotTransitive);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(found.len(), 1);
    let f = found[0];
    assert_eq!(
        f.line,
        line_of("hot_transitive_array", "src/lib.rs", "Vec::with_capacity")
    );
    // hot region -> middle (`-> [u8; 4]`) -> lanes (`-> ([u8; 4], ..)`) -> leaf.
    assert_eq!(f.call_path.len(), 4, "{:?}", f.call_path);
    assert!(f.call_path[1].contains("middle"), "{:?}", f.call_path);
    assert!(f.call_path[2].contains("lanes"), "{:?}", f.call_path);
    assert!(f.call_path[3].contains("leaf_alloc"), "{:?}", f.call_path);
}

#[test]
fn simd_guard_fixture_flags_decl_and_unguarded_call() {
    let report = fixture("simd_guard");
    let found = full_findings(&report, RuleId::SimdGuard);
    assert_eq!(report.findings.len(), 2, "only simd_guard fires here");
    assert_eq!(found.len(), 2, "{found:?}");
    let decl = found
        .iter()
        .find(|f| f.msg.contains("not declared"))
        .expect("missing-unsafe declaration finding");
    assert_eq!(
        decl.line,
        line_of("simd_guard", "src/lib.rs", "pub fn sneaky_kernel")
    );
    assert!(decl.msg.contains("sneaky_kernel"), "{}", decl.msg);
    let call = found
        .iter()
        .find(|f| f.msg.contains("guard"))
        .expect("unguarded call-site finding");
    assert_eq!(
        call.line,
        line_of("simd_guard", "src/lib.rs", "unsafe { kernel(xs) };"),
        "the guarded dispatch must stay silent; only `unguarded` is flagged"
    );
    assert_eq!(call.call_path.len(), 2, "{:?}", call.call_path);
    assert!(call.call_path[0].contains("unguarded"), "{:?}", call.call_path);
    assert!(call.call_path[1].contains("kernel"), "{:?}", call.call_path);
}

#[test]
fn lock_order_fixture_flags_direct_and_transitive_inversions() {
    let report = fixture("lock_order");
    let found = full_findings(&report, RuleId::LockOrder);
    assert_eq!(report.findings.len(), 2, "only lock_order fires here");
    assert_eq!(found.len(), 2, "{found:?}");
    // Direct inversion: `a` taken while `b` is held, both in one body.
    let direct = found
        .iter()
        .find(|f| f.call_path.is_empty())
        .expect("direct inversion finding");
    assert_eq!(
        direct.line,
        line_of("lock_order", "src/lib.rs", "let Ok(inner) = self.a.lock()")
    );
    assert!(direct.msg.contains("Shared.a"), "{}", direct.msg);
    assert!(direct.msg.contains("Shared.b"), "{}", direct.msg);
    assert!(direct.msg.contains("rank 0"), "{}", direct.msg);
    assert!(direct.msg.contains("rank 1"), "{}", direct.msg);
    // Transitive inversion: the acquisition hides behind a call.
    let transitive = found
        .iter()
        .find(|f| !f.call_path.is_empty())
        .expect("transitive inversion finding");
    assert_eq!(
        transitive.line,
        line_of("lock_order", "src/lib.rs", "self.helper_locks_a()")
    );
    assert_eq!(transitive.call_path.len(), 2, "{:?}", transitive.call_path);
    assert!(
        transitive.call_path[0].contains("inverted_via_call"),
        "{:?}",
        transitive.call_path
    );
    assert!(
        transitive.call_path[1].contains("helper_locks_a"),
        "{:?}",
        transitive.call_path
    );
    // `in_order` and `scoped_reacquire` stayed silent (count == 2 above).
}

#[test]
fn error_surface_fixture_flags_stringly_apis_and_matchable_enums() {
    let report = fixture("error_surface");
    let found = rule_findings(&report, RuleId::ErrorSurface);
    assert_eq!(report.findings.len(), 4, "only error_surface fires here");
    assert_eq!(found.len(), 4, "{found:?}");
    for (needle, msg_part) in [
        ("pub enum FixtureError", "non_exhaustive"),
        ("pub fn stringly", "String"),
        ("pub fn boxed", "Box<dyn std::error::Error>"),
        ("pub fn str_ref", "str"),
    ] {
        let want = line_of("error_surface", "src/lib.rs", needle);
        assert!(
            found
                .iter()
                .any(|(_, line, msg)| *line == want && msg.contains(msg_part)),
            "no finding at line {want} mentioning {msg_part:?}: {found:?}"
        );
    }
    // `typed`, `uses_private`, `private_stringly`, and `GoodError`
    // are all negative cases — the count of 4 proves they stayed silent.
}

#[test]
fn binary_exit_codes_gate_ci() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let status = |name: &str| {
        std::process::Command::new(env!("CARGO_BIN_EXE_phylint"))
            .args(["--root"])
            .arg(fixtures.join(name))
            .output()
            .expect("phylint binary runs")
    };
    let clean = status("clean");
    assert_eq!(clean.status.code(), Some(0), "clean tree exits 0");
    let dirty = status("panic_path");
    assert_eq!(dirty.status.code(), Some(1), "findings exit 1");
    let stdout = String::from_utf8_lossy(&dirty.stdout);
    assert!(
        stdout.contains("src/lib.rs:") && stdout.contains("[panic_path]"),
        "diagnostics carry file:line spans and the rule name:\n{stdout}"
    );
    assert!(stdout.contains("phylint: summary {"), "machine summary line:\n{stdout}");
}

#[test]
fn workspace_self_check_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let report = run(&root).expect("workspace scan succeeds");
    assert!(
        report.is_clean(),
        "the workspace must pass its own lint, got:\n{}",
        report
            .findings
            .iter()
            .map(|f| format!("  {f}\n"))
            .collect::<String>()
    );
    assert!(report.files_scanned > 100, "walker saw the whole workspace");
}
