//! Lint runs over the checked-in fixture workspaces.
//!
//! `tests/fixtures/bad_ws` trips every lint family at a known line;
//! `tests/fixtures/good_ws` contains the same shapes properly justified
//! (SAFETY/ORDERING comments, a registered waiver, a dispatch-table
//! kernel with its scalar twin) and must come back clean. The fixture
//! trees are full mini-workspaces (`crates/demo` + `audit/*.toml`), and
//! the walker's `fixtures` skip-rule keeps them out of the real audit.
//! `tests/fixtures/stale_ws` holds an unsafe-allowlist entry whose crate
//! no longer uses unsafe in its library, the one finding it must report.

use bsl_audit::{load_config, load_workspace, run_check};
use std::path::PathBuf;

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

#[test]
fn bad_workspace_reports_every_family_at_exact_lines() {
    let root = fixture_root("bad_ws");
    let ws = load_workspace(&root).expect("fixture loads");
    let cfg = load_config(&root).expect("fixture config loads");
    let findings = run_check(&ws, &cfg);

    let got: Vec<(&str, u32, &str)> =
        findings.iter().map(|f| (f.file.as_str(), f.line, f.lint)).collect();
    let lib = "crates/demo/src/lib.rs";
    let expected = vec![
        // Stale inventory entry (`gone`) that matches no real unsafe use.
        ("audit/unsafe_inventory.toml", 0, "inventory"),
        // `to_vec` inside the registered hot fn `hot_sum`.
        (lib, 7, "hot-path-alloc"),
        // `Relaxed` without an ORDERING justification.
        (lib, 12, "ordering"),
        // `unsafe fn peek` / its body block: missing SAFETY and missing
        // from the inventory.
        (lib, 15, "inventory"),
        (lib, 15, "unsafe-audit"),
        (lib, 16, "inventory"),
        (lib, 16, "unsafe-audit"),
        // `#[target_feature]` fn outside the dispatch module; its very
        // declaration also counts as a reference outside dispatch sites.
        (lib, 19, "simd-dispatch"),
        (lib, 20, "inventory"),
        (lib, 20, "simd-dispatch"),
        (lib, 20, "unsafe-audit"),
    ];
    assert_eq!(got, expected, "full findings: {findings:#?}");
}

#[test]
fn bad_workspace_messages_name_the_offending_token() {
    let root = fixture_root("bad_ws");
    let ws = load_workspace(&root).expect("fixture loads");
    let cfg = load_config(&root).expect("fixture config loads");
    let findings = run_check(&ws, &cfg);
    let rendered: Vec<String> = findings.iter().map(|f| f.to_string()).collect();

    let expect_line = |needle: &str| {
        assert!(
            rendered.iter().any(|l| l.contains(needle)),
            "no diagnostic contains {needle:?}; got:\n{}",
            rendered.join("\n")
        );
    };
    expect_line("crates/demo/src/lib.rs:7: [hot-path-alloc] `to_vec` in hot-path fn `hot_sum`");
    expect_line("crates/demo/src/lib.rs:12: [ordering] `Relaxed` without an `// ORDERING:`");
    expect_line("crates/demo/src/lib.rs:15: [unsafe-audit] unsafe fn without a `// SAFETY:`");
    expect_line("(context: peek)");
    expect_line(
        "crates/demo/src/lib.rs:19: [simd-dispatch] `#[target_feature]` fn \
                 `rogue_kernel` outside the dispatch module",
    );
    expect_line("stale inventory entry: `gone`");
}

#[test]
fn good_workspace_is_clean() {
    let root = fixture_root("good_ws");
    let ws = load_workspace(&root).expect("fixture loads");
    let cfg = load_config(&root).expect("fixture config loads");
    let findings = run_check(&ws, &cfg);
    assert!(findings.is_empty(), "expected a clean run, got:\n{findings:#?}");
}

#[test]
fn good_workspace_waiver_stops_protecting_if_unregistered() {
    // Same sources, but with the waiver registry emptied: the inline
    // waiver still suppresses its finding, and is itself reported as
    // unregistered — so a waiver can never silently bypass review.
    let root = fixture_root("good_ws");
    let ws = load_workspace(&root).expect("fixture loads");
    let mut cfg = load_config(&root).expect("fixture config loads");
    cfg.registered_waivers.clear();
    let findings = run_check(&ws, &cfg);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].lint, "waivers");
    assert_eq!(findings[0].file, "crates/demo/src/lib.rs");
    assert_eq!(findings[0].line, 9);
    assert!(findings[0].msg.contains("not registered"));
}

#[test]
fn good_workspace_reports_stale_dispatch_table_entries() {
    // A `[[kernel]]` and a helper whose `#[target_feature]` fn is gone
    // from the dispatch module: each is reported against the policy file.
    let root = fixture_root("good_ws");
    let ws = load_workspace(&root).expect("fixture loads");
    let mut cfg = load_config(&root).expect("fixture config loads");
    cfg.dispatch.kernels.insert("gone_impl".into(), "dot".into());
    cfg.dispatch.helpers.push("gone_helper".into());
    let findings = run_check(&ws, &cfg);
    let got: Vec<(&str, u32, &str)> =
        findings.iter().map(|f| (f.file.as_str(), f.line, f.lint)).collect();
    let policy = ("audit/policy.toml", 0, "simd-dispatch");
    assert_eq!(got, vec![policy, policy], "full findings: {findings:#?}");
    for name in ["gone_impl", "gone_helper"] {
        assert!(
            findings.iter().any(|f| f.msg.contains("stale dispatch-table entry")
                && f.msg.contains(&format!("`{name}`"))),
            "no stale-entry finding names `{name}`: {findings:#?}"
        );
    }
}

#[test]
fn stale_workspace_reports_an_allowlisted_crate_without_unsafe() {
    // `demo-stale` is on the unsafe allowlist, but its library uses none:
    // the entry is stale. `demo-plain` forbids unsafe in its library and
    // holds one justified, inventoried unsafe block in a test, which the
    // library-scoped policy accepts.
    let root = fixture_root("stale_ws");
    let ws = load_workspace(&root).expect("fixture loads");
    let cfg = load_config(&root).expect("fixture config loads");
    let findings = run_check(&ws, &cfg);
    let got: Vec<(&str, u32, &str)> =
        findings.iter().map(|f| (f.file.as_str(), f.line, f.lint)).collect();
    assert_eq!(got, vec![("audit/policy.toml", 0, "policy")], "full findings: {findings:#?}");
    assert!(
        findings[0].msg.contains("stale unsafe-allowlist entry: `demo-stale`"),
        "{findings:#?}"
    );
}
