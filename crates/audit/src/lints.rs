//! The four lint families plus the policy/inventory/waiver meta-checks.
//!
//! Every check is a pure function from lexed sources + policy to a list
//! of [`Finding`]s; the caller (CLI or tests) decides how to render them.

use crate::lexer::{FileLex, TokKind};
use crate::scopes::Scopes;
use std::collections::BTreeMap;

/// Lint identifiers, as used in diagnostics and `allow(...)` waivers.
pub const LINT_UNSAFE: &str = "unsafe-audit";
pub const LINT_ORDERING: &str = "ordering";
pub const LINT_HOT_PATH: &str = "hot-path-alloc";
pub const LINT_DISPATCH: &str = "simd-dispatch";
pub const LINT_POLICY: &str = "policy";
pub const LINT_INVENTORY: &str = "inventory";
pub const LINT_WAIVERS: &str = "waivers";

/// One diagnostic: `file:line: [lint] message`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub lint: &'static str,
    pub msg: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.lint, self.msg)
    }
}

/// A lexed source file with its workspace-relative path.
pub struct SrcFile {
    pub rel: String,
    pub lex: FileLex,
    pub scopes: Scopes,
}

impl SrcFile {
    pub fn new(rel: String, src: &str) -> Self {
        let lex = crate::lexer::lex(src);
        let scopes = crate::scopes::build(&lex.toks);
        Self { rel, lex, scopes }
    }
}

/// An inline waiver parsed out of a comment:
/// `// bsl-audit: allow(<lint>) -- <reason>`.
#[derive(Clone, Debug)]
pub struct Waiver {
    pub file: String,
    pub line: u32,
    pub lint: String,
    pub reason: String,
}

/// Extracts every inline waiver in `file`.
pub fn collect_waivers(file: &SrcFile) -> Vec<Waiver> {
    let mut out = Vec::new();
    for (line, text) in &file.lex.comments {
        let Some(pos) = text.find("bsl-audit: allow(") else { continue };
        let rest = &text[pos + "bsl-audit: allow(".len()..];
        let Some(close) = rest.find(')') else { continue };
        let lint = rest[..close].trim().to_string();
        // `allow(<lint>)` in prose documenting the syntax is not a waiver.
        if !lint.chars().all(|c| c.is_ascii_lowercase() || c == '-') || lint.is_empty() {
            continue;
        }
        let reason = rest[close + 1..]
            .trim_start()
            .strip_prefix("--")
            .map(|r| r.trim().to_string())
            .unwrap_or_default();
        out.push(Waiver { file: file.rel.clone(), line: *line, lint, reason });
    }
    out
}

/// True when `f` is waived: a matching-lint waiver sits on the finding's
/// line (trailing comment) or the line directly above (comment-above).
/// Used waivers are flagged in `used` (same indexing as `waivers`).
pub fn is_waived(f: &Finding, waivers: &[Waiver], used: &mut [bool]) -> bool {
    for (i, w) in waivers.iter().enumerate() {
        if w.file == f.file
            && (w.lint == f.lint || w.lint == "all")
            && (w.line == f.line || w.line + 1 == f.line)
        {
            used[i] = true;
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// unsafe-audit
// ---------------------------------------------------------------------------

/// One piece of unsafe surface, for the checked-in inventory.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct UnsafeUse {
    pub file: String,
    /// Enclosing item path (`avx2::dot_impl`); for `unsafe fn`/`impl`
    /// declarations this includes the declared item itself.
    pub context: String,
    /// `block`, `fn`, `impl`, or `trait`.
    pub kind: &'static str,
}

/// Scans `file` for `unsafe` occurrences: emits a finding for every one
/// without a `// SAFETY:` (or `# Safety` doc) justification, and records
/// all of them in `inventory`.
pub fn check_unsafe(file: &SrcFile, inventory: &mut Vec<(UnsafeUse, u32)>) -> Vec<Finding> {
    let mut findings = Vec::new();
    let toks = &file.lex.toks;
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("unsafe") {
            continue;
        }
        let Some(next) = toks.get(i + 1) else { continue };
        let (kind, context) = if next.is_punct('{') {
            ("block", file.scopes.path_of(i))
        } else if next.is_ident("fn") || next.is_ident("extern") {
            // `unsafe fn name` / `unsafe extern "C" fn name`.
            let name = toks[i + 1..]
                .iter()
                .skip_while(|t| !t.is_ident("fn"))
                .find(|t| t.kind == TokKind::Ident && t.text != "fn")
                .map(|t| t.text.clone())
                .unwrap_or_default();
            ("fn", join_path(&file.scopes.path_of(i), &name))
        } else if next.is_ident("impl") || next.is_ident("trait") {
            let kw = if next.is_ident("impl") { "impl" } else { "trait" };
            let name = toks[i + 2..]
                .iter()
                .take_while(|t| !t.is_punct('{'))
                .filter(|t| t.kind == TokKind::Ident && t.text != "for")
                .last()
                .map(|t| t.text.clone())
                .unwrap_or_default();
            (kw, join_path(&file.scopes.path_of(i), &name))
        } else {
            // `unsafe` in type position (`unsafe fn()` pointers) — not a
            // justification site, but still unsafe surface; skip.
            continue;
        };
        inventory
            .push((UnsafeUse { file: file.rel.clone(), context: context.clone(), kind }, t.line));
        let justified = file.lex.has_marker_at_or_above(t.line, "SAFETY:")
            || file.lex.has_marker_at_or_above(t.line, "# Safety");
        if !justified {
            findings.push(Finding {
                file: file.rel.clone(),
                line: t.line,
                lint: LINT_UNSAFE,
                msg: format!(
                    "unsafe {kind} without a `// SAFETY:` justification (context: {})",
                    if context.is_empty() { "<file scope>" } else { &context }
                ),
            });
        }
    }
    findings
}

fn join_path(base: &str, name: &str) -> String {
    match (base.is_empty(), name.is_empty()) {
        (true, _) => name.to_string(),
        (_, true) => base.to_string(),
        _ => format!("{base}::{name}"),
    }
}

// ---------------------------------------------------------------------------
// atomic-ordering
// ---------------------------------------------------------------------------

const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Every atomic-ordering token must sit under an `// ORDERING:`
/// justification: a trailing comment, a comment block directly above the
/// use, or one above the enclosing `fn` (covering all its atomics).
pub fn check_ordering(file: &SrcFile, allow_paths: &[String]) -> Vec<Finding> {
    if allow_paths.iter().any(|p| file.rel.contains(p.as_str())) {
        return Vec::new();
    }
    let mut findings = Vec::new();
    let toks = &file.lex.toks;
    let mut in_use = false;
    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            TokKind::Ident if t.text == "use" => in_use = true,
            TokKind::Punct(';') => in_use = false,
            TokKind::Ident if ORDERINGS.contains(&t.text.as_str()) => {
                if in_use {
                    continue; // import lists aren't uses
                }
                if file.scopes.is_inside(i, "tests") {
                    continue; // inline test modules aren't proof-bearing
                }
                let site_ok = file.lex.has_marker_at_or_above(t.line, "ORDERING:");
                let fn_ok = file
                    .scopes
                    .enclosing_fn(i)
                    .map(|f| file.lex.has_marker_at_or_above(f.decl_line, "ORDERING:"))
                    .unwrap_or(false);
                if !site_ok && !fn_ok {
                    findings.push(Finding {
                        file: file.rel.clone(),
                        line: t.line,
                        lint: LINT_ORDERING,
                        msg: format!(
                            "`{}` without an `// ORDERING:` justification (on the use, \
                             or above the enclosing fn)",
                            t.text
                        ),
                    });
                }
            }
            _ => {}
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// hot-path-allocation
// ---------------------------------------------------------------------------

/// Tokens that may not appear in a registered hot-path function.
const HOT_BANNED_CALLS: [&str; 6] =
    ["to_vec", "collect", "clone", "to_owned", "to_string", "with_capacity"];

/// Checks the functions named in the hot-path registry for allocation /
/// copy tokens. `fns` maps fn name → list of findings appended.
pub fn check_hot_fns(file: &SrcFile, fn_names: &[String]) -> (Vec<Finding>, Vec<String>) {
    let mut findings = Vec::new();
    let mut seen = Vec::new();
    let toks = &file.lex.toks;
    for name in fn_names {
        for (start, end) in fn_body_ranges(file, name) {
            seen.push(name.clone());
            for j in start..end {
                let t = &toks[j];
                if t.kind != TokKind::Ident {
                    continue;
                }
                let bad: Option<String> = if HOT_BANNED_CALLS.contains(&t.text.as_str()) {
                    Some(t.text.clone())
                } else if (t.text == "vec" || t.text == "format")
                    && toks.get(j + 1).is_some_and(|n| n.is_punct('!'))
                {
                    Some(format!("{}!", t.text))
                } else if t.text == "new"
                    && j >= 3
                    && toks[j - 1].is_punct(':')
                    && toks[j - 2].is_punct(':')
                    && (toks[j - 3].is_ident("Vec")
                        || toks[j - 3].is_ident("Box")
                        || toks[j - 3].is_ident("String")
                        || toks[j - 3].is_ident("VecDeque")
                        || toks[j - 3].is_ident("HashMap")
                        || toks[j - 3].is_ident("BTreeMap"))
                {
                    Some(format!("{}::new", toks[j - 3].text))
                } else if t.text == "from" && j >= 3 && toks[j - 3].is_ident("String") {
                    Some("String::from".to_string())
                } else {
                    None
                };
                if let Some(what) = bad {
                    findings.push(Finding {
                        file: file.rel.clone(),
                        line: t.line,
                        lint: LINT_HOT_PATH,
                        msg: format!(
                            "`{what}` in hot-path fn `{name}` (steady state must not allocate)"
                        ),
                    });
                }
            }
        }
    }
    (findings, seen)
}

/// Token ranges `(body_start, body_end)` of every `fn <name>` in `file`,
/// excluding occurrences inside a `tests` module.
fn fn_body_ranges(file: &SrcFile, name: &str) -> Vec<(usize, usize)> {
    let toks = &file.lex.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("fn") || !toks.get(i + 1).is_some_and(|t| t.is_ident(name)) {
            continue;
        }
        if file.scopes.is_inside(i, "tests") {
            continue;
        }
        // Find the opening brace of the body, then match braces. The `;`
        // of an array type in the signature (`[T; N]`) ends no declaration.
        let (mut j, mut square) = (i + 2, 0usize);
        while j < toks.len() && !toks[j].is_punct('{') && !(square == 0 && toks[j].is_punct(';')) {
            if toks[j].is_punct('[') {
                square += 1;
            } else if toks[j].is_punct(']') {
                square = square.saturating_sub(1);
            }
            j += 1;
        }
        if j >= toks.len() || toks[j].is_punct(';') {
            continue; // trait method without body
        }
        let start = j + 1;
        let mut depth = 1usize;
        j += 1;
        while j < toks.len() && depth > 0 {
            if toks[j].is_punct('{') {
                depth += 1;
            } else if toks[j].is_punct('}') {
                depth -= 1;
            }
            j += 1;
        }
        out.push((start, j.saturating_sub(1)));
    }
    out
}

// ---------------------------------------------------------------------------
// simd-dispatch
// ---------------------------------------------------------------------------

/// A `#[target_feature]` function found in the workspace.
#[derive(Clone, Debug)]
pub struct TargetFeatureFn {
    pub file: String,
    pub line: u32,
    pub name: String,
}

/// Finds every `#[target_feature]`-annotated fn in `file`.
pub fn find_target_feature_fns(file: &SrcFile) -> Vec<TargetFeatureFn> {
    let toks = &file.lex.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("target_feature") {
            continue;
        }
        // Must actually be the attribute `#[target_feature(...)]`.
        if !(i >= 2 && toks[i - 1].is_punct('[') && toks[i - 2].is_punct('#')) {
            continue;
        }
        // Scan forward to the `fn` keyword this attribute decorates.
        let mut j = i + 1;
        while j < toks.len() && !toks[j].is_ident("fn") {
            j += 1;
        }
        if let Some(name_tok) = toks.get(j + 1) {
            if name_tok.kind == TokKind::Ident {
                out.push(TargetFeatureFn {
                    file: file.rel.clone(),
                    line: toks[i].line,
                    name: name_tok.text.clone(),
                });
            }
        }
    }
    out
}

/// The dispatch-table policy: where `#[target_feature]` fns may live, the
/// registered kernels (name → scalar twin) and pure-register helpers.
pub struct DispatchPolicy {
    pub dispatch_file: String,
    pub kernels: BTreeMap<String, String>,
    pub helpers: Vec<String>,
    /// Module names where scalar twins may live (`scalar`, `portable`).
    pub scalar_modules: Vec<String>,
}

/// Enforces the simd-dispatch family over the whole workspace.
pub fn check_dispatch(files: &[SrcFile], policy: &DispatchPolicy) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut tf_fns: Vec<TargetFeatureFn> = Vec::new();
    for f in files {
        tf_fns.extend(find_target_feature_fns(f));
    }
    let dispatch = files.iter().find(|f| f.rel == policy.dispatch_file);
    for tf in &tf_fns {
        if tf.file != policy.dispatch_file {
            findings.push(Finding {
                file: tf.file.clone(),
                line: tf.line,
                lint: LINT_DISPATCH,
                msg: format!(
                    "`#[target_feature]` fn `{}` outside the dispatch module `{}`",
                    tf.name, policy.dispatch_file
                ),
            });
            continue;
        }
        if policy.helpers.contains(&tf.name) {
            continue;
        }
        match policy.kernels.get(&tf.name) {
            None => findings.push(Finding {
                file: tf.file.clone(),
                line: tf.line,
                lint: LINT_DISPATCH,
                msg: format!(
                    "`#[target_feature]` fn `{}` not registered in the dispatch table \
                     (audit/policy.toml [[kernel]] / helpers)",
                    tf.name
                ),
            }),
            Some(twin) => {
                let has_twin = dispatch.is_some_and(|df| {
                    df.lex.toks.iter().enumerate().any(|(i, t)| {
                        t.is_ident("fn")
                            && df.lex.toks.get(i + 1).is_some_and(|n| n.is_ident(twin))
                            && policy.scalar_modules.iter().any(|m| df.scopes.is_inside(i, m))
                    })
                });
                if !has_twin {
                    findings.push(Finding {
                        file: tf.file.clone(),
                        line: tf.line,
                        lint: LINT_DISPATCH,
                        msg: format!(
                            "kernel `{}` declares scalar twin `{twin}` but no \
                             `fn {twin}` exists in a scalar module ({})",
                            tf.name,
                            policy.scalar_modules.join(", ")
                        ),
                    });
                }
            }
        }
    }
    // Every table entry must still name a `#[target_feature]` fn in the
    // dispatch module, or it is stale.
    for name in policy.kernels.keys().chain(&policy.helpers) {
        if !tf_fns.iter().any(|tf| tf.file == policy.dispatch_file && &tf.name == name) {
            findings.push(Finding {
                file: "audit/policy.toml".into(),
                line: 0,
                lint: LINT_DISPATCH,
                msg: format!(
                    "stale dispatch-table entry: `{name}` names no `#[target_feature]` fn \
                     in `{}`",
                    policy.dispatch_file
                ),
            });
        }
    }
    // No `#[target_feature]` fn may be referenced outside the dispatch
    // module: the safe wrappers there are the only sanctioned call sites.
    for f in files {
        if f.rel == policy.dispatch_file {
            continue;
        }
        for t in &f.lex.toks {
            if t.kind == TokKind::Ident && tf_fns.iter().any(|tf| tf.name == t.text) {
                findings.push(Finding {
                    file: f.rel.clone(),
                    line: t.line,
                    lint: LINT_DISPATCH,
                    msg: format!(
                        "`{}` is a `#[target_feature]` fn and may only be called from \
                         dispatch sites in `{}`",
                        t.text, policy.dispatch_file
                    ),
                });
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SrcFile {
        SrcFile::new("test.rs".into(), src)
    }

    #[test]
    fn unjustified_unsafe_block_is_flagged_and_inventoried() {
        let f = file("fn f() {\n    unsafe { g() }\n}\n");
        let mut inv = Vec::new();
        let fs = check_unsafe(&f, &mut inv);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].line, 2);
        assert_eq!(inv[0].0.context, "f");
        assert_eq!(inv[0].0.kind, "block");
    }

    #[test]
    fn safety_comment_above_or_doc_section_passes() {
        let f = file(
            "fn f() {\n    // SAFETY: fine\n    unsafe { g() }\n}\n\
             /// # Safety\n/// caller checks\nunsafe fn h() {}\n",
        );
        let mut inv = Vec::new();
        assert!(check_unsafe(&f, &mut inv).is_empty());
        assert_eq!(inv.len(), 2);
        assert_eq!(inv[1].0.kind, "fn");
        assert_eq!(inv[1].0.context, "h");
    }

    #[test]
    fn ordering_needs_justification_but_imports_do_not() {
        let f = file(
            "use std::sync::atomic::{AtomicU64, Ordering::SeqCst};\n\
             fn f(a: &std::sync::atomic::AtomicU64) {\n    a.load(SeqCst);\n}\n",
        );
        let fs = check_ordering(&f, &[]);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].line, 3);
    }

    #[test]
    fn fn_level_ordering_comment_covers_all_uses() {
        let f = file(
            "// ORDERING: all relaxed, monotonic counters only.\n\
             fn f(a: &A) {\n    a.load(Relaxed);\n    a.store(1, Relaxed);\n}\n",
        );
        assert!(check_ordering(&f, &[]).is_empty());
    }

    #[test]
    fn hot_path_bans_alloc_tokens() {
        let f = file(
            "fn hot(xs: &[u32]) -> Vec<u32> {\n    let v = vec![0u8; 4];\n    \
             xs.iter().copied().collect()\n}\nfn cold() { let _ = Vec::<u8>::new(); }\n",
        );
        let (fs, seen) = check_hot_fns(&f, &["hot".into()]);
        assert_eq!(seen, vec!["hot"]);
        assert_eq!(fs.len(), 2, "{fs:?}");
        assert!(fs[0].msg.contains("vec!"));
        assert!(fs[1].msg.contains("collect"));
    }

    #[test]
    fn hot_path_finds_a_fn_with_array_types_in_its_signature() {
        let f = file(
            "fn tile<const Q: usize>(qs: &[&[f32]; Q]) -> [f32; 2] {\n    \
             let v = vec![0u8; 4];\n    [0.0; 2]\n}\nfn decl(x: [u8; 2]);\n",
        );
        let (fs, seen) = check_hot_fns(&f, &["tile".into(), "decl".into()]);
        assert_eq!(seen, vec!["tile"]);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].msg.contains("vec!"));
    }

    #[test]
    fn dispatch_flags_unregistered_and_out_of_module_fns() {
        let dispatch = SrcFile::new(
            "simd.rs".into(),
            "pub mod scalar { pub fn dot() {} }\n\
             #[target_feature(enable = \"avx2\")]\nunsafe fn dot_impl() {}\n\
             #[target_feature(enable = \"avx2\")]\nunsafe fn rogue_impl() {}\n",
        );
        let other = SrcFile::new(
            "other.rs".into(),
            "#[target_feature(enable = \"avx2\")]\nunsafe fn stray() {}\n\
             fn f() { dot_impl(); }\n",
        );
        let policy = DispatchPolicy {
            dispatch_file: "simd.rs".into(),
            kernels: [("dot_impl".to_string(), "dot".to_string())].into_iter().collect(),
            helpers: vec![],
            scalar_modules: vec!["scalar".into()],
        };
        let fs = check_dispatch(&[dispatch, other], &policy);
        let msgs: Vec<&str> = fs.iter().map(|f| f.msg.as_str()).collect();
        assert!(msgs.iter().any(|m| m.contains("rogue_impl") && m.contains("not registered")));
        assert!(msgs.iter().any(|m| m.contains("stray") && m.contains("outside")));
        assert!(msgs.iter().any(|m| m.contains("dot_impl") && m.contains("only be called")));
    }

    #[test]
    fn waivers_suppress_exactly_their_line_and_lint() {
        let f = file(
            "fn hot() {\n    // bsl-audit: allow(hot-path-alloc) -- warm-up only\n    \
             let v = vec![1];\n    let w = vec![2];\n}\n",
        );
        let (fs, _) = check_hot_fns(&f, &["hot".into()]);
        let waivers = collect_waivers(&f);
        assert_eq!(waivers.len(), 1);
        assert_eq!(waivers[0].reason, "warm-up only");
        let mut used = vec![false; waivers.len()];
        let kept: Vec<&Finding> =
            fs.iter().filter(|f| !is_waived(f, &waivers, &mut used)).collect();
        assert_eq!(kept.len(), 1, "only the line under the waiver is suppressed");
        assert_eq!(kept[0].line, 4);
        assert!(used[0]);
    }
}
