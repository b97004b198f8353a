//! bsl-audit: the workspace static-analysis gate.
//!
//! An offline, dependency-free pass over `crates/**/*.rs` enforcing the
//! memory-safety and hot-path conventions the README documents:
//!
//! * **unsafe-audit** — every `unsafe` block/fn/impl carries a
//!   `// SAFETY:` justification and is listed in the checked-in
//!   inventory (`audit/unsafe_inventory.toml`); per-crate unsafe policy
//!   (`#![forbid(unsafe_code)]` vs `#![deny(unsafe_op_in_unsafe_fn)]`).
//! * **ordering** — every `Relaxed`/`Acquire`/`Release`/`AcqRel`/`SeqCst`
//!   use carries an `// ORDERING:` justification.
//! * **hot-path-alloc** — functions registered in `audit/hot_paths.toml`
//!   contain no allocation/copy tokens.
//! * **simd-dispatch** — `#[target_feature]` fns live only in the
//!   dispatch module, each with a registered scalar twin, and are never
//!   called from anywhere else.
//!
//! Findings can be suppressed inline with
//! `// bsl-audit: allow(<lint>) -- <reason>`, but each waiver must also
//! be registered in `audit/waivers.toml` so the set is reviewable.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod lints;
pub mod minitoml;
pub mod scopes;

use lints::{
    DispatchPolicy, Finding, SrcFile, UnsafeUse, LINT_HOT_PATH, LINT_INVENTORY, LINT_POLICY,
    LINT_WAIVERS,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One workspace crate under `crates/`.
pub struct CrateInfo {
    /// Package name from `Cargo.toml` (`bsl-core`).
    pub name: String,
    /// Workspace-relative directory (`crates/core`).
    pub dir: String,
}

/// The loaded workspace: every lexed source file plus crate metadata.
pub struct Workspace {
    pub root: PathBuf,
    pub files: Vec<SrcFile>,
    /// Raw source text by workspace-relative path (for attribute checks).
    pub raw: BTreeMap<String, String>,
    pub crates: Vec<CrateInfo>,
}

/// Directories never descended into (build output, lint fixtures that are
/// intentionally bad, vendored shims).
const SKIP_DIRS: [&str; 3] = ["target", "fixtures", "vendor"];

/// Loads every `.rs` file under `<root>/crates` and the crate metadata.
pub fn load_workspace(root: &Path) -> Result<Workspace, String> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(format!("{}: no `crates/` directory here (pass --root)", root.display()));
    }
    let mut paths = Vec::new();
    walk(&crates_dir, &mut paths)?;
    paths.sort();

    let mut files = Vec::new();
    let mut raw = BTreeMap::new();
    for p in &paths {
        let src =
            std::fs::read_to_string(p).map_err(|e| format!("{}: read failed: {e}", p.display()))?;
        let rel = rel_path(root, p);
        files.push(SrcFile::new(rel.clone(), &src));
        raw.insert(rel, src);
    }

    let mut crates = Vec::new();
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("{}: {e}", crates_dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir() && p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    for d in dirs {
        let manifest = std::fs::read_to_string(d.join("Cargo.toml"))
            .map_err(|e| format!("{}: {e}", d.display()))?;
        if let Some(name) = package_name(&manifest) {
            crates.push(CrateInfo { name, dir: rel_path(root, &d) });
        }
    }
    Ok(Workspace { root: root.to_path_buf(), files, raw, crates })
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name) {
                walk(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// `name = "..."` from the `[package]` section of a manifest.
fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
        } else if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(v) = rest.strip_prefix('=') {
                    return Some(v.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// The parsed `audit/*.toml` configuration.
pub struct Config {
    /// Crates allowed to contain `unsafe` at all.
    pub unsafe_allowed: Vec<String>,
    /// Path substrings exempt from per-use ORDERING comments (tests,
    /// benches — not proof-bearing code).
    pub ordering_allow_paths: Vec<String>,
    pub dispatch: DispatchPolicy,
    /// file → hot fn names.
    pub hot_paths: Vec<(String, Vec<String>)>,
    /// Registered waivers: (file, lint, reason).
    pub registered_waivers: Vec<(String, String, String)>,
    /// Checked-in unsafe inventory: (file, context, kind) → count.
    pub inventory: BTreeMap<(String, String, String), i64>,
}

/// Loads `audit/policy.toml`, `audit/hot_paths.toml`,
/// `audit/waivers.toml`, and `audit/unsafe_inventory.toml` under `root`.
pub fn load_config(root: &Path) -> Result<Config, String> {
    let read = |name: &str| -> Result<minitoml::Doc, String> {
        let path = root.join("audit").join(name);
        let src = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        minitoml::parse(&src, &format!("audit/{name}"))
    };
    let policy = read("policy.toml")?;
    let hot = read("hot_paths.toml")?;
    let waivers = read("waivers.toml")?;
    let inventory_doc = read("unsafe_inventory.toml")?;

    let mut kernels = BTreeMap::new();
    for k in policy.entries("kernel") {
        let name = k.get("name").and_then(|v| v.as_str().map(str::to_string));
        let scalar = k.get("scalar").and_then(|v| v.as_str().map(str::to_string));
        match (name, scalar) {
            (Some(n), Some(s)) => {
                kernels.insert(n, s);
            }
            _ => return Err("audit/policy.toml: [[kernel]] needs `name` and `scalar`".into()),
        }
    }
    let dispatch = DispatchPolicy {
        dispatch_file: policy
            .table("simd")
            .get("dispatch_file")
            .and_then(|v| v.as_str().map(str::to_string))
            .ok_or("audit/policy.toml: [simd] dispatch_file missing")?,
        kernels,
        helpers: policy.list("simd", "helpers"),
        scalar_modules: policy.list("simd", "scalar_modules"),
    };

    let mut hot_paths = Vec::new();
    for h in hot.entries("hot") {
        let file = h
            .get("file")
            .and_then(|v| v.as_str().map(str::to_string))
            .ok_or("audit/hot_paths.toml: [[hot]] needs `file`")?;
        let fns = h
            .get("fns")
            .and_then(|v| v.as_list().map(<[String]>::to_vec))
            .ok_or("audit/hot_paths.toml: [[hot]] needs `fns`")?;
        hot_paths.push((file, fns));
    }

    let mut registered = Vec::new();
    for w in waivers.entries("waiver") {
        let get = |k: &str| w.get(k).and_then(|v| v.as_str().map(str::to_string));
        match (get("file"), get("lint"), get("reason")) {
            (Some(f), Some(l), Some(r)) => registered.push((f, l, r)),
            _ => return Err("audit/waivers.toml: [[waiver]] needs `file`, `lint`, `reason`".into()),
        }
    }

    let mut inventory = BTreeMap::new();
    for u in inventory_doc.entries("unsafe") {
        let get = |k: &str| u.get(k).and_then(|v| v.as_str().map(str::to_string));
        let count = u.get("count").and_then(|v| v.as_int()).unwrap_or(1);
        match (get("file"), get("context"), get("kind")) {
            (Some(f), Some(c), Some(k)) => {
                *inventory.entry((f, c, k)).or_insert(0) += count;
            }
            _ => {
                return Err("audit/unsafe_inventory.toml: [[unsafe]] needs \
                            `file`, `context`, `kind`"
                    .into())
            }
        }
    }

    Ok(Config {
        unsafe_allowed: policy.list("unsafe", "allowed"),
        ordering_allow_paths: policy.list("ordering", "allow_paths"),
        dispatch,
        hot_paths,
        registered_waivers: registered,
        inventory,
    })
}

/// Runs every lint family and returns the surviving (un-waived) findings,
/// sorted by file/line.
pub fn run_check(ws: &Workspace, cfg: &Config) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut uses: Vec<(UnsafeUse, u32)> = Vec::new();
    let mut waivers = Vec::new();

    for f in &ws.files {
        findings.extend(lints::check_unsafe(f, &mut uses));
        findings.extend(lints::check_ordering(f, &cfg.ordering_allow_paths));
        waivers.extend(lints::collect_waivers(f));
    }

    // Hot paths: a registry entry must resolve, or it is stale.
    for (file, fns) in &cfg.hot_paths {
        match ws.files.iter().find(|f| &f.rel == file) {
            None => findings.push(Finding {
                file: "audit/hot_paths.toml".into(),
                line: 0,
                lint: LINT_HOT_PATH,
                msg: format!("registered file `{file}` not found in workspace"),
            }),
            Some(src) => {
                let (fs, seen) = lints::check_hot_fns(src, fns);
                findings.extend(fs);
                for name in fns {
                    if !seen.contains(name) {
                        findings.push(Finding {
                            file: "audit/hot_paths.toml".into(),
                            line: 0,
                            lint: LINT_HOT_PATH,
                            msg: format!("registered fn `{name}` not found in `{file}`"),
                        });
                    }
                }
            }
        }
    }

    findings.extend(lints::check_dispatch(&ws.files, &cfg.dispatch));
    findings.extend(check_crate_policy(ws, cfg, &uses));
    findings.extend(check_inventory(cfg, &uses));

    // Waivers last: filter findings, then validate the waiver set itself.
    let mut used = vec![false; waivers.len()];
    let mut findings: Vec<Finding> =
        findings.into_iter().filter(|f| !lints::is_waived(f, &waivers, &mut used)).collect();
    for (i, w) in waivers.iter().enumerate() {
        let registered = cfg
            .registered_waivers
            .iter()
            .any(|(f, l, r)| f == &w.file && l == &w.lint && r == &w.reason);
        if !registered {
            findings.push(Finding {
                file: w.file.clone(),
                line: w.line,
                lint: LINT_WAIVERS,
                msg: format!(
                    "inline waiver `allow({})` not registered in audit/waivers.toml \
                     (reason: {})",
                    w.lint,
                    if w.reason.is_empty() { "<missing>" } else { &w.reason }
                ),
            });
        }
        if !used[i] {
            findings.push(Finding {
                file: w.file.clone(),
                line: w.line,
                lint: LINT_WAIVERS,
                msg: format!("waiver `allow({})` suppresses nothing — remove it", w.lint),
            });
        }
    }
    for (f, l, r) in &cfg.registered_waivers {
        let in_code = waivers.iter().any(|w| &w.file == f && &w.lint == l && &w.reason == r);
        if !in_code {
            findings.push(Finding {
                file: "audit/waivers.toml".into(),
                line: 0,
                lint: LINT_WAIVERS,
                msg: format!("registered waiver for `{f}` [{l}] has no inline counterpart"),
            });
        }
    }

    findings
        .sort_by(|a, b| (&a.file, a.line, a.lint, &a.msg).cmp(&(&b.file, b.line, b.lint, &b.msg)));
    findings
}

/// Per-crate unsafe policy, over each crate's library (`src/`, the code
/// its `lib.rs` attributes govern): allowed crates must deny
/// `unsafe_op_in_unsafe_fn` and still use `unsafe` there (an entry whose
/// library no longer does is stale and is reported, so the allowlist only
/// shrinks); every other crate must forbid unsafe outright and its library
/// contain none. Test files may hold justified unsafe (a counting
/// `GlobalAlloc`, say); the inventory still records every use.
fn check_crate_policy(ws: &Workspace, cfg: &Config, uses: &[(UnsafeUse, u32)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for c in &ws.crates {
        let lib_rel = format!("{}/src/lib.rs", c.dir);
        let Some(lib_src) = ws.raw.get(&lib_rel) else { continue };
        let allowed = cfg.unsafe_allowed.contains(&c.name);
        let lib_dir = format!("{}/src/", c.dir);
        if allowed {
            if !lib_src.contains("#![deny(unsafe_op_in_unsafe_fn)]") {
                findings.push(Finding {
                    file: lib_rel.clone(),
                    line: 1,
                    lint: LINT_POLICY,
                    msg: format!(
                        "crate `{}` may use unsafe and must carry \
                         `#![deny(unsafe_op_in_unsafe_fn)]`",
                        c.name
                    ),
                });
            }
            if !uses.iter().any(|(u, _)| u.file.starts_with(&lib_dir)) {
                findings.push(Finding {
                    file: "audit/policy.toml".into(),
                    line: 0,
                    lint: LINT_POLICY,
                    msg: format!(
                        "stale unsafe-allowlist entry: `{}`'s library uses no unsafe \
                         — remove it from [unsafe].allowed and forbid unsafe_code",
                        c.name
                    ),
                });
            }
        } else {
            if !lib_src.contains("#![forbid(unsafe_code)]") {
                findings.push(Finding {
                    file: lib_rel.clone(),
                    line: 1,
                    lint: LINT_POLICY,
                    msg: format!(
                        "crate `{}` is not on the unsafe allowlist and must carry \
                         `#![forbid(unsafe_code)]`",
                        c.name
                    ),
                });
            }
            for (u, line) in uses {
                if u.file.starts_with(&lib_dir) {
                    findings.push(Finding {
                        file: u.file.clone(),
                        line: *line,
                        lint: LINT_POLICY,
                        msg: format!(
                            "unsafe {} in `{}`, which is not on the unsafe allowlist \
                             (audit/policy.toml [unsafe].allowed)",
                            u.kind, c.name
                        ),
                    });
                }
            }
        }
    }
    findings
}

/// Diffs the observed unsafe surface against the checked-in inventory.
fn check_inventory(cfg: &Config, uses: &[(UnsafeUse, u32)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let observed = count_uses(uses);
    for ((file, context, kind), n) in &observed {
        let recorded =
            cfg.inventory.get(&(file.clone(), context.clone(), kind.clone())).copied().unwrap_or(0);
        if *n as i64 != recorded {
            let line = uses
                .iter()
                .find(|(u, _)| &u.file == file && &u.context == context && u.kind == kind)
                .map(|(_, l)| *l)
                .unwrap_or(0);
            findings.push(Finding {
                file: file.clone(),
                line,
                lint: LINT_INVENTORY,
                msg: format!(
                    "unsafe surface changed: `{context}` ({kind}) has {n} use(s), \
                     inventory records {recorded} — regenerate with \
                     `cargo run -p bsl-audit -- inventory > audit/unsafe_inventory.toml` \
                     and review the diff"
                ),
            });
        }
    }
    for ((file, context, kind), recorded) in &cfg.inventory {
        if !observed.contains_key(&(file.clone(), context.clone(), kind.clone())) {
            findings.push(Finding {
                file: "audit/unsafe_inventory.toml".into(),
                line: 0,
                lint: LINT_INVENTORY,
                msg: format!(
                    "stale inventory entry: `{context}` ({kind}) in `{file}` \
                     (records {recorded}, found 0) — regenerate and review"
                ),
            });
        }
    }
    findings
}

fn count_uses(uses: &[(UnsafeUse, u32)]) -> BTreeMap<(String, String, String), u64> {
    let mut m = BTreeMap::new();
    for (u, _) in uses {
        *m.entry((u.file.clone(), u.context.clone(), u.kind.to_string())).or_insert(0) += 1;
    }
    m
}

/// Renders the current unsafe surface as `audit/unsafe_inventory.toml`
/// content.
pub fn render_inventory(ws: &Workspace) -> String {
    let mut uses = Vec::new();
    for f in &ws.files {
        let _ = lints::check_unsafe(f, &mut uses);
    }
    let counts = count_uses(&uses);
    let mut out = String::from(
        "# The workspace's complete unsafe surface, checked in so any change\n\
         # shows up in review. Regenerate with:\n\
         #   cargo run -p bsl-audit -- inventory > audit/unsafe_inventory.toml\n",
    );
    for ((file, context, kind), n) in &counts {
        out.push_str("\n[[unsafe]]\n");
        out.push_str(&format!("file = \"{file}\"\n"));
        out.push_str(&format!("context = \"{context}\"\n"));
        out.push_str(&format!("kind = \"{kind}\"\n"));
        out.push_str(&format!("count = {n}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn package_name_reads_package_section_only() {
        let m = "[package]\nname = \"bsl-core\"\n[dependencies]\nname-like = \"x\"\n";
        assert_eq!(package_name(m).as_deref(), Some("bsl-core"));
        assert_eq!(package_name("[dependencies]\nfoo = \"1\"\n"), None);
    }
}
