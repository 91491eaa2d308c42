//! `slc-lint` — the workspace's static-analysis pass.
//!
//! The repo's load-bearing invariants are enforced *dynamically* by
//! corruption barrages and ledger digests; this crate turns them into
//! CI-time compile gates. It has no external dependencies (the build
//! container is offline), shipping its own hand-rolled Rust [`lexer`], a
//! shallow item [`scan`]ner, and a best-effort intra-workspace call
//! graph; the per-file scan fans out through the workspace's `slc-par`.
//! Two checks run over the whole workspace:
//!
//! 1. **`hot-path`** — functions rooted at the committed manifest
//!    `tools/lint/hot_paths.txt` must not transitively reach `panic!`,
//!    `unreachable!`, `todo!`, `unimplemented!`, a hard `assert!` /
//!    `assert_eq!` / `assert_ne!` (repo convention: `debug_assert!` on
//!    hot paths, which never flags), `.unwrap()`, `.expect(…)`,
//!    `vec![…]`, `Vec::new`, `.to_vec()`, `format!`, `Box::new` or
//!    `.collect()`.
//! 2. **`wire-format`** — `CodecId` discriminants, the container
//!    magic/version/geometry constants and header field layouts are
//!    extracted from source and diffed against
//!    `tools/lint/wire_format.lock`.
//!
//! What this crate does *not* police is what the compiler's own lints
//! can: the three functions that read wire-derived integers
//! (`Frame::parse`, `decode_blocks`, `parse_table`) take their fields off
//! the input by checked slice splits and carry
//! `#[deny(clippy::indexing_slicing, clippy::arithmetic_side_effects)]`,
//! and `slc-compress` — the one crate that is not
//! `#![forbid(unsafe_code)]` — carries
//! `#![deny(clippy::undocumented_unsafe_blocks)]`, so `cargo clippy` — a
//! tool this repo does not maintain — rejects a re-introduced index, a
//! bare `+` or an `unsafe` block without its `// SAFETY:` comment.
//!
//! # Waiver syntax
//!
//! A finding is waived by an inline comment at the site — on the same
//! line, or in the standalone comment block directly above it:
//!
//! ```text
//! // slc-lint: allow(hot-path): planner invariant — only the geometries
//! // matched above are ever returned
//! ```
//!
//! The check name in `allow(…)` must match the finding's check
//! (`hot-path` is the only one with waivable sites) and the reason after
//! the second colon must be non-empty. A waiver placed on the line of an
//! `fn` definition (or directly above it) exempts the *whole function*:
//! its body is not audited and the call graph does not traverse through
//! it — the escape hatch for cold entry wrappers that share a name with
//! hot code.
//!
//! Every `allow(…)` waiver in the workspace is additionally pinned by
//! `tools/lint/waivers.lock` (check **`waiver-debt`**, see [`debt`]): a
//! new waiver fails CI until the lock is regenerated with
//! `--update-waiver-lock`, so waiver debt cannot grow silently.
//!
//! # Hot-path manifest format (`tools/lint/hot_paths.txt`)
//!
//! One root per line, `#` comments allowed:
//!
//! ```text
//! crates/engine/src/lib.rs::decode_chunk
//! crates/compress/src/bdi.rs::encode_into
//! ```
//!
//! The path is workspace-relative; the name matches every function of
//! that name in the file (so `cfg`-duplicated definitions are all
//! audited). A root that no longer resolves is itself a finding — the
//! manifest cannot silently rot.
//!
//! # Regenerating the locks
//!
//! `cargo run --release -p slc-lint -- --update-wire-lock` re-extracts
//! the wire constants from source and rewrites
//! `tools/lint/wire_format.lock`. Do this **only** when a wire-format
//! change is intentional, in the same commit that documents it;
//! `-- --update-waiver-lock` does the same for `tools/lint/waivers.lock`
//! when a new waiver has been reviewed. CI runs the lint read-only, so
//! unreviewed drift fails the build.
//!
//! # CLI output and exit codes
//!
//! `cargo run --release -p slc-lint [-- --format json]` — the default
//! output is human-readable findings; with `--format json` a single
//! machine-readable object (`"schema": 2`: findings, waiver inventory,
//! scan stats) is printed to stdout — CI uploads it as an artifact. The
//! exit-code taxonomy:
//!
//! * **0** — every check ran and produced no findings (or a
//!   `--update-*-lock` rewrite succeeded).
//! * **1** — at least one finding, **or** the tool could not do its job
//!   (workspace root not found, unreadable source tree, missing or
//!   unreadable manifest/lock files — each of which is also reported as
//!   a finding so it shows up in the JSON artifact).
//!
//! There are deliberately no other codes: CI treats the gate as binary,
//! and partial-failure taxonomies rot.

#![forbid(unsafe_code)]

pub mod debt;
pub mod graph;
pub mod lexer;
pub mod scan;
pub mod wire;

use scan::FileIndex;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// One diagnostic. Rendered as `file:line: [check] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub check: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.check, self.message)
    }
}

/// The loaded workspace: every scanned source file plus the crate
/// dependency closure the call-graph resolver filters through.
pub struct Workspace {
    pub root: PathBuf,
    pub files: Vec<FileIndex>,
    /// crate name → transitive workspace dependencies (including itself).
    pub deps: BTreeMap<String, BTreeSet<String>>,
}

impl Workspace {
    /// Walks `root` and scans every workspace `.rs` file.
    ///
    /// Skips `target/`, the vendored dependency shims' *call-graph* role
    /// is neutralised by the dependency filter (they are dev-deps), and
    /// `crates/lint/tests/fixtures/` is data, not code.
    pub fn load(root: &Path) -> std::io::Result<Self> {
        let mut sources = Vec::new();
        let crate_dirs = list_crate_dirs(root)?;
        let mut deps: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut names = Vec::new();
        for (dir, name) in &crate_dirs {
            names.push(name.clone());
            let direct = parse_deps(&root.join(dir).join("Cargo.toml"));
            deps.insert(name.clone(), direct);
        }
        transitive_close(&mut deps);
        for (dir, name) in &crate_dirs {
            for sub in ["src", "tests", "examples"] {
                collect_rs(&root.join(dir).join(sub), root, name, &mut sources)?;
            }
        }
        // The umbrella crate at the workspace root.
        for sub in ["src", "tests", "examples"] {
            collect_rs(&root.join(sub), root, "slc", &mut sources)?;
        }
        let mut umbrella: BTreeSet<String> = names.iter().cloned().collect();
        umbrella.insert("slc".to_string());
        deps.insert("slc".to_string(), umbrella);
        // IO above is serial; the lex + scan of independent files fans
        // out (order-preserving, so the sort below is deterministic
        // regardless of thread count).
        let mut files = slc_par::par_map(sources, |(path, crate_name, src)| {
            FileIndex::build(&path, &crate_name, &src)
        });
        files.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(Workspace { root: root.to_path_buf(), files, deps })
    }

    /// Builds a workspace directly from `(path, crate, source)` triples —
    /// how the fixture tests drive the checks without touching disk.
    pub fn from_sources(sources: &[(&str, &str, &str)]) -> Self {
        let files = slc_par::par_map(sources.to_vec(), |(p, c, s)| FileIndex::build(p, c, s));
        let mut deps: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for f in &files {
            deps.entry(f.crate_name.clone()).or_default();
        }
        // Fixtures assume full visibility; reachability precision is
        // exercised through the `deps` field directly when a test needs it.
        let all: BTreeSet<String> = deps.keys().cloned().collect();
        for set in deps.values_mut() {
            *set = all.clone();
        }
        Workspace { root: PathBuf::new(), files, deps }
    }

    /// The file at a workspace-relative path, if loaded.
    pub fn file(&self, path: &str) -> Option<&FileIndex> {
        self.files.iter().find(|f| f.path == path)
    }

    /// True when crate `from` may call into crate `to` (directly or
    /// transitively, or they are the same crate).
    pub fn can_reach(&self, from: &str, to: &str) -> bool {
        from == to || self.deps.get(from).is_some_and(|d| d.contains(to))
    }
}

/// A parsed waiver: `// slc-lint: allow(<check>): <reason>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    pub check: String,
    pub reason: String,
    /// The source line the waiver applies to (the comment's own line for
    /// trailing waivers, the first code line below for standalone ones).
    pub target_line: u32,
}

/// Extracts every waiver in `file`, resolving which line each applies to.
///
/// Only plain `//` / `/* … */` comments carry waivers. Doc comments
/// (`///`, `//!`, `/** … */`, `/*! … */`) are prose: a waiver-grammar
/// example in rustdoc must neither mint debt in the waiver lock nor —
/// worse — silently exempt the item it documents.
pub fn waivers(file: &FileIndex) -> Vec<Waiver> {
    let mut out = Vec::new();
    for c in &file.lexed.comments {
        // The lexed text keeps everything past the `//` / `/*` opener,
        // so a doc comment starts with a third `/`, a `!` or a `*`.
        if matches!(c.text.as_bytes().first(), Some(b'/' | b'!' | b'*')) {
            continue;
        }
        let Some((check, reason)) = parse_waiver_text(&c.text) else {
            continue;
        };
        let target_line = if c.own_line {
            // Standalone: applies to the first token line after the
            // comment (skipping further comment-only lines).
            file.lexed
                .tokens
                .iter()
                .map(|t| t.line)
                .find(|&l| l > c.end_line)
                .unwrap_or(c.end_line + 1)
        } else {
            c.line
        };
        out.push(Waiver { check, reason, target_line });
    }
    out
}

/// Parses the waiver marker out of one comment's text.
fn parse_waiver_text(text: &str) -> Option<(String, String)> {
    let at = text.find("slc-lint: allow(")?;
    let rest = &text[at + "slc-lint: allow(".len()..];
    let close = rest.find(')')?;
    let check = rest[..close].trim().to_string();
    let after = rest[close + 1..].trim_start();
    let reason = after.strip_prefix(':')?.trim().to_string();
    if check.is_empty() || reason.is_empty() {
        return None;
    }
    Some((check, reason))
}

/// True when a finding of `check` at `line` in `file` is waived.
pub fn is_waived(file: &FileIndex, check: &str, line: u32) -> bool {
    waivers(file).iter().any(|w| w.check == check && w.target_line == line)
}

/// The exact syntax hint printed under failures, so a finding's fix is
/// copy-pasteable from CI output.
pub fn waiver_hint(check: &str) -> String {
    if check == debt::WAIVER_DEBT {
        return "review the waiver change, then regenerate the lock with \
                `cargo run --release -p slc-lint -- --update-waiver-lock`"
            .to_string();
    }
    format!(
        "to waive a reviewed site, annotate it with: // slc-lint: allow({check}): <non-empty reason>"
    )
}

fn list_crate_dirs(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    if !crates.is_dir() {
        return Ok(out);
    }
    let mut stack = vec![crates];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            if !path.is_dir() {
                continue;
            }
            if path.join("Cargo.toml").is_file() {
                let name = package_name(&path.join("Cargo.toml"))
                    .unwrap_or_else(|| path.file_name().unwrap().to_string_lossy().into_owned());
                out.push((rel(&path, root), name));
            } else {
                // `crates/vendor/` holds nested packages.
                stack.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

fn package_name(cargo_toml: &Path) -> Option<String> {
    let text = std::fs::read_to_string(cargo_toml).ok()?;
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("name") {
            let rest = rest.trim_start();
            if let Some(rest) = rest.strip_prefix('=') {
                return Some(rest.trim().trim_matches('"').to_string());
            }
        }
    }
    None
}

/// Workspace-internal `[dependencies]` of one crate (by package name).
fn parse_deps(cargo_toml: &Path) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let Ok(text) = std::fs::read_to_string(cargo_toml) else {
        return out;
    };
    let mut in_deps = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            // Only plain [dependencies]: dev-deps (the proptest shim) must
            // not open call-graph edges into hot paths.
            in_deps = line == "[dependencies]";
            continue;
        }
        if in_deps {
            if let Some(name) = line.split(['=', '.']).next() {
                let name = name.trim();
                if !name.is_empty() && !name.starts_with('#') {
                    out.insert(name.to_string());
                }
            }
        }
    }
    out
}

fn transitive_close(deps: &mut BTreeMap<String, BTreeSet<String>>) {
    let names: Vec<String> = deps.keys().cloned().collect();
    loop {
        let mut changed = false;
        for name in &names {
            let current = deps.get(name).cloned().unwrap_or_default();
            let mut next = current.clone();
            for d in &current {
                if let Some(dd) = deps.get(d) {
                    next.extend(dd.iter().cloned());
                }
            }
            if next.len() != current.len() {
                deps.insert(name.clone(), next);
                changed = true;
            }
        }
        if !changed {
            return;
        }
    }
}

fn collect_rs(
    dir: &Path,
    root: &Path,
    crate_name: &str,
    out: &mut Vec<(String, String, String)>,
) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d)? {
            let path = entry?.path();
            let rel_path = rel(&path, root);
            // Fixture corpus is data for the lint's own tests — seeded
            // violations live there on purpose.
            if rel_path.contains("tests/fixtures") || rel_path.contains("target/") {
                continue;
            }
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let src = std::fs::read_to_string(&path)?;
                out.push((rel_path, crate_name.to_string(), src));
            }
        }
    }
    Ok(())
}

fn rel(path: &Path, root: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waiver_parsing() {
        assert_eq!(
            parse_waiver_text(" slc-lint: allow(hot-path): guard panic is contained"),
            Some(("hot-path".to_string(), "guard panic is contained".to_string()))
        );
        assert_eq!(parse_waiver_text(" slc-lint: allow(hot-path):"), None, "empty reason");
        assert_eq!(parse_waiver_text(" slc-lint: allow(): reason"), None, "empty check");
        assert_eq!(parse_waiver_text(" nothing to see"), None);
    }

    #[test]
    fn trailing_and_standalone_waiver_targets() {
        let file = FileIndex::build(
            "crates/x/src/lib.rs",
            "x",
            "fn f() {\n    work(); // slc-lint: allow(hot-path): trailing reason\n    \
             // slc-lint: allow(wire-format): standalone reason\n    // continues\n    more();\n}\n",
        );
        let ws = waivers(&file);
        assert_eq!(ws.len(), 2);
        assert_eq!((ws[0].check.as_str(), ws[0].target_line), ("hot-path", 2));
        assert_eq!((ws[1].check.as_str(), ws[1].target_line), ("wire-format", 5));
        assert!(is_waived(&file, "hot-path", 2));
        assert!(!is_waived(&file, "hot-path", 5));
        assert!(is_waived(&file, "wire-format", 5));
    }

    #[test]
    fn doc_comments_never_carry_waivers() {
        // A rustdoc example of the grammar sits right above a fn: it must
        // not exempt that fn, and must not count as waiver debt.
        let file = FileIndex::build(
            "crates/x/src/lib.rs",
            "x",
            "/// Waive with `// slc-lint: allow(hot-path): <reason>`.\n\
             //! Or: // slc-lint: allow(wire-format): reviewed\n\
             /** block doc: slc-lint: allow(hot-path): nope */\n\
             fn f() {\n    work();\n}\n",
        );
        assert!(waivers(&file).is_empty(), "{:?}", waivers(&file));
        assert!(!is_waived(&file, "hot-path", 4));
    }
}
