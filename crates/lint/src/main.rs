//! CLI: `cargo run --release -p slc-lint [-- FLAGS]`.
//!
//! Flags:
//!
//! * `--format json` — print one machine-readable JSON object (findings,
//!   waiver inventory, scan stats) to stdout instead of the human
//!   report; CI uploads it as an artifact.
//! * `--update-wire-lock` — re-extract the wire snapshot and rewrite
//!   `tools/lint/wire_format.lock` instead of diffing. For intentional,
//!   documented wire changes only.
//! * `--update-waiver-lock` — re-count the workspace's waivers and
//!   rewrite `tools/lint/waivers.lock`. For commits whose new waivers
//!   have been reviewed.
//!
//! Exit status is non-zero when any check produced a finding (or the
//! tool could not do its job — also surfaced as findings), so CI can
//! gate on it directly; see the crate docs for the full taxonomy.

use slc_lint::{debt, graph, waiver_hint, wire, Finding, Workspace};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const HOT_PATHS_MANIFEST: &str = "tools/lint/hot_paths.txt";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let update_wire_lock = args.iter().any(|a| a == "--update-wire-lock");
    let update_waiver_lock = args.iter().any(|a| a == "--update-waiver-lock");
    let json = args.iter().any(|a| a == "--format=json")
        || args.windows(2).any(|w| w[0] == "--format" && w[1] == "json");
    let root = match workspace_root() {
        Some(r) => r,
        None => {
            eprintln!(
                "slc-lint: cannot locate the workspace root (no Cargo.toml with [workspace])"
            );
            return ExitCode::FAILURE;
        }
    };
    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("slc-lint: failed to load workspace at {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    // Progress chatter goes to stderr in JSON mode so stdout stays one
    // parseable document.
    let note = |line: &str| {
        if json {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    };
    note(&format!("slc-lint: scanned {} files in {}", ws.files.len(), root.display()));

    let snapshot = wire::snapshot(&ws);
    if update_wire_lock {
        let lock_path = root.join(wire::LOCK_PATH);
        if let Err(e) = std::fs::write(&lock_path, wire::render_lock(&snapshot)) {
            eprintln!("slc-lint: failed to write {}: {e}", lock_path.display());
            return ExitCode::FAILURE;
        }
        note(&format!("slc-lint: wrote {} wire keys to {}", snapshot.len(), wire::LOCK_PATH));
        return ExitCode::SUCCESS;
    }
    let debt_snapshot = debt::snapshot(&ws);
    if update_waiver_lock {
        let lock_path = root.join(debt::LOCK_PATH);
        if let Err(e) = std::fs::write(&lock_path, debt::render_lock(&debt_snapshot)) {
            eprintln!("slc-lint: failed to write {}: {e}", lock_path.display());
            return ExitCode::FAILURE;
        }
        let total: usize = debt_snapshot.values().sum();
        note(&format!("slc-lint: wrote {total} waiver(s) to {}", debt::LOCK_PATH));
        return ExitCode::SUCCESS;
    }

    let mut findings: Vec<Finding> = Vec::new();

    // 1: hot-path audit.
    match std::fs::read_to_string(root.join(HOT_PATHS_MANIFEST)) {
        Ok(text) => {
            let manifest = graph::parse_manifest(&text);
            note(&format!("slc-lint: auditing {} hot-path roots", manifest.len()));
            findings.extend(graph::check_hot_paths(&ws, &manifest));
        }
        Err(e) => findings.push(Finding {
            check: graph::HOT_PATH,
            file: HOT_PATHS_MANIFEST.to_string(),
            line: 0,
            message: format!("cannot read hot-path manifest: {e}"),
        }),
    }

    // 2: wire-format freeze.
    match std::fs::read_to_string(root.join(wire::LOCK_PATH)) {
        Ok(text) => findings.extend(wire::check_lock(&snapshot, &wire::parse_lock(&text))),
        Err(e) => findings.push(Finding {
            check: wire::WIRE,
            file: wire::LOCK_PATH.to_string(),
            line: 0,
            message: format!("cannot read wire lock: {e} — generate it with --update-wire-lock"),
        }),
    }

    // The waiver-debt lock.
    match std::fs::read_to_string(root.join(debt::LOCK_PATH)) {
        Ok(text) => {
            findings.extend(debt::check_lock(&debt_snapshot, &debt::parse_lock(&text)));
        }
        Err(e) => findings.push(Finding {
            check: debt::WAIVER_DEBT,
            file: debt::LOCK_PATH.to_string(),
            line: 0,
            message: format!(
                "cannot read waiver lock: {e} — generate it with --update-waiver-lock"
            ),
        }),
    }

    findings.sort_by(|a, b| (&a.file, a.line, a.check).cmp(&(&b.file, b.line, b.check)));
    if json {
        println!("{}", render_json(&ws, &findings));
        return if findings.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    if findings.is_empty() {
        println!("slc-lint: all checks clean");
        return ExitCode::SUCCESS;
    }
    eprintln!("slc-lint: {} finding(s)", findings.len());
    for f in &findings {
        eprintln!("{f}");
    }
    let checks: BTreeSet<&str> = findings.iter().map(|f| f.check).collect();
    for check in checks {
        eprintln!("note: {}", waiver_hint(check));
    }
    ExitCode::FAILURE
}

/// Renders the machine-readable report: findings, the waiver inventory
/// and scan stats, as one JSON object.
///
/// Hand-rolled on purpose — the lint ships zero external dependencies
/// (offline build container), and the document is flat enough that a
/// serializer would buy nothing but a dependency.
fn render_json(ws: &Workspace, findings: &[Finding]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": 2,\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", ws.files.len()));
    let fn_count: usize = ws.files.iter().map(|f| f.fns.len()).sum();
    out.push_str(&format!("  \"functions\": {fn_count},\n"));

    out.push_str("  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"check\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}",
            json_str(f.check),
            json_str(&f.file),
            f.line,
            json_str(&f.message)
        ));
    }
    out.push_str(if findings.is_empty() { "],\n" } else { "\n  ],\n" });

    let mut waiver_count = 0usize;
    out.push_str("  \"waivers\": [");
    for file in &ws.files {
        for w in slc_lint::waivers(file) {
            if waiver_count > 0 {
                out.push(',');
            }
            waiver_count += 1;
            out.push_str(&format!(
                "\n    {{\"file\": {}, \"line\": {}, \"check\": {}, \"reason\": {}}}",
                json_str(&file.path),
                w.target_line,
                json_str(&w.check),
                json_str(&w.reason)
            ));
        }
    }
    out.push_str(if waiver_count == 0 { "],\n" } else { "\n  ],\n" });
    out.push_str(&format!("  \"waiver_count\": {waiver_count}\n"));
    out.push_str("}\n");
    out
}

/// Escapes one JSON string (quotes included).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The workspace root: walk up from `CARGO_MANIFEST_DIR` (when run via
/// cargo) or the current directory until a `Cargo.toml` containing
/// `[workspace]` appears.
fn workspace_root() -> Option<PathBuf> {
    let start = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .or_else(|| std::env::current_dir().ok())?;
    let mut dir: &Path = &start;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir.to_path_buf());
                }
            }
        }
        dir = dir.parent()?;
    }
}
