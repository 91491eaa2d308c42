//! Waiver-debt lock: pins the count of `slc-lint: allow(...)` waivers
//! per `(file, check)` and diffs a fresh count against
//! `tools/lint/waivers.lock`.
//!
//! Waivers are reviewed exceptions; without a lock they accrete
//! silently — every new one looks local and harmless. With the lock, a
//! *new* waiver fails CI until the author regenerates the file with
//! `--update-waiver-lock`, which makes the added debt an explicit,
//! reviewable line in the diff. Shrinking debt fails the same way (the
//! lock is stale), so paying debt down is also recorded.
//!
//! Lock lines aggregate per `(file, check)` rather than pinning line
//! numbers, so unrelated edits that merely move a waiver around do not
//! churn the lock.

use crate::{waivers, Finding, Workspace};
use std::collections::BTreeMap;

/// Check name for waiver-debt drift.
pub const WAIVER_DEBT: &str = "waiver-debt";

/// Path of the committed lock, workspace-relative.
pub const LOCK_PATH: &str = "tools/lint/waivers.lock";

/// Counts waivers in the loaded workspace, keyed by `(file, check)`.
pub fn snapshot(ws: &Workspace) -> BTreeMap<(String, String), usize> {
    let mut out: BTreeMap<(String, String), usize> = BTreeMap::new();
    for file in &ws.files {
        for w in waivers(file) {
            *out.entry((file.path.clone(), w.check.clone())).or_default() += 1;
        }
    }
    out
}

/// Parses lock-file text: `path allow(check) = count` lines, `#`
/// comments.
pub fn parse_lock(text: &str) -> BTreeMap<(String, String), usize> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((lhs, count)) = line.split_once('=') else { continue };
        let Ok(count) = count.trim().parse::<usize>() else { continue };
        let Some((path, allow)) = lhs.trim().rsplit_once(' ') else { continue };
        let Some(check) = allow.strip_prefix("allow(").and_then(|a| a.strip_suffix(')')) else {
            continue;
        };
        out.insert((path.trim().to_string(), check.to_string()), count);
    }
    out
}

/// Renders a snapshot in lock-file form (what `--update-waiver-lock`
/// writes).
pub fn render_lock(snapshot: &BTreeMap<(String, String), usize>) -> String {
    let mut out = String::from(
        "# slc waiver-debt lock. Counts every `slc-lint: allow(...)` waiver\n\
         # per (file, check). CI fails when the fresh count differs — new\n\
         # waivers are reviewable debt. Regenerate with\n\
         #   cargo run --release -p slc-lint -- --update-waiver-lock\n",
    );
    for ((path, check), count) in snapshot {
        out.push_str(&format!("{path} allow({check}) = {count}\n"));
    }
    out
}

/// Diffs the fresh waiver count against the committed lock.
pub fn check_lock(
    snapshot: &BTreeMap<(String, String), usize>,
    lock: &BTreeMap<(String, String), usize>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let keys: std::collections::BTreeSet<_> = snapshot.keys().chain(lock.keys()).collect();
    for key in keys {
        let (path, check) = key;
        let have = snapshot.get(key).copied().unwrap_or(0);
        let locked = lock.get(key).copied().unwrap_or(0);
        if have == locked {
            continue;
        }
        let message = if have > locked {
            format!(
                "waiver debt grew: {have} `{check}` waiver(s) in {path} but {LOCK_PATH} \
                 records {locked} — new waivers need review; regenerate the lock \
                 with --update-waiver-lock in the change that adds them"
            )
        } else {
            format!(
                "stale waiver lock: {have} `{check}` waiver(s) in {path} but {LOCK_PATH} \
                 records {locked} — debt was paid down; regenerate the lock"
            )
        };
        findings.push(Finding { check: WAIVER_DEBT, file: path.clone(), line: 0, message });
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(src: &str) -> Workspace {
        Workspace::from_sources(&[("crates/a/src/lib.rs", "a", src)])
    }

    const SRC: &str = "fn f() {\n    \
        x.unwrap(); // slc-lint: allow(hot-path): reviewed, infallible\n    \
        y.unwrap(); // slc-lint: allow(hot-path): reviewed, also infallible\n    \
        go(); // slc-lint: allow(wire-format): reviewed layout change\n}\n";

    #[test]
    fn snapshot_counts_per_file_and_check() {
        let snap = snapshot(&ws(SRC));
        assert_eq!(snap[&("crates/a/src/lib.rs".to_string(), "hot-path".to_string())], 2);
        assert_eq!(snap[&("crates/a/src/lib.rs".to_string(), "wire-format".to_string())], 1);
    }

    #[test]
    fn lock_roundtrip_is_clean() {
        let snap = snapshot(&ws(SRC));
        let lock = parse_lock(&render_lock(&snap));
        assert_eq!(snap, lock);
        assert!(check_lock(&snap, &lock).is_empty());
    }

    #[test]
    fn grown_debt_flags() {
        let lock = parse_lock(&render_lock(&snapshot(&ws(SRC))));
        let grown =
            SRC.replace("}\n", "    z.unwrap(); // slc-lint: allow(hot-path): one more\n}\n");
        let f = check_lock(&snapshot(&ws(&grown)), &lock);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].check, WAIVER_DEBT);
        assert!(f[0].message.contains("waiver debt grew"), "{f:?}");
        assert!(f[0].message.contains("3") && f[0].message.contains("2"), "{f:?}");
    }

    #[test]
    fn paid_down_debt_flags_as_stale() {
        let lock = parse_lock(&render_lock(&snapshot(&ws(SRC))));
        let paid = SRC.replace(
            "    y.unwrap(); // slc-lint: allow(hot-path): reviewed, also infallible\n",
            "",
        );
        let f = check_lock(&snapshot(&ws(&paid)), &lock);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("stale waiver lock"), "{f:?}");
    }

    #[test]
    fn lock_lines_parse_kinds() {
        let lock = parse_lock(
            "# header\ncrates/a/src/lib.rs allow(hot-path) = 2\n\
             crates/a/src/lib.rs allow(wire-format) = 1\nnot a lock line = 3\n",
        );
        assert_eq!(lock.len(), 2);
        assert_eq!(lock[&("crates/a/src/lib.rs".to_string(), "hot-path".to_string())], 2);
        assert_eq!(lock[&("crates/a/src/lib.rs".to_string(), "wire-format".to_string())], 1);
    }
}
