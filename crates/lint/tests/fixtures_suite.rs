//! End-to-end fixture suite: each check gets a true-positive fixture
//! (seeded violations must all be found, at the right lines) and a
//! true-negative twin (clean or waived code must stay silent).
//!
//! The fixture sources live under `tests/fixtures/` — `Workspace::load`
//! deliberately skips that directory, so the seeded violations never
//! leak into a real lint run. Here they are embedded with `include_str!`
//! and mounted at synthetic workspace paths via
//! `Workspace::from_sources`.

use slc_lint::debt;
use slc_lint::graph::{check_hot_paths, parse_manifest, HOT_PATH};
use slc_lint::wire::{check_lock, parse_lock, render_lock, snapshot};
use slc_lint::{Finding, Workspace};
use std::path::{Path, PathBuf};

const HOT_VIOLATING: &str = include_str!("fixtures/hot_transitive_violating.rs");
const HOT_CLEAN: &str = include_str!("fixtures/hot_transitive_clean.rs");
const RAW_VIOLATING: &str = include_str!("fixtures/raw_strings_violating.rs");
const RAW_CLEAN: &str = include_str!("fixtures/raw_strings_clean.rs");
const NESTED_VIOLATING: &str = include_str!("fixtures/nested_comments_violating.rs");
const NESTED_CLEAN: &str = include_str!("fixtures/nested_comments_clean.rs");
const WAIVER_MALFORMED: &str = include_str!("fixtures/waiver_malformed_violating.rs");
const WAIVER_FN_LEVEL: &str = include_str!("fixtures/waiver_fn_level_clean.rs");
const WIRE_CODEC_V1: &str = include_str!("fixtures/wire_codec_v1.rs");
const WIRE_CODEC_MUTATED: &str = include_str!("fixtures/wire_codec_mutated.rs");
const WIRE_CONTAINER_V1: &str = include_str!("fixtures/wire_container_v1.rs");

/// Mounts one fixture at a synthetic path and runs the hot-path audit
/// with `root_fn` as the only manifest root.
fn audit(src: &str, root_fn: &str) -> Vec<Finding> {
    let ws = Workspace::from_sources(&[("crates/fix/src/hot.rs", "fix", src)]);
    check_hot_paths(&ws, &parse_manifest(&format!("crates/fix/src/hot.rs::{root_fn}")))
}

#[test]
fn hot_transitive_violating_finds_every_seeded_site() {
    let f = audit(HOT_VIOLATING, "encode");
    let lines: Vec<u32> = f.iter().map(|x| x.line).collect();
    assert_eq!(lines, vec![17, 18, 19, 20], "{f:?}");
    assert!(f.iter().all(|x| x.check == HOT_PATH));
    // All four sit two call-graph hops from the root, and say so.
    for x in &f {
        assert!(x.message.contains("reachable from hot-path root `encode`"), "{x}");
    }
    // The panic! in the #[cfg(test)] module is invisible.
    assert!(!f.iter().any(|x| x.message.contains("panic")), "{f:?}");
}

#[test]
fn hot_transitive_clean_twin_is_silent() {
    let f = audit(HOT_CLEAN, "encode");
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn raw_strings_do_not_mask_or_fake_findings() {
    let f = audit(RAW_VIOLATING, "hot");
    assert_eq!(f.len(), 1, "only the real unwrap flags: {f:?}");
    assert_eq!((f[0].line, f[0].check), (8, HOT_PATH));
    assert!(f[0].message.contains("unwrap"));

    let f = audit(RAW_CLEAN, "hot");
    assert!(f.is_empty(), "quoted banned text is not a finding: {f:?}");
}

#[test]
fn nested_comments_hide_banned_text_but_not_live_code() {
    let f = audit(NESTED_VIOLATING, "hot");
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!((f[0].line, f[0].check), (10, HOT_PATH));
    assert!(f[0].message.contains("panic"));

    let f = audit(NESTED_CLEAN, "hot");
    assert!(f.is_empty(), "a nested close must not reopen the code: {f:?}");
}

#[test]
fn malformed_waivers_suppress_nothing() {
    let f = audit(WAIVER_MALFORMED, "hot");
    let lines: Vec<u32> = f.iter().map(|x| x.line).collect();
    assert_eq!(lines, vec![7, 9, 11], "{f:?}");
    assert!(f.iter().all(|x| x.check == HOT_PATH));
}

#[test]
fn fn_level_waiver_exempts_body_and_traversal() {
    let f = audit(WAIVER_FN_LEVEL, "encode");
    assert!(f.is_empty(), "{f:?}");
}

fn wire_ws(codec_src: &str) -> Workspace {
    // The snapshot extractor looks at fixed workspace paths; mount the
    // fixtures there.
    Workspace::from_sources(&[
        ("crates/compress/src/codec.rs", "slc-compress", codec_src),
        ("crates/engine/src/container.rs", "slc-engine", WIRE_CONTAINER_V1),
    ])
}

fn lock_fixture_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/wire_format_v1.lock")
}

/// The committed lock fixture must stay byte-identical to what
/// `--update-wire-lock` would emit for the v1 fixture sources.
/// Regenerate with `SLC_LINT_BLESS=1 cargo test -p slc-lint`.
#[test]
fn lock_fixture_matches_fresh_extraction() {
    let rendered = render_lock(&snapshot(&wire_ws(WIRE_CODEC_V1)));
    if std::env::var_os("SLC_LINT_BLESS").is_some() {
        std::fs::write(lock_fixture_path(), &rendered).unwrap();
        return;
    }
    let committed = std::fs::read_to_string(lock_fixture_path()).unwrap();
    assert_eq!(committed, rendered);
    // And a committed lock that matches source yields no findings.
    let snap = snapshot(&wire_ws(WIRE_CODEC_V1));
    assert!(check_lock(&snap, &parse_lock(&committed)).is_empty());
}

fn waiver_lock_ws() -> Workspace {
    Workspace::from_sources(&[
        ("crates/fix/src/clean.rs", "fix", HOT_CLEAN),
        ("crates/fix/src/hot.rs", "fix", WAIVER_FN_LEVEL),
    ])
}

fn waiver_lock_fixture_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/waiver_debt_v1.lock")
}

/// The committed waiver-debt lock fixture must stay byte-identical to
/// what `--update-waiver-lock` would emit for the fixture sources.
/// Regenerate with `SLC_LINT_BLESS=1 cargo test -p slc-lint`.
#[test]
fn waiver_lock_fixture_matches_fresh_snapshot() {
    let rendered = debt::render_lock(&debt::snapshot(&waiver_lock_ws()));
    if std::env::var_os("SLC_LINT_BLESS").is_some() {
        std::fs::write(waiver_lock_fixture_path(), &rendered).unwrap();
        return;
    }
    let committed = std::fs::read_to_string(waiver_lock_fixture_path()).unwrap();
    assert_eq!(committed, rendered);
    // And a lock that matches source yields no findings.
    let snap = debt::snapshot(&waiver_lock_ws());
    assert!(debt::check_lock(&snap, &debt::parse_lock(&committed)).is_empty());
}

#[test]
fn new_waiver_fails_against_committed_waiver_lock() {
    let committed = std::fs::read_to_string(waiver_lock_fixture_path()).unwrap();
    let extra = "fn extra() -> u8 {\n    \
        // slc-lint: allow(hot-path): fixture — one more reviewed exception\n    \
        [0u8; 4].first().copied().unwrap()\n}\n";
    let grown = format!("{HOT_CLEAN}\n{extra}");
    let ws = Workspace::from_sources(&[
        ("crates/fix/src/clean.rs", "fix", &grown),
        ("crates/fix/src/hot.rs", "fix", WAIVER_FN_LEVEL),
    ]);
    let f = debt::check_lock(&debt::snapshot(&ws), &debt::parse_lock(&committed));
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].check, debt::WAIVER_DEBT);
    assert_eq!(f[0].file, "crates/fix/src/clean.rs");
    assert!(f[0].message.contains("waiver debt grew"), "{f:?}");
}

#[test]
fn renumbered_discriminant_fails_against_committed_lock() {
    let committed = std::fs::read_to_string(lock_fixture_path()).unwrap();
    let snap = snapshot(&wire_ws(WIRE_CODEC_MUTATED));
    let f = check_lock(&snap, &parse_lock(&committed));
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].file, "crates/compress/src/codec.rs");
    assert!(f[0].message.contains("codec_id.Cpack"));
    assert!(f[0].message.contains("`3`"), "drift message names the new value: {f:?}");
    assert!(f[0].message.contains("locked as `2`"), "{f:?}");
}
