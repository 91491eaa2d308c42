//! The `slc` binary end to end: its stdout is the figures byte for byte,
//! and every usage error exits 2 before printing anything.

use std::process::{Command, Output};

/// Runs `slc` with `args` and `SLC_SCALE=scale`, one worker.
fn slc(scale: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_slc"))
        .args(args)
        .env("SLC_SCALE", scale)
        .env("SLC_PAR_THREADS", "1")
        .output()
        .expect("the slc binary runs")
}

fn stdout_of(scale: &str, args: &[&str]) -> String {
    let out = slc(scale, args);
    assert!(out.status.success(), "slc {args:?}: {out:?}");
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

#[test]
fn run_all_at_tiny_equals_the_golden() {
    let golden = include_str!("../../../tools/golden/run_all_tiny.txt");
    // Not `assert_eq!`: a 133-line diff of two strings helps nobody.
    let stdout = stdout_of("tiny", &["run", "all"]);
    let first = stdout.lines().zip(golden.lines()).position(|(a, b)| a != b);
    assert!(stdout == golden, "differs from the golden from line {first:?} on");
}

#[test]
fn each_run_arm_prints_its_slice_of_the_golden() {
    // `slc run all` prints every figure and Table III once; each arm's
    // stdout must be one of those pieces, verbatim, and nothing more.
    let golden = include_str!("../../../tools/golden/run_all_tiny.txt");
    for arm in ["fig1", "fig2", "fig7", "fig8", "fig9", "table3"] {
        let stdout = stdout_of("tiny", &["run", arm]);
        assert!(!stdout.trim().is_empty(), "slc run {arm} printed nothing");
        assert!(golden.contains(&stdout), "slc run {arm} is not a slice of the golden:\n{stdout}");
    }
}

#[test]
fn tables_print_the_library_renders() {
    assert_eq!(stdout_of("tiny", &["run", "table1"]), slc_exp::tables::table1() + "\n");
    assert_eq!(stdout_of("tiny", &["run", "table2"]), slc_exp::tables::table2() + "\n");
}

#[test]
fn usage_errors_exit_2_with_empty_stdout() {
    for (scale, args) in [
        ("tiny", &[][..]),
        ("tiny", &["run", "fig10"]),
        ("tiny", &["probe", "faults"]),
        ("tiny", &["probe", "quickstart"]),
        ("tiny", &["probe", "sim"]),
        ("tiny", &["probe", "dct"]),
        ("tiny", &["probe", "engine", "--codec", "lz4"]),
        ("tiny", &["probe", "threshold", "NOPE"]),
        ("bogus", &["run", "table1"]),
    ] {
        let out = slc(scale, args);
        assert_eq!(out.status.code(), Some(2), "SLC_SCALE={scale} slc {args:?}");
        assert!(out.stdout.is_empty(), "SLC_SCALE={scale} slc {args:?} printed to stdout");
    }
}
