//! The `slc` binary end to end: its stdout is the figures byte for byte,
//! every command PAPER.md's map names runs, and every usage error exits 2
//! before printing anything.

use std::collections::BTreeSet;
use std::process::{Command, Output};

/// Runs `slc` with `args`, `SLC_SCALE=scale` and `workers` workers.
fn slc(workers: &str, scale: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_slc"))
        .args(args)
        .env("SLC_SCALE", scale)
        .env("SLC_PAR_THREADS", workers)
        .output()
        .expect("the slc binary runs")
}

fn stdout_on(workers: &str, scale: &str, args: &[&str]) -> String {
    let out = slc(workers, scale, args);
    assert!(out.status.success(), "slc {args:?}: {out:?}");
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

/// `slc`'s stdout with one worker, which must exit 0.
fn stdout_of(scale: &str, args: &[&str]) -> String {
    stdout_on("1", scale, args)
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
fn probe_ablation_at_tiny_equals_the_golden() {
    // Its MDC-size table drives the simulator's metadata cache outside
    // the timing model. One worker and two give the same bytes.
    let golden = include_str!("../../../tools/golden/probe_ablation_tiny.txt");
    for workers in ["1", "2"] {
        let stdout = stdout_on(workers, "tiny", &["probe", "ablation"]);
        assert!(stdout == golden, "{workers} workers: differs from the golden:\n{stdout}");
    }
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

/// The argument lists of the `slc …` commands in the table rows of
/// PAPER.md's "Map from the paper to the code".
fn map_commands() -> Vec<Vec<&'static str>> {
    let paper = include_str!("../../../PAPER.md");
    let (_, map) =
        paper.split_once("\n## Map from the paper to the code\n").expect("PAPER.md has its map");
    let map = map.split("\n## ").next().unwrap_or(map);
    map.lines()
        .filter(|line| line.starts_with('|'))
        .flat_map(|line| line.split('`').skip(1).step_by(2))
        .filter_map(|span| span.strip_prefix("slc "))
        .map(|command| command.split_whitespace().collect())
        .collect()
}

#[test]
fn every_command_in_papers_map_runs_and_the_map_covers_the_usage() {
    let commands = map_commands();
    for args in &commands {
        let out = slc("2", "tiny", args);
        assert!(out.status.success(), "PAPER.md's `slc {}` failed: {out:?}", args.join(" "));
        assert!(!out.stdout.is_empty(), "PAPER.md's `slc {}` printed nothing", args.join(" "));
    }
    // Every (verb, subcommand) the usage lists has a row, and no row names
    // one the usage does not list.
    let pair = |verb: &str, sub: &str| (verb.to_owned(), sub.to_owned());
    let mapped: BTreeSet<_> =
        commands.iter().map(|args| pair(args[0], args.get(1).copied().unwrap_or(""))).collect();
    let usage = String::from_utf8(slc("1", "tiny", &[]).stderr).expect("the usage is UTF-8");
    let listed: BTreeSet<_> = usage
        .lines()
        .filter_map(|line| line.split_once("slc ").map(|(_, rest)| rest))
        .flat_map(|rest| {
            let mut words = rest.split_whitespace();
            let verb = words.next().unwrap_or("");
            words.next().unwrap_or("").split('|').map(move |sub| pair(verb, sub))
        })
        .collect();
    assert_eq!(mapped, listed, "PAPER.md's map (left) against `slc`'s usage (right)");
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
        let out = slc("1", scale, args);
        assert_eq!(out.status.code(), Some(2), "SLC_SCALE={scale} slc {args:?}");
        assert!(out.stdout.is_empty(), "SLC_SCALE={scale} slc {args:?} printed to stdout");
    }
}
