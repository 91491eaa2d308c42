//! The `slc` binary end to end: every command PAPER.md's map names prints
//! its golden byte for byte, the map quotes numbers those goldens print,
//! and every usage error exits 2 before printing anything.

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

/// `tools/golden/<name>`, read when the test runs: a golden that a row
/// names but nobody recorded fails that row.
fn golden(name: &str) -> String {
    let path = format!("{}/../../tools/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn tables_print_the_library_renders() {
    assert_eq!(stdout_of("tiny", &["run", "table1"]), slc_exp::tables::table1() + "\n");
    assert_eq!(stdout_of("tiny", &["run", "table2"]), slc_exp::tables::table2() + "\n");
}

/// The rows of the table in PAPER.md's "Map from the paper to the code",
/// each as its five cells: artefact, command, entry point, gate, number.
fn map_rows() -> Vec<[&'static str; 5]> {
    let paper = include_str!("../../../PAPER.md");
    let (_, map) =
        paper.split_once("\n## Map from the paper to the code\n").expect("PAPER.md has its map");
    let map = map.split("\n## ").next().unwrap_or(map);
    map.lines()
        .filter(|line| line.starts_with('|'))
        .skip(2) // the header and its rule
        .map(|line| {
            let cells: Vec<_> = line.trim_matches('|').split('|').map(str::trim).collect();
            cells.try_into().unwrap_or_else(|cells| panic!("not five cells: {cells:?}"))
        })
        .collect()
}

/// The `…` spans of a table cell.
fn code_spans(cell: &str) -> impl Iterator<Item = &str> {
    cell.split('`').skip(1).step_by(2)
}

/// The argument list of a map row's `slc …` command.
fn command_of(row: &[&'static str; 5]) -> Vec<&'static str> {
    let command = code_spans(row[1]).find_map(|span| span.strip_prefix("slc "));
    command.unwrap_or_else(|| panic!("{}: no `slc …` command", row[0])).split_whitespace().collect()
}

/// The first decimal number in `text` that does not end a word (the 2 of
/// `E2MC` is not one).
fn first_number(text: &str) -> Option<&str> {
    let bytes = text.as_bytes();
    let start = (0..bytes.len()).find(|&i| {
        bytes[i].is_ascii_digit() && (i == 0 || !bytes[i - 1].is_ascii_alphanumeric())
    })?;
    let rest = &text[start..];
    let len = rest.find(|c: char| !c.is_ascii_digit() && c != '.').unwrap_or(rest.len());
    Some(rest[..len].trim_end_matches('.'))
}

/// A map command that prints all of `run_all_tiny.txt`.
fn is_run_all(args: &[&str]) -> bool {
    args == ["run", "all"]
}

/// A map command that prints one piece of `run_all_tiny.txt`.
fn is_run_arm(args: &[&str]) -> bool {
    matches!(args, ["run", arm] if *arm != "all")
}

fn is_probe_ablation(args: &[&str]) -> bool {
    args == ["probe", "ablation"]
}

/// Runs the command of every map row that `select` takes at `tiny` with
/// one and two workers, and compares its stdout byte for byte with its
/// golden, named after its arguments without `--codec`. A `run` arm
/// other than `all` has no golden of its own: its stdout must be one of
/// the pieces of `run_all_tiny.txt`, verbatim. `select` must take a row.
fn assert_rows_print_their_goldens(select: impl Fn(&[&str]) -> bool) {
    let run_all = golden("run_all_tiny.txt");
    let rows: Vec<_> = map_rows().iter().map(command_of).filter(|args| select(args)).collect();
    assert!(!rows.is_empty(), "no map row selected");
    for args in rows {
        let command = args.join(" ");
        let slug: Vec<_> = args.iter().copied().filter(|&arg| arg != "--codec").collect();
        let name = format!("{}_tiny.txt", slug.join("_"));
        for workers in ["1", "2"] {
            let stdout = stdout_on(workers, "tiny", &args);
            assert!(!stdout.trim().is_empty(), "`slc {command}` printed nothing");
            if is_run_arm(&args) {
                assert!(
                    run_all.contains(&stdout),
                    "`slc {command}` is not a slice of run_all_tiny.txt:\n{stdout}"
                );
                continue;
            }
            // Not `assert_eq!`: a 133-line diff of two strings helps nobody.
            let golden = golden(&name);
            let line = stdout.lines().zip(golden.lines()).take_while(|(a, b)| a == b).count() + 1;
            assert!(
                stdout == golden,
                "`slc {command}` with SLC_PAR_THREADS={workers}: differs from {name} from line {line} on"
            );
        }
    }
}

#[test]
fn run_all_at_tiny_equals_the_golden() {
    assert_rows_print_their_goldens(is_run_all);
}

#[test]
fn probe_ablation_at_tiny_equals_the_golden() {
    assert_rows_print_their_goldens(is_probe_ablation);
}

#[test]
fn each_run_arm_prints_its_slice_of_the_golden() {
    assert_rows_print_their_goldens(is_run_arm);
}

#[test]
fn every_map_row_prints_its_tiny_golden_and_quotes_a_gated_number() {
    // The rows the three tests above leave: every other probe.
    assert_rows_print_their_goldens(|args| {
        !is_run_all(args) && !is_run_arm(args) && !is_probe_ablation(args)
    });
    // The first number of each row's last cell is printed by a golden
    // that the Gate cell names, at the scale the cell names.
    for [artefact, _, _, gate, number] in map_rows() {
        let quoted = first_number(number).unwrap_or_else(|| panic!("{artefact}: no number"));
        let at_scale: Vec<_> = code_spans(gate)
            .filter(|span| span.ends_with(".txt"))
            .filter(|name| {
                ["tiny", "small", "full"].iter().any(|s| name.contains(s) && number.contains(s))
            })
            .collect();
        assert!(
            at_scale.iter().any(|name| golden(name).contains(quoted)),
            "{artefact}: {quoted} is printed by none of {at_scale:?}, its Gate's goldens at the scale of {number:?}"
        );
    }
}

#[test]
fn papers_map_and_slc_usage_name_the_same_commands() {
    // Every (verb, subcommand) the usage lists has a row, and no row names
    // one the usage does not list. That each row's command runs is
    // `assert_rows_print_their_goldens`' to check.
    let commands: Vec<_> = map_rows().iter().map(command_of).collect();
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
