//! One benchmark for the SLC reproduction: five workloads, end-to-end
//! metrics from an untraced run, per-layer metrics from a traced run whose
//! spans are recorded here, around calls into each crate's public
//! functions. See `README.md` beside this package.
//!
//! ```text
//! slc-benchmark run   [--seed N] [--seconds S] [--trace] [--smoke] [--workload W] [--out FILE]
//! slc-benchmark one   --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! slc-benchmark compare A.json... -- B.json... [--spec BENCHMARK.json]
//! slc-benchmark selfcheck [--spec BENCHMARK.json]
//! slc-benchmark spec-json
//! ```

mod compare;
mod corpus;
mod ctx;
mod json;
mod selfcheck;
mod spec;
mod stats;
mod trace;
mod workloads;

use ctx::{Ctx, Options, Outcome};
use json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let command = if args.is_empty() { String::new() } else { args.remove(0) };
    let outcome = match command.as_str() {
        "one" => one(&args),
        "run" => run(&args),
        "compare" => compare::main(&args),
        "selfcheck" => selfcheck::main(&args),
        "spec-json" => {
            print!("{}", spec::benchmark_json().pretty());
            Ok(true)
        }
        _ => Err("usage: slc-benchmark <run|one|compare|selfcheck|spec-json> [options]".to_owned()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("slc-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// Removes `--name value` from `args` and returns the value.
fn take_value(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    let Some(at) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    if at + 1 >= args.len() {
        return Err(format!("{name} needs a value"));
    }
    args.remove(at);
    Ok(Some(args.remove(at)))
}

/// Removes the flag `--name` from `args` and returns whether it was there.
fn take_flag(args: &mut Vec<String>, name: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != name);
    args.len() != before
}

fn parse<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("{name}: cannot read {value:?}"))
}

/// Where result and trace files go: `out/` beside this package's manifest.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn result_path(workload: &str, trace: bool) -> PathBuf {
    out_dir().join(format!("{workload}-{}.json", if trace { "layers" } else { "e2e" }))
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// Runs one workload in this process and prints the contract's result
/// object as the last line of stdout.
fn one(args: &[String]) -> Result<bool, String> {
    let mut args = args.to_vec();
    let name = take_value(&mut args, "--workload")?.ok_or("one: --workload is required")?;
    let seed =
        parse("--seed", &take_value(&mut args, "--seed")?.ok_or("one: --seed is required")?)?;
    let seconds: f64 = parse(
        "--seconds",
        &take_value(&mut args, "--seconds")?.ok_or("one: --seconds is required")?,
    )?;
    let trace = match take_value(&mut args, "--trace")?.as_deref() {
        Some("0") => false,
        Some("1") => true,
        other => return Err(format!("one: --trace must be 0 or 1, got {other:?}")),
    };
    let smoke = take_flag(&mut args, "--smoke");
    if !args.is_empty() {
        return Err(format!("one: unknown arguments {args:?}"));
    }
    if spec::workload(&name).is_none() {
        let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload {name:?}; known: {}", known.join(", ")));
    }
    if !(0.0..=60.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside 0..=60"));
    }

    let mut ctx = Ctx::new(Options { seed, seconds, trace, smoke });
    let repeats = if trace || smoke { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::new();
    let mut workload = None;
    for _ in 0..repeats {
        drop(workload.take()); // one set-up's memory at a time
        let open = ctx.rec.begin("bench.setup");
        workload = workloads::setup(&name, &mut ctx);
        setup_s.push(ctx.rec.end(open));
    }
    let mut workload = workload.expect("the name was checked against the spec");
    let measuring = Instant::now();
    while ctx.next_round() {
        ctx.round(|ctx| workload.round(ctx));
    }
    let measured_s = measuring.elapsed().as_secs_f64();

    let mut out = Outcome::default();
    workload.finish(&ctx, &mut out);
    out.metrics.set("setup_s", stats::Summary::of(&setup_s).p50);
    out.metrics.set("peak_rss_mb", peak_rss_mb()?);

    let correct = ctx.tally.failed == 0;
    println!(
        "workload {name}  seed {seed}  {}  {} rounds in {measured_s:.2} s  set-up x{repeats}",
        if trace { "traced" } else { "untraced" },
        ctx.rounds,
    );
    println!(
        "  {:<40} {:>16}  {:>16}  {:>16}  kinds  samples",
        "op group", "p10 s", "p50 s", "p90 s"
    );
    let mut ops = Vec::new();
    for group in ctx.samples.groups() {
        let s = &ctx.samples;
        let (p10, p50, p90) = (s.p10(group), s.p50(group), s.p90(group));
        let (kinds, n) = (s.kinds(group), s.min_samples(group));
        println!("  {group:<40} {p10:>16.6}  {p50:>16.6}  {p90:>16.6}  {kinds:>5}  {n:>7}");
        ops.push((
            group,
            Json::obj([
                ("p10_s", Json::num(p10)),
                ("p50_s", Json::num(p50)),
                ("p90_s", Json::num(p90)),
                ("kinds", Json::num(kinds as f64)),
                ("min_samples", Json::num(n as f64)),
            ]),
        ));
    }
    let value = |m: &spec::MetricSpec| {
        Json::obj([
            ("value", Json::num(out.metrics.get(m.name).unwrap_or(0.0))),
            ("unit", Json::str(m.unit)),
        ])
    };
    println!("  {:<40} {:>16}  unit", "metric", "value");
    let mut measured = Vec::new();
    for m in spec::END_TO_END.iter().chain(spec::PER_LAYER.iter()) {
        if let Some(v) = out.metrics.get(m.name) {
            println!("  {:<40} {v:>16.6}  {}", m.name, m.unit);
            measured.push((m.name, value(m)));
        }
    }
    for (key, digest) in &out.digests {
        println!("  {key:<40} {digest:>16}");
    }
    println!("  ops attempted {}  failed {}", ctx.tally.attempted, ctx.tally.failed);
    for note in &ctx.tally.notes {
        println!("  FAILED {note}");
    }

    let verdict = [
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(ctx.tally.attempted as f64)),
        ("failed", Json::num(ctx.tally.failed as f64)),
    ];
    let mut file = vec![
        ("workload", Json::str(&name)),
        ("seed", Json::num(seed as f64)),
        ("seconds", Json::num(seconds)),
        ("trace", Json::Bool(trace)),
        ("smoke", Json::Bool(smoke)),
    ];
    file.extend(verdict.clone());
    file.push(("notes", Json::Arr(ctx.tally.notes.iter().map(Json::str).collect())));
    file.push(("metrics", Json::obj(measured)));
    file.push(("digests", Json::obj(out.digests.iter().map(|(k, v)| (*k, Json::str(v))))));
    file.push(("ops", Json::obj(ops)));
    write_file(&result_path(&name, trace), &Json::obj(file).pretty())?;
    if trace {
        let path = out_dir().join(format!("trace-{name}.json"));
        write_file(&path, &ctx.rec.to_json(&name).pretty())?;
    }

    // The contract's last line: every end-to-end metric untraced, every
    // per-layer metric traced (0 where this workload does not exercise
    // the layer).
    let listed: &[spec::MetricSpec] = if trace { &spec::PER_LAYER } else { &spec::END_TO_END };
    let mut last = verdict.to_vec();
    last.push(("metrics", Json::obj(listed.iter().map(|m| (m.name, value(m))))));
    println!("{}", Json::obj(last));
    Ok(true)
}

/// Runs every workload (or one) in a fresh child process each, untraced
/// and — with `--trace` — traced, and merges the children's result files.
fn run(args: &[String]) -> Result<bool, String> {
    let mut args = args.to_vec();
    let seed: u64 = parse("--seed", &take_value(&mut args, "--seed")?.unwrap_or("42".into()))?;
    let smoke = take_flag(&mut args, "--smoke");
    let default_seconds = if smoke { 0 } else { spec::RUN_SECONDS };
    let seconds: f64 = parse(
        "--seconds",
        &take_value(&mut args, "--seconds")?.unwrap_or(default_seconds.to_string()),
    )?;
    let traced = take_flag(&mut args, "--trace");
    let only = take_value(&mut args, "--workload")?;
    let out = take_value(&mut args, "--out")?
        .map_or_else(|| out_dir().join(format!("run-seed{seed}.json")), PathBuf::from);
    if !args.is_empty() {
        return Err(format!("run: unknown arguments {args:?}"));
    }
    if let Some(name) = &only {
        spec::workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for w in spec::WORKLOADS.iter().filter(|w| only.as_deref().is_none_or(|o| o == w.name)) {
        let mut passes = Vec::new();
        for trace in [false, true] {
            if trace && !traced {
                passes.push(("layers", Json::Null));
                continue;
            }
            let mut child = std::process::Command::new(&exe);
            child.args(["one", "--workload", w.name, "--seed", &seed.to_string()]);
            child.args([
                "--seconds",
                &seconds.to_string(),
                "--trace",
                if trace { "1" } else { "0" },
            ]);
            if smoke {
                child.arg("--smoke");
            }
            // `status` waits for the child to end.
            let status = child.status().map_err(|e| format!("{}: {e}", exe.display()))?;
            if !status.success() {
                return Err(format!("workload {} ({status})", w.name));
            }
            let path = result_path(w.name, trace);
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let result = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            all_correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
            passes.push((if trace { "layers" } else { "e2e" }, result));
        }
        runs.push((w.name, Json::obj(passes)));
    }
    let merged = Json::obj([
        ("seed", Json::num(seed as f64)),
        ("smoke", Json::Bool(smoke)),
        ("runs", Json::obj(runs)),
    ]);
    write_file(&out, &merged.pretty())?;
    println!("results: {}", out.display());
    if !all_correct {
        println!("some ops FAILED: see the FAILED lines above");
    }
    Ok(all_correct)
}
