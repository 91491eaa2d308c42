//! `compare A.json... -- B.json...`: two sets of `run` result files, per
//! workload × bounded metric.
//!
//! A metric regressed when B's median is worse than A's by more than its
//! bound. When the run-to-run spread (either side's interquartile range)
//! is wider than the bound the pair is `unresolved`, not unchanged —
//! unless every B run reads better than every A run.

use crate::json::Json;
use crate::spec::{self, Better, Bound};
use crate::stats::quartiles;
use std::collections::BTreeSet;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    Unresolved,
    Regression,
}

/// Judges one metric from both sets' values.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: Bound) -> Verdict {
    let (a_q1, a_med, a_q3) = quartiles(a);
    let (b_q1, b_med, b_q3) = quartiles(b);
    let allowed = bound.rel * a_med.abs() + bound.abs;
    // Positive = B is worse.
    let worse_by = |from: f64, to: f64| match better {
        Better::Lower => to - from,
        Better::Higher => from - to,
    };
    let every_b_better = a.iter().all(|&x| b.iter().all(|&y| worse_by(x, y) < 0.0));
    let spread = (a_q3 - a_q1).max(b_q3 - b_q1);
    if every_b_better {
        Verdict::Improved
    } else if spread > allowed {
        Verdict::Unresolved
    } else if worse_by(a_med, b_med) > allowed {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

struct RunFile {
    path: String,
    json: Json,
}

fn load(paths: &[String]) -> Result<Vec<RunFile>, String> {
    paths
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            if json.get("runs").and_then(Json::as_obj).is_none() {
                return Err(format!("{path}: not a `run` result file (no \"runs\")"));
            }
            Ok(RunFile { path: path.clone(), json })
        })
        .collect()
}

/// The untraced result of `workload` in one run file.
fn e2e<'a>(file: &'a RunFile, workload: &str) -> Option<&'a Json> {
    file.json.get("runs")?.get(workload)?.get("e2e").filter(|r| r.as_obj().is_some())
}

fn values(files: &[RunFile], workload: &str, metric: &str) -> Vec<f64> {
    files
        .iter()
        .filter_map(|f| e2e(f, workload)?.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Σ failed ops ÷ Σ attempted ops over every workload of every file.
fn failed_share(files: &[RunFile]) -> f64 {
    let total = |key: &str| -> f64 {
        files
            .iter()
            .flat_map(|f| spec::WORKLOADS.iter().filter_map(|w| e2e(f, w.name)?.get(key)?.as_f64()))
            .sum()
    };
    crate::ctx::ratio(total("failed"), total("attempted"))
}

fn digests(files: &[RunFile], workload: &str, key: &str) -> BTreeSet<String> {
    files
        .iter()
        .filter_map(|f| Some(e2e(f, workload)?.get("digests")?.get(key)?.as_str()?.to_owned()))
        .collect()
}

/// End-to-end bounds come from `BENCHMARK.json`; the gated per-layer
/// metrics' bounds from the spec table (the file cannot carry them).
fn bounded_metrics(spec_path: &str) -> Result<Vec<(String, String, Better, Bound)>, String> {
    let text = std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let file = Json::parse(&text).map_err(|e| format!("{spec_path}: {e}"))?;
    let mut out = Vec::new();
    for m in file.get("end_to_end").and_then(Json::as_arr).ok_or("no end_to_end in the spec")? {
        let field = |k: &str| {
            m.get(k).and_then(Json::as_str).ok_or(format!("end_to_end entry without {k}"))
        };
        let better = Better::parse(field("better")?).ok_or("better must be lower or higher")?;
        let rel = m.get("bound").and_then(Json::as_f64).ok_or("end_to_end entry without bound")?;
        out.push((
            field("name")?.to_owned(),
            field("unit")?.to_owned(),
            better,
            Bound { rel, abs: 0.0 },
        ));
    }
    for m in spec::PER_LAYER.iter() {
        if let Some(bound) = m.bound {
            out.push((m.name.to_owned(), m.unit.to_owned(), m.better, bound));
        }
    }
    Ok(out)
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let mut args = args.to_vec();
    let spec_path = crate::take_value(&mut args, "--spec")?.unwrap_or("BENCHMARK.json".into());
    let split =
        args.iter().position(|a| a == "--").ok_or("compare: separate the two sets with --")?;
    let (a, b) = (load(&args[..split])?, load(&args[split + 1..])?);
    if a.is_empty() || b.is_empty() {
        return Err("compare: each set needs at least one result file".into());
    }
    let metrics = bounded_metrics(&spec_path)?;
    let seeds = |set: &[RunFile]| {
        set.iter()
            .filter_map(|f| f.json.get("seed")?.as_f64())
            .map(|s| s.to_string())
            .collect::<BTreeSet<_>>()
    };
    println!("A: {} file(s), seeds {:?}", a.len(), seeds(&a));
    println!("B: {} file(s), seeds {:?}", b.len(), seeds(&b));
    for f in a.iter().chain(&b) {
        println!("   {}", f.path);
    }
    println!(
        "{:<11} {:<22} {:>6} {:>36} {:>36} {:>8}  verdict",
        "workload", "metric", "unit", "A q1 / median / q3 (n)", "B q1 / median / q3 (n)", "B vs A"
    );
    let mut regressions = 0;
    let mut unresolved = 0;
    for w in spec::WORKLOADS.iter() {
        for (name, unit, better, bound) in &metrics {
            let (va, vb) = (values(&a, w.name, name), values(&b, w.name, name));
            if va.is_empty() || vb.is_empty() {
                continue; // the workload does not report this metric
            }
            let verdict = judge(&va, &vb, *better, *bound);
            let cell = |v: &[f64]| {
                let (q1, med, q3) = quartiles(v);
                format!("{q1:.4} / {med:.4} / {q3:.4} ({})", v.len())
            };
            let (a_med, b_med) = (quartiles(&va).1, quartiles(&vb).1);
            let change = if a_med != 0.0 {
                format!("{:+.1}%", (b_med / a_med - 1.0) * 100.0)
            } else {
                format!("{:+.3}", b_med - a_med)
            };
            let word = match verdict {
                Verdict::Ok => "ok",
                Verdict::Improved => "improved",
                Verdict::Unresolved => "unresolved",
                Verdict::Regression => "REGRESSION",
            };
            println!(
                "{:<11} {name:<22} {unit:>6} {:>36} {:>36} {change:>8}  {word}",
                w.name,
                cell(&va),
                cell(&vb)
            );
            regressions += usize::from(verdict == Verdict::Regression);
            unresolved += usize::from(verdict == Verdict::Unresolved);
        }
    }
    let mut digest_diffs = 0;
    for w in spec::WORKLOADS.iter() {
        for key in ["container_digest", "figure_digest", "sim_stats_digest"] {
            let (da, db) = (digests(&a, w.name, key), digests(&b, w.name, key));
            if !da.is_empty() && !db.is_empty() && da != db {
                println!("digest differs: {} {key}: A {da:?}  B {db:?}", w.name);
                digest_diffs += 1;
            }
        }
    }
    if digest_diffs == 0 {
        println!("digests: identical wherever both sets report one");
    } else if seeds(&a) != seeds(&b) {
        println!("(the sets used different seeds, so their outputs differ by construction)");
    }
    let (failed_a, failed_b) = (failed_share(&a), failed_share(&b));
    println!("failed_share: A {failed_a}  B {failed_b}");
    println!("{regressions} regression(s), {unresolved} unresolved");
    Ok(regressions == 0 && failed_b <= failed_a)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEN_PCT: Bound = Bound { rel: 0.10, abs: 0.0 };

    #[test]
    fn within_bound_is_ok_beyond_is_regression() {
        let a = [100.0, 101.0, 99.0];
        assert_eq!(judge(&a, &[105.0, 106.0, 104.0], Better::Lower, TEN_PCT), Verdict::Ok);
        assert_eq!(judge(&a, &[115.0, 116.0, 114.0], Better::Lower, TEN_PCT), Verdict::Regression);
        // Direction flips for higher-is-better.
        assert_eq!(judge(&a, &[85.0, 86.0, 84.0], Better::Higher, TEN_PCT), Verdict::Regression);
        assert_eq!(judge(&a, &[115.0, 116.0, 114.0], Better::Higher, TEN_PCT), Verdict::Improved);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let noisy = [100.0, 140.0, 80.0, 120.0];
        assert_eq!(
            judge(&noisy, &[100.0, 135.0, 85.0, 118.0], Better::Lower, TEN_PCT),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &[70.0, 75.0, 60.0, 79.0], Better::Lower, TEN_PCT),
            Verdict::Improved
        );
    }

    #[test]
    fn absolute_bounds_gate_exact_metrics() {
        let exact = Bound { rel: 0.0, abs: 0.01 };
        assert_eq!(judge(&[0.073], &[0.073], Better::Lower, exact), Verdict::Ok);
        assert_eq!(judge(&[0.073], &[0.080], Better::Lower, exact), Verdict::Ok);
        assert_eq!(judge(&[0.073], &[0.090], Better::Lower, exact), Verdict::Regression);
        // failed_share: any rise from zero is a regression.
        let zero = Bound { rel: 0.0, abs: 0.0 };
        assert_eq!(judge(&[0.0, 0.0], &[0.0, 0.0], Better::Lower, zero), Verdict::Ok);
        assert_eq!(judge(&[0.0, 0.0], &[0.0, 0.001], Better::Lower, zero), Verdict::Unresolved);
        assert_eq!(judge(&[0.0, 0.0], &[0.001, 0.001], Better::Lower, zero), Verdict::Regression);
    }

    /// A result file as `run` writes it, read back the way `compare` does.
    #[test]
    fn result_files_round_trip_into_compare() {
        let dir = crate::out_dir().join(format!("test-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, round_ms: f64, digest: &str| {
            let result = Json::obj([
                ("workload", Json::str("sim_sweep")),
                ("correct", Json::Bool(true)),
                ("attempted", Json::num(270.0)),
                ("failed", Json::num(if digest == "0100" { 3.0 } else { 0.0 })),
                (
                    "metrics",
                    Json::obj([(
                        "round_ms",
                        Json::obj([("value", Json::num(round_ms)), ("unit", Json::str("ms"))]),
                    )]),
                ),
                ("digests", Json::obj([("sim_stats_digest", Json::str(digest))])),
            ]);
            let file = Json::obj([
                ("seed", Json::num(42.0)),
                (
                    "runs",
                    Json::obj([(
                        "sim_sweep",
                        Json::obj([("e2e", result), ("layers", Json::Null)]),
                    )]),
                ),
            ]);
            let path = dir.join(name).to_string_lossy().into_owned();
            std::fs::write(&path, file.pretty()).unwrap();
            path
        };
        let a = load(&[write("a1.json", 120.25, "00ff"), write("a2.json", 121.5, "00ff")]).unwrap();
        let b = load(&[write("b1.json", 150.0, "0100")]).unwrap();
        assert_eq!(values(&a, "sim_sweep", "round_ms"), [120.25, 121.5]);
        assert_eq!(values(&b, "sim_sweep", "round_ms"), [150.0]);
        assert!(values(&a, "sim_sweep", "setup_s").is_empty(), "absent metrics are skipped");
        assert!(values(&a, "mixed_bdi", "round_ms").is_empty(), "absent workloads are skipped");
        assert_ne!(
            digests(&a, "sim_sweep", "sim_stats_digest"),
            digests(&b, "sim_stats_digest", "x")
        );
        assert_eq!(digests(&a, "sim_sweep", "sim_stats_digest").len(), 1);
        let verdict = judge(
            &values(&a, "sim_sweep", "round_ms"),
            &values(&b, "sim_sweep", "round_ms"),
            Better::Lower,
            TEN_PCT,
        );
        assert_eq!(verdict, Verdict::Regression);
        assert_eq!(failed_share(&a), 0.0);
        assert_eq!(failed_share(&b), 3.0 / 270.0);
        assert!(load(&[dir.join("missing.json").to_string_lossy().into_owned()]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
