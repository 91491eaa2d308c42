//! `selfcheck`: the binary's vocabulary and `BENCHMARK.json` agree, both
//! ways, and both respect the contract's limits.

use crate::json::Json;
use crate::spec;

fn name_ok(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// Problems with the spec tables themselves.
pub fn table_problems() -> Vec<String> {
    let mut problems = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            problems.push(what);
        }
    };
    check((2..=8).contains(&spec::WORKLOADS.len()), "2 to 8 workloads".into());
    check((1..=16).contains(&spec::END_TO_END.len()), "1 to 16 end-to-end metrics".into());
    check((1..=128).contains(&spec::PER_LAYER.len()), "1 to 128 per-layer metrics".into());
    check((1..=60).contains(&spec::RUN_SECONDS), "run_seconds within 1..=60".into());
    let mut names: Vec<&str> = Vec::new();
    for w in spec::WORKLOADS.iter() {
        check(name_ok(w.name), format!("workload name {:?}", w.name));
        check(
            w.why.len() <= 200 && !w.why.contains('\n'),
            format!("why of {} over 200 chars", w.name),
        );
        names.push(w.name);
    }
    for m in spec::END_TO_END.iter().chain(spec::PER_LAYER.iter()) {
        check(name_ok(m.name), format!("metric name {:?}", m.name));
        check(unit_ok(m.unit), format!("unit {:?} of {}", m.unit, m.name));
        names.push(m.name);
    }
    for m in spec::END_TO_END.iter() {
        let rel = m.bound.map(|b| b.rel);
        check(rel.is_some_and(|r| (0.0..=0.25).contains(&r)), format!("bound of {}", m.name));
    }
    let setup = spec::END_TO_END.iter().find(|m| m.name == "setup_s");
    check(
        setup.is_some_and(|m| m.unit == "s" && m.better == spec::Better::Lower),
        "setup_s (s, lower) among the end-to-end metrics".into(),
    );
    names.sort_unstable();
    for pair in names.windows(2) {
        check(pair[0] != pair[1], format!("name {:?} used twice", pair[0]));
    }
    problems
}

/// Differences between `file` and what the tables render, section by
/// section and name by name.
pub fn file_problems(file: &Json) -> Vec<String> {
    let expected = spec::benchmark_json();
    let mut problems = Vec::new();
    let keys = |j: &Json| j.as_obj().map(|o| o.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>());
    if keys(file) != keys(&expected) {
        problems.push(format!("keys {:?}, expected {:?}", keys(file), keys(&expected)));
    }
    for section in ["command", "paths", "run_seconds"] {
        if file.get(section) != expected.get(section) {
            problems.push(format!("{section} differs from the binary's"));
        }
    }
    for section in ["workloads", "end_to_end", "per_layer"] {
        let entries = |j: &Json| j.get(section).and_then(Json::as_arr).unwrap_or_default().to_vec();
        let name = |e: &Json| e.get("name").and_then(Json::as_str).unwrap_or("?").to_owned();
        let (in_file, in_binary) = (entries(file), entries(&expected));
        for e in &in_binary {
            match in_file.iter().find(|f| name(f) == name(e)) {
                None => {
                    problems.push(format!("{section}: {} is emitted but not in the file", name(e)))
                }
                Some(f) if f != e => {
                    problems.push(format!("{section}: {} is {f}, expected {e}", name(e)))
                }
                Some(_) => {}
            }
        }
        for f in &in_file {
            if !in_binary.iter().any(|e| name(e) == name(f)) {
                problems.push(format!("{section}: {} is in the file but never emitted", name(f)));
            }
        }
    }
    problems
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let mut args = args.to_vec();
    let path = crate::take_value(&mut args, "--spec")?.unwrap_or("BENCHMARK.json".into());
    if !args.is_empty() {
        return Err(format!("selfcheck: unknown arguments {args:?}"));
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let file = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut problems = table_problems();
    problems.extend(file_problems(&file));
    if text.len() > 64 * 1024 {
        problems.push(format!("{path} is {} bytes, over 64 KiB", text.len()));
    }
    for p in &problems {
        println!("selfcheck: {p}");
    }
    println!(
        "selfcheck: {} workloads, {} end-to-end and {} per-layer metrics; {}",
        spec::WORKLOADS.len(),
        spec::END_TO_END.len(),
        spec::PER_LAYER.len(),
        if problems.is_empty() { "ok" } else { "FAILED" }
    );
    Ok(problems.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_respect_the_contract_limits() {
        assert_eq!(table_problems(), Vec::<String>::new());
    }

    #[test]
    fn rendered_spec_matches_itself_and_edits_are_caught() {
        let rendered = Json::parse(&spec::benchmark_json().pretty()).unwrap();
        assert_eq!(file_problems(&rendered), Vec::<String>::new());
        let edited = spec::benchmark_json().pretty().replace("\"round_ms\"", "\"round_us\"");
        let problems = file_problems(&Json::parse(&edited).unwrap());
        assert!(problems.iter().any(|p| p.contains("round_ms is emitted but not in the file")));
        assert!(problems.iter().any(|p| p.contains("round_us is in the file but never emitted")));
    }

    #[test]
    fn name_and_unit_rules() {
        assert!(
            name_ok("sim.host_ns_per_op") && name_ok("7z") && !name_ok(".x") && !name_ok("a b")
        );
        assert!(!name_ok(&"x".repeat(65)) && !name_ok(""));
        assert!(unit_ok("ns/block") && unit_ok("%") && !unit_ok("") && !unit_ok("a b"));
        assert!(!unit_ok(&"u".repeat(17)));
    }
}
