//! The binary against `BENCHMARK.json`: it emits exactly the declared
//! workloads and metrics, and every workload passes its checks at a size
//! that takes well under a second.

use serde_json::Value;
use std::path::Path;
use std::process::Command;

/// The benchmark reads `BENCHMARK.json` from, and writes `.bench_out/` to,
/// its working directory: the repository root.
fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
}

fn declaration() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    serde_json::parse(&text).unwrap()
}

/// `(name, unit)` of every entry of the list under `key`.
fn declared(decl: &Value, key: &str) -> Vec<(String, String)> {
    let Value::Array(items) = decl.field(key).unwrap() else {
        panic!("{key} is a list")
    };
    let text = |v: &Value, k: &str| match v.field(k) {
        Ok(Value::Str(s)) => s.clone(),
        other => panic!("{key}.{k}: {other:?}"),
    };
    items
        .iter()
        .map(|m| {
            let unit = if key == "workloads" { "why" } else { "unit" };
            (text(m, "name"), text(m, unit))
        })
        .collect()
}

fn bench(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_timr-bench"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "timr-bench {args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// Run one workload the way the driver does; the result object.
fn result(workload: &str, trace: &str) -> Value {
    let out = bench(&[
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--users",
        "50",
        "--reps",
        "1",
    ]);
    serde_json::parse(out.lines().last().expect("a result line")).unwrap()
}

fn emitted(result: &Value) -> Vec<(String, String)> {
    let Value::Object(top) = result else {
        panic!("result is an object")
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.field("correct").unwrap(), &Value::Bool(true));
    assert_eq!(result.field("failed").unwrap(), &Value::Int(0));
    let Value::Object(metrics) = result.field("metrics").unwrap() else {
        panic!("metrics is an object")
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(matches!(m.field("value"), Ok(Value::Float(_))), "{name}");
            let Ok(Value::Str(unit)) = m.field("unit") else {
                panic!("{name} has a unit")
            };
            (name.clone(), unit.clone())
        })
        .collect()
}

#[test]
fn every_declared_workload_emits_exactly_the_declared_metrics() {
    let decl = declaration();
    let workloads = declared(&decl, "workloads");
    assert_eq!(workloads.len(), 7);
    for (workload, why) in &workloads {
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        assert_eq!(
            emitted(&result(workload, "0")),
            declared(&decl, "end_to_end"),
            "{workload}, tracing off"
        );
        assert_eq!(
            emitted(&result(workload, "1")),
            declared(&decl, "per_layer"),
            "{workload}, tracing on"
        );
    }
    assert!(declared(&decl, "end_to_end").contains(&("setup_s".into(), "s".into())));
}

#[test]
fn full_run_covers_the_declared_workloads_and_passes() {
    let out = bench(&["--users", "50", "--reps", "1", "--no-trace", "--seed", "7"]);
    let ran: Vec<&str> = out
        .lines()
        .filter_map(|l| {
            l.split_once(": ops_attempted 1 ops_failed 0")
                .map(|(w, _)| w)
        })
        .collect();
    let names: Vec<String> = declared(&declaration(), "workloads")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    assert_eq!(ran, names);
    assert!(out.contains("fig14_ratio"));
}

#[test]
fn unknown_workload_is_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_timr-bench"))
        .args(["--workload", "nope", "--trace", "0", "--users", "50"])
        .current_dir(repo_root())
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
