//! Runs every workload at smoke size, untraced and traced, and checks that
//! the result line is well formed and carries exactly the metrics
//! BENCHMARK.json names, each with its unit.

use jsonv::Value;
use std::path::Path;
use std::process::Command;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in a directory of the repository")
}

fn spec() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    jsonv::parse(&text).expect("BENCHMARK.json parses")
}

fn names(spec: &Value, list: &str) -> Vec<(String, String)> {
    spec.get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn smoke(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ])
        .current_dir(repo_root())
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} exited {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    jsonv::parse(last).expect("the last line is JSON")
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    let spec = spec();
    let workloads = spec
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads");
    for workload in workloads {
        let workload = workload
            .get("name")
            .and_then(Value::as_str)
            .expect("workload name");
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = smoke(workload, trace);
            let Some(Value::Object(keys)) = Some(&result) else {
                panic!("result is an object")
            };
            let top: Vec<&str> = keys.keys().map(String::as_str).collect();
            assert_eq!(top, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
            let Some(Value::Object(metrics)) = result.get("metrics") else {
                panic!("metrics object")
            };
            let expected = names(&spec, list);
            for (name, unit) in &expected {
                let metric = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload} trace={trace}: {name} missing"));
                assert_eq!(
                    metric.get("unit").and_then(Value::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
                let value = metric.get("value").and_then(Value::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}: {name} = {value:?}"
                );
            }
            assert_eq!(
                metrics.len(),
                expected.len(),
                "{workload} trace={trace}: extra metrics"
            );
        }
    }
}
