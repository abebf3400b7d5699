//! The benchmark's own checks: `BENCHMARK.json` agrees with the runner's
//! metric table, and a smoke run of every workload prints a well-formed
//! result with exactly the metrics and units that table promises.

use perfbench::json::{parse, Value};
use perfbench::spec::{END_TO_END, PER_LAYER};
use perfbench::workload::Workload;
use std::process::Command;

fn benchmark_json() -> Value {
    parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

fn names_units(list: &Value) -> Vec<(String, String)> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
    t.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_matches_the_metric_table() {
    let b = benchmark_json();
    assert_eq!(
        b.keys(),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads: Vec<&str> = b["workloads"]
        .as_array()
        .unwrap()
        .iter()
        .map(|w| {
            assert_eq!(w.keys(), ["name", "why"]);
            w.get("name").and_then(Value::as_str).unwrap()
        })
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);

    assert_eq!(names_units(&b["end_to_end"]), table(END_TO_END));
    assert_eq!(names_units(&b["per_layer"]), table(PER_LAYER));
    let mut largest = 0.0f64;
    for m in b["end_to_end"].as_array().unwrap() {
        assert_eq!(m.keys(), ["name", "unit", "better", "bound"]);
        let bound = m.get("bound").and_then(Value::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{m}");
        largest = largest.max(bound);
        assert!(matches!(
            m.get("better").and_then(Value::as_str),
            Some("lower" | "higher")
        ));
    }
    let setup = b["end_to_end"]
        .as_array()
        .unwrap()
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("better").and_then(Value::as_str), Some("lower"));
    assert_eq!(setup.get("bound").and_then(Value::as_f64), Some(largest));
    for m in b["per_layer"].as_array().unwrap() {
        assert_eq!(m.keys(), ["name", "unit", "better"]);
    }
}

/// Runs the binary in smoke mode and returns (exit code, stdout).
fn smoke(workload: &str, trace: &str) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("runner starts");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn every_workload_reports_its_full_table_in_smoke_mode() {
    for w in Workload::ALL {
        for (trace, expected) in [("0", END_TO_END), ("1", PER_LAYER)] {
            let (code, stdout) = smoke(w.name(), trace);
            assert_eq!(code, 0, "{} --trace {trace}:\n{stdout}", w.name());
            let last = stdout.lines().last().expect("output");
            let r = parse(last).expect("last line is JSON");
            assert_eq!(r.keys(), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(r.get("correct"), Some(&Value::Bool(true)), "{last}");
            let attempted = r.get("attempted").and_then(Value::as_f64).unwrap();
            let failed = r.get("failed").and_then(Value::as_f64).unwrap();
            assert!(attempted >= 1.0 && attempted.fract() == 0.0 && failed.fract() == 0.0);
            let metrics = r.get("metrics").unwrap();
            let names: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
            assert_eq!(metrics.keys(), names);
            for (name, unit) in expected {
                let m = metrics.get(name).unwrap();
                assert_eq!(m.keys(), ["value", "unit"]);
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(*unit));
                assert!(m.get("value").and_then(Value::as_f64).unwrap().is_finite());
            }
            if trace == "0" {
                for (name, _) in END_TO_END {
                    let v = metrics
                        .get(name)
                        .and_then(|m| m.get("value"))
                        .and_then(Value::as_f64);
                    assert!(v.unwrap() > 0.0, "{} {name} must never be 0", w.name());
                }
            }
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "offline_dense",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        vec!["--seed", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(&args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}
