//! Drives the benchmark binary: every workload must report exactly the
//! metrics `BENCHMARK.json` declares, and must fail when a readback is
//! corrupted.

use gpucmp_trace::{parse, Json};
use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "campaign-paper",
    "kernels-fresh",
    "serve-steady",
    "serve-churn",
];

fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
    doc.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

/// Run one workload briefly; return its exit code and its last line.
fn run(workload: &str, extra: &[&str]) -> (i32, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_gpucmp-perf"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
        ])
        .args(extra)
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let json = parse(last).unwrap_or_else(|e| panic!("{workload}: last line {last:?}: {e:?}"));
    (out.status.code().unwrap_or(-1), json)
}

fn reported(result: &Json) -> Vec<(String, String)> {
    match result.get("metrics") {
        Some(Json::Obj(members)) => members
            .iter()
            .map(|(name, v)| {
                assert!(v.get("value").and_then(Json::as_f64).is_some(), "{name}");
                (
                    name.clone(),
                    v.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect(),
        other => panic!("no metrics object: {other:?}"),
    }
}

fn count(result: &Json, key: &str) -> i64 {
    result.get(key).and_then(Json::as_i64).expect(key)
}

#[test]
fn benchmark_json_names_the_workloads_this_binary_runs() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn traced_runs_report_exactly_the_declared_per_layer_metrics() {
    let want = declared("per_layer");
    for w in WORKLOADS {
        let (code, result) = run(w, &["--trace", "1"]);
        assert_eq!(code, 0, "{w}: {result:?}");
        assert_eq!(
            result.get("correct").and_then(Json::as_bool),
            Some(true),
            "{w}"
        );
        assert!(count(&result, "attempted") >= 1, "{w}");
        assert_eq!(reported(&result), want, "{w}");
        let v = |n: &str| {
            result
                .get("metrics")
                .and_then(|m| m.get(n))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap()
        };
        // The spans account for the traced wall time per load thread.
        assert!((v("harness.self_cover") - 1.0).abs() < 0.05, "{w}");
    }
}

#[test]
fn corrupting_a_readback_fails_every_workload() {
    let want = declared("end_to_end");
    for w in WORKLOADS {
        let (code, result) = run(w, &["--trace", "0", "--mutate"]);
        assert_eq!(code, 1, "{w} must exit 1: {result:?}");
        assert_eq!(
            result.get("correct").and_then(Json::as_bool),
            Some(false),
            "{w}"
        );
        assert!(count(&result, "failed") > 0, "{w}: fail_frac must be > 0");
        assert!(
            count(&result, "failed") <= count(&result, "attempted"),
            "{w}"
        );
        assert_eq!(reported(&result), want, "{w}");
    }
}
