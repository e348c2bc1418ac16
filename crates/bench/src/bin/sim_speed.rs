//! Host-side tier speed micro-benchmark.
//!
//! ```text
//! cargo run --release -p gpucmp-bench --bin sim_speed -- [--out sim_speed.json]
//! ```
//!
//! Times every campaign benchmark (GTX480, CUDA, quick scale) under each
//! simulator execution tier — interpreter and decoded — and prints the
//! speedup matrix. With `--out`, the matrix is also written as a JSON
//! file.
//!
//! Exits non-zero if the decoded tier is slower than the interpreter on
//! any benchmark — a compiled hot path that loses to instruction-at-a-
//! time interpretation is a regression, not a measurement.

use gpucmp_benchmarks::Scale;
use gpucmp_core::sim_speed::{measure_sim_speed, sim_speed_table, SimSpeed};
use gpucmp_trace::Json;
use std::process::ExitCode;

fn matrix_json(rows: &[SimSpeed]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|s| {
                Json::obj([
                    ("bench", s.bench.as_str().into()),
                    ("interp_ns", s.interp_ns.into()),
                    ("decoded_ns", s.decoded_ns.into()),
                ])
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = it.next().cloned(),
            other => {
                eprintln!("sim_speed: unknown argument '{other}'");
                eprintln!("usage: sim_speed [--out sim_speed.json]");
                return ExitCode::FAILURE;
            }
        }
    }

    let rows = measure_sim_speed(Scale::Quick);
    print!("{}", sim_speed_table(&rows));

    if let Some(path) = out {
        let doc = Json::obj([("sim_speed", matrix_json(&rows))]);
        if let Err(e) = std::fs::write(&path, doc.to_text()) {
            eprintln!("sim_speed: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("sim_speed: wrote {path}");
    }

    let slow: Vec<&SimSpeed> = rows.iter().filter(|s| s.decoded_ns > s.interp_ns).collect();
    if slow.is_empty() {
        println!(
            "sim_speed: PASS — decoded tier no slower than the interpreter on all {} benchmarks",
            rows.len()
        );
        ExitCode::SUCCESS
    } else {
        for s in &slow {
            eprintln!(
                "sim_speed: FAIL — {}: decoded {:.3} ms > interp {:.3} ms",
                s.bench,
                s.decoded_ns as f64 / 1e6,
                s.interp_ns as f64 / 1e6
            );
        }
        ExitCode::FAILURE
    }
}
