//! `sweep`: run workloads over a range of seeds, one child process per
//! run, and judge the spread of every end-to-end metric against the bounds
//! in `BENCHMARK.json`.
//!
//! The `--out` file holds the measurements and their summaries only; the
//! verdicts are printed, against whatever bounds `BENCHMARK.json` holds
//! when the sweep runs.
//!
//! Within one set of runs, a metric's spread is the distance between its
//! first and third quartile over the seeds, as a share of its median; it
//! should stay under a third of the metric's bound (`setup_s` excepted).
//! Between two sets over the same seeds, each median may not get worse by
//! more than the bound, and every digest must repeat exactly.

use crate::stats;
use crate::{parse_flags, WORKLOADS};
use gpucmp_trace::Json;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;

struct Bound {
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

/// One child run's result.
struct Run {
    seed: u64,
    run_s: f64,
    correct: bool,
    digest: String,
    ops: u64,
    metrics: BTreeMap<String, f64>,
}

/// The run length and the end-to-end bounds `BENCHMARK.json` declares.
fn benchmark(path: &str) -> Result<(u64, Vec<(String, Bound)>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = gpucmp_trace::parse(&text).map_err(|e| format!("{path}: {e:?}"))?;
    let seconds = doc
        .get("run_seconds")
        .and_then(Json::as_i64)
        .ok_or(format!("{path}: no run_seconds"))?;
    let bounds = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or(format!("{path}: no end_to_end list"))?
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            Ok((
                s("name").ok_or("metric without a name")?,
                Bound {
                    unit: s("unit").unwrap_or_default(),
                    lower_is_better: s("better").as_deref() == Some("lower"),
                    bound: m
                        .get("bound")
                        .and_then(Json::as_f64)
                        .ok_or("metric without a bound")?,
                },
            ))
        })
        .collect::<Result<_, String>>()?;
    Ok((seconds as u64, bounds))
}

fn child(workload: &str, seed: u64, seconds: &str) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let t = Instant::now();
    let out = Command::new(exe)
        .args([
            "run",
            "--workload",
            workload,
            "--seconds",
            seconds,
            "--trace",
            "0",
        ])
        .args(["--seed", &seed.to_string()])
        .output()
        .map_err(|e| format!("{workload} seed {seed}: {e}"))?;
    let run_s = t.elapsed().as_secs_f64();
    let text = String::from_utf8_lossy(&out.stdout);
    let detail = text
        .lines()
        .find_map(|l| l.strip_prefix("detail "))
        .and_then(|l| gpucmp_trace::parse(l).ok())
        .ok_or_else(|| {
            format!(
                "{workload} seed {seed}: no result (exit {:?})\n{}",
                out.status.code(),
                String::from_utf8_lossy(&out.stderr)
            )
        })?;
    let metrics = match detail.get("metrics") {
        Some(Json::Obj(members)) => members
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
        _ => BTreeMap::new(),
    };
    Ok(Run {
        seed,
        run_s,
        correct: detail.get("correct").and_then(Json::as_bool) == Some(true)
            && out.status.success(),
        digest: detail
            .get("digest")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string(),
        ops: detail.get("ops").and_then(Json::as_i64).unwrap_or(0) as u64,
        metrics,
    })
}

fn host() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj([
        ("cpu", Json::from(cpu)),
        (
            "available_parallelism",
            Json::from(std::thread::available_parallelism().map_or(1, |n| n.get() as u64)),
        ),
    ])
}

/// (median, q1, q3, spread) of one metric over a set's runs.
fn summary(values: &[f64]) -> (f64, f64, f64, f64) {
    let med = stats::median(values);
    if values.len() < 2 {
        return (med, med, med, 0.0);
    }
    let [q1, _, q3] = stats::quartiles(values);
    (med, q1, q3, (q3 - q1) / med.abs().max(f64::MIN_POSITIVE))
}

pub fn main(args: &[String]) -> ExitCode {
    let flags = match parse_flags(args, &[]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("gpucmp-perf sweep: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(k) = flags
        .keys()
        .find(|k| !["seeds", "sets", "benchmark", "out"].contains(&k.as_str()))
    {
        eprintln!("gpucmp-perf sweep: unknown flag --{k}");
        return ExitCode::from(2);
    }
    let get = |k: &str, d: &str| flags.get(k).cloned().unwrap_or_else(|| d.to_string());
    let seeds: Vec<u64> = {
        let spec = get("seeds", "1-10");
        let (a, b) = spec.split_once('-').unwrap_or((&spec, &spec));
        match (a.parse::<u64>(), b.parse::<u64>()) {
            (Ok(a), Ok(b)) if a <= b => (a..=b).collect(),
            _ => {
                eprintln!("gpucmp-perf sweep: --seeds takes A-B, not {spec}");
                return ExitCode::from(2);
            }
        }
    };
    let sets: usize = get("sets", "1").parse().unwrap_or(1).max(1);
    let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
    let (seconds, bounds) = match benchmark(&get("benchmark", "BENCHMARK.json")) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("gpucmp-perf sweep: {e}");
            return ExitCode::from(2);
        }
    };
    let seconds = seconds.to_string();

    // runs[set][workload] — sets and seeds outermost, so slow drift of the
    // machine spreads over every workload alike.
    let mut runs: Vec<BTreeMap<String, Vec<Run>>> = Vec::new();
    let mut ok = true;
    for set in 0..sets {
        let mut by_w: BTreeMap<String, Vec<Run>> = BTreeMap::new();
        for &seed in &seeds {
            for w in &workloads {
                match child(w, seed, &seconds) {
                    Ok(r) => {
                        eprintln!(
                            "set {} seed {seed} {w}: {} in {:.1} s",
                            set + 1,
                            if r.correct { "correct" } else { "WRONG" },
                            r.run_s
                        );
                        ok &= r.correct;
                        by_w.entry(w.clone()).or_default().push(r);
                    }
                    Err(e) => {
                        eprintln!("gpucmp-perf sweep: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        runs.push(by_w);
    }

    let mut set_docs = Vec::new();
    for (si, by_w) in runs.iter().enumerate() {
        let mut w_docs = Vec::new();
        for (w, rs) in by_w {
            let mut m_docs = Vec::new();
            for (name, b) in &bounds {
                let vals: Vec<f64> = rs
                    .iter()
                    .filter_map(|r| r.metrics.get(name).copied())
                    .collect();
                if vals.len() != rs.len() {
                    eprintln!("set {} {w}: {name} missing from some runs", si + 1);
                    ok = false;
                    continue;
                }
                let (med, q1, q3, spread) = summary(&vals);
                let judged = name != "setup_s";
                let verdict = if !judged {
                    "not judged"
                } else if spread <= b.bound / 3.0 {
                    "ok"
                } else if spread <= b.bound {
                    "within bound, above a third"
                } else {
                    ok = false;
                    "TOO NOISY"
                };
                println!(
                    "set {} {w:<15} {name:<12} median {med:>12.4} {:<5} q1 {q1:>12.4} q3 {q3:>12.4} spread {:>6.2}% (bound {:.0}%) {verdict}",
                    si + 1,
                    b.unit,
                    spread * 100.0,
                    b.bound * 100.0
                );
                m_docs.push((
                    name.clone(),
                    Json::obj([
                        ("unit", Json::from(b.unit.as_str())),
                        (
                            "values",
                            Json::Arr(vals.iter().map(|&v| Json::Num(v)).collect()),
                        ),
                        ("median", Json::Num(med)),
                        ("q1", Json::Num(q1)),
                        ("q3", Json::Num(q3)),
                        ("spread", Json::Num(spread)),
                    ]),
                ));
            }
            w_docs.push((
                w.clone(),
                Json::obj([
                    (
                        "runs",
                        Json::Arr(
                            rs.iter()
                                .map(|r| {
                                    Json::obj([
                                        ("seed", Json::from(r.seed)),
                                        ("correct", Json::from(r.correct)),
                                        ("digest", Json::from(r.digest.as_str())),
                                        ("ops", Json::from(r.ops)),
                                        ("run_s", Json::Num(r.run_s)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    ("metrics", Json::Obj(m_docs)),
                ]),
            ));
        }
        set_docs.push(Json::Obj(w_docs));
    }

    let mut compare = Vec::new();
    if runs.len() >= 2 {
        for w in &workloads {
            let (a, b) = (&runs[0][w], &runs[1][w]);
            let digests_agree = a
                .iter()
                .zip(b)
                .all(|(x, y)| x.seed == y.seed && x.digest == y.digest);
            ok &= digests_agree;
            let mut rows = vec![("digests_agree".to_string(), Json::from(digests_agree))];
            for (name, bd) in &bounds {
                let med = |rs: &[Run]| {
                    stats::median(
                        &rs.iter()
                            .filter_map(|r| r.metrics.get(name).copied())
                            .collect::<Vec<_>>(),
                    )
                };
                let (m1, m2) = (med(a), med(b));
                let worse = if bd.lower_is_better {
                    m2 / m1 - 1.0
                } else {
                    1.0 - m2 / m1
                };
                let within = worse <= bd.bound;
                ok &= within;
                println!(
                    "sets 1→2 {w:<15} {name:<12} {m1:>12.4} → {m2:>12.4} worse by {:>6.2}% (bound {:.0}%) {}",
                    worse * 100.0,
                    bd.bound * 100.0,
                    if within { "ok" } else { "REGRESSED" }
                );
                rows.push((
                    name.clone(),
                    Json::obj([
                        ("median_1", Json::Num(m1)),
                        ("median_2", Json::Num(m2)),
                        ("worse_by", Json::Num(worse)),
                    ]),
                ));
            }
            println!(
                "sets 1→2 {w:<15} digests {}",
                if digests_agree { "identical" } else { "DIFFER" }
            );
            compare.push((w.clone(), Json::Obj(rows)));
        }
    }

    let doc = Json::obj([
        ("host", host()),
        ("seconds", Json::from(seconds.as_str())),
        (
            "seeds",
            Json::Arr(seeds.iter().map(|&s| Json::from(s)).collect()),
        ),
        ("sets", Json::Arr(set_docs)),
        ("set_comparison", Json::Obj(compare)),
    ]);
    if let Some(path) = flags.get("out") {
        if let Err(e) = std::fs::write(path, doc.to_text() + "\n") {
            eprintln!("gpucmp-perf sweep: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("sweep: {}", if ok { "PASS" } else { "FAIL" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
