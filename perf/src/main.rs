//! `gpucmp-perf` — the host-time benchmark of the gpucmp system.
//!
//! ```text
//! gpucmp-perf run --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//!                 [--json out.json] [--spans spans.json] [--mutate]
//! gpucmp-perf sweep [--seeds A-B] [--sets N] [--benchmark BENCHMARK.json]
//!                   [--out results.json]
//! ```
//!
//! `run` measures one workload for `--seconds` and prints every metric with
//! its unit and sample count, then, as the last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics,
//! or with `--trace 1` the per-layer ones from a second, traced pass over
//! the same operations. It exits 1 when any output check failed. `sweep`
//! runs `run` in child processes over a range of seeds and summarises the
//! spread of every metric. See `perf/README.md`.

mod campaign;
mod kernels;
mod metrics;
mod serve;
mod spans;
mod stats;
mod sweep;
mod traced;

use gpucmp_trace::Json;
use std::process::ExitCode;

/// The workloads, in the order `all` runs them.
pub const WORKLOADS: [&str; 4] = [
    "campaign-paper",
    "kernels-fresh",
    "serve-steady",
    "serve-churn",
];

/// Set-ups per run; `setup_s` reports their median.
pub const SETUPS: usize = 7;

/// How one workload runs.
#[derive(Debug)]
pub struct Opts {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Add a traced pass over the same operations and report per-layer
    /// metrics.
    pub trace: bool,
    /// Flip one byte of one sampled readback, to show the checks catch it.
    pub mutate: bool,
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Duration of each set-up, s.
    pub setup_s: Vec<f64>,
    /// The untraced phase's operations, by window, in completion order.
    pub windows: Vec<stats::Window>,
    /// Wall time of the untraced phase, s.
    pub wall_s: f64,
    /// Peak resident set of each measured unit of work, MB.
    pub peak_rss_mb: Vec<f64>,
    /// Operations attempted, both phases.
    pub attempted: u64,
    /// Operations that failed or gave a wrong output.
    pub failed: u64,
    /// Broken invariants other than per-operation failures.
    pub problems: Vec<String>,
    /// FNV digest of a fixed prefix of the workload's outputs.
    pub digest: String,
    /// Context worth printing with the numbers.
    pub notes: Vec<String>,
    /// Per-layer values, from the traced pass.
    pub layers: Option<metrics::Layers>,
    /// The per-layer self-time table, from the traced pass.
    pub table: String,
    /// The traced pass's spans.
    pub spans: Vec<spans::Span>,
}

impl Measured {
    /// Count one operation and whether it went wrong.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Latencies of the untraced phase's operations in completion order, ms.
    pub fn op_ms(&self) -> Vec<f64> {
        self.windows
            .iter()
            .flat_map(|w| w.ops_ms.iter().copied())
            .collect()
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: gpucmp-perf run --workload <{}|all> [--seed N] [--seconds S] \
         [--trace 0|1] [--json PATH] [--spans PATH] [--mutate]\n       \
         gpucmp-perf sweep [--seeds A-B] [--sets N] [--benchmark PATH] \
         [--out PATH]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    // The program reads GPUCMP_* knobs (tier, sim threads, memcheck, fault
    // injection, cache reuse) from the environment; any of them would
    // silently change what is measured. No other thread exists yet.
    let stripped: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("GPUCMP_"))
        .collect();
    for k in &stripped {
        std::env::remove_var(k);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run_cmd(&args[1..], &stripped),
        Some("sweep") => sweep::main(&args[1..]),
        _ => usage(),
    }
}

/// Parse `--flag value` pairs; `switches` name flags that take no value.
pub fn parse_flags(
    args: &[String],
    switches: &[&str],
) -> Result<std::collections::BTreeMap<String, String>, String> {
    let mut out = std::collections::BTreeMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(name) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument '{a}'"));
        };
        let value = if switches.contains(&name) {
            String::new()
        } else {
            it.next()
                .ok_or_else(|| format!("--{name} needs a value"))?
                .clone()
        };
        out.insert(name.to_string(), value);
    }
    Ok(out)
}

fn run_cmd(args: &[String], stripped: &[String]) -> ExitCode {
    let flags = match parse_flags(args, &["mutate"]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("gpucmp-perf: {e}");
            return usage();
        }
    };
    let known = [
        "workload", "seed", "seconds", "trace", "json", "spans", "mutate",
    ];
    if let Some(k) = flags.keys().find(|k| !known.contains(&k.as_str())) {
        eprintln!("gpucmp-perf: unknown flag --{k}");
        return usage();
    }
    let parsed = (|| -> Result<(String, Opts), String> {
        let workload = flags
            .get("workload")
            .ok_or("--workload is required")?
            .clone();
        if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload '{workload}'"));
        }
        let num = |k: &str, default: &str| -> Result<f64, String> {
            let v = flags.get(k).map_or(default, String::as_str);
            v.parse::<f64>()
                .ok()
                .filter(|x| x.is_finite() && *x >= 0.0)
                .ok_or_else(|| format!("--{k} {v} is not a non-negative number"))
        };
        let seed = flags.get("seed").map_or("1", String::as_str);
        let opts = Opts {
            seed: seed
                .parse()
                .map_err(|_| format!("--seed {seed} is not a u64"))?,
            seconds: num("seconds", "20")?,
            trace: match flags.get("trace").map_or("0", String::as_str) {
                "0" => false,
                "1" => true,
                t => return Err(format!("--trace takes 0 or 1, not '{t}'")),
            },
            mutate: flags.contains_key("mutate"),
        };
        Ok((workload, opts))
    })();
    let (workload, opts) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("gpucmp-perf: {e}");
            return usage();
        }
    };
    if workload == "all" {
        return run_all(args, &flags);
    }
    let m = match workload.as_str() {
        "campaign-paper" => campaign::run(&opts),
        "kernels-fresh" => kernels::run(&opts),
        "serve-steady" => serve::steady(&opts),
        _ => serve::churn(&opts),
    };
    report(&workload, &opts, m, stripped, &flags)
}

/// Run each workload in a child process of its own, so `peak_rss_mb` and
/// `setup_s` stay per workload.
fn run_all(args: &[String], flags: &std::collections::BTreeMap<String, String>) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("gpucmp-perf: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut worst = 0u8;
    let mut combined = Vec::new();
    for w in WORKLOADS {
        let mut child_args: Vec<String> = vec!["run".into()];
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--workload" | "--json" | "--spans" => {
                    it.next();
                }
                _ => child_args.push(a.clone()),
            }
        }
        child_args.extend(["--workload".to_string(), w.to_string()]);
        for (flag, key) in [("--json", "json"), ("--spans", "spans")] {
            if let Some(path) = flags.get(key) {
                child_args.extend([flag.to_string(), format!("{path}.{w}")]);
            }
        }
        let out = match std::process::Command::new(&exe).args(&child_args).output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("gpucmp-perf: cannot run {w}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let code = out.status.code().unwrap_or(1);
        worst = worst.max(u8::try_from(code).unwrap_or(1));
        let last = text
            .lines()
            .last()
            .and_then(|l| gpucmp_trace::parse(l).ok())
            .unwrap_or(Json::Null);
        combined.push((w.to_string(), last));
    }
    println!("{}", Json::Obj(combined).to_text());
    ExitCode::from(worst)
}

/// Restart this process's peak-resident-set mark (`VmHWM`) at its current
/// resident set, so the next reading covers only what runs after.
pub fn reset_peak_rss() {
    // Linux 4.0+; elsewhere the reading keeps covering the whole process.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process since the last reset, MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024.0 / metrics::MB)
}

/// Print the run's numbers and the contract line; write the optional
/// files; turn the verdict into the exit code.
fn report(
    workload: &str,
    opts: &Opts,
    mut m: Measured,
    stripped: &[String],
    flags: &std::collections::BTreeMap<String, String>,
) -> ExitCode {
    let probe = gpucmp_runtime::Session::new(gpucmp_sim::DeviceSpec::gtx480());
    let exec = probe.exec_options();
    drop(probe);
    println!(
        "gpucmp-perf: {workload} seed {} for {} s{}{}",
        opts.seed,
        opts.seconds,
        if opts.trace { ", traced" } else { "" },
        if opts.mutate { ", MUTATED" } else { "" }
    );
    println!(
        "exec options: tier {} sim threads {} memcheck {}; host threads {}; stripped env: {}",
        exec.tier.name(),
        exec.threads,
        exec.memcheck,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        if stripped.is_empty() {
            "none".to_string()
        } else {
            stripped.join(",")
        }
    );
    for n in &m.notes {
        println!("note: {n}");
    }

    // The smallest unit peak: a campaign repetition sometimes starts with
    // the previous one's freed memory still held by the allocator, and
    // then peaks ~40 % higher.
    let rss = if m.peak_rss_mb.is_empty() {
        m.problems
            .push("VmHWM unreadable from /proc/self/status".into());
        f64::NAN
    } else {
        m.peak_rss_mb.iter().copied().fold(f64::INFINITY, f64::min)
    };
    let ops = m.op_ms();
    let n = ops.len();
    let windows = m.windows.len();
    let (rate, p50) = if n == 0 {
        m.problems.push("no operation completed".into());
        (f64::NAN, f64::NAN)
    } else {
        (
            stats::window_rate(&m.windows),
            stats::window_p50(&m.windows),
        )
    };
    let setup = if m.setup_s.is_empty() {
        m.problems.push("no set-up completed".into());
        f64::NAN
    } else {
        stats::median(&m.setup_s)
    };
    let e2e = [
        (setup, format!("median of {} set-ups", m.setup_s.len())),
        (
            rate,
            format!(
                "upper quartile of {windows} windows; {n} ops in {:.3} s",
                m.wall_s
            ),
        ),
        (
            p50,
            format!("lower quartile of {windows} windows' p50; n={n}"),
        ),
        match stats::blocked_tail(&ops) {
            None => (
                p50,
                format!("n={n} is too few for a percentile with 10 beyond: the p50"),
            ),
            Some((t, 1)) => (
                t.value,
                format!("p{:.2} of n={n}, {} samples beyond", t.pct, t.beyond),
            ),
            Some((t, blocks)) => (
                t.value,
                format!(
                    "lower quartile of {blocks} blocks' p99 (>= {} ops each); n={n}",
                    stats::TAIL_BLOCK
                ),
            ),
        },
        (
            rss,
            format!("smallest VmHWM of {} measured units", m.peak_rss_mb.len()),
        ),
    ];
    for ((name, unit), (v, how)) in metrics::END_TO_END.iter().zip(&e2e) {
        println!("{name:<14} {v:>14.4} {unit:<5} ({how})");
    }
    if !m.table.is_empty() {
        print!("{}", m.table);
    }
    println!("digest {}", m.digest);
    for p in &m.problems {
        println!("FAIL: {p}");
    }
    let correct = m.failed == 0 && m.problems.is_empty() && m.attempted > 0;
    println!(
        "verdict: {} ({} attempted, {} failed, fail_frac {:.6})",
        if correct { "correct" } else { "WRONG" },
        m.attempted,
        m.failed,
        m.failed as f64 / m.attempted.max(1) as f64
    );

    let reported: Vec<(String, f64, &str)> = match &m.layers {
        Some(l) => l.values(),
        None => metrics::END_TO_END
            .iter()
            .zip(&e2e)
            .map(|(&(n, u), (v, _))| (n.to_string(), *v, u))
            .collect(),
    };
    let metric_obj = |rows: &[(String, f64, &str)]| {
        Json::Obj(
            rows.iter()
                .map(|(n, v, u)| {
                    (
                        n.clone(),
                        Json::obj([("value", Json::Num(*v)), ("unit", Json::from(*u))]),
                    )
                })
                .collect(),
        )
    };
    let detail = Json::obj([
        ("workload", Json::from(workload)),
        ("seed", Json::from(opts.seed)),
        ("seconds", Json::Num(opts.seconds)),
        ("trace", Json::from(opts.trace)),
        ("mutate", Json::from(opts.mutate)),
        (
            "exec",
            Json::obj([
                ("tier", Json::from(exec.tier.name())),
                ("sim_threads", Json::from(exec.threads as u64)),
                ("memcheck", Json::from(exec.memcheck)),
            ]),
        ),
        (
            "stripped_env",
            Json::Arr(stripped.iter().map(|s| Json::from(s.as_str())).collect()),
        ),
        ("correct", Json::from(correct)),
        ("attempted", Json::from(m.attempted)),
        ("failed", Json::from(m.failed)),
        (
            "problems",
            Json::Arr(m.problems.iter().map(|s| Json::from(s.as_str())).collect()),
        ),
        ("digest", Json::from(m.digest.as_str())),
        ("ops", Json::from(n as u64)),
        ("windows", Json::from(windows as u64)),
        ("wall_s", Json::Num(m.wall_s)),
        (
            "how",
            Json::Obj(
                metrics::END_TO_END
                    .iter()
                    .zip(&e2e)
                    .map(|((name, _), (_, how))| (name.to_string(), Json::from(how.as_str())))
                    .collect(),
            ),
        ),
        (
            "setup_samples_s",
            Json::Arr(m.setup_s.iter().map(|&s| Json::Num(s)).collect()),
        ),
        ("metrics", metric_obj(&reported)),
    ]);
    println!("detail {}", detail.to_text());
    if let Some(path) = flags.get("json") {
        if let Err(e) = std::fs::write(path, detail.to_text()) {
            eprintln!("gpucmp-perf: writing {path}: {e}");
        }
    }
    if let Some(path) = flags.get("spans") {
        if let Err(e) = std::fs::write(path, spans::to_json(&m.spans, 200_000).to_text()) {
            eprintln!("gpucmp-perf: writing {path}: {e}");
        }
    }
    let contract = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(m.attempted)),
        ("failed", Json::from(m.failed)),
        ("metrics", metric_obj(&reported)),
    ]);
    println!("{}", contract.to_text());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
