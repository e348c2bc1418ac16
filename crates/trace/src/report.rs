//! The machine-readable bench report (`BENCH_<timestamp>.json`).
//!
//! One [`BenchRun`] per (benchmark, device, API) triple carrying the
//! measured metric, virtual times, and the full per-run counter set; one
//! [`PrEntry`] per (benchmark, device) pair carrying the paper's PR
//! (Eq. 1) plus the *dominant counter* — the counter whose CUDA/OpenCL
//! divergence best explains the PR deviation. The CI gate
//! (`crates/bench/src/gate.rs`) parses this file and fails the build when
//! a paper-shape invariant regresses.

use crate::json::{parse, Json, JsonError};
use gpucmp_sim::CounterSet;

/// Report schema version. [`BenchReport::from_text`] accepts this version
/// only, with every field present: a report is read back by the build
/// that wrote it, never by a later one.
pub const SCHEMA_VERSION: i64 = 5;

/// [`BenchRun::status`] of a run that completed and verified.
pub const RUN_OK: &str = "ok";
/// [`BenchRun::status`] of a run skipped after exhausting its fault
/// retries (the fault text is in [`BenchRun::fault`]).
pub const RUN_FAULT_SKIPPED: &str = "fault-skipped";

/// One benchmark execution on one device through one API.
#[derive(Clone, Debug)]
pub struct BenchRun {
    /// Benchmark name (paper Table II).
    pub bench: String,
    /// Device name (paper Table IV).
    pub device: String,
    /// API name (`"CUDA"` / `"OpenCL"`).
    pub api: String,
    /// Metric value in `unit`.
    pub value: f64,
    /// Metric unit.
    pub unit: String,
    /// Device output matched the CPU reference.
    pub verified: bool,
    /// Virtual wall time of the measured window, ns.
    pub wall_ns: f64,
    /// In-kernel virtual time, ns.
    pub kernel_ns: f64,
    /// Kernel launches in the window.
    pub launches: u64,
    /// Simulated issue cycles (the "sim-cycles" of the run).
    pub sim_cycles: f64,
    /// Full flat counter set of the merged run.
    pub counters: CounterSet,
    /// Run outcome: [`RUN_OK`] or [`RUN_FAULT_SKIPPED`].
    pub status: String,
    /// Description of the final fault, for skipped runs.
    pub fault: Option<String>,
    /// Attempts consumed (1 = first try succeeded; >1 = bounded retry
    /// recovered or, for skipped runs, every retry failed).
    pub attempts: u32,
}

impl BenchRun {
    /// Whether this run completed (vs. being fault-skipped).
    pub fn is_ok(&self) -> bool {
        self.status == RUN_OK
    }
}

/// The PR of one benchmark on one device, with attribution.
#[derive(Clone, Debug)]
pub struct PrEntry {
    /// Benchmark name.
    pub bench: String,
    /// Device name.
    pub device: String,
    /// PR = Perf_OpenCL / Perf_CUDA (Eq. 1).
    pub pr: f64,
    /// The counter that diverges most between the two APIs' runs — the
    /// machine-derived version of EXPERIMENTS.md's prose attributions.
    pub dominant_counter: String,
}

/// A whole benchmark campaign, serialisable to/from `BENCH_*.json`.
#[derive(Clone, Debug, Default)]
pub struct BenchReport {
    /// Problem-size scale the campaign ran at (`"quick"` / `"paper"`).
    pub scale: String,
    /// Seed of the fault-injection plan the campaign ran under, if any.
    /// The gate only *accepts* fault-skipped runs when this is set: a
    /// skip without a declared injection campaign is a regression.
    pub fault_seed: Option<u64>,
    /// Per-run rows.
    pub runs: Vec<BenchRun>,
    /// Per-(bench, device) PR rows.
    pub prs: Vec<PrEntry>,
}

impl BenchReport {
    /// Whether any run was fault-skipped: the report is *partial but
    /// valid* — the gate downgrades missing data caused by faults to a
    /// warning instead of a regression.
    pub fn is_partial(&self) -> bool {
        self.runs.iter().any(|r| !r.is_ok())
    }

    /// Find a run.
    pub fn run(&self, bench: &str, device: &str, api: &str) -> Option<&BenchRun> {
        self.runs
            .iter()
            .find(|r| r.bench == bench && r.device == device && r.api == api)
    }

    /// Find a PR entry.
    pub fn pr(&self, bench: &str, device: &str) -> Option<&PrEntry> {
        self.prs
            .iter()
            .find(|p| p.bench == bench && p.device == device)
    }

    /// Serialise to a JSON document.
    pub fn to_json(&self) -> Json {
        let runs = self
            .runs
            .iter()
            .map(|r| {
                Json::obj([
                    ("bench", r.bench.as_str().into()),
                    ("device", r.device.as_str().into()),
                    ("api", r.api.as_str().into()),
                    ("value", Json::Num(r.value)),
                    ("unit", r.unit.as_str().into()),
                    ("verified", r.verified.into()),
                    ("wall_ns", Json::Num(r.wall_ns)),
                    ("kernel_ns", Json::Num(r.kernel_ns)),
                    ("launches", r.launches.into()),
                    ("sim_cycles", Json::Num(r.sim_cycles)),
                    ("status", r.status.as_str().into()),
                    (
                        "fault",
                        match &r.fault {
                            Some(fx) => fx.as_str().into(),
                            None => Json::Null,
                        },
                    ),
                    ("attempts", (r.attempts as u64).into()),
                    (
                        "counters",
                        Json::Obj(
                            r.counters
                                .iter()
                                .map(|(n, v)| (n.to_string(), Json::Num(v)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let prs = self
            .prs
            .iter()
            .map(|p| {
                Json::obj([
                    ("bench", p.bench.as_str().into()),
                    ("device", p.device.as_str().into()),
                    ("pr", Json::Num(p.pr)),
                    ("dominant_counter", p.dominant_counter.as_str().into()),
                ])
            })
            .collect();
        Json::obj([
            ("schema", Json::Int(SCHEMA_VERSION)),
            ("scale", self.scale.as_str().into()),
            (
                "fault_seed",
                match self.fault_seed {
                    Some(seed) => seed.into(),
                    None => Json::Null,
                },
            ),
            ("runs", Json::Arr(runs)),
            ("prs", Json::Arr(prs)),
        ])
    }

    /// Serialise to JSON text.
    pub fn to_text(&self) -> String {
        self.to_json().to_text()
    }

    /// Parse back from JSON text (the gate's entry point).
    pub fn from_text(text: &str) -> Result<BenchReport, JsonError> {
        let doc = parse(text)?;
        let schema = member(&doc, "schema")?.as_i64();
        if schema != Some(SCHEMA_VERSION) {
            return Err(bad(format!(
                "unsupported schema version {schema:?}, want {SCHEMA_VERSION}"
            )));
        }
        let fault_seed = match member(&doc, "fault_seed")? {
            Json::Null => None,
            _ => Some(number(&doc, "fault_seed")? as u64),
        };
        let mut runs = Vec::new();
        for r in array(&doc, "runs")? {
            let Json::Obj(members) = member(r, "counters")? else {
                return Err(bad("run 'counters' is not an object".into()));
            };
            let mut counters = CounterSet::new();
            for (n, v) in members {
                counters.push(n.clone(), v.as_f64().unwrap_or(0.0));
            }
            runs.push(BenchRun {
                bench: string(r, "bench")?,
                device: string(r, "device")?,
                api: string(r, "api")?,
                value: number(r, "value")?,
                unit: string(r, "unit")?,
                verified: member(r, "verified")?
                    .as_bool()
                    .ok_or_else(|| bad("bad 'verified'".into()))?,
                wall_ns: number(r, "wall_ns")?,
                kernel_ns: number(r, "kernel_ns")?,
                launches: number(r, "launches")? as u64,
                sim_cycles: number(r, "sim_cycles")?,
                counters,
                status: string(r, "status")?,
                fault: match member(r, "fault")? {
                    Json::Null => None,
                    _ => Some(string(r, "fault")?),
                },
                attempts: number(r, "attempts")? as u32,
            });
        }
        let mut prs = Vec::new();
        for p in array(&doc, "prs")? {
            prs.push(PrEntry {
                bench: string(p, "bench")?,
                device: string(p, "device")?,
                pr: number(p, "pr")?,
                dominant_counter: string(p, "dominant_counter")?,
            });
        }
        Ok(BenchReport {
            scale: string(&doc, "scale")?,
            fault_seed,
            runs,
            prs,
        })
    }
}

fn bad(msg: String) -> JsonError {
    JsonError { msg, at: 0 }
}

/// Member `key` of the object `obj`, which every report must carry.
fn member<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, JsonError> {
    obj.get(key).ok_or_else(|| bad(format!("missing '{key}'")))
}

fn string(obj: &Json, key: &str) -> Result<String, JsonError> {
    member(obj, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| bad(format!("'{key}' is not a string")))
}

fn number(obj: &Json, key: &str) -> Result<f64, JsonError> {
    member(obj, key)?
        .as_f64()
        .ok_or_else(|| bad(format!("'{key}' is not a number")))
}

fn array<'a>(obj: &'a Json, key: &str) -> Result<&'a [Json], JsonError> {
    member(obj, key)?
        .as_arr()
        .ok_or_else(|| bad(format!("'{key}' is not an array")))
}

/// Pick the counter that best explains a CUDA-vs-OpenCL performance gap:
/// the candidate with the largest absolute log-ratio between the two
/// runs' values. `launch_overhead_ns` (wall minus kernel time) enters the
/// comparison as a pseudo-counter, which is what attributes BFS-like
/// many-small-launch benchmarks to API submit cost.
pub fn dominant_counter(
    cuda: &CounterSet,
    cuda_wall_ns: f64,
    cuda_kernel_ns: f64,
    opencl: &CounterSet,
    opencl_wall_ns: f64,
    opencl_kernel_ns: f64,
) -> String {
    // Attribution vocabulary: counters that *cause* time, not the time
    // terms themselves.
    const CANDIDATES: &[&str] = &[
        "issue_cycles",
        "gmem_transactions",
        "dram_read_bytes",
        "dram_write_bytes",
        "max_partition_bytes",
        "l2_touched_bytes",
        "shared_cycles",
        "shared_conflict_cycles",
        "const_serializations",
        "const_misses",
        "tex_misses",
        "l1_misses",
        "l2_misses",
        "divergent_branches",
        "warp_instructions",
    ];
    let mut best = ("comparable", 0.0f64);
    let mut consider = |name: &'static str, c: f64, o: f64| {
        // Ignore counters absent on both sides; a one-sided zero is a
        // strong signal (e.g. texture use only in the CUDA dialect).
        if c <= 0.0 && o <= 0.0 {
            return;
        }
        let score = ((o.max(1e-9)) / (c.max(1e-9))).ln().abs();
        if score > best.1 {
            best = (name, score);
        }
    };
    for &name in CANDIDATES {
        consider(
            name,
            cuda.get(name).unwrap_or(0.0),
            opencl.get(name).unwrap_or(0.0),
        );
    }
    // The submit-cost constants differ ~6x between the APIs, so the raw
    // overhead ratio would win whenever no hardware counter diverges
    // harder. Only let it compete when overhead is actually a material
    // share of someone's wall time (BFS-like many-small-launch runs).
    let c_over = (cuda_wall_ns - cuda_kernel_ns).max(0.0);
    let o_over = (opencl_wall_ns - opencl_kernel_ns).max(0.0);
    let over_share = (c_over / cuda_wall_ns.max(1.0)).max(o_over / opencl_wall_ns.max(1.0));
    if over_share >= 0.10 {
        consider("launch_overhead_ns", c_over, o_over);
    }
    // Under ~5 % divergence on every axis the runs are equivalent.
    if best.1 < 0.05 {
        return "comparable".to_string();
    }
    best.0.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(pairs: &[(&'static str, f64)]) -> CounterSet {
        let mut c = CounterSet::new();
        for &(n, v) in pairs {
            c.push(n, v);
        }
        c
    }

    #[test]
    fn report_round_trips() {
        let report = BenchReport {
            scale: "quick".into(),
            fault_seed: Some(7),
            runs: vec![BenchRun {
                bench: "BFS".into(),
                device: "GTX280".into(),
                api: "OpenCL".into(),
                value: 0.125,
                unit: "sec".into(),
                verified: true,
                wall_ns: 2e9,
                kernel_ns: 1.5e9,
                launches: 120,
                sim_cycles: 3.5e8,
                counters: set(&[("gmem_transactions", 1024.0), ("l1_hit_rate", 0.75)]),
                status: RUN_OK.to_string(),
                fault: None,
                attempts: 1,
            }],
            prs: vec![PrEntry {
                bench: "BFS".into(),
                device: "GTX280".into(),
                pr: 0.63,
                dominant_counter: "launch_overhead_ns".into(),
            }],
        };
        let parsed = BenchReport::from_text(&report.to_text()).unwrap();
        assert_eq!(parsed.scale, "quick");
        assert_eq!(parsed.fault_seed, Some(7));
        assert!(!parsed.is_partial());
        let run = parsed.run("BFS", "GTX280", "OpenCL").unwrap();
        assert!(run.is_ok());
        assert_eq!(run.attempts, 1);
        assert_eq!(run.launches, 120);
        assert_eq!(run.counters.get("gmem_transactions"), Some(1024.0));
        assert_eq!(run.counters.get("l1_hit_rate"), Some(0.75));
        let pr = parsed.pr("BFS", "GTX280").unwrap();
        assert_eq!(pr.pr, 0.63);
        assert_eq!(pr.dominant_counter, "launch_overhead_ns");
        // Written back, the parsed report is the same text.
        assert_eq!(parsed.to_text(), report.to_text());
    }

    #[test]
    fn wrong_schema_is_rejected() {
        assert!(BenchReport::from_text("{\"schema\":99,\"runs\":[],\"prs\":[]}").is_err());
        assert!(BenchReport::from_text("not json").is_err());
        // Only the current schema parses, and only with every field.
        let doc = |schema: i64, attempts: &str| {
            format!(
                r#"{{"schema":{schema},"scale":"quick","fault_seed":null,
                "runs":[{{"bench":"MxM","device":"GTX480","api":"CUDA",
                         "value":1.5,"unit":"GFlops/s","verified":true,
                         "wall_ns":1e6,"kernel_ns":9e5,"launches":1,
                         "sim_cycles":1e5,"status":"ok","fault":null,
                         {attempts}"counters":{{}}}}],
                "prs":[]}}"#
            )
        };
        assert!(BenchReport::from_text(&doc(SCHEMA_VERSION, r#""attempts":1,"#)).is_ok());
        assert!(BenchReport::from_text(&doc(SCHEMA_VERSION - 1, r#""attempts":1,"#)).is_err());
        let err = BenchReport::from_text(&doc(SCHEMA_VERSION, "")).unwrap_err();
        assert!(err.msg.contains("'attempts'"), "{}", err.msg);
    }

    #[test]
    fn launch_overhead_dominates_when_overheads_diverge() {
        let c = set(&[("issue_cycles", 1000.0)]);
        let o = set(&[("issue_cycles", 1000.0)]);
        let name = dominant_counter(&c, 1.1e6, 1.0e6, &o, 2.0e6, 1.0e6);
        assert_eq!(name, "launch_overhead_ns");
    }

    #[test]
    fn negligible_overhead_never_wins_attribution() {
        // Overhead still differs 6x, but it is under 1 % of wall time on
        // both sides; the instruction-count gap is the real story.
        let c = set(&[("issue_cycles", 1000.0)]);
        let o = set(&[("issue_cycles", 1400.0)]);
        let name = dominant_counter(&c, 1.001e9, 1.0e9, &o, 1.406e9, 1.4e9);
        assert_eq!(name, "issue_cycles");
    }

    #[test]
    fn equivalent_runs_are_comparable() {
        let c = set(&[("issue_cycles", 1000.0), ("gmem_transactions", 50.0)]);
        let o = set(&[("issue_cycles", 1010.0), ("gmem_transactions", 50.0)]);
        let name = dominant_counter(&c, 1.0e6, 0.9e6, &o, 1.01e6, 0.91e6);
        assert_eq!(name, "comparable");
    }
}
