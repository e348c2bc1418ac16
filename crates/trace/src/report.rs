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

/// Report schema version; bump on breaking layout changes. Version 2
/// added per-run fault status (`status`/`fault`/`attempts`) for graceful
/// campaign degradation; version 3 added incremental-campaign support
/// (`input_hash`/`cached` per run) so unchanged cells can be reused from
/// a previous report; version 4 added the optional `sim_speed` matrix
/// (host wall-clock per execution tier). Older documents still parse
/// (status defaults to `"ok"`, `input_hash` to empty, `cached` to false,
/// `sim_speed` to empty).
pub const SCHEMA_VERSION: i64 = 4;
/// Oldest schema version [`BenchReport::from_text`] still accepts.
pub const MIN_SCHEMA_VERSION: i64 = 1;

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
    /// Hex fingerprint of everything that determines this cell's numbers
    /// (benchmark, device, API, scale, fault settings, model revision).
    /// Empty in pre-v3 reports — such rows never match a cache lookup.
    pub input_hash: String,
    /// Whether this row was reused from a previous report (same
    /// `input_hash`) instead of being re-executed.
    pub cached: bool,
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

/// Host wall-clock of one benchmark simulated under each execution tier
/// (interpreter / decoded). The simulated reports are bit-identical
/// across tiers; only the host time to produce them moves.
#[derive(Clone, Debug)]
pub struct SimSpeed {
    /// Benchmark name.
    pub bench: String,
    /// Host execution+merge time under the interpreter tier, ns.
    pub interp_ns: u64,
    /// Host execution+merge time under the decoded tier, ns.
    pub decoded_ns: u64,
}

impl SimSpeed {
    /// Interpreter / decoded host wall-clock ratio.
    pub fn decoded_speedup(&self) -> f64 {
        self.interp_ns as f64 / (self.decoded_ns.max(1)) as f64
    }
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
    /// Host-side tier speed matrix (schema v4, optional — empty when the
    /// campaign did not measure simulator speed).
    pub sim_speed: Vec<SimSpeed>,
}

impl BenchReport {
    /// Whether any run was fault-skipped: the report is *partial but
    /// valid* — the gate downgrades missing data caused by faults to a
    /// warning instead of a regression.
    pub fn is_partial(&self) -> bool {
        self.runs.iter().any(|r| !r.is_ok())
    }

    /// Number of runs reused from a previous report's cache.
    pub fn cache_hits(&self) -> usize {
        self.runs.iter().filter(|r| r.cached).count()
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
                    ("input_hash", r.input_hash.as_str().into()),
                    ("cached", r.cached.into()),
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
        let sim_speed = self
            .sim_speed
            .iter()
            .map(|s| {
                Json::obj([
                    ("bench", s.bench.as_str().into()),
                    ("interp_ns", s.interp_ns.into()),
                    ("decoded_ns", s.decoded_ns.into()),
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
            ("sim_speed", Json::Arr(sim_speed)),
        ])
    }

    /// Serialise to JSON text.
    pub fn to_text(&self) -> String {
        self.to_json().to_text()
    }

    /// Parse back from JSON text (the gate's entry point).
    pub fn from_text(text: &str) -> Result<BenchReport, JsonError> {
        let doc = parse(text)?;
        let bad = |msg: &str| JsonError {
            msg: msg.to_string(),
            at: 0,
        };
        let schema = doc
            .get("schema")
            .and_then(Json::as_i64)
            .ok_or_else(|| bad("missing schema"))?;
        if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&schema) {
            return Err(bad(&format!("unsupported schema version {schema}")));
        }
        let scale = doc
            .get("scale")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        let fault_seed = doc
            .get("fault_seed")
            .and_then(Json::as_f64)
            .map(|v| v as u64);
        let mut runs = Vec::new();
        for r in doc
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing runs"))?
        {
            let field_str = |k: &str| {
                r.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| bad(&format!("run missing '{k}'")))
            };
            let field_num = |k: &str| {
                r.get(k)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| bad(&format!("run missing '{k}'")))
            };
            let mut counters = CounterSet::new();
            if let Some(Json::Obj(members)) = r.get("counters") {
                for (n, v) in members {
                    counters.push(n.clone(), v.as_f64().unwrap_or(0.0));
                }
            }
            runs.push(BenchRun {
                bench: field_str("bench")?,
                device: field_str("device")?,
                api: field_str("api")?,
                value: field_num("value")?,
                unit: field_str("unit")?,
                verified: r.get("verified").and_then(Json::as_bool).unwrap_or(false),
                wall_ns: field_num("wall_ns")?,
                kernel_ns: field_num("kernel_ns")?,
                launches: field_num("launches")? as u64,
                sim_cycles: field_num("sim_cycles")?,
                counters,
                // schema-1 reports predate fault status: every row is ok
                status: r
                    .get("status")
                    .and_then(Json::as_str)
                    .unwrap_or(RUN_OK)
                    .to_string(),
                fault: r.get("fault").and_then(Json::as_str).map(str::to_string),
                attempts: r.get("attempts").and_then(Json::as_f64).unwrap_or(1.0) as u32,
                // schema-1/2 reports predate incremental campaigns: no
                // fingerprint (never cache-matches), not cached
                input_hash: r
                    .get("input_hash")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                cached: r.get("cached").and_then(Json::as_bool).unwrap_or(false),
            });
        }
        let mut prs = Vec::new();
        for p in doc
            .get("prs")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing prs"))?
        {
            prs.push(PrEntry {
                bench: p
                    .get("bench")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("pr missing 'bench'"))?
                    .to_string(),
                device: p
                    .get("device")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("pr missing 'device'"))?
                    .to_string(),
                pr: p
                    .get("pr")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| bad("pr missing 'pr'"))?,
                dominant_counter: p
                    .get("dominant_counter")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            });
        }
        // pre-v4 reports predate the tier speed matrix: empty. Rows written
        // while a third tier existed also carry `fused_ns`, which is ignored.
        let mut sim_speed = Vec::new();
        if let Some(entries) = doc.get("sim_speed").and_then(Json::as_arr) {
            for s in entries {
                let num = |k: &str| s.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
                sim_speed.push(SimSpeed {
                    bench: s
                        .get("bench")
                        .and_then(Json::as_str)
                        .ok_or_else(|| bad("sim_speed missing 'bench'"))?
                        .to_string(),
                    interp_ns: num("interp_ns"),
                    decoded_ns: num("decoded_ns"),
                });
            }
        }
        Ok(BenchReport {
            scale,
            fault_seed,
            runs,
            prs,
            sim_speed,
        })
    }
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
                input_hash: "00f1e2d3c4b5a697".into(),
                cached: true,
            }],
            prs: vec![PrEntry {
                bench: "BFS".into(),
                device: "GTX280".into(),
                pr: 0.63,
                dominant_counter: "launch_overhead_ns".into(),
            }],
            sim_speed: vec![SimSpeed {
                bench: "BFS".into(),
                interp_ns: 9_000_000,
                decoded_ns: 3_000_000,
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
        assert_eq!(run.input_hash, "00f1e2d3c4b5a697");
        assert!(run.cached);
        assert_eq!(parsed.cache_hits(), 1);
        assert_eq!(parsed.sim_speed.len(), 1);
        assert_eq!(parsed.sim_speed[0].bench, "BFS");
        assert_eq!(parsed.sim_speed[0].interp_ns, 9_000_000);
        assert_eq!(parsed.sim_speed[0].decoded_ns, 3_000_000);
        assert!((parsed.sim_speed[0].decoded_speedup() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn v4_reports_with_a_fused_column_still_parse() {
        let text = r#"{"schema":4,"scale":"quick","fault_seed":null,
            "runs":[],"prs":[],
            "sim_speed":[{"bench":"MxM","interp_ns":9000000,
                          "decoded_ns":6000000,"fused_ns":3000000}]}"#;
        let parsed = BenchReport::from_text(text).unwrap();
        assert_eq!(parsed.sim_speed.len(), 1);
        assert_eq!(parsed.sim_speed[0].bench, "MxM");
        assert_eq!(parsed.sim_speed[0].interp_ns, 9_000_000);
        assert_eq!(parsed.sim_speed[0].decoded_ns, 6_000_000);
        // Written back, the report carries no fused column.
        assert!(!parsed.to_text().contains("fused_ns"));
    }

    #[test]
    fn pre_v4_reports_parse_with_empty_sim_speed() {
        let text = r#"{"schema":3,"scale":"quick","fault_seed":null,
            "runs":[],"prs":[]}"#;
        let parsed = BenchReport::from_text(text).unwrap();
        assert!(parsed.sim_speed.is_empty());
    }

    #[test]
    fn wrong_schema_is_rejected() {
        assert!(BenchReport::from_text("{\"schema\":99,\"runs\":[],\"prs\":[]}").is_err());
        assert!(BenchReport::from_text("not json").is_err());
    }

    #[test]
    fn pre_v3_reports_parse_with_empty_cache_fields() {
        let text = r#"{"schema":2,"scale":"quick","fault_seed":null,
            "runs":[{"bench":"MxM","device":"GTX480","api":"CUDA",
                     "value":1.5,"unit":"GFlops/s","verified":true,
                     "wall_ns":1e6,"kernel_ns":9e5,"launches":1,
                     "sim_cycles":1e5,"status":"ok","fault":null,
                     "attempts":1,"counters":{}}],
            "prs":[]}"#;
        let parsed = BenchReport::from_text(text).unwrap();
        let run = parsed.run("MxM", "GTX480", "CUDA").unwrap();
        assert_eq!(run.input_hash, "");
        assert!(!run.cached);
        assert_eq!(parsed.cache_hits(), 0);
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
