//! The full profiled benchmark campaign behind `BENCH_<timestamp>.json`.
//!
//! Runs all 16 benchmarks (Table II real-world + the two synthetic peaks)
//! plus the three explicit-stream variants (BFS, MxM, FDTD with
//! overlapped transfers) and the two fuzz-corpus micro-workloads
//! (AtomHist, SharedRot) on both NVIDIA devices through both APIs — 84
//! runs — collecting the per-run hardware-counter sets, then derives the
//! per-(benchmark, device) PRs with a machine-attributed *dominant
//! counter* (the profiling analogue of the paper's Section IV prose
//! explanations).
//!
//! The campaign degrades gracefully: every (benchmark, device, API)
//! triple runs in isolation (a panic or a device fault in one cannot take
//! down the rest), with a bounded retry, and a run that still fails is
//! recorded in the report as `fault-skipped` with the fault text instead
//! of silently disappearing. Under a seeded [`FaultPlan`] campaign
//! (`CampaignOptions::fault_seed`) roughly a third of the triples are
//! deliberately broken on their first attempt and recover on retry — or
//! don't, and land in the report as skips the CI gate can tell apart from
//! regressions.

use crate::experiments::{run_cuda_with, run_opencl_with};
use crate::pool;
use crate::pr::Pr;
use gpucmp_benchmarks::{Scale, Verify};
use gpucmp_runtime::FaultPlan;
use gpucmp_sim::DeviceSpec;
use gpucmp_trace::{dominant_counter, BenchReport, BenchRun, PrEntry, RUN_FAULT_SKIPPED, RUN_OK};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Device names the campaign covers (the paper's CUDA-capable pair).
pub const CAMPAIGN_DEVICES: [&str; 2] = ["GTX280", "GTX480"];

/// Revision of everything upstream of a campaign cell's numbers — the
/// timing model, the benchmark sources, the compiler. Bump whenever a
/// change can move any cell's output so stale rows stop cache-matching.
pub const CAMPAIGN_MODEL_REV: u32 = 1;

/// FNV-1a 64 of the quick campaign's report text at this
/// [`CAMPAIGN_MODEL_REV`]. A test pins it, so a change that moves any
/// simulated number, counter or attribution fails tier-1 until the revision
/// is bumped and EXPERIMENTS.md says why.
#[cfg(test)]
const QUICK_REPORT_FNV: u64 = 0xdd23_18fd_ab14_f350;

/// How the campaign runs: problem scale, optional seeded fault
/// injection, the per-triple retry budget, an optional result cache, and
/// an optional shard of the run matrix.
#[derive(Clone, Debug)]
pub struct CampaignOptions {
    /// Problem-size scale for every benchmark.
    pub scale: Scale,
    /// Seed for deterministic fault injection. `None` disables
    /// injection; `Some(seed)` gives each (benchmark, device, API)
    /// triple the plan [`FaultPlan::for_case`] derives for it.
    pub fault_seed: Option<u64>,
    /// Attempts per triple before it is recorded as fault-skipped
    /// (clamped to at least 1).
    pub max_attempts: u32,
    /// A previous campaign's report: any cell whose
    /// [`input_fingerprint`] matches a healthy row in it is reused
    /// (marked `cached`) instead of re-executed. Ignored under fault
    /// injection — an injection campaign must actually inject.
    pub cache_from: Option<BenchReport>,
    /// Run only the triples with `index % shards == shard` (as
    /// `(shard, shards)`); merge the partial reports with
    /// [`merge_reports`]. `None` runs everything.
    pub shard: Option<(u32, u32)>,
}

impl CampaignOptions {
    /// Fault-free campaign at `scale` with one retry.
    pub fn new(scale: Scale) -> Self {
        CampaignOptions {
            scale,
            fault_seed: None,
            max_attempts: 2,
            cache_from: None,
            shard: None,
        }
    }

    /// Like [`CampaignOptions::new`], but reads the environment:
    ///
    /// - `GPUCMP_FAULT_SEED` — enable a seeded fault-injection campaign;
    /// - `GPUCMP_FAULT_ATTEMPTS` — override the retry budget (`1` makes
    ///   every injected fault unrecoverable, exercising the
    ///   partial-report path end to end);
    /// - `GPUCMP_CACHE_FROM` — path of a previous `BENCH_*.json` to reuse
    ///   unchanged cells from (unreadable/invalid files just disable the
    ///   cache);
    /// - `GPUCMP_SHARD` — `"i/n"` runs shard `i` of `n` (0-based).
    pub fn from_env(scale: Scale) -> Self {
        let parse = |var: &str| {
            std::env::var(var)
                .ok()
                .and_then(|v| v.trim().parse::<u64>().ok())
        };
        let mut opts = CampaignOptions::new(scale);
        opts.fault_seed = parse("GPUCMP_FAULT_SEED");
        if let Some(n) = parse("GPUCMP_FAULT_ATTEMPTS") {
            opts.max_attempts = n.clamp(1, 16) as u32;
        }
        opts.cache_from = std::env::var("GPUCMP_CACHE_FROM")
            .ok()
            .and_then(|path| std::fs::read_to_string(path).ok())
            .and_then(|text| BenchReport::from_text(&text).ok());
        opts.shard = std::env::var("GPUCMP_SHARD").ok().and_then(|s| {
            let (i, n) = s.trim().split_once('/')?;
            let (i, n) = (i.parse::<u32>().ok()?, n.parse::<u32>().ok()?);
            (n > 0 && i < n).then_some((i, n))
        });
        opts
    }
}

/// Fingerprint of everything that determines one campaign cell's
/// numbers: the cell coordinates, the problem scale, the fault-injection
/// settings, and [`CAMPAIGN_MODEL_REV`]. FNV-1a 64, rendered as 16 hex
/// digits. Two campaigns produce the same fingerprint for a cell exactly
/// when re-running it would reproduce the same row.
pub fn input_fingerprint(opts: &CampaignOptions, bench: &str, device: &str, api: &str) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    eat(&CAMPAIGN_MODEL_REV.to_le_bytes());
    for part in [
        match opts.scale {
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        },
        bench,
        device,
        api,
    ] {
        eat(part.as_bytes());
        eat(b"|");
    }
    match opts.fault_seed {
        Some(seed) => {
            eat(&seed.to_le_bytes());
            eat(&opts.max_attempts.max(1).to_le_bytes());
        }
        None => eat(b"no-faults"),
    }
    format!("{h:016x}")
}

pub(crate) fn all_benchmarks(scale: Scale) -> Vec<Box<dyn gpucmp_benchmarks::Benchmark>> {
    let mut v = gpucmp_benchmarks::real_world(scale);
    v.extend(gpucmp_benchmarks::synthetic(scale));
    v.extend(gpucmp_benchmarks::streamed_variants(scale));
    v.extend(gpucmp_benchmarks::micro_workloads(scale));
    v
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = p.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

/// One isolated, retried run of a (benchmark, device, API) triple.
///
/// A panic, a runtime error, or a failed output verification all count
/// as a failed attempt; after `max_attempts` the triple is reported as
/// [`RUN_FAULT_SKIPPED`] with the last failure's text and zeroed
/// metrics, never aborting the campaign.
fn run_one(opts: &CampaignOptions, i: usize, dev_name: &str, api: &str) -> BenchRun {
    let bench_name = all_benchmarks(opts.scale)[i].name().to_string();
    let case = format!("{bench_name}/{dev_name}/{api}");
    let attempts_cap = opts.max_attempts.max(1);
    let mut last_fault = String::new();
    for attempt in 0..attempts_cap {
        let plan = opts
            .fault_seed
            .map(|seed| FaultPlan::for_case(seed, &case, attempt));
        let result = catch_unwind(AssertUnwindSafe(|| {
            let bench = &all_benchmarks(opts.scale)[i];
            let device = DeviceSpec::by_name(dev_name).unwrap();
            if api == "CUDA" {
                run_cuda_with(bench.as_ref(), &device, plan.clone())
            } else {
                run_opencl_with(bench.as_ref(), &device, plan.clone())
            }
        }));
        match result {
            Ok(Ok(out)) if out.verify.is_pass() => {
                let device = DeviceSpec::by_name(dev_name).unwrap();
                let counters = out.stats.counter_set(device.warp_width);
                let sim_cycles = counters.get("issue_cycles").unwrap_or(0.0);
                return BenchRun {
                    bench: bench_name,
                    device: dev_name.to_string(),
                    api: api.to_string(),
                    value: out.value,
                    unit: out.metric.unit().to_string(),
                    verified: true,
                    wall_ns: out.wall_ns,
                    kernel_ns: out.kernel_ns,
                    launches: out.launches,
                    sim_cycles,
                    counters,
                    status: RUN_OK.to_string(),
                    fault: None,
                    attempts: attempt + 1,
                    input_hash: String::new(), // stamped by bench_report_with
                    cached: false,
                };
            }
            Ok(Ok(out)) => {
                last_fault = match &out.verify {
                    Verify::Fail(msg) => format!("output verification failed: {msg}"),
                    Verify::Pass => unreachable!(),
                };
            }
            Ok(Err(e)) => last_fault = e.to_string(),
            Err(p) => last_fault = panic_text(p),
        }
    }
    BenchRun {
        bench: bench_name,
        device: dev_name.to_string(),
        api: api.to_string(),
        value: 0.0,
        unit: String::new(),
        verified: false,
        wall_ns: 0.0,
        kernel_ns: 0.0,
        launches: 0,
        sim_cycles: 0.0,
        counters: Default::default(),
        status: RUN_FAULT_SKIPPED.to_string(),
        fault: Some(last_fault),
        attempts: attempts_cap,
        input_hash: String::new(), // stamped by bench_report_with
        cached: false,
    }
}

/// Run the whole campaign at `scale` with no fault injection.
pub fn bench_report(scale: Scale) -> BenchReport {
    bench_report_with(&CampaignOptions::new(scale))
}

/// Run the whole campaign under `opts`. Parallelised over (benchmark,
/// device, API) triples; every number — including which triples are
/// fault-skipped under a seeded plan — is deterministic for any host
/// thread count. With `opts.cache_from`, any triple whose fingerprint
/// matches a healthy cached row is reused instead of re-executed; with
/// `opts.shard`, only that slice of the matrix runs.
pub fn bench_report_with(opts: &CampaignOptions) -> BenchReport {
    campaign_on(pool::default_workers(), opts)
}

/// [`bench_report_with`] on a pool of exactly `workers` threads.
fn campaign_on(workers: usize, opts: &CampaignOptions) -> BenchReport {
    let n = all_benchmarks(opts.scale).len();
    let triples: Vec<(usize, &'static str, &'static str)> = (0..n)
        .flat_map(|i| {
            CAMPAIGN_DEVICES
                .into_iter()
                .flat_map(move |d| [(i, d, "CUDA"), (i, d, "OpenCL")])
        })
        .enumerate()
        .filter(|&(idx, _)| match opts.shard {
            Some((shard, shards)) => idx as u32 % shards == shard,
            None => true,
        })
        .map(|(_, t)| t)
        .collect();
    let bench_names_once: Vec<String> = {
        let all = all_benchmarks(opts.scale);
        all.iter().map(|b| b.name().to_string()).collect()
    };
    // An injection campaign must actually inject: never serve it from
    // cache, even though the fingerprint would distinguish the seeds.
    let cache = opts
        .cache_from
        .as_ref()
        .filter(|_| opts.fault_seed.is_none());
    // The pool returns runs in input order: benchmark registry order,
    // device, then API.
    let runs: Vec<BenchRun> = pool::par_map_on(workers, &triples, |&(i, dev_name, api)| {
        let hash = input_fingerprint(opts, &bench_names_once[i], dev_name, api);
        if let Some(hit) = cache.and_then(|c| {
            c.run(&bench_names_once[i], dev_name, api)
                .filter(|r| r.is_ok() && r.input_hash == hash)
        }) {
            let mut reused = hit.clone();
            reused.cached = true;
            return reused;
        }
        let mut run = run_one(opts, i, dev_name, api);
        run.input_hash = hash;
        run.cached = false;
        run
    });
    let prs = derive_prs(&runs);

    BenchReport {
        scale: match opts.scale {
            Scale::Quick => "quick".to_string(),
            Scale::Paper => "paper".to_string(),
        },
        fault_seed: opts.fault_seed,
        runs,
        prs,
        sim_speed: vec![],
    }
}

/// Derive the per-(benchmark, device) PR table from a run list — the
/// shared tail of a full campaign and of [`merge_reports`].
pub fn derive_prs(runs: &[BenchRun]) -> Vec<PrEntry> {
    let bench_names: Vec<String> = {
        let mut seen = Vec::new();
        for r in runs {
            if !seen.contains(&r.bench) {
                seen.push(r.bench.clone());
            }
        }
        seen
    };
    let mut prs = Vec::new();
    for bench in &bench_names {
        for dev in CAMPAIGN_DEVICES {
            let find = |api: &str| {
                runs.iter()
                    .find(|r| &r.bench == bench && r.device == dev && r.api == api)
                    .filter(|r| r.is_ok())
            };
            // A PR needs both sides; a fault-skipped run leaves a hole
            // the gate recognises through the runs table.
            let (Some(c), Some(o)) = (find("CUDA"), find("OpenCL")) else {
                continue;
            };
            let perf = |r: &BenchRun| {
                if r.unit == "sec" {
                    1.0 / r.value
                } else {
                    r.value
                }
            };
            let pr = Pr::from_performance(perf(o), perf(c));
            // Inside the paper's |1 - PR| < 0.1 similarity band the APIs
            // perform the same; attribution only explains real gaps.
            let dominant = if pr.is_similar() {
                "comparable".to_string()
            } else {
                dominant_counter(
                    &c.counters,
                    c.wall_ns,
                    c.kernel_ns,
                    &o.counters,
                    o.wall_ns,
                    o.kernel_ns,
                )
            };
            prs.push(PrEntry {
                bench: bench.clone(),
                device: dev.to_string(),
                pr: pr.0,
                dominant_counter: dominant,
            });
        }
    }
    prs
}

/// Merge sharded partial reports into one full campaign report: union
/// the run rows, restore the registry run order, and re-derive the PR
/// table over the combined runs.
///
/// The parts must be *disjoint* shards of one campaign: a
/// (bench, device, API) triple appearing in two parts — overlapping
/// `GPUCMP_SHARD` slices, or the same shard merged twice — is an error,
/// as is a scale or fault-seed disagreement. Silently deduplicating
/// would hide a mis-sharded campaign behind whichever row came first.
pub fn merge_reports(parts: &[BenchReport]) -> Result<BenchReport, String> {
    let Some(first) = parts.first() else {
        return Ok(BenchReport::default());
    };
    let scale = first.scale.clone();
    let fault_seed = first.fault_seed;
    for (i, p) in parts.iter().enumerate() {
        if p.scale != scale || p.fault_seed != fault_seed {
            return Err(format!(
                "merge_reports: shard {i} ran scale={} fault_seed={:?}, \
                 shard 0 ran scale={scale} fault_seed={fault_seed:?} — \
                 all GPUCMP_SHARD parts must come from one campaign",
                p.scale, p.fault_seed
            ));
        }
    }
    let registry: Vec<String> = {
        let s = if scale == "paper" {
            Scale::Paper
        } else {
            Scale::Quick
        };
        all_benchmarks(s)
            .iter()
            .map(|b| b.name().to_string())
            .collect()
    };
    let mut runs: Vec<BenchRun> = Vec::new();
    for p in parts {
        for r in &p.runs {
            if runs
                .iter()
                .any(|q| q.bench == r.bench && q.device == r.device && q.api == r.api)
            {
                return Err(format!(
                    "merge_reports: duplicate run {}/{}/{} — the shards \
                     overlap (check the GPUCMP_SHARD=i/n slices are \
                     disjoint and no part is merged twice)",
                    r.bench, r.device, r.api
                ));
            }
            runs.push(r.clone());
        }
    }
    let pos = |name: &str| {
        registry
            .iter()
            .position(|n| n == name)
            .unwrap_or(usize::MAX)
    };
    runs.sort_by(|a, b| {
        (pos(&a.bench), &a.device, &a.api).cmp(&(pos(&b.bench), &b.device, &b.api))
    });
    let prs = derive_prs(&runs);
    // The tier speed matrix is measured once per campaign, not per shard:
    // keep the first part's, if any.
    let sim_speed = parts
        .iter()
        .find(|p| !p.sim_speed.is_empty())
        .map(|p| p.sim_speed.clone())
        .unwrap_or_default();
    Ok(BenchReport {
        scale,
        fault_seed,
        runs,
        prs,
        sim_speed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_campaign_covers_the_full_matrix() {
        let report = bench_report(Scale::Quick);
        assert_eq!(
            report.runs.len(),
            21 * 2 * 2,
            "16 benchmarks + 3 streamed variants + 2 micros, x 2 devices x 2 APIs"
        );
        assert_eq!(report.prs.len(), 21 * 2);
        assert!(
            report.runs.iter().all(|r| r.verified),
            "all NVIDIA runs verify"
        );
        assert!(!report.is_partial());
        assert!(report.runs.iter().all(|r| r.attempts == 1));
        // every run carries a populated counter set
        assert!(report
            .runs
            .iter()
            .all(|r| r.counters.get("warp_instructions").unwrap_or(0.0) > 0.0));
        // the paper-shape invariants the CI gate enforces
        let sobel = report.pr("Sobel", "GTX280").unwrap();
        assert!(
            sobel.pr > 1.0,
            "Sobel GTX280 PR {} (OpenCL const-mem win)",
            sobel.pr
        );
        let bfs = report.pr("BFS", "GTX280").unwrap();
        assert!(
            bfs.pr < 1.0,
            "BFS GTX280 PR {} (OpenCL launch-overhead loss)",
            bfs.pr
        );
        assert_eq!(bfs.dominant_counter, "launch_overhead_ns");
        // and the report survives serialisation
        let text = report.to_text();
        let parsed = BenchReport::from_text(&text).unwrap();
        assert_eq!(parsed.runs.len(), report.runs.len());
        assert_eq!(parsed.scale, "quick");
        assert_eq!(parsed.fault_seed, None);
        // byte for byte, the report of this model revision
        let digest = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(
            digest, QUICK_REPORT_FNV,
            "the quick report now hashes to {digest:#018x}: a change that moves \
             campaign output needs a CAMPAIGN_MODEL_REV bump and an EXPERIMENTS.md \
             note before QUICK_REPORT_FNV takes the new digest"
        );
    }

    #[test]
    fn unchanged_cells_are_reused_from_cache() {
        let first = bench_report(Scale::Quick);
        assert_eq!(first.cache_hits(), 0, "a cold campaign executes everything");
        assert!(first
            .runs
            .iter()
            .all(|r| r.input_hash.len() == 16 && !r.cached));

        // Second campaign over the same inputs: every cell is a hit.
        let opts = CampaignOptions {
            cache_from: Some(first.clone()),
            ..CampaignOptions::new(Scale::Quick)
        };
        let second = bench_report_with(&opts);
        assert_eq!(second.cache_hits(), second.runs.len());
        for (a, b) in first.runs.iter().zip(&second.runs) {
            assert_eq!(a.input_hash, b.input_hash);
            assert_eq!(a.value, b.value);
            assert!(b.cached);
        }
        // The PR table is re-derived and identical.
        for (a, b) in first.prs.iter().zip(&second.prs) {
            assert_eq!(a.pr, b.pr);
            assert_eq!(a.dominant_counter, b.dominant_counter);
        }

        // A stale fingerprint forces exactly that cell to re-execute.
        let mut stale = first.clone();
        let key = (
            stale.runs[0].bench.clone(),
            stale.runs[0].device.clone(),
            stale.runs[0].api.clone(),
        );
        stale.runs[0].input_hash = "stale".into();
        let opts = CampaignOptions {
            cache_from: Some(stale),
            ..CampaignOptions::new(Scale::Quick)
        };
        let third = bench_report_with(&opts);
        assert_eq!(third.cache_hits(), third.runs.len() - 1);
        let rerun = third.run(&key.0, &key.1, &key.2).unwrap();
        assert!(!rerun.cached);
        assert_eq!(rerun.input_hash, first.runs[0].input_hash);
    }

    #[test]
    fn sharded_campaign_merges_to_the_full_matrix() {
        let full = bench_report(Scale::Quick);
        let parts: Vec<BenchReport> = (0..2)
            .map(|i| {
                let opts = CampaignOptions {
                    shard: Some((i, 2)),
                    ..CampaignOptions::new(Scale::Quick)
                };
                bench_report_with(&opts)
            })
            .collect();
        assert!(parts.iter().all(|p| p.runs.len() == 42), "half each");
        let merged = merge_reports(&parts).unwrap();
        assert_eq!(merged.runs.len(), full.runs.len());
        assert_eq!(merged.prs.len(), full.prs.len());
        for (a, b) in full.runs.iter().zip(&merged.runs) {
            assert_eq!((&a.bench, &a.device, &a.api), (&b.bench, &b.device, &b.api));
            assert_eq!(a.value, b.value);
        }
        for (a, b) in full.prs.iter().zip(&merged.prs) {
            assert_eq!(a.pr, b.pr);
        }
    }

    #[test]
    fn report_text_is_independent_of_the_pool_size() {
        // Shard 2/4 of the matrix: one API on one device, heavy and light
        // cells interleaved, so three workers finish out of order.
        let opts = CampaignOptions {
            shard: Some((2, 4)),
            ..CampaignOptions::new(Scale::Quick)
        };
        let serial = campaign_on(1, &opts).to_text();
        let pooled = campaign_on(3, &opts).to_text();
        assert!(serial.contains("\"GTX480\""));
        assert_eq!(serial, pooled);
    }

    #[test]
    fn overlapping_shards_are_rejected_not_double_counted() {
        let shard = |i| {
            let opts = CampaignOptions {
                shard: Some((i, 2)),
                ..CampaignOptions::new(Scale::Quick)
            };
            bench_report_with(&opts)
        };
        let (a, b) = (shard(0), shard(1));

        // The same shard twice: every triple collides.
        let err = merge_reports(&[a.clone(), a.clone()]).unwrap_err();
        assert!(err.contains("duplicate run"), "{err}");
        assert!(err.contains("GPUCMP_SHARD"), "{err}");

        // Overlapping slices: a disjoint half plus a full campaign.
        let full = bench_report(Scale::Quick);
        let err = merge_reports(&[b.clone(), full]).unwrap_err();
        assert!(err.contains("duplicate run"), "{err}");

        // Shards from different campaigns don't merge either.
        let opts = CampaignOptions {
            fault_seed: Some(7),
            shard: Some((1, 2)),
            ..CampaignOptions::new(Scale::Quick)
        };
        let err = merge_reports(&[a, bench_report_with(&opts)]).unwrap_err();
        assert!(err.contains("fault_seed"), "{err}");
        assert!(merge_reports(&[b.clone(), b]).is_err());
    }

    #[test]
    fn fault_campaigns_never_serve_from_cache() {
        let clean = bench_report(Scale::Quick);
        let opts = CampaignOptions {
            fault_seed: Some(42),
            cache_from: Some(clean),
            ..CampaignOptions::new(Scale::Quick)
        };
        let report = bench_report_with(&opts);
        assert_eq!(report.cache_hits(), 0, "injection campaigns must inject");
        assert!(report.runs.iter().filter(|r| r.attempts > 1).count() > 5);
    }

    #[test]
    fn injected_faults_recover_on_retry_and_the_report_stays_complete() {
        let opts = CampaignOptions {
            fault_seed: Some(42),
            ..CampaignOptions::new(Scale::Quick)
        };
        let report = bench_report_with(&opts);
        assert_eq!(report.runs.len(), 84, "every triple is reported");
        assert_eq!(report.fault_seed, Some(42));
        // With attempt-0 injection and a clean retry, every injected
        // triple recovers: the report is complete, but the retries show.
        let retried = report.runs.iter().filter(|r| r.attempts > 1).count();
        assert!(
            retried > 5,
            "a seeded campaign injects into a sizeable minority, got {retried}"
        );
        assert!(report.runs.iter().all(|r| r.is_ok()), "retries recover all");
        assert_eq!(report.prs.len(), 42);
        // Determinism: the same seed retries exactly the same triples.
        let again = bench_report_with(&opts);
        for (a, b) in report.runs.iter().zip(&again.runs) {
            assert_eq!(a.attempts, b.attempts, "{}/{}/{}", a.bench, a.device, a.api);
            assert_eq!(a.value, b.value);
        }
    }

    #[test]
    fn unrecoverable_faults_degrade_to_partial_reports_not_aborts() {
        // One attempt only: injected triples cannot recover, so the
        // campaign must degrade to a partial report instead of dying.
        let opts = CampaignOptions {
            fault_seed: Some(42),
            max_attempts: 1,
            ..CampaignOptions::new(Scale::Quick)
        };
        let report = bench_report_with(&opts);
        assert_eq!(report.runs.len(), 84, "skips are recorded, not dropped");
        assert!(report.is_partial());
        let skipped: Vec<_> = report.runs.iter().filter(|r| !r.is_ok()).collect();
        assert!(
            skipped.len() > 5 && skipped.len() < 53,
            "about a third skip, got {}",
            skipped.len()
        );
        for r in &skipped {
            assert_eq!(r.status, RUN_FAULT_SKIPPED);
            assert!(
                r.fault.as_deref().is_some_and(|f| !f.is_empty()),
                "{}",
                r.bench
            );
            assert!(!r.verified);
        }
        // PRs exist exactly for pairs whose both runs are ok.
        let ok_pairs = report
            .prs
            .iter()
            .filter(|p| {
                ["CUDA", "OpenCL"].iter().all(|api| {
                    report
                        .run(&p.bench, &p.device, api)
                        .is_some_and(|r| r.is_ok())
                })
            })
            .count();
        assert_eq!(ok_pairs, report.prs.len());
        assert!(report.prs.len() < 42);
        // The partial report round-trips.
        let parsed = BenchReport::from_text(&report.to_text()).unwrap();
        assert!(parsed.is_partial());
        assert_eq!(
            parsed.runs.iter().filter(|r| !r.is_ok()).count(),
            skipped.len()
        );
    }
}
