//! `campaign-paper`: the paper-scale campaign behind
//! `reproduce_paper bench`, one column at a time.
//!
//! A column is the campaign shard that runs all 21 benchmarks on one
//! device through one API (`CampaignOptions::shard = (k, 4)`), through the
//! campaign's own entry point, worker pool, verification and report. The
//! whole 84-cell campaign takes over 30 s on two cores, longer than one
//! run, so a run repeats one column, the GTX 480 through CUDA, as many
//! times as take about `--seconds` (one per [`COLUMN_S`]). The count
//! depends on `--seconds` alone, so every run of a commit does the same
//! work. Each repetition is a window of its own, so the run reports its
//! best repetition: repeating identical work lets it ignore a stretch of
//! host contention. Every repetition must write the same report.
//! Inputs are the paper's fixed ones; `--seed` is ignored.
//!
//! The traced pass cannot wrap the `Gpu` the campaign builds inside
//! `bench_report_with`, so it replays the same columns itself: the same
//! cells, each in a fresh session with the campaign's exec options, split
//! into contiguous chunks over as many workers as the campaign's pool.

use crate::metrics::{self, Layers};
use crate::spans::{self, span};
use crate::stats::{Digest, Window};
use crate::traced::{self, Traced};
use crate::{Measured, Opts, SETUPS};
use gpucmp_benchmarks::{Benchmark, RunOutput, Scale};
use gpucmp_compiler::Api;
use gpucmp_core::bench_report::{bench_report_with, CampaignOptions, CAMPAIGN_DEVICES};
use gpucmp_core::experiments::exec_options_from_env;
use gpucmp_runtime::RtError;
use gpucmp_sim::DeviceSpec;
use gpucmp_trace::BenchReport;
use std::time::Instant;

const COLUMNS: u32 = 4;
/// The column a run repeats: shard 2 of 4 is the GTX 480 through CUDA.
const COLUMN: u32 = 2;
/// The column's wall time on the reference box (two cores), s: sizes how
/// many repetitions a run of `--seconds` measures.
const COLUMN_S: f64 = 7.0;

fn column(scale: Scale) -> CampaignOptions {
    CampaignOptions {
        shard: Some((COLUMN, COLUMNS)),
        ..CampaignOptions::new(scale)
    }
}

/// The campaign's benchmark registry, in campaign order.
fn registry() -> Vec<Box<dyn Benchmark>> {
    let scale = Scale::Paper;
    let mut v = gpucmp_benchmarks::real_world(scale);
    v.extend(gpucmp_benchmarks::synthetic(scale));
    v.extend(gpucmp_benchmarks::streamed_variants(scale));
    v.extend(gpucmp_benchmarks::micro_workloads(scale));
    v
}

/// The column's cells as the campaign enumerates them: (registry index,
/// device, API).
fn cells() -> Vec<(usize, &'static str, &'static str)> {
    (0..registry().len())
        .flat_map(|i| {
            CAMPAIGN_DEVICES
                .into_iter()
                .flat_map(move |d| [(i, d, "CUDA"), (i, d, "OpenCL")])
        })
        .enumerate()
        .filter(|(idx, _)| *idx as u32 % COLUMNS == COLUMN)
        .map(|(_, c)| c)
        .collect()
}

fn row_ok(r: &gpucmp_trace::BenchRun) -> bool {
    r.is_ok() && r.verified
}

/// Workers in the campaign's pool: one per available core.
fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn run(opts: &Opts) -> Measured {
    let mut m = Measured::default();
    m.notes.push(format!(
        "--seed {} ignored: the campaign runs the paper's fixed inputs",
        opts.seed
    ));
    m.notes.push(format!(
        "op = the campaign column of 21 benchmarks on GTX480 via CUDA, on {} pool workers",
        workers()
    ));
    for _ in 0..SETUPS {
        let t = Instant::now();
        // Every cell constructs the registry; a quick-scale column warms
        // the code paths and the allocator before timing.
        drop(registry());
        let warm = bench_report_with(&column(Scale::Quick));
        if !warm.runs.iter().all(row_ok) {
            m.problems.push("quick-scale warm-up column failed".into());
        }
        m.setup_s.push(t.elapsed().as_secs_f64());
    }

    let reps = ((opts.seconds / COLUMN_S).round() as u32).max(1);
    let start = Instant::now();
    let mut report: Option<(BenchReport, String)> = None;
    let mut digest = Digest::default();
    for rep in 0..reps {
        crate::reset_peak_rss();
        let t = Instant::now();
        if opts.mutate {
            // The campaign verifies inside bench_report_with, out of reach
            // of a readback flip; the replica runs the same cells and the
            // same verification.
            let (outs, _, _) = replica(false, rep == 0);
            for o in &outs {
                m.op(matches!(o, Ok(out) if out.verify.is_pass()));
                if rep == 0 {
                    digest.eat_debug(o);
                }
            }
        } else {
            let r = bench_report_with(&column(Scale::Paper));
            for row in &r.runs {
                m.op(row_ok(row));
            }
            let text = r.to_text();
            match &report {
                None => {
                    check_cells(&r, &mut m.problems);
                    digest.eat(text.as_bytes());
                    report = Some((r, text));
                }
                Some((_, first)) if *first != text => m
                    .problems
                    .push(format!("repetition {rep} wrote a different report")),
                Some(_) => {}
            }
        }
        let secs = t.elapsed().as_secs_f64();
        m.windows.push(Window {
            secs,
            ops_ms: vec![secs * 1e3],
        });
        m.peak_rss_mb.extend(crate::peak_rss_mb());
    }
    m.wall_s = start.elapsed().as_secs_f64();
    m.digest = digest.hex();
    if opts.trace {
        traced_pass(&mut m, reps, report.as_ref().map(|(r, _)| r));
    }
    m
}

/// The replica must run exactly the cells the campaign ran.
fn check_cells(r: &BenchReport, problems: &mut Vec<String>) {
    let got: Vec<_> = r
        .runs
        .iter()
        .map(|r| (r.bench.clone(), r.device.clone(), r.api.clone()))
        .collect();
    let reg = registry();
    let want: Vec<_> = cells()
        .into_iter()
        .map(|(i, d, a)| (reg[i].name().to_string(), d.to_string(), a.to_string()))
        .collect();
    if got != want {
        problems.push(format!("campaign ran {got:?}, replica expects {want:?}"));
    }
}

/// Replay the measured columns with every `Gpu` call wrapped.
fn traced_pass(m: &mut Measured, reps: u32, report: Option<&BenchReport>) {
    let pool = workers();
    let mut recordings = Vec::new();
    let mut builds = Vec::new();
    let mut walls_ns = 0u64;
    let mut cell_max_ns = 0u64;
    for _ in 0..reps {
        let t0 = spans::now_ns();
        let (outs, recs, b) = replica(true, false);
        let t1 = spans::now_ns();
        walls_ns += t1 - t0;
        for o in &outs {
            m.op(matches!(o, Ok(out) if out.verify.is_pass()));
        }
        for (w, rec) in recs.into_iter().enumerate() {
            cell_max_ns = rec
                .spans
                .iter()
                .filter(|s| s.name == "benchmarks.cell")
                .map(|s| s.dur_ns())
                .fold(cell_max_ns, u64::max);
            recordings.push(spans::rooted(rec, "core.worker", w as u32, t0, t1));
        }
        builds.extend(b);
    }
    let rec = spans::merge(recordings);
    let mut t = metrics::from_recording(&rec, walls_ns * pool as u64);
    let cell = t.names.get("benchmarks.cell").copied().unwrap_or_default();
    let l: &mut Layers = &mut t.layers;
    l.set("core.cell_busy_s", cell.total_ns as f64 / 1e9);
    l.set("core.cell_max_s", cell_max_ns as f64 / 1e9);
    l.set(
        "core.parallel_eff",
        cell.total_ns as f64 / (walls_ns as f64 * pool as f64),
    );
    l.set("benchmarks.host_s", cell.self_ns as f64 / 1e9);
    let untraced_ms: f64 = m.op_ms().iter().sum();
    l.set(
        "harness.trace_overhead",
        walls_ns as f64 / 1e6 / untraced_ms - 1.0,
    );
    match traced::replay_stages(&builds) {
        Ok(st) => metrics::set_stages(l, &st),
        Err(e) => m.problems.push(format!("compile-stage replay: {e}")),
    }
    // The report the campaign writes.
    if let Some(report) = report {
        let t0 = Instant::now();
        let text = report.to_text();
        let t1 = Instant::now();
        let parsed = BenchReport::from_text(&text);
        let t2 = Instant::now();
        if parsed.map(|p| p.runs.len()) != Ok(report.runs.len()) {
            m.problems.push("campaign report did not round-trip".into());
        }
        l.set("trace.report_write_ms", (t1 - t0).as_secs_f64() * 1e3);
        l.set("trace.report_parse_ms", (t2 - t1).as_secs_f64() * 1e3);
        l.set("trace.report_kb", text.len() as f64 / 1024.0);
    }
    m.layers = Some(t.layers);
    m.table = t.table;
    m.spans = rec.spans;
}

type Replayed = (
    Vec<Result<RunOutput, RtError>>,
    Vec<spans::Recording>,
    Vec<traced::BuildSample>,
);

/// Run the column as the campaign does, optionally traced, optionally
/// corrupting the first readback of its last cell.
fn replica(trace: bool, mutate_last: bool) -> Replayed {
    let cells = cells();
    let chunk = cells.len().div_ceil(workers()).max(1);
    let last = cells.len().saturating_sub(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = cells
            .chunks(chunk)
            .enumerate()
            .map(|(w, part)| {
                s.spawn(move || {
                    if trace {
                        spans::start(w as u32);
                        traced::start_capture(1);
                    }
                    let outs: Vec<_> = part
                        .iter()
                        .enumerate()
                        .map(|(j, &(i, dev, api))| {
                            let idx = w * chunk + j;
                            spans::set_req(idx as u64);
                            let mutate = mutate_last && idx == last;
                            span("benchmarks.cell", || run_cell(i, dev, api, trace, mutate))
                        })
                        .collect();
                    (outs, spans::finish(), traced::take_capture())
                })
            })
            .collect();
        let mut all = (Vec::new(), Vec::new(), Vec::new());
        for h in handles {
            let (outs, rec, builds) = h.join().expect("campaign worker panicked");
            all.0.extend(outs);
            all.1.push(rec);
            all.2.extend(builds);
        }
        all
    })
}

/// One cell, as the campaign's `run_cuda_with` / `run_opencl_with` run it.
fn run_cell(
    i: usize,
    dev: &str,
    api: &str,
    trace: bool,
    mutate: bool,
) -> Result<RunOutput, RtError> {
    let bench = &registry()[i];
    let device = DeviceSpec::by_name(dev).expect("campaign devices are in the catalogue");
    let api = if api == "CUDA" {
        Api::Cuda
    } else {
        Api::OpenCl
    };
    let mut g = traced::session(api, device)?;
    g.set_exec_options(exec_options_from_env());
    if trace || mutate {
        bench.run(&mut Traced::new(g.as_mut(), mutate))
    } else {
        bench.run(g.as_mut())
    }
}
