//! Reproduce every figure and table of the paper's evaluation.
//!
//! ```text
//! cargo run --release --example reproduce_paper            # everything
//! cargo run --release --example reproduce_paper fig3 fig8  # a subset
//! cargo run --release --example reproduce_paper --quick    # small inputs
//! cargo run --release --example reproduce_paper bench      # report only
//! ```
//!
//! The `bench` section (part of the default set) additionally writes two
//! machine-readable artifacts to the working directory:
//!
//! - `BENCH_<timestamp>.json` — one row per (benchmark, device, API) with
//!   the full hardware-counter set, plus per-pair PRs with dominant-counter
//!   attribution. `cargo run -p gpucmp-bench --bin gate <file>` checks its
//!   paper-shape invariants in CI.
//! - `TRACE_<timestamp>.json` — a chrome-trace of a profiled Sobel session
//!   on the GTX480; open it in <https://ui.perfetto.dev>.

use gpucmp::core::{bench_report, experiments as exp};
use gpucmp_benchmarks::{Benchmark, Scale};
use gpucmp_runtime::{Cuda, Gpu};
use gpucmp_sim::DeviceSpec;
use std::time::{SystemTime, UNIX_EPOCH};

/// Run the profiled campaign and write the two JSON artifacts.
fn emit_bench_artifacts(scale: Scale) {
    let stamp = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);

    // `GPUCMP_FAULT_SEED=<n>` turns this into a seeded fault-injection
    // campaign (with `GPUCMP_FAULT_ATTEMPTS=1` the injected faults are
    // unrecoverable and the report comes out partial); unset, it is the
    // ordinary fault-free campaign.
    let opts = bench_report::CampaignOptions::from_env(scale);
    let report = bench_report::bench_report_with(&opts);
    let bench_path = format!("BENCH_{stamp}.json");
    std::fs::write(&bench_path, report.to_text()).expect("write bench report");
    let verified = report.runs.iter().filter(|r| r.verified).count();
    println!(
        "Bench report: {} runs ({} verified), {} PR pairs -> {}",
        report.runs.len(),
        verified,
        report.prs.len(),
        bench_path
    );
    if let Some(seed) = opts.fault_seed {
        let skipped: Vec<_> = report.runs.iter().filter(|r| !r.is_ok()).collect();
        println!(
            "Fault injection: seed {seed}, {} attempt(s)/run, {} run(s) fault-skipped",
            opts.max_attempts,
            skipped.len()
        );
        for r in &skipped {
            println!(
                "  skipped {}/{}/{}: {}",
                r.bench,
                r.device,
                r.api,
                r.fault.as_deref().unwrap_or("<unrecorded>")
            );
        }
    }
    println!("{:<8} {:<8} {:>7}  dominant counter", "App", "Device", "PR");
    for p in &report.prs {
        println!(
            "{:<8} {:<8} {:>7.3}  {}",
            p.bench, p.device, p.pr, p.dominant_counter
        );
    }

    // A profiled Sobel session on the GTX480 as a Perfetto-openable trace.
    let device = DeviceSpec::gtx480();
    let mut gpu = Cuda::new(device.clone()).expect("NVIDIA device");
    gpu.set_exec_options(exp::exec_options_from_env());
    gpu.set_tracing(true);
    gpucmp_benchmarks::sobel::Sobel::new(scale)
        .run(&mut gpu)
        .expect("Sobel trace run");
    let trace = gpucmp_trace::chrome_trace(&device, gpu.trace_events());
    let trace_path = format!("TRACE_{stamp}.json");
    std::fs::write(&trace_path, trace.to_text()).expect("write chrome trace");
    println!(
        "\nChrome trace of Sobel on GTX480 ({} events) -> {}  (open in ui.perfetto.dev)",
        gpu.trace_events().len(),
        trace_path
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--quick") {
        Scale::Quick
    } else {
        Scale::Paper
    };
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    let run = |name: &str| wanted.is_empty() || wanted.contains(&name);

    if run("fig1") {
        println!("{}\n", exp::fig1_peak_bandwidth(scale));
    }
    if run("fig2") {
        println!("{}\n", exp::fig2_peak_flops(scale));
    }
    if run("fig3") {
        println!("{}\n", exp::fig3_performance_ratio(scale));
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(4, 8);
        println!("{}\n", exp::parallel_speedup(scale, threads));
    }
    if run("fig4") || run("fig5") {
        println!("{}\n", exp::fig4_fig5_texture(scale));
    }
    if run("fig6") || run("fig7") {
        println!("{}\n", exp::fig6_fig7_unroll(scale));
    }
    if run("fig8") {
        println!("{}\n", exp::fig8_sobel_constant(scale));
    }
    if run("table5") {
        println!("{}\n", exp::table5_ptx_stats());
    }
    if run("table6") {
        println!("{}\n", exp::table6_portability(scale));
    }
    if run("launch") {
        println!("{}\n", exp::launch_latency());
    }
    if run("bench") {
        emit_bench_artifacts(scale);
    }
}
