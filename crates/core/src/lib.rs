//! # gpucmp-core — the paper's comparison methodology
//!
//! The primary contribution of *"A Comprehensive Performance Comparison of
//! CUDA and OpenCL"* (Fang, Varbanescu & Sips, ICPP 2011) is not a system
//! but a *methodology*: a normalised Performance Ratio metric, a detailed
//! attribution of every CUDA/OpenCL gap to a cause, and an eight-step
//! "fair comparison" model of the GPU application development flow.
//! This crate implements all three:
//!
//! - [`pr`] — the PR metric (Eq. 1) and the `|1 - PR| < 0.1` similarity
//!   band;
//! - [`fair`] — the eight-step model (Fig. 9): per-step build
//!   configurations, step diffs, and fairness verdicts;
//! - [`experiments`] — a registry with one entry per figure/table of the
//!   paper's evaluation, producing the same rows/series from the
//!   simulator-backed benchmark suite;
//! - [`bench_report`] — the profiled 84-run campaign behind the
//!   machine-readable `BENCH_<timestamp>.json` report that CI gates on;
//! - [`sim_speed`] — host wall-clock of the simulator's execution tiers
//!   (interpreter / decoded), the `sim_speed` binary's speedup matrix.

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod bench_report;
pub mod experiments;
pub mod fair;
mod pool;
pub mod pr;
pub mod sim_speed;

pub use fair::{fairness, BuildConfig, FairStep, Fairness, Role};
pub use pr::{Pr, SIMILARITY_BAND};

#[cfg(test)]
mod tests {
    use super::*;
    use experiments::*;
    use gpucmp_benchmarks::Scale;

    #[test]
    fn fig1_fig2_opencl_matches_or_beats_cuda() {
        let f1 = fig1_peak_bandwidth(Scale::Quick);
        for dev in ["GTX280", "GTX480"] {
            let pr = f1.pr(dev).unwrap();
            assert!(pr.0 >= 0.99, "{dev} bandwidth PR {pr}");
        }
        let f2 = fig2_peak_flops(Scale::Quick);
        for dev in ["GTX280", "GTX480"] {
            let pr = f2.pr(dev).unwrap();
            assert!(pr.is_similar(), "{dev} flops PR {pr}");
        }
    }

    #[test]
    fn table5_reproduces_the_papers_asymmetries() {
        use gpucmp_ptx::InstClass;
        let t = table5_ptx_stats();
        assert!(
            t.opencl.class_total(InstClass::Arithmetic) > t.cuda.class_total(InstClass::Arithmetic)
        );
        assert!(
            t.opencl.class_total(InstClass::FlowControl)
                > t.cuda.class_total(InstClass::FlowControl)
        );
        assert!(t.cuda.count("mov") > t.opencl.count("mov"));
        assert_eq!(t.cuda.ld_global(), t.opencl.ld_global());
        assert_eq!(t.cuda.count("bar"), t.opencl.count("bar"));
        // the rendered table has the paper's layout markers
        let text = t.to_string();
        assert!(text.contains("Sub-total"));
        assert!(text.contains("ld.global"));
    }

    #[test]
    fn launch_latency_gap_matches_runtime_constants() {
        let l = launch_latency();
        assert!(l.opencl_ns > l.cuda_ns);
        let diff = l.opencl_ns - l.cuda_ns;
        let expected = gpucmp_runtime::OPENCL_SUBMIT_NS - gpucmp_runtime::CUDA_SUBMIT_NS;
        assert!((diff - expected).abs() < expected * 0.2, "diff {diff}");
    }

    #[test]
    fn table6_quick_smoke() {
        // Quick-scale Table VI: RdxS must FL on the wavefront-64 devices
        // and every Cell/BE failure must be an abort, not silence.
        let t = table6_portability(Scale::Quick);
        let col = t.benches.iter().position(|&b| b == "RdxS").unwrap();
        let hd = &t.rows.iter().find(|(d, _)| *d == "HD5870").unwrap().1;
        assert_eq!(hd[col], PortCell::Fl, "RdxS on HD5870");
        let cpu = &t.rows.iter().find(|(d, _)| *d == "Intel920").unwrap().1;
        assert_eq!(cpu[col], PortCell::Fl, "RdxS on Intel920");
        // Scan and Reduce must port fine everywhere
        for name in ["Scan", "Reduce"] {
            let c = t.benches.iter().position(|&b| b == name).unwrap();
            for (dev, cells) in &t.rows {
                assert!(
                    matches!(cells[c], PortCell::Ok(_)),
                    "{name} on {dev}: {:?}",
                    cells[c]
                );
            }
        }
    }
}
