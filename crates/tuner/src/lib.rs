//! # gpucmp-tuner — the paper's proposed auto-tuner
//!
//! The paper closes with: *"we would like to develop an auto-tuner to adapt
//! general-purpose OpenCL programs to all available specific platforms to
//! fully exploit the hardware"*, and Section V observes that the best code
//! shape is platform-specific (local-memory staging hurts on CPU devices,
//! the warp-per-row SPMV collapses there, work-group sizes matter). This
//! crate implements that auto-tuner against the simulator:
//!
//! - a [`Tunable`] is a kernel family with a discrete parameter space
//!   (tile size, staging strategy, work-group size, ...);
//! - a [`Tuner`] searches the space on a concrete device — exhaustively or
//!   with a greedy coordinate descent — and returns the best configuration
//!   with the full trial log;
//! - [`transpose::TunableTranspose`] reproduces the paper's Section V
//!   findings mechanically: the tuned configuration uses padded
//!   shared-memory staging on GPUs and the direct copy on the Intel920.
//!
//! Everything is deterministic: tuning the same kernel on the same device
//! twice yields the identical trial log.

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod search;
pub mod transpose;

pub use search::{SearchStrategy, Trial, Tunable, TunableParam, TuneResult, Tuner};
pub use transpose::TunableTranspose;

#[cfg(test)]
mod tests {
    use super::*;
    use gpucmp_runtime::OpenCl;
    use gpucmp_sim::DeviceSpec;

    #[test]
    fn tuned_transpose_prefers_shared_memory_on_gpus() {
        let t = TunableTranspose::new(256);
        let mut gpu = OpenCl::create_any(DeviceSpec::gtx280());
        let r = Tuner::exhaustive().tune(&t, &mut gpu).unwrap();
        let cfg = t.describe(&r.best_config);
        assert_eq!(
            cfg.get("staging").map(String::as_str),
            Some("shared+padded"),
            "GTX280 best config: {cfg:?}"
        );
    }

    #[test]
    fn tuned_transpose_prefers_direct_copy_on_cpu() {
        // the paper's Section V observation, found automatically
        let t = TunableTranspose::new(256);
        let mut cpu = OpenCl::create_any(DeviceSpec::intel920());
        let r = Tuner::exhaustive().tune(&t, &mut cpu).unwrap();
        let cfg = t.describe(&r.best_config);
        assert_eq!(
            cfg.get("staging").map(String::as_str),
            Some("direct"),
            "Intel920 best config: {cfg:?}"
        );
    }

    #[test]
    fn greedy_matches_or_approaches_exhaustive() {
        let t = TunableTranspose::new(256);
        let mut gpu = OpenCl::create_any(DeviceSpec::gtx480());
        let ex = Tuner::exhaustive().tune(&t, &mut gpu).unwrap();
        let mut gpu2 = OpenCl::create_any(DeviceSpec::gtx480());
        let gr = Tuner::greedy().tune(&t, &mut gpu2).unwrap();
        assert!(gr.trials.len() <= ex.trials.len());
        assert!(
            gr.best_value >= 0.8 * ex.best_value,
            "greedy {} vs exhaustive {}",
            gr.best_value,
            ex.best_value
        );
    }

    #[test]
    fn tuning_is_deterministic() {
        let t = TunableTranspose::new(128);
        let run = || {
            let mut gpu = OpenCl::create_any(DeviceSpec::hd5870());
            Tuner::exhaustive().tune(&t, &mut gpu).unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.best_config, b.best_config);
        assert_eq!(a.best_value.to_bits(), b.best_value.to_bits());
        assert_eq!(a.trials.len(), b.trials.len());
    }
}
