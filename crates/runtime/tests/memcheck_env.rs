//! The environment's execution options reach a new session. Kept in its
//! own integration-test binary (own process) because it mutates
//! process-global environment.

use gpucmp_runtime::{Cuda, Gpu};
use gpucmp_sim::{DeviceSpec, ExecTier};

#[test]
fn env_var_enables_memcheck_and_programmatic_override_wins() {
    std::env::set_var("GPUCMP_MEMCHECK", "1");
    let mut gpu = Cuda::new(DeviceSpec::gtx480()).unwrap();
    assert!(gpu.session().memcheck(), "GPUCMP_MEMCHECK=1 turns it on");
    assert_eq!(gpu.exec_options().memcheck, gpu.session().memcheck());
    gpu.set_memcheck(false);
    assert!(!gpu.session().memcheck(), "programmatic override wins");
    assert_eq!(gpu.exec_options().memcheck, gpu.session().memcheck());

    std::env::set_var("GPUCMP_MEMCHECK", "0");
    let gpu = Cuda::new(DeviceSpec::gtx480()).unwrap();
    assert!(!gpu.session().memcheck(), "0 means off");

    std::env::remove_var("GPUCMP_MEMCHECK");
    let gpu = Cuda::new(DeviceSpec::gtx480()).unwrap();
    assert!(!gpu.session().memcheck(), "unset means off");

    // The same reader supplies the worker count and the tier.
    std::env::set_var("GPUCMP_SIM_THREADS", "3");
    std::env::set_var("GPUCMP_SIM_TIER", "interp");
    let opts = Cuda::new(DeviceSpec::gtx480()).unwrap().exec_options();
    assert_eq!((opts.threads, opts.tier), (3, ExecTier::Interp));
    std::env::set_var("GPUCMP_SIM_THREADS", "-2");
    std::env::set_var("GPUCMP_SIM_TIER", "fused");
    let opts = Cuda::new(DeviceSpec::gtx480()).unwrap().exec_options();
    assert_eq!((opts.threads, opts.tier), (1, ExecTier::Decoded));
}
