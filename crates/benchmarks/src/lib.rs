//! # gpucmp-benchmarks — the 16 benchmarks of the paper
//!
//! All benchmarks of the paper's Table II plus the two synthetic peak
//! benchmarks, each authored once in the kernel DSL and runnable through
//! either host API. Per-benchmark module docs explain which paper
//! experiment each one carries; the "unmodified" dialect differences
//! (texture in CUDA MD/SPMV, constant memory in OpenCL Sobel, the FDTD
//! unroll pragmas) key off `gpu.api()` exactly as the paper's sources
//! differ.
//!
//! Every benchmark verifies its device output against a CPU reference;
//! the warp-size-dependent radix sort *intentionally* fails verification
//! on 64-wide wavefront devices (the paper's Table VI "FL").

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod bfs;
pub mod common;
pub mod devicemem;
pub mod dxtc;
pub mod fdtd;
pub mod fft;
pub mod maxflops;
pub mod md;
pub mod micro;
pub mod mxm;
pub mod rdxs;
pub mod reduce;
pub mod scan;
pub mod sobel;
pub mod spmv;
pub mod st2d;
pub mod stnw;
pub mod tranp;

pub use common::{Benchmark, Metric, RunOutput, Scale, Verify};

/// The 14 real-world benchmarks of Table II, in the paper's column order,
/// with their paper-default (unmodified) options.
pub fn real_world(scale: Scale) -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(bfs::Bfs::new(scale)),
        Box::new(sobel::Sobel::new(scale)),
        Box::new(tranp::TranP::new(scale)),
        Box::new(reduce::Reduce::new(scale)),
        Box::new(fft::Fft::new(scale)),
        Box::new(md::Md::new(scale)),
        Box::new(spmv::Spmv::new(scale)),
        Box::new(st2d::St2D::new(scale)),
        Box::new(dxtc::Dxtc::new(scale)),
        Box::new(rdxs::Rdxs::new(scale)),
        Box::new(scan::Scan::new(scale)),
        Box::new(stnw::Stnw::new(scale)),
        Box::new(mxm::MxM::new(scale)),
        Box::new(fdtd::Fdtd::new(scale)),
    ]
}

/// The two synthetic peak benchmarks.
pub fn synthetic(scale: Scale) -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(maxflops::MaxFlops::new(scale)),
        Box::new(devicemem::DeviceMemory::new(scale)),
    ]
}

/// The explicit-stream variants of the benchmarks that ship an
/// overlapped-transfer pipeline (BFS, MxM, FDTD). Same workloads and
/// verification as their synchronous rows; only the host-side transfer /
/// compute overlap differs, which is exactly what the campaign's
/// wall-time columns surface.
pub fn streamed_variants(scale: Scale) -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(bfs::Bfs::new(scale).with_streams(true)),
        Box::new(mxm::MxM::new(scale).with_streams(true)),
        Box::new(fdtd::Fdtd::new(scale).with_streams(true)),
    ]
}

/// Micro-workloads promoted from the fuzz corpus (PR 8 follow-up): the
/// atomic-histogram and shared-rotate kernels as timed campaign rows —
/// pure global-atomic throughput and pure shared-memory rotate latency,
/// both exactly verified on every device.
pub fn micro_workloads(scale: Scale) -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(micro::AtomHist::new(scale)),
        Box::new(micro::SharedRot::new(scale)),
    ]
}

#[cfg(test)]
mod registry_tests {
    use super::*;

    #[test]
    fn sixteen_benchmarks_with_table2_names() {
        let rw = real_world(Scale::Quick);
        let names: Vec<_> = rw.iter().map(|b| b.name()).collect();
        assert_eq!(
            names,
            vec![
                "BFS", "Sobel", "TranP", "Reduce", "FFT", "MD", "SPMV", "St2D", "DXTC", "RdxS",
                "Scan", "STNW", "MxM", "FDTD"
            ]
        );
        assert_eq!(synthetic(Scale::Quick).len(), 2);
        let streamed: Vec<_> = streamed_variants(Scale::Quick)
            .iter()
            .map(|b| b.name())
            .collect();
        assert_eq!(streamed, vec!["BFS+streams", "MxM+streams", "FDTD+streams"]);
        let micro: Vec<_> = micro_workloads(Scale::Quick)
            .iter()
            .map(|b| b.name())
            .collect();
        assert_eq!(micro, vec!["AtomHist", "SharedRot"]);
    }

    #[test]
    fn metrics_match_table2() {
        use common::Metric::*;
        let rw = real_world(Scale::Quick);
        let metrics: Vec<_> = rw.iter().map(|b| b.metric()).collect();
        assert_eq!(
            metrics,
            vec![
                Seconds,         // BFS
                Seconds,         // Sobel
                GBPerSec,        // TranP
                GBPerSec,        // Reduce
                GFlopsPerSec,    // FFT
                GFlopsPerSec,    // MD
                GFlopsPerSec,    // SPMV
                Seconds,         // St2D
                MPixelsPerSec,   // DXTC
                MElementsPerSec, // RdxS
                MElementsPerSec, // Scan
                MElementsPerSec, // STNW
                GFlopsPerSec,    // MxM
                MPixelsPerSec,   // FDTD (MPoints/s)
            ]
        );
    }
}
