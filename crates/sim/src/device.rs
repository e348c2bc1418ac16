//! The device catalogue (paper Tables III & IV) and the occupancy model.

/// Microarchitecture family. Selects coalescing rules, cache presence and
/// the cost table of the timing model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Arch {
    /// NVIDIA GT200 (GTX280): no global-memory cache, 16 shared banks,
    /// half-warp coalescing, dual-issue mul+mad.
    Gt200,
    /// NVIDIA Fermi (GTX480): L1/L2 cache hierarchy, 32 shared banks,
    /// full-warp coalescing.
    Fermi,
    /// ATI Cypress (HD5870): VLIW5, 64-wide wavefronts.
    Cypress,
    /// x86 multi-core CPU exposed as an OpenCL device (Intel i7-920 via
    /// AMD APP in the paper).
    X86Cpu,
    /// Cell Broadband Engine SPEs via IBM's OpenCL.
    CellSpe,
}

/// OpenCL device kind, for `CL_DEVICE_TYPE_*` filtering (the "minor
/// modifications" of Section V of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// `CL_DEVICE_TYPE_GPU`.
    Gpu,
    /// `CL_DEVICE_TYPE_CPU`.
    Cpu,
    /// `CL_DEVICE_TYPE_ACCELERATOR`.
    Accelerator,
}

/// Geometry of one cache model instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheGeom {
    /// Total capacity in bytes.
    pub size: u32,
    /// Line size in bytes.
    pub line: u32,
    /// Associativity (ways).
    pub assoc: u32,
}

/// Full specification of one simulated device.
///
/// Datasheet fields come from the paper's Table IV; the two calibration
/// fields (`dram_efficiency`, `arith_cycle_scale`) are set so the *synthetic
/// peak* benchmarks land near the paper's achieved-peak fractions (Figs 1-2)
/// and are documented inline. Everything else about benchmark behaviour is
/// emergent from the execution trace.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name, e.g. `"GTX480"`.
    pub name: &'static str,
    /// Microarchitecture family.
    pub arch: Arch,
    /// OpenCL device kind.
    pub kind: DeviceKind,
    /// Number of compute units (SMs / SIMD engines / cores / SPEs).
    pub compute_units: u32,
    /// Scalar ALU lanes per compute unit.
    pub cores_per_cu: u32,
    /// Core (shader) clock in MHz.
    pub core_clock_mhz: u32,
    /// Theoretical peak DRAM bandwidth in GB/s (Eq. 2 of the paper for the
    /// NVIDIA cards: `MC * MIW/8 * 2e-9`).
    pub mem_bandwidth_gbs: f64,
    /// Device memory capacity in MiB.
    pub mem_capacity_mib: u32,
    /// Hardware warp/wavefront width (32 NVIDIA, 64 ATI wavefront & APP).
    pub warp_width: u32,
    /// Max resident threads per CU.
    pub max_threads_per_cu: u32,
    /// Max resident warps per CU.
    pub max_warps_per_cu: u32,
    /// Max resident blocks per CU.
    pub max_blocks_per_cu: u32,
    /// 32-bit registers per CU.
    pub regs_per_cu: u32,
    /// Hard per-thread register cap (drives `CL_OUT_OF_RESOURCES` on
    /// resource-starved devices like the Cell/BE).
    pub max_regs_per_thread: u32,
    /// Shared (local) memory per CU in bytes.
    pub shared_mem_per_cu: u32,
    /// Maximum work-group size.
    pub max_workgroup_size: u32,
    /// Shared-memory banks.
    pub shared_banks: u32,
    /// L1 data cache (Fermi), if present. Global loads are cached here.
    pub l1: Option<CacheGeom>,
    /// L2 cache, if present (device-wide).
    pub l2: Option<CacheGeom>,
    /// Texture cache, if present (per CU).
    pub tex_cache: Option<CacheGeom>,
    /// Constant cache, if present (per CU).
    pub const_cache: Option<CacheGeom>,
    /// Coalescing: memory segment size in bytes (DRAM transaction unit).
    pub segment_bytes: u32,
    /// Coalescing: number of lanes considered together (half-warp of 16 on
    /// GT200, full warp on Fermi, full wavefront on Cypress).
    pub coalesce_group: u32,
    /// CALIBRATION: fraction of peak DRAM bandwidth attainable by a fully
    /// coalesced stream (row-activation and refresh overheads).
    pub dram_efficiency: f64,
    /// CALIBRATION: issue cycles per simple f32 ALU warp-instruction.
    /// GT200's mul+mad dual issue makes this < 1; Fermi's scheduler
    /// overhead makes it slightly > 1.
    pub arith_cycle_scale: f64,
    /// Global-memory round-trip latency in nanoseconds.
    pub mem_latency_ns: f64,
    /// Resident warps per CU needed to fully hide `mem_latency_ns`.
    pub latency_hiding_warps: f64,
    /// Peak flops per scalar core per clock (the paper's `R` in Eq. 3).
    pub flops_per_core_per_clock: f64,
    /// Per work-item fixed scheduling overhead in core cycles. ~0 on GPUs;
    /// large on CPU/Cell OpenCL implementations where each work-item is a
    /// loop iteration or function call.
    pub wi_overhead_cycles: f64,
    /// Cost of one block-wide barrier in core cycles.
    pub barrier_cost_cycles: f64,
    /// Multiplier on shared-memory access cycles. 1.0 on GPUs with real
    /// scratchpads; > 1 on CPUs where "local memory" is an emulated copy in
    /// cache (the paper's TranP-on-Intel920 observation).
    pub shared_access_scale: f64,
    /// Launch overhead floor in ns that no API can go below (hardware
    /// command processor).
    pub hw_launch_ns: f64,
    /// Number of DRAM partitions (memory controllers); a launch rejects
    /// more than [`crate::stats::MAX_DRAM_PARTITIONS`].
    pub dram_partitions: u32,
    /// Whether addresses are hashed across partitions (Fermi and later) —
    /// hashing eliminates GT200's "partition camping" on hot segments or
    /// power-of-two strides.
    pub partition_hashed: bool,
    /// L2 bandwidth in GB/s (only meaningful when `l2` is present): every
    /// L1/texture miss moves a full line through the L2, which bounds
    /// irregular-gather throughput even when the lines hit in L2.
    pub l2_bandwidth_gbs: f64,
    /// Pipeline-refill cost of a taken branch, in core cycles (what loop
    /// unrolling amortises — the paper's Fig. 6).
    pub taken_branch_cycles: f64,
}

impl DeviceSpec {
    /// Theoretical peak bandwidth in GB/s (paper Eq. 2 for NVIDIA parts).
    pub fn theoretical_peak_bandwidth_gbs(&self) -> f64 {
        self.mem_bandwidth_gbs
    }

    /// Theoretical peak single-precision GFlops/s (paper Eq. 3:
    /// `CC * #Cores * R * 1e-9` with MHz clock).
    pub fn theoretical_peak_gflops(&self) -> f64 {
        self.core_clock_mhz as f64
            * 1e6
            * (self.compute_units * self.cores_per_cu) as f64
            * self.flops_per_core_per_clock
            * 1e-9
    }

    /// Core clock in Hz.
    pub fn clock_hz(&self) -> f64 {
        self.core_clock_mhz as f64 * 1e6
    }

    /// Number of warps a block of `threads` threads occupies.
    pub fn warps_per_block(&self, threads: u32) -> u32 {
        threads.div_ceil(self.warp_width)
    }

    /// Occupancy calculation: how many blocks of the given shape fit on one
    /// compute unit simultaneously, and what fraction of the warp slots
    /// that fills. This is the standard CUDA occupancy computation and is
    /// what turns register pressure (e.g. the OpenCL FDTD outer unroll of
    /// the paper's Fig. 7) into a performance effect.
    pub fn occupancy(
        &self,
        threads_per_block: u32,
        regs_per_thread: u32,
        smem_per_block: u32,
    ) -> Occupancy {
        assert!(threads_per_block > 0, "empty block");
        let warps = self.warps_per_block(threads_per_block);
        let by_threads = self.max_threads_per_cu / threads_per_block;
        let by_warps = self.max_warps_per_cu / warps;
        let by_blocks = self.max_blocks_per_cu;
        // Register allocation granularity: per-warp, rounded to 4 regs/lane.
        let regs_per_warp = (regs_per_thread.max(1).next_multiple_of(4)) * self.warp_width;
        let by_regs = self.regs_per_cu / (regs_per_warp * warps).max(1);
        let by_smem = self
            .shared_mem_per_cu
            .checked_div(smem_per_block)
            .unwrap_or(u32::MAX);
        let mut blocks = by_threads
            .min(by_warps)
            .min(by_blocks)
            .min(by_regs)
            .min(by_smem);
        let limiter = if blocks == by_regs
            && by_regs <= by_smem
            && by_regs <= by_blocks
            && by_regs <= by_warps
        {
            "registers"
        } else if blocks == by_smem && by_smem <= by_blocks && by_smem <= by_warps {
            "shared memory"
        } else if blocks == by_blocks && by_blocks <= by_warps {
            "block slots"
        } else {
            "warp slots"
        };
        blocks = blocks.max(1); // a single block always "fits" (may be the whole CU)
        let warps_per_cu = (blocks * warps)
            .min(self.max_warps_per_cu)
            .max(warps.min(self.max_warps_per_cu))
            .max(1);
        Occupancy {
            blocks_per_cu: blocks,
            warps_per_cu,
            occupancy: warps_per_cu as f64 / self.max_warps_per_cu as f64,
            limiter,
        }
    }

    // ------------------------------------------------------------------
    // The catalogue
    // ------------------------------------------------------------------

    /// NVIDIA GTX280 ("Dutijc" testbed). GT200: 30 SMs of 8 cores,
    /// 1296 MHz, 141.7 GB/s, R = 3 (dual-issue mul+mad), no global-memory
    /// cache, 16 KiB shared memory, half-warp coalescing.
    pub fn gtx280() -> Self {
        DeviceSpec {
            name: "GTX280",
            arch: Arch::Gt200,
            kind: DeviceKind::Gpu,
            compute_units: 30,
            cores_per_cu: 8,
            core_clock_mhz: 1296,
            // Eq. 2: 1107 MHz * (512/8) * 2 * 1e-9 = 141.7 GB/s
            mem_bandwidth_gbs: 141.7,
            mem_capacity_mib: 1024,
            warp_width: 32,
            max_threads_per_cu: 1024,
            max_warps_per_cu: 32,
            max_blocks_per_cu: 8,
            regs_per_cu: 16384,
            max_regs_per_thread: 128,
            shared_mem_per_cu: 16 * 1024,
            max_workgroup_size: 512,
            shared_banks: 16,
            l1: None,
            l2: None,
            tex_cache: Some(CacheGeom {
                size: 8 * 1024,
                line: 64,
                assoc: 8,
            }),
            const_cache: Some(CacheGeom {
                size: 8 * 1024,
                line: 64,
                assoc: 4,
            }),
            segment_bytes: 64,
            coalesce_group: 16,
            // Achieved peak fractions in the paper: 68.6% of bandwidth,
            // 71.5% of FLOPS (Figs 1-2).
            dram_efficiency: 0.75,
            arith_cycle_scale: 0.664,
            mem_latency_ns: 420.0,
            latency_hiding_warps: 18.0,
            flops_per_core_per_clock: 3.0,
            wi_overhead_cycles: 0.0,
            barrier_cost_cycles: 8.0,
            shared_access_scale: 1.0,
            hw_launch_ns: 3_000.0,
            dram_partitions: 8,
            partition_hashed: false,
            l2_bandwidth_gbs: 0.0,
            taken_branch_cycles: 10.0,
        }
    }

    /// NVIDIA GTX480 ("Saturn" testbed). Fermi: 15 SMs of 32 cores,
    /// 1401 MHz, 177.4 GB/s, R = 2 (mad), true L1/L2 cache hierarchy,
    /// 48 KiB shared memory, full-warp coalescing.
    ///
    /// The paper's Table IV lists "60 compute units"; the device reports 15
    /// SMs (the 60 counts the four-wide schedulers). The simulator uses the
    /// 15 x 32 organisation; peak figures match the paper's Eq. 2/3 values
    /// (1344.96 GFlops, 177.4 GB/s) either way.
    pub fn gtx480() -> Self {
        DeviceSpec {
            name: "GTX480",
            arch: Arch::Fermi,
            kind: DeviceKind::Gpu,
            compute_units: 15,
            cores_per_cu: 32,
            core_clock_mhz: 1401,
            // Eq. 2: 1848 MHz * (384/8) * 2 * 1e-9 = 177.4 GB/s
            mem_bandwidth_gbs: 177.4,
            mem_capacity_mib: 1536,
            warp_width: 32,
            max_threads_per_cu: 1536,
            max_warps_per_cu: 48,
            max_blocks_per_cu: 8,
            regs_per_cu: 32768,
            max_regs_per_thread: 63,
            shared_mem_per_cu: 48 * 1024,
            max_workgroup_size: 1024,
            shared_banks: 32,
            l1: Some(CacheGeom {
                size: 16 * 1024,
                line: 128,
                assoc: 4,
            }),
            l2: Some(CacheGeom {
                size: 768 * 1024,
                line: 128,
                assoc: 16,
            }),
            tex_cache: Some(CacheGeom {
                size: 12 * 1024,
                line: 64,
                assoc: 8,
            }),
            const_cache: Some(CacheGeom {
                size: 8 * 1024,
                line: 64,
                assoc: 4,
            }),
            segment_bytes: 128,
            coalesce_group: 32,
            // Achieved peak fractions in the paper: 87.7% of bandwidth,
            // 97.7% of FLOPS (Figs 1-2).
            dram_efficiency: 0.93,
            arith_cycle_scale: 0.995,
            mem_latency_ns: 380.0,
            latency_hiding_warps: 22.0,
            flops_per_core_per_clock: 2.0,
            wi_overhead_cycles: 0.0,
            barrier_cost_cycles: 6.0,
            shared_access_scale: 1.0,
            hw_launch_ns: 3_000.0,
            dram_partitions: 6,
            partition_hashed: true,
            l2_bandwidth_gbs: 230.0,
            taken_branch_cycles: 6.0,
        }
    }

    /// ATI Radeon HD5870 ("Jupiter" testbed). Cypress: 20 SIMD engines,
    /// 16 thread processors x 5 VLIW lanes, 850 MHz, 153.6 GB/s GDDR5,
    /// 64-wide wavefronts.
    ///
    /// The VLIW5 packing of scalar kernels is imperfect; the
    /// `arith_cycle_scale` of 2.4 reflects a typical ~2.1 of 5 slots filled
    /// for the scalar (non-vectorised) OpenCL kernels the paper ports.
    pub fn hd5870() -> Self {
        DeviceSpec {
            name: "HD5870",
            arch: Arch::Cypress,
            kind: DeviceKind::Gpu,
            compute_units: 20,
            cores_per_cu: 80, // 16 thread processors x 5 VLIW lanes
            core_clock_mhz: 850,
            mem_bandwidth_gbs: 153.6,
            mem_capacity_mib: 1024,
            warp_width: 64,
            max_threads_per_cu: 1536,
            max_warps_per_cu: 24, // wavefronts
            max_blocks_per_cu: 8,
            regs_per_cu: 16384 * 4, // 256 KiB vector GPRs expressed as 32-bit regs
            max_regs_per_thread: 128,
            shared_mem_per_cu: 32 * 1024,
            max_workgroup_size: 256,
            shared_banks: 32,
            l1: None,
            l2: None,
            tex_cache: Some(CacheGeom {
                size: 8 * 1024,
                line: 64,
                assoc: 8,
            }),
            const_cache: Some(CacheGeom {
                size: 8 * 1024,
                line: 64,
                assoc: 4,
            }),
            segment_bytes: 128,
            coalesce_group: 64,
            dram_efficiency: 0.72,
            arith_cycle_scale: 2.4,
            mem_latency_ns: 450.0,
            latency_hiding_warps: 14.0,
            flops_per_core_per_clock: 2.0, // 2.72 TFlops peak
            wi_overhead_cycles: 0.0,
            barrier_cost_cycles: 10.0,
            shared_access_scale: 1.0,
            hw_launch_ns: 5_000.0,
            dram_partitions: 8,
            partition_hashed: true,
            l2_bandwidth_gbs: 0.0,
            taken_branch_cycles: 10.0,
        }
    }

    /// Intel Core i7-920 as an OpenCL device (AMD APP v2.2 in the paper).
    /// 4 cores at 2.67 GHz, SSE 4-wide; APP uses 64-wide logical wavefronts
    /// executed as loops, every work-item paying scheduling overhead, and
    /// "local memory" being an emulated copy through the cache hierarchy.
    pub fn intel920() -> Self {
        DeviceSpec {
            name: "Intel920",
            arch: Arch::X86Cpu,
            kind: DeviceKind::Cpu,
            compute_units: 4,
            cores_per_cu: 4, // SSE lanes
            core_clock_mhz: 2670,
            mem_bandwidth_gbs: 25.6, // triple-channel DDR3-1066
            mem_capacity_mib: 6144,
            warp_width: 64, // APP wavefront, the Table VI "FL" trigger
            max_threads_per_cu: 1024,
            max_warps_per_cu: 16,
            max_blocks_per_cu: 1,
            regs_per_cu: 1 << 20, // effectively unlimited (stack spill)
            max_regs_per_thread: 4096,
            shared_mem_per_cu: 32 * 1024,
            max_workgroup_size: 1024,
            shared_banks: 1,
            l1: Some(CacheGeom {
                size: 32 * 1024,
                line: 64,
                assoc: 8,
            }),
            l2: Some(CacheGeom {
                size: 8 * 1024 * 1024,
                line: 64,
                assoc: 16,
            }),
            tex_cache: None,
            const_cache: None,
            segment_bytes: 64,
            coalesce_group: 1,
            dram_efficiency: 0.60,
            arith_cycle_scale: 1.0,
            mem_latency_ns: 90.0,
            latency_hiding_warps: 1.0,
            flops_per_core_per_clock: 2.0, // SSE mul+add per lane
            wi_overhead_cycles: 14.0,
            barrier_cost_cycles: 1500.0,
            shared_access_scale: 6.0,
            hw_launch_ns: 20_000.0,
            dram_partitions: 1,
            partition_hashed: true,
            l2_bandwidth_gbs: 80.0,
            taken_branch_cycles: 3.0,
        }
    }

    /// Cell Broadband Engine SPEs via IBM's (then-immature) OpenCL.
    /// 8 SPEs at 3.2 GHz; each SPE owns a 256 KiB local store that must
    /// hold code, stack, work-group state and "local memory" — the origin
    /// of the paper's `CL_OUT_OF_RESOURCES` aborts (Table VI "ABT").
    pub fn cellbe() -> Self {
        DeviceSpec {
            name: "Cell/BE",
            arch: Arch::CellSpe,
            kind: DeviceKind::Accelerator,
            compute_units: 8,
            cores_per_cu: 4, // SPE SIMD lanes
            core_clock_mhz: 3200,
            mem_bandwidth_gbs: 25.6,
            mem_capacity_mib: 1024,
            warp_width: 4,
            max_threads_per_cu: 256,
            max_warps_per_cu: 64,
            max_blocks_per_cu: 1,
            regs_per_cu: 128 * 256,
            // The SPE ABI + IBM OpenCL runtime leave few usable registers;
            // kernels above this bound abort with CL_OUT_OF_RESOURCES.
            max_regs_per_thread: 40,
            // Usable fraction of the 256 KiB local store after code+stack.
            shared_mem_per_cu: 8 * 1024,
            max_workgroup_size: 256,
            shared_banks: 1,
            l1: None,
            l2: None,
            tex_cache: None,
            const_cache: None,
            segment_bytes: 128,
            coalesce_group: 1,
            dram_efficiency: 0.50,
            arith_cycle_scale: 1.0,
            mem_latency_ns: 600.0, // DMA into local store
            latency_hiding_warps: 2.0,
            flops_per_core_per_clock: 2.0,
            wi_overhead_cycles: 60.0,
            barrier_cost_cycles: 2000.0,
            shared_access_scale: 2.0,
            hw_launch_ns: 120_000.0,
            dram_partitions: 1,
            partition_hashed: true,
            l2_bandwidth_gbs: 0.0,
            taken_branch_cycles: 4.0,
        }
    }

    /// All devices of the paper's testbeds, NVIDIA GPUs first.
    pub fn all() -> Vec<DeviceSpec> {
        vec![
            Self::gtx280(),
            Self::gtx480(),
            Self::hd5870(),
            Self::intel920(),
            Self::cellbe(),
        ]
    }

    /// Look up a device by name (case-insensitive).
    pub fn by_name(name: &str) -> Option<DeviceSpec> {
        Self::all()
            .into_iter()
            .find(|d| d.name.eq_ignore_ascii_case(name))
    }
}

/// Result of the occupancy calculation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Occupancy {
    /// Blocks resident per compute unit.
    pub blocks_per_cu: u32,
    /// Warps resident per compute unit.
    pub warps_per_cu: u32,
    /// Fraction of the CU's warp slots filled.
    pub occupancy: f64,
    /// Which resource limited residency.
    pub limiter: &'static str,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theoretical_peaks_match_paper_equations() {
        // Paper Section IV-A: 933.12 and 1344.96 GFlops; 141.7 / 177.4 GB/s.
        let g280 = DeviceSpec::gtx280();
        let g480 = DeviceSpec::gtx480();
        assert!((g280.theoretical_peak_gflops() - 933.12).abs() < 0.01);
        assert!((g480.theoretical_peak_gflops() - 1344.96).abs() < 0.01);
        assert!((g280.theoretical_peak_bandwidth_gbs() - 141.7).abs() < 1e-9);
        assert!((g480.theoretical_peak_bandwidth_gbs() - 177.4).abs() < 1e-9);
    }

    #[test]
    fn occupancy_full_for_light_kernels() {
        let d = DeviceSpec::gtx480();
        let o = d.occupancy(256, 16, 0);
        assert_eq!(o.warps_per_cu, 48);
        assert!((o.occupancy - 1.0).abs() < 1e-9);
    }

    #[test]
    fn occupancy_limited_by_registers() {
        let d = DeviceSpec::gtx480();
        // 63 regs/thread * 256 threads = 16k regs per block; 32k regfile
        // fits only 2 blocks = 16 warps of 48.
        let o = d.occupancy(256, 63, 0);
        assert_eq!(o.blocks_per_cu, 2);
        assert_eq!(o.warps_per_cu, 16);
        assert_eq!(o.limiter, "registers");
        assert!(o.occupancy < 0.5);
    }

    #[test]
    fn occupancy_limited_by_shared_memory() {
        let d = DeviceSpec::gtx280();
        let o = d.occupancy(64, 8, 9 * 1024); // 9 KiB of 16 KiB -> 1 block
        assert_eq!(o.blocks_per_cu, 1);
        assert_eq!(o.limiter, "shared memory");
    }

    #[test]
    fn occupancy_single_block_always_fits() {
        let d = DeviceSpec::cellbe();
        let o = d.occupancy(256, 64, 0);
        assert!(o.blocks_per_cu >= 1);
        assert!(o.warps_per_cu >= 1);
    }

    #[test]
    fn warp_counting() {
        let d = DeviceSpec::gtx280();
        assert_eq!(d.warps_per_block(32), 1);
        assert_eq!(d.warps_per_block(33), 2);
        assert_eq!(d.warps_per_block(256), 8);
        let h = DeviceSpec::hd5870();
        assert_eq!(h.warps_per_block(256), 4); // 64-wide wavefronts
    }

    #[test]
    fn catalogue_lookup() {
        assert_eq!(DeviceSpec::by_name("gtx280").unwrap().name, "GTX280");
        assert_eq!(DeviceSpec::by_name("HD5870").unwrap().arch, Arch::Cypress);
        assert!(DeviceSpec::by_name("nope").is_none());
        assert_eq!(DeviceSpec::all().len(), 5);
    }

    #[test]
    fn wavefront_width_distinguishes_vendors() {
        assert_eq!(DeviceSpec::gtx280().warp_width, 32);
        assert_eq!(DeviceSpec::gtx480().warp_width, 32);
        assert_eq!(DeviceSpec::hd5870().warp_width, 64);
        assert_eq!(DeviceSpec::intel920().warp_width, 64);
    }
}
