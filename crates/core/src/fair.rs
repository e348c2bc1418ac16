//! The paper's eight-step fair-comparison model (Section IV-C, Fig. 9).
//!
//! A comparison of a CUDA build and an OpenCL build is *fair* exactly when
//! all eight steps of the development flow were configured identically.
//! [`BuildConfig`] captures the per-step configuration of one build;
//! [`fairness`] diffs two of them and names the steps that differ —
//! which, per the paper, are the places any observed performance gap must
//! be attributed to.

use std::fmt;

/// The eight steps of the development flow (paper Fig. 9), each owned by
/// one of the three roles.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FairStep {
    /// 1. Problem description.
    ProblemDescription,
    /// 2. Algorithm translation.
    AlgorithmTranslation,
    /// 3. Implementation (host + kernel, same APIs, same timers).
    Implementation,
    /// 4. Native kernel optimisations (shared memory, vectorisation,
    ///    unrolling, texture/constant memory, coalescing).
    NativeKernelOptimizations,
    /// 5. First-stage compilation (front-end, e.g. NVOPENCC).
    FirstStageCompilation,
    /// 6. Second-stage compilation (back-end, PTXAS).
    SecondStageCompilation,
    /// 7. Program configuration (problem + algorithmic parameters).
    ProgramConfiguration,
    /// 8. Running on the hardware.
    RunningOnGpu,
}

impl FairStep {
    /// All steps in flow order.
    pub const ALL: [FairStep; 8] = [
        FairStep::ProblemDescription,
        FairStep::AlgorithmTranslation,
        FairStep::Implementation,
        FairStep::NativeKernelOptimizations,
        FairStep::FirstStageCompilation,
        FairStep::SecondStageCompilation,
        FairStep::ProgramConfiguration,
        FairStep::RunningOnGpu,
    ];

    /// Which role controls this step (paper Fig. 9: programmers own 1-4,
    /// compilers 5-6, users 7-8).
    pub const fn role(self) -> Role {
        match self {
            FairStep::ProblemDescription
            | FairStep::AlgorithmTranslation
            | FairStep::Implementation
            | FairStep::NativeKernelOptimizations => Role::Programmer,
            FairStep::FirstStageCompilation | FairStep::SecondStageCompilation => Role::Compiler,
            FairStep::ProgramConfiguration | FairStep::RunningOnGpu => Role::User,
        }
    }

    /// Human-readable step name.
    pub const fn name(self) -> &'static str {
        match self {
            FairStep::ProblemDescription => "problem description",
            FairStep::AlgorithmTranslation => "algorithm translation",
            FairStep::Implementation => "implementation",
            FairStep::NativeKernelOptimizations => "native kernel optimizations",
            FairStep::FirstStageCompilation => "first-stage compilation",
            FairStep::SecondStageCompilation => "second-stage compilation",
            FairStep::ProgramConfiguration => "program configuration",
            FairStep::RunningOnGpu => "running on GPU",
        }
    }
}

impl fmt::Display for FairStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The three roles of the development flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Steps 1-4.
    Programmer,
    /// Steps 5-6.
    Compiler,
    /// Steps 7-8.
    User,
}

/// Configuration of one application build, step by step. Two builds whose
/// configurations agree on a step are "the same" at that step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BuildConfig {
    /// Description of the problem solved (step 1).
    pub problem: String,
    /// Algorithm identity (step 2).
    pub algorithm: String,
    /// Source identity: which kernel/host sources (step 3).
    pub source: String,
    /// Native optimisations applied (step 4), e.g. `["texture", "unroll:a"]`.
    pub optimizations: Vec<String>,
    /// Front-end compiler identity (step 5).
    pub frontend: String,
    /// Back-end compiler identity (step 6).
    pub backend: String,
    /// Problem + algorithmic parameters (step 7), e.g. block size.
    pub configuration: String,
    /// Device the build ran on (step 8).
    pub device: String,
}

impl BuildConfig {
    /// Typical unmodified CUDA build of a benchmark.
    pub fn cuda(benchmark: &str, opts: &[&str], device: &str, config: &str) -> Self {
        BuildConfig {
            problem: benchmark.into(),
            algorithm: benchmark.into(),
            source: format!("{benchmark}.cu"),
            optimizations: opts.iter().map(|s| s.to_string()).collect(),
            frontend: "nvopencc".into(),
            backend: "ptxas".into(),
            configuration: config.into(),
            device: device.into(),
        }
    }

    /// Typical unmodified OpenCL build of a benchmark.
    pub fn opencl(benchmark: &str, opts: &[&str], device: &str, config: &str) -> Self {
        BuildConfig {
            problem: benchmark.into(),
            algorithm: benchmark.into(),
            source: format!("{benchmark}.cl"),
            optimizations: opts.iter().map(|s| s.to_string()).collect(),
            frontend: "oclc".into(),
            backend: "ptxas".into(),
            configuration: config.into(),
            device: device.into(),
        }
    }
}

/// Verdict of a fairness analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fairness {
    /// Steps whose configurations differ, in flow order.
    pub differing: Vec<FairStep>,
}

impl Fairness {
    /// A comparison is fair when no step differs. (The paper: "a comparison
    /// ... is fair when configurations in all the eight steps ... are the
    /// same".)
    pub fn is_fair(&self) -> bool {
        self.differing.is_empty()
    }

    /// A comparison is *attributable* when the only differing steps are the
    /// compiler-owned ones — the unavoidable difference when comparing two
    /// programming models on the same device with the same source.
    pub fn only_compilers_differ(&self) -> bool {
        !self.differing.is_empty() && self.differing.iter().all(|s| s.role() == Role::Compiler)
    }
}

impl fmt::Display for Fairness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_fair() {
            write!(f, "fair (all eight steps identical)")
        } else {
            write!(f, "unfair at: ")?;
            for (i, s) in self.differing.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{s}")?;
            }
            Ok(())
        }
    }
}

/// Diff two build configurations step by step.
pub fn fairness(a: &BuildConfig, b: &BuildConfig) -> Fairness {
    let mut differing = Vec::new();
    if a.problem != b.problem {
        differing.push(FairStep::ProblemDescription);
    }
    if a.algorithm != b.algorithm {
        differing.push(FairStep::AlgorithmTranslation);
    }
    if a.source != b.source {
        differing.push(FairStep::Implementation);
    }
    {
        let mut oa = a.optimizations.clone();
        let mut ob = b.optimizations.clone();
        oa.sort();
        ob.sort();
        if oa != ob {
            differing.push(FairStep::NativeKernelOptimizations);
        }
    }
    if a.frontend != b.frontend {
        differing.push(FairStep::FirstStageCompilation);
    }
    if a.backend != b.backend {
        differing.push(FairStep::SecondStageCompilation);
    }
    if a.configuration != b.configuration {
        differing.push(FairStep::ProgramConfiguration);
    }
    if a.device != b.device {
        differing.push(FairStep::RunningOnGpu);
    }
    Fairness { differing }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_builds_are_fair() {
        let a = BuildConfig::cuda("MxM", &[], "GTX480", "block=16x16");
        let f = fairness(&a, &a.clone());
        assert!(f.is_fair());
        assert_eq!(f.to_string(), "fair (all eight steps identical)");
    }

    #[test]
    fn unmodified_paper_comparison_is_unfair_at_multiple_steps() {
        // the paper's "unmodified" MD comparison: CUDA uses texture,
        // different source files, different front-ends
        let c = BuildConfig::cuda("MD", &["texture"], "GTX280", "block=128");
        let o = BuildConfig::opencl("MD", &[], "GTX280", "block=128");
        let f = fairness(&c, &o);
        assert!(!f.is_fair());
        assert!(f.differing.contains(&FairStep::Implementation));
        assert!(f.differing.contains(&FairStep::NativeKernelOptimizations));
        assert!(f.differing.contains(&FairStep::FirstStageCompilation));
        assert!(!f.only_compilers_differ());
    }

    #[test]
    fn same_source_same_opts_leaves_only_compilers() {
        let mut c = BuildConfig::cuda("FFT", &[], "GTX480", "wg=64");
        let o = {
            let mut o = BuildConfig::opencl("FFT", &[], "GTX480", "wg=64");
            o.source = "fft_shared.krn".into();
            o
        };
        c.source = "fft_shared.krn".into();
        let f = fairness(&c, &o);
        assert!(f.only_compilers_differ());
        assert_eq!(f.differing, vec![FairStep::FirstStageCompilation]);
    }

    #[test]
    fn roles_partition_the_steps() {
        use FairStep::*;
        assert_eq!(Implementation.role(), Role::Programmer);
        assert_eq!(FirstStageCompilation.role(), Role::Compiler);
        assert_eq!(RunningOnGpu.role(), Role::User);
        assert_eq!(FairStep::ALL.len(), 8);
    }

    #[test]
    fn optimization_order_does_not_matter() {
        let a = BuildConfig::cuda("X", &["unroll", "texture"], "GTX480", "c");
        let b = BuildConfig::cuda("X", &["texture", "unroll"], "GTX480", "c");
        assert!(fairness(&a, &b).is_fair());
    }
}
