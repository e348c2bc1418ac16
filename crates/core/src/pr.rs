//! The Performance Ratio metric (paper Eq. 1) and the similarity band.

/// The paper's similarity band: `|1 - PR| < 0.1` means the two programming
/// models perform "similarly".
pub const SIMILARITY_BAND: f64 = 0.1;

/// A single PR measurement:
/// `PR = Performance_OpenCL / Performance_CUDA` (Eq. 1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pr(pub f64);

impl Pr {
    /// Build from two normalised performance values (higher = better).
    pub fn from_performance(opencl: f64, cuda: f64) -> Pr {
        Pr(opencl / cuda)
    }

    /// `|1 - PR| < 0.1` — the paper's "similar performance" criterion.
    pub fn is_similar(self) -> bool {
        (1.0 - self.0).abs() < SIMILARITY_BAND
    }

    /// OpenCL strictly better (beyond the band).
    pub fn opencl_wins(self) -> bool {
        self.0 >= 1.0 + SIMILARITY_BAND
    }

    /// CUDA strictly better (beyond the band).
    pub fn cuda_wins(self) -> bool {
        self.0 <= 1.0 - SIMILARITY_BAND
    }

    /// Verdict string for reports.
    pub fn verdict(self) -> &'static str {
        if self.is_similar() {
            "similar"
        } else if self.opencl_wins() {
            "OpenCL wins"
        } else {
            "CUDA wins"
        }
    }
}

impl std::fmt::Display for Pr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_boundaries() {
        assert!(Pr(1.0).is_similar());
        assert!(Pr(1.09).is_similar());
        assert!(Pr(0.91).is_similar());
        assert!(!Pr(1.11).is_similar());
        assert!(Pr(1.11).opencl_wins());
        assert!(Pr(0.89).cuda_wins());
        assert_eq!(Pr(3.2).verdict(), "OpenCL wins");
        assert_eq!(Pr(0.5).verdict(), "CUDA wins");
        assert_eq!(Pr(1.0).verdict(), "similar");
    }

    #[test]
    fn from_performance_direction() {
        // OpenCL 80 GB/s vs CUDA 100 GB/s -> PR = 0.8
        assert_eq!(Pr::from_performance(80.0, 100.0).0, 0.8);
    }
}
