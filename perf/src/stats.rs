//! Sample statistics and the output digest.

/// A reported tail percentile needs at least this many samples beyond it;
/// with fewer, the tail is reported as the maximum.
pub const MIN_BEYOND: usize = 10;

/// Median of unsorted samples (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The samples in ascending order.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank percentile of ascending samples: the value at rank
/// `ceil(pct/100 * n)`, so exactly `n - rank` samples lie beyond it.
/// `pct` is an integer percentage to keep the rank arithmetic exact.
pub fn percentile(sorted: &[f64], pct: usize) -> f64 {
    let n = sorted.len();
    assert!(n > 0 && pct <= 100, "percentile {pct} of {n} samples");
    let rank = (pct * n).div_ceil(100).clamp(1, n);
    sorted[rank - 1]
}

/// A tail latency: the highest percentile, at most p99, that still has
/// [`MIN_BEYOND`] samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// Its percentile (100 when the tail is the maximum).
    pub pct: f64,
    /// Samples strictly beyond it in rank.
    pub beyond: usize,
}

/// The tail of ascending samples: p99 when at least 1000 samples exist,
/// else the rank that leaves exactly [`MIN_BEYOND`] beyond it, else (with
/// too few samples for any such rank) the maximum.
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    assert!(n > 0, "tail of no samples");
    if n <= MIN_BEYOND {
        return Tail {
            value: sorted[n - 1],
            pct: 100.0,
            beyond: 0,
        };
    }
    let rank = (99 * n).div_ceil(100).min(n - MIN_BEYOND);
    Tail {
        value: sorted[rank - 1],
        pct: 100.0 * rank as f64 / n as f64,
        beyond: n - rank,
    }
}

/// Operations in one slice of a measured phase.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Window {
    /// Length of the slice, s.
    pub secs: f64,
    /// Latency of each operation that completed in it, ms.
    pub ops_ms: Vec<f64>,
}

/// Width of the time windows a phase is cut into, s.
///
/// The host is shared: a co-tenant slows it by about 1.5x for stretches
/// of seconds to minutes. Across windows a run therefore reports the
/// favourable quartile, the speed the program sustains in its better
/// quarter of windows. Contention over up to three quarters of a run
/// does not move it.
pub const WINDOW_S: f64 = 1.0;

/// Cut operations, given as (completion time since the phase started in
/// s, latency in ms), into windows of [`WINDOW_S`] by completion time. A
/// last window shorter than half a width joins the one before it. A
/// window's length runs from the last completion before it to its own
/// last completion, so its rate is not rounded to whole operations per
/// window.
pub fn time_windows(mut ops: Vec<(f64, f64)>, wall_s: f64) -> Vec<Window> {
    ops.sort_by(|a, b| a.0.total_cmp(&b.0));
    let n = ((wall_s / WINDOW_S).round() as usize).max(1);
    let mut out = vec![
        Window {
            secs: WINDOW_S,
            ops_ms: Vec::new(),
        };
        n
    ];
    let mut last_end = 0.0;
    for (end_s, ms) in ops {
        let i = ((end_s / WINDOW_S) as usize).min(n - 1);
        if out[i].ops_ms.is_empty() {
            out[i].secs = 0.0;
        }
        out[i].ops_ms.push(ms);
        out[i].secs += end_s - last_end;
        last_end = end_s;
    }
    out
}

/// Upper quartile over windows of operations completed per second.
pub fn window_rate(windows: &[Window]) -> f64 {
    let rates: Vec<f64> = windows
        .iter()
        .map(|w| w.ops_ms.len() as f64 / w.secs)
        .collect();
    percentile(&sorted(&rates), 75)
}

/// Lower quartile over windows of each window's median latency, ms.
pub fn window_p50(windows: &[Window]) -> f64 {
    let p50s: Vec<f64> = windows
        .iter()
        .filter(|w| !w.ops_ms.is_empty())
        .map(|w| percentile(&sorted(&w.ops_ms), 50))
        .collect();
    percentile(&sorted(&p50s), 25)
}

/// Operations per block when taking a tail over a long run: enough for a
/// p99 with [`MIN_BEYOND`] samples beyond it.
pub const TAIL_BLOCK: usize = 1000;

/// The tail of latencies in completion order, with the number of blocks
/// it came from. A run of at least two blocks of [`TAIL_BLOCK`]
/// operations reports the lower quartile of its blocks' p99s; a shorter
/// run reports [`tail`] of all its samples. `None` when the run has too
/// few samples for any percentile with [`MIN_BEYOND`] beyond it.
pub fn blocked_tail(ops_ms: &[f64]) -> Option<(Tail, usize)> {
    let n = ops_ms.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let blocks = n / TAIL_BLOCK;
    if blocks < 2 {
        return Some((tail(&sorted(ops_ms)), 1));
    }
    let tails: Vec<Tail> = (0..blocks)
        .map(|b| tail(&sorted(&ops_ms[b * n / blocks..(b + 1) * n / blocks])))
        .collect();
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    let beyond = tails.iter().map(|t| t.beyond).min().unwrap_or(0);
    Some((
        Tail {
            value: percentile(&sorted(&values), 25),
            pct: 99.0,
            beyond,
        },
        blocks,
    ))
}

/// Quartiles as Python's `statistics.quantiles(data, n=4)` computes them
/// (the default "exclusive" method), so spreads match the tools that
/// judge this benchmark. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let s = sorted(samples);
    let ld = s.len();
    assert!(ld >= 2, "quartiles need two samples, got {ld}");
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// FNV-1a 64 over everything a workload outputs. A change that only makes
/// the program faster must leave a workload's digest unchanged.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold bytes in.
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Fold a value in through its `Debug` text, which covers every field.
    pub fn eat_debug(&mut self, v: &impl std::fmt::Debug) {
        self.eat(format!("{v:?}").as_bytes());
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_counts_samples_beyond_by_nearest_rank() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 50), 500.0);
        assert_eq!(percentile(&s, 99), 990.0, "ten samples lie beyond p99");
        assert_eq!(percentile(&s, 100), 1000.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&s);
        assert_eq!((t.value, t.pct, t.beyond), (990.0, 99.0, 10));

        // 5000 samples: plain p99, with 50 beyond.
        let s: Vec<f64> = (1..=5000).map(f64::from).collect();
        assert_eq!(tail(&s).beyond, 50);
        assert_eq!(tail(&s).value, 4950.0);

        // 200 samples: p99 would leave only 2 beyond, so the tail moves
        // down to the rank that leaves exactly ten.
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&s);
        assert_eq!((t.value, t.beyond), (190.0, 10));
        assert!((t.pct - 95.0).abs() < 1e-9);

        // Too few samples for any such percentile: the maximum.
        let t = tail(&sorted(&[3.0, 1.0, 2.0]));
        assert_eq!((t.value, t.pct, t.beyond), (3.0, 100.0, 0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 9], n=4) == [-1.0, 5.0, 11.0]
        assert_eq!(quartiles(&[9.0, 1.0]), [-1.0, 5.0, 11.0]);
    }

    #[test]
    fn windows_report_the_favourable_quartile() {
        // 10 s at 100 ops/s of 10 ms each, except a 6 s stretch in which
        // the host is contended: ops take 30 ms and a third as many
        // complete.
        let mut ops = Vec::new();
        let mut t = 0.0;
        while t < 10.0 {
            let ms = if (2.0..8.0).contains(&t) { 30.0 } else { 10.0 };
            t += ms / 1e3;
            ops.push((t, ms));
        }
        let w = time_windows(ops, 10.0);
        assert_eq!(w.len(), 10);
        assert!(w.iter().all(|w| (w.secs - WINDOW_S).abs() < 0.04), "{w:?}");
        assert!(
            (window_rate(&w) - 100.0).abs() < 1e-6,
            "{}",
            window_rate(&w)
        );
        assert_eq!(window_p50(&w), 10.0);

        // A short last window joins its neighbour; lengths run from one
        // window's last completion to the next's.
        let w = time_windows(vec![(0.5, 1.0), (1.1, 1.0), (2.4, 1.0)], 2.45);
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].secs, 0.5);
        assert!((w[1].secs - 1.9).abs() < 1e-9);
        assert_eq!(w[1].ops_ms.len(), 2);
        // A window where nothing completed has rate 0.
        let w = time_windows(vec![(0.5, 1.0), (2.5, 1.0)], 3.0);
        assert_eq!((w[1].secs, w[1].ops_ms.len()), (WINDOW_S, 0));
    }

    #[test]
    fn blocked_tail_is_the_lower_quartile_block_p99() {
        // Three blocks of 1000; one has a burst of slow ops.
        let mut ops: Vec<f64> = (0..3000).map(|i| (i % 1000) as f64).collect();
        for v in &mut ops[1000..1100] {
            *v = 1e6;
        }
        let (t, blocks) = blocked_tail(&ops).unwrap();
        assert_eq!(blocks, 3);
        assert_eq!(t.value, 989.0);
        assert_eq!(t.beyond, 10);
        // Under two blocks: the plain tail of the whole run.
        let ops: Vec<f64> = (1..=1500).map(f64::from).collect();
        assert_eq!(blocked_tail(&ops), Some((tail(&ops), 1)));
        // Too few samples for a tail at all.
        assert_eq!(blocked_tail(&[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.eat(b"ab");
        let mut b = Digest::default();
        b.eat(b"ba");
        assert_ne!(a.hex(), b.hex());
        assert_eq!(Digest::default().hex(), "cbf29ce484222325");
    }
}
