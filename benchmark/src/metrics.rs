//! The benchmark's own arithmetic: percentiles, segment rates, log2
//! histogram quantiles and the residual split. Kept free of the cluster so
//! `cargo test` can check the harness without a run.

/// One host-clock mark taken inside the traffic window, at a fixed count of
/// measured completions.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Mark {
    /// Measured completions so far.
    pub ops: u64,
    /// CPU nanoseconds the process has been given so far (`harness::cpu_ns`).
    pub cpu_ns: u64,
    /// Whether the segment *ending* at this mark ran with tracing on.
    pub traced: bool,
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=1); 0 when
/// empty. Exact: the value returned is one of the samples.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the value [`percentile`] returns for `p`.
pub fn samples_beyond(sorted: &[u64], p: f64) -> usize {
    let v = percentile(sorted, p);
    sorted.len() - sorted.partition_point(|&x| x <= v)
}

/// Median of an unsorted float slice (mean of the middle two when even);
/// 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Host rate (K ops per CPU second) of every *full* segment between
/// consecutive marks, paired with that segment's traced flag. `marks[0]` is
/// the window's opening mark; a segment shorter than `seg_ops` (the tail
/// after the deadline) is left out so every rate covers the same op count.
pub fn segment_kops(marks: &[Mark], seg_ops: u64) -> Vec<(f64, bool)> {
    marks
        .windows(2)
        .filter(|w| w[1].ops - w[0].ops == seg_ops && w[1].cpu_ns > w[0].cpu_ns)
        .map(|w| {
            let ns = (w[1].cpu_ns - w[0].cpu_ns) as f64;
            (seg_ops as f64 / ns * 1e6, w[1].traced)
        })
        .collect()
}

/// Upper edge of the log2 bucket holding quantile `p` of a histogram whose
/// bucket 0 counts zeros and bucket `k` counts values in `2^(k-1)..2^k`
/// (the servers' `queue_depth_hist` / `service_time_hist_by_op` layout).
pub fn log2_hist_quantile(hist: &[u64], p: f64) -> u64 {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((p * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0;
    for (k, n) in hist.iter().enumerate() {
        seen += n;
        if seen >= rank {
            return if k == 0 { 0 } else { 1 << k };
        }
    }
    1 << (hist.len() - 1)
}

/// What the layer replays leave unexplained: host ns per op minus each
/// layer's estimated ns per op. Returns `(residual_ns_per_op,
/// residual_share)`; negative when the replays overshoot (a replay is an
/// upper estimate when its working set is colder than the live system's).
pub fn residual(host_ns_per_op: f64, layers_ns_per_op: &[f64]) -> (f64, f64) {
    let rest = host_ns_per_op - layers_ns_per_op.iter().sum::<f64>();
    (rest, ratio(rest, host_ns_per_op))
}

/// `num / den`, or 0 when the layer saw no traffic (`den == 0`).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_and_exact() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(samples_beyond(&v, 0.99), 1);
        assert_eq!(samples_beyond(&[3, 3, 3, 9], 0.5), 1);
    }

    #[test]
    fn median_handles_even_odd_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn segments_skip_the_short_tail_and_keep_flags() {
        let m = |ops, cpu_ns, traced| Mark {
            ops,
            cpu_ns,
            traced,
        };
        let marks = [
            m(0, 0, false),
            m(100, 1_000_000, false),
            m(200, 1_500_000, true),
            m(230, 1_600_000, false),
        ];
        let segs = segment_kops(&marks, 100);
        assert_eq!(segs.len(), 2, "30-op tail is not a full segment");
        assert!((segs[0].0 - 100.0).abs() < 1e-9 && !segs[0].1);
        assert!((segs[1].0 - 200.0).abs() < 1e-9 && segs[1].1);
    }

    #[test]
    fn log2_quantile_returns_bucket_upper_edge() {
        let mut h = [0u64; 16];
        h[0] = 90; // idle arrivals
        h[3] = 9; // 4..8
        h[5] = 1; // 16..32
        assert_eq!(log2_hist_quantile(&h, 0.5), 0);
        assert_eq!(log2_hist_quantile(&h, 0.99), 8);
        assert_eq!(log2_hist_quantile(&h, 1.0), 32);
        assert_eq!(log2_hist_quantile(&[0; 16], 0.99), 0);
    }

    #[test]
    fn residual_subtracts_the_layers() {
        let (ns, share) = residual(1_000.0, &[200.0, 200.0]);
        assert!((ns - 600.0).abs() < 1e-9);
        assert!((share - 0.6).abs() < 1e-9);
        let (ns, share) = residual(100.0, &[120.0]);
        assert!(ns < 0.0 && share < 0.0, "overshoot stays visible");
        assert_eq!(residual(0.0, &[]), (0.0, 0.0));
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
