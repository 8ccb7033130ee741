//! Order statistics the benchmark reports.
//!
//! Every timing is reported as a median plus the highest percentile that
//! still has at least [`TAIL_MIN_BEYOND`] samples beyond it, together
//! with the sample count, so a tail figure never rests on a handful of
//! samples.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_CANDIDATES: [f64; 8] = [99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// A tail figure: which percentile, its value, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (e.g. 99.0).
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples the figure was taken from.
    pub samples: usize,
}

/// Nearest-rank percentile of ascending-sorted `sorted` (1-based rank
/// `ceil(p/100 * n)`), with the rank returned beside the value.
fn nearest_rank(sorted: &[f64], pct: f64) -> (usize, f64) {
    let n = sorted.len();
    // The epsilon keeps decimal percentiles exact: 99.9 % of 10 000 is
    // rank 9990, not the 9991 that 0.999's binary rounding would give.
    let rank = ((pct / 100.0) * n as f64 - 1e-9).ceil().max(1.0) as usize;
    let rank = rank.min(n);
    (rank, sorted[rank - 1])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (nearest-rank p50 for odd counts, mean of the middle pair for
/// even ones); `None` for no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The fastest of repeated timings of identical work. Contention from
/// other tenants of the host only ever adds time, so the fastest
/// repetition is the steadiest estimate of what the code itself costs;
/// `None` for no samples.
pub fn fastest(values: &[f64]) -> Option<f64> {
    values.iter().copied().min_by(f64::total_cmp)
}

/// Sum over groups of each group's fastest timing: the cost of one pass
/// through a fixed set of operations, each at its least-contended
/// repetition. Host contention comes in bursts shorter than a pass, so
/// this is far steadier than the fastest whole pass. `None` when any
/// group is empty.
pub fn sum_of_fastest(groups: &[Vec<f64>]) -> Option<f64> {
    groups.iter().map(|g| fastest(g)).sum()
}

/// Median over groups of each group's fastest timing — the median
/// *operation* when a pass runs a fixed set of different operations, so
/// the figure never sits on the boundary between two kinds of
/// operation. `None` when every group is empty.
pub fn median_of_fastest(groups: &[Vec<f64>]) -> Option<f64> {
    let fastest: Vec<f64> = groups.iter().filter_map(|g| fastest(g)).collect();
    median(&fastest)
}

/// The highest candidate percentile with at least [`TAIL_MIN_BEYOND`]
/// samples strictly beyond its rank. With too few samples for even the
/// median to qualify, the median is reported (the sample count says
/// so). `None` for no samples.
pub fn tail(values: &[f64]) -> Option<Tail> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let n = v.len();
    for pct in TAIL_CANDIDATES {
        let (rank, value) = nearest_rank(&v, pct);
        if n - rank >= TAIL_MIN_BEYOND {
            return Some(Tail {
                pct,
                value,
                samples: n,
            });
        }
    }
    Some(Tail {
        pct: 50.0,
        value: nearest_rank(&v, 50.0).1,
        samples: n,
    })
}

/// `n=…, min …, median …, max …` of `values`, for the report lines.
pub fn summary(values: &[f64]) -> String {
    let v = sorted(values);
    match (v.first(), v.last(), median(&v)) {
        (Some(lo), Some(hi), Some(mid)) => {
            format!("n={} min {lo:.6} median {mid:.6} max {hi:.6}", v.len())
        }
        _ => "n=0".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the statistics must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn median_of_fastest_takes_whole_groups() {
        // Pooled, these 8 samples' median would average two groups'
        // edges; by group it is the middle group's fastest sample.
        let groups = vec![
            vec![3.0, 1.0, 2.0],
            vec![11.0, 10.0],
            vec![100.0, 101.0, 102.0],
        ];
        assert_eq!(median_of_fastest(&groups), Some(10.0));
        assert_eq!(median_of_fastest(&[vec![], vec![4.0]]), Some(4.0));
        assert_eq!(median_of_fastest(&[]), None);
        assert_eq!(fastest(&[2.0, 0.5, 1.0]), Some(0.5));
        assert_eq!(fastest(&[]), None);
        assert_eq!(sum_of_fastest(&groups), Some(111.0));
        assert_eq!(sum_of_fastest(&[vec![1.0], vec![]]), None);
    }

    #[test]
    fn tail_picks_p99_only_with_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, exactly 10 beyond it.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.pct, t.value, t.samples), (99.0, 990.0, 1000));
        // 999 samples: p99 is rank 990 (ceil 989.01), 9 beyond — too
        // few, so the rule falls back to p98.
        let t = tail(&ramp(999)).unwrap();
        assert_eq!(t.pct, 98.0);
        assert_eq!(t.value, 980.0);
        // 10 000 samples reach p99.9.
        assert_eq!(tail(&ramp(10_000)).unwrap().pct, 99.9);
    }

    #[test]
    fn tail_with_few_samples() {
        // 200 samples: p95 (rank 190, 10 beyond) is the highest.
        assert_eq!(tail(&ramp(200)).unwrap().pct, 95.0);
        // 20 samples: p50 has exactly 10 beyond.
        let t = tail(&ramp(20)).unwrap();
        assert_eq!((t.pct, t.value), (50.0, 10.0));
        // 5 samples: nothing qualifies; the median is reported with
        // its count.
        let t = tail(&ramp(5)).unwrap();
        assert_eq!((t.pct, t.value, t.samples), (50.0, 3.0, 5));
        assert_eq!(tail(&[]), None);
    }
}
