//! The benchmark's own arithmetic: percentiles, the tail-percentile rule
//! and SLO accounting.

/// Percentile levels the tail rule chooses from, highest first.
const TAIL_LEVELS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`p` in 0..=100) of `values`, which need not be
/// sorted. Returns `None` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Number of samples strictly beyond the nearest-rank `p`-th percentile of
/// `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n.max(1)).min(n)
}

/// Whether the `p`-th percentile of `n` samples has at least
/// [`MIN_BEYOND`] samples beyond it, i.e. is a tail the run can resolve.
pub fn resolves(n: usize, p: f64) -> bool {
    n > 0 && samples_beyond(n, p) >= MIN_BEYOND
}

/// The highest tail percentile of [`TAIL_LEVELS`] that `n` samples resolve,
/// or `None` when even p75 has fewer than [`MIN_BEYOND`] samples beyond it.
pub fn highest_resolved_tail(n: usize) -> Option<f64> {
    TAIL_LEVELS.iter().copied().find(|&p| resolves(n, p))
}

/// Outcome of one request as the SLO counts it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RequestResult {
    /// Served: time to first token and mean gap between tokens, in ms.
    Served { ttft_ms: f64, mean_tpot_ms: f64 },
    /// Failed, refused, or produced a wrong output.
    Failed,
}

/// Latency limits of a workload's SLO.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloLimits {
    /// Time-to-first-token limit in ms.
    pub ttft_ms: f64,
    /// Mean time-per-output-token limit in ms.
    pub tpot_ms: f64,
}

impl SloLimits {
    /// Whether one request met both limits. A failed request never does.
    pub fn met(&self, result: &RequestResult) -> bool {
        match *result {
            RequestResult::Served {
                ttft_ms,
                mean_tpot_ms,
            } => ttft_ms <= self.ttft_ms && mean_tpot_ms <= self.tpot_ms,
            RequestResult::Failed => false,
        }
    }

    /// Share of the requests *sent* that met the SLO (0 when none were).
    pub fn attainment(&self, results: &[RequestResult]) -> f64 {
        if results.is_empty() {
            return 0.0;
        }
        results.iter().filter(|r| self.met(r)).count() as f64 / results.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // p90 of 100 samples has exactly 10 beyond it; of 99 only 9.
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert!(resolves(100, 90.0));
        assert!(!resolves(99, 90.0));
        // p99 needs 1000 samples.
        assert!(resolves(1000, 99.0));
        assert!(!resolves(999, 99.0));
        assert_eq!(highest_resolved_tail(1000), Some(99.0));
        assert_eq!(highest_resolved_tail(999), Some(95.0));
        assert_eq!(highest_resolved_tail(200), Some(95.0));
        assert_eq!(highest_resolved_tail(100), Some(90.0));
        assert_eq!(highest_resolved_tail(40), Some(75.0));
        assert_eq!(highest_resolved_tail(39), None);
        assert_eq!(highest_resolved_tail(0), None);
    }

    #[test]
    fn failed_or_refused_requests_miss_the_slo() {
        let slo = SloLimits {
            ttft_ms: 100.0,
            tpot_ms: 10.0,
        };
        let results = [
            RequestResult::Served {
                ttft_ms: 50.0,
                mean_tpot_ms: 5.0,
            },
            RequestResult::Served {
                ttft_ms: 150.0,
                mean_tpot_ms: 5.0,
            },
            RequestResult::Served {
                ttft_ms: 50.0,
                mean_tpot_ms: 11.0,
            },
            RequestResult::Failed,
        ];
        assert!(slo.met(&results[0]));
        assert!(!slo.met(&results[1]));
        assert!(!slo.met(&results[2]));
        assert!(!slo.met(&RequestResult::Failed));
        assert_eq!(slo.attainment(&results), 0.25);
        assert_eq!(slo.attainment(&[]), 0.0);
    }
}
