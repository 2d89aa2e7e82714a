//! The open-loop arrival schedule.
//!
//! Arrivals are a Poisson process conditioned on its count: `n = rate ×
//! window` requests whose due times are independent uniform draws over the
//! window, sorted. Every run therefore offers exactly the same load, while
//! the gaps between arrivals keep their exponential shape. Latency is timed
//! from each request's due time, so a stall that delays later submissions
//! is charged to the requests it delays.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

/// Due times of an open-loop run, as offsets from its start.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    due: Vec<Duration>,
}

impl Schedule {
    /// The schedule for `rate` requests per second over `window`, drawn
    /// from `seed`.
    pub fn poisson(rate: f64, window: Duration, seed: u64) -> Self {
        let n = (rate * window.as_secs_f64()).round().max(1.0) as usize;
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5CED_0A11);
        let span = window.as_nanos() as u64;
        let mut due: Vec<Duration> = (0..n)
            .map(|_| Duration::from_nanos(rng.gen_range(0..span)))
            .collect();
        due.sort();
        Self { due }
    }

    /// Due offsets in submission order.
    pub fn due(&self) -> &[Duration] {
        &self.due
    }

    /// Number of scheduled requests.
    pub fn len(&self) -> usize {
        self.due.len()
    }
}

/// Latency of an event at `at` for a request due at `start + due`: the
/// clock starts at the due time, not at the (possibly late) submission.
pub fn latency_from_due(start: Instant, due: Duration, at: Instant) -> Duration {
    at.saturating_duration_since(start + due)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let window = Duration::from_secs(10);
        let a = Schedule::poisson(5.0, window, 7);
        let b = Schedule::poisson(5.0, window, 7);
        let c = Schedule::poisson(5.0, window, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn offers_exactly_rate_times_window_inside_the_window() {
        let window = Duration::from_secs(12);
        let s = Schedule::poisson(5.5, window, 3);
        assert_eq!(s.len(), 66);
        assert!(s.due().windows(2).all(|w| w[0] <= w[1]));
        assert!(s.due().iter().all(|d| *d < window));
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        let start = Instant::now();
        let due = Duration::from_millis(100);
        // Submitted 30 ms late, first token 20 ms after submission: the
        // request waited 50 ms from when it was due.
        let first_token = start + Duration::from_millis(150);
        assert_eq!(
            latency_from_due(start, due, first_token),
            Duration::from_millis(50)
        );
        // An event before the due time (impossible in practice) reads 0.
        assert_eq!(
            latency_from_due(start, due, start + Duration::from_millis(10)),
            Duration::ZERO
        );
    }
}
