//! Order statistics, the open-loop schedule and the input-repeat measure.

use std::collections::BTreeSet;
use std::time::Duration;

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `q` of the sample at or below it. `None` when
/// the sample is empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// How many samples lie strictly above the `q` percentile's rank: the
/// support a tail percentile rests on.
pub fn beyond(n: usize, q: f64) -> usize {
    let rank = (q * n as f64).ceil() as usize;
    n.saturating_sub(rank.max(1))
}

/// Median with the two middle values averaged for an even count.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

/// A latency sample reduced to the percentiles the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Sample count.
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub p999: f64,
}

impl Tail {
    /// Sorts `values` in place and summarises them; `None` when empty.
    pub fn of(values: &mut [f64]) -> Option<Tail> {
        values.sort_by(f64::total_cmp);
        Some(Tail {
            n: values.len(),
            p50: percentile(values, 0.50)?,
            p90: percentile(values, 0.90)?,
            p99: percentile(values, 0.99)?,
            p999: percentile(values, 0.999)?,
        })
    }
}

/// Open-loop arrival schedule: event `i` (0-based, across all sessions)
/// is due `i / rate` seconds after the start, whatever happened to the
/// events before it.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    interval_ns: u64,
}

impl Schedule {
    /// A schedule of `rate` events per second.
    pub fn new(rate: u64) -> Schedule {
        assert!(rate > 0 && rate <= 1_000_000_000, "rate out of range");
        Schedule { interval_ns: 1_000_000_000 / rate }
    }

    /// When event `i` is due, as an offset from the start.
    pub fn due(&self, i: u64) -> Duration {
        Duration::from_nanos(i * self.interval_ns)
    }

    /// Index of the first event due after `offset`: events `0..n` are due
    /// at or before it.
    pub fn due_by(&self, offset: Duration) -> u64 {
        let ns = u64::try_from(offset.as_nanos()).unwrap_or(u64::MAX);
        ns / self.interval_ns + 1
    }

    /// How late event `i` went out, given the offset at which it was sent
    /// (zero when it was sent on time).
    pub fn lateness(&self, i: u64, sent: Duration) -> Duration {
        sent.saturating_sub(self.due(i))
    }
}

/// Share of items whose key already occurred earlier in the same stream:
/// the hit rate an unbounded memo keyed on that key would reach.
pub fn repeat_share<K: Ord>(keys: impl IntoIterator<Item = K>) -> (usize, usize) {
    let mut seen = BTreeSet::new();
    let mut total = 0;
    let mut repeats = 0;
    for key in keys {
        total += 1;
        if !seen.insert(key) {
            repeats += 1;
        }
    }
    (repeats, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 0.999), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_support_counts_samples_above_the_rank() {
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(10_000, 0.999), 10);
        assert_eq!(beyond(5, 0.999), 0);
        assert_eq!(beyond(0, 0.5), 0);
    }

    #[test]
    fn tail_sorts_and_counts() {
        let mut v = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        let t = Tail::of(&mut v).unwrap();
        assert_eq!(t.n, 5);
        assert_eq!(t.p50, 3.0);
        assert_eq!(t.p999, 5.0);
        assert_eq!(v, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(Tail::of(&mut []).is_none());
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn schedule_due_times_and_lateness() {
        let s = Schedule::new(5000);
        assert_eq!(s.due(0), Duration::ZERO);
        assert_eq!(s.due(5000), Duration::from_secs(1));
        assert_eq!(s.due(3), Duration::from_micros(600));
        // Events 0..=5 are due by 1 ms (event 5 is due exactly then).
        assert_eq!(s.due_by(Duration::from_millis(1)), 6);
        assert_eq!(s.due_by(Duration::from_micros(999)), 5);
        assert_eq!(s.lateness(3, Duration::from_micros(650)), Duration::from_micros(50));
        assert_eq!(s.lateness(3, Duration::from_micros(500)), Duration::ZERO);
    }

    #[test]
    fn repeat_share_counts_second_and_later_occurrences() {
        assert_eq!(repeat_share(["a", "b", "a", "a", "c"]), (2, 5));
        assert_eq!(repeat_share(Vec::<u8>::new()), (0, 0));
    }
}
