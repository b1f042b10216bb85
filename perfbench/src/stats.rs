//! The benchmark's own arithmetic: percentile selection, the failed-ratio
//! base, open-loop job timing, and the seeded input generator.

/// Nearest-rank percentile of `values` (`p` in `[0, 1]`): the smallest
/// sample with at least a share `p` of the samples at or below it. No
/// interpolation, so every reported percentile is a value that was
/// actually measured. `None` for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.saturating_sub(1)])
}

/// Nearest-rank median (the lower middle for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// Attempted and failed operations of one run. Every operation the
/// workload issues counts once (a time step, a solve, a submitted job —
/// duplicates included); every output check counts once more. A refused
/// or failed operation and a failed check each count as one failure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Record one operation or check and whether it succeeded.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Failed share of everything attempted.
    pub fn failed_ratio(&self) -> f64 {
        assert!(self.attempted > 0, "failed ratio of an empty run");
        self.failed as f64 / self.attempted as f64
    }

    /// `1 − failed_ratio`: the reported form, which is never 0 on a
    /// healthy run.
    pub fn ok_ratio(&self) -> f64 {
        1.0 - self.failed_ratio()
    }
}

/// Timestamps of one open-loop job, in seconds since the phase start.
#[derive(Clone, Copy, Debug, Default)]
pub struct JobTiming {
    /// When the schedule said to send it.
    pub due: f64,
    /// When the generator actually sent it.
    pub sent: f64,
    /// When the daemon acknowledged it.
    pub acked: f64,
    /// When its completion was first observed.
    pub done: f64,
}

impl JobTiming {
    /// Job latency measured from the due time, so a stalled generator
    /// (late sends) shows up as latency instead of hiding it.
    pub fn latency(&self) -> f64 {
        self.done - self.due
    }

    /// How late the generator sent this job.
    pub fn lag(&self) -> f64 {
        (self.sent - self.due).max(0.0)
    }
}

/// Due time of job `i` on an open-loop schedule of `rate` jobs per second.
pub fn due_time(i: usize, rate: f64) -> f64 {
    i as f64 / rate
}

/// SplitMix64: the seeded generator behind every generated input.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.uniform() * n as f64) as usize % n.max(1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(5.0));
        assert_eq!(percentile(&v, 0.9), Some(9.0));
        assert_eq!(percentile(&v, 0.91), Some(10.0));
        assert_eq!(percentile(&v, 1.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn failed_ratio_counts_refusals_and_checks_against_everything_attempted() {
        let mut t = Tally::default();
        for i in 0..10 {
            // the fourth operation is refused
            t.record(i != 3);
        }
        // two output checks, one failing
        t.record(true);
        t.record(false);
        assert_eq!(
            t,
            Tally {
                attempted: 12,
                failed: 2
            }
        );
        assert!((t.failed_ratio() - 2.0 / 12.0).abs() < 1e-15);
        assert!((t.ok_ratio() - 10.0 / 12.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "empty run")]
    fn failed_ratio_needs_a_base() {
        Tally::default().failed_ratio();
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        // 10 jobs/s; the generator stalls for 1 s before job 0 and then
        // sends everything due so far at once. Each job takes 10 ms.
        let rate = 10.0;
        let stall_end = 1.0;
        let jobs: Vec<JobTiming> = (0..20)
            .map(|i| {
                let due = due_time(i, rate);
                let sent = due.max(stall_end);
                JobTiming {
                    due,
                    sent,
                    acked: sent,
                    done: sent + 0.01,
                }
            })
            .collect();
        // job 0 waited the whole stall
        assert!((jobs[0].latency() - 1.01).abs() < 1e-12);
        assert!((jobs[0].lag() - 1.0).abs() < 1e-12);
        // jobs due after the stall see only their service time
        assert!((jobs[15].latency() - 0.01).abs() < 1e-12);
        assert_eq!(jobs[15].lag(), 0.0);
        // the stall dominates the upper percentiles, not the median
        let lat: Vec<f64> = jobs.iter().map(JobTiming::latency).collect();
        assert!(percentile(&lat, 0.9).unwrap() > 0.5);
        // timing from the actual send would hide it entirely
        let from_sent: Vec<f64> = jobs.iter().map(|j| j.done - j.sent).collect();
        assert!(percentile(&from_sent, 0.9).unwrap() < 0.02);
    }

    #[test]
    fn rng_is_reproducible_and_in_range() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            let x = a.uniform();
            assert_eq!(x, b.uniform());
            assert!((0.0..1.0).contains(&x));
            assert!(a.below(3) < 3);
            b.below(3);
        }
        assert_ne!(Rng::new(1).next_u64(), Rng::new(2).next_u64());
    }
}
