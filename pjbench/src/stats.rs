//! The benchmark's own arithmetic: percentiles with a tail guard, cost
//! drift, open-loop due times and set-up averaging. Kept free of clocks
//! and I/O so each rule is unit-tested on hand-made numbers.

use std::time::Duration;

/// Fewest samples that must lie beyond a percentile before it is
/// reported; with fewer, the "tail" is a handful of outliers.
pub const MIN_BEYOND: u64 = 10;

/// Sub-buckets per power of two in [`Histogram`]: relative bucket
/// width 2^-10, about 0.1 %.
const SUB_BITS: u32 = 10;
const SUB: u64 = 1 << SUB_BITS;

/// A log-linear histogram of nanosecond values with ~0.1 % resolution.
/// Its size is fixed at construction, so recording millions of
/// latencies does not grow resident memory while the run is measured.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: vec![0; (64 - SUB_BITS as usize + 1) * SUB as usize],
            total: 0,
        }
    }
}

impl Histogram {
    fn bucket(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let octave = 63 - v.leading_zeros() - SUB_BITS; // >= 0
        let sub = (v >> octave) - SUB; // in [0, SUB)
        ((octave as u64 + 1) * SUB + sub) as usize
    }

    /// The inclusive lower bound and the width of bucket `b`.
    fn bounds(b: usize) -> (f64, f64) {
        let b = b as u64;
        if b < SUB {
            return (b as f64, 1.0);
        }
        let octave = b / SUB - 1;
        let sub = b % SUB;
        (((SUB + sub) << octave) as f64, (1u64 << octave) as f64)
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Histogram::bucket(v)] += 1;
        self.total += 1;
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile (0 < q < 1) by nearest rank, interpolated
    /// linearly inside its bucket. `None` unless at least
    /// [`MIN_BEYOND`] samples lie above the rank.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let rank = nearest_rank(self.total, q)?;
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c > rank {
                let (lo, width) = Histogram::bounds(b);
                let within = (rank - seen) as f64 + 0.5;
                return Some(lo + width * within / c as f64);
            }
            seen += c;
        }
        None
    }
}

/// The 0-based nearest rank of the `q`-quantile among `n` samples, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn nearest_rank(n: u64, q: f64) -> Option<u64> {
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    // The small slack keeps products such as 0.99 * 1000 from rounding
    // up past an exact integer.
    let rank = ((q * n as f64 - 1e-9).ceil() as u64).max(1) - 1;
    (n - 1 - rank >= MIN_BEYOND).then_some(rank)
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The interquartile mean in seconds: the mean of the samples left
/// after dropping the lowest and the highest quarter. Set-up and finish
/// times are averaged this way. A plain median flips between the modes
/// of a bimodal sample (the cluster's assembly either hits a fixed
/// accept sleep or not), and a plain mean follows the odd sample that a
/// descheduled thread stretches by milliseconds.
pub fn interquartile_mean(samples: &[Duration]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v: Vec<f64> = samples.iter().map(Duration::as_secs_f64).collect();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let kept = &v[cut..v.len() - cut];
    Some(kept.iter().sum::<f64>() / kept.len() as f64)
}

/// Positions, as shares of a round's elements, that bound the early and
/// late windows of [`DriftMeter`]. The first tenth is warm-up.
const EARLY: (f64, f64) = (0.1, 0.3);
const LATE: (f64, f64) = (0.8, 1.0);

/// Cost per element late in a round divided by cost per element early
/// in it. The caller reports a cumulative cost (ns) as elements go by;
/// the meter keeps the readings at the four window edges.
pub struct DriftMeter {
    marks: [u64; 4],
    readings: [Option<u64>; 4],
}

impl DriftMeter {
    pub fn new(elements: u64) -> DriftMeter {
        let at = |share: f64| (share * elements as f64).round() as u64;
        DriftMeter {
            marks: [at(EARLY.0), at(EARLY.1), at(LATE.0), at(LATE.1)],
            readings: [None; 4],
        }
    }

    /// Whether a reading is wanted after `done` elements.
    #[inline]
    pub fn wants(&self, done: u64) -> bool {
        self.marks
            .iter()
            .zip(&self.readings)
            .any(|(&m, r)| m == done && r.is_none())
    }

    /// Records the cumulative cost after `done` elements.
    pub fn note(&mut self, done: u64, cost: u64) {
        for (m, r) in self.marks.iter().zip(self.readings.iter_mut()) {
            if *m == done && r.is_none() {
                *r = Some(cost);
            }
        }
    }

    /// Cost per element in the early and in the late window.
    pub fn windows(&self) -> Option<(f64, f64)> {
        let [a, b, c, d] = self.readings;
        let (a, b, c, d) = (a?, b?, c?, d?);
        let early = (b.checked_sub(a)? as f64) / (self.marks[1] - self.marks[0]) as f64;
        let late = (d.checked_sub(c)? as f64) / (self.marks[3] - self.marks[2]) as f64;
        Some((early, late))
    }
}

/// Cost drift pooled over rounds: the summed late-window cost over the
/// summed early-window cost, so a round disturbed in one window weighs
/// no more than its share.
pub fn pooled_drift(windows: &[(f64, f64)]) -> Option<f64> {
    let early: f64 = windows.iter().map(|w| w.0).sum();
    let late: f64 = windows.iter().map(|w| w.1).sum();
    (early > 0.0).then(|| late / early)
}

/// When each input element was due, in ns from the start of a round.
///
/// In an open loop the due time comes from the schedule, whatever the
/// program was doing, so a stall that delays later pushes shows up in
/// their results' latency. In a closed loop an element is due when it is
/// pushed.
pub struct DueTimes {
    due: Vec<u64>,
    pushed: usize,
    scheduled: bool,
}

impl DueTimes {
    /// Due times fixed in advance by a schedule (open loop).
    pub fn scheduled(due: Vec<u64>) -> DueTimes {
        DueTimes {
            due,
            pushed: 0,
            scheduled: true,
        }
    }

    /// Due times set as elements are pushed (closed loop).
    pub fn on_push(elements: usize) -> DueTimes {
        DueTimes {
            due: vec![0; elements],
            pushed: 0,
            scheduled: false,
        }
    }

    /// Marks element `i` (the next in feed order) as pushed at `now`;
    /// returns how late the push was against the element's due time.
    pub fn push(&mut self, i: usize, now: u64) -> u64 {
        debug_assert_eq!(i, self.pushed, "elements are pushed in feed order");
        self.pushed = i + 1;
        if self.scheduled {
            now.saturating_sub(self.due[i])
        } else {
            self.due[i] = now;
            0
        }
    }

    /// Starts a new round over the same elements.
    pub fn reset(&mut self) {
        self.pushed = 0;
    }

    pub fn due(&self, i: usize) -> u64 {
        self.due[i]
    }

    /// Whether element `i` has been pushed.
    pub fn is_pushed(&self, i: usize) -> bool {
        i < self.pushed
    }

    /// Latency of an output received at `now` that the later of the
    /// elements `inputs` completed.
    pub fn latency(&self, inputs: impl IntoIterator<Item = usize>, now: u64) -> u64 {
        let due = inputs.into_iter().map(|i| self.due[i]).max().unwrap_or(now);
        now.saturating_sub(due)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // 100 samples: p90 has 10 beyond it, p95 only 5.
        let mut h = Histogram::default();
        for v in 1..=100 {
            h.record(v);
        }
        assert!(h.percentile(0.90).is_some());
        assert!(h.percentile(0.95).is_none());
        assert_eq!(nearest_rank(100, 0.90), Some(89));
        assert_eq!(nearest_rank(100, 0.91), None);
        // p99 needs 1000 samples at least.
        assert_eq!(nearest_rank(999, 0.99), None);
        assert_eq!(nearest_rank(1000, 0.99), Some(989));
        assert_eq!(nearest_rank(0, 0.5), None);
    }

    #[test]
    fn percentile_is_close_to_the_exact_value() {
        let mut h = Histogram::default();
        for v in 0..100_000u64 {
            h.record(v * 37);
        }
        let p50 = h.percentile(0.5).unwrap();
        let exact = 49_999.0 * 37.0;
        assert!((p50 - exact).abs() / exact < 0.002, "{p50} vs {exact}");
        let p99 = h.percentile(0.99).unwrap();
        let exact = 98_999.0 * 37.0;
        assert!((p99 - exact).abs() / exact < 0.002, "{p99} vs {exact}");
        // Small values are exact.
        let mut s = Histogram::default();
        for v in 0..=200 {
            s.record(v);
        }
        assert_eq!(s.percentile(0.5).unwrap().floor(), 100.0);
    }

    #[test]
    fn merged_histograms_add_counts() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        (0..50).for_each(|v| a.record(v));
        (50..100).for_each(|v| b.record(v));
        a.merge(&b);
        assert_eq!(a.total, 100);
        assert_eq!(a.percentile(0.5).unwrap().floor(), 49.0);
    }

    #[test]
    fn drift_is_one_for_flat_cost_and_grows_with_rising_cost() {
        let n = 1000u64;
        let mut flat = DriftMeter::new(n);
        for done in 0..=n {
            if flat.wants(done) {
                flat.note(done, done * 50);
            }
        }
        let flat = flat.windows().unwrap();
        assert!((pooled_drift(&[flat]).unwrap() - 1.0).abs() < 1e-12);

        // Cost of element i is i ns: cumulative i^2/2. Early window
        // [100, 300) averages 200, late [800, 1000) averages 900.
        let mut rising = DriftMeter::new(n);
        for done in 0..=n {
            if rising.wants(done) {
                rising.note(done, done * done / 2);
            }
        }
        let rising = rising.windows().unwrap();
        assert_eq!(rising, (200.0, 900.0));
        assert!((pooled_drift(&[rising]).unwrap() - 4.5).abs() < 1e-9);
        // Pooled over rounds: (900 + 50) / (200 + 50).
        assert!((pooled_drift(&[rising, flat]).unwrap() - 3.8).abs() < 1e-9);

        // Missing readings give no windows, and no rounds no drift.
        assert!(DriftMeter::new(n).windows().is_none());
        assert!(pooled_drift(&[]).is_none());
    }

    #[test]
    fn stalled_consumer_counts_latency_from_due_time() {
        // Elements due every 1 ms; the consumer stalls until 10 ms and
        // then pushes everything at once. Each push is late by the
        // stall, and a result completed by element i counts from i's due
        // time, not from the push.
        let due: Vec<u64> = (0..10).map(|i| i * 1_000_000).collect();
        let mut d = DueTimes::scheduled(due);
        let now = 10_000_000;
        let late: Vec<u64> = (0..10).map(|i| d.push(i, now)).collect();
        assert_eq!(late[0], 10_000_000);
        assert_eq!(late[9], 1_000_000);
        let received = now + 500;
        assert_eq!(d.latency([2, 5], received), 5_000_500);
        assert_eq!(d.latency([0, 1], received), 9_000_500);

        // In a closed loop the same pushes are due when made.
        let mut c = DueTimes::on_push(10);
        for i in 0..10 {
            assert_eq!(c.push(i, now + i as u64), 0);
        }
        assert_eq!(c.latency([2, 5], received), 495);
        assert!(c.is_pushed(9) && !DueTimes::on_push(1).is_pushed(0));
    }

    #[test]
    fn setup_is_averaged_over_assemblies() {
        let ms = Duration::from_millis;
        // A bimodal sample: the interquartile mean sits between the
        // modes, where the median of an even split would jump to one.
        let samples = [ms(4), ms(10), ms(4), ms(10), ms(10), ms(4), ms(4), ms(10)];
        assert!((interquartile_mean(&samples).unwrap() - 0.007).abs() < 1e-12);
        // One stretched sample does not move it.
        let stretched = [ms(4), ms(4), ms(4), ms(4), ms(4), ms(4), ms(4), ms(400)];
        assert!((interquartile_mean(&stretched).unwrap() - 0.004).abs() < 1e-12);
        // Fewer than four samples are averaged whole.
        assert!((interquartile_mean(&[ms(1), ms(3)]).unwrap() - 0.002).abs() < 1e-12);
        assert_eq!(interquartile_mean(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
