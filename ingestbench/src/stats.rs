//! Pure arithmetic behind the reported numbers: order statistics, the
//! percentile rule, watermark lag and burst catch-up. No clocks, no I/O —
//! everything here is checked on synthetic series by the unit tests.

/// Linear-interpolated percentile `q ∈ [0, 1]` of `sorted` (ascending).
/// Empty input gives 0.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile_sorted(&sorted(values), 0.5)
}

/// Min, first quartile, median, third quartile, max.
pub fn five_numbers(values: &[f64]) -> [f64; 5] {
    let s = sorted(values);
    [0.0, 0.25, 0.5, 0.75, 1.0].map(|q| percentile_sorted(&s, q))
}

/// The percentile rule: the highest whole percentile that still has at
/// least ten samples beyond it. 100 samples support p90, 1 000 support p99,
/// fewer than 20 support nothing above the median.
pub fn highest_supported_percentile(samples: usize) -> u32 {
    if samples < 20 {
        return 50;
    }
    let q = 100.0 * (1.0 - 10.0 / samples as f64);
    (q.floor() as u32).clamp(50, 99)
}

/// One reading of the sampler: `durable` records were persisted at `t_us`
/// microseconds after the window opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    pub t_us: u64,
    pub durable: u64,
}

/// Watermark lag of one sample, in microseconds: now minus the due time of
/// the oldest record that is due but not yet durable, 0 when nothing is
/// outstanding. `due_us[i]` is when record `i` was due (open loop) or handed
/// to `send` (closed loop); records become durable in offer order, so the
/// oldest outstanding record is the one at index `durable`.
pub fn watermark_lag_us(sample: Sample, due_us: &[u64]) -> u64 {
    match due_us.get(sample.durable as usize) {
        Some(&due) if due <= sample.t_us => sample.t_us - due,
        _ => 0,
    }
}

/// Number of records due at or before `t_us` (`due_us` is ascending).
pub fn offered_by(due_us: &[u64], t_us: u64) -> u64 {
    due_us.partition_point(|&d| d <= t_us) as u64
}

/// Burst catch-up: microseconds from `burst_start_us` to the first sample
/// taken after `burst_end_us` whose backlog (offered − durable) is below
/// `threshold`. `None` when the series ends before the backlog clears.
pub fn catchup_us(
    samples: &[Sample],
    due_us: &[u64],
    burst_start_us: u64,
    burst_end_us: u64,
    threshold: u64,
) -> Option<u64> {
    samples
        .iter()
        .filter(|s| s.t_us > burst_end_us)
        .find(|s| offered_by(due_us, s.t_us).saturating_sub(s.durable) < threshold)
        .map(|s| s.t_us - burst_start_us)
}

/// Time, in microseconds, at which the series first shows at least `count`
/// durable records.
pub fn time_to_durable_us(samples: &[Sample], count: u64) -> Option<u64> {
    samples.iter().find(|s| s.durable >= count).map(|s| s.t_us)
}

/// Throughput of the last quarter of `n` records over that of the first
/// quarter — below 1 when ingestion slows as resident data grows.
pub fn rps_decay(samples: &[Sample], first: u64, n: u64) -> Option<f64> {
    let at = |k: u64| time_to_durable_us(samples, first + k);
    let (q0, q1, q3, q4) = (at(0)?, at(n / 4)?, at(n - n / 4)?, at(n)?);
    (q1 > q0 && q4 > q3).then(|| (q1 - q0) as f64 / (q4 - q3) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(
            five_numbers(&[1.0, 2.0, 3.0, 4.0, 5.0]),
            [1.0, 2.0, 3.0, 4.0, 5.0]
        );
        let s: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 0.9), 90.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(5), 50);
        assert_eq!(highest_supported_percentile(19), 50);
        assert_eq!(highest_supported_percentile(20), 50);
        assert_eq!(highest_supported_percentile(50), 80);
        assert_eq!(highest_supported_percentile(99), 89);
        assert_eq!(highest_supported_percentile(100), 90);
        assert_eq!(highest_supported_percentile(1_000), 99);
        assert_eq!(highest_supported_percentile(1_000_000), 99);
    }

    /// Ten records due 1 ms apart starting at t = 0.
    fn due() -> Vec<u64> {
        (0..10).map(|i| i * 1_000).collect()
    }

    #[test]
    fn watermark_lag_is_age_of_oldest_outstanding_record() {
        let due = due();
        // at 3.5 ms records 0..=3 are due; two are durable, so record 2
        // (due at 2 ms) is the oldest outstanding one
        let s = |t_us, durable| Sample { t_us, durable };
        assert_eq!(watermark_lag_us(s(3_500, 2), &due), 1_500);
        // everything due so far is durable: nothing outstanding
        assert_eq!(watermark_lag_us(s(3_500, 4), &due), 0);
        // all records durable
        assert_eq!(watermark_lag_us(s(20_000, 10), &due), 0);
        // a stalled store: lag grows with the clock
        assert_eq!(watermark_lag_us(s(50_000, 0), &due), 50_000);
    }

    #[test]
    fn offered_counts_due_records() {
        let due = due();
        assert_eq!(offered_by(&due, 0), 1);
        assert_eq!(offered_by(&due, 999), 1);
        assert_eq!(offered_by(&due, 1_000), 2);
        assert_eq!(offered_by(&due, 1_000_000), 10);
    }

    #[test]
    fn catchup_is_first_cleared_sample_after_the_burst() {
        // 1 000 records due in a 10 ms burst that starts at 100 ms, drained
        // at 10 records/ms from the burst start
        let due: Vec<u64> = (0..1_000).map(|i| 100_000 + i * 10).collect();
        let samples: Vec<Sample> = (0..200u64)
            .map(|k| {
                let t_us = k * 1_000;
                let durable = (t_us.saturating_sub(100_000) / 100).min(1_000);
                Sample { t_us, durable }
            })
            .collect();
        // backlog < 100 first holds at durable > 900, i.e. t = 191 ms
        let c = catchup_us(&samples, &due, 100_000, 110_000, 100).unwrap();
        assert_eq!(c, 91_000);
        // never clears within the series
        assert_eq!(
            catchup_us(&samples[..150], &due, 100_000, 110_000, 100),
            None
        );
    }

    #[test]
    fn decay_compares_last_quarter_with_first() {
        // 100 records: the first 25 take 25 ms, the last 25 take 100 ms
        let mut samples = vec![Sample {
            t_us: 0,
            durable: 1,
        }];
        samples.push(Sample {
            t_us: 25_000,
            durable: 26,
        });
        samples.push(Sample {
            t_us: 60_000,
            durable: 76,
        });
        samples.push(Sample {
            t_us: 160_000,
            durable: 101,
        });
        assert_eq!(rps_decay(&samples, 1, 100), Some(0.25));
        assert_eq!(rps_decay(&samples[..3], 1, 100), None);
    }
}
