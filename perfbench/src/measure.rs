//! Statistics and reporting helpers: medians, the tail-percentile rule,
//! the `VmHWM` reader and the one-line JSON result.

use std::fmt::Write as _;

/// Median of `values` (mean of the middle pair for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => v.get(n / 2).copied(),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The 1-based nearest rank of percentile `p` among `n` samples:
/// `ceil(p n / 100)`, clamped to `[1, n]`. The small slack keeps a
/// percentile computed as an exact share of `n` from rounding up a rank.
pub fn nearest_rank(p: f64, n: usize) -> usize {
    let rank = ((p / 100.0) * n as f64 - 1e-9).ceil();
    (rank.max(1.0) as usize).min(n.max(1))
}

/// Nearest-rank percentile `p` (in `(0, 100]`) of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    sorted.get(nearest_rank(p, sorted.len()) - 1).copied()
}

/// Samples a reported tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile, capped at `want`, that leaves at least
/// [`TAIL_BEYOND`] of `n` samples beyond it under the nearest-rank rule:
/// the element at rank `ceil(p n / 100)` has `n - rank` samples above,
/// so `p <= 100 (n - 10) / n`. `None` when `n` is too small for any.
pub fn tail_percentile(n: usize, want: f64) -> Option<f64> {
    if n <= TAIL_BEYOND {
        return None;
    }
    let cap = 100.0 * (n - TAIL_BEYOND) as f64 / n as f64;
    Some(want.min(cap))
}

/// A latency distribution summarised the way the benchmark reports it:
/// median, the tail at the highest supported percentile up to p99, and
/// the sample count. With too few samples for any supported tail the
/// maximum stands in, flagged by `tail_p = 100`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Median.
    pub p50: f64,
    /// The tail value.
    pub tail: f64,
    /// The percentile `tail` sits at.
    pub tail_p: f64,
    /// Number of samples.
    pub n: usize,
}

/// Summarises `samples`; `None` when empty.
pub fn summarise(samples: &[f64]) -> Option<Tail> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p50 = median(&sorted)?;
    let n = sorted.len();
    let (tail_p, tail) = match tail_percentile(n, 99.0) {
        Some(p) => (p, percentile_sorted(&sorted, p)?),
        None => (100.0, *sorted.last()?),
    };
    Some(Tail {
        p50,
        tail,
        tail_p,
        n,
    })
}

/// Set-up samples a run takes; the median is reported.
pub const SETUP_SAMPLES: usize = 5;
/// Shortest span one set-up sample covers: a cheap set-up is repeated
/// until it fills this, and the sample is the mean per repetition.
pub const SETUP_SAMPLE_SPAN: std::time::Duration = std::time::Duration::from_millis(20);

/// The median over [`SETUP_SAMPLES`] samples of `setup`'s duration in
/// seconds (each sample the mean over enough repetitions to fill
/// [`SETUP_SAMPLE_SPAN`]).
///
/// # Errors
///
/// The first error `setup` returns.
pub fn setup_seconds(mut setup: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(SETUP_SAMPLES);
    for _ in 0..SETUP_SAMPLES {
        let t0 = std::time::Instant::now();
        let mut reps = 0u32;
        while reps == 0 || t0.elapsed() < SETUP_SAMPLE_SPAN {
            setup()?;
            reps += 1;
        }
        samples.push(t0.elapsed().as_secs_f64() / f64::from(reps));
    }
    median(&samples).ok_or_else(|| "no set-up sample".to_string())
}

/// Per-position means of equally long series: element `i` is the mean
/// of element `i` over the series. Positions past the end of a shorter
/// series take the mean over the series that have them.
pub fn elementwise_mean(series: &[&[f64]]) -> Vec<f64> {
    let n = series.iter().map(|s| s.len()).max().unwrap_or(0);
    (0..n)
        .map(|i| {
            let (sum, count) = series
                .iter()
                .filter_map(|s| s.get(i))
                .fold((0.0, 0u32), |(sum, count), v| (sum + v, count + 1));
            sum / f64::from(count)
        })
        .collect()
}

/// Extracts the `VmHWM` (peak resident set) line of a
/// `/proc/<pid>/status` text, in KiB.
pub fn parse_vmhwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line.split_whitespace().skip(1);
    let value: u64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") | None => Some(value),
        Some(_) => None,
    }
}

/// This process's peak resident set in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vmhwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

/// The result of one benchmark invocation.
#[derive(Debug, Default)]
pub struct Report {
    /// Named output checks and whether each held.
    pub checks: Vec<(String, bool)>,
    /// Operations attempted (input records, or grid cells).
    pub attempted: u64,
    /// Operations that failed (malformed or dropped records, or failed
    /// cells).
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Records one output check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    /// Records one metric; a non-finite value fails the run, since the
    /// result line cannot carry it.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.check(format!("{name} is finite"), false);
        }
        self.metrics.push(Metric { name, value, unit });
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(10, 99.0), None);
        assert_eq!(tail_percentile(1_000, 99.0), Some(99.0));
        assert_eq!(tail_percentile(2_048, 99.0), Some(99.0));
        assert_eq!(tail_percentile(500, 99.0), Some(98.0));
        assert_eq!(tail_percentile(20, 99.0), Some(50.0));
        // The rule, checked on the ranks themselves: ten samples lie
        // beyond the chosen percentile, and any higher one (below the
        // p99 cap) would leave fewer.
        for n in 11..5_000usize {
            let p = tail_percentile(n, 99.0).unwrap();
            assert!(n - nearest_rank(p, n) >= TAIL_BEYOND, "n={n} p={p}");
            if p < 99.0 {
                assert!(n - nearest_rank(p + 1e-6, n) < TAIL_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn summarise_reports_supported_tail_or_max() {
        let samples: Vec<f64> = (1..=1_000).map(f64::from).collect();
        let t = summarise(&samples).unwrap();
        assert_eq!((t.p50, t.tail, t.tail_p, t.n), (500.5, 990.0, 99.0, 1_000));
        let few = summarise(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!((few.p50, few.tail, few.tail_p), (3.0, 5.0, 100.0));
        assert_eq!(summarise(&[]), None);
    }

    #[test]
    fn elementwise_mean_averages_each_position() {
        let a = [1.0, 10.0, 3.0];
        let b = [3.0, 2.0, 300.0];
        let c = [2.0, 3.0];
        assert_eq!(elementwise_mean(&[&a, &b, &c]), vec![2.0, 5.0, 151.5]);
        assert!(elementwise_mean(&[]).is_empty());
    }

    #[test]
    fn vmhwm_is_parsed_in_kib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  200000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vmhwm_kib(status), Some(12_345));
        assert_eq!(parse_vmhwm_kib("VmRSS:\t100 kB\n"), None);
        assert_eq!(parse_vmhwm_kib("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vmhwm_kib("VmHWM:\t7 MB\n"), None);
    }

    #[test]
    fn json_line_carries_exactly_the_four_keys() {
        let mut r = Report {
            attempted: 10,
            failed: 1,
            ..Report::default()
        };
        r.check("ok", true);
        r.metric("latency_ms", 1.25, "ms");
        assert_eq!(
            r.json_line(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        r.metric("bad", f64::NAN, "s");
        assert!(!r.correct());
    }
}
