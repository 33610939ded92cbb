//! The run's result line, its run record and the small statistics helpers the
//! workloads share.
//!
//! # Full-speed windows
//!
//! On a host whose cores are shared with other tenants, the workloads run at
//! one of two speeds and switch every second or so: `kv-hot-read` runs
//! ~1.5x faster when the core is its own than when a neighbour shares it.
//! How much of a run falls in each regime differs from run to run, so
//! whole-run figures spread by up to ~17%.  `kv-hot-read` therefore splits
//! its measured phase into windows, rates each window by its own ops/s, and
//! takes its timing metrics as medians over the windows that ran within 10%
//! of the run's fastest ([`full_speed`]); every workload's `setup_s` is the
//! median of its full-speed set-ups.  The run record gives the share of
//! windows kept.

use std::fmt::Write as _;

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations issued in the measured phases.
    pub attempted: u64,
    /// Operations that errored or returned the wrong bytes.
    pub failed: u64,
    /// Failed output checks and layer-separation self-checks; any entry makes
    /// the run a failed run rather than a data point.
    pub problems: Vec<String>,
    /// `(name, value, unit)` in the order they are printed.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Facts about the run that are not metrics (host, sizing, sample counts).
    pub record: Vec<(&'static str, String)>,
}

impl Report {
    /// Whether every operation and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Append a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Append a run-record entry.
    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.record.push((key, value.to_string()));
    }

    /// Fail the run with `problem` unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// Print the run record, any problems (to stderr) and, as the last line
    /// of standard output, the result object.
    pub fn print(&self) {
        let mut rec = String::from("{\"run_record\": {");
        for (i, (k, v)) in self.record.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(rec, "{sep}\"{k}\": \"{}\"", v.replace('"', "'"));
        }
        rec.push_str("}}");
        println!("{rec}");
        for p in &self.problems {
            eprintln!("perfbench: check failed: {p}");
        }
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN or infinity; a metric that cannot be computed is
            // reported as 0 and the run record says why.
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        println!("{out}");
    }
}

/// Nearest-rank percentile `q` (0..=1) of `values`, sorting them in place.
/// Returns 0 for an empty slice.
pub fn percentile<T: Copy + Ord + Into<u64>>(values: &mut [T], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1].into() as f64
}

/// A window runs at full speed when its speed is at least this share of the
/// run's fastest window's.
const FULL_SPEED: f64 = 0.9;

/// The windows that ran at full speed, by `speed` (higher is faster), and
/// the share of windows they are.
pub fn full_speed<T: Copy>(windows: &[T], speed: impl Fn(T) -> f64) -> (Vec<T>, f64) {
    let fastest = windows.iter().map(|&w| speed(w)).fold(0.0, f64::max);
    let kept: Vec<T> =
        windows.iter().copied().filter(|&w| speed(w) >= FULL_SPEED * fastest).collect();
    let share = ratio(kept.len() as f64, windows.len() as f64);
    (kept, share)
}

/// `setup_s`: the median of a run's set-up times that ran at full speed (each
/// set-up does the same work, so the fastest sets the pace).
pub fn setup_seconds(seconds: &[f64]) -> f64 {
    median(&full_speed(seconds, |s| 1.0 / s).0)
}

/// Median over `windows` of each window's `q` percentile.  A run's timing
/// metrics are medians over its windows (or repetitions), so a stall that
/// spoils one window moves the result less than it would a pooled percentile.
pub fn median_percentile<'a>(windows: impl IntoIterator<Item = &'a [u32]>, q: f64) -> f64 {
    let per_window: Vec<f64> =
        windows.into_iter().map(|w| percentile(&mut w.to_vec(), q)).collect();
    median(&per_window)
}

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `a / b`, or 0 when `b` is 0 (a ratio over an event that did not happen).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Mean of the RSS samples taken in the last quarter of a phase, in MB
/// (10^6 bytes).  `samples` are `(seconds since phase start, bytes)`.
pub fn steady_rss_mb(samples: &[(f64, u64)], phase_seconds: f64) -> f64 {
    let tail: Vec<u64> =
        samples.iter().filter(|(t, _)| *t >= phase_seconds * 0.75).map(|s| s.1).collect();
    let tail = if tail.is_empty() { samples.iter().map(|s| s.1).collect() } else { tail };
    ratio(tail.iter().sum::<u64>() as f64, tail.len() as f64) / 1e6
}

/// Deterministic pseudo-random bytes for value contents: every value a run
/// writes is a slice of this pool, so a read can be checked against the
/// slice its key's latest version points at.
pub fn value_pool(rng: &mut impl rand::Rng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.gen::<u64>() as u8).collect()
}

/// Run `setup` `n` times, dropping each result before the next; returns the
/// last result and each run's seconds.
pub fn timed_setups<T>(n: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut seconds = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let t = std::time::Instant::now();
        last = Some(setup());
        seconds.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), seconds)
}

/// End-of-run checks on a `ShardedStore`: every key is still there and the
/// handle table is consistent.
pub fn check_store(report: &mut Report, store: &alaska_kvstore::ShardedStore, keys: usize) {
    report.check(store.len() == keys, || {
        format!("store holds {} keys, expected {keys}", store.len())
    });
    if let Err(e) = store.runtime().verify_table_invariants() {
        report.problems.push(format!("handle table invariants: {e}"));
    }
}

/// Host facts every run records: results depend on thread count.
pub fn note_host(report: &mut Report, rt: &alaska_runtime::Runtime) {
    report
        .note("available_parallelism", std::thread::available_parallelism().map_or(1, |n| n.get()));
    let (cap, refill) = rt.magazine_sizing();
    report.note("magazine_cap", cap);
    report.note("magazine_refill", refill);
    report.note("handle_table_shards", rt.handle_table_shards());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let mut v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut [7u32], 0.99), 7.0);
        assert_eq!(percentile::<u32>(&mut [], 0.5), 0.0);
    }

    #[test]
    fn median_and_steady_rss() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let windows: [&[u32]; 3] = [&[1, 2, 3], &[10, 20, 30], &[5, 6, 7]];
        assert_eq!(median_percentile(windows, 0.5), 6.0);
        let (kept, share) = full_speed(&[10.0, 9.5, 5.0, 8.0], |w| w);
        assert_eq!((kept, share), (vec![10.0, 9.5], 0.5));
        let samples = [(0.0, 10), (0.5, 10), (0.8, 2_000_000), (0.9, 4_000_000)];
        assert_eq!(steady_rss_mb(&samples, 1.0), 3.0);
    }
}
