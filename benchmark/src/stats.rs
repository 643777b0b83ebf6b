//! Order statistics and `/proc` readers for the wall ledger.

use std::time::Instant;

/// Median of `xs` (mean of the two middle values for an even count).
/// Empty input yields 0.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// First and third quartile, computed like Python's
/// `statistics.quantiles(xs, n=4)` (exclusive method) so the numbers
/// `compare` prints match the ones the acceptance rule is stated in.
/// Fewer than two samples yield the sample itself.
#[must_use]
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| -> f64 {
        // Position k·(n+1)/4 on a 1-based axis; the interval index is
        // clamped into the data and the ends extrapolate, as Python does.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median (0 when the median is 0).
#[must_use]
pub fn spread(xs: &[f64]) -> f64 {
    let m = median(xs);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / m.abs()
}

/// Kernel clock ticks per second for `/proc/self/stat` (`USER_HZ`, fixed
/// at 100 on every Linux ABI).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed by this process so far, every
/// thread included (live and exited). Tick resolution is 10 ms, so
/// callers sum it over many repeats rather than trusting one delta.
#[must_use]
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, i.e. 12th and 13th after the ')'.
    let tail = stat.rsplit_once(')').map_or("", |(_, t)| t);
    let mut fields = tail.split_whitespace().skip(11);
    let ticks = |f: Option<&str>| f.and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(fields.next()) + ticks(fields.next())) / USER_HZ
}

/// Peak resident set size of this process in MB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time one call: `(result, seconds)`.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Wall and CPU seconds of one call, raw and calibrated.
///
/// The sandbox's vCPUs switch between speed modes a quarter apart for
/// tens of seconds at a time, which no median within a run can remove.
/// The calibration loop runs right before and right after the call; the
/// call's seconds are then expressed at [`REFERENCE_NS_PER_ITER`], so a
/// slow phase of the machine scales the measurement and its yardstick
/// alike while a slower *program* shows in full.
#[derive(Debug, Clone, Copy)]
pub struct Calibrated {
    /// Wall seconds as the clock read them.
    pub raw_wall_s: f64,
    /// Wall seconds at the reference machine speed.
    pub wall_s: f64,
    /// Process CPU seconds (all threads) at the reference machine speed.
    pub cpu_s: f64,
    /// Mean of the two calibration readings around the call.
    pub ns_per_iter: f64,
}

/// Measure one call between two calibration readings.
pub fn calibrated<R>(f: impl FnOnce() -> R) -> (R, Calibrated) {
    let before = calibration_ns_per_iter();
    let cpu0 = process_cpu_s();
    let (r, raw_wall_s) = timed(f);
    let cpu = process_cpu_s() - cpu0;
    let ns_per_iter = 0.5 * (before + calibration_ns_per_iter());
    let scale = REFERENCE_NS_PER_ITER / ns_per_iter;
    let sample = Calibrated {
        raw_wall_s,
        wall_s: raw_wall_s * scale,
        cpu_s: cpu * scale,
        ns_per_iter,
    };
    (r, sample)
}

/// The calibration reading that one *calibrated second* is defined at:
/// the undisturbed speed of the machine the benchmark was developed on.
/// It only fixes the unit; parent and change are scaled alike.
pub const REFERENCE_NS_PER_ITER: f64 = 1.5;

/// Fixed integer loop for machine-speed normalisation: nanoseconds per
/// iteration of a dependent xorshift chain (no memory traffic, cannot be
/// vectorised or folded because each step feeds the next). About 10 ms.
#[must_use]
pub fn calibration_ns_per_iter() -> f64 {
    const ITERS: u64 = 5_000_000;
    let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15_u64);
    let t0 = Instant::now();
    for _ in 0..ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t0.elapsed().as_nanos() as f64 / ITERS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&xs) - 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn proc_readers_return_live_values() {
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_s() >= 0.0);
    }
}
