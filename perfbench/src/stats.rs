//! Order statistics over per-dock samples and process memory.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice: every run measures at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The tail statistic: the highest order statistic with at least ten
/// samples above it. Returns `(value, rank, percentile)` with a 1-based
/// rank. With ten samples or fewer no rank has ten above it, and the tail
/// falls back to the upper median, which the report states.
pub fn tail(xs: &[f64]) -> (f64, usize, f64) {
    assert!(!xs.is_empty(), "tail of no samples");
    let s = sorted(xs);
    let n = s.len();
    let rank = if n > 10 { n - 10 } else { n / 2 + 1 };
    (s[rank - 1], rank, 100.0 * rank as f64 / n as f64)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_above() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let (v, rank, pct) = tail(&xs);
        assert_eq!((v, rank), (190.0, 190));
        assert_eq!(pct, 95.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
    }

    #[test]
    fn tail_falls_back_to_upper_median() {
        assert_eq!(tail(&[1.0, 2.0, 3.0, 4.0]), (3.0, 3, 75.0));
        assert_eq!(tail(&[5.0]), (5.0, 1, 100.0));
    }
}
