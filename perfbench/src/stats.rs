//! Order statistics over raw samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted`, interpolating linearly
/// between closest ranks; 0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median and tail of a latency sample, in the sample's own unit.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// The highest of p99.9 / p99 / p95 / p90 / p50 with at least ten
    /// samples beyond it, as `(percentile, value)`.
    pub tail: (f64, f64),
}

impl Summary {
    /// Summarise `samples` (sorted in place).
    pub fn of(samples: &mut [f64]) -> Summary {
        sort(samples);
        let n = samples.len();
        let pct = [99.9, 99.0, 95.0, 90.0]
            .into_iter()
            .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
            .unwrap_or(50.0);
        Summary {
            n,
            p50: quantile(samples, 0.5),
            p90: quantile(samples, 0.9),
            p99: quantile(samples, 0.99),
            tail: (pct, quantile(samples, pct / 100.0)),
        }
    }

    /// One human-readable line: count, median, p99 and the reportable tail.
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "n={} p50={:.4}{unit} p90={:.4}{unit} p99={:.4}{unit} (highest percentile with >=10 samples beyond: p{}={:.4}{unit})",
            self.n, self.p50, self.p90, self.p99, self.tail.0, self.tail.1
        )
    }
}

/// Each item's least cost over repeated rounds of the same work:
/// `rounds[r][i]` is item `i`'s cost in round `r`. On a shared host the
/// host's other load slowed whole seconds of a run by up to 1.7x, even in
/// CPU time (time the host takes away is not counted, but a busy
/// neighbour still slows the code that runs); the least of several
/// repetitions is the item's cost at the quietest moment the run saw.
pub fn floors(rounds: &[Vec<f64>]) -> Vec<f64> {
    let items = rounds.iter().map(Vec::len).min().unwrap_or(0);
    (0..items)
        .map(|i| rounds.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Median of `values` (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    sort(values);
    quantile(values, 0.5)
}

/// Sort ascending; samples are times or counts, never NaN.
fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
}
