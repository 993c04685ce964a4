//! Order statistics used by every workload. `quartiles` follows Python's
//! `statistics.quantiles(data, n=4)` (the "exclusive" method) so spreads
//! printed here match the ones computed over whole runs.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Median; 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// `p`-th percentile by linear interpolation between closest ranks
/// (rank `p/100 · (n−1)`); 0 for no samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let v = sorted(xs);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// First, second and third quartile, as `statistics.quantiles(xs, n=4)`.
/// Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let v = sorted(xs);
    let ld = v.len() as i64;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4i64).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        *q = (v[j as usize - 1] * (4.0 - delta) + v[j as usize] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median: the spread figure the
/// benchmark's bounds are judged against.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    (q3 - q1) / q2.abs().max(f64::MIN_POSITIVE)
}

/// Median over windows of each window's `p`-th percentile, for samples
/// tagged `(window, value)`: a tail figure that one stall cannot carry.
pub fn windowed_percentile(samples: &[(usize, f64)], p: f64) -> f64 {
    let mut windows: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
    for &(w, x) in samples {
        windows.entry(w).or_default().push(x);
    }
    let per: Vec<f64> = windows.values().map(|xs| percentile(xs, p)).collect();
    median(&per)
}
