//! Order statistics and the replay-timing reductions.

/// Median of `xs` (mean of the two middle values for even lengths);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `q` in [0, 1] of `xs`; 0 for an empty slice.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Elementwise minimum across replays of the same fixed work: `runs[r][i]`
/// is the time of item `i` (a batch or a segment) in replay `r`. The
/// fastest time of each item filters out the on-CPU interference that
/// hits a different item in every replay.
pub fn elementwise_min(runs: &[Vec<f64>]) -> Vec<f64> {
    let Some(first) = runs.first() else {
        return Vec::new();
    };
    let mut out = first.clone();
    for run in &runs[1..] {
        assert_eq!(run.len(), out.len(), "replays of one job differ in length");
        for (o, &x) in out.iter_mut().zip(run) {
            *o = o.min(x);
        }
    }
    out
}

/// Sums per-batch times into `segments` consecutive segments of (nearly)
/// equal batch counts.
pub fn segment_sums(batch_secs: &[f64], segments: usize) -> Vec<f64> {
    let segments = segments.clamp(1, batch_secs.len().max(1));
    let per = batch_secs.len().div_ceil(segments).max(1);
    batch_secs.chunks(per).map(|c| c.iter().sum()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), 990.0);
        assert_eq!(percentile(&xs, 1.0), 1000.0);
    }

    #[test]
    fn minima_and_segments() {
        let m = elementwise_min(&[vec![3.0, 1.0, 5.0], vec![2.0, 4.0, 6.0]]);
        assert_eq!(m, vec![2.0, 1.0, 5.0]);
        assert_eq!(segment_sums(&[1.0, 2.0, 3.0, 4.0, 5.0], 2), vec![6.0, 9.0]);
    }
}
