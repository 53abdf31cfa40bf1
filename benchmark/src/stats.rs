//! Order statistics used by the runner (latency quantiles, median window)
//! and by `compare` (quartile spread, as the driver computes it).

/// Median of `values`; the mean of the two middle values for an even count.
/// Panics on an empty slice: every caller has at least one window or run.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them (the
/// "exclusive" method), so `compare` sees the spread the driver will see.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// The `q` quantile of integer samples (nanoseconds), interpolated inside the
/// one-unit bin it falls in.
///
/// Nearest rank picks the bin: `v = sorted[ceil(q*n) - 1]`.  The samples are
/// whole nanoseconds, so thousands of them share `v`; treating `v` as the bin
/// `[v, v+1)` and placing the quantile by how far rank `q*n` reaches into the
/// bin's occupants (the grouped-data quantile) keeps the digits a clock with
/// sub-unit resolution would have shown.  Sorts `samples` in place.
pub fn quantile_ns(samples: &mut [u32], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of nothing");
    assert!((0.0..=1.0).contains(&q));
    samples.sort_unstable();
    let n = samples.len();
    let target = q * n as f64;
    let rank = (target.ceil() as usize).clamp(1, n);
    let v = samples[rank - 1];
    let below = samples.partition_point(|&s| s < v);
    let in_bin = samples.partition_point(|&s| s <= v) - below;
    let into = ((target - below as f64) / in_bin as f64).clamp(0.0, 1.0);
    f64::from(v) + into
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_by_hand() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // A window median ignores a stalled window entirely.
        assert_eq!(median(&[100.0, 101.0, 3.0, 99.0, 102.0]), 100.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(
            quartiles(&[160.0, 10.0, 80.0, 20.0, 40.0]),
            [15.0, 40.0, 120.0]
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(iqr_share(&v), 1.0);
    }

    #[test]
    fn quantile_ns_by_hand() {
        // Ten distinct samples: rank ceil(0.5*10)=5 -> 50, alone in its bin,
        // target 5.0 reaches (5-4)/1 = all the way through it.
        let mut s: Vec<u32> = (1..=10).map(|i| i * 10).collect();
        assert_eq!(quantile_ns(&mut s, 0.5), 51.0);
        // rank ceil(0.99*10)=10 -> 100; (9.9-9)/1 = 0.9 into the bin.
        assert!((quantile_ns(&mut s, 0.99) - 100.9).abs() < 1e-9);

        // A crowded bin: [5, 7,7,7,7, 9]; q=0.5 -> target 3.0, rank 3 -> 7,
        // one sample below, four in the bin: 7 + (3-1)/4 = 7.5.
        let mut s = vec![7, 9, 7, 5, 7, 7];
        assert_eq!(quantile_ns(&mut s, 0.5), 7.5);
        // Every sample equal: the quantile moves through the bin with q.
        let mut s = vec![4; 8];
        assert_eq!(quantile_ns(&mut s, 0.25), 4.25);
        let mut s = vec![42];
        assert_eq!(quantile_ns(&mut s, 0.0), 42.0);
    }
}
