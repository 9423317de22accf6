//! Order statistics over measured samples.

/// Median of `values` (mean of the two middle values for even counts).
/// Returns `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (the
/// "inclusive" definition: `q = 0` is the minimum, `q = 1` the maximum).
/// Returns `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if hi == lo {
        return sorted[lo];
    }
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median over windows of each window's quantile `q` — a latency
/// statistic that a few disturbed windows cannot move.
pub fn windowed_quantile(windows: &[Vec<f64>], q: f64) -> f64 {
    let per_window: Vec<f64> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| quantile(w, q))
        .collect();
    median(&per_window)
}

/// The lowest, over windows, of each window's quantile `q`: the figure
/// of the run's least disturbed window. On a shared host, per-call
/// latency has a contended and an uncontended mode, and the mix shifts
/// within a run; a median over windows moves with the mix, while the
/// best short window still sees the uncontended machine.
pub fn best_window_quantile(windows: &[Vec<f64>], q: f64) -> f64 {
    windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| quantile(w, q))
        .fold(f64::NAN, f64::min)
}

/// Smallest of `values`; `NaN` for an empty slice.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::min)
}

/// Shortest window, in milliseconds of calls, that per-call latencies
/// are cut into before the best window is taken.
pub const WINDOW_MS: f64 = 50.0;
/// Fewest calls in a window, so that its p90 has ten calls beyond it.
pub const WINDOW_CALLS: usize = 100;

/// Cuts consecutive per-call latencies (ms) into windows of at least
/// [`WINDOW_CALLS`] calls and [`WINDOW_MS`] of calls; a trailing partial
/// window is dropped. Short windows let [`best_window_quantile`] find a
/// quiet stretch of a contended run.
pub fn split_window(latencies_ms: &[f64]) -> Vec<Vec<f64>> {
    let mut windows = Vec::new();
    let mut current = Vec::new();
    let mut filled = 0.0;
    for &l in latencies_ms {
        current.push(l);
        filled += l;
        if filled >= WINDOW_MS && current.len() >= WINDOW_CALLS {
            windows.push(std::mem::take(&mut current));
            filled = 0.0;
        }
    }
    windows
}

/// Mean squared error between prediction rows and reference rows, in
/// the same summation order as the NMR pipeline's scoring.
pub fn mse_against(predictions: &[Vec<f64>], reference: &[Vec<f64>]) -> f64 {
    let mut acc = 0.0;
    let mut n = 0usize;
    for (p, r) in predictions.iter().zip(reference) {
        for (a, b) in p.iter().zip(r) {
            acc += (a - b) * (a - b);
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        acc / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn windowed_quantile_ignores_a_disturbed_window() {
        let windows = vec![
            vec![1.0, 1.0, 2.0],
            vec![1.0, 1.2, 1.1],
            vec![9.0, 9.0, 9.0],
        ];
        assert_eq!(windowed_quantile(&windows, 0.5), 1.1);
    }

    #[test]
    fn best_window_quantile_takes_the_least_disturbed_window() {
        let windows = vec![
            vec![9.0, 9.0, 9.0],
            vec![1.0, 1.2, 1.1],
            vec![],
            vec![1.0, 2.0, 2.0],
        ];
        assert_eq!(best_window_quantile(&windows, 0.5), 1.1);
        assert_eq!(min(&[3.0, 2.0, 4.0]), 2.0);
        assert!(min(&[]).is_nan());
        assert!(best_window_quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn split_window_needs_both_calls_and_time() {
        // 100 calls of 1 ms fill one window; calls of 0.2 ms need 250 to
        // fill 50 ms; the last 50 are a partial window.
        let mut calls = vec![1.0; 100];
        calls.extend(vec![0.2; 300]);
        let windows = split_window(&calls);
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].len(), 100);
        assert_eq!(windows[1].len(), 250);
    }

    #[test]
    fn mse_matches_hand_computation() {
        let p = vec![vec![1.0, 2.0], vec![1.0, 4.0]];
        let r = vec![vec![1.0, 2.0], vec![1.0, 2.0]];
        assert_eq!(mse_against(&p, &r), 1.0);
    }
}
