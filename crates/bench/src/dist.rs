//! Sample distributions for benchmark timings.
//!
//! Mean-only timings hide cold-start skew and tail behaviour (the first
//! iterations of a scheduler benchmark pay TCB-pool misses that no steady
//! state ever sees), so every measurement helper returns a [`Dist`] —
//! a set of per-batch samples summarized as min/mean/p50/p99.

use std::time::Instant;

/// A distribution of nanosecond samples (kept sorted).
#[derive(Debug, Clone, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    /// Builds a distribution from raw samples (any order).
    pub fn from_samples(mut samples: Vec<f64>) -> Dist {
        samples.retain(|s| s.is_finite());
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples compare"));
        Dist { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the distribution has no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Smallest sample (0.0 when empty).
    pub fn min(&self) -> f64 {
        self.sorted.first().copied().unwrap_or(0.0)
    }

    /// Largest sample (0.0 when empty).
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }

    /// Nearest-rank `q`-quantile, `0.0 ..= 1.0` (0.0 when empty).
    pub fn percentile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).max(1);
        self.sorted[rank - 1]
    }

    /// Median.
    pub fn p50(&self) -> f64 {
        self.percentile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.percentile(0.99)
    }

    /// Returns the distribution with every sample multiplied by `k`
    /// (e.g. halving a ping-pong round into its per-leg cost).
    pub fn scale(mut self, k: f64) -> Dist {
        for s in &mut self.sorted {
            *s *= k;
        }
        self
    }
}

/// Times `f` over at most `iters` calls and returns the distribution of
/// per-iteration costs, in nanoseconds.
///
/// A warm-up phase (an eighth of the budget, capped) runs first so pool
/// misses and lazy initialization do not skew the steady-state samples;
/// the remaining iterations run as up to 32 equal batches, each batch's
/// mean-per-iteration forming one sample (per-call `Instant` reads would
/// dominate operations in the tens of nanoseconds).
///
/// `f` is called exactly `max(iters, 1)` times in total (warm-up and the
/// batching remainder included), so closures indexing a pre-built
/// `iters`-element array stay in bounds and ping-pong protocols that pair
/// each call with a partner action complete cleanly. All arithmetic is
/// `f64` nanoseconds: no `u32` conversion, no panic on huge iteration
/// counts.
pub fn time_per_iter(iters: u64, mut f: impl FnMut()) -> Dist {
    let (warmup, batches, per_batch) = plan_batches(iters);
    for _ in 0..warmup {
        f();
    }
    let mut samples = Vec::with_capacity(batches as usize);
    for _ in 0..batches {
        let start = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        samples.push(start.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    // Run the integer-division remainder untimed so the total call count
    // is exact.
    for _ in 0..iters.max(1) - warmup - batches * per_batch {
        f();
    }
    Dist::from_samples(samples)
}

/// Splits an iteration budget into `(warmup, batches, per_batch)` such that
/// `warmup + batches * per_batch <= iters` always holds. Pure `u64` math —
/// the old `u32::try_from(iters)` panic for budgets over `u32::MAX` is gone.
fn plan_batches(iters: u64) -> (u64, u64, u64) {
    let iters = iters.max(1);
    let warmup = if iters == 1 {
        0
    } else {
        (iters / 8).clamp(1, 10_000).min(iters - 1)
    };
    let remaining = (iters - warmup).max(1);
    let batches = remaining.min(32);
    let per_batch = remaining / batches;
    (warmup, batches, per_batch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_stats() {
        let d = Dist::from_samples(vec![30.0, 10.0, 20.0, 40.0]);
        assert_eq!(d.min(), 10.0);
        assert_eq!(d.max(), 40.0);
        assert_eq!(d.mean(), 25.0);
        assert_eq!(d.p50(), 20.0);
        assert_eq!(d.p99(), 40.0);
        let e = Dist::default();
        assert_eq!((e.min(), e.mean(), e.p50()), (0.0, 0.0, 0.0));
    }

    #[test]
    fn time_per_iter_calls_exactly_budget() {
        for iters in [1u64, 2, 7, 33, 100, 100_000] {
            let mut calls = 0u64;
            let d = time_per_iter(iters, || calls += 1);
            assert_eq!(calls, iters, "call count must match the budget");
            assert!(!d.is_empty());
        }
    }

    #[test]
    fn plan_handles_huge_iter_counts() {
        // The old implementation panicked via u32::try_from for any budget
        // over u32::MAX; the planner must accept any u64 and stay within it.
        for budget in [1u64, 2, 9, u64::from(u32::MAX) + 10, u64::MAX] {
            let (warmup, batches, per_batch) = plan_batches(budget);
            assert!(
                warmup.saturating_add(batches.saturating_mul(per_batch)) <= budget.max(1),
                "plan overruns budget {budget}"
            );
            assert!((1..=32).contains(&batches));
        }
    }

    #[test]
    fn scale_halves() {
        let d = Dist::from_samples(vec![10.0, 30.0]).scale(0.5);
        assert_eq!(d.min(), 5.0);
        assert_eq!(d.max(), 15.0);
    }
}
