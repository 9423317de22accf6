//! Kernel roofline: a measured FMA peak and per-op GMAC/s of a plan.

use std::hint::black_box;
use std::time::Instant;

use neural::kernels::Scratch;
use neural::plan::FrozenPlan;
use serde_json::Value;

/// Independent accumulators: eight 8-lane vectors, enough to cover the
/// FMA latency on two pipes.
const LANES: usize = 64;

/// Single-thread fused multiply-add throughput in GMAC/s: the best of
/// `reps` timed loops over independent accumulator chains, built with
/// the same `f32::mul_add` the inference kernels use.
pub fn fma_peak_gmacs(reps: usize) -> f64 {
    const ITERS: usize = 10_000_000;
    let a = black_box(0.999_999_9f32);
    let b = black_box(1.0e-7f32);
    let mut best = 0.0f64;
    for rep in 0..reps.max(1) {
        let mut acc = [0.0f32; LANES];
        for (i, v) in acc.iter_mut().enumerate() {
            *v = black_box((i + rep) as f32 * 1e-3);
        }
        let started = Instant::now();
        for _ in 0..ITERS {
            for v in acc.iter_mut() {
                *v = v.mul_add(a, b);
            }
        }
        let secs = started.elapsed().as_secs_f64();
        black_box(&acc);
        best = best.max((ITERS * LANES) as f64 / secs / 1e9);
    }
    best
}

/// Per-op timing of one plan at one batch size.
#[derive(Debug, Clone)]
pub struct OpRoofline {
    /// Kernel name from the instrumented observer.
    pub op: &'static str,
    /// Mean microseconds per batch.
    pub mean_us: f64,
    /// Multiply-accumulates per batch.
    pub macs_per_batch: u64,
    /// Achieved GMAC/s.
    pub gmacs: f64,
    /// Achieved share of the measured single-thread FMA peak.
    pub peak_frac: f64,
}

/// Times each kernel of `plan` on a `batch`-sample block cut from
/// `inputs`, pairing it with [`FrozenPlan::macs_per_op`].
pub fn per_op(
    plan: &FrozenPlan,
    inputs: &[Vec<f32>],
    batch: usize,
    reps: usize,
    peak_gmacs: f64,
) -> Vec<OpRoofline> {
    let block: Vec<f32> = inputs
        .iter()
        .cycle()
        .take(batch.max(1))
        .flat_map(|x| x.iter().copied())
        .collect();
    let mut scratch = Scratch::new();
    let mut outputs = Vec::new();
    for _ in 0..3 {
        outputs.clear();
        let _ = plan.predict_batch_instrumented(&block, &mut outputs, &mut scratch, &mut |_, _| {});
    }
    let mut names: Vec<&'static str> = Vec::new();
    let mut totals: Vec<f64> = Vec::new();
    for _ in 0..reps.max(1) {
        outputs.clear();
        let mut last = Instant::now();
        let _ =
            plan.predict_batch_instrumented(&block, &mut outputs, &mut scratch, &mut |i, name| {
                let now = Instant::now();
                if i == names.len() {
                    names.push(name);
                    totals.push(0.0);
                }
                totals[i] += (now - last).as_secs_f64();
                last = now;
            });
    }
    names
        .iter()
        .zip(&totals)
        .zip(plan.macs_per_op())
        .map(|((&op, &total), macs)| {
            let mean_us = total / reps.max(1) as f64 * 1e6;
            let macs_per_batch = macs * batch.max(1) as u64;
            let gmacs = if mean_us > 0.0 {
                macs_per_batch as f64 / (mean_us * 1e-6) / 1e9
            } else {
                0.0
            };
            OpRoofline {
                op,
                mean_us,
                macs_per_batch,
                gmacs,
                peak_frac: if peak_gmacs > 0.0 {
                    gmacs / peak_gmacs
                } else {
                    0.0
                },
            }
        })
        .collect()
}

/// The per-op table as JSON.
pub fn to_json(ops: &[OpRoofline]) -> Value {
    Value::Array(
        ops.iter()
            .map(|o| {
                serde_json::json!({
                    "op": o.op,
                    "mean_us": o.mean_us,
                    "macs_per_batch": o.macs_per_batch,
                    "gmac_per_s": o.gmacs,
                    "peak_frac": o.peak_frac,
                })
            })
            .collect(),
    )
}
