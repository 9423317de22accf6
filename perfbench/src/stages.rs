//! Timed, span-wrapped steps of a workload.
//!
//! Each step is timed with `Instant` and wrapped in two spans: a stage
//! span `stage.<workload>.<step>` and, inside it, a layer-call span
//! named after the crate call it makes (`neural.train`,
//! `ms-sim.characterize`, ...). The whole pass sits under a
//! `workload.<name>` span, so a trace nests workload → stage → layer call
//! → the crates' own internal spans. With no collector installed every
//! span is a single relaxed atomic load.

use std::time::Instant;

/// Wall time of each step of one pass, in execution order.
#[derive(Debug)]
pub struct Stages {
    workload: &'static str,
    steps: Vec<(&'static str, f64)>,
    pass: Option<obs::SpanGuard>,
}

impl Stages {
    /// Opens the `workload.<name>` span for one pass.
    pub fn start(workload: &'static str) -> Self {
        Self {
            workload,
            steps: Vec::new(),
            pass: Some(obs::span(&format!("workload.{workload}"))),
        }
    }

    /// Runs `f` as step `step`, inside the stage span and the layer-call
    /// span `call`, and records its wall time.
    pub fn run<T>(&mut self, step: &'static str, call: &str, f: impl FnOnce() -> T) -> T {
        let _stage = obs::span(&format!("stage.{}.{step}", self.workload));
        let started = Instant::now();
        let out = {
            let _call = obs::span(call);
            f()
        };
        self.steps.push((step, started.elapsed().as_secs_f64()));
        out
    }

    /// Closes the `workload.<name>` span at the end of the pass.
    pub fn finish(&mut self) {
        self.pass = None;
    }

    /// Seconds spent in `step` (summed if it ran more than once).
    pub fn seconds(&self, step: &str) -> f64 {
        self.steps
            .iter()
            .filter(|(name, _)| *name == step)
            .map(|(_, s)| s)
            .sum()
    }
}

/// Wall times of a workload's set-up repetitions. Every workload sets up
/// once before its first pass (or round) and once more before each
/// later one, so the repetitions spread over the whole run as the passes
/// do, and one stretch of host contention cannot hit all of them.
#[derive(Debug, Default)]
pub struct Setups {
    /// Seconds of each repetition, in run order.
    pub times: Vec<f64>,
}

impl Setups {
    /// Runs one set-up repetition and records its wall time.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.times.push(started.elapsed().as_secs_f64());
        out
    }

    /// `setup_s`: the fastest repetition, the estimator `paper_s` uses
    /// too (see `WORKLOADS.md`).
    pub fn fastest(&self) -> f64 {
        crate::stats::min(&self.times)
    }

    /// The median repetition, reported beside `setup_s`.
    pub fn median(&self) -> f64 {
        crate::stats::median(&self.times)
    }
}

/// Repeats `pass` for about `budget` seconds: at least once, and another
/// repetition starts only while the mean repetition so far still fits.
///
/// # Errors
///
/// The first failing repetition's error.
pub fn repeat_for<T, E>(budget: f64, mut pass: impl FnMut() -> Result<T, E>) -> Result<Vec<T>, E> {
    let started = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(pass()?);
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + elapsed / out.len() as f64 > budget {
            return Ok(out);
        }
    }
}

/// Latency-window length relative to the pass before it: a quarter, so
/// a fifth of a paper workload's budget samples per-spectrum latency,
/// spread over the whole run in one window after every pass.
pub const LATENCY_WINDOW_RATIO: f64 = 0.25;

/// Calls `predict` on `inputs` in turn, cycling, timing every call,
/// until `seconds` have passed and every input ran at least once.
/// Returns the per-call latencies in milliseconds.
pub fn latency_window(
    seconds: f64,
    inputs: &[Vec<f32>],
    mut predict: impl FnMut(&[f32]),
) -> Vec<f64> {
    let started = Instant::now();
    let mut latencies = Vec::new();
    for (i, x) in inputs.iter().cycle().enumerate() {
        let t = Instant::now();
        predict(x);
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        if i + 1 >= inputs.len() && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    latencies
}
