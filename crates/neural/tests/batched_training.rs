//! Differential tests of the batched training path against the scalar
//! oracle.
//!
//! `Layer::forward_batch`/`backward_batch` run dense and conv layers on
//! the `neural::kernels` GEMM and conv kernels, which re-associate sums
//! and use the polynomial `exp_fast` activations; the scalar
//! `Layer::forward`/`backward` are the oracle. Gradients are compared by
//! max-abs error against [`GRAD_TOL`]. Layers without a batched kernel
//! fall back to the scalar methods row by row, so for them the batched
//! gradients must be bit-identical to the oracle.

use std::sync::Arc;

use faultsim::FaultPlan;
use neural::guard::{DivergenceCause, GuardConfig, GuardedTrainer};
use neural::layers::{
    AvgPool1d, Conv1d, Dense, Dropout, Flatten, Layer, LocallyConnected1d, Lstm, MaxPool1d,
};
use neural::optim::{OptimizerSpec, Sgd};
use neural::spec::{LayerSpec, NetworkSpec};
use neural::train::{Dataset, TrainConfig, Trainer};
use neural::{Activation, Loss, Network};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Tolerance on the max-abs error between batched and scalar gradients
/// (weights, bias and input), relative to the largest oracle magnitude
/// when that exceeds 1: a weight gradient sums `rows × out_len` terms,
/// so its f32 rounding grows with its size. Inputs and upstream
/// gradients lie in `[-1, 1]`; the kernels' re-associated sums and
/// `exp_fast` activations stay below 1e-5 of scale on these shapes. An
/// indexing error shows up at order 0.1.
const GRAD_TOL: f32 = 1e-4;

const ACTIVATIONS: [Activation; 6] = [
    Activation::Linear,
    Activation::Relu,
    Activation::Selu,
    Activation::Sigmoid,
    Activation::Tanh,
    Activation::Softmax,
];

fn wave(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| ((i as f32) * 0.37 + seed as f32 * 1.3).sin())
        .collect()
}

fn max_abs(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

/// Parameter gradients plus the input gradient of one backward pass.
#[derive(Debug, PartialEq)]
struct Grads {
    params: Vec<Vec<f32>>,
    input: Vec<f32>,
}

impl Grads {
    /// Max-abs error against `oracle`, divided by the oracle's largest
    /// magnitude when that exceeds 1.
    fn scaled_error_vs(&self, oracle: &Grads) -> f32 {
        assert_eq!(self.params.len(), oracle.params.len());
        let pairs = self
            .params
            .iter()
            .zip(&oracle.params)
            .chain([(&self.input, &oracle.input)]);
        let (mut err, mut scale) = (0.0f32, 1.0f32);
        for (got, want) in pairs {
            err = err.max(max_abs(got, want));
            scale = want.iter().fold(scale, |m, v| m.max(v.abs()));
        }
        err / scale
    }
}

fn param_grads(layer: &mut dyn Layer) -> Vec<Vec<f32>> {
    let mut out = Vec::new();
    layer.visit_params(&mut |_, g| out.push(g.to_vec()));
    out
}

/// The oracle: scalar forward then backward, one row at a time.
fn scalar_grads(layer: &mut dyn Layer, rows: usize, x: &[f32], g: &[f32]) -> Grads {
    let (n_in, n_out) = (layer.input_len(), layer.output_len());
    layer.zero_grads();
    let mut input = Vec::new();
    for r in 0..rows {
        layer.forward(&x[r * n_in..][..n_in], true);
        input.extend(layer.backward(&g[r * n_out..][..n_out]));
    }
    Grads {
        params: param_grads(layer),
        input,
    }
}

/// The batched path: one `forward_batch`, one `backward_batch`.
fn batched_grads(layer: &mut dyn Layer, rows: usize, x: &[f32], g: &[f32]) -> Grads {
    let (n_in, n_out) = (layer.input_len(), layer.output_len());
    layer.zero_grads();
    let mut y = vec![0.0; rows * n_out];
    layer.forward_batch(rows, x, &mut y, true);
    let mut grad_out = g.to_vec();
    let mut input = vec![f32::NAN; rows * n_in];
    layer.backward_batch(rows, x, &y, &mut grad_out, Some(&mut input));
    Grads {
        params: param_grads(layer),
        input,
    }
}

fn compare(layer: &mut dyn Layer, rows: usize, seed: u64) -> f32 {
    let x = wave(rows * layer.input_len(), seed);
    let g = wave(rows * layer.output_len(), seed + 17);
    let want = scalar_grads(layer, rows, &x, &g);
    let got = batched_grads(layer, rows, &x, &g);
    got.scaled_error_vs(&want)
}

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batched_conv_gradients_match_scalar_oracle(
        in_channels in 1usize..4,
        in_len in 8usize..60,
        filters in 1usize..7,
        kernel in 1usize..9,
        stride in 1usize..5,
        act in 0usize..6,
        rows in 1usize..6,
        seed in 0u64..1000,
    ) {
        prop_assume!(kernel <= in_len);
        let mut layer = Conv1d::new(
            in_channels, in_len, filters, kernel, stride, ACTIVATIONS[act], &mut rng(seed),
        ).expect("valid conv");
        let err = compare(&mut layer, rows, seed);
        prop_assert!(err <= GRAD_TOL, "scaled gradient error {err:e} > {GRAD_TOL:e}");
    }

    #[test]
    fn batched_dense_gradients_match_scalar_oracle(
        input_len in 1usize..40,
        units in 1usize..40,
        act in 0usize..6,
        rows in 1usize..10,
        seed in 0u64..1000,
    ) {
        let mut layer = Dense::new(input_len, units, ACTIVATIONS[act], &mut rng(seed))
            .expect("valid dense");
        let err = compare(&mut layer, rows, seed);
        prop_assert!(err <= GRAD_TOL, "scaled gradient error {err:e} > {GRAD_TOL:e}");
    }
}

#[test]
fn conv_cases_match_scalar_oracle() {
    // (in_channels, in_len, filters, kernel, stride, activation, rows)
    let cases = [
        (1, 397, 25, 20, 1, Activation::Selu, 3), // Table-1 conv 1, stride 1
        (25, 120, 25, 15, 2, Activation::Selu, 2), // stride > 1
        (25, 53, 15, 15, 4, Activation::Softmax, 2), // narrow out_len < 16, channelwise softmax
        (3, 40, 5, 4, 3, Activation::Tanh, 1),    // batch = 1
        (2, 30, 6, 5, 1, Activation::Softmax, 4), // softmax over an out_len >= 16 layer
    ];
    for (i, &(ic, len, f, k, s, act, rows)) in cases.iter().enumerate() {
        let mut layer = Conv1d::new(ic, len, f, k, s, act, &mut rng(i as u64)).unwrap();
        let err = compare(&mut layer, rows, i as u64);
        assert!(err <= GRAD_TOL, "case {i}: scaled gradient error {err:e}");
    }
}

#[test]
fn dense_softmax_head_matches_scalar_oracle() {
    for rows in [1, 5, 32] {
        let mut layer = Dense::new(150, 8, Activation::Softmax, &mut rng(3)).unwrap();
        let err = compare(&mut layer, rows, rows as u64);
        assert!(
            err <= GRAD_TOL,
            "rows {rows}: scaled gradient error {err:e}"
        );
    }
}

#[test]
fn scalar_fallback_layers_are_bit_identical_to_the_oracle() {
    let mut layers: Vec<Box<dyn Layer>> = vec![
        Box::new(LocallyConnected1d::new(2, 45, 4, 9, 9, Activation::Relu, &mut rng(1)).unwrap()),
        Box::new(Lstm::new(3, 5, 4, &mut rng(2)).unwrap()),
        Box::new(MaxPool1d::new(3, 20, 3, 2).unwrap()),
        Box::new(AvgPool1d::new(3, 20, 4, 4).unwrap()),
        Box::new(Flatten::new(3, 7).unwrap()),
    ];
    for layer in &mut layers {
        let rows = 3;
        let x = wave(rows * layer.input_len(), 5);
        let g = wave(rows * layer.output_len(), 6);
        let want = scalar_grads(layer.as_mut(), rows, &x, &g);
        let got = batched_grads(layer.as_mut(), rows, &x, &g);
        assert_eq!(got, want, "{} batched gradients differ", layer.kind());
    }
}

#[test]
fn dropout_masks_follow_the_scalar_rng_order() {
    let (len, rows) = (16, 5);
    let x = wave(rows * len, 9);
    let mut scalar = Dropout::new(len, 0.4, 11).unwrap();
    let want: Vec<f32> = x
        .chunks(len)
        .flat_map(|r| scalar.forward(r, true))
        .collect();
    let mut batched = Dropout::new(len, 0.4, 11).unwrap();
    let mut got = vec![0.0; rows * len];
    batched.forward_batch(rows, &x, &mut got, true);
    assert_eq!(got, want);
    // The backward applies each row's own mask.
    let mut ones = vec![1.0; rows * len];
    let mut grad_in = vec![0.0; rows * len];
    batched.backward_batch(rows, &x, &got, &mut ones, Some(&mut grad_in));
    for ((gi, &y), &xv) in grad_in.iter().zip(&got).zip(&x) {
        assert_eq!(*gi * xv, y);
    }
}

/// `sum_r sum_j c[r][j] * y[r][j]` over the batched forward, the
/// objective whose gradient `backward_batch` computes for upstream `c`.
fn objective(layer: &mut dyn Layer, rows: usize, x: &[f32], c: &[f32]) -> f64 {
    let mut y = vec![0.0; rows * layer.output_len()];
    layer.forward_batch(rows, x, &mut y, false);
    y.iter()
        .zip(c)
        .map(|(&a, &b)| f64::from(a) * f64::from(b))
        .sum()
}

#[test]
fn batched_gradients_match_finite_differences() {
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv1d::new(2, 30, 3, 5, 2, Activation::Tanh, &mut rng(4)).unwrap()),
        Box::new(Dense::new(12, 5, Activation::Sigmoid, &mut rng(5)).unwrap()),
    ];
    let eps = 1e-2f32;
    for mut layer in layers {
        let rows = 3;
        let x = wave(rows * layer.input_len(), 1);
        let c = wave(rows * layer.output_len(), 2);
        let analytic = batched_grads(layer.as_mut(), rows, &x, &c);
        let params = layer.export_params();
        // Spot-check a spread of weights and every bias tensor entry 0.
        for (t, tensor) in params.iter().enumerate() {
            for idx in [0, tensor.len() / 3, tensor.len() - 1] {
                let mut bumped = params.clone();
                bumped[t][idx] += eps;
                layer.import_params(&bumped).unwrap();
                let hi = objective(layer.as_mut(), rows, &x, &c);
                bumped[t][idx] -= 2.0 * eps;
                layer.import_params(&bumped).unwrap();
                let lo = objective(layer.as_mut(), rows, &x, &c);
                layer.import_params(&params).unwrap();
                let numeric = ((hi - lo) / (2.0 * f64::from(eps))) as f32;
                let got = analytic.params[t][idx];
                assert!(
                    (got - numeric).abs() <= 1e-2 * (1.0 + numeric.abs()),
                    "{} tensor {t}[{idx}]: analytic {got} numeric {numeric}",
                    layer.kind()
                );
            }
        }
        // And the input gradient at a few positions.
        for idx in [0, x.len() / 2, x.len() - 1] {
            let mut xs = x.clone();
            xs[idx] += eps;
            let hi = objective(layer.as_mut(), rows, &xs, &c);
            xs[idx] -= 2.0 * eps;
            let lo = objective(layer.as_mut(), rows, &xs, &c);
            let numeric = ((hi - lo) / (2.0 * f64::from(eps))) as f32;
            let got = analytic.input[idx];
            assert!(
                (got - numeric).abs() <= 1e-2 * (1.0 + numeric.abs()),
                "{} input[{idx}]: analytic {got} numeric {numeric}",
                layer.kind()
            );
        }
    }
}

/// A small Table-1-shaped network whose dense layers are wide enough to
/// run the GEMM's full 16-column register tiles.
fn conv_dense_spec() -> NetworkSpec {
    NetworkSpec::new(64)
        .layer(LayerSpec::Reshape { channels: 1 })
        .layer(LayerSpec::Conv1d {
            filters: 6,
            kernel: 8,
            stride: 1,
            activation: Activation::Selu,
        })
        .layer(LayerSpec::Conv1d {
            filters: 5,
            kernel: 6,
            stride: 3,
            activation: Activation::Softmax,
        })
        .layer(LayerSpec::Flatten)
        .layer(LayerSpec::Dense {
            units: 37,
            activation: Activation::Tanh,
        })
        .layer(LayerSpec::Dense {
            units: 4,
            activation: Activation::Softmax,
        })
}

#[test]
fn batched_forward_rows_are_bit_identical_at_any_batch_size_and_position() {
    let mut net = conv_dense_spec().build(8).unwrap();
    // Non-zero biases: with zero biases, accumulating from the bias or
    // from zero rounds alike and would hide a row-dependent GEMM path.
    let weights: Vec<Vec<Vec<f32>>> = net
        .export_weights()
        .into_iter()
        .map(|layer| {
            layer
                .into_iter()
                .map(|t| {
                    let bump = wave(t.len(), t.len() as u64);
                    t.iter().zip(bump).map(|(w, b)| w + 0.1 * b).collect()
                })
                .collect()
        })
        .collect();
    net.import_weights(&weights).unwrap();
    let width = net.input_len();
    let max_rows = 9;
    let inputs = wave(max_rows * width, 3);
    let single: Vec<Vec<f32>> = inputs
        .chunks(width)
        .map(|row| net.forward_batch(row, false).to_vec())
        .collect();
    for rows in 1..=max_rows {
        for start in 0..=max_rows - rows {
            let block = &inputs[start * width..(start + rows) * width];
            for training in [false, true] {
                let out = net.forward_batch(block, training).to_vec();
                for (r, got) in out.chunks(net.output_len()).enumerate() {
                    let want = &single[start + r];
                    assert!(
                        got.iter()
                            .zip(want)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "row {} differs at batch size {rows}, position {r}",
                        start + r
                    );
                }
            }
        }
    }
}

#[test]
fn train_batch_matches_scalar_train_steps_with_a_ragged_batch() {
    // One SGD step (lr 1, no momentum) moves each weight by exactly its
    // averaged gradient, so comparing weights compares gradients.
    let spec = conv_dense_spec();
    let width = 64;
    for rows in [1usize, 3, 7] {
        let inputs = wave(rows * width, rows as u64);
        let targets: Vec<f32> = (0..rows * 4).map(|i| ((i % 4) as f32) * 0.25).collect();
        let mut scalar = spec.build(21).unwrap();
        scalar.zero_grads();
        let mut want_losses = Vec::new();
        for (x, t) in inputs.chunks(width).zip(targets.chunks(4)) {
            want_losses.push(scalar.train_step(x, t, Loss::Mae));
        }
        scalar.apply_gradients(&mut Sgd::new(1.0, 0.0), rows);
        let mut batched = spec.build(21).unwrap();
        batched.zero_grads();
        let losses = batched.train_batch(&inputs, &targets, Loss::Mae).to_vec();
        batched.apply_gradients(&mut Sgd::new(1.0, 0.0), rows);
        assert!(
            max_abs(&losses, &want_losses) <= GRAD_TOL,
            "rows {rows}: losses"
        );
        for (l, (a, b)) in batched
            .export_weights()
            .iter()
            .zip(&scalar.export_weights())
            .enumerate()
        {
            for (ta, tb) in a.iter().zip(b) {
                let err = max_abs(ta, tb);
                assert!(
                    err <= GRAD_TOL,
                    "rows {rows}, layer {l}: weight error {err:e}"
                );
            }
        }
    }
}

fn regression_data(n: usize, width: usize) -> Dataset {
    let inputs: Vec<Vec<f32>> = (0..n).map(|i| wave(width, i as u64)).collect();
    let targets = inputs
        .iter()
        .map(|x| {
            let s = x.iter().take(8).sum::<f32>().tanh();
            vec![0.25 + 0.2 * s, 0.25 - 0.2 * s, 0.25, 0.25]
        })
        .collect();
    Dataset::new(inputs, targets).unwrap()
}

fn train_config() -> TrainConfig {
    TrainConfig {
        epochs: 4,
        batch_size: 6, // 22 training rows: the last batch of each epoch is ragged
        optimizer: OptimizerSpec::Adam { lr: 0.01 },
        loss: Loss::Mae,
        seed: 5,
        ..TrainConfig::default()
    }
}

#[test]
fn batched_training_is_seed_deterministic_and_learns() {
    let data = regression_data(22, 64);
    let run = || {
        let mut net: Network = conv_dense_spec().build(2).unwrap();
        let history = Trainer::new(train_config())
            .fit(&mut net, &data, None)
            .unwrap();
        (history, net.export_weights())
    };
    let (a, wa) = run();
    let (b, wb) = run();
    assert_eq!(a, b);
    assert_eq!(wa, wb);
    assert!(a.final_train_loss() < a.train_loss[0]);
}

#[test]
fn nan_poisoned_batch_triggers_rollback_on_the_batched_path() {
    let data = regression_data(22, 64);
    let mut net = conv_dense_spec().build(2).unwrap();
    let plan = Arc::new(FaultPlan::new().with_nan_batch(1, 2));
    let guard = GuardConfig {
        checkpoint_every: 1,
        ..GuardConfig::default()
    };
    let outcome = GuardedTrainer::new(train_config(), guard)
        .unwrap()
        .with_fault_plan(Arc::clone(&plan))
        .fit(&mut net, &data, None)
        .unwrap();
    assert_eq!(outcome.recovery.len(), 1);
    let event = &outcome.recovery[0];
    assert_eq!((event.epoch, event.batch), (1, Some(2)));
    assert_eq!(event.cause, DivergenceCause::NonFiniteLoss);
    assert_eq!(event.rolled_back_to, 1);
    assert_eq!(outcome.history.train_loss.len(), 4);
    assert!(outcome.history.train_loss.iter().all(|v| v.is_finite()));
    assert!(net
        .export_weights()
        .iter()
        .flatten()
        .flatten()
        .all(|v| v.is_finite()));
}
