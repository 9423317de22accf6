//! A feed-forward network: an ordered stack of layers.

use crate::layers::{Layer, LayerSummary};
use crate::optim::Optimizer;
use crate::{Loss, NeuralError};

/// A sequential neural network.
///
/// Networks are usually built from a [`crate::spec::NetworkSpec`]; direct
/// construction via [`Network::new`] + [`Network::push`] is available for
/// custom stacks.
///
/// # Example
///
/// ```
/// use neural::spec::{LayerSpec, NetworkSpec};
/// use neural::Activation;
///
/// # fn main() -> Result<(), neural::NeuralError> {
/// let net = NetworkSpec::new(4)
///     .layer(LayerSpec::Dense { units: 3, activation: Activation::Softmax })
///     .build(7)?;
/// let out = net.summary();
/// assert_eq!(out.len(), 1);
/// assert_eq!(net.param_count(), 4 * 3 + 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
    batch: BatchBuffers,
}

/// Reused buffers of the batched training path.
#[derive(Debug, Default)]
struct BatchBuffers {
    /// `acts[i]` is layer `i`'s `[rows][output_len]` output.
    acts: Vec<Vec<f32>>,
    /// Gradient w.r.t. the output of the layer being back-propagated.
    grad: Vec<f32>,
    /// Gradient w.r.t. its input.
    grad_next: Vec<f32>,
    /// Per-row loss values of the last [`Network::train_batch`].
    losses: Vec<f32>,
}

impl Network {
    /// An empty network.
    pub fn new() -> Self {
        Self {
            layers: Vec::new(),
            batch: BatchBuffers::default(),
        }
    }

    /// Appends a layer.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::ShapeMismatch`] if the layer's input length
    /// does not match the current output length.
    pub fn push(&mut self, layer: Box<dyn Layer>) -> Result<(), NeuralError> {
        if let Some(last) = self.layers.last() {
            if last.output_len() != layer.input_len() {
                return Err(NeuralError::ShapeMismatch {
                    expected: last.output_len(),
                    actual: layer.input_len(),
                });
            }
        }
        self.layers.push(layer);
        Ok(())
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` if the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Expected input length.
    ///
    /// # Panics
    ///
    /// Panics if the network is empty.
    pub fn input_len(&self) -> usize {
        self.layers.first().expect("non-empty network").input_len()
    }

    /// Produced output length.
    ///
    /// # Panics
    ///
    /// Panics if the network is empty.
    pub fn output_len(&self) -> usize {
        self.layers.last().expect("non-empty network").output_len()
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Forward pass for one sample (training mode caches activations and
    /// enables dropout).
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.input_len()` or the network is
    /// empty.
    pub fn forward(&mut self, input: &[f32], training: bool) -> Vec<f32> {
        let mut x = input.to_vec();
        let mut tracker = crate::checked::FiniteTracker::new(&x);
        for (i, layer) in self.layers.iter_mut().enumerate() {
            x = layer.forward(&x, training);
            tracker.check("Network::forward", i, &x);
        }
        x
    }

    /// Inference convenience: forward in evaluation mode.
    pub fn predict(&mut self, input: &[f32]) -> Vec<f32> {
        self.forward(input, false)
    }

    /// Back-propagates a gradient w.r.t. the network output through all
    /// layers, accumulating parameter gradients.
    ///
    /// # Panics
    ///
    /// Panics if no forward pass preceded this call.
    pub fn backward(&mut self, grad_output: &[f32]) {
        let mut g = grad_output.to_vec();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
    }

    /// Runs forward + loss + backward for one `(input, target)` pair and
    /// returns the loss value. Gradients accumulate until
    /// [`Network::zero_grads`].
    pub fn train_step(&mut self, input: &[f32], target: &[f32], loss: Loss) -> f32 {
        let prediction = self.forward(input, true);
        let value = loss.value(&prediction, target);
        let grad = loss.gradient(&prediction, target);
        self.backward(&grad);
        value
    }

    /// Batched forward pass over `inputs`, a contiguous `[rows][input_len]`
    /// block, through each layer's [`Layer::forward_batch`]. Returns the
    /// `[rows][output_len]` outputs; with `training` set, dropout is on
    /// and every layer's output is kept for [`Network::train_batch`].
    ///
    /// Row `r` of the result depends only on row `r` of `inputs`, bit
    /// for bit, whatever the number of rows (in training mode, dropout
    /// masks still follow the row order). Dense and conv layers run
    /// the `crate::kernels` fast path, so the result agrees with
    /// [`Network::forward`] within the kernels' tolerance, not bit for
    /// bit.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` is not a multiple of the input length or
    /// the network is empty.
    pub fn forward_batch(&mut self, inputs: &[f32], training: bool) -> &[f32] {
        let width = self.input_len();
        assert!(
            inputs.len().is_multiple_of(width),
            "batch of {} values is not a whole number of {width}-wide rows",
            inputs.len()
        );
        let rows = inputs.len() / width;
        let Self { layers, batch } = self;
        batch.acts.resize_with(layers.len(), Vec::new);
        let mut tracker = crate::checked::FiniteTracker::new(inputs);
        for (i, layer) in layers.iter_mut().enumerate() {
            let (done, rest) = batch.acts.split_at_mut(i);
            let x = done.last().map_or(inputs, Vec::as_slice);
            let y = &mut rest[0];
            y.resize(rows * layer.output_len(), 0.0);
            layer.forward_batch(rows, x, y, training);
            tracker.check("Network::forward_batch", i, y);
        }
        &batch.acts[layers.len() - 1]
    }

    /// One batched training step over a mini-batch: `inputs` is
    /// `[rows][input_len]` and `targets` `[rows][output_len]`. Runs the
    /// training forward, the loss, and each layer's
    /// [`Layer::backward_batch`], accumulating parameter gradients until
    /// [`Network::zero_grads`]. Returns the per-row loss values.
    ///
    /// # Panics
    ///
    /// As for [`Network::forward_batch`], and if `targets` does not hold
    /// one output row per input row.
    pub fn train_batch(&mut self, inputs: &[f32], targets: &[f32], loss: Loss) -> &[f32] {
        {
            let _span = obs::span!("train.forward");
            self.forward_batch(inputs, true);
        }
        let _span = obs::span!("train.backward");
        let rows = inputs.len() / self.input_len();
        let out_w = self.output_len();
        assert_eq!(targets.len(), rows * out_w, "one target row per input row");
        let Self { layers, batch } = self;
        let BatchBuffers {
            acts,
            grad,
            grad_next,
            losses,
        } = batch;
        losses.clear();
        grad.clear();
        let predictions = &acts[layers.len() - 1];
        for (p, t) in predictions
            .chunks_exact(out_w)
            .zip(targets.chunks_exact(out_w))
        {
            losses.push(loss.value(p, t));
            grad.extend_from_slice(&loss.gradient(p, t));
        }
        // Layers below the first one with parameters need no gradient.
        let first = layers
            .iter()
            .position(|l| l.param_count() > 0)
            .unwrap_or(layers.len());
        for i in (first..layers.len()).rev() {
            let x = if i == 0 { inputs } else { &acts[i - 1] };
            let grad_input = if i > first {
                grad_next.resize(rows * layers[i].input_len(), 0.0);
                Some(grad_next.as_mut_slice())
            } else {
                None
            };
            layers[i].backward_batch(rows, x, &acts[i], grad, grad_input);
            std::mem::swap(grad, grad_next);
        }
        losses
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// Applies accumulated gradients via `optimizer`, scaling them in
    /// place by `1 / batch_size` first.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn apply_gradients(&mut self, optimizer: &mut dyn Optimizer, batch_size: usize) {
        assert!(batch_size > 0, "batch size must be non-zero");
        let scale = 1.0 / batch_size as f32;
        let mut slot = 0;
        for layer in &mut self.layers {
            layer.visit_params(&mut |params, grads| {
                for g in grads.iter_mut() {
                    *g *= scale;
                }
                optimizer.step(slot, params, grads);
                slot += 1;
            });
        }
    }

    /// Euclidean norm of all accumulated parameter gradients — the
    /// divergence-guard's explosion signal.
    pub fn grad_norm(&mut self) -> f32 {
        let mut sum = 0.0f64;
        for layer in &mut self.layers {
            layer.visit_params(&mut |_, grads| {
                for &g in grads.iter() {
                    sum += f64::from(g) * f64::from(g);
                }
            });
        }
        sum.sqrt() as f32
    }

    /// Per-layer summary rows (the paper's Table 1 shape).
    pub fn summary(&self) -> Vec<LayerSummary> {
        self.layers.iter().map(|l| l.summary()).collect()
    }

    /// Renders the summary as an aligned text table.
    pub fn summary_table(&self) -> String {
        let rows = self.summary();
        let mut out = String::from(
            "Layer  Type                 Output       Config                          Act   Params\n",
        );
        for (i, row) in rows.iter().enumerate() {
            out.push_str(&format!(
                "{:<6} {:<20} {:<12} {:<31} {:<5} {}\n",
                i + 1,
                row.kind,
                row.output_shape,
                row.config,
                row.activation,
                row.parameters
            ));
        }
        out.push_str(&format!("Total parameters: {}\n", self.param_count()));
        out
    }

    /// Exports all parameter tensors, layer by layer.
    pub fn export_weights(&self) -> Vec<Vec<Vec<f32>>> {
        self.layers.iter().map(|l| l.export_params()).collect()
    }

    /// Imports parameter tensors previously produced by
    /// [`Network::export_weights`].
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::InvalidWeights`] if the layer count or any
    /// tensor shape does not match.
    pub fn import_weights(&mut self, weights: &[Vec<Vec<f32>>]) -> Result<(), NeuralError> {
        if weights.len() != self.layers.len() {
            return Err(NeuralError::InvalidWeights(format!(
                "expected {} layers, got {}",
                self.layers.len(),
                weights.len()
            )));
        }
        for (layer, w) in self.layers.iter_mut().zip(weights) {
            layer.import_params(w)?;
        }
        Ok(())
    }

    /// Approximate multiply–accumulate operation count for one inference,
    /// derived from parameter structure. Dense/conv-style layers perform
    /// roughly one MAC per weight application; the LSTM repeats its
    /// weights per timestep. Used by the platform performance model.
    pub fn macs_per_inference(&self) -> u64 {
        let mut total: u64 = 0;
        for layer in &self.layers {
            let summary = layer.summary();
            let params = summary.parameters as u64;
            total += match summary.kind.as_str() {
                // Shared conv weights are applied at every output position.
                "Conv1D" => {
                    // params ≈ weights; output positions from shape "F x L".
                    let out_positions = summary
                        .output_shape
                        .split('x')
                        .nth(1)
                        .and_then(|s| s.trim().parse::<u64>().ok())
                        .unwrap_or(1);
                    params * out_positions
                }
                "LSTM" => {
                    let timesteps = summary
                        .config
                        .split_whitespace()
                        .find_map(|kv| kv.strip_prefix("timesteps="))
                        .and_then(|v| v.parse::<u64>().ok())
                        .unwrap_or(1);
                    params * timesteps
                }
                _ => params,
            };
        }
        total
    }
}

impl Default for Network {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Flatten};
    use crate::optim::Sgd;
    use crate::Activation;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(3)
    }

    fn two_layer() -> Network {
        let mut net = Network::new();
        net.push(Box::new(
            Dense::new(2, 4, Activation::Tanh, &mut rng()).unwrap(),
        ))
        .unwrap();
        net.push(Box::new(
            Dense::new(4, 1, Activation::Linear, &mut rng()).unwrap(),
        ))
        .unwrap();
        net
    }

    #[test]
    fn push_validates_shapes() {
        let mut net = Network::new();
        net.push(Box::new(
            Dense::new(2, 4, Activation::Relu, &mut rng()).unwrap(),
        ))
        .unwrap();
        let err = net.push(Box::new(
            Dense::new(5, 1, Activation::Linear, &mut rng()).unwrap(),
        ));
        assert_eq!(
            err,
            Err(NeuralError::ShapeMismatch {
                expected: 4,
                actual: 5
            })
        );
    }

    #[test]
    fn forward_chains_layers() {
        let mut net = two_layer();
        let out = net.predict(&[0.5, -0.5]);
        assert_eq!(out.len(), 1);
        assert!(out[0].is_finite());
    }

    #[test]
    fn sgd_training_reduces_loss_on_xor_like_task() {
        let mut net = two_layer();
        let data = [
            ([0.0f32, 0.0], [0.0f32]),
            ([0.0, 1.0], [1.0]),
            ([1.0, 0.0], [1.0]),
            ([1.0, 1.0], [0.0]),
        ];
        let mut opt = Sgd::new(0.5, 0.9);
        let loss_at = |net: &mut Network| -> f32 {
            data.iter()
                .map(|(x, t)| Loss::Mse.value(&net.predict(x), t))
                .sum::<f32>()
                / 4.0
        };
        let before = loss_at(&mut net);
        for _ in 0..500 {
            net.zero_grads();
            for (x, t) in &data {
                net.train_step(x, t, Loss::Mse);
            }
            net.apply_gradients(&mut opt, 4);
        }
        let after = loss_at(&mut net);
        assert!(after < before * 0.2, "before {before}, after {after}");
    }

    #[test]
    fn weights_roundtrip_preserves_predictions() {
        let mut a = two_layer();
        let saved = a.export_weights();
        let mut b = two_layer();
        // Perturb b, then restore from a.
        b.zero_grads();
        b.import_weights(&saved).unwrap();
        let x = [0.3, 0.7];
        assert_eq!(a.predict(&x), b.predict(&x));
    }

    #[test]
    fn import_rejects_wrong_layer_count() {
        let mut net = two_layer();
        assert!(net.import_weights(&[]).is_err());
    }

    #[test]
    fn summary_table_lists_all_layers() {
        let net = two_layer();
        let table = net.summary_table();
        assert_eq!(table.matches("Dense").count(), 2);
        assert!(table.contains("Total parameters"));
    }

    #[test]
    fn param_count_sums_layers() {
        let net = two_layer();
        assert_eq!(net.param_count(), (2 * 4 + 4) + (4 + 1));
    }

    #[test]
    fn macs_count_dense_and_flatten() {
        let mut net = Network::new();
        net.push(Box::new(Flatten::new(2, 3).unwrap())).unwrap();
        net.push(Box::new(
            Dense::new(6, 2, Activation::Linear, &mut rng()).unwrap(),
        ))
        .unwrap();
        assert_eq!(net.macs_per_inference(), (6 * 2 + 2) as u64);
    }
}
