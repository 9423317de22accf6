//! Network layers.
//!
//! Every layer works on flat `f32` slices; the shape semantics (channels
//! × length for convolutional layers, timesteps × features for the LSTM)
//! are documented per layer. Each layer has two paths:
//!
//! * the scalar one-sample [`Layer::forward`]/[`Layer::backward`], which
//!   serves [`crate::Network::predict`] and is the differential oracle;
//! * the batched [`Layer::forward_batch`]/[`Layer::backward_batch`] over
//!   a contiguous `[rows][width]` mini-batch, which training and
//!   validation run. [`Dense`] and [`Conv1d`] implement it on the
//!   `crate::kernels` GEMM and conv kernels; every other layer falls back
//!   to its scalar methods, one row at a time, through the trait's
//!   default implementation.
//!
//! Gradients accumulate across the samples of a batch until the
//! trainer's optimizer step.

mod conv1d;
mod dense;
mod dropout;
mod highway;
mod local1d;
mod lstm;
mod pool;
mod shape;

pub use conv1d::Conv1d;
pub use dense::Dense;
pub use dropout::Dropout;
pub use highway::{Highway, ResidualDense};
pub use local1d::LocallyConnected1d;
pub use lstm::Lstm;
pub use pool::{AvgPool1d, MaxPool1d};
pub use shape::{Flatten, Reshape};

use serde::{Deserialize, Serialize};

use crate::NeuralError;

/// One row of a network summary (the shape of the paper's Table 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerSummary {
    /// Layer kind, e.g. `"Conv1D"`.
    pub kind: String,
    /// Human-readable output shape, e.g. `"25 x 120"`.
    pub output_shape: String,
    /// Configuration detail, e.g. `"filters=25 kernel=20 stride=3"`.
    pub config: String,
    /// Activation short name (empty for shape-only layers).
    pub activation: String,
    /// Number of trainable parameters.
    pub parameters: usize,
}

/// A neural-network layer: single-sample forward/backward with internal
/// caching, a batched forward/backward for training, and gradient
/// accumulation.
///
/// Contract:
/// * `forward` caches whatever `backward` needs; calling `backward`
///   without a preceding `forward` is a programming error and may panic;
/// * `backward` *accumulates* into the parameter gradients (the trainer
///   zeroes them per batch via [`Layer::zero_grads`]) and returns the
///   gradient w.r.t. the layer input;
/// * `visit_params` exposes `(params, grads)` tensor pairs in a stable
///   order for the optimizer.
pub trait Layer: std::fmt::Debug + Send {
    /// Static layer kind name, e.g. `"Dense"`.
    fn kind(&self) -> &'static str;

    /// Expected input length (flattened).
    fn input_len(&self) -> usize;

    /// Produced output length (flattened).
    fn output_len(&self) -> usize;

    /// Computes the layer output for one sample. `training` enables
    /// train-only behaviour (dropout).
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.input_len()`.
    fn forward(&mut self, input: &[f32], training: bool) -> Vec<f32>;

    /// Back-propagates `grad_output` (w.r.t. this layer's output) through
    /// the most recent `forward`, accumulating parameter gradients, and
    /// returns the gradient w.r.t. the input.
    ///
    /// # Panics
    ///
    /// Panics if `grad_output.len() != self.output_len()` or no forward
    /// pass has been run.
    fn backward(&mut self, grad_output: &[f32]) -> Vec<f32>;

    /// Forward pass over a mini-batch: `input` is `[rows][input_len]`
    /// and `output` receives `[rows][output_len]`. The network keeps
    /// both buffers for [`Layer::backward_batch`], so a batched layer
    /// caches nothing itself. Row `r` of the output depends on row `r`
    /// of the input only, bit for bit, whatever `rows` is (a training
    /// dropout layer draws its masks in row order).
    ///
    /// The default runs the scalar [`Layer::forward`] on each row in
    /// order, so a layer's RNG stream advances as in scalar training.
    fn forward_batch(&mut self, rows: usize, input: &[f32], output: &mut [f32], training: bool) {
        let (n_in, n_out) = (self.input_len(), self.output_len());
        let rows_in = input.chunks_exact(n_in).take(rows);
        for (x, y) in rows_in.zip(output.chunks_exact_mut(n_out)) {
            y.copy_from_slice(&self.forward(x, training));
        }
    }

    /// Backward pass through the most recent [`Layer::forward_batch`]:
    /// `input` and `output` are that call's buffers, `grad_output` is
    /// the gradient w.r.t. `output` (the layer may overwrite it), and
    /// `grad_input`, when given, receives the `[rows][input_len]`
    /// gradient w.r.t. `input`. Parameter gradients accumulate, as in
    /// [`Layer::backward`].
    ///
    /// The default runs the scalar [`Layer::backward`] on each row,
    /// after [`Layer::restore_cache`] has put back that row's cache —
    /// or, for a layer that cannot restore it, after re-running the
    /// scalar forward on the row.
    fn backward_batch(
        &mut self,
        rows: usize,
        input: &[f32],
        output: &[f32],
        grad_output: &mut [f32],
        mut grad_input: Option<&mut [f32]>,
    ) {
        let (n_in, n_out) = (self.input_len(), self.output_len());
        for r in 0..rows {
            let x = &input[r * n_in..][..n_in];
            if !self.restore_cache(r, x, &output[r * n_out..][..n_out]) {
                self.forward(x, true);
            }
            let g = self.backward(&grad_output[r * n_out..][..n_out]);
            if let Some(gi) = grad_input.as_deref_mut() {
                gi[r * n_in..][..n_in].copy_from_slice(&g);
            }
        }
    }

    /// Restores the cache the scalar [`Layer::forward`] left for row
    /// `row` of the last [`Layer::forward_batch`], given that row's
    /// `input` and `output`, for the default [`Layer::backward_batch`].
    /// Returns `false` (the default) when the layer cannot, so the row
    /// must be recomputed.
    fn restore_cache(&mut self, _row: usize, _input: &[f32], _output: &[f32]) -> bool {
        false
    }

    /// Number of trainable parameters.
    fn param_count(&self) -> usize {
        0
    }

    /// Visits `(params, grads)` tensor pairs in a stable order.
    fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut [f32], &mut [f32])) {}

    /// Zeroes all accumulated gradients.
    fn zero_grads(&mut self) {}

    /// A summary row for [`crate::Network::summary`].
    fn summary(&self) -> LayerSummary;

    /// Exports parameter tensors (same order as `visit_params`).
    fn export_params(&self) -> Vec<Vec<f32>> {
        Vec::new()
    }

    /// Imports parameter tensors previously produced by `export_params`.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::InvalidWeights`] if tensor count or sizes
    /// do not match.
    fn import_params(&mut self, params: &[Vec<f32>]) -> Result<(), NeuralError> {
        if params.is_empty() {
            Ok(())
        } else {
            Err(NeuralError::InvalidWeights(format!(
                "layer {} has no parameters but {} tensors were provided",
                self.kind(),
                params.len()
            )))
        }
    }
}

/// Helper: import `src` tensors into `dst` slices, validating sizes.
pub(crate) fn import_into(
    kind: &str,
    dst: &mut [&mut Vec<f32>],
    src: &[Vec<f32>],
) -> Result<(), NeuralError> {
    if dst.len() != src.len() {
        return Err(NeuralError::InvalidWeights(format!(
            "layer {kind}: expected {} tensors, got {}",
            dst.len(),
            src.len()
        )));
    }
    for (d, s) in dst.iter_mut().zip(src) {
        if d.len() != s.len() {
            return Err(NeuralError::InvalidWeights(format!(
                "layer {kind}: tensor size {} does not match {}",
                s.len(),
                d.len()
            )));
        }
        d.copy_from_slice(s);
    }
    Ok(())
}

/// Output length of a valid (no padding) 1-D convolution.
///
/// # Errors
///
/// Returns [`NeuralError::InvalidSpec`] if the kernel exceeds the input
/// length, or kernel/stride are zero.
pub fn conv_output_len(input_len: usize, kernel: usize, stride: usize) -> Result<usize, NeuralError> {
    if kernel == 0 || stride == 0 {
        return Err(NeuralError::InvalidSpec(format!(
            "kernel ({kernel}) and stride ({stride}) must be non-zero"
        )));
    }
    if kernel > input_len {
        return Err(NeuralError::InvalidSpec(format!(
            "kernel {kernel} exceeds input length {input_len}"
        )));
    }
    Ok((input_len - kernel) / stride + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_output_len_matches_paper_table1() {
        // Paper Table 1 stack on a 397-point input:
        let l1 = conv_output_len(397, 20, 1).unwrap();
        assert_eq!(l1, 378);
        let l2 = conv_output_len(l1, 20, 3).unwrap();
        assert_eq!(l2, 120);
        let l3 = conv_output_len(l2, 15, 2).unwrap();
        assert_eq!(l3, 53);
        let l4 = conv_output_len(l3, 15, 4).unwrap();
        assert_eq!(l4, 10);
    }

    #[test]
    fn conv_output_len_rejects_bad_params() {
        assert!(conv_output_len(10, 0, 1).is_err());
        assert!(conv_output_len(10, 3, 0).is_err());
        assert!(conv_output_len(10, 11, 1).is_err());
    }

    #[test]
    fn locally_connected_output_matches_design() {
        // DESIGN.md §5: 1700-point input, kernel 9, stride 9 -> 188.
        assert_eq!(conv_output_len(1700, 9, 9).unwrap(), 188);
    }
}
