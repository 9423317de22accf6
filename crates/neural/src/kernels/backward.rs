//! Batched training backward kernels for dense and conv layers.
//!
//! Both kernels take the gradient w.r.t. the layer's *pre-activation*
//! (`dZ`; the caller has already run the activation backward) and run
//! every product as a [`gemm`] call on transposed operands, so the
//! register-tiled GEMM that serves inference also computes the weight
//! and input gradients:
//!
//! * dense, over the whole batch: `dW += dZᵀ·X` and `dX = dZ·W`;
//! * conv1d, per sample: `dW += dZ·im2col(X)` and
//!   `dX = col2im(dZᵀ·W)`, which covers any stride.
//!
//! Weight gradients *accumulate* (the trainer zeroes them per batch);
//! input gradients are overwritten. An empty `dx` skips the input
//! gradient, which the first parameterised layer of a network never
//! needs.
//!
//! The GEMM body is inlined here ([`gemm::gemm_acc_inline`]) so each
//! kernel's symbol carries its own vector FMA loops for the codegen
//! audit. Like the forward kernels, both are panic-free (size-contract
//! violations bail out) and allocation-free: every intermediate lives
//! in caller-owned scratch.

use super::gemm;

/// Writes the transpose of the row-major `[rows][cols]` block `src`
/// into `dst` as `[cols][rows]`.
#[inline(always)]
fn transpose(rows: usize, cols: usize, src: &[f32], dst: &mut [f32]) {
    if cols == 0 {
        return;
    }
    for (r, row) in src.chunks_exact(cols).take(rows).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            if let Some(d) = dst.get_mut(c * rows + r) {
                *d = v;
            }
        }
    }
}

/// Dense-layer backward over a batch of `rows` samples.
///
/// * `x` is the layer input `[rows][input_len]`, `dz` the
///   pre-activation gradient `[rows][units]`, `w` the row-major
///   `[units][input_len]` weights;
/// * `dzt` is `[units][rows]` scratch for `dZᵀ`;
/// * `gw`/`gb` accumulate the weight and bias gradients;
/// * `dx` receives `[rows][input_len]`, or is empty to skip it.
#[allow(clippy::too_many_arguments)]
#[inline(never)] // codegen-audit anchor: keep a standalone symbol (lint.toml [codegen])
pub(crate) fn dense_backward(
    rows: usize,
    input_len: usize,
    units: usize,
    x: &[f32],
    dz: &[f32],
    w: &[f32],
    dzt: &mut [f32],
    gw: &mut [f32],
    gb: &mut [f32],
    dx: &mut [f32],
) {
    // lint: hot
    let (Some(x), Some(dz), Some(dzt)) = (
        x.get(..rows * input_len),
        dz.get(..rows * units),
        dzt.get_mut(..rows * units),
    ) else {
        return;
    };
    if units == 0 {
        return;
    }
    for row in dz.chunks_exact(units) {
        for (g, &d) in gb.iter_mut().zip(row) {
            *g += d;
        }
    }
    transpose(rows, units, dz, dzt);
    // dW[u][k] += Σ_r dZ[r][u] · X[r][k]: X is already `[k = r][n = k]`.
    gemm::gemm_acc_inline(units, rows, input_len, dzt, rows, x, gw, input_len, 0);
    if let Some(dx) = dx.get_mut(..rows * input_len) {
        dx.fill(0.0);
        // dX[r][k] = Σ_u dZ[r][u] · W[u][k]: W is already `[k = u][n = k]`.
        gemm::gemm_acc_inline(rows, units, input_len, dz, units, w, dx, input_len, 0);
    }
}

/// Conv1d backward over a batch, one sample at a time, channels-first
/// layout (`[in_channels][in_len]` in, `[filters][out_len]` out).
///
/// * `x` is the layer input `[batch][in_channels * in_len]`, `dz` the
///   pre-activation gradient `[batch][filters * out_len]`, `w` the
///   row-major `[filters][in_channels * kernel]` weights in tap order;
/// * `cols` is `[out_len][in_channels * kernel]` scratch (the im2col
///   block, then reused for `dZᵀ·W`) and `dzt` is `[out_len][filters]`
///   scratch;
/// * `gw`/`gb` accumulate the weight and bias gradients;
/// * `dx` receives `[batch][in_channels * in_len]`, or is empty to skip
///   it.
#[allow(clippy::too_many_arguments)]
#[inline(never)] // codegen-audit anchor: keep a standalone symbol (lint.toml [codegen])
pub(crate) fn conv1d_backward(
    batch: usize,
    in_channels: usize,
    in_len: usize,
    filters: usize,
    kernel: usize,
    stride: usize,
    out_len: usize,
    x: &[f32],
    dz: &[f32],
    w: &[f32],
    cols: &mut [f32],
    dzt: &mut [f32],
    gw: &mut [f32],
    gb: &mut [f32],
    dx: &mut [f32],
) {
    // lint: hot
    let k_len = in_channels * kernel;
    let sample_in = in_channels * in_len;
    let sample_out = filters * out_len;
    let need_dx = !dx.is_empty();
    let (Some(cols), Some(dzt)) = (
        cols.get_mut(..out_len * k_len),
        dzt.get_mut(..out_len * filters),
    ) else {
        return;
    };
    if out_len == 0 || k_len == 0 {
        return; // guards the chunks_exact nonzero-assert panic edges
    }
    for b in 0..batch {
        let (Some(xb), Some(dzb)) = (
            x.get(b * sample_in..).and_then(|s| s.get(..sample_in)),
            dz.get(b * sample_out..).and_then(|s| s.get(..sample_out)),
        ) else {
            return;
        };
        for (g, row) in gb.iter_mut().zip(dzb.chunks_exact(out_len)) {
            for &d in row {
                *g += d;
            }
        }
        // im2col: row `op` holds the receptive field of output position
        // `op`, channel-major like a weight row.
        for (op, crow) in cols.chunks_exact_mut(k_len).enumerate() {
            for ic in 0..in_channels {
                let start = ic * in_len + op * stride;
                let (Some(cseg), Some(win)) = (
                    crow.get_mut(ic * kernel..)
                        .and_then(|s| s.get_mut(..kernel)),
                    xb.get(start..).and_then(|s| s.get(..kernel)),
                ) else {
                    return;
                };
                for (d, &v) in cseg.iter_mut().zip(win) {
                    *d = v;
                }
            }
        }
        // dW[f][kk] += Σ_op dZ[f][op] · cols[op][kk].
        gemm::gemm_acc_inline(filters, out_len, k_len, dzb, out_len, cols, gw, k_len, 0);
        if !need_dx {
            continue;
        }
        let Some(dxb) = dx
            .get_mut(b * sample_in..)
            .and_then(|s| s.get_mut(..sample_in))
        else {
            return;
        };
        // dcols[op][kk] = Σ_f dZ[f][op] · W[f][kk], into the spent
        // im2col block; col2im then scatter-adds each row back onto the
        // input positions it was gathered from.
        transpose(filters, out_len, dzb, dzt);
        cols.fill(0.0);
        gemm::gemm_acc_inline(out_len, filters, k_len, dzt, filters, w, cols, k_len, 0);
        dxb.fill(0.0);
        for (op, crow) in cols.chunks_exact(k_len).enumerate() {
            for ic in 0..in_channels {
                let start = ic * in_len + op * stride;
                let (Some(cseg), Some(win)) = (
                    crow.get(ic * kernel..).and_then(|s| s.get(..kernel)),
                    dxb.get_mut(start..).and_then(|s| s.get_mut(..kernel)),
                ) else {
                    return;
                };
                for (d, &v) in win.iter_mut().zip(cseg) {
                    *d += v;
                }
            }
        }
    }
}
