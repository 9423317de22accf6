//! Batched convolution and locally-connected kernels.
//!
//! `Conv1d` is computed *directly* (no im2col materialization) with a
//! register-tiled microkernel. Strided convs first deinterleave each
//! input channel by residue mod `stride`, which turns every tap's walk
//! across output positions into a contiguous run; stride-1 convs
//! already have that property in the raw channel. Each [`PANEL`]-wide
//! tile of output positions then runs a 4×[`PANEL`] register microkernel
//! per block of four filters, streaming the tile's tap runs straight out
//! of the (de-interleaved) source. Taps are grouped by residue row so
//! the inner loop walks each run sequentially, the accumulator tile is a
//! plain local (never borrowed across a call boundary, so it stays in
//! registers), and each output element is computed in registers and
//! stored exactly once into the channels-first `[filters][out_len]`
//! destination. A ragged final tile is handled by *overlapping*: the
//! last tile starts at `out_len - PANEL`, recomputing a few positions —
//! stores are overwrites, so overlap is free and the hot loop stays
//! fixed-width. Layers narrower than a panel (`out_len < PANEL`) stage
//! each run through a zero-padded stack buffer instead. Channelwise
//! softmax — whose groups run *across* filters at each position — is
//! finished with a strided per-position pass.
//!
//! `LocallyConnected1d` has unshared weights per output position, so it
//! runs one small GEMM per position over all batch rows instead
//! (gathering the same window from every sample), writing into a
//! position-major block via the strided-output GEMM and transposing
//! back.

use super::{act, gemm};
use crate::Activation;

/// Output-position tile width of the conv microkernel (two 256-bit
/// lanes).
pub(crate) const PANEL: usize = 16;

/// Reorders each filter row of a `[filters][in_channels * kernel]`
/// conv weight matrix from tap order (`ic`, then `dk`) into *residue
/// sweep order* (`ic`, then `dk % stride`, then `dk / stride`) — the
/// exact order [`conv_tile`] visits taps. The microkernel then reads
/// each filter row strictly sequentially, so its per-residue weight
/// slices hoist every bounds check out of the FMA loop. For stride 1
/// the permutation is the identity.
pub(crate) fn permute_sweep_order(
    filters: usize,
    in_channels: usize,
    kernel: usize,
    stride: usize,
    w: &[f32],
) -> Vec<f32> {
    let k_len = in_channels * kernel;
    debug_assert_eq!(w.len(), filters * k_len);
    if stride <= 1 {
        return w.to_vec();
    }
    let mut out = Vec::with_capacity(w.len());
    for f in 0..filters {
        let row = &w[f * k_len..][..k_len];
        for ic in 0..in_channels {
            for rr in 0..stride.min(kernel) {
                let mut dk = rr;
                while dk < kernel {
                    out.push(row[ic * kernel + dk]);
                    dk += stride;
                }
            }
        }
    }
    out
}

/// Length of the `col` scratch [`conv1d`] needs for one layer: the
/// residue-deinterleave region (strided convs only), plus a zero-padded
/// `[k_len][PANEL]` pack panel for layers narrower than a tile, and at
/// least `filters`, because the channelwise-softmax finish reuses `col`
/// as its per-position gather buffer.
pub(crate) fn conv1d_col_len(
    in_channels: usize,
    in_len: usize,
    filters: usize,
    kernel: usize,
    stride: usize,
    out_len: usize,
) -> usize {
    let deint = if stride > 1 {
        in_channels * stride * in_len.div_ceil(stride)
    } else {
        0
    };
    let panel = if out_len < PANEL {
        in_channels * kernel * PANEL
    } else {
        0
    };
    (deint + panel).max(filters)
}

/// Computes one `M`-filter × [`PANEL`]-position output tile at `j0`,
/// streaming tap runs directly from the sample (stride 1) or the
/// residue-deinterleaved buffer. `M` is a compile-time filter-block
/// height; the `M × PANEL` accumulator is local to this function, so it
/// lives in registers for the whole tap sweep (at `M = 4` that is
/// twelve 256-bit accumulators — the practical register budget).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn conv_tile<const M: usize>(
    sample: &[f32],
    deint: &[f32],
    in_channels: usize,
    in_len: usize,
    kernel: usize,
    stride: usize,
    dlen: usize,
    j0: usize,
    k_len: usize,
    w: &[f32],
    bias: &[f32],
    f: usize,
    y: &mut [f32],
    out_len: usize,
) {
    let mut acc = [[0.0f32; PANEL]; M];
    for (m, am) in acc.iter_mut().enumerate() {
        *am = [bias.get(f + m).copied().unwrap_or(0.0); PANEL];
    }
    const EMPTY: &[f32] = &[];
    let mut wrows = [EMPTY; M];
    for (m, wr) in wrows.iter_mut().enumerate() {
        let Some(row) = w.get((f + m) * k_len..).and_then(|s| s.get(..k_len)) else {
            return;
        };
        *wr = row;
    }
    // `w` is in residue sweep order (see [`permute_sweep_order`]), so
    // `k2` advances contiguously through every filter row.
    let mut k2 = 0usize;
    for ic in 0..in_channels {
        for rr in 0..stride.min(kernel) {
            let start = if stride == 1 {
                ic * in_len + j0
            } else {
                (ic * stride + rr) * dlen + j0
            };
            let hay = if stride == 1 { sample } else { deint };
            let Some(row) = hay.get(start..) else { return };
            let taps = (kernel - rr).div_ceil(stride);
            let mut ws = [EMPTY; M];
            for (m, s) in ws.iter_mut().enumerate() {
                let Some(wslice) = wrows[m].get(k2..).and_then(|v| v.get(..taps)) else {
                    return;
                };
                *s = wslice;
            }
            for (t, win) in row.windows(PANEL).take(taps).enumerate() {
                let Ok(pv) = <&[f32; PANEL]>::try_from(win) else {
                    return;
                };
                let mut xs = [0.0f32; M];
                for (m, xv) in xs.iter_mut().enumerate() {
                    *xv = ws[m].get(t).copied().unwrap_or(0.0);
                }
                for (am, &xv) in acc.iter_mut().zip(&xs) {
                    for (a, &p) in am.iter_mut().zip(pv) {
                        *a = xv.mul_add(p, *a);
                    }
                }
            }
            k2 += taps;
        }
    }
    for (m, am) in acc.iter().enumerate() {
        let base = (f + m) * out_len + j0;
        let Some(out) = y.get_mut(base..).and_then(|s| s.get_mut(..PANEL)) else {
            return;
        };
        for (o, &a) in out.iter_mut().zip(am) {
            *o = a;
        }
    }
}

/// Narrow-layer counterpart of [`conv_tile`]: sweeps an `M`-filter
/// block over a pre-packed zero-padded `[k_len][PANEL]` panel (packed
/// once per sample, shared by every filter block) and stores the first
/// `nb < PANEL` lanes of each accumulator row.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn packed_tile<const M: usize>(
    panel: &[f32],
    k_len: usize,
    w: &[f32],
    bias: &[f32],
    f: usize,
    y: &mut [f32],
    out_len: usize,
    nb: usize,
) {
    let mut acc = [[0.0f32; PANEL]; M];
    for (m, am) in acc.iter_mut().enumerate() {
        *am = [bias.get(f + m).copied().unwrap_or(0.0); PANEL];
    }
    const EMPTY: &[f32] = &[];
    let mut wrows = [EMPTY; M];
    for (m, wr) in wrows.iter_mut().enumerate() {
        let Some(row) = w.get((f + m) * k_len..).and_then(|s| s.get(..k_len)) else {
            return;
        };
        *wr = row;
    }
    let Some(live) = panel.get(..k_len * PANEL) else {
        return;
    };
    for (k, pk) in live.chunks_exact(PANEL).enumerate() {
        let Ok(pv) = <&[f32; PANEL]>::try_from(pk) else {
            return;
        };
        let mut xs = [0.0f32; M];
        for (m, xv) in xs.iter_mut().enumerate() {
            *xv = wrows[m].get(k).copied().unwrap_or(0.0);
        }
        for (am, &xv) in acc.iter_mut().zip(&xs) {
            for (a, &p) in am.iter_mut().zip(pv) {
                *a = xv.mul_add(p, *a);
            }
        }
    }
    for (m, am) in acc.iter().enumerate() {
        let Some(out) = y.get_mut((f + m) * out_len..).and_then(|s| s.get_mut(..nb)) else {
            return;
        };
        for (o, &a) in out.iter_mut().zip(am) {
            *o = a;
        }
    }
}

/// Batched strided 1-D convolution, channels-first in/out. `w` is the
/// row-major `[filters][in_channels * kernel]` weight matrix with rows
/// permuted into residue sweep order (see [`permute_sweep_order`]).
#[allow(clippy::too_many_arguments)]
#[inline(never)] // codegen-audit anchor: keep a standalone symbol (lint.toml [codegen])
pub(crate) fn conv1d(
    batch: usize,
    in_channels: usize,
    in_len: usize,
    filters: usize,
    kernel: usize,
    stride: usize,
    out_len: usize,
    activation: Activation,
    w: &[f32],
    bias: &[f32],
    src: &[f32],
    dst: &mut [f32],
    col: &mut [f32],
) {
    // lint: hot
    debug_assert!(w.len() == filters * in_channels * kernel && bias.len() == filters);
    debug_assert!(stride >= 1);
    // A provably nonzero stride removes every division-by-zero panic
    // edge below (the layer constructors never build a zero stride).
    let stride = stride.max(1);
    let k_len = in_channels * kernel;
    let per_sample_out = filters * out_len;
    // Deinterleaved channel pitch: residue row `rr` of a channel holds
    // source elements `rr, rr+stride, rr+2·stride, …`, so tap `dk` of
    // any window is the *contiguous* run starting at `dk / stride` in
    // residue row `dk % stride`. Grouping taps by residue row means the
    // inner tap loop slides along one run (`t`, `t+1`, …) with the
    // weight index advancing by `stride`.
    let dlen = in_len.div_ceil(stride);
    let deint_len = if stride > 1 { in_channels * stride * dlen } else { 0 };
    for b in 0..batch {
        let sample_len = in_channels * in_len;
        let Some(sample) = src.get(b * sample_len..).and_then(|s| s.get(..sample_len)) else {
            return;
        };
        if stride > 1 {
            let Some(deint) = col.get_mut(..deint_len) else {
                return;
            };
            for ic in 0..in_channels {
                let Some(src_c) = sample.get(ic * in_len..).and_then(|s| s.get(..in_len)) else {
                    return;
                };
                let Some(dch) = deint
                    .get_mut(ic * stride * dlen..)
                    .and_then(|s| s.get_mut(..stride * dlen))
                else {
                    return;
                };
                if dlen == 0 {
                    continue; // guards the chunks_exact_mut panic edge
                }
                // Residue row `rr` is the strided gather
                // `src_c[rr], src_c[rr + stride], …`; the guarded gets
                // bound both sides, so no per-element panic edges remain.
                for (rr, drow) in dch.chunks_exact_mut(dlen).enumerate() {
                    for (q, d) in drow.iter_mut().enumerate() {
                        if let Some(&v) = src_c.get(q * stride + rr) {
                            *d = v;
                        }
                    }
                }
            }
        }
        let Some(y) = dst
            .get_mut(b * per_sample_out..)
            .and_then(|s| s.get_mut(..per_sample_out))
        else {
            return;
        };
        if out_len >= PANEL {
            let Some(deint) = col.get(..deint_len) else {
                return;
            };
            let mut j0 = 0usize;
            loop {
                let mut f = 0usize;
                while f + 4 <= filters {
                    conv_tile::<4>(
                        sample, deint, in_channels, in_len, kernel, stride, dlen, j0, k_len,
                        w, bias, f, y, out_len,
                    );
                    f += 4;
                }
                while f + 2 <= filters {
                    conv_tile::<2>(
                        sample, deint, in_channels, in_len, kernel, stride, dlen, j0, k_len,
                        w, bias, f, y, out_len,
                    );
                    f += 2;
                }
                while f < filters {
                    conv_tile::<1>(
                        sample, deint, in_channels, in_len, kernel, stride, dlen, j0, k_len,
                        w, bias, f, y, out_len,
                    );
                    f += 1;
                }
                if j0 + PANEL >= out_len {
                    break;
                }
                // Overlap the ragged final tile back onto the last full
                // panel boundary; recomputed positions are simply
                // overwritten with identical values.
                j0 = (j0 + PANEL).min(out_len - PANEL);
            }
        } else {
            // Narrow layer (out_len < PANEL): pack every tap's short
            // run into a zero-padded `[k_len][PANEL]` panel once, then
            // let all filter blocks sweep the shared panel.
            let nb = out_len;
            let Some((deint, rest)) = col.split_at_mut_checked(deint_len) else {
                return;
            };
            let Some(panel) = rest.get_mut(..k_len * PANEL) else {
                return;
            };
            let mut k2 = 0usize;
            for ic in 0..in_channels {
                for rr in 0..stride.min(kernel) {
                    let start = if stride == 1 {
                        ic * in_len
                    } else {
                        (ic * stride + rr) * dlen
                    };
                    let hay: &[f32] = if stride == 1 { sample } else { deint };
                    let Some(row) = hay.get(start..) else { return };
                    let taps = (kernel - rr).div_ceil(stride);
                    // Panel rows follow the same residue sweep order as
                    // the permuted weight rows, so `packed_tile` walks
                    // both sequentially.
                    for t in 0..taps {
                        let Some(pk) = panel
                            .get_mut(k2 * PANEL..)
                            .and_then(|s| s.get_mut(..PANEL))
                        else {
                            return;
                        };
                        let Some(run) = row.get(t..).and_then(|s| s.get(..nb)) else {
                            return;
                        };
                        let Some((head, tail)) = pk.split_at_mut_checked(nb) else {
                            return;
                        };
                        for (d, &s) in head.iter_mut().zip(run) {
                            *d = s;
                        }
                        tail.fill(0.0);
                        k2 += 1;
                    }
                }
            }
            let panel = &panel[..];
            let mut f = 0usize;
            while f + 4 <= filters {
                packed_tile::<4>(panel, k_len, w, bias, f, y, out_len, nb);
                f += 4;
            }
            while f + 2 <= filters {
                packed_tile::<2>(panel, k_len, w, bias, f, y, out_len, nb);
                f += 2;
            }
            while f < filters {
                packed_tile::<1>(panel, k_len, w, bias, f, y, out_len, nb);
                f += 1;
            }
        }
    }
    if activation == Activation::Softmax {
        let Some(tmp) = col.get_mut(..filters) else {
            return;
        };
        softmax_channelwise(batch, filters, out_len, dst, tmp);
    } else {
        let Some(live) = dst.get_mut(..batch * per_sample_out) else {
            return;
        };
        act::apply_fast(activation, live, 1);
    }
}

/// Channelwise softmax on channels-first `[filters][out_len]` samples:
/// each output position's cross-filter vector is one softmax group,
/// gathered through `tmp` (length `filters`) because the group is
/// strided in this layout.
fn softmax_channelwise(
    batch: usize,
    filters: usize,
    out_len: usize,
    dst: &mut [f32],
    tmp: &mut [f32],
) {
    // lint: hot
    let per_sample = filters * out_len;
    for b in 0..batch {
        let d = &mut dst[b * per_sample..][..per_sample];
        for op in 0..out_len {
            for (f, t) in tmp.iter_mut().enumerate() {
                *t = d[f * out_len + op];
            }
            Activation::Softmax.apply(tmp, filters);
            for (f, &t) in tmp.iter().enumerate() {
                d[f * out_len + op] = t;
            }
        }
    }
}

/// Batched locally-connected 1-D layer (per-position unshared weights).
#[allow(clippy::too_many_arguments)]
#[inline(never)] // codegen-audit anchor: keep a standalone symbol (lint.toml [codegen])
pub(crate) fn local1d(
    batch: usize,
    in_channels: usize,
    in_len: usize,
    filters: usize,
    kernel: usize,
    stride: usize,
    out_len: usize,
    activation: Activation,
    wt: &[f32],
    bias: &[f32],
    src: &[f32],
    dst: &mut [f32],
    col: &mut [f32],
    aux: &mut [f32],
) {
    // lint: hot
    let k_len = in_channels * kernel;
    let posmajor_len = out_len * filters;
    for op in 0..out_len {
        let start = op * stride;
        for b in 0..batch {
            let sample_len = in_channels * in_len;
            let Some(sample) = src.get(b * sample_len..).and_then(|s| s.get(..sample_len))
            else {
                return;
            };
            let Some(row) = col.get_mut(b * k_len..).and_then(|s| s.get_mut(..k_len)) else {
                return;
            };
            for ic in 0..in_channels {
                let Some(window) = sample
                    .get(ic * in_len + start..)
                    .and_then(|s| s.get(..kernel))
                else {
                    return;
                };
                let Some(dest) = row.get_mut(ic * kernel..).and_then(|s| s.get_mut(..kernel))
                else {
                    return;
                };
                for (d, &s) in dest.iter_mut().zip(window) {
                    *d = s;
                }
            }
        }
        let Some(wt_op) = wt
            .get(op * k_len * filters..)
            .and_then(|s| s.get(..k_len * filters))
        else {
            return;
        };
        let Some(bias_op) = bias.get(op * filters..).and_then(|s| s.get(..filters)) else {
            return;
        };
        let Some(packed) = col.get(..batch * k_len) else {
            return;
        };
        gemm::gemm_bias(
            batch,
            k_len,
            filters,
            packed,
            k_len,
            wt_op,
            bias_op,
            aux,
            posmajor_len,
            op * filters,
        );
    }
    finish_channelwise(batch, filters, out_len, activation, aux, dst);
}

/// Applies the conv-style activation to a position-major
/// `[batch][out_pos][filters]` block (softmax groups are exactly the
/// per-position channel vectors) and transposes each sample back to the
/// channels-first `[filters][out_len]` layout of `dst`.
fn finish_channelwise(
    batch: usize,
    filters: usize,
    out_len: usize,
    activation: Activation,
    posmajor: &mut [f32],
    dst: &mut [f32],
) {
    // lint: hot
    if filters == 0 || out_len == 0 {
        return; // guards the chunks_exact nonzero-assert panic edges
    }
    // checked_mul lets LLVM prove the chunk size nonzero (a plain `*`
    // may wrap to 0 as far as the optimizer knows), which eliminates
    // the chunks_exact nonzero-assert panic edge.
    let Some(per_sample) = out_len.checked_mul(filters) else {
        return;
    };
    if per_sample == 0 {
        return;
    }
    let Some(live) = posmajor.get_mut(..batch * per_sample) else {
        return;
    };
    if activation == Activation::Softmax {
        activation.apply(live, filters);
    } else {
        act::apply_fast(activation, live, 1);
    }
    for (s, d) in live
        .chunks_exact(per_sample)
        .zip(dst.chunks_exact_mut(per_sample))
    {
        for (op, row) in s.chunks_exact(filters).enumerate() {
            // Transpose `[out_pos][filters]` back to `[filters][out_len]`
            // with a guarded strided store — no indexing panic edges.
            for (f, &v) in row.iter().enumerate() {
                if let Some(o) = d.get_mut(f * out_len + op) {
                    *o = v;
                }
            }
        }
    }
}
