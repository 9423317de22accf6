//! Long short-term memory layer.
//!
//! The paper's second NMR model analyses the time series of spectra with
//! an LSTM of 32 units over five timesteps (§III.B.2/3). With a
//! 1700-point spectrum per timestep, the layer holds
//! `4·32·(1700 + 32 + 1) = 221 824` parameters; a Dense(4) head adds 132
//! for the paper's exact total of 221 956.

use rand_chacha::ChaCha8Rng;

use crate::init::Init;
use crate::layers::{import_into, Layer, LayerSummary};
use crate::{Activation, NeuralError};

/// An LSTM over a fixed-length sequence, returning the last hidden state.
///
/// Input layout: `timesteps × features`, flattened time-major
/// (`input[t * features + d]`). Output: the final hidden state (`units`
/// values). Gate order in the stacked weight matrices is `[i, f, g, o]`.
#[derive(Debug, Clone)]
pub struct Lstm {
    features: usize,
    units: usize,
    timesteps: usize,
    /// Input weights `W`, shape `4*units × features`.
    w: Vec<f32>,
    /// Recurrent weights `U`, shape `4*units × units`.
    u: Vec<f32>,
    /// Bias, `4*units` (forget-gate slice initialized to 1.0).
    b: Vec<f32>,
    grad_w: Vec<f32>,
    grad_u: Vec<f32>,
    grad_b: Vec<f32>,
    // Forward caches, one entry per timestep.
    cached_input: Vec<f32>,
    cached_gates: Vec<f32>,  // post-nonlinearity gates, t * 4*units
    cached_cell: Vec<f32>,   // c_t, t * units
    cached_hidden: Vec<f32>, // h_t, t * units
    batch_cache: Vec<f32>,   // per row of the last batched forward: gates, cell, hidden
}

impl Lstm {
    /// Creates an LSTM layer.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::InvalidSpec`] if any dimension is zero.
    pub fn new(
        timesteps: usize,
        features: usize,
        units: usize,
        rng: &mut ChaCha8Rng,
    ) -> Result<Self, NeuralError> {
        if timesteps == 0 || features == 0 || units == 0 {
            return Err(NeuralError::InvalidSpec(format!(
                "lstm needs non-zero dims, got T={timesteps} D={features} H={units}"
            )));
        }
        let mut w = vec![0.0; 4 * units * features];
        let mut u = vec![0.0; 4 * units * units];
        Init::GlorotUniform.fill(&mut w, features, units, rng);
        Init::GlorotUniform.fill(&mut u, units, units, rng);
        let mut b = vec![0.0; 4 * units];
        // Standard trick: forget-gate bias = 1 so early training remembers.
        for v in b[units..2 * units].iter_mut() {
            *v = 1.0;
        }
        Ok(Self {
            features,
            units,
            timesteps,
            grad_w: vec![0.0; w.len()],
            grad_u: vec![0.0; u.len()],
            grad_b: vec![0.0; b.len()],
            w,
            u,
            b,
            cached_input: Vec::new(),
            cached_gates: Vec::new(),
            cached_cell: Vec::new(),
            cached_hidden: Vec::new(),
            batch_cache: Vec::new(),
        })
    }

    /// Number of hidden units.
    pub fn units(&self) -> usize {
        self.units
    }

    /// Number of timesteps the layer expects.
    pub fn timesteps(&self) -> usize {
        self.timesteps
    }

    fn sigmoid(x: f32) -> f32 {
        1.0 / (1.0 + (-x).exp())
    }
}

impl Layer for Lstm {
    fn kind(&self) -> &'static str {
        "LSTM"
    }

    fn input_len(&self) -> usize {
        self.timesteps * self.features
    }

    fn output_len(&self) -> usize {
        self.units
    }

    fn forward(&mut self, input: &[f32], _training: bool) -> Vec<f32> {
        assert_eq!(input.len(), self.input_len(), "lstm input length");
        let h = self.units;
        let d = self.features;
        let t_max = self.timesteps;
        self.cached_input = input.to_vec();
        self.cached_gates = vec![0.0; t_max * 4 * h];
        self.cached_cell = vec![0.0; t_max * h];
        self.cached_hidden = vec![0.0; t_max * h];

        let mut h_prev = vec![0.0f32; h];
        let mut c_prev = vec![0.0f32; h];
        for t in 0..t_max {
            let x_t = &input[t * d..(t + 1) * d];
            // z = W x + U h_prev + b, z has 4h entries.
            let mut z = self.b.clone();
            for (row, slot) in z.iter_mut().enumerate() {
                let wr = &self.w[row * d..(row + 1) * d];
                let mut acc = 0.0f32;
                for (wi, xi) in wr.iter().zip(x_t) {
                    acc += wi * xi;
                }
                let ur = &self.u[row * h..(row + 1) * h];
                for (ui, hi) in ur.iter().zip(&h_prev) {
                    acc += ui * hi;
                }
                *slot += acc;
            }
            // Gates: [i, f, g, o].
            let gates = &mut self.cached_gates[t * 4 * h..(t + 1) * 4 * h];
            for j in 0..h {
                let i_g = Self::sigmoid(z[j]);
                let f_g = Self::sigmoid(z[h + j]);
                let g_g = z[2 * h + j].tanh();
                let o_g = Self::sigmoid(z[3 * h + j]);
                gates[j] = i_g;
                gates[h + j] = f_g;
                gates[2 * h + j] = g_g;
                gates[3 * h + j] = o_g;
                let c = f_g * c_prev[j] + i_g * g_g;
                self.cached_cell[t * h + j] = c;
                self.cached_hidden[t * h + j] = o_g * c.tanh();
            }
            h_prev.copy_from_slice(&self.cached_hidden[t * h..(t + 1) * h]);
            c_prev.copy_from_slice(&self.cached_cell[t * h..(t + 1) * h]);
        }
        h_prev
    }

    fn backward(&mut self, grad_output: &[f32]) -> Vec<f32> {
        assert_eq!(grad_output.len(), self.units, "lstm grad length");
        assert!(
            !self.cached_input.is_empty(),
            "backward called before forward"
        );
        let h = self.units;
        let d = self.features;
        let t_max = self.timesteps;
        let mut grad_in = vec![0.0f32; self.input_len()];
        let mut dh = grad_output.to_vec();
        let mut dc = vec![0.0f32; h];
        let mut dz = vec![0.0f32; 4 * h];

        for t in (0..t_max).rev() {
            let gates = &self.cached_gates[t * 4 * h..(t + 1) * 4 * h];
            let c_t = &self.cached_cell[t * h..(t + 1) * h];
            let (h_prev, c_prev): (&[f32], &[f32]) = if t == 0 {
                (&[], &[])
            } else {
                (
                    &self.cached_hidden[(t - 1) * h..t * h],
                    &self.cached_cell[(t - 1) * h..t * h],
                )
            };
            for j in 0..h {
                let i_g = gates[j];
                let f_g = gates[h + j];
                let g_g = gates[2 * h + j];
                let o_g = gates[3 * h + j];
                let tanh_c = c_t[j].tanh();
                let do_g = dh[j] * tanh_c;
                let dct = dc[j] + dh[j] * o_g * (1.0 - tanh_c * tanh_c);
                let di = dct * g_g;
                let dg = dct * i_g;
                let cp = if t == 0 { 0.0 } else { c_prev[j] };
                let df = dct * cp;
                dz[j] = di * i_g * (1.0 - i_g);
                dz[h + j] = df * f_g * (1.0 - f_g);
                dz[2 * h + j] = dg * (1.0 - g_g * g_g);
                dz[3 * h + j] = do_g * o_g * (1.0 - o_g);
                dc[j] = dct * f_g;
            }
            // Accumulate parameter gradients and propagate to x_t, h_{t-1}.
            let x_t = &self.cached_input[t * d..(t + 1) * d];
            let mut dh_prev = vec![0.0f32; h];
            for (row, &g) in dz.iter().enumerate() {
                if g == 0.0 {
                    continue;
                }
                self.grad_b[row] += g;
                let gw = &mut self.grad_w[row * d..(row + 1) * d];
                let gx = &mut grad_in[t * d..(t + 1) * d];
                let wr_base = row * d;
                for k in 0..d {
                    gw[k] += g * x_t[k];
                    gx[k] += g * self.w[wr_base + k];
                }
                if t > 0 {
                    let gu = &mut self.grad_u[row * h..(row + 1) * h];
                    let ur_base = row * h;
                    for k in 0..h {
                        gu[k] += g * h_prev[k];
                        dh_prev[k] += g * self.u[ur_base + k];
                    }
                }
            }
            dh = dh_prev;
        }
        grad_in
    }

    /// Runs the scalar forward on each row and keeps every row's gate,
    /// cell and hidden states for [`Layer::restore_cache`], so the
    /// batched backward needs no second forward pass.
    fn forward_batch(&mut self, rows: usize, input: &[f32], output: &mut [f32], training: bool) {
        self.batch_cache.clear();
        let rows_in = input.chunks_exact(self.input_len()).take(rows);
        for (x, y) in rows_in.zip(output.chunks_exact_mut(self.units)) {
            y.copy_from_slice(&self.forward(x, training));
            self.batch_cache.extend_from_slice(&self.cached_gates);
            self.batch_cache.extend_from_slice(&self.cached_cell);
            self.batch_cache.extend_from_slice(&self.cached_hidden);
        }
    }

    fn restore_cache(&mut self, row: usize, input: &[f32], _output: &[f32]) -> bool {
        let states = self.timesteps * self.units;
        let per_row = 6 * states;
        let Some(saved) = self.batch_cache.get(row * per_row..(row + 1) * per_row) else {
            return false;
        };
        let (gates, rest) = saved.split_at(4 * states);
        let (cell, hidden) = rest.split_at(states);
        for (dst, src) in [
            (&mut self.cached_input, input),
            (&mut self.cached_gates, gates),
            (&mut self.cached_cell, cell),
            (&mut self.cached_hidden, hidden),
        ] {
            dst.clear();
            dst.extend_from_slice(src);
        }
        true
    }

    fn param_count(&self) -> usize {
        self.w.len() + self.u.len() + self.b.len()
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        visitor(&mut self.w, &mut self.grad_w);
        visitor(&mut self.u, &mut self.grad_u);
        visitor(&mut self.b, &mut self.grad_b);
    }

    fn zero_grads(&mut self) {
        self.grad_w.iter_mut().for_each(|g| *g = 0.0);
        self.grad_u.iter_mut().for_each(|g| *g = 0.0);
        self.grad_b.iter_mut().for_each(|g| *g = 0.0);
    }

    fn summary(&self) -> LayerSummary {
        LayerSummary {
            kind: "LSTM".into(),
            output_shape: format!("{}", self.units),
            config: format!(
                "units={} timesteps={} features={}",
                self.units, self.timesteps, self.features
            ),
            activation: Activation::Tanh.short_name().into(),
            parameters: self.param_count(),
        }
    }

    fn export_params(&self) -> Vec<Vec<f32>> {
        vec![self.w.clone(), self.u.clone(), self.b.clone()]
    }

    fn import_params(&mut self, params: &[Vec<f32>]) -> Result<(), NeuralError> {
        let Self { w, u, b, .. } = self;
        import_into("LSTM", &mut [w, u, b], params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(23)
    }

    #[test]
    fn paper_parameter_count_is_exact() {
        let layer = Lstm::new(5, 1700, 32, &mut rng()).unwrap();
        assert_eq!(layer.param_count(), 221_824);
        // Plus Dense(32 -> 4): 132 => 221 956 (paper §III.B.3).
        assert_eq!(layer.param_count() + 32 * 4 + 4, 221_956);
    }

    #[test]
    fn output_is_units_long() {
        let mut layer = Lstm::new(3, 4, 5, &mut rng()).unwrap();
        let out = layer.forward(&[0.1; 12], false);
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn hidden_state_is_bounded() {
        // h = o * tanh(c): |h| <= 1.
        let mut layer = Lstm::new(10, 3, 4, &mut rng()).unwrap();
        let input: Vec<f32> = (0..30).map(|i| (i as f32 * 1.3).sin() * 10.0).collect();
        let out = layer.forward(&input, false);
        assert!(out.iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn constant_input_converges_towards_fixed_point() {
        let mut short = Lstm::new(2, 2, 3, &mut rng()).unwrap();
        let mut long = Lstm::new(40, 2, 3, &mut rng()).unwrap();
        long.import_params(&short.export_params()).unwrap();
        let x2: Vec<f32> = [0.5, -0.5].repeat(2);
        let x40: Vec<f32> = [0.5, -0.5].repeat(40);
        let out_short = short.forward(&x2, false);
        let out_long_a = long.forward(&x40, false);
        // Running even longer barely changes the state.
        let mut longer = Lstm::new(41, 2, 3, &mut rng()).unwrap();
        longer.import_params(&short.export_params()).unwrap();
        let x41: Vec<f32> = [0.5, -0.5].repeat(41);
        let out_long_b = longer.forward(&x41, false);
        let drift: f32 = out_long_a
            .iter()
            .zip(&out_long_b)
            .map(|(a, b)| (a - b).abs())
            .sum();
        let initial_motion: f32 = out_short
            .iter()
            .zip(&out_long_a)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(drift < 0.05 * (initial_motion + 0.1), "drift {drift}");
    }

    #[test]
    fn backward_matches_numeric_input_gradients() {
        let mut layer = Lstm::new(4, 3, 3, &mut rng()).unwrap();
        let input: Vec<f32> = (0..12).map(|i| ((i as f32) * 0.7).sin()).collect();
        let upstream = [0.5f32, -1.0, 1.5];
        layer.forward(&input, true);
        layer.zero_grads();
        let grad_in = layer.backward(&upstream);

        let loss = |l: &mut Lstm, x: &[f32]| -> f32 {
            l.forward(x, false)
                .iter()
                .zip(&upstream)
                .map(|(y, u)| y * u)
                .sum()
        };
        let eps = 1e-3;
        for i in 0..input.len() {
            let mut hi = input.clone();
            hi[i] += eps;
            let mut lo = input.clone();
            lo[i] -= eps;
            let num = (loss(&mut layer, &hi) - loss(&mut layer, &lo)) / (2.0 * eps);
            assert!(
                (grad_in[i] - num).abs() < 1e-2,
                "input grad {i}: analytic {} numeric {num}",
                grad_in[i]
            );
        }
    }

    #[test]
    fn backward_matches_numeric_weight_gradients() {
        let mut layer = Lstm::new(3, 2, 2, &mut rng()).unwrap();
        let input: Vec<f32> = (0..6).map(|i| 0.3 * i as f32 - 0.8).collect();
        let upstream = [1.0f32, -0.5];
        layer.forward(&input, true);
        layer.zero_grads();
        layer.backward(&upstream);
        let mut analytic = Vec::new();
        layer.visit_params(&mut |_p, g| analytic.push(g.to_vec()));

        let loss = |l: &mut Lstm, x: &[f32]| -> f32 {
            l.forward(x, false)
                .iter()
                .zip(&upstream)
                .map(|(y, u)| y * u)
                .sum()
        };
        let eps = 1e-3;
        let mut exported = layer.export_params();
        // Check a spread of W, U and b entries.
        for (tensor, idx) in [(0usize, 0usize), (0, 7), (1, 3), (2, 1), (2, 5)] {
            let orig = exported[tensor][idx];
            exported[tensor][idx] = orig + eps;
            layer.import_params(&exported).unwrap();
            let f_hi = loss(&mut layer, &input);
            exported[tensor][idx] = orig - eps;
            layer.import_params(&exported).unwrap();
            let f_lo = loss(&mut layer, &input);
            exported[tensor][idx] = orig;
            layer.import_params(&exported).unwrap();
            let num = (f_hi - f_lo) / (2.0 * eps);
            assert!(
                (analytic[tensor][idx] - num).abs() < 1e-2,
                "tensor {tensor} idx {idx}: analytic {} numeric {num}",
                analytic[tensor][idx]
            );
        }
    }

    #[test]
    fn order_of_timesteps_matters() {
        let mut layer = Lstm::new(3, 2, 4, &mut rng()).unwrap();
        let fwd = layer.forward(&[1.0, 0.0, 0.0, 1.0, -1.0, 0.5], false);
        let rev = layer.forward(&[-1.0, 0.5, 0.0, 1.0, 1.0, 0.0], false);
        let diff: f32 = fwd.iter().zip(&rev).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-4, "LSTM ignored sequence order");
    }

    #[test]
    fn rejects_zero_dims() {
        assert!(Lstm::new(0, 3, 3, &mut rng()).is_err());
        assert!(Lstm::new(3, 0, 3, &mut rng()).is_err());
        assert!(Lstm::new(3, 3, 0, &mut rng()).is_err());
    }
}
