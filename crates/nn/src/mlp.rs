use crate::{Dense, NnError, Relu, Result};
use ie_tensor::Tensor;
use rand::Rng;

/// Output activation applied by an [`Mlp`] after its final dense layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputActivation {
    /// No activation (linear output) — used by critics.
    #[default]
    Linear,
    /// Logistic sigmoid, squashing each output into `(0, 1)` — used by the
    /// compression agents whose actions are pruning rates / bitwidth fractions.
    Sigmoid,
    /// Hyperbolic tangent, squashing into `(-1, 1)`.
    Tanh,
}

/// A small multi-layer perceptron with ReLU hidden activations.
///
/// This is the function approximator behind the DDPG actor and critic in
/// `ie-rl`. It supports forward evaluation, backward propagation of an output
/// gradient, SGD updates and the soft ("Polyak") parameter blending DDPG uses
/// for its target networks.
///
/// # Example
///
/// ```
/// use ie_nn::{Mlp, OutputActivation};
/// use ie_tensor::Tensor;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mlp = Mlp::new(&mut rng, &[4, 8, 2], OutputActivation::Tanh);
/// let y = mlp.forward(&Tensor::zeros(&[4]))?;
/// assert_eq!(y.len(), 2);
/// # Ok::<(), ie_nn::NnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
    relu: Relu,
    output_activation: OutputActivation,
}

impl Mlp {
    /// Creates an MLP with the given layer sizes (`sizes[0]` inputs,
    /// `sizes.last()` outputs) and output activation.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, sizes: &[usize], output: OutputActivation) -> Self {
        assert!(sizes.len() >= 2, "an MLP needs at least an input and an output size");
        let layers = sizes.windows(2).map(|w| Dense::new(rng, w[0], w[1])).collect();
        Mlp { layers, relu: Relu::new(), output_activation: output }
    }

    /// Number of inputs.
    pub fn input_size(&self) -> usize {
        self.layers.first().map(Dense::in_features).unwrap_or(0)
    }

    /// Number of outputs.
    pub fn output_size(&self) -> usize {
        self.layers.last().map(Dense::out_features).unwrap_or(0)
    }

    /// Total number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(Dense::parameter_count).sum()
    }

    fn apply_output(&self, x: &Tensor) -> Tensor {
        match self.output_activation {
            OutputActivation::Linear => x.clone(),
            OutputActivation::Sigmoid => x.sigmoid(),
            OutputActivation::Tanh => x.tanh(),
        }
    }

    fn output_grad(&self, pre_activation: &Tensor, grad_out: &Tensor) -> Result<Tensor> {
        Ok(match self.output_activation {
            OutputActivation::Linear => grad_out.clone(),
            OutputActivation::Sigmoid => {
                let s = pre_activation.sigmoid();
                let ds = s.map(|v| v * (1.0 - v));
                ds.mul(grad_out)?
            }
            OutputActivation::Tanh => {
                let t = pre_activation.tanh();
                let dt = t.map(|v| 1.0 - v * v);
                dt.mul(grad_out)?
            }
        })
    }

    /// Forward pass.
    ///
    /// # Errors
    ///
    /// Returns a shape error when `input` does not match the first layer.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor> {
        let (out, _) = self.forward_cached(input)?;
        Ok(out)
    }

    /// Forward pass that also returns the cached layer inputs and the final
    /// pre-activation, as needed by [`Self::backward`].
    fn forward_cached(&self, input: &Tensor) -> Result<(Tensor, (Vec<Tensor>, Tensor))> {
        let mut x = input.clone();
        let mut caches = Vec::with_capacity(self.layers.len());
        for (i, layer) in self.layers.iter().enumerate() {
            caches.push(x.clone());
            x = layer.forward(&x)?;
            if i + 1 < self.layers.len() {
                x = self.relu.forward(&x)?;
            }
        }
        let pre = x.clone();
        Ok((self.apply_output(&x), (caches, pre)))
    }

    /// Backward pass: accumulates parameter gradients for `dL/d_output` and
    /// returns `dL/d_input`.
    ///
    /// # Errors
    ///
    /// Returns a shape error when `grad_output` does not match the output size.
    pub fn backward(&mut self, input: &Tensor, grad_output: &Tensor) -> Result<Tensor> {
        let (_, (caches, pre)) = self.forward_cached(input)?;
        let mut g = self.output_grad(&pre, grad_output)?;
        let n = self.layers.len();
        for i in (0..n).rev() {
            if i + 1 < n {
                // Gradient through the hidden ReLU: its input is the dense output,
                // which equals forward(cache) of that layer.
                let dense_out = self.layers[i].forward(&caches[i])?;
                g = self.relu.backward(&dense_out, &g)?;
            }
            g = self.layers[i].backward(&caches[i], &g)?;
        }
        Ok(g)
    }

    /// Allocation-free forward pass through `pass`, which keeps every
    /// layer's input and the final pre-activation for a following
    /// [`Self::backward_pass`] or [`Self::input_grad_pass`]. Returns the
    /// network output, bit-identical to [`Self::forward`].
    ///
    /// A pass built empty (`MlpPass::default()`) or for another shape is
    /// sized on the first call; once it fits, no call allocates.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShapeMismatch`] when `input` does not match
    /// the first layer.
    pub fn forward_pass<'p>(&self, input: &[f32], pass: &'p mut MlpPass) -> Result<&'p [f32]> {
        check_len("mlp(input)", self.input_size(), input.len())?;
        pass.fit(&self.layers);
        pass.acts[0].copy_from_slice(input);
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers[..last].iter().enumerate() {
            let (done, rest) = pass.acts.split_at_mut(i + 1);
            layer.forward_into(&done[i], &mut rest[0], true)?;
        }
        self.layers[last].forward_into(&pass.acts[last], &mut pass.pre, false)?;
        for (o, &p) in pass.out.iter_mut().zip(&pass.pre) {
            *o = match self.output_activation {
                OutputActivation::Linear => p,
                OutputActivation::Sigmoid => 1.0 / (1.0 + (-p).exp()),
                OutputActivation::Tanh => p.tanh(),
            };
        }
        Ok(&pass.out)
    }

    /// Allocation-free backward pass over the activations the last
    /// [`Self::forward_pass`] left in `pass`: accumulates parameter
    /// gradients for `dL/d_output` and, when `dx` is present, writes
    /// `dL/d_input` into it. Gradients and `dx` are bit-identical to
    /// [`Self::backward`] on the same input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShapeMismatch`] when `grad_output` or `dx`
    /// does not match the network, or `pass` does not hold a forward pass
    /// of it.
    pub fn backward_pass(
        &mut self,
        pass: &mut MlpPass,
        grad_output: &[f32],
        dx: Option<&mut [f32]>,
    ) -> Result<()> {
        self.check_backprop(pass, grad_output, dx.as_deref().map(<[f32]>::len))?;
        let layers = &mut self.layers;
        pass.backprop(self.output_activation, grad_output, dx, |i, input, g, dst| {
            layers[i].backward_accumulate_into(input, g, dst)
        });
        Ok(())
    }

    /// Input gradient only: writes `dL/d_input` for `dL/d_output` over the
    /// activations the last [`Self::forward_pass`] left in `pass`, without
    /// touching the parameter gradients. Bit-identical to the `dx` of
    /// [`Self::backward`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShapeMismatch`] under the same conditions as
    /// [`Self::backward_pass`].
    pub fn input_grad_pass(
        &self,
        pass: &mut MlpPass,
        grad_output: &[f32],
        dx: &mut [f32],
    ) -> Result<()> {
        self.check_backprop(pass, grad_output, Some(dx.len()))?;
        pass.backprop(self.output_activation, grad_output, Some(dx), |i, _, g, dst| {
            if let Some(dst) = dst {
                self.layers[i].input_grad_into(g, dst);
            }
        });
        Ok(())
    }

    fn check_backprop(&self, pass: &MlpPass, grad_output: &[f32], dx: Option<usize>) -> Result<()> {
        check_len("mlp(grad_output)", self.output_size(), grad_output.len())?;
        if let Some(len) = dx {
            check_len("mlp(dx)", self.input_size(), len)?;
        }
        if !pass.fits(&self.layers) {
            return Err(NnError::InputShapeMismatch {
                layer: "mlp(pass)".into(),
                expected: self.layers.iter().map(Dense::in_features).collect(),
                actual: pass.acts.iter().map(Vec::len).collect(),
            });
        }
        Ok(())
    }

    /// Applies accumulated gradients with learning rate `lr` and clears them.
    pub fn apply_gradients(&mut self, lr: f32) {
        for layer in &mut self.layers {
            layer.apply_gradients(lr);
        }
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Polyak soft update: `self ← τ·other + (1 − τ)·self`.
    ///
    /// Used to track DDPG target networks. Layer shapes must match.
    ///
    /// # Panics
    ///
    /// Panics if the two MLPs have different layer shapes.
    pub fn blend_from(&mut self, other: &Mlp, tau: f32) {
        assert_eq!(self.layers.len(), other.layers.len(), "MLP layer counts differ");
        for (mine, theirs) in self.layers.iter_mut().zip(&other.layers) {
            assert_eq!(mine.weight().dims(), theirs.weight().dims(), "MLP layer shapes differ");
            for (w, o) in
                mine.weight_mut().as_mut_slice().iter_mut().zip(theirs.weight().as_slice())
            {
                *w = tau * o + (1.0 - tau) * *w;
            }
            for (b, o) in mine.bias_mut().as_mut_slice().iter_mut().zip(theirs.bias().as_slice()) {
                *b = tau * o + (1.0 - tau) * *b;
            }
        }
    }

    /// Copies all parameters from `other` (equivalent to `blend_from` with τ = 1).
    pub fn copy_from(&mut self, other: &Mlp) {
        self.blend_from(other, 1.0);
    }

    /// The dense layers of the MLP (read-only).
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }
}

fn check_len(layer: &str, expected: usize, actual: usize) -> Result<()> {
    if expected == actual {
        return Ok(());
    }
    Err(NnError::InputShapeMismatch {
        layer: layer.into(),
        expected: vec![expected],
        actual: vec![actual],
    })
}

/// Reusable buffers of one [`Mlp`] shape for the allocation-free
/// [`Mlp::forward_pass`] / [`Mlp::backward_pass`] / [`Mlp::input_grad_pass`]
/// path.
///
/// The pass keeps each dense layer's input and the final layer's
/// pre-activation. A hidden layer's ReLU mask is read off the next layer's
/// input: that input is the ReLU output, and `relu(t) > 0` exactly when
/// `t > 0`, so the mask equals the one [`Mlp::backward`] takes from the
/// pre-activation. Two ping-pong gradient buffers, sized to the widest
/// layer, carry `dL/d·` down the network.
#[derive(Debug, Clone, Default)]
pub struct MlpPass {
    /// `acts[i]` is dense layer `i`'s input.
    acts: Vec<Vec<f32>>,
    /// The final dense layer's output before the output activation.
    pre: Vec<f32>,
    /// The network output.
    out: Vec<f32>,
    /// Ping-pong gradient buffers.
    grad: [Vec<f32>; 2],
}

impl MlpPass {
    fn fits(&self, layers: &[Dense]) -> bool {
        self.acts.len() == layers.len()
            && self.acts.iter().zip(layers).all(|(a, l)| a.len() == l.in_features())
            && layers.last().is_some_and(|l| self.pre.len() == l.out_features())
    }

    fn fit(&mut self, layers: &[Dense]) {
        if self.fits(layers) {
            return;
        }
        self.acts = layers.iter().map(|l| vec![0.0; l.in_features()]).collect();
        let outputs = layers.last().map_or(0, Dense::out_features);
        self.pre = vec![0.0; outputs];
        self.out = vec![0.0; outputs];
        let widest =
            layers.iter().map(|l| l.in_features().max(l.out_features())).max().unwrap_or(0);
        self.grad = [vec![0.0; widest], vec![0.0; widest]];
    }

    /// Walks `dL/d_output` down the network. `layer_step(i, input, g, dst)`
    /// receives layer `i`'s input and output gradient and, in `dst`, where
    /// to write its input gradient: the next ping-pong buffer, or the
    /// caller's `dx` for layer 0.
    fn backprop(
        &mut self,
        output: OutputActivation,
        grad_output: &[f32],
        mut dx: Option<&mut [f32]>,
        mut layer_step: impl FnMut(usize, &[f32], &[f32], Option<&mut [f32]>),
    ) {
        let MlpPass { acts, pre, out, grad: [g, spare] } = self;
        let (mut g, mut spare) = (g, spare);
        let mut width = pre.len();
        // Output activation derivative, in the same operation order as the
        // allocating `Mlp::output_grad`.
        for ((d, &y), &go) in g[..width].iter_mut().zip(out.iter()).zip(grad_output) {
            *d = match output {
                OutputActivation::Linear => go,
                OutputActivation::Sigmoid => y * (1.0 - y) * go,
                OutputActivation::Tanh => (1.0 - y * y) * go,
            };
        }
        for i in (0..acts.len()).rev() {
            if i + 1 < acts.len() {
                ie_tensor::relu_backward_into(&acts[i + 1], &g[..width], &mut spare[..width]);
                std::mem::swap(&mut g, &mut spare);
            }
            if i == 0 {
                layer_step(0, &acts[0], &g[..width], dx.take());
            } else {
                let in_width = acts[i].len();
                layer_step(i, &acts[i], &g[..width], Some(&mut spare[..in_width]));
                std::mem::swap(&mut g, &mut spare);
                width = in_width;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(5)
    }

    #[test]
    fn forward_respects_output_activation_ranges() {
        let mut r = rng();
        let x = Tensor::randn(&mut r, &[6], 0.0, 3.0);
        let sig = Mlp::new(&mut r, &[6, 12, 4], OutputActivation::Sigmoid);
        let tanh = Mlp::new(&mut r, &[6, 12, 4], OutputActivation::Tanh);
        let y_sig = sig.forward(&x).unwrap();
        let y_tanh = tanh.forward(&x).unwrap();
        assert!(y_sig.as_slice().iter().all(|v| (0.0..=1.0).contains(v)));
        assert!(y_tanh.as_slice().iter().all(|v| (-1.0..=1.0).contains(v)));
    }

    #[test]
    fn gradient_descent_fits_a_simple_target() {
        let mut r = rng();
        let mut mlp = Mlp::new(&mut r, &[2, 16, 1], OutputActivation::Linear);
        // Fit y = x0 + x1 on a few points.
        let data: Vec<(Tensor, f32)> = (0..20)
            .map(|i| {
                let a = (i % 5) as f32 / 5.0;
                let b = (i / 5) as f32 / 4.0;
                (Tensor::from_vec(vec![a, b], &[2]).unwrap(), a + b)
            })
            .collect();
        let loss_of = |m: &Mlp| -> f32 {
            data.iter()
                .map(|(x, y)| {
                    let p = m.forward(x).unwrap().as_slice()[0];
                    (p - y) * (p - y)
                })
                .sum::<f32>()
                / data.len() as f32
        };
        let initial = loss_of(&mlp);
        for _ in 0..300 {
            for (x, y) in &data {
                let p = mlp.forward(x).unwrap().as_slice()[0];
                let grad = Tensor::from_vec(vec![2.0 * (p - y)], &[1]).unwrap();
                mlp.backward(x, &grad).unwrap();
            }
            mlp.apply_gradients(0.01 / data.len() as f32);
        }
        let final_loss = loss_of(&mlp);
        assert!(final_loss < initial * 0.2, "MSE should drop: {initial} -> {final_loss}");
    }

    #[test]
    fn backward_gradient_matches_finite_differences() {
        let mut r = rng();
        let mut mlp = Mlp::new(&mut r, &[3, 5, 2], OutputActivation::Tanh);
        let x = Tensor::randn(&mut r, &[3], 0.0, 1.0);
        let ones = Tensor::ones(&[2]);
        let dx = mlp.backward(&x, &ones).unwrap();
        mlp.zero_grad();
        let eps = 1e-3;
        for i in 0..3 {
            let mut xu = x.clone();
            xu.as_mut_slice()[i] += eps;
            let up = mlp.forward(&xu).unwrap().sum();
            let mut xd = x.clone();
            xd.as_mut_slice()[i] -= eps;
            let down = mlp.forward(&xd).unwrap().sum();
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (numeric - dx.as_slice()[i]).abs() < 1e-2,
                "dx[{i}]: analytic {} vs numeric {numeric}",
                dx.as_slice()[i]
            );
        }
    }

    #[test]
    fn blend_from_moves_parameters_towards_source() {
        let mut r = rng();
        let a = Mlp::new(&mut r, &[2, 4, 1], OutputActivation::Linear);
        let mut b = Mlp::new(&mut r, &[2, 4, 1], OutputActivation::Linear);
        let before = b.layers()[0].weight().as_slice()[0];
        let target = a.layers()[0].weight().as_slice()[0];
        b.blend_from(&a, 0.5);
        let after = b.layers()[0].weight().as_slice()[0];
        assert!((after - (0.5 * target + 0.5 * before)).abs() < 1e-6);
        b.copy_from(&a);
        assert_eq!(b.layers()[0].weight().as_slice()[0], target);
    }

    #[test]
    #[should_panic(expected = "at least an input and an output size")]
    fn mlp_requires_two_sizes() {
        let mut r = rng();
        let _ = Mlp::new(&mut r, &[4], OutputActivation::Linear);
    }
}
