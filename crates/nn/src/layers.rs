//! Fully-connected, activation, dropout and normalisation layers.

use crate::layer::Layer;
use crate::{NnError, Result};
use fedft_tensor::{init, rng, Matrix};
use rand::Rng;

/// Stores a copy of `input` in a layer's activation cache, reusing the
/// cached buffer's allocation from the previous batch.
pub(crate) fn cache_copy(slot: &mut Option<Matrix>, input: &Matrix) {
    match slot {
        Some(cached) => cached.clone_from(input),
        None => *slot = Some(input.clone()),
    }
}

/// Fully-connected (affine) layer: `Y = X·W + b`.
///
/// Weights use He-normal initialisation, biases start at zero.
///
/// # Example
///
/// ```
/// use fedft_nn::{Dense, Layer};
/// use fedft_tensor::Matrix;
///
/// # fn main() -> Result<(), fedft_nn::NnError> {
/// let mut layer = Dense::new(4, 3, 0);
/// let x = Matrix::zeros(5, 4);
/// let y = layer.forward(&x, true)?;
/// assert_eq!(y.shape(), (5, 3));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    weight: Matrix,
    bias: Matrix,
    grad_weight: Matrix,
    grad_bias: Matrix,
    cached_input: Option<Matrix>,
    in_features: usize,
    out_features: usize,
}

impl Dense {
    /// Creates a new dense layer with `in_features` inputs and `out_features`
    /// outputs, initialised deterministically from `seed`.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        let mut r = rng::rng_for(seed, "dense-init");
        Dense {
            weight: init::he_normal(&mut r, in_features, out_features),
            bias: Matrix::zeros(1, out_features),
            grad_weight: Matrix::zeros(in_features, out_features),
            grad_bias: Matrix::zeros(1, out_features),
            cached_input: None,
            in_features,
            out_features,
        }
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Immutable view of the weight matrix (shape `in_features × out_features`).
    pub fn weight(&self) -> &Matrix {
        &self.weight
    }

    /// Immutable view of the bias row vector.
    pub fn bias(&self) -> &Matrix {
        &self.bias
    }
}

impl Layer for Dense {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn forward(&mut self, input: &Matrix, _training: bool) -> Result<Matrix> {
        let out = self.forward_frozen(input)?;
        cache_copy(&mut self.cached_input, input);
        Ok(out)
    }

    fn forward_frozen(&self, input: &Matrix) -> Result<Matrix> {
        let mut out = input.matmul(&self.weight)?;
        out.add_row_broadcast_assign(&self.bias)?;
        Ok(out)
    }

    fn forward_frozen_batch(&self, inputs: &[&Matrix]) -> Result<Vec<Matrix>> {
        // The weight matrix is shared across the whole batch, so it is packed
        // once and swept by every input (`Matrix::matmul_batch`) instead of
        // being re-read column-strided per call. Each product is
        // byte-identical to the per-input `matmul`.
        let mut products = self.weight.matmul_batch(inputs)?;
        for p in &mut products {
            p.add_row_broadcast_assign(&self.bias)?;
        }
        Ok(products)
    }

    fn backward(&mut self, grad_output: Matrix, input_grad: bool) -> Result<Option<Matrix>> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "dense" })?;
        // dW = X^T · dY, accumulated.
        let dw = input.matmul_tn(&grad_output)?;
        self.grad_weight.add_assign(&dw)?;
        self.grad_bias.add_assign(&grad_output.sum_rows())?;
        if !input_grad {
            return Ok(None);
        }
        // dX = dY · W^T
        Ok(Some(grad_output.matmul_nt(&self.weight)?))
    }

    fn params(&self) -> Vec<&Matrix> {
        vec![&self.weight, &self.bias]
    }

    fn params_and_grads(&mut self) -> (Vec<&mut Matrix>, Vec<&Matrix>) {
        (
            vec![&mut self.weight, &mut self.bias],
            vec![&self.grad_weight, &self.grad_bias],
        )
    }

    fn grads(&self) -> Vec<&Matrix> {
        vec![&self.grad_weight, &self.grad_bias]
    }

    fn zero_grads(&mut self) {
        self.grad_weight.scale_assign(0.0);
        self.grad_bias.scale_assign(0.0);
    }

    fn forward_flops_per_sample(&self) -> u64 {
        // One multiply-add per weight plus the bias add.
        (2 * self.in_features * self.out_features + self.out_features) as u64
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Rectified linear unit activation.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    cached_input: Option<Matrix>,
    features_hint: usize,
}

impl Relu {
    /// Creates a ReLU layer. `features_hint` is only used for FLOP accounting.
    pub fn new(features_hint: usize) -> Self {
        Relu {
            cached_input: None,
            features_hint,
        }
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "relu"
    }

    fn forward(&mut self, input: &Matrix, _training: bool) -> Result<Matrix> {
        cache_copy(&mut self.cached_input, input);
        self.forward_frozen(input)
    }

    fn forward_frozen(&self, input: &Matrix) -> Result<Matrix> {
        Ok(input.map(|v| v.max(0.0)))
    }

    fn backward(&mut self, mut grad_output: Matrix, input_grad: bool) -> Result<Option<Matrix>> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "relu" })?;
        if input.shape() != grad_output.shape() {
            return Err(NnError::Tensor(fedft_tensor::TensorError::ShapeMismatch {
                op: "relu_backward",
                lhs: input.shape(),
                rhs: grad_output.shape(),
            }));
        }
        if !input_grad {
            return Ok(None);
        }
        // Multiply by the 0/1 mask in place (not a select), so a non-finite
        // upstream gradient still propagates as `∞ · 0 = NaN`.
        for (g, &x) in grad_output.as_mut_slice().iter_mut().zip(input.as_slice()) {
            *g *= if x > 0.0 { 1.0 } else { 0.0 };
        }
        Ok(Some(grad_output))
    }

    fn params(&self) -> Vec<&Matrix> {
        Vec::new()
    }

    fn params_and_grads(&mut self) -> (Vec<&mut Matrix>, Vec<&Matrix>) {
        (Vec::new(), Vec::new())
    }

    fn grads(&self) -> Vec<&Matrix> {
        Vec::new()
    }

    fn zero_grads(&mut self) {}

    fn forward_flops_per_sample(&self) -> u64 {
        self.features_hint as u64
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Inverted dropout: active only during training, identity at inference.
#[derive(Debug, Clone)]
pub struct Dropout {
    rate: f32,
    seed: u64,
    calls: u64,
    mask: Option<Matrix>,
    features_hint: usize,
}

impl Dropout {
    /// Creates a dropout layer that zeroes each activation with probability
    /// `rate` during training.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `[0, 1)`.
    pub fn new(rate: f32, seed: u64, features_hint: usize) -> Self {
        assert!((0.0..1.0).contains(&rate), "dropout rate must be in [0, 1)");
        Dropout {
            rate,
            seed,
            calls: 0,
            mask: None,
            features_hint,
        }
    }

    /// The configured dropout probability.
    pub fn rate(&self) -> f32 {
        self.rate
    }
}

impl Layer for Dropout {
    fn name(&self) -> &'static str {
        "dropout"
    }

    fn forward(&mut self, input: &Matrix, training: bool) -> Result<Matrix> {
        if !training || self.rate == 0.0 {
            self.mask = None;
            return Ok(input.clone());
        }
        self.calls += 1;
        let mut r = rng::rng_for_indexed(self.seed, "dropout", self.calls);
        let keep = 1.0 - self.rate;
        let mask = Matrix::from_vec(
            input.rows(),
            input.cols(),
            (0..input.len())
                .map(|_| {
                    if r.gen::<f32>() < keep {
                        1.0 / keep
                    } else {
                        0.0
                    }
                })
                .collect(),
        )?;
        let out = input.hadamard(&mask)?;
        self.mask = Some(mask);
        Ok(out)
    }

    fn forward_frozen(&self, input: &Matrix) -> Result<Matrix> {
        // Frozen blocks always run in inference mode, where dropout is the
        // identity.
        Ok(input.clone())
    }

    fn backward(&mut self, grad_output: Matrix, input_grad: bool) -> Result<Option<Matrix>> {
        if !input_grad {
            return Ok(None);
        }
        match &self.mask {
            Some(mask) => Ok(Some(grad_output.hadamard(mask)?)),
            None => Ok(Some(grad_output)),
        }
    }

    fn params(&self) -> Vec<&Matrix> {
        Vec::new()
    }

    fn params_and_grads(&mut self) -> (Vec<&mut Matrix>, Vec<&Matrix>) {
        (Vec::new(), Vec::new())
    }

    fn grads(&self) -> Vec<&Matrix> {
        Vec::new()
    }

    fn zero_grads(&mut self) {}

    fn forward_flops_per_sample(&self) -> u64 {
        self.features_hint as u64
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Batch normalisation over features for 2-D activations, with running
/// statistics for inference.
#[derive(Debug, Clone)]
pub struct BatchNorm1d {
    gamma: Matrix,
    beta: Matrix,
    grad_gamma: Matrix,
    grad_beta: Matrix,
    running_mean: Matrix,
    running_var: Matrix,
    momentum: f32,
    eps: f32,
    features: usize,
    cache: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    normalised: Matrix,
    std_inv: Vec<f32>,
}

impl BatchNorm1d {
    /// Creates a batch-norm layer over `features` columns.
    pub fn new(features: usize) -> Self {
        BatchNorm1d {
            gamma: Matrix::full(1, features, 1.0),
            beta: Matrix::zeros(1, features),
            grad_gamma: Matrix::zeros(1, features),
            grad_beta: Matrix::zeros(1, features),
            running_mean: Matrix::zeros(1, features),
            running_var: Matrix::full(1, features, 1.0),
            momentum: 0.1,
            eps: 1e-5,
            features,
            cache: None,
        }
    }

    /// Number of normalised features.
    pub fn features(&self) -> usize {
        self.features
    }

    /// The normalisation arithmetic shared by every forward path:
    /// `out = γ · (x − mean) / √(var + ε) + β`, also returning the
    /// normalised activations and inverse standard deviations the backward
    /// pass caches. One implementation keeps the training, inference and
    /// frozen paths bit-identical by construction.
    fn normalise(&self, input: &Matrix, mean: &Matrix, var: &Matrix) -> (Matrix, Matrix, Vec<f32>) {
        let std_inv: Vec<f32> = (0..self.features)
            .map(|c| 1.0 / (var.get(0, c) + self.eps).sqrt())
            .collect();
        let mut normalised = Matrix::zeros(input.rows(), self.features);
        let mut out = Matrix::zeros(input.rows(), self.features);
        for r in 0..input.rows() {
            for (c, &si) in std_inv.iter().enumerate() {
                let x_hat = (input.get(r, c) - mean.get(0, c)) * si;
                normalised.set(r, c, x_hat);
                out.set(r, c, self.gamma.get(0, c) * x_hat + self.beta.get(0, c));
            }
        }
        (out, normalised, std_inv)
    }

    fn check_width(&self, input: &Matrix) -> Result<()> {
        if input.cols() != self.features {
            return Err(NnError::Tensor(fedft_tensor::TensorError::ShapeMismatch {
                op: "batchnorm_forward",
                lhs: input.shape(),
                rhs: (1, self.features),
            }));
        }
        Ok(())
    }
}

impl Layer for BatchNorm1d {
    fn name(&self) -> &'static str {
        "batchnorm1d"
    }

    fn forward(&mut self, input: &Matrix, training: bool) -> Result<Matrix> {
        self.check_width(input)?;
        let n = input.rows().max(1) as f32;
        let (mean, var) = if training && input.rows() > 1 {
            let mean = input.mean_rows()?;
            let mut var = Matrix::zeros(1, self.features);
            for r in 0..input.rows() {
                for c in 0..self.features {
                    let d = input.get(r, c) - mean.get(0, c);
                    var.set(0, c, var.get(0, c) + d * d);
                }
            }
            var.scale_assign(1.0 / n);
            // Update running statistics.
            for c in 0..self.features {
                let rm = self.running_mean.get(0, c);
                let rv = self.running_var.get(0, c);
                self.running_mean.set(
                    0,
                    c,
                    (1.0 - self.momentum) * rm + self.momentum * mean.get(0, c),
                );
                self.running_var.set(
                    0,
                    c,
                    (1.0 - self.momentum) * rv + self.momentum * var.get(0, c),
                );
            }
            (mean, var)
        } else {
            (self.running_mean.clone(), self.running_var.clone())
        };

        let (out, normalised, std_inv) = self.normalise(input, &mean, &var);
        if training {
            self.cache = Some(BnCache {
                normalised,
                std_inv,
            });
        } else {
            self.cache = None;
        }
        Ok(out)
    }

    fn forward_frozen(&self, input: &Matrix) -> Result<Matrix> {
        self.check_width(input)?;
        // The inference path of `forward`: running statistics, no cache.
        let (out, _, _) = self.normalise(input, &self.running_mean, &self.running_var);
        Ok(out)
    }

    fn backward(&mut self, grad_output: Matrix, input_grad: bool) -> Result<Option<Matrix>> {
        let cache = self.cache.as_ref().ok_or(NnError::BackwardBeforeForward {
            layer: "batchnorm1d",
        })?;
        let n = grad_output.rows() as f32;
        let mut grad_input = input_grad.then(|| Matrix::zeros(grad_output.rows(), self.features));

        for c in 0..self.features {
            let mut sum_dy = 0.0_f32;
            let mut sum_dy_xhat = 0.0_f32;
            for r in 0..grad_output.rows() {
                let dy = grad_output.get(r, c);
                sum_dy += dy;
                sum_dy_xhat += dy * cache.normalised.get(r, c);
            }
            self.grad_beta.set(0, c, self.grad_beta.get(0, c) + sum_dy);
            self.grad_gamma
                .set(0, c, self.grad_gamma.get(0, c) + sum_dy_xhat);
            let Some(grad_input) = grad_input.as_mut() else {
                continue;
            };
            let gamma = self.gamma.get(0, c);
            for r in 0..grad_output.rows() {
                let dy = grad_output.get(r, c);
                let x_hat = cache.normalised.get(r, c);
                let dx = gamma * cache.std_inv[c] / n * (n * dy - sum_dy - x_hat * sum_dy_xhat);
                grad_input.set(r, c, dx);
            }
        }
        Ok(grad_input)
    }

    fn params(&self) -> Vec<&Matrix> {
        vec![&self.gamma, &self.beta]
    }

    fn params_and_grads(&mut self) -> (Vec<&mut Matrix>, Vec<&Matrix>) {
        (
            vec![&mut self.gamma, &mut self.beta],
            vec![&self.grad_gamma, &self.grad_beta],
        )
    }

    fn grads(&self) -> Vec<&Matrix> {
        vec![&self.grad_gamma, &self.grad_beta]
    }

    fn zero_grads(&mut self) {
        self.grad_gamma.scale_assign(0.0);
        self.grad_beta.scale_assign(0.0);
    }

    fn forward_flops_per_sample(&self) -> u64 {
        (self.features * 4) as u64
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedft_tensor::stats;

    fn finite_difference_check(
        mut forward: impl FnMut(&Matrix) -> f32,
        input: &Matrix,
        analytic: &Matrix,
        eps: f32,
        tol: f32,
    ) {
        for r in 0..input.rows() {
            for c in 0..input.cols() {
                let mut plus = input.clone();
                plus.set(r, c, input.get(r, c) + eps);
                let mut minus = input.clone();
                minus.set(r, c, input.get(r, c) - eps);
                let numeric = (forward(&plus) - forward(&minus)) / (2.0 * eps);
                let diff = (numeric - analytic.get(r, c)).abs();
                assert!(
                    diff < tol,
                    "finite-difference mismatch at ({r},{c}): numeric={numeric}, analytic={}",
                    analytic.get(r, c)
                );
            }
        }
    }

    #[test]
    fn dense_forward_shape_and_bias() {
        let mut layer = Dense::new(3, 2, 1);
        let x = Matrix::zeros(4, 3);
        let y = layer.forward(&x, true).unwrap();
        assert_eq!(y.shape(), (4, 2));
        // Zero input -> output equals bias (zero).
        assert_eq!(y.sum(), 0.0);
    }

    #[test]
    fn dense_backward_before_forward_errors() {
        let mut layer = Dense::new(3, 2, 1);
        let err = layer.backward(Matrix::zeros(1, 2), true).unwrap_err();
        assert!(matches!(err, NnError::BackwardBeforeForward { .. }));
    }

    #[test]
    fn dense_input_gradient_matches_finite_difference() {
        let mut layer = Dense::new(3, 2, 3);
        let x = Matrix::from_rows(&[vec![0.5, -1.0, 2.0], vec![1.5, 0.3, -0.7]]).unwrap();
        // Scalar objective: sum of outputs.
        let y = layer.forward(&x, true).unwrap();
        let grad_out = Matrix::full(y.rows(), y.cols(), 1.0);
        let grad_in = layer.backward(grad_out, true).unwrap().unwrap();

        let mut probe = layer.clone();
        finite_difference_check(
            |input| probe.forward(input, true).unwrap().sum(),
            &x,
            &grad_in,
            1e-2,
            1e-2,
        );
    }

    #[test]
    fn dense_weight_gradient_matches_finite_difference() {
        let mut layer = Dense::new(2, 2, 5);
        let x = Matrix::from_rows(&[vec![1.0, -2.0], vec![0.5, 0.25]]).unwrap();
        let y = layer.forward(&x, true).unwrap();
        layer
            .backward(Matrix::full(y.rows(), y.cols(), 1.0), true)
            .unwrap();
        let analytic = layer.grads()[0].clone();

        let eps = 1e-2;
        for r in 0..2 {
            for c in 0..2 {
                let mut plus = layer.clone();
                plus.params_mut()[0].set(r, c, layer.params()[0].get(r, c) + eps);
                let mut minus = layer.clone();
                minus.params_mut()[0].set(r, c, layer.params()[0].get(r, c) - eps);
                let f_plus = plus.forward(&x, true).unwrap().sum();
                let f_minus = minus.forward(&x, true).unwrap().sum();
                let numeric = (f_plus - f_minus) / (2.0 * eps);
                assert!((numeric - analytic.get(r, c)).abs() < 1e-2);
            }
        }
    }

    #[test]
    fn dense_gradients_accumulate_until_zeroed() {
        let mut layer = Dense::new(2, 2, 5);
        let x = Matrix::full(1, 2, 1.0);
        let g = Matrix::full(1, 2, 1.0);
        layer.forward(&x, true).unwrap();
        layer.backward(g.clone(), true).unwrap();
        let first = layer.grads()[0].clone();
        layer.forward(&x, true).unwrap();
        layer.backward(g, true).unwrap();
        assert!(layer.grads()[0].approx_eq(&first.scale(2.0), 1e-6));
        layer.zero_grads();
        assert_eq!(layer.grads()[0].sum(), 0.0);
    }

    #[test]
    fn relu_clamps_and_masks_gradient() {
        let mut relu = Relu::new(3);
        let x = Matrix::from_rows(&[vec![-1.0, 0.0, 2.0]]).unwrap();
        let y = relu.forward(&x, true).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
        let g = relu
            .backward(Matrix::full(1, 3, 1.0), true)
            .unwrap()
            .unwrap();
        assert_eq!(g.as_slice(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn relu_backward_shape_mismatch_errors() {
        let mut relu = Relu::new(3);
        relu.forward(&Matrix::zeros(1, 3), true).unwrap();
        assert!(relu.backward(Matrix::zeros(1, 4), true).is_err());
    }

    #[test]
    fn dropout_is_identity_at_inference() {
        let mut d = Dropout::new(0.5, 7, 4);
        let x = Matrix::full(2, 4, 3.0);
        let y = d.forward(&x, false).unwrap();
        assert!(y.approx_eq(&x, 0.0));
    }

    #[test]
    fn dropout_preserves_expected_scale_in_training() {
        let mut d = Dropout::new(0.5, 7, 512);
        let x = Matrix::full(8, 512, 1.0);
        let y = d.forward(&x, true).unwrap();
        // Inverted dropout: mean stays near 1.
        assert!((y.mean() - 1.0).abs() < 0.1, "mean={}", y.mean());
    }

    #[test]
    fn dropout_backward_applies_same_mask() {
        let mut d = Dropout::new(0.5, 9, 16);
        let x = Matrix::full(4, 16, 1.0);
        let y = d.forward(&x, true).unwrap();
        let g = d.backward(Matrix::full(4, 16, 1.0), true).unwrap().unwrap();
        assert!(g.approx_eq(&y, 1e-6));
    }

    #[test]
    #[should_panic(expected = "dropout rate")]
    fn dropout_rejects_invalid_rate() {
        let _ = Dropout::new(1.0, 0, 4);
    }

    #[test]
    fn batchnorm_normalises_training_batch() {
        let mut bn = BatchNorm1d::new(2);
        let x = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 20.0], vec![5.0, 30.0]]).unwrap();
        let y = bn.forward(&x, true).unwrap();
        for c in 0..2 {
            let col = y.column(c);
            assert!(stats::mean(&col).abs() < 1e-4);
            assert!((stats::variance(&col) - 1.0).abs() < 0.1);
        }
    }

    #[test]
    fn batchnorm_rejects_wrong_width() {
        let mut bn = BatchNorm1d::new(2);
        assert!(bn.forward(&Matrix::zeros(3, 5), true).is_err());
    }

    #[test]
    fn batchnorm_backward_requires_forward() {
        let mut bn = BatchNorm1d::new(2);
        assert!(bn.backward(Matrix::zeros(3, 2), true).is_err());
    }

    #[test]
    fn batchnorm_inference_uses_running_stats() {
        let mut bn = BatchNorm1d::new(1);
        let x = Matrix::from_rows(&[vec![2.0], vec![4.0], vec![6.0]]).unwrap();
        for _ in 0..50 {
            bn.forward(&x, true).unwrap();
        }
        let y = bn
            .forward(&Matrix::from_rows(&[vec![4.0]]).unwrap(), false)
            .unwrap();
        // 4.0 is the running mean, so the normalised output is near zero.
        assert!(y.get(0, 0).abs() < 0.2, "got {}", y.get(0, 0));
    }

    #[test]
    fn batchnorm_input_gradient_matches_finite_difference() {
        let mut bn = BatchNorm1d::new(2);
        let x = Matrix::from_rows(&[vec![0.3, -1.2], vec![1.1, 0.4], vec![-0.5, 2.0]]).unwrap();
        let y = bn.forward(&x, true).unwrap();
        // Objective: weighted sum so gradients differ per element.
        let weights =
            Matrix::from_rows(&[vec![1.0, 2.0], vec![-1.0, 0.5], vec![0.25, -2.0]]).unwrap();
        let analytic = bn.backward(weights.clone(), true).unwrap().unwrap();
        let _ = y;

        let mut probe = BatchNorm1d::new(2);
        finite_difference_check(
            |input| {
                probe
                    .forward(input, true)
                    .unwrap()
                    .hadamard(&weights)
                    .unwrap()
                    .sum()
            },
            &x,
            &analytic,
            1e-3,
            2e-2,
        );
    }

    #[test]
    fn forward_frozen_matches_inference_forward_bit_for_bit() {
        let x = Matrix::from_rows(&[vec![0.5, -1.0, 2.0], vec![1.5, 0.3, -0.7]]).unwrap();
        let mut dense = Dense::new(3, 4, 1);
        assert_eq!(
            dense.forward_frozen(&x).unwrap(),
            dense.forward(&x, false).unwrap()
        );
        let mut relu = Relu::new(3);
        assert_eq!(
            relu.forward_frozen(&x).unwrap(),
            relu.forward(&x, false).unwrap()
        );
        let mut dropout = Dropout::new(0.5, 7, 3);
        assert_eq!(
            dropout.forward_frozen(&x).unwrap(),
            dropout.forward(&x, false).unwrap()
        );
        let mut bn = BatchNorm1d::new(3);
        // Accumulate some running statistics first so the inference path is
        // non-trivial.
        for _ in 0..3 {
            bn.forward(&x, true).unwrap();
        }
        assert_eq!(
            bn.forward_frozen(&x).unwrap(),
            bn.forward(&x, false).unwrap()
        );
        assert!(bn.forward_frozen(&Matrix::zeros(1, 5)).is_err());
    }

    #[test]
    fn parameter_counts() {
        let d = Dense::new(10, 5, 0);
        assert_eq!(d.parameter_count(), 55);
        let bn = BatchNorm1d::new(8);
        assert_eq!(bn.parameter_count(), 16);
        let r = Relu::new(4);
        assert_eq!(r.parameter_count(), 0);
    }

    #[test]
    fn flops_are_nonzero_for_parameterised_layers() {
        assert!(Dense::new(4, 4, 0).forward_flops_per_sample() > 0);
        assert!(BatchNorm1d::new(4).forward_flops_per_sample() > 0);
    }
}
