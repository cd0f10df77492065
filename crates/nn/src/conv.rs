//! Convolutional layers operating on flattened `(C, H, W)` inputs.
//!
//! Activations are carried between layers as 2-D matrices with one sample per
//! row; convolutional layers interpret each row as a `channels × height ×
//! width` volume in row-major order. This keeps the rest of the stack (which
//! only understands matrices) unchanged while still offering convolutional
//! models for image-shaped synthetic data.

use crate::layer::Layer;
use crate::{NnError, Result};
use fedft_tensor::{init, rng, Matrix, TensorError};

/// Shape of an image-like activation volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VolumeShape {
    /// Number of channels.
    pub channels: usize,
    /// Height in pixels.
    pub height: usize,
    /// Width in pixels.
    pub width: usize,
}

impl VolumeShape {
    /// Creates a new volume shape.
    pub fn new(channels: usize, height: usize, width: usize) -> Self {
        VolumeShape {
            channels,
            height,
            width,
        }
    }

    /// Number of scalars in the volume.
    pub fn len(&self) -> usize {
        self.channels * self.height * self.width
    }

    /// Returns `true` for a degenerate, empty volume.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// 2-D convolution with square kernels, stride 1 and zero padding.
#[derive(Debug, Clone)]
pub struct Conv2d {
    input_shape: VolumeShape,
    out_channels: usize,
    kernel: usize,
    padding: usize,
    /// Weights flattened as `(out_channels, in_channels * kernel * kernel)`.
    weight: Matrix,
    bias: Matrix,
    grad_weight: Matrix,
    grad_bias: Matrix,
    cached_input: Option<Matrix>,
}

impl Conv2d {
    /// Creates a convolution layer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the kernel does not fit the
    /// padded input.
    pub fn new(
        input_shape: VolumeShape,
        out_channels: usize,
        kernel: usize,
        padding: usize,
        seed: u64,
    ) -> Result<Self> {
        if kernel == 0
            || kernel > input_shape.height + 2 * padding
            || kernel > input_shape.width + 2 * padding
        {
            return Err(NnError::InvalidConfig {
                what: format!(
                    "conv kernel {kernel} incompatible with input {}x{} (padding {padding})",
                    input_shape.height, input_shape.width
                ),
            });
        }
        let fan_in = input_shape.channels * kernel * kernel;
        let mut r = rng::rng_for(seed, "conv-init");
        Ok(Conv2d {
            input_shape,
            out_channels,
            kernel,
            padding,
            weight: init::he_normal(&mut r, fan_in, out_channels),
            bias: Matrix::zeros(1, out_channels),
            grad_weight: Matrix::zeros(fan_in, out_channels),
            grad_bias: Matrix::zeros(1, out_channels),
            cached_input: None,
        })
    }

    /// Shape of the output volume.
    pub fn output_shape(&self) -> VolumeShape {
        VolumeShape {
            channels: self.out_channels,
            height: self.input_shape.height + 2 * self.padding + 1 - self.kernel,
            width: self.input_shape.width + 2 * self.padding + 1 - self.kernel,
        }
    }

    fn input_index(&self, c: usize, y: isize, x: isize) -> Option<usize> {
        if y < 0 || x < 0 {
            return None;
        }
        let (y, x) = (y as usize, x as usize);
        if y >= self.input_shape.height || x >= self.input_shape.width {
            return None;
        }
        Some(c * self.input_shape.height * self.input_shape.width + y * self.input_shape.width + x)
    }

    /// The convolution arithmetic shared by the training and frozen forward
    /// paths (the training flag does not affect a convolution).
    fn compute_forward(&self, input: &Matrix) -> Result<Matrix> {
        if input.cols() != self.input_shape.len() {
            return Err(NnError::Tensor(TensorError::ShapeMismatch {
                op: "conv2d_forward",
                lhs: input.shape(),
                rhs: (1, self.input_shape.len()),
            }));
        }
        let out_shape = self.output_shape();
        let mut out = Matrix::zeros(input.rows(), out_shape.len());
        for sample in 0..input.rows() {
            let row = input.row(sample);
            let out_row = out.row_mut(sample);
            for oc in 0..self.out_channels {
                for oy in 0..out_shape.height {
                    for ox in 0..out_shape.width {
                        let mut acc = self.bias.get(0, oc);
                        for ic in 0..self.input_shape.channels {
                            for ky in 0..self.kernel {
                                for kx in 0..self.kernel {
                                    let iy = oy as isize + ky as isize - self.padding as isize;
                                    let ix = ox as isize + kx as isize - self.padding as isize;
                                    if let Some(idx) = self.input_index(ic, iy, ix) {
                                        let w_row =
                                            ic * self.kernel * self.kernel + ky * self.kernel + kx;
                                        acc += row[idx] * self.weight.get(w_row, oc);
                                    }
                                }
                            }
                        }
                        out_row
                            [oc * out_shape.height * out_shape.width + oy * out_shape.width + ox] =
                            acc;
                    }
                }
            }
        }
        Ok(out)
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn forward(&mut self, input: &Matrix, _training: bool) -> Result<Matrix> {
        let out = self.compute_forward(input)?;
        crate::layers::cache_copy(&mut self.cached_input, input);
        Ok(out)
    }

    fn forward_frozen(&self, input: &Matrix) -> Result<Matrix> {
        self.compute_forward(input)
    }

    fn backward(&mut self, grad_output: Matrix, input_grad: bool) -> Result<Option<Matrix>> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "conv2d" })?;
        let out_shape = self.output_shape();
        if grad_output.cols() != out_shape.len() || grad_output.rows() != input.rows() {
            return Err(NnError::Tensor(TensorError::ShapeMismatch {
                op: "conv2d_backward",
                lhs: grad_output.shape(),
                rhs: (input.rows(), out_shape.len()),
            }));
        }
        let mut grad_input = input_grad.then(|| Matrix::zeros(input.rows(), input.cols()));
        for sample in 0..input.rows() {
            let in_row = input.row(sample);
            let go_row = grad_output.row(sample);
            for oc in 0..self.out_channels {
                for oy in 0..out_shape.height {
                    for ox in 0..out_shape.width {
                        let go = go_row
                            [oc * out_shape.height * out_shape.width + oy * out_shape.width + ox];
                        if go == 0.0 {
                            continue;
                        }
                        self.grad_bias.set(0, oc, self.grad_bias.get(0, oc) + go);
                        for ic in 0..self.input_shape.channels {
                            for ky in 0..self.kernel {
                                for kx in 0..self.kernel {
                                    let iy = oy as isize + ky as isize - self.padding as isize;
                                    let ix = ox as isize + kx as isize - self.padding as isize;
                                    if let Some(idx) = self.input_index(ic, iy, ix) {
                                        let w_row =
                                            ic * self.kernel * self.kernel + ky * self.kernel + kx;
                                        let dw = self.grad_weight.get(w_row, oc) + in_row[idx] * go;
                                        self.grad_weight.set(w_row, oc, dw);
                                        if let Some(grad_input) = grad_input.as_mut() {
                                            let gi = grad_input.get(sample, idx)
                                                + self.weight.get(w_row, oc) * go;
                                            grad_input.set(sample, idx, gi);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(grad_input)
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
        let out = self.output_shape();
        2 * (out.len() * self.input_shape.channels * self.kernel * self.kernel) as u64
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// 2-D max pooling with a square window and matching stride.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    input_shape: VolumeShape,
    window: usize,
    argmax: Option<Vec<usize>>,
    cached_rows: usize,
}

impl MaxPool2d {
    /// Creates a max-pooling layer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the window does not evenly
    /// divide the spatial dimensions.
    pub fn new(input_shape: VolumeShape, window: usize) -> Result<Self> {
        if window == 0
            || !input_shape.height.is_multiple_of(window)
            || !input_shape.width.is_multiple_of(window)
        {
            return Err(NnError::InvalidConfig {
                what: format!(
                    "pool window {window} must evenly divide {}x{}",
                    input_shape.height, input_shape.width
                ),
            });
        }
        Ok(MaxPool2d {
            input_shape,
            window,
            argmax: None,
            cached_rows: 0,
        })
    }

    /// Shape of the output volume.
    pub fn output_shape(&self) -> VolumeShape {
        VolumeShape {
            channels: self.input_shape.channels,
            height: self.input_shape.height / self.window,
            width: self.input_shape.width / self.window,
        }
    }

    /// The pooling arithmetic shared by the training and frozen forward
    /// paths; the argmax indices are only needed for a backward pass.
    fn compute_forward(&self, input: &Matrix) -> Result<(Matrix, Vec<usize>)> {
        if input.cols() != self.input_shape.len() {
            return Err(NnError::Tensor(TensorError::ShapeMismatch {
                op: "maxpool_forward",
                lhs: input.shape(),
                rhs: (1, self.input_shape.len()),
            }));
        }
        let out_shape = self.output_shape();
        let mut out = Matrix::zeros(input.rows(), out_shape.len());
        let mut argmax = vec![0usize; input.rows() * out_shape.len()];
        for sample in 0..input.rows() {
            let row = input.row(sample);
            for c in 0..self.input_shape.channels {
                for oy in 0..out_shape.height {
                    for ox in 0..out_shape.width {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0;
                        for wy in 0..self.window {
                            for wx in 0..self.window {
                                let iy = oy * self.window + wy;
                                let ix = ox * self.window + wx;
                                let idx = c * self.input_shape.height * self.input_shape.width
                                    + iy * self.input_shape.width
                                    + ix;
                                if row[idx] > best {
                                    best = row[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        let out_idx =
                            c * out_shape.height * out_shape.width + oy * out_shape.width + ox;
                        out.set(sample, out_idx, best);
                        argmax[sample * out_shape.len() + out_idx] = best_idx;
                    }
                }
            }
        }
        Ok((out, argmax))
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &'static str {
        "maxpool2d"
    }

    fn forward(&mut self, input: &Matrix, _training: bool) -> Result<Matrix> {
        let (out, argmax) = self.compute_forward(input)?;
        self.argmax = Some(argmax);
        self.cached_rows = input.rows();
        Ok(out)
    }

    fn forward_frozen(&self, input: &Matrix) -> Result<Matrix> {
        Ok(self.compute_forward(input)?.0)
    }

    fn backward(&mut self, grad_output: Matrix, input_grad: bool) -> Result<Option<Matrix>> {
        let argmax = self
            .argmax
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward { layer: "maxpool2d" })?;
        let out_shape = self.output_shape();
        if grad_output.rows() != self.cached_rows || grad_output.cols() != out_shape.len() {
            return Err(NnError::Tensor(TensorError::ShapeMismatch {
                op: "maxpool_backward",
                lhs: grad_output.shape(),
                rhs: (self.cached_rows, out_shape.len()),
            }));
        }
        if !input_grad {
            return Ok(None);
        }
        let mut grad_input = Matrix::zeros(self.cached_rows, self.input_shape.len());
        for sample in 0..self.cached_rows {
            for out_idx in 0..out_shape.len() {
                let src = argmax[sample * out_shape.len() + out_idx];
                let g = grad_input.get(sample, src) + grad_output.get(sample, out_idx);
                grad_input.set(sample, src, g);
            }
        }
        Ok(Some(grad_input))
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
        (self.input_shape.len()) as u64
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_shape_len() {
        let v = VolumeShape::new(3, 8, 8);
        assert_eq!(v.len(), 192);
        assert!(!v.is_empty());
        assert!(VolumeShape::new(0, 4, 4).is_empty());
    }

    #[test]
    fn conv_output_shape_with_padding() {
        let conv = Conv2d::new(VolumeShape::new(1, 5, 5), 2, 3, 1, 0).unwrap();
        assert_eq!(conv.output_shape(), VolumeShape::new(2, 5, 5));
        let conv = Conv2d::new(VolumeShape::new(1, 5, 5), 2, 3, 0, 0).unwrap();
        assert_eq!(conv.output_shape(), VolumeShape::new(2, 3, 3));
    }

    #[test]
    fn conv_rejects_oversized_kernel() {
        assert!(Conv2d::new(VolumeShape::new(1, 3, 3), 1, 7, 0, 0).is_err());
    }

    #[test]
    fn conv_identity_kernel_reproduces_input() {
        // 1x1 kernel with weight 1 and no bias is the identity map.
        let mut conv = Conv2d::new(VolumeShape::new(1, 3, 3), 1, 1, 0, 0).unwrap();
        conv.params_mut()[0].set(0, 0, 1.0);
        let weight_val = conv.params()[0].get(0, 0);
        assert_eq!(weight_val, 1.0);
        let x = Matrix::from_vec(1, 9, (1..=9).map(|v| v as f32).collect()).unwrap();
        let y = conv.forward(&x, true).unwrap();
        assert!(y.approx_eq(&x, 1e-6));
    }

    #[test]
    fn conv_known_sum_kernel() {
        // 2x2 kernel of all ones computes window sums.
        let mut conv = Conv2d::new(VolumeShape::new(1, 2, 2), 1, 2, 0, 0).unwrap();
        for r in 0..4 {
            conv.params_mut()[0].set(r, 0, 1.0);
        }
        let x = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = conv.forward(&x, true).unwrap();
        assert_eq!(y.shape(), (1, 1));
        assert!((y.get(0, 0) - 10.0).abs() < 1e-6);
    }

    #[test]
    fn conv_input_gradient_matches_finite_difference() {
        let mut conv = Conv2d::new(VolumeShape::new(1, 3, 3), 2, 2, 0, 11).unwrap();
        let x = Matrix::from_vec(1, 9, (0..9).map(|v| v as f32 * 0.3 - 1.0).collect()).unwrap();
        let y = conv.forward(&x, true).unwrap();
        let grad_out = Matrix::full(y.rows(), y.cols(), 1.0);
        let analytic = conv.backward(grad_out, true).unwrap().unwrap();

        let eps = 1e-2;
        let mut probe = conv.clone();
        for c in 0..9 {
            let mut plus = x.clone();
            plus.set(0, c, x.get(0, c) + eps);
            let mut minus = x.clone();
            minus.set(0, c, x.get(0, c) - eps);
            let numeric = (probe.forward(&plus, true).unwrap().sum()
                - probe.forward(&minus, true).unwrap().sum())
                / (2.0 * eps);
            assert!(
                (numeric - analytic.get(0, c)).abs() < 1e-2,
                "at {c}: numeric {numeric} vs analytic {}",
                analytic.get(0, c)
            );
        }
    }

    #[test]
    fn conv_backward_requires_forward() {
        let mut conv = Conv2d::new(VolumeShape::new(1, 3, 3), 1, 2, 0, 0).unwrap();
        assert!(conv.backward(Matrix::zeros(1, 4), true).is_err());
    }

    #[test]
    fn maxpool_selects_maxima_and_routes_gradient() {
        let mut pool = MaxPool2d::new(VolumeShape::new(1, 2, 2), 2).unwrap();
        let x = Matrix::from_vec(1, 4, vec![1.0, 5.0, 2.0, 3.0]).unwrap();
        let y = pool.forward(&x, true).unwrap();
        assert_eq!(y.shape(), (1, 1));
        assert_eq!(y.get(0, 0), 5.0);
        let g = pool
            .backward(Matrix::full(1, 1, 2.0), true)
            .unwrap()
            .unwrap();
        assert_eq!(g.as_slice(), &[0.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_rejects_nondivisible_window() {
        assert!(MaxPool2d::new(VolumeShape::new(1, 5, 5), 2).is_err());
    }

    #[test]
    fn maxpool_output_shape() {
        let pool = MaxPool2d::new(VolumeShape::new(3, 8, 8), 2).unwrap();
        assert_eq!(pool.output_shape(), VolumeShape::new(3, 4, 4));
    }

    #[test]
    fn conv_flops_positive() {
        let conv = Conv2d::new(VolumeShape::new(3, 8, 8), 4, 3, 1, 0).unwrap();
        assert!(conv.forward_flops_per_sample() > 0);
    }
}
