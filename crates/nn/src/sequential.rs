//! A sequential container of layers.

use crate::layer::Layer;
use crate::Result;
use fedft_tensor::Matrix;

/// An ordered stack of layers applied one after another.
///
/// `Sequential` is used both directly (for simple models) and as the building
/// block of [`crate::BlockNet`], which groups several `Sequential` stacks into
/// the paper's low / mid / up / classifier layer groups.
#[derive(Clone, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field(
                "layers",
                &self.layers.iter().map(|l| l.name()).collect::<Vec<_>>(),
            )
            .field("parameters", &self.parameter_count())
            .finish()
    }
}

impl Sequential {
    /// Creates an empty container.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer, returning `self` for chaining.
    pub fn push(mut self, layer: Box<dyn Layer>) -> Self {
        self.layers.push(layer);
        self
    }

    /// Appends a layer in place.
    pub fn add(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers in the container.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` when the container holds no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Runs the forward pass through every layer.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error encountered.
    pub fn forward(&mut self, input: &Matrix, training: bool) -> Result<Matrix> {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return Ok(input.clone());
        };
        let mut current = first.forward(input, training)?;
        for layer in rest {
            current = layer.forward(&current, training)?;
        }
        Ok(current)
    }

    /// Runs the inference forward pass through every layer via a shared
    /// reference, without caching activations for a backward pass.
    ///
    /// Used for frozen blocks ([`crate::BlockNet::forward_frozen`]); see
    /// [`crate::Layer::forward_frozen`] for the exact semantics.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error encountered.
    pub fn forward_frozen(&self, input: &Matrix) -> Result<Matrix> {
        let Some((first, rest)) = self.layers.split_first() else {
            return Ok(input.clone());
        };
        let mut current = first.forward_frozen(input)?;
        for layer in rest {
            current = layer.forward_frozen(&current)?;
        }
        Ok(current)
    }

    /// Runs the frozen forward pass over a batch of independent inputs,
    /// layer-major: each layer processes the whole batch before the next
    /// layer starts, so layers with shared parameters (dense) amortise their
    /// packing across the batch ([`crate::Layer::forward_frozen_batch`]).
    /// Every output is bit-identical to [`Sequential::forward_frozen`] on the
    /// corresponding input.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error encountered.
    pub fn forward_frozen_batch(&self, inputs: &[&Matrix]) -> Result<Vec<Matrix>> {
        let Some((first, rest)) = self.layers.split_first() else {
            return Ok(inputs.iter().map(|&m| m.clone()).collect());
        };
        let mut current = first.forward_frozen_batch(inputs)?;
        for layer in rest {
            let refs: Vec<&Matrix> = current.iter().collect();
            current = layer.forward_frozen_batch(&refs)?;
        }
        Ok(current)
    }

    /// Runs the backward pass through every layer in reverse order,
    /// accumulating every layer's parameter gradients.
    ///
    /// Returns the gradient with respect to the container's input when
    /// `input_grad` is `true`, and `None` otherwise — the bottom layer then
    /// skips its input gradient (see [`Layer::backward`]); every layer above
    /// it still produces the gradient the layer below consumes.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error encountered.
    pub fn backward(&mut self, grad_output: Matrix, input_grad: bool) -> Result<Option<Matrix>> {
        let mut current = grad_output;
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            match layer.backward(current, input_grad || i > 0)? {
                Some(grad) => current = grad,
                None => return Ok(None),
            }
        }
        Ok(input_grad.then_some(current))
    }

    /// Immutable views of all parameters, layer by layer.
    pub fn params(&self) -> Vec<&Matrix> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// Mutable views of all parameters, in the same order as
    /// [`Sequential::params`].
    pub fn params_mut(&mut self) -> Vec<&mut Matrix> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Gradients of all parameters, in the same order as
    /// [`Sequential::params`].
    pub fn grads(&self) -> Vec<&Matrix> {
        self.layers.iter().flat_map(|l| l.grads()).collect()
    }

    /// Appends mutable views of all parameters to `params` and their
    /// gradients to `grads`, in [`Sequential::params`] order — the split
    /// borrow of [`Layer::params_and_grads`] across every layer.
    pub(crate) fn params_and_grads<'a>(
        &'a mut self,
        params: &mut Vec<&'a mut Matrix>,
        grads: &mut Vec<&'a Matrix>,
    ) {
        for layer in &mut self.layers {
            let (p, g) = layer.params_and_grads();
            params.extend(p);
            grads.extend(g);
        }
    }

    /// Zeros all accumulated gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// Total number of learnable scalar parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(|l| l.parameter_count()).sum()
    }

    /// Estimated forward FLOPs for one sample.
    pub fn forward_flops_per_sample(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| l.forward_flops_per_sample())
            .sum()
    }

    /// Estimated backward FLOPs for one sample.
    pub fn backward_flops_per_sample(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| l.backward_flops_per_sample())
            .sum()
    }

    /// Names of the contained layers, in order.
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use crate::loss::SoftmaxCrossEntropy;

    fn tiny_net(seed: u64) -> Sequential {
        Sequential::new()
            .push(Box::new(Dense::new(4, 8, seed)))
            .push(Box::new(Relu::new(8)))
            .push(Box::new(Dense::new(8, 3, seed + 1)))
    }

    #[test]
    fn forward_shapes_flow_through() {
        let mut net = tiny_net(0);
        let y = net.forward(&Matrix::zeros(5, 4), true).unwrap();
        assert_eq!(y.shape(), (5, 3));
    }

    #[test]
    fn parameter_accounting() {
        let net = tiny_net(0);
        assert_eq!(net.parameter_count(), 4 * 8 + 8 + 8 * 3 + 3);
        assert_eq!(net.params().len(), 4);
        assert_eq!(net.layer_names(), vec!["dense", "relu", "dense"]);
        assert!(net.forward_flops_per_sample() > 0);
        assert!(net.backward_flops_per_sample() > net.forward_flops_per_sample());
    }

    #[test]
    fn clone_is_independent() {
        let mut net = tiny_net(1);
        let mut cloned = net.clone();
        let x = Matrix::full(2, 4, 1.0);
        let before = cloned.forward(&x, false).unwrap();
        // Train the original a little; the clone must not change.
        let loss = SoftmaxCrossEntropy::new();
        for _ in 0..5 {
            let logits = net.forward(&x, true).unwrap();
            let (_, grad) = loss.forward_backward(&logits, &[0, 1]).unwrap();
            net.zero_grads();
            net.backward(grad, true).unwrap();
            let grads: Vec<Matrix> = net.grads().iter().map(|g| (*g).clone()).collect();
            for (p, g) in net.params_mut().into_iter().zip(grads.iter()) {
                p.add_scaled_assign(g, -0.5).unwrap();
            }
        }
        let after = cloned.forward(&x, false).unwrap();
        assert!(before.approx_eq(&after, 0.0));
    }

    #[test]
    fn training_reduces_loss_on_toy_problem() {
        let mut net = tiny_net(7);
        let loss = SoftmaxCrossEntropy::new();
        let x = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0, 0.0],
        ])
        .unwrap();
        let labels = [0usize, 1, 2];
        let initial = loss
            .loss(&net.forward(&x, false).unwrap(), &labels)
            .unwrap();
        for _ in 0..200 {
            let logits = net.forward(&x, true).unwrap();
            let (_, grad) = loss.forward_backward(&logits, &labels).unwrap();
            net.zero_grads();
            net.backward(grad, true).unwrap();
            let grads: Vec<Matrix> = net.grads().iter().map(|g| (*g).clone()).collect();
            for (p, g) in net.params_mut().into_iter().zip(grads.iter()) {
                p.add_scaled_assign(g, -0.5).unwrap();
            }
        }
        let trained = loss
            .loss(&net.forward(&x, false).unwrap(), &labels)
            .unwrap();
        assert!(
            trained < initial * 0.5,
            "training did not reduce loss: {initial} -> {trained}"
        );
    }

    #[test]
    fn empty_sequential_is_identity() {
        let mut net = Sequential::new();
        assert!(net.is_empty());
        let x = Matrix::full(2, 3, 4.0);
        assert!(net.forward(&x, true).unwrap().approx_eq(&x, 0.0));
        let grad = net.backward(x.clone(), true).unwrap().unwrap();
        assert!(grad.approx_eq(&x, 0.0));
        assert!(net.backward(x, false).unwrap().is_none());
    }
}
