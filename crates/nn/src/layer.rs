//! The [`Layer`] trait implemented by every network building block.

use crate::Result;
use fedft_tensor::Matrix;

/// A differentiable network layer with manually implemented forward and
/// backward passes.
///
/// Layers cache whatever they need from the forward pass (inputs, masks,
/// normalisation statistics) so that `backward` can compute parameter
/// gradients and, when asked for it, the gradient with respect to the layer
/// input.
///
/// The trait is object safe; models store layers as `Box<dyn Layer>`.
/// Layers must be `Send + Sync` so that client models can be trained on
/// worker threads during the federated simulation.
pub trait Layer: Send + Sync {
    /// Short, human-readable layer name used in error messages and reports.
    fn name(&self) -> &'static str;

    /// Runs the forward pass.
    ///
    /// `training` toggles behaviour that differs between training and
    /// inference (dropout masks, batch-norm statistics).
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the layer.
    fn forward(&mut self, input: &Matrix, training: bool) -> Result<Matrix>;

    /// Runs the forward pass through a shared reference, without caching
    /// anything for a later backward pass.
    ///
    /// This is the inference-mode forward used for **frozen** blocks: they
    /// are never back-propagated through, so the activation caches written
    /// by [`Layer::forward`] would be dead weight, and the shared-reference
    /// signature lets one model serve many clients concurrently. For
    /// stateless-at-inference layers (dense, convolution, activations) the
    /// arithmetic is identical to [`Layer::forward`], so the two paths
    /// produce bit-identical outputs on the same input.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible with the layer.
    fn forward_frozen(&self, input: &Matrix) -> Result<Matrix>;

    /// Runs [`Layer::forward_frozen`] over a batch of independent inputs.
    ///
    /// The default is a plain loop; layers whose frozen pass is dominated by
    /// a product against a shared parameter matrix (dense) override this to
    /// amortise work across the batch. Every override must keep each output
    /// **bit-identical** to `forward_frozen(inputs[i])` — batching is a
    /// scheduling optimisation, never an arithmetic change.
    ///
    /// # Errors
    ///
    /// Returns the first per-input error encountered.
    fn forward_frozen_batch(&self, inputs: &[&Matrix]) -> Result<Vec<Matrix>> {
        inputs
            .iter()
            .map(|input| self.forward_frozen(input))
            .collect()
    }

    /// Runs the backward pass for the most recent `forward` call.
    ///
    /// Accumulates the parameter gradients into the layer (see
    /// [`Layer::grads`]) and, when `input_grad` is `true`, returns the
    /// gradient of the loss with respect to the layer input. With
    /// `input_grad == false` it returns `None` and skips that computation —
    /// the bottom trainable layer's input gradient would only be discarded —
    /// while the accumulated parameter gradients stay **bit-identical** to
    /// the `true` call. The upstream gradient is taken by value so that
    /// elementwise layers can produce their input gradient in place.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::BackwardBeforeForward`] when called before
    /// `forward`, or a tensor error on shape mismatch.
    fn backward(&mut self, grad_output: Matrix, input_grad: bool) -> Result<Option<Matrix>>;

    /// Immutable views of the layer's learnable parameter tensors.
    fn params(&self) -> Vec<&Matrix>;

    /// Mutable views of the layer's learnable parameter tensors, in the same
    /// order as [`Layer::params`], together with their accumulated
    /// gradients ([`Layer::grads`]) — the split borrow an optimiser step
    /// needs to update parameters from gradients held in the same layer
    /// without copying them.
    fn params_and_grads(&mut self) -> (Vec<&mut Matrix>, Vec<&Matrix>);

    /// Mutable views of the layer's learnable parameter tensors, in the same
    /// order as [`Layer::params`].
    fn params_mut(&mut self) -> Vec<&mut Matrix> {
        self.params_and_grads().0
    }

    /// Gradients accumulated by the most recent backward pass, in the same
    /// order as [`Layer::params`].
    fn grads(&self) -> Vec<&Matrix>;

    /// Resets accumulated gradients to zero.
    fn zero_grads(&mut self);

    /// Total number of learnable scalar parameters.
    fn parameter_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Estimated floating-point operations for a forward pass on a single
    /// sample. Used by the training-time cost model.
    fn forward_flops_per_sample(&self) -> u64;

    /// Estimated floating-point operations for a backward pass on a single
    /// sample. By convention roughly twice the forward cost for parameterised
    /// layers.
    fn backward_flops_per_sample(&self) -> u64 {
        2 * self.forward_flops_per_sample()
    }

    /// Clones the layer into a boxed trait object.
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Dense;

    #[test]
    fn boxed_layers_are_cloneable() {
        let layer: Box<dyn Layer> = Box::new(Dense::new(3, 2, 7));
        let cloned = layer.clone();
        assert_eq!(cloned.parameter_count(), layer.parameter_count());
        assert_eq!(cloned.name(), layer.name());
    }

    #[test]
    fn default_backward_flops_doubles_forward() {
        let layer = Dense::new(4, 4, 1);
        assert_eq!(
            layer.backward_flops_per_sample(),
            2 * layer.forward_flops_per_sample()
        );
    }
}
