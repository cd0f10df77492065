//! The trainable suffix `θ` of a [`crate::BlockNet`], detached from the
//! frozen backbone `ϕ`.
//!
//! Partial fine-tuning only ever trains the blocks above the freeze
//! boundary, so a client does not need its own copy of the backbone: it can
//! share the server's model for the (read-only) frozen forward pass and keep
//! a private [`SuffixNet`] — an `O(|θ|)` snapshot of just the trainable
//! blocks — for local training. All suffix arithmetic lives in the
//! crate-private helpers below, which [`crate::BlockNet`] delegates to as
//! well, so the full-model and split paths are the *same code* on the same
//! inputs and therefore produce bit-identical results.

use crate::freeze::FreezeLevel;
use crate::loss::SoftmaxCrossEntropy;
use crate::optimizer::Sgd;
use crate::params::ParamVector;
use crate::sequential::Sequential;
use crate::Result;
use fedft_tensor::{stats, Matrix};

/// Forward pass through a run of blocks, starting from boundary activations.
pub(crate) fn forward_blocks(
    blocks: &mut [Sequential],
    input: &Matrix,
    training: bool,
) -> Result<Matrix> {
    let Some((first, rest)) = blocks.split_first_mut() else {
        return Ok(input.clone());
    };
    let mut current = first.forward(input, training)?;
    for block in rest {
        current = block.forward(&current, training)?;
    }
    Ok(current)
}

/// Inference forward pass through a run of blocks over a batch of
/// independent boundary-activation matrices, layer-major so shared
/// parameters are packed once per layer (see
/// [`Sequential::forward_frozen_batch`]). Bit-identical per item to
/// [`forward_blocks`] with `training = false`.
pub(crate) fn forward_blocks_inference_batch(
    blocks: &[Sequential],
    inputs: &[&Matrix],
) -> Result<Vec<Matrix>> {
    let Some((first, rest)) = blocks.split_first() else {
        return Ok(inputs.iter().map(|&m| m.clone()).collect());
    };
    let mut current = first.forward_frozen_batch(inputs)?;
    for block in rest {
        let refs: Vec<&Matrix> = current.iter().collect();
        current = block.forward_frozen_batch(&refs)?;
    }
    Ok(current)
}

/// One training step on a run of blocks: forward from the boundary
/// activations, loss, backward through every block, optimiser step.
///
/// The backward pass stops at the boundary: the bottom block is asked for
/// no input gradient (nothing below it trains), and the optimiser reads the
/// gradients in place through [`Sequential::params_and_grads`].
///
/// This is the single implementation of the suffix training step;
/// [`crate::BlockNet::train_batch`] and [`SuffixNet::train_batch`] both
/// lower to it, which is what pins their bit-identity.
pub(crate) fn train_blocks(
    blocks: &mut [Sequential],
    loss: &SoftmaxCrossEntropy,
    input: &Matrix,
    labels: &[usize],
    optimizer: &mut Sgd,
) -> Result<f32> {
    let logits = forward_blocks(blocks, input, true)?;
    let (loss_value, mut grad) = loss.forward_backward(&logits, labels)?;
    for block in blocks.iter_mut() {
        block.zero_grads();
    }
    // Backward through the trainable blocks only, in reverse order.
    for (i, block) in blocks.iter_mut().enumerate().rev() {
        match block.backward(grad, i > 0)? {
            Some(below) => grad = below,
            None => break,
        }
    }
    let mut params = Vec::new();
    let mut grads = Vec::new();
    for block in blocks.iter_mut() {
        block.params_and_grads(&mut params, &mut grads);
    }
    optimizer.step(&mut params, &grads)?;
    Ok(loss_value)
}

/// The trainable part `θ` of a block network under a fixed freeze level.
///
/// A `SuffixNet` is produced by [`crate::BlockNet::trainable_suffix`]: it
/// clones only the blocks above the freeze boundary, so a client holding one
/// costs `O(|θ|)` memory instead of `O(|ϕ| + |θ|)` for a full model clone.
/// Its inputs are **boundary activations** — the output of
/// [`crate::BlockNet::forward_frozen`] on raw features (or a cached copy of
/// it), never the raw features themselves (except at
/// [`FreezeLevel::Full`], where the boundary *is* the input).
#[derive(Debug, Clone)]
pub struct SuffixNet {
    blocks: Vec<Sequential>,
    freeze: FreezeLevel,
    loss: SoftmaxCrossEntropy,
}

impl SuffixNet {
    /// Builds a suffix from pre-cloned trainable blocks.
    pub(crate) fn from_blocks(blocks: Vec<Sequential>, freeze: FreezeLevel) -> Self {
        SuffixNet {
            blocks,
            freeze,
            loss: SoftmaxCrossEntropy::new(),
        }
    }

    /// The freeze level this suffix was split at.
    pub fn freeze(&self) -> FreezeLevel {
        self.freeze
    }

    /// Number of trainable blocks in the suffix.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of trainable scalar parameters.
    pub fn trainable_parameter_count(&self) -> usize {
        self.blocks.iter().map(|b| b.parameter_count()).sum()
    }

    /// Forward pass from boundary activations to logits.
    ///
    /// # Errors
    ///
    /// Returns an error if the boundary width does not match the first
    /// trainable block.
    pub fn forward(&mut self, boundary: &Matrix, training: bool) -> Result<Matrix> {
        forward_blocks(&mut self.blocks, boundary, training)
    }

    /// Class probabilities from boundary activations, using a softmax with
    /// the given temperature (the paper's hardened softmax for ρ < 1).
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch.
    pub fn predict_proba(&mut self, boundary: &Matrix, temperature: f32) -> Result<Matrix> {
        let logits = self.forward(boundary, false)?;
        Ok(stats::softmax_with_temperature(&logits, temperature)?)
    }

    /// Inference forward pass over a **batch** of independent boundary
    /// matrices (one per client, typically), producing each one's logits.
    ///
    /// Layer-major: every dense layer packs its shared weight matrix once
    /// and sweeps the whole batch, amortising packing cost the per-client
    /// `forward` cannot recover. Each output is bit-identical to
    /// [`SuffixNet::forward`] with `training = false` on the same boundary.
    ///
    /// # Errors
    ///
    /// Returns an error if any boundary width does not match the first
    /// trainable block.
    pub fn forward_inference_batch(&self, boundaries: &[&Matrix]) -> Result<Vec<Matrix>> {
        forward_blocks_inference_batch(&self.blocks, boundaries)
    }

    /// Class probabilities for a batch of boundary matrices, using a softmax
    /// with the given temperature. Bit-identical per item to
    /// [`SuffixNet::predict_proba`].
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch.
    pub fn predict_proba_batch(
        &self,
        boundaries: &[&Matrix],
        temperature: f32,
    ) -> Result<Vec<Matrix>> {
        self.forward_inference_batch(boundaries)?
            .iter()
            .map(|logits| Ok(stats::softmax_with_temperature(logits, temperature)?))
            .collect()
    }

    /// One training step on a batch of boundary activations; returns the
    /// batch loss. Bit-identical to [`crate::BlockNet::train_batch`] on the
    /// same boundary activations (both lower to the same implementation).
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch, invalid labels, or optimiser
    /// misconfiguration.
    pub fn train_batch(
        &mut self,
        boundary: &Matrix,
        labels: &[usize],
        optimizer: &mut Sgd,
    ) -> Result<f32> {
        train_blocks(&mut self.blocks, &self.loss, boundary, labels, optimizer)
    }

    /// Flattens the suffix parameters (`θ`) into a vector, in the same order
    /// as [`crate::BlockNet::trainable_vector`] at the matching freeze level.
    pub fn trainable_vector(&self) -> ParamVector {
        let params: Vec<&Matrix> = self.blocks.iter().flat_map(|b| b.params()).collect();
        ParamVector::from_params(&params)
    }

    /// Writes a flattened `θ` vector back into the suffix.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::ParamLengthMismatch`] when the vector length
    /// does not match the suffix parameter count.
    pub fn set_trainable_vector(&mut self, vector: &ParamVector) -> Result<()> {
        let mut params: Vec<&mut Matrix> = self
            .blocks
            .iter_mut()
            .flat_map(|b| b.params_mut())
            .collect();
        vector.write_to(&mut params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BlockNet, BlockNetConfig};
    use crate::optimizer::SgdConfig;

    fn net() -> BlockNet {
        BlockNet::new(&BlockNetConfig::new(6, 3).with_hidden(8, 8, 8), 11)
    }

    #[test]
    fn suffix_mirrors_the_trainable_part_of_the_model() {
        let model = net();
        for freeze in FreezeLevel::all() {
            let suffix = model.trainable_suffix(freeze);
            assert_eq!(suffix.freeze(), freeze);
            assert_eq!(suffix.num_blocks(), 4 - freeze.frozen_blocks());
            assert_eq!(
                suffix.trainable_parameter_count(),
                model.trainable_parameter_count(freeze)
            );
            assert_eq!(suffix.trainable_vector(), model.trainable_vector(freeze));
        }
    }

    #[test]
    fn suffix_forward_from_boundary_matches_full_forward() {
        let mut model = net();
        let x = Matrix::from_rows(&[
            vec![0.5, -1.0, 2.0, 0.1, -0.3, 0.7],
            vec![1.5, 0.3, -0.7, 0.0, 0.9, -0.2],
        ])
        .unwrap();
        let full = model.forward(&x).unwrap();
        for freeze in FreezeLevel::all() {
            let boundary = model.forward_frozen(freeze, &x).unwrap();
            let mut suffix = model.trainable_suffix(freeze);
            let split = suffix.forward(&boundary, false).unwrap();
            assert_eq!(full, split, "freeze {freeze}");
        }
    }

    #[test]
    fn suffix_training_is_bit_identical_to_full_model_training() {
        let freeze = FreezeLevel::Moderate;
        let mut model = net();
        let mut suffix = net().trainable_suffix(freeze);
        let x = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.5, -0.5, 0.2, 0.1],
            vec![0.0, 1.0, -0.5, 0.5, -0.2, 0.3],
        ])
        .unwrap();
        let labels = [1usize, 2];
        let mut sgd_a = Sgd::new(SgdConfig::default()).unwrap();
        let mut sgd_b = Sgd::new(SgdConfig::default()).unwrap();
        for _ in 0..5 {
            let boundary = model.forward_frozen(freeze, &x).unwrap();
            let loss_full = model.train_batch(&x, &labels, &mut sgd_a, freeze).unwrap();
            let loss_suffix = suffix.train_batch(&boundary, &labels, &mut sgd_b).unwrap();
            assert_eq!(loss_full.to_bits(), loss_suffix.to_bits());
        }
        assert_eq!(model.trainable_vector(freeze), suffix.trainable_vector());
    }

    #[test]
    fn batch_inference_is_bit_identical_to_per_item_forward() {
        let model = net();
        let boundaries: Vec<Matrix> = (0..4)
            .map(|i| {
                Matrix::from_rows(&[
                    vec![0.1 * i as f32, -0.5, 1.0, 0.2, -0.3, 0.7],
                    vec![1.5, 0.3 - i as f32, -0.7, 0.0, 0.9, -0.2],
                    vec![-0.4, 0.8, 0.6, -1.1, 0.5, 0.3 * i as f32],
                ])
                .unwrap()
            })
            .collect();
        for freeze in FreezeLevel::all() {
            let mut suffix = model.trainable_suffix(freeze);
            let inputs: Vec<Matrix> = boundaries
                .iter()
                .map(|x| model.forward_frozen(freeze, x).unwrap())
                .collect();
            let refs: Vec<&Matrix> = inputs.iter().collect();
            let batched = suffix.forward_inference_batch(&refs).unwrap();
            let proba_batched = suffix.predict_proba_batch(&refs, 0.1).unwrap();
            for (i, input) in inputs.iter().enumerate() {
                assert_eq!(
                    batched[i],
                    suffix.forward(input, false).unwrap(),
                    "freeze {freeze}, item {i}"
                );
                assert_eq!(
                    proba_batched[i],
                    suffix.predict_proba(input, 0.1).unwrap(),
                    "freeze {freeze}, item {i}"
                );
            }
        }
    }

    #[test]
    fn batch_inference_propagates_shape_errors() {
        let model = net();
        let suffix = model.trainable_suffix(FreezeLevel::Classifier);
        let good = Matrix::zeros(2, 8);
        let bad = Matrix::zeros(2, 5);
        assert!(suffix.forward_inference_batch(&[&good, &bad]).is_err());
        assert!(suffix.forward_inference_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn set_trainable_vector_roundtrip_and_length_check() {
        let model = net();
        let mut suffix = net().trainable_suffix(FreezeLevel::Classifier);
        let theta = model.trainable_vector(FreezeLevel::Classifier);
        suffix.set_trainable_vector(&theta).unwrap();
        assert_eq!(suffix.trainable_vector(), theta);
        let bad = ParamVector::from_values(vec![0.0; 2]);
        assert!(suffix.set_trainable_vector(&bad).is_err());
    }
}
