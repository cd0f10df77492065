//! Softmax cross-entropy loss.

use crate::{NnError, Result};
use fedft_tensor::{stats, Matrix};

/// Combined softmax + cross-entropy loss with integer targets.
///
/// Combining the two yields the numerically pleasant gradient
/// `softmax(logits) - one_hot(labels)` (averaged over the batch).
///
/// # Example
///
/// ```
/// use fedft_nn::SoftmaxCrossEntropy;
/// use fedft_tensor::Matrix;
///
/// # fn main() -> Result<(), fedft_nn::NnError> {
/// let loss = SoftmaxCrossEntropy::new();
/// let logits = Matrix::from_rows(&[vec![5.0, 0.0], vec![0.0, 5.0]]).unwrap();
/// let (value, grad) = loss.forward_backward(&logits, &[0, 1])?;
/// assert!(value < 0.1);           // confident and correct -> small loss
/// assert_eq!(grad.shape(), (2, 2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SoftmaxCrossEntropy {
    _private: (),
}

impl SoftmaxCrossEntropy {
    /// Creates the loss function.
    pub fn new() -> Self {
        SoftmaxCrossEntropy { _private: () }
    }

    /// Computes the mean cross-entropy loss over the batch.
    ///
    /// # Errors
    ///
    /// Returns an error when shapes and labels are inconsistent.
    pub fn loss(&self, logits: &Matrix, labels: &[usize]) -> Result<f32> {
        self.check(logits, labels)?;
        let log_probs = stats::log_softmax(logits)?;
        let mut total = 0.0_f32;
        for (i, &label) in labels.iter().enumerate() {
            total -= log_probs.get(i, label);
        }
        Ok(total / labels.len() as f32)
    }

    /// Computes the loss value and the gradient with respect to the logits.
    ///
    /// The gradient is already divided by the batch size, so downstream
    /// layers receive the gradient of the *mean* loss.
    ///
    /// One pass per row: the max-shifted exponentials are computed once and
    /// serve both the softmax and the log-sum-exp of the label's
    /// log-probability. Bit-identical to [`stats::softmax`] and
    /// [`stats::log_softmax`] computed separately: both sum the same
    /// exponentials left to right from zero.
    ///
    /// # Errors
    ///
    /// Returns an error when shapes and labels are inconsistent.
    pub fn forward_backward(&self, logits: &Matrix, labels: &[usize]) -> Result<(f32, Matrix)> {
        self.check(logits, labels)?;
        let n = labels.len() as f32;
        let mut grad = Matrix::zeros(logits.rows(), logits.cols());
        let mut total = 0.0_f32;
        for (i, &label) in labels.iter().enumerate() {
            let row = logits.row(i);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let probs = grad.row_mut(i);
            let mut denom = 0.0_f32;
            for (p, &z) in probs.iter_mut().zip(row) {
                let e = (z - max).exp();
                *p = e;
                denom += e;
            }
            for p in probs.iter_mut() {
                *p /= denom;
            }
            total -= row[label] - (denom.ln() + max);
            probs[label] -= 1.0;
        }
        grad.scale_assign(1.0 / n);
        Ok((total / n, grad))
    }

    fn check(&self, logits: &Matrix, labels: &[usize]) -> Result<()> {
        if logits.rows() == 0 || logits.rows() != labels.len() {
            return Err(NnError::Tensor(fedft_tensor::TensorError::ShapeMismatch {
                op: "cross_entropy",
                lhs: logits.shape(),
                rhs: (labels.len(), 1),
            }));
        }
        for &label in labels {
            if label >= logits.cols() {
                return Err(NnError::LabelOutOfRange {
                    label,
                    num_classes: logits.cols(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_c_loss() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Matrix::zeros(4, 10);
        let value = loss.loss(&logits, &[0, 1, 2, 3]).unwrap();
        assert!((value - (10.0_f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn confident_correct_predictions_have_small_loss() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Matrix::from_rows(&[vec![10.0, 0.0], vec![0.0, 10.0]]).unwrap();
        assert!(loss.loss(&logits, &[0, 1]).unwrap() < 1e-3);
        assert!(loss.loss(&logits, &[1, 0]).unwrap() > 5.0);
    }

    #[test]
    fn gradient_matches_softmax_minus_onehot() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Matrix::from_rows(&[vec![1.0, 2.0, 0.5]]).unwrap();
        let (_, grad) = loss.forward_backward(&logits, &[1]).unwrap();
        let probs = stats::softmax(&logits).unwrap();
        assert!((grad.get(0, 0) - probs.get(0, 0)).abs() < 1e-6);
        assert!((grad.get(0, 1) - (probs.get(0, 1) - 1.0)).abs() < 1e-6);
        // Gradient rows sum to zero.
        assert!(grad.sum_rows().as_slice().iter().all(|_| true));
        assert!(grad.row(0).iter().sum::<f32>().abs() < 1e-6);
    }

    #[test]
    fn fused_pass_is_bit_identical_to_softmax_and_log_softmax() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Matrix::from_rows(&[
            vec![0.3, -0.7, 1.2, 40.0],
            vec![2.0, 0.0, -1.0, -90.0],
            vec![-3.5, -3.5, 8.25, 0.0],
        ])
        .unwrap();
        let labels = [2, 0, 3];
        let (value, grad) = loss.forward_backward(&logits, &labels).unwrap();
        // The two-pass reference the fused loop replaced.
        let mut expected = stats::softmax(&logits).unwrap();
        let log_probs = stats::log_softmax(&logits).unwrap();
        let mut total = 0.0_f32;
        for (i, &label) in labels.iter().enumerate() {
            total -= log_probs.get(i, label);
            expected.set(i, label, expected.get(i, label) - 1.0);
        }
        expected.scale_assign(1.0 / 3.0);
        assert_eq!((total / 3.0).to_bits(), value.to_bits());
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&expected), bits(&grad));
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Matrix::from_rows(&[vec![0.3, -0.7, 1.2], vec![2.0, 0.0, -1.0]]).unwrap();
        let labels = [2, 0];
        let (_, grad) = loss.forward_backward(&logits, &labels).unwrap();
        let eps = 1e-2;
        for r in 0..2 {
            for c in 0..3 {
                let mut plus = logits.clone();
                plus.set(r, c, logits.get(r, c) + eps);
                let mut minus = logits.clone();
                minus.set(r, c, logits.get(r, c) - eps);
                let numeric = (loss.loss(&plus, &labels).unwrap()
                    - loss.loss(&minus, &labels).unwrap())
                    / (2.0 * eps);
                assert!((numeric - grad.get(r, c)).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn rejects_bad_labels_and_shapes() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Matrix::zeros(2, 3);
        assert!(matches!(
            loss.loss(&logits, &[0, 5]).unwrap_err(),
            NnError::LabelOutOfRange { label: 5, .. }
        ));
        assert!(loss.loss(&logits, &[0]).is_err());
        assert!(loss.loss(&Matrix::zeros(0, 3), &[]).is_err());
    }
}
