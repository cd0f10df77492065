//! Stochastic gradient descent with momentum, weight decay and an optional
//! FedProx proximal term.

use crate::params::ParamVector;
use crate::{NnError, Result};
use fedft_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of the SGD optimiser.
///
/// The paper uses SGD with a learning rate of `0.1` and momentum `0.5` for
/// local updates, which is this type's [`Default`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SgdConfig {
    /// Step size λ.
    pub learning_rate: f32,
    /// Momentum coefficient in `[0, 1)`.
    pub momentum: f32,
    /// L2 weight decay coefficient.
    pub weight_decay: f32,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            learning_rate: 0.1,
            momentum: 0.5,
            weight_decay: 0.0,
        }
    }
}

impl SgdConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the learning rate is not
    /// positive, the momentum is outside `[0, 1)` or the weight decay is
    /// negative.
    pub fn validate(&self) -> Result<()> {
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return Err(NnError::InvalidConfig {
                what: format!("learning rate must be positive, got {}", self.learning_rate),
            });
        }
        if !(0.0..1.0).contains(&self.momentum) {
            return Err(NnError::InvalidConfig {
                what: format!("momentum must be in [0, 1), got {}", self.momentum),
            });
        }
        if self.weight_decay < 0.0 {
            return Err(NnError::InvalidConfig {
                what: format!(
                    "weight decay must be non-negative, got {}",
                    self.weight_decay
                ),
            });
        }
        Ok(())
    }
}

/// FedProx proximal regulariser `μ/2 · ‖w − w_global‖²` added to the local
/// objective; its gradient `μ · (w − w_global)` is applied inside the
/// optimiser step.
#[derive(Debug, Clone, PartialEq)]
pub struct ProximalTerm {
    /// Proximal coefficient μ.
    pub mu: f32,
    /// Flattened reference parameters (the global model at the start of the
    /// round), aligned with the parameters passed to [`Sgd::step`].
    pub reference: ParamVector,
}

/// SGD optimiser with momentum.
///
/// The optimiser keeps one velocity buffer per parameter tensor. The same
/// parameter tensors (same count, same shapes, same order) must be passed to
/// every [`Sgd::step`] call.
#[derive(Debug, Clone)]
pub struct Sgd {
    config: SgdConfig,
    velocities: Vec<Matrix>,
    proximal: Option<ProximalTerm>,
}

impl Sgd {
    /// Creates an optimiser with the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when the configuration is invalid.
    pub fn new(config: SgdConfig) -> Result<Self> {
        config.validate()?;
        Ok(Sgd {
            config,
            velocities: Vec::new(),
            proximal: None,
        })
    }

    /// The optimiser configuration.
    pub fn config(&self) -> SgdConfig {
        self.config
    }

    /// Installs (or clears) a FedProx proximal term.
    pub fn set_proximal(&mut self, proximal: Option<ProximalTerm>) {
        self.proximal = proximal;
    }

    /// Returns the currently installed proximal term, if any.
    pub fn proximal(&self) -> Option<&ProximalTerm> {
        self.proximal.as_ref()
    }

    /// Applies one SGD update to `params` using `grads`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the number of parameter tensors
    /// changes between calls, a tensor error if shapes are inconsistent, or
    /// [`NnError::ParamLengthMismatch`] if the proximal reference does not
    /// match the total parameter size.
    pub fn step(&mut self, params: &mut [&mut Matrix], grads: &[&Matrix]) -> Result<()> {
        if params.len() != grads.len() {
            return Err(NnError::InvalidConfig {
                what: format!(
                    "parameter/gradient count mismatch: {} vs {}",
                    params.len(),
                    grads.len()
                ),
            });
        }
        if self.velocities.is_empty() {
            self.velocities = params
                .iter()
                .map(|p| Matrix::zeros(p.rows(), p.cols()))
                .collect();
        }
        if self.velocities.len() != params.len() {
            return Err(NnError::InvalidConfig {
                what: format!(
                    "optimiser was initialised with {} tensors but received {}",
                    self.velocities.len(),
                    params.len()
                ),
            });
        }
        if let Some(prox) = &self.proximal {
            let total: usize = params.iter().map(|p| p.len()).sum();
            if prox.reference.len() != total {
                return Err(NnError::ParamLengthMismatch {
                    expected: total,
                    found: prox.reference.len(),
                });
            }
        }

        let mut offset = 0usize;
        for ((param, grad), velocity) in params
            .iter_mut()
            .zip(grads.iter())
            .zip(self.velocities.iter_mut())
        {
            if param.shape() != grad.shape() || param.shape() != velocity.shape() {
                return Err(NnError::Tensor(fedft_tensor::TensorError::ShapeMismatch {
                    op: "sgd_step",
                    lhs: param.shape(),
                    rhs: grad.shape(),
                }));
            }
            let n = param.len();
            let SgdConfig {
                learning_rate,
                momentum,
                weight_decay,
            } = self.config;
            let lanes = param
                .as_mut_slice()
                .iter_mut()
                .zip(grad.as_slice())
                .zip(velocity.as_mut_slice());
            // The FedProx branch is hoisted out of the element loop; both
            // loops apply the same per-element arithmetic in the same order.
            match &self.proximal {
                Some(prox) => {
                    let reference = &prox.reference.values()[offset..offset + n];
                    for (((p, &g), v), &r) in lanes.zip(reference) {
                        let mut g = g + weight_decay * *p;
                        g += prox.mu * (*p - r);
                        *v = momentum * *v + g;
                        *p -= learning_rate * *v;
                    }
                }
                None => {
                    for ((p, &g), v) in lanes {
                        let g = g + weight_decay * *p;
                        *v = momentum * *v + g;
                        *p -= learning_rate * *v;
                    }
                }
            }
            offset += n;
        }
        Ok(())
    }

    /// Clears momentum buffers (used when a client restarts local training
    /// from a freshly downloaded global model).
    pub fn reset_state(&mut self) {
        self.velocities.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_grad(param: &Matrix) -> Matrix {
        // Gradient of f(w) = 0.5 * ||w||^2 is w.
        param.clone()
    }

    #[test]
    fn config_validation() {
        assert!(SgdConfig::default().validate().is_ok());
        assert!(SgdConfig {
            learning_rate: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SgdConfig {
            momentum: 1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SgdConfig {
            weight_decay: -0.1,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(Sgd::new(SgdConfig {
            learning_rate: -1.0,
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn default_matches_paper_hyperparameters() {
        let c = SgdConfig::default();
        assert_eq!(c.learning_rate, 0.1);
        assert_eq!(c.momentum, 0.5);
    }

    #[test]
    fn plain_sgd_minimises_quadratic() {
        let mut sgd = Sgd::new(SgdConfig {
            learning_rate: 0.1,
            momentum: 0.0,
            weight_decay: 0.0,
        })
        .unwrap();
        let mut w = Matrix::full(2, 2, 10.0);
        for _ in 0..200 {
            let g = quadratic_grad(&w);
            sgd.step(&mut [&mut w], &[&g]).unwrap();
        }
        assert!(w.norm() < 1e-3, "did not converge: norm={}", w.norm());
    }

    #[test]
    fn momentum_accelerates_convergence() {
        let run = |momentum: f32| {
            let mut sgd = Sgd::new(SgdConfig {
                learning_rate: 0.05,
                momentum,
                weight_decay: 0.0,
            })
            .unwrap();
            let mut w = Matrix::full(1, 4, 5.0);
            for _ in 0..30 {
                let g = quadratic_grad(&w);
                sgd.step(&mut [&mut w], &[&g]).unwrap();
            }
            w.norm()
        };
        assert!(run(0.9) < run(0.0));
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradient() {
        let mut sgd = Sgd::new(SgdConfig {
            learning_rate: 0.1,
            momentum: 0.0,
            weight_decay: 0.5,
        })
        .unwrap();
        let mut w = Matrix::full(1, 3, 1.0);
        let zero_grad = Matrix::zeros(1, 3);
        sgd.step(&mut [&mut w], &[&zero_grad]).unwrap();
        assert!(w.max() < 1.0);
    }

    #[test]
    fn proximal_term_pulls_towards_reference() {
        let reference = ParamVector::from_values(vec![1.0, 1.0, 1.0]);
        let mut sgd = Sgd::new(SgdConfig {
            learning_rate: 0.1,
            momentum: 0.0,
            weight_decay: 0.0,
        })
        .unwrap();
        sgd.set_proximal(Some(ProximalTerm { mu: 1.0, reference }));
        let mut w = Matrix::full(1, 3, 5.0);
        let zero_grad = Matrix::zeros(1, 3);
        for _ in 0..300 {
            sgd.step(&mut [&mut w], &[&zero_grad]).unwrap();
        }
        // With zero task gradient the proximal term drags w to the reference.
        for &v in w.as_slice() {
            assert!((v - 1.0).abs() < 1e-2, "w={v}");
        }
    }

    #[test]
    fn proximal_length_is_validated() {
        let mut sgd = Sgd::new(SgdConfig::default()).unwrap();
        sgd.set_proximal(Some(ProximalTerm {
            mu: 0.1,
            reference: ParamVector::from_values(vec![0.0; 2]),
        }));
        let mut w = Matrix::zeros(1, 3);
        let g = Matrix::zeros(1, 3);
        assert!(matches!(
            sgd.step(&mut [&mut w], &[&g]).unwrap_err(),
            NnError::ParamLengthMismatch { .. }
        ));
    }

    #[test]
    fn mismatched_counts_and_shapes_error() {
        let mut sgd = Sgd::new(SgdConfig::default()).unwrap();
        let mut w = Matrix::zeros(1, 3);
        assert!(sgd.step(&mut [&mut w], &[]).is_err());
        let g = Matrix::zeros(2, 2);
        assert!(sgd.step(&mut [&mut w], &[&g]).is_err());
    }

    #[test]
    fn reset_state_allows_new_topology() {
        let mut sgd = Sgd::new(SgdConfig::default()).unwrap();
        let mut a = Matrix::zeros(1, 2);
        let ga = Matrix::zeros(1, 2);
        sgd.step(&mut [&mut a], &[&ga]).unwrap();
        // Different number of tensors without reset -> error.
        let mut b = Matrix::zeros(1, 2);
        let gb = Matrix::zeros(1, 2);
        assert!(sgd.step(&mut [&mut a, &mut b], &[&ga, &gb]).is_err());
        sgd.reset_state();
        assert!(sgd.step(&mut [&mut a, &mut b], &[&ga, &gb]).is_ok());
    }
}
