//! Property: skipping the input gradient never changes a parameter
//! gradient, bit for bit.
//!
//! The training step asks the bottom trainable layer for no input gradient
//! (nothing below the freeze boundary consumes it). That is only a saving
//! if the accumulated parameter gradients are exactly those of the full
//! backward pass, for every layer type a block can hold.

use fedft_nn::conv::{Conv2d, MaxPool2d, VolumeShape};
use fedft_nn::{BatchNorm1d, Dense, Layer, Relu, Sequential};
use fedft_tensor::{init, rng, Matrix};

fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut r = rng::rng_for(seed, "backward-input-grad");
    init::normal(&mut r, rows, cols, 0.0, 1.0)
}

fn bits(grads: Vec<&Matrix>) -> Vec<Vec<u32>> {
    grads
        .iter()
        .map(|g| g.as_slice().iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn dense_parameter_gradients_do_not_depend_on_the_input_gradient() {
    // 13 rows (a remainder slab), 10 outputs (a narrow product).
    let x = random(13, 24, 1);
    let upstream = random(13, 10, 2);
    let mut full = Dense::new(24, 10, 3);
    let mut lean = full.clone();
    full.forward(&x, true).unwrap();
    lean.forward(&x, true).unwrap();
    let input_grad = full.backward(upstream.clone(), true).unwrap();
    assert_eq!(input_grad.map(|g| g.shape()), Some((13, 24)));
    assert!(lean.backward(upstream, false).unwrap().is_none());
    assert_eq!(bits(full.grads()), bits(lean.grads()));
}

#[test]
fn conv_pool_dense_stack_parameter_gradients_do_not_depend_on_the_input_gradient() {
    let shape = VolumeShape::new(2, 6, 6);
    let conv = Conv2d::new(shape, 3, 3, 1, 4).unwrap();
    let conv_out = conv.output_shape();
    let pool = MaxPool2d::new(conv_out, 2).unwrap();
    let pooled = pool.output_shape().len();
    let mut full = Sequential::new()
        .push(Box::new(conv))
        .push(Box::new(Relu::new(conv_out.len())))
        .push(Box::new(pool))
        .push(Box::new(Dense::new(pooled, 12, 5)))
        .push(Box::new(BatchNorm1d::new(12)))
        .push(Box::new(Relu::new(12)))
        .push(Box::new(Dense::new(12, 7, 6)));
    let mut lean = full.clone();
    let x = random(5, shape.len(), 7);
    let upstream = random(5, 7, 8);
    full.forward(&x, true).unwrap();
    lean.forward(&x, true).unwrap();
    let input_grad = full.backward(upstream.clone(), true).unwrap();
    assert_eq!(input_grad.map(|g| g.shape()), Some(x.shape()));
    assert!(lean.backward(upstream, false).unwrap().is_none());
    assert_eq!(bits(full.grads()), bits(lean.grads()));
}
