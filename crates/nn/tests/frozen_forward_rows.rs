//! Property: the frozen forward pass is row-independent, bit for bit.
//!
//! Gathering rows after `forward_frozen` over a whole shard equals running
//! `forward_frozen` on the gathered rows. A client resolves its boundary
//! activations once per update and every training batch gathers from them,
//! so this is what keeps that path bit-identical to a per-batch frozen
//! forward. It holds because every GEMM path accumulates each output
//! element in ascending-`k` order, whatever the row count and whichever
//! kernel (direct or packed) the product size selects.

use fedft_nn::conv::{Conv2d, MaxPool2d, VolumeShape};
use fedft_nn::{BlockNet, BlockNetConfig, Dense, FreezeLevel, Relu, Sequential};
use fedft_tensor::{init, rng, Matrix};
use rand::seq::SliceRandom;

/// Width of every hidden layer, and of the dense input.
const WIDTH: usize = 128;
/// `fedft-tensor` routes products of at least `2^24` multiply-adds through
/// its packed-panel core; smaller ones take the direct kernel.
const PACKED_FLOP_THRESHOLD: usize = 1 << 24;
/// A shard whose first frozen product (`rows × WIDTH × WIDTH`) takes the
/// packed core while every gathered batch below takes the direct kernel.
const LARGE_SHARD: usize = PACKED_FLOP_THRESHOLD / (WIDTH * WIDTH);
const SMALL_SHARD: usize = 48;
const SUBSET_SIZES: [usize; 3] = [1, 7, 32];
/// Random row subsets drawn per size and shard.
const CASES: u64 = 4;

const _: () = {
    assert!(LARGE_SHARD * WIDTH * WIDTH >= PACKED_FLOP_THRESHOLD);
    assert!(SMALL_SHARD * WIDTH * WIDTH < PACKED_FLOP_THRESHOLD);
    assert!(SUBSET_SIZES[2] * WIDTH * WIDTH < PACKED_FLOP_THRESHOLD);
};

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Random row subsets of every tested size, plus the whole shard shuffled.
fn row_subsets(rows: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut subsets = Vec::new();
    let mut all: Vec<usize> = (0..rows).collect();
    for case in 0..CASES {
        all.shuffle(&mut rng::rng_for_indexed(seed, "frozen-rows-subset", case));
        subsets.extend(SUBSET_SIZES.iter().map(|&size| all[..size].to_vec()));
    }
    subsets.push(all);
    subsets
}

/// Checks `gather(forward(x)) ≡ forward(gather(x))` over every subset.
fn assert_row_independent(
    what: &str,
    input: &Matrix,
    forward: impl Fn(&Matrix) -> Matrix,
    seed: u64,
) {
    let whole = forward(input);
    for rows in row_subsets(input.rows(), seed) {
        assert_eq!(
            bits(&whole.select_rows(&rows)),
            bits(&forward(&input.select_rows(&rows))),
            "{what}: {} of {} rows",
            rows.len(),
            input.rows()
        );
    }
}

fn shard(rows: usize, cols: usize, seed: u64) -> Matrix {
    init::normal(
        &mut rng::rng_for(seed, "frozen-rows-shard"),
        rows,
        cols,
        0.0,
        1.0,
    )
}

#[test]
fn dense_blocknet_frozen_forward_is_row_independent() {
    let config = BlockNetConfig::new(WIDTH, 10).with_hidden(WIDTH, WIDTH, WIDTH);
    let net = BlockNet::new(&config, 21);
    for (rows, seed) in [(SMALL_SHARD, 1), (LARGE_SHARD, 2)] {
        let input = shard(rows, WIDTH, seed);
        for freeze in FreezeLevel::all() {
            assert_row_independent(
                &format!("dense, freeze {freeze}"),
                &input,
                |x| net.forward_frozen(freeze, x).unwrap(),
                seed,
            );
        }
    }
}

/// The convolutional counterpart of `BlockNet`'s low / mid / up /
/// classifier groups: a conv + pool low block feeding dense blocks.
fn conv_blocks() -> Vec<Sequential> {
    let image = VolumeShape::new(1, 8, 8);
    let conv = Conv2d::new(image, 8, 3, 1, 31).unwrap();
    let pool = MaxPool2d::new(conv.output_shape(), 2).unwrap();
    let pooled = pool.output_shape().len();
    assert_eq!(pooled, WIDTH);
    let dense = |inputs, outputs, seed| {
        Sequential::new()
            .push(Box::new(Dense::new(inputs, outputs, seed)))
            .push(Box::new(Relu::new(outputs)))
    };
    vec![
        Sequential::new()
            .push(Box::new(conv))
            .push(Box::new(Relu::new(pooled * 4)))
            .push(Box::new(pool)),
        dense(WIDTH, WIDTH, 32),
        dense(WIDTH, WIDTH, 33),
        Sequential::new().push(Box::new(Dense::new(WIDTH, 10, 34))),
    ]
}

#[test]
fn conv_blocks_frozen_forward_is_row_independent() {
    let blocks = conv_blocks();
    for (rows, seed) in [(SMALL_SHARD, 3), (LARGE_SHARD, 4)] {
        let input = shard(rows, 64, seed);
        for freeze in FreezeLevel::all() {
            let prefix = &blocks[..freeze.frozen_blocks()];
            assert_row_independent(
                &format!("conv, freeze {freeze}"),
                &input,
                |x| {
                    prefix.iter().fold(x.clone(), |current, block| {
                        block.forward_frozen(&current).unwrap()
                    })
                },
                seed,
            );
        }
    }
}
