//! Criterion micro-benchmarks for the primitives every experiment is built
//! on: matrix multiplication, softmax + entropy scoring, entropy-based
//! selection, weighted aggregation, and a single client local update —
//! uncached (paper-faithful workload) and with the frozen-feature cache.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use fedft_core::entropy::{
    sample_entropies, sample_entropies_batch, sample_entropies_from_boundary,
};
use fedft_core::{Client, ClientUpdate, FlConfig, SelectionStrategy, Server};
use fedft_data::Dataset;
use fedft_nn::{BlockNet, BlockNetConfig, FreezeLevel, ParamVector, Sgd, SgdConfig};
use fedft_tensor::{init, rng, stats, Matrix};

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut r = rng::rng_for(seed, "bench");
    init::normal(&mut r, rows, cols, 0.0, 1.0)
}

fn bench_matmul(c: &mut Criterion) {
    let a = random_matrix(64, 128, 1);
    let b = random_matrix(128, 64, 2);
    c.bench_function("matmul_64x128x64", |bencher| {
        bencher.iter(|| a.matmul(&b).unwrap())
    });

    let big_a = random_matrix(512, 512, 6);
    let big_b = random_matrix(512, 512, 7);
    c.bench_function("matmul_512x512x512", |bencher| {
        bencher.iter(|| big_a.matmul(&big_b).unwrap())
    });
    c.bench_function("matmul_naive_512x512x512", |bencher| {
        bencher.iter(|| big_a.matmul_naive(&big_b).unwrap())
    });
    c.bench_function("matmul_tn_512x512x512", |bencher| {
        bencher.iter(|| big_a.matmul_tn(&big_b).unwrap())
    });
    c.bench_function("matmul_nt_512x512x512", |bencher| {
        bencher.iter(|| big_a.matmul_nt(&big_b).unwrap())
    });

    // The classifier-head shape of a training batch: 10 output columns,
    // narrower than one 16-wide register block.
    let narrow_a = random_matrix(32, 64, 9);
    let narrow_b = random_matrix(64, 10, 10);
    c.bench_function("matmul_32x64x10", |bencher| {
        bencher.iter(|| narrow_a.matmul(&narrow_b).unwrap())
    });
}

/// Batched small GEMM against one shared right-hand side — the per-round
/// suffix shape (every client's activations times the same global weight
/// matrix). The `_batch` form packs `B` once for the whole batch; the
/// `_individual` form is the same arithmetic as N separate `matmul` calls.
fn bench_matmul_batch(c: &mut Criterion) {
    let shared_b = random_matrix(64, 64, 8);
    let batch: Vec<Matrix> = (0..32).map(|i| random_matrix(50, 64, 100 + i)).collect();
    let refs: Vec<&Matrix> = batch.iter().collect();
    c.bench_function("matmul_batch_shared_b_32x_50x64x64", |bencher| {
        bencher.iter(|| shared_b.matmul_batch(&refs).unwrap())
    });
    c.bench_function("matmul_individual_32x_50x64x64", |bencher| {
        bencher.iter(|| {
            refs.iter()
                .map(|a| a.matmul(&shared_b).unwrap())
                .collect::<Vec<_>>()
        })
    });
}

/// One suffix training step (forward, loss, backward, SGD step) on a
/// 32-row batch of boundary activations — the unit of work local training
/// repeats. `Moderate` trains the up block and the classifier from a
/// 64-wide boundary; `Full` trains all four blocks from the raw features.
fn bench_suffix_train_batch(c: &mut Criterion) {
    let model = BlockNet::new(&BlockNetConfig::new(48, 10).with_hidden(64, 64, 64), 1);
    let features = random_matrix(32, 48, 11);
    let labels: Vec<usize> = (0..32).map(|i| i % 10).collect();
    for (name, freeze) in [
        ("suffix_train_batch_moderate_b32_h64", FreezeLevel::Moderate),
        ("suffix_train_batch_full_b32_h64", FreezeLevel::Full),
    ] {
        let boundary = model.forward_frozen(freeze, &features).unwrap();
        let mut suffix = model.trainable_suffix(freeze);
        let mut sgd = Sgd::new(SgdConfig::default()).unwrap();
        c.bench_function(name, |bencher| {
            bencher.iter(|| suffix.train_batch(&boundary, &labels, &mut sgd).unwrap())
        });
    }
}

fn bench_softmax_entropy(c: &mut Criterion) {
    let logits = random_matrix(256, 100, 3);
    // The selector's scoring pass: fused softmax+entropy, bit-identical to
    // the two-pass softmax-then-row_entropies form it replaced.
    c.bench_function("hardened_softmax_entropy_256x100", |bencher| {
        bencher.iter(|| stats::softmax_entropy_rows(&logits, 0.1).unwrap())
    });
}

/// One round's worth of suffix-side entropy scoring over many clients
/// sharing the global suffix: the `_batch` form drives
/// `sample_entropies_batch` (each suffix layer packs its weights once per
/// round), the `_individual` form is the same scoring client by client.
fn bench_suffix_round_batch(c: &mut Criterion) {
    let model = BlockNet::new(&BlockNetConfig::new(48, 10).with_hidden(64, 64, 64), 1);
    let freeze = FreezeLevel::Moderate;
    let boundaries: Vec<Matrix> = (0..32)
        .map(|i| {
            let features = random_matrix(50, 48, 200 + i);
            model.forward_frozen(freeze, &features).unwrap()
        })
        .collect();
    let refs: Vec<&Matrix> = boundaries.iter().collect();
    let suffix = model.trainable_suffix(freeze);
    c.bench_function("suffix_round_batch_32_clients_50_samples", |bencher| {
        bencher.iter(|| sample_entropies_batch(&suffix, &refs, 0.1).unwrap())
    });
    let mut suffix_individual = model.trainable_suffix(freeze);
    c.bench_function("suffix_round_individual_32_clients_50_samples", |bencher| {
        bencher.iter(|| {
            refs.iter()
                .map(|boundary| {
                    sample_entropies_from_boundary(&mut suffix_individual, boundary, 0.1).unwrap()
                })
                .collect::<Vec<_>>()
        })
    });
}

fn bench_entropy_selection(c: &mut Criterion) {
    let mut model = BlockNet::new(&BlockNetConfig::new(48, 10).with_hidden(64, 64, 64), 1);
    let features = random_matrix(200, 48, 4);
    let dataset = Dataset::new(features, (0..200).map(|i| i % 10).collect(), 10).unwrap();
    let strategy = SelectionStrategy::Entropy {
        fraction: 0.1,
        temperature: 0.1,
    };
    c.bench_function("entropy_selection_200_samples", |bencher| {
        bencher.iter(|| {
            let entropies = sample_entropies(&mut model, dataset.features(), 0.1).unwrap();
            strategy.select_from_entropies(&entropies).unwrap()
        })
    });

    // The cached path: boundary activations precomputed once, every
    // selection pass runs the trainable suffix only.
    let freeze = FreezeLevel::Classifier;
    let boundary = model.forward_frozen(freeze, dataset.features()).unwrap();
    let mut suffix = model.trainable_suffix(freeze);
    c.bench_function("entropy_selection_cached_200_samples", |bencher| {
        bencher.iter(|| {
            let entropies = sample_entropies_from_boundary(&mut suffix, &boundary, 0.1).unwrap();
            strategy.select_from_entropies(&entropies).unwrap()
        })
    });
}

fn bench_aggregation(c: &mut Criterion) {
    let server = Server::new();
    let make_updates = |count: usize| -> Vec<ClientUpdate> {
        (0..count)
            .map(|id| ClientUpdate {
                client_id: id,
                theta: ParamVector::from_values(vec![id as f32; 10_000]),
                selected_samples: id + 1,
                local_samples: 100,
                train_loss: 0.1,
                compute_seconds: 1.0,
                cached_compute_seconds: 0.5,
            })
            .collect()
    };
    let updates = make_updates(50);
    c.bench_function("aggregate_50_clients_10k_params", |bencher| {
        bencher.iter(|| server.aggregate(&updates, 0).unwrap())
    });
    // 200 clients × 10k parameters = 2²¹ accumulation steps — over the
    // pooled-aggregation threshold, so this measures the worker-pool path
    // of `ParamVector::weighted_average_refs` (element-partitioned, still
    // bit-identical to the sequential loop).
    let large_cohort = make_updates(200);
    c.bench_function("aggregate_200_clients_10k_params", |bencher| {
        bencher.iter(|| server.aggregate(&large_cohort, 0).unwrap())
    });
}

/// Dispatch-overhead pair for the persistent worker pool: waking parked
/// workers for an (almost) empty fan-out versus paying a fresh
/// `thread::scope` spawn for the same shape. On a single-core host the pool
/// runs the chunks inline — exactly what the executor does there — while
/// the scoped variant still pays real spawns, so the pair quantifies what
/// the pool saves per dispatch on any host.
fn bench_pool_dispatch(c: &mut Criterion) {
    for workers in [2_usize, 4, 8] {
        c.bench_function(
            &format!("pool_dispatch_noop_{workers}_workers"),
            |bencher| {
                bencher.iter(|| {
                    fedft_tensor::pool::run_chunks(workers, workers, |range| range.start)
                        .into_iter()
                        .sum::<usize>()
                })
            },
        );
        c.bench_function(&format!("scoped_spawn_noop_{workers}_workers"), |bencher| {
            bencher.iter(|| {
                let mut total = 0_usize;
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..workers).map(|i| scope.spawn(move || i)).collect();
                    for handle in handles {
                        total += handle.join().unwrap();
                    }
                });
                total
            })
        });
    }
}

fn bench_client_local_update(c: &mut Criterion) {
    let model = BlockNet::new(&BlockNetConfig::new(48, 10).with_hidden(64, 64, 64), 1);
    let features = random_matrix(100, 48, 5);
    let dataset = Dataset::new(features, (0..100).map(|i| i % 10).collect(), 10).unwrap();
    let config = FlConfig::default()
        .with_rounds(1)
        .with_local_epochs(1)
        .with_batch_size(32)
        .with_selection(SelectionStrategy::Entropy {
            fraction: 0.1,
            temperature: 0.1,
        });
    c.bench_function("client_local_update_100_samples", |bencher| {
        bencher.iter_batched(
            || Client::new(0, dataset.clone()),
            |client| client.local_update(&model, &config, 0).unwrap(),
            BatchSize::SmallInput,
        )
    });
}

/// The acceptance pair for the frozen-feature cache: the same local round at
/// `FreezeLevel::Classifier` (deepest frozen prefix, the paper's cheapest
/// client) with the cache off and on. The cached client is shared across
/// iterations so the steady-state (warm-cache) path dominates, mirroring a
/// multi-round run where the build cost amortises away.
fn bench_client_local_update_cached(c: &mut Criterion) {
    let model = BlockNet::new(&BlockNetConfig::new(48, 10).with_hidden(64, 64, 64), 1);
    let features = random_matrix(100, 48, 5);
    let dataset = Dataset::new(features, (0..100).map(|i| i % 10).collect(), 10).unwrap();
    let base = FlConfig::default()
        .with_rounds(1)
        .with_local_epochs(1)
        .with_batch_size(32)
        .with_freeze(FreezeLevel::Classifier)
        .with_selection(SelectionStrategy::Entropy {
            fraction: 0.1,
            temperature: 0.1,
        });
    let uncached_cfg = base.clone();
    let cached_cfg = base.with_feature_cache(true);
    let client = Client::new(0, dataset);
    c.bench_function("client_local_update_classifier_uncached_100_samples", |b| {
        b.iter(|| client.local_update(&model, &uncached_cfg, 0).unwrap())
    });
    c.bench_function("client_local_update_classifier_cached_100_samples", |b| {
        b.iter(|| client.local_update(&model, &cached_cfg, 0).unwrap())
    });
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(20);
    targets = bench_matmul,
        bench_matmul_batch,
        bench_suffix_train_batch,
        bench_softmax_entropy,
        bench_suffix_round_batch,
        bench_entropy_selection,
        bench_aggregation,
        bench_pool_dispatch,
        bench_client_local_update,
        bench_client_local_update_cached
);
criterion_main!(micro);
