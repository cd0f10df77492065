//! Cross-commit golden digest of the suffix training step.
//!
//! Every other bit-identity contract compares two paths of one build. This
//! one pins the learning outcome itself against a committed constant, so a
//! change to the training step (layer backward, optimiser, GEMM kernels) is
//! proven bit-identical to the code that produced the constant, not just
//! self-consistent.
//!
//! The digest is 64-bit FNV-1a over the bits of, for every configuration in
//! {every `FreezeLevel`} × {FedAvg, FedProx} × {all data, entropy
//! selection}:
//!
//! * one client's uploaded θ, train loss and simulated compute seconds
//!   (`Client::local_update`);
//! * each round's test accuracy, test loss, mean train loss and simulated
//!   client seconds from a short run's `learning_history()`.
//!
//! The model has 10 classes (narrow classifier products) and hidden widths
//! that are not multiples of the 16-column register block, and the batch
//! size leaves remainder rows (`12 % 8 != 0`), so every kernel edge path the
//! training step takes is covered. FMA builds round each multiply-add once,
//! so they have their own constant.

use fedft::core::{
    Client, FlConfig, LocalAlgorithm, Method, RoundRecord, SelectionStrategy, Simulation,
};
use fedft::data::federated::PartitionScheme;
use fedft::data::{domains, FederatedDataset};
use fedft::nn::{BlockNet, BlockNetConfig, FreezeLevel};

/// Digest on targets with hardware FMA (e.g. `-C target-cpu=native` on any
/// x86-64 from Haswell on, which `.cargo/config.toml` selects).
const GOLDEN_FMA: u64 = 0x0eb9_2fff_382f_5556;

/// Digest on targets without FMA (e.g. `RUSTFLAGS="-C target-cpu=x86-64"`).
const GOLDEN_NO_FMA: u64 = 0x8deb_4cb3_28f9_3a1b;

const BATCH: usize = 12;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f32(&mut self, v: f32) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }
}

fn setup() -> (FederatedDataset, BlockNet) {
    let target = domains::cifar10_like()
        .with_samples_per_class(9)
        .with_test_samples_per_class(4)
        .generate(17)
        .expect("target generation");
    assert_eq!(target.train.num_classes(), 10);
    let fed = FederatedDataset::partition(
        &target.train,
        target.test.clone(),
        3,
        PartitionScheme::Dirichlet { alpha: 0.5 },
        19,
    )
    .expect("partitioning");
    let model_cfg = BlockNetConfig::new(target.train.feature_dim(), target.train.num_classes())
        .with_hidden(40, 24, 20);
    (fed, BlockNet::new(&model_cfg, 23))
}

fn configs() -> Vec<(String, FlConfig)> {
    let selections = [
        ("all", SelectionStrategy::All),
        (
            "eds",
            Method::FedFtEds { pds: 0.5 }
                .configure(FlConfig::default())
                .selection,
        ),
    ];
    let algorithms = [
        ("fedavg", LocalAlgorithm::FedAvg),
        ("fedprox", LocalAlgorithm::FedProx { mu: 0.05 }),
    ];
    let mut out = Vec::new();
    for freeze in FreezeLevel::all() {
        for (alg_name, algorithm) in algorithms {
            for (sel_name, selection) in selections {
                let config = FlConfig::default()
                    .with_rounds(2)
                    .with_local_epochs(2)
                    .with_batch_size(BATCH)
                    .with_seed(29)
                    .with_freeze(freeze)
                    .with_algorithm(algorithm)
                    .with_selection(selection);
                out.push((format!("{freeze}/{alg_name}/{sel_name}"), config));
            }
        }
    }
    out
}

fn digest_history(h: &mut Fnv, history: &[RoundRecord]) {
    for r in history {
        h.f32(r.test_accuracy);
        h.f32(r.test_loss);
        h.f32(r.mean_train_loss);
        h.f64(r.round_client_seconds);
        h.f64(r.round_client_seconds_cached);
    }
}

#[test]
fn training_step_matches_the_golden_digest() {
    let (fed, model) = setup();
    let mut total = Fnv::new();
    for (name, config) in configs() {
        let mut h = Fnv::new();
        let client = Client::new(0, fed.client(0).clone());
        let update = client.local_update(&model, &config, 1).expect(&name);
        for &v in update.theta.values() {
            h.f32(v);
        }
        h.f32(update.train_loss);
        h.f64(update.compute_seconds);
        h.f64(update.cached_compute_seconds);
        let run = Simulation::new(config)
            .expect(&name)
            .run(&fed, &model)
            .expect(&name);
        digest_history(&mut h, &run.learning_history());
        println!("{name}: {:016x}", h.0);
        total.bytes(&h.0.to_le_bytes());
    }
    let expected = if cfg!(target_feature = "fma") {
        GOLDEN_FMA
    } else {
        GOLDEN_NO_FMA
    };
    assert_eq!(
        total.0, expected,
        "training-step digest {:#018x} differs from the golden {expected:#018x}",
        total.0
    );
}
