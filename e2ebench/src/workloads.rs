//! The benchmark's four workloads: how each one's inputs are generated from
//! the workload seed, and the `FlConfig` it runs under.
//!
//! Every workload is generated from `--seed` alone (data, partitions,
//! pretraining and the run's own seed), so the same seed always yields the
//! same inputs. The label-skewed workloads hold several Dirichlet draws of
//! the same data and cycle their runs through them: with ten shards on two
//! workers, one draw's shard sizes set how evenly the round splits, so a
//! single draw per seed would make the seed, not the program, decide much
//! of `run_s`. [`Scale::Tiny`] shrinks every size while keeping the code
//! path, for the self-tests.

use fedft_core::pretrain::pretrain_global_model;
use fedft_core::{
    ArrivalModel, ClientPool, ExecutionBackend, FlConfig, HeterogeneityModel, Method,
    StreamingParams,
};
use fedft_data::federated::PartitionScheme;
use fedft_data::{domains, DomainBundle, FederatedDataset};
use fedft_nn::{BlockNet, BlockNetConfig, FreezeLevel};
use fedft_tensor::rng;
use std::time::Instant;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper Table II setup under FedFT-EDS (50%), feature cache off.
    EdsPaper,
    /// The same data, model and rounds under FedAvg (full model, all data).
    FedavgPaper,
    /// 100k logical clients over 200 IID shards, FedBuff streaming with a
    /// shared cache registry under a byte budget below the working set.
    Stream100k,
    /// FedFT-EDS with wide, large shards and an unbudgeted cache: per-shard
    /// products cross the packed-GEMM threshold, rounds after the first hit
    /// the cache.
    EdsWide,
}

/// Every workload, in report order.
pub const ALL: [Workload; 4] = [
    Workload::EdsPaper,
    Workload::FedavgPaper,
    Workload::Stream100k,
    Workload::EdsWide,
];

/// Size of a workload: the benchmarked size, or a tiny one for self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The size `BENCHMARK.json` measures.
    Full,
    /// A seconds-scale copy with the same code path, built by the tests.
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

impl Workload {
    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EdsPaper => "eds-paper",
            Workload::FedavgPaper => "fedavg-paper",
            Workload::Stream100k => "stream-100k",
            Workload::EdsWide => "eds-wide",
        }
    }

    /// Resolves a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    fn sizes(self, scale: Scale) -> Sizes {
        let paper = Sizes {
            source_per_class: 250,
            target_per_class: 400,
            test_per_class: 50,
            clients: 10,
            logical_clients: None,
            partition: PartitionScheme::Dirichlet { alpha: 0.5 },
            hidden: 64,
            pretrain_epochs: 20,
            rounds: 10,
            local_epochs: 5,
            batch_size: 32,
            participation: 1.0,
            draws: 4,
        };
        let full = match self {
            Workload::EdsPaper | Workload::FedavgPaper => paper,
            Workload::Stream100k => Sizes {
                source_per_class: 60,
                target_per_class: 1_000,
                test_per_class: 20,
                clients: 200,
                logical_clients: Some(100_000),
                partition: PartitionScheme::Iid,
                hidden: 64,
                pretrain_epochs: 2,
                rounds: 20,
                local_epochs: 1,
                batch_size: 8,
                participation: 150.0 / 100_000.0,
                draws: 1,
            },
            Workload::EdsWide => Sizes {
                source_per_class: 60,
                target_per_class: 1_000,
                test_per_class: 50,
                hidden: 256,
                pretrain_epochs: 2,
                rounds: 4,
                local_epochs: 1,
                ..paper
            },
        };
        match scale {
            Scale::Full => full,
            Scale::Tiny => Sizes {
                source_per_class: 8,
                target_per_class: full.target_per_class / 40,
                test_per_class: 4,
                clients: full.clients.min(6),
                logical_clients: full.logical_clients.map(|_| 600),
                hidden: 16,
                pretrain_epochs: 1,
                rounds: 3,
                local_epochs: full.local_epochs.min(2),
                draws: full.draws.min(2),
                participation: if full.logical_clients.is_some() {
                    30.0 / 600.0
                } else {
                    full.participation
                },
                ..full
            },
        }
    }
}

/// The knobs that size a workload.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    source_per_class: usize,
    target_per_class: usize,
    test_per_class: usize,
    clients: usize,
    logical_clients: Option<usize>,
    partition: PartitionScheme,
    hidden: usize,
    pretrain_epochs: usize,
    rounds: usize,
    local_epochs: usize,
    batch_size: usize,
    participation: f64,
    /// Partition draws the runs cycle through.
    draws: usize,
}

/// Wall seconds of each set-up phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Source and target domain generation plus partitioning.
    pub data_s: f64,
    /// Pretraining on the source domain and head adaptation.
    pub pretrain_s: f64,
    /// One `ClientPool::build` over the workload's config.
    pub pool_build_s: f64,
    /// One dispatch onto the worker pool (spawns its workers the first time).
    pub dispatch_s: f64,
}

impl SetupTimes {
    /// Total set-up seconds.
    pub fn total(&self) -> f64 {
        self.data_s + self.pretrain_s + self.pool_build_s + self.dispatch_s
    }
}

/// A workload's generated inputs, ready to run.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Which workload.
    pub workload: Workload,
    /// The partition draws of the training data; run `i` uses draw
    /// `i % draws.len()`.
    pub draws: Vec<FederatedDataset>,
    /// The initial global model.
    pub model: BlockNet,
    /// The run configuration.
    pub config: FlConfig,
    /// The streaming workload's cache byte budget.
    pub cache_budget: Option<usize>,
}

/// Generates a workload's inputs from `seed`, timing each set-up phase.
///
/// # Errors
///
/// Propagates data-generation, pretraining and pool-building errors.
pub fn prepare(
    workload: Workload,
    scale: Scale,
    seed: u64,
) -> Result<(Prepared, SetupTimes), Box<dyn std::error::Error>> {
    let sizes = workload.sizes(scale);
    let mut times = SetupTimes::default();

    let start = Instant::now();
    let source = domains::source_imagenet32()
        .with_samples_per_class(sizes.source_per_class)
        .with_test_samples_per_class(sizes.test_per_class)
        .generate(seed ^ 0x50)?;
    let target = domains::cifar10_like()
        .with_samples_per_class(sizes.target_per_class)
        .with_test_samples_per_class(sizes.test_per_class)
        .generate(seed ^ 0x7A)?;
    let draws = (0..sizes.draws)
        .map(|draw| {
            FederatedDataset::partition(
                &target.train,
                target.test.clone(),
                sizes.clients,
                sizes.partition,
                rng::derive_seed_indexed(seed, "e2ebench-partition", draw as u64),
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    times.data_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let model = pretrain_global_model(
        &model_config(&target, sizes.hidden),
        &source,
        sizes.pretrain_epochs,
        seed ^ 0x22,
    )?;
    times.pretrain_s = start.elapsed().as_secs_f64();

    let mut config = run_config(workload, &sizes, seed);
    let cache_budget = if workload == Workload::Stream100k {
        Some(half_working_set(&draws[0], &model, config.freeze)?)
    } else {
        None
    };
    if let Some(budget) = cache_budget {
        config = config.with_cache_budget(budget);
    }

    let start = Instant::now();
    let pool = ClientPool::build(&draws[0], &config)?;
    times.pool_build_s = start.elapsed().as_secs_f64();
    drop(pool);

    let start = Instant::now();
    let workers = fedft_tensor::pool::hardware_threads();
    let ran = fedft_tensor::pool::run_chunks(workers, workers, |range| range.len());
    std::hint::black_box(ran);
    times.dispatch_s = start.elapsed().as_secs_f64();

    Ok((
        Prepared {
            workload,
            draws,
            model,
            config,
            cache_budget,
        },
        times,
    ))
}

fn model_config(target: &DomainBundle, hidden: usize) -> BlockNetConfig {
    BlockNetConfig::new(target.train.feature_dim(), target.train.num_classes())
        .with_hidden(hidden, hidden, hidden)
}

fn run_config(workload: Workload, sizes: &Sizes, seed: u64) -> FlConfig {
    let mut base = FlConfig::default()
        .with_rounds(sizes.rounds)
        .with_local_epochs(sizes.local_epochs)
        .with_batch_size(sizes.batch_size)
        .with_seed(seed)
        .with_participation(sizes.participation)
        .with_execution(ExecutionBackend::Parallel);
    if let Some(logical) = sizes.logical_clients {
        base = base.with_logical_clients(logical);
    }
    let eds = Method::FedFtEds { pds: 0.5 };
    match workload {
        Workload::EdsPaper => eds.configure(base),
        Workload::FedavgPaper => Method::FedAvg.configure(base),
        Workload::Stream100k => eds
            .configure(base)
            .with_heterogeneity(HeterogeneityModel::two_tier())
            .with_feature_cache(true)
            .with_streaming(stream_params()),
        Workload::EdsWide => eds.configure(base).with_feature_cache(true),
    }
}

/// FedBuff parameters of the streaming workload: `K` = 140, dispatch
/// staleness bound 2, burst arrivals.
pub fn stream_params() -> StreamingParams {
    StreamingParams::new(140)
        .with_max_staleness(2)
        .with_arrival(ArrivalModel::Burst {
            mean_offset_seconds: 2.0,
        })
}

/// Half the bytes the shared registry holds when every distinct shard's
/// boundary activations are cached: a budget the streaming run must evict
/// to stay under.
fn half_working_set(
    data: &FederatedDataset,
    model: &BlockNet,
    freeze: FreezeLevel,
) -> Result<usize, Box<dyn std::error::Error>> {
    let one_row = data.client(0).features().select_rows(&[0]);
    let boundary_cols = model.forward_frozen(freeze, &one_row)?.cols();
    let rows: usize = data.clients().iter().map(|shard| shard.len()).sum();
    Ok((rows * boundary_cols * std::mem::size_of::<f32>() / 2).max(1))
}
