//! End-to-end tests of asynchronous bounded-staleness execution.
//!
//! The determinism contract every backend keeps extends to async execution:
//! `ExecutionBackend::Async { max_staleness: 0 }` stalls every dispatch
//! until the fresh global model exists and must reproduce the
//! `SequentialExecutor` round history **bit for bit** — on a homogeneous
//! pool and on a heterogeneous two-tier mix alike. Relaxing the bound
//! overlaps rounds: staleness appears (never above the bound, checked
//! property-style across bounds and seeds), the staleness-discounted
//! aggregation weights stay convex, and the simulated wall clock shrinks.
//! `Async(s)` runs on the streaming event clock, so it must also equal
//! `Streaming` with a cohort-deep buffer, steady arrivals and bound `s`.

use fedft::core::{
    ClientUpdate, ExecutionBackend, FlConfig, FlushTrigger, HeterogeneityModel, Method,
    ParticipationModel, RoundRecord, RunResult, Server, Simulation, StreamingParams,
};
use fedft::data::federated::PartitionScheme;
use fedft::data::{domains, FederatedDataset};
use fedft::nn::{BlockNet, BlockNetConfig, ParamVector};
use fedft::tensor::rng;
use rand::Rng;

const CLIENTS: usize = 12;
const SEED: u64 = 4;

fn setup() -> (FederatedDataset, BlockNet) {
    let target = domains::cifar10_like()
        .with_samples_per_class(24)
        .with_test_samples_per_class(6)
        .generate(2)
        .expect("target generation");
    let fed = FederatedDataset::partition(
        &target.train,
        target.test.clone(),
        CLIENTS,
        PartitionScheme::Iid,
        7,
    )
    .expect("partitioning");
    let model_cfg = BlockNetConfig::new(target.train.feature_dim(), target.train.num_classes())
        .with_hidden(24, 24, 24);
    let model = BlockNet::new(&model_cfg, 5);
    (fed, model)
}

fn base_config() -> FlConfig {
    Method::FedFtEds { pds: 0.25 }.configure(
        FlConfig::default()
            .with_rounds(4)
            .with_local_epochs(2)
            .with_batch_size(16)
            .with_seed(SEED),
    )
}

fn run(config: FlConfig, fed: &FederatedDataset, model: &BlockNet) -> RunResult {
    Simulation::new(config)
        .expect("valid config")
        .run(fed, model)
        .expect("simulation succeeds")
}

/// An async run's rounds with the flush record stripped — every other field
/// stays in the comparison. Async runs on the event clock with a buffer that
/// never fills, so every round must record a drain that flushed the whole
/// buffer: nothing carried in, nothing left in flight.
fn without_drain_flush(result: &RunResult) -> Vec<RoundRecord> {
    result
        .rounds
        .iter()
        .map(|record| {
            let flush = record.flush.as_ref().expect("async rounds record a flush");
            assert_eq!(flush.trigger, FlushTrigger::Drain, "round {}", record.round);
            assert!(
                flush.carried == 0 && flush.remaining == 0,
                "round {}: {flush:?}",
                record.round
            );
            RoundRecord {
                flush: None,
                ..record.clone()
            }
        })
        .collect()
}

#[test]
fn zero_staleness_is_bit_identical_to_the_sequential_executor() {
    let (fed, model) = setup();
    // Homogeneous pool and heterogeneous two-tier mix: in both cases the
    // zero bound must reproduce the sequential history bit for bit — the
    // updates, the aggregation path, the staleness records and the
    // wall-clock accounting.
    for hetero in [
        HeterogeneityModel::uniform(),
        HeterogeneityModel::two_tier(),
    ] {
        let config = base_config().with_heterogeneity(hetero);
        let sequential = run(
            config.clone().with_execution(ExecutionBackend::Sequential),
            &fed,
            &model,
        );
        let zero = run(config.with_async(0), &fed, &model);
        assert_eq!(sequential.rounds, without_drain_flush(&zero));
        assert_eq!(sequential.label, zero.label);
        assert_eq!(zero.max_update_staleness(), 0);
        assert!(zero
            .rounds
            .iter()
            .all(|r| r.update_staleness.len() == r.participants));
    }
}

#[test]
fn zero_staleness_with_offline_draws_matches_the_deadline_backend() {
    let (fed, model) = setup();
    // Availability draws apply to both scheduling backends (same RNG
    // streams), so with offline probability in play Async(0) reproduces the
    // Deadline backend under an infinite deadline — *not* Sequential, which
    // trains everyone. This pins the qualifier on the bit-identity claim.
    let flaky =
        HeterogeneityModel::from_tiers(vec![
            fedft::core::DeviceTier::new("flaky", 1.0, 1.0).with_drop_probability(0.3)
        ]);
    let config = base_config().with_rounds(6).with_heterogeneity(flaky);
    let deadline = run(
        config.clone().with_execution(ExecutionBackend::Deadline),
        &fed,
        &model,
    );
    let zero = run(config.clone().with_async(0), &fed, &model);
    assert_eq!(deadline.rounds, without_drain_flush(&zero));
    assert!(
        zero.total_dropped_clients() > 0,
        "a 30% offline probability over 6 rounds must produce drops"
    );
    let sequential = run(config.serial(), &fed, &model);
    assert_ne!(
        sequential.rounds,
        without_drain_flush(&zero),
        "sequential ignores availability, so histories must diverge"
    );
}

#[test]
fn aggregated_staleness_never_exceeds_the_bound() {
    let (fed, model) = setup();
    // Property-style sweep over bounds, seeds and participation fractions:
    // every recorded update's staleness must respect the configured bound.
    for max_staleness in [0usize, 1, 2, 3] {
        for seed in [1u64, 4, 9] {
            let config = base_config()
                .with_seed(seed)
                .with_participation(0.5)
                .with_heterogeneity(HeterogeneityModel::two_tier())
                .with_async(max_staleness);
            let result = run(config, &fed, &model);
            for record in &result.rounds {
                assert_eq!(record.update_staleness.len(), record.participants);
                for &s in &record.update_staleness {
                    assert!(
                        s <= max_staleness,
                        "round {}: staleness {s} exceeds bound {max_staleness} (seed {seed})",
                        record.round
                    );
                }
            }
            assert!(result.max_update_staleness() <= max_staleness);
        }
    }
}

#[test]
fn staleness_weights_are_convex_for_every_sampled_round() {
    // Property-style: random rounds of updates (selected-sample counts,
    // including the all-zero degenerate case) with random staleness vectors
    // must always yield convex aggregation weights — non-negative, at most
    // one, summing to one — and an aggregate inside the convex hull.
    let server = Server::new();
    let mut r = rng::rng_for(3, "async-staleness-weights");
    for case in 0..200 {
        let n = 1 + (r.gen::<u64>() % 8) as usize;
        let degenerate = case % 17 == 0;
        let mut updates = Vec::with_capacity(n);
        let mut staleness = Vec::with_capacity(n);
        for id in 0..n {
            let selected = if degenerate {
                0
            } else {
                (r.gen::<u64>() % 50) as usize
            };
            let value = r.gen::<f64>() as f32 * 10.0 - 5.0;
            updates.push(ClientUpdate {
                client_id: id,
                theta: ParamVector::from_values(vec![value]),
                selected_samples: selected,
                local_samples: selected.max(1) * 2,
                train_loss: 0.5,
                compute_seconds: 1.0,
                cached_compute_seconds: 0.5,
            });
            staleness.push((r.gen::<u64>() % 6) as usize);
        }
        let weights = server.staleness_weights(&updates, &staleness);
        assert_eq!(weights.len(), n);
        let sum: f32 = weights.iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-5,
            "case {case}: weights sum to {sum}, not 1"
        );
        assert!(weights.iter().all(|&w| (0.0..=1.0 + 1e-6).contains(&w)));

        let theta = server.aggregate_stale(&updates, &staleness, 0).unwrap();
        let lo = updates
            .iter()
            .map(|u| u.theta.values()[0])
            .fold(f32::INFINITY, f32::min);
        let hi = updates
            .iter()
            .map(|u| u.theta.values()[0])
            .fold(f32::NEG_INFINITY, f32::max);
        let v = theta.values()[0];
        assert!(
            (lo - 1e-4..=hi + 1e-4).contains(&v),
            "case {case}: aggregate {v} left the convex hull [{lo}, {hi}]"
        );
    }
}

#[test]
fn overlap_shrinks_the_simulated_wall_clock() {
    let (fed, model) = setup();
    // A *rare* slow tier plus partial participation: the straggler is not
    // sampled every round, so under overlap it can train through rounds it
    // does not participate in — with an abundant slow tier the bottleneck
    // device is resampled back-to-back and its own busy chain pins the
    // timeline on every backend.
    let mix = HeterogeneityModel::from_tiers(vec![
        fedft::core::DeviceTier::new("fast", 0.85, 1.0),
        fedft::core::DeviceTier::new("slow", 0.15, 0.25).with_network(0.5, 0.5),
    ]);
    let config = base_config()
        .with_rounds(6)
        .with_participation(0.5)
        .with_heterogeneity(mix);
    let sync = run(config.clone().serial(), &fed, &model);
    let relaxed = run(config.with_async(2), &fed, &model);
    assert!(
        relaxed.stale_update_count() > 0,
        "the relaxed bound must actually produce stale updates"
    );
    assert!(
        relaxed.total_wall_seconds() < sync.total_wall_seconds(),
        "overlap must shrink the simulated wall clock ({} vs {})",
        relaxed.total_wall_seconds(),
        sync.total_wall_seconds()
    );
    // Client compute is unchanged — only the timeline compresses.
    assert_eq!(sync.total_client_seconds(), relaxed.total_client_seconds());
}

#[test]
fn async_with_finite_deadline_is_rejected_at_construction() {
    let config = base_config().with_async(2).with_deadline(5.0);
    assert!(Simulation::new(config).is_err());
}

#[test]
fn async_is_streaming_with_a_cohort_deep_buffer() {
    let (fed, model) = setup();
    // `Async(s)` is the streaming event clock with a buffer that never
    // fills. A cohort-deep buffer fires `BufferFull` at the same instant a
    // never-filling one drains (the cohort's last completion), so the
    // learning histories must agree bit for bit across participation,
    // device mixes and staleness bounds. Seeds 0 and 4 on the two-tier mix
    // and 10 and 11 on the three-tier mix, at p = 0.5 and s = 3, hit a
    // tie where rounding `busy_until` differently reorders dispatch.
    let mixes = [
        ("uniform", HeterogeneityModel::uniform()),
        ("two-tier", HeterogeneityModel::two_tier()),
        ("three-tier", HeterogeneityModel::three_tier()),
    ];
    for seed in [0u64, 4, 10, 11] {
        for participation in [1.0, 0.5] {
            let cohort = ParticipationModel::new(participation)
                .expect("valid participation")
                .participants_per_round(CLIENTS);
            for (mix, hetero) in &mixes {
                for max_staleness in 0..=3 {
                    let config = base_config()
                        .with_rounds(10)
                        .with_seed(seed)
                        .with_participation(participation)
                        .with_heterogeneity(hetero.clone());
                    let asynchronous = run(config.clone().with_async(max_staleness), &fed, &model);
                    let streaming = run(
                        config.with_streaming(
                            StreamingParams::new(cohort).with_max_staleness(max_staleness),
                        ),
                        &fed,
                        &model,
                    );
                    assert_eq!(
                        asynchronous.learning_history(),
                        streaming.learning_history(),
                        "seed {seed}, p = {participation}, {mix}, s = {max_staleness}"
                    );
                }
            }
        }
    }
}
