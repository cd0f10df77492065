//! The traced replay: `Simulation::run_labelled` and `Client::local_update`
//! rebuilt from the layers' public functions, with a span around every call
//! into a layer.
//!
//! The replay makes the same calls in the same order as the program, so its
//! history is bit-identical to an untraced `Simulation::run_labelled` run —
//! the benchmark checks this on every traced run rather than assuming it.
//! Spans live only here; no program code is instrumented.

use crate::trace;
use fedft_core::comm::{round_traffic, RoundTraffic};
use fedft_core::{
    Client, ClientPool, ClientUpdate, ExecutionBackend, FlConfig, FlError, LocalAlgorithm,
    ParticipationModel, RoundExecutor, RoundOutcome, RoundRecord, RunResult, SelectionContext,
    Server, StreamingExecutor,
};
use fedft_data::{Dataset, FederatedDataset};
use fedft_nn::{BlockNet, ProximalTerm, Sgd};
use fedft_tensor::{rng, Matrix};
use rand::seq::SliceRandom;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

type Result<T> = fedft_core::Result<T>;

/// Counters of the per-client θ check a verifying replay performs.
#[derive(Debug, Default)]
pub struct UpdateChecks {
    /// Client updates replayed and compared against `Client::local_update`.
    pub checked: AtomicUsize,
    /// Replayed updates that differed from `Client::local_update` in any bit.
    pub mismatched: AtomicUsize,
}

/// The round executor of the traced replay: a copy of `ParallelExecutor`
/// (same `pool::run_chunks` split, same `single_threaded` scope per chunk)
/// that trains each participant through [`replay_local_update`] inside an
/// `executor.train` span.
#[derive(Debug)]
pub struct TracedParallel {
    max_threads: Option<usize>,
    checks: Option<Arc<UpdateChecks>>,
}

impl TracedParallel {
    /// With `checks`, every replayed update is also computed by
    /// `Client::local_update` and compared bit for bit.
    pub fn new(max_threads: Option<usize>, checks: Option<Arc<UpdateChecks>>) -> Self {
        TracedParallel {
            max_threads,
            checks,
        }
    }

    fn update(
        &self,
        client: &Client,
        model: &BlockNet,
        config: &FlConfig,
        round: usize,
    ) -> Result<ClientUpdate> {
        let replayed = replay_local_update(client, model, config, round)?;
        if let Some(checks) = &self.checks {
            let reference = client.local_update(model, config, round)?;
            checks.checked.fetch_add(1, Ordering::Relaxed);
            if !same_bits(&replayed, &reference) {
                checks.mismatched.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(replayed)
    }
}

impl RoundExecutor for TracedParallel {
    fn name(&self) -> &'static str {
        "traced-parallel"
    }

    fn run_round(
        &self,
        participants: &[&Client],
        global_model: &BlockNet,
        config: &FlConfig,
        round: usize,
    ) -> Result<RoundOutcome> {
        if participants.is_empty() {
            return Err(FlError::NoParticipants { round });
        }
        let workers = self
            .max_threads
            .unwrap_or_else(fedft_tensor::pool::hardware_threads)
            .min(participants.len());
        let mut train = trace::span("executor.train", round, None);
        train.set_arg(workers as u64);
        let updates = if workers <= 1 {
            participants
                .iter()
                .map(|client| self.update(client, global_model, config, round))
                .collect::<Result<Vec<ClientUpdate>>>()?
        } else {
            let parent = train.id();
            let chunks: Vec<Result<Vec<ClientUpdate>>> =
                fedft_tensor::pool::run_chunks(participants.len(), workers, |range| {
                    trace::with_parent(parent, || {
                        fedft_tensor::parallel::single_threaded(|| {
                            participants[range]
                                .iter()
                                .map(|client| self.update(client, global_model, config, round))
                                .collect::<Result<Vec<ClientUpdate>>>()
                        })
                    })
                });
            let mut updates = Vec::with_capacity(participants.len());
            for chunk in chunks {
                updates.extend(chunk?);
            }
            updates
        };
        drop(train);
        Ok(RoundOutcome::completed(updates))
    }
}

/// The executor a traced run uses for `config`'s backend: the traced
/// parallel executor, wrapped by the streaming scheduler when the workload
/// streams.
///
/// # Errors
///
/// Returns [`FlError::InvalidConfig`] for a backend no workload uses.
pub fn traced_executor(
    config: &FlConfig,
    checks: Option<Arc<UpdateChecks>>,
) -> Result<Box<dyn RoundExecutor>> {
    let inner = TracedParallel::new(config.worker_threads, checks);
    match config.execution {
        ExecutionBackend::Parallel => Ok(Box::new(inner)),
        ExecutionBackend::Streaming(params) => Ok(Box::new(StreamingExecutor::over(params, inner))),
        other => Err(FlError::InvalidConfig {
            what: format!("the traced replay has no executor for backend {other:?}"),
        }),
    }
}

fn same_bits(a: &ClientUpdate, b: &ClientUpdate) -> bool {
    a.client_id == b.client_id
        && a.selected_samples == b.selected_samples
        && a.local_samples == b.local_samples
        && a.train_loss.to_bits() == b.train_loss.to_bits()
        && a.compute_seconds.to_bits() == b.compute_seconds.to_bits()
        && a.cached_compute_seconds.to_bits() == b.cached_compute_seconds.to_bits()
        && a.theta.len() == b.theta.len()
        && a.theta
            .values()
            .iter()
            .zip(b.theta.values())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `Client::local_update`, rebuilt from public calls with a span around
/// each layer: `cache.lookup` (`FeatureCache::get_or_build`),
/// `nn.frozen_forward` (`BlockNet::forward_frozen`, over the whole shard
/// before scoring and over every batch when the cache is off),
/// `select.score` (`DataSelectionPolicy::select` for score-based policies)
/// and `nn.train` (`SuffixNet::train_batch`). Everything else — batch
/// gathers, shuffles, θ snapshots, cost accounting — is the client's own
/// time inside `client.update`.
///
/// The program scores through a lazily built boundary; the replay builds
/// the same boundary eagerly with the same call so the frozen forward and
/// the scoring get separate spans. Both run `forward_frozen` once over the
/// full shard, so the values are identical.
///
/// # Errors
///
/// The same errors as `Client::local_update`.
pub fn replay_local_update(
    client: &Client,
    global_model: &BlockNet,
    config: &FlConfig,
    round: usize,
) -> Result<ClientUpdate> {
    let id = client.id();
    let data: &Dataset = client.data();
    let mut update_span = trace::span("client.update", round, Some(id));
    update_span.set_arg(data.len() as u64);
    let freeze = config.freeze_for_client(id);
    if data.is_empty() {
        return Err(FlError::InvalidConfig {
            what: format!("client {id} has no local data to select from"),
        });
    }
    let frozen_prefix = freeze.frozen_blocks() > 0;
    let cached_boundary: Option<Arc<Matrix>> = if config.feature_cache && frozen_prefix {
        let mut span = trace::span("cache.lookup", round, Some(id));
        span.set_arg(data.len() as u64);
        Some(
            client
                .feature_cache()
                .get_or_build(global_model, freeze, data.features())?,
        )
    } else {
        None
    };

    let mut suffix = global_model.trainable_suffix(freeze);
    let policy = config.selection.policy();
    let scores = policy.needs_inference_pass();
    let eager_boundary: Option<Matrix> = if cached_boundary.is_none() && frozen_prefix && scores {
        let mut span = trace::span("nn.frozen_forward", round, Some(id));
        span.set_arg(data.len() as u64);
        Some(global_model.forward_frozen(freeze, data.features())?)
    } else {
        None
    };
    let selected_indices = {
        let mut span = scores.then(|| trace::span("select.score", round, Some(id)));
        if let Some(span) = &mut span {
            span.set_arg(data.len() as u64);
        }
        let boundary: Option<&Matrix> = match (&cached_boundary, &eager_boundary) {
            (Some(cached), _) => Some(cached),
            (None, Some(built)) => Some(built),
            (None, None) if !frozen_prefix => Some(data.features()),
            (None, None) => None,
        };
        let mut ctx = match boundary {
            Some(boundary) => SelectionContext::with_boundary(
                &mut suffix,
                boundary,
                data.labels(),
                round,
                id,
                config.seed,
            ),
            None => SelectionContext::with_lazy_boundary(
                &mut suffix,
                global_model,
                freeze,
                data.features(),
                data.labels(),
                round,
                id,
                config.seed,
            ),
        };
        policy.select(&mut ctx)?
    };
    let selected_labels: Vec<usize> = selected_indices.iter().map(|&i| data.labels()[i]).collect();

    let mut optimizer = Sgd::new(config.sgd)?;
    if let LocalAlgorithm::FedProx { mu } = config.algorithm {
        optimizer.set_proximal(Some(ProximalTerm {
            mu,
            reference: suffix.trainable_vector(),
        }));
    }
    let mut order: Vec<usize> = (0..selected_indices.len()).collect();
    let mut train_loss = 0.0_f32;
    let shuffle_stream = format!("client-{id}-round-{round}-epoch");
    let mut batch_rows: Vec<usize> = Vec::with_capacity(config.batch_size);
    let mut batch_labels: Vec<usize> = Vec::with_capacity(config.batch_size);
    let mut gather = Matrix::default();
    for epoch in 0..config.local_epochs {
        let mut shuffle_rng = rng::rng_for_indexed(config.seed, &shuffle_stream, epoch as u64);
        order.shuffle(&mut shuffle_rng);
        let mut epoch_loss = 0.0_f32;
        let mut batches = 0usize;
        for chunk in order.chunks(config.batch_size) {
            batch_rows.clear();
            batch_rows.extend(chunk.iter().map(|&i| selected_indices[i]));
            batch_labels.clear();
            batch_labels.extend(chunk.iter().map(|&i| selected_labels[i]));
            let frozen_out: Matrix;
            let boundary: &Matrix = match &cached_boundary {
                Some(all) => {
                    all.select_rows_into(&batch_rows, &mut gather);
                    &gather
                }
                None if !frozen_prefix => {
                    data.features().select_rows_into(&batch_rows, &mut gather);
                    &gather
                }
                None => {
                    data.features().select_rows_into(&batch_rows, &mut gather);
                    let mut span = trace::span("nn.frozen_forward", round, Some(id));
                    span.set_arg(batch_rows.len() as u64);
                    frozen_out = global_model.forward_frozen(freeze, &gather)?;
                    &frozen_out
                }
            };
            let mut span = trace::span("nn.train", round, Some(id));
            span.set_arg(batch_rows.len() as u64);
            epoch_loss += suffix.train_batch(boundary, &batch_labels, &mut optimizer)?;
            drop(span);
            batches += 1;
        }
        train_loss = epoch_loss / batches.max(1) as f32;
    }

    let flops = global_model.flops_per_sample(freeze);
    let selection_pass = config.selection.needs_inference_pass();
    let compute_seconds = config.cost.client_round_seconds(
        &flops,
        data.len(),
        selected_indices.len(),
        config.local_epochs,
        selection_pass,
    );
    let cached_compute_seconds = config.cost.cached_client_round_seconds(
        &flops,
        data.len(),
        selected_indices.len(),
        config.local_epochs,
        selection_pass,
    );
    Ok(ClientUpdate {
        client_id: id,
        theta: suffix.trainable_vector(),
        selected_samples: selected_indices.len(),
        local_samples: data.len(),
        train_loss,
        compute_seconds,
        cached_compute_seconds,
    })
}

/// `Simulation::run_labelled`, rebuilt from public calls with spans around
/// `ClientPool::build` (`pool.build`), the run's per-client preparation
/// (`run.prepare`), and per round (`round`) client selection
/// (`participation.sample`), the executor (`executor.run_round`),
/// aggregation (`server.aggregate`) and evaluation (`eval.accuracy`,
/// `eval.loss`). The rest of a round — applying θ, cost and wall-clock
/// bookkeeping, cache snapshots — is the round's own time.
///
/// `config` must already be validated (it comes from a `Simulation`).
///
/// # Errors
///
/// The same errors as `Simulation::run_labelled`.
pub fn replay_simulation(
    config: &FlConfig,
    executor: &dyn RoundExecutor,
    data: &FederatedDataset,
    initial_model: &BlockNet,
) -> Result<RunResult> {
    let _run = trace::span("run", 0, None);
    if data.test().is_empty() {
        return Err(FlError::InvalidConfig {
            what: "the federated dataset has an empty test set".into(),
        });
    }
    for (k, shard) in data.clients().iter().enumerate() {
        if shard.is_empty() {
            return Err(FlError::InvalidConfig {
                what: format!("client {k} has an empty data shard"),
            });
        }
        if shard.feature_dim() != initial_model.input_dim() {
            return Err(FlError::InvalidConfig {
                what: format!(
                    "client {k} feature dim {} does not match model input dim {}",
                    shard.feature_dim(),
                    initial_model.input_dim()
                ),
            });
        }
    }

    let pool = {
        let mut span = trace::span("pool.build", 0, None);
        let pool = ClientPool::build(data, config)?;
        span.set_arg(pool.num_logical() as u64);
        pool
    };
    let clients = pool.clients();
    let prepare = trace::span("run.prepare", 0, None);
    let participation = ParticipationModel::new(config.participation)?;
    let server = Server::new();
    let mut global_model = initial_model.clone();
    let mut rounds = Vec::with_capacity(config.rounds);
    let mut cumulative_seconds = 0.0_f64;
    let mut cumulative_seconds_cached = 0.0_f64;
    let mut cumulative_wall = 0.0_f64;
    let hetero = &config.heterogeneity;
    let tier_traffic: Vec<RoundTraffic> = (0..hetero.num_tiers())
        .map(|t| round_traffic(&global_model, config.effective_freeze(t)))
        .collect();
    let profiles: Vec<_> = (0..clients.len())
        .map(|id| hetero.profile_for(id, config.seed))
        .collect();
    let tier_compute: Vec<f64> = profiles.iter().map(|p| p.tier.compute).collect();
    let shards: Vec<Arc<Dataset>> = clients.iter().map(|c| Arc::clone(c.shard())).collect();
    let client_selection = config.client_selection.policy(&tier_compute, &shards);
    let mut cache_stats_before = pool.cache_stats();
    drop(prepare);

    for round in 0..config.rounds {
        let _round_span = trace::span("round", round, None);
        let participant_ids = {
            let mut span = trace::span("participation.sample", round, None);
            let ids = client_selection.sample_round(&participation, round, config.seed);
            span.set_arg(ids.len() as u64);
            ids
        };
        let participants: Vec<&Client> = participant_ids.iter().map(|&id| &clients[id]).collect();
        let outcome = {
            let mut span = trace::span("executor.run_round", round, None);
            let outcome = executor.run_round(&participants, &global_model, config, round)?;
            span.set_arg(outcome.updates.len() as u64);
            outcome
        };
        let updates = &outcome.updates;
        let update_staleness = outcome.update_staleness();

        let is_flush = outcome.timing.as_ref().is_some_and(|t| t.flush.is_some());
        if !updates.is_empty() {
            let theta = {
                let mut span = trace::span("server.aggregate", round, None);
                span.set_arg(updates.len() as u64);
                if config.tier_freeze.is_some() {
                    let current = global_model.trainable_vector(config.freeze);
                    server.aggregate_mixed(updates, &current, round)?
                } else if is_flush {
                    server.aggregate_buffered(updates, &update_staleness, round)?
                } else {
                    server.aggregate_stale(updates, &update_staleness, round)?
                }
            };
            global_model.set_trainable_vector(config.freeze, &theta)?;
        }

        let test = data.test();
        let test_accuracy = {
            let mut span = trace::span("eval.accuracy", round, None);
            span.set_arg(test.len() as u64);
            global_model.evaluate_accuracy(test.features(), test.labels())?
        };
        let test_loss = {
            let mut span = trace::span("eval.loss", round, None);
            span.set_arg(test.len() as u64);
            global_model.evaluate_loss(test.features(), test.labels())?
        };
        let round_client_seconds: f64 = updates.iter().map(|u| u.compute_seconds).sum();
        cumulative_seconds += round_client_seconds;
        let round_client_seconds_cached: f64 =
            updates.iter().map(|u| u.cached_compute_seconds).sum();
        cumulative_seconds_cached += round_client_seconds_cached;
        let mean_train_loss =
            updates.iter().map(|u| u.train_loss).sum::<f32>() / updates.len().max(1) as f32;
        let selected_samples = updates.iter().map(|u| u.selected_samples).sum();

        let mut tier_participants = vec![0usize; hetero.num_tiers()];
        for update in updates {
            tier_participants[profiles[update.client_id].tier_index] += 1;
        }
        let round_wall_seconds = if let Some(timing) = &outcome.timing {
            timing.round_wall_seconds
        } else {
            let mut slowest = 0.0_f64;
            for update in updates {
                let profile = &profiles[update.client_id];
                let effective = hetero.simulated_round_seconds(
                    profile,
                    update.compute_seconds,
                    &tier_traffic[profile.tier_index],
                );
                slowest = slowest.max(effective);
            }
            if !outcome.drops.is_empty() && config.deadline_seconds.is_finite() {
                config.deadline_seconds
            } else {
                slowest
            }
        };
        cumulative_wall += round_wall_seconds;
        let cache_stats = pool.cache_stats();
        let cache_round = cache_stats.delta_since(&cache_stats_before);
        cache_stats_before = cache_stats;

        rounds.push(RoundRecord {
            round: round + 1,
            test_accuracy,
            test_loss,
            mean_train_loss,
            participants: updates.len(),
            dropped_clients: outcome.dropped(),
            tier_participants,
            selected_samples,
            update_staleness,
            round_client_seconds,
            cumulative_client_seconds: cumulative_seconds,
            round_client_seconds_cached,
            cumulative_client_seconds_cached: cumulative_seconds_cached,
            round_wall_seconds,
            cumulative_wall_seconds: cumulative_wall,
            cache_hits: cache_round.hits,
            cache_misses: cache_round.misses,
            cache_evictions: cache_round.evictions,
            cache_peak_bytes: cache_round.peak_bytes,
            flush: outcome.timing.as_ref().and_then(|t| t.flush.clone()),
        });
    }
    Ok(RunResult::new("traced-replay", rounds))
}

/// Where a traced history first differs from the untraced one, or `None`
/// when they agree on every learning-history field and every flush record.
pub fn first_divergence(traced: &RunResult, untraced: &RunResult) -> Option<String> {
    if traced.rounds.len() != untraced.rounds.len() {
        return Some(format!(
            "{} rounds replayed, {} run",
            traced.rounds.len(),
            untraced.rounds.len()
        ));
    }
    let traced_history = traced.learning_history();
    let untraced_history = untraced.learning_history();
    for (i, (a, b)) in traced.rounds.iter().zip(&untraced.rounds).enumerate() {
        let fields = [
            (
                "test_accuracy",
                a.test_accuracy.to_bits() != b.test_accuracy.to_bits(),
            ),
            ("test_loss", a.test_loss.to_bits() != b.test_loss.to_bits()),
            ("participants", a.participants != b.participants),
            ("selected_samples", a.selected_samples != b.selected_samples),
            ("flush", a.flush != b.flush),
            ("history", traced_history[i] != untraced_history[i]),
        ];
        if let Some((field, _)) = fields.iter().find(|(_, differs)| *differs) {
            return Some(format!("round {}: {field} differs", i + 1));
        }
    }
    None
}
