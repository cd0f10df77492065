//! Client-side local update (paper Algorithm 1, lines 6–9).

use crate::cache::FeatureCache;
use crate::config::{FlConfig, LocalAlgorithm};
use crate::policy::SelectionContext;
use crate::{FlError, Result};
use fedft_data::Dataset;
use fedft_nn::{BlockNet, ParamVector, ProximalTerm, Sgd};
use fedft_tensor::{rng, Matrix};
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The result of one client's local round, uploaded to the server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientUpdate {
    /// Id of the client that produced the update.
    pub client_id: usize,
    /// Updated trainable parameters `θ_k^{t+1}`.
    pub theta: ParamVector,
    /// Number of locally selected training samples `|D_{k,select}^t|` — used
    /// as the aggregation weight.
    pub selected_samples: usize,
    /// Size of the client's full local dataset `|D_k|`.
    pub local_samples: usize,
    /// Mean local training loss over the final local epoch.
    pub train_loss: f32,
    /// Simulated client compute time for this round, in seconds, under the
    /// paper-faithful workload accounting (the frozen prefix runs on every
    /// batch and selection pass, as on the paper's devices).
    pub compute_seconds: f64,
    /// Simulated client compute time for this round under the **cached**
    /// workload accounting: boundary activations served from a feature
    /// cache, so only the trainable suffix runs (steady state; the one-time
    /// cache build is amortised out — see
    /// [`crate::CostModel::cached_client_round_seconds`]). Reported
    /// unconditionally, whatever [`FlConfig::feature_cache`] says, so both
    /// accountings are always available and histories stay independent of
    /// the knob.
    pub cached_compute_seconds: f64,
}

/// A federated client holding a (possibly shared) shard of data.
///
/// A `Client` is stateless between rounds apart from its dataset and its
/// [`FeatureCache`]: every round it downloads the current global trainable
/// parameters, selects local data, fine-tunes and uploads the new parameters
/// — matching the paper's setting where the momentum/optimiser state is not
/// carried across rounds. The feature cache is pure memoisation of the
/// (round-invariant) frozen-prefix activations, keyed by backbone
/// fingerprint and source checksum, so it never alters results; clones
/// share it. The shard lives behind an `Arc` so a *logical client pool*
/// (many simulated clients over few physical shards — see
/// [`crate::simulation::ClientPool`]) holds each distinct shard once.
#[derive(Debug, Clone)]
pub struct Client {
    id: usize,
    data: Arc<Dataset>,
    cache: FeatureCache,
}

impl Client {
    /// Creates a client owning its private data shard and a private
    /// (unbounded, single-shard) cache.
    pub fn new(id: usize, data: Dataset) -> Self {
        Client::from_shard(id, Arc::new(data), FeatureCache::new())
    }

    /// Creates a client over a shared physical shard and an explicit cache
    /// handle — the constructor logical client pools use: clients of the
    /// same shard share the `Arc` (one copy of the data in memory) and,
    /// with [`FeatureCache::shared`], one registry of boundary activations
    /// (lock-sharded per [`FlConfig::cache_shards`] when built by
    /// [`crate::simulation::ClientPool`], so concurrent executors contend
    /// per key-hash shard, not on a global lock).
    pub fn from_shard(id: usize, data: Arc<Dataset>, cache: FeatureCache) -> Self {
        Client { id, data, cache }
    }

    /// The client id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The client's dataset.
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// The shared handle onto the client's physical shard (clients of one
    /// shard in a logical pool return the same allocation).
    pub fn shard(&self) -> &Arc<Dataset> {
        &self.data
    }

    /// Number of local samples `|D_k|`.
    pub fn num_samples(&self) -> usize {
        self.data.len()
    }

    /// The client's frozen-feature cache (empty until a cached round runs).
    pub fn feature_cache(&self) -> &FeatureCache {
        &self.cache
    }

    /// Runs one local round.
    ///
    /// `global_model` is the server's current global model (both the shared
    /// frozen part `ϕ` and the trainable part `θ^t`). The client never
    /// clones the frozen backbone: `ϕ` is read through the shared reference
    /// (and, with [`FlConfig::feature_cache`] on, through cached boundary
    /// activations), while local training works on a private `O(|θ|)`
    /// [`fedft_nn::SuffixNet`] snapshot of the trainable part. With the
    /// cache off, `ϕ` runs at most once per update — over the whole shard
    /// for a scoring policy, over the selected rows otherwise — and every
    /// training batch gathers its rows from that one boundary. Returns the
    /// uploaded [`ClientUpdate`].
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid or the local dataset
    /// is empty.
    pub fn local_update(
        &self,
        global_model: &BlockNet,
        config: &FlConfig,
        round: usize,
    ) -> Result<ClientUpdate> {
        let freeze = config.freeze_for_client(self.id);
        if self.data.is_empty() {
            return Err(FlError::InvalidConfig {
                what: format!("client {} has no local data to select from", self.id),
            });
        }
        let features = self.data.features();
        let policy = config.selection.policy();

        // --- Boundary activations ϕ(x), resolved once per update: ϕ is
        // frozen for the whole round, so every training batch gathers its
        // rows from one matrix instead of re-running the frozen prefix. A
        // full-shard boundary is a cache hit, the raw features (no frozen
        // prefix — at FreezeLevel::Full caching would only duplicate the
        // dataset), or, for a scoring policy, one frozen forward over the
        // shard that scoring and every epoch share. A model-free policy
        // (All/Random) never scores, so its boundary is built after
        // selection over the selected rows only (below).
        let cached: Arc<Matrix>;
        let scored: Matrix;
        let shard_boundary: Option<&Matrix> = if freeze.frozen_blocks() == 0 {
            Some(features)
        } else if config.feature_cache {
            cached = self.cache.get_or_build(global_model, freeze, features)?;
            Some(&cached)
        } else if policy.needs_inference_pass() {
            scored = global_model.forward_frozen(freeze, features)?;
            Some(&scored)
        } else {
            None
        };

        // The client's private trainable part θ — an O(|θ|) snapshot; the
        // backbone ϕ stays shared behind `global_model`.
        let mut suffix = global_model.trainable_suffix(freeze);

        // --- Data selection (Equations 2-3, hardened softmax Equation 6),
        // through the pluggable policy layer. A model-free policy never
        // reads the boundary, so it gets an empty one.
        let no_boundary = Matrix::default();
        let selected_indices = policy.select(&mut SelectionContext::with_boundary(
            &mut suffix,
            shard_boundary.unwrap_or(&no_boundary),
            self.data.labels(),
            round,
            self.id,
            config.seed,
        ))?;
        let selected_labels: Vec<usize> = selected_indices
            .iter()
            .map(|&i| self.data.labels()[i])
            .collect();

        // Training batches gather their boundary rows by sample index from a
        // full-shard boundary, or by position in `selected_indices` from one
        // built over the selected rows. Either way each row is bit-identical
        // to a per-batch frozen forward: the GEMM core accumulates every
        // output element in ascending-k order however rows are batched.
        let selected: Matrix;
        let (boundary, by_position) = match shard_boundary {
            Some(shard) => (shard, false),
            None => {
                selected = global_model
                    .forward_frozen(freeze, &features.select_rows(&selected_indices))?;
                (&selected, true)
            }
        };

        // --- Local fine-tuning of the trainable part θ (Equation 4).
        let mut optimizer = Sgd::new(config.sgd)?;
        if let LocalAlgorithm::FedProx { mu } = config.algorithm {
            optimizer.set_proximal(Some(ProximalTerm {
                mu,
                reference: suffix.trainable_vector(),
            }));
        }
        let mut order: Vec<usize> = (0..selected_indices.len()).collect();
        let mut train_loss = 0.0_f32;
        // Buffers and the RNG stream name are hoisted out of the epoch/batch
        // loops: the name only varies per (client, round), and the gathers
        // reuse one allocation across batches.
        let shuffle_stream = format!("client-{}-round-{round}-epoch", self.id);
        let mut batch_rows: Vec<usize> = Vec::with_capacity(config.batch_size);
        let mut batch_labels: Vec<usize> = Vec::with_capacity(config.batch_size);
        let mut gather = Matrix::default();
        for epoch in 0..config.local_epochs {
            let mut shuffle_rng = rng::rng_for_indexed(config.seed, &shuffle_stream, epoch as u64);
            order.shuffle(&mut shuffle_rng);
            let mut epoch_loss = 0.0_f32;
            let mut batches = 0usize;
            for chunk in order.chunks(config.batch_size) {
                if by_position {
                    boundary.select_rows_into(chunk, &mut gather);
                } else {
                    batch_rows.clear();
                    batch_rows.extend(chunk.iter().map(|&i| selected_indices[i]));
                    boundary.select_rows_into(&batch_rows, &mut gather);
                }
                batch_labels.clear();
                batch_labels.extend(chunk.iter().map(|&i| selected_labels[i]));
                epoch_loss += suffix.train_batch(&gather, &batch_labels, &mut optimizer)?;
                batches += 1;
            }
            train_loss = epoch_loss / batches.max(1) as f32;
        }

        // --- Cost accounting for the learning-efficiency metric. Both
        // workload accountings are deterministic functions of the same
        // inputs, so they are identical whether the cache actually ran.
        let flops = global_model.flops_per_sample(freeze);
        let selection_pass = policy.needs_inference_pass();
        let compute_seconds = config.cost.client_round_seconds(
            &flops,
            self.data.len(),
            selected_indices.len(),
            config.local_epochs,
            selection_pass,
        );
        let cached_compute_seconds = config.cost.cached_client_round_seconds(
            &flops,
            self.data.len(),
            selected_indices.len(),
            config.local_epochs,
            selection_pass,
        );

        Ok(ClientUpdate {
            client_id: self.id,
            theta: suffix.trainable_vector(),
            selected_samples: selected_indices.len(),
            local_samples: self.data.len(),
            train_loss,
            compute_seconds,
            cached_compute_seconds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::SelectionStrategy;
    use fedft_nn::{BlockNetConfig, FreezeLevel};
    use fedft_tensor::init;

    fn client_dataset(n: usize, seed: u64) -> Dataset {
        let mut r = rng::rng_for(seed, "client-test-data");
        let features = init::normal(&mut r, n, 6, 0.0, 1.0);
        Dataset::new(features, (0..n).map(|i| i % 3).collect(), 3).unwrap()
    }

    fn global_model() -> BlockNet {
        BlockNet::new(&BlockNetConfig::new(6, 3).with_hidden(10, 10, 10), 5)
    }

    fn quick_config() -> FlConfig {
        FlConfig::default()
            .with_rounds(1)
            .with_local_epochs(2)
            .with_batch_size(8)
    }

    #[test]
    fn local_update_produces_consistent_metadata() {
        let client = Client::new(3, client_dataset(30, 1));
        let update = client
            .local_update(&global_model(), &quick_config(), 0)
            .unwrap();
        assert_eq!(update.client_id, 3);
        assert_eq!(update.local_samples, 30);
        assert_eq!(update.selected_samples, 30);
        assert!(update.compute_seconds > 0.0);
        assert_eq!(
            update.theta.len(),
            global_model().trainable_parameter_count(FreezeLevel::Moderate)
        );
        assert_eq!(client.id(), 3);
        assert_eq!(client.num_samples(), 30);
        assert_eq!(client.data().len(), 30);
    }

    #[test]
    fn local_update_changes_theta_but_is_deterministic() {
        let client = Client::new(0, client_dataset(24, 2));
        let model = global_model();
        let config = quick_config();
        let a = client.local_update(&model, &config, 0).unwrap();
        let b = client.local_update(&model, &config, 0).unwrap();
        assert_eq!(a, b, "same inputs must give identical updates");
        assert_ne!(
            a.theta,
            model.trainable_vector(FreezeLevel::Moderate),
            "local training must move the trainable parameters"
        );
    }

    #[test]
    fn selection_fraction_reduces_selected_and_cost() {
        let client = Client::new(0, client_dataset(40, 3));
        let model = global_model();
        let full = client.local_update(&model, &quick_config(), 0).unwrap();
        let reduced_cfg =
            quick_config().with_selection(SelectionStrategy::Random { fraction: 0.1 });
        let reduced = client.local_update(&model, &reduced_cfg, 0).unwrap();
        assert_eq!(reduced.selected_samples, 4);
        assert!(reduced.compute_seconds < full.compute_seconds);
    }

    #[test]
    fn entropy_selection_costs_more_than_random_for_same_fraction() {
        let client = Client::new(0, client_dataset(40, 4));
        let model = global_model();
        let rds = quick_config().with_selection(SelectionStrategy::Random { fraction: 0.25 });
        let eds = quick_config().with_selection(SelectionStrategy::Entropy {
            fraction: 0.25,
            temperature: 0.1,
        });
        let rds_update = client.local_update(&model, &rds, 0).unwrap();
        let eds_update = client.local_update(&model, &eds, 0).unwrap();
        assert_eq!(rds_update.selected_samples, eds_update.selected_samples);
        assert!(
            eds_update.compute_seconds > rds_update.compute_seconds,
            "entropy selection must pay for its inference pass"
        );
    }

    #[test]
    fn fedprox_stays_closer_to_the_global_model_than_fedavg() {
        let client = Client::new(0, client_dataset(30, 5));
        let model = global_model();
        let theta0 = model.trainable_vector(FreezeLevel::Moderate);
        let fedavg = client.local_update(&model, &quick_config(), 0).unwrap();
        let fedprox_cfg = quick_config().with_algorithm(LocalAlgorithm::FedProx { mu: 10.0 });
        let fedprox = client.local_update(&model, &fedprox_cfg, 0).unwrap();
        let d_avg = fedavg.theta.distance_sq(&theta0).unwrap();
        let d_prox = fedprox.theta.distance_sq(&theta0).unwrap();
        assert!(
            d_prox < d_avg,
            "strong proximal term must keep θ closer to the global model ({d_prox} vs {d_avg})"
        );
    }

    #[test]
    fn cached_local_update_is_bit_identical_to_uncached() {
        let client = Client::new(0, client_dataset(40, 7));
        let model = global_model();
        for freeze in FreezeLevel::all() {
            for selection in [
                SelectionStrategy::All,
                SelectionStrategy::Random { fraction: 0.3 },
                SelectionStrategy::Entropy {
                    fraction: 0.3,
                    temperature: 0.1,
                },
            ] {
                let base = quick_config().with_freeze(freeze).with_selection(selection);
                let uncached = client.local_update(&model, &base, 0).unwrap();
                let cached_cfg = base.clone().with_feature_cache(true);
                // Run twice so both the cold (build) and warm (hit) paths
                // are exercised.
                let cold = client.local_update(&model, &cached_cfg, 0).unwrap();
                let warm = client.local_update(&model, &cached_cfg, 0).unwrap();
                assert_eq!(
                    uncached,
                    cold,
                    "freeze {freeze}, {}",
                    selection.short_name()
                );
                assert_eq!(
                    uncached,
                    warm,
                    "freeze {freeze}, {}",
                    selection.short_name()
                );
            }
        }
        assert!(!client.feature_cache().is_empty());
    }

    /// The per-batch reference `local_update` (cache off), rebuilt from
    /// public calls: a lazily built boundary for scoring, then the frozen
    /// prefix re-run on every training batch of every epoch.
    fn per_batch_local_update(
        client: &Client,
        model: &BlockNet,
        config: &FlConfig,
        round: usize,
    ) -> ClientUpdate {
        let data = client.data();
        let freeze = config.freeze_for_client(client.id());
        let mut suffix = model.trainable_suffix(freeze);
        let policy = config.selection.policy();
        let selected = policy
            .select(&mut SelectionContext::with_lazy_boundary(
                &mut suffix,
                model,
                freeze,
                data.features(),
                data.labels(),
                round,
                client.id(),
                config.seed,
            ))
            .unwrap();
        let mut optimizer = Sgd::new(config.sgd).unwrap();
        if let LocalAlgorithm::FedProx { mu } = config.algorithm {
            optimizer.set_proximal(Some(ProximalTerm {
                mu,
                reference: suffix.trainable_vector(),
            }));
        }
        let mut order: Vec<usize> = (0..selected.len()).collect();
        let mut train_loss = 0.0_f32;
        let stream = format!("client-{}-round-{round}-epoch", client.id());
        for epoch in 0..config.local_epochs {
            order.shuffle(&mut rng::rng_for_indexed(
                config.seed,
                &stream,
                epoch as u64,
            ));
            let mut epoch_loss = 0.0_f32;
            let mut batches = 0usize;
            for chunk in order.chunks(config.batch_size) {
                let rows: Vec<usize> = chunk.iter().map(|&i| selected[i]).collect();
                let labels: Vec<usize> = rows.iter().map(|&r| data.labels()[r]).collect();
                let boundary = model
                    .forward_frozen(freeze, &data.features().select_rows(&rows))
                    .unwrap();
                epoch_loss += suffix
                    .train_batch(&boundary, &labels, &mut optimizer)
                    .unwrap();
                batches += 1;
            }
            train_loss = epoch_loss / batches as f32;
        }
        let flops = model.flops_per_sample(freeze);
        let scores = policy.needs_inference_pass();
        let epochs = config.local_epochs;
        ClientUpdate {
            client_id: client.id(),
            theta: suffix.trainable_vector(),
            selected_samples: selected.len(),
            local_samples: data.len(),
            train_loss,
            compute_seconds: config.cost.client_round_seconds(
                &flops,
                data.len(),
                selected.len(),
                epochs,
                scores,
            ),
            cached_compute_seconds: config.cost.cached_client_round_seconds(
                &flops,
                data.len(),
                selected.len(),
                epochs,
                scores,
            ),
        }
    }

    fn update_bits(u: &ClientUpdate) -> (usize, Vec<u32>, usize, usize, u32, u64, u64) {
        (
            u.client_id,
            u.theta.values().iter().map(|v| v.to_bits()).collect(),
            u.selected_samples,
            u.local_samples,
            u.train_loss.to_bits(),
            u.compute_seconds.to_bits(),
            u.cached_compute_seconds.to_bits(),
        )
    }

    #[test]
    fn per_update_boundary_is_bit_identical_to_per_batch_frozen_forward() {
        // 37 samples: every fraction below leaves a partial last batch of 8.
        let client = Client::new(2, client_dataset(37, 10));
        let model = global_model();
        for freeze in FreezeLevel::all() {
            for selection in [
                SelectionStrategy::All,
                SelectionStrategy::Random { fraction: 0.6 },
                SelectionStrategy::Entropy {
                    fraction: 0.6,
                    temperature: 0.1,
                },
                SelectionStrategy::LossProportional { fraction: 0.6 },
                SelectionStrategy::GradientNorm { fraction: 0.6 },
            ] {
                for algorithm in [LocalAlgorithm::FedAvg, LocalAlgorithm::FedProx { mu: 0.5 }] {
                    for epochs in [1, 3] {
                        let config = quick_config()
                            .with_freeze(freeze)
                            .with_selection(selection)
                            .with_algorithm(algorithm)
                            .with_local_epochs(epochs);
                        let new = client.local_update(&model, &config, 1).unwrap();
                        let old = per_batch_local_update(&client, &model, &config, 1);
                        assert_ne!(new.selected_samples % config.batch_size, 0);
                        assert_eq!(
                            update_bits(&new),
                            update_bits(&old),
                            "freeze {freeze}, {}, {algorithm:?}, {epochs} epochs",
                            selection.short_name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn both_workload_accountings_are_reported() {
        let client = Client::new(0, client_dataset(30, 8));
        let model = global_model();
        // With a frozen prefix the cached accounting is strictly cheaper…
        let update = client.local_update(&model, &quick_config(), 0).unwrap();
        assert!(update.cached_compute_seconds < update.compute_seconds);
        // …and at FreezeLevel::Full the two coincide (nothing is frozen).
        let full = client
            .local_update(&model, &quick_config().with_freeze(FreezeLevel::Full), 0)
            .unwrap();
        assert_eq!(
            full.cached_compute_seconds.to_bits(),
            full.compute_seconds.to_bits()
        );
    }

    #[test]
    fn clients_sharing_a_shard_and_registry_produce_identical_updates() {
        use crate::cache::CacheRegistry;
        let shard = Arc::new(client_dataset(30, 9));
        let registry = CacheRegistry::new();
        let a = Client::from_shard(
            7,
            Arc::clone(&shard),
            FeatureCache::shared(registry.clone()),
        );
        let b = Client::from_shard(
            7,
            Arc::clone(&shard),
            FeatureCache::shared(registry.clone()),
        );
        assert!(Arc::ptr_eq(a.shard(), b.shard()), "one copy of the data");
        let model = global_model();
        let config =
            quick_config()
                .with_feature_cache(true)
                .with_selection(SelectionStrategy::Entropy {
                    fraction: 0.5,
                    temperature: 0.1,
                });
        let ua = a.local_update(&model, &config, 0).unwrap();
        let ub = b.local_update(&model, &config, 0).unwrap();
        assert_eq!(ua, ub, "same id, shard and model ⇒ same update");
        let stats = registry.stats();
        assert_eq!(stats.misses, 1, "the second client hits the shared entry");
        assert!(stats.hits >= 1);
    }

    #[test]
    fn classifier_only_update_is_cheaper_than_full_update() {
        let client = Client::new(0, client_dataset(30, 6));
        let model = global_model();
        let full_cfg = quick_config().with_freeze(FreezeLevel::Full);
        let head_cfg = quick_config().with_freeze(FreezeLevel::Classifier);
        let full = client.local_update(&model, &full_cfg, 0).unwrap();
        let head = client.local_update(&model, &head_cfg, 0).unwrap();
        assert!(head.compute_seconds < full.compute_seconds);
        assert!(head.theta.len() < full.theta.len());
    }
}
