//! Per-layer numbers and the Amdahl table, computed from the spans of one
//! traced run.
//!
//! Self time is a span's duration minus the part of it its children cover.
//! Client work runs on several workers at once, so the Amdahl table
//! attributes each `executor.train` span's wall time by dividing the
//! layers' summed self times by the span's worker count; the time workers
//! spend outside any client update (imbalance, dispatch) is the executor's
//! idle row. Every row of a round is therefore wall time, and the rows plus
//! the round's own unattributed time add up to the traced round time.

use crate::trace::{covered_seconds, Span, SpanId};
use std::collections::HashMap;

/// Modelled FLOPs per sample the rate metrics divide by.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlopModel {
    /// Suffix forward pass (selection scoring over boundary activations).
    pub score: f64,
    /// Suffix forward + backward (one training step).
    pub train: f64,
    /// Full-model forward (one evaluation pass).
    pub eval: f64,
}

/// Rows of the Amdahl table, in print order.
pub const AMDAHL_ROWS: [&str; 11] = [
    "participation.sample",
    "executor.sched_self",
    "cache.lookup",
    "nn.frozen_forward",
    "select.score",
    "nn.train",
    "client.self",
    "executor.idle",
    "server.aggregate",
    "eval",
    "round.unattributed",
];

/// What one traced run's spans say about each layer.
#[derive(Debug, Clone, Default)]
pub struct RunLayers {
    /// The `run` span.
    pub run_s: f64,
    /// `ClientPool::build` inside the run.
    pub pool_build_s: f64,
    /// Per-run preparation before the first round.
    pub prepare_s: f64,
    /// Summed `round` spans.
    pub rounds_s: f64,
    /// Client selection.
    pub participation_s: f64,
    /// Clients sampled over all rounds.
    pub sampled: f64,
    /// Every `executor.run_round` span, in seconds.
    pub run_round: Vec<f64>,
    /// `run_round` time not covered by inner training spans.
    pub sched_self_s: f64,
    /// Σ workers × `executor.train` span.
    pub train_capacity_s: f64,
    /// Every `client.update` span, in seconds.
    pub client_updates: Vec<f64>,
    /// Σ client update spans.
    pub client_busy_s: f64,
    /// `FeatureCache::get_or_build`.
    pub cache_s: f64,
    /// `BlockNet::forward_frozen`.
    pub frozen_s: f64,
    /// Rows through the frozen prefix.
    pub frozen_rows: f64,
    /// Score-based data selection.
    pub select_s: f64,
    /// Rows scored.
    pub select_rows: f64,
    /// `SuffixNet::train_batch`.
    pub train_s: f64,
    /// Training batches.
    pub train_batches: f64,
    /// Training rows (summed batch sizes).
    pub train_rows: f64,
    /// `Server::aggregate_*`.
    pub aggregate_s: f64,
    /// Updates aggregated.
    pub aggregated: f64,
    /// `BlockNet::evaluate_accuracy` + `evaluate_loss`.
    pub eval_s: f64,
    /// Rows evaluated (both passes).
    pub eval_rows: f64,
    /// Wall seconds attributed to each [`AMDAHL_ROWS`] entry.
    pub amdahl: [f64; AMDAHL_ROWS.len()],
}

fn row(name: &str) -> usize {
    AMDAHL_ROWS
        .iter()
        .position(|r| *r == name)
        .expect("known Amdahl row")
}

/// Analyses the spans of one traced run.
pub fn analyse(spans: &[Span]) -> RunLayers {
    let mut children: HashMap<SpanId, Vec<&Span>> = HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children.entry(parent).or_default().push(span);
        }
    }
    let covered = |span: &Span| -> f64 {
        let mut intervals: Vec<(u64, u64)> = children
            .get(&span.id)
            .map(|c| c.iter().map(|s| (s.start_ns, s.end_ns)).collect())
            .unwrap_or_default();
        covered_seconds(span.start_ns, span.end_ns, &mut intervals)
    };

    let mut out = RunLayers::default();
    for span in spans {
        let seconds = span.seconds();
        let arg = span.arg as f64;
        match span.name {
            "run" => out.run_s += seconds,
            "pool.build" => out.pool_build_s += seconds,
            "run.prepare" => out.prepare_s += seconds,
            "round" => {
                out.rounds_s += seconds;
                out.amdahl[row("round.unattributed")] += seconds - covered(span);
            }
            "participation.sample" => {
                out.participation_s += seconds;
                out.sampled += arg;
                out.amdahl[row("participation.sample")] += seconds;
            }
            "executor.run_round" => {
                out.run_round.push(seconds);
                let own = seconds - covered(span);
                out.sched_self_s += own;
                out.amdahl[row("executor.sched_self")] += own;
            }
            "executor.train" => {
                let workers = span.arg.max(1) as f64;
                out.train_capacity_s += workers * seconds;
                let mut busy = 0.0;
                for client in children.get(&span.id).into_iter().flatten() {
                    busy += client.seconds();
                    let mut own = client.seconds();
                    for part in children.get(&client.id).into_iter().flatten() {
                        let layer = match part.name {
                            "cache.lookup" => "cache.lookup",
                            "nn.frozen_forward" => "nn.frozen_forward",
                            "select.score" => "select.score",
                            "nn.train" => "nn.train",
                            _ => continue,
                        };
                        own -= part.seconds();
                        out.amdahl[row(layer)] += part.seconds() / workers;
                    }
                    out.amdahl[row("client.self")] += own / workers;
                }
                out.amdahl[row("executor.idle")] += (workers * seconds - busy) / workers;
            }
            "client.update" => {
                out.client_updates.push(seconds);
                out.client_busy_s += seconds;
            }
            "cache.lookup" => out.cache_s += seconds,
            "nn.frozen_forward" => {
                out.frozen_s += seconds;
                out.frozen_rows += arg;
            }
            "select.score" => {
                out.select_s += seconds;
                out.select_rows += arg;
            }
            "nn.train" => {
                out.train_s += seconds;
                out.train_batches += 1.0;
                out.train_rows += arg;
            }
            "server.aggregate" => {
                out.aggregate_s += seconds;
                out.aggregated += arg;
                out.amdahl[row("server.aggregate")] += seconds;
            }
            "eval.accuracy" | "eval.loss" => {
                out.eval_s += seconds;
                out.eval_rows += arg;
                out.amdahl[row("eval")] += seconds;
            }
            _ => {}
        }
    }
    out
}

/// Modelled GFLOP/s: `rows × flops_per_row / seconds`, `0` when no time
/// was spent.
pub fn gflops(rows: f64, flops_per_row: f64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        rows * flops_per_row / seconds * 1e-9
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u32,
        parent: Option<u32>,
        name: &'static str,
        start: u64,
        end: u64,
        arg: u64,
    ) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            round: 0,
            client: None,
            arg,
            thread: 0,
        }
    }

    #[test]
    fn amdahl_rows_add_up_to_the_round() {
        // One round of 100 ns: 10 sampling, 70 executor (5 own, 65 training
        // on two workers), 5 aggregation, 5 evaluation, 10 unattributed.
        let spans = vec![
            span(0, None, "round", 0, 100, 0),
            span(1, Some(0), "participation.sample", 0, 10, 10),
            span(2, Some(0), "executor.run_round", 10, 80, 2),
            span(3, Some(2), "executor.train", 15, 80, 2),
            span(4, Some(3), "client.update", 15, 75, 0),
            span(5, Some(4), "nn.train", 20, 60, 32),
            span(6, Some(3), "client.update", 15, 45, 0),
            span(7, Some(0), "server.aggregate", 80, 85, 2),
            span(8, Some(0), "eval.accuracy", 85, 90, 50),
        ];
        let layers = analyse(&spans);
        let total: f64 = layers.amdahl.iter().sum();
        assert!((total - layers.rounds_s).abs() < 1e-15);
        assert!((layers.amdahl[row("executor.idle")] - 20e-9).abs() < 1e-15);
        assert!((layers.amdahl[row("nn.train")] - 20e-9).abs() < 1e-15);
        assert!((layers.amdahl[row("round.unattributed")] - 10e-9).abs() < 1e-15);
        assert_eq!(layers.train_batches, 1.0);
        assert_eq!(layers.client_updates.len(), 2);
    }
}
