//! The two measurements: end to end (tracing off) and per layer (the
//! traced replay), with the output checks that feed `failed`.

use crate::host::{self, CpuTicks};
use crate::json::{Object, Value};
use crate::layers::{self, FlopModel, RunLayers, AMDAHL_ROWS};
use crate::replay::{first_divergence, replay_simulation, traced_executor, UpdateChecks};
use crate::stats::{median, tail};
use crate::trace::{self, Span};
use crate::workloads::{prepare, Prepared, Scale, SetupTimes, Workload};
use fedft_core::{RunResult, Simulation};
use fedft_nn::FreezeLevel;
use std::fmt::Write as _;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fewest set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Set-ups continue (up to [`SETUP_MAX`]) until this much set-up time has
/// been measured, so cheap set-ups get more samples.
const SETUP_SECONDS: f64 = 2.0;
/// Most set-ups per end-to-end run.
const SETUP_MAX: usize = 20;
/// Fewest timed runs behind `run_s`: enough for `run_s_tail` to have ten
/// runs beyond it and to lie above the median.
const MIN_RUNS: usize = 22;
/// Fewest untraced/traced pairs behind the per-layer numbers.
const MIN_PAIRS: usize = 3;
/// The `run_s` bound of `BENCHMARK.json`. The drift check lets the traced
/// replay's median depart from the program's by this share beyond the
/// measured cost of its spans.
const RUN_S_BOUND: f64 = 0.24;
/// The timed loop stops starting runs after this long, whatever `--seconds`
/// asks for, so one invocation always ends well inside three minutes.
const MAX_LOOP: Duration = Duration::from_secs(120);

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The outcome of one benchmark invocation.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Metrics in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Runs attempted (warm-up and check runs included).
    pub attempted: usize,
    /// Runs that errored or failed an output check.
    pub failed: usize,
    /// What each failed check said.
    pub failures: Vec<String>,
    /// Human-readable report, printed before the result line.
    pub report: String,
    /// The full record written to the results directory.
    pub record: Object,
    /// The spans of the last traced run (per-layer measurement only).
    pub spans: Vec<Span>,
}

impl Measurement {
    /// `failed / attempted`.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Output checks on one finished run: its learning history must equal the
/// reference run's, and the streaming workload must stay under its cache
/// budget while evicting.
pub fn check_run(
    prepared: &Prepared,
    result: &RunResult,
    reference: Option<&RunResult>,
) -> Vec<String> {
    let mut failures = Vec::new();
    if let Some(reference) = reference {
        if result.learning_history() != reference.learning_history() {
            failures.push("learning history differs from the first run's".to_string());
        }
    }
    if let Some(budget) = prepared.cache_budget {
        let peak = result.peak_cache_bytes();
        if peak > budget {
            failures.push(format!(
                "peak cache bytes {peak} exceed the budget {budget}"
            ));
        }
        if result.total_cache_evictions() == 0 {
            failures.push("a budget below the working set must evict".to_string());
        }
    }
    failures
}

struct Runs {
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
}

impl Runs {
    fn new() -> Self {
        Runs {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Counts one attempted run and whether its checks passed.
    fn record(&mut self, failures: Vec<String>) -> bool {
        self.attempted += 1;
        if failures.is_empty() {
            return true;
        }
        self.failed += 1;
        self.failures.extend(failures);
        false
    }

    /// Counts a failed check that judges the traced runs together (the
    /// drift check) as one failed run.
    fn fail(&mut self, failure: String) {
        self.failed += 1;
        self.failures.push(failure);
    }

    fn failures_value(&self) -> Value {
        Value::Arr(self.failures.iter().cloned().map(Value::Str).collect())
    }

    /// Counts a run that errored.
    fn record_error(&mut self, error: &dyn std::fmt::Display) {
        self.record(vec![format!("run failed: {error}")]);
    }
}

/// Wall time of one timed call, and the share of the CPU time it wanted
/// that the hypervisor gave to another guest.
#[derive(Debug, Clone, Copy)]
struct Timing {
    wall: f64,
    steal: f64,
}

impl Timing {
    /// Wall seconds with the stolen share taken out. On a shared virtual
    /// machine steal comes and goes with the neighbours' load and stretches
    /// every run it touches; without this, the host's load rather than the
    /// program would decide most of a run's spread.
    fn seconds(&self) -> f64 {
        self.wall * (1.0 - self.steal)
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Timing) {
    let ticks = CpuTicks::now();
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed().as_secs_f64();
    let steal = CpuTicks::now().steal_share_since(&ticks);
    (out, Timing { wall, steal })
}

fn run_sim(sim: &Simulation, prepared: &Prepared, draw: usize) -> fedft_core::Result<RunResult> {
    sim.run_labelled(
        prepared.workload.name(),
        &prepared.draws[draw],
        &prepared.model,
    )
}

/// One untimed warm-up run per partition draw: the reference histories
/// every later run of that draw is checked against.
fn reference_runs(
    sim: &Simulation,
    prepared: &Prepared,
    runs: &mut Runs,
) -> Result<Vec<RunResult>, Box<dyn std::error::Error>> {
    let mut references = Vec::with_capacity(prepared.draws.len());
    for draw in 0..prepared.draws.len() {
        let reference = run_sim(sim, prepared, draw)?;
        runs.record(check_run(prepared, &reference, None));
        references.push(reference);
    }
    Ok(references)
}

fn setup_object(times: &SetupTimes) -> Object {
    let mut o = Object::new();
    o.num("data_s", times.data_s);
    o.num("pretrain_s", times.pretrain_s);
    o.num("pool_build_s", times.pool_build_s);
    o.num("dispatch_s", times.dispatch_s);
    o.num("total_s", times.total());
    o
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// `{name: {"value": .., "unit": ..}, ..}` in metric order.
pub fn metrics_object(metrics: &[Metric]) -> Object {
    let mut o = Object::new();
    for m in metrics {
        let mut v = Object::new();
        v.num("value", m.value);
        v.str("unit", m.unit);
        o.put(m.name, Value::Obj(v));
    }
    o
}

fn base_record(
    workload: Workload,
    scale: Scale,
    seed: u64,
    seconds: f64,
    trace_on: bool,
) -> Object {
    let mut record = Object::new();
    record.str("workload", workload.name());
    record.num("seed", seed as f64);
    record.num("trace", if trace_on { 1.0 } else { 0.0 });
    record.str("scale", if scale == Scale::Full { "full" } else { "tiny" });
    record.num("run_seconds", seconds);
    record.put("host", Value::Obj(host::record(workload.name(), seed)));
    record
}

/// The end-to-end measurement: at least [`SETUP_REPEATS`] set-ups, one
/// warm-up run per partition draw, then timed `Simulation::run_labelled`
/// runs cycling through the draws for `seconds` (at least [`MIN_RUNS`]),
/// every one checked against its draw's warm-up history.
///
/// # Errors
///
/// Set-up errors and a failing warm-up run: without them there is nothing
/// to measure.
pub fn measure_end_to_end(
    workload: Workload,
    scale: Scale,
    seed: u64,
    seconds: f64,
) -> Result<Measurement, Box<dyn std::error::Error>> {
    let mut setups: Vec<SetupTimes> = Vec::with_capacity(SETUP_REPEATS);
    let mut setup_totals = Vec::with_capacity(SETUP_REPEATS);
    let mut prepared = None;
    while setups.len() < SETUP_REPEATS
        || (setups.len() < SETUP_MAX
            && setups.iter().map(SetupTimes::total).sum::<f64>() < SETUP_SECONDS)
    {
        drop(prepared.take());
        let (result, timing) = timed(|| prepare(workload, scale, seed));
        let (p, times) = result?;
        setup_totals.push(times.total() * (1.0 - timing.steal));
        setups.push(times);
        prepared = Some(p);
    }
    let prepared = prepared.expect("at least one set-up");
    let sim = Simulation::new(prepared.config.clone())?;

    let mut runs = Runs::new();
    let references = reference_runs(&sim, &prepared, &mut runs)?;

    let mut times = Vec::new();
    let mut walls = Vec::new();
    let mut steals = Vec::new();
    let mut rates = Vec::new();
    let loop_start = Instant::now();
    let mut next = 0;
    while (times.len() < MIN_RUNS || loop_start.elapsed().as_secs_f64() < seconds)
        && loop_start.elapsed() < MAX_LOOP
    {
        let draw = next % references.len();
        next += 1;
        let (result, timing) = timed(|| run_sim(&sim, &prepared, draw));
        match result {
            Ok(result) => {
                if runs.record(check_run(&prepared, &result, Some(&references[draw]))) {
                    times.push(timing.seconds());
                    walls.push(timing.wall);
                    steals.push(timing.steal);
                    rates.push(result.total_aggregated_updates() as f64 / timing.seconds());
                }
            }
            Err(e) => runs.record_error(&e),
        }
    }
    if times.is_empty() {
        return Err(format!("no timed run passed its checks: {:?}", runs.failures).into());
    }

    let run_s = median(&times);
    let (run_s_tail, tail_pct) = tail(&times);
    let mean =
        |f: fn(&RunResult) -> f64| references.iter().map(f).sum::<f64>() / references.len() as f64;
    let updates = mean(|r| r.total_aggregated_updates() as f64);
    let final_acc = mean(|r| f64::from(r.final_accuracy()));
    let setup_s = median(&setup_totals);
    let peak_rss_mb =
        host::peak_rss_bytes().ok_or("VmHWM is unavailable")? as f64 / (1024.0 * 1024.0);
    let metrics = vec![
        metric("run_s", run_s, "s"),
        metric("run_s_tail", run_s_tail, "s"),
        metric("updates_per_s", median(&rates), "1/s"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
        metric("final_acc", final_acc, "ratio"),
    ];

    let mut summary = Object::new();
    summary.num("run_s", run_s);
    summary.num("run_s_wall", median(&walls));
    summary.num("steal_share", median(&steals));
    summary.num("timed_runs", times.len() as f64);
    summary.num("run_s_tail_percentile", tail_pct);
    summary.num("partition_draws", references.len() as f64);
    summary.num("aggregated_updates", updates);
    summary.num(
        "total_client_seconds",
        mean(RunResult::total_client_seconds),
    );
    summary.num(
        "total_client_seconds_cached",
        mean(RunResult::total_client_seconds_cached),
    );
    summary.num("error_rate", runs.failed as f64 / runs.attempted as f64);
    let mut record = base_record(workload, scale, seed, seconds, false);
    record.put("summary", Value::Obj(summary));
    record.put("metrics", Value::Obj(metrics_object(&metrics)));
    record.put(
        "setups",
        Value::Arr(setups.iter().map(|t| Value::Obj(setup_object(t))).collect()),
    );
    let numbers = |xs: &[f64]| Value::Arr(xs.iter().copied().map(Value::Num).collect());
    record.put("run_s_samples", numbers(&times));
    record.put("wall_samples", numbers(&walls));
    record.put("steal_samples", numbers(&steals));
    record.put("failures", runs.failures_value());

    let mut report = String::new();
    let _ = writeln!(
        report,
        "{}: {} timed runs of Simulation::run_labelled ({} rounds each, {} partition draws), seed {seed}",
        workload.name(),
        times.len(),
        prepared.config.rounds,
        references.len()
    );
    let _ = writeln!(
        report,
        "  run_s median {run_s:.4} s, p{tail_pct:.0} {run_s_tail:.4} s (wall {:.4} s, {:.1} % \
         stolen); {updates} updates/run; setup median {setup_s:.3} s of {}; peak RSS \
         {peak_rss_mb:.1} MiB; final acc {final_acc:.4}; error rate {}/{}",
        median(&walls),
        100.0 * median(&steals),
        setups.len(),
        runs.failed,
        runs.attempted
    );
    Ok(Measurement {
        metrics,
        attempted: runs.attempted,
        failed: runs.failed,
        failures: runs.failures,
        report,
        record,
        spans: Vec::new(),
    })
}

/// The per-layer measurement. After one untraced reference run per
/// partition draw it replays every draw once with each client update
/// checked bit for bit against `Client::local_update`, then alternates
/// untraced and traced runs, cycling through the draws, for `seconds` (at
/// least [`MIN_PAIRS`] pairs). Every traced history must match the untraced
/// one.
///
/// # Errors
///
/// Set-up errors and a failing reference run.
pub fn measure_layers(
    workload: Workload,
    scale: Scale,
    seed: u64,
    seconds: f64,
) -> Result<Measurement, Box<dyn std::error::Error>> {
    let (prepared, setup) = prepare(workload, scale, seed)?;
    let config = &prepared.config;
    let sim = Simulation::new(config.clone())?;
    let mut runs = Runs::new();
    let references = reference_runs(&sim, &prepared, &mut runs)?;

    // The θ check: every replayed update against Client::local_update.
    let checks = Arc::new(UpdateChecks::default());
    let verifying = traced_executor(config, Some(Arc::clone(&checks)))?;
    for (data, reference) in prepared.draws.iter().zip(&references) {
        let mismatched_before = checks.mismatched.load(Ordering::Relaxed);
        let checked_before = checks.checked.load(Ordering::Relaxed);
        match replay_simulation(config, verifying.as_ref(), data, &prepared.model) {
            Ok(replayed) => {
                let mut failures = check_run(&prepared, &replayed, None);
                failures
                    .extend(first_divergence(&replayed, reference).map(|d| format!("replay: {d}")));
                let mismatched = checks.mismatched.load(Ordering::Relaxed) - mismatched_before;
                let checked = checks.checked.load(Ordering::Relaxed) - checked_before;
                if mismatched > 0 {
                    failures.push(format!(
                        "{mismatched} of {checked} replayed client updates differ from \
                         Client::local_update"
                    ));
                }
                if checked == 0 {
                    failures.push("the θ check compared no client update".to_string());
                }
                runs.record(failures);
            }
            Err(e) => runs.record_error(&e),
        }
    }

    let executor = traced_executor(config, None)?;
    let mut untraced_times = Vec::new();
    let mut traced_times = Vec::new();
    let mut span_counts = Vec::new();
    let mut analysed: Vec<(RunLayers, RunResult)> = Vec::new();
    let mut last_spans = Vec::new();
    let loop_start = Instant::now();
    let mut next = 0;
    while (traced_times.len() < MIN_PAIRS || loop_start.elapsed().as_secs_f64() < seconds)
        && loop_start.elapsed() < MAX_LOOP
    {
        let draw = next % references.len();
        next += 1;
        let reference = &references[draw];
        let (result, timing) = timed(|| run_sim(&sim, &prepared, draw));
        match result {
            Ok(result) => {
                if runs.record(check_run(&prepared, &result, Some(reference))) {
                    untraced_times.push(timing.seconds());
                }
            }
            Err(e) => runs.record_error(&e),
        }

        trace::begin();
        let (result, timing) = timed(|| {
            replay_simulation(
                config,
                executor.as_ref(),
                &prepared.draws[draw],
                &prepared.model,
            )
        });
        let spans = trace::end();
        match result {
            Ok(result) => {
                let mut failures = check_run(&prepared, &result, Some(reference));
                failures.extend(
                    first_divergence(&result, reference).map(|d| format!("traced replay: {d}")),
                );
                if runs.record(failures) {
                    traced_times.push(timing.seconds());
                    span_counts.push(spans.len() as f64);
                    analysed.push((layers::analyse(&spans), result));
                    last_spans = spans;
                }
            }
            Err(e) => runs.record_error(&e),
        }
    }
    if analysed.is_empty() || untraced_times.is_empty() {
        return Err(format!("no traced run passed its checks: {:?}", runs.failures).into());
    }

    let overhead = median(&traced_times) / median(&untraced_times) - 1.0;
    let span_cost_s = trace::span_cost_seconds();
    let spans_overhead = median(&span_counts) * span_cost_s / median(&untraced_times);
    if scale == Scale::Full {
        if let Some(failure) = drift_failure(overhead, spans_overhead) {
            runs.fail(failure);
        }
    }
    let flops = flop_model(&prepared);
    let metrics = layer_metrics(&setup, &analysed, flops, overhead);
    let (amdahl_text, amdahl_value) = amdahl_table(&analysed, overhead);

    let mut summary = Object::new();
    summary.num("traced_runs", traced_times.len() as f64);
    summary.num("untraced_run_s", median(&untraced_times));
    summary.num("traced_run_s", median(&traced_times));
    summary.num("spans_per_run", median(&span_counts));
    summary.num("span_cost_s", span_cost_s);
    summary.num("spans_overhead_frac", spans_overhead);
    summary.num(
        "updates_checked",
        checks.checked.load(Ordering::Relaxed) as f64,
    );
    summary.num(
        "updates_mismatched",
        checks.mismatched.load(Ordering::Relaxed) as f64,
    );
    summary.num("error_rate", runs.failed as f64 / runs.attempted as f64);
    let mut record = base_record(workload, scale, seed, seconds, true);
    record.put("summary", Value::Obj(summary));
    record.put("metrics", Value::Obj(metrics_object(&metrics)));
    record.put("amdahl", amdahl_value);
    record.put("setup", Value::Obj(setup_object(&setup)));
    record.put("failures", runs.failures_value());

    let mut report = String::new();
    let _ = writeln!(
        report,
        "{}: {} traced replays alternating with untraced runs, seed {seed}; \
         {} client updates checked bit for bit against Client::local_update ({} differ)",
        workload.name(),
        traced_times.len(),
        checks.checked.load(Ordering::Relaxed),
        checks.mismatched.load(Ordering::Relaxed)
    );
    report.push_str(&amdahl_text);
    let _ = writeln!(
        report,
        "  traced/untraced median run_s {:.4}/{:.4} s; spans cost {spans_overhead:+.4} \
         ({:.0} spans/run at {:.0} ns); the drift check allows [{:+.2}, {:+.4}]",
        median(&traced_times),
        median(&untraced_times),
        median(&span_counts),
        span_cost_s * 1e9,
        -RUN_S_BOUND,
        spans_overhead + RUN_S_BOUND
    );
    Ok(Measurement {
        metrics,
        attempted: runs.attempted,
        failed: runs.failed,
        failures: runs.failures,
        report,
        record,
        spans: last_spans,
    })
}

/// The drift check. The per-layer numbers time the replay's copies of
/// `ParallelExecutor`, `Client::local_update` and `run_labelled`; the
/// bit-identity checks show the copies compute the same outputs, not that
/// they cost the same. If the program's code gets faster or slower while
/// the copies do not, the traced median departs from the untraced one.
/// It may depart by the measured cost of the spans plus [`RUN_S_BOUND`];
/// beyond that the layer figures no longer describe the program.
fn drift_failure(overhead: f64, spans_overhead: f64) -> Option<String> {
    if (-RUN_S_BOUND..=spans_overhead + RUN_S_BOUND).contains(&overhead) {
        return None;
    }
    Some(format!(
        "drift: the traced replay's median run_s departs from the program's by \
         {overhead:+.4}, beyond the spans' cost {spans_overhead:+.4} ± {RUN_S_BOUND}; \
         the replay's copies of ParallelExecutor, local_update or run_labelled no \
         longer match the program's code"
    ))
}

fn flop_model(prepared: &Prepared) -> FlopModel {
    let suffix = prepared.model.flops_per_sample(prepared.config.freeze);
    FlopModel {
        score: suffix.forward_trainable as f64,
        train: (suffix.forward_trainable + suffix.backward_trainable) as f64,
        eval: prepared
            .model
            .flops_per_sample(FreezeLevel::Full)
            .inference_flops() as f64,
    }
}

/// Median over the traced runs of a per-run quantity.
fn per_run(analysed: &[(RunLayers, RunResult)], f: impl Fn(&RunLayers, &RunResult) -> f64) -> f64 {
    let values: Vec<f64> = analysed.iter().map(|(l, r)| f(l, r)).collect();
    median(&values)
}

fn layer_metrics(
    setup: &SetupTimes,
    analysed: &[(RunLayers, RunResult)],
    flops: FlopModel,
    overhead: f64,
) -> Vec<Metric> {
    let pooled = |f: fn(&RunLayers) -> &Vec<f64>| -> Vec<f64> {
        analysed
            .iter()
            .flat_map(|(l, _)| f(l).iter().copied())
            .collect()
    };
    let rounds = pooled(|l| &l.run_round);
    let clients = pooled(|l| &l.client_updates);
    let layer =
        |name, f: fn(&RunLayers) -> f64, unit| metric(name, per_run(analysed, |l, _| f(l)), unit);
    let result = |name, f: fn(&RunResult) -> usize, unit| {
        metric(name, per_run(analysed, |_, r| f(r) as f64), unit)
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    vec![
        metric("data.generate_s", setup.data_s, "s"),
        metric("pretrain.s", setup.pretrain_s, "s"),
        layer("pool.build_s", |l| l.pool_build_s, "s"),
        layer("participation.sample_s", |l| l.participation_s, "s"),
        layer("participation.sampled", |l| l.sampled, "count"),
        metric("executor.round_s_p50", median(&rounds), "s"),
        metric("executor.round_s_tail", tail(&rounds).0, "s"),
        layer("executor.sched_self_s", |l| l.sched_self_s, "s"),
        metric(
            "executor.idle_frac",
            per_run(analysed, |l, _| {
                1.0 - ratio(l.client_busy_s, l.train_capacity_s)
            }),
            "ratio",
        ),
        result(
            "executor.updates",
            RunResult::total_aggregated_updates,
            "count",
        ),
        result(
            "executor.dropped",
            RunResult::total_dropped_clients,
            "count",
        ),
        result(
            "executor.carried",
            RunResult::total_carried_updates,
            "count",
        ),
        result("executor.flushes", RunResult::flush_count, "count"),
        metric("client.update_s_p50", median(&clients), "s"),
        metric("client.update_s_tail", tail(&clients).0, "s"),
        layer("client.busy_s", |l| l.client_busy_s, "s"),
        layer("cache.lookup_s", |l| l.cache_s, "s"),
        result("cache.hits", RunResult::total_cache_hits, "count"),
        result("cache.misses", RunResult::total_cache_misses, "count"),
        result("cache.evictions", RunResult::total_cache_evictions, "count"),
        metric(
            "cache.hit_ratio",
            per_run(analysed, |_, r| {
                let hits = r.total_cache_hits() as f64;
                ratio(hits, hits + r.total_cache_misses() as f64)
            }),
            "ratio",
        ),
        result("cache.peak_bytes", RunResult::peak_cache_bytes, "bytes"),
        layer("nn.frozen_forward_s", |l| l.frozen_s, "s"),
        layer("nn.frozen_rows", |l| l.frozen_rows, "count"),
        layer("select.score_s", |l| l.select_s, "s"),
        layer("select.scored", |l| l.select_rows, "count"),
        metric(
            "select.kept_ratio",
            per_run(analysed, |l, r| {
                let selected: usize = r.rounds.iter().map(|round| round.selected_samples).sum();
                ratio(selected as f64, l.select_rows)
            }),
            "ratio",
        ),
        metric(
            "select.gflops",
            per_run(analysed, |l, _| {
                layers::gflops(l.select_rows, flops.score, l.select_s)
            }),
            "GFLOP/s",
        ),
        layer("nn.train_s", |l| l.train_s, "s"),
        layer("nn.train_batches", |l| l.train_batches, "count"),
        metric(
            "nn.train_gflops",
            per_run(analysed, |l, _| {
                layers::gflops(l.train_rows, flops.train, l.train_s)
            }),
            "GFLOP/s",
        ),
        layer("server.aggregate_s", |l| l.aggregate_s, "s"),
        layer("server.aggregated", |l| l.aggregated, "count"),
        layer("eval.s", |l| l.eval_s, "s"),
        layer("eval.rows", |l| l.eval_rows, "count"),
        metric(
            "eval.gflops",
            per_run(analysed, |l, _| {
                layers::gflops(l.eval_rows, flops.eval, l.eval_s)
            }),
            "GFLOP/s",
        ),
        metric("trace.overhead_frac", overhead, "ratio"),
    ]
}

/// The Amdahl table over every traced run: each layer's wall-time share of
/// the traced rounds, the rounds' unattributed remainder, the run-level
/// work outside rounds, and the tracing overhead.
fn amdahl_table(analysed: &[(RunLayers, RunResult)], overhead: f64) -> (String, Value) {
    let runs = analysed.len() as f64;
    let rounds_s: f64 = analysed.iter().map(|(l, _)| l.rounds_s).sum();
    let mut text = String::new();
    let _ = writeln!(
        text,
        "  Amdahl table (wall seconds per run, mean of {} traced runs; share of the traced rounds)",
        analysed.len()
    );
    let mut rows = Vec::new();
    let mut attributed = 0.0;
    for (i, name) in AMDAHL_ROWS.iter().enumerate() {
        let seconds: f64 = analysed.iter().map(|(l, _)| l.amdahl[i]).sum();
        attributed += seconds;
        let share = if rounds_s > 0.0 {
            seconds / rounds_s
        } else {
            0.0
        };
        let _ = writeln!(
            text,
            "    {name:<22} {:>10.5} s  {:>6.2} %",
            seconds / runs,
            100.0 * share
        );
        let mut row = Object::new();
        row.str("layer", name);
        row.num("seconds_per_run", seconds / runs);
        row.num("share", share);
        rows.push(Value::Obj(row));
    }
    let _ = writeln!(
        text,
        "    {:<22} {:>10.5} s  (rows sum to {:.5} s)",
        "rounds total",
        rounds_s / runs,
        attributed / runs
    );
    let outside = [
        (
            "pool.build",
            analysed.iter().map(|(l, _)| l.pool_build_s).sum::<f64>(),
        ),
        (
            "run.prepare",
            analysed.iter().map(|(l, _)| l.prepare_s).sum::<f64>(),
        ),
        (
            "run.unattributed",
            analysed
                .iter()
                .map(|(l, _)| l.run_s - l.pool_build_s - l.prepare_s - l.rounds_s)
                .sum::<f64>(),
        ),
    ];
    let mut outside_rows = Vec::new();
    for (name, seconds) in outside {
        let _ = writeln!(
            text,
            "    outside rounds: {name:<14} {:>10.5} s",
            seconds / runs
        );
        let mut row = Object::new();
        row.str("layer", name);
        row.num("seconds_per_run", seconds / runs);
        outside_rows.push(Value::Obj(row));
    }
    let _ = writeln!(text, "    trace.overhead_frac {overhead:+.4}");
    let mut value = Object::new();
    value.put("rows", Value::Arr(rows));
    value.num("rounds_seconds_per_run", rounds_s / runs);
    value.put("outside_rounds", Value::Arr(outside_rows));
    value.num("trace_overhead_frac", overhead);
    (text, Value::Obj(value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_check_allows_the_spans_cost_plus_the_bound() {
        assert!(drift_failure(0.03, 0.02).is_none());
        assert!(drift_failure(-0.2, 0.02).is_none());
        assert!(drift_failure(0.25, 0.02).is_none());
        assert!(drift_failure(0.27, 0.02).is_some());
        assert!(drift_failure(-0.25, 0.02).is_some());
    }
}
