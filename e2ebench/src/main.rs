//! End-to-end and per-layer benchmark of the FedFT-EDS workspace.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload eds-paper --seed 2025 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` times `Simulation::run_labelled` with tracing off and reports
//! the end-to-end metrics; `--trace 1` runs the traced replay and reports
//! the per-layer metrics and the Amdahl table. Either way the last line of
//! standard output is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`; a full record (host, provenance, samples, failures) goes
//! to `e2ebench/results/`. `cargo test --manifest-path e2ebench/Cargo.toml`
//! runs every workload at a tiny size through the same code and checks the
//! traced replay against the program.

mod bench;
mod host;
mod json;
mod layers;
mod replay;
mod stats;
mod trace;
mod workloads;

use bench::Measurement;
use json::{Object, Value};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Scale, Workload};

/// Workload seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 2025;
/// Measuring window when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn result_path(workload: Workload, seed: u64, trace: bool) -> PathBuf {
    results_dir().join(format!(
        "{}-seed{seed}-trace{}.json",
        workload.name(),
        u8::from(trace)
    ))
}

/// Writes the full record (and, for a traced run, its spans) to the results
/// directory.
fn save(workload: Workload, seed: u64, trace: bool, m: &Measurement) -> std::io::Result<()> {
    std::fs::create_dir_all(results_dir())?;
    std::fs::write(result_path(workload, seed, trace), m.record.render() + "\n")?;
    if trace {
        let mut csv = String::from("id,parent,name,start_ns,end_ns,round,client,arg,thread\n");
        for s in &m.spans {
            csv.push_str(&format!(
                "{},{},{},{},{},{},{},{},{}\n",
                s.id,
                s.parent.map_or(String::new(), |p| p.to_string()),
                s.name,
                s.start_ns,
                s.end_ns,
                s.round,
                s.client.map_or(String::new(), |c| c.to_string()),
                s.arg,
                s.thread
            ));
        }
        let spans = results_dir().join(format!("{}-seed{seed}-spans.csv", workload.name()));
        std::fs::write(spans, csv)?;
    }
    Ok(())
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(m: &Measurement) -> String {
    let mut line = Object::new();
    line.put("correct", Value::Bool(m.failed == 0));
    line.num("attempted", m.attempted as f64);
    line.num("failed", m.failed as f64);
    line.put("metrics", Value::Obj(bench::metrics_object(&m.metrics)));
    line.render()
}

/// The paper's workload reduction in measured and in modelled time: the
/// `run_s` ratio of `eds-paper` to `fedavg-paper` next to the cost model's
/// `total_client_seconds` ratio, from the latest end-to-end results of
/// both for `seed`. Reported only, never gated.
fn contrast(seed: u64) -> Option<String> {
    let read = |w| std::fs::read_to_string(result_path(w, seed, false)).ok();
    let eds = read(Workload::EdsPaper)?;
    let avg = read(Workload::FedavgPaper)?;
    let num = |text: &str, key| json::find_number(text, key);
    let (eds_run, avg_run) = (num(&eds, "run_s")?, num(&avg, "run_s")?);
    let eds_model = num(&eds, "total_client_seconds")?;
    let avg_model = num(&avg, "total_client_seconds")?;
    Some(format!(
        "paper contrast, seed {seed}: eds-paper/fedavg-paper run_s {eds_run:.4}/{avg_run:.4} s = \
         {:.3} measured; cost-model total_client_seconds {eds_model:.2}/{avg_model:.2} = {:.3} modelled",
        eds_run / avg_run,
        eds_model / avg_model
    ))
}

fn measure(
    workload: Workload,
    scale: Scale,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Measurement, Box<dyn std::error::Error>> {
    if trace {
        bench::measure_layers(workload, scale, seed, seconds)
    } else {
        bench::measure_end_to_end(workload, scale, seed, seconds)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload else {
        eprintln!(
            "e2ebench: --workload is required (eds-paper, fedavg-paper, stream-100k, eds-wide)"
        );
        return ExitCode::from(2);
    };
    let m = match measure(workload, Scale::Full, args.seed, args.seconds, args.trace) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("e2ebench: {}: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    print!("{}", m.report);
    if let Err(e) = save(workload, args.seed, args.trace, &m) {
        eprintln!("e2ebench: could not write results: {e}");
    }
    if !args.trace && matches!(workload, Workload::EdsPaper | Workload::FedavgPaper) {
        if let Some(text) = contrast(args.seed) {
            println!("{text}");
        }
    }
    for failure in &m.failures {
        println!("check failed: {failure}");
    }
    println!(
        "error_rate {} ({} of {} runs)",
        m.error_rate(),
        m.failed,
        m.attempted
    );
    println!("{}", result_line(&m));
    if m.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs every workload at the tiny scale through both measurements and
    /// reports whether every check held (traced replay ≡ program included).
    fn self_test(seed: u64) -> bool {
        let mut ok = true;
        for workload in workloads::ALL {
            for trace in [false, true] {
                let status = match measure(workload, Scale::Tiny, seed, 0.0, trace) {
                    Ok(m) if m.failed == 0 => format!("ok ({} runs)", m.attempted),
                    Ok(m) => format!("FAILED: {:?}", m.failures),
                    Err(e) => format!("ERROR: {e}"),
                };
                ok &= status.starts_with("ok");
                println!(
                    "self-test {} trace {}: {status}",
                    workload.name(),
                    u8::from(trace)
                );
            }
        }
        ok
    }

    #[test]
    fn every_workload_passes_its_checks_at_tiny_scale() {
        let _lock = crate::trace::TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        assert!(self_test(DEFAULT_SEED));
    }
}
