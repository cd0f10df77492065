//! Host and provenance record attached to every result: the machine, the
//! kernel blocking the program derived on it, the build flags, and which
//! source tree was measured.

use crate::json::Object;
use std::path::{Path, PathBuf};

/// The program's packed-GEMM dispatch threshold in multiply-adds. The
/// constant is private to `fedft-tensor`; this copy is used only to report
/// which of a workload's products cross it.
pub const PACKED_FLOP_THRESHOLD: usize = 1 << 24;

/// Root of the source tree the benchmark was built from.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// The host/provenance object for a result.
pub fn record(workload: &str, seed: u64) -> Object {
    let info = fedft_tensor::cache::cache_info();
    let blocks = fedft_tensor::cache::block_sizes();
    let mut host = Object::new();
    host.str("workload", workload);
    host.num("seed", seed as f64);
    host.num(
        "nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
    );
    host.num(
        "pool_threads",
        fedft_tensor::pool::hardware_threads() as f64,
    );
    host.str("cpu_model", &cpu_model());
    host.num("l1d_bytes", info.l1d as f64);
    host.num("l2_bytes", info.l2 as f64);
    host.num("l3_bytes", info.l3 as f64);
    host.str(
        "cache_source",
        if info.detected { "sysfs" } else { "fallback" },
    );
    host.num("gebp_kc", blocks.kc as f64);
    host.num("gebp_mc", blocks.mc as f64);
    host.num("gebp_nc", blocks.nc as f64);
    host.num("packed_flop_threshold", PACKED_FLOP_THRESHOLD as f64);
    host.str("rustflags", env!("E2EBENCH_RUSTFLAGS"));
    host.str("target_features", &target_features());
    host.str("git_commit", &git_commit());
    host.str("source_fnv64", &format!("{:016x}", source_fingerprint()));
    host
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn target_features() -> String {
    let features = [
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("neon", cfg!(target_feature = "neon")),
    ];
    let on: Vec<&str> = features
        .iter()
        .filter(|(_, enabled)| *enabled)
        .map(|(name, _)| *name)
        .collect();
    if on.is_empty() {
        "baseline".into()
    } else {
        on.join(",")
    }
}

/// The commit checked out at the source root, or `"none"` when the tree is
/// not a git checkout (then `source_fnv64` identifies it).
fn git_commit() -> String {
    let git = repo_root().join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(commit) = std::fs::read_to_string(git.join(reference)) {
        return commit.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (commit, name) = line.split_once(' ')?;
                (name == reference).then(|| commit.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the program's sources (`*.rs`, `*.toml`, `Cargo.lock` under
/// the crates, shims and facade, plus the root manifests), in path order.
pub fn source_fingerprint() -> u64 {
    let root = repo_root();
    let mut files: Vec<PathBuf> = vec![
        root.join("Cargo.toml"),
        root.join("Cargo.lock"),
        root.join(".cargo").join("config.toml"),
    ];
    for dir in ["crates", "shims", "src"] {
        collect_sources(&root.join(dir), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for file in files {
        let Ok(bytes) = std::fs::read(&file) else {
            continue;
        };
        let relative = file.strip_prefix(&root).unwrap_or(&file);
        feed(relative.to_string_lossy().as_bytes());
        feed(&bytes);
    }
    hash
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name != "target" && name != "results" {
                collect_sources(&path, out);
            }
        } else if name.ends_with(".rs") || name.ends_with(".toml") || name == "Cargo.lock" {
            out.push(path);
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib * 1024)
}

/// Machine-wide CPU time from `/proc/stat`, in clock ticks: time the CPUs
/// spent running anything, and time the hypervisor gave the machine's
/// virtual CPUs to another guest while they had work (steal).
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    busy: u64,
    steal: u64,
}

impl CpuTicks {
    /// Reads the counters; all zero where `/proc/stat` is unavailable, so
    /// no time is ever taken out.
    pub fn now() -> CpuTicks {
        let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
            return CpuTicks::default();
        };
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .map(|f| f.parse().unwrap_or(0))
            .collect();
        let field = |i: usize| fields.get(i).copied().unwrap_or(0);
        CpuTicks {
            // user, nice, system, irq, softirq
            busy: field(0) + field(1) + field(2) + field(5) + field(6),
            steal: field(7),
        }
    }

    /// Share of the CPU time wanted since `earlier` that was stolen.
    pub fn steal_share_since(&self, earlier: &CpuTicks) -> f64 {
        let busy = self.busy.saturating_sub(earlier.busy);
        let steal = self.steal.saturating_sub(earlier.steal);
        if busy + steal == 0 {
            0.0
        } else {
            steal as f64 / (busy + steal) as f64
        }
    }
}
