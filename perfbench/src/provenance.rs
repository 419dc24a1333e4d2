//! Provenance stamped on every result: what was measured, on what, how.

use crate::json;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Git revision of the checkout, or `unavailable` where the checkout is
/// not a git tree. Discovery stops at the checkout root, so a git tree
/// that merely contains the checkout is never reported.
fn git_rev() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable".to_string())
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if name == "target" || name == "out" || name.to_string_lossy().starts_with('.') {
            continue;
        }
        match entry.file_type() {
            Ok(t) if t.is_dir() => collect_files(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}

/// FNV-1a digest of the sources that make up the measured program
/// (`Cargo.toml`, `crates/`, `perfbench/`), identifying the code even
/// where the checkout carries no git metadata.
fn source_digest() -> String {
    let mut files = vec![PathBuf::from("Cargo.toml")];
    collect_files(Path::new("crates"), &mut files);
    collect_files(Path::new("perfbench"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            feed(f.to_string_lossy().as_bytes());
            feed(&bytes);
        }
    }
    format!("fnv1a64:{h:016x} over {} files", files.len())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Size in KiB of CPU 0's cache at `level` (unified or data), if known.
fn cache_kib(level: u32) -> Option<u64> {
    (0..8).find_map(|i| {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let lvl: u32 = read("level")?.trim().parse().ok()?;
        let kind = read("type")?;
        if lvl != level || kind.trim() == "Instruction" {
            return None;
        }
        let size = read("size")?;
        let size = size.trim();
        let (num, mult) = match size.strip_suffix('K') {
            Some(n) => (n, 1),
            None => match size.strip_suffix('M') {
                Some(n) => (n, 1024),
                None => (size, 1),
            },
        };
        num.parse::<u64>().ok().map(|v| v * mult)
    })
}

/// Worker count of every "nproc" run: the host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The provenance object, as JSON.
pub fn stamp(
    workload: &str,
    constants: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    working_set_bytes: usize,
) -> String {
    let l2 = cache_kib(2);
    let l3 = cache_kib(3);
    let ws_mib = working_set_bytes as f64 / (1024.0 * 1024.0);
    let cache_note = match l3 {
        Some(l3) if (working_set_bytes as u64) < l3 * 1024 => format!(
            "working set {ws_mib:.1} MiB fits in the {:.0} MiB L3: no bandwidth or roofline claim is made",
            l3 as f64 / 1024.0
        ),
        Some(l3) => format!(
            "working set {ws_mib:.1} MiB exceeds the {:.0} MiB L3",
            l3 as f64 / 1024.0
        ),
        None => format!("working set {ws_mib:.1} MiB; cache sizes unknown"),
    };
    let kib = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
    json::object([
        ("workload", json::string(workload)),
        ("constants", json::string(constants)),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        ("traced", traced.to_string()),
        ("git_rev", json::string(&git_rev())),
        ("source_digest", json::string(&source_digest())),
        ("rustc", json::string(env!("PERFBENCH_RUSTC"))),
        ("cpu_model", json::string(&cpu_model())),
        ("available_parallelism", nproc().to_string()),
        ("l2_kib", kib(l2)),
        ("l3_kib", kib(l3)),
        ("cache_note", json::string(&cache_note)),
    ])
}
