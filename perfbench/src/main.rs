//! The tileqr benchmark: end-to-end metrics of two workloads, and
//! per-layer metrics from a traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <square|tall> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`; the
//! lines before it are the provenance stamp and a readable summary. See
//! `perfbench/README.md`.

mod check;
mod inputs;
mod json;
mod layers;
mod library;
mod ops;
mod provenance;
mod spans;
mod stats;
mod workload;

use spans::Spans;
use std::process::{Command, ExitCode};
use workload::{Params, Workload, END_TO_END, PER_LAYER};

/// Fresh processes whose cold start gives `setup_s` (their median).
const SETUP_PROBES: usize = 15;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced, mut setup_probe) =
        (None, None, 10, false, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&seconds) {
                    return Err("--seconds must be 1..=600".into());
                }
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                }
            }
            "--setup-probe" => setup_probe = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced,
        setup_probe,
    })
}

/// Median cold start over [`SETUP_PROBES`] fresh processes.
fn measure_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut samples = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        let out = Command::new(&exe)
            .args(["--setup-probe", "--workload", args.workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .output()
            .map_err(|e| format!("spawning the set-up probe: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            return Err(format!(
                "set-up probe failed: {}{}",
                stdout,
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let secs: f64 = stdout
            .trim()
            .parse()
            .map_err(|e| format!("set-up probe printed {stdout:?}: {e}"))?;
        samples.push(secs);
    }
    Ok(stats::median(&samples).expect("at least one probe"))
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let stamp = provenance::stamp(
        w.name(),
        &w.describe(),
        args.seed,
        args.seconds,
        args.traced,
        w.working_set_bytes(),
    );
    println!("provenance {stamp}");
    let setup_s = if args.traced {
        None
    } else {
        Some(measure_setup(args)?)
    };
    let params = Params {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
    };
    let mut spans = Spans::new(args.traced);
    let mut m = w.run(&params, &mut spans);

    let catalogue: &[(&str, &str)] = if args.traced { &PER_LAYER } else { &END_TO_END };
    let mut values = if args.traced {
        std::mem::take(&mut m.layers)
    } else {
        let mut v = vec![("setup_s", setup_s.expect("untraced runs measure set-up"))];
        v.append(&mut m.e2e);
        v.push(("peak_rss_mb", peak_rss_mb()?));
        v
    };
    let mut metrics = Vec::with_capacity(catalogue.len());
    for &(name, unit) in catalogue {
        let pos = values
            .iter()
            .position(|(n, _)| *n == name)
            .ok_or_else(|| format!("workload {} produced no {name}", w.name()))?;
        let (_, value) = values.swap_remove(pos);
        if !value.is_finite() {
            return Err(format!("{name} is not finite ({value})"));
        }
        println!("{name:<32} {value:>16.6} {unit}");
        metrics.push((
            name,
            json::object([("value", json::number(value)), ("unit", json::string(unit))]),
        ));
    }
    if let Some((extra, _)) = values.first() {
        return Err(format!("metric {extra} is not in the catalogue"));
    }
    let t = &m.tally;
    println!(
        "{:<32} {:>16.6} frac  ({} failed of {} attempted: {} wrong, {} errors, {} refused)",
        "failed_frac",
        t.failed_frac(),
        t.failed(),
        t.attempted,
        t.wrong,
        t.errors,
        t.refused
    );
    if let Some(first) = &t.first_failure {
        println!("first failure: {first}");
    }
    for note in &m.notes {
        println!("note: {note}");
    }
    if args.traced {
        for (name, us) in spans.self_time_us() {
            println!("span self time {name:<28} {:>12.3} ms", us / 1e3);
        }
        let dir = std::path::Path::new("perfbench/out");
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join(format!("spans-{}-seed{}.jsonl", w.name(), args.seed));
        std::fs::write(&path, format!("{stamp}\n{}", spans.to_jsonl()))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans: {} written to {}", spans.len(), path.display());
    }
    println!(
        "{}",
        json::object([
            ("correct", t.correct().to_string()),
            ("attempted", t.attempted.to_string()),
            ("failed", t.failed().to_string()),
            ("metrics", json::object(metrics)),
        ])
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        return match args.workload.cold_start(args.seed) {
            Ok(d) => {
                println!("{:?}", d.as_secs_f64());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: cold start failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
