//! Overhead regression bench for the observability layer: factor the
//! same matrix with tracing disabled and enabled and record both, so a
//! future change that puts allocation or locking back on the hot path
//! shows up as a number, not a vibe.
//!
//! The disabled configuration must price at zero (it takes the exact
//! code path of the pre-observability runtime); the enabled
//! configuration budgets < 5% on the 8x8-tile reference case. Results
//! land in `BENCH_obs.json` at the workspace root.
//!
//! Usage: `cargo bench --bench observability [-- n b workers]`
//! (default 256 32 4 → the 8x8-tile reference case).

use std::fmt::Write as _;
use tileqr::dag::{EliminationOrder, TaskGraph};
use tileqr::gen::random_matrix;
use tileqr::kernels::{flops, FactorState};
use tileqr::obs::chrome;
use tileqr::runtime::{run_dag, PoolConfig, TraceConfig};
use tileqr::TiledMatrix;
use tileqr_bench::harness;

fn main() {
    let mut args = std::env::args().skip(1).filter(|a| a != "--bench");
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(256);
    let b: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(32);
    let workers: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);
    let samples = 5;

    let a = random_matrix::<f64>(n, n, 11);
    let tiled = TiledMatrix::from_matrix(&a, b).expect("tiling");
    let graph = TaskGraph::build(
        tiled.tile_rows(),
        tiled.tile_cols(),
        EliminationOrder::FlatTs,
    );
    let gflop = flops::qr_flops(n, n) as f64 / 1e9;

    println!(
        "observability overhead: {n}x{n}, tile {b} ({}x{} tiles, {} tasks), {workers} workers",
        tiled.tile_rows(),
        tiled.tile_cols(),
        graph.len()
    );
    harness::header("obs/config");

    let run = |trace: TraceConfig| {
        let mut last = None;
        let stats = harness::measure(samples, || {
            let (_, report) = run_dag(
                FactorState::new(tiled.clone()),
                &graph,
                PoolConfig {
                    workers,
                    trace,
                    ..PoolConfig::default()
                },
                None,
                None,
                None,
            )
            .expect("factorization");
            last = Some(report);
        });
        (stats, last.expect("at least one run"))
    };

    let (off, off_report) = run(TraceConfig::default());
    assert!(
        off_report.trace.is_none(),
        "disabled run must record nothing"
    );
    println!(
        "{:<40} {:>12} {:>12} {:>10.2} GFLOP/s",
        "tracing_disabled",
        harness::format_secs(off.median),
        harness::format_secs(off.min),
        gflop / off.median
    );

    let (on, on_report) = run(TraceConfig::enabled());
    let trace = on_report.trace.as_ref().expect("enabled run records");
    assert_eq!(trace.compute_span_count(), graph.len());
    assert_eq!(
        trace.hot_path_reallocations, 0,
        "recording must never allocate on the hot path"
    );
    assert_eq!(trace.dropped, 0, "default ring capacity must suffice here");
    println!(
        "{:<40} {:>12} {:>12} {:>10.2} GFLOP/s",
        "tracing_enabled",
        harness::format_secs(on.median),
        harness::format_secs(on.min),
        gflop / on.median
    );

    let overhead = on.median / off.median - 1.0;
    println!(
        "\nenabled overhead: {:+.2}% (budget < 5% on the 8x8-tile case)",
        overhead * 100.0
    );
    // Exporting is off the factorization path; time it separately so the
    // artifact records the full cost of getting a trace onto disk.
    let export_stats = harness::measure(samples, || {
        let json = chrome::export(trace);
        std::hint::black_box(json.len());
    });
    println!(
        "{:<40} {:>12} ({} spans, {} events)",
        "chrome_export",
        harness::format_secs(export_stats.median),
        trace.spans.len(),
        trace.events.len()
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"n\": {n},");
    let _ = writeln!(json, "  \"tile_size\": {b},");
    let _ = writeln!(json, "  \"workers\": {workers},");
    let _ = writeln!(json, "  \"tasks\": {},", graph.len());
    let _ = writeln!(json, "  \"samples\": {samples},");
    let _ = writeln!(json, "  \"disabled_seconds\": {:.6},", off.median);
    let _ = writeln!(json, "  \"enabled_seconds\": {:.6},", on.median);
    let _ = writeln!(json, "  \"enabled_overhead\": {:.6},", overhead);
    let _ = writeln!(json, "  \"export_seconds\": {:.6},", export_stats.median);
    let _ = writeln!(json, "  \"spans\": {},", trace.spans.len());
    let _ = writeln!(json, "  \"events\": {},", trace.events.len());
    let _ = writeln!(
        json,
        "  \"hot_path_reallocations\": {}",
        trace.hot_path_reallocations
    );
    let _ = writeln!(json, "}}");
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
    std::fs::write(out, &json).expect("write BENCH_obs.json");
    println!("wrote {out}");
}
