//! Load-generator benchmark for the resident [`QrService`]: a seeded
//! open-loop arrival process (exponential inter-arrivals via [`Rng64`])
//! offers a mixed-size job stream at several multiples of the measured
//! service capacity and records the p50/p95/p99 job latency at each
//! offered load, plus a saturation-throughput A/B against the serial
//! spin-up-a-pool-per-matrix baseline, plus a **shedding** phase: the
//! same stream at 2x capacity with per-job deadlines, recording how
//! many jobs the service shed (`jobs_shed`) and the p99 latency of the
//! jobs that still completed under shedding. Every row lands in
//! `BENCH_service.json` (workspace root) so the throughput claim is
//! reproducible from a committed artifact.
//!
//! Usage: `cargo bench --bench service_load [-- --smoke]`.

use std::fmt::Write as _;
use std::time::{Duration, Instant};
use tileqr::dag::{EliminationOrder, TaskGraph};
use tileqr::gen::random_matrix;
use tileqr::kernels::FactorState;
use tileqr::obs::LatencyHistogram;
use tileqr::runtime::{run_dag, JobSpec, PoolConfig, QrService, SchedulePolicy, ServiceConfig};
use tileqr::{Matrix, Rng64, TiledMatrix};
use tileqr_bench::harness;

/// One offered-load level's latency summary.
struct Level {
    offered: f64,
    rate_jobs_per_s: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    mean_queue_wait_us: f64,
    jobs: usize,
}

/// Mixed-size workload: job `i` cycles through three shapes so the
/// stream carries both deep DAGs and near-instant single-panel jobs.
fn job_matrix(i: u64, smoke: bool) -> (Matrix<f64>, usize) {
    let shapes: &[(usize, usize)] = if smoke {
        &[(48, 48), (64, 32), (32, 32)]
    } else {
        &[(128, 128), (192, 128), (64, 64)]
    };
    let (m, n) = shapes[(i % 3) as usize];
    (random_matrix::<f64>(m, n, 10_000 + i), 16)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let jobs: u64 = if smoke { 9 } else { 33 };
    let b = 16usize;
    let guard = harness::cores_guard(
        "service concurrency, fair-share interleaving, and throughput-vs-spin-up numbers",
    );
    let cores = guard.cores;
    let config = ServiceConfig {
        workers: 0, // all cores
        policy: SchedulePolicy::CriticalPath,
        max_in_flight: 0, // open-loop: arrivals must never block on admission
        ..ServiceConfig::default()
    };
    let workers = config.effective_workers();

    println!(
        "service load: {jobs} mixed-size jobs, tile {b}, {workers} worker(s), {cores} core(s){}",
        if smoke { " [smoke]" } else { "" }
    );

    // --- Baseline: spin up a fresh pool per matrix, serially. -----------
    let specs: Vec<(Matrix<f64>, usize)> = (0..jobs).map(|i| job_matrix(i, smoke)).collect();
    let t0 = Instant::now();
    for (a, b) in &specs {
        let tiled = TiledMatrix::from_matrix(a, *b).expect("tiling");
        let graph = TaskGraph::build(
            tiled.tile_rows(),
            tiled.tile_cols(),
            EliminationOrder::FlatTs,
        );
        run_dag(
            FactorState::new(tiled),
            &graph,
            PoolConfig {
                workers,
                policy: SchedulePolicy::CriticalPath,
                ..PoolConfig::default()
            },
            None,
            None,
            None,
        )
        .map(|(state, _)| state)
        .expect("baseline factor");
    }
    let baseline_s = t0.elapsed().as_secs_f64();

    // --- Saturation: all jobs at once through one resident service. -----
    let svc = QrService::<f64>::start(config);
    let t0 = Instant::now();
    let handles: Vec<_> = specs
        .iter()
        .map(|(a, b)| {
            svc.submit(JobSpec::factor(a.clone()).tile_size(*b))
                .unwrap()
        })
        .collect();
    for h in handles {
        h.wait().expect("saturation job");
    }
    let saturation_s = t0.elapsed().as_secs_f64();
    svc.shutdown();
    let capacity = jobs as f64 / saturation_s;
    let speedup = baseline_s / saturation_s;

    harness::header("service/phase");
    println!(
        "{:<40} {:>12} {:>12} {:>10.1} jobs/s",
        "baseline_spinup_per_matrix",
        harness::format_secs(baseline_s),
        harness::format_secs(baseline_s),
        jobs as f64 / baseline_s
    );
    println!(
        "{:<40} {:>12} {:>12} {:>10.1} jobs/s  ({speedup:.2}x vs spin-up)",
        "service_saturation",
        harness::format_secs(saturation_s),
        harness::format_secs(saturation_s),
        capacity
    );

    // --- Open-loop offered-load sweep: 0.5x, 1x, 2x capacity. -----------
    let mut levels: Vec<Level> = Vec::new();
    for (li, &offered) in [0.5f64, 1.0, 2.0].iter().enumerate() {
        let lambda = offered * capacity; // jobs per second
        let mut rng = Rng64::seed_from_u64(0xB0A7 + li as u64);
        let svc = QrService::<f64>::start(config);
        let mut handles = Vec::new();
        for (i, (a, b)) in specs.iter().enumerate() {
            // Exponential inter-arrival: -ln(1 - u) / lambda.
            if i > 0 {
                let u = rng.next_f64();
                let gap = -(1.0 - u).ln() / lambda;
                std::thread::sleep(Duration::from_secs_f64(gap.min(2.0)));
            }
            handles.push(
                svc.submit(JobSpec::factor(a.clone()).tile_size(*b))
                    .unwrap(),
            );
        }
        let mut lat = LatencyHistogram::new();
        let mut queue_wait_us = 0.0f64;
        let n = handles.len();
        for h in handles {
            let res = h.wait().expect("load job");
            lat.record_ns(res.latency.as_nanos().min(u128::from(u64::MAX)) as u64);
            queue_wait_us += res.queue_wait.as_secs_f64() * 1e6;
        }
        svc.shutdown();
        let lv = Level {
            offered,
            rate_jobs_per_s: lambda,
            p50_us: lat.p50_us().unwrap_or(0.0),
            p95_us: lat.p95_us().unwrap_or(0.0),
            p99_us: lat.p99_us().unwrap_or(0.0),
            mean_queue_wait_us: queue_wait_us / n as f64,
            jobs: n,
        };
        println!(
            "{:<40} {:>12} {:>12} {:>10}  (p50 {:.0} us, p95 {:.0} us, p99 {:.0} us)",
            format!("open_loop/{offered}x"),
            format!("{:.1}/s", lv.rate_jobs_per_s),
            format!("{n} jobs"),
            "",
            lv.p50_us,
            lv.p95_us,
            lv.p99_us
        );
        levels.push(lv);
    }

    // --- Shedding: 2x capacity, every job deadline-bound. ----------------
    // The deadline is the 1x-load p95 sojourn: comfortably met when the
    // service keeps up, routinely blown once the backlog from 2x load
    // builds — so the service sheds the overflow instead of letting the
    // whole stream's latency collapse.
    let deadline = Duration::from_secs_f64((levels[1].p95_us * 1e-6).max(1e-4));
    let lambda = 2.0 * capacity;
    let mut rng = Rng64::seed_from_u64(0x5EED);
    let svc = QrService::<f64>::start(config);
    let mut handles = Vec::new();
    for (i, (a, b)) in specs.iter().enumerate() {
        if i > 0 {
            let u = rng.next_f64();
            let gap = -(1.0 - u).ln() / lambda;
            std::thread::sleep(Duration::from_secs_f64(gap.min(2.0)));
        }
        handles.push(
            svc.submit(JobSpec::factor(a.clone()).tile_size(*b).deadline(deadline))
                .unwrap(),
        );
    }
    let mut shed_lat = LatencyHistogram::new();
    let mut shed_completed = 0usize;
    let shed_offered = handles.len();
    for h in handles {
        match h.wait() {
            Ok(res) => {
                shed_lat.record_ns(res.latency.as_nanos().min(u128::from(u64::MAX)) as u64);
                shed_completed += 1;
            }
            Err(tileqr::runtime::ServiceError::DeadlineExceeded { .. }) => {}
            Err(e) => panic!("shedding job failed unexpectedly: {e}"),
        }
    }
    let shed_stats = svc.shutdown();
    let jobs_shed = shed_stats.lifecycle.jobs_shed;
    let shed_p99_us = shed_lat.p99_us().unwrap_or(0.0);
    println!(
        "{:<40} {:>12} {:>12} {:>10}  ({} shed, p99-completed {:.0} us, deadline {:.0} us)",
        "shedding/2.0x",
        format!("{lambda:.1}/s"),
        format!("{shed_offered} jobs"),
        "",
        jobs_shed,
        shed_p99_us,
        deadline.as_secs_f64() * 1e6
    );

    // --- Artifact. -------------------------------------------------------
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"jobs\": {jobs},");
    let _ = writeln!(json, "  \"tile_size\": {b},");
    let _ = writeln!(json, "  \"workers\": {workers},");
    json.push_str(&guard.json_fields("  "));
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"baseline_spinup_seconds\": {baseline_s:.6},");
    let _ = writeln!(json, "  \"service_saturation_seconds\": {saturation_s:.6},");
    let _ = writeln!(json, "  \"service_capacity_jobs_per_s\": {capacity:.3},");
    let _ = writeln!(json, "  \"service_speedup_vs_spinup\": {speedup:.4},");
    let _ = writeln!(json, "  \"levels\": [");
    for (idx, l) in levels.iter().enumerate() {
        let sep = if idx + 1 == levels.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"offered_load\": {}, \"arrival_rate_jobs_per_s\": {:.3}, \"jobs\": {}, \"p50_us\": {:.1}, \"p95_us\": {:.1}, \"p99_us\": {:.1}, \"mean_queue_wait_us\": {:.1}}}{sep}",
            l.offered, l.rate_jobs_per_s, l.jobs, l.p50_us, l.p95_us, l.p99_us, l.mean_queue_wait_us,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"shedding\": {{\"offered_load\": 2.0, \"deadline_us\": {:.1}, \"jobs\": {shed_offered}, \"jobs_shed\": {jobs_shed}, \"completed\": {shed_completed}, \"p99_completed_us\": {shed_p99_us:.1}}}",
        deadline.as_secs_f64() * 1e6
    );
    let _ = writeln!(json, "}}");
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json");
    std::fs::write(out, &json).expect("write BENCH_service.json");
    println!("wrote {out}");
}
