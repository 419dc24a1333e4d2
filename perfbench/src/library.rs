//! `square` and `tall`: one large least-squares problem per operation,
//! `TiledQr::factor` + `solve` in a closed loop with a single caller.
//!
//! Each input is solved twice, at the host's worker count and at one
//! worker, in an order that alternates from input to input so slow drift
//! of the host hits both sides alike. Both results are checked, and the
//! two `R` factors must be bit-identical.

use crate::check::{self, Outcome, Tally};
use crate::inputs::{self, Job, JobKind, MIX_TILE};
use crate::layers;
use crate::ops::{self, BuildAgg, Inputs, TracedPairs};
use crate::spans::Spans;
use crate::stats;
use crate::workload::{Measured, Params};
use std::time::{Duration, Instant};
use tileqr::kernels::flops::qr_flops;
use tileqr::TreePolicy;

/// Shape of a library workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Matrix rows.
    pub m: usize,
    /// Matrix columns.
    pub n: usize,
    /// Tile size.
    pub b: usize,
}

/// Percentile of the per-call wall times that `time_to_solution_s` and
/// `serial_time_to_solution_s` report. Co-tenants of a shared host only
/// ever add time, and they come and go over seconds: on a 2-vCPU guest,
/// 1-worker calls of `square` switched between ~0.27 s and ~0.47 s within
/// one run. The median of a run follows that host state; the lower
/// decile follows the code. `latency_p50_ms` keeps the median.
const SOLUTION_PERCENTILE: f64 = 0.1;

/// Jobs of the seeded small-job mix the traced run serves through a
/// resident `QrService`: traffic on which the service's batching and
/// weighted fair queueing fire, as one large input never makes them.
const SERVED_MIX_JOBS: u64 = 256;

fn job(shape: Shape, index: u64) -> Job {
    Job {
        index,
        rows: shape.m,
        cols: shape.n,
        kind: JobKind::Solve,
        class: Default::default(),
    }
}

/// The set-up probe: one cold factor + solve in a fresh process.
pub fn cold_call(shape: Shape, seed: u64) -> Result<Duration, String> {
    ops::cold_call(seed, &job(shape, 0), shape.b)
}

/// Run the closed loop for `p.seconds`.
pub fn run(shape: Shape, p: &Params, spans: &mut Spans) -> Measured {
    let nproc = crate::provenance::nproc();
    let mut tally = Tally::default();
    let mut par_s: Vec<f64> = Vec::new();
    let mut serial_s: Vec<f64> = Vec::new();
    let mut gaps_ms: Vec<f64> = Vec::new();
    let mut pairs = TracedPairs::default();
    let mut builds = BuildAgg::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs(p.seconds);
    let mut last_end: Option<Instant> = None;
    let mut index = 0u64;
    while index == 0 || Instant::now() < deadline {
        let j = job(shape, index);
        let inp = Inputs::of(p.seed, &j);
        if p.traced {
            builds.add(&inp.a, shape.b, index, spans);
        }
        let (mut par, mut serial) = (None, None);
        for is_par in [index.is_multiple_of(2), !index.is_multiple_of(2)] {
            let workers = if is_par { nproc } else { 1 };
            if let Some(end) = last_end {
                gaps_ms.push(end.elapsed().as_secs_f64() * 1e3);
            }
            let call = if p.traced && is_par {
                pairs.run(p.seed, &j, &inp, shape.b, workers, &mut tally, spans)
            } else {
                ops::library_call(&j, &inp, &ops::options(shape.b, workers, false), spans)
            };
            last_end = Some(Instant::now());
            *(if is_par { &mut par } else { &mut serial }) = Some(call);
        }
        let same_r = match (&par, &serial) {
            (Some(Ok(a)), Some(Ok(b))) => check::identical(&a.r, &b.r),
            _ => true,
        };
        for (call, samples) in [(par, &mut par_s), (serial, &mut serial_s)] {
            match call.expect("both worker counts ran") {
                Ok(c) => {
                    samples.push(c.wall.as_secs_f64());
                    tally.record(match check::check(p.seed, &j, &c.evidence) {
                        Outcome::Correct if !same_r => Outcome::Wrong(format!(
                            "input {index}: R at {nproc} workers differs from the 1-worker R"
                        )),
                        o => o,
                    });
                }
                Err(e) => tally.record(Outcome::Error(e)),
            }
        }
        index += 1;
    }
    let loop_wall = start.elapsed();

    let solution = |s: &[f64]| stats::percentile(s, SOLUTION_PERCENTILE).unwrap_or(f64::NAN);
    let tts = solution(&par_s);
    let mut m = Measured::new(tally);
    m.e2e = vec![
        ("time_to_solution_s", tts),
        ("serial_time_to_solution_s", solution(&serial_s)),
        ("gflops", qr_flops(shape.m, shape.n) as f64 / tts / 1e9),
        (
            "throughput_jobs_s",
            par_s.len() as f64 / par_s.iter().sum::<f64>(),
        ),
    ];
    let par_ms: Vec<f64> = par_s.iter().map(|s| s * 1e3).collect();
    m.latency(&par_ms);
    m.note(format!(
        "{index} inputs; {} timed calls at {nproc} workers, {} at 1 worker",
        par_s.len(),
        serial_s.len()
    ));

    if p.traced {
        m.kernels(layers::kernel_probe(p.seed, shape.b, spans));
        pairs.runtime.metrics(&mut m.layers);
        builds.metrics(&mut m.layers);
        // Service layer: the small-job mix, served as one burst.
        let jobs: Vec<Job> = (0..SERVED_MIX_JOBS)
            .map(|i| inputs::job(p.seed, i))
            .collect();
        ops::served_replay(p.seed, &jobs, MIX_TILE, &mut m.tally, &mut m.layers, spans);
        m.layers.extend([
            ("obs.trace_overhead_frac", pairs.overhead_frac()),
            (
                "loadgen.late_p99_ms",
                stats::tail(&gaps_ms, 0.99).map_or(0.0, |t| t.value),
            ),
            (
                "loadgen.offered_jobs_s",
                (par_s.len() + serial_s.len()) as f64 / loop_wall.as_secs_f64(),
            ),
        ]);
    }
    m
}

/// The workload's constants, for the provenance stamp.
pub fn describe(shape: Shape) -> String {
    let tree = TreePolicy::Auto.resolve(shape.m.div_ceil(shape.b), shape.n.div_ceil(shape.b));
    format!(
        "{}x{} f64, b={}, TreePolicy::Auto -> {}, critical-path order, factor+solve at {} and 1 workers",
        shape.m,
        shape.n,
        shape.b,
        tree.label(),
        crate::provenance::nproc()
    )
}
