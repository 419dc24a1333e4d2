//! One operation through the library or the service, timed from outside.

use crate::check::{self, Evidence, Outcome, Tally};
use crate::inputs::{self, Job, JobKind};
use crate::layers::{RuntimeAgg, ServiceAgg};
use crate::spans::Spans;
use std::time::{Duration, Instant};
use tileqr::dag::critical_path::critical_path_length;
use tileqr::dag::TaskGraph;
use tileqr::runtime::{
    JobOutput, JobResult, JobSpec, QrService, RunReport, SchedulePolicy, ServiceConfig, TraceConfig,
};
use tileqr::{Matrix, QrOptions, TiledMatrix, TiledQr, TreePolicy};

/// Options of every library call: tile size `b`, `TreePolicy::Auto`,
/// critical-path dispatch, `workers` computing threads.
pub fn options(b: usize, workers: usize, traced: bool) -> QrOptions {
    let opts = QrOptions::new()
        .tile_size(b)
        .tree(TreePolicy::Auto)
        .schedule(SchedulePolicy::CriticalPath)
        .workers(workers);
    if traced {
        opts.tracing(TraceConfig::with_capacity(1 << 17))
    } else {
        opts
    }
}

/// A job's generated inputs: the matrix and its right-hand side block.
pub struct Inputs {
    /// `rows x cols` matrix.
    pub a: Matrix<f64>,
    /// `rows x k` right-hand side (`k = 0` for a factor job).
    pub c: Matrix<f64>,
}

impl Inputs {
    /// Generate `job`'s inputs from `seed`.
    pub fn of(seed: u64, job: &Job) -> Self {
        Inputs {
            a: inputs::matrix(seed, job.index, job.rows, job.cols),
            c: inputs::rhs(seed, job.index, job.rows, job.kind.rhs_cols()),
        }
    }
}

/// A completed library call.
pub struct Call {
    /// Wall time of the public calls, measured around them.
    pub wall: Duration,
    /// The factorization's `R`.
    pub r: Matrix<f64>,
    /// Evidence for the correctness check.
    pub evidence: Evidence,
    /// The pool's report (traced calls only).
    pub report: Option<RunReport>,
}

/// Run `job` as `TiledQr::factor` (or `factor_traced`) followed by
/// `solve`/`apply_qt`, timing the public calls only.
pub fn library_call(
    job: &Job,
    inp: &Inputs,
    opts: &QrOptions,
    spans: &mut Spans,
) -> Result<Call, String> {
    let traced = opts.get_tracing().enabled;
    let start = Instant::now();
    let factored = spans.time("core.factor", job.index, || {
        if traced {
            TiledQr::factor_traced(&inp.a, opts).map(|(qr, rep)| (qr, Some(rep)))
        } else {
            TiledQr::factor(&inp.a, opts).map(|qr| (qr, None))
        }
    });
    let (qr, report) = factored.map_err(|e| e.to_string())?;
    let (x, y) = match job.kind {
        JobKind::Factor => (None, None),
        JobKind::Solve => {
            let x = spans.time("core.solve", job.index, || qr.solve(inp.c.col(0)));
            (Some(x.map_err(|e| e.to_string())?), None)
        }
        JobKind::ApplyQt { .. } => {
            let y = spans.time("core.apply_qt", job.index, || qr.apply_qt(&inp.c));
            (None, Some(y.map_err(|e| e.to_string())?))
        }
    };
    let wall = start.elapsed();
    let r = qr.r();
    let evidence = Evidence::take(&r, x, y.as_ref());
    Ok(Call {
        wall,
        r,
        evidence,
        report,
    })
}

/// One cold, checked library call of `job` at tile size `b` and the
/// host's worker count: what a set-up probe times in a fresh process.
pub fn cold_call(seed: u64, job: &Job, b: usize) -> Result<Duration, String> {
    let opts = options(b, crate::provenance::nproc(), false);
    let call = library_call(job, &Inputs::of(seed, job), &opts, &mut Spans::new(false))?;
    match check::check(seed, job, &call.evidence) {
        Outcome::Correct => Ok(call.wall),
        other => Err(format!("{other:?}")),
    }
}

/// The service request for `job` at tile size `b`.
pub fn job_spec(job: &Job, inp: &Inputs, b: usize) -> JobSpec<f64> {
    let spec = match job.kind {
        JobKind::Factor => JobSpec::factor(inp.a.clone()),
        JobKind::Solve => JobSpec::solve(inp.a.clone(), inp.c.col(0).to_vec()),
        JobKind::ApplyQt { .. } => JobSpec::apply_qt(inp.a.clone(), inp.c.clone()),
    };
    spec.tile_size(b).tree(TreePolicy::Auto).priority(job.class)
}

/// Evidence from a served job's result.
pub fn served_evidence(result: &JobResult<f64>) -> Evidence {
    let r = result.output.factor().r_matrix();
    match &result.output {
        JobOutput::Factored(_) => Evidence::take(&r, None, None),
        JobOutput::Solved { x, .. } => Evidence::take(&r, Some(x.clone()), None),
        JobOutput::Applied { c, .. } => Evidence::take(&r, None, Some(c)),
    }
}

/// Serve `jobs` as one burst through a fresh `QrService` at the host's
/// worker count (blocking `submit`, so the admission bound applies
/// backpressure), wait for every result, check them, and emit the
/// `service.*` metrics.
pub fn served_replay(
    seed: u64,
    jobs: &[Job],
    b: usize,
    tally: &mut Tally,
    out: &mut Vec<(&'static str, f64)>,
    spans: &mut Spans,
) {
    let workers = crate::provenance::nproc();
    let service = QrService::<f64>::start(ServiceConfig {
        workers,
        policy: SchedulePolicy::CriticalPath,
        ..ServiceConfig::default()
    });
    let specs: Vec<JobSpec<f64>> = jobs
        .iter()
        .map(|j| job_spec(j, &Inputs::of(seed, j), b))
        .collect();
    let mut agg = ServiceAgg::default();
    let refused_before = tally.refused;
    let start = Instant::now();
    let mut handles = Vec::with_capacity(jobs.len());
    for (job, spec) in jobs.iter().zip(specs) {
        let submitted = spans.time("service.submit", job.index, || service.submit(spec));
        handles.push(tally.admit(submitted).map(|h| (job, h)));
    }
    let results: Vec<_> = handles
        .into_iter()
        .flatten()
        .map(|(job, h)| (job, spans.time("service.wait", job.index, || h.wait())))
        .collect();
    let wall = start.elapsed();
    agg.refused = tally.refused - refused_before;
    for (job, result) in results {
        match result {
            Ok(r) => {
                agg.add(&r);
                tally.record(check::check(seed, job, &served_evidence(&r)));
            }
            Err(e) => tally.record(Outcome::Error(e.to_string())),
        }
    }
    agg.metrics(&service.shutdown(), workers, wall, out);
}

/// Tiling and DAG-construction costs of one input, timed around the
/// public calls `TiledMatrix::from_matrix` and `TaskGraph::build_tree`.
#[derive(Debug, Default, Clone)]
pub struct BuildAgg {
    n: usize,
    tile_ms: f64,
    build_ms: f64,
    tasks: f64,
    critical_path: f64,
}

impl BuildAgg {
    /// Time tiling and DAG construction for `a` at tile size `b`.
    pub fn add(&mut self, a: &Matrix<f64>, b: usize, op: u64, spans: &mut Spans) {
        let t = Instant::now();
        let tiled = spans.time("matrix.from_matrix", op, || TiledMatrix::from_matrix(a, b));
        self.tile_ms += t.elapsed().as_secs_f64() * 1e3;
        let tiled = tiled.expect("tiling a generated matrix");
        let (mt, nt) = (tiled.tile_rows(), tiled.tile_cols());
        let tree = TreePolicy::Auto.resolve(mt, nt);
        let t = Instant::now();
        let graph = spans.time("dag.build_tree", op, || TaskGraph::build_tree(mt, nt, tree));
        self.build_ms += t.elapsed().as_secs_f64() * 1e3;
        self.tasks += graph.len() as f64;
        self.critical_path += critical_path_length(&graph, |_| 1.0);
        self.n += 1;
    }

    /// `dag.*` and `matrix.*` metrics (means per input).
    pub fn metrics(&self, out: &mut Vec<(&'static str, f64)>) {
        let n = self.n.max(1) as f64;
        out.extend([
            ("dag.tasks", self.tasks / n),
            ("dag.critical_path", self.critical_path / n),
            ("dag.build_ms", self.build_ms / n),
            ("matrix.tile_ms", self.tile_ms / n),
        ]);
    }
}

/// Traced pool calls paired with untraced ones on the same inputs.
#[derive(Debug, Default, Clone)]
pub struct TracedPairs {
    /// Pool accounting from the traced calls.
    pub runtime: RuntimeAgg,
    untraced_s: f64,
    traced_s: f64,
}

impl TracedPairs {
    /// Run `job` at `workers` workers twice, untraced and traced (in an
    /// order alternating with the job index). The traced call is checked
    /// and counted here and feeds the runtime accounting; the untraced
    /// call is returned for the caller to check and count.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &mut self,
        seed: u64,
        job: &Job,
        inp: &Inputs,
        b: usize,
        workers: usize,
        tally: &mut Tally,
        spans: &mut Spans,
    ) -> Result<Call, String> {
        let mut untraced = Err("not run".to_string());
        for traced in [!job.index.is_multiple_of(2), job.index.is_multiple_of(2)] {
            let call = library_call(job, inp, &options(b, workers, traced), spans);
            if !traced {
                untraced = call;
                continue;
            }
            if let Some(call) = record(seed, job, call, tally) {
                self.traced_s += call.wall.as_secs_f64();
                let report = call.report.as_ref().expect("traced call has a report");
                self.runtime.add(report, workers, call.wall);
            }
        }
        if let Ok(call) = &untraced {
            self.untraced_s += call.wall.as_secs_f64();
        }
        untraced
    }

    /// Relative cost of tracing: traced ÷ untraced wall time − 1.
    pub fn overhead_frac(&self) -> f64 {
        if self.untraced_s > 0.0 {
            self.traced_s / self.untraced_s - 1.0
        } else {
            0.0
        }
    }
}

/// Check a library call's result and count its outcome; the call is
/// passed on only when it succeeded.
pub fn record(seed: u64, job: &Job, call: Result<Call, String>, tally: &mut Tally) -> Option<Call> {
    match call {
        Ok(call) => {
            tally.record(check::check(seed, job, &call.evidence));
            Some(call)
        }
        Err(e) => {
            tally.record(Outcome::Error(e));
            None
        }
    }
}
