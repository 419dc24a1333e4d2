//! Per-layer measurements for the traced run.
//!
//! - `kernels`: isolated, warm `_ws` kernel calls at the workload's tile size.
//! - `runtime`: the pool's own [`RunReport`] and lifecycle `Trace` from
//!   `TiledQr::factor_traced`, split into shares of workers × wall time.
//! - `service`: raw per-job samples from `JobResult` plus the counters
//!   of `ServiceStats` (never its histogram buckets).

use crate::inputs;
use crate::spans::Spans;
use crate::stats;
use std::hint::black_box;
use std::time::{Duration, Instant};
use tileqr::kernels::{
    flops, geqrt_ws, tsmqr_apply_ws, tsqrt_ws, ttmqr_apply_ws, ttqrt_ws, unmqr_ws, ApplySide,
    Workspace,
};
use tileqr::obs::{kind_index, Phase};
use tileqr::runtime::{JobResult, RunReport, ServiceStats};
use tileqr::Matrix;

/// Kernel names in `obs::kind_index` order.
const KERNELS: [&str; 6] = ["geqrt", "unmqr", "tsqrt", "tsmqr", "ttqrt", "ttmqr"];

/// One kernel's isolated timing.
#[derive(Debug, Clone, Copy)]
pub struct KernelRow {
    /// Kernel name.
    pub name: &'static str,
    /// Median time per call, µs (including the `b x b` input reset).
    pub us: f64,
    /// `flops / time`.
    pub gflops: f64,
    /// Computed bytes per call: `8 b²` per tile read plus per tile written.
    pub bytes: usize,
}

fn kernel_flops(name: &str, b: usize) -> u64 {
    match name {
        "geqrt" => flops::geqrt_flops(b),
        "unmqr" => flops::unmqr_flops(b),
        "tsqrt" => flops::tsqrt_flops(b),
        "tsmqr" => flops::tsmqr_flops(b),
        "ttqrt" => flops::ttqrt_flops(b),
        _ => flops::ttmqr_flops(b),
    }
}

/// Tiles each kernel reads plus tiles it writes (`T` factors included).
fn tile_traffic(name: &str) -> usize {
    match name {
        "geqrt" => 3,           // A read+write, T written
        "unmqr" => 4,           // V, T read; C read+write
        "tsqrt" | "ttqrt" => 5, // R1, A2 read+write; T written
        _ => 6,                 // V2, T read; A1, A2 read+write
    }
}

/// Median per-call time of `call` in µs, over batches of at least ~1 ms.
fn time_calls(mut call: impl FnMut()) -> f64 {
    for _ in 0..3 {
        call();
    }
    let t = Instant::now();
    call();
    let once = t.elapsed().as_secs_f64().max(1e-7);
    let reps = ((1e-3 / once).ceil() as usize).clamp(1, 10_000);
    let batches: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                call();
            }
            t.elapsed().as_secs_f64() * 1e6 / reps as f64
        })
        .collect();
    stats::median(&batches).expect("15 batches")
}

fn reset(dst: &mut Matrix<f64>, src: &Matrix<f64>) {
    dst.as_mut_slice().copy_from_slice(src.as_slice());
}

/// Isolated warm `_ws` calls of all six kernels at tile size `b`, on
/// tiles generated from `seed`.
pub fn kernel_probe(seed: u64, b: usize, spans: &mut Spans) -> Vec<KernelRow> {
    let tile = |i: u64| inputs::matrix(seed, 1_000_000 + i, b, b);
    let mut ws = Workspace::<f64>::new(b, b);
    let mut tfac = Matrix::<f64>::zeros(b, b);
    let mut times = Vec::with_capacity(6);

    // GEQRT on a square tile; its output feeds UNMQR.
    let a0 = tile(0);
    let mut a = a0.clone();
    times.push(spans.time("kernels.geqrt_ws", 0, || {
        time_calls(|| {
            reset(&mut a, &a0);
            geqrt_ws(&mut a, &mut tfac, &mut ws).expect("geqrt on a square tile");
        })
    }));
    let (vr, t_ge) = (a.clone(), tfac.clone());
    let c0 = tile(1);
    let mut c = c0.clone();
    times.push(spans.time("kernels.unmqr_ws", 0, || {
        time_calls(|| {
            reset(&mut c, &c0);
            unmqr_ws(&vr, &t_ge, &mut c, &mut ws).expect("unmqr on matching tiles");
        })
    }));

    // TSQRT couples a triangle with a full tile; its output feeds TSMQR.
    let r0 = tile(2).upper_triangular();
    let a2_0 = tile(3);
    let (mut r1, mut a2) = (r0.clone(), a2_0.clone());
    times.push(spans.time("kernels.tsqrt_ws", 0, || {
        time_calls(|| {
            reset(&mut r1, &r0);
            reset(&mut a2, &a2_0);
            tsqrt_ws(&mut r1, &mut a2, &mut tfac, &mut ws).expect("tsqrt on matching tiles");
        })
    }));
    let (v2, t_ts) = (a2.clone(), tfac.clone());
    let (p1_0, p2_0) = (tile(4), tile(5));
    let (mut p1, mut p2) = (p1_0.clone(), p2_0.clone());
    times.push(spans.time("kernels.tsmqr_apply_ws", 0, || {
        time_calls(|| {
            reset(&mut p1, &p1_0);
            reset(&mut p2, &p2_0);
            tsmqr_apply_ws(&v2, &t_ts, &mut p1, &mut p2, ApplySide::Transpose, &mut ws)
                .expect("tsmqr on matching tiles");
        })
    }));

    // TTQRT couples two triangles; its output feeds TTMQR.
    let s0 = tile(6).upper_triangular();
    let (mut s1, mut s2) = (r0.clone(), s0.clone());
    times.push(spans.time("kernels.ttqrt_ws", 0, || {
        time_calls(|| {
            reset(&mut s1, &r0);
            reset(&mut s2, &s0);
            ttqrt_ws(&mut s1, &mut s2, &mut tfac, &mut ws).expect("ttqrt on matching tiles");
        })
    }));
    let (v2t, t_tt) = (s2.clone(), tfac.clone());
    times.push(spans.time("kernels.ttmqr_apply_ws", 0, || {
        time_calls(|| {
            reset(&mut p1, &p1_0);
            reset(&mut p2, &p2_0);
            ttmqr_apply_ws(&v2t, &t_tt, &mut p1, &mut p2, ApplySide::Transpose, &mut ws)
                .expect("ttmqr on matching tiles");
        })
    }));
    black_box((&a, &c, &r1, &a2, &p1, &p2, &s1, &s2));

    KERNELS
        .iter()
        .zip(times)
        .map(|(&name, us)| KernelRow {
            name,
            us,
            gflops: kernel_flops(name, b) as f64 / (us * 1e3),
            bytes: 8 * b * b * tile_traffic(name),
        })
        .collect()
}

/// Pool accounting summed over traced `factor_traced` calls.
#[derive(Debug, Default, Clone)]
pub struct RuntimeAgg {
    lane_us: f64,
    compute_us: f64,
    stage_us: f64,
    commit_us: f64,
    kind_us: [f64; 6],
    kind_n: [u64; 6],
    overhead_us: Vec<f64>,
    imbalance: Vec<f64>,
    max_ready_depth: usize,
    cow_clones: u64,
    workspace_resizes: u64,
    retries: u64,
}

impl RuntimeAgg {
    /// Fold in one traced call on `workers` workers that took `wall`
    /// measured around the call.
    pub fn add(&mut self, report: &RunReport, workers: usize, wall: Duration) {
        let trace = report
            .trace
            .as_ref()
            .expect("a traced call returns its trace");
        let mut compute = 0.0;
        for s in &trace.spans {
            let d = s.duration_us();
            match s.phase {
                Phase::Compute => {
                    compute += d;
                    self.kind_us[kind_index(s.kind)] += d;
                    self.kind_n[kind_index(s.kind)] += 1;
                }
                Phase::Stage => self.stage_us += d,
                Phase::Commit => self.commit_us += d,
            }
        }
        self.compute_us += compute;
        self.lane_us += workers as f64 * report.elapsed.as_secs_f64() * 1e6;
        self.overhead_us
            .push(wall.as_secs_f64() * 1e6 - compute / workers as f64);
        self.imbalance.push(report.imbalance());
        self.max_ready_depth = self.max_ready_depth.max(report.max_ready_depth);
        self.cow_clones += report.cow_clones();
        self.workspace_resizes += report.counters.workspace_resizes;
        self.retries += report.retries;
    }

    /// `runtime.*` metrics.
    pub fn metrics(&self, out: &mut Vec<(&'static str, f64)>) {
        let frac = |v: f64| {
            if self.lane_us > 0.0 {
                v / self.lane_us
            } else {
                0.0
            }
        };
        let (c, s, k) = (
            frac(self.compute_us),
            frac(self.stage_us),
            frac(self.commit_us),
        );
        out.extend([
            ("runtime.compute_frac", c),
            ("runtime.stage_frac", s),
            ("runtime.commit_frac", k),
            ("runtime.unaccounted_frac", 1.0 - c - s - k),
        ]);
        const NAMES: [&str; 6] = [
            "runtime.compute_us.geqrt",
            "runtime.compute_us.unmqr",
            "runtime.compute_us.tsqrt",
            "runtime.compute_us.tsmqr",
            "runtime.compute_us.ttqrt",
            "runtime.compute_us.ttmqr",
        ];
        for (i, name) in NAMES.iter().enumerate() {
            let mean = if self.kind_n[i] > 0 {
                self.kind_us[i] / self.kind_n[i] as f64
            } else {
                0.0
            };
            out.push((name, mean));
        }
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        out.extend([
            ("runtime.call_overhead_us", mean(&self.overhead_us)),
            ("runtime.imbalance", mean(&self.imbalance)),
            ("runtime.max_ready_depth", self.max_ready_depth as f64),
            ("runtime.cow_clones", self.cow_clones as f64),
            ("runtime.workspace_resizes", self.workspace_resizes as f64),
            ("runtime.retries", self.retries as f64),
        ]);
    }
}

/// Service accounting from raw per-job results.
#[derive(Debug, Default, Clone)]
pub struct ServiceAgg {
    queue_wait_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    completed: u64,
    batched: u64,
    compute_us: f64,
    retries: u64,
    /// Submissions refused by admission control.
    pub refused: u64,
}

impl ServiceAgg {
    /// Fold in one job's result.
    pub fn add(&mut self, r: &JobResult<f64>) {
        self.completed += 1;
        self.queue_wait_ms.push(r.queue_wait.as_secs_f64() * 1e3);
        self.exec_ms
            .push(r.latency.saturating_sub(r.queue_wait).as_secs_f64() * 1e3);
        // Batched jobs skip per-task accounting; their report's elapsed
        // time is their share of the composite unit.
        if r.batched {
            self.batched += 1;
            self.compute_us += r.report.elapsed.as_secs_f64() * 1e6;
        } else {
            self.compute_us += r.class_compute_us.iter().sum::<f64>();
        }
        self.retries += r.report.retries;
    }

    /// `service.*` metrics: the jobs folded in here ran in
    /// `workers × wall`; the rest are the service's final counters.
    pub fn metrics(
        &self,
        stats: &ServiceStats,
        workers: usize,
        wall: Duration,
        out: &mut Vec<(&'static str, f64)>,
    ) {
        let pct = |v: &[f64], p: f64| stats::tail(v, p).map_or(0.0, |t| t.value);
        let lane_us = workers as f64 * wall.as_secs_f64() * 1e6;
        out.extend([
            ("service.queue_wait_p50_ms", pct(&self.queue_wait_ms, 0.5)),
            ("service.queue_wait_p99_ms", pct(&self.queue_wait_ms, 0.99)),
            ("service.exec_p50_ms", pct(&self.exec_ms, 0.5)),
            (
                "service.batched_frac",
                self.batched as f64 / self.completed.max(1) as f64,
            ),
            ("service.batches", stats.batches as f64),
            (
                "service.compute_frac",
                if lane_us > 0.0 {
                    self.compute_us / lane_us
                } else {
                    0.0
                },
            ),
            ("service.tasks_dispatched", stats.tasks_dispatched as f64),
            (
                "service.max_jobs_in_flight",
                stats.max_jobs_in_flight as f64,
            ),
            ("service.max_ready_depth", stats.max_ready_depth as f64),
            ("service.refused", self.refused as f64),
            ("service.retries", self.retries as f64),
        ]);
    }
}
