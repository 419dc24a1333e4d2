//! The two workloads, the metric catalogue, and what a run measures.

use crate::check::Tally;
use crate::layers::KernelRow;
use crate::library::{self, Shape};
use crate::spans::Spans;
use crate::stats;
use std::time::Duration;

/// Arguments of one run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: u64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub traced: bool,
}

/// End-to-end metrics: name and unit, in output order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("time_to_solution_s", "s"),
    ("serial_time_to_solution_s", "s"),
    ("gflops", "GFLOP/s"),
    ("throughput_jobs_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: name and unit, in output order.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("kernels.geqrt_us", "us"),
    ("kernels.unmqr_us", "us"),
    ("kernels.tsqrt_us", "us"),
    ("kernels.tsmqr_us", "us"),
    ("kernels.ttqrt_us", "us"),
    ("kernels.ttmqr_us", "us"),
    ("kernels.geqrt_gflops", "GFLOP/s"),
    ("kernels.unmqr_gflops", "GFLOP/s"),
    ("kernels.tsqrt_gflops", "GFLOP/s"),
    ("kernels.tsmqr_gflops", "GFLOP/s"),
    ("kernels.ttqrt_gflops", "GFLOP/s"),
    ("kernels.ttmqr_gflops", "GFLOP/s"),
    ("runtime.compute_frac", "frac"),
    ("runtime.stage_frac", "frac"),
    ("runtime.commit_frac", "frac"),
    ("runtime.unaccounted_frac", "frac"),
    ("runtime.compute_us.geqrt", "us"),
    ("runtime.compute_us.unmqr", "us"),
    ("runtime.compute_us.tsqrt", "us"),
    ("runtime.compute_us.tsmqr", "us"),
    ("runtime.compute_us.ttqrt", "us"),
    ("runtime.compute_us.ttmqr", "us"),
    ("runtime.call_overhead_us", "us"),
    ("runtime.imbalance", "ratio"),
    ("runtime.max_ready_depth", "count"),
    ("runtime.cow_clones", "count"),
    ("runtime.workspace_resizes", "count"),
    ("runtime.retries", "count"),
    ("dag.tasks", "count"),
    ("dag.critical_path", "count"),
    ("dag.build_ms", "ms"),
    ("matrix.tile_ms", "ms"),
    ("service.queue_wait_p50_ms", "ms"),
    ("service.queue_wait_p99_ms", "ms"),
    ("service.exec_p50_ms", "ms"),
    ("service.batched_frac", "frac"),
    ("service.batches", "count"),
    ("service.compute_frac", "frac"),
    ("service.tasks_dispatched", "count"),
    ("service.max_jobs_in_flight", "count"),
    ("service.max_ready_depth", "count"),
    ("service.refused", "count"),
    ("service.retries", "count"),
    ("obs.trace_overhead_frac", "frac"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.offered_jobs_s", "1/s"),
];

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1024×1024, b=32: the reference shape.
    Square,
    /// 16384×128, b=32: panel kernels on the critical path.
    Tall,
}

/// `square`: the reference shape.
pub const SQUARE: Shape = Shape {
    m: 1024,
    n: 1024,
    b: 32,
};
/// `tall`: a 512×4-tile least-squares problem.
pub const TALL: Shape = Shape {
    m: 16384,
    n: 128,
    b: 32,
};

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "square" => Workload::Square,
            "tall" => Workload::Tall,
            _ => return None,
        })
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Square => "square",
            Workload::Tall => "tall",
        }
    }

    /// The workload's constants, in words.
    pub fn describe(self) -> String {
        match self {
            Workload::Square => library::describe(SQUARE),
            Workload::Tall => library::describe(TALL),
        }
    }

    /// Bytes of the largest input matrix.
    pub fn working_set_bytes(self) -> usize {
        match self {
            Workload::Square => 8 * SQUARE.m * SQUARE.n,
            Workload::Tall => 8 * TALL.m * TALL.n,
        }
    }

    /// Set-up time of one cold start in this (fresh) process.
    pub fn cold_start(self, seed: u64) -> Result<Duration, String> {
        match self {
            Workload::Square => library::cold_call(SQUARE, seed),
            Workload::Tall => library::cold_call(TALL, seed),
        }
    }

    /// Run the measured window.
    pub fn run(self, p: &Params, spans: &mut Spans) -> Measured {
        match self {
            Workload::Square => library::run(SQUARE, p, spans),
            Workload::Tall => library::run(TALL, p, spans),
        }
    }
}

/// What one measured window produced.
pub struct Measured {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// End-to-end metrics measured in the window.
    pub e2e: Vec<(&'static str, f64)>,
    /// Per-layer metrics (traced runs).
    pub layers: Vec<(&'static str, f64)>,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
}

impl Measured {
    /// An empty measurement carrying `tally`.
    pub fn new(tally: Tally) -> Self {
        Measured {
            tally,
            e2e: Vec::new(),
            layers: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Add a note.
    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// `latency_p50_ms` and `latency_p99_ms` from raw samples (ms). The
    /// p99 obeys the ten-beyond rule of [`stats::tail`]; the note says
    /// which percentile it was taken at.
    pub fn latency(&mut self, samples_ms: &[f64]) {
        let tail = stats::tail(samples_ms, 0.99);
        self.e2e.extend([
            (
                "latency_p50_ms",
                stats::median(samples_ms).unwrap_or(f64::NAN),
            ),
            ("latency_p99_ms", tail.map_or(f64::NAN, |t| t.value)),
        ]);
        if let Some(t) = tail {
            self.note(format!(
                "latency_p99_ms: taken at p{:.2} (n={}, {} samples beyond it)",
                t.p * 100.0,
                t.n,
                t.beyond
            ));
        }
    }

    /// `kernels.*` metrics from an isolated kernel probe.
    pub fn kernels(&mut self, rows: Vec<KernelRow>) {
        const US: [&str; 6] = [
            "kernels.geqrt_us",
            "kernels.unmqr_us",
            "kernels.tsqrt_us",
            "kernels.tsmqr_us",
            "kernels.ttqrt_us",
            "kernels.ttmqr_us",
        ];
        const GF: [&str; 6] = [
            "kernels.geqrt_gflops",
            "kernels.unmqr_gflops",
            "kernels.tsqrt_gflops",
            "kernels.tsmqr_gflops",
            "kernels.ttqrt_gflops",
            "kernels.ttmqr_gflops",
        ];
        for (i, k) in rows.iter().enumerate() {
            self.notes.push(format!(
                "kernels.{}: {:.2} us, {:.2} GFLOP/s, {} computed bytes per call",
                k.name, k.us, k.gflops, k.bytes
            ));
            self.layers.push((US[i], k.us));
        }
        for (i, k) in rows.iter().enumerate() {
            self.layers.push((GF[i], k.gflops));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            // Outside a full checkout there is nothing to compare with.
            return;
        };
        let names = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let end = text[start..].find(']').expect("section closes") + start;
            text[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("name closes")].to_string())
                .collect()
        };
        let ours =
            |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(names("end_to_end"), ours(&END_TO_END));
        assert_eq!(names("per_layer"), ours(&PER_LAYER));
        let workloads = names("workloads");
        assert_eq!(workloads, ["square", "tall"]);
        for w in &workloads {
            assert_eq!(Workload::parse(w).map(Workload::name), Some(w.as_str()));
        }
    }
}
