//! Shared-memory parallel tiled-QR runtime.
//!
//! Mirrors the paper's execution structure (Fig. 7) on host threads: a
//! **manager thread** tracks DAG readiness and hands tasks out; a pool of
//! **computing threads** executes kernels. On the paper's machine the
//! computing threads drive GPUs; here they drive host cores directly —
//! the heterogeneous behaviour is studied in the simulator crates, while
//! this runtime demonstrates real parallel speedup of the same DAG on the
//! hardware we do have.
//!
//! One execution engine runs every DAG: a per-job state machine (ready
//! set ordered by [`SchedulePolicy`] or a testkit [`DispatchOrder`],
//! [`ReadyTracker`], commit fence, retries, drift re-weighting, trace),
//! one task-attempt function and one worker loop. [`run_dag`] drives one
//! job with the caller's thread as manager (the path behind
//! `TiledQr::factor`; at one worker it runs the kernels itself and spawns
//! no thread), and [`QrService`] drives many under fair queueing.
//!
//! Concurrency design: tiles and T factors live in per-slot locked cells
//! of a [`SharedFactorState`](tileqr_kernels::exec::SharedFactorState);
//! *staging* a task clones `Arc` handles for its read inputs and swaps its
//! written tiles out, so each critical section is a pointer exchange on one
//! slot — the `O(b³)` kernel itself runs lock-free on owned data and
//! *commit* swaps results back in. Determinism of the *result* (not the
//! schedule) is guaranteed because every task writes a disjoint tile set.
//!
//! Fault tolerance: attempts run under `catch_unwind`, so a panic never
//! hangs or aborts the process. A run with a retry budget
//! ([`FaultTolerance`]) goes further — non-destructive staging plus a
//! manager-side commit fence make task re-execution idempotent, so
//! panicked or stalled workers are retired and their tasks retried
//! (bounded attempts, deterministic backoff). Failures surface as
//! structured [`RuntimeError`]s and recovery activity is reported in
//! [`RunReport`]'s `retries` / `requeues` / `worker_deaths` fields.
//!
//! Observability: enabling [`TraceConfig`] in the [`PoolConfig`] makes
//! every worker record its task lifecycle (stage/compute/commit spans,
//! plus manager-side ready/dispatch/recovery instants) into a per-thread
//! ring buffer, merged at join into the unified
//! [`Trace`](tileqr_obs::Trace) carried by [`RunReport::trace`] — see
//! the `tileqr-obs` crate for Chrome-trace export, latency histograms,
//! and sim-vs-real calibration built on top.
//!
//! Service mode: [`QrService`] keeps the workers *resident* and serves a
//! stream of factor / solve / apply jobs, interleaving many job DAGs
//! with weighted fair-share scheduling, priority classes, admission
//! control, and small-job batching — see the [`service`] module docs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod error;
mod pool;
pub mod recovery;
mod scheduler;
pub mod service;

pub use error::RuntimeError;
pub use pool::{run_dag, PoolConfig, RunReport};
pub use recovery::{FaultInjector, FaultTolerance, InjectedFault, ScriptedFaults};
pub use scheduler::{DispatchOrder, ReadyQueue, ReadyTracker, SchedulePolicy};
pub use service::{
    FactoredJob, JobHandle, JobId, JobOutput, JobResult, JobSpec, JobTuning, PriorityClass,
    QrService, ServiceConfig, ServiceError, ServiceStats, TreeSelector, WaitTimeout,
};
pub use tileqr_dag::{ClassCosts, CostCurve, CostModel};
pub use tileqr_obs::{DriftConfig, TraceConfig};
