//! One factorization, run on the caller's thread.
//!
//! [`run_dag`] is the paper's runtime (Fig. 7) for one matrix. The calling
//! thread is the **manager**: it drives one [`JobRun`] (DAG readiness, the
//! ready set ordered by [`SchedulePolicy`] or a [`DispatchOrder`], the
//! commit fence, retries, drift re-weighting) and hands one task at a
//! time to each idle **computing thread** over that worker's private
//! channel. Dispatching at most one task per worker keeps the ready set on
//! the manager's side, which is what lets the priority policy actually
//! pick the next task instead of draining a prefetched FIFO. With one
//! worker the manager runs each attempt itself and spawns no thread.
//!
//! Without a retry budget a fault is isolated (`catch_unwind`, no hang,
//! no abort) but fails the run; with one, failed attempts are retried
//! under deterministic backoff and dead workers are retired, failing with
//! [`RuntimeError::AllWorkersDead`] once none is left. The engine module
//! holds the machinery; `QrService` runs many jobs on the same engine.

use crate::engine::{Halt, JobRun, Outcome, RunParams, Slots, TaskDone, Work};
use crate::error::RuntimeError;
use crate::recovery::{FaultInjector, FaultTolerance};
use crate::scheduler::{DispatchOrder, SchedulePolicy};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use tileqr_dag::{CostModel, TaskGraph};
use tileqr_kernels::exec::FactorState;
use tileqr_kernels::{Workspace, WorkspacePolicy};
use tileqr_matrix::Scalar;
use tileqr_obs::{DriftConfig, HotPathCounters, KernelHistograms, Trace, TraceConfig};

/// Worker-pool configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolConfig {
    /// Number of computing threads. `0` means one per available core.
    pub workers: usize,
    /// Dispatch order for ready tasks.
    pub policy: SchedulePolicy,
    /// Lifecycle tracing. Disabled by default; when disabled the pool
    /// allocates no recorders and reads no extra clocks.
    pub trace: TraceConfig,
    /// Kernel-scratch strategy. [`WorkspacePolicy::PerWorker`] (default)
    /// gives each computing thread one pre-sized arena reused across all
    /// its tasks — zero steady-state allocations. `PerCall` re-allocates
    /// scratch inside every kernel, the pre-arena baseline behaviour.
    pub workspace: WorkspacePolicy,
    /// Where bottom-level priorities come from: flop counts (default) or
    /// calibrated per-class timing curves, so
    /// [`SchedulePolicy::CriticalPath`] can rank by measured microseconds.
    pub cost: CostModel,
    /// Performance-drift re-weighting. Requires a
    /// [`CostModel::Calibrated`] model and more than one worker; at panel
    /// boundaries the manager compares measured compute durations against
    /// the model and, past the damped threshold, recomputes bottom levels
    /// for the remaining DAG in place. Off by default.
    pub drift: DriftConfig,
}

impl PoolConfig {
    /// Resolve `workers == 0` to the hardware parallelism.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }
}

/// Per-run report from [`run_dag`] (and, per job, from `QrService`).
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Tasks executed by each computing thread (credited to the worker
    /// whose result was committed, so the counts sum to the graph size
    /// even when recovery re-executed tasks).
    pub tasks_per_worker: Vec<u64>,
    /// Wall-clock duration of the run, from its first dispatch.
    pub elapsed: std::time::Duration,
    /// Total time workers spent inside `stage` (slot lock waits + pointer
    /// swaps), summed across workers. Zero for an untraced one-worker run,
    /// which has no contention to time.
    pub stage_wait: Duration,
    /// Total time spent inside `commit`, summed across workers and the
    /// manager.
    pub commit_wait: Duration,
    /// High-water mark of the manager's ready-set depth.
    pub max_ready_depth: usize,
    /// Dispatch policy the run used.
    pub policy: SchedulePolicy,
    /// Extra attempts scheduled after a failed attempt (transient kernel
    /// error, worker panic, or stall).
    pub retries: u64,
    /// In-flight tasks returned to the pending set because their worker
    /// died (panic or stall retirement).
    pub requeues: u64,
    /// Workers retired mid-run (panicked or stalled past the watchdog).
    pub worker_deaths: u64,
    /// Times the drift detector fired and the manager re-ranked the ready
    /// set under freshly scaled costs. Always 0 unless the run had a
    /// calibrated cost model, drift detection enabled, and more than one
    /// worker.
    pub drift_reweights: u64,
    /// Unified lifecycle trace of the run — `Some` iff the run's
    /// [`TraceConfig`] was enabled. One lane per worker plus a `manager`
    /// lane carrying ready/dispatch/recovery instants (and, when the run
    /// has a retry budget, the fenced commits).
    pub trace: Option<Trace>,
    /// Memory-discipline counters: copy-on-write fallback clones plus
    /// workspace-arena bytes and growths, summed over all workers.
    pub counters: HotPathCounters,
}

impl RunReport {
    /// Total tasks executed.
    pub fn total_tasks(&self) -> u64 {
        self.tasks_per_worker.iter().sum()
    }

    /// Copy-on-write fallback clones the run took — full `O(b²)` tile
    /// copies on the stage path. 0 for every single-owner execution; any
    /// other value means an `Arc` that should have been unique was still
    /// shared when its writer staged it.
    pub fn cow_clones(&self) -> u64 {
        self.counters.cow_clones
    }

    /// Ratio of the busiest worker's task count to the average — 1.0 is
    /// perfectly balanced, 0.0 when there were no workers at all.
    pub fn imbalance(&self) -> f64 {
        if self.tasks_per_worker.is_empty() {
            return 0.0;
        }
        let total = self.total_tasks();
        if total == 0 {
            return 1.0;
        }
        let avg = total as f64 / self.tasks_per_worker.len() as f64;
        let max = self
            .tasks_per_worker
            .iter()
            .max()
            .copied()
            .unwrap_or_default() as f64;
        max / avg
    }

    /// Total lock-path time (stage + commit) as a fraction of `elapsed`
    /// summed over workers — how much of the run the hot path spent
    /// touching shared state.
    pub fn lock_fraction(&self) -> f64 {
        let denom = self.elapsed.as_secs_f64() * self.tasks_per_worker.len().max(1) as f64;
        if denom == 0.0 {
            return 0.0;
        }
        (self.stage_wait.as_secs_f64() + self.commit_wait.as_secs_f64()) / denom
    }

    /// Per-kernel latency histograms over the run's compute spans.
    /// `None` when the run was not traced.
    pub fn kernel_histograms(&self) -> Option<KernelHistograms> {
        self.trace.as_ref().map(KernelHistograms::from_trace)
    }
}

/// Execute every task of `graph` over `state` and return the completed
/// state with its [`RunReport`].
///
/// `order` overrides `config.policy` (the testkit's hook for driving the
/// real engine through adversarial and seeded ready-set orders). `ft`
/// gives the run a retry budget: panics, transient kernel failures and
/// (with [`FaultTolerance::stall_timeout`]) stalls are then recovered, and
/// the run fails only with a structured [`RuntimeError`] once a task's
/// attempts or the workers are exhausted. Without it the zero-copy fast
/// path runs and the first fault fails the run. `injector` is the
/// deterministic test seam, consulted for every attempt (see
/// [`ScriptedFaults`](crate::recovery::ScriptedFaults)).
pub fn run_dag<T: Scalar>(
    state: FactorState<T>,
    graph: &TaskGraph,
    config: PoolConfig,
    order: Option<DispatchOrder>,
    ft: Option<FaultTolerance>,
    injector: Option<&dyn FaultInjector>,
) -> Result<(FactorState<T>, RunReport), RuntimeError> {
    let epoch = Instant::now();
    let workers = config.effective_workers().max(1);
    let arena = (config.workspace == WorkspacePolicy::PerWorker)
        .then(|| Workspace::new(state.tiles().tile_size(), state.inner_block()));
    let params = RunParams {
        workers,
        order: order.unwrap_or(DispatchOrder::Policy(config.policy)),
        cost: config.cost,
        drift: config.drift,
        ft,
        poison_fence: false,
        trace: config.trace,
    };
    let mut run = JobRun::new(state, graph, &params, epoch);
    let stall = ft.and_then(|f| f.stall_timeout);
    let (done_tx, done_rx) = mpsc::channel::<TaskDone<T>>();
    let (lanes, counters) = std::thread::scope(|scope| {
        let inline = workers == 1;
        let mut slots = Slots::new(scope, workers, inline, done_tx, arena, config.trace, epoch);
        while run.halt.is_none() {
            run.wake();
            while let Some(w) = slots.idle() {
                let Some(work) = run.next(graph, 0, w, injector) else {
                    break;
                };
                slots.send(w, Work::Task(work));
            }
            if run.is_complete() {
                break;
            }
            if run.in_flight() == 0 && run.next_wake().is_none() {
                // Nothing runs and nothing waits: the workers are gone (or,
                // were the DAG invariant broken, nothing is ready).
                let (completed, total) = (run.completed(), graph.len());
                run.fail(if slots.all_retired() {
                    RuntimeError::AllWorkersDead { completed, total }
                } else {
                    RuntimeError::Disconnected { in_flight: 0 }
                });
                break;
            }
            // Wait for the next report, bounded by the earliest parked
            // retry and watchdog expiry.
            let deadline = [
                run.next_wake(),
                stall.and_then(|b| slots.earliest_expiry(b)),
            ]
            .into_iter()
            .flatten()
            .min();
            // The slots hold a sender, so the channel never disconnects.
            let received = match (slots.take_inline(), deadline) {
                (Some(done), _) => Some(done),
                (None, Some(at)) => done_rx
                    .recv_timeout(at.saturating_duration_since(Instant::now()))
                    .ok(),
                (None, None) => done_rx.recv().ok(),
            };
            match received {
                Some(done) => {
                    let expected = slots.settle(&done);
                    if expected && matches!(done.outcome, Outcome::Panicked(_)) {
                        slots.retire(done.worker);
                    }
                    run.on_done(graph, done, expected);
                }
                // A timeout: sweep the watchdog.
                None => {
                    if let Some(bound) = stall {
                        for (w, _, task) in slots.expire(bound) {
                            run.on_stalled(task, w, bound);
                        }
                    }
                }
            }
        }
        slots.finish()
    });
    match run.halt.take() {
        None => {
            let (state, report, _) = run.finish(graph, lanes, counters);
            Ok((state, report))
        }
        Some(Halt::Failed(e)) => Err(e),
        Some(_) => unreachable!("a single-job run is neither cancelled nor poison-fenced"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::ScriptedFaults;
    use tileqr_dag::EliminationOrder;
    use tileqr_kernels::exec::{apply_q_dense, FactorState};
    use tileqr_matrix::gen::random_matrix;
    use tileqr_matrix::ops::matmul;
    use tileqr_matrix::{Matrix, TiledMatrix};

    fn factor_parallel(
        n: usize,
        b: usize,
        workers: usize,
    ) -> (Matrix<f64>, FactorState<f64>, TaskGraph) {
        let a = random_matrix::<f64>(n, n, 99);
        let tiled = TiledMatrix::from_matrix(&a, b).unwrap();
        let g = TaskGraph::build(
            tiled.tile_rows(),
            tiled.tile_cols(),
            EliminationOrder::FlatTs,
        );
        let st = run_dag(
            FactorState::new(tiled),
            &g,
            PoolConfig {
                workers,
                ..PoolConfig::default()
            },
            None,
            None,
            None,
        )
        .map(|(state, _)| state)
        .unwrap();
        (a, st, g)
    }

    /// Sequential reference for bit-identity checks.
    fn sequential_tiles(a: &Matrix<f64>, b: usize) -> (TiledMatrix<f64>, TaskGraph, Matrix<f64>) {
        let tiled = TiledMatrix::from_matrix(a, b).unwrap();
        let g = TaskGraph::build(
            tiled.tile_rows(),
            tiled.tile_cols(),
            EliminationOrder::FlatTs,
        );
        let mut seq = FactorState::new(tiled.clone());
        seq.run_all(&g).unwrap();
        let m = seq.tiles().to_matrix();
        (tiled, g, m)
    }

    #[test]
    fn parallel_matches_sequential() {
        let a = random_matrix::<f64>(24, 24, 1);
        let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
        let g = TaskGraph::build(6, 6, EliminationOrder::FlatTs);

        let mut seq = FactorState::new(tiled.clone());
        seq.run_all(&g).unwrap();

        let par = run_dag(
            FactorState::new(tiled),
            &g,
            PoolConfig {
                workers: 4,
                ..PoolConfig::default()
            },
            None,
            None,
            None,
        )
        .map(|(state, _)| state)
        .unwrap();
        // Tiled QR is deterministic at the task level, so parallel and
        // sequential results are bit-identical.
        assert_eq!(seq.tiles().to_matrix(), par.tiles().to_matrix());
    }

    #[test]
    fn critical_path_policy_matches_fifo_bitwise() {
        let a = random_matrix::<f64>(24, 24, 2);
        let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
        let g = TaskGraph::build(6, 6, EliminationOrder::FlatTs);

        let fifo = run_dag(
            FactorState::new(tiled.clone()),
            &g,
            PoolConfig {
                workers: 4,
                policy: SchedulePolicy::Fifo,
                ..PoolConfig::default()
            },
            None,
            None,
            None,
        )
        .map(|(state, _)| state)
        .unwrap();
        let cp = run_dag(
            FactorState::new(tiled),
            &g,
            PoolConfig {
                workers: 4,
                policy: SchedulePolicy::CriticalPath,
                ..PoolConfig::default()
            },
            None,
            None,
            None,
        )
        .map(|(state, _)| state)
        .unwrap();
        assert_eq!(fifo.tiles().to_matrix(), cp.tiles().to_matrix());
        assert_eq!(fifo.r_matrix(), cp.r_matrix());
    }

    #[test]
    fn parallel_factorization_is_correct() {
        let (a, st, g) = factor_parallel(32, 8, 4);
        let (pm, _) = st.tiles().padded_dims();
        let mut q = Matrix::identity(pm);
        apply_q_dense(&st, &g, &mut q).unwrap();
        let r = st.r_matrix();
        let qr = matmul(&q, &r).unwrap();
        assert!(qr.approx_eq(&a, 1e-11));
    }

    #[test]
    fn single_worker_inline_path() {
        let (a, st, g) = factor_parallel(16, 4, 1);
        let mut q = Matrix::identity(16);
        apply_q_dense(&st, &g, &mut q).unwrap();
        let qr = matmul(&q, &st.r_matrix()).unwrap();
        assert!(qr.approx_eq(&a, 1e-11));
    }

    #[test]
    fn many_workers_small_graph() {
        // More workers than tasks must not deadlock.
        let (a, st, g) = factor_parallel(8, 4, 16);
        let mut q = Matrix::identity(8);
        apply_q_dense(&st, &g, &mut q).unwrap();
        let qr = matmul(&q, &st.r_matrix()).unwrap();
        assert!(qr.approx_eq(&a, 1e-11));
    }

    #[test]
    fn default_config_uses_all_cores() {
        let c = PoolConfig::default();
        assert!(c.effective_workers() >= 1);
        assert_eq!(c.policy, SchedulePolicy::Fifo);
    }

    #[test]
    fn tt_order_in_parallel() {
        let a = random_matrix::<f64>(32, 8, 5);
        let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
        let g = TaskGraph::build(8, 2, EliminationOrder::BinaryTt);
        let st = run_dag(
            FactorState::new(tiled),
            &g,
            PoolConfig {
                workers: 4,
                policy: SchedulePolicy::CriticalPath,
                ..PoolConfig::default()
            },
            None,
            None,
            None,
        )
        .map(|(state, _)| state)
        .unwrap();
        let (pm, _) = st.tiles().padded_dims();
        let mut q = Matrix::identity(pm);
        apply_q_dense(&st, &g, &mut q).unwrap();
        let r = st.r_matrix();
        let qr = matmul(&q, &r).unwrap();
        assert!(qr.approx_eq(&a, 1e-10));
    }

    #[test]
    fn run_report_accounts_every_task() {
        let a = random_matrix::<f64>(32, 32, 5);
        let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
        let g = TaskGraph::build(8, 8, EliminationOrder::FlatTs);
        let (_, report) = run_dag(
            FactorState::new(tiled),
            &g,
            PoolConfig {
                workers: 3,
                policy: SchedulePolicy::CriticalPath,
                ..PoolConfig::default()
            },
            None,
            None,
            None,
        )
        .unwrap();
        assert_eq!(report.total_tasks() as usize, g.len());
        assert_eq!(report.tasks_per_worker.len(), 3);
        assert!(report.imbalance() >= 1.0);
        assert!(report.elapsed.as_nanos() > 0);
        assert!(report.max_ready_depth >= 1);
        assert_eq!(report.policy, SchedulePolicy::CriticalPath);
        // A clean run records no recovery activity.
        assert_eq!(report.retries, 0);
        assert_eq!(report.requeues, 0);
        assert_eq!(report.worker_deaths, 0);
        // The whole point of per-tile ownership: the lock path is a sliver
        // of the run.
        assert!(report.lock_fraction() < 0.5);
    }

    #[test]
    fn adversarial_orders_match_sequential_bitwise() {
        let a = random_matrix::<f64>(24, 24, 17);
        let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
        let g = TaskGraph::build(6, 6, EliminationOrder::FlatTs);
        let mut seq = FactorState::new(tiled.clone());
        seq.run_all(&g).unwrap();
        let seq_tiles = seq.tiles().to_matrix();

        for order in [
            DispatchOrder::Lifo,
            DispatchOrder::ReversePriority,
            DispatchOrder::Seeded(7),
        ] {
            for workers in [1usize, 3] {
                let (st, report) = run_dag(
                    FactorState::new(tiled.clone()),
                    &g,
                    PoolConfig {
                        workers,
                        ..PoolConfig::default()
                    },
                    Some(order),
                    None,
                    None,
                )
                .unwrap();
                assert_eq!(
                    st.tiles().to_matrix(),
                    seq_tiles,
                    "{order:?} workers={workers}"
                );
                assert_eq!(report.total_tasks() as usize, g.len());
            }
        }
    }

    #[test]
    fn repeated_runs_identical() {
        let (_, st1, _) = factor_parallel(24, 4, 4);
        let (_, st2, _) = factor_parallel(24, 4, 4);
        assert_eq!(st1.tiles().to_matrix(), st2.tiles().to_matrix());
    }

    #[test]
    fn traced_run_captures_full_lifecycle() {
        let a = random_matrix::<f64>(24, 24, 8);
        let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
        let g = TaskGraph::build(6, 6, EliminationOrder::FlatTs);
        let (_, report) = run_dag(
            FactorState::new(tiled),
            &g,
            PoolConfig {
                workers: 3,
                trace: TraceConfig::enabled(),
                ..PoolConfig::default()
            },
            None,
            None,
            None,
        )
        .unwrap();
        let trace = report.trace.as_ref().expect("tracing was enabled");
        assert_eq!(trace.compute_span_count(), g.len());
        assert_eq!(trace.lanes.len(), 4, "3 workers + manager");
        assert_eq!(trace.dropped, 0);
        assert_eq!(trace.hot_path_reallocations, 0);
        trace.validate(true).unwrap();
        let hists = report.kernel_histograms().unwrap();
        assert_eq!(hists.total(), g.len() as u64);
    }

    #[test]
    fn untraced_run_reports_no_trace() {
        let a = random_matrix::<f64>(16, 16, 9);
        let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
        let g = TaskGraph::build(4, 4, EliminationOrder::FlatTs);
        let (_, report) = run_dag(
            FactorState::new(tiled),
            &g,
            PoolConfig {
                workers: 2,
                ..PoolConfig::default()
            },
            None,
            None,
            None,
        )
        .unwrap();
        assert!(report.trace.is_none());
        assert!(report.kernel_histograms().is_none());
    }

    #[test]
    fn imbalance_on_empty_worker_vec_is_zero() {
        // Regression: used to divide through an unwrap on `iter().max()`;
        // an empty report must report 0.0, not panic.
        let report = RunReport {
            tasks_per_worker: vec![],
            elapsed: Duration::ZERO,
            stage_wait: Duration::ZERO,
            commit_wait: Duration::ZERO,
            max_ready_depth: 0,
            policy: SchedulePolicy::Fifo,
            retries: 0,
            requeues: 0,
            worker_deaths: 0,
            drift_reweights: 0,
            trace: None,
            counters: HotPathCounters::default(),
        };
        assert_eq!(report.imbalance(), 0.0);
        assert_eq!(report.total_tasks(), 0);
        assert_eq!(report.cow_clones(), 0);
    }

    #[test]
    fn pool_runs_are_cow_free_with_sized_arenas() {
        // The zero-allocation contract: the pool's move-based staging never
        // hits the copy-on-write fallback, and per-worker arenas sized at
        // spawn never grow.
        let a = random_matrix::<f64>(24, 24, 41);
        let g = TaskGraph::build(6, 6, EliminationOrder::FlatTs);
        for workers in [1usize, 2, 4] {
            // Freshly-tiled input each run: no external handle may survive,
            // or the first take of each shared tile would count as a COW.
            let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
            let (_, report) = run_dag(
                FactorState::new(tiled),
                &g,
                PoolConfig {
                    workers,
                    ..PoolConfig::default()
                },
                None,
                None,
                None,
            )
            .unwrap();
            assert_eq!(report.cow_clones(), 0, "workers={workers}");
            assert_eq!(report.counters.workspace_resizes, 0, "workers={workers}");
            assert!(report.counters.workspace_bytes > 0, "workers={workers}");
            assert!(report.counters.is_clean());
        }
    }

    #[test]
    fn per_call_workspace_policy_matches_per_worker_bitwise() {
        let a = random_matrix::<f64>(24, 24, 42);
        let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
        let g = TaskGraph::build(6, 6, EliminationOrder::FlatTs);
        let (per_worker, _) = run_dag(
            FactorState::new(tiled.clone()),
            &g,
            PoolConfig {
                workers: 3,
                workspace: WorkspacePolicy::PerWorker,
                ..PoolConfig::default()
            },
            None,
            None,
            None,
        )
        .unwrap();
        let (per_call, report) = run_dag(
            FactorState::new(tiled),
            &g,
            PoolConfig {
                workers: 3,
                workspace: WorkspacePolicy::PerCall,
                ..PoolConfig::default()
            },
            None,
            None,
            None,
        )
        .unwrap();
        assert_eq!(per_worker.tiles().to_matrix(), per_call.tiles().to_matrix());
        // PerCall tracks no arena: the throwaway scratch is invisible.
        assert_eq!(report.counters.workspace_bytes, 0);
        assert_eq!(report.cow_clones(), 0);
    }

    #[test]
    fn ft_mode_reports_clean_counters_after_recovery() {
        // stage_preserving's defensive clones are deliberate copies, not
        // COW fallbacks — recovery must not dirty the counter.
        let a = random_matrix::<f64>(16, 16, 43);
        let (tiled, g, seq_tiles) = sequential_tiles(&a, 4);
        let faults = ScriptedFaults::new().panic_on(2, 1).fail_on(5, 1);
        let (st, report) = run_dag(
            FactorState::new(tiled),
            &g,
            PoolConfig {
                workers: 3,
                ..PoolConfig::default()
            },
            None,
            Some(FaultTolerance::default()),
            Some(&faults),
        )
        .unwrap();
        assert_eq!(st.tiles().to_matrix(), seq_tiles);
        assert!(report.retries >= 2);
        assert_eq!(report.cow_clones(), 0);
        assert_eq!(report.counters.workspace_resizes, 0);
    }

    #[test]
    fn ft_recovers_from_worker_panic_bit_identical() {
        let a = random_matrix::<f64>(24, 24, 31);
        let (tiled, g, seq_tiles) = sequential_tiles(&a, 4);
        // Panic the first attempt of a mid-graph task; the worker dies,
        // the task is requeued, and the run completes on the survivors.
        let victim = g.len() / 2;
        let faults = ScriptedFaults::new().panic_on(victim, 1);
        let (st, report) = run_dag(
            FactorState::new(tiled),
            &g,
            PoolConfig {
                workers: 3,
                ..PoolConfig::default()
            },
            None,
            Some(FaultTolerance::default()),
            Some(&faults),
        )
        .unwrap();
        assert_eq!(st.tiles().to_matrix(), seq_tiles);
        assert_eq!(report.total_tasks() as usize, g.len());
        assert_eq!(report.worker_deaths, 1);
        assert_eq!(report.requeues, 1);
        assert_eq!(report.retries, 1);
    }

    #[test]
    fn ft_retries_transient_kernel_failures() {
        let a = random_matrix::<f64>(16, 16, 32);
        let (tiled, g, seq_tiles) = sequential_tiles(&a, 4);
        let faults = ScriptedFaults::new().fail_on(0, 2).fail_on(g.len() - 1, 1);
        let (st, report) = run_dag(
            FactorState::new(tiled),
            &g,
            PoolConfig {
                workers: 2,
                ..PoolConfig::default()
            },
            None,
            Some(FaultTolerance::default()),
            Some(&faults),
        )
        .unwrap();
        assert_eq!(st.tiles().to_matrix(), seq_tiles);
        assert_eq!(report.retries, 3);
        // Transient failures don't kill workers.
        assert_eq!(report.worker_deaths, 0);
        assert_eq!(report.requeues, 0);
    }

    #[test]
    fn ft_exhausted_retries_is_structured_error() {
        let a = random_matrix::<f64>(16, 16, 33);
        let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
        let g = TaskGraph::build(4, 4, EliminationOrder::FlatTs);
        let faults = ScriptedFaults::new().fail_on(1, 99);
        let err = run_dag(
            FactorState::new(tiled),
            &g,
            PoolConfig {
                workers: 2,
                ..PoolConfig::default()
            },
            None,
            Some(FaultTolerance {
                max_attempts: 2,
                ..FaultTolerance::default()
            }),
            Some(&faults),
        )
        .unwrap_err();
        match err {
            RuntimeError::RetriesExhausted { task, attempts, .. } => {
                assert_eq!(task, 1);
                assert_eq!(attempts, 2);
            }
            other => panic!("expected RetriesExhausted, got {other}"),
        }
    }

    #[test]
    fn ft_all_workers_dead_is_structured_error() {
        let a = random_matrix::<f64>(16, 16, 34);
        let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
        let g = TaskGraph::build(4, 4, EliminationOrder::FlatTs);
        // Task 0 panics on every attempt: each try kills one worker, so a
        // 2-worker pool empties before the generous attempt budget does.
        let faults = ScriptedFaults::new().panic_on(0, 99);
        let err = run_dag(
            FactorState::new(tiled),
            &g,
            PoolConfig {
                workers: 2,
                ..PoolConfig::default()
            },
            None,
            Some(FaultTolerance {
                max_attempts: 99,
                ..FaultTolerance::default()
            }),
            Some(&faults),
        )
        .unwrap_err();
        match err {
            RuntimeError::AllWorkersDead { total, .. } => assert_eq!(total, g.len()),
            other => panic!("expected AllWorkersDead, got {other}"),
        }
    }

    #[test]
    fn fast_mode_panic_fails_cleanly_without_hanging() {
        // ft = None: the panic is isolated (no process abort, no hang) but
        // fatal, because destructive staging lost the task's inputs.
        let a = random_matrix::<f64>(16, 16, 35);
        let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
        let g = TaskGraph::build(4, 4, EliminationOrder::FlatTs);
        let faults = ScriptedFaults::new().panic_on(2, 1);
        let err = run_dag(
            FactorState::new(tiled),
            &g,
            PoolConfig {
                workers: 3,
                ..PoolConfig::default()
            },
            None,
            None,
            Some(&faults),
        )
        .unwrap_err();
        match err {
            RuntimeError::TaskPanicked { task, .. } => assert_eq!(task, 2),
            other => panic!("expected TaskPanicked, got {other}"),
        }
    }

    #[test]
    fn ft_watchdog_retires_stalled_worker() {
        let a = random_matrix::<f64>(16, 16, 36);
        let (tiled, g, seq_tiles) = sequential_tiles(&a, 4);
        // One attempt sleeps far past the watchdog; the stalled worker is
        // retired, the task re-runs elsewhere, and the eventual late
        // result is deduplicated at the commit fence.
        let faults = ScriptedFaults::new().stall_on(1, 1, Duration::from_millis(400));
        let (st, report) = run_dag(
            FactorState::new(tiled),
            &g,
            PoolConfig {
                workers: 2,
                ..PoolConfig::default()
            },
            None,
            Some(FaultTolerance {
                stall_timeout: Some(Duration::from_millis(50)),
                ..FaultTolerance::default()
            }),
            Some(&faults),
        )
        .unwrap();
        assert_eq!(st.tiles().to_matrix(), seq_tiles);
        assert_eq!(report.total_tasks() as usize, g.len());
        assert!(report.worker_deaths >= 1);
        assert!(report.requeues >= 1);
    }
}
