//! The execution engine: the only copy of the per-task machinery.
//!
//! * [`JobRun`] is one job's DAG state machine: the ready set and its
//!   [`DispatchOrder`], the [`ReadyTracker`], the `committed` fence,
//!   attempt counts and backoff-parked retries, drift re-weighting, the
//!   panel-output poison scan, the manager trace lane, and the
//!   [`RunReport`] it adds up to.
//! * [`attempt`] runs one task attempt; [`worker_loop`] runs attempts
//!   (and the service's batch and epilogue units) on a computing thread.
//! * [`Slots`] is the worker-slot plumbing: spawn, send, in-flight
//!   tracking and the stall watchdog's expiry scan.
//!
//! Two front ends use it. [`run_dag`](crate::run_dag) runs one job on
//! the caller's thread (which is the manager; at one worker it also runs
//! the attempts, spawning no thread), and `QrService`'s manager runs many
//! jobs under weighted fair queueing.
//!
//! Staging follows the run's retry budget. Without one, staging moves
//! written tiles out (zero-copy) and the worker commits its own result: a
//! fault is isolated but fails the run. With one, staging clones written
//! tiles so the shared state is untouched until the manager commits
//! behind the `committed` fence, which makes re-execution idempotent.

use crate::error::RuntimeError;
use crate::pool::RunReport;
use crate::recovery::{FaultInjector, FaultTolerance, InjectedFault};
use crate::scheduler::{DispatchOrder, ReadyQueue, ReadyTracker};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};
use tileqr_dag::{bottom_levels, class_slot, ClassCosts, CostModel, TaskGraph, TaskId, TaskKind};
use tileqr_kernels::exec::{CompletedTask, FactorState, SharedFactorState};
use tileqr_kernels::{flops, Workspace};
use tileqr_matrix::{MatrixError, Scalar};
use tileqr_obs::{
    merge_recorders, DriftConfig, DriftDetector, HotPathCounters, LatencyHistogram, RawEvent,
    RawKind, TraceConfig, WorkerRecorder,
};

/// Job identifier, unique per service instance (1-based; a single-job
/// run uses 0).
pub type JobId = u64;

/// Per-kernel flop counts as scheduling weights, so the bottom levels
/// reflect real work, not just DAG depth.
fn flop_weight(b: usize) -> impl Fn(TaskKind) -> f64 + Copy {
    move |t| match t {
        TaskKind::Geqrt { .. } => flops::geqrt_flops(b) as f64,
        TaskKind::Unmqr { .. } => flops::unmqr_flops(b) as f64,
        TaskKind::Tsqrt { .. } => flops::tsqrt_flops(b) as f64,
        TaskKind::Tsmqr { .. } => flops::tsmqr_flops(b) as f64,
        TaskKind::Ttqrt { .. } => flops::ttqrt_flops(b) as f64,
        TaskKind::Ttmqr { .. } => flops::ttmqr_flops(b) as f64,
    }
}

/// Task weight under the run's [`CostModel`]: flops (the seed behaviour)
/// or calibrated microseconds at tile size `b`.
pub(crate) fn model_weight(cost: CostModel, b: usize) -> impl Fn(TaskKind) -> f64 + Copy {
    move |t| match cost {
        CostModel::Flops => flop_weight(b)(t),
        CostModel::Calibrated(c) => c.cost_us(t, b),
    }
}

/// Panel-factor kinds are the poison chokepoint: every downstream update
/// consumes their tiles or T factors, so scanning them at the commit
/// fence catches a NaN/Inf before it spreads beyond one tile column.
fn is_panel_factor(kind: TaskKind) -> bool {
    matches!(
        kind,
        TaskKind::Geqrt { .. } | TaskKind::Tsqrt { .. } | TaskKind::Ttqrt { .. }
    )
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Nanoseconds from `epoch` to `t`, as a trace timestamp.
fn ns(epoch: Instant, t: Instant) -> u64 {
    t.duration_since(epoch).as_nanos() as u64
}

/// Record an instant on the manager lane, if the run is traced.
fn mark(lane: &mut Option<WorkerRecorder>, epoch: Instant, kind: RawKind, task: TaskId, aux: u64) {
    if let Some(r) = lane {
        r.record(RawEvent::instant(
            kind,
            task,
            aux,
            ns(epoch, Instant::now()),
        ));
    }
}

// ---------------------------------------------------------------------------
// one task attempt and the worker loop
// ---------------------------------------------------------------------------

/// One attempt of one task, as handed to a worker.
pub(crate) struct TaskWork<T: Scalar> {
    pub job: JobId,
    pub task: TaskId,
    pub kind: TaskKind,
    pub attempt: u32,
    /// The injector's verdict for this `(task, attempt)`, drawn at dispatch.
    pub fault: InjectedFault,
    /// Preserving staging, commit left to the manager's fence.
    pub fenced: bool,
    pub shared: Arc<SharedFactorState<T>>,
}

/// What a worker runs: a task attempt, or a whole service unit (a
/// small-job batch or an epilogue) that reports back as message `M`.
pub(crate) enum Work<T: Scalar, M> {
    Task(TaskWork<T>),
    Unit(Box<dyn FnOnce(usize) -> M + Send>),
}

pub(crate) enum Outcome<T: Scalar> {
    /// The attempt ran. `completed` carries the outputs when the commit is
    /// fenced; otherwise the worker already committed them.
    Done {
        completed: Option<Box<CompletedTask<T>>>,
        stage: Duration,
        commit: Duration,
        /// Kernel-only time: the drift detector's and the tuner's input.
        compute: Duration,
    },
    /// The kernel (or an injected transient fault) returned an error.
    Failed(MatrixError),
    /// The attempt panicked; the worker retires after reporting.
    Panicked(String),
}

/// A worker's report of one attempt.
pub(crate) struct TaskDone<T: Scalar> {
    pub job: JobId,
    pub task: TaskId,
    pub attempt: u32,
    pub worker: usize,
    pub outcome: Outcome<T>,
}

/// A worker's kernel arena and trace lane, handed back when it exits.
type WorkerKit<T> = (Option<Workspace<T>>, Option<WorkerRecorder>);

/// Run one task attempt: apply the injected fault, stage, compute in the
/// worker's arena (`None`: throwaway scratch per call), and commit unless
/// the run is fenced. Records stage/compute/commit spans on the worker's
/// trace lane. With
/// `timed` off (an untraced inline worker: nothing contends and nothing
/// reads the times) the clock is never read and all durations are zero.
/// Never unwinds; the state handle is released before returning.
pub(crate) fn attempt<T: Scalar>(
    work: TaskWork<T>,
    worker: usize,
    kit: &mut WorkerKit<T>,
    epoch: Instant,
    timed: bool,
) -> TaskDone<T> {
    let TaskWork {
        job,
        task,
        kind,
        attempt,
        fault,
        fenced,
        shared,
    } = work;
    let (ws, rec) = (kit.0.as_mut(), kit.1.as_mut());
    let now = || if timed { Instant::now() } else { epoch };
    let run = catch_unwind(AssertUnwindSafe(|| {
        match fault {
            InjectedFault::None | InjectedFault::PoisonNan => {}
            InjectedFault::Panic => panic!("injected panic: task {task} attempt {attempt}"),
            InjectedFault::TransientError => {
                return Err(MatrixError::Runtime {
                    reason: format!("injected transient failure: task {task} attempt {attempt}"),
                })
            }
            InjectedFault::Stall(d) => std::thread::sleep(d),
        }
        let t0 = now();
        let staged = if fenced {
            shared.stage_preserving(kind)
        } else {
            shared.stage(kind)
        }?;
        let t1 = now();
        let mut done = match ws {
            Some(ws) => staged.compute_with(ws)?,
            None => staged.compute()?,
        };
        let t2 = now();
        if fault == InjectedFault::PoisonNan {
            // Corrupt the output after the kernel ran: the service's
            // commit fence must catch it.
            done.poison();
        }
        let completed = if fenced {
            Some(Box::new(done))
        } else {
            shared.commit(done);
            None
        };
        let t3 = now();
        if let Some(r) = rec {
            let mut span = |kind, from, to| {
                r.record(RawEvent::interval(
                    kind,
                    task,
                    attempt,
                    ns(epoch, from),
                    ns(epoch, to),
                ))
            };
            span(RawKind::Stage, t0, t1);
            span(RawKind::Compute, t1, t2);
            if !fenced {
                span(RawKind::Commit, t2, t3);
            }
        }
        Ok(Outcome::Done {
            completed,
            stage: t1 - t0,
            commit: t3 - t2,
            compute: t2 - t1,
        })
    }));
    let outcome = match run {
        Ok(Ok(done)) => done,
        Ok(Err(e)) => Outcome::Failed(e),
        Err(payload) => Outcome::Panicked(panic_message(payload.as_ref())),
    };
    TaskDone {
        job,
        task,
        attempt,
        worker,
        outcome,
    }
}

/// Run one piece of work on worker `id`; `true` alongside the report
/// means the worker must retire (its attempt panicked).
fn run_work<T: Scalar, M: From<TaskDone<T>>>(
    id: usize,
    work: Work<T, M>,
    kit: &mut WorkerKit<T>,
    epoch: Instant,
    timed: bool,
) -> (M, bool) {
    match work {
        Work::Task(w) => {
            let done = attempt(w, id, kit, epoch, timed);
            let retire = matches!(done.outcome, Outcome::Panicked(_));
            (done.into(), retire)
        }
        Work::Unit(unit) => (unit(id), false),
    }
}

/// The computing thread: run work until the dispatch channel closes or an
/// attempt panics.
fn worker_loop<T: Scalar, M: From<TaskDone<T>>>(
    id: usize,
    rx: Receiver<Work<T, M>>,
    tx: Sender<M>,
    mut kit: WorkerKit<T>,
    epoch: Instant,
) -> WorkerKit<T> {
    while let Ok(work) = rx.recv() {
        let (msg, retire) = run_work(id, work, &mut kit, epoch, true);
        if tx.send(msg).is_err() || retire {
            break;
        }
    }
    kit
}

// ---------------------------------------------------------------------------
// worker slots
// ---------------------------------------------------------------------------

enum Link<T: Scalar, M> {
    Thread(Sender<Work<T, M>>),
    /// The single worker of a one-worker run: the manager's own thread.
    Inline,
    Retired,
}

/// What a slot is running; `since` feeds the stall watchdog.
#[derive(Clone, Copy)]
enum Busy {
    Task {
        job: JobId,
        task: TaskId,
        attempt: u32,
        since: Instant,
    },
    Unit,
}

/// Worker-slot plumbing shared by both front ends: spawn, send, in-flight
/// tracking, retirement and respawn, and the watchdog's expiry scan.
pub(crate) struct Slots<'s, 'e, T: Scalar, M> {
    scope: &'s Scope<'s, 'e>,
    done: Sender<M>,
    /// Arena template each worker starts from (`None`: per-call scratch).
    arena: Option<Workspace<T>>,
    trace: TraceConfig,
    epoch: Instant,
    links: Vec<Link<T, M>>,
    busy: Vec<Option<Busy>>,
    idle: Vec<usize>,
    threads: Vec<ScopedJoinHandle<'s, WorkerKit<T>>>,
    /// The inline worker's kit and its latest report.
    inline: Option<(WorkerKit<T>, Option<M>)>,
}

impl<'s, 'e, T: Scalar, M: From<TaskDone<T>> + Send + 's> Slots<'s, 'e, T, M> {
    /// `workers` slots reporting on `done`. `inline` runs the single
    /// worker on the calling thread instead of spawning one.
    pub fn new(
        scope: &'s Scope<'s, 'e>,
        workers: usize,
        inline: bool,
        done: Sender<M>,
        arena: Option<Workspace<T>>,
        trace: TraceConfig,
        epoch: Instant,
    ) -> Self {
        let mut slots = Slots {
            scope,
            done,
            arena,
            trace,
            epoch,
            links: (0..workers).map(|_| Link::Inline).collect(),
            busy: vec![None; workers],
            idle: (0..workers).rev().collect(),
            threads: Vec::new(),
            inline: None,
        };
        if inline {
            slots.inline = Some((slots.kit(), None));
        } else {
            for w in 0..workers {
                slots.spawn(w);
            }
        }
        slots
    }

    /// A fresh worker's arena and trace lane.
    fn kit(&self) -> WorkerKit<T> {
        let rec = self.trace.enabled;
        let lane = rec.then(|| WorkerRecorder::new(self.trace.capacity_per_lane));
        (self.arena.clone(), lane)
    }

    fn spawn(&mut self, w: usize) {
        let (tx, rx) = channel();
        let done = self.done.clone();
        let kit = self.kit();
        let epoch = self.epoch;
        let handle = std::thread::Builder::new()
            .name(format!("tileqr-worker-{w}"))
            .spawn_scoped(self.scope, move || worker_loop(w, rx, done, kit, epoch))
            .expect("spawn worker thread");
        self.links[w] = Link::Thread(tx);
        self.threads.push(handle);
    }

    /// An idle worker, if any.
    pub fn idle(&self) -> Option<usize> {
        self.idle.last().copied()
    }

    /// Hand `work` to idle worker `w`. An idle worker is alive: a worker
    /// thread exits only after reporting a panic, and is never idle again.
    pub fn send(&mut self, w: usize, work: Work<T, M>) {
        // The watchdog's clock starts at dispatch; an inline attempt is
        // over before `send` returns, so it needs no clock read.
        let since = match self.links[w] {
            Link::Thread(_) => Instant::now(),
            _ => self.epoch,
        };
        let busy = match &work {
            Work::Task(t) => Busy::Task {
                job: t.job,
                task: t.task,
                attempt: t.attempt,
                since,
            },
            Work::Unit(_) => Busy::Unit,
        };
        match &self.links[w] {
            Link::Thread(tx) => tx
                .send(work)
                .unwrap_or_else(|_| panic!("idle worker {w} is gone")),
            Link::Inline => {
                let (kit, report) = self.inline.as_mut().expect("inline slot has a kit");
                let timed = kit.1.is_some();
                *report = Some(run_work(w, work, kit, self.epoch, timed).0);
            }
            Link::Retired => unreachable!("a retired worker is never idle"),
        }
        self.idle.pop();
        self.busy[w] = Some(busy);
    }

    /// The inline worker's report of the attempt `send` just ran.
    pub fn take_inline(&mut self) -> Option<M> {
        self.inline.as_mut().and_then(|(_, report)| report.take())
    }

    /// Account a task report from worker `w`. Returns whether it is the
    /// attempt `w` was given; a late report from a retired worker is not.
    /// A worker whose attempt panicked does not return to the idle set.
    pub fn settle(&mut self, done: &TaskDone<T>) -> bool {
        let w = done.worker;
        let expected = matches!(self.busy[w], Some(Busy::Task { job, task, attempt, .. })
            if job == done.job && task == done.task && attempt == done.attempt);
        if expected {
            self.busy[w] = None;
            if !matches!(done.outcome, Outcome::Panicked(_)) {
                self.idle.push(w);
            }
        }
        expected
    }

    /// Account the end of a unit on worker `w`.
    pub fn settle_unit(&mut self, w: usize) {
        self.busy[w] = None;
        self.idle.push(w);
    }

    /// Retire worker `w`: its channel closes, so it exits after whatever
    /// it is running.
    pub fn retire(&mut self, w: usize) {
        self.links[w] = Link::Retired;
        self.busy[w] = None;
        self.idle.retain(|&x| x != w);
    }

    /// Replace worker `w` with a fresh thread, idle.
    pub fn respawn(&mut self, w: usize) {
        self.retire(w);
        self.spawn(w);
        self.idle.push(w);
    }

    /// Whether every worker has been retired.
    pub fn all_retired(&self) -> bool {
        self.links.iter().all(|l| matches!(l, Link::Retired))
    }

    /// When the oldest in-flight task crosses the stall bound.
    pub fn earliest_expiry(&self, bound: Duration) -> Option<Instant> {
        self.busy
            .iter()
            .filter_map(|b| match b {
                Some(Busy::Task { since, .. }) => Some(*since + bound),
                _ => None,
            })
            .min()
    }

    /// The watchdog: retire every worker whose task has run past `bound`,
    /// returning `(worker, job, task)` for each. Units are exempt: they
    /// have no per-task retry identity to requeue.
    pub fn expire(&mut self, bound: Duration) -> Vec<(usize, JobId, TaskId)> {
        let now = Instant::now();
        let stalled: Vec<_> = (0..self.busy.len())
            .filter_map(|w| match self.busy[w] {
                Some(Busy::Task {
                    job, task, since, ..
                }) if now.saturating_duration_since(since) >= bound => Some((w, job, task)),
                _ => None,
            })
            .collect();
        for &(w, _, _) in &stalled {
            self.retire(w);
        }
        stalled
    }

    /// Close every channel, join the workers, and return one trace lane
    /// per worker plus the arenas' bytes and growths (a one-job run, which
    /// never respawns, so its threads are its slots in order).
    pub fn finish(self) -> (Vec<WorkerRecorder>, HotPathCounters) {
        drop(self.links);
        let joined = self
            .threads
            .into_iter()
            .map(|h| h.join().unwrap_or_default());
        let mut counters = HotPathCounters::default();
        let mut lanes = Vec::new();
        for (ws, rec) in self.inline.map(|(kit, _)| kit).into_iter().chain(joined) {
            if let Some(ws) = ws {
                counters.workspace_bytes += ws.bytes();
                counters.workspace_resizes += ws.resizes();
            }
            lanes.push(rec.unwrap_or_else(|| WorkerRecorder::new(1)));
        }
        (lanes, counters)
    }
}

// ---------------------------------------------------------------------------
// the per-job DAG state machine
// ---------------------------------------------------------------------------

/// How a run executes and recovers, fixed at its start.
pub(crate) struct RunParams {
    pub workers: usize,
    pub order: DispatchOrder,
    pub cost: CostModel,
    pub drift: DriftConfig,
    /// Retry budget. `Some` makes the run fenced (preserving staging,
    /// manager-side commits); `None` makes the first fault fatal.
    pub ft: Option<FaultTolerance>,
    /// Scan panel-factor outputs for NaN/Inf at the fence (service jobs,
    /// whose inputs were checked finite at submission).
    pub poison_fence: bool,
    /// Manager-lane tracing.
    pub trace: TraceConfig,
}

/// Why a run stopped early.
pub(crate) enum Halt {
    Failed(RuntimeError),
    Poisoned { task: TaskId, tile: (usize, usize) },
    Cancelled,
}

/// Job-local accounting the service hands back with each result.
#[derive(Default)]
pub(crate) struct Accounting {
    pub task_latency: LatencyHistogram,
    pub class_compute_us: [f64; 3],
    pub class_tasks: [u64; 3],
    /// Task dispatches, retries included.
    pub dispatched: u64,
}

/// One job's DAG state machine. Its caller feeds it dispatch slots
/// ([`JobRun::next`]) and worker reports ([`JobRun::on_done`]); it owns
/// everything between: readiness, the fence, retries, drift, poison.
pub(crate) struct JobRun<T: Scalar> {
    shared: Arc<SharedFactorState<T>>,
    b: usize,
    ft: Option<FaultTolerance>,
    poison_fence: bool,
    ready: ReadyQueue,
    tracker: ReadyTracker,
    committed: Vec<bool>,
    attempts: Vec<u32>,
    parked: BinaryHeap<Reverse<(Instant, TaskId)>>,
    in_flight: usize,
    /// Armed iff drift detection is on, the run has calibrated costs, and
    /// more than one worker: the detector plus the original calibration
    /// its ratios scale.
    drift: Option<(DriftDetector, ClassCosts)>,
    drift_panel: usize,
    epoch: Instant,
    manager: Option<WorkerRecorder>,
    report: RunReport,
    /// First dispatch.
    pub started: Option<Instant>,
    pub halt: Option<Halt>,
    pub acct: Accounting,
}

impl<T: Scalar> JobRun<T> {
    /// Start a run of `graph` over `state`; trace timestamps count from
    /// `epoch`.
    pub fn new(state: FactorState<T>, graph: &TaskGraph, p: &RunParams, epoch: Instant) -> Self {
        let b = state.tiles().tile_size();
        // One worker's makespan is the sum of its tasks whatever the
        // order, so a production policy only changes cache locality there:
        // run in program order (the order of `run_all`, panel by
        // panel, lowest ready id first) and leave drift disarmed. The
        // testkit's exploration orders are always honoured.
        let ready = match p.order {
            DispatchOrder::Policy(_) if p.workers == 1 => {
                ReadyQueue::reverse_priority((0..graph.len()).map(|t| t as f64).collect())
            }
            order => ReadyQueue::for_order(order, graph, model_weight(p.cost, b)),
        };
        let drift = (p.drift.enabled && p.workers > 1)
            .then(|| p.cost.class_costs())
            .flatten()
            .map(|base| (DriftDetector::new(p.drift, base.expected_us(b)), base));
        let mut run = JobRun {
            shared: Arc::new(SharedFactorState::new(state)),
            b,
            ft: p.ft,
            poison_fence: p.poison_fence,
            ready,
            tracker: ReadyTracker::new(graph),
            committed: vec![false; graph.len()],
            attempts: vec![0; graph.len()],
            parked: BinaryHeap::new(),
            in_flight: 0,
            drift,
            drift_panel: 0,
            epoch,
            manager: p
                .trace
                .enabled
                .then(|| WorkerRecorder::new(p.trace.capacity_per_lane)),
            report: RunReport {
                tasks_per_worker: vec![0; p.workers],
                policy: p.order.base_policy(),
                ..RunReport::default()
            },
            started: None,
            halt: None,
            acct: Accounting::default(),
        };
        for t in run.tracker.initial_ready(graph) {
            run.mark(RawKind::Ready, t, 0);
            run.ready.push(t);
        }
        run
    }

    fn mark(&mut self, kind: RawKind, task: TaskId, aux: u64) {
        mark(&mut self.manager, self.epoch, kind, task, aux);
    }

    /// Every task has committed.
    pub fn is_complete(&self) -> bool {
        self.tracker.all_done()
    }

    /// Attempts dispatched and not yet reported.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Ready tasks waiting for a worker.
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// Tasks committed so far.
    pub fn completed(&self) -> usize {
        self.tracker.completed()
    }

    /// Whether no worker holds the job's state, so [`JobRun::finish`] can
    /// reclaim it.
    pub fn state_free(&self) -> bool {
        Arc::strong_count(&self.shared) == 1
    }

    /// Halt the run with `e` (the first halt wins).
    pub fn fail(&mut self, e: RuntimeError) {
        self.halt.get_or_insert(Halt::Failed(e));
    }

    /// Stop dispatching and committing; in-flight attempts drain.
    pub fn cancel(&mut self) {
        if !self.is_complete() {
            self.halt.get_or_insert(Halt::Cancelled);
        }
    }

    /// The next attempt to hand to worker `w`, or `None` when nothing is
    /// dispatchable now.
    pub fn next(
        &mut self,
        graph: &TaskGraph,
        job: JobId,
        w: usize,
        injector: Option<&dyn FaultInjector>,
    ) -> Option<TaskWork<T>> {
        if self.halt.is_some() {
            return None;
        }
        // Skip entries a racing retry already committed.
        let task = std::iter::from_fn(|| self.ready.pop()).find(|&t| !self.committed[t])?;
        let attempt = self.attempts[task];
        self.attempts[task] += 1;
        self.in_flight += 1;
        self.acct.dispatched += 1;
        self.started.get_or_insert_with(Instant::now);
        self.mark(RawKind::Dispatch, task, w as u64);
        Some(TaskWork {
            job,
            task,
            kind: graph.task(task),
            attempt,
            fault: injector.map_or(InjectedFault::None, |f| f.before_attempt(task, attempt)),
            fenced: self.ft.is_some(),
            shared: Arc::clone(&self.shared),
        })
    }

    /// Fold in one attempt report. `expected` is false for a late report
    /// from a retired worker: a late result may still win the fence, but
    /// a late failure was already charged when the worker was retired.
    pub fn on_done(&mut self, graph: &TaskGraph, done: TaskDone<T>, expected: bool) {
        let TaskDone {
            task: t,
            attempt,
            worker: w,
            outcome,
            ..
        } = done;
        if expected {
            self.in_flight -= 1;
        }
        match outcome {
            Outcome::Done {
                completed,
                stage,
                commit,
                compute,
            } => {
                self.report.stage_wait += stage;
                self.report.commit_wait += commit;
                self.acct.task_latency.record_ns(compute.as_nanos() as u64);
                // The commit fence: the first result wins (duplicate
                // attempts stage identical inputs, so their outputs are
                // bit-identical); a halted run commits nothing more.
                if self.committed[t] || self.halt.is_some() {
                    return;
                }
                let kind = graph.task(t);
                if let Some(done) = completed {
                    if self.poison_fence && is_panel_factor(kind) {
                        if let Some(tile) = done.first_non_finite() {
                            self.halt = Some(Halt::Poisoned { task: t, tile });
                            return;
                        }
                    }
                    let t0 = Instant::now();
                    self.shared.commit(*done);
                    self.report.commit_wait += t0.elapsed();
                    if let Some(r) = self.manager.as_mut() {
                        let (from, to) = (ns(self.epoch, t0), ns(self.epoch, Instant::now()));
                        r.record(RawEvent::interval(RawKind::Commit, t, attempt, from, to));
                    }
                }
                self.committed[t] = true;
                self.report.tasks_per_worker[w] += 1;
                let slot = class_slot(kind.class());
                let us = compute.as_secs_f64() * 1e6;
                self.acct.class_compute_us[slot] += us;
                self.acct.class_tasks[slot] += 1;
                self.reweigh(graph, kind, slot, us);
                let (ready, manager, epoch) = (&mut self.ready, &mut self.manager, self.epoch);
                self.tracker.complete_with(graph, t, |s| {
                    mark(manager, epoch, RawKind::Ready, s, 0);
                    ready.push(s);
                });
            }
            Outcome::Failed(source) => {
                if expected && !self.committed[t] {
                    self.retry(t, RuntimeError::Kernel { task: t, source });
                }
            }
            Outcome::Panicked(message) => {
                if expected {
                    self.report.worker_deaths += 1;
                    self.mark(RawKind::WorkerDeath, RawEvent::NO_TASK, w as u64);
                    if !self.committed[t] {
                        self.report.requeues += 1;
                        self.mark(RawKind::Requeue, t, w as u64);
                        let cause = RuntimeError::TaskPanicked {
                            task: t,
                            worker: w,
                            message,
                        };
                        self.retry(t, cause);
                    }
                }
            }
        }
    }

    /// The watchdog retired worker `w`, which was running task `t` for
    /// longer than `bound`: charge the death and requeue the task.
    pub fn on_stalled(&mut self, t: TaskId, w: usize, bound: Duration) {
        self.in_flight -= 1;
        self.report.worker_deaths += 1;
        self.mark(RawKind::WorkerDeath, RawEvent::NO_TASK, w as u64);
        if !self.committed[t] && self.halt.is_none() {
            self.report.requeues += 1;
            self.mark(RawKind::Requeue, t, w as u64);
            let ft = self.ft.expect("the watchdog runs only with a retry budget");
            self.park(t, ft, format!("worker {w} stalled past {bound:?}"));
        }
    }

    /// A failed attempt of `t`: retry it under the budget, or halt the
    /// run with `cause` when it has none.
    fn retry(&mut self, t: TaskId, cause: RuntimeError) {
        match self.ft {
            Some(ft) if self.halt.is_none() => self.park(t, ft, cause.to_string()),
            Some(_) => {}
            None => self.fail(cause),
        }
    }

    /// Park `t` for a backoff-delayed retry, or halt once its attempts are
    /// spent.
    fn park(&mut self, t: TaskId, ft: FaultTolerance, last: String) {
        let attempts = self.attempts[t];
        if attempts >= ft.max_attempts {
            self.fail(RuntimeError::RetriesExhausted {
                task: t,
                attempts,
                last,
            });
            return;
        }
        self.report.retries += 1;
        self.mark(RawKind::Retry, t, attempts as u64);
        self.parked
            .push(Reverse((Instant::now() + ft.backoff(attempts), t)));
    }

    /// Return retries whose backoff has elapsed to the ready set.
    pub fn wake(&mut self) {
        if self.parked.is_empty() {
            return;
        }
        let now = Instant::now();
        while let Some(&Reverse((when, t))) = self.parked.peek() {
            if when > now {
                break;
            }
            self.parked.pop();
            if !self.committed[t] {
                self.ready.push(t);
            }
        }
    }

    /// When the earliest parked retry is due.
    pub fn next_wake(&self) -> Option<Instant> {
        self.parked.peek().map(|&Reverse((when, _))| when)
    }

    /// Drift re-weighting: at a panel boundary, re-rank the ready set
    /// under the calibration scaled by the measured drift.
    fn reweigh(&mut self, graph: &TaskGraph, kind: TaskKind, slot: usize, us: f64) {
        let Some((detector, base)) = self.drift.as_mut() else {
            return;
        };
        detector.record(slot, us);
        // The first commit of a later panel closes the previous window.
        if kind.panel() > self.drift_panel {
            self.drift_panel = kind.panel();
            if let Some(ratios) = detector.check() {
                let scaled = base.scaled(ratios);
                let b = self.b;
                self.ready
                    .reprioritize(bottom_levels(graph, |k| scaled.cost_us(k, b)));
                self.report.drift_reweights += 1;
            }
        }
    }

    /// Reclaim the factor state (requires [`JobRun::state_free`]) and
    /// assemble the report. `lanes` are the workers' trace lanes;
    /// `counters` their arena totals.
    pub fn finish(
        self,
        graph: &TaskGraph,
        lanes: Vec<WorkerRecorder>,
        mut counters: HotPathCounters,
    ) -> (FactorState<T>, RunReport, Accounting) {
        let JobRun {
            shared,
            ready,
            manager,
            mut report,
            started,
            acct,
            ..
        } = self;
        let state = Arc::try_unwrap(shared)
            .unwrap_or_else(|_| panic!("a worker still holds the job's state"))
            .into_state();
        counters.cow_clones = state.cow_clones();
        report.counters = counters;
        report.elapsed = started.map_or(Duration::ZERO, |s| s.elapsed());
        report.max_ready_depth = ready.max_depth();
        report.trace = manager.map(|m| {
            let mut names: Vec<String> = (0..lanes.len()).map(|w| format!("worker{w}")).collect();
            names.push("manager".to_string());
            let mut recorders = lanes;
            recorders.push(m);
            merge_recorders(&recorders, names, graph)
        });
        (state, report, acct)
    }
}
