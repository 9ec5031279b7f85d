//! Multi-job stage scheduler: priority lanes, stage interleaving, and
//! cross-job simulator batching on one fixed worker pool.
//!
//! A solo driver runs one [`JigsawPipeline`] to completion, which is right
//! for a workstation and wrong for a service: N concurrent distinct jobs
//! each monopolise the worker team in turn, dividing throughput by N, and
//! an interactive query stalls behind a running sweep. The staged pipeline
//! decomposes every job into seed-deterministic stages — exactly the unit
//! a scheduler can interleave — so this module runs *many* jobs as a queue
//! of [`StageTask`]s over a fixed pool of workers:
//!
//! * **Priority lanes.** Every job is submitted into one of three lanes —
//!   [`Priority::Interactive`] > [`Priority::Sweep`] >
//!   [`Priority::Background`] — and after every stage a job goes back
//!   through lane selection, so an interactive query overtakes a sweep at
//!   the next stage boundary instead of waiting for its completion. Strict
//!   priority is tempered by aging: every [`AGING_PERIOD`]-th dispatch
//!   picks from the *lowest* non-empty lane, so background work always
//!   makes progress under sustained interactive load.
//! * **Cross-job batching.** The two trial-fan-out stages (`run_global`,
//!   `run_cpms`) from different jobs that share a batch key (same device
//!   and executor configuration — the digest-prefix of compatible
//!   simulator work) are merged into a single
//!   [`jigsaw_pmf::parallel`] fan-out and split back per job in input
//!   order. Duplicate-adjacent traffic — parameter sweeps, VQA iterations
//!   — therefore scales with concurrency instead of dividing by it.
//! * **Bounded admission.** At most [`SchedConfig::capacity`] jobs are
//!   admitted at once; the next submission is refused with a typed
//!   [`JobError::Overloaded`] instead of queueing without limit.
//!
//! The invariant everything above must preserve — and
//! `tests/sched_determinism.rs` enforces — is **per-job bit-identity**:
//! every job's [`JigsawResult`] is byte-identical to a solo
//! [`run_jigsaw`](crate::run_jigsaw) of the same request, regardless of
//! lane, interleaving, batching, or worker count. This falls out of the
//! pipeline's seed discipline (stage streams depend only on the experiment
//! seed and the stage identity, never on scheduling) plus the fan-out
//! engine's merge-in-input-order rule.
//!
//! Telemetry: per-lane queue-wait histograms
//! (`jigsaw_sched_queue_wait_seconds`), per-lane admission counters
//! (`jigsaw_sched_jobs_total`) and the cross-job batch counter
//! (`jigsaw_sched_batched_jobs_total`) land in
//! [`crate::telemetry::global`], so the job server's metrics frame exposes
//! them alongside the stage walls.
//!
//! # Examples
//!
//! ```
//! use jigsaw_circuit::bench;
//! use jigsaw_core::sched::{Priority, SchedConfig, Scheduler};
//! use jigsaw_core::{run_jigsaw, JigsawConfig};
//! use jigsaw_device::Device;
//! # use jigsaw_compiler::CompilerOptions;
//!
//! let sched = Scheduler::new(SchedConfig::default().with_workers(2));
//! let device = Device::toronto();
//! let config = JigsawConfig {
//! #     compiler: CompilerOptions { max_seeds: 2, ..CompilerOptions::default() },
//!     ..JigsawConfig::jigsaw(400)
//! };
//! let ticket = sched
//!     .submit(bench::ghz(4).circuit(), &device, &config, Priority::Interactive, None)
//!     .expect("admitted");
//! let output = ticket.wait().expect("job ran");
//! assert_eq!(output.result, run_jigsaw(bench::ghz(4).circuit(), &device, &config));
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use jigsaw_circuit::Circuit;
use jigsaw_device::Device;
use jigsaw_pmf::codec::{fnv1a64, Encode, Writer};
use jigsaw_pmf::parallel::{fan_out, fan_out_groups};

use jigsaw_pmf::ShardPartial;

use crate::bayes::Marginal;
use crate::dist;
use crate::jigsaw::{JigsawConfig, JigsawResult};
use crate::lockcheck::{Condvar, Mutex};
use crate::persist::{self, StageKind};
use crate::pipeline::{JigsawPipeline, PlanError, StageOutcome, StageTask, SubsetsSelected};
use crate::telemetry;

/// Every this-many dispatches, the pick order inverts (lowest lane first)
/// so background jobs cannot starve under sustained interactive load.
pub const AGING_PERIOD: u64 = 4;

/// Upper bound on jobs merged into one cross-job batch, bounding the
/// latency cost a single merged fan-out can impose on its members.
pub const MAX_BATCH: usize = 32;

/// The scheduling lane of a job, in descending precedence. The wire codes
/// are part of the SubmitJob frame (docs/FORMAT.md §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Priority {
    /// A user is waiting on this job right now.
    Interactive,
    /// One point of a parameter sweep.
    Sweep,
    /// Re-tuning, prefetching — work nobody is waiting on.
    Background,
}

impl Priority {
    /// All lanes, highest precedence first.
    pub const ALL: [Self; 3] = [Self::Interactive, Self::Sweep, Self::Background];

    /// The wire tag of this lane.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            Self::Interactive => 0,
            Self::Sweep => 1,
            Self::Background => 2,
        }
    }

    /// Parses a wire tag.
    #[must_use]
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(Self::Interactive),
            1 => Some(Self::Sweep),
            2 => Some(Self::Background),
            _ => None,
        }
    }

    /// Lane index, 0 = highest precedence.
    #[must_use]
    fn index(self) -> usize {
        self.code() as usize
    }

    /// The lane's metrics label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Interactive => "interactive",
            Self::Sweep => "sweep",
            Self::Background => "background",
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Why a job did not produce a result. Every variant is typed — a refused
/// or failed job must never panic the scheduler or hang its waiter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// Admission refused: the scheduler already holds `capacity` jobs.
    /// Resubmit after some complete — nothing about the job itself is
    /// wrong.
    Overloaded {
        /// The configured admission capacity.
        capacity: usize,
    },
    /// The request itself is unusable (see [`PlanError`]).
    Plan(PlanError),
    /// A stage panicked; the panic was contained and the message captured.
    Failed(String),
    /// The scheduler shut down before the job completed.
    Shutdown,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Overloaded { capacity } => {
                write!(f, "scheduler overloaded: {capacity} jobs already admitted")
            }
            Self::Plan(e) => write!(f, "plan rejected: {e}"),
            Self::Failed(detail) => write!(f, "job stage failed: {detail}"),
            Self::Shutdown => f.write_str("scheduler shut down before the job completed"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Plan(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PlanError> for JobError {
    fn from(e: PlanError) -> Self {
        Self::Plan(e)
    }
}

/// Scheduler tuning knobs.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Worker threads executing stage tasks (min 1).
    pub workers: usize,
    /// Maximum jobs admitted at once (queued + running); the next
    /// submission gets [`JobError::Overloaded`].
    pub capacity: usize,
    /// Merge compatible `run_global`/`run_cpms` stages across jobs into
    /// single fan-outs.
    pub batching: bool,
    /// Worker-team width of a merged fan-out (`0` = all cores), following
    /// the `RunConfig::threads` convention. Results are bit-identical at
    /// every setting.
    pub batch_threads: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism().map_or(2, usize::from).min(8);
        Self { workers, capacity: 64, batching: true, batch_threads: 0 }
    }
}

impl SchedConfig {
    /// Overrides the worker count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Overrides the admission capacity.
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Enables or disables cross-job batching.
    #[must_use]
    pub fn with_batching(mut self, batching: bool) -> Self {
        self.batching = batching;
        self
    }
}

/// A completed job: the result plus the checkpoint archive captured at the
/// requested stage (for the server's eviction spill), if one was asked for.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// The reconstructed result — byte-identical to a solo
    /// [`run_jigsaw`](crate::run_jigsaw).
    pub result: JigsawResult,
    /// The persist archive of the hinted stage, when a hint was given.
    pub checkpoint: Option<Vec<u8>>,
}

/// What a waiter eventually observes.
type JobVerdict = Result<JigsawResult, JobError>;

/// Shared completion cell: the worker fills it, the ticket waits on it.
struct JobCell {
    slot: Mutex<CellState>,
    done: Condvar,
}

#[derive(Default)]
struct CellState {
    verdict: Option<JobVerdict>,
    checkpoint: Option<Vec<u8>>,
}

impl JobCell {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            slot: Mutex::new("sched.cell.slot", CellState::default()),
            done: Condvar::new(),
        })
    }
}

/// A claim on one submitted job. [`Self::wait`] blocks until the scheduler
/// completes (or refuses) the job.
pub struct JobTicket {
    cell: Arc<JobCell>,
}

impl fmt::Debug for JobTicket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let decided = self.cell.slot.lock().verdict.is_some();
        f.debug_struct("JobTicket").field("decided", &decided).finish()
    }
}

impl JobTicket {
    /// Blocks until the job completes and returns its output.
    ///
    /// # Errors
    ///
    /// The [`JobError`] the scheduler refused or failed the job with.
    ///
    /// # Panics
    ///
    /// Panics if the completion lock is poisoned (a scheduler bug: job
    /// code never runs under it).
    pub fn wait(self) -> Result<JobOutput, JobError> {
        let mut slot = self.cell.slot.lock();
        while slot.verdict.is_none() {
            slot = self.cell.done.wait(slot);
        }
        // analyze:allow(panic-reach, the wait loop above only exits once verdict is Some)
        let verdict = slot.verdict.take().expect("just checked");
        let checkpoint = slot.checkpoint.take();
        verdict.map(|result| JobOutput { result, checkpoint })
    }
}

/// Completion cell for one distributed-sweep shard: the worker fills it,
/// the [`ShardTicket`] waits on it. Shares the `sched.cell.slot` lock
/// rank with [`JobCell`] — the two are never held together.
struct ShardCell {
    slot: Mutex<Option<Result<ShardPartial, JobError>>>,
    done: Condvar,
}

impl ShardCell {
    fn new() -> Arc<Self> {
        Arc::new(Self { slot: Mutex::new("sched.cell.slot", None), done: Condvar::new() })
    }
}

/// A claim on one submitted shard ([`Scheduler::submit_shard`]).
pub struct ShardTicket {
    cell: Arc<ShardCell>,
}

impl fmt::Debug for ShardTicket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let decided = self.cell.slot.lock().is_some();
        f.debug_struct("ShardTicket").field("decided", &decided).finish()
    }
}

impl ShardTicket {
    /// Blocks until the shard completes and returns its partial result.
    ///
    /// # Errors
    ///
    /// The [`JobError`] the scheduler refused or failed the shard with.
    ///
    /// # Panics
    ///
    /// Panics if the completion lock is poisoned (a scheduler bug: shard
    /// code never runs under it).
    pub fn wait(self) -> Result<ShardPartial, JobError> {
        let mut slot = self.cell.slot.lock();
        while slot.is_none() {
            slot = self.cell.done.wait(slot);
        }
        // analyze:allow(panic-reach, the wait loop above only exits once the verdict is Some)
        slot.take().expect("just checked")
    }
}

/// Which batchable stage a pending task is at, plus the compatibility key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BatchSignature {
    /// 0 = `run_global`, 1 = `run_cpms`.
    stage: u8,
    /// FNV digest of the encoded device + executor config: the
    /// digest-prefix two jobs must share for their simulator work to merge.
    key: u64,
}

/// The payload of one queued dispatch unit.
enum Work {
    /// A pipeline job parked at a stage boundary.
    Stage {
        cell: Arc<JobCell>,
        task: Box<StageTask>,
        /// Stage still awaiting checkpoint capture, if any.
        hint: Option<StageKind>,
    },
    /// One distributed-sweep shard ([`Scheduler::submit_shard`]),
    /// resolved through [`dist::execute_shard`]. Never batched: a shard
    /// is already a range fan-out of its own.
    Shard { cell: Arc<ShardCell>, stage: Arc<SubsetsSelected>, shard: dist::Shard },
}

/// One queued unit of work sitting in a lane.
struct Pending {
    work: Work,
    lane: Priority,
    signature: Option<BatchSignature>,
    enqueued: Instant,
}

/// Scheduler metrics, registered in [`telemetry::global`].
struct Metrics {
    queue_wait: [telemetry::Histogram; 3],
    lane_jobs: [telemetry::Counter; 3],
    batched_jobs: telemetry::Counter,
}

impl Metrics {
    fn register() -> Self {
        Self {
            queue_wait: Priority::ALL.map(|p| telemetry::sched_queue_wait(p.label())),
            lane_jobs: Priority::ALL.map(|p| telemetry::sched_lane_jobs(p.label())),
            batched_jobs: telemetry::sched_batched_jobs(),
        }
    }
}

struct State {
    lanes: [VecDeque<Pending>; 3],
    /// Jobs admitted and not yet completed (the [`SchedConfig::capacity`]
    /// bound).
    admitted: usize,
    /// Dispatch counter driving the aging inversion.
    picks: u64,
    shutdown: bool,
}

struct Inner {
    state: Mutex<State>,
    work: Condvar,
    config: SchedConfig,
    metrics: Metrics,
}

/// The multi-job stage scheduler. See the [module docs](self) for the
/// scheduling model and the bit-identity invariant.
pub struct Scheduler {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Scheduler {
    /// Starts the worker pool.
    #[must_use]
    pub fn new(config: SchedConfig) -> Self {
        let inner = Arc::new(Inner {
            state: Mutex::new(
                "sched.state",
                State {
                    lanes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                    admitted: 0,
                    picks: 0,
                    shutdown: false,
                },
            ),
            work: Condvar::new(),
            metrics: Metrics::register(),
            config,
        });
        let workers = (0..inner.config.workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || Self::worker_loop(&inner))
            })
            .collect();
        Self { inner, workers }
    }

    /// The configuration this scheduler runs with.
    #[must_use]
    pub fn config(&self) -> &SchedConfig {
        &self.inner.config
    }

    /// Jobs currently admitted (queued or running).
    ///
    /// # Panics
    ///
    /// Panics if the scheduler lock is poisoned (a bug: job code never
    /// runs under it).
    #[must_use]
    pub fn admitted(&self) -> usize {
        self.inner.state.lock().admitted
    }

    /// Submits one job into `priority`'s lane. `checkpoint` names the
    /// pipeline stage to capture as a persist archive on the way through
    /// (the job server spills it on cache eviction); `None` skips capture.
    ///
    /// Admission is synchronous: a full scheduler refuses immediately with
    /// [`JobError::Overloaded`], and an unusable request with
    /// [`JobError::Plan`] — neither consumes capacity.
    ///
    /// # Errors
    ///
    /// [`JobError::Overloaded`], [`JobError::Plan`], or
    /// [`JobError::Shutdown`] when the scheduler is stopping.
    ///
    /// # Panics
    ///
    /// Panics if the scheduler lock is poisoned (a bug: job code never
    /// runs under it).
    pub fn submit(
        &self,
        program: &Circuit,
        device: &Device,
        config: &JigsawConfig,
        priority: Priority,
        checkpoint: Option<StageKind>,
    ) -> Result<JobTicket, JobError> {
        let planned = JigsawPipeline::try_plan(program, device, config)?;
        let cell = JobCell::new();
        // A `Planned` hint is satisfiable right now, before any stage runs.
        let mut hint = checkpoint;
        if hint == Some(StageKind::Planned) {
            cell.slot.lock().checkpoint = Some(persist::to_bytes(&planned));
            hint = None;
        }
        let pending = Pending {
            work: Work::Stage {
                cell: Arc::clone(&cell),
                task: Box::new(StageTask::Planned(planned)),
                hint,
            },
            lane: priority,
            signature: None,
            enqueued: Instant::now(),
        };
        self.admit(pending, priority)?;
        Ok(JobTicket { cell })
    }

    /// Submits one distributed-sweep shard into `priority`'s lane: the
    /// worker runs [`dist::execute_shard`] over the range when the lane
    /// discipline dispatches it. Shards share the job admission bound —
    /// a saturated worker refuses shard traffic with the same typed
    /// [`JobError::Overloaded`] the server relays to drivers.
    ///
    /// # Errors
    ///
    /// [`JobError::Overloaded`], [`JobError::Shutdown`], or
    /// [`JobError::Failed`] when the shard range does not fit the stage's
    /// work list (decoded requests are pre-validated, so this indicates
    /// caller misuse).
    ///
    /// # Panics
    ///
    /// Panics if the scheduler lock is poisoned (a bug: shard code never
    /// runs under it).
    pub fn submit_shard(
        &self,
        stage: Arc<SubsetsSelected>,
        shard: dist::Shard,
        priority: Priority,
    ) -> Result<ShardTicket, JobError> {
        let items = stage.layers().iter().map(|layer| layer.subsets.len()).sum::<usize>() as u64;
        if shard.is_empty() || shard.hi > items {
            return Err(JobError::Failed(format!(
                "shard range {}..{} invalid for a {items}-item work list",
                shard.lo, shard.hi
            )));
        }
        let cell = ShardCell::new();
        let pending = Pending {
            work: Work::Shard { cell: Arc::clone(&cell), stage, shard },
            lane: priority,
            signature: None,
            enqueued: Instant::now(),
        };
        self.admit(pending, priority)?;
        Ok(ShardTicket { cell })
    }

    /// Shared admission: bounds capacity, enqueues, wakes one worker.
    fn admit(&self, pending: Pending, priority: Priority) -> Result<(), JobError> {
        {
            let mut state = self.inner.state.lock();
            if state.shutdown {
                return Err(JobError::Shutdown);
            }
            if state.admitted >= self.inner.config.capacity {
                return Err(JobError::Overloaded { capacity: self.inner.config.capacity });
            }
            state.admitted += 1;
            state.lanes[priority.index()].push_back(pending);
        }
        self.inner.metrics.lane_jobs[priority.index()].inc();
        self.inner.work.notify_one();
        Ok(())
    }

    /// Stops the workers: queued jobs fail with [`JobError::Shutdown`],
    /// in-flight stages finish, and every worker thread is joined.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let drained: Vec<Pending> = {
            let mut state = self.inner.state.lock();
            state.shutdown = true;
            state.lanes.iter_mut().flat_map(std::mem::take).collect()
        };
        self.inner.work.notify_all();
        for pending in drained {
            Self::fail_pending(&self.inner, pending.work);
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    /// Completes a never-dispatched unit with [`JobError::Shutdown`].
    fn fail_pending(inner: &Arc<Inner>, work: Work) {
        match work {
            Work::Stage { cell, .. } => Self::complete(inner, &cell, Err(JobError::Shutdown)),
            Work::Shard { cell, .. } => {
                Self::complete_shard(inner, &cell, Err(JobError::Shutdown));
            }
        }
    }

    /// The batch signature of a task, when it sits at a batchable stage.
    fn signature_of(task: &StageTask) -> Option<BatchSignature> {
        let (stage, ctx) = match task {
            StageTask::GlobalCompiled(s) => (0, s.ctx()),
            StageTask::SubsetsSelected(s) => (1, s.ctx()),
            _ => return None,
        };
        let (_, device, config) = ctx.digest_inputs();
        let mut w = Writer::new();
        device.encode(&mut w);
        config.run.encode(&mut w);
        Some(BatchSignature { stage, key: fnv1a64(w.as_bytes()) })
    }

    /// Picks the next dispatch under the lane discipline, draining
    /// batch-compatible peers from every lane when batching is on.
    fn pick(state: &mut State, config: &SchedConfig) -> Option<Vec<Pending>> {
        let aging = state.picks % AGING_PERIOD == AGING_PERIOD - 1;
        let order: [usize; 3] = if aging { [2, 1, 0] } else { [0, 1, 2] };
        let lane = order.into_iter().find(|&l| !state.lanes[l].is_empty())?;
        state.picks += 1;
        let primary = state.lanes[lane].pop_front().expect("non-empty lane");
        let signature = primary.signature.filter(|_| config.batching);
        let mut batch = vec![primary];
        if let Some(signature) = signature {
            // Peers merge in lane-precedence then FIFO order; order has no
            // semantic effect (per-job results are split back by job), it
            // only decides who reports queue wait first.
            for queue in &mut state.lanes {
                let mut kept = VecDeque::with_capacity(queue.len());
                while let Some(pending) = queue.pop_front() {
                    if batch.len() < MAX_BATCH && pending.signature == Some(signature) {
                        batch.push(pending);
                    } else {
                        kept.push_back(pending);
                    }
                }
                *queue = kept;
            }
        }
        Some(batch)
    }

    fn worker_loop(inner: &Arc<Inner>) {
        loop {
            let batch = {
                let mut state = inner.state.lock();
                loop {
                    if let Some(batch) = Self::pick(&mut state, &inner.config) {
                        break batch;
                    }
                    if state.shutdown {
                        return;
                    }
                    state = inner.work.wait(state);
                }
            };
            Self::execute(inner, batch);
        }
    }

    /// Runs one dispatch: a single stage, or a merged cross-job batch of
    /// the same batchable stage.
    fn execute(inner: &Arc<Inner>, batch: Vec<Pending>) {
        for pending in &batch {
            inner.metrics.queue_wait[pending.lane.index()].observe(pending.enqueued.elapsed());
        }
        if batch.len() >= 2 {
            inner.metrics.batched_jobs.add(batch.len() as u64);
        }
        let threads = inner.config.batch_threads;
        // Split each pending into its bookkeeping and its work payload.
        // Shards dispatch immediately (they are never batched); stage
        // tasks go through the batch machinery below.
        let mut metas: Vec<(Arc<JobCell>, Option<StageKind>, Priority)> = Vec::new();
        let mut tasks: Vec<StageTask> = Vec::new();
        for pending in batch {
            match pending.work {
                Work::Stage { cell, task, hint } => {
                    metas.push((cell, hint, pending.lane));
                    tasks.push(*task);
                }
                Work::Shard { cell, stage, shard } => {
                    let verdict =
                        contain(|| dist::execute_shard(&stage, &shard)).map_err(JobError::Failed);
                    Self::complete_shard(inner, &cell, verdict);
                }
            }
        }
        if tasks.is_empty() {
            return;
        }

        let outcomes: Vec<Result<StageOutcome, String>> = if metas.len() >= 2 {
            match tasks.first() {
                Some(StageTask::GlobalCompiled(_)) => {
                    let stages: Vec<_> = tasks
                        .into_iter()
                        .map(|t| match t {
                            StageTask::GlobalCompiled(s) => s,
                            _ => unreachable!("batch signatures matched"),
                        })
                        .collect();
                    fan_out(stages, threads, |stage| {
                        contain(move || {
                            StageOutcome::Next(Box::new(StageTask::GlobalRun(stage.run_global())))
                        })
                    })
                }
                Some(StageTask::SubsetsSelected(_)) => {
                    let stages: Vec<_> = tasks
                        .into_iter()
                        .map(|t| match t {
                            StageTask::SubsetsSelected(s) => s,
                            _ => unreachable!("batch signatures matched"),
                        })
                        .collect();
                    Self::run_cpms_batch(stages, threads)
                }
                _ => unreachable!("only fan-out stages carry batch signatures"),
            }
        } else {
            tasks.into_iter().map(|task| contain(move || task.advance())).collect()
        };

        let mut requeue = Vec::new();
        for ((cell, mut hint, lane), outcome) in metas.drain(..).zip(outcomes) {
            match outcome {
                Ok(StageOutcome::Next(task)) => {
                    if hint.is_some() && task.kind() == hint {
                        cell.slot.lock().checkpoint = Some(checkpoint_bytes(&task));
                        hint = None;
                    }
                    let signature = Self::signature_of(&task);
                    requeue.push(Pending {
                        work: Work::Stage { cell, task, hint },
                        lane,
                        signature,
                        enqueued: Instant::now(),
                    });
                }
                Ok(StageOutcome::Done(result)) => {
                    Self::complete(inner, &cell, Ok(*result));
                }
                Err(detail) => {
                    Self::complete(inner, &cell, Err(JobError::Failed(detail)));
                }
            }
        }
        if !requeue.is_empty() {
            let failed: Vec<Pending> = {
                let mut state = inner.state.lock();
                if state.shutdown {
                    drop(state);
                    requeue
                } else {
                    for pending in requeue {
                        state.lanes[pending.lane.index()].push_back(pending);
                    }
                    Vec::new()
                }
            };
            if failed.is_empty() {
                inner.work.notify_all();
            }
            for pending in failed {
                Self::fail_pending(inner, pending.work);
            }
        }
    }

    /// Merged `run_cpms`: one fan-out over the concatenated work lists of
    /// every job in the batch, split back per job in input order. Panics
    /// are contained per *item*, so one poisoned CPM fails only its own
    /// job.
    fn run_cpms_batch(
        stages: Vec<crate::pipeline::SubsetsSelected>,
        threads: usize,
    ) -> Vec<Result<StageOutcome, String>> {
        // Every job in the batch records the batch wall as its run-cpms
        // wall: its items ran interleaved with the others' on one team.
        let started = Instant::now();
        let groups: Vec<Vec<crate::pipeline::CpmWork>> =
            stages.iter().map(crate::pipeline::SubsetsSelected::cpm_work).collect();
        let per_job: Vec<Vec<Result<Marginal, String>>> =
            fan_out_groups(groups, threads, |job, item| {
                contain(|| stages[job].run_cpm_item(&item))
            });
        stages
            .into_iter()
            .zip(per_job)
            .map(|(stage, items)| {
                let marginals: Result<Vec<Marginal>, String> = items.into_iter().collect();
                let marginals = marginals?;
                contain(move || {
                    StageOutcome::Next(Box::new(StageTask::CpmsRun(
                        stage.finish_cpms(marginals, started),
                    )))
                })
            })
            .collect()
    }

    fn complete(inner: &Arc<Inner>, cell: &Arc<JobCell>, verdict: JobVerdict) {
        {
            let mut state = inner.state.lock();
            state.admitted = state.admitted.saturating_sub(1);
        }
        let mut slot = cell.slot.lock();
        slot.verdict = Some(verdict);
        drop(slot);
        cell.done.notify_all();
    }

    fn complete_shard(
        inner: &Arc<Inner>,
        cell: &Arc<ShardCell>,
        verdict: Result<ShardPartial, JobError>,
    ) {
        {
            let mut state = inner.state.lock();
            state.admitted = state.admitted.saturating_sub(1);
        }
        let mut slot = cell.slot.lock();
        *slot = Some(verdict);
        drop(slot);
        cell.done.notify_all();
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.stop();
        }
    }
}

/// Encodes a stage task's persist archive; only called for the four
/// persistable stages (guarded by [`StageTask::kind`]).
fn checkpoint_bytes(task: &StageTask) -> Vec<u8> {
    match task {
        StageTask::Planned(s) => persist::to_bytes(s),
        StageTask::GlobalCompiled(s) => persist::to_bytes(s),
        StageTask::GlobalRun(s) => persist::to_bytes(s),
        StageTask::SubsetsSelected(s) => persist::to_bytes(s),
        StageTask::CpmsRun(_) => unreachable!("CpmsRun has no persistable face"),
    }
}

/// The fault barrier: a panicking stage becomes a typed failure message.
fn contain<R>(job: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(job)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(ToString::to_string)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_owned())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::StageName;
    use crate::run_jigsaw;
    use jigsaw_circuit::bench;
    use jigsaw_compiler::CompilerOptions;
    use jigsaw_pmf::codec::encode_to_vec;

    fn quick_config(seed: u64) -> JigsawConfig {
        let mut config = JigsawConfig::jigsaw(1_000).with_seed(seed);
        config.compiler = CompilerOptions { max_seeds: 2, ..CompilerOptions::default() };
        config.run.threads = 1;
        config
    }

    #[test]
    fn scheduled_jobs_match_solo_runs_bit_for_bit() {
        let device = Device::toronto();
        let sched = Scheduler::new(SchedConfig::default().with_workers(3));
        let lanes = [Priority::Interactive, Priority::Sweep, Priority::Background];
        let tickets: Vec<_> = (0..6)
            .map(|i| {
                let config = quick_config(i);
                let ticket = sched
                    .submit(bench::ghz(5).circuit(), &device, &config, lanes[i as usize % 3], None)
                    .expect("admitted");
                (config, ticket)
            })
            .collect();
        for (config, ticket) in tickets {
            let output = ticket.wait().expect("job ran");
            let solo = run_jigsaw(bench::ghz(5).circuit(), &device, &config);
            assert_eq!(encode_to_vec(&output.result), encode_to_vec(&solo));
        }
        assert_eq!(sched.admitted(), 0);
    }

    #[test]
    fn batched_run_cpms_records_the_batch_wall() {
        // Each batched job's run-cpms wall must cover the shared fan-out,
        // not only its own finishing bookkeeping.
        let device = Device::toronto();
        let stages: Vec<_> = (0..2)
            .map(|seed| {
                JigsawPipeline::plan(bench::ghz(5).circuit(), &device, &quick_config(seed))
                    .compile_global()
                    .run_global()
                    .select_subsets()
            })
            .collect();
        let t0 = Instant::now();
        let outcomes = Scheduler::run_cpms_batch(stages, 1);
        let outer = t0.elapsed();
        for outcome in outcomes {
            let Ok(StageOutcome::Next(task)) = outcome else { panic!("batch item failed") };
            let StageTask::CpmsRun(run) = *task else { panic!("expected a CpmsRun") };
            let wall = run.timings().get(StageName::RunCpms).expect("recorded").wall;
            assert!(wall <= outer, "recorded {wall:?} exceeds the {outer:?} batch");
            assert!(wall * 2 >= outer, "run-cpms recorded {wall:?} of a {outer:?} batch");
        }
    }

    #[test]
    fn admission_is_bounded_with_a_typed_overload() {
        // Zero workers would hang; use one worker and fill capacity faster
        // than it can drain by admission-checking synchronously.
        let sched = Scheduler::new(SchedConfig::default().with_workers(1).with_capacity(1));
        let device = Device::toronto();
        let first = sched
            .submit(bench::ghz(5).circuit(), &device, &quick_config(0), Priority::Sweep, None)
            .expect("first admitted");
        // Capacity counts admitted-not-completed, so this is deterministic:
        // the first job cannot have completed before we submit (its ticket
        // has not been waited and the check happens under the same lock).
        let refused = sched.submit(
            bench::ghz(5).circuit(),
            &device,
            &quick_config(1),
            Priority::Interactive,
            None,
        );
        match refused {
            Err(JobError::Overloaded { capacity: 1 }) => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
        let _ = first.wait().expect("first job still completes");
    }

    #[test]
    fn plan_defects_are_refused_without_consuming_capacity() {
        let sched = Scheduler::new(SchedConfig::default().with_workers(1).with_capacity(1));
        let device = Device::toronto();
        let mut measured = bench::ghz(4).circuit().clone();
        measured.measure_all();
        match sched.submit(&measured, &device, &quick_config(0), Priority::Interactive, None) {
            Err(JobError::Plan(PlanError::Premeasured)) => {}
            other => panic!("expected Plan(Premeasured), got {other:?}"),
        }
        assert_eq!(sched.admitted(), 0);
    }

    #[test]
    fn a_panicking_stage_fails_only_its_own_job() {
        let device = Device::toronto();
        let sched = Scheduler::new(SchedConfig::default().with_workers(2));
        // `Random { count }` requesting more distinct subsets than exist
        // panics inside select_subsets — the fault barrier must convert it.
        let mut poisoned = quick_config(3);
        poisoned.selection = crate::subsets::SubsetSelection::Random { count: 1_000_000 };
        let bad = sched
            .submit(bench::ghz(4).circuit(), &device, &poisoned, Priority::Sweep, None)
            .expect("admitted");
        let good_config = quick_config(4);
        let good = sched
            .submit(bench::ghz(4).circuit(), &device, &good_config, Priority::Sweep, None)
            .expect("admitted");
        match bad.wait() {
            Err(JobError::Failed(_)) => {}
            other => panic!("expected Failed, got {other:?}"),
        }
        let output = good.wait().expect("unaffected job completes");
        assert_eq!(output.result, run_jigsaw(bench::ghz(4).circuit(), &device, &good_config));
    }

    #[test]
    fn shards_resolve_through_the_lanes_and_merge_bit_identically() {
        let device = Device::toronto();
        let config = quick_config(17).without_recompilation();
        let program_bench = bench::ghz(5);
        let program = program_bench.circuit();
        let solo = encode_to_vec(&run_jigsaw(program, &device, &config));
        let stage = Arc::new(
            JigsawPipeline::plan(program, &device, &config)
                .compile_global()
                .run_global()
                .select_subsets(),
        );
        let items = stage.layers().iter().map(|l| l.subsets.len()).sum::<usize>();
        let sched = Scheduler::new(SchedConfig::default().with_workers(2));

        // An out-of-range shard is refused without consuming capacity.
        let bogus = dist::Shard { index: 0, lo: 0, hi: items as u64 + 1 };
        assert!(matches!(
            sched.submit_shard(Arc::clone(&stage), bogus, Priority::Sweep),
            Err(JobError::Failed(_))
        ));
        assert_eq!(sched.admitted(), 0);

        let lanes = [Priority::Interactive, Priority::Sweep, Priority::Background];
        let tickets: Vec<_> = dist::plan_shards(items, 3)
            .into_iter()
            .enumerate()
            .map(|(i, shard)| {
                sched.submit_shard(Arc::clone(&stage), shard, lanes[i % 3]).expect("shard admitted")
            })
            .collect();
        let partials: Vec<_> = tickets.into_iter().map(|t| t.wait().expect("shard ran")).collect();
        assert!(partials.iter().all(|p| p.compiles == 0), "workers must not recompile");
        let merged =
            dist::merge_partials((*stage).clone(), partials).expect("partials tile the work list");
        assert_eq!(encode_to_vec(&merged), solo);
        assert_eq!(sched.admitted(), 0);
    }

    #[test]
    fn checkpoints_are_captured_at_the_hinted_stage() {
        let device = Device::toronto();
        let sched = Scheduler::new(SchedConfig::default().with_workers(1));
        let config = quick_config(9);
        let ticket = sched
            .submit(
                bench::ghz(5).circuit(),
                &device,
                &config,
                Priority::Interactive,
                Some(StageKind::GlobalRun),
            )
            .expect("admitted");
        let output = ticket.wait().expect("job ran");
        let bytes = output.checkpoint.expect("checkpoint captured");
        let header = persist::read_header(&bytes).expect("valid archive");
        assert_eq!(header.stage, StageKind::GlobalRun);
        // The archive resumes and replays to the same result.
        let stage: crate::pipeline::GlobalRun = persist::from_bytes(&bytes).expect("resumes");
        let replayed = stage.select_subsets().run_cpms().reconstruct();
        assert_eq!(replayed, output.result);
    }

    #[test]
    fn background_jobs_complete_under_sustained_interactive_load() {
        let device = Device::toronto();
        let sched = Scheduler::new(SchedConfig::default().with_workers(1).with_capacity(256));
        let background_config = quick_config(100);
        let background = sched
            .submit(
                bench::ghz(5).circuit(),
                &device,
                &background_config,
                Priority::Background,
                None,
            )
            .expect("admitted");
        // A steady stream of interactive jobs submitted *while* the
        // background job is queued: aging guarantees the background job a
        // dispatch every AGING_PERIOD picks, so it finishes long before
        // the stream drains.
        let interactive: Vec<_> = (0..24)
            .map(|i| {
                sched
                    .submit(
                        bench::ghz(5).circuit(),
                        &device,
                        &quick_config(200 + i),
                        Priority::Interactive,
                        None,
                    )
                    .expect("admitted")
            })
            .collect();
        let output = background.wait().expect("background job completed");
        assert_eq!(output.result, run_jigsaw(bench::ghz(5).circuit(), &device, &background_config));
        for ticket in interactive {
            let _ = ticket.wait().expect("interactive job completed");
        }
    }

    #[test]
    fn shutdown_fails_queued_jobs_instead_of_hanging_them() {
        let sched = Scheduler::new(SchedConfig::default().with_workers(1).with_capacity(64));
        let device = Device::toronto();
        let tickets: Vec<_> = (0..8)
            .map(|i| {
                sched
                    .submit(
                        bench::ghz(5).circuit(),
                        &device,
                        &quick_config(300 + i),
                        Priority::Sweep,
                        None,
                    )
                    .expect("admitted")
            })
            .collect();
        sched.shutdown();
        let mut completed = 0;
        let mut shut_down = 0;
        for ticket in tickets {
            match ticket.wait() {
                Ok(_) => completed += 1,
                Err(JobError::Shutdown) => shut_down += 1,
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        assert_eq!(completed + shut_down, 8, "every waiter observes a verdict");
    }
}
