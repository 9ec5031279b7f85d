//! The threaded job server: accept loop, a *fixed* pool of connection
//! handlers fed by a bounded queue, and the job execution path that hands
//! compute to the multi-job stage scheduler through the stage cache.
//!
//! One thread accepts and enqueues connections; a fixed pool of
//! [`ServerConfig::handlers`] threads drains the queue and runs the frame
//! loop — the server's thread count is a constant, not a function of how
//! many peers connect. When the queue already holds
//! [`ServerConfig::queue_depth`] connections the acceptor refuses the
//! newcomer with a typed [`ErrorCode::Overloaded`] frame and closes it:
//! saturation is an explicit, machine-readable condition, never an
//! unbounded thread spawn or a silent hang.
//!
//! Submissions resolve through [`StageCache::get_or_compute`], so
//! concurrent identical jobs still coalesce on one computation — but the
//! computation itself is no longer run on the connection thread. It is
//! submitted to the process-wide [`Scheduler`] in the lane the request's
//! priority byte names, where its stages interleave with every other
//! admitted job and its fan-out stages batch with digest-adjacent peers
//! (see `jigsaw_core::sched`). A response is always the same bytes
//! `run_jigsaw` would produce solo — the staged pipeline is deterministic
//! at every thread count and the encoded `JigsawResult` excludes wall
//! clocks — regardless of lane, interleaving or batching.
//!
//! Shard submissions skip the cache and go straight to the scheduler, but
//! their decoded stages resolve through a small table of recently served
//! stages, so every shard of a stage shares one CPM placement search.
//!
//! Shutdown is cooperative: a [`FrameKind::Shutdown`] frame (or
//! [`ServerHandle::shutdown`]) raises a flag, a self-connection unblocks
//! the acceptor, handler read loops notice the flag at their next read
//! timeout, every thread is joined, and the scheduler drains before the
//! listener drops.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use jigsaw_core::dist::ShardRequest;
use jigsaw_core::lockcheck::{Condvar, Mutex};
use jigsaw_core::persist;
use jigsaw_core::pipeline::SubsetsSelected;
use jigsaw_core::sched::{JobError, SchedConfig, Scheduler};
use jigsaw_core::telemetry::{self, Counter};
use jigsaw_core::StageKind;
use jigsaw_pmf::codec::encode_to_vec;
use jigsaw_pmf::ShardPartial;

use crate::cache::{JobArtifacts, StageCache};
use crate::protocol::{
    decode_shard, decode_submit, ErrorCode, Frame, FrameKind, JobRejection, JobRequest,
    ProtocolError,
};

/// How often an idle handler re-checks the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Stages a server keeps for the shards it serves (see [`ShardStages`]).
const SHARD_STAGES: usize = 4;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind; port 0 picks a free port.
    pub addr: String,
    /// Ready-entry capacity of the stage cache.
    pub capacity: usize,
    /// Directory eviction archives spill into.
    pub spill_dir: PathBuf,
    /// Fixed number of connection-handler threads (min 1).
    pub handlers: usize,
    /// Accepted connections waiting for a free handler beyond this bound
    /// are refused with [`ErrorCode::Overloaded`].
    pub queue_depth: usize,
    /// Stage-scheduler configuration (worker pool, admission capacity,
    /// cross-job batching).
    pub sched: SchedConfig,
    /// Fault-injection knob for the distributed-sweep suites: the process
    /// exits (code 86) upon receiving its N-th `SubmitShard` frame,
    /// *before* replying — simulating a worker killed mid-shard. `None`
    /// (the default, and the only sane production value) never dies.
    pub die_after_shards: Option<u64>,
}

impl ServerConfig {
    /// A loopback server on a free port with the given spill directory,
    /// a default capacity of 8 ready cache entries, 8 handler threads over
    /// a 64-deep connection queue, and a default scheduler.
    #[must_use]
    pub fn new(spill_dir: impl Into<PathBuf>) -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            capacity: 8,
            spill_dir: spill_dir.into(),
            handlers: 8,
            queue_depth: 64,
            sched: SchedConfig::default(),
            die_after_shards: None,
        }
    }

    /// Overrides the cache capacity.
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Overrides the handler-pool size.
    #[must_use]
    pub fn with_handlers(mut self, handlers: usize) -> Self {
        self.handlers = handlers;
        self
    }

    /// Overrides the pending-connection queue depth.
    #[must_use]
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth;
        self
    }

    /// Overrides the scheduler configuration.
    #[must_use]
    pub fn with_sched(mut self, sched: SchedConfig) -> Self {
        self.sched = sched;
        self
    }

    /// Arms the fault-injection knob: die on the `n`-th `SubmitShard`.
    #[must_use]
    pub fn with_die_after_shards(mut self, n: u64) -> Self {
        self.die_after_shards = Some(n);
        self
    }
}

/// The bounded queue of accepted-but-unhandled connections.
struct ConnQueue {
    pending: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    depth: usize,
}

impl ConnQueue {
    fn new(depth: usize) -> Self {
        Self {
            pending: Mutex::new("server.conn_queue", VecDeque::new()),
            ready: Condvar::new(),
            depth: depth.max(1),
        }
    }

    /// Enqueues a connection; a full queue hands the stream back so the
    /// caller can refuse it.
    fn push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut pending = self.pending.lock();
        if pending.len() >= self.depth {
            return Err(stream);
        }
        pending.push_back(stream);
        drop(pending);
        self.ready.notify_one();
        Ok(())
    }

    /// Dequeues the next connection, or `None` once `shutdown` is set and
    /// the queue is drained.
    fn pop(&self, shutdown: &AtomicBool) -> Option<TcpStream> {
        let mut pending = self.pending.lock();
        loop {
            if let Some(stream) = pending.pop_front() {
                return Some(stream);
            }
            if shutdown.load(Ordering::SeqCst) {
                return None;
            }
            let (guard, _) = self.ready.wait_timeout(pending, POLL_INTERVAL);
            pending = guard;
        }
    }
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    conns: Arc<ConnQueue>,
    acceptor: Option<JoinHandle<()>>,
    handlers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address clients should connect to.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, waits for every connection handler and in-flight
    /// job to finish, and returns once the process holds no server
    /// threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Blocks until a peer shuts the server down (a [`FrameKind::Shutdown`]
    /// frame), then joins every thread. The worker binary's main loop.
    pub fn wait(mut self) {
        while !self.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(POLL_INTERVAL);
        }
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptor: it only re-checks the flag per accept.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        self.conns.ready.notify_all();
        for handler in self.handlers.drain(..) {
            let _ = handler.join();
        }
        // The scheduler (shared by the handlers) drops with its last Arc,
        // joining its workers after any in-flight jobs complete.
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.acceptor.is_some() || !self.handlers.is_empty() {
            self.stop();
        }
    }
}

/// Shard-serving state shared by the handler pool: the stage table every
/// shard resolves its stage through, and the `SubmitShard` arrival count
/// [`ServerConfig::die_after_shards`] kills the process on.
struct ShardService {
    stages: ShardStages,
    shards_seen: AtomicU64,
    die_after_shards: Option<u64>,
}

/// The stages a worker recently served shards of, least recently used
/// first, bounded to a fixed count.
///
/// Every `SubmitShard` frame decodes a fresh [`SubsetsSelected`], and a
/// fresh stage starts with an empty CPM placement search. Resolving the
/// decoded stage here hands every shard of one stage the same `Arc`, so a
/// recompiled sweep pays one search per worker instead of one per shard,
/// and a later sweep that resends an identical stage pays none. Entries are found by config digest and confirmed by full stage
/// equality: stages built with `override_subsets` share a digest but not
/// their layers. Only the stage is kept — every shard still executes.
struct ShardStages {
    entries: Mutex<Vec<(u64, Arc<SubsetsSelected>)>>,
    capacity: usize,
}

impl ShardStages {
    fn new(capacity: usize) -> Self {
        Self { entries: Mutex::new("server.shard_stages", Vec::new()), capacity }
    }

    /// The held stage equal to `stage` (whose config digest is `digest`),
    /// or `stage` itself, now held in place of the least recently used
    /// entry if the table is full; and whether it was already held. One
    /// lock covers lookup and insert, so concurrent shards of a new stage
    /// all get the `Arc` the first of them inserted.
    fn resolve(&self, digest: u64, stage: SubsetsSelected) -> (Arc<SubsetsSelected>, bool) {
        let mut entries = self.entries.lock();
        let held = entries.iter().position(|(d, held)| *d == digest && **held == stage);
        let hit = held.is_some();
        let stage = match held {
            Some(at) => entries.remove(at).1,
            None => {
                if entries.len() == self.capacity {
                    entries.remove(0);
                }
                Arc::new(stage)
            }
        };
        entries.push((digest, Arc::clone(&stage)));
        (stage, hit)
    }
}

/// Counters the serving layer feeds (the cache and scheduler register
/// their own).
#[derive(Clone)]
struct ServerMetrics {
    jobs: Counter,
    refused: Counter,
}

impl ServerMetrics {
    fn register() -> Self {
        Self {
            jobs: telemetry::global().counter("jigsaw_server_jobs_total", &[]),
            refused: telemetry::global().counter("jigsaw_server_overloaded_total", &[]),
        }
    }
}

/// Binds and starts a job server.
///
/// # Errors
///
/// Propagates binding and spill-directory I/O failures.
pub fn serve(config: &ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let cache = Arc::new(StageCache::new(config.capacity, &config.spill_dir)?);
    let scheduler = Arc::new(Scheduler::new(config.sched.clone()));
    let shutdown = Arc::new(AtomicBool::new(false));
    let conns = Arc::new(ConnQueue::new(config.queue_depth));
    let metrics = ServerMetrics::register();
    let shards = Arc::new(ShardService {
        stages: ShardStages::new(SHARD_STAGES),
        shards_seen: AtomicU64::new(0),
        die_after_shards: config.die_after_shards,
    });

    let acceptor = {
        let shutdown = Arc::clone(&shutdown);
        let conns = Arc::clone(&conns);
        let metrics = metrics.clone();
        std::thread::spawn(move || loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Err(mut refused) = conns.push(stream) {
                        metrics.refused.inc();
                        refuse_connection(&mut refused);
                    }
                }
                Err(_) => {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                }
            }
        })
    };

    let handlers = (0..config.handlers.max(1))
        .map(|_| {
            let shutdown = Arc::clone(&shutdown);
            let conns = Arc::clone(&conns);
            let cache = Arc::clone(&cache);
            let scheduler = Arc::clone(&scheduler);
            let metrics = metrics.clone();
            let shards = Arc::clone(&shards);
            std::thread::spawn(move || {
                while let Some(stream) = conns.pop(&shutdown) {
                    handle_connection(
                        stream, &cache, &scheduler, &shutdown, &metrics, &shards, addr,
                    );
                }
            })
        })
        .collect();

    Ok(ServerHandle { addr, shutdown, conns, acceptor: Some(acceptor), handlers })
}

/// Writes the typed overload refusal to a connection the queue cannot
/// admit, then drops it.
fn refuse_connection(stream: &mut TcpStream) {
    let rejection =
        JobRejection::new(ErrorCode::Overloaded, "server connection queue is full; retry later");
    let frame = Frame { kind: FrameKind::JobError, digest: 0, payload: encode_to_vec(&rejection) };
    let _ = frame.write_to(stream);
}

/// One connection's frame loop.
fn handle_connection(
    mut stream: TcpStream,
    cache: &StageCache,
    scheduler: &Scheduler,
    shutdown: &Arc<AtomicBool>,
    metrics: &ServerMetrics,
    shards: &ShardService,
    self_addr: SocketAddr,
) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let stop = || shutdown.load(Ordering::SeqCst);
    loop {
        let frame = match Frame::read_interruptible(&mut stream, &stop) {
            Ok(Some(frame)) => frame,
            // Clean EOF, or shutdown while idle: the connection is done.
            Ok(None) => break,
            Err(error) => {
                // Malformed framing leaves the stream position unknown:
                // report and close rather than resynchronise.
                let rejection = JobRejection::new(ErrorCode::Malformed, error.to_string());
                let reply = Frame {
                    kind: FrameKind::JobError,
                    digest: 0,
                    payload: encode_to_vec(&rejection),
                };
                let _ = reply.write_to(&mut stream);
                break;
            }
        };
        let keep_going = match frame.kind {
            FrameKind::SubmitJob => handle_submit(&mut stream, &frame, cache, scheduler, metrics),
            FrameKind::SubmitShard => handle_shard(&mut stream, &frame, scheduler, shards),
            FrameKind::MetricsRequest => {
                let text = telemetry::global().render_text();
                Frame { kind: FrameKind::MetricsText, digest: 0, payload: text.into_bytes() }
                    .write_to(&mut stream)
                    .is_ok()
            }
            FrameKind::Shutdown => {
                let _ = Frame::empty(FrameKind::ShutdownAck).write_to(&mut stream);
                shutdown.store(true, Ordering::SeqCst);
                // Nudge the acceptor off its blocking accept.
                let _ = TcpStream::connect(self_addr);
                false
            }
            // Server-to-client kinds arriving here are a protocol misuse.
            FrameKind::JobResult
            | FrameKind::JobError
            | FrameKind::MetricsText
            | FrameKind::ShutdownAck
            | FrameKind::ShardResult
            | FrameKind::ShardError => {
                let rejection = JobRejection::new(
                    ErrorCode::Malformed,
                    format!("unexpected client frame kind {:?}", frame.kind),
                );
                Frame { kind: FrameKind::JobError, digest: 0, payload: encode_to_vec(&rejection) }
                    .write_to(&mut stream)
                    .is_ok()
            }
        };
        if !keep_going {
            break;
        }
    }
}

/// Resolves one submission through the cache and writes the reply frame.
/// Returns whether the connection should stay open.
fn handle_submit(
    stream: &mut TcpStream,
    frame: &Frame,
    cache: &StageCache,
    scheduler: &Scheduler,
    metrics: &ServerMetrics,
) -> bool {
    let request = match decode_submit(frame) {
        Ok(request) => request,
        Err(error) => {
            let code = match error {
                ProtocolError::DigestMismatch { .. } => ErrorCode::DigestMismatch,
                _ => ErrorCode::Malformed,
            };
            let rejection = JobRejection::new(code, error.to_string());
            return Frame {
                kind: FrameKind::JobError,
                digest: frame.digest,
                payload: encode_to_vec(&rejection),
            }
            .write_to(stream)
            .is_ok();
        }
    };
    metrics.jobs.inc();
    let digest = frame.digest;
    let (result, _outcome) = cache.get_or_compute(
        digest,
        || compute_job(scheduler, &request),
        |path| rehydrate_job(path, &request),
    );
    let reply = match result {
        Ok(response) => Frame { kind: FrameKind::JobResult, digest, payload: (*response).clone() },
        Err(rejection) => {
            Frame { kind: FrameKind::JobError, digest, payload: encode_to_vec(&rejection) }
        }
    };
    reply.write_to(stream).is_ok()
}

/// Resolves one shard submission through the scheduler's priority lanes
/// and writes the reply frame. Returns whether the connection should stay
/// open.
///
/// The decoded stage resolves through the server's [`ShardStages`], so the
/// shards of one stage share its CPM placement search. Shard *results* are
/// never memoised (nor routed through the stage cache): a sweep driver
/// never re-asks for a shard it already holds, and retried shards after a
/// worker death land on a *different* process, so keeping results would
/// only hide the recompute the fault suites want to observe.
fn handle_shard(
    stream: &mut TcpStream,
    frame: &Frame,
    scheduler: &Scheduler,
    shards: &ShardService,
) -> bool {
    let received = shards.shards_seen.fetch_add(1, Ordering::SeqCst) + 1;
    if shards.die_after_shards.is_some_and(|n| received >= n) {
        // Simulate a worker killed mid-shard: exit before any reply, so
        // the driver observes a dead connection, never an error frame.
        std::process::exit(86);
    }
    let request = match decode_shard(frame) {
        Ok(request) => request,
        Err(error) => {
            telemetry::dist_shards("error").inc();
            let code = match error {
                ProtocolError::DigestMismatch { .. } => ErrorCode::DigestMismatch,
                _ => ErrorCode::Malformed,
            };
            let rejection = JobRejection::new(code, error.to_string());
            return Frame {
                kind: FrameKind::ShardError,
                digest: frame.digest,
                payload: encode_to_vec(&rejection),
            }
            .write_to(stream)
            .is_ok();
        }
    };
    let digest = frame.digest;
    let reply = match compute_shard(scheduler, &shards.stages, digest, request) {
        Ok(partial) => {
            telemetry::dist_shards("ok").inc();
            Frame { kind: FrameKind::ShardResult, digest, payload: encode_to_vec(&partial) }
        }
        Err(rejection) => {
            telemetry::dist_shards("error").inc();
            Frame { kind: FrameKind::ShardError, digest, payload: encode_to_vec(&rejection) }
        }
    };
    reply.write_to(stream).is_ok()
}

/// Resolves one decoded shard's stage (config digest `digest`) through
/// `stages`, submits the shard to the stage scheduler in its priority lane
/// and waits for the partial. The partial's bytes are what
/// `dist::execute_shard` produces in-process — per-CPM seeds are pinned
/// by index, so which worker runs the shard, and whether its stage was
/// already held, never shows in the result.
fn compute_shard(
    scheduler: &Scheduler,
    stages: &ShardStages,
    digest: u64,
    request: ShardRequest,
) -> Result<ShardPartial, JobRejection> {
    let (stage, hit) = stages.resolve(digest, request.stage);
    telemetry::dist_stage_reuse(if hit { "hit" } else { "miss" }).inc();
    let ticket = scheduler
        .submit_shard(stage, request.shard, request.priority)
        .map_err(|e| reject_job(&e))?;
    ticket.wait().map_err(|e| reject_job(&e))
}

/// Maps a scheduler refusal or failure onto the wire's error codes.
fn reject_job(error: &JobError) -> JobRejection {
    let code = match error {
        JobError::Overloaded { .. } => ErrorCode::Overloaded,
        JobError::Plan(_) => ErrorCode::PlanRejected,
        JobError::Failed(_) | JobError::Shutdown => ErrorCode::ComputeFailed,
    };
    JobRejection::new(code, error.to_string())
}

/// Submits the request to the stage scheduler in its priority lane and
/// waits for the result, capturing the hinted stage as the eviction
/// checkpoint along the way. Identical to `run_jigsaw` in result bytes:
/// the scheduler preserves per-job bit-identity under interleaving and
/// batching, and the result encoding excludes wall clocks.
fn compute_job(scheduler: &Scheduler, request: &JobRequest) -> Result<JobArtifacts, JobRejection> {
    let ticket = scheduler
        .submit(
            &request.program,
            &request.device,
            &request.config,
            request.priority,
            Some(request.hint),
        )
        .map_err(|e| reject_job(&e))?;
    let output = ticket.wait().map_err(|e| reject_job(&e))?;
    let checkpoint = output.checkpoint.ok_or_else(|| {
        JobRejection::new(ErrorCode::ComputeFailed, "scheduler returned no checkpoint")
    })?;
    Ok((encode_to_vec(&output.result), checkpoint))
}

/// Replays a job from its eviction archive: resume the spilled stage
/// (digest-checked against the request) and run only the downstream
/// stages. With a `GlobalRun`-or-later checkpoint this performs zero
/// global compiles.
fn rehydrate_job(
    path: &std::path::Path,
    request: &JobRequest,
) -> Result<JobArtifacts, JobRejection> {
    let reject =
        |e: persist::PersistError| JobRejection::new(ErrorCode::ComputeFailed, e.to_string());
    let bytes = std::fs::read(path).map_err(|e| {
        JobRejection::new(ErrorCode::ComputeFailed, format!("spill archive unreadable: {e}"))
    })?;
    let header = persist::read_header(&bytes).map_err(reject)?;
    let (program, device, config) = (&request.program, &request.device, &request.config);
    let result = match header.stage {
        StageKind::Planned => {
            let stage: jigsaw_core::pipeline::Planned =
                persist::resume_from(path, program, device, config).map_err(reject)?;
            stage.compile_global().run_global().select_subsets().run_cpms().reconstruct()
        }
        StageKind::GlobalCompiled => {
            let stage: jigsaw_core::pipeline::GlobalCompiled =
                persist::resume_from(path, program, device, config).map_err(reject)?;
            stage.run_global().select_subsets().run_cpms().reconstruct()
        }
        StageKind::GlobalRun => {
            let stage: jigsaw_core::pipeline::GlobalRun =
                persist::resume_from(path, program, device, config).map_err(reject)?;
            stage.select_subsets().run_cpms().reconstruct()
        }
        StageKind::SubsetsSelected => {
            let stage: jigsaw_core::pipeline::SubsetsSelected =
                persist::resume_from(path, program, device, config).map_err(reject)?;
            stage.run_cpms().reconstruct()
        }
    };
    Ok((encode_to_vec(&result), bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_circuit::bench;
    use jigsaw_core::pipeline::{GlobalRun, JigsawPipeline};
    use jigsaw_core::JigsawConfig;
    use jigsaw_device::Device;
    use jigsaw_pmf::codec::decode_from_slice;

    /// ghz(6) on Toronto with recompiled CPMs, stopped before subset
    /// selection.
    fn global_run(seed: u64) -> GlobalRun {
        let mut config = JigsawConfig::jigsaw(1_200).with_seed(seed);
        config.compiler.max_seeds = 3;
        JigsawPipeline::plan(bench::ghz(6).circuit(), &Device::toronto(), &config)
            .compile_global()
            .run_global()
    }

    fn stage(seed: u64) -> SubsetsSelected {
        global_run(seed).select_subsets()
    }

    /// What a worker holds after decoding a shard frame: an equal stage
    /// with an empty search cell.
    fn redecoded(stage: &SubsetsSelected) -> SubsetsSelected {
        decode_from_slice(&encode_to_vec(stage)).expect("stage round-trips")
    }

    #[test]
    fn an_equal_stage_resolves_to_the_held_arc() {
        let stages = ShardStages::new(SHARD_STAGES);
        let original = stage(7);
        let digest = original.config_digest();
        let (first, hit) = stages.resolve(digest, redecoded(&original));
        assert!(!hit, "a new stage is a miss");
        let (second, hit) = stages.resolve(digest, redecoded(&original));
        assert!(hit, "an equal stage is a hit");
        assert!(Arc::ptr_eq(&first, &second), "an equal stage must share the held Arc");
    }

    #[test]
    fn a_digest_match_with_other_layers_gets_its_own_entry() {
        let stages = ShardStages::new(SHARD_STAGES);
        let selected = stage(7);
        let overridden = global_run(7).override_subsets(vec![vec![0, 1], vec![2, 3, 4]]);
        let digest = selected.config_digest();
        assert_eq!(overridden.config_digest(), digest, "override keeps the config digest");
        assert_ne!(selected.layers(), overridden.layers());

        let (a, _) = stages.resolve(digest, selected.clone());
        let (b, hit) = stages.resolve(digest, overridden.clone());
        assert!(!hit, "the digest alone must never confirm a hit");
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(*b, overridden);
        // Both stay held.
        assert!(Arc::ptr_eq(&stages.resolve(digest, selected).0, &a));
        assert!(Arc::ptr_eq(&stages.resolve(digest, overridden).0, &b));
    }

    #[test]
    fn the_least_recently_used_stage_is_evicted_at_capacity() {
        let stages = ShardStages::new(2);
        let [s1, s2, s3] = [1, 2, 3].map(stage);
        let held1 = stages.resolve(s1.config_digest(), s1.clone()).0;
        let held2 = stages.resolve(s2.config_digest(), s2.clone()).0;
        // Touch s1, so s2 is now the least recently used.
        assert!(Arc::ptr_eq(&stages.resolve(s1.config_digest(), s1.clone()).0, &held1));
        let _ = stages.resolve(s3.config_digest(), s3);
        let (again1, hit1) = stages.resolve(s1.config_digest(), s1);
        assert!(hit1 && Arc::ptr_eq(&again1, &held1), "the recently used stage stays");
        let (again2, hit2) = stages.resolve(s2.config_digest(), s2);
        assert!(!hit2 && !Arc::ptr_eq(&again2, &held2), "the LRU stage was evicted");
    }

    /// Four shards of a new stage resolving at once all get the one `Arc`
    /// the first of them inserted, so they share its search cell and the
    /// `OnceLock` builds one placement search for all of them.
    #[test]
    fn concurrent_shards_of_a_new_stage_share_one_arc() {
        let stages = ShardStages::new(SHARD_STAGES);
        let original = stage(11);
        let digest = original.config_digest();
        let barrier = std::sync::Barrier::new(4);
        let (held, hits): (Vec<_>, Vec<bool>) = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..4)
                .map(|_| {
                    let decoded = redecoded(&original);
                    let (stages, barrier) = (&stages, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        stages.resolve(digest, decoded)
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().expect("shard thread")).unzip()
        });
        assert!(held.iter().all(|stage| Arc::ptr_eq(stage, &held[0])));
        assert_eq!(hits.iter().filter(|&&hit| !hit).count(), 1, "exactly one shard inserts");
    }
}
