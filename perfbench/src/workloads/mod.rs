//! The four workloads and what they share: the run arguments, repeated
//! set-up, and the closed-loop measuring interval.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use jigsaw_server::client::Client;

use crate::frame::MetricsFrame;
use crate::report::Report;
use crate::stats::{median, ratio_or_zero};
use crate::sys;

pub mod dist;
pub mod pipeline;
pub mod serve;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// The command-line arguments of a run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input derives from.
    pub seed: u64,
    /// Length of the measuring interval.
    pub seconds: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Args {
    /// How many times to set up: several for an untraced run (its
    /// `setup_s` is their median), once for a traced run.
    #[must_use]
    pub fn setup_repeats(&self) -> usize {
        if self.trace {
            1
        } else {
            SETUP_REPEATS
        }
    }
}

/// Sets up `args.setup_repeats()` times, checks that every set-up
/// produced the same reference bytes, records `setup_s` (the median CPU
/// seconds this process spent per set-up) and `setup_wall_s`, and returns
/// the last set-up. Earlier set-ups are dropped (their servers and
/// workers stopped) before the next starts.
pub fn repeat_setup<S>(
    args: &Args,
    report: &mut Report,
    mut setup: impl FnMut() -> S,
    reference: impl Fn(&S) -> Vec<u8>,
) -> S {
    let (mut cpu, mut walls) = (Vec::new(), Vec::new());
    let mut kept: Option<S> = None;
    let mut first_reference: Option<Vec<u8>> = None;
    for _ in 0..args.setup_repeats() {
        drop(kept.take());
        let cpu0 = sys::cpu_s(std::process::id());
        let t0 = Instant::now();
        let state = setup();
        walls.push(t0.elapsed().as_secs_f64());
        cpu.push(sys::cpu_s(std::process::id()) - cpu0);
        let bytes = reference(&state);
        match &first_reference {
            None => first_reference = Some(bytes),
            Some(first) => {
                report.check(*first == bytes, || "set-ups produced different references".into());
            }
        }
        kept = Some(state);
    }
    report.set("setup_s", median(&cpu).expect("at least one set-up"));
    report.set("setup_wall_s", median(&walls).expect("at least one set-up"));
    kept.expect("at least one set-up")
}

/// Runs `op` back to back until `seconds` have passed (at least once, and
/// in a traced run until both a traced and an untraced call were made).
/// `op` gets the iteration index and returns the seconds it spent
/// checking results, which do not count as measured time. Returns the
/// interval's measured wall in seconds, from the start to the end of the
/// last call, less the checking time.
pub fn closed_loop(args: &Args, mut op: impl FnMut(usize) -> f64) -> f64 {
    let start = Instant::now();
    let (mut i, mut checking) = (0, 0.0);
    while i == 0
        || start.elapsed().as_secs_f64() - checking < args.seconds.as_secs_f64()
        || (args.trace && i < 2)
    {
        checking += op(i);
        i += 1;
    }
    start.elapsed().as_secs_f64() - checking
}

/// Whether iteration `i` of a traced run is traced: traced and untraced
/// calls alternate so the tracing overhead is measured in the same run.
#[must_use]
pub fn traced_iteration(args: &Args, i: usize) -> bool {
    args.trace && i.is_multiple_of(2)
}

/// Records the tracing overhead from the traced and untraced walls.
pub fn record_overhead(report: &mut Report, traced: &[f64], untraced: &[f64]) {
    let traced = median(traced).unwrap_or(0.0);
    report.set("trace.job_s.p50", traced);
    report.set("trace.overhead_s", traced - median(untraced).unwrap_or(traced));
}

/// One scrape of the metrics frame of the server at `addr`.
///
/// # Panics
///
/// Panics if the server does not answer with a well-formed frame.
#[must_use]
pub fn scrape(addr: SocketAddr) -> MetricsFrame {
    let text = Client::connect(addr)
        .map_err(|e| e.to_string())
        .and_then(|mut c| c.metrics().map_err(|e| e.to_string()))
        .unwrap_or_else(|e| panic!("metrics frame from {addr}: {e}"));
    MetricsFrame::parse(&text).expect("well-formed metrics frame")
}

/// Mean queue wait per dispatched stage and lane, and batched jobs, summed
/// over the scrapes of one or more processes.
pub fn record_queue_waits(report: &mut Report, before: &[&MetricsFrame], after: &[&MetricsFrame]) {
    let lanes = [
        ("interactive", "sched.queue_wait_s.interactive"),
        ("sweep", "sched.queue_wait_s.sweep"),
        ("background", "sched.queue_wait_s.background"),
    ];
    for (lane, metric) in lanes {
        let (mut sum, mut count) = (0.0, 0.0);
        for (b, a) in before.iter().zip(after) {
            let (s0, c0) = b.histogram("jigsaw_sched_queue_wait_seconds", &[("lane", lane)]);
            let (s1, c1) = a.histogram("jigsaw_sched_queue_wait_seconds", &[("lane", lane)]);
            sum += s1 - s0;
            count += c1 - c0;
        }
        report.set(metric, ratio_or_zero(sum, count));
    }
    let batched: f64 = before
        .iter()
        .zip(after)
        .map(|(b, a)| {
            a.get("jigsaw_sched_batched_jobs_total", &[])
                - b.get("jigsaw_sched_batched_jobs_total", &[])
        })
        .sum();
    report.set("sched.batched_jobs", batched);
}

/// The serving-layer metrics of workloads without a job server.
pub const NO_SERVER: &[&str] = &[
    "cache.hits",
    "cache.misses",
    "cache.rehydrations",
    "cache.evictions",
    "cache.hit_ratio",
    "serve.interactive_ms.p50",
    "serve.interactive_ms.p95",
    "serve.background_jobs_per_s",
    "serve.compiles_per_job",
];

/// The distributed-sweep metrics of workloads that do not scatter.
pub const NO_DIST: &[&str] = &[
    "dist.sweep_s",
    "dist.solo_cpms_s",
    "dist.solo_reconstruct_s",
    "dist.speedup_vs_solo",
    "dist.shards",
    "dist.retries",
    "dist.stage_bytes",
];

/// The scheduler metrics of workloads that run no scheduler.
pub const NO_SCHED: &[&str] = &[
    "sched.queue_wait_s.interactive",
    "sched.queue_wait_s.sweep",
    "sched.queue_wait_s.background",
    "sched.batched_jobs",
];
