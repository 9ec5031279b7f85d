//! `wide_clifford` and `dense_qaoa`: one JigSaw job at a time, driven
//! stage by stage in this process.
//!
//! - `wide_clifford`: GHZ-40, JigSaw-M (sizes 2–5), Manhattan, 16384
//!   trials, stabilizer backend, recompiled CPMs. Its time goes to CPM
//!   placement searches and Bayesian reconstruction.
//! - `dense_qaoa`: QAOA-14 p2, JigSaw (size 2), Toronto, 32768 trials,
//!   dense state vector. Its time goes to simulation.

use std::time::Instant;

use jigsaw_circuit::bench;
use jigsaw_core::JigsawConfig;
use jigsaw_device::Device;
use jigsaw_pmf::codec::encode_to_vec;
use jigsaw_sim::BackendChoice;

use super::{closed_loop, record_overhead, repeat_setup, traced_iteration, Args};
use crate::layers::{analyze, codec_cost, counted_job, record_codec, JobInput};
use crate::report::Report;
use crate::stats::median;
use crate::sys;
use crate::trace::{Span, Tracer};

/// The `wide_clifford` job for `seed`.
#[must_use]
pub fn wide_clifford(seed: u64) -> JobInput {
    let mut config = JigsawConfig::jigsaw_m(16384).with_seed(seed);
    config.run = config.run.with_threads(sys::cores()).with_backend(BackendChoice::Stabilizer);
    JobInput::new(&bench::ghz(40), Device::manhattan(), config)
}

/// The `dense_qaoa` job for `seed`.
#[must_use]
pub fn dense_qaoa(seed: u64) -> JobInput {
    let mut config = JigsawConfig::jigsaw(32768).with_seed(seed);
    config.run = config.run.with_threads(sys::cores()).with_backend(BackendChoice::Dense);
    JobInput::new(&bench::qaoa_maxcut(14, 2), Device::toronto(), config)
}

/// Runs an in-process pipeline workload; returns the traced run's spans.
pub fn run(make: fn(u64) -> JobInput, args: &Args, report: &mut Report) -> Vec<Span> {
    let (input, expected, expected_bytes) = repeat_setup(
        args,
        report,
        || {
            let input = make(args.seed);
            let expected = input.solo();
            let bytes = encode_to_vec(&expected);
            (input, expected, bytes)
        },
        |(_, _, bytes)| bytes.clone(),
    );

    let tracer = Tracer::new(false, Instant::now(), 0);
    let (mut traced, mut untraced, mut traced_jobs) = (Vec::new(), Vec::new(), Vec::new());
    let mut cpu = 0.0;
    let interval = closed_loop(args, |i| {
        let trace = traced_iteration(args, i);
        tracer.set_enabled(trace);
        let cpu0 = sys::cpu_s(std::process::id());
        let t0 = Instant::now();
        let job = counted_job(&input, &tracer);
        let t1 = Instant::now();
        cpu += sys::cpu_s(std::process::id()) - cpu0;
        if trace { &mut traced } else { &mut untraced }.push((t1 - t0).as_secs_f64());
        // Checked at once and dropped, so memory does not grow with the
        // number of jobs; the check is not measured time.
        report.check(encode_to_vec(&job.0) == expected_bytes, || {
            "staged job bytes differ from run_jigsaw".into()
        });
        if trace {
            traced_jobs.push(job);
        }
        t1.elapsed().as_secs_f64()
    });
    tracer.set_enabled(args.trace);

    eprintln!("perfbench: job walls (s): untraced {untraced:?} traced {traced:?}");
    let jobs = (traced.len() + untraced.len()) as f64;
    report.set("job_s.p50", median(&untraced).unwrap_or(0.0));
    report.set("jobs_per_s", jobs / interval);
    report.set("cpu_s_per_job", cpu / jobs);
    report.set("job_s.samples", jobs);
    report.set("peak_rss_mb", sys::peak_rss_mb());

    if args.trace {
        record_overhead(report, &traced, &untraced);
        analyze(&input, &tracer.spans(), &traced_jobs, &expected, &tracer, report);
        let cost = codec_cost::<_, jigsaw_core::JigsawResult>(
            &input.request(),
            &expected_bytes,
            20,
            report,
        );
        record_codec(report, &[cost]);
        report.unused(super::NO_SERVER);
        report.unused(super::NO_SCHED);
        report.unused(super::NO_DIST);
    }
    tracer.spans()
}
