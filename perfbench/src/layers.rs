//! One JigSaw job driven stage by stage through the public typestate API,
//! plus the layer probes and baselines a traced run adds.
//!
//! Every number here is taken from outside the program: spans around
//! calls into public functions (`JigsawPipeline` transitions,
//! `CpmArtifact::recompiled`, `Executor::run`, `bayes::reconstruct`,
//! `run_jigsaw`). Nothing is instrumented inside the program.

use std::time::Instant;

use jigsaw_circuit::bench::{Benchmark, CorrectSet};
use jigsaw_circuit::Circuit;
use jigsaw_compiler::{probe, CompilerOptions, CpmArtifact};
use jigsaw_core::bayes::{reconstruct, Marginal};
use jigsaw_core::{run_jigsaw, JigsawConfig, JigsawPipeline, JigsawResult};
use jigsaw_device::Device;
use jigsaw_pmf::codec::{decode_from_slice, encode_to_vec, Decode, Encode};
use jigsaw_pmf::{metrics, BitString};
use jigsaw_server::protocol::JobRequest;
use jigsaw_sim::Executor;

use crate::report::Report;
use crate::stats::{median, ratio_or_zero};
use crate::trace::{self, Span, Tracer};

/// The stage spans of [`staged_job`], in protocol order.
pub const STAGES: [&str; 6] = [
    "pipeline.plan",
    "compiler.compile_global",
    "sim.run_global",
    "pipeline.select_subsets",
    "pipeline.run_cpms",
    "bayes.reconstruct",
];

/// The inputs of one job, all derived from the run's seed.
#[derive(Debug, Clone)]
pub struct JobInput {
    /// The measurement-free program.
    pub program: Circuit,
    /// The device it runs on.
    pub device: Device,
    /// The full pipeline configuration (its seed comes from `--seed`).
    pub config: JigsawConfig,
    /// The program's correct outcomes, for PST.
    pub correct: Vec<BitString>,
}

impl JobInput {
    /// A job running `bench` on `device` under `config`.
    ///
    /// # Panics
    ///
    /// Panics for a benchmark whose correct set is not known analytically.
    #[must_use]
    pub fn new(bench: &Benchmark, device: Device, config: JigsawConfig) -> Self {
        let CorrectSet::Known(correct) = bench.correct() else {
            panic!("{} has no analytic correct set", bench.name());
        };
        Self { program: bench.circuit().clone(), device, config, correct: correct.clone() }
    }

    /// The job as a client would submit it to the server.
    #[must_use]
    pub fn request(&self) -> JobRequest {
        JobRequest::new(self.program.clone(), self.device.clone(), self.config.clone())
    }

    /// The solo reference: `run_jigsaw` on these inputs.
    #[must_use]
    pub fn solo(&self) -> JigsawResult {
        run_jigsaw(&self.program, &self.device, &self.config)
    }
}

/// Runs one job through every pipeline stage, each transition inside its
/// own span, all inside a `job` span.
pub fn staged_job(input: &JobInput, tracer: &Tracer) -> JigsawResult {
    tracer.next_job();
    tracer.span("job", || {
        let planned = tracer
            .span(STAGES[0], || JigsawPipeline::plan(&input.program, &input.device, &input.config));
        let compiled = tracer.span(STAGES[1], || planned.compile_global());
        let global = tracer.span(STAGES[2], || compiled.run_global());
        let selected = tracer.span(STAGES[3], || global.select_subsets());
        let cpms = tracer.span(STAGES[4], || selected.run_cpms());
        tracer.span(STAGES[5], || cpms.reconstruct())
    })
}

/// PST of the JigSaw output, PST of the global-mode PMF, and their ratio
/// (0 when the global mode saw no correct trial).
#[must_use]
pub fn pst(result: &JigsawResult, correct: &[BitString]) -> (f64, f64, f64) {
    let jigsaw = metrics::pst(&result.output, correct);
    let global = metrics::pst(&result.global, correct);
    (jigsaw, global, ratio_or_zero(jigsaw, global))
}

/// Mean wall in milliseconds of `f` over `reps` calls.
fn mean_ms<T>(reps: u32, mut f: impl FnMut() -> T) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    t0.elapsed().as_secs_f64() * 1e3 / f64::from(reps)
}

/// Codec cost of one exchange: `(encode ms, decode ms, bytes)` — the
/// mean wall of encoding the request the workload sends and of decoding
/// the reply payload it receives, and the bytes of both. Each call is
/// repeated `reps` times. Checks that the reply decodes and re-encodes to
/// the same bytes.
pub fn codec_cost<Q: Encode, R: Decode + Encode>(
    request: &Q,
    reply: &[u8],
    reps: u32,
    report: &mut Report,
) -> (f64, f64, usize) {
    let request_bytes = encode_to_vec(request).len();
    let encode = mean_ms(reps, || encode_to_vec(request));
    let decode = mean_ms(reps, || decode_from_slice::<R>(reply));
    let round_trip = decode_from_slice::<R>(reply).is_ok_and(|r| encode_to_vec(&r) == reply);
    report.check(round_trip, || "a reply payload does not decode to the same bytes".into());
    (encode, decode, request_bytes + reply.len())
}

/// Records the codec metrics as means over exchanges.
pub fn record_codec(report: &mut Report, costs: &[(f64, f64, usize)]) {
    let n = costs.len().max(1) as f64;
    report.set("codec.encode_ms", costs.iter().map(|c| c.0).sum::<f64>() / n);
    report.set("codec.decode_ms", costs.iter().map(|c| c.1).sum::<f64>() / n);
    report.set("codec.bytes_per_request", costs.iter().map(|c| c.2 as f64).sum::<f64>() / n);
}

/// Records the fidelity metrics of `result`.
pub fn record_fidelity(report: &mut Report, result: &JigsawResult, correct: &[BitString]) {
    let (jigsaw, global, gain) = pst(result, correct);
    report.set("fidelity.pst_jigsaw", jigsaw);
    report.set("fidelity.pst_global", global);
    report.set("fidelity.pst_gain", gain);
}

/// One traced staged job with its exact compile count: nothing else
/// compiles in this process while it runs.
pub fn counted_job(input: &JobInput, tracer: &Tracer) -> (JigsawResult, u64) {
    let before = probe::compile_count();
    let result = staged_job(input, tracer);
    (result, probe::compile_count() - before)
}

/// The per-layer analysis of one workload's in-process jobs.
///
/// `spans` hold the traced staged jobs (and possibly other spans), `jobs`
/// their results and compile counts in the same order (at least one),
/// `expected` the solo reference. Adds the layer probes (per-CPM compile and simulate,
/// per-layer reconstruction) and the serial baseline, each checked
/// against the reference.
pub fn analyze(
    input: &JobInput,
    spans: &[Span],
    jobs: &[(JigsawResult, u64)],
    expected: &JigsawResult,
    tracer: &Tracer,
    report: &mut Report,
) {
    let stage = |name: &str| median(&trace::walls(spans, name)).unwrap_or(0.0);
    report.set("pipeline.plan_s", stage(STAGES[0]));
    report.set("compiler.global_compile_s", stage(STAGES[1]));
    report.set("sim.global_run_s", stage(STAGES[2]));
    report.set("pipeline.select_subsets_s", stage(STAGES[3]));
    report.set("pipeline.run_cpms_s", stage(STAGES[4]));
    report.set("bayes.reconstruct_s", stage(STAGES[5]));

    // Coverage and gap per job: the stage spans are the job span's
    // children.
    let (mut coverage, mut gaps, mut walls) = (Vec::new(), Vec::new(), Vec::new());
    let job_spans = (0..spans.len()).filter(|&i| spans[i].name == "job");
    for (job, (result, _)) in job_spans.zip(jobs) {
        let wall = spans[job].wall();
        let staged: f64 = spans.iter().filter(|s| s.parent == Some(job)).map(Span::wall).sum();
        coverage.push(staged / wall);
        gaps.push(wall - result.timings.total_wall().as_secs_f64());
        walls.push(wall);
    }
    report.set("pipeline.stage_coverage", median(&coverage).unwrap_or(0.0));
    report.set("pipeline.timings_gap_s", median(&gaps).unwrap_or(0.0));
    let compiles: Vec<f64> = jobs.iter().map(|(_, c)| *c as f64).collect();
    report.set("compiler.compiles", median(&compiles).unwrap_or(0.0));
    report.set("bayes.rounds", expected.rounds as f64);
    report.set("bayes.support", expected.output.support_size() as f64);
    record_fidelity(report, expected, &input.correct);

    probe_layers(input, expected, tracer, report);

    let mut serial = input.clone();
    serial.config.run.threads = 1;
    let t0 = Instant::now();
    let result = tracer.span("baseline.serial_job", || serial.solo());
    let serial_s = t0.elapsed().as_secs_f64();
    report.check(result == *expected, || "serial run_jigsaw differs from the parallel one".into());
    report.set("pipeline.serial_job_s", serial_s);
    report
        .set("pipeline.speedup_vs_serial", ratio_or_zero(serial_s, median(&walls).unwrap_or(0.0)));
}

/// [`analyze`] for workloads whose own jobs do not run in this process:
/// one traced staged job of `input`, checked against `expected`, then the
/// probes and baseline.
pub fn analyze_solo(
    input: &JobInput,
    expected: &JigsawResult,
    tracer: &Tracer,
    report: &mut Report,
) {
    let job = counted_job(input, tracer);
    report.check(job.0 == *expected, || "staged job differs from run_jigsaw".into());
    analyze(input, &tracer.spans(), &[job], expected, tracer, report);
}

/// Re-runs the CPM and reconstruction stages call by call: every CPM's
/// `CpmArtifact::recompiled` and `Executor::run` with the serial options
/// `run_cpm_item` uses, then one `bayes::reconstruct` per subset-size
/// layer. The pieces must rebuild the job's marginals and output exactly.
fn probe_layers(input: &JobInput, expected: &JigsawResult, tracer: &Tracer, report: &mut Report) {
    let config = &input.config;
    let global =
        JigsawPipeline::plan(&input.program, &input.device, config).compile_global().run_global();
    let selected = global.clone().select_subsets();
    let executor = Executor::new(&input.device);
    let cpm_compiler = CompilerOptions { threads: 1, ..config.compiler };

    tracer.next_job();
    let (mut compile_s, mut simulate_s) = (0.0, 0.0);
    let mut marginals = Vec::new();
    for item in selected.cpm_work() {
        let t0 = Instant::now();
        let artifact = tracer.span("probe.cpm_compile", || {
            if config.recompile_cpms {
                CpmArtifact::recompiled(&input.program, &item.subset, &input.device, &cpm_compiler)
            } else {
                CpmArtifact::reusing(global.artifact(), &item.subset)
            }
        });
        let t1 = Instant::now();
        let run = config.run.with_seed(item.seed).with_threads(1);
        let counts = tracer
            .span("probe.cpm_simulate", || executor.run(&artifact.circuit, item.trials, &run));
        simulate_s += t1.elapsed().as_secs_f64();
        compile_s += (t1 - t0).as_secs_f64();
        marginals.push(Marginal::new(item.subset.clone(), counts.to_pmf()));
    }
    report.check(marginals == expected.marginals, || {
        "per-CPM compile+simulate does not rebuild the job's marginals".into()
    });
    report.set("compiler.cpm_compile_s", compile_s);
    report.set("sim.cpm_simulate_s", simulate_s);
    let sim_s = report.get("sim.global_run_s").unwrap_or(0.0) + simulate_s;
    report.set("sim.trials_per_s", ratio_or_zero(expected.trials_used as f64, sim_s));

    let reconstruction = config.reconstruction.with_threads(config.run.threads);
    let mut current = selected.global_pmf().clone();
    let (mut layer_s, mut rounds) = (0.0, 0usize);
    for layer in selected.layers() {
        let members: Vec<Marginal> =
            marginals.iter().filter(|m| m.size() == layer.size).cloned().collect();
        let t0 = Instant::now();
        let r = tracer
            .span("probe.reconstruct_layer", || reconstruct(&current, &members, &reconstruction));
        layer_s += t0.elapsed().as_secs_f64();
        rounds += r.rounds;
        current = r.pmf;
    }
    report.check(current == expected.output && rounds == expected.rounds, || {
        "per-layer bayes::reconstruct does not rebuild the job's output".into()
    });
    report.set("bayes.round_ms", ratio_or_zero(layer_s * 1e3, rounds as f64));
}
