//! `dist_sweep`: Graycode-50, JigSaw (50 recompiled CPMs), Manhattan,
//! 16384 trials. Set-up checkpoints the `SubsetsSelected` stage and spawns
//! two worker processes (this binary in worker mode, serving shard frames
//! exactly as `jigsaw-worker` does); each job is one `run_distributed`
//! over both. The only workload that crosses a process boundary.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use jigsaw_circuit::bench;
use jigsaw_core::dist::{execute_shard, plan_shards, DistConfig, ShardRequest};
use jigsaw_core::pipeline::SubsetsSelected;
use jigsaw_core::{JigsawConfig, JigsawPipeline, JigsawResult};
use jigsaw_device::Device;
use jigsaw_pmf::codec::encode_to_vec;
use jigsaw_pmf::ShardPartial;
use jigsaw_server::client::Client;
use jigsaw_server::dist::run_distributed;

use super::{
    closed_loop, record_overhead, record_queue_waits, repeat_setup, scrape, traced_iteration, Args,
};
use crate::frame::MetricsFrame;
use crate::layers::{analyze_solo, codec_cost, record_codec, JobInput};
use crate::report::Report;
use crate::stats::{median, ratio_or_zero};
use crate::sys;
use crate::trace::{self, Span, Tracer};

/// Worker processes per fleet.
const WORKERS: usize = 2;

/// The `dist_sweep` job for `seed`.
#[must_use]
pub fn job(seed: u64) -> JobInput {
    let mut config = JigsawConfig::jigsaw(16384).with_seed(seed);
    config.run = config.run.with_threads(sys::cores());
    JobInput::new(&bench::graycode(50), Device::manhattan(), config)
}

/// A spawned worker process and the address it printed.
struct Worker {
    child: Child,
    addr: SocketAddr,
}

/// Spawns this executable in worker mode and reads its `PORT=<n>` line.
fn spawn_worker(spill: &std::path::Path) -> Worker {
    let exe = std::env::current_exe().expect("current executable");
    let mut child = Command::new(exe)
        .arg("--worker")
        .arg(spill)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn worker process");
    let mut line = String::new();
    let stdout = child.stdout.take().expect("piped stdout");
    let read = BufReader::new(stdout).read_line(&mut line);
    let port = read.ok().and_then(|_| line.trim().strip_prefix("PORT=")?.parse::<u16>().ok());
    let Some(port) = port else {
        let _ = child.kill();
        let _ = child.wait();
        panic!("worker printed {line:?}, expected PORT=<n>");
    };
    Worker { child, addr: SocketAddr::from(([127, 0, 0, 1], port)) }
}

/// The spawned workers and their scratch directory. Dropping the fleet
/// stops every worker it holds, also when spawning a later one failed.
struct Fleet {
    workers: Vec<Worker>,
    dir: PathBuf,
}

impl Fleet {
    fn spawn(n: usize) -> Self {
        let dir = sys::work_dir(&format!("dist_sweep-{}", std::process::id()));
        let mut fleet = Self { workers: Vec::new(), dir };
        for k in 0..n {
            let worker = spawn_worker(&fleet.dir.join(format!("worker-{k}")));
            fleet.workers.push(worker);
        }
        fleet
    }
}

impl Drop for Fleet {
    /// Asks every worker to shut down, then waits for each process; one
    /// that has not exited after five seconds is killed.
    fn drop(&mut self) {
        for worker in &mut self.workers {
            if let Ok(mut client) = Client::connect(worker.addr) {
                let _ = client.shutdown_server();
            }
        }
        for worker in &mut self.workers {
            let deadline = Instant::now() + Duration::from_secs(5);
            while matches!(worker.child.try_wait(), Ok(None)) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
            if matches!(worker.child.try_wait(), Ok(None)) {
                let _ = worker.child.kill();
            }
            let _ = worker.child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Everything a `dist_sweep` job needs, with its worker fleet.
struct Setup {
    input: JobInput,
    expected: JigsawResult,
    expected_bytes: Vec<u8>,
    stage: SubsetsSelected,
    fleet: Fleet,
}

impl Setup {
    fn new(seed: u64) -> Self {
        let input = job(seed);
        let expected = input.solo();
        let expected_bytes = encode_to_vec(&expected);
        let stage = JigsawPipeline::plan(&input.program, &input.device, &input.config)
            .compile_global()
            .run_global()
            .select_subsets();
        let setup = Self { input, expected, expected_bytes, stage, fleet: Fleet::spawn(WORKERS) };
        // Warm-up: one metrics round trip per worker.
        setup.scrape_workers();
        setup
    }

    fn addrs(&self) -> Vec<SocketAddr> {
        self.fleet.workers.iter().map(|w| w.addr).collect()
    }

    /// CPU seconds used so far by this process and every worker.
    fn fleet_cpu_s(&self) -> f64 {
        let workers: f64 = self.fleet.workers.iter().map(|w| sys::cpu_s(w.child.id())).sum();
        sys::cpu_s(std::process::id()) + workers
    }

    fn scrape_workers(&self) -> Vec<MetricsFrame> {
        self.fleet.workers.iter().map(|w| scrape(w.addr)).collect()
    }
}

fn driver_frame() -> MetricsFrame {
    MetricsFrame::parse(&jigsaw_core::telemetry::global().render_text())
        .expect("well-formed registry text")
}

/// Runs `dist_sweep`; returns the traced run's spans.
pub fn run(args: &Args, report: &mut Report) -> Vec<Span> {
    let setup = repeat_setup(args, report, || Setup::new(args.seed), |s| s.expected_bytes.clone());
    let addrs = setup.addrs();
    let config = DistConfig::default();

    let workers_before = setup.scrape_workers();
    let driver_before = driver_frame();
    let tracer = Tracer::new(false, Instant::now(), 0);
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let mut cpu = 0.0;
    let interval = closed_loop(args, |i| {
        let trace = traced_iteration(args, i);
        tracer.set_enabled(trace);
        tracer.next_job();
        let cpu0 = setup.fleet_cpu_s();
        let t0 = Instant::now();
        let result =
            tracer.span("dist.run_distributed", || run_distributed(&setup.stage, &addrs, &config));
        let t1 = Instant::now();
        cpu += setup.fleet_cpu_s() - cpu0;
        if trace { &mut traced } else { &mut untraced }.push((t1 - t0).as_secs_f64());
        let ok = matches!(&result, Ok(r) if encode_to_vec(r) == setup.expected_bytes);
        report.check(ok, || format!("distributed job: {:?}", result.as_ref().err()));
        t1.elapsed().as_secs_f64()
    });
    let driver_after = driver_frame();
    let workers_after = setup.scrape_workers();

    eprintln!("perfbench: job walls (s): untraced {untraced:?} traced {traced:?}");
    let jobs = (traced.len() + untraced.len()) as f64;
    report.set("job_s.p50", median(&untraced).unwrap_or(0.0));
    report.set("jobs_per_s", jobs / interval);
    report.set("cpu_s_per_job", cpu / jobs);
    report.set("job_s.samples", jobs);
    report.set("peak_rss_mb", sys::peak_rss_mb());

    let shards = plan_shards(setup.stage.cpm_work().len(), config.shard_size);
    let delta = |name: &str, labels: &[(&str, &str)]| {
        driver_after.get(name, labels) - driver_before.get(name, labels)
    };
    report.set("dist.shards", delta("jigsaw_dist_shards_total", &[("outcome", "ok")]) / jobs);
    report.set("dist.retries", delta("jigsaw_dist_retries_total", &[]));
    let before: Vec<&MetricsFrame> = workers_before.iter().collect();
    let after: Vec<&MetricsFrame> = workers_after.iter().collect();
    record_queue_waits(report, &before, &after);

    let mut spans = tracer.spans();
    if args.trace {
        record_overhead(report, &traced, &untraced);
        let mut all = traced.clone();
        all.extend(&untraced);
        let sweep_s = median(&all).unwrap_or(0.0);
        report.set("dist.sweep_s", sweep_s);
        let requests: Vec<ShardRequest> = shards
            .iter()
            .map(|&shard| ShardRequest {
                stage: setup.stage.clone(),
                shard,
                priority: config.priority,
            })
            .collect();
        let stage_bytes: usize = requests.iter().map(|r| encode_to_vec(r).len()).sum();
        report.set("dist.stage_bytes", stage_bytes as f64);

        let tracer = Tracer::new(true, Instant::now(), 1 << 32);
        tracer.next_job();
        let stage = setup.stage.clone();
        let t0 = Instant::now();
        let cpms = tracer.span("dist.solo_run_cpms", || stage.run_cpms());
        let t1 = Instant::now();
        let solo = tracer.span("dist.solo_reconstruct", || cpms.reconstruct());
        let (cpms_s, reconstruct_s) = ((t1 - t0).as_secs_f64(), t1.elapsed().as_secs_f64());
        report
            .check(solo == setup.expected, || "in-process run_cpms differs from run_jigsaw".into());
        report.set("dist.solo_cpms_s", cpms_s);
        report.set("dist.solo_reconstruct_s", reconstruct_s);
        report.set("dist.speedup_vs_solo", ratio_or_zero(cpms_s + reconstruct_s, sweep_s));

        // Codec: the first shard request as sent, its partial as received.
        let partial: ShardPartial = execute_shard(&setup.stage, &shards[0]);
        let cost = codec_cost::<_, ShardPartial>(&requests[0], &encode_to_vec(&partial), 5, report);
        record_codec(report, &[cost]);

        let (input, expected) = (setup.input.clone(), setup.expected.clone());
        drop(setup);
        analyze_solo(&input, &expected, &tracer, report);
        report.unused(super::NO_SERVER);
        trace::merge(&mut spans, tracer.spans());
    }
    spans
}
