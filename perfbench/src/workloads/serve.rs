//! `serve_mix`: an in-process `jigsaw-server` on loopback with two
//! closed-loop clients, one connection each.
//!
//! - The interactive client draws, by a seeded sequence, from 24 keys:
//!   eight paper-suite programs × three seeds, JigSaw, 4096 trials. The
//!   key set is three times the cache capacity of 8, so requests hit,
//!   miss, evict and rehydrate from spill. The sequence visits every
//!   program once per eight visits, in seeded order, so each stretch of
//!   the run asks for the same mix of work whatever the seed; each visit
//!   is three requests for one key (a miss or rehydration, then two hits).
//! - The background client submits distinct JigSaw-M QAOA-10 p2 jobs at
//!   16384 trials, which also push interactive keys out of the cache.
//!
//! Interactive replies are checked byte for byte against per-key solo
//! payloads computed during set-up. Background replies must decode, and
//! JigSaw must raise PST over global mode across them in total.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Instant;

use jigsaw_circuit::bench::{self, Benchmark};
use jigsaw_compiler::probe;
use jigsaw_core::sched::Priority;
use jigsaw_core::{JigsawConfig, JigsawResult};
use jigsaw_device::Device;
use jigsaw_pmf::codec::{decode_from_slice, encode_to_vec};
use jigsaw_server::client::Client;
use jigsaw_server::protocol::JobRequest;
use jigsaw_server::server::{serve, ServerConfig, ServerHandle};

use super::{closed_loop, record_overhead, repeat_setup, scrape, traced_iteration, Args};
use crate::frame::MetricsFrame;
use crate::layers::{analyze_solo, codec_cost, pst, record_codec, JobInput};
use crate::report::Report;
use crate::stats::{median, percentile, ratio_or_zero};
use crate::sys::{self, SplitMix};
use crate::trace::{self, Span, Tracer};

/// Interactive keys: every program under this many seeds.
const KEY_SEEDS: u64 = 3;

/// The interactive programs: the paper suite without Ising-10.
fn key_programs() -> Vec<Benchmark> {
    vec![
        bench::bernstein_vazirani(6, 0b10110),
        bench::qaoa_maxcut(8, 1),
        bench::qaoa_maxcut(10, 2),
        bench::qaoa_maxcut(10, 4),
        bench::qaoa_maxcut(12, 4),
        bench::qaoa_maxcut(14, 2),
        bench::ghz(14),
        bench::graycode(18),
    ]
}

/// Requests per key visit: the first misses or rehydrates, the rest hit.
const REQUESTS_PER_VISIT: usize = 3;

/// The interactive key sequence for `seed`, `len` requests long. Keys are
/// numbered `seed_index * programs + program`. Each round of
/// `programs × KEY_SEEDS` visits asks for every key once: `KEY_SEEDS`
/// sub-rounds, each visiting every program once in a seeded order under a
/// seeded choice of its key seed.
fn interactive_order(seed: u64, programs: usize, len: usize) -> Vec<usize> {
    let mut rng = SplitMix::new(seed, 0x5E);
    let mut shuffled = |n: usize| {
        let mut items: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            items.swap(i, rng.below(i + 1));
        }
        items
    };
    let mut order = Vec::with_capacity(len + programs * REQUESTS_PER_VISIT);
    while order.len() < len {
        // Each program's key seeds, in the order its sub-round visits use them.
        let mut unused: Vec<Vec<usize>> =
            (0..programs).map(|_| shuffled(KEY_SEEDS as usize)).collect();
        for _ in 0..KEY_SEEDS {
            for program in shuffled(programs) {
                let seed_index = unused[program].pop().expect("one key seed per sub-round");
                order.extend([seed_index * programs + program; REQUESTS_PER_VISIT]);
            }
        }
    }
    order.truncate(len);
    order
}

/// The background job number `i` of a run seeded `seed`.
fn background_job(seed: u64, i: u64) -> JobInput {
    let job_seed = SplitMix::new(seed, 0xB6 + i).next_u64();
    let config = JigsawConfig::jigsaw_m(16384).with_seed(job_seed);
    JobInput::new(&bench::qaoa_maxcut(10, 2), Device::toronto(), config)
}

/// A running server with its keys and their solo payloads.
struct Setup {
    keys: Vec<JobRequest>,
    expected: Vec<Vec<u8>>,
    server: Option<ServerHandle>,
    dir: PathBuf,
}

impl Setup {
    fn new(seed: u64) -> Self {
        let device = Device::toronto();
        let mut keys = Vec::new();
        let mut expected = Vec::new();
        for s in 0..KEY_SEEDS {
            let key_seed = SplitMix::new(seed, s).next_u64();
            for program in key_programs() {
                let config = JigsawConfig::jigsaw(4096).with_seed(key_seed);
                let input = JobInput::new(&program, device.clone(), config);
                expected.push(encode_to_vec(&input.solo()));
                keys.push(input.request());
            }
        }
        let dir = sys::work_dir(&format!("serve_mix-{}", std::process::id()));
        let server = serve(&ServerConfig::new(dir.join("spill"))).expect("bind loopback server");
        // Warm-up: one round trip on the metrics path.
        let _ = scrape(server.addr());
        Self { keys, expected, server: Some(server), dir }
    }

    fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("running").addr()
    }
}

impl Drop for Setup {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One completed request: which input, its latency, and the check of its
/// reply. The reply bytes are kept only in a traced run, which measures
/// their codec cost afterwards; otherwise memory would grow with the
/// number of requests.
struct Exchange {
    index: usize,
    wall: f64,
    traced: bool,
    /// Why the request failed or its reply was wrong.
    error: Option<String>,
    /// PST of the decoded JigSaw output and of its global-mode PMF.
    pst: (f64, f64),
    reply: Option<Vec<u8>>,
}

/// One client's closed loop: `request(i)` is the `i`-th request to send
/// and `check` judges its reply as soon as it arrives, outside the timed
/// span.
fn client_loop(
    args: &Args,
    addr: SocketAddr,
    tracer: &Tracer,
    request: impl Fn(usize) -> (usize, JobRequest),
    check: impl Fn(usize, &[u8]) -> Result<(f64, f64), String>,
) -> Vec<Exchange> {
    let mut client = Client::connect(addr).expect("connect to server");
    let mut exchanges = Vec::new();
    closed_loop(args, |i| {
        let (index, request) = request(i);
        let traced = traced_iteration(args, i);
        tracer.set_enabled(traced);
        tracer.next_job();
        let t0 = Instant::now();
        let reply = tracer.span("client.submit_request", || client.submit_request(&request));
        let t1 = Instant::now();
        let checked = reply.as_ref().map_err(ToString::to_string).and_then(|b| check(index, b));
        let (error, pst) = match checked {
            Ok(pst) => (None, pst),
            Err(e) => (Some(e), (0.0, 0.0)),
        };
        let reply = reply.ok().filter(|_| args.trace);
        exchanges.push(Exchange {
            index,
            wall: (t1 - t0).as_secs_f64(),
            traced,
            error,
            pst,
            reply,
        });
        t1.elapsed().as_secs_f64()
    });
    exchanges
}

/// Runs `serve_mix`; returns the traced run's spans.
pub fn run(args: &Args, report: &mut Report) -> Vec<Span> {
    let setup = repeat_setup(args, report, || Setup::new(args.seed), |s| s.expected.concat());
    let addr = setup.addr();
    let order = interactive_order(args.seed, key_programs().len(), 100_000);
    let correct = background_job(args.seed, 0).correct;

    let before = scrape(addr);
    let compiles_before = probe::compile_count();
    let cpu_before = sys::cpu_s(std::process::id());
    let epoch = Instant::now();
    let ((interactive, interactive_spans), (background, background_spans)) =
        std::thread::scope(|scope| {
            let fg = scope.spawn(|| {
                let tracer = Tracer::new(false, epoch, 0);
                let out = client_loop(
                    args,
                    addr,
                    &tracer,
                    |i| {
                        let key = order[i % order.len()];
                        (key, setup.keys[key].clone())
                    },
                    |key, bytes| {
                        (*bytes == setup.expected[key]).then_some((0.0, 0.0)).ok_or_else(|| {
                            format!("key {key}: reply differs from its solo payload")
                        })
                    },
                );
                (out, tracer.spans())
            });
            let bg = scope.spawn(|| {
                let tracer = Tracer::new(false, epoch, 1 << 32);
                let out = client_loop(
                    args,
                    addr,
                    &tracer,
                    |i| {
                        let job = background_job(args.seed, i as u64).request();
                        (i, job.with_priority(Priority::Background))
                    },
                    |i, bytes| {
                        let result = decode_from_slice::<JigsawResult>(bytes)
                            .map_err(|e| format!("background job {i}: {e}"))?;
                        let (jigsaw, global, _) = pst(&result, &correct);
                        Ok((jigsaw, global))
                    },
                );
                (out, tracer.spans())
            });
            (fg.join().expect("interactive client"), bg.join().expect("background client"))
        });
    let interval = epoch.elapsed().as_secs_f64();
    let cpu = sys::cpu_s(std::process::id()) - cpu_before;
    let compiles = probe::compile_count() - compiles_before;
    let after = scrape(addr);

    for x in interactive.iter().chain(&background) {
        report.check(x.error.is_none(), || x.error.clone().unwrap_or_default());
    }
    let pst_jigsaw: f64 = background.iter().map(|x| x.pst.0).sum();
    let pst_global: f64 = background.iter().map(|x| x.pst.1).sum();
    let gain = ratio_or_zero(pst_jigsaw, pst_global);
    report.check(gain >= 1.0, || format!("background PST gain {gain} < 1 over the run"));

    let latencies: Vec<f64> = interactive.iter().filter(|x| !x.traced).map(|x| x.wall).collect();
    let completed = (interactive.len() + background.len()) as f64;
    eprintln!(
        "perfbench: {} interactive requests ({} untraced), {} background jobs",
        interactive.len(),
        latencies.len(),
        background.len()
    );
    report.set("job_s.p50", median(&latencies).unwrap_or(0.0));
    report.set("jobs_per_s", completed / interval);
    report.set("cpu_s_per_job", cpu / completed);
    report.set("job_s.samples", interactive.len() as f64);
    report.set("peak_rss_mb", sys::peak_rss_mb());
    report.set("serve.interactive_ms.p50", 1e3 * median(&latencies).unwrap_or(0.0));
    report.set("serve.interactive_ms.p95", 1e3 * percentile(&latencies, 0.95).unwrap_or(0.0));
    report.set("serve.background_jobs_per_s", background.len() as f64 / interval);
    report.set("serve.compiles_per_job", compiles as f64 / completed);
    record_frame_deltas(report, &before, &after);

    let mut spans = interactive_spans;
    if args.trace {
        let walls = |traced: bool| -> Vec<f64> {
            interactive.iter().filter(|x| x.traced == traced).map(|x| x.wall).collect()
        };
        record_overhead(report, &walls(true), &walls(false));
        let mut costs = Vec::new();
        for x in &interactive {
            if let Some(bytes) = &x.reply {
                costs.push(codec_cost::<_, JigsawResult>(&setup.keys[x.index], bytes, 3, report));
            }
        }
        for x in &background {
            if let Some(bytes) = &x.reply {
                let request = background_job(args.seed, x.index as u64).request();
                costs.push(codec_cost::<_, JigsawResult>(&request, bytes, 3, report));
            }
        }
        record_codec(report, &costs);
        drop(setup);
        // Layer analysis of one background job, in process, with the
        // server stopped.
        let tracer = Tracer::new(true, epoch, 2 << 32);
        let input = background_job(args.seed, 0);
        let expected = input.solo();
        analyze_solo(&input, &expected, &tracer, report);
        report.unused(super::NO_DIST);
        trace::merge(&mut spans, tracer.spans());
    }
    trace::merge(&mut spans, background_spans);
    spans
}

/// Cache and scheduler counters over the interval, from two scrapes of
/// the metrics frame.
fn record_frame_deltas(report: &mut Report, before: &MetricsFrame, after: &MetricsFrame) {
    let delta = |name: &str| after.get(name, &[]) - before.get(name, &[]);
    let hits = delta("jigsaw_server_cache_hits_total");
    let misses = delta("jigsaw_server_cache_misses_total");
    let rehydrations = delta("jigsaw_server_cache_rehydrations_total");
    let coalesced = delta("jigsaw_server_cache_coalesced_total");
    report.set("cache.hits", hits);
    report.set("cache.misses", misses);
    report.set("cache.rehydrations", rehydrations);
    report.set("cache.evictions", delta("jigsaw_server_cache_evictions_total"));
    report.set("cache.hit_ratio", ratio_or_zero(hits, hits + misses + rehydrations + coalesced));
    super::record_queue_waits(report, &[before], &[after]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_round_asks_for_every_key_once_per_visit_and_sub_rounds_balance_programs() {
        let (programs, seeds) = (8, KEY_SEEDS as usize);
        let order = interactive_order(9, programs, 2 * programs * seeds * REQUESTS_PER_VISIT);
        let visits: Vec<usize> = order
            .chunks(REQUESTS_PER_VISIT)
            .map(|c| {
                assert!(c.iter().all(|&k| k == c[0]));
                c[0]
            })
            .collect();
        for round in visits.chunks(programs * seeds) {
            let mut keys = round.to_vec();
            keys.sort_unstable();
            assert_eq!(keys, (0..programs * seeds).collect::<Vec<_>>());
            for sub_round in round.chunks(programs) {
                let mut progs: Vec<usize> = sub_round.iter().map(|k| k % programs).collect();
                progs.sort_unstable();
                assert_eq!(progs, (0..programs).collect::<Vec<_>>());
            }
        }
        assert_eq!(order, interactive_order(9, programs, order.len()));
        assert_ne!(order, interactive_order(10, programs, order.len()));
    }
}
