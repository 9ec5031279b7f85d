//! The repository benchmark: four JigSaw workloads, each checked against
//! solo reference results, reporting end-to-end metrics (untraced runs)
//! or per-layer metrics (traced runs) as one JSON line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `wide_clifford`, `dense_qaoa`, `serve_mix`, `dist_sweep`
//! (see `perfbench/README.md`). The last line of standard output is
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`; every
//! other measured value goes to standard error. A failed check makes the
//! exit code 1; a usage error, 2.

use std::process::ExitCode;
use std::time::Duration;

mod frame;
mod json;
mod layers;
mod report;
mod stats;
mod sys;
mod trace;
mod workloads;

use report::{Report, END_TO_END, PER_LAYER};
use workloads::Args;

const WORKLOADS: [&str; 4] = ["wide_clifford", "dense_qaoa", "serve_mix", "dist_sweep"];
const USAGE: &str = "usage: perfbench --workload <wide_clifford|dense_qaoa|serve_mix|dist_sweep> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad()),
            },
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Worker mode: one shard-serving `jigsaw-server` on a free loopback port,
/// announced as `PORT=<n>`, until a peer sends `Shutdown`.
fn worker(spill: &str) -> ExitCode {
    use std::io::Write;
    let config = jigsaw_server::server::ServerConfig::new(spill).with_handlers(2);
    let Ok(handle) = jigsaw_server::server::serve(&config) else {
        eprintln!("perfbench worker: bind failed");
        return ExitCode::FAILURE;
    };
    println!("PORT={}", handle.addr().port());
    let _ = std::io::stdout().flush();
    handle.wait();
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, spill] = argv.as_slice() {
        if flag == "--worker" {
            return worker(spill);
        }
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut report = Report::default();
    report.set("cores", sys::cores() as f64);
    let spans = match args.workload.as_str() {
        "wide_clifford" => {
            workloads::pipeline::run(workloads::pipeline::wide_clifford, &args, &mut report)
        }
        "dense_qaoa" => {
            workloads::pipeline::run(workloads::pipeline::dense_qaoa, &args, &mut report)
        }
        "serve_mix" => workloads::serve::run(&args, &mut report),
        "dist_sweep" => workloads::dist::run(&args, &mut report),
        _ => unreachable!("validated by parse_args"),
    };
    if args.trace {
        report.set("trace.spans", spans.len() as f64);
        let path = std::path::PathBuf::from(".bench_work/traces")
            .join(format!("{}-seed{}.json", args.workload, args.seed));
        if let Err(e) = trace::write_spans(&path, &args.workload, args.seed, &spans) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }

    let values: Vec<String> =
        report.values().iter().map(|(name, value)| format!("{name}={value}")).collect();
    eprintln!(
        "perfbench: {} seed {} trace {}: attempted {} failed {}: {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        report.attempted,
        report.failed,
        values.join(" ")
    );
    for failure in &report.failures {
        eprintln!("perfbench: FAILED: {failure}");
    }

    let metrics = match report.select(if args.trace { PER_LAYER } else { END_TO_END }) {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let correct = report.failed == 0;
    println!("{}", json::result_line(correct, report.attempted, report.failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let args =
            parse_args(&argv("--workload dense_qaoa --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!((args.workload.as_str(), args.seed, args.trace), ("dense_qaoa", 7, true));
        assert_eq!(args.seconds, Duration::from_secs(10));
    }

    #[test]
    fn refuses_bad_command_lines() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload serve_mix --seed -1 --seconds 1 --trace 0",
            "--workload serve_mix --seed 1 --seconds 0 --trace 0",
            "--workload serve_mix --seed 1 --seconds 1 --trace 2",
            "--workload serve_mix --seed 1 --seconds 1",
            "--workload serve_mix --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload serve_mix --seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} accepted");
        }
    }
}
