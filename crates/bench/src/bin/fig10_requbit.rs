//! Figure 10: per-qubit probability of a correct readout for BV-6 on the
//! Toronto model — baseline global measurement vs recompiled size-2 CPMs.
//!
//! A qubit counts as correctly measured when its classical bit matches the
//! deterministic BV answer, regardless of the other bits (the paper's
//! definition).
//!
//! ```text
//! cargo run --release -p jigsaw-bench --bin fig10_requbit -- [--trials 16384]
//! ```

use jigsaw_bench::cli::Args;
use jigsaw_bench::harness::harness_compiler;
use jigsaw_bench::table;
use jigsaw_circuit::bench::bernstein_vazirani;
use jigsaw_compiler::{compile, CpmSearch};
use jigsaw_core::seed;
use jigsaw_core::subsets::sliding_window;
use jigsaw_device::Device;
use jigsaw_pmf::Counts;
use jigsaw_sim::{resolve_correct_set, Executor, RunConfig};

/// Fraction of trials whose classical bit `clbit` equals `expected`.
fn bit_accuracy(counts: &Counts, clbit: usize, expected: bool) -> f64 {
    let mut hit = 0u64;
    for (outcome, c) in counts.iter() {
        if outcome.bit(clbit) == expected {
            hit += c;
        }
    }
    hit as f64 / counts.total() as f64
}

fn main() {
    let args = Args::from_env();
    let trials = args.trials(16_384);
    let experiment_seed = args.seed();
    let device = Device::toronto();
    let bench = bernstein_vazirani(6, 0b10110);
    let answer = resolve_correct_set(&bench)[0];
    let compiler = harness_compiler();
    let executor = Executor::new(&device);

    // Baseline: global measurement.
    let mut global_logical = bench.circuit().clone();
    global_logical.measure_all();
    let global = compile(&global_logical, &device, &compiler);
    let global_counts =
        executor.run(global.circuit(), trials, &RunConfig::default().with_seed(experiment_seed));

    // CPMs: sliding window of size 2, recompiled; each qubit's accuracy is
    // read from the CPM that measures it (first window containing it).
    let windows = sliding_window(6, 2);
    let mut cpm_accuracy = [None::<f64>; 6];
    let search = CpmSearch::new(bench.circuit(), &device, &compiler);
    for (i, subset) in windows.iter().enumerate() {
        let compiled = search.compile(subset);
        let counts = executor.run(
            compiled.circuit(),
            trials / windows.len() as u64,
            &RunConfig::default().with_seed(seed::mix(experiment_seed, i as u64)),
        );
        for (k, &q) in subset.iter().enumerate() {
            let acc = bit_accuracy(&counts, k, answer.bit(q));
            let slot = &mut cpm_accuracy[q];
            if slot.is_none() {
                *slot = Some(acc);
            }
        }
    }

    println!(
        "Figure 10 — P(correctly measuring each qubit), BV-6 on {} ({trials} trials, seed {experiment_seed})",
        device.name()
    );
    println!();
    let mut rows = Vec::new();
    for (q, slot) in cpm_accuracy.iter().enumerate() {
        let base = bit_accuracy(&global_counts, q, answer.bit(q));
        let cpm = slot.expect("every qubit is covered by a window");
        rows.push(vec![
            format!("q{q}"),
            format!("{base:.4}"),
            format!("{cpm:.4}"),
            format!("{:.2}x", cpm / base),
        ]);
    }
    println!("{}", table::render(&["Program qubit", "Baseline", "CPM (size 2)", "Gain"], &rows));
    println!("Expected shape: CPM accuracy beats baseline on every qubit (paper: up to 3.25x).");
}
