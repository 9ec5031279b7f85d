//! Inside JigSaw-M: watch the hierarchical reconstruction sharpen the
//! global PMF one subset-size layer at a time (largest first, §4.4.2), and
//! export the program via OpenQASM for inspection in other tooling.
//!
//! ```text
//! cargo run --release --example multilayer_reconstruction
//! ```

use jigsaw_repro::circuit::{bench, qasm};
use jigsaw_repro::compiler::{compile, CompilerOptions, CpmSearch};
use jigsaw_repro::core::subsets::sliding_window;
use jigsaw_repro::core::{reconstruct, Marginal, ReconstructionConfig};
use jigsaw_repro::device::Device;
use jigsaw_repro::pmf::{metrics, Pmf};
use jigsaw_repro::sim::{ideal_pmf, resolve_correct_set, Executor, RunConfig};

fn main() {
    let device = Device::toronto();
    let bench = bench::ghz(12);
    let correct = resolve_correct_set(&bench);
    let trials: u64 = jigsaw_repro::example_budget(16_384);
    let compiler = CompilerOptions::default();
    let executor = Executor::new(&device);

    // Export the program for external tooling.
    let mut printable = bench.circuit().clone();
    printable.measure_all();
    let qasm_text = qasm::to_qasm(&printable);
    println!(
        "{} as OpenQASM ({} lines), first three statements:",
        bench.name(),
        qasm_text.lines().count()
    );
    for line in qasm_text.lines().skip(2).take(3) {
        println!("  {line}");
    }
    println!();

    // Global mode.
    let global = compile(&printable, &device, &compiler);
    let global_pmf =
        executor.run(global.circuit(), trials / 2, &RunConfig::default().with_seed(1)).to_pmf();

    let mut ideal_circuit = bench.circuit().clone();
    ideal_circuit.measure_all();
    let ideal: Pmf = ideal_pmf(&ideal_circuit);

    println!(
        "{} on {}: global mode PST {:.4}, fidelity {:.4}",
        bench.name(),
        device.name(),
        metrics::pst(&global_pmf, &correct),
        metrics::fidelity(&ideal, &global_pmf)
    );
    println!();
    println!("Hierarchical reconstruction, largest subsets first:");

    // One placement search serves every CPM of the program.
    let search = CpmSearch::new(bench.circuit(), &device, &compiler);
    let mut current = global_pmf;
    for (i, size) in [5usize, 4, 3, 2].into_iter().enumerate() {
        let windows = sliding_window(12, size);
        let per_cpm = trials / 2 / (4 * windows.len() as u64);
        let marginals: Vec<Marginal> = windows
            .iter()
            .enumerate()
            .map(|(k, subset)| {
                let cpm = search.compile(subset);
                let counts = executor.run(
                    cpm.circuit(),
                    per_cpm.max(1),
                    &RunConfig::default().with_seed(100 + (i * 100 + k) as u64),
                );
                Marginal::new(subset.clone(), counts.to_pmf())
            })
            .collect();
        let result = reconstruct(&current, &marginals, &ReconstructionConfig::default());
        current = result.pmf;
        println!(
            "  after size-{size} layer ({} CPMs, {} rounds): PST {:.4}, fidelity {:.4}",
            marginals.len(),
            result.rounds,
            metrics::pst(&current, &correct),
            metrics::fidelity(&ideal, &current)
        );
    }
    println!();
    println!("Each layer trades correlation knowledge against measurement fidelity;");
    println!("the big early layers preserve global structure, later ones sharpen it");
    println!("(individual layers can dip — the full pipeline splits trials 4 ways).");
}
