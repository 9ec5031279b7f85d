//! Criterion bench: state-vector gate throughput versus register width
//! (substrate sanity — the executor's inner loop), and the dense executor
//! end to end on the compiled QAOA-14 p2 global circuit.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jigsaw_circuit::bench::qaoa_maxcut;
use jigsaw_circuit::Gate;
use jigsaw_compiler::{compile, CompilerOptions};
use jigsaw_device::Device;
use jigsaw_sim::{BackendKind, Executor, RunConfig, StateVector};

fn ghz_gates(n: usize) -> Vec<Gate> {
    let mut gates = vec![Gate::H(0)];
    for q in 0..n - 1 {
        gates.push(Gate::Cx(q, q + 1));
    }
    for q in 0..n {
        gates.push(Gate::Rz(q, 0.3));
    }
    gates
}

fn bench_widths(c: &mut Criterion) {
    let mut group = c.benchmark_group("statevector_ghz_layer");
    group.sample_size(10);
    for n in [10usize, 16, 20] {
        let gates = ghz_gates(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut sv = StateVector::new(n);
                sv.apply_all(&gates);
                sv.probability(0)
            });
        });
    }
    group.finish();
}

fn bench_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("statevector_sampling");
    group.sample_size(10);
    let n = 16;
    let mut sv = StateVector::new(n);
    sv.apply_all(&ghz_gates(n));
    let cdf = sv.cumulative();
    group.bench_function("sample_1k_from_cdf", |b| {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // Fixed bench seed: sampling timings are independent of the
        // experiment-seed derivation chain, but stay reproducible.
        const BENCH_SEED: u64 = 3;
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(BENCH_SEED);
            (0..1000).map(|_| sv.sample_from_cdf(&cdf, &mut rng)).count()
        });
    });
    group.finish();
}

/// The global-mode run of the `dense_qaoa` job on one thread: 16384 noisy
/// trials of the compiled QAOA-14 p2 circuit on Toronto, where most
/// trajectories resume from the shared ideal prefix at their first error.
fn bench_executor_qaoa14(c: &mut Criterion) {
    let device = Device::toronto();
    let mut program = qaoa_maxcut(14, 2).circuit().clone();
    program.measure_all();
    let compiled = compile(&program, &device, &CompilerOptions::default());
    let exec = Executor::new(&device);
    // Fixed bench seed, independent of the experiment-seed derivation.
    const BENCH_SEED: u64 = 1001;
    let config = RunConfig::default().with_seed(BENCH_SEED).with_threads(1);
    assert_eq!(exec.backend_for(compiled.circuit(), &config), BackendKind::Dense);

    let mut group = c.benchmark_group("executor_qaoa14_toronto");
    group.sample_size(10);
    group.bench_function("dense_16384_trials", |b| {
        b.iter(|| exec.run(compiled.circuit(), 16384, &config).total());
    });
    group.finish();
}

criterion_group!(benches, bench_widths, bench_sampling, bench_executor_qaoa14);
criterion_main!(benches);
