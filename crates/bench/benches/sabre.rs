//! Criterion bench: noise-aware compilation latency (the paper leans on
//! SABRE's low latency for per-CPM recompilation, §4.2.2), and the CPM
//! stage's shared placement search against one search per CPM.

use criterion::{criterion_group, criterion_main, Criterion};
use jigsaw_circuit::bench::{ghz, qaoa_maxcut};
use jigsaw_compiler::cpm::recompile_cpm;
use jigsaw_compiler::{compile, CompilerOptions, CpmSearch};
use jigsaw_core::subsets::sliding_window;
use jigsaw_device::Device;

fn bench_compile(c: &mut Criterion) {
    let device = Device::toronto();
    let options = CompilerOptions::default();
    let mut group = c.benchmark_group("compile");
    group.sample_size(10);

    let mut ghz12 = ghz(12).circuit().clone();
    ghz12.measure_all();
    group.bench_function("ghz12_toronto", |b| {
        b.iter(|| compile(&ghz12, &device, &options));
    });

    let mut qaoa12 = qaoa_maxcut(12, 2).circuit().clone();
    qaoa12.measure_all();
    group.bench_function("qaoa12p2_toronto", |b| {
        b.iter(|| compile(&qaoa12, &device, &options));
    });

    let manhattan = Device::manhattan();
    let mut ghz18 = ghz(18).circuit().clone();
    ghz18.measure_all();
    group.bench_function("ghz18_manhattan", |b| {
        b.iter(|| compile(&ghz18, &manhattan, &options));
    });
    group.finish();
}

fn bench_cpm_recompile(c: &mut Criterion) {
    let device = Device::toronto();
    let options = CompilerOptions::default();
    let program = qaoa_maxcut(10, 1).circuit().clone();
    let mut group = c.benchmark_group("cpm_recompile");
    group.sample_size(10);
    group.bench_function("qaoa10_size2_cpm", |b| {
        b.iter(|| recompile_cpm(&program, &[3, 4], &device, &options));
    });
    group.finish();
}

/// GHZ-40 JigSaw-M on Manhattan: 160 CPMs (sliding windows of sizes 2–5),
/// compiled serially as inside the pipeline's fan-out.
fn bench_cpm_search(c: &mut Criterion) {
    let device = Device::manhattan();
    let options = CompilerOptions { threads: 1, ..CompilerOptions::default() };
    let program = ghz(40).circuit().clone();
    let subsets: Vec<Vec<usize>> = (2..=5).flat_map(|size| sliding_window(40, size)).collect();
    assert_eq!(subsets.len(), 160);

    // Both paths must compile every CPM identically before any timing is
    // trusted.
    let search = CpmSearch::new(&program, &device, &options);
    for subset in subsets.iter().step_by(16) {
        assert_eq!(search.compile(subset), recompile_cpm(&program, subset, &device, &options));
    }

    let mut group = c.benchmark_group("cpm_search_ghz40_manhattan_160_cpms");
    group.sample_size(3);
    group.bench_function("one_search_160_picks", |b| {
        b.iter(|| {
            let search = CpmSearch::new(&program, &device, &options);
            subsets.iter().map(|subset| search.compile(subset)).collect::<Vec<_>>()
        });
    });
    group.bench_function("recompile_cpm_x160", |b| {
        b.iter(|| {
            subsets
                .iter()
                .map(|subset| recompile_cpm(&program, subset, &device, &options))
                .collect::<Vec<_>>()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_compile, bench_cpm_recompile, bench_cpm_search);
criterion_main!(benches);
