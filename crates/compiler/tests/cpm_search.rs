//! Identity oracle for the shared CPM placement search: for every subset,
//! [`CpmSearch::compile`] must produce exactly the bytes of a fresh
//! readout-focused compilation of that subset's CPM circuit.

use jigsaw_circuit::{bench, Circuit};
use jigsaw_compiler::cpm::{cpm_circuit, recompile_cpm};
use jigsaw_compiler::placement::PlacementConfig;
use jigsaw_compiler::{compile, Compiled, CompilerOptions, CpmArtifact, CpmSearch};
use jigsaw_device::Device;
use jigsaw_pmf::codec::encode_to_vec;
use proptest::prelude::*;

/// The per-subset recompilation the shared search replaces: the CPM
/// circuit compiled from scratch with the readout weight raised to at
/// least 4.
fn reference(
    program: &Circuit,
    subset: &[usize],
    device: &Device,
    options: &CompilerOptions,
) -> Compiled {
    let placement = PlacementConfig {
        readout_weight: options.placement.readout_weight.max(4.0),
        ..options.placement
    };
    let focused = CompilerOptions { placement, ..*options };
    compile(&cpm_circuit(program, subset), device, &focused)
}

/// GHZ (chain), BV (star), QAOA and Graycode, 3–12 qubits.
fn program_strategy() -> impl Strategy<Value = Circuit> {
    (0usize..4, 3usize..13, any::<u64>()).prop_map(|(kind, n, bits)| {
        let b = match kind {
            0 => bench::ghz(n),
            1 => bench::bernstein_vazirani(n, bits & ((1 << (n - 1)) - 1)),
            2 => bench::qaoa_maxcut(n.min(9), 1 + (bits % 2) as usize),
            _ => bench::graycode(n),
        };
        b.circuit().clone()
    })
}

fn device(index: usize) -> Device {
    match index {
        0 => Device::toronto(),
        1 => Device::paris(),
        _ => Device::manhattan(),
    }
}

/// Subsets of size 1..n−1 in caller order (the order fixes the classical
/// bits), drawn from `picks` by partial Fisher–Yates over the qubits.
fn subsets(n: usize, picks: &[(usize, u64)]) -> Vec<Vec<usize>> {
    picks
        .iter()
        .map(|&(size, shuffle)| {
            let size = 1 + size % (n - 1);
            let mut qubits: Vec<usize> = (0..n).collect();
            let mut state = shuffle;
            for k in 0..size {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let j = k + (state >> 33) as usize % (n - k);
                qubits.swap(k, j);
            }
            qubits.truncate(size);
            qubits
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn shared_search_matches_per_subset_recompilation(
        program in program_strategy(),
        device_index in 0usize..3,
        picks in prop::collection::vec((0usize..64, any::<u64>()), 1..5),
        peephole in any::<bool>(),
        max_seeds in 1usize..=10,
        threads in 0usize..3,
        heavy_readout in any::<bool>(),
    ) {
        let device = device(device_index);
        let options = CompilerOptions {
            max_seeds,
            peephole,
            threads,
            placement: PlacementConfig {
                readout_weight: if heavy_readout { 6.0 } else { 1.0 },
                ..PlacementConfig::default()
            },
            ..CompilerOptions::default()
        };
        let search = CpmSearch::new(&program, &device, &options);
        for subset in subsets(program.n_qubits(), &picks) {
            let want = reference(&program, &subset, &device, &options);
            let got = search.compile(&subset);
            prop_assert_eq!(got.eps.to_bits(), want.eps.to_bits(), "subset {:?}", subset);
            prop_assert_eq!(encode_to_vec(&got), encode_to_vec(&want), "subset {:?}", subset);
        }
    }
}

#[test]
fn one_shot_wrappers_match_the_reference() {
    let device = Device::manhattan();
    let program = bench::ghz(20).circuit().clone();
    let options = CompilerOptions::default();
    for subset in [vec![0], vec![19, 3], vec![5, 6, 7, 8]] {
        let want = reference(&program, &subset, &device, &options);
        assert_eq!(
            encode_to_vec(&recompile_cpm(&program, &subset, &device, &options)),
            encode_to_vec(&want)
        );
        let artifact = CpmArtifact::recompiled(&program, &subset, &device, &options);
        assert_eq!(&artifact.circuit, want.circuit());
        assert_eq!(artifact.eps, Some(want.eps));
    }
}

#[test]
#[should_panic(expected = "measured twice")]
fn duplicate_subset_rejected() {
    let program = bench::ghz(4).circuit().clone();
    let options = CompilerOptions { max_seeds: 1, ..CompilerOptions::default() };
    let _ = CpmSearch::new(&program, &Device::toronto(), &options).compile(&[1, 1]);
}

#[test]
#[should_panic(expected = "out of range")]
fn out_of_range_subset_rejected() {
    let program = bench::ghz(4).circuit().clone();
    let options = CompilerOptions { max_seeds: 1, ..CompilerOptions::default() };
    let _ = CpmSearch::new(&program, &Device::toronto(), &options).compile(&[4]);
}
