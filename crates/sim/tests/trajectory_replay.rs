//! Oracle property tests for the executor's prefix-shared trajectory
//! replay: every noisy trajectory resumes from the ideal state at its first
//! gate error instead of replaying the whole circuit. The oracle below is
//! the straightforward executor — every batch replays every gate from
//! `|0…0⟩` — built from public APIs only, and the histograms must be equal
//! for dense and Clifford circuits, every combination of the three noise
//! switches, batch sizes that do and do not divide the trial count, and
//! every worker-team size.

use jigsaw_circuit::{Circuit, Gate};
use jigsaw_device::Device;
use jigsaw_pmf::{BitString, Counts};
use jigsaw_sim::{
    seed, select_backend, BackendChoice, BackendKind, DenseBackend, Executor, NoiseModel,
    RunConfig, SimBackend, StabilizerBackend,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An 8-qubit simple path through the Falcon-27 lattice (every consecutive
/// pair is a calibrated coupler), so line-adjacent gates stay
/// coupler-conformant.
const FALCON_PATH: [usize; 8] = [0, 1, 2, 3, 5, 8, 11, 14];

const BATCHES: [u64; 4] = [1, 3, 64, 200];
const THREADS: [usize; 4] = [0, 1, 2, 3];

/// The reference executor: compacts the circuit exactly as
/// [`Executor::run`] does, then replays every batch in full.
fn full_replay(device: &Device, circuit: &Circuit, trials: u64, config: &RunConfig) -> Counts {
    let mut physical: Vec<usize> = circuit
        .gates()
        .iter()
        .flat_map(|g| {
            let (a, b) = g.qubits();
            std::iter::once(a).chain(b)
        })
        .chain(circuit.measurements().iter().map(|m| m.qubit))
        .collect();
    physical.sort_unstable();
    physical.dedup();
    let compact_of = |q: usize| physical.binary_search(&q).expect("active qubit");
    let mut compact = Circuit::new(physical.len());
    for g in circuit.gates() {
        compact.push(g.remapped(compact_of));
    }
    for m in circuit.measurements() {
        compact.measure(compact_of(m.qubit), m.clbit);
    }
    match select_backend(&compact, config.backend) {
        BackendKind::Dense => {
            replay_batches::<DenseBackend>(device, &compact, &physical, trials, config)
        }
        BackendKind::Stabilizer => {
            replay_batches::<StabilizerBackend>(device, &compact, &physical, trials, config)
        }
    }
}

/// One fresh backend per batch: plan, then every gate with its events,
/// then the end events, then the draws and the readout flips — all on the
/// batch's own stream.
fn replay_batches<B: SimBackend>(
    device: &Device,
    compact: &Circuit,
    physical: &[usize],
    trials: u64,
    config: &RunConfig,
) -> Counts {
    let model =
        NoiseModel::for_circuit(compact, device, physical, config.gate_noise, config.decoherence);
    let simultaneous = compact.measurements().len();
    let readout: Vec<(usize, usize, f64, f64)> = compact
        .measurements()
        .iter()
        .map(|m| {
            if config.readout_noise {
                let e = device.effective_readout(physical[m.qubit], simultaneous);
                (m.qubit, m.clbit, e.p1_given_0, e.p0_given_1)
            } else {
                (m.qubit, m.clbit, 0.0, 0.0)
            }
        })
        .collect();
    let n_clbits = compact.n_clbits();

    let mut total = Counts::new(n_clbits);
    let mut remaining = trials;
    let mut index = 0;
    while remaining > 0 {
        let k = remaining.min(config.batch);
        remaining -= k;
        let mut rng = StdRng::seed_from_u64(seed::mix(config.seed, index));
        index += 1;
        let plan = model.sample_plan(&mut rng);
        let draws: Vec<u64> = (0..k).map(|_| rng.gen::<u64>()).collect();

        let mut backend = B::new(compact.n_qubits());
        for (i, g) in compact.gates().iter().enumerate() {
            backend.apply_gate(g);
            for ev in plan.gate_events.iter().filter(|ev| ev.after_gate == i) {
                backend.apply_pauli(ev.qubit, ev.pauli);
            }
        }
        for &(q, pauli) in &plan.end_events {
            backend.apply_pauli(q, pauli);
        }
        backend.prepare_sampling();
        let mut outcomes = Vec::new();
        backend.resolve_draws(&draws, &mut outcomes);

        let mut counts = Counts::new(n_clbits);
        for raw in &outcomes {
            let mut out = BitString::zeros(n_clbits);
            for &(q, clbit, e01, e10) in &readout {
                let mut bit = raw.bit(q);
                let flip_p = if bit { e10 } else { e01 };
                if flip_p > 0.0 && rng.gen::<f64>() < flip_p {
                    bit = !bit;
                }
                if bit {
                    out.set_bit(clbit, true);
                }
            }
            counts.record(out);
        }
        total.merge(&counts);
    }
    total
}

/// Strategy: a random line circuit over `n` qubits. `clifford` limits it to
/// Clifford gates (the stabilizer path); otherwise rotations take arbitrary
/// angles and `U3` and `T` join, so it runs dense.
fn circuit_strategy(clifford: bool) -> impl Strategy<Value = Circuit> {
    (2usize..=FALCON_PATH.len()).prop_flat_map(move |n| {
        let ops = prop::collection::vec((0u8..10, 0..n, -3.2f64..3.2), 1..=60);
        (ops, 1u64..(1 << n)).prop_map(move |(ops, measured)| {
            let mut c = Circuit::new(n);
            if !clifford {
                // One T gate keeps even a short random circuit dense.
                c.push(Gate::T(n - 1));
            }
            for (kind, a, angle) in ops {
                let angle = if clifford {
                    (angle * 2.0).round() * std::f64::consts::FRAC_PI_2
                } else {
                    angle
                };
                let b = if a + 1 < n { a + 1 } else { a - 1 };
                match kind {
                    0 => c.h(a),
                    1 => c.push(Gate::S(a)),
                    2 => c.rx(a, angle),
                    3 => c.ry(a, angle),
                    4 => c.rz(a, angle),
                    5 if clifford => c.push(Gate::Sx(a)),
                    5 => c.u3(a, angle, 0.5 * angle, -angle),
                    6 | 7 => c.cx(a, b),
                    8 => c.cz(a, b),
                    _ => c.swap(a, b),
                };
            }
            // Measure a non-empty subset, as CPMs do.
            for (clbit, q) in (0..n).filter(|q| measured >> q & 1 == 1).enumerate() {
                c.measure(q, clbit);
            }
            let mut mapped = Circuit::new(27);
            for g in c.gates() {
                mapped.push(g.remapped(|q| FALCON_PATH[q]));
            }
            for m in c.measurements() {
                mapped.measure(FALCON_PATH[m.qubit], m.clbit);
            }
            mapped
        })
    })
}

/// Runs the executor and the oracle under all eight noise-switch
/// combinations and asserts equal histograms.
fn assert_matches_full_replay(circuit: &Circuit, trials: u64, base: RunConfig) {
    let device = Device::toronto();
    let exec = Executor::new(&device);
    for switches in 0..8u8 {
        let config = RunConfig {
            gate_noise: switches & 1 != 0,
            readout_noise: switches & 2 != 0,
            decoherence: switches & 4 != 0,
            ..base
        };
        assert_eq!(
            exec.run(circuit, trials, &config),
            full_replay(&device, circuit, trials, &config),
            "noise switches {switches:03b}, {config:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dense_runs_match_full_replay(
        circuit in circuit_strategy(false),
        trials in 1u64..700,
        batch in 0..BATCHES.len(),
        threads in 0..THREADS.len(),
        run_seed in any::<u64>(),
    ) {
        let base = RunConfig::default()
            .with_seed(run_seed)
            .with_threads(THREADS[threads]);
        prop_assert_eq!(Executor::new(&Device::toronto()).backend_for(&circuit, &base), BackendKind::Dense);
        assert_matches_full_replay(&circuit, trials, RunConfig { batch: BATCHES[batch], ..base });
    }

    #[test]
    fn clifford_runs_match_full_replay(
        circuit in circuit_strategy(true),
        trials in 1u64..700,
        batch in 0..BATCHES.len(),
        threads in 0..THREADS.len(),
        dense in any::<bool>(),
        run_seed in any::<u64>(),
    ) {
        let backend = if dense { BackendChoice::Dense } else { BackendChoice::Auto };
        let base = RunConfig::default()
            .with_seed(run_seed)
            .with_threads(THREADS[threads])
            .with_backend(backend);
        assert_matches_full_replay(&circuit, trials, RunConfig { batch: BATCHES[batch], ..base });
    }
}

#[test]
fn trial_counts_off_the_batch_grid_match_full_replay() {
    // A short last batch, a single trial and a budget of exactly one batch,
    // on a circuit with noisy trajectories at every depth.
    let mut c = Circuit::new(27);
    for (i, w) in FALCON_PATH.windows(2).enumerate() {
        c.ry(w[0], 0.3 + i as f64).cx(w[0], w[1]).rz(w[1], 0.7);
    }
    for (i, &q) in FALCON_PATH.iter().enumerate() {
        c.measure(q, i);
    }
    for trials in [1, 63, 64, 65, 1000] {
        for threads in THREADS {
            let base = RunConfig::default().with_seed(trials).with_threads(threads);
            assert_matches_full_replay(&c, trials, base);
        }
    }
}
