//! Stochastic-Pauli gate noise and idle decoherence.
//!
//! Gate errors are modelled as depolarizing channels realised by trajectory
//! sampling: with the gate's calibrated error probability, a uniformly
//! random non-identity Pauli is injected after the gate. Idle decoherence is
//! folded into a per-qubit end-of-circuit Pauli whose probability grows with
//! circuit depth — a standard NISQ-simulator approximation that preserves
//! the error-scaling behaviour JigSaw's evaluation depends on (deep circuits
//! are noisier; see DESIGN.md §4).

use jigsaw_circuit::{Circuit, Gate};
use jigsaw_device::Device;
use rand::Rng;

/// A single-qubit Pauli error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pauli {
    /// Bit flip.
    X,
    /// Bit and phase flip.
    Y,
    /// Phase flip.
    Z,
}

impl Pauli {
    /// Uniformly random non-identity Pauli.
    pub fn random<R: Rng>(rng: &mut R) -> Self {
        match rng.gen_range(0..3) {
            0 => Pauli::X,
            1 => Pauli::Y,
            _ => Pauli::Z,
        }
    }

    /// The corresponding circuit gate on `qubit`.
    #[must_use]
    pub fn gate(self, qubit: usize) -> Gate {
        match self {
            Pauli::X => Gate::X(qubit),
            Pauli::Y => Gate::Y(qubit),
            Pauli::Z => Gate::Z(qubit),
        }
    }
}

/// One injected error: apply `pauli` to `qubit` after gate `after_gate`
/// (or, for [`NoisePlan::end_events`], after the whole circuit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoiseEvent {
    /// Index of the gate after which the error strikes.
    pub after_gate: usize,
    /// Affected qubit (compact register index).
    pub qubit: usize,
    /// The Pauli applied.
    pub pauli: Pauli,
}

/// The sampled error configuration of one trajectory.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NoisePlan {
    /// Gate-error events, sorted by `after_gate`.
    pub gate_events: Vec<NoiseEvent>,
    /// Idle-decoherence Paulis applied after the final gate.
    pub end_events: Vec<(usize, Pauli)>,
}

impl NoisePlan {
    /// `true` when the trajectory is noiseless (it samples the executor's
    /// shared ideal state directly — the executor's main fast path).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.gate_events.is_empty() && self.end_events.is_empty()
    }
}

/// Per-circuit noise parameters, resolved once from the device calibration
/// and reused across trajectories.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseModel {
    /// Per-gate error probability (index-aligned with the circuit's gates).
    gate_probs: Vec<f64>,
    /// Per-gate operand qubits in the compact register.
    gate_qubits: Vec<(usize, Option<usize>)>,
    /// Per-qubit end-of-circuit idle error probability.
    idle_probs: Vec<f64>,
}

impl NoiseModel {
    /// Builds the noise model for a circuit whose qubit `k` corresponds to
    /// physical qubit `physical[k]` on `device`.
    ///
    /// `gate_noise` and `decoherence` toggle the two channels (ablations).
    ///
    /// # Panics
    ///
    /// Panics if a two-qubit gate addresses a pair with no calibrated
    /// coupler (compiled circuits are always coupler-conformant).
    #[must_use]
    pub fn for_circuit(
        circuit: &Circuit,
        device: &Device,
        physical: &[usize],
        gate_noise: bool,
        decoherence: bool,
    ) -> Self {
        let cal = device.calibration();
        let mut gate_probs = Vec::with_capacity(circuit.gates().len());
        let mut gate_qubits = Vec::with_capacity(circuit.gates().len());
        for g in circuit.gates() {
            let (a, b) = g.qubits();
            gate_qubits.push((a, b));
            if !gate_noise {
                gate_probs.push(0.0);
                continue;
            }
            let p = match b {
                None => cal.gate_1q(physical[a]),
                Some(b) => {
                    let e = cal.gate_2q(physical[a], physical[b]);
                    // A SWAP is three CNOTs; fold into one opportunity.
                    match g.cnot_cost() {
                        1 => e,
                        k => 1.0 - (1.0 - e).powi(k as i32),
                    }
                }
            };
            gate_probs.push(p);
        }

        let depth = circuit.depth() as i32;
        let idle_probs =
            (0..circuit.n_qubits())
                .map(|q| {
                    if decoherence {
                        1.0 - (1.0 - cal.idle(physical[q])).powi(depth)
                    } else {
                        0.0
                    }
                })
                .collect();

        Self { gate_probs, gate_qubits, idle_probs }
    }

    /// A completely noiseless model for a circuit (ideal runs).
    #[must_use]
    pub fn noiseless(circuit: &Circuit) -> Self {
        Self {
            gate_probs: vec![0.0; circuit.gates().len()],
            gate_qubits: circuit.gates().iter().map(Gate::qubits).collect(),
            idle_probs: vec![0.0; circuit.n_qubits()],
        }
    }

    /// Expected number of error events per trajectory (diagnostic; also the
    /// knob tests use to confirm noise scales with circuit size).
    #[must_use]
    pub fn expected_events(&self) -> f64 {
        self.gate_probs.iter().sum::<f64>() + self.idle_probs.iter().sum::<f64>()
    }

    /// Samples one trajectory's error configuration.
    pub fn sample_plan<R: Rng>(&self, rng: &mut R) -> NoisePlan {
        let mut plan = NoisePlan::default();
        for (i, (&p, &(a, b))) in self.gate_probs.iter().zip(&self.gate_qubits).enumerate() {
            if p > 0.0 && rng.gen::<f64>() < p {
                match b {
                    None => plan.gate_events.push(NoiseEvent {
                        after_gate: i,
                        qubit: a,
                        pauli: Pauli::random(rng),
                    }),
                    Some(b) => {
                        // Uniform over the 15 non-identity two-qubit Paulis:
                        // draw (Pa, Pb) from 4×4 options, rejecting (I, I).
                        loop {
                            let pa = rng.gen_range(0..4);
                            let pb = rng.gen_range(0..4);
                            if pa == 0 && pb == 0 {
                                continue;
                            }
                            for (code, q) in [(pa, a), (pb, b)] {
                                if code > 0 {
                                    let pauli = match code {
                                        1 => Pauli::X,
                                        2 => Pauli::Y,
                                        _ => Pauli::Z,
                                    };
                                    plan.gate_events.push(NoiseEvent {
                                        after_gate: i,
                                        qubit: q,
                                        pauli,
                                    });
                                }
                            }
                            break;
                        }
                    }
                }
            }
        }
        for (q, &p) in self.idle_probs.iter().enumerate() {
            if p > 0.0 && rng.gen::<f64>() < p {
                plan.end_events.push((q, Pauli::random(rng)));
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn device_and_circuit() -> (Device, Circuit) {
        let device = Device::toronto();
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).measure_all();
        (device, c)
    }

    #[test]
    fn noiseless_model_never_fires() {
        let (_, c) = device_and_circuit();
        let model = NoiseModel::noiseless(&c);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            assert!(model.sample_plan(&mut rng).is_empty());
        }
        assert_eq!(model.expected_events(), 0.0);
    }

    #[test]
    fn model_uses_calibrated_rates() {
        let (device, c) = device_and_circuit();
        // Map circuit qubits onto the physical line 0-1-2 (couplers exist).
        let model = NoiseModel::for_circuit(&c, &device, &[0, 1, 2], true, true);
        assert!(model.expected_events() > 0.0);
        // Disabling both channels zeroes it.
        let off = NoiseModel::for_circuit(&c, &device, &[0, 1, 2], false, false);
        assert_eq!(off.expected_events(), 0.0);
    }

    #[test]
    fn deeper_circuits_expect_more_errors() {
        let device = Device::toronto();
        let mut shallow = Circuit::new(2);
        shallow.cx(0, 1);
        let mut deep = Circuit::new(2);
        for _ in 0..10 {
            deep.cx(0, 1);
        }
        let e_shallow =
            NoiseModel::for_circuit(&shallow, &device, &[0, 1], true, true).expected_events();
        let e_deep = NoiseModel::for_circuit(&deep, &device, &[0, 1], true, true).expected_events();
        assert!(e_deep > e_shallow * 5.0);
    }

    #[test]
    fn swap_costs_three_cnots_of_error() {
        let device = Device::toronto();
        let mut cx = Circuit::new(2);
        cx.cx(0, 1);
        let mut swap = Circuit::new(2);
        swap.swap(0, 1);
        let e_cx = NoiseModel::for_circuit(&cx, &device, &[0, 1], true, false).expected_events();
        let e_swap =
            NoiseModel::for_circuit(&swap, &device, &[0, 1], true, false).expected_events();
        assert!(e_swap > 2.9 * e_cx && e_swap < 3.0 * e_cx + 1e-9);
    }

    #[test]
    fn sampled_plans_are_sorted_and_in_range() {
        let (device, c) = device_and_circuit();
        let model = NoiseModel::for_circuit(&c, &device, &[0, 1, 2], true, true);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..200 {
            let plan = model.sample_plan(&mut rng);
            let mut last = 0;
            for ev in &plan.gate_events {
                assert!(ev.after_gate >= last);
                assert!(ev.after_gate < c.gates().len());
                assert!(ev.qubit < 3);
                last = ev.after_gate;
            }
        }
    }

    #[test]
    fn plan_sampling_is_seed_deterministic() {
        let (device, c) = device_and_circuit();
        let model = NoiseModel::for_circuit(&c, &device, &[0, 1, 2], true, true);
        let a: Vec<NoisePlan> =
            (0..20).map(|_| model.sample_plan(&mut StdRng::seed_from_u64(5))).collect();
        let b: Vec<NoisePlan> =
            (0..20).map(|_| model.sample_plan(&mut StdRng::seed_from_u64(5))).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn pauli_gate_mapping() {
        assert_eq!(Pauli::X.gate(2), Gate::X(2));
        assert_eq!(Pauli::Y.gate(0), Gate::Y(0));
        assert_eq!(Pauli::Z.gate(1), Gate::Z(1));
    }
}
