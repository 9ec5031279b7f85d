//! Expected Probability of Success (EPS) estimation — the objective
//! noise-aware compilation maximises (paper §4.1, following Nishio et al.).
//!
//! EPS multiplies the success probability of every gate and every
//! measurement in a *physical* circuit:
//!
//! ```text
//! EPS = Π_gates (1 − e_gate) · Π_measurements (1 − e_readout_eff)
//! ```
//!
//! The readout term uses crosstalk-inflated error rates, so a circuit that
//! measures fewer qubits (a CPM) automatically earns a higher readout EPS —
//! which is exactly how CPM recompilation "optimises for measurement
//! errors" (§4.2.2) without a separate objective.

use jigsaw_circuit::Circuit;
use jigsaw_device::Device;

/// EPS of a physical circuit on a device.
///
/// A SWAP is charged as three CNOTs on its coupler. Idle decoherence is not
/// part of EPS (matching the calibration-report-driven estimate compilers
/// use), but deeper circuits still score lower through their extra gates.
///
/// # Panics
///
/// Panics if a two-qubit gate addresses a non-coupled pair (the circuit is
/// not topology-conformant) or a qubit is out of range.
#[must_use]
pub fn eps(circuit: &Circuit, device: &Device) -> f64 {
    gate_eps(circuit, device) * readout_eps(circuit, device)
}

/// The gate factor of [`eps`].
///
/// # Panics
///
/// Panics if the circuit is not topology-conformant.
#[must_use]
pub fn gate_eps(circuit: &Circuit, device: &Device) -> f64 {
    let cal = device.calibration();
    let mut p = 1.0;
    for g in circuit.gates() {
        match g.qubits() {
            (q, None) => p *= 1.0 - cal.gate_1q(q),
            (a, Some(b)) => {
                let e = cal.gate_2q(a, b);
                p *= (1.0 - e).powi(g.cnot_cost() as i32);
            }
        }
    }
    p
}

/// The measurement factor of [`eps`]: each declared measurement succeeds
/// with `1 − e_eff`, where `e_eff` is the state-averaged readout error of
/// its physical qubit inflated by the circuit's simultaneous-measurement
/// count.
#[must_use]
pub fn readout_eps(circuit: &Circuit, device: &Device) -> f64 {
    let measured = circuit.measurements().iter().map(|meas| meas.qubit);
    measured_readout_eps(measured, circuit.measurements().len(), device)
}

/// [`readout_eps`] of a circuit whose `m` measurements read the physical
/// `qubits`, in measurement order — without materialising the circuit.
pub(crate) fn measured_readout_eps(
    qubits: impl Iterator<Item = usize>,
    m: usize,
    device: &Device,
) -> f64 {
    if m == 0 {
        return 1.0;
    }
    qubits.map(|q| 1.0 - device.effective_readout(q, m).mean()).product()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> Device {
        Device::toronto()
    }

    #[test]
    fn empty_circuit_has_unit_eps() {
        let c = Circuit::new(27);
        assert_eq!(eps(&c, &device()), 1.0);
    }

    #[test]
    fn more_gates_lower_eps() {
        let d = device();
        let mut short = Circuit::new(27);
        short.cx(0, 1);
        let mut long = Circuit::new(27);
        long.cx(0, 1).cx(0, 1).cx(0, 1);
        assert!(eps(&long, &d) < eps(&short, &d));
    }

    #[test]
    fn swap_costs_three_cnots() {
        let d = device();
        let mut swap = Circuit::new(27);
        swap.swap(0, 1);
        let mut three = Circuit::new(27);
        three.cx(0, 1).cx(0, 1).cx(0, 1);
        assert!((eps(&swap, &d) - eps(&three, &d)).abs() < 1e-12);
    }

    #[test]
    fn measuring_more_qubits_lowers_readout_eps() {
        let d = device();
        let mut few = Circuit::new(27);
        few.measure(0, 0).measure(1, 1);
        let mut many = Circuit::new(27);
        for q in 0..6 {
            many.measure(q, q);
        }
        assert!(readout_eps(&many, &d) < readout_eps(&few, &d));
    }

    #[test]
    fn readout_eps_prefers_good_qubits() {
        let d = device();
        let order = d.calibration().qubits_by_readout_quality();
        let (best, worst) = (order[0], order[26]);
        let mut on_best = Circuit::new(27);
        on_best.measure(best, 0);
        let mut on_worst = Circuit::new(27);
        on_worst.measure(worst, 0);
        assert!(readout_eps(&on_best, &d) > readout_eps(&on_worst, &d));
    }

    #[test]
    fn crosstalk_is_included() {
        // The same two measurements score better on a device without
        // crosstalk than with it when more qubits are measured.
        let d = device();
        let d_noct = d.clone().with_crosstalk(jigsaw_device::CrosstalkModel::none());
        let mut c = Circuit::new(27);
        for q in 0..8 {
            c.measure(q, q);
        }
        assert!(readout_eps(&c, &d_noct) > readout_eps(&c, &d));
    }

    #[test]
    #[should_panic(expected = "no calibrated coupler")]
    fn non_conformant_circuit_panics() {
        let mut c = Circuit::new(27);
        c.cx(0, 26);
        let _ = eps(&c, &device());
    }
}
