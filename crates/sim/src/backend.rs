//! The pluggable simulation-backend layer.
//!
//! [`SimBackend`] abstracts everything the executor needs from a state
//! representation — state preparation, gate application, Pauli error
//! injection, and measurement-outcome resolution — so the same trial
//! pipeline (trajectory batching, sorted-draw sampling, readout/crosstalk
//! flips) runs unchanged on either implementation:
//!
//! * [`DenseBackend`] — the full `2^n` [`StateVector`], any gate set, capped
//!   at [`MAX_SIM_QUBITS`] qubits.
//! * [`StabilizerBackend`] — the Clifford-only [`StabilizerTableau`], capped
//!   at [`MAX_STABILIZER_QUBITS`] qubits (a container limit, not a memory
//!   one).
//!
//! Outcome sampling shares one contract across backends: each trial spends
//! exactly one `u64` draw, and both backends map a draw to the support
//! element the dense inverse-CDF walk would pick (the stabilizer coset is
//! enumerated in basis-index order; see
//! [`OutcomeCoset`]). Identical draws therefore
//! produce identical histograms on both backends for any Clifford circuit
//! that fits the dense cap — the property the backend-agreement tests pin
//! down.

use jigsaw_circuit::clifford::is_clifford_gate;
use jigsaw_circuit::{Circuit, Gate};
use jigsaw_pmf::BitString;

use crate::noise::Pauli;
use crate::stabilizer::{OutcomeCoset, StabilizerTableau, MAX_STABILIZER_QUBITS};
use crate::statevector::{StateVector, MAX_SIM_QUBITS};

/// Which backend the executor should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// Pick automatically: the stabilizer tableau for Clifford circuits,
    /// the dense state vector otherwise.
    #[default]
    Auto,
    /// Force the dense state vector (e.g. to cross-check the fast path).
    Dense,
    /// Force the stabilizer tableau; panics on non-Clifford circuits.
    Stabilizer,
}

/// The backend a run resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Dense `2^n` state vector.
    Dense,
    /// Aaronson–Gottesman stabilizer tableau.
    Stabilizer,
}

impl BackendKind {
    /// Human-readable backend name for reports and error messages.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Dense => "dense state-vector",
            BackendKind::Stabilizer => "stabilizer tableau",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Wire format: one tag byte (`0` auto, `1` dense, `2` stabilizer).
impl jigsaw_pmf::codec::Encode for BackendChoice {
    fn encode(&self, w: &mut jigsaw_pmf::codec::Writer) {
        w.put_u8(match self {
            Self::Auto => 0,
            Self::Dense => 1,
            Self::Stabilizer => 2,
        });
    }
}

impl jigsaw_pmf::codec::Decode for BackendChoice {
    fn decode(
        r: &mut jigsaw_pmf::codec::Reader<'_>,
    ) -> Result<Self, jigsaw_pmf::codec::CodecError> {
        match r.u8()? {
            0 => Ok(Self::Auto),
            1 => Ok(Self::Dense),
            2 => Ok(Self::Stabilizer),
            tag => Err(jigsaw_pmf::codec::CodecError::InvalidTag { what: "BackendChoice", tag }),
        }
    }
}

/// Wire format: one tag byte (`0` dense, `1` stabilizer).
impl jigsaw_pmf::codec::Encode for BackendKind {
    fn encode(&self, w: &mut jigsaw_pmf::codec::Writer) {
        w.put_u8(match self {
            Self::Dense => 0,
            Self::Stabilizer => 1,
        });
    }
}

impl jigsaw_pmf::codec::Decode for BackendKind {
    fn decode(
        r: &mut jigsaw_pmf::codec::Reader<'_>,
    ) -> Result<Self, jigsaw_pmf::codec::CodecError> {
        match r.u8()? {
            0 => Ok(Self::Dense),
            1 => Ok(Self::Stabilizer),
            tag => Err(jigsaw_pmf::codec::CodecError::InvalidTag { what: "BackendKind", tag }),
        }
    }
}

/// Resolves the backend for a circuit, enforcing each backend's own width
/// cap with an error that names the backend, its cap and the way out.
///
/// The width checked is `circuit.n_qubits()`, so pass the *compacted*
/// circuit (active qubits only) when deciding for an execution — the
/// executor does.
///
/// # Panics
///
/// Panics when the choice cannot run the circuit: a forced or fallback
/// dense backend beyond [`MAX_SIM_QUBITS`], a forced stabilizer backend on
/// a non-Clifford circuit, or any circuit beyond
/// [`MAX_STABILIZER_QUBITS`].
#[must_use]
pub fn select_backend(circuit: &Circuit, choice: BackendChoice) -> BackendKind {
    let n = circuit.n_qubits();
    let dense_or_panic = |clifford: bool| {
        assert!(
            n <= MAX_SIM_QUBITS,
            "circuit activates {n} qubits; the dense state-vector backend caps at \
             {MAX_SIM_QUBITS}{}",
            if clifford { "" } else { " and the stabilizer backend cannot run non-Clifford gates" }
        );
        BackendKind::Dense
    };
    match choice {
        BackendChoice::Dense => dense_or_panic(true),
        BackendChoice::Stabilizer => {
            if let Some(bad) = circuit.gates().iter().find(|g| !is_clifford_gate(g)) {
                panic!("the stabilizer-tableau backend requires a Clifford circuit; {bad} is not");
            }
            assert!(
                n <= MAX_STABILIZER_QUBITS,
                "circuit activates {n} qubits; the stabilizer-tableau backend caps at \
                 {MAX_STABILIZER_QUBITS}"
            );
            BackendKind::Stabilizer
        }
        BackendChoice::Auto => {
            if jigsaw_circuit::clifford::is_clifford_circuit(circuit) {
                assert!(
                    n <= MAX_STABILIZER_QUBITS,
                    "circuit activates {n} qubits; even the stabilizer-tableau backend caps at \
                     {MAX_STABILIZER_QUBITS} (the outcome-container width)"
                );
                BackendKind::Stabilizer
            } else {
                dense_or_panic(false)
            }
        }
    }
}

/// What the executor needs from a state representation.
///
/// The lifecycle per trajectory is: a starting state — `|0…0⟩` from
/// [`new`](SimBackend::new), or a saved state taken over with
/// [`copy_from`](SimBackend::copy_from) → gates and injected Paulis →
/// [`prepare_sampling`](SimBackend::prepare_sampling) →
/// [`resolve_draws`](SimBackend::resolve_draws). Backends keep their
/// allocations across that cycle, so the executor's trajectory walkers
/// reuse one working state per walker instead of reallocating per batch.
pub trait SimBackend: Send + Sync {
    /// Creates the backend in `|0…0⟩` over `n_qubits`.
    ///
    /// # Panics
    ///
    /// Panics if the width exceeds the backend's cap.
    fn new(n_qubits: usize) -> Self
    where
        Self: Sized;

    /// Register width.
    fn n_qubits(&self) -> usize;

    /// Takes over `other`'s state, bit for bit, keeping this backend's
    /// allocation when the widths match. Sampling must be prepared again
    /// afterwards.
    fn copy_from(&mut self, other: &Self)
    where
        Self: Sized;

    /// Applies a circuit gate.
    ///
    /// # Panics
    ///
    /// Panics if the backend cannot represent the gate (stabilizer backend
    /// on a non-Clifford gate) — [`select_backend`] prevents that.
    fn apply_gate(&mut self, gate: &Gate);

    /// Injects a Pauli error (noise-trajectory events).
    fn apply_pauli(&mut self, qubit: usize, pauli: Pauli);

    /// Finalises the current state for outcome sampling (builds the dense
    /// CDF or extracts the stabilizer outcome coset). Must run after the
    /// last gate and before [`resolve_draws`](SimBackend::resolve_draws).
    fn prepare_sampling(&mut self);

    /// Maps uniform `u64` draws (one per trial, in trial order) to basis
    /// outcomes, appending to `out` in the same order.
    ///
    /// # Panics
    ///
    /// Panics if [`prepare_sampling`](SimBackend::prepare_sampling) has not
    /// run since the last state mutation.
    fn resolve_draws(&self, draws: &[u64], out: &mut Vec<BitString>);

    /// Exact basis-outcome distribution of the current state, omitting
    /// entries at or below `cutoff`.
    ///
    /// # Panics
    ///
    /// May panic if the support is too large to enumerate (stabilizer coset
    /// rank beyond [`crate::MAX_ENUM_RANK`]).
    fn basis_support(&self, cutoff: f64) -> Vec<(BitString, f64)>;

    /// Which backend this is (reports, error messages).
    fn kind(&self) -> BackendKind;
}

/// Dense state-vector backend: [`StateVector`] plus a reusable CDF buffer.
#[derive(Debug, Clone)]
pub struct DenseBackend {
    sv: StateVector,
    /// Cumulative distribution, rebuilt by `prepare_sampling`; empty while
    /// stale.
    cdf: Vec<f64>,
}

impl SimBackend for DenseBackend {
    fn new(n_qubits: usize) -> Self {
        Self { sv: StateVector::new(n_qubits), cdf: Vec::new() }
    }

    fn n_qubits(&self) -> usize {
        self.sv.n_qubits()
    }

    fn copy_from(&mut self, other: &Self) {
        self.sv.clone_from(&other.sv);
        self.cdf.clear();
    }

    fn apply_gate(&mut self, gate: &Gate) {
        self.cdf.clear();
        self.sv.apply(*gate);
    }

    fn apply_pauli(&mut self, qubit: usize, pauli: Pauli) {
        self.cdf.clear();
        self.sv.apply(pauli.gate(qubit));
    }

    fn prepare_sampling(&mut self) {
        self.sv.cumulative_into(&mut self.cdf);
    }

    fn resolve_draws(&self, draws: &[u64], out: &mut Vec<BitString>) {
        assert!(!self.cdf.is_empty(), "prepare_sampling must run before resolve_draws");
        resolve_sorted(&self.cdf, self.sv.n_qubits(), draws, out);
    }

    fn basis_support(&self, cutoff: f64) -> Vec<(BitString, f64)> {
        let n = self.sv.n_qubits();
        self.sv
            .probabilities()
            .into_iter()
            .enumerate()
            .filter(|(_, p)| *p > cutoff)
            .map(|(idx, p)| (BitString::from_u64(idx as u64, n), p))
            .collect()
    }

    fn kind(&self) -> BackendKind {
        BackendKind::Dense
    }
}

/// Stabilizer-tableau backend: [`StabilizerTableau`] plus its prepared
/// outcome coset.
#[derive(Debug, Clone)]
pub struct StabilizerBackend {
    tab: StabilizerTableau,
    coset: Option<OutcomeCoset>,
}

impl SimBackend for StabilizerBackend {
    fn new(n_qubits: usize) -> Self {
        Self { tab: StabilizerTableau::new(n_qubits), coset: None }
    }

    fn n_qubits(&self) -> usize {
        self.tab.n_qubits()
    }

    fn copy_from(&mut self, other: &Self) {
        self.tab.clone_from(&other.tab);
        self.coset = None;
    }

    fn apply_gate(&mut self, gate: &Gate) {
        self.coset = None;
        self.tab.apply_gate(gate);
    }

    fn apply_pauli(&mut self, qubit: usize, pauli: Pauli) {
        self.coset = None;
        self.tab.apply_gate(&pauli.gate(qubit));
    }

    fn prepare_sampling(&mut self) {
        self.coset = Some(self.tab.outcome_coset());
    }

    fn resolve_draws(&self, draws: &[u64], out: &mut Vec<BitString>) {
        let coset = self.coset.as_ref().expect("prepare_sampling must run before resolve_draws");
        out.extend(draws.iter().map(|&u| coset.resolve(u)));
    }

    fn basis_support(&self, cutoff: f64) -> Vec<(BitString, f64)> {
        self.tab.outcome_coset().support().into_iter().filter(|(_, p)| *p > cutoff).collect()
    }

    fn kind(&self) -> BackendKind {
        BackendKind::Stabilizer
    }
}

/// Resolves a batch of draws against a CDF in one forward sweep.
///
/// Draws are sorted (with their trial index) and walked alongside the CDF,
/// so a batch of `k` trials costs one `O(k log k)` sort plus a single CDF
/// pass instead of `k` binary searches — and the sweep resolves each draw
/// to exactly the index a per-draw binary search would (first entry
/// strictly above the target), so histograms are bit-identical to the
/// per-trial formulation.
fn resolve_sorted(cdf: &[f64], n_qubits: usize, draws: &[u64], out: &mut Vec<BitString>) {
    let total = *cdf.last().expect("non-empty cdf");
    let mut order: Vec<(u64, u32)> =
        draws.iter().enumerate().map(|(i, &u)| (u, i as u32)).collect();
    order.sort_unstable();

    let start = out.len();
    out.resize(start + draws.len(), BitString::zeros(n_qubits));
    let mut pos = 0usize;
    for (u, i) in order {
        // The same [0, 1) mapping `Rng::gen::<f64>()` uses: top 53 bits.
        let target = (u >> 11) as f64 * (1.0 / (1u64 << 53) as f64) * total;
        while pos + 1 < cdf.len() && cdf[pos] <= target {
            pos += 1;
        }
        out[start + i as usize] = BitString::from_u64(pos as u64, n_qubits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn select_routes_clifford_to_stabilizer_and_rest_to_dense() {
        let mut clifford = Circuit::new(3);
        clifford.h(0).cx(0, 1).rz(2, std::f64::consts::FRAC_PI_2);
        assert_eq!(select_backend(&clifford, BackendChoice::Auto), BackendKind::Stabilizer);
        assert_eq!(select_backend(&clifford, BackendChoice::Dense), BackendKind::Dense);

        let mut generic = Circuit::new(3);
        generic.h(0).rz(1, 0.3);
        assert_eq!(select_backend(&generic, BackendChoice::Auto), BackendKind::Dense);
    }

    #[test]
    fn wide_clifford_circuits_escape_the_dense_cap() {
        let mut c = Circuit::new(MAX_SIM_QUBITS + 16);
        c.h(0);
        for q in 0..MAX_SIM_QUBITS + 15 {
            c.cx(q, q + 1);
        }
        assert_eq!(select_backend(&c, BackendChoice::Auto), BackendKind::Stabilizer);
    }

    #[test]
    #[should_panic(expected = "dense state-vector backend caps at")]
    fn wide_non_clifford_circuit_names_the_dense_cap() {
        let mut c = Circuit::new(MAX_SIM_QUBITS + 1);
        for q in 0..c.n_qubits() {
            c.rz(q, 0.3);
        }
        let _ = select_backend(&c, BackendChoice::Auto);
    }

    #[test]
    #[should_panic(expected = "requires a Clifford circuit")]
    fn forcing_stabilizer_on_non_clifford_names_the_gate() {
        let mut c = Circuit::new(2);
        c.h(0).rz(1, 0.3);
        let _ = select_backend(&c, BackendChoice::Stabilizer);
    }

    #[test]
    fn sorted_sweep_matches_per_draw_binary_search() {
        let mut rng = StdRng::seed_from_u64(5);
        // A lumpy CDF with zero-probability gaps.
        let probs = [0.05, 0.0, 0.3, 0.0, 0.0, 0.15, 0.25, 0.05, 0.2, 0.0];
        let mut cdf = Vec::new();
        let mut acc = 0.0;
        for p in probs {
            acc += p;
            cdf.push(acc);
        }
        let draws: Vec<u64> = (0..4096).map(|_| rng.gen()).collect();
        let mut swept = Vec::new();
        resolve_sorted(&cdf, 4, &draws, &mut swept);
        for (&u, got) in draws.iter().zip(&swept) {
            let target = (u >> 11) as f64 * (1.0 / (1u64 << 53) as f64) * acc;
            let expect = match cdf.binary_search_by(|p| p.partial_cmp(&target).expect("finite")) {
                Ok(i) => (i + 1).min(cdf.len() - 1),
                Err(i) => i.min(cdf.len() - 1),
            };
            assert_eq!(got.to_u64(), expect as u64, "draw {u:#x}");
        }
    }

    #[test]
    fn both_backends_resolve_identical_outcomes_for_shared_draws() {
        let gates =
            [Gate::H(0), Gate::Cx(0, 1), Gate::X(2), Gate::Cz(1, 2), Gate::H(2), Gate::S(0)];
        let mut dense = DenseBackend::new(3);
        let mut stab = StabilizerBackend::new(3);
        for g in &gates {
            dense.apply_gate(g);
            stab.apply_gate(g);
        }
        dense.prepare_sampling();
        stab.prepare_sampling();
        let mut rng = StdRng::seed_from_u64(77);
        let draws: Vec<u64> = (0..2000).map(|_| rng.gen()).collect();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        dense.resolve_draws(&draws, &mut a);
        stab.resolve_draws(&draws, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn basis_support_agrees_between_backends() {
        let gates = [Gate::H(0), Gate::Cx(0, 1), Gate::Sdg(1)];
        let mut dense = DenseBackend::new(2);
        let mut stab = StabilizerBackend::new(2);
        for g in &gates {
            dense.apply_gate(g);
            stab.apply_gate(g);
        }
        let d = dense.basis_support(1e-12);
        let s = stab.basis_support(1e-12);
        assert_eq!(d.len(), s.len());
        for ((ob, pb), (os, ps)) in d.iter().zip(&s) {
            assert_eq!(ob, os);
            assert!((pb - ps).abs() < 1e-12);
        }
    }
}
