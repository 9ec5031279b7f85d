//! Dense state-vector simulation.

use jigsaw_circuit::Gate;
use jigsaw_pmf::BitString;
use rand::Rng;

use crate::complex::{c, Complex};

/// Maximum simulated register width (memory: `16·2^24` bytes = 256 MiB).
pub const MAX_SIM_QUBITS: usize = 24;

/// A dense `2^n` state vector with the workspace's bit convention
/// (amplitude index bit *i* = qubit *i*).
///
/// # Examples
///
/// ```
/// use jigsaw_circuit::Gate;
/// use jigsaw_sim::StateVector;
///
/// let mut sv = StateVector::new(2);
/// sv.apply(Gate::H(0));
/// sv.apply(Gate::Cx(0, 1));
/// // Bell state: only |00⟩ and |11⟩ have weight.
/// assert!((sv.probability(0b00) - 0.5).abs() < 1e-12);
/// assert!((sv.probability(0b11) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, PartialEq)]
pub struct StateVector {
    n_qubits: usize,
    amps: Vec<Complex>,
}

impl Clone for StateVector {
    fn clone(&self) -> Self {
        Self { n_qubits: self.n_qubits, amps: self.amps.clone() }
    }

    /// Copies `source` into this vector's buffer: no allocation when the
    /// widths match (the executor's per-trajectory working state).
    fn clone_from(&mut self, source: &Self) {
        self.n_qubits = source.n_qubits;
        self.amps.clone_from(&source.amps);
    }
}

impl StateVector {
    /// Creates `|0…0⟩` over `n_qubits`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` exceeds [`MAX_SIM_QUBITS`].
    #[must_use]
    pub fn new(n_qubits: usize) -> Self {
        assert!(
            n_qubits <= MAX_SIM_QUBITS,
            "state vector capped at {MAX_SIM_QUBITS} qubits, got {n_qubits}"
        );
        let mut amps = vec![Complex::ZERO; 1 << n_qubits];
        amps[0] = Complex::ONE;
        Self { n_qubits, amps }
    }

    /// Register width.
    #[must_use]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Amplitude of a basis state.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    #[must_use]
    pub fn amplitude(&self, basis: usize) -> Complex {
        self.amps[basis]
    }

    /// Measurement probability of a basis state.
    #[must_use]
    pub fn probability(&self, basis: usize) -> f64 {
        self.amps[basis].norm_sqr()
    }

    /// Total norm `Σ|ψ|²` (1 up to rounding for a valid state).
    #[must_use]
    pub fn norm(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Applies a gate in place.
    pub fn apply(&mut self, gate: Gate) {
        match gate {
            Gate::Cx(control, target) => self.apply_cx(control, target),
            Gate::Cz(a, b) => self.apply_cz(a, b),
            Gate::Swap(a, b) => self.apply_swap(a, b),
            g => {
                let (q, _) = g.qubits();
                self.apply_1q(q, &matrix_1q(&g));
            }
        }
    }

    /// Applies every gate of a sequence.
    pub fn apply_all<'a>(&mut self, gates: impl IntoIterator<Item = &'a Gate>) {
        for g in gates {
            self.apply(*g);
        }
    }

    /// Applies a 2×2 unitary `[[m00, m01], [m10, m11]]` to `qubit`.
    ///
    /// # Panics
    ///
    /// Panics if the qubit is out of range.
    pub fn apply_1q(&mut self, qubit: usize, m: &[[Complex; 2]; 2]) {
        assert!(qubit < self.n_qubits, "qubit {qubit} out of range");
        let stride = 1usize << qubit;
        let n = self.amps.len();
        let mut base = 0;
        while base < n {
            for i in base..base + stride {
                let a0 = self.amps[i];
                let a1 = self.amps[i + stride];
                self.amps[i] = m[0][0] * a0 + m[0][1] * a1;
                self.amps[i + stride] = m[1][0] * a0 + m[1][1] * a1;
            }
            base += stride << 1;
        }
    }

    fn apply_cx(&mut self, control: usize, target: usize) {
        let cmask = 1usize << control;
        let tmask = 1usize << target;
        for i in 0..self.amps.len() {
            if i & cmask != 0 && i & tmask == 0 {
                self.amps.swap(i, i | tmask);
            }
        }
    }

    fn apply_cz(&mut self, a: usize, b: usize) {
        let mask = (1usize << a) | (1usize << b);
        for (i, amp) in self.amps.iter_mut().enumerate() {
            if i & mask == mask {
                *amp = -*amp;
            }
        }
    }

    fn apply_swap(&mut self, a: usize, b: usize) {
        let amask = 1usize << a;
        let bmask = 1usize << b;
        for i in 0..self.amps.len() {
            // Visit each mismatched pair once (a-bit set, b-bit clear).
            if i & amask != 0 && i & bmask == 0 {
                self.amps.swap(i, (i & !amask) | bmask);
            }
        }
    }

    /// Measurement distribution over all basis states (`2^n` dense vector).
    #[must_use]
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Draws `count` measurement outcomes over the full register.
    ///
    /// Sampling uses an inverse-CDF walk over the dense probability vector;
    /// cost is `O(2^n + count·n)`.
    pub fn sample<R: Rng>(&self, count: usize, rng: &mut R) -> Vec<BitString> {
        let cdf = self.cumulative();
        (0..count).map(|_| self.sample_from_cdf(&cdf, rng)).collect()
    }

    /// Precomputes the cumulative distribution for repeated sampling.
    #[must_use]
    pub fn cumulative(&self) -> Vec<f64> {
        let mut cdf = Vec::new();
        self.cumulative_into(&mut cdf);
        cdf
    }

    /// Writes the cumulative distribution into `out`, reusing its capacity
    /// (the executor's dense backend rebuilds the CDF per trajectory).
    pub fn cumulative_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.amps.len());
        let mut acc = 0.0;
        out.extend(self.amps.iter().map(|a| {
            acc += a.norm_sqr();
            acc
        }));
    }

    /// Draws one outcome given a precomputed [`StateVector::cumulative`].
    pub fn sample_from_cdf<R: Rng>(&self, cdf: &[f64], rng: &mut R) -> BitString {
        let total = *cdf.last().expect("non-empty register");
        let u: f64 = rng.gen::<f64>() * total;
        let idx = match cdf.binary_search_by(|p| p.partial_cmp(&u).expect("finite")) {
            Ok(i) => (i + 1).min(cdf.len() - 1),
            Err(i) => i.min(cdf.len() - 1),
        };
        BitString::from_u64(idx as u64, self.n_qubits)
    }
}

/// The 2×2 unitary of a single-qubit [`Gate`].
///
/// # Panics
///
/// Panics if called with a two-qubit gate.
#[must_use]
pub fn matrix_1q(gate: &Gate) -> [[Complex; 2]; 2] {
    use std::f64::consts::FRAC_1_SQRT_2 as R;
    match *gate {
        Gate::H(_) => [[c(R, 0.0), c(R, 0.0)], [c(R, 0.0), c(-R, 0.0)]],
        Gate::X(_) => [[Complex::ZERO, Complex::ONE], [Complex::ONE, Complex::ZERO]],
        Gate::Y(_) => [[Complex::ZERO, c(0.0, -1.0)], [Complex::I, Complex::ZERO]],
        Gate::Z(_) => [[Complex::ONE, Complex::ZERO], [Complex::ZERO, c(-1.0, 0.0)]],
        Gate::S(_) => [[Complex::ONE, Complex::ZERO], [Complex::ZERO, Complex::I]],
        Gate::Sdg(_) => [[Complex::ONE, Complex::ZERO], [Complex::ZERO, c(0.0, -1.0)]],
        Gate::T(_) => [
            [Complex::ONE, Complex::ZERO],
            [Complex::ZERO, Complex::from_angle(std::f64::consts::FRAC_PI_4)],
        ],
        Gate::Tdg(_) => [
            [Complex::ONE, Complex::ZERO],
            [Complex::ZERO, Complex::from_angle(-std::f64::consts::FRAC_PI_4)],
        ],
        Gate::Sx(_) => [[c(0.5, 0.5), c(0.5, -0.5)], [c(0.5, -0.5), c(0.5, 0.5)]],
        Gate::Rx(_, t) => {
            let (s, co) = ((t / 2.0).sin(), (t / 2.0).cos());
            [[c(co, 0.0), c(0.0, -s)], [c(0.0, -s), c(co, 0.0)]]
        }
        Gate::Ry(_, t) => {
            let (s, co) = ((t / 2.0).sin(), (t / 2.0).cos());
            [[c(co, 0.0), c(-s, 0.0)], [c(s, 0.0), c(co, 0.0)]]
        }
        Gate::Rz(_, t) => [
            [Complex::from_angle(-t / 2.0), Complex::ZERO],
            [Complex::ZERO, Complex::from_angle(t / 2.0)],
        ],
        Gate::U3(_, theta, phi, lambda) => {
            let (s, co) = ((theta / 2.0).sin(), (theta / 2.0).cos());
            [
                [c(co, 0.0), -(Complex::from_angle(lambda).scale(s))],
                [Complex::from_angle(phi).scale(s), Complex::from_angle(phi + lambda).scale(co)],
            ]
        }
        g => panic!("matrix_1q called with the two-qubit gate {g}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-10, "{a} vs {b}");
    }

    #[test]
    fn clone_from_copies_into_the_existing_buffer() {
        let mut source = StateVector::new(3);
        source.apply_all(&[Gate::H(0), Gate::Rx(1, 0.4), Gate::Cx(0, 2)]);
        let mut copy = StateVector::new(3);
        let buffer = copy.amps.as_ptr();
        copy.clone_from(&source);
        assert_eq!(copy, source);
        assert_eq!(copy.amps.as_ptr(), buffer);
    }

    #[test]
    fn fresh_state_is_all_zero() {
        let sv = StateVector::new(3);
        assert_close(sv.probability(0), 1.0);
        assert_close(sv.norm(), 1.0);
    }

    #[test]
    fn x_flips() {
        let mut sv = StateVector::new(2);
        sv.apply(Gate::X(1));
        assert_close(sv.probability(0b10), 1.0);
    }

    #[test]
    fn h_gives_uniform_superposition() {
        let mut sv = StateVector::new(1);
        sv.apply(Gate::H(0));
        assert_close(sv.probability(0), 0.5);
        assert_close(sv.probability(1), 0.5);
        // H² = I.
        sv.apply(Gate::H(0));
        assert_close(sv.probability(0), 1.0);
    }

    #[test]
    fn bell_state() {
        let mut sv = StateVector::new(2);
        sv.apply(Gate::H(0));
        sv.apply(Gate::Cx(0, 1));
        assert_close(sv.probability(0b00), 0.5);
        assert_close(sv.probability(0b11), 0.5);
        assert_close(sv.probability(0b01), 0.0);
    }

    #[test]
    fn ghz_state_at_width() {
        let n = 10;
        let mut sv = StateVector::new(n);
        sv.apply(Gate::H(0));
        for q in 0..n - 1 {
            sv.apply(Gate::Cx(q, q + 1));
        }
        assert_close(sv.probability(0), 0.5);
        assert_close(sv.probability((1 << n) - 1), 0.5);
        assert_close(sv.norm(), 1.0);
    }

    #[test]
    fn cz_phases_only_the_11_component() {
        let mut sv = StateVector::new(2);
        sv.apply(Gate::H(0));
        sv.apply(Gate::H(1));
        sv.apply(Gate::Cz(0, 1));
        assert!((sv.amplitude(0b11).re + 0.5).abs() < 1e-12);
        assert!((sv.amplitude(0b01).re - 0.5).abs() < 1e-12);
    }

    #[test]
    fn swap_exchanges_qubits() {
        let mut sv = StateVector::new(2);
        sv.apply(Gate::X(0));
        sv.apply(Gate::Swap(0, 1));
        assert_close(sv.probability(0b10), 1.0);
    }

    #[test]
    fn rotation_gates_are_unitary() {
        let mut sv = StateVector::new(1);
        sv.apply(Gate::H(0));
        for g in [Gate::Rx(0, 0.7), Gate::Ry(0, 1.3), Gate::Rz(0, 2.1), Gate::U3(0, 0.5, 1.0, 1.5)]
        {
            sv.apply(g);
            assert_close(sv.norm(), 1.0);
        }
    }

    #[test]
    fn rx_pi_equals_x_up_to_phase() {
        let mut a = StateVector::new(1);
        a.apply(Gate::Rx(0, std::f64::consts::PI));
        assert_close(a.probability(1), 1.0);
    }

    #[test]
    fn u3_prepares_expected_p1() {
        let theta = 1.1;
        let mut sv = StateVector::new(1);
        sv.apply(Gate::U3(0, theta, 0.4, 0.9));
        assert_close(sv.probability(1), (theta / 2.0).sin().powi(2));
    }

    #[test]
    fn sx_squared_is_x() {
        let mut sv = StateVector::new(1);
        sv.apply(Gate::Sx(0));
        sv.apply(Gate::Sx(0));
        assert_close(sv.probability(1), 1.0);
    }

    #[test]
    fn zz_decomposition_matches_cz_phase_structure() {
        // ZZ(π) ≡ CZ up to global phase: |11⟩ and |00⟩ get opposite sign vs
        // |01⟩/|10⟩.
        let mut sv = StateVector::new(2);
        sv.apply(Gate::H(0));
        sv.apply(Gate::H(1));
        sv.apply(Gate::Cx(0, 1));
        sv.apply(Gate::Rz(1, std::f64::consts::PI));
        sv.apply(Gate::Cx(0, 1));
        let a00 = sv.amplitude(0b00);
        let a01 = sv.amplitude(0b01);
        let a11 = sv.amplitude(0b11);
        assert!((a00.im + 0.5).abs() < 1e-12 || (a00.im - 0.5).abs() < 1e-12);
        assert_close((a00 - a11).norm_sqr(), 0.0);
        assert_close((a00 + a01).norm_sqr(), 0.0);
    }

    #[test]
    fn sampling_respects_distribution() {
        let mut sv = StateVector::new(2);
        sv.apply(Gate::H(0));
        sv.apply(Gate::Cx(0, 1));
        let mut rng = StdRng::seed_from_u64(3);
        let samples = sv.sample(4000, &mut rng);
        let ones = samples.iter().filter(|b| b.bit(0)).count();
        assert!((ones as f64 / 4000.0 - 0.5).abs() < 0.05);
        for s in &samples {
            assert!(s.bit(0) == s.bit(1), "GHZ correlation violated");
        }
    }

    #[test]
    fn apply_all_matches_sequential() {
        let gates = vec![Gate::H(0), Gate::Cx(0, 1), Gate::Rz(1, 0.3)];
        let mut a = StateVector::new(2);
        a.apply_all(&gates);
        let mut b = StateVector::new(2);
        for g in &gates {
            b.apply(*g);
        }
        assert_eq!(a, b);
    }
}
