//! Aaronson–Gottesman stabilizer-tableau simulation — the Clifford fast
//! path.
//!
//! A stabilizer state over `n` qubits is represented by `2n` Pauli
//! generators (n destabilizers + n stabilizers) in the binary-symplectic
//! encoding of the CHP algorithm \[Aaronson & Gottesman, PRA 70, 052328\]:
//! each generator is an X-bit row, a Z-bit row and a sign bit. Clifford
//! gates update the tableau in `O(n)` and measurements in `O(n²)`, so
//! circuits from the GHZ / BV / Graycode family simulate in microseconds at
//! widths where the dense `2^n` state vector is physically impossible.
//!
//! Measurement-outcome *sampling* exploits the structure of stabilizer
//! states: the computational-basis support is a coset `v₀ ⊕ span(B)` of a
//! GF(2) subspace (the span of the stabilizer generators' X-parts), with
//! every element equally likely. [`StabilizerTableau::outcome_coset`]
//! extracts that coset once per trajectory; each trial then maps a `u64`
//! draw to an outcome with a handful of XORs — no `2^n` scan anywhere.

use jigsaw_circuit::clifford::{clifford_ops, CliffordOp};
use jigsaw_circuit::Gate;
use jigsaw_pmf::BitString;

/// Maximum tableau width. Bounded by the outcome container
/// ([`jigsaw_pmf::MAX_BITS`]), not by memory: a 256-qubit tableau is ~64 KiB.
pub const MAX_STABILIZER_QUBITS: usize = jigsaw_pmf::MAX_BITS;

/// Largest coset rank [`OutcomeCoset::support`] will enumerate (2^20
/// outcomes). Sampling has no such limit — only exhaustive enumeration does.
pub const MAX_ENUM_RANK: usize = 20;

/// A stabilizer state in CHP tableau form.
///
/// Rows `0..n` are destabilizers, rows `n..2n` stabilizers; row `2n` is the
/// scratch row used by deterministic measurement. X/Z bit matrices are
/// packed 64 columns per word.
///
/// # Examples
///
/// ```
/// use jigsaw_circuit::Gate;
/// use jigsaw_sim::StabilizerTableau;
///
/// let mut tab = StabilizerTableau::new(40);
/// tab.apply_gate(&Gate::H(0));
/// for q in 0..39 {
///     tab.apply_gate(&Gate::Cx(q, q + 1));
/// }
/// // The 40-qubit GHZ support is the two cat outcomes, each at ½.
/// let coset = tab.outcome_coset();
/// let support = coset.support();
/// assert_eq!(support.len(), 2);
/// assert!((support[0].1 - 0.5).abs() < 1e-15);
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct StabilizerTableau {
    n: usize,
    /// Words per row.
    words: usize,
    /// X bits, `(2n + 1) × words`, row-major.
    xs: Vec<u64>,
    /// Z bits, same layout.
    zs: Vec<u64>,
    /// Sign bits (`0` = `+`, `1` = `−`), one per row.
    sign: Vec<u8>,
}

impl Clone for StabilizerTableau {
    fn clone(&self) -> Self {
        Self {
            n: self.n,
            words: self.words,
            xs: self.xs.clone(),
            zs: self.zs.clone(),
            sign: self.sign.clone(),
        }
    }

    /// Copies `source` into this tableau's buffers: no allocation when the
    /// widths match (the executor's per-trajectory working state).
    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.words = source.words;
        self.xs.clone_from(&source.xs);
        self.zs.clone_from(&source.zs);
        self.sign.clone_from(&source.sign);
    }
}

impl StabilizerTableau {
    /// Creates the tableau of `|0…0⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` exceeds [`MAX_STABILIZER_QUBITS`].
    #[must_use]
    pub fn new(n_qubits: usize) -> Self {
        assert!(
            n_qubits <= MAX_STABILIZER_QUBITS,
            "stabilizer tableau capped at {MAX_STABILIZER_QUBITS} qubits, got {n_qubits}"
        );
        let words = n_qubits.div_ceil(64).max(1);
        let rows = 2 * n_qubits + 1;
        let mut tab = Self {
            n: n_qubits,
            words,
            xs: vec![0; rows * words],
            zs: vec![0; rows * words],
            sign: vec![0; rows],
        };
        tab.reset();
        tab
    }

    /// Register width.
    #[must_use]
    pub fn n_qubits(&self) -> usize {
        self.n
    }

    /// Returns the state to `|0…0⟩` without reallocating.
    pub fn reset(&mut self) {
        self.xs.fill(0);
        self.zs.fill(0);
        self.sign.fill(0);
        for i in 0..self.n {
            // Destabilizer i = X_i, stabilizer i = Z_i.
            set_bit(&mut self.xs, self.words, i, i);
            set_bit(&mut self.zs, self.words, self.n + i, i);
        }
    }

    /// Applies a Clifford primitive.
    pub fn apply_op(&mut self, op: CliffordOp) {
        match op {
            CliffordOp::H(q) => self.h(q),
            CliffordOp::S(q) => self.s(q),
            CliffordOp::Sdg(q) => self.sdg(q),
            CliffordOp::X(q) => self.x(q),
            CliffordOp::Y(q) => self.y(q),
            CliffordOp::Z(q) => self.z(q),
            CliffordOp::Cx(a, b) => self.cx(a, b),
            CliffordOp::Cz(a, b) => {
                self.h(b);
                self.cx(a, b);
                self.h(b);
            }
            CliffordOp::Swap(a, b) => self.swap(a, b),
        }
    }

    /// Applies a circuit gate.
    ///
    /// # Panics
    ///
    /// Panics if the gate is not Clifford — callers dispatch on
    /// [`jigsaw_circuit::clifford::is_clifford_circuit`] first.
    pub fn apply_gate(&mut self, gate: &Gate) {
        let ops = clifford_ops(gate)
            .unwrap_or_else(|| panic!("non-Clifford gate {gate} reached the stabilizer backend"));
        for &op in &ops {
            self.apply_op(op);
        }
    }

    fn h(&mut self, q: usize) {
        let (w, m) = (q / 64, 1u64 << (q % 64));
        for row in 0..2 * self.n {
            let xi = row * self.words + w;
            let x = self.xs[xi] & m;
            let z = self.zs[xi] & m;
            if x != 0 && z != 0 {
                self.sign[row] ^= 1;
            }
            self.xs[xi] = (self.xs[xi] & !m) | z;
            self.zs[xi] = (self.zs[xi] & !m) | x;
        }
    }

    fn s(&mut self, q: usize) {
        let (w, m) = (q / 64, 1u64 << (q % 64));
        for row in 0..2 * self.n {
            let xi = row * self.words + w;
            let x = self.xs[xi] & m;
            if x != 0 && self.zs[xi] & m != 0 {
                self.sign[row] ^= 1;
            }
            self.zs[xi] ^= x;
        }
    }

    fn sdg(&mut self, q: usize) {
        // S† = Z·S (diagonal gates commute); fold both sign updates.
        let (w, m) = (q / 64, 1u64 << (q % 64));
        for row in 0..2 * self.n {
            let xi = row * self.words + w;
            let x = self.xs[xi] & m;
            if x != 0 {
                self.sign[row] ^= 1; // Z part
                if self.zs[xi] & m != 0 {
                    self.sign[row] ^= 1; // S part
                }
            }
            self.zs[xi] ^= x;
        }
    }

    fn x(&mut self, q: usize) {
        let (w, m) = (q / 64, 1u64 << (q % 64));
        for row in 0..2 * self.n {
            if self.zs[row * self.words + w] & m != 0 {
                self.sign[row] ^= 1;
            }
        }
    }

    fn y(&mut self, q: usize) {
        let (w, m) = (q / 64, 1u64 << (q % 64));
        for row in 0..2 * self.n {
            let xi = row * self.words + w;
            if (self.xs[xi] ^ self.zs[xi]) & m != 0 {
                self.sign[row] ^= 1;
            }
        }
    }

    fn z(&mut self, q: usize) {
        let (w, m) = (q / 64, 1u64 << (q % 64));
        for row in 0..2 * self.n {
            if self.xs[row * self.words + w] & m != 0 {
                self.sign[row] ^= 1;
            }
        }
    }

    fn cx(&mut self, a: usize, b: usize) {
        let (wa, ma) = (a / 64, 1u64 << (a % 64));
        let (wb, mb) = (b / 64, 1u64 << (b % 64));
        for row in 0..2 * self.n {
            let base = row * self.words;
            let xa = self.xs[base + wa] & ma != 0;
            let za = self.zs[base + wa] & ma != 0;
            let xb = self.xs[base + wb] & mb != 0;
            let zb = self.zs[base + wb] & mb != 0;
            if xa && zb && (xb == za) {
                self.sign[row] ^= 1;
            }
            if xa {
                self.xs[base + wb] ^= mb;
            }
            if zb {
                self.zs[base + wa] ^= ma;
            }
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        let (wa, ma) = (a / 64, 1u64 << (a % 64));
        let (wb, mb) = (b / 64, 1u64 << (b % 64));
        for row in 0..2 * self.n {
            let base = row * self.words;
            for arr in [&mut self.xs, &mut self.zs] {
                let bit_a = arr[base + wa] & ma != 0;
                let bit_b = arr[base + wb] & mb != 0;
                if bit_a != bit_b {
                    arr[base + wa] ^= ma;
                    arr[base + wb] ^= mb;
                }
            }
        }
    }

    /// Row `h` ← row `h` · row `i` with exact sign tracking (the CHP
    /// `rowsum`). The phase exponent accumulates mod 4 and always lands on
    /// 0 or 2 for commuting products.
    fn rowsum(&mut self, h: usize, i: usize) {
        let mut phase = i32::from(self.sign[h]) * 2 + i32::from(self.sign[i]) * 2;
        let (bh, bi) = (h * self.words, i * self.words);
        for w in 0..self.words {
            let (x1, z1) = (self.xs[bi + w], self.zs[bi + w]);
            let (x2, z2) = (self.xs[bh + w], self.zs[bh + w]);
            let mut live = x1 | z1;
            while live != 0 {
                let m = live & live.wrapping_neg();
                live ^= m;
                let (a1, c1) = (x1 & m != 0, z1 & m != 0);
                let (a2, c2) = (x2 & m != 0, z2 & m != 0);
                phase += match (a1, c1) {
                    (false, false) => 0,
                    (true, true) => i32::from(c2) - i32::from(a2),
                    (true, false) => i32::from(c2) * (2 * i32::from(a2) - 1),
                    (false, true) => i32::from(a2) * (1 - 2 * i32::from(c2)),
                };
            }
        }
        for w in 0..self.words {
            self.xs[bh + w] ^= self.xs[bi + w];
            self.zs[bh + w] ^= self.zs[bi + w];
        }
        self.sign[h] = u8::from(phase.rem_euclid(4) == 2);
    }

    /// Measures qubit `q` in the computational basis, collapsing the state.
    ///
    /// `forced` supplies the outcome when it is genuinely random (both
    /// results have probability ½); a deterministic outcome ignores it.
    /// Returns the outcome bit.
    pub fn measure_forced(&mut self, q: usize, forced: bool) -> bool {
        let (w, m) = (q / 64, 1u64 << (q % 64));
        let pivot = (self.n..2 * self.n).find(|&row| self.xs[row * self.words + w] & m != 0);
        match pivot {
            Some(p) => {
                for row in 0..2 * self.n {
                    if row != p && self.xs[row * self.words + w] & m != 0 {
                        self.rowsum(row, p);
                    }
                }
                // Old stabilizer becomes the destabilizer; the new
                // stabilizer is ±Z_q with the chosen sign.
                let (dst, src) = (p - self.n, p);
                for arr in [&mut self.xs, &mut self.zs] {
                    arr.copy_within(src * self.words..(src + 1) * self.words, dst * self.words);
                }
                self.sign[dst] = self.sign[src];
                for arr in [&mut self.xs, &mut self.zs] {
                    arr[p * self.words..(p + 1) * self.words].fill(0);
                }
                self.zs[p * self.words + w] |= m;
                self.sign[p] = u8::from(forced);
                forced
            }
            None => {
                // Deterministic: accumulate the matching stabilizers on the
                // scratch row; its sign is the outcome.
                let scratch = 2 * self.n;
                for arr in [&mut self.xs, &mut self.zs] {
                    arr[scratch * self.words..(scratch + 1) * self.words].fill(0);
                }
                self.sign[scratch] = 0;
                for i in 0..self.n {
                    if self.xs[i * self.words + w] & m != 0 {
                        self.rowsum(scratch, self.n + i);
                    }
                }
                self.sign[scratch] == 1
            }
        }
    }

    /// Extracts the computational-basis outcome coset of the current state:
    /// a base outcome plus a reduced GF(2) basis spanning the support. The
    /// tableau itself is left untouched (collapse runs on a scratch copy).
    #[must_use]
    pub fn outcome_coset(&self) -> OutcomeCoset {
        // The support is v₀ ⊕ span(stabilizer X-parts): each stabilizer
        // S = ±X^x Z^z maps |v⟩ ↦ ±|v ⊕ x⟩ and fixes the state.
        let mut pivots: Vec<usize> = Vec::new();
        let mut gens: Vec<Vec<u64>> = Vec::new();
        for row in self.n..2 * self.n {
            let mut cand: Vec<u64> = self.xs[row * self.words..(row + 1) * self.words].to_vec();
            // Reduce against the basis collected so far.
            for (p, g) in pivots.iter().zip(&gens) {
                if cand[p / 64] & (1u64 << (p % 64)) != 0 {
                    xor_words(&mut cand, g);
                }
            }
            if let Some(pivot) = highest_bit(&cand) {
                // Back-eliminate so every pivot appears in exactly one
                // basis vector (reduced echelon form).
                for (p, g) in pivots.iter_mut().zip(gens.iter_mut()) {
                    if g[pivot / 64] & (1u64 << (pivot % 64)) != 0 {
                        xor_words(g, &cand);
                        debug_assert!(highest_bit(g) == Some(*p));
                    }
                }
                let at = pivots.partition_point(|&p| p > pivot);
                pivots.insert(at, pivot);
                gens.insert(at, cand);
            }
        }

        // Base point: collapse a scratch copy, forcing 0 on every random
        // outcome (probability ½ each way, so 0 is always in the support).
        let mut scratch = self.clone();
        let mut base = BitString::zeros(self.n);
        for q in 0..self.n {
            if scratch.measure_forced(q, false) {
                base.set_bit(q, true);
            }
        }

        let gens = gens
            .into_iter()
            .map(|words| {
                let mut b = BitString::zeros(self.n);
                for q in 0..self.n {
                    if words[q / 64] & (1u64 << (q % 64)) != 0 {
                        b.set_bit(q, true);
                    }
                }
                b
            })
            .collect();
        OutcomeCoset { n: self.n, base, pivots, gens }
    }
}

fn set_bit(arr: &mut [u64], words: usize, row: usize, col: usize) {
    arr[row * words + col / 64] |= 1u64 << (col % 64);
}

fn xor_words(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

fn highest_bit(words: &[u64]) -> Option<usize> {
    words
        .iter()
        .enumerate()
        .rev()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + 63 - w.leading_zeros() as usize)
}

/// The measurement-outcome distribution of a stabilizer state: the uniform
/// distribution over the affine space `base ⊕ span(gens)`.
///
/// `gens` is in reduced echelon form ordered by descending pivot, which
/// makes the element of rank-index `j` the `j`-th *smallest* outcome by
/// basis-state index — the exact order a dense CDF walk visits them. That
/// property is what keeps dense and stabilizer histograms bit-identical
/// under shared `u64` draws.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutcomeCoset {
    n: usize,
    base: BitString,
    /// Pivot qubit of each generator, strictly descending.
    pivots: Vec<usize>,
    /// Reduced GF(2) basis of the support-difference space.
    gens: Vec<BitString>,
}

impl OutcomeCoset {
    /// Dimension `r` of the coset: the support holds `2^r` outcomes, each
    /// with probability `2^−r`.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.gens.len()
    }

    /// Register width.
    #[must_use]
    pub fn n_qubits(&self) -> usize {
        self.n
    }

    /// Maps one uniform `u64` draw to an outcome, mirroring the dense
    /// backend's inverse-CDF convention: the draw's top 53 bits (the same
    /// bits `Rng::gen::<f64>()` keeps) select the support element in
    /// ascending basis-index order. Ranks past 53 consume the draw's
    /// remaining entropy, then a SplitMix64 extension — those bits carry
    /// probability ≤ 2⁻⁵³ per element class, far below anything a
    /// histogram can resolve.
    #[must_use]
    pub fn resolve(&self, draw: u64) -> BitString {
        let j53 = draw >> 11;
        let mut out = self.base;
        for (t, (gen, &pivot)) in self.gens.iter().zip(&self.pivots).enumerate() {
            let want = match t {
                0..=52 => (j53 >> (52 - t)) & 1 == 1,
                53..=63 => (draw >> (63 - t)) & 1 == 1,
                _ => crate::seed::mix(draw, t as u64) & 1 == 1,
            };
            if want != self.base.bit(pivot) {
                out ^= gen;
            }
        }
        out
    }

    /// Enumerates the full support with exact probabilities, ascending by
    /// basis-state index.
    ///
    /// # Panics
    ///
    /// Panics if the rank exceeds [`MAX_ENUM_RANK`] — sampling still works
    /// there, but exhaustive enumeration would not fit in memory.
    #[must_use]
    pub fn support(&self) -> Vec<(BitString, f64)> {
        let r = self.rank();
        assert!(
            r <= MAX_ENUM_RANK,
            "stabilizer support of rank {r} exceeds the 2^{MAX_ENUM_RANK} enumeration cap \
             (the state has {} equally likely outcomes)",
            if r >= 64 { "more than 2^63".to_string() } else { (1u64 << r).to_string() }
        );
        let p = (0.5f64).powi(r as i32);
        (0..1u64 << r)
            .map(|j| {
                let mut out = self.base;
                for (t, (gen, &pivot)) in self.gens.iter().zip(&self.pivots).enumerate() {
                    let want = (j >> (r - 1 - t)) & 1 == 1;
                    if want != self.base.bit(pivot) {
                        out ^= gen;
                    }
                }
                (out, p)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statevector::StateVector;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Exhaustive dense-vs-tableau support check.
    fn assert_matches_dense(gates: &[Gate], n: usize) {
        let mut sv = StateVector::new(n);
        sv.apply_all(gates);
        let mut tab = StabilizerTableau::new(n);
        for g in gates {
            tab.apply_gate(g);
        }
        let coset = tab.outcome_coset();
        let support = coset.support();
        let mut covered = 0.0;
        for (outcome, p) in &support {
            let dense = sv.probability(outcome.to_u64() as usize);
            assert!(
                (dense - p).abs() < 1e-12,
                "outcome {outcome}: dense {dense} vs stabilizer {p}"
            );
            covered += p;
        }
        assert!((covered - 1.0).abs() < 1e-12, "support covers {covered}");
    }

    #[test]
    fn fresh_state_is_all_zero() {
        let tab = StabilizerTableau::new(3);
        let coset = tab.outcome_coset();
        assert_eq!(coset.rank(), 0);
        assert_eq!(coset.support(), vec![(BitString::zeros(3), 1.0)]);
    }

    #[test]
    fn ghz_support_is_the_cat_pair() {
        let mut tab = StabilizerTableau::new(5);
        tab.apply_gate(&Gate::H(0));
        for q in 0..4 {
            tab.apply_gate(&Gate::Cx(q, q + 1));
        }
        let support = tab.outcome_coset().support();
        assert_eq!(support.len(), 2);
        assert_eq!(support[0].0, BitString::zeros(5));
        assert_eq!(support[1].0, BitString::ones(5));
    }

    #[test]
    fn single_gates_match_dense() {
        use Gate::*;
        let cases: Vec<Vec<Gate>> = vec![
            vec![H(0)],
            vec![X(0), H(1)],
            vec![H(0), S(0), H(0)],
            vec![H(0), Sdg(0), H(0)],
            vec![H(0), Y(0)],
            vec![Sx(0)],
            vec![X(0), Swap(0, 1)],
            vec![H(0), H(1), Cz(0, 1), H(1)],
            vec![H(0), Cx(0, 1), Z(1), H(1)],
            vec![Rz(0, std::f64::consts::FRAC_PI_2), H(0)],
            vec![Ry(0, std::f64::consts::FRAC_PI_2)],
            vec![Ry(0, -std::f64::consts::FRAC_PI_2)],
            vec![Rx(1, std::f64::consts::PI), Cx(1, 0)],
            vec![U3(0, std::f64::consts::FRAC_PI_2, 0.0, std::f64::consts::PI)],
        ];
        for gates in cases {
            assert_matches_dense(&gates, 2);
        }
    }

    #[test]
    fn random_clifford_circuits_match_dense() {
        let mut rng = StdRng::seed_from_u64(11);
        for round in 0..40 {
            let n = 4;
            let mut gates = Vec::new();
            for _ in 0..24 {
                let q = rng.gen_range(0..n);
                let p = (q + rng.gen_range(1..n)) % n;
                gates.push(match rng.gen_range(0..9) {
                    0 => Gate::H(q),
                    1 => Gate::S(q),
                    2 => Gate::Sdg(q),
                    3 => Gate::X(q),
                    4 => Gate::Y(q),
                    5 => Gate::Z(q),
                    6 => Gate::Cx(q, p),
                    7 => Gate::Cz(q, p),
                    _ => Gate::Swap(q, p),
                });
            }
            assert_matches_dense(&gates, n);
            let _ = round;
        }
    }

    #[test]
    fn deterministic_measurement_reads_the_prepared_bit() {
        let mut tab = StabilizerTableau::new(2);
        tab.apply_gate(&Gate::X(1));
        assert!(!tab.measure_forced(0, true)); // |0⟩: forced bit ignored
        assert!(tab.measure_forced(1, false));
    }

    #[test]
    fn random_measurement_obeys_the_forced_bit_and_collapses() {
        for forced in [false, true] {
            let mut tab = StabilizerTableau::new(1);
            tab.apply_gate(&Gate::H(0));
            assert_eq!(tab.measure_forced(0, forced), forced);
            // Re-measurement is now deterministic.
            assert_eq!(tab.measure_forced(0, !forced), forced);
        }
    }

    #[test]
    fn resolve_orders_outcomes_like_a_dense_cdf() {
        // Bell pair: support {00, 11}; draws below ½ must give 00.
        let mut tab = StabilizerTableau::new(2);
        tab.apply_gate(&Gate::H(0));
        tab.apply_gate(&Gate::Cx(0, 1));
        let coset = tab.outcome_coset();
        assert_eq!(coset.resolve(0), BitString::zeros(2));
        assert_eq!(coset.resolve(u64::MAX / 2 - 1024), BitString::zeros(2));
        assert_eq!(coset.resolve(u64::MAX / 2 + 1024), BitString::ones(2));
        assert_eq!(coset.resolve(u64::MAX), BitString::ones(2));
    }

    #[test]
    fn resolve_covers_an_asymmetric_coset_in_index_order() {
        // H(0); CX(0,1); X(0) gives (|01⟩ + |10⟩)/√2: support {01, 10}.
        let mut tab = StabilizerTableau::new(2);
        tab.apply_gate(&Gate::H(0));
        tab.apply_gate(&Gate::Cx(0, 1));
        tab.apply_gate(&Gate::X(0));
        let coset = tab.outcome_coset();
        let support = coset.support();
        assert_eq!(support[0].0.to_u64(), 0b01);
        assert_eq!(support[1].0.to_u64(), 0b10);
        assert_eq!(coset.resolve(0).to_u64(), 0b01);
        assert_eq!(coset.resolve(u64::MAX).to_u64(), 0b10);
    }

    #[test]
    fn reset_reuses_the_allocation() {
        let mut tab = StabilizerTableau::new(3);
        tab.apply_gate(&Gate::H(0));
        tab.apply_gate(&Gate::Cx(0, 2));
        tab.reset();
        assert_eq!(tab, StabilizerTableau::new(3));
    }

    #[test]
    fn clone_from_copies_into_the_existing_buffers() {
        let mut source = StabilizerTableau::new(3);
        source.apply_gate(&Gate::H(0));
        source.apply_gate(&Gate::Cx(0, 2));
        let mut copy = StabilizerTableau::new(3);
        let buffers = (copy.xs.as_ptr(), copy.zs.as_ptr(), copy.sign.as_ptr());
        copy.clone_from(&source);
        assert_eq!(copy, source);
        assert_eq!((copy.xs.as_ptr(), copy.zs.as_ptr(), copy.sign.as_ptr()), buffers);
    }

    #[test]
    fn wide_ghz_is_exact() {
        let n = 100;
        let mut tab = StabilizerTableau::new(n);
        tab.apply_gate(&Gate::H(0));
        for q in 0..n - 1 {
            tab.apply_gate(&Gate::Cx(q, q + 1));
        }
        let support = tab.outcome_coset().support();
        assert_eq!(support.len(), 2);
        assert_eq!(support[0].0, BitString::zeros(n));
        assert_eq!(support[1].0, BitString::ones(n));
        assert_eq!(support[0].1, 0.5);
    }

    #[test]
    fn sampled_frequencies_match_probabilities() {
        // |+⟩⊗|+⟩: four outcomes at ¼ each.
        let mut tab = StabilizerTableau::new(2);
        tab.apply_gate(&Gate::H(0));
        tab.apply_gate(&Gate::H(1));
        let coset = tab.outcome_coset();
        assert_eq!(coset.rank(), 2);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0u32; 4];
        for _ in 0..8000 {
            counts[coset.resolve(rng.gen()).to_u64() as usize] += 1;
        }
        for c in counts {
            assert!((f64::from(c) / 8000.0 - 0.25).abs() < 0.03, "counts {counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "non-Clifford gate")]
    fn non_clifford_gate_rejected() {
        let mut tab = StabilizerTableau::new(1);
        tab.apply_gate(&Gate::T(0));
    }

    #[test]
    #[should_panic(expected = "capped at")]
    fn oversized_register_rejected() {
        let _ = StabilizerTableau::new(MAX_STABILIZER_QUBITS + 1);
    }
}
