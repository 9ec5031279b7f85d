//! The Bayesian Reconstruction algorithm (paper §4.3, Algorithm 1).
//!
//! The global-PMF is the *prior*; each CPM's local-PMF is higher-fidelity
//! evidence about a qubit subset. One update scales every global outcome by
//! its subset-conditional coefficient times the marginal odds
//! `pr/(1 − pr)`; one reconstruction round adds every marginal's posterior
//! back onto the prior and renormalises; rounds repeat until the Hellinger
//! distance between successive outputs falls below the configured
//! tolerance.
//!
//! Only the prior's observed (non-zero) entries are ever touched, which is
//! what gives JigSaw its linear memory/time complexity (§7).
//!
//! # The dense kernel
//!
//! Reconstruction never changes the support: rounds only reweight the
//! prior's observed outcomes. So every entry point sorts the support once,
//! in the canonical order of [`Pmf::sorted_entries`], and indexes each
//! marginal against it once: a compact group id per entry (one byte when
//! the marginal has at most 256 groups) and each group's clamped marginal
//! probability. A round is then flat gather/scatter over `f64` weight
//! arrays, with no subset projections and no hashing; at the wide-Clifford
//! supports (~8k outcomes, tens of marginals) that is about a millisecond.
//!
//! The floating-point accumulation tree is fixed by the support size alone:
//! group masses, the normalisation mass and the Hellinger sum are per-shard
//! partials ([`jigsaw_pmf::parallel::SHARD_SIZE`] entries each) folded in
//! shard order, and each marginal's odds normaliser is summed in a group
//! order fixed at indexing time. Only the per-marginal index builds fan out
//! across the worker team; rounds run inline. The output is therefore
//! **bit-identical** at every thread setting, and bit-identical to the
//! map-based formulation earlier releases used (both enforced by
//! `tests/reconstruction_sharding.rs`).

use jigsaw_pmf::hashing::DetHashMap;
use jigsaw_pmf::parallel::{fan_out, SHARD_SIZE};
use jigsaw_pmf::{BitString, Pmf};

/// A CPM's evidence: the measured qubit subset and its local PMF.
#[derive(Debug, Clone, PartialEq)]
pub struct Marginal {
    /// Program-qubit indices measured by the CPM; `qubits[k]` is local bit `k`.
    pub qubits: Vec<usize>,
    /// Local PMF over the subset (normalised).
    pub pmf: Pmf,
}

impl Marginal {
    /// Packages a subset and its local PMF.
    ///
    /// # Panics
    ///
    /// Panics if the PMF width differs from the subset size.
    #[must_use]
    pub fn new(qubits: Vec<usize>, pmf: Pmf) -> Self {
        assert_eq!(qubits.len(), pmf.n_bits(), "marginal PMF width must match its subset");
        Self { qubits, pmf }
    }

    /// Subset size (the paper's `s`).
    #[must_use]
    pub fn size(&self) -> usize {
        self.qubits.len()
    }
}

/// Convergence and execution controls for [`reconstruct`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconstructionConfig {
    /// Stop when the Hellinger distance between successive outputs falls
    /// below this.
    pub tolerance: f64,
    /// Hard cap on rounds.
    pub max_rounds: usize,
    /// Worker threads for the sharded support passes: `0` uses all
    /// available cores, `1` runs serially, `n` uses exactly `n` workers.
    /// The output is bit-identical at every setting; the knob only trades
    /// wall-clock for cores. [`crate::run_jigsaw`] overrides this with the
    /// pipeline-wide `RunConfig::threads` knob.
    pub threads: usize,
}

impl Default for ReconstructionConfig {
    fn default() -> Self {
        Self { tolerance: 1e-4, max_rounds: 32, threads: 0 }
    }
}

impl ReconstructionConfig {
    /// Replaces the worker-thread setting.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Wire format: the measured subset then its local PMF. Decode re-checks
/// the width agreement [`Marginal::new`] asserts.
impl jigsaw_pmf::codec::Encode for Marginal {
    fn encode(&self, w: &mut jigsaw_pmf::codec::Writer) {
        self.qubits.encode(w);
        self.pmf.encode(w);
    }
}

impl jigsaw_pmf::codec::Decode for Marginal {
    fn decode(
        r: &mut jigsaw_pmf::codec::Reader<'_>,
    ) -> Result<Self, jigsaw_pmf::codec::CodecError> {
        let qubits = Vec::<usize>::decode(r)?;
        let pmf = Pmf::decode(r)?;
        if qubits.len() != pmf.n_bits() {
            return Err(jigsaw_pmf::codec::CodecError::InvalidValue {
                what: "Marginal",
                detail: format!(
                    "{}-qubit subset with a {}-bit local PMF",
                    qubits.len(),
                    pmf.n_bits()
                ),
            });
        }
        Ok(Self { qubits, pmf })
    }
}

/// Wire format: tolerance, round cap, thread setting — declaration order.
impl jigsaw_pmf::codec::Encode for ReconstructionConfig {
    fn encode(&self, w: &mut jigsaw_pmf::codec::Writer) {
        w.put_f64(self.tolerance);
        w.put_usize(self.max_rounds);
        w.put_usize(self.threads);
    }
}

impl jigsaw_pmf::codec::Decode for ReconstructionConfig {
    fn decode(
        r: &mut jigsaw_pmf::codec::Reader<'_>,
    ) -> Result<Self, jigsaw_pmf::codec::CodecError> {
        Ok(Self { tolerance: r.f64()?, max_rounds: r.usize()?, threads: r.usize()? })
    }
}

/// Result of an iterated reconstruction.
#[derive(Debug, Clone, PartialEq)]
pub struct Reconstruction {
    /// The reconstructed output PMF.
    pub pmf: Pmf,
    /// Rounds executed.
    pub rounds: usize,
    /// Whether the Hellinger criterion was met within the round cap.
    pub converged: bool,
}

/// Per-entry group ids of one marginal: entry `i` of the support belongs
/// to the group `ids[i]` of outcomes sharing its subset projection.
///
/// One byte per entry whenever the marginal has at most 256 groups, which
/// covers every subset of up to 8 qubits and so every JigSaw and JigSaw-M
/// configuration; wider subsets over large supports fall back to `u32`.
enum GroupIds {
    Narrow(Vec<u8>),
    Wide(Vec<u32>),
}

/// An index into a marginal's dense per-group arrays.
trait GroupId: Copy {
    fn index(self) -> usize;
}

impl GroupId for u8 {
    fn index(self) -> usize {
        usize::from(self)
    }
}

impl GroupId for u32 {
    fn index(self) -> usize {
        self as usize
    }
}

/// One marginal's evidence, indexed once against a fixed canonical support.
///
/// Groups are numbered in the iteration order of a [`DetHashMap`] built the
/// way the original map-based round built its group masses: one map per
/// [`SHARD_SIZE`] shard in first-appearance order, folded into one map in
/// shard order. Summing the odds in id order therefore reproduces that
/// round's floating-point `total` exactly (the reference implementation
/// lives in `tests/reconstruction_sharding.rs`). The numbering never
/// changes between rounds: rounds only reweight the support, so the keys
/// and their insertion sequence stay the same.
struct MarginalIndex {
    ids: GroupIds,
    /// Marginal probability of each group's projection, clamped away from
    /// 1 so the odds stay finite (a marginal that is literally a point mass
    /// would otherwise divide by zero).
    pr: Vec<f64>,
}

impl MarginalIndex {
    fn build(outcomes: &[BitString], marginal: &Marginal) -> Self {
        let project = |b: &BitString| b.project(&marginal.qubits);
        let mut merged: DetHashMap<BitString, f64> = DetHashMap::default();
        for shard in outcomes.chunks(SHARD_SIZE) {
            let mut partial: DetHashMap<BitString, f64> = DetHashMap::default();
            for b in shard {
                partial.entry(project(b)).or_insert(0.0);
            }
            for key in partial.keys() {
                merged.entry(*key).or_insert(0.0);
            }
        }
        let keys: Vec<BitString> = merged.keys().copied().collect();
        let id_of: DetHashMap<BitString, u32> = keys.iter().copied().zip(0..).collect();
        let ids = if keys.len() <= 256 {
            GroupIds::Narrow(outcomes.iter().map(|b| id_of[&project(b)] as u8).collect())
        } else {
            GroupIds::Wide(outcomes.iter().map(|b| id_of[&project(b)]).collect())
        };
        let pr = keys.iter().map(|key| marginal.pmf.prob(key).min(1.0 - 1e-12)).collect();
        Self { ids, pr }
    }

    /// Per-group multipliers `odds(pr_g) / gsum_g` for the prior `weights`,
    /// and their normaliser `total = Σ_g odds(pr_g)` summed in id order.
    ///
    /// For a prior entry in group `g` the unnormalised posterior is
    /// `weight · factor[g]`; dividing by `total` (mathematically the
    /// posterior's mass, since the entry coefficients within a group sum to
    /// one) normalises it. Groups with zero mass or zero marginal
    /// probability get factor 0 and add nothing to `total`.
    fn factors(&self, weights: &[f64]) -> (Vec<f64>, f64) {
        let gsums = match &self.ids {
            GroupIds::Narrow(ids) => group_masses(ids, weights, self.pr.len()),
            GroupIds::Wide(ids) => group_masses(ids, weights, self.pr.len()),
        };
        let mut factor = vec![0.0; gsums.len()];
        let mut total = 0.0;
        for ((f, &gsum), &pr) in factor.iter_mut().zip(&gsums).zip(&self.pr) {
            if gsum <= 0.0 || pr <= 0.0 {
                continue;
            }
            let odds = pr / (1.0 - pr);
            *f = odds / gsum;
            total += odds;
        }
        (factor, total)
    }

    /// Adds this marginal's normalised posterior `weight · factor / total`
    /// onto `out`, entry by entry; a marginal whose `total` is not positive
    /// adds nothing.
    fn add_posterior(&self, weights: &[f64], out: &mut [f64]) {
        let (factor, total) = self.factors(weights);
        if total > 0.0 {
            match &self.ids {
                GroupIds::Narrow(ids) => add_scaled(ids, weights, &factor, total, out),
                GroupIds::Wide(ids) => add_scaled(ids, weights, &factor, total, out),
            }
        }
    }
}

/// Group masses of `weights`: per-shard partials accumulated in entry
/// order, folded in shard order. A group absent from a shard adds an exact
/// `0.0`, so the result matches a fold over per-shard maps bit for bit.
fn group_masses<I: GroupId>(ids: &[I], weights: &[f64], groups: usize) -> Vec<f64> {
    let mut mass = vec![0.0; groups];
    let mut partial = vec![0.0; groups];
    for (shard_ids, shard_weights) in ids.chunks(SHARD_SIZE).zip(weights.chunks(SHARD_SIZE)) {
        partial.fill(0.0);
        for (&id, &w) in shard_ids.iter().zip(shard_weights) {
            // analyze:allow(panic-reach, MarginalIndex::build numbers groups 0..groups, so every id is in range)
            partial[id.index()] += w;
        }
        for (m, p) in mass.iter_mut().zip(&partial) {
            *m += p;
        }
    }
    mass
}

fn add_scaled<I: GroupId>(ids: &[I], weights: &[f64], factor: &[f64], total: f64, out: &mut [f64]) {
    for ((o, &w), &id) in out.iter_mut().zip(weights).zip(ids) {
        // analyze:allow(panic-reach, factor has one entry per group and MarginalIndex::build numbers groups densely)
        *o += w * factor[id.index()] / total;
    }
}

/// The dense reconstruction kernel: one [`MarginalIndex`] per marginal over
/// a fixed canonical support, built once per call. Every round is then flat
/// gather/scatter over `f64` weight arrays aligned with that support.
struct Kernel {
    marginals: Vec<MarginalIndex>,
}

impl Kernel {
    /// Indexes every marginal against `outcomes` (canonical ascending
    /// order), fanning the per-marginal builds across `threads` workers.
    fn new(outcomes: &[BitString], marginals: &[Marginal], threads: usize) -> Self {
        debug_assert!(
            outcomes.windows(2).all(|w| w[0] < w[1]),
            "outcomes must be in canonical ascending order"
        );
        let marginals =
            fan_out(marginals.iter().collect(), threads, |m| MarginalIndex::build(outcomes, m));
        Self { marginals }
    }

    /// One reconstruction round (Algorithm 1, lines 17–23): every entry
    /// gains each marginal's posterior against the same prior `weights`, in
    /// marginal order, and the sum is normalised.
    ///
    /// Runs inline: at the supports the pipeline produces a round takes
    /// about a millisecond, less than spawning a worker team would cost.
    fn round(&self, weights: &[f64]) -> Vec<f64> {
        let mut out = weights.to_vec();
        for marginal in &self.marginals {
            marginal.add_posterior(weights, &mut out);
        }
        normalize(&mut out);
        out
    }
}

/// Normalises `weights` in place. Per-shard partial masses fold in shard
/// order; a vector without positive mass is left as it is.
fn normalize(weights: &mut [f64]) {
    let mass: f64 = weights.chunks(SHARD_SIZE).map(|shard| shard.iter().sum::<f64>()).sum();
    if mass <= 0.0 {
        return;
    }
    for w in weights {
        *w /= mass;
    }
}

/// Hellinger distance `√(1 − Σ√(pᵢ·qᵢ))` between two weight vectors over
/// the same support, with per-shard partial sums folded in shard order.
fn hellinger_aligned(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "aligned weight vectors must have equal length");
    let bc: f64 = a
        .chunks(SHARD_SIZE)
        .zip(b.chunks(SHARD_SIZE))
        .map(|(sa, sb)| sa.iter().zip(sb).map(|(pa, pb)| (pa * pb).sqrt()).sum::<f64>())
        .sum();
    (1.0 - bc.min(1.0)).max(0.0).sqrt()
}

/// Splits a PMF's canonical entries into its support and aligned weights.
fn canonical_support(p: &Pmf) -> (Vec<BitString>, Vec<f64>) {
    p.sorted_entries().into_iter().unzip()
}

/// Builds a PMF from weights aligned with a canonical support
/// (deterministic insertion sequence, hence deterministic downstream
/// iteration); zero weights are dropped.
fn pmf_from_weights(n_bits: usize, outcomes: &[BitString], weights: &[f64]) -> Pmf {
    let mut out = Pmf::new(n_bits);
    for (b, &w) in outcomes.iter().zip(weights) {
        out.set(*b, w);
    }
    out
}

/// One `Bayesian_Update` (Algorithm 1, lines 1–16): posterior of the prior
/// `p` given one marginal. Equivalent to [`bayesian_update_with_threads`]
/// with one worker, and bit-identical to it at any worker count.
///
/// For every prior outcome `Bx`, its update coefficient is `p(Bx)`
/// normalised within the group of outcomes sharing `Bx`'s subset
/// projection; the posterior is `coefficient · pr/(1 − pr)` where `pr` is
/// the marginal probability of that projection. The returned PMF is
/// normalised (line 15).
///
/// # Panics
///
/// Panics if the marginal addresses qubits outside the prior's width.
#[must_use]
pub fn bayesian_update(p: &Pmf, marginal: &Marginal) -> Pmf {
    bayesian_update_with_threads(p, marginal, 1)
}

/// [`bayesian_update`] on the dense kernel with `threads` workers (`0` =
/// all cores, `1` = serial). A single marginal's index is one work item,
/// so the output never depends on the setting.
#[must_use]
pub fn bayesian_update_with_threads(p: &Pmf, marginal: &Marginal, threads: usize) -> Pmf {
    let (outcomes, weights) = canonical_support(p);
    let kernel = Kernel::new(&outcomes, std::slice::from_ref(marginal), threads);
    let mut posterior = vec![0.0; weights.len()];
    kernel.marginals[0].add_posterior(&weights, &mut posterior);
    pmf_from_weights(p.n_bits(), &outcomes, &posterior)
}

/// One reconstruction round (Algorithm 1, lines 17–23): every marginal's
/// posterior is computed against the same prior and added onto it; the sum
/// is normalised. Order-independent by construction. Serial; bit-identical
/// to [`reconstruction_round_with_threads`] at any worker count.
#[must_use]
pub fn reconstruction_round(p: &Pmf, marginals: &[Marginal]) -> Pmf {
    reconstruction_round_with_threads(p, marginals, 1)
}

/// [`reconstruction_round`] with the per-marginal index builds fanned out
/// across `threads` rayon workers.
#[must_use]
pub fn reconstruction_round_with_threads(p: &Pmf, marginals: &[Marginal], threads: usize) -> Pmf {
    let (outcomes, weights) = canonical_support(p);
    let next = Kernel::new(&outcomes, marginals, threads).round(&weights);
    pmf_from_weights(p.n_bits(), &outcomes, &next)
}

/// One reconstruction round over the prior's canonical entry list.
///
/// `entries` must be in canonical (ascending outcome) order with positive
/// weights, exactly as [`Pmf::sorted_entries`] returns; the output is the
/// normalised round result **in the same outcome sequence** (the round
/// only reweights, never drops, observed outcomes). The per-marginal index
/// builds fan out across `threads` workers; the output is bit-identical at
/// every setting.
#[must_use]
pub fn reconstruction_round_over_entries(
    entries: &[(BitString, f64)],
    marginals: &[Marginal],
    threads: usize,
) -> Vec<(BitString, f64)> {
    let (outcomes, weights): (Vec<BitString>, Vec<f64>) = entries.iter().copied().unzip();
    let next = Kernel::new(&outcomes, marginals, threads).round(&weights);
    outcomes.into_iter().zip(next).collect()
}

/// Iterated reconstruction: rounds repeat until the Hellinger distance
/// between successive outputs drops below tolerance (§4.3's termination
/// rule) or the round cap is reached.
///
/// The prior is sorted once and every marginal indexed once against that
/// support (on [`ReconstructionConfig::threads`] workers); each round is
/// then one dense kernel pass, and the output PMF is built once at the
/// end. The result is bit-identical at every thread setting.
#[must_use]
pub fn reconstruct(
    p: &Pmf,
    marginals: &[Marginal],
    config: &ReconstructionConfig,
) -> Reconstruction {
    if marginals.is_empty() {
        return Reconstruction { pmf: p.clone(), rounds: 0, converged: true };
    }
    let (outcomes, mut weights) = canonical_support(p);
    let kernel = Kernel::new(&outcomes, marginals, config.threads);
    let (mut rounds, mut converged) = (config.max_rounds, false);
    for round in 1..=config.max_rounds {
        let next = kernel.round(&weights);
        let distance = hellinger_aligned(&weights, &next);
        weights = next;
        if distance < config.tolerance {
            (rounds, converged) = (round, true);
            break;
        }
    }
    Reconstruction { pmf: pmf_from_weights(p.n_bits(), &outcomes, &weights), rounds, converged }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jigsaw_pmf::metrics;

    fn bs(s: &str) -> BitString {
        s.parse().unwrap()
    }

    /// The paper's Fig. 6 example: 3-qubit global PMF and the (Q1, Q0)
    /// marginal.
    fn fig6_prior() -> Pmf {
        let mut p = Pmf::new(3);
        for (s, v) in [
            ("000", 0.10),
            ("001", 0.10),
            ("010", 0.15),
            ("011", 0.15),
            ("100", 0.10),
            ("101", 0.05),
            ("110", 0.15),
            ("111", 0.20),
        ] {
            p.set(bs(s), v);
        }
        p
    }

    fn fig6_marginal() -> Marginal {
        let mut m = Pmf::new(2);
        for (s, v) in [("00", 0.1), ("01", 0.1), ("10", 0.2), ("11", 0.6)] {
            m.set(bs(s), v);
        }
        Marginal::new(vec![0, 1], m)
    }

    #[test]
    fn update_reproduces_fig6_posterior_ratios() {
        // Fig. 6 step 3 lists the unnormalised posteriors 0.05, 0.07, 0.13,
        // 0.64, 0.05, 0.04, 0.13, 0.86; ratios survive normalisation.
        let posterior = bayesian_update(&fig6_prior(), &fig6_marginal());
        let expected_unnormalised = [
            ("000", 0.0556),
            ("001", 0.0741),
            ("010", 0.1250),
            ("011", 0.6429),
            ("100", 0.0556),
            ("101", 0.0370),
            ("110", 0.1250),
            ("111", 0.8571),
        ];
        let scale = posterior.prob(&bs("111")) / 0.8571;
        for (s, v) in expected_unnormalised {
            let got = posterior.prob(&bs(s));
            assert!(
                (got - v * scale).abs() < 1e-3,
                "{s}: got {got}, expected {} (scale {scale})",
                v * scale
            );
        }
    }

    #[test]
    fn fig6_correct_answer_probability_rises() {
        // The paper reports the correct answer's (111) probability rising
        // ~2.2× after recursive updates; with a single marginal iterated to
        // convergence the boost should be substantial and 111 the mode.
        let result =
            reconstruct(&fig6_prior(), &[fig6_marginal()], &ReconstructionConfig::default());
        assert!(result.converged);
        let p111 = result.pmf.prob(&bs("111"));
        assert!(p111 > 0.20 * 1.8, "p(111) = {p111}, expected ≥ 1.8× the prior 0.20");
        assert_eq!(result.pmf.mode(), Some(bs("111")));
    }

    #[test]
    fn update_is_conservative_when_marginal_matches_prior() {
        // If the marginal equals the prior's own projection, the posterior
        // must not move the prior much (Bayesian consistency).
        let p = fig6_prior();
        let own = Marginal::new(vec![0, 1], p.marginal(&[0, 1]));
        let out = reconstruction_round(&p, &[own]);
        // Projections agree before and after.
        let before = p.marginal(&[0, 1]);
        let after = out.marginal(&[0, 1]);
        assert!(metrics::tvd(&before, &after) < 0.12);
    }

    #[test]
    fn round_is_order_independent() {
        let p = fig6_prior();
        let m1 = fig6_marginal();
        let mut m2pmf = Pmf::new(2);
        m2pmf.set(bs("00"), 0.3);
        m2pmf.set(bs("11"), 0.7);
        let m2 = Marginal::new(vec![1, 2], m2pmf);
        let ab = reconstruction_round(&p, &[m1.clone(), m2.clone()]);
        let ba = reconstruction_round(&p, &[m2, m1]);
        assert!(metrics::tvd(&ab, &ba) < 1e-12);
    }

    #[test]
    fn update_is_thread_count_invariant() {
        let p = fig6_prior();
        let m = fig6_marginal();
        let serial = bayesian_update_with_threads(&p, &m, 1);
        for threads in [0, 2, 3, 8] {
            assert_eq!(serial, bayesian_update_with_threads(&p, &m, threads));
        }
        assert_eq!(serial, bayesian_update(&p, &m));
    }

    #[test]
    fn round_is_thread_count_invariant() {
        let p = fig6_prior();
        let m1 = fig6_marginal();
        let mut m2pmf = Pmf::new(2);
        m2pmf.set(bs("00"), 0.3);
        m2pmf.set(bs("11"), 0.7);
        let marginals = vec![m1, Marginal::new(vec![1, 2], m2pmf)];
        let serial = reconstruction_round_with_threads(&p, &marginals, 1);
        for threads in [0, 2, 5] {
            assert_eq!(serial, reconstruction_round_with_threads(&p, &marginals, threads));
        }
    }

    #[test]
    fn reconstruct_is_thread_count_invariant() {
        let p = fig6_prior();
        let ms = [fig6_marginal()];
        let serial = reconstruct(&p, &ms, &ReconstructionConfig::default().with_threads(1));
        for threads in [0, 2, 4] {
            let parallel =
                reconstruct(&p, &ms, &ReconstructionConfig::default().with_threads(threads));
            assert_eq!(serial.pmf, parallel.pmf);
            assert_eq!(serial.rounds, parallel.rounds);
        }
    }

    #[test]
    fn round_over_entries_preserves_sequence_and_matches_pmf_round() {
        let p = fig6_prior();
        let ms = [fig6_marginal()];
        let entries = p.sorted_entries();
        let out = reconstruction_round_over_entries(&entries, &ms, 1);
        // Same outcome sequence (rounds only reweight), normalised output.
        let before: Vec<BitString> = entries.iter().map(|(b, _)| *b).collect();
        let after: Vec<BitString> = out.iter().map(|(b, _)| *b).collect();
        assert_eq!(before, after);
        assert!((out.iter().map(|(_, v)| v).sum::<f64>() - 1.0).abs() < 1e-12);
        // The Pmf-level wrapper is exactly this core plus a map build.
        let wrapped = reconstruction_round(&p, &ms);
        for (b, v) in &out {
            assert_eq!(wrapped.prob(b), *v);
        }
    }

    #[test]
    fn zero_marginal_probability_kills_candidates() {
        // Outcomes whose projection the marginal never saw get posterior 0
        // (their prior mass survives only through the "+ P" step).
        let p = fig6_prior();
        let mut m = Pmf::new(2);
        m.set(bs("11"), 1.0);
        let posterior = bayesian_update(&p, &Marginal::new(vec![0, 1], m));
        assert_eq!(posterior.prob(&bs("000")), 0.0);
        assert!(posterior.prob(&bs("011")) > 0.0);
        assert!(posterior.prob(&bs("111")) > 0.0);
    }

    #[test]
    fn reconstruction_output_is_normalised() {
        let r = reconstruct(&fig6_prior(), &[fig6_marginal()], &ReconstructionConfig::default());
        assert!((r.pmf.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn no_marginals_is_identity() {
        let p = fig6_prior();
        let r = reconstruct(&p, &[], &ReconstructionConfig::default());
        assert_eq!(r.pmf, p);
        assert_eq!(r.rounds, 0);
    }

    #[test]
    fn support_never_grows() {
        // Reconstruction only reweights observed outcomes (§7.1).
        let p = fig6_prior();
        let r = reconstruct(&p, &[fig6_marginal()], &ReconstructionConfig::default());
        assert!(r.pmf.support_size() <= p.support_size());
    }

    #[test]
    fn point_mass_marginal_stays_finite() {
        let p = fig6_prior();
        let mut m = Pmf::new(1);
        m.set(bs("1"), 1.0);
        let r = reconstruct(&p, &[Marginal::new(vec![2], m)], &ReconstructionConfig::default());
        assert!((r.pmf.total_mass() - 1.0).abs() < 1e-9);
        for (_, prob) in r.pmf.iter() {
            assert!(prob.is_finite());
        }
    }

    #[test]
    #[should_panic(expected = "width must match")]
    fn mismatched_marginal_rejected() {
        let _ = Marginal::new(vec![0, 1, 2], Pmf::new(2));
    }
}
