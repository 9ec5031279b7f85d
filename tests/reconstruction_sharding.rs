//! Property suite for the reconstruction kernel. Two bars:
//!
//! - serial and parallel execution must produce **bit-identical** PMFs —
//!   the same bar `tests/parallel_determinism.rs` sets for the executor —
//!   across thread counts, support sizes (spanning several shard
//!   boundaries), marginal counts and subset widths, including degenerate
//!   point-mass marginals;
//! - the dense kernel must reproduce, bit for bit, the map-based
//!   formulation of Algorithm 1 kept below as [`reference`]: per-round
//!   subset projections and `DetHashMap` group masses, per-shard partials
//!   folded in shard order. Results persisted by earlier releases rest on
//!   those bytes.

use jigsaw_bench::synthetic::{global_pmf, marginal};
use jigsaw_repro::core::{
    bayesian_update, bayesian_update_with_threads, reconstruct, reconstruction_round_over_entries,
    reconstruction_round_with_threads, Marginal, ReconstructionConfig,
};
use jigsaw_repro::pmf::parallel::SHARD_SIZE;
use jigsaw_repro::pmf::{BitString, Pmf};
use proptest::prelude::*;

/// The map-based reconstruction the dense kernel replaced, serial (the
/// sharded original was bit-identical at every thread count): every round
/// projects each entry onto each marginal's subset and accumulates group
/// masses in `DetHashMap`s, one per shard, merged in shard order.
mod reference {
    use jigsaw_repro::core::Marginal;
    use jigsaw_repro::pmf::hashing::DetHashMap;
    use jigsaw_repro::pmf::parallel::SHARD_SIZE;
    use jigsaw_repro::pmf::{BitString, Pmf};

    struct UpdateFactors {
        factor: DetHashMap<BitString, f64>,
        total: f64,
    }

    fn shard_group_masses(
        marginal: &Marginal,
        shard: &[(BitString, f64)],
    ) -> DetHashMap<BitString, f64> {
        let mut g: DetHashMap<BitString, f64> = DetHashMap::default();
        for (b, prob) in shard {
            *g.entry(b.project(&marginal.qubits)).or_insert(0.0) += prob;
        }
        g
    }

    fn update_factors(entries: &[(BitString, f64)], marginal: &Marginal) -> UpdateFactors {
        let mut group_mass: DetHashMap<BitString, f64> = DetHashMap::default();
        for shard in entries.chunks(SHARD_SIZE) {
            for (key, mass) in &shard_group_masses(marginal, shard) {
                *group_mass.entry(*key).or_insert(0.0) += mass;
            }
        }
        let mut factor: DetHashMap<BitString, f64> = DetHashMap::default();
        let mut total = 0.0;
        for (key, &gsum) in &group_mass {
            if gsum <= 0.0 {
                continue;
            }
            let pr = marginal.pmf.prob(key).min(1.0 - 1e-12);
            if pr <= 0.0 {
                continue;
            }
            let odds = pr / (1.0 - pr);
            factor.insert(*key, odds / gsum);
            total += odds;
        }
        UpdateFactors { factor, total }
    }

    pub fn bayesian_update(p: &Pmf, marginal: &Marginal) -> Pmf {
        let entries = p.sorted_entries();
        let factors = update_factors(&entries, marginal);
        let mut posterior = Pmf::new(p.n_bits());
        for (b, prob) in &entries {
            let f = factors.factor.get(&b.project(&marginal.qubits)).copied().unwrap_or(0.0);
            let w = prob * f;
            if w > 0.0 {
                posterior.set(*b, w / factors.total);
            }
        }
        posterior
    }

    pub fn round(entries: &[(BitString, f64)], marginals: &[Marginal]) -> Vec<(BitString, f64)> {
        let factors: Vec<UpdateFactors> =
            marginals.iter().map(|m| update_factors(entries, m)).collect();
        let weighted: Vec<Vec<(BitString, f64)>> = entries
            .chunks(SHARD_SIZE)
            .map(|shard| {
                shard
                    .iter()
                    .map(|(b, prob)| {
                        let mut v = *prob;
                        for (m, f) in marginals.iter().zip(&factors) {
                            if f.total > 0.0 {
                                let fac =
                                    f.factor.get(&b.project(&m.qubits)).copied().unwrap_or(0.0);
                                v += prob * fac / f.total;
                            }
                        }
                        (*b, v)
                    })
                    .collect()
            })
            .collect();
        let mass: f64 =
            weighted.iter().map(|shard| shard.iter().map(|(_, v)| v).sum::<f64>()).sum();
        let flat = weighted.into_iter().flatten();
        if mass <= 0.0 {
            return flat.collect();
        }
        flat.map(|(b, v)| (b, v / mass)).collect()
    }

    fn hellinger_aligned(a: &[(BitString, f64)], b: &[(BitString, f64)]) -> f64 {
        let bc: f64 = a
            .chunks(SHARD_SIZE)
            .zip(b.chunks(SHARD_SIZE))
            .map(|(sa, sb)| {
                sa.iter().zip(sb).map(|((_, pa), (_, pb))| (pa * pb).sqrt()).sum::<f64>()
            })
            .sum();
        (1.0 - bc.min(1.0)).max(0.0).sqrt()
    }

    /// `(pmf, rounds, converged)`, as `reconstruct` returns them.
    pub fn reconstruct(
        p: &Pmf,
        marginals: &[Marginal],
        tolerance: f64,
        max_rounds: usize,
    ) -> (Pmf, usize, bool) {
        let to_pmf = |entries: Vec<(BitString, f64)>| {
            let mut out = Pmf::new(p.n_bits());
            for (b, v) in entries {
                out.set(b, v);
            }
            out
        };
        let mut entries = p.sorted_entries();
        for r in 1..=max_rounds {
            let next = round(&entries, marginals);
            let distance = hellinger_aligned(&entries, &next);
            entries = next;
            if distance < tolerance {
                return (to_pmf(entries), r, true);
            }
        }
        (to_pmf(entries), max_rounds, false)
    }
}

/// A PMF's canonical entries with weights as raw bits, so equality means
/// bit-identical (no `-0.0 == 0.0` or NaN slack).
fn bits(p: &Pmf) -> Vec<(BitString, u64)> {
    p.sorted_entries().into_iter().map(|(b, v)| (b, v.to_bits())).collect()
}

const THREAD_COUNTS: [usize; 4] = [0, 2, 3, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn bayesian_update_is_bit_identical_across_thread_counts(
        seed in 0u64..1000,
        entries in 1usize..2000,
        size in 1usize..4,
        point_mass in any::<bool>(),
    ) {
        let p = global_pmf(12, entries, seed);
        let m = marginal(12, size, point_mass, seed ^ 0xABCD);
        let serial = bayesian_update_with_threads(&p, &m, 1);
        for threads in THREAD_COUNTS {
            prop_assert_eq!(&serial, &bayesian_update_with_threads(&p, &m, threads));
        }
    }

    #[test]
    fn round_is_bit_identical_across_thread_counts(
        seed in 0u64..1000,
        entries in 1usize..1500,
        marginal_count in 1usize..12,
        point_mass in any::<bool>(),
    ) {
        let p = global_pmf(11, entries, seed);
        let ms: Vec<Marginal> = (0..marginal_count)
            .map(|i| marginal(11, 1 + i % 3, point_mass && i % 2 == 0, seed + i as u64))
            .collect();
        let serial = reconstruction_round_with_threads(&p, &ms, 1);
        for threads in THREAD_COUNTS {
            prop_assert_eq!(&serial, &reconstruction_round_with_threads(&p, &ms, threads));
        }
    }

    #[test]
    fn iterated_reconstruction_is_bit_identical_across_thread_counts(
        seed in 0u64..1000,
        entries in 1usize..800,
        marginal_count in 1usize..6,
    ) {
        let p = global_pmf(10, entries, seed);
        let ms: Vec<Marginal> = (0..marginal_count)
            .map(|i| marginal(10, 2, false, seed + 31 * i as u64))
            .collect();
        let config = ReconstructionConfig { tolerance: 1e-5, max_rounds: 16, threads: 1 };
        let serial = reconstruct(&p, &ms, &config);
        for threads in THREAD_COUNTS {
            let parallel = reconstruct(&p, &ms, &config.with_threads(threads));
            prop_assert_eq!(&serial.pmf, &parallel.pmf);
            prop_assert_eq!(serial.rounds, parallel.rounds);
            prop_assert_eq!(serial.converged, parallel.converged);
        }
    }
}

/// Supports straddling one, two and several shard boundaries: the fixed
/// shard layout — not the worker count — must decide every partial merge.
#[test]
fn multi_shard_supports_are_bit_identical_across_thread_counts() {
    for (entries, marginal_count) in
        [(SHARD_SIZE - 1, 4), (SHARD_SIZE + 1, 3), (3 * SHARD_SIZE + 17, 2)]
    {
        let p = global_pmf(20, entries, 42);
        let ms: Vec<Marginal> =
            (0..marginal_count).map(|i| marginal(20, 2, false, 7 + i as u64)).collect();
        let serial = reconstruction_round_with_threads(&p, &ms, 1);
        for threads in THREAD_COUNTS {
            assert_eq!(
                serial,
                reconstruction_round_with_threads(&p, &ms, threads),
                "entries = {entries}, threads = {threads}"
            );
        }
    }
}

/// A point-mass *prior* (single observed outcome) is the smallest possible
/// shard; degenerate point-mass marginals must stay finite and identical.
#[test]
fn point_mass_prior_and_marginal_are_bit_identical_across_thread_counts() {
    let p = Pmf::point_mass(BitString::from_u64(0b1011, 4));
    let m = marginal(4, 2, true, 5);
    let serial =
        reconstruct(&p, std::slice::from_ref(&m), &ReconstructionConfig::default().with_threads(1));
    for threads in THREAD_COUNTS {
        let parallel = reconstruct(
            &p,
            std::slice::from_ref(&m),
            &ReconstructionConfig::default().with_threads(threads),
        );
        assert_eq!(serial.pmf, parallel.pmf);
        for (_, prob) in parallel.pmf.iter() {
            assert!(prob.is_finite());
        }
    }
}

/// Subset widths the oracle draws from: JigSaw and JigSaw-M sizes, plus 9-
/// and 10-qubit marginals whose 512–1024 groups exceed the one-byte group
/// index and make the odds normaliser's summation order span hundreds of
/// hash-ordered groups.
const ORACLE_SIZES: [usize; 6] = [1, 2, 4, 9, 5, 10];

/// A 16-qubit oracle input: `marginal_count` marginals, the first always
/// at least 9 qubits wide, one optionally a point mass.
fn oracle_marginals(
    seed: u64,
    marginal_count: usize,
    offset: usize,
    point_mass: bool,
) -> Vec<Marginal> {
    (0..marginal_count)
        .map(|i| {
            let size = if i == 0 { 9 } else { ORACLE_SIZES[(offset + i) % ORACLE_SIZES.len()] };
            marginal(16, size, point_mass && i == 1, seed ^ (0x5EED + i as u64))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Iterated reconstruction over supports of two or three shards equals
    /// the map-based reference bit for bit: every PMF entry, the round
    /// count and the convergence flag.
    #[test]
    fn kernel_reconstruct_matches_map_based_reference(
        seed in 0u64..1000,
        entries in (SHARD_SIZE + 1)..(2 * SHARD_SIZE + 500),
        marginal_count in 1usize..5,
        offset in 0usize..ORACLE_SIZES.len(),
        point_mass in any::<bool>(),
        loose in any::<bool>(),
        max_rounds in 1usize..12,
    ) {
        let p = global_pmf(16, entries, seed);
        let ms = oracle_marginals(seed, marginal_count, offset, point_mass);
        let tolerance = if loose { 1e-3 } else { 1e-7 };
        let config = ReconstructionConfig { tolerance, max_rounds, threads: 0 };
        let kernel = reconstruct(&p, &ms, &config);
        let (pmf, rounds, converged) = reference::reconstruct(&p, &ms, tolerance, max_rounds);
        prop_assert_eq!(bits(&kernel.pmf), bits(&pmf));
        prop_assert_eq!(kernel.rounds, rounds);
        prop_assert_eq!(kernel.converged, converged);
    }

    /// Single rounds and single updates equal the reference too, from
    /// sub-shard supports up to two shards, with no marginals at all
    /// (normalisation only) through several.
    #[test]
    fn kernel_round_and_update_match_map_based_reference(
        seed in 0u64..1000,
        entries in 1usize..(SHARD_SIZE + 300),
        marginal_count in 0usize..5,
        offset in 0usize..ORACLE_SIZES.len(),
        point_mass in any::<bool>(),
    ) {
        let p = global_pmf(16, entries, seed);
        let ms = oracle_marginals(seed, marginal_count, offset, point_mass);
        let support = p.sorted_entries();
        let as_bits = |v: Vec<(BitString, f64)>| -> Vec<(BitString, u64)> {
            v.into_iter().map(|(b, w)| (b, w.to_bits())).collect()
        };
        prop_assert_eq!(
            as_bits(reconstruction_round_over_entries(&support, &ms, 0)),
            as_bits(reference::round(&support, &ms))
        );
        for m in &ms {
            prop_assert_eq!(bits(&bayesian_update(&p, m)), bits(&reference::bayesian_update(&p, m)));
        }
    }
}
