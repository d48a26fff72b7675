//! Brute-force reference solver for small instances.
//!
//! Computes the AMF aggregate vector by exhaustive subset enumeration: at
//! each progressive-filling round the next bottleneck level is
//!
//! ```text
//! t* = min over job sets J (with an active member) of
//!        the largest t with  Σ_{active j∈J} u_j(t) <= f(J) - Σ_{frozen j∈J} A_j
//! ```
//!
//! and every active member of a tight set freezes at `u_j(t*)`. This is the
//! textbook characterization of max-min fairness on a polymatroid — `O(2^n)`
//! per round, but it shares *no* bottleneck-detection machinery with the
//! flow-based solver in [`crate::solver`], which makes it an independent
//! ground truth for cross-checking (experiment E9). Besides the aggregates
//! it records the round log in the solver's [`FreezeRound`] vocabulary, so
//! tests can check the solver's explanation as well as its answer.

use crate::levels::{invert_total, LevelCap};
use crate::model::Instance;
use crate::solver::{FairnessMode, FreezeReason, FreezeRound};
use amf_numeric::{max2, min2, sum, Scalar};

/// Maximum job count accepted by the reference solver (2^n subsets).
pub const MAX_REFERENCE_JOBS: usize = 16;

/// The brute-force solve: the AMF aggregates and the progressive-filling
/// rounds that produced them.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceSolve<S> {
    /// The exact AMF aggregate of every job.
    pub aggregates: Vec<S>,
    /// One entry per round, in round order: the level and every job frozen
    /// at it, in ascending job order. A job that reaches its demand at the
    /// level is [`FreezeReason::DemandCapped`] even when it also sits in a
    /// tight set, as in the solver.
    pub rounds: Vec<FreezeRound<S>>,
}

/// Compute the exact AMF aggregate vector by subset enumeration.
///
/// # Panics
/// Panics if the instance has more than [`MAX_REFERENCE_JOBS`] jobs.
pub fn reference_aggregates<S: Scalar>(inst: &Instance<S>, mode: FairnessMode) -> Vec<S> {
    reference_solve(inst, mode).aggregates
}

/// [`reference_aggregates`] together with the round log.
///
/// # Panics
/// Panics if the instance has more than [`MAX_REFERENCE_JOBS`] jobs.
pub fn reference_solve<S: Scalar>(inst: &Instance<S>, mode: FairnessMode) -> ReferenceSolve<S> {
    let n = inst.n_jobs();
    assert!(
        n <= MAX_REFERENCE_JOBS,
        "reference solver is exponential; n = {n} > {MAX_REFERENCE_JOBS}"
    );
    let mut rounds = Vec::new();
    if n == 0 {
        return ReferenceSolve {
            aggregates: Vec::new(),
            rounds,
        };
    }

    let caps: Vec<LevelCap<S>> = (0..n)
        .map(|j| {
            let ceil = inst.total_demand(j);
            let floor = match mode {
                FairnessMode::Plain => S::ZERO,
                FairnessMode::Enhanced => min2(inst.equal_share(j), ceil),
            };
            LevelCap::new(inst.weight(j), floor, ceil)
        })
        .collect();

    let mut frozen: Vec<Option<S>> = caps
        .iter()
        .map(|c| {
            if c.ceil.is_positive() {
                None
            } else {
                Some(S::ZERO)
            }
        })
        .collect();

    while frozen.iter().any(Option::is_none) {
        // Upper bound: all active jobs demand-capped.
        let mut t_star = S::ZERO;
        for (j, c) in caps.iter().enumerate() {
            if frozen[j].is_none() {
                t_star = max2(t_star, c.high_breakpoint());
            }
        }

        // Tight level of every subset with at least one active member.
        for mask in 1u32..(1 << n) {
            let members: Vec<bool> = (0..n).map(|j| mask & (1 << j) != 0).collect();
            let active: Vec<LevelCap<S>> = members
                .iter()
                .enumerate()
                .filter(|&(j, &inside)| inside && frozen[j].is_none())
                .map(|(j, _)| caps[j])
                .collect();
            if active.is_empty() {
                continue;
            }
            let mut budget = inst.rank(&members);
            for (j, &inside) in members.iter().enumerate() {
                if inside {
                    if let Some(a) = frozen[j] {
                        budget -= a;
                    }
                }
            }
            // If the subset's ceilings fit the budget it never binds.
            let ceiling_total = sum(active.iter().map(|c| c.ceil));
            if !ceiling_total.definitely_gt(budget) {
                continue;
            }
            let t_j = invert_total(&active, budget);
            if t_j < t_star {
                t_star = t_j;
            }
        }

        // Freeze: demand-capped jobs first, then active members of tight
        // sets.
        let mut reasons: Vec<Option<FreezeReason>> = vec![None; n];
        for j in 0..n {
            if frozen[j].is_none() && !caps[j].at(t_star).definitely_lt(caps[j].ceil) {
                frozen[j] = Some(caps[j].ceil);
                reasons[j] = Some(FreezeReason::DemandCapped);
            }
        }
        for mask in 1u32..(1 << n) {
            let members: Vec<bool> = (0..n).map(|j| mask & (1 << j) != 0).collect();
            let mut used = S::ZERO;
            let mut has_active = false;
            for (j, &inside) in members.iter().enumerate() {
                if inside {
                    match frozen[j] {
                        Some(a) => used += a,
                        None => {
                            used += caps[j].at(t_star);
                            has_active = true;
                        }
                    }
                }
            }
            if has_active && used.approx_eq(inst.rank(&members)) {
                for (j, &inside) in members.iter().enumerate() {
                    if inside && frozen[j].is_none() {
                        frozen[j] = Some(caps[j].at(t_star));
                        reasons[j] = Some(FreezeReason::Bottlenecked);
                    }
                }
            }
        }
        let round = FreezeRound {
            level: t_star,
            frozen: reasons
                .iter()
                .enumerate()
                .filter_map(|(j, reason)| reason.map(|r| (j, r)))
                .collect(),
        };
        assert!(
            !round.frozen.is_empty(),
            "reference solver: no job froze at level {t_star} (numeric trouble)"
        );
        rounds.push(round);
    }

    ReferenceSolve {
        aggregates: frozen
            .into_iter()
            .map(|a| a.expect("loop exits only when every job is frozen"))
            .collect(),
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::AmfSolver;
    use amf_numeric::Rational;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ri(n: i128) -> Rational {
        Rational::from_int(n)
    }

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn matches_hand_computed_example() {
        // The sharing-incentive violation example: c=(10,10),
        // d_A=(5,5), d_B=(0,10): AMF = (15/2, 15/2).
        let inst = Instance::new(
            vec![ri(10), ri(10)],
            vec![vec![ri(5), ri(5)], vec![ri(0), ri(10)]],
        )
        .unwrap();
        let a = reference_aggregates(&inst, FairnessMode::Plain);
        assert_eq!(a, vec![r(15, 2), r(15, 2)]);
    }

    #[test]
    fn round_log_matches_hand_computed_example() {
        // c = (2, 10); jobs 0 and 3 share site 0, jobs 1 and 2 site 1.
        // Level 1: site 0 is full — job 3 also meets its demand there, so
        // it is demand-capped and job 0 bottlenecked. Levels only come from
        // tight sets, so job 1 (demand 3) freezes with the next one, at
        // level 7, where site 1 fills: demand-capped first, job 2
        // bottlenecked.
        let inst = Instance::new(
            vec![ri(2), ri(10)],
            vec![
                vec![ri(5), ri(0)],
                vec![ri(0), ri(3)],
                vec![ri(0), ri(20)],
                vec![ri(1), ri(0)],
            ],
        )
        .unwrap();
        let reference = reference_solve(&inst, FairnessMode::Plain);
        assert_eq!(reference.aggregates, vec![ri(1), ri(3), ri(7), ri(1)]);
        let want = vec![
            FreezeRound {
                level: ri(1),
                frozen: vec![
                    (0, FreezeReason::Bottlenecked),
                    (3, FreezeReason::DemandCapped),
                ],
            },
            FreezeRound {
                level: ri(7),
                frozen: vec![
                    (1, FreezeReason::DemandCapped),
                    (2, FreezeReason::Bottlenecked),
                ],
            },
        ];
        assert_eq!(reference.rounds, want);
        assert_eq!(AmfSolver::new().solve(&inst).rounds, want);
    }

    #[test]
    fn round_log_explains_the_aggregates() {
        // Unweighted plain AMF: every job with demand freezes exactly once
        // (a job without demand is settled at zero before the first round),
        // levels never fall, a demand-capped job gets its total demand and a
        // bottlenecked one the level of its round.
        let mut rng = StdRng::seed_from_u64(41);
        for trial in 0..60 {
            let n = rng.gen_range(1..7usize);
            let m = rng.gen_range(1..4usize);
            let capacities: Vec<Rational> = (0..m).map(|_| ri(rng.gen_range(0..12))).collect();
            let demands: Vec<Vec<Rational>> = (0..n)
                .map(|_| (0..m).map(|_| ri(rng.gen_range(0..10))).collect())
                .collect();
            let inst = Instance::new(capacities, demands).unwrap();
            let reference = reference_solve(&inst, FairnessMode::Plain);
            let mut frozen_in = vec![None; n];
            for (k, round) in reference.rounds.iter().enumerate() {
                assert!(!round.frozen.is_empty(), "trial {trial}: empty round {k}");
                for &(j, reason) in &round.frozen {
                    assert!(
                        frozen_in[j].is_none(),
                        "trial {trial}: job {j} frozen twice"
                    );
                    frozen_in[j] = Some(k);
                    let want = match reason {
                        FreezeReason::DemandCapped => inst.total_demand(j),
                        FreezeReason::Bottlenecked => round.level,
                    };
                    assert_eq!(reference.aggregates[j], want, "trial {trial} job {j}");
                }
            }
            for (j, k) in frozen_in.iter().enumerate() {
                assert_eq!(
                    k.is_some(),
                    inst.total_demand(j).is_positive(),
                    "trial {trial} job {j}"
                );
            }
            for w in reference.rounds.windows(2) {
                assert!(w[0].level <= w[1].level, "trial {trial}: level fell");
            }
        }
    }

    #[test]
    fn agrees_with_flow_solver_on_random_exact_instances() {
        let mut rng = StdRng::seed_from_u64(2024);
        for trial in 0..60 {
            let n = rng.gen_range(1..6usize);
            let m = rng.gen_range(1..4usize);
            let capacities: Vec<Rational> = (0..m).map(|_| ri(rng.gen_range(0..12))).collect();
            let demands: Vec<Vec<Rational>> = (0..n)
                .map(|_| (0..m).map(|_| ri(rng.gen_range(0..10))).collect())
                .collect();
            let inst = Instance::new(capacities, demands).unwrap();
            for mode in [FairnessMode::Plain, FairnessMode::Enhanced] {
                let reference = reference_aggregates(&inst, mode);
                let solver = match mode {
                    FairnessMode::Plain => AmfSolver::new(),
                    FairnessMode::Enhanced => AmfSolver::enhanced(),
                };
                let flow = solver.solve(&inst);
                for j in 0..n {
                    assert_eq!(
                        reference[j],
                        flow.allocation.aggregate(j),
                        "trial {trial} mode {mode:?} job {j}: reference {} vs solver {}",
                        reference[j],
                        flow.allocation.aggregate(j),
                    );
                }
            }
        }
    }

    #[test]
    fn agrees_with_flow_solver_on_weighted_instances() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..30 {
            let n = rng.gen_range(1..5usize);
            let m = rng.gen_range(1..4usize);
            let capacities: Vec<Rational> = (0..m).map(|_| ri(rng.gen_range(1..10))).collect();
            let demands: Vec<Vec<Rational>> = (0..n)
                .map(|_| (0..m).map(|_| ri(rng.gen_range(0..8))).collect())
                .collect();
            let weights: Vec<Rational> = (0..n).map(|_| ri(rng.gen_range(1..4))).collect();
            let inst = Instance::weighted(capacities, demands, weights).unwrap();
            let reference = reference_aggregates(&inst, FairnessMode::Plain);
            let flow = AmfSolver::new().solve(&inst);
            for j in 0..n {
                assert_eq!(reference[j], flow.allocation.aggregate(j));
            }
        }
    }

    #[test]
    #[should_panic(expected = "exponential")]
    fn rejects_large_instances() {
        let inst = Instance::new(vec![1.0], vec![vec![1.0]; 17]).unwrap();
        reference_aggregates(&inst, FairnessMode::Plain);
    }

    #[test]
    fn empty_instance_gives_empty_vector() {
        let inst = Instance::<Rational>::new(vec![ri(3)], vec![]).unwrap();
        assert!(reference_aggregates(&inst, FairnessMode::Plain).is_empty());
    }
}
