//! Property test for the shrinking-network solver core: the contracted
//! solve and the batch API must both agree with the brute-force reference
//! (`reference_solve`, exhaustive subset enumeration that shares no flow
//! machinery with the solver) — aggregates and freeze rounds bit-exactly
//! on [`Rational`], aggregates within 1e-6 on `f64` — and every output
//! must earn the independent `amf-audit` certificate on random skewed
//! instances.

use amf_audit::{audit, AuditReport};
use amf_core::{reference_solve, AmfSolver, FairnessMode, Instance, SolveOutput};
use amf_numeric::{Rational, Scalar};
use proptest::prelude::*;

/// One generated instance: capacities, demand rows, per-job weights (all 1
/// when unweighted), whether it is weighted, and whether Enhanced.
type Shape = (Vec<i64>, Vec<Vec<i64>>, Vec<i64>, bool, bool);

/// Random skewed shapes: a few jobs are "elephants" whose demands are an
/// order of magnitude above the rest, and some job/site cells are zeroed
/// (data locality), which is what makes contraction interesting. Half the
/// instances carry non-uniform weights.
fn skewed_shape() -> impl Strategy<Value = Shape> {
    (1usize..=8, 1usize..=4, 0u8..2, 0u8..2).prop_flat_map(|(n, m, enhanced, weighted)| {
        (
            proptest::collection::vec(1i64..24, m),
            proptest::collection::vec(
                (
                    proptest::collection::vec(0i64..8, m),
                    // Elephant multiplier: ~1 in 5 jobs demands 8× the rest.
                    0u8..5,
                ),
                n,
            )
            .prop_map(|rows| {
                rows.into_iter()
                    .map(|(row, pick)| {
                        let scale = if pick == 0 { 8 } else { 1 };
                        row.into_iter().map(|d| d * scale).collect()
                    })
                    .collect()
            }),
            proptest::collection::vec(1i64..4, n).prop_map(move |w| {
                if weighted == 1 {
                    w
                } else {
                    vec![1; w.len()]
                }
            }),
            Just(weighted == 1),
            Just(enhanced == 1),
        )
    })
}

fn instance<S: Scalar>(caps: &[i64], demands: &[Vec<i64>], weights: &[i64]) -> Instance<S> {
    let conv = |v: i64| S::from_ratio(v, 1);
    Instance::weighted(
        caps.iter().map(|&c| conv(c)).collect(),
        demands
            .iter()
            .map(|row| row.iter().map(|&d| conv(d)).collect())
            .collect(),
        weights.iter().map(|&w| conv(w)).collect(),
    )
    .expect("positive capacities and weights")
}

fn solver(enhanced: bool) -> AmfSolver {
    if enhanced {
        AmfSolver::enhanced()
    } else {
        AmfSolver::new()
    }
}

fn mode(enhanced: bool) -> FairnessMode {
    if enhanced {
        FairnessMode::Enhanced
    } else {
        FairnessMode::Plain
    }
}

/// The two solver entry points under test: a standalone contracted solve
/// and the batch API (which runs the same solver through per-worker pools).
fn both_ways<S: Scalar>(inst: &Instance<S>, enhanced: bool) -> [(&'static str, SolveOutput<S>); 2] {
    let s = solver(enhanced);
    let batch = s
        .solve_batch_with(std::slice::from_ref(inst), 2)
        .pop()
        .expect("one instance in, one out");
    [("contracted", s.solve(inst)), ("batch", batch)]
}

/// Whether `report` certifies the allocation. Plain AMF's envy-freeness is
/// an unweighted property, so weighted Plain instances are held to the
/// weight-agnostic core (feasibility + lex-optimality + Pareto) instead of
/// the full certificate.
fn certified<S: Scalar>(report: &AuditReport<S>, enhanced: bool, weighted: bool) -> bool {
    if enhanced || !weighted {
        report.is_certified_amf()
    } else {
        report.feasibility.is_proved()
            && report.lex_optimality.is_proved()
            && report.pareto.is_proved()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bit-exact agreement of both entry points with the reference on
    /// exact rationals — aggregates and rounds — and an audit certificate
    /// for each.
    fn agreement_with_reference_is_exact_on_rationals(
        (caps, demands, weights, weighted, enhanced) in skewed_shape()
    ) {
        let inst: Instance<Rational> = instance(&caps, &demands, &weights);
        let reference = reference_solve(&inst, mode(enhanced));
        for (name, out) in both_ways(&inst, enhanced) {
            prop_assert_eq!(
                out.allocation.aggregates(),
                &reference.aggregates[..],
                "{} disagrees with the reference", name
            );
            prop_assert_eq!(&out.rounds, &reference.rounds, "{} rounds differ", name);
            let report = audit(&inst, &out.allocation, mode(enhanced));
            prop_assert!(
                certified(&report, enhanced, weighted),
                "{} output failed audit: {}", name, report.summary()
            );
        }
    }

    /// Tolerance agreement of both entry points on f64 with the exact
    /// reference aggregates, each output audit-certified.
    fn agreement_with_reference_within_tolerance_on_f64(
        (caps, demands, weights, weighted, enhanced) in skewed_shape()
    ) {
        let exact: Instance<Rational> = instance(&caps, &demands, &weights);
        let reference = reference_solve(&exact, mode(enhanced));
        let inst: Instance<f64> = instance(&caps, &demands, &weights);
        for (name, out) in both_ways(&inst, enhanced) {
            for (j, want) in reference.aggregates.iter().enumerate() {
                let got = out.allocation.aggregate(j);
                prop_assert!(
                    (got - want.to_f64()).abs() < 1e-6,
                    "{} job {}: {} vs reference {}", name, j, got, want
                );
            }
            prop_assert!(out.allocation.is_feasible(&inst), "{} infeasible", name);
            let report = audit(&inst, &out.allocation, mode(enhanced));
            prop_assert!(
                certified(&report, enhanced, weighted),
                "{} output failed audit: {}", name, report.summary()
            );
        }
    }
}
