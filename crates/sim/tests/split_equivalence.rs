//! Bit-identity of the sparse [`SplitWorkspace`] against the dense
//! balanced-progress split it replaced.
//!
//! `dense_split` below is the dense implementation kept verbatim as an
//! oracle: it runs the ideal fill, the repair rounds, the rescale and the
//! clamp over the full `n × m` matrix and builds a fresh flow network. The
//! workspace must reproduce its output to the bit (`f64::to_bits` on every
//! cell), fresh or reused across instances of changing shape, and after a
//! call that panicked. On the inputs where the dense split overfills a
//! job past its aggregate and panics in the preload, the workspace scales
//! that job's preload down instead and must return a feasible split that
//! keeps every aggregate.

use amf_core::{water_fill_weighted, AmfSolver, Instance};
use amf_flow::AllocationNetwork;
use amf_sim::split::{balanced_progress_split, SplitWorkspace};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The dense split, as it stood before the cell layout.
fn dense_split(
    capacities: &[f64],
    demands: &[Vec<f64>],
    aggregates: &[f64],
    remaining: &[Vec<f64>],
    repair_rounds: usize,
) -> Vec<Vec<f64>> {
    let n = demands.len();
    let m = capacities.len();
    assert_eq!(aggregates.len(), n, "aggregate count mismatch");
    assert_eq!(remaining.len(), n, "remaining-work count mismatch");

    // Step 1: per-job ideal split — weighted water-fill of A_j over sites,
    // weight = remaining work (so x ∝ r until a demand cap binds).
    let mut x: Vec<Vec<f64>> = vec![vec![0.0; m]; n];
    for j in 0..n {
        fill_job(&mut x[j], aggregates[j], &demands[j], &remaining[j]);
    }

    // Step 2: repair rounds — scale over-subscribed sites, re-fill deficits.
    for _ in 0..repair_rounds {
        let mut oversubscribed = false;
        for s in 0..m {
            let load: f64 = x.iter().map(|row| row[s]).sum();
            if load > capacities[s] && load > 0.0 {
                let scale = capacities[s] / load;
                for row in x.iter_mut() {
                    row[s] *= scale;
                }
                oversubscribed = true;
            }
        }
        if !oversubscribed {
            break;
        }
        // Re-fill each job's deficit onto residual caps, still weighted by
        // remaining work.
        for j in 0..n {
            let got: f64 = x[j].iter().sum();
            let deficit = aggregates[j] - got;
            if deficit > 1e-12 {
                let residual_caps: Vec<f64> =
                    (0..m).map(|s| (demands[j][s] - x[j][s]).max(0.0)).collect();
                let mut extra = vec![0.0; m];
                fill_job(
                    &mut extra,
                    deficit.min(sum_of(&residual_caps)),
                    &residual_caps,
                    &remaining[j],
                );
                for s in 0..m {
                    x[j][s] += extra[s];
                }
            }
        }
    }

    // Make strictly feasible before preloading (repair may have re-filled
    // past a capacity on the last round).
    for s in 0..m {
        let load: f64 = x.iter().map(|row| row[s]).sum();
        if load > capacities[s] && load > 0.0 {
            let scale = capacities[s] / load;
            for row in x.iter_mut() {
                row[s] *= scale;
            }
        }
    }
    // Clamp rounding residue above demand caps.
    for j in 0..n {
        for s in 0..m {
            x[j][s] = x[j][s].min(demands[j][s]);
        }
    }

    // Step 3: augment to restore the aggregates exactly.
    let mut net = AllocationNetwork::new(demands, capacities);
    for (j, &a) in aggregates.iter().enumerate() {
        net.set_job_cap(j, a);
    }
    net.preload_split(&x);
    let total = net.run_max_flow();
    let want: f64 = aggregates.iter().sum();
    assert!(
        (total - want).abs() <= 1e-6 * (1.0 + want),
        "aggregates infeasible: reached {total} of {want}"
    );
    net.split_matrix()
}

/// Weighted water-fill of `amount` over one job's sites: rate ∝ weight
/// until a cap binds. Sites with zero weight and zero cap get nothing.
fn fill_job(out: &mut [f64], amount: f64, caps: &[f64], weights: &[f64]) {
    if amount <= 0.0 {
        out.iter_mut().for_each(|v| *v = 0.0);
        return;
    }
    // Indices with usable capacity. Weights of finished portions are 0;
    // give them a negligible positive weight so stray demand can still
    // absorb allocation if the work-bearing sites cannot take it all.
    let idx: Vec<usize> = (0..caps.len()).filter(|&s| caps[s] > 0.0).collect();
    if idx.is_empty() {
        out.iter_mut().for_each(|v| *v = 0.0);
        return;
    }
    let caps_v: Vec<f64> = idx.iter().map(|&s| caps[s]).collect();
    let weights_v: Vec<f64> = idx
        .iter()
        .map(|&s| if weights[s] > 0.0 { weights[s] } else { 1e-6 })
        .collect();
    let filled = water_fill_weighted(amount, &caps_v, &weights_v);
    out.iter_mut().for_each(|v| *v = 0.0);
    for (k, &s) in idx.iter().enumerate() {
        out[s] = filled[k];
    }
}

fn sum_of(v: &[f64]) -> f64 {
    v.iter().sum()
}

/// One split input. Aggregates come from a real AMF solve, so they are
/// feasible.
#[derive(Debug, Clone)]
struct Case {
    capacities: Vec<f64>,
    demands: Vec<Vec<f64>>,
    aggregates: Vec<f64>,
    remaining: Vec<Vec<f64>>,
    repair_rounds: usize,
}

const ROUNDS: [usize; 5] = [0, 1, 2, 4, 8];

/// A cell: `(presence roll, demand, work, finished roll)`.
type CellSpec = (u8, f64, f64, u8);

/// Build a case from raw draws. `density` is the percentage of present
/// cells (5 of 20 sites per job is the simulator's typical 25%); every
/// sixth row is all-zero when `zero_rows`; present cells with roll 7 or 57
/// carry a demand below the flow network's tolerance; `agg_mode` keeps the solved
/// aggregates (0), zeroes every third one (1), or zeroes them all (2).
#[allow(clippy::too_many_arguments)]
fn build_case(
    m: usize,
    n: usize,
    density: u8,
    zero_rows: bool,
    agg_mode: u8,
    rounds: usize,
    capacities: Vec<f64>,
    cells: Vec<CellSpec>,
) -> Case {
    let mut demands = vec![vec![0.0; m]; n];
    let mut remaining = vec![vec![0.0; m]; n];
    for (k, &(roll, d, w, fin)) in cells.iter().enumerate() {
        let (j, s) = (k / m, k % m);
        if zero_rows && j % 6 == 5 {
            continue;
        }
        if roll < density {
            demands[j][s] = if roll % 50 == 7 { 1e-10 } else { d };
            // Finished portion: its work is done but demand lingers.
            remaining[j][s] = if fin < 20 { 0.0 } else { w };
        } else if fin < 10 {
            // Stray work with no demand — the split must ignore it.
            remaining[j][s] = w;
        }
    }
    let inst = Instance::new(capacities.clone(), demands.clone()).expect("valid instance");
    let mut aggregates = AmfSolver::new()
        .solve(&inst)
        .allocation
        .aggregates()
        .to_vec();
    match agg_mode {
        1 => aggregates.iter_mut().step_by(3).for_each(|a| *a = 0.0),
        2 => aggregates.iter_mut().for_each(|a| *a = 0.0),
        _ => {}
    }
    Case {
        capacities,
        demands,
        aggregates,
        remaining,
        repair_rounds: ROUNDS[rounds],
    }
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        1usize..12,
        0usize..40,
        density_strategy(),
        0u8..2,
        0u8..3,
        0usize..ROUNDS.len(),
    )
        .prop_flat_map(|(m, n, density, zero_rows, agg_mode, rounds)| {
            (
                proptest::collection::vec(0.5f64..20.0, m),
                proptest::collection::vec((0u8..100, 0.1f64..10.0, 0.0f64..50.0, 0u8..100), n * m),
            )
                .prop_map(move |(capacities, cells)| {
                    build_case(
                        m,
                        n,
                        density,
                        zero_rows == 1,
                        agg_mode,
                        rounds,
                        capacities,
                        cells,
                    )
                })
        })
}

/// Cell density in percent: sparse (25), half (50) or dense (100).
fn density_strategy() -> impl Strategy<Value = u8> {
    (0u8..3).prop_map(|k| [25, 50, 100][k as usize])
}

/// A split's output, or the message it panicked with.
type Outcome = Result<Vec<Vec<f64>>, String>;

fn outcome(split: impl FnOnce() -> Vec<Vec<f64>>) -> Outcome {
    catch_unwind(AssertUnwindSafe(split)).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    })
}

fn oracle(case: &Case) -> Outcome {
    outcome(|| {
        dense_split(
            &case.capacities,
            &case.demands,
            &case.aggregates,
            &case.remaining,
            case.repair_rounds,
        )
    })
}

fn run(ws: &mut SplitWorkspace, case: &Case) -> Outcome {
    outcome(|| {
        ws.split(
            &case.capacities,
            &case.demands,
            &case.aggregates,
            &case.remaining,
            case.repair_rounds,
        )
    })
}

/// The dense split's panic when its preload overfills a job.
const OVERFILL: &str = "add_flow: exceeds capacity";

/// Same bits on every cell, or the same panic — except where the dense
/// split overshoots an aggregate by a few 1e-9 and panics in the preload
/// ([`OVERFILL`]): there the workspace must return a feasible split that
/// keeps every aggregate (see [`assert_feasible_split`]).
fn assert_same(case: &Case, got: &Outcome, want: &Outcome) {
    if matches!(want, Err(w) if w == OVERFILL) {
        match got {
            Ok(got) => assert_feasible_split(case, got),
            Err(e) => panic!("the workspace must scale an overfilled job, not panic: {e}"),
        }
        return;
    }
    match (got, want) {
        (Ok(got), Ok(want)) => {
            assert_eq!(got.len(), want.len(), "row count");
            for (j, (g, w)) in got.iter().zip(want).enumerate() {
                assert_eq!(g.len(), w.len(), "row {j} length");
                for (s, (a, b)) in g.iter().zip(w).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "cell ({j}, {s}): {a} vs {b}");
                }
            }
        }
        (Err(got), Err(want)) => assert_eq!(got, want, "different panics"),
        _ => panic!("outcomes differ: {got:?} vs {want:?}"),
    }
}

/// `x` stays within every demand and capacity and its row sums equal the
/// aggregates, all within 1e-6.
fn assert_feasible_split(case: &Case, x: &[Vec<f64>]) {
    assert_eq!(x.len(), case.demands.len(), "row count");
    for (j, (row, d_row)) in x.iter().zip(&case.demands).enumerate() {
        assert_eq!(row.len(), case.capacities.len(), "row {j} length");
        for (s, (&v, &d)) in row.iter().zip(d_row).enumerate() {
            assert!(
                v >= 0.0 && v <= d + 1e-6,
                "cell ({j}, {s}) = {v} outside [0, {d}]"
            );
        }
        let total: f64 = row.iter().sum();
        let want = case.aggregates[j];
        assert!(
            (total - want).abs() <= 1e-6,
            "job {j} sums to {total}, aggregate {want}"
        );
    }
    for (s, &cap) in case.capacities.iter().enumerate() {
        let load: f64 = x.iter().map(|row| row[s]).sum();
        assert!(
            load <= cap + 1e-6,
            "site {s} load {load} over capacity {cap}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// A fresh workspace (and the one-shot wrapper) reproduce the dense
    /// split bit for bit.
    fn fresh_workspace_matches_dense(case in case_strategy()) {
        let want = oracle(&case);
        assert_same(&case, &run(&mut SplitWorkspace::new(), &case), &want);
        let one_shot = outcome(|| {
            balanced_progress_split(
                &case.capacities,
                &case.demands,
                &case.aggregates,
                &case.remaining,
                case.repair_rounds,
            )
        });
        assert_same(&case, &one_shot, &want);
    }

    /// One workspace carried across instances that grow and shrink in both
    /// jobs and sites still matches the dense split on every one.
    fn reused_workspace_matches_dense(
        cases in proptest::collection::vec(case_strategy(), 2..8),
    ) {
        let mut ws = SplitWorkspace::new();
        for case in &cases {
            assert_same(case, &run(&mut ws, case), &oracle(case));
        }
    }
}

/// Two jobs piled onto one site of a two-site instance: the given
/// aggregates (8, 8) exceed the total capacity of 8.
fn infeasible_case() -> Case {
    Case {
        capacities: vec![4.0, 4.0],
        demands: vec![vec![4.0, 4.0], vec![4.0, 4.0]],
        aggregates: vec![8.0, 8.0],
        remaining: vec![vec![10.0, 1.0], vec![1.0, 10.0]],
        repair_rounds: 4,
    }
}

#[test]
fn workspace_survives_a_panicking_call() {
    let valid = build_case(
        3,
        4,
        100,
        false,
        0,
        3,
        vec![5.0, 3.0, 2.0],
        (0..12)
            .map(|k| (k as u8, 1.0 + k as f64, 2.0 * k as f64, 50))
            .collect(),
    );
    let want = oracle(&valid);
    assert!(want.is_ok(), "the valid case splits: {want:?}");
    let mut ws = SplitWorkspace::new();
    assert_same(&valid, &run(&mut ws, &valid), &want);

    let err = run(&mut ws, &infeasible_case()).expect_err("infeasible aggregates must panic");
    assert!(
        err.contains("aggregates infeasible"),
        "panic message: {err}"
    );
    assert_same(&valid, &run(&mut ws, &valid), &want);

    let mut ragged = valid.clone();
    ragged.remaining[2].pop();
    let err = run(&mut ws, &ragged).expect_err("a ragged row must panic");
    assert!(
        err.contains("ragged remaining-work row 2"),
        "panic message: {err}"
    );
    assert_same(&valid, &run(&mut ws, &valid), &want);
}

/// Reduced from a generated case on which the dense split panics: job 1's
/// ideal fill lands 1.6e-9 past its aggregate, because its finished
/// portion at site 0 (weight 1e-6) puts the water level far out. Site 0
/// is then over capacity by the same amount, and the rescale leaves job 1
/// still more than 1e-9 over.
#[test]
fn overfilled_job_is_scaled_to_its_aggregate() {
    let case = Case {
        capacities: vec![9.867809936599848, 19.979370769519107],
        demands: vec![
            vec![9.962940502731405, 0.0],
            vec![1.855803419665276, 8.600158156270378],
        ],
        aggregates: vec![9.233984046435113, 9.233984046435113],
        remaining: vec![vec![12.194342410864262, 0.0], vec![0.0, 34.99344223848364]],
        repair_rounds: 4,
    };
    assert_eq!(oracle(&case), Err(OVERFILL.to_string()));
    let got = run(&mut SplitWorkspace::new(), &case).expect("the workspace splits");
    assert_feasible_split(&case, &got);
    // Eight repair rounds pull job 1 back under; the dense split succeeds
    // there and the workspace must still match it bit for bit.
    for rounds in ROUNDS {
        let case = Case {
            repair_rounds: rounds,
            ..case.clone()
        };
        assert_same(
            &case,
            &run(&mut SplitWorkspace::new(), &case),
            &oracle(&case),
        );
    }
}

#[test]
#[should_panic(expected = "ragged demand row 1")]
fn ragged_demand_row_is_named() {
    balanced_progress_split(
        &[1.0, 1.0],
        &[vec![1.0, 1.0], vec![1.0]],
        &[0.5, 0.5],
        &[vec![1.0, 1.0], vec![1.0, 1.0]],
        2,
    );
}

#[test]
#[should_panic(expected = "ragged remaining-work row 0")]
fn ragged_remaining_row_is_named() {
    SplitWorkspace::new().split(
        &[1.0, 1.0],
        &[vec![1.0, 1.0]],
        &[0.5],
        &[vec![1.0, 1.0, 1.0]],
        2,
    );
}

#[test]
#[should_panic(expected = "ragged demand row 0")]
fn workspace_checks_rows_against_site_count() {
    SplitWorkspace::new().split(&[1.0], &[vec![1.0, 1.0]], &[0.5], &[vec![1.0, 1.0]], 2);
}
