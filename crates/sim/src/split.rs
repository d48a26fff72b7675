//! The JCT add-on: per-site split optimization under fixed aggregates.
//!
//! An AMF allocation pins each job's **aggregate** `A_j`, but the per-site
//! split realizing it is generally not unique. A job's completion time is
//! `max_s r[j][s] / x[j][s]` (its slowest portion), so for a fixed
//! aggregate the best split puts rate proportional to remaining work —
//! then all portions finish simultaneously. The paper proposes an add-on
//! that optimizes completion times under AMF; its exact procedure is
//! unavailable (abstract-only source, see DESIGN.md), so this module
//! implements the natural reconstruction with the same contract: **the
//! fair aggregates are preserved exactly**, only the split changes.
//!
//! Procedure ([`balanced_progress_split`]):
//! 1. *Ideal split*: fill each job's `A_j` over its sites with rates
//!    proportional to remaining work, respecting demand caps (a weighted
//!    water-fill with the remaining work as weights).
//! 2. *Repair*: scale down over-subscribed sites and re-fill each job's
//!    deficit onto sites with headroom, for a fixed number of rounds
//!    (Sinkhorn-style; the round count is an ablation knob).
//! 3. *Exactness*: load the (feasible) repaired split into the allocation
//!    network and augment — max-flow restores every aggregate to exactly
//!    `A_j`, which is possible because the aggregates came from a feasible
//!    allocation.
//!
//! Steps 1 and 2 run over a sparse cell layout (one cell per strictly
//! positive demand) held in a reusable [`SplitWorkspace`], together with
//! the water-fill buffers and the max-flow arena of step 3. The event loop
//! keeps one workspace for the whole run; [`balanced_progress_split`] is
//! the one-shot form. Skipping the zero-demand cells only skips additions
//! of exact zeros, so the output is bitwise the same as running the steps
//! over the dense `n × m` matrix (DESIGN.md §2.3).

use amf_core::levels::LevelCap;
use amf_core::water_fill_weighted_into;
use amf_flow::{AllocationNetwork, FlowBackend, FlowScratch};
use amf_numeric::Scalar;

/// How the engine splits aggregate allocations across sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitStrategy {
    /// Use the split the policy returned (AMF's is an arbitrary max-flow
    /// decomposition; PSMF's is already site-determined).
    #[default]
    PolicySplit,
    /// The JCT add-on: re-split each job's aggregate proportional to its
    /// remaining work per site.
    BalancedProgress {
        /// Repair rounds for site over-subscription (2–8 is plenty; the
        /// ablation bench sweeps this).
        repair_rounds: usize,
    },
}

/// Weight given to a portion with no remaining work: negligible, but
/// positive so stray demand can still absorb allocation if the
/// work-bearing sites cannot take it all.
const FINISHED_WEIGHT: f64 = 1e-6;

/// Reusable state of [`balanced_progress_split`]: the sparse cell layout,
/// per-site and water-fill buffers, and the flow arena of the final
/// max-flow. After the first calls have grown its buffers, a call
/// allocates only the returned matrix.
///
/// Cells are the strictly positive demands, rows back to back in job
/// order and in ascending site order within a row. A panicking call (for
/// example on infeasible aggregates) leaves the workspace usable: every
/// call rebuilds its state from the inputs.
#[derive(Debug, Default)]
pub struct SplitWorkspace {
    /// Cells of job `j` are `row_start[j]..row_start[j + 1]`.
    row_start: Vec<usize>,
    site: Vec<usize>,
    demand: Vec<f64>,
    /// Remaining work, or [`FINISHED_WEIGHT`] where none is left.
    weight: Vec<f64>,
    x: Vec<f64>,
    /// Per site: column load, then the scale factor of a rescale pass.
    load: Vec<f64>,
    /// Residual-fill inputs and output, and the cells they belong to.
    caps: Vec<f64>,
    weights: Vec<f64>,
    filled: Vec<f64>,
    picked: Vec<usize>,
    levels: Vec<LevelCap<f64>>,
    events: Vec<(f64, f64)>,
    /// Preload flows, one per demand edge of the network.
    edge_flows: Vec<f64>,
    site_totals: Vec<f64>,
    scratch: FlowScratch<f64>,
}

impl SplitWorkspace {
    /// An empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`balanced_progress_split`] on this workspace's buffers: same
    /// arguments, same output bits, same panics.
    pub fn split(
        &mut self,
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
        for (j, (d, r)) in demands.iter().zip(remaining).enumerate() {
            assert_eq!(d.len(), m, "ragged demand row {j}");
            assert_eq!(r.len(), m, "ragged remaining-work row {j}");
        }
        self.build_cells(demands, remaining);

        // Step 1: per-job ideal split — weighted water-fill of A_j over its
        // cells, weight = remaining work (so x ∝ r until a demand cap binds).
        for (j, &a) in aggregates.iter().enumerate() {
            let cells = self.row_start[j]..self.row_start[j + 1];
            // A NaN aggregate is filled too; it fails the final check.
            if a > 0.0 || a.is_nan() {
                water_fill_weighted_into(
                    a,
                    &self.demand[cells.clone()],
                    &self.weight[cells.clone()],
                    &mut self.x[cells],
                    &mut self.levels,
                    &mut self.events,
                );
            }
        }

        // Step 2: repair rounds — scale over-subscribed sites, re-fill each
        // job's deficit onto residual caps, still weighted by remaining work.
        for _ in 0..repair_rounds {
            if !self.rescale(capacities) {
                break;
            }
            for (j, &a) in aggregates.iter().enumerate() {
                self.refill(j, a);
            }
        }

        // Make strictly feasible before preloading (repair may have
        // re-filled past a capacity on the last round), then clamp rounding
        // residue above demand caps.
        self.rescale(capacities);
        for (x, &d) in self.x.iter_mut().zip(&self.demand) {
            *x = x.min(d);
        }

        // Step 3: augment to restore the aggregates exactly. The network
        // has an edge only for demands that are positive beyond its
        // tolerance; the other cells carry at most that much and are not
        // preloaded, as in `preload_split`.
        self.edge_flows.clear();
        self.edge_flows.extend(
            self.x
                .iter()
                .zip(&self.demand)
                .filter(|(_, &d)| Scalar::is_positive(d))
                .map(|(&x, _)| x),
        );
        let mut net = AllocationNetwork::new_with_scratch(
            demands,
            capacities,
            FlowBackend::default(),
            std::mem::take(&mut self.scratch),
        );
        for (j, &a) in aggregates.iter().enumerate() {
            net.set_job_cap(j, a);
        }
        net.preload_edge_flows(&self.edge_flows, &mut self.site_totals);
        let total = net.run_max_flow();
        let split = net.split_matrix();
        self.scratch = net.take_scratch();
        let want: f64 = aggregates.iter().sum();
        assert!(
            (total - want).abs() <= 1e-6 * (1.0 + want),
            "aggregates infeasible: reached {total} of {want}"
        );
        split
    }

    /// Lay out the positive-demand cells with their weights and a zero
    /// split.
    fn build_cells(&mut self, demands: &[Vec<f64>], remaining: &[Vec<f64>]) {
        self.row_start.clear();
        self.site.clear();
        self.demand.clear();
        self.weight.clear();
        self.row_start.push(0);
        for (d_row, r_row) in demands.iter().zip(remaining) {
            for (s, (&d, &r)) in d_row.iter().zip(r_row).enumerate() {
                if d > 0.0 {
                    self.site.push(s);
                    self.demand.push(d);
                    self.weight.push(if r > 0.0 { r } else { FINISHED_WEIGHT });
                }
            }
            self.row_start.push(self.site.len());
        }
        self.x.clear();
        self.x.resize(self.site.len(), 0.0);
    }

    /// Scale every over-subscribed site down to its capacity; returns
    /// whether any site was over-subscribed. Column loads add the cells in
    /// job order, the order of a dense column sum.
    fn rescale(&mut self, capacities: &[f64]) -> bool {
        self.load.clear();
        self.load.resize(capacities.len(), 0.0);
        for (&s, &x) in self.site.iter().zip(&self.x) {
            self.load[s] += x;
        }
        let mut oversubscribed = false;
        for (load, &cap) in self.load.iter_mut().zip(capacities) {
            *load = if *load > cap && *load > 0.0 {
                oversubscribed = true;
                cap / *load
            } else {
                1.0
            };
        }
        if oversubscribed {
            for (&s, x) in self.site.iter().zip(&mut self.x) {
                *x *= self.load[s];
            }
        }
        oversubscribed
    }

    /// Re-fill job `j`'s deficit against aggregate `a` onto the residual
    /// demand of its cells.
    fn refill(&mut self, j: usize, a: f64) {
        let cells = self.row_start[j]..self.row_start[j + 1];
        let got: f64 = self.x[cells.clone()].iter().sum();
        let deficit = a - got;
        if deficit.is_nan() || deficit <= 1e-12 {
            return;
        }
        self.caps.clear();
        self.weights.clear();
        self.picked.clear();
        let mut headroom = 0.0;
        for c in cells.clone() {
            let residual = (self.demand[c] - self.x[c]).max(0.0);
            headroom += residual;
            if residual > 0.0 {
                self.caps.push(residual);
                self.weights.push(self.weight[c]);
                self.picked.push(c);
            }
        }
        let amount = deficit.min(headroom);
        if amount <= 0.0 {
            self.picked.clear();
        }
        self.filled.clear();
        self.filled.resize(self.picked.len(), 0.0);
        if !self.picked.is_empty() {
            water_fill_weighted_into(
                amount,
                &self.caps,
                &self.weights,
                &mut self.filled,
                &mut self.levels,
                &mut self.events,
            );
        }
        // Every cell of the row takes its share, zero where none was
        // filled, as the dense row update does.
        let mut next = self.picked.iter().zip(&self.filled).peekable();
        for c in cells {
            let extra = match next.peek() {
                Some(&(&p, &v)) if p == c => {
                    next.next();
                    v
                }
                _ => 0.0,
            };
            self.x[c] += extra;
        }
    }
}

/// Compute a work-proportional split of the given aggregates.
///
/// * `capacities[s]` — site capacities;
/// * `demands[j][s]` — current demand caps (0 where the portion is done);
/// * `aggregates[j]` — the fair aggregate to preserve for each job;
/// * `remaining[j][s]` — remaining work per site;
/// * `repair_rounds` — over-subscription repair iterations.
///
/// Returns a feasible split whose row sums equal `aggregates` (up to f64
/// tolerance). One-shot form of [`SplitWorkspace::split`]; callers that
/// split repeatedly should keep a workspace.
///
/// # Panics
/// Panics if the aggregates are infeasible for `(capacities, demands)` —
/// they must come from a feasible allocation — or if the row counts or
/// row lengths of `demands`, `aggregates` and `remaining` do not match.
pub fn balanced_progress_split(
    capacities: &[f64],
    demands: &[Vec<f64>],
    aggregates: &[f64],
    remaining: &[Vec<f64>],
    repair_rounds: usize,
) -> Vec<Vec<f64>> {
    SplitWorkspace::new().split(capacities, demands, aggregates, remaining, repair_rounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_split_is_work_proportional() {
        // One job, A = 6, remaining (2, 1) → split (4, 2): both portions
        // finish at the same instant.
        let x = balanced_progress_split(
            &[10.0, 10.0],
            &[vec![10.0, 10.0]],
            &[6.0],
            &[vec![2.0, 1.0]],
            4,
        );
        assert!((x[0][0] - 4.0).abs() < 1e-9);
        assert!((x[0][1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn demand_caps_bind() {
        // Proportional wants (4, 2) but site-0 demand cap is 3: the
        // overflow moves to site 1.
        let x = balanced_progress_split(
            &[10.0, 10.0],
            &[vec![3.0, 10.0]],
            &[6.0],
            &[vec![2.0, 1.0]],
            4,
        );
        assert!((x[0][0] - 3.0).abs() < 1e-9);
        assert!((x[0][1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn aggregates_preserved_under_contention() {
        // Two jobs pile onto site 0; the repair + augment phases must keep
        // both aggregates intact.
        let capacities = [4.0, 4.0];
        let demands = vec![vec![4.0, 4.0], vec![4.0, 4.0]];
        let aggregates = [4.0, 4.0];
        let remaining = vec![vec![10.0, 1.0], vec![10.0, 1.0]];
        let x = balanced_progress_split(&capacities, &demands, &aggregates, &remaining, 4);
        for (j, row) in x.iter().enumerate() {
            let total: f64 = row.iter().sum();
            assert!(
                (total - aggregates[j]).abs() < 1e-6,
                "job {j} aggregate drifted: {total}"
            );
        }
        for s in 0..2 {
            let load: f64 = x.iter().map(|row| row[s]).sum();
            assert!(load <= capacities[s] + 1e-6);
        }
    }

    #[test]
    fn balanced_beats_arbitrary_split_on_finish_time() {
        // Job with work (9, 1) and aggregate 5. Balanced: rates (4.5, 0.5)
        // → finish at 2.0. A lopsided split like (2.5, 2.5) finishes at
        // 9/2.5 = 3.6.
        let x = balanced_progress_split(
            &[10.0, 10.0],
            &[vec![10.0, 10.0]],
            &[5.0],
            &[vec![9.0, 1.0]],
            4,
        );
        let finish = (9.0 / x[0][0]).max(1.0 / x[0][1]);
        assert!((finish - 2.0).abs() < 1e-6, "finish {finish}");
    }

    #[test]
    fn zero_aggregate_job() {
        let x = balanced_progress_split(
            &[5.0],
            &[vec![5.0], vec![5.0]],
            &[0.0, 5.0],
            &[vec![1.0], vec![1.0]],
            2,
        );
        assert_eq!(x[0][0], 0.0);
        assert!((x[1][0] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn finished_portion_attracts_no_rate_when_work_elsewhere() {
        // Site 0's portion is done (remaining 0) but demand lingers; the
        // split should put (almost) everything on site 1 where work is.
        let x = balanced_progress_split(
            &[10.0, 10.0],
            &[vec![5.0, 5.0]],
            &[5.0],
            &[vec![0.0, 3.0]],
            2,
        );
        assert!(x[0][1] > 4.9, "work-bearing site starved: {:?}", x[0]);
    }

    #[test]
    #[should_panic(expected = "aggregates infeasible")]
    fn infeasible_aggregates_rejected() {
        balanced_progress_split(&[1.0], &[vec![1.0]], &[5.0], &[vec![1.0]], 2);
    }
}
