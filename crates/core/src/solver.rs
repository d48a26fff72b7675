//! The AMF progressive-filling solver.
//!
//! Computes the Aggregate Max-min Fair allocation: the lexicographically
//! greatest (sorted ascending) feasible vector of aggregate allocations
//! `A_j = Σ_s x[j][s]`, optionally with job weights (fairness on `A_j/w_j`)
//! and per-job floors (Enhanced AMF's sharing-incentive guarantee).
//!
//! # Algorithm
//!
//! Classic progressive filling, with the bottleneck set found by a
//! Dinkelbach iteration over max-flow feasibility checks (Megiddo-style
//! lexicographically optimal flows):
//!
//! 1. Every *active* job targets `u_j(t) = clamp(w_j t, floor_j, D_j)` at
//!    water level `t`; *frozen* jobs keep their fixed aggregate.
//! 2. Level `t` is feasible iff the allocation network admits a flow
//!    saturating every source cap. We search for the largest feasible `t`:
//!    start at the level where every active job is demand-capped; while
//!    infeasible, read the violating job set `J` off the min cut, and lower
//!    `t` to the level at which `J`'s polymatroid constraint
//!    `Σ_{j∈J} u_j(t) = f(J) - Σ_{frozen∈J} A_j` becomes tight
//!    ([`crate::levels::invert_total`]). Each step strictly lowers `t` and
//!    pins a new subset, so the iteration is finite.
//! 3. At the resulting `t*`, freeze every active job that is demand-capped
//!    or has no residual path to the sink (it sits in a tight set and can
//!    never grow). At least one job freezes per round, so there are at most
//!    `n` rounds.
//!
//! # The shrinking network
//!
//! The solver **contracts** the allocation network after every freeze
//! round. Frozen jobs and sink-unreachable sites can never gain or
//! lose flow at any later water level (no augmenting path traverses a node
//! without a residual path to the sink, and additional flow injected by
//! raising an *active* job's source cap stays inside the sink-reachable
//! set), so their per-site splits are committed immediately; the flows
//! active jobs hold at removed sites fold into a per-job `base` offset and
//! the committed usage at surviving sites folds into *residual site
//! budgets*. Round `k` then runs its max flows on only the still-active
//! jobs × still-growable sites subgraph, which shrinks geometrically on
//! typical workloads. Every feasibility check warm-starts Dinic from the
//! previous check's flow: a job whose cap drops below its flow drains only
//! its own excess, and the next max flow augments what survives.
//!
//! With the exact [`Rational`](amf_numeric::Rational) scalar the result is
//! the exact AMF vector; property tests hold it, freeze rounds included,
//! bit-exact against the brute-force subset enumeration of
//! [`reference_solve`](crate::reference_solve). With `f64` all comparisons
//! use a relative tolerance.

use crate::levels::{invert_total, LevelCap};
use crate::model::{Allocation, Instance};
use amf_flow::{AllocationNetwork, FlowScratch};
use amf_numeric::{max2, min2, sum, Scalar};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Which fairness objective the solver computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FairnessMode {
    /// Plain AMF: max-min fairness on the aggregate allocations.
    #[default]
    Plain,
    /// Enhanced AMF: max-min fairness subject to the sharing-incentive
    /// floors `A_j >= e_j` (equal shares). Guarantees sharing incentive.
    Enhanced,
}

/// Why a job's allocation stopped growing in a progressive-filling round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreezeReason {
    /// The job reached its total demand (it wants nothing more).
    DemandCapped,
    /// The job sits in a tight set: the capacity reachable through its
    /// demand edges is exhausted at this level.
    Bottlenecked,
}

/// One progressive-filling round: the water level reached and the jobs
/// frozen at it. The sequence of rounds *explains* an AMF allocation —
/// which jobs are demand-limited, which share which bottleneck, and at
/// what level — which is what an operator asks of a fair scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct FreezeRound<S> {
    /// The water level of this round.
    pub level: S,
    /// `(job, reason)` for every job frozen in this round.
    pub frozen: Vec<(usize, FreezeReason)>,
}

/// Work counters and diagnostics from one solver run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Progressive-filling rounds executed (each freezes >= 1 job).
    pub rounds: usize,
    /// Total Dinkelbach (feasibility) iterations across rounds.
    pub dinkelbach_iterations: usize,
    /// Total max-flow computations, including any final split extraction.
    pub max_flows: usize,
    /// Feasibility checks that could not keep the previous flow as-is:
    /// some job's cap fell below its warm flow, so that job's excess was
    /// drained (the rest of the warm flow survives).
    pub flow_resets: usize,
    /// Network contractions performed: one per freeze round that leaves
    /// jobs active.
    pub contractions: usize,
    /// Sum over rounds of the number of jobs still in the working network —
    /// the shrinking advantage of contraction shows up here.
    pub active_job_rounds: usize,
    /// Sum over rounds of the number of sites still in the working network.
    pub active_site_rounds: usize,
    /// Residual-graph edge inspections performed by the flow kernels and
    /// reachability sweeps (from the [`FlowScratch`] counters).
    pub edges_visited: u64,
    /// Times a kernel invocation found its scratch arena already sized —
    /// i.e. ran allocation-free.
    pub scratch_reuse_hits: u64,
    /// CSR adjacency rebuilds performed by the kernels — one per network
    /// structure actually traversed, however many max flows ran on it
    /// (from the [`FlowScratch`] counters).
    pub csr_rebuilds: u64,
    /// 64-bit words zeroed by frontier-bitset resets in the kernels and
    /// reachability sweeps — the entire cost of clearing visited sets under
    /// the word-packed layout (from the [`FlowScratch`] counters).
    pub bitset_words_cleared: u64,
    /// Freeze rounds an incremental session verified against its cached
    /// round log and replayed without re-solving (always 0 on the
    /// from-scratch paths).
    pub rounds_replayed: usize,
    /// Freeze rounds an incremental session had to re-solve by Dinkelbach
    /// descent after a delta invalidated the cached suffix (always 0 on
    /// the from-scratch paths, where `rounds` counts that work).
    pub rounds_resolved: usize,
}

impl SolveStats {
    /// Fold another run's *work* counters into this one — everything except
    /// the round-log bookkeeping fields (`rounds`, `rounds_replayed`,
    /// `rounds_resolved`), which callers account for separately. Every add
    /// saturates: long-lived incremental sessions accumulate these across
    /// an unbounded number of solves, and a counter pinned at its ceiling
    /// beats a silently wrapped one.
    pub fn saturating_merge_work(&mut self, other: &SolveStats) {
        self.dinkelbach_iterations = self
            .dinkelbach_iterations
            .saturating_add(other.dinkelbach_iterations);
        self.max_flows = self.max_flows.saturating_add(other.max_flows);
        self.flow_resets = self.flow_resets.saturating_add(other.flow_resets);
        self.contractions = self.contractions.saturating_add(other.contractions);
        self.active_job_rounds = self
            .active_job_rounds
            .saturating_add(other.active_job_rounds);
        self.active_site_rounds = self
            .active_site_rounds
            .saturating_add(other.active_site_rounds);
        self.edges_visited = self.edges_visited.saturating_add(other.edges_visited);
        self.scratch_reuse_hits = self
            .scratch_reuse_hits
            .saturating_add(other.scratch_reuse_hits);
        self.csr_rebuilds = self.csr_rebuilds.saturating_add(other.csr_rebuilds);
        self.bitset_words_cleared = self
            .bitset_words_cleared
            .saturating_add(other.bitset_words_cleared);
    }
}

/// Result of an AMF solve: the allocation, the frozen levels, and stats.
#[derive(Debug, Clone)]
pub struct SolveOutput<S> {
    /// The AMF allocation (split + aggregates).
    pub allocation: Allocation<S>,
    /// The freeze structure: one entry per progressive-filling round,
    /// in round order (explains the allocation; see [`FreezeRound`]).
    pub rounds: Vec<FreezeRound<S>>,
    /// Solver diagnostics.
    pub stats: SolveStats,
}

/// Reusable working memory for [`AmfSolver::solve_with_pool`].
///
/// Holds the flow kernels' [`FlowScratch`] arena plus every per-round
/// buffer the solver needs (cap vectors, cut/reachability masks, preload
/// and split matrices), so a pooled solve performs no per-check heap
/// allocation once the buffers have grown to the instance size. One pool
/// serves any number of sequential solves of any sizes; it is `Send`, so
/// [`AmfSolver::solve_batch`] hands one to each worker thread.
#[derive(Debug)]
pub struct SolverPool<S> {
    scratch: FlowScratch<S>,
    us: Vec<S>,
    side: Vec<bool>,
    grow_jobs: Vec<bool>,
    grow_sites: Vec<bool>,
    freeze: Vec<bool>,
    members: Vec<LevelCap<S>>,
    preload: Vec<Vec<S>>,
    demands_buf: Vec<Vec<S>>,
    split: Vec<Vec<S>>,
    frozen_usage: Vec<S>,
    rank_buf: Vec<S>,
}

impl<S: Scalar> SolverPool<S> {
    /// An empty pool; buffers grow on first use.
    pub fn new() -> Self {
        SolverPool {
            scratch: FlowScratch::new(),
            us: Vec::new(),
            side: Vec::new(),
            grow_jobs: Vec::new(),
            grow_sites: Vec::new(),
            freeze: Vec::new(),
            members: Vec::new(),
            preload: Vec::new(),
            demands_buf: Vec::new(),
            split: Vec::new(),
            frozen_usage: Vec::new(),
            rank_buf: Vec::new(),
        }
    }

    /// The kernel scratch arena, for reading its diagnostic counters.
    pub fn scratch(&self) -> &FlowScratch<S> {
        &self.scratch
    }
}

impl<S: Scalar> Default for SolverPool<S> {
    fn default() -> Self {
        SolverPool::new()
    }
}

/// The AMF solver: progressive filling with flow-based bottleneck
/// detection. See the [module docs](self) for the algorithm.
///
/// ```
/// use amf_core::{AmfSolver, Instance};
/// // Two sites of capacity 6 and 2; job 0 lives only at site 0, job 1 at
/// // both. AMF equalizes the aggregates at 4 each.
/// let inst = Instance::new(
///     vec![6.0, 2.0],
///     vec![vec![6.0, 0.0], vec![6.0, 2.0]],
/// ).unwrap();
/// let out = AmfSolver::new().solve(&inst);
/// assert!((out.allocation.aggregate(0) - 4.0).abs() < 1e-9);
/// assert!((out.allocation.aggregate(1) - 4.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AmfSolver {
    mode: FairnessMode,
}

impl Default for AmfSolver {
    fn default() -> Self {
        AmfSolver::new()
    }
}

impl AmfSolver {
    /// Plain AMF.
    pub fn new() -> Self {
        AmfSolver {
            mode: FairnessMode::Plain,
        }
    }

    /// Enhanced AMF (sharing-incentive floors).
    pub fn enhanced() -> Self {
        AmfSolver {
            mode: FairnessMode::Enhanced,
        }
    }

    /// The configured mode.
    pub fn mode(&self) -> FairnessMode {
        self.mode
    }

    /// Compute the AMF allocation for `inst`.
    ///
    /// Allocates a private [`SolverPool`]; callers solving many instances
    /// should hold one and use [`solve_with_pool`](Self::solve_with_pool)
    /// (or [`solve_batch`](Self::solve_batch)) instead.
    pub fn solve<S: Scalar>(&self, inst: &Instance<S>) -> SolveOutput<S> {
        let mut pool = SolverPool::new();
        self.solve_with_pool(inst, &mut pool)
    }

    /// Solve many instances, in parallel when the host has multiple cores.
    ///
    /// Output order matches input order, and each output is identical to a
    /// standalone [`solve`](Self::solve) of that instance. Worker threads
    /// pull instances off a shared index and each owns one [`SolverPool`],
    /// so arenas are reused within a thread and never contended across
    /// threads.
    pub fn solve_batch<S: Scalar>(&self, insts: &[Instance<S>]) -> Vec<SolveOutput<S>> {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        self.solve_batch_with(insts, threads)
    }

    /// [`solve_batch`](Self::solve_batch) with an explicit worker-thread
    /// count (clamped to `[1, insts.len()]`; 1 means fully sequential).
    pub fn solve_batch_with<S: Scalar>(
        &self,
        insts: &[Instance<S>],
        threads: usize,
    ) -> Vec<SolveOutput<S>> {
        let threads = threads.max(1).min(insts.len().max(1));
        if threads <= 1 {
            let mut pool = SolverPool::new();
            return insts
                .iter()
                .map(|inst| self.solve_with_pool(inst, &mut pool))
                .collect();
        }
        let solver = *self;
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<SolveOutput<S>>> = (0..insts.len()).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let next = &next;
                    scope.spawn(move || {
                        let mut pool = SolverPool::new();
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= insts.len() {
                                break;
                            }
                            done.push((i, solver.solve_with_pool(&insts[i], &mut pool)));
                        }
                        done
                    })
                })
                .collect();
            for handle in handles {
                for (i, out) in handle.join().expect("solver worker panicked") {
                    slots[i] = Some(out);
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every instance solved"))
            .collect()
    }

    /// Per-job cap functions for `inst` under the configured mode.
    fn build_caps<S: Scalar>(&self, inst: &Instance<S>) -> Vec<LevelCap<S>> {
        (0..inst.n_jobs())
            .map(|j| {
                let ceil = inst.total_demand(j);
                let floor = match self.mode {
                    FairnessMode::Plain => S::ZERO,
                    // The equal-share floor: always jointly feasible, and
                    // never above the total demand.
                    FairnessMode::Enhanced => min2(inst.equal_share(j), ceil),
                };
                LevelCap::new(inst.weight(j), floor, ceil)
            })
            .collect()
    }

    /// [`solve`](Self::solve) with caller-provided working memory. The
    /// result is identical; repeated calls reuse the pool's buffers and
    /// scratch arena instead of reallocating them. See the module docs for
    /// why committing frozen splits and contracting dead sites is exact.
    pub fn solve_with_pool<S: Scalar>(
        &self,
        inst: &Instance<S>,
        pool: &mut SolverPool<S>,
    ) -> SolveOutput<S> {
        let n = inst.n_jobs();
        let m = inst.n_sites();
        let mut stats = SolveStats::default();
        if n == 0 {
            return SolveOutput {
                allocation: Allocation::from_split(Vec::new()),
                rounds: Vec::new(),
                stats,
            };
        }
        let SolverPool {
            scratch,
            us,
            side,
            grow_jobs,
            grow_sites,
            freeze,
            members,
            preload,
            demands_buf,
            split,
            frozen_usage,
            rank_buf,
        } = pool;

        let caps = self.build_caps(inst);
        // `None` = active, `Some(a)` = frozen at aggregate `a`.
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

        // The committed split accumulates here as the network shrinks; its
        // backing rows come from the pool and leave inside the returned
        // `Allocation` (the one unavoidable allocation of the result).
        split.resize(n, Vec::new());
        for row in split.iter_mut() {
            row.clear();
            row.resize(m, S::ZERO);
        }

        // Active subproblem: original indices of live jobs/sites, the flow
        // each live job has already committed at removed sites (`base`),
        // and the residual budget of each live site (`cur_caps`, satellite
        // invariant: cur_caps[k] + committed_at(act_sites[k]) == c_s).
        let mut act_jobs: Vec<usize> = (0..n).filter(|&j| frozen[j].is_none()).collect();
        let mut act_sites: Vec<usize> = (0..m).collect();
        let mut base: Vec<S> = vec![S::ZERO; act_jobs.len()];
        let mut cur_caps: Vec<S> = inst.capacities().to_vec();

        let arena = std::mem::take(scratch);
        let edges0 = arena.edges_visited();
        let reuse0 = arena.reuse_hits();
        let csr0 = arena.csr_rebuilds();
        let words0 = arena.bitset_words_cleared();
        demands_buf.resize(act_jobs.len(), Vec::new());
        for (i, &j) in act_jobs.iter().enumerate() {
            let row = &mut demands_buf[i];
            row.clear();
            row.extend((0..m).map(|s| inst.demand(j, s)));
        }
        let mut net = AllocationNetwork::new_with_scratch(demands_buf, &cur_caps, arena);

        let mut rounds: Vec<FreezeRound<S>> = Vec::new();

        while !act_jobs.is_empty() {
            stats.rounds += 1;
            stats.active_job_rounds += act_jobs.len();
            stats.active_site_rounds += act_sites.len();

            // Upper bound: the level at which every active job is at its
            // ceiling (u_j flat beyond its high breakpoint).
            let mut t = S::ZERO;
            for &j in &act_jobs {
                t = max2(t, caps[j].high_breakpoint());
            }

            // Dinkelbach descent to the largest feasible level. When the
            // loop exits on a feasible check the network already holds the
            // max flow at t*, so no re-check is needed.
            let mut at_t_star = false;
            let t_star = loop {
                stats.dinkelbach_iterations += 1;
                stats.max_flows += 1;
                let (flow, target) =
                    check_level(&mut net, &caps, &act_jobs, &base, t, &mut stats, us);
                if close_rel(flow, target) {
                    at_t_star = true;
                    break t;
                }
                // Infeasible: the min cut names the violating job set J.
                // The tight level satisfies Σ_{i∈J} u_i(t') = f'(J) + Σ base,
                // with f' the rank of the *contracted* network, whose site
                // budgets are checked against the invariant in debug builds.
                net.source_side_jobs_into(side);
                debug_assert!(
                    residual_budget_agrees(inst, &act_sites, &cur_caps, split),
                    "incrementally maintained site budgets drifted from c_s - committed"
                );
                let mut budget =
                    contracted_rank(inst, &act_jobs, &act_sites, &cur_caps, side, rank_buf);
                for (i, &inside) in side.iter().enumerate() {
                    if inside {
                        budget += base[i];
                    }
                }
                members.clear();
                members.extend(
                    side.iter()
                        .enumerate()
                        .filter(|&(_, &inside)| inside)
                        .map(|(i, _)| caps[act_jobs[i]]),
                );
                debug_assert!(
                    !members.is_empty(),
                    "violating set without active jobs: frozen state infeasible"
                );
                let t_next = invert_total(members, budget);
                if !t_next.definitely_lt(t) {
                    // No numerical progress (f64 only): accept the current
                    // level; the freeze step below still terminates.
                    break t_next;
                }
                t = t_next;
            };

            if !at_t_star {
                // Re-establish the max flow at t_star (only needed when the
                // loop exited on a lowered level without re-checking).
                stats.max_flows += 1;
                let (flow, target) =
                    check_level(&mut net, &caps, &act_jobs, &base, t_star, &mut stats, us);
                debug_assert!(
                    close_rel(flow, target),
                    "level t*={t_star} must be feasible (flow {flow}, target {target})"
                );
            }

            // Freeze demand-capped jobs and bottlenecked jobs.
            net.sink_reachability_into(grow_jobs, grow_sites);
            freeze.clear();
            freeze.resize(act_jobs.len(), false);
            let mut round = FreezeRound {
                level: t_star,
                frozen: Vec::new(),
            };
            for (i, &j) in act_jobs.iter().enumerate() {
                let u = caps[j].at(t_star);
                if !u.definitely_lt(caps[j].ceil) {
                    frozen[j] = Some(caps[j].ceil);
                    round.frozen.push((j, FreezeReason::DemandCapped));
                    freeze[i] = true;
                } else if !grow_jobs[i] {
                    frozen[j] = Some(u);
                    round.frozen.push((j, FreezeReason::Bottlenecked));
                    freeze[i] = true;
                }
            }
            if round.frozen.is_empty() {
                // Safety net for f64 rounding: freeze everything at the
                // current level rather than loop forever. Unreachable with
                // exact arithmetic (a maximal feasible level always has a
                // tight set).
                debug_assert!(!S::EXACT, "exact solve failed to freeze a job");
                for (i, &j) in act_jobs.iter().enumerate() {
                    frozen[j] = Some(caps[j].at(t_star));
                    round.frozen.push((j, FreezeReason::Bottlenecked));
                    freeze[i] = true;
                }
            }
            rounds.push(round);

            let n_frozen_now = freeze.iter().filter(|&&b| b).count();
            if n_frozen_now == act_jobs.len() {
                // Last round: commit every remaining split and finish.
                for (i, &j) in act_jobs.iter().enumerate() {
                    for (k, v) in net.job_split(i) {
                        if v.is_positive() {
                            split[j][act_sites[k]] += v;
                        }
                    }
                }
                act_jobs.clear();
                continue;
            }

            // Contract: commit frozen jobs' splits (their flows can never
            // change again), fold survivors' flows at dying sites into
            // `base`, shrink the site budgets, and rebuild the network over
            // the survivors with the warm flow preloaded.
            stats.contractions += 1;
            frozen_usage.clear();
            frozen_usage.resize(act_sites.len(), S::ZERO);
            for (i, &j) in act_jobs.iter().enumerate() {
                if freeze[i] {
                    for (k, v) in net.job_split(i) {
                        if v.is_positive() {
                            split[j][act_sites[k]] += v;
                            frozen_usage[k] += v;
                        }
                    }
                }
            }
            // A site survives iff it can still absorb flow (residual path
            // to the sink) and some surviving job has demand there.
            let keep_site: Vec<bool> = (0..act_sites.len())
                .map(|k| {
                    grow_sites[k]
                        && act_jobs
                            .iter()
                            .enumerate()
                            .any(|(i, &j)| !freeze[i] && inst.demand(j, act_sites[k]).is_positive())
                })
                .collect();
            let mut new_act_jobs = Vec::with_capacity(act_jobs.len() - n_frozen_now);
            let mut new_base = Vec::with_capacity(act_jobs.len() - n_frozen_now);
            for (i, &j) in act_jobs.iter().enumerate() {
                if freeze[i] {
                    continue;
                }
                let mut b = base[i];
                for (k, v) in net.job_split(i) {
                    if !keep_site[k] && v.is_positive() {
                        split[j][act_sites[k]] += v;
                        b += v;
                    }
                }
                new_act_jobs.push(j);
                new_base.push(b);
            }
            let mut site_map = vec![usize::MAX; act_sites.len()];
            let mut new_act_sites = Vec::new();
            let mut new_caps = Vec::new();
            for (k, &s) in act_sites.iter().enumerate() {
                if keep_site[k] {
                    site_map[k] = new_act_sites.len();
                    new_act_sites.push(s);
                    new_caps.push(max2(cur_caps[k] - frozen_usage[k], S::ZERO));
                }
            }
            demands_buf.resize(new_act_jobs.len(), Vec::new());
            for (i2, &j) in new_act_jobs.iter().enumerate() {
                let row = &mut demands_buf[i2];
                row.clear();
                row.extend(new_act_sites.iter().map(|&s| inst.demand(j, s)));
            }
            // Survivors' flows at kept sites become the successor's warm
            // start: restricted to the kept subgraph they stay feasible.
            preload.resize(new_act_jobs.len(), Vec::new());
            let mut i2 = 0;
            for (i, _) in act_jobs.iter().enumerate() {
                if freeze[i] {
                    continue;
                }
                let row = &mut preload[i2];
                row.clear();
                row.resize(new_act_sites.len(), S::ZERO);
                for (k, v) in net.job_split(i) {
                    if keep_site[k] && v.is_positive() {
                        row[site_map[k]] = v;
                    }
                }
                i2 += 1;
            }
            let arena = net.take_scratch();
            net = AllocationNetwork::new_with_scratch(demands_buf, &new_caps, arena);
            // Job caps start at zero; raise each to its preloaded total
            // (summed in `preload_split`'s own edge order so the f64
            // results are bitwise identical) before pushing the flow.
            for (i3, row) in preload.iter().enumerate() {
                let mut job_total = S::ZERO;
                for &v in row {
                    if v.is_positive() {
                        job_total += v;
                    }
                }
                if job_total.is_positive() {
                    net.set_job_cap(i3, job_total);
                }
            }
            net.preload_split(preload);
            act_jobs = new_act_jobs;
            act_sites = new_act_sites;
            base = new_base;
            cur_caps = new_caps;
        }

        *scratch = net.take_scratch();
        stats.edges_visited = scratch.edges_visited() - edges0;
        stats.scratch_reuse_hits = scratch.reuse_hits() - reuse0;
        stats.csr_rebuilds = scratch.csr_rebuilds() - csr0;
        stats.bitset_words_cleared = scratch.bitset_words_cleared() - words0;

        let allocation = Allocation::from_split(std::mem::take(split));
        debug_assert!(
            allocation.is_feasible(inst),
            "solver emitted an infeasible allocation"
        );
        debug_assert!(
            close_rel(
                allocation.total(),
                sum(frozen.iter().map(|a| a.expect("all jobs frozen")))
            ),
            "committed split does not realize the frozen aggregates"
        );

        SolveOutput {
            allocation,
            rounds,
            stats,
        }
    }
}

/// Set contracted source caps for level `t`, recompute the max flow, and
/// return `(flow, target)` where both exclude committed flow.
///
/// Job `i`'s contracted cap is `max(u_j(t) - base_i, 0)`: the part of its
/// target not already committed at removed sites. For any `t` at or above
/// the previous round's level the clamp is inert (`u >= base`).
fn check_level<S: Scalar>(
    net: &mut AllocationNetwork<S>,
    caps: &[LevelCap<S>],
    act_jobs: &[usize],
    base: &[S],
    t: S,
    stats: &mut SolveStats,
    us: &mut Vec<S>,
) -> (S, S) {
    us.clear();
    us.extend(
        act_jobs
            .iter()
            .enumerate()
            .map(|(i, &j)| max2(caps[j].at(t) - base[i], S::ZERO)),
    );
    // Per-job repair instead of a global reset: a cap that dropped below
    // the job's warm flow drains only its own excess (edge-local
    // cancellation keeps conservation), everything else keeps its flow
    // with the cap clamped up by any f64 hair. The subsequent max flow
    // augments the surviving warm flow, so Dinkelbach descent never
    // recomputes from zero.
    let mut target = S::ZERO;
    let mut repaired = false;
    for (i, &u) in us.iter().enumerate() {
        if u.definitely_lt(net.job_flow(i)) {
            net.drain_job_to_cap(i, u);
            repaired = true;
        } else {
            net.set_job_cap(i, max2(u, net.job_flow(i)));
        }
        target += u;
    }
    if repaired {
        stats.flow_resets += 1;
    }
    let flow = net.run_max_flow();
    (flow, target)
}

/// Polymatroid rank of the job set `side` (indices into `act_jobs`) in the
/// contracted network: `Σ_k min(cur_caps[k], Σ_{i∈side} d[act_jobs[i]][act_sites[k]])`.
/// O(active jobs × active sites), so the per-step cost shrinks with the
/// network.
fn contracted_rank<S: Scalar>(
    inst: &Instance<S>,
    act_jobs: &[usize],
    act_sites: &[usize],
    cur_caps: &[S],
    side: &[bool],
    demand_sums: &mut Vec<S>,
) -> S {
    // Accumulate per-site demand over the violating set only, walking each
    // job's demand row once (row-major, cache-friendly). Jobs are added in
    // ascending active index, the same per-site order a site-outer scan
    // would use, so the f64 sums are bitwise identical to the naive form.
    demand_sums.clear();
    demand_sums.resize(act_sites.len(), S::ZERO);
    for (i, &j) in act_jobs.iter().enumerate() {
        if side[i] {
            for (k, &s) in act_sites.iter().enumerate() {
                demand_sums[k] += inst.demand(j, s);
            }
        }
    }
    let mut total = S::ZERO;
    for (k, &demand) in demand_sums.iter().enumerate() {
        total += min2(cur_caps[k], demand);
    }
    total
}

/// Debug check: every incrementally maintained residual site budget equals
/// the original capacity minus the flow committed there so far.
fn residual_budget_agrees<S: Scalar>(
    inst: &Instance<S>,
    act_sites: &[usize],
    cur_caps: &[S],
    split: &[Vec<S>],
) -> bool {
    act_sites.iter().enumerate().all(|(k, &s)| {
        let committed = sum(split.iter().map(|row| row[s]));
        close_rel(cur_caps[k] + committed, inst.capacity(s))
    })
}

/// Relative-tolerance equality used for flow-vs-target comparisons, where
/// both sides are sums over up to `n` jobs. Exact types compare exactly.
pub(crate) fn close_rel<S: Scalar>(a: S, b: S) -> bool {
    let diff = if a > b { a - b } else { b - a };
    let scale = S::ONE + max2(a, b);
    !(diff > S::eps() * scale)
}

#[cfg(test)]
mod tests;
