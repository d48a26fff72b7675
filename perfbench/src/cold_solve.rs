//! `cold-solve`: distinct E8-family instances solved back to back through
//! one persistent [`SolverPool`] on one thread.
//!
//! Nearly all of the time is `solver` + `flow`; the workload bypasses the
//! session, split, sim and serve layers, so it shows a kernel or
//! parametric-flow gain undiluted and predicts "no change" for them.
//!
//! Sizes form a fixed geometric ladder of [`RUNGS`] sizes over the family,
//! from 200 jobs × 10 sites to 1600 × 40, with [`PER_RUNG`] instances on
//! each, so the size mix does not depend on the seed; the seed draws each
//! instance's contents. Solve times of one size vary by a third from
//! instance to instance, so several instances per rung keep the median
//! (middle rung) and the tail (top rung) from resting on one instance.
//! Half of each rung is solved Plain, half Enhanced. Each distinct
//! instance is audited once, and every timed solve must return the
//! audited aggregates bit for bit. A solve's end-to-end time is its CPU
//! time, the least over the run's passes, scaled by the reference kernel
//! that runs before each pass.

use crate::reference::Reference;
use crate::spans::Tracer;
use crate::stats::{floors, Summary};
use crate::{cpu, e8_workload, report_end_to_end, scaled, Args, Outcome, Work};
use amf_audit::audit;
use amf_core::{AmfSolver, Instance, SolveOutput, SolverPool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Sizes on the ladder (odd, so the median falls inside the middle rung).
const RUNGS: usize = 5;
/// Distinct instances per rung.
const PER_RUNG: usize = 10;
const INSTANCES: usize = RUNGS * PER_RUNG;
/// Set-ups in an untraced run, spread evenly over its measuring time;
/// `setup_s` is the median of their CPU time.
const SETUP_REPEATS: usize = 5;

struct Case {
    inst: Instance<f64>,
    solver: AmfSolver,
    /// Aggregates of the audited solve, as bit patterns.
    expected: Vec<u64>,
}

fn instances(seed: u64) -> Vec<(Instance<f64>, AmfSolver)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..INSTANCES)
        .map(|k| {
            let t = (k / PER_RUNG) as f64 / (RUNGS - 1) as f64;
            let m = (10.0 * 4f64.powf(t)).round() as usize;
            let n = (200.0 * 8f64.powf(t)).round() as usize;
            let inst = e8_workload(n, m, rng.gen_range(0..u64::MAX)).instance();
            let solver = if k % 2 == 0 {
                AmfSolver::new()
            } else {
                AmfSolver::enhanced()
            };
            (inst, solver)
        })
        .collect()
}

/// A set-up: the inputs, a fresh pool and one solve of each instance
/// through it. Its CPU time is pushed to `setup_s`.
fn set_up(
    seed: u64,
    setup_s: &mut Vec<f64>,
) -> (Vec<Case>, SolverPool<f64>, Vec<SolveOutput<f64>>) {
    let c0 = cpu::process_s();
    let inputs = instances(seed);
    let mut pool = SolverPool::new();
    let first: Vec<_> = inputs
        .iter()
        .map(|(inst, solver)| solver.solve_with_pool(inst, &mut pool))
        .collect();
    setup_s.push(cpu::process_s() - c0);
    let cases = inputs
        .into_iter()
        .zip(&first)
        .map(|((inst, solver), solved)| Case {
            expected: bits(solved.allocation.aggregates()),
            inst,
            solver,
        })
        .collect();
    (cases, pool, first)
}

/// Audit each distinct instance's first solve (after the timed runs, so
/// the audits' memory stays out of `peak_rss_mb`).
fn audit_all(cases: &[Case], first: &[SolveOutput<f64>], out: &mut Outcome) {
    for (case, solved) in cases.iter().zip(first) {
        out.attempted += 1;
        let report = audit(&case.inst, &solved.allocation, case.solver.mode());
        out.check(
            report.is_certified_amf(),
            &format!(
                "audit of a {}x{} instance",
                case.inst.n_jobs(),
                case.inst.n_sites()
            ),
        );
    }
}

fn bits(aggregates: &[f64]) -> Vec<u64> {
    aggregates.iter().map(|a| a.to_bits()).collect()
}

/// Timed passes over the cases.
#[derive(Default)]
struct Phase {
    /// Wall time of each solve.
    latencies_ms: Vec<f64>,
    /// CPU time of each solve, one vector per pass.
    cpu_ms: Vec<Vec<f64>>,
    wall_s: f64,
    passes: usize,
    work: Work,
}

impl Phase {
    /// One pass over every case, spans recorded if `tracer` is given.
    fn pass(
        &mut self,
        cases: &[Case],
        pool: &mut SolverPool<f64>,
        mut tracer: Option<&mut Tracer>,
        out: &mut Outcome,
    ) {
        let mut work = Work::default();
        let mut cpu_ms = Vec::with_capacity(cases.len());
        let pass_start = Instant::now();
        for case in cases {
            let t0 = Instant::now();
            let c0 = cpu::process_s();
            let span_start = tracer.as_ref().map(|t| t.now());
            let solved = case.solver.solve_with_pool(&case.inst, pool);
            cpu_ms.push((cpu::process_s() - c0) * 1e3);
            if let (Some(t), Some(start)) = (tracer.as_deref_mut(), span_start) {
                let group = self.latencies_ms.len() as u64;
                let end = t.now();
                t.record("solver.solve_with_pool", group, None, start, end);
            }
            self.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            out.attempted += 1;
            if bits(solved.allocation.aggregates()) != case.expected {
                out.check(
                    false,
                    "a timed solve's aggregates differ from the audited ones",
                );
            }
            work.add(&Work::of(&solved.stats));
        }
        self.wall_s += pass_start.elapsed().as_secs_f64();
        self.cpu_ms.push(cpu_ms);
        if self.passes == 0 {
            self.work = work;
        } else if work != self.work {
            out.check(
                false,
                "work counters differ between passes over the same inputs",
            );
        }
        self.passes += 1;
    }
}

/// Run the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let (cases, mut pool, first) = set_up(args.seed, &mut setup_s);
    println!(
        "cold-solve: {INSTANCES} instances, {}..{} jobs",
        cases.iter().map(|c| c.inst.n_jobs()).min().unwrap_or(0),
        cases.iter().map(|c| c.inst.n_jobs()).max().unwrap_or(0)
    );

    let started = Instant::now();
    let running =
        |phase: &Phase| phase.passes == 0 || started.elapsed().as_secs_f64() < args.seconds;
    if !args.trace {
        let mut phase = Phase::default();
        let mut reference = Reference::new();
        while running(&phase) {
            reference.sample(1);
            let due = args.seconds * setup_s.len() as f64 / SETUP_REPEATS as f64;
            if setup_s.len() < SETUP_REPEATS && started.elapsed().as_secs_f64() >= due {
                set_up(args.seed, &mut setup_s);
            }
            phase.pass(&cases, &mut pool, None, &mut out);
        }
        let wall = Summary::of(&mut phase.latencies_ms);
        println!(
            "cold-solve: {} passes, {:.1} solves per wall second, solve wall time {}",
            phase.passes,
            wall.n as f64 / phase.wall_s,
            wall.describe("ms")
        );
        println!("cold-solve: work per pass {:?}", phase.work);
        println!("{}", reference.describe());
        let scale = reference.scale();
        report_end_to_end(
            &mut out,
            &mut scaled(&setup_s, scale),
            &mut scaled(&floors(&phase.cpu_ms), scale),
        );
        audit_all(&cases, &first, &mut out);
        return out;
    }

    // Untraced and traced passes alternate, so drift in the host's speed
    // does not show up as tracing overhead.
    let mut plain = Phase::default();
    let mut traced = Phase::default();
    let mut tracer = Tracer::new(Instant::now());
    while running(&traced) {
        plain.pass(&cases, &mut pool, None, &mut out);
        traced.pass(&cases, &mut pool, Some(&mut tracer), &mut out);
    }
    out.check(
        plain.work == traced.work,
        "work counters differ between the traced and untraced runs",
    );
    let passes = traced.passes as f64;
    let busy_s = tracer.total_s("solver.solve_with_pool") / passes;
    let m = &mut out.metrics;
    traced.work.report(m, busy_s, INSTANCES);
    m.insert("solver.busy_s", busy_s);
    m.insert(
        "trace_overhead_frac",
        (traced.wall_s / passes) / (plain.wall_s / plain.passes as f64) - 1.0,
    );
    out.tracer = Some(tracer);
    audit_all(&cases, &first, &mut out);
    out
}
