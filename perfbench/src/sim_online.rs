//! `sim-online`: the scheduler's real loop.
//!
//! Two 400-job × 20-site Zipf-skewed traces whose jobs arrive over 50
//! time units, with ten sites each losing 40% of their capacity for six
//! time units, each driven through [`simulate_incremental_with_stats`]
//! with [`AmfIncremental`] and the balanced-progress split (the JCT
//! add-on). It is the only workload that loads `split` and `sim`;
//! `session` gets one delta per event. Passes over the traces repeat
//! until the measuring time is spent.
//!
//! The untraced run wraps the boxed `AmfIncremental` session in a timer
//! (wall and CPU clock reads around each `rates` call); a reallocation's
//! end-to-end time is its CPU time, the least over the run's passes,
//! scaled by the reference kernel that runs every [`REFERENCE_EVERY`]
//! reallocations. The traced run replaces it with a session owned by this
//! file that makes the same calls into `IncrementalAmf` and
//! `balanced_progress_split` with spans around them; its `SimReport` must
//! equal the untraced one exactly.

use crate::reference::Reference;
use crate::spans::Tracer;
use crate::stats::{floors, Summary};
use crate::{cpu, e8_workload, report_end_to_end, scaled, Args, Outcome, Work, E8_MEAN_WORK};
use amf_audit::audit;
use amf_core::{Allocation, AmfSolver, Delta, FairnessMode, IncrementalAmf, Instance, SolveStats};
use amf_sim::split::balanced_progress_split;
use amf_sim::{
    simulate_incremental_with_stats, AmfIncremental, CapacityEvent, DynamicPolicy,
    IncrementalSession, SessionCtx, SimConfig, SimReport, SplitStrategy,
};
use amf_workload::trace::Trace;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const JOBS: usize = 400;
const SITES: usize = 20;
/// Distinct traces per seed; a pass runs each once. With one trace the
/// 90th percentile of the reallocation times spread by a fifth of its
/// median over ten seeds; with more, a pass grows past the eight seconds
/// that still let a run repeat every reallocation several times (see
/// [`floors`]).
const TRACES: usize = 2;
const REPAIR_ROUNDS: usize = 4;
/// Every this many reallocations of the first pass, the rate matrix is
/// kept and audited after the pass.
const AUDIT_EVERY: usize = 40;
/// Every this many reallocations, the reference kernel runs once (before
/// the reallocation's timing starts).
const REFERENCE_EVERY: usize = 100;
/// Set-ups at the start of each pass; `setup_s` is the median of their
/// CPU time over the run, so that it is not taken in one moment of the
/// host's.
const SETUP_REPEATS: usize = 5;

struct Inputs {
    trace: Trace,
    events: Vec<CapacityEvent>,
}

/// Set up [`SETUP_REPEATS`] times, recording the CPU time of each in
/// `setup_s`: build the seed's inputs, then warm the solver with one solve
/// of each trace's whole job set. The input build alone takes under a
/// millisecond, mostly allocation: between two sets of ten runs its
/// median moved by a quarter while the reallocation times moved by 6%.
fn set_up(seed: u64, setup_s: &mut Vec<f64>) -> Vec<Inputs> {
    let mut built = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let c0 = cpu::process_s();
        built = inputs(seed);
        for input in &built {
            std::hint::black_box(AmfSolver::new().solve(&input.trace.workload().instance()));
        }
        setup_s.push(cpu::process_s() - c0);
    }
    built
}

/// The seed's [`TRACES`] traces.
fn inputs(seed: u64) -> Vec<Inputs> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..TRACES)
        .map(|_| trace_inputs(rng.gen_range(0..u64::MAX)))
        .collect()
}

fn trace_inputs(seed: u64) -> Inputs {
    let mut workload = e8_workload(JOBS, SITES, seed);
    // Stratified job sizes: the jobs' total work is the exponential
    // distribution's quantiles at (k + 0.5) / JOBS, dealt out in a seeded
    // order; each job keeps its own split over sites. Independent draws
    // would add the sampling noise of the sizes to the seed-to-seed
    // spread of a trace's cost.
    let mut ranks: Vec<usize> = (0..JOBS).collect();
    ranks.shuffle(&mut StdRng::seed_from_u64(seed));
    for (job, k) in workload.jobs.iter_mut().zip(ranks) {
        let total = -E8_MEAN_WORK * (1.0 - (k as f64 + 0.5) / JOBS as f64).ln();
        let scale = total / job.total_work();
        job.work.iter_mut().for_each(|w| *w *= scale);
    }
    let base_cap = workload.capacities[0];
    let arrivals: Vec<f64> = (0..JOBS).map(|j| j as f64 * 50.0 / JOBS as f64).collect();
    let trace = Trace::with_arrivals(&workload, &arrivals);
    let mut events = Vec::new();
    for k in 0..SITES / 2 {
        let site = (2 * k) % SITES;
        let time = 8.0 + 12.0 * k as f64;
        events.push(CapacityEvent {
            time,
            site,
            capacity: 0.6 * base_cap,
        });
        events.push(CapacityEvent {
            time: time + 6.0,
            site,
            capacity: base_cap,
        });
    }
    Inputs { trace, events }
}

fn split() -> SplitStrategy {
    SplitStrategy::BalancedProgress {
        repair_rounds: REPAIR_ROUNDS,
    }
}

/// What a session hands back when the event loop drops it.
#[derive(Debug, Default)]
struct SessionLog {
    /// Wall and CPU time of each `rates` call.
    rates_ns: Vec<u64>,
    rates_cpu_ms: Vec<f64>,
    /// Wall time spent in the reference kernel, which the event loop's
    /// wall time must not count.
    reference_s: f64,
    /// Sampled `(instance, rate matrix)` pairs to audit.
    samples: Vec<(Instance<f64>, Vec<Vec<f64>>)>,
    stats: SolveStats,
    deltas: usize,
    tracer: Option<Tracer>,
}

type Sink = Arc<Mutex<Option<SessionLog>>>;

fn hand_over(sink: &Sink, log: SessionLog) {
    // Runs in `Drop`: a poisoned lock only loses the log, which the
    // caller reports as a failed check.
    if let Ok(mut slot) = sink.lock() {
        *slot = Some(log);
    }
}

/// [`AmfIncremental`] with its session wrapped in a timer.
struct Timed {
    policy: AmfIncremental,
    sink: Sink,
    sample: bool,
    reference: Arc<Mutex<Reference>>,
}

struct TimedSession {
    inner: Box<dyn IncrementalSession>,
    log: SessionLog,
    sink: Sink,
    sample: bool,
    reference: Arc<Mutex<Reference>>,
}

impl DynamicPolicy for Timed {
    fn name(&self) -> &'static str {
        self.policy.name()
    }

    fn allocate_dynamic(&self, inst: &Instance<f64>, remaining: &[Vec<f64>]) -> Allocation<f64> {
        self.policy.allocate_dynamic(inst, remaining)
    }

    fn incremental_session(&self, capacities: &[f64]) -> Option<Box<dyn IncrementalSession>> {
        Some(Box::new(TimedSession {
            inner: self.policy.incremental_session(capacities)?,
            log: SessionLog::default(),
            sink: Arc::clone(&self.sink),
            sample: self.sample,
            reference: Arc::clone(&self.reference),
        }))
    }
}

impl IncrementalSession for TimedSession {
    fn apply(&mut self, delta: &Delta<f64>) {
        self.log.deltas += 1;
        self.inner.apply(delta);
    }

    fn rates(&mut self, ctx: &SessionCtx<'_>) -> Vec<Vec<f64>> {
        if self.log.rates_ns.len().is_multiple_of(REFERENCE_EVERY) {
            if let Ok(mut reference) = self.reference.lock() {
                let t0 = Instant::now();
                reference.sample(1);
                self.log.reference_s += t0.elapsed().as_secs_f64();
            }
        }
        let t0 = Instant::now();
        let c0 = cpu::process_s();
        let rates = self.inner.rates(ctx);
        self.log.rates_cpu_ms.push((cpu::process_s() - c0) * 1e3);
        self.log.rates_ns.push(t0.elapsed().as_nanos() as u64);
        if self.sample && !ctx.ids.is_empty() && self.log.rates_ns.len() % AUDIT_EVERY == 1 {
            let inst = Instance::new(ctx.capacities.to_vec(), ctx.demands.to_vec())
                .expect("the engine's active set is a valid instance");
            self.log.samples.push((inst, rates.clone()));
        }
        rates
    }

    fn stats(&self) -> SolveStats {
        self.inner.stats()
    }
}

impl Drop for TimedSession {
    fn drop(&mut self) {
        self.log.stats = self.inner.stats();
        hand_over(&self.sink, std::mem::take(&mut self.log));
    }
}

/// The traced policy: a session owned by the benchmark that makes the
/// calls `AmfIncremental`'s session makes, with a span around each.
struct Traced {
    solver: AmfSolver,
    sink: Sink,
    /// Time origin shared by every session's spans.
    origin: Instant,
    /// Group-id base of the next session (one per trace).
    next_group: AtomicU64,
}

struct SpanSession {
    session: IncrementalAmf<f64>,
    tracer: Tracer,
    /// The `sim.loop` span: from session creation to drop, i.e. the
    /// event loop.
    root: usize,
    realloc: u64,
    deltas: usize,
    sink: Sink,
}

impl DynamicPolicy for Traced {
    fn name(&self) -> &'static str {
        "amf-incremental-traced"
    }

    fn allocate_dynamic(&self, inst: &Instance<f64>, remaining: &[Vec<f64>]) -> Allocation<f64> {
        AmfIncremental::with_split(self.solver, split()).allocate_dynamic(inst, remaining)
    }

    fn incremental_session(&self, capacities: &[f64]) -> Option<Box<dyn IncrementalSession>> {
        let mut tracer = Tracer::new(self.origin);
        // Statistic only: no other data is published through it.
        let realloc = self.next_group.fetch_add(1 << 32, Ordering::Relaxed);
        let root = tracer.begin("sim.loop", realloc, None);
        Some(Box::new(SpanSession {
            session: IncrementalAmf::new(self.solver, capacities.to_vec())
                .expect("engine capacities are validated"),
            tracer,
            root,
            realloc,
            deltas: 0,
            sink: Arc::clone(&self.sink),
        }))
    }
}

impl IncrementalSession for SpanSession {
    fn apply(&mut self, delta: &Delta<f64>) {
        let span = self
            .tracer
            .begin("session.apply", self.realloc, Some(self.root));
        self.session
            .apply(delta.clone())
            .expect("engine delta streams are consistent");
        self.tracer.end(span);
        self.deltas += 1;
    }

    fn rates(&mut self, ctx: &SessionCtx<'_>) -> Vec<Vec<f64>> {
        let group = self.realloc;
        self.realloc += 1;
        let rates = self.tracer.begin("sim.rates", group, Some(self.root));
        let solve = self.tracer.begin("session.solve", group, Some(rates));
        self.session.solve();
        self.tracer.end(solve);
        let out = self.session.last_output();
        let dense: BTreeMap<u64, usize> = self
            .session
            .job_ids()
            .iter()
            .enumerate()
            .map(|(row, id)| (id.0, row))
            .collect();
        let aggregates: Vec<f64> = ctx
            .ids
            .iter()
            .map(|id| out.allocation.aggregates()[dense[id]])
            .collect();
        let split = self.tracer.begin("split", group, Some(rates));
        let matrix = balanced_progress_split(
            ctx.capacities,
            ctx.demands,
            &aggregates,
            ctx.remaining,
            REPAIR_ROUNDS,
        );
        self.tracer.end(split);
        self.tracer.end(rates);
        matrix
    }

    fn stats(&self) -> SolveStats {
        self.session.session_stats()
    }
}

impl Drop for SpanSession {
    fn drop(&mut self) {
        self.tracer.end(self.root);
        let origin = self.tracer.origin();
        let tracer = std::mem::replace(&mut self.tracer, Tracer::new(origin));
        hand_over(
            &self.sink,
            SessionLog {
                stats: self.session.session_stats(),
                deltas: self.deltas,
                tracer: Some(tracer),
                ..SessionLog::default()
            },
        );
    }
}

/// One event loop over one trace.
struct Loop {
    report: SimReport,
    log: SessionLog,
    wall_s: f64,
}

fn run_loop(inputs: &Inputs, policy: &dyn DynamicPolicy, sink: &Sink) -> Loop {
    let config = SimConfig {
        split: split(),
        ..SimConfig::default()
    };
    let t0 = Instant::now();
    let (report, stats) =
        simulate_incremental_with_stats(&inputs.trace, policy, &config, &inputs.events);
    let elapsed_s = t0.elapsed().as_secs_f64();
    assert!(stats.incremental, "the policy must provide a session");
    let log = sink
        .lock()
        .expect("no session thread panicked")
        .take()
        .expect("the event loop dropped its session");
    Loop {
        wall_s: elapsed_s - log.reference_s,
        report,
        log,
    }
}

/// Untraced passes over every trace.
#[derive(Default)]
struct Measured {
    /// First pass: each trace's report and work counters.
    reports: Vec<SimReport>,
    work: Vec<Work>,
    /// First pass: sampled reallocations to audit.
    samples: Vec<(Instance<f64>, Vec<Vec<f64>>)>,
    /// Every pass: `rates` call latencies and event-loop wall time.
    rates_ns: Vec<u64>,
    /// `rates` CPU times, one vector per pass, scaled by the pass's
    /// reference kernel.
    rates_cpu_ms: Vec<Vec<f64>>,
    wall_s: f64,
    passes: usize,
    /// The reference kernel, sampled between reallocations and started
    /// afresh each pass.
    reference: Arc<Mutex<Reference>>,
}

/// Untraced passes until `budget_s` is spent (at least one).
/// Each pass starts with a set-up of `seed`'s inputs, timed into `setup_s`.
/// A pass's times are scaled by the reference kernel's least time within
/// that pass: a pass lasts several seconds and the host's speed changed
/// from one to the next, while each reallocation's floor comes from one
/// of only a few passes.
fn measure(
    traces: &[Inputs],
    seed: u64,
    budget_s: f64,
    setup_s: &mut Vec<f64>,
    out: &mut Outcome,
) -> Measured {
    let sink = Sink::default();
    let mut m = Measured::default();
    let mut timed = Timed {
        policy: AmfIncremental::with_split(AmfSolver::new(), split()),
        sink: Arc::clone(&sink),
        sample: true,
        reference: Arc::clone(&m.reference),
    };
    let started = Instant::now();
    while m.passes == 0 || started.elapsed().as_secs_f64() < budget_s {
        *m.reference.lock().expect("no session panicked") = Reference::new();
        let mut pass_setup_s = Vec::new();
        set_up(seed, &mut pass_setup_s);
        let mut cpu_ms = Vec::new();
        for (t, inputs) in traces.iter().enumerate() {
            let run = run_loop(inputs, &timed, &sink);
            let work = Work::of(&run.log.stats);
            if m.passes == 0 {
                m.reports.push(run.report);
                m.work.push(work);
                m.samples.extend(run.log.samples);
            } else {
                out.check(
                    run.report == m.reports[t],
                    "passes over one trace gave different reports",
                );
                out.check(
                    work == m.work[t],
                    "work counters differ between passes over one trace",
                );
            }
            m.rates_ns.extend(run.log.rates_ns);
            cpu_ms.extend(run.log.rates_cpu_ms);
            m.wall_s += run.wall_s;
        }
        let reference = m.reference.lock().expect("no session panicked");
        println!("sim-online: pass {}: {}", m.passes, reference.describe());
        let scale = reference.scale();
        drop(reference);
        setup_s.extend(scaled(&pass_setup_s, scale));
        m.rates_cpu_ms.push(scaled(&cpu_ms, scale));
        timed.sample = false;
        m.passes += 1;
    }
    m
}

/// Run the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    // The first set-up's times are not kept: only set-ups inside a pass
    // can be scaled by that pass's reference kernel.
    let traces = set_up(args.seed, &mut Vec::new());
    let mut setup_s = Vec::new();

    let budget = if args.trace { 0.0 } else { args.seconds };
    let plain = measure(&traces, args.seed, budget, &mut setup_s, &mut out);
    if !args.trace {
        // Before the audits, so their memory stays out of `peak_rss_mb`.
        report_end_to_end(&mut out, &mut setup_s, &mut floors(&plain.rates_cpu_ms));
    }
    out.attempted += plain.rates_ns.len() as u64;
    for report in &plain.reports {
        out.check(report.all_finished(), "some jobs never finished");
    }
    for (inst, rates) in &plain.samples {
        out.attempted += 1;
        let cert = audit(
            inst,
            &Allocation::from_split(rates.clone()),
            FairnessMode::Plain,
        );
        out.check(
            cert.is_certified_amf(),
            "a sampled reallocation failed its audit",
        );
    }
    let mut work = Work::default();
    plain.work.iter().for_each(|w| work.add(w));
    let reallocations: usize = plain.reports.iter().map(|r| r.reallocations).sum();
    println!(
        "sim-online: {TRACES} traces, {reallocations} reallocations per pass, {} passes, {} audited; work per pass {work:?}",
        plain.passes,
        plain.samples.len()
    );

    if !args.trace {
        let mut ms: Vec<f64> = plain.rates_ns.iter().map(|&ns| ns as f64 * 1e-6).collect();
        let lat = Summary::of(&mut ms);
        println!(
            "sim-online: {:.1} reallocations per wall second of the event loop, reallocation wall time {}",
            lat.n as f64 / plain.wall_s,
            lat.describe("ms")
        );
        return out;
    }

    let sink = Sink::default();
    let traced = Traced {
        solver: AmfSolver::new(),
        sink: Arc::clone(&sink),
        origin: Instant::now(),
        next_group: AtomicU64::new(0),
    };
    let mut tracer = Tracer::new(traced.origin);
    let mut traced_wall_s = 0.0;
    let mut deltas = 0;
    for (t, inputs) in traces.iter().enumerate() {
        let run = run_loop(inputs, &traced, &sink);
        out.check(
            run.report == plain.reports[t],
            "the traced session's SimReport differs from AmfIncremental's",
        );
        out.check(
            Work::of(&run.log.stats) == plain.work[t],
            "work counters differ between the traced and untraced runs",
        );
        traced_wall_s += run.wall_s;
        deltas += run.log.deltas;
        tracer.absorb(run.log.tracer.expect("the traced session records spans"));
    }
    // A second untraced pass after the traced one, so drift in the host's
    // speed does not show up as tracing overhead.
    let after = measure(&traces, args.seed, 0.0, &mut setup_s, &mut out);
    let own = tracer.self_s();
    let apply_s = tracer.total_s("session.apply");
    let solve_s = tracer.total_s("session.solve");
    let split_s = tracer.total_s("split");
    let loop_s = tracer.total_s("sim.loop");
    let sim_self_s =
        own.get("sim.loop").copied().unwrap_or(0.0) + own.get("sim.rates").copied().unwrap_or(0.0);
    println!(
        "sim-online: traced loops {loop_s:.4}s = session.apply {apply_s:.4}s + session.solve \
         {solve_s:.4}s + split {split_s:.4}s + sim self {sim_self_s:.4}s"
    );
    let m = &mut out.metrics;
    work.report(m, solve_s, reallocations);
    m.insert("session.apply_busy_s", apply_s);
    m.insert("session.solve_busy_s", solve_s);
    m.insert("session.deltas", deltas as f64);
    m.insert("session.rounds_replayed", work.rounds_replayed as f64);
    m.insert("session.rounds_resolved", work.rounds_resolved as f64);
    m.insert(
        "session.replay_frac",
        work.rounds_replayed as f64 / (work.rounds_replayed + work.rounds_resolved).max(1) as f64,
    );
    m.insert("split.busy_s", split_s);
    m.insert("split.share", split_s / loop_s);
    m.insert("sim.self_s", sim_self_s);
    m.insert("sim.wall_s", loop_s);
    m.insert("sim.reallocations", reallocations as f64);
    m.insert(
        "trace_overhead_frac",
        traced_wall_s / ((plain.wall_s + after.wall_s) / 2.0) - 1.0,
    );
    out.tracer = Some(tracer);
    out
}
