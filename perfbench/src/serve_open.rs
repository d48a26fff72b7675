//! `serve-open`: an in-process `amf-serve` [`Server`] on loopback, driven
//! open-loop by Poisson arrivals.
//!
//! Eight Enhanced tenants of about a hundred jobs over ten sites (each job
//! demands three sites) are seeded at set-up. [`MAX_CLIENTS`] client
//! threads, each with one connection and its own tenants, then send 60%
//! single-delta `ApplyDeltas` (demand changes plus add/remove churn), 30%
//! `Solve` and 10% `GetAllocation` on a seeded Poisson schedule: the
//! untraced run at [`NOMINAL_RPS`], the traced run through a fixed ladder
//! of offered rates that straddles the knee.
//!
//! The untraced run repeats one round — set up a fresh server, then play
//! the same [`ROUND_S`] seconds of schedule — until its time is spent, so
//! every round serves the same requests in the same states. A request
//! runs on two threads, so its CPU time is taken over windows of
//! [`WINDOW`] consecutive requests: the process's CPU time across the
//! window, divided by [`WINDOW`], is the end-to-end time of each request
//! in it, the least over the rounds, scaled by the reference kernel that
//! runs after each round. Wall-clock latencies are printed but
//! carry no bound: on a small shared host they mostly measure the host's
//! stalls and the wake-up delay of an idle core, which moved the median
//! round trip by a factor of two between runs.
//!
//! Each request is timed twice in wall time: from its *scheduled* send
//! time, which also charges it the wait behind a stall (the ladder's
//! latency limit and `serve.sched_*` use this), and from its actual send
//! (the per-op `serve.*_p50_us`). The generator's own lateness (sleep
//! overshoot past the later of the due time and the previous reply) is
//! reported separately, and a ladder step whose lateness exceeds
//! [`MAX_LAG_SHARE`] of the latency limit is marked invalid. Sampled
//! `Solve` replies are audited against a client-side mirror of each
//! tenant, aligned by the reply's `job_ids`.

use crate::reference::Reference;
use crate::spans::Tracer;
use crate::stats::{floors, median, Summary};
use crate::{cpu, report_end_to_end, scaled, Args, Outcome};
use amf_audit::audit;
use amf_core::{Allocation, FairnessMode, Instance};
use amf_serve::{ServeClient, ServeConfig, Server, SolveReply, WireDelta, WireStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

const TENANTS: usize = 8;
const JOBS: usize = 100;
const SITES: usize = 10;
const SITES_PER_JOB: usize = 3;
/// Client threads, one connection each (never more than the available
/// cores). One: on a small host, more client threads compete with the
/// server's threads for the cores and their latencies measure that.
const MAX_CLIENTS: usize = 1;
/// Offered aggregate request rates (1/s) of the traced run's ladder, in
/// the order they are run; each gets an equal share of the time.
const LADDER: [f64; 5] = [1000.0, 2000.0, 4000.0, 6000.0, 8000.0];
/// The rate the untraced run offers (also a rung of [`LADDER`]).
const NOMINAL_RPS: f64 = 1000.0;
/// Seconds of schedule in one round of the untraced run.
const ROUND_S: f64 = 2.5;
/// Requests per CPU-time window.
const WINDOW: usize = 50;
/// Reference-kernel samples after each round.
const REFERENCE_PER_ROUND: usize = 10;
/// Latency limit on a step's p99 for `max_rps_at_slo`, in ms.
const SLO_MS: f64 = 5.0;
/// A step is invalid when the generator's p99 lateness exceeds this share
/// of [`SLO_MS`]: its latencies would measure the generator.
const MAX_LAG_SHARE: f64 = 0.25;
/// Every this many solves of a client, the reply is kept for audit.
const AUDIT_EVERY: usize = 16;

/// Client-side mirror of one tenant, built only from the deltas its
/// owning client sent.
struct Mirror {
    name: String,
    caps: Vec<f64>,
    jobs: BTreeMap<u64, Vec<f64>>,
    next_id: u64,
}

impl Mirror {
    fn new_job(&mut self, rng: &mut StdRng) -> WireDelta {
        let mut demands = vec![0.0; SITES];
        let mut placed = 0;
        while placed < SITES_PER_JOB {
            let s = rng.gen_range(0..SITES);
            if demands[s] == 0.0 {
                demands[s] = rng.gen_range(0.5..4.0);
                placed += 1;
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        WireDelta::AddJob {
            id,
            demands,
            weight: None,
        }
    }

    /// A delta that is valid against the mirror's current state; the job
    /// count drifts around [`JOBS`].
    fn next_delta(&mut self, rng: &mut StdRng) -> WireDelta {
        let roll: f64 = rng.gen_range(0.0..1.0);
        let live = self.jobs.len();
        if live < JOBS * 9 / 10 || (roll < 0.1 && live < JOBS * 11 / 10) {
            return self.new_job(rng);
        }
        let id = *self
            .jobs
            .keys()
            .nth(rng.gen_range(0..live))
            .expect("index below the live count");
        if roll < 0.2 {
            return WireDelta::RemoveJob { id };
        }
        let row = &self.jobs[&id];
        let sites: Vec<usize> = (0..SITES).filter(|&s| row[s] > 0.0).collect();
        WireDelta::DemandChange {
            id,
            site: sites[rng.gen_range(0..sites.len())],
            demand: rng.gen_range(0.5..4.0),
        }
    }

    fn apply(&mut self, delta: &WireDelta) {
        match delta {
            WireDelta::AddJob { id, demands, .. } => {
                self.jobs.insert(*id, demands.clone());
            }
            WireDelta::RemoveJob { id } => {
                self.jobs.remove(id);
            }
            WireDelta::DemandChange { id, site, demand } => {
                if let Some(row) = self.jobs.get_mut(id) {
                    row[*site] = *demand;
                }
            }
            WireDelta::CapacityChange { site, capacity } => self.caps[*site] = *capacity,
        }
    }

    /// The instance a `Solve` reply must be fair for, rows in the reply's
    /// order; `None` if the served job set differs from the mirror's.
    fn instance_for(&self, reply: &SolveReply) -> Option<Instance<f64>> {
        let mut served = reply.job_ids.clone();
        served.sort_unstable();
        if !served.iter().copied().eq(self.jobs.keys().copied()) {
            return None;
        }
        let demands = reply
            .job_ids
            .iter()
            .map(|id| self.jobs[id].clone())
            .collect();
        Instance::new(self.caps.clone(), demands).ok()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Apply,
    Solve,
    Get,
}

/// Each op with its server histogram key and its four metric names:
/// client p50 / p99 and server p50 / p99.
const OPS: [(Op, &str, [&str; 4]); 3] = [
    (
        Op::Apply,
        "apply_deltas",
        [
            "serve.apply_p50_us",
            "serve.apply_p99_us",
            "serve.server_apply_p50_us",
            "serve.server_apply_p99_us",
        ],
    ),
    (
        Op::Solve,
        "solve",
        [
            "serve.solve_p50_us",
            "serve.solve_p99_us",
            "serve.server_solve_p50_us",
            "serve.server_solve_p99_us",
        ],
    ),
    (
        Op::Get,
        "get_allocation",
        [
            "serve.get_p50_us",
            "serve.get_p99_us",
            "serve.server_get_p50_us",
            "serve.server_get_p99_us",
        ],
    ),
];

/// One client's connection, tenants and random stream.
struct Client {
    conn: ServeClient,
    tenants: Vec<Mirror>,
    rng: StdRng,
}

/// One request's timings, in µs.
struct Sample {
    step: usize,
    op: Op,
    /// From the scheduled send time to the reply (∞ if it failed).
    latency_us: f64,
    /// From the actual send to the reply.
    rtt_us: f64,
    /// Generator lateness: send time minus the later of the due time and
    /// the previous reply.
    lag_us: f64,
    /// Whether a span was recorded around this request.
    traced: bool,
}

/// A sampled `Solve` reply with the mirror's instance for it, or `None`
/// when the served job set did not match the mirror.
type Audit = Option<(Instance<f64>, Vec<Vec<f64>>)>;

/// What one client thread hands back.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    /// Steps' last replies, as overrun past the step's end in µs.
    overrun_us: Vec<f64>,
    failures: u64,
    /// The process's CPU seconds at the start and after every [`WINDOW`]
    /// requests of this client.
    cpu_marks: Vec<f64>,
    audits: Vec<Audit>,
    tracer: Option<Tracer>,
}

fn set_up(seed: u64) -> (Server<f64>, Vec<Client>) {
    let server = Server::<f64>::bind(ServeConfig::default()).expect("bind a loopback port");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let n_clients = cores.clamp(1, MAX_CLIENTS);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut clients: Vec<Client> = (0..n_clients)
        .map(|c| Client {
            conn: ServeClient::connect(server.addr()).expect("connect to the local server"),
            tenants: Vec::new(),
            rng: StdRng::seed_from_u64(
                seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(c as u64 + 1)),
            ),
        })
        .collect();
    for t in 0..TENANTS {
        let caps: Vec<f64> = (0..SITES).map(|_| rng.gen_range(25.0..45.0)).collect();
        let client = &mut clients[t % n_clients];
        let mut mirror = Mirror {
            name: format!("tenant-{t}"),
            caps,
            jobs: BTreeMap::new(),
            next_id: 0,
        };
        client
            .conn
            .create_session(&mirror.name, &mirror.caps, Some("enhanced"))
            .expect("create a session");
        let deltas: Vec<WireDelta> = (0..JOBS).map(|_| mirror.new_job(&mut rng)).collect();
        deltas.iter().for_each(|d| mirror.apply(d));
        client
            .conn
            .apply_deltas(&mirror.name, &deltas)
            .expect("seed a tenant");
        client.conn.solve(&mirror.name).expect("warm a tenant");
        client.tenants.push(mirror);
    }
    (server, clients)
}

fn stop(server: Server<f64>) -> WireStats {
    server.shutdown();
    server.join()
}

/// A run's offered rates: `(requests per second, seconds)` per step.
type Plan = Vec<(f64, f64)>;

fn ladder_plan(seconds: f64) -> Plan {
    LADDER
        .iter()
        .map(|&rate| (rate, seconds / LADDER.len() as f64))
        .collect()
}

/// Send one request; returns whether it succeeded.
fn fire(client: &mut Client, op: Op, solves: &mut usize, log: &mut ClientLog) -> bool {
    let k = client.rng.gen_range(0..client.tenants.len());
    let mirror = &mut client.tenants[k];
    match op {
        Op::Apply => {
            let delta = mirror.next_delta(&mut client.rng);
            let ok = client
                .conn
                .apply_deltas(&mirror.name, std::slice::from_ref(&delta))
                .is_ok();
            if ok {
                mirror.apply(&delta);
            }
            ok
        }
        Op::Solve => match client.conn.solve(&mirror.name) {
            Ok(reply) => {
                *solves += 1;
                if solves.is_multiple_of(AUDIT_EVERY) {
                    let inst = mirror.instance_for(&reply);
                    log.audits.push(inst.map(|i| (i, reply.split)));
                }
                true
            }
            Err(_) => false,
        },
        Op::Get => client.conn.get_allocation(&mirror.name).is_ok(),
    }
}

/// Drive the ladder from one client thread.
fn drive(
    client: &mut Client,
    index: usize,
    n_clients: usize,
    plan: &[(f64, f64)],
    barrier: &Barrier,
    mut tracer: Option<Tracer>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut solves = 0usize;
    let mut seq = 0u64;
    log.cpu_marks.push(cpu::process_s());
    for (step, &(rate, secs)) in plan.iter().enumerate() {
        let rate = rate / n_clients as f64;
        barrier.wait();
        let start = Instant::now();
        let mut due_s = 0.0;
        let mut prev_done = start;
        loop {
            let u: f64 = client.rng.gen_range(f64::MIN_POSITIVE..1.0);
            due_s += -u.ln() / rate;
            if due_s >= secs {
                break;
            }
            let roll: f64 = client.rng.gen_range(0.0..1.0);
            let op = if roll < 0.6 {
                Op::Apply
            } else if roll < 0.9 {
                Op::Solve
            } else {
                Op::Get
            };
            let due = start + Duration::from_secs_f64(due_s);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let sent = Instant::now();
            // In a traced run every other request gets a span, so traced
            // and untraced requests interleave and the span cost can be
            // measured against the same moments' untraced requests.
            let span_start = tracer
                .as_ref()
                .filter(|_| seq.is_multiple_of(2))
                .map(Tracer::now);
            let ok = fire(client, op, &mut solves, &mut log);
            let done = Instant::now();
            if let (Some(t), Some(s)) = (tracer.as_mut(), span_start) {
                let end = t.now();
                let name = match op {
                    Op::Apply => "client.apply_deltas",
                    Op::Solve => "client.solve",
                    Op::Get => "client.get_allocation",
                };
                t.record(name, (index as u64) << 32 | seq, None, s, end);
            }
            seq += 1;
            if seq.is_multiple_of(WINDOW as u64) {
                log.cpu_marks.push(cpu::process_s());
            }
            if !ok {
                log.failures += 1;
            }
            log.samples.push(Sample {
                step,
                op,
                latency_us: if ok {
                    (done - due).as_secs_f64() * 1e6
                } else {
                    f64::INFINITY
                },
                rtt_us: (done - sent).as_secs_f64() * 1e6,
                lag_us: (sent - due.max(prev_done)).as_secs_f64() * 1e6,
                traced: span_start.is_some(),
            });
            prev_done = done;
        }
        let end = start + Duration::from_secs_f64(secs);
        log.overrun_us.push(
            prev_done
                .checked_duration_since(end)
                .map_or(0.0, |d| d.as_secs_f64() * 1e6),
        );
    }
    log.tracer = tracer.take();
    log
}

/// One ladder run: set-up already done; returns merged logs and the
/// server's final statistics.
struct Run {
    logs: Vec<ClientLog>,
    stats: WireStats,
}

fn drive_all(server: Server<f64>, mut clients: Vec<Client>, plan: &Plan, traced: bool) -> Run {
    let n = clients.len();
    let barrier = Barrier::new(n);
    let origin = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let barrier = &barrier;
                let tracer = traced.then(|| Tracer::new(origin));
                scope.spawn(move || drive(client, i, n, plan, barrier, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    drop(clients);
    Run {
        logs,
        stats: stop(server),
    }
}

/// Per-step figures of a run.
struct Step {
    rate: f64,
    latency: Summary,
    lag: Summary,
    overrun_us: f64,
    failures: usize,
}

fn steps_of(run: &Run, plan: &Plan) -> Vec<Step> {
    (0..plan.len())
        .map(|step| {
            let of = |f: fn(&Sample) -> f64| -> Vec<f64> {
                samples(run).filter(|s| s.step == step).map(f).collect()
            };
            let mut latency = of(|s| s.latency_us);
            let failures = latency.iter().filter(|l| !l.is_finite()).count();
            Step {
                rate: plan[step].0,
                latency: Summary::of(&mut latency),
                lag: Summary::of(&mut of(|s| s.lag_us)),
                overrun_us: run
                    .logs
                    .iter()
                    .map(|l| l.overrun_us[step])
                    .fold(0.0, f64::max),
                failures,
            }
        })
        .collect()
}

impl Step {
    fn valid(&self) -> bool {
        self.lag.p99 <= MAX_LAG_SHARE * SLO_MS * 1e3
    }

    /// p99 within the limit and no backlog left at the step's end.
    fn meets_slo(&self) -> bool {
        self.latency.p99 <= SLO_MS * 1e3 && self.overrun_us <= SLO_MS * 1e3
    }
}

/// Highest valid ladder rate, below the first miss, that meets the limit.
fn max_rps_at_slo(steps: &[Step]) -> f64 {
    steps
        .iter()
        .take_while(|s| s.meets_slo())
        .filter(|s| s.valid())
        .map(|s| s.rate)
        .fold(0.0, f64::max)
}

fn audit_run(run: &Run, out: &mut Outcome) {
    for log in &run.logs {
        out.attempted += log.samples.len() as u64;
        out.failed += log.failures;
        for sample in &log.audits {
            out.attempted += 1;
            let ok = sample.as_ref().is_some_and(|(inst, split)| {
                audit(
                    inst,
                    &Allocation::from_split(split.clone()),
                    FairnessMode::Enhanced,
                )
                .is_certified_amf()
            });
            out.check(
                ok,
                "a sampled Solve reply failed its audit against the mirror",
            );
        }
    }
    out.check(
        run.stats.overloaded == 0 && run.stats.protocol_errors == 0,
        "the server refused or failed to decode requests",
    );
}

/// Exact work counters that one seed must repeat.
fn counters(stats: &WireStats) -> [u64; 3] {
    [stats.solves, stats.deltas_applied, stats.deltas_coalesced]
}

fn print_steps(steps: &[Step]) {
    for s in steps {
        println!(
            "serve-open: {:>5} rps: latency {} | lag p50={:.1}us p99={:.1}us | overrun {:.0}us | {} failed | {}{}",
            s.rate,
            s.latency.describe("us"),
            s.lag.p50,
            s.lag.p99,
            s.overrun_us,
            s.failures,
            if s.meets_slo() { "meets SLO" } else { "misses SLO" },
            if s.valid() { "" } else { " (INVALID: generator late)" },
        );
    }
}

/// Every request sample of a run.
fn samples(run: &Run) -> impl Iterator<Item = &Sample> {
    run.logs.iter().flat_map(|l| l.samples.iter())
}

/// CPU milliseconds per request of each [`WINDOW`]-request window of a
/// run, in send order (the first client's windows; the process's CPU time
/// covers every client).
fn window_cpu_ms(run: &Run) -> Vec<f64> {
    run.logs[0]
        .cpu_marks
        .windows(2)
        .map(|w| (w[1] - w[0]) * 1e3 / WINDOW as f64)
        .collect()
}

/// Client round trips of one op, in µs.
fn rtt(run: &Run, op: Op) -> Summary {
    let mut v: Vec<f64> = samples(run)
        .filter(|s| s.op == op)
        .map(|s| s.rtt_us)
        .collect();
    Summary::of(&mut v)
}

/// Run the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    if !args.trace {
        let plan = vec![(NOMINAL_RPS, ROUND_S)];
        let mut setup_s = Vec::new();
        let mut windows = Vec::new();
        let mut rtt_us = Vec::new();
        let mut first_counters = None;
        let mut reference = Reference::new();
        let started = Instant::now();
        while setup_s.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
            let c0 = cpu::process_s();
            let (server, clients) = set_up(args.seed);
            setup_s.push(cpu::process_s() - c0);
            if windows.is_empty() {
                println!(
                    "serve-open: {TENANTS} tenants x {JOBS} jobs x {SITES} sites, {} client thread(s), rounds of {ROUND_S} s at {NOMINAL_RPS} rps",
                    clients.len()
                );
            }
            let run = drive_all(server, clients, &plan, false);
            let steps = steps_of(&run, &plan);
            print_steps(&steps);
            if !steps[0].valid() {
                println!("serve-open: WARNING: the generator ran late at the nominal rate");
            }
            audit_run(&run, &mut out);
            let counters = counters(&run.stats);
            out.check(
                *first_counters.get_or_insert(counters) == counters,
                "server work counters differ between rounds of one seed",
            );
            windows.push(window_cpu_ms(&run));
            rtt_us.extend(samples(&run).map(|s| s.rtt_us));
            reference.sample(REFERENCE_PER_ROUND);
        }
        println!(
            "serve-open: {} rounds, round trip from send {}",
            windows.len(),
            Summary::of(&mut rtt_us).describe("us")
        );
        println!("{}", reference.describe());
        let scale = reference.scale();
        report_end_to_end(
            &mut out,
            &mut scaled(&setup_s, scale),
            &mut scaled(&floors(&windows), scale),
        );
        return out;
    }

    // Two ladder runs share the time budget, so a traced invocation takes
    // about as long as an untraced one (plus any backlog past the knee).
    let plan = ladder_plan(args.seconds / 2.0);
    let (server, clients) = set_up(args.seed);
    println!(
        "serve-open: {TENANTS} tenants x {JOBS} jobs x {SITES} sites, {} client thread(s), SLO p99 <= {SLO_MS} ms",
        clients.len()
    );
    let plain = drive_all(server, clients, &plan, false);
    let steps = steps_of(&plain, &plan);
    print_steps(&steps);
    audit_run(&plain, &mut out);
    let max_rps = max_rps_at_slo(&steps);
    println!("serve-open: max_rps_at_slo = {max_rps} 1/s");
    let nominal = steps
        .iter()
        .find(|s| s.rate == NOMINAL_RPS)
        .expect("the ladder includes the nominal rate")
        .latency;
    let (server, clients) = set_up(args.seed);
    let mut traced = drive_all(server, clients, &plan, true);
    audit_run(&traced, &mut out);
    out.check(
        counters(&traced.stats) == counters(&plain.stats),
        "server work counters differ between two runs of one seed",
    );
    let median_rtt = |traced_only: bool| {
        let mut v: Vec<f64> = samples(&traced)
            .filter(|s| s.traced == traced_only)
            .map(|s| s.rtt_us)
            .collect();
        median(&mut v)
    };
    let overhead = median_rtt(true) / median_rtt(false) - 1.0;
    let stats = &traced.stats;
    let m = &mut out.metrics;
    let mut transport = 0.0;
    let mut weight = 0.0;
    for (op, wire, [p50, p99, server_p50, server_p99]) in OPS {
        let client = rtt(&traced, op);
        m.insert(p50, client.p50);
        m.insert(p99, client.p99);
        if let Some(server) = stats.ops.iter().find(|o| o.op == wire) {
            m.insert(server_p50, server.p50_us);
            m.insert(server_p99, server.p99_us);
            transport += client.n as f64 * (client.p50 - server.p50_us);
            weight += client.n as f64;
        }
    }
    m.insert("serve.transport_p50_us", transport / weight.max(1.0));
    m.insert("serve.solves", stats.solves as f64);
    m.insert("serve.deltas_applied", stats.deltas_applied as f64);
    m.insert("serve.deltas_coalesced", stats.deltas_coalesced as f64);
    m.insert(
        "serve.coalesce_frac",
        stats.deltas_coalesced as f64 / stats.deltas_applied.max(1) as f64,
    );
    m.insert("serve.overloaded", stats.overloaded as f64);
    m.insert("serve.protocol_errors", stats.protocol_errors as f64);
    m.insert("serve.max_rps_at_slo", max_rps);
    m.insert("serve.sched_p50_us", nominal.p50);
    m.insert("serve.sched_p99_us", nominal.p99);
    let mut lag: Vec<f64> = samples(&plain).map(|s| s.lag_us).collect();
    let lag = Summary::of(&mut lag);
    m.insert("loadgen.send_lag_p50_us", lag.p50);
    m.insert("loadgen.send_lag_p99_us", lag.p99);
    m.insert("trace_overhead_frac", overhead);
    let mut tracer = Tracer::new(Instant::now());
    for log in &mut traced.logs {
        if let Some(t) = log.tracer.take() {
            tracer.absorb(t);
        }
    }
    out.tracer = Some(tracer);
    out
}
