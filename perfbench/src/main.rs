//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim-online|cold-solve|serve-open> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from `--seed`, measures for about
//! `--seconds`, checks its outputs, and prints human-readable lines
//! followed, as the last line of stdout, by one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones ([`END_TO_END`]); with `--trace 1` the
//! run is repeated with spans recorded around the calls into each layer
//! and the metrics are the per-layer ones ([`PER_LAYER`]). Spans are
//! written to `.bench_traces/` in the working directory.

mod cold_solve;
mod cpu;
mod reference;
mod serve_open;
mod sim_online;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics, reported by every workload's untraced run:
/// `(name, unit)`. What the operation is depends on the workload — a
/// reallocation on `sim-online`, a solve on `cold-solve`, a request on
/// `serve-open` (see the README beside this crate). Times are CPU time of
/// the whole process (see [`cpu`]), each operation's least over the
/// run's repetitions of it ([`stats::floors`]), scaled to a fixed host
/// speed measured in the same run ([`reference`]); wall-clock figures are
/// printed by every run but carry no bound, because on a shared host they
/// moved by a factor of two between runs of one seed.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_cpu_ms", "ms"),
    ("op_cpu_p50_ms", "ms"),
    ("op_cpu_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload's traced run; a layer
/// the workload bypasses reads 0. Times and counts are per pass over the
/// workload's input set.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("flow.max_flows", "count"),
    ("flow.edges_visited", "count"),
    ("flow.csr_rebuilds", "count"),
    ("flow.bitset_words_cleared", "count"),
    ("flow.ns_per_edge", "ns"),
    ("solver.busy_s", "s"),
    ("solver.rounds", "count"),
    ("solver.dinkelbach_iterations", "count"),
    ("solver.max_flows_per_solve", "count"),
    ("solver.contractions", "count"),
    ("session.apply_busy_s", "s"),
    ("session.solve_busy_s", "s"),
    ("session.deltas", "count"),
    ("session.rounds_replayed", "count"),
    ("session.rounds_resolved", "count"),
    ("session.replay_frac", "ratio"),
    ("split.busy_s", "s"),
    ("split.share", "ratio"),
    ("sim.self_s", "s"),
    ("sim.wall_s", "s"),
    ("sim.reallocations", "count"),
    ("serve.apply_p50_us", "us"),
    ("serve.apply_p99_us", "us"),
    ("serve.solve_p50_us", "us"),
    ("serve.solve_p99_us", "us"),
    ("serve.get_p50_us", "us"),
    ("serve.get_p99_us", "us"),
    ("serve.server_apply_p50_us", "us"),
    ("serve.server_apply_p99_us", "us"),
    ("serve.server_solve_p50_us", "us"),
    ("serve.server_solve_p99_us", "us"),
    ("serve.server_get_p50_us", "us"),
    ("serve.server_get_p99_us", "us"),
    ("serve.transport_p50_us", "us"),
    ("serve.solves", "count"),
    ("serve.deltas_applied", "count"),
    ("serve.deltas_coalesced", "count"),
    ("serve.coalesce_frac", "ratio"),
    ("serve.overloaded", "count"),
    ("serve.protocol_errors", "count"),
    ("serve.max_rps_at_slo", "1/s"),
    ("serve.sched_p50_us", "us"),
    ("serve.sched_p99_us", "us"),
    ("loadgen.send_lag_p50_us", "us"),
    ("loadgen.send_lag_p99_us", "us"),
    ("trace_overhead_frac", "ratio"),
];

/// Insert the end-to-end metrics: `setup_s` holds the CPU seconds of
/// each set-up, `op_cpu_ms` each operation's CPU milliseconds, both
/// already scaled to the nominal host speed ([`reference`]).
pub fn report_end_to_end(out: &mut Outcome, setup_s: &mut [f64], op_cpu_ms: &mut [f64]) {
    let mean = op_cpu_ms.iter().sum::<f64>() / op_cpu_ms.len().max(1) as f64;
    let ops = stats::Summary::of(op_cpu_ms);
    println!("operation CPU time, scaled: {}", ops.describe("ms"));
    out.metrics.insert("setup_s", stats::median(setup_s));
    out.metrics.insert("op_cpu_ms", mean);
    out.metrics.insert("op_cpu_p50_ms", ops.p50);
    out.metrics.insert("op_cpu_p90_ms", ops.p90);
    out.metrics.insert("peak_rss_mb", peak_rss_mb());
}

/// Multiply every value by `scale`.
pub fn scaled(values: &[f64], scale: f64) -> Vec<f64> {
    values.iter().map(|v| v * scale).collect()
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (reallocations, solves or requests, plus
    /// audits).
    pub attempted: u64,
    /// Failed, refused or audit-violating operations, and failed checks.
    pub failed: u64,
    /// Metric values by name (the catalogue supplies the units).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Spans of the traced run, written out at exit.
    pub tracer: Option<spans::Tracer>,
}

impl Outcome {
    /// Record a check; a false `ok` counts one failure and is reported.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.failed += 1;
            println!("CHECK FAILED: {what}");
        }
    }
}

/// Exact work counters of the solver and flow layers, summed over the
/// solves of one pass. A pass over the same inputs must repeat them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Max-flow computations.
    pub max_flows: usize,
    /// Residual-edge inspections.
    pub edges_visited: u64,
    /// CSR adjacency rebuilds.
    pub csr_rebuilds: u64,
    /// Bitset words zeroed by frontier resets.
    pub bitset_words_cleared: u64,
    /// Progressive-filling rounds.
    pub rounds: usize,
    /// Dinkelbach iterations.
    pub dinkelbach_iterations: usize,
    /// Network contractions.
    pub contractions: usize,
    /// Rounds an incremental session replayed from its round log.
    pub rounds_replayed: usize,
    /// Rounds an incremental session re-solved.
    pub rounds_resolved: usize,
}

impl Work {
    /// The counters of one solve (or one session's cumulative stats).
    pub fn of(s: &amf_core::SolveStats) -> Work {
        Work {
            max_flows: s.max_flows,
            edges_visited: s.edges_visited,
            csr_rebuilds: s.csr_rebuilds,
            bitset_words_cleared: s.bitset_words_cleared,
            rounds: s.rounds,
            dinkelbach_iterations: s.dinkelbach_iterations,
            contractions: s.contractions,
            rounds_replayed: s.rounds_replayed,
            rounds_resolved: s.rounds_resolved,
        }
    }

    /// Add another solve's counters.
    pub fn add(&mut self, o: &Work) {
        self.max_flows += o.max_flows;
        self.edges_visited += o.edges_visited;
        self.csr_rebuilds += o.csr_rebuilds;
        self.bitset_words_cleared += o.bitset_words_cleared;
        self.rounds += o.rounds;
        self.dinkelbach_iterations += o.dinkelbach_iterations;
        self.contractions += o.contractions;
        self.rounds_replayed += o.rounds_replayed;
        self.rounds_resolved += o.rounds_resolved;
    }

    /// Report the `flow.*` and `solver.*` metrics; `busy_s` is the time
    /// spent in the calls that drove the solver, `solves` the solve count.
    pub fn report(&self, m: &mut BTreeMap<&'static str, f64>, busy_s: f64, solves: usize) {
        m.insert("flow.max_flows", self.max_flows as f64);
        m.insert("flow.edges_visited", self.edges_visited as f64);
        m.insert("flow.csr_rebuilds", self.csr_rebuilds as f64);
        m.insert(
            "flow.bitset_words_cleared",
            self.bitset_words_cleared as f64,
        );
        m.insert(
            "flow.ns_per_edge",
            busy_s * 1e9 / self.edges_visited.max(1) as f64,
        );
        m.insert("solver.rounds", self.rounds as f64);
        m.insert(
            "solver.dinkelbach_iterations",
            self.dinkelbach_iterations as f64,
        );
        m.insert(
            "solver.max_flows_per_solve",
            self.max_flows as f64 / solves.max(1) as f64,
        );
        m.insert("solver.contractions", self.contractions as f64);
    }
}

/// Mean total work of an E8 job (exponentially distributed).
pub const E8_MEAN_WORK: f64 = 2000.0;

/// The E8 instance family: Zipf(1.2)-skewed work over `min(m, 5)` sites
/// per job, popular data on popular sites, capacities set so that demand
/// is about twice capacity.
pub fn e8_workload(n: usize, m: usize, seed: u64) -> amf_workload::Workload {
    use amf_workload::{
        CapacityModel, DemandModel, SitePlacement, SiteSkew, SizeDist, WorkloadConfig,
    };
    use rand::SeedableRng;
    let mut w = WorkloadConfig {
        n_sites: m,
        site_capacity: 100.0,
        capacity_model: CapacityModel::Uniform,
        n_jobs: n,
        sites_per_job: m.min(5),
        total_work: SizeDist::Exponential { mean: E8_MEAN_WORK },
        total_parallelism: SizeDist::Constant { value: 30.0 },
        skew: SiteSkew::Zipf { alpha: 1.2 },
        placement: SitePlacement::Popularity { gamma: 1.0 },
        demand_model: DemandModel::ProportionalToWork,
    }
    .generate(&mut rand::rngs::StdRng::seed_from_u64(seed));
    w.capacities = vec![15.0 * n as f64 / m as f64; m];
    w
}

const USAGE: &str = "usage: amf-perfbench --workload <sim-online|cold-solve|serve-open> \
                     --seed N --seconds S --trace <0|1>";

fn parse_args() -> Result<(String, Args), String> {
    let mut workload = None;
    let mut args = Args {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad)?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, args))
}

/// The host fingerprint printed with every result, so that figures from
/// different machines are never compared silently.
fn host_fingerprint() -> String {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "host: available_parallelism={threads} cpu_model=\"{cpu}\" rustc=\"{}\" commit={}",
        env!("PERFBENCH_RUSTC"),
        git_commit().unwrap_or_else(|| "unavailable (not a git checkout)".to_string())
    )
}

/// The commit checked out in the working directory, read from `.git`.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{name}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(name))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// Peak resident set size of this process so far, in MB (`VmHWM`); NaN
/// where `/proc/self/status` does not report it, which fails the run.
pub fn peak_rss_mb() -> f64 {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        });
    kb.map_or(f64::NAN, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let (workload, args) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = match workload.as_str() {
        "sim-online" => sim_online::run,
        "cold-solve" => cold_solve::run,
        "serve-open" => serve_open::run,
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host_fingerprint());
    println!(
        "workload={workload} seed={} seconds={} trace={}",
        args.seed, args.seconds, args.trace as u8
    );
    let mut outcome = run(&args);
    if let Some(tracer) = &outcome.tracer {
        let path =
            std::path::PathBuf::from(format!(".bench_traces/{workload}-seed{}.jsonl", args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => outcome.check(false, &format!("writing {}: {e}", path.display())),
        }
    }

    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for (name, unit) in catalogue {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        outcome.check(value.is_finite(), &format!("{name} is not finite"));
        let value = if value.is_finite() { value } else { 0.0 };
        println!("{name} = {value} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    let unlisted: Vec<&str> = outcome
        .metrics
        .keys()
        .filter(|name| !catalogue.iter().any(|(n, _)| n == *name))
        .copied()
        .collect();
    for name in unlisted {
        outcome.check(false, &format!("workload reported unlisted metric {name}"));
    }
    let attempted = outcome.attempted.max(1);
    let fail_frac = outcome.failed as f64 / attempted as f64;
    println!(
        "fail_frac = {fail_frac} ratio ({} of {attempted})",
        outcome.failed
    );
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
