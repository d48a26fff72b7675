//! The multi-tenant allocation server.
//!
//! Architecture (all std, no async runtime):
//!
//! ```text
//! listener thread ──accept──▶ connection threads (frame decode, Stats/
//!      │                        Shutdown inline, everything else enqueued)
//!      │                                │ bounded per-shard queues
//!      ▼                                ▼
//!  shutdown wake            worker pool (N = available_parallelism)
//!                                       │ lock tenant session, apply/solve
//!                                       ▼
//!                            mpsc reply ──▶ connection thread ──▶ client
//! ```
//!
//! * **Sharding** — tenants hash (FNV-1a) onto a fixed set of shards, each
//!   with its own session map and bounded admission queue; a full queue
//!   refuses with a typed `Overloaded` reply instead of blocking, so
//!   backpressure is visible to clients rather than silent.
//! * **Lazy solve** — `ApplyDeltas` applies each delta to the tenant's
//!   [`IncrementalAmf`] session at once (validated before it mutates, so a
//!   rejected delta changes nothing) and never solves; the next `Solve`
//!   runs one repair/replay pass for every delta applied since the last
//!   one. `GetAllocation` answers from the last solve, with the job ids
//!   snapshotted at that solve, since the session's live ids may already
//!   have moved on.
//! * **Shutdown** — `Shutdown` flips a flag, wakes everything, and drains:
//!   queued work completes and is answered, new work is refused with
//!   `ShuttingDown`. With `workers = Some(0)` (a test mode: nothing drains
//!   the queues, so overload behaviour is deterministic) the drain runs
//!   inline on the thread that received the `Shutdown`.

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use amf_core::incremental::{Delta, DeltaError, IncrementalAmf, JobId};
use amf_core::AmfSolver;
use amf_metrics::Histogram;

use crate::frame::{read_frame, write_frame, FrameError, DEFAULT_MAX_FRAME};
use crate::protocol::{
    decode_request, encode, ErrorKind, OpStats, Request, Response, WireDelta, WireStats,
};
use crate::WireScalar;

/// Server configuration. `Default` is suitable for tests and local use.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see [`Server::addr`]).
    pub addr: String,
    /// Worker threads. `None` sizes from
    /// [`std::thread::available_parallelism`]; `Some(0)` runs *no* workers
    /// — queued work only drains at shutdown (deterministic-overload test
    /// mode).
    pub workers: Option<usize>,
    /// Session-table shards (each with its own admission queue).
    pub shards: usize,
    /// Admission-queue capacity per shard; a full queue refuses requests
    /// with a typed `Overloaded` error.
    pub queue_cap: usize,
    /// Frame payload ceiling in bytes.
    pub max_frame: usize,
    /// Connection read timeout (poll interval for the shutdown flag).
    pub read_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: None,
            shards: 8,
            queue_cap: 256,
            max_frame: DEFAULT_MAX_FRAME,
            read_timeout: Duration::from_millis(50),
        }
    }
}

/// Final counter snapshot returned by [`Server::join`]; identical in shape
/// to the `Stats` frame payload.
pub type ServerSummary = WireStats;

/// One tenant's state: the incremental session plus the job ids of its
/// last solve (row `k` of `session.last_output()` belongs to
/// `solved_ids[k]`).
struct Tenant<S> {
    session: IncrementalAmf<S>,
    solved_ids: Vec<u64>,
}

/// A queued unit of work plus the channel its reply goes back on.
struct Work {
    op: Request,
    reply: mpsc::Sender<Response>,
}

struct ShardState<S> {
    sessions: BTreeMap<String, Arc<Mutex<Tenant<S>>>>,
    queue: VecDeque<Work>,
}

struct Counters {
    requests: AtomicU64,
    solves: AtomicU64,
    deltas_applied: AtomicU64,
    overloaded: AtomicU64,
    protocol_errors: AtomicU64,
}

/// Latency-histogram names, one per queueable/inline operation.
const OP_NAMES: [&str; 6] = [
    "create_session",
    "apply_deltas",
    "solve",
    "get_allocation",
    "stats",
    "shutdown",
];

struct Shared<S> {
    queue_cap: usize,
    max_frame: usize,
    read_timeout: Duration,
    addr: SocketAddr,
    shards: Vec<Mutex<ShardState<S>>>,
    /// Exact count of queued-but-unclaimed work items across all shards.
    pending: Mutex<usize>,
    work_cv: Condvar,
    shutdown: AtomicBool,
    counters: Counters,
    /// Per-operation latency histograms (microseconds, log-spaced buckets).
    latency: Mutex<Vec<Histogram>>,
    conns: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl<S: WireScalar> Shared<S> {
    fn record_latency(&self, op: &str, micros: f64) {
        if let Some(idx) = OP_NAMES.iter().position(|n| *n == op) {
            let mut book = self.latency.lock().expect("latency lock poisoned");
            book[idx].add(micros);
        }
    }

    fn build_stats(&self) -> WireStats {
        let (mut sessions, mut queued) = (0, 0);
        // Clone the tenant handles out of each shard before touching them:
        // tenant locks are only ever taken with no shard lock held, and the
        // stats path must respect that ordering too.
        let mut tenants = Vec::new();
        for sh in &self.shards {
            let st = sh.lock().expect("shard lock poisoned");
            sessions += st.sessions.len();
            queued += st.queue.len();
            tenants.extend(st.sessions.values().cloned());
        }
        let (mut csr_rebuilds, mut bitset_words_cleared) = (0u64, 0u64);
        for t in tenants {
            let t = t.lock().expect("tenant lock poisoned");
            let work = t.session.session_stats();
            csr_rebuilds = csr_rebuilds.saturating_add(work.csr_rebuilds);
            bitset_words_cleared = bitset_words_cleared.saturating_add(work.bitset_words_cleared);
        }
        let book = self.latency.lock().expect("latency lock poisoned");
        let ops = OP_NAMES
            .iter()
            .zip(book.iter())
            .filter(|(_, h)| h.count() > 0)
            .map(|(name, h)| OpStats {
                op: (*name).to_string(),
                count: h.count(),
                mean_us: h.mean(),
                p50_us: h.percentile(50.0),
                p95_us: h.percentile(95.0),
                p99_us: h.percentile(99.0),
            })
            .collect();
        WireStats {
            sessions,
            queued,
            requests: self.counters.requests.load(Ordering::Relaxed),
            solves: self.counters.solves.load(Ordering::Relaxed),
            deltas_applied: self.counters.deltas_applied.load(Ordering::Relaxed),
            // Deltas are never merged; the field stays so existing readers
            // of the frame still decode it.
            deltas_coalesced: 0,
            overloaded: self.counters.overloaded.load(Ordering::Relaxed),
            protocol_errors: self.counters.protocol_errors.load(Ordering::Relaxed),
            csr_rebuilds,
            bitset_words_cleared,
            ops,
        }
    }
}

fn shard_of(tenant: &str, n_shards: usize) -> usize {
    // FNV-1a: tiny, dependency-free, good spread on short tenant names.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in tenant.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % n_shards as u64) as usize
}

fn err(kind: ErrorKind, code: &str, message: impl Into<String>) -> Response {
    Response::Error {
        kind,
        code: code.to_string(),
        message: message.into(),
    }
}

fn delta_err(e: &DeltaError) -> Response {
    err(ErrorKind::Delta, e.kind(), e.to_string())
}

/// Convert one wire delta into the session's scalar, exactly.
fn to_delta<S: WireScalar>(w: &WireDelta) -> Result<Delta<S>, Response> {
    let conv = |v: f64, what: &str| {
        S::from_wire(v).ok_or_else(|| {
            err(
                ErrorKind::BadRequest,
                "unrepresentable_value",
                format!("{what} {v} is not representable in the session scalar"),
            )
        })
    };
    Ok(match w {
        WireDelta::AddJob {
            id,
            demands,
            weight,
        } => Delta::AddJob {
            id: JobId(*id),
            demands: demands
                .iter()
                .map(|d| conv(*d, "demand"))
                .collect::<Result<Vec<S>, Response>>()?,
            weight: match weight {
                Some(w) => conv(*w, "weight")?,
                None => S::ONE,
            },
        },
        WireDelta::RemoveJob { id } => Delta::RemoveJob { id: JobId(*id) },
        WireDelta::DemandChange { id, site, demand } => Delta::DemandChange {
            id: JobId(*id),
            site: *site,
            demand: conv(*demand, "demand")?,
        },
        WireDelta::CapacityChange { site, capacity } => Delta::CapacityChange {
            site: *site,
            capacity: conv(*capacity, "capacity")?,
        },
    })
}

fn solved_response<S: WireScalar>(tenant: &Tenant<S>, resolved: bool) -> Response {
    let out = tenant.session.last_output();
    Response::Solved {
        job_ids: tenant.solved_ids.clone(),
        aggregates: out
            .allocation
            .aggregates()
            .iter()
            .map(|a| a.to_f64())
            .collect(),
        split: out
            .allocation
            .split()
            .iter()
            .map(|row| row.iter().map(|x| x.to_f64()).collect())
            .collect(),
        resolved,
    }
}

/// Execute one queued operation against the session table.
fn process<S: WireScalar>(shared: &Shared<S>, work: Work) {
    let resp = match &work.op {
        Request::CreateSession {
            tenant,
            capacities,
            mode,
        } => handle_create(shared, tenant, capacities, mode.as_deref()),
        Request::ApplyDeltas { tenant, deltas } => handle_apply(shared, tenant, deltas),
        Request::Solve { tenant } => handle_solve(shared, tenant),
        Request::GetAllocation { tenant } => match lookup(shared, tenant) {
            Err(resp) => resp,
            Ok(t) => {
                let t = t.lock().expect("tenant lock poisoned");
                solved_response(&t, false)
            }
        },
        // Stats/Shutdown are handled inline on connection threads.
        other => err(
            ErrorKind::Protocol,
            "not_queueable",
            format!("{} cannot be queued", other.op_name()),
        ),
    };
    // A dead receiver just means the client hung up before the reply.
    let _ = work.reply.send(resp);
}

fn lookup<S: WireScalar>(
    shared: &Shared<S>,
    tenant: &str,
) -> Result<Arc<Mutex<Tenant<S>>>, Response> {
    let shard = &shared.shards[shard_of(tenant, shared.shards.len())];
    let st = shard.lock().expect("shard lock poisoned");
    st.sessions.get(tenant).cloned().ok_or_else(|| {
        err(
            ErrorKind::UnknownTenant,
            "unknown_tenant",
            format!("no session for tenant {tenant:?}"),
        )
    })
}

fn handle_create<S: WireScalar>(
    shared: &Shared<S>,
    tenant: &str,
    capacities: &[f64],
    mode: Option<&str>,
) -> Response {
    let solver = match mode {
        None | Some("enhanced") => AmfSolver::enhanced(),
        Some("plain") => AmfSolver::new(),
        Some(other) => {
            return err(
                ErrorKind::BadRequest,
                "bad_mode",
                format!("unknown fairness mode {other:?} (expected \"plain\" or \"enhanced\")"),
            )
        }
    };
    let mut caps = Vec::with_capacity(capacities.len());
    for c in capacities {
        match S::from_wire(*c) {
            Some(v) => caps.push(v),
            None => {
                return err(
                    ErrorKind::BadRequest,
                    "unrepresentable_value",
                    format!("capacity {c} is not representable in the session scalar"),
                )
            }
        }
    }
    let sites = caps.len();
    let session = match IncrementalAmf::new(solver, caps) {
        Ok(s) => s,
        Err(e) => return delta_err(&e),
    };
    let shard = &shared.shards[shard_of(tenant, shared.shards.len())];
    let mut st = shard.lock().expect("shard lock poisoned");
    if st.sessions.contains_key(tenant) {
        return err(
            ErrorKind::DuplicateTenant,
            "duplicate_tenant",
            format!("tenant {tenant:?} already has a session"),
        );
    }
    st.sessions.insert(
        tenant.to_string(),
        Arc::new(Mutex::new(Tenant {
            session,
            solved_ids: Vec::new(),
        })),
    );
    Response::Created {
        tenant: tenant.to_string(),
        sites,
    }
}

fn handle_apply<S: WireScalar>(shared: &Shared<S>, tenant: &str, deltas: &[WireDelta]) -> Response {
    let t = match lookup(shared, tenant) {
        Ok(t) => t,
        Err(resp) => return resp,
    };
    let mut t = t.lock().expect("tenant lock poisoned");
    let mut accepted = 0usize;
    for w in deltas {
        let delta = match to_delta::<S>(w) {
            Ok(d) => d,
            Err(resp) => return resp,
        };
        if let Err(e) = t.session.apply(delta) {
            return delta_err(&e);
        }
        accepted += 1;
        shared
            .counters
            .deltas_applied
            .fetch_add(1, Ordering::Relaxed);
    }
    Response::Applied {
        accepted,
        pending: t.session.pending(),
    }
}

fn handle_solve<S: WireScalar>(shared: &Shared<S>, tenant: &str) -> Response {
    let t = match lookup(shared, tenant) {
        Ok(t) => t,
        Err(resp) => return resp,
    };
    let mut t = t.lock().expect("tenant lock poisoned");
    let resolved = t.session.is_dirty();
    if resolved {
        t.session.solve();
        t.solved_ids = t.session.job_ids().iter().map(|j| j.0).collect();
        shared.counters.solves.fetch_add(1, Ordering::Relaxed);
    }
    solved_response(&t, resolved)
}

/// Queue `work` for the tenant's shard; refuses (with a typed reply) when
/// draining or when the shard's admission queue is full.
fn enqueue<S: WireScalar>(shared: &Shared<S>, tenant: &str, work: Work) -> Result<(), Response> {
    let shard = &shared.shards[shard_of(tenant, shared.shards.len())];
    let mut st = shard.lock().expect("shard lock poisoned");
    // Checked under the shard lock: `begin_shutdown` sets the flag and then
    // passes through every shard lock, so after that barrier no new work
    // can slip in behind the drain.
    if shared.shutdown.load(Ordering::Acquire) {
        return Err(err(
            ErrorKind::ShuttingDown,
            "shutting_down",
            "server is draining",
        ));
    }
    if st.queue.len() >= shared.queue_cap {
        shared.counters.overloaded.fetch_add(1, Ordering::Relaxed);
        return Err(err(
            ErrorKind::Overloaded,
            "overloaded",
            format!("admission queue full ({} queued)", st.queue.len()),
        ));
    }
    st.queue.push_back(work);
    *shared.pending.lock().expect("pending lock poisoned") += 1;
    shared.work_cv.notify_one();
    Ok(())
}

/// Claim one queued item, blocking until work arrives or shutdown completes
/// the drain. `None` means: queues empty *and* draining — exit.
fn next_work<S: WireScalar>(shared: &Shared<S>) -> Option<Work> {
    {
        let mut pending = shared.pending.lock().expect("pending lock poisoned");
        loop {
            if *pending > 0 {
                *pending -= 1;
                break;
            }
            if shared.shutdown.load(Ordering::Acquire) {
                return None;
            }
            pending = shared.work_cv.wait(pending).expect("pending lock poisoned");
        }
    }
    // The decrement above reserved exactly one queued item; find it.
    loop {
        for shard in &shared.shards {
            let mut st = shard.lock().expect("shard lock poisoned");
            if let Some(w) = st.queue.pop_front() {
                return Some(w);
            }
        }
        std::thread::yield_now();
    }
}

/// Drain every queued item inline (used when `workers = Some(0)`).
fn drain_inline<S: WireScalar>(shared: &Shared<S>) {
    loop {
        {
            let mut pending = shared.pending.lock().expect("pending lock poisoned");
            if *pending == 0 {
                return;
            }
            *pending -= 1;
        }
        let mut claimed = None;
        while claimed.is_none() {
            for shard in &shared.shards {
                let mut st = shard.lock().expect("shard lock poisoned");
                if let Some(w) = st.queue.pop_front() {
                    claimed = Some(w);
                    break;
                }
            }
        }
        if let Some(w) = claimed {
            process(shared, w);
        }
    }
}

fn begin_shutdown<S: WireScalar>(shared: &Shared<S>, had_workers: bool) {
    if shared.shutdown.swap(true, Ordering::AcqRel) {
        return; // already draining
    }
    // Barrier: pass through every shard lock so in-flight enqueues that
    // passed the flag check have landed before we drain (see `enqueue`).
    for shard in &shared.shards {
        drop(shard.lock().expect("shard lock poisoned"));
    }
    shared.work_cv.notify_all();
    if !had_workers {
        drain_inline(shared);
    }
    // Unblock the accept loop with a throwaway connection.
    let _ = TcpStream::connect(shared.addr);
}

/// Per-connection loop: decode frames, answer Stats/Shutdown inline, queue
/// everything else and relay the worker's reply.
fn serve_conn<S: WireScalar>(shared: &Arc<Shared<S>>, mut stream: TcpStream, had_workers: bool) {
    let _ = stream.set_read_timeout(Some(shared.read_timeout));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_nodelay(true);
    loop {
        let payload = match read_frame(&mut stream, shared.max_frame) {
            Ok(Some(p)) => p,
            Ok(None) => return, // clean close
            Err(FrameError::IdleTimeout) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
            Err(FrameError::Oversized { len, max }) => {
                // The stream still has the unread payload; reply then close.
                let resp = err(
                    ErrorKind::Protocol,
                    "oversized_frame",
                    format!("frame of {len} bytes exceeds max {max}"),
                );
                let _ = write_frame(&mut stream, &encode(&resp));
                return;
            }
            Err(_) => return, // truncated / stalled / io: unrecoverable
        };
        let started = Instant::now();
        shared.counters.requests.fetch_add(1, Ordering::Relaxed);
        let req = match decode_request(&payload) {
            Ok(r) => r,
            Err(e) => {
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                let resp = err(ErrorKind::Protocol, "bad_request", e.to_string());
                if write_frame(&mut stream, &encode(&resp)).is_err() {
                    return;
                }
                continue;
            }
        };
        let op = req.op_name();
        let resp = match &req {
            Request::Stats => Response::Stats {
                stats: shared.build_stats(),
            },
            Request::Shutdown => {
                begin_shutdown(shared, had_workers);
                Response::ShuttingDown
            }
            Request::CreateSession { tenant, .. }
            | Request::ApplyDeltas { tenant, .. }
            | Request::Solve { tenant }
            | Request::GetAllocation { tenant } => {
                let tenant = tenant.clone();
                let (tx, rx) = mpsc::channel();
                match enqueue(shared, &tenant, Work { op: req, reply: tx }) {
                    Err(refusal) => refusal,
                    Ok(()) => match rx.recv() {
                        Ok(resp) => resp,
                        Err(_) => err(
                            ErrorKind::BadRequest,
                            "internal",
                            "worker dropped the request",
                        ),
                    },
                }
            }
        };
        shared.record_latency(op, started.elapsed().as_secs_f64() * 1e6);
        if write_frame(&mut stream, &encode(&resp)).is_err() {
            return;
        }
    }
}

/// A running server; dropping the handle does *not* stop it — call
/// [`shutdown`](Server::shutdown) (or send a `Shutdown` frame) and then
/// [`join`](Server::join).
pub struct Server<S: WireScalar> {
    shared: Arc<Shared<S>>,
    listener: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl<S: WireScalar> Server<S> {
    /// Bind and start serving sessions over scalar `S`.
    pub fn bind(cfg: ServeConfig) -> io::Result<Server<S>> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let n_workers = cfg.workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .min(16)
        });
        let n_shards = cfg.shards.max(1);
        let latency = (0..OP_NAMES.len())
            .map(|_| Histogram::exponential(1.0, 1e7, 56))
            .collect();
        let shared = Arc::new(Shared {
            queue_cap: cfg.queue_cap.max(1),
            max_frame: cfg.max_frame,
            read_timeout: cfg.read_timeout,
            addr,
            shards: (0..n_shards)
                .map(|_| {
                    Mutex::new(ShardState {
                        sessions: BTreeMap::new(),
                        queue: VecDeque::new(),
                    })
                })
                .collect(),
            pending: Mutex::new(0),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            counters: Counters {
                requests: AtomicU64::new(0),
                solves: AtomicU64::new(0),
                deltas_applied: AtomicU64::new(0),
                overloaded: AtomicU64::new(0),
                protocol_errors: AtomicU64::new(0),
            },
            latency: Mutex::new(latency),
            conns: Mutex::new(Vec::new()),
        });
        let workers: Vec<_> = (0..n_workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("amf-serve-worker-{i}"))
                    .spawn(move || {
                        while let Some(work) = next_work(&shared) {
                            process(&shared, work);
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        let had_workers = n_workers > 0;
        let listener_handle = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("amf-serve-listener".to_string())
                .spawn(move || {
                    for incoming in listener.incoming() {
                        if shared.shutdown.load(Ordering::Acquire) {
                            return;
                        }
                        let stream = match incoming {
                            Ok(s) => s,
                            Err(_) => continue,
                        };
                        let conn_shared = Arc::clone(&shared);
                        let handle = std::thread::Builder::new()
                            .name("amf-serve-conn".to_string())
                            .spawn(move || serve_conn(&conn_shared, stream, had_workers))
                            .expect("spawn connection thread");
                        shared
                            .conns
                            .lock()
                            .expect("conns lock poisoned")
                            .push(handle);
                    }
                })
                .expect("spawn listener thread")
        };
        Ok(Server {
            shared,
            listener: Some(listener_handle),
            workers,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Begin graceful drain programmatically (same as a `Shutdown` frame).
    pub fn shutdown(&self) {
        begin_shutdown(&self.shared, !self.workers.is_empty());
    }

    /// Wait for the drain to finish and return the final counters. Call
    /// [`shutdown`](Server::shutdown) first (or have a client send a
    /// `Shutdown` frame), otherwise this blocks until one arrives.
    pub fn join(mut self) -> ServerSummary {
        if let Some(listener) = self.listener.take() {
            let _ = listener.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Connection threads exit within one read-timeout of the drain.
        loop {
            let handles: Vec<_> = {
                let mut conns = self.shared.conns.lock().expect("conns lock poisoned");
                conns.drain(..).collect()
            };
            if handles.is_empty() {
                break;
            }
            for h in handles {
                let _ = h.join();
            }
        }
        // Safety net for a straggler that passed the shutdown check before
        // the barrier: with every producer joined, drain anything left.
        drain_inline(&self.shared);
        self.shared.build_stats()
    }
}
