//! End-to-end server tests: session lifecycle with audited responses,
//! concurrent multi-tenant traffic checked bit-identical against serial
//! from-scratch solves on [`Rational`], deterministic overload rejection
//! on bounded queues, graceful drain, one solve per burst of deltas,
//! typed delta errors over the wire, and `GetAllocation` answering with
//! the last solve's job ids.

use std::time::{Duration, Instant};

use amf_audit::audit;
use amf_core::incremental::{Delta, IncrementalAmf, JobId};
use amf_core::{Allocation, AmfSolver, FairnessMode, Instance};
use amf_numeric::Rational;
use amf_serve::{
    encode, read_frame, write_frame, ClientError, ErrorKind, Request, ServeClient, ServeConfig,
    Server, WireDelta, WireScalar, DEFAULT_MAX_FRAME,
};

fn local_cfg() -> ServeConfig {
    ServeConfig {
        workers: Some(2),
        ..ServeConfig::default()
    }
}

/// Deltas a lifecycle script sends, in wire and in session form. Keeping
/// both in lockstep lets tests rebuild the exact instance the server holds.
fn lifecycle_deltas() -> Vec<WireDelta> {
    vec![
        WireDelta::AddJob {
            id: 0,
            demands: vec![4.0, 1.0],
            weight: None,
        },
        WireDelta::AddJob {
            id: 1,
            demands: vec![2.0, 3.0],
            weight: None,
        },
        WireDelta::AddJob {
            id: 2,
            demands: vec![0.5, 2.5],
            weight: None,
        },
        WireDelta::DemandChange {
            id: 0,
            site: 1,
            demand: 2.0,
        },
        WireDelta::RemoveJob { id: 1 },
    ]
}

fn as_delta<S: WireScalar>(w: &WireDelta) -> Delta<S> {
    let conv = |v: f64| S::from_wire(v).expect("test values are representable");
    match w {
        WireDelta::AddJob {
            id,
            demands,
            weight,
        } => Delta::AddJob {
            id: JobId(*id),
            demands: demands.iter().map(|d| conv(*d)).collect(),
            weight: weight.map_or(S::ONE, conv),
        },
        WireDelta::RemoveJob { id } => Delta::RemoveJob { id: JobId(*id) },
        WireDelta::DemandChange { id, site, demand } => Delta::DemandChange {
            id: JobId(*id),
            site: *site,
            demand: conv(*demand),
        },
        WireDelta::CapacityChange { site, capacity } => Delta::CapacityChange {
            site: *site,
            capacity: conv(*capacity),
        },
    }
}

#[test]
fn lifecycle_solves_are_audit_certified() {
    let server = Server::<f64>::bind(local_cfg()).expect("bind ephemeral port");
    let addr = server.addr();
    let mut client = ServeClient::connect(addr).expect("connect");

    let caps = [6.0, 4.0];
    assert_eq!(
        client
            .create_session("acme", &caps, Some("enhanced"))
            .expect("create"),
        2
    );
    // Duplicate create is a typed error.
    match client.create_session("acme", &caps, None) {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, ErrorKind::DuplicateTenant),
        other => panic!("expected DuplicateTenant, got {other:?}"),
    }

    let deltas = lifecycle_deltas();
    let (accepted, pending) = client.apply_deltas("acme", &deltas).expect("apply");
    assert_eq!(accepted, deltas.len());
    assert_eq!(pending, deltas.len(), "deltas wait for the next Solve");

    let reply = client.solve("acme").expect("solve");
    assert!(reply.resolved);
    assert_eq!(reply.job_ids, vec![0, 2]);

    // Rebuild the exact instance the server holds and audit the reply.
    let mut mirror =
        IncrementalAmf::<f64>::new(AmfSolver::enhanced(), caps.to_vec()).expect("mirror");
    for w in &deltas {
        mirror.apply(as_delta(w)).expect("mirror apply");
    }
    let inst: Instance<f64> = mirror.instance();
    let alloc = Allocation::from_split(reply.split.clone());
    let report = audit(&inst, &alloc, FairnessMode::Enhanced);
    assert!(
        report.is_certified_amf(),
        "served allocation failed the audit: {report:?}"
    );

    // GetAllocation returns the cached result without re-solving.
    let cached = client.get_allocation("acme").expect("get");
    assert!(!cached.resolved);
    assert_eq!(cached.split, reply.split);
    let again = client.solve("acme").expect("idempotent solve");
    assert!(!again.resolved, "no new deltas → cached output");

    // Unknown tenant is typed.
    match client.solve("nobody") {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, ErrorKind::UnknownTenant),
        other => panic!("expected UnknownTenant, got {other:?}"),
    }

    let stats = client.stats().expect("stats");
    assert_eq!(stats.sessions, 1);
    assert_eq!(stats.solves, 1);
    assert_eq!(stats.deltas_applied, deltas.len() as u64);
    assert!(stats.ops.iter().any(|o| o.op == "solve" && o.count > 0));

    client.shutdown().expect("shutdown ack");
    let summary = server.join();
    assert_eq!(summary.sessions, 1);
    assert_eq!(summary.queued, 0, "drain leaves no queued work");
}

#[test]
fn concurrent_tenants_match_serial_rational_solves() {
    let cfg = ServeConfig {
        workers: Some(4),
        shards: 4,
        ..ServeConfig::default()
    };
    let server = Server::<Rational>::bind(cfg).expect("bind");
    let addr = server.addr();

    const THREADS: usize = 4;
    const TENANTS_PER_THREAD: usize = 2;
    let caps = [7.0, 5.0, 3.0];

    // Each thread owns its tenants, so per-tenant request order is fixed
    // even though threads interleave arbitrarily on the server.
    let finals: Vec<(String, Vec<f64>, Vec<Vec<f64>>)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..THREADS {
            handles.push(scope.spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect");
                let mut out = Vec::new();
                for k in 0..TENANTS_PER_THREAD {
                    let tenant = format!("tenant-{t}-{k}");
                    client
                        .create_session(&tenant, &caps, Some("enhanced"))
                        .expect("create");
                    // A burst per round: arrivals, a demand change, one
                    // departure; interleave solves between rounds.
                    for round in 0..3u64 {
                        let base = round * 10;
                        let mut deltas = vec![
                            WireDelta::AddJob {
                                id: base,
                                demands: vec![
                                    (1 + (t as u64 + round) % 4) as f64,
                                    (1 + (k as u64 + round) % 3) as f64,
                                    0.5,
                                ],
                                weight: None,
                            },
                            WireDelta::AddJob {
                                id: base + 1,
                                demands: vec![2.0, 0.25 * (1.0 + round as f64), 1.0],
                                weight: Some(1.0 + (round % 2) as f64),
                            },
                            WireDelta::DemandChange {
                                id: base,
                                site: 2,
                                demand: 1.5,
                            },
                        ];
                        if round > 0 {
                            deltas.push(WireDelta::RemoveJob {
                                id: (round - 1) * 10,
                            });
                        }
                        client.apply_deltas(&tenant, &deltas).expect("apply");
                        client.solve(&tenant).expect("solve");
                    }
                    let last = client.solve(&tenant).expect("final solve");
                    out.push((tenant, last.aggregates, last.split));
                }
                out
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });

    // Serial mirror: replay every tenant's exact request history (apply
    // the round's deltas, then solve, like the server does) — the served
    // f64 views must match that single-threaded execution bit-for-bit.
    // Aggregates are additionally anchored against a pure from-scratch
    // solve of the final instance: they are canonical for AMF, unlike the
    // split (a flow decomposition), which is only pinned to the mirrored
    // history.
    for (tenant, aggregates, split) in finals {
        let parts: Vec<&str> = tenant.split('-').collect();
        let (t, k): (u64, u64) = (
            parts[1].parse().expect("thread index"),
            parts[2].parse().expect("tenant index"),
        );
        let mut mirror = IncrementalAmf::<Rational>::new(
            AmfSolver::enhanced(),
            caps.iter()
                .map(|c| Rational::from_wire(*c).expect("representable"))
                .collect(),
        )
        .expect("mirror session");
        for round in 0..3u64 {
            let base = round * 10;
            let mut deltas = vec![
                WireDelta::AddJob {
                    id: base,
                    demands: vec![
                        (1 + (t + round) % 4) as f64,
                        (1 + (k + round) % 3) as f64,
                        0.5,
                    ],
                    weight: None,
                },
                WireDelta::AddJob {
                    id: base + 1,
                    demands: vec![2.0, 0.25 * (1.0 + round as f64), 1.0],
                    weight: Some(1.0 + (round % 2) as f64),
                },
                WireDelta::DemandChange {
                    id: base,
                    site: 2,
                    demand: 1.5,
                },
            ];
            if round > 0 {
                deltas.push(WireDelta::RemoveJob {
                    id: (round - 1) * 10,
                });
            }
            mirror
                .apply_all(deltas.iter().map(as_delta))
                .expect("mirror apply");
            mirror.solve();
        }
        let out = mirror.solve();
        let want_agg: Vec<f64> = out
            .allocation
            .aggregates()
            .iter()
            .map(|a| a.to_f64())
            .collect();
        let want_split: Vec<Vec<f64>> = out
            .allocation
            .split()
            .iter()
            .map(|row| row.iter().map(|x| x.to_f64()).collect())
            .collect();
        assert_eq!(aggregates, want_agg, "tenant {tenant} aggregates diverged");
        assert_eq!(split, want_split, "tenant {tenant} split diverged");
        let scratch = AmfSolver::enhanced().solve(&mirror.instance());
        let scratch_agg: Vec<f64> = scratch
            .allocation
            .aggregates()
            .iter()
            .map(|a| a.to_f64())
            .collect();
        assert_eq!(
            aggregates, scratch_agg,
            "tenant {tenant} diverged from the from-scratch solve"
        );
    }

    server.shutdown();
    let summary = server.join();
    assert_eq!(summary.sessions, THREADS * TENANTS_PER_THREAD);
    assert_eq!(summary.overloaded, 0);
}

/// Raw frame send over a bare TcpStream (the typed client would block
/// waiting for a reply the no-worker server never sends).
fn send_raw(stream: &mut std::net::TcpStream, req: &Request) {
    write_frame(stream, &encode(req)).expect("write frame");
}

fn recv_raw(stream: &mut std::net::TcpStream) -> amf_serve::Response {
    let payload = read_frame(stream, DEFAULT_MAX_FRAME)
        .expect("read frame")
        .expect("frame present");
    amf_serve::decode_response(&payload).expect("decode response")
}

#[test]
fn bounded_queue_rejects_with_overloaded_instead_of_blocking() {
    // No workers: queued work sits until shutdown drains it inline, so the
    // overload condition is deterministic, not a race against consumers.
    let cfg = ServeConfig {
        workers: Some(0),
        shards: 1,
        queue_cap: 2,
        ..ServeConfig::default()
    };
    let server = Server::<f64>::bind(cfg).expect("bind");
    let addr = server.addr();

    let mut filler_a = std::net::TcpStream::connect(addr).expect("connect a");
    let mut filler_b = std::net::TcpStream::connect(addr).expect("connect b");
    filler_a
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    filler_b
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    send_raw(&mut filler_a, &Request::Solve { tenant: "x".into() });
    send_raw(&mut filler_b, &Request::Solve { tenant: "x".into() });

    // Wait until both fillers are actually queued (Stats runs inline and
    // reports queue depth), then the next request must bounce.
    let mut probe = ServeClient::connect(addr).expect("connect probe");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = probe.stats().expect("stats");
        if stats.queued == 2 {
            break;
        }
        assert!(Instant::now() < deadline, "fillers never queued: {stats:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
    match probe.solve("x") {
        Err(ClientError::Server { kind, code, .. }) => {
            assert_eq!(kind, ErrorKind::Overloaded);
            assert_eq!(code, "overloaded");
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }

    // Shutdown drains inline: the queued fillers get (typed) replies, and
    // post-drain requests are refused as ShuttingDown, not Overloaded.
    probe.shutdown().expect("shutdown ack");
    for filler in [&mut filler_a, &mut filler_b] {
        match recv_raw(filler) {
            amf_serve::Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::UnknownTenant),
            other => panic!("queued filler expected a drained reply, got {other:?}"),
        }
    }
    match probe.solve("x") {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, ErrorKind::ShuttingDown),
        // The connection may already have been closed by the drain.
        Err(ClientError::Frame(_)) | Err(ClientError::BadReply { .. }) => {}
        Ok(resp) => panic!("request admitted after shutdown: {resp:?}"),
    }

    let summary = server.join();
    assert_eq!(summary.overloaded, 1);
    assert_eq!(summary.queued, 0);
}

#[test]
fn burst_of_applies_costs_one_solve() {
    let server = Server::<Rational>::bind(ServeConfig {
        workers: Some(1),
        ..ServeConfig::default()
    })
    .expect("bind");
    let mut client = ServeClient::connect(server.addr()).expect("connect");
    let caps = [8.0, 8.0];
    client
        .create_session("t", &caps, Some("plain"))
        .expect("create");
    let seed = [
        WireDelta::AddJob {
            id: 0,
            demands: vec![3.0, 1.0],
            weight: None,
        },
        WireDelta::AddJob {
            id: 1,
            demands: vec![1.0, 4.0],
            weight: None,
        },
    ];
    client.apply_deltas("t", &seed).expect("seed jobs");
    assert!(client.solve("t").expect("seed solve").resolved);
    let solves_before = client.stats().expect("stats").solves;

    // A burst of single-delta requests on one (job, site) cell: each is
    // applied as it arrives, and none of them solves.
    let mut burst = Vec::new();
    for step in 1..=8usize {
        let delta = WireDelta::DemandChange {
            id: 0,
            site: 1,
            demand: 1.0 + step as f64 * 0.25,
        };
        let (accepted, pending) = client
            .apply_deltas("t", std::slice::from_ref(&delta))
            .expect("burst delta");
        assert_eq!((accepted, pending), (1, step));
        burst.push(delta);
    }
    assert_eq!(client.stats().expect("stats").solves, solves_before);

    let reply = client.solve("t").expect("solve");
    assert!(reply.resolved);
    assert_eq!(client.stats().expect("stats").solves, solves_before + 1);

    // The one solve saw every delta: its aggregates are the from-scratch
    // solve of the final instance, bit for bit on Rational.
    let mut mirror = IncrementalAmf::<Rational>::new(
        AmfSolver::new(),
        caps.iter()
            .map(|c| Rational::from_wire(*c).expect("representable"))
            .collect(),
    )
    .expect("mirror");
    mirror
        .apply_all(seed.iter().chain(&burst).map(as_delta))
        .expect("mirror apply");
    let scratch = AmfSolver::new().solve(&mirror.instance());
    let want: Vec<f64> = scratch
        .allocation
        .aggregates()
        .iter()
        .map(|a| a.to_f64())
        .collect();
    assert_eq!(reply.aggregates, want);

    // The solve reset the pending count: a repeat Solve is cached and the
    // next delta counts from 1 again.
    let again = client.solve("t").expect("cached solve");
    assert!(!again.resolved);
    assert_eq!(again.aggregates, reply.aggregates);
    let (_, pending) = client
        .apply_deltas(
            "t",
            &[WireDelta::CapacityChange {
                site: 0,
                capacity: 6.0,
            }],
        )
        .expect("one more delta");
    assert_eq!(pending, 1);

    client.shutdown().expect("shutdown");
    let summary = server.join();
    assert_eq!(summary.solves, solves_before + 1);
    assert_eq!(summary.deltas_coalesced, 0);
}

#[test]
fn every_delta_error_is_typed_on_the_wire() {
    let server = Server::<f64>::bind(local_cfg()).expect("bind");
    let mut client = ServeClient::connect(server.addr()).expect("connect");
    client
        .create_session("t", &[4.0, 4.0], None)
        .expect("create");
    client
        .apply_deltas(
            "t",
            &[WireDelta::AddJob {
                id: 1,
                demands: vec![1.0, 1.0],
                weight: None,
            }],
        )
        .expect("seed job");

    let add = |id: u64, demands: Vec<f64>| WireDelta::AddJob {
        id,
        demands,
        weight: None,
    };
    let cases = [
        (add(1, vec![2.0, 2.0]), "duplicate_job"),
        (WireDelta::RemoveJob { id: 42 }, "unknown_job"),
        (add(2, vec![1.0]), "ragged_demands"),
        (
            WireDelta::DemandChange {
                id: 1,
                site: 7,
                demand: 1.0,
            },
            "site_out_of_range",
        ),
        (
            WireDelta::CapacityChange {
                site: 0,
                capacity: -1.0,
            },
            "invalid_value",
        ),
    ];
    for (delta, want) in cases {
        match client.apply_deltas("t", std::slice::from_ref(&delta)) {
            Err(ClientError::Server { kind, code, .. }) => {
                assert_eq!(kind, ErrorKind::Delta, "{delta:?}");
                assert_eq!(code, want, "{delta:?}");
            }
            other => panic!("{delta:?}: expected a {want} error, got {other:?}"),
        }
    }
    // Rejected deltas changed nothing: only the seed job is pending.
    assert_eq!(client.apply_deltas("t", &[]).expect("empty apply"), (0, 1));

    // The request stops at its third delta; the first two stay applied
    // and the fourth is never looked at.
    match client.apply_deltas(
        "t",
        &[
            add(2, vec![1.0, 0.5]),
            add(3, vec![0.5, 2.0]),
            add(2, vec![9.0, 9.0]),
            add(4, vec![1.0, 1.0]),
        ],
    ) {
        Err(ClientError::Server { kind, code, .. }) => {
            assert_eq!(kind, ErrorKind::Delta);
            assert_eq!(code, "duplicate_job");
        }
        other => panic!("expected duplicate_job, got {other:?}"),
    }
    assert_eq!(client.apply_deltas("t", &[]).expect("empty apply"), (0, 3));
    let mut ids = client.solve("t").expect("solve").job_ids;
    ids.sort_unstable();
    assert_eq!(ids, vec![1, 2, 3]);

    client.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn get_allocation_answers_with_the_last_solves_job_ids() {
    let server = Server::<f64>::bind(local_cfg()).expect("bind");
    let mut client = ServeClient::connect(server.addr()).expect("connect");
    client
        .create_session("t", &[6.0, 4.0], None)
        .expect("create");
    client
        .apply_deltas("t", &lifecycle_deltas()[..2])
        .expect("two jobs");
    let solved = client.solve("t").expect("solve");
    assert_eq!(solved.job_ids, vec![0, 1]);

    // Job 9 reaches the session before the next Solve; GetAllocation must
    // still describe the last solve, whose rows do not include it.
    client
        .apply_deltas(
            "t",
            &[WireDelta::AddJob {
                id: 9,
                demands: vec![1.0, 1.0],
                weight: None,
            }],
        )
        .expect("add job 9");
    let cached = client.get_allocation("t").expect("get");
    assert!(!cached.resolved);
    assert_eq!(cached.job_ids, solved.job_ids);
    assert_eq!(cached.aggregates.len(), cached.job_ids.len());
    assert_eq!(cached.split.len(), cached.job_ids.len());
    assert_eq!(cached.split, solved.split);

    // Same for a removal: the departed job stays in the cached reply until
    // the next Solve.
    let with_nine = client.solve("t").expect("solve with job 9");
    assert_eq!(with_nine.job_ids, vec![0, 1, 9]);
    client
        .apply_deltas("t", &[WireDelta::RemoveJob { id: 0 }])
        .expect("remove job 0");
    let cached = client.get_allocation("t").expect("get");
    assert_eq!(cached.job_ids, vec![0, 1, 9]);
    assert_eq!(cached.split, with_nine.split);
    assert_eq!(client.solve("t").expect("solve").job_ids, vec![1, 9]);

    client.shutdown().expect("shutdown");
    server.join();
}
