//! End-to-end loopback tests: a real TCP server, real client connections,
//! and equivalence against the offline matching pipeline.
//!
//! The load-bearing properties (the ISSUE 4 acceptance criteria):
//!
//! * N concurrent one-shot clients receive routes **byte-identical** to
//!   offline serial matching — batching, scheduling, and connection
//!   interleaving never change answers.
//! * A full-lag streaming session over the wire reproduces offline Viterbi
//!   without shortcuts byte-for-byte.
//! * Under overload, sheds carry a typed [`RejectReason`], nothing panics
//!   (including on the adversarial corpus), and a graceful drain loses
//!   zero admitted requests.

use lhmm_cellsim::dataset::{Dataset, DatasetConfig};
use lhmm_cellsim::faults::AdversarialCorpus;
use lhmm_cellsim::traj::CellularTrajectory;
use lhmm_core::candidates::{nearest_segments, to_candidates};
use lhmm_core::classic::{ClassicModel, ClassicObservation, ClassicTransition};
use lhmm_core::error::MatchError;
use lhmm_core::lhmm::{LhmmConfig, LhmmModel};
use lhmm_core::registry::ModelRegistry;
use lhmm_core::types::{Candidate, MatchContext};
use lhmm_core::viterbi::{EngineConfig, HmmEngine};
use lhmm_geo::Point;
use lhmm_network::graph::SegmentId;
use lhmm_serve::{
    BatchPolicy, ClientError, RejectReason, ServeClient, ServeConfig, ServeCtx, ServerHandle,
    SessionPolicy,
};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

fn cheap_model(ds: &Dataset, seed: u64) -> LhmmModel {
    let mut cfg = LhmmConfig::fast_test(seed);
    cfg.use_learned_obs = false;
    cfg.use_learned_trans = false;
    LhmmModel::train(ds, cfg)
}

fn ctx(ds: &Dataset) -> MatchContext<'_> {
    MatchContext {
        net: &ds.network,
        index: &ds.index,
        towers: &ds.towers,
    }
}

/// The offline verdict a served one-shot must reproduce exactly.
type OfflineVerdict = Result<Vec<SegmentId>, MatchError>;

fn offline_verdicts(ds: &Dataset, model: &LhmmModel, trajs: &[CellularTrajectory]) -> Vec<OfflineVerdict> {
    let ctx = ctx(ds);
    let mut engine = HmmEngine::new(&ds.network, model.engine_config());
    trajs
        .iter()
        .map(|t| {
            model
                .try_match_with_engine_stats(&ctx, t, &mut engine)
                .map(|(r, _)| r.path.segments)
        })
        .collect()
}

#[test]
fn concurrent_oneshot_clients_are_byte_identical_to_offline_serial() {
    let ds = Dataset::generate(&DatasetConfig::tiny_test(401));
    let model = cheap_model(&ds, 401);
    let trajs: Vec<CellularTrajectory> = ds.test.iter().map(|r| r.cellular.clone()).collect();
    let want = offline_verdicts(&ds, &model, &trajs);
    let registry = ModelRegistry::new(model, "v1");

    const CLIENTS: usize = 4;
    let report = thread::scope(|s| {
        let server = ServerHandle::start(
            s,
            ServeCtx {
                ctx: ctx(&ds),
                registry: &registry,
                scope: None,
            },
            ServeConfig::default(),
        )
        .expect("bind loopback");
        let addr = server.addr();

        thread::scope(|cs| {
            for c in 0..CLIENTS {
                let trajs = &trajs;
                let want = &want;
                cs.spawn(move || {
                    let mut client = ServeClient::connect(addr).expect("connect");
                    // Stride the work so every client hits every phase of
                    // the batcher's lifetime.
                    for (i, traj) in trajs.iter().enumerate().skip(c).step_by(CLIENTS) {
                        match (client.one_shot(traj), &want[i]) {
                            (Ok(reply), Ok(expected)) => {
                                assert_eq!(
                                    &reply.segments, expected,
                                    "client {c}, traj {i}: served route diverged from offline"
                                );
                            }
                            (Err(ClientError::Failed(got)), Err(expected)) => {
                                assert_eq!(&got, expected, "client {c}, traj {i}: error diverged");
                            }
                            (got, expected) => {
                                panic!("client {c}, traj {i}: verdict class diverged: served {got:?} vs offline {expected:?}");
                            }
                        }
                    }
                });
            }
        });
        server.shutdown_and_drain()
    });
    assert_eq!(report.admitted as usize, trajs.len());
    assert_eq!(report.in_flight_lost(), 0);
    assert_eq!(report.total_rejected(), 0);
    assert!(report.batches > 0);
}

/// Builds the offline full-lag reference for one trajectory with the same
/// compacted candidate preparation the server's session manager applies
/// (positions grow only for observations that produced candidates).
fn offline_streaming_reference(
    ds: &Dataset,
    traj: &CellularTrajectory,
    k: usize,
    radius: f64,
) -> Vec<SegmentId> {
    let mut model = ClassicModel::new(
        ClassicObservation::cellular(),
        ClassicTransition::cellular(),
        Vec::new(),
    );
    let mut pts: Vec<(Point, f64)> = Vec::new();
    let mut layers: Vec<Vec<Candidate>> = Vec::new();
    for p in &traj.points {
        let pos = p.effective_pos();
        let pairs = nearest_segments(&ds.network, &ds.index, pos, k, radius);
        if pairs.is_empty() {
            continue;
        }
        let i = pts.len();
        model.positions.push(pos);
        layers.push(to_candidates(&mut model, i, &pairs));
        pts.push((pos, p.t));
    }
    if pts.is_empty() {
        return Vec::new();
    }
    let mut engine = HmmEngine::new(
        &ds.network,
        EngineConfig {
            shortcuts: 0,
            ..Default::default()
        },
    );
    engine
        .try_find_path(&ds.network, &pts, layers, &mut model)
        .expect("valid layers")
        .path
        .segments
}

#[test]
fn full_lag_streaming_sessions_match_offline_viterbi_over_the_wire() {
    let ds = Dataset::generate(&DatasetConfig::tiny_test(402));
    let model = cheap_model(&ds, 402);
    let registry = ModelRegistry::new(model, "v1");
    let sessions = SessionPolicy::default();
    let (k, radius) = (sessions.k, sessions.radius);

    thread::scope(|s| {
        let server = ServerHandle::start(
            s,
            ServeCtx {
                ctx: ctx(&ds),
                registry: &registry,
                scope: None,
            },
            ServeConfig {
                sessions,
                ..Default::default()
            },
        )
        .expect("bind loopback");
        let addr = server.addr();

        // Three concurrent streaming clients, distinct trajectories.
        thread::scope(|cs| {
            for (id, rec) in ds.test.iter().take(3).enumerate() {
                let ds = &ds;
                cs.spawn(move || {
                    let traj = &rec.cellular;
                    let want = offline_streaming_reference(ds, traj, k, radius);
                    let mut client = ServeClient::connect(addr).expect("connect");
                    let session = 1000 + id as u64;
                    // Full lag: nothing commits before finish.
                    client
                        .open(session, (traj.points.len() + 1) as u32)
                        .expect("open session");
                    for p in &traj.points {
                        match client.push(session, p) {
                            Ok(_) => {}
                            // Off-network observation: session survives.
                            Err(ClientError::Failed(
                                MatchError::NoCandidates | MatchError::EmptyLayer { .. },
                            )) => {}
                            Err(e) => panic!("session {session}: push failed: {e}"),
                        }
                    }
                    let reply = client.finish(session).expect("finish");
                    assert_eq!(
                        reply.segments, want,
                        "session {session}: served streaming route diverged from offline full-lag Viterbi"
                    );
                });
            }
        });

        let report = server.shutdown_and_drain();
        assert_eq!(report.sessions_opened, 3);
        assert_eq!(report.sessions_finalized, 3);
        assert_eq!(report.active_sessions, 0);
        assert!(report.stream_pushes > 0);
        assert_eq!(report.stream_push.count(), report.stream_pushes);
    });
}

#[test]
fn overload_sheds_typed_rejections_and_drain_loses_nothing() {
    let ds = Dataset::generate(&DatasetConfig::tiny_test(403));
    let model = cheap_model(&ds, 403);
    let trajs: Vec<CellularTrajectory> =
        ds.test.iter().map(|r| r.cellular.clone()).collect();
    let want = offline_verdicts(&ds, &model, &trajs);
    let registry = ModelRegistry::new(model, "v1");

    let report = thread::scope(|s| {
        let server = ServerHandle::start(
            s,
            ServeCtx {
                ctx: ctx(&ds),
                registry: &registry,
                scope: None,
            },
            ServeConfig {
                batch: BatchPolicy {
                    queue_capacity: 1,
                    workers: 1,
                    max_batch: 1,
                    // Deterministic backpressure: each request takes ≥30 ms,
                    // so the pipeline (1 in service + 1 dispatched + 1 held
                    // by the scheduler + 1 queued) saturates under 8
                    // concurrent clients.
                    service_delay: Duration::from_millis(30),
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .expect("bind loopback");
        let addr = server.addr();

        let shed_total: u64 = thread::scope(|cs| {
            let handles: Vec<_> = (0..8)
                .map(|c| {
                    let trajs = &trajs;
                    let want = &want;
                    cs.spawn(move || {
                        let mut client = ServeClient::connect(addr).expect("connect");
                        let mut shed = 0u64;
                        for (i, traj) in trajs.iter().enumerate().skip(c).step_by(8) {
                            match client.one_shot(traj) {
                                Ok(reply) => {
                                    assert_eq!(Ok(&reply.segments), want[i].as_ref(), "traj {i}");
                                }
                                Err(ClientError::Rejected(reason)) => {
                                    // The only overload shed on this path.
                                    assert_eq!(reason, RejectReason::QueueFull, "traj {i}");
                                    shed += 1;
                                }
                                Err(ClientError::Failed(e)) => {
                                    assert_eq!(Err(&e), want[i].as_ref(), "traj {i}");
                                }
                                Err(e) => panic!("traj {i}: transport failure: {e}"),
                            }
                        }
                        shed
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client")).sum()
        });
        assert!(shed_total > 0, "overload never materialized");

        let report = server.shutdown_and_drain();
        assert_eq!(report.rejected_for(RejectReason::QueueFull), shed_total);
        report
    });
    assert_eq!(report.in_flight_lost(), 0, "graceful drain dropped admitted work");
    assert_eq!(
        report.admitted + report.total_rejected(),
        trajs.len() as u64,
        "every request was either admitted or shed with a typed reason"
    );
}

#[test]
fn adversarial_corpus_verdicts_match_offline_and_nothing_panics() {
    let ds = Dataset::generate(&DatasetConfig::tiny_test(404));
    let model = cheap_model(&ds, 404);
    let base: Vec<CellularTrajectory> = ds
        .test
        .iter()
        .take(2)
        .map(|r| r.cellular.clone())
        .collect();
    let corpus = AdversarialCorpus::generate(&base, 404);
    let trajs: Vec<CellularTrajectory> =
        corpus.cases.iter().map(|c| c.traj.clone()).collect();
    let want = offline_verdicts(&ds, &model, &trajs);
    let registry = ModelRegistry::new(model, "v1");

    thread::scope(|s| {
        let server = ServerHandle::start(
            s,
            ServeCtx {
                ctx: ctx(&ds),
                registry: &registry,
                scope: None,
            },
            ServeConfig::default(),
        )
        .expect("bind loopback");
        let addr = server.addr();
        let mut client = ServeClient::connect(addr).expect("connect");
        for (i, (traj, expected)) in trajs.iter().zip(&want).enumerate() {
            let plan = &corpus.cases[i].plan;
            match (client.one_shot(traj), expected) {
                (Ok(reply), Ok(want_segments)) => {
                    assert_eq!(&reply.segments, want_segments, "case {i} ({plan})");
                }
                (Err(ClientError::Failed(got)), Err(want_err)) => {
                    assert_eq!(&got, want_err, "case {i} ({plan})");
                }
                (got, expected) => panic!(
                    "case {i} ({plan}): verdict class diverged: served {got:?} vs offline {expected:?}"
                ),
            }
        }
        let report = server.shutdown_and_drain();
        assert_eq!(report.in_flight_lost(), 0);
        assert_eq!(report.completed as usize, trajs.len());
    });
}

#[test]
fn session_limit_and_lru_eviction_over_the_wire() {
    let ds = Dataset::generate(&DatasetConfig::tiny_test(405));
    let registry = ModelRegistry::new(cheap_model(&ds, 405), "v1");

    thread::scope(|s| {
        let server = ServerHandle::start(
            s,
            ServeCtx {
                ctx: ctx(&ds),
                registry: &registry,
                scope: None,
            },
            ServeConfig {
                sessions: SessionPolicy {
                    max_sessions: 2,
                    idle_timeout: Duration::from_secs(60),
                    // Generous margin: the three opens below complete in
                    // well under this, so the first open(3) must shed.
                    lru_evict_min_idle: Duration::from_millis(300),
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .expect("bind loopback");
        let addr = server.addr();
        let mut client = ServeClient::connect(addr).expect("connect");

        client.open(1, 4).expect("open 1");
        client.open(2, 4).expect("open 2");
        // Both sessions were touched within lru_evict_min_idle: the cap
        // sheds instead of cannibalizing an active session.
        match client.open(3, 4) {
            Err(ClientError::Rejected(RejectReason::SessionLimit)) => {}
            other => panic!("expected SessionLimit, got {other:?}"),
        }
        // Once the LRU session has genuinely idled, a newcomer evicts it.
        thread::sleep(Duration::from_millis(400));
        client.open(3, 4).expect("open 3 evicts LRU");
        // Session 1 (the LRU) is gone: pushing to it is a typed failure.
        let p = ds.test[0].cellular.points[0];
        match client.push(1, &p) {
            Err(ClientError::Failed(MatchError::EmptyTrajectory)) => {}
            other => panic!("expected EmptyTrajectory for evicted session, got {other:?}"),
        }
        let report = server.shutdown_and_drain();
        assert_eq!(report.rejected_for(RejectReason::SessionLimit), 1);
        assert_eq!(report.sessions_evicted_lru, 1);
        assert_eq!(report.sessions_opened, 3);
        // Drain finalized the two surviving sessions; the evicted one was
        // finalized at eviction time.
        assert_eq!(report.sessions_finalized, 3);
        assert_eq!(report.active_sessions, 0);
    });
}

#[test]
fn oversized_oneshots_are_shed_before_the_queue() {
    let ds = Dataset::generate(&DatasetConfig::tiny_test(406));
    let model = cheap_model(&ds, 406);
    let registry = ModelRegistry::new(model, "v1");
    let traj = ds
        .test
        .iter()
        .map(|r| &r.cellular)
        .find(|t| t.points.len() > 4)
        .expect("a trajectory longer than 4 points")
        .clone();

    thread::scope(|s| {
        let server = ServerHandle::start(
            s,
            ServeCtx {
                ctx: ctx(&ds),
                registry: &registry,
                scope: None,
            },
            ServeConfig {
                max_points: 4,
                ..Default::default()
            },
        )
        .expect("bind loopback");
        let mut client = ServeClient::connect(server.addr()).expect("connect");
        match client.one_shot(&traj) {
            Err(ClientError::Rejected(RejectReason::Oversized)) => {}
            other => panic!("expected Oversized, got {other:?}"),
        }
        let report = server.shutdown_and_drain();
        assert_eq!(report.rejected_for(RejectReason::Oversized), 1);
        assert_eq!(report.admitted, 0);
    });
}

/// A malformed frame (here a retired tag) ends its connection with EOF
/// right away — not at drain — and the server keeps serving others.
#[test]
fn malformed_frame_ends_the_connection_and_the_server_keeps_serving() {
    let ds = Dataset::generate(&DatasetConfig::tiny_test(408));
    let registry = ModelRegistry::new(cheap_model(&ds, 408), "v1");

    thread::scope(|s| {
        let server = ServerHandle::start(
            s,
            ServeCtx {
                ctx: ctx(&ds),
                registry: &registry,
                scope: None,
            },
            ServeConfig::default(),
        )
        .expect("bind loopback");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        // len = 1 | tag 0x86 (retired; never a request tag)
        stream.write_all(&[1, 0, 0, 0, 0x86]).expect("write");
        let mut reply = Vec::new();
        match stream.read_to_end(&mut reply) {
            Ok(_) => assert!(reply.is_empty(), "server replied to a malformed frame: {reply:?}"),
            Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
            Err(e) => panic!("connection did not end: {e}"),
        }
        let mut client = ServeClient::connect(server.addr()).expect("connect");
        assert_eq!(client.ping().expect("ping after a malformed frame"), 0);
        assert_eq!(server.shutdown_and_drain().in_flight_lost(), 0);
    });
}

#[test]
fn drain_with_open_sessions_flushes_them_and_report_renders() {
    let ds = Dataset::generate(&DatasetConfig::tiny_test(407));
    let registry = ModelRegistry::new(cheap_model(&ds, 407), "v1");

    thread::scope(|s| {
        let server = ServerHandle::start(
            s,
            ServeCtx {
                ctx: ctx(&ds),
                registry: &registry,
                scope: None,
            },
            ServeConfig::default(),
        )
        .expect("bind loopback");
        let mut client = ServeClient::connect(server.addr()).expect("connect");
        for id in 0..3u64 {
            client.open(id, 2).expect("open");
        }
        for p in ds.test[0].cellular.points.iter().take(5) {
            match client.push(0, p) {
                Ok(_) | Err(ClientError::Failed(_)) => {}
                Err(e) => panic!("push: {e}"),
            }
        }
        // One one-shot in the mix, then drain with all sessions open.
        let _ = client.one_shot(&ds.test[1].cellular);
        let report = server.shutdown_and_drain();
        assert_eq!(report.active_sessions, 0);
        assert_eq!(report.sessions_opened, 3);
        assert_eq!(report.sessions_finalized, 3);
        assert_eq!(report.in_flight_lost(), 0);
        let text = report.render();
        assert!(text.contains("serving report"));
        assert!(text.contains("sessions: active 0"));
    });
}
