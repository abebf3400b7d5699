//! Cluster loopback tests: a real router, real shard servers, real TCP —
//! and byte-exact equivalence against single-process serving and the
//! offline pipeline (the ISSUE 8 acceptance criteria).
//!
//! * Adversarial-corpus one-shot verdict fingerprints through a 4-shard
//!   cluster equal the single-process and offline-serial fingerprints.
//! * Streaming sessions that cross tile boundaries mid-stream (they stay
//!   on the shard of their first accepted push) commit and finish
//!   byte-identically to an uninterrupted single-process session and to
//!   offline full-lag Viterbi, and feed the same refresh statistics.
//! * Killing a shard mid-stream, or killing a session's home shard right
//!   before `finish`, loses nothing: the supervisor restarts it, the
//!   router replays its journal, and final routes are unchanged.
//! * Re-opening a key whose replay was shed still finalizes the previous
//!   trajectory from the router's journal.
//! * Frames with the retired handoff tags end the connection at the router
//!   without a reply, and the router keeps serving.

use lhmm_cellsim::dataset::{Dataset, DatasetConfig};
use lhmm_cellsim::faults::AdversarialCorpus;
use lhmm_cellsim::traj::{CellularPoint, CellularTrajectory};
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
    ClientError, ClusterConfig, ClusterHandle, ClusterTopology, RejectReason, ServeClient,
    ServeConfig, ServeCtx, ServerHandle, SessionPolicy,
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

/// The verdict a served one-shot must reproduce exactly.
type Verdict = Result<Vec<SegmentId>, MatchError>;

fn offline_verdicts(ds: &Dataset, model: &LhmmModel, trajs: &[CellularTrajectory]) -> Vec<Verdict> {
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

/// FNV-1a over the verdict sequence: equal fingerprints mean bitwise-equal
/// verdicts (same routes, same typed errors, same order).
fn fingerprint(verdicts: &[Verdict]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u64| {
        h ^= b;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for v in verdicts {
        match v {
            Ok(segments) => {
                eat(1);
                eat(segments.len() as u64);
                for s in segments {
                    eat(s.0 as u64);
                }
            }
            Err(e) => {
                eat(2);
                let mut buf = String::new();
                use std::fmt::Write as _;
                let _ = write!(buf, "{e:?}");
                for byte in buf.bytes() {
                    eat(byte as u64);
                }
            }
        }
    }
    h
}

fn served_verdicts(addr: std::net::SocketAddr, trajs: &[CellularTrajectory]) -> Vec<Verdict> {
    let mut client = ServeClient::connect(addr).expect("connect");
    trajs
        .iter()
        .map(|t| match client.one_shot(t) {
            Ok(reply) => Ok(reply.segments),
            Err(ClientError::Failed(e)) => Err(e),
            Err(e) => panic!("unexpected serving outcome: {e}"),
        })
        .collect()
}

/// Offline full-lag reference with the same compacted candidate
/// preparation the session manager applies.
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

/// Streams `traj` through the endpoint at `addr` and returns the
/// per-push outcome trace (committed counts and typed per-point errors)
/// plus the final route — the full observable behavior of the session.
fn stream_session(
    addr: std::net::SocketAddr,
    session: u64,
    lag: u32,
    traj: &CellularTrajectory,
) -> (Vec<Result<u32, String>>, Vec<SegmentId>, bool) {
    let mut client = ServeClient::connect(addr).expect("connect");
    client.open(session, lag).expect("open session");
    let mut trace = Vec::new();
    for p in &traj.points {
        match client.push(session, p) {
            Ok(committed) => trace.push(Ok(committed)),
            Err(ClientError::Failed(
                e @ (MatchError::NoCandidates | MatchError::EmptyLayer { .. }),
            )) => trace.push(Err(format!("{e:?}"))),
            Err(e) => panic!("session {session}: push failed: {e}"),
        }
    }
    let reply = client.finish(session).expect("finish");
    (trace, reply.segments, reply.degraded)
}

#[test]
fn four_shard_oneshot_fingerprint_equals_single_process_and_offline() {
    let ds = Dataset::generate(&DatasetConfig::tiny_test(501));
    let model = cheap_model(&ds, 501);
    let base: Vec<CellularTrajectory> =
        ds.test.iter().take(2).map(|r| r.cellular.clone()).collect();
    let corpus = AdversarialCorpus::generate(&base, 501);
    let trajs: Vec<CellularTrajectory> = corpus.cases.iter().map(|c| c.traj.clone()).collect();

    let offline_fp = fingerprint(&offline_verdicts(&ds, &model, &trajs));
    let registry = ModelRegistry::new(model, "v1");
    let topology = ClusterTopology::build(&ds.network, &ds.index, 2, 2, 3000.0);
    assert_eq!(topology.num_tiles(), 4);

    let (single_fp, cluster_fp) = thread::scope(|s| {
        let serve = ServeCtx {
            ctx: ctx(&ds),
            registry: &registry,
            scope: None,
        };
        let single =
            ServerHandle::start(s, serve, ServeConfig::default()).expect("bind single");
        let single_fp = fingerprint(&served_verdicts(single.addr(), &trajs));
        single.shutdown_and_drain();

        let cluster = ClusterHandle::start(s, serve, &topology, ClusterConfig::default())
            .expect("bind cluster");
        let cluster_fp = fingerprint(&served_verdicts(cluster.addr(), &trajs));
        let report = cluster.shutdown_and_drain();
        assert_eq!(report.in_flight_lost(), 0, "cluster drain dropped admitted work");
        assert_eq!(report.merged.completed as usize, trajs.len());
        assert_eq!(report.shards, 4);
        (single_fp, cluster_fp)
    });

    assert_eq!(
        cluster_fp, single_fp,
        "4-shard verdict fingerprint diverged from single-process"
    );
    assert_eq!(
        cluster_fp, offline_fp,
        "4-shard verdict fingerprint diverged from offline serial"
    );
}

#[test]
fn streaming_across_tiles_is_byte_identical_to_single_process() {
    let ds = Dataset::generate(&DatasetConfig::tiny_test(502));
    let registry = ModelRegistry::new(cheap_model(&ds, 502), "v1");
    let sessions = SessionPolicy::default();
    let (k, radius) = (sessions.k, sessions.radius);
    let topology = ClusterTopology::build(&ds.network, &ds.index, 2, 2, radius);
    let trajs: Vec<CellularTrajectory> =
        ds.test.iter().take(4).map(|r| r.cellular.clone()).collect();

    // The trajectories must cross tile boundaries for this test to match
    // pushes outside the home tile; the dataset seed guarantees it.
    let crossings: usize = trajs
        .iter()
        .map(|t| {
            t.points
                .windows(2)
                .filter(|w| {
                    topology.route(w[0].effective_pos()) != topology.route(w[1].effective_pos())
                })
                .count()
        })
        .sum();
    assert!(crossings > 0, "seed produced no tile-crossing trajectories");

    thread::scope(|s| {
        let serve = ServeCtx {
            ctx: ctx(&ds),
            registry: &registry,
            scope: None,
        };
        let config = ServeConfig {
            sessions: sessions.clone(),
            ..Default::default()
        };
        let single = ServerHandle::start(s, serve, config.clone()).expect("bind single");
        let cluster = ClusterHandle::start(
            s,
            serve,
            &topology,
            ClusterConfig {
                shard: config,
                ..Default::default()
            },
        )
        .expect("bind cluster");

        for (i, traj) in trajs.iter().enumerate() {
            let session = 2000 + i as u64;
            // Fixed lag: commits happen mid-stream, so divergence anywhere
            // in the beam state would surface in the trace.
            let want = stream_session(single.addr(), session, 4, traj);
            let got = stream_session(cluster.addr(), session, 4, traj);
            assert_eq!(
                got, want,
                "session {session}: sharded streaming diverged from single-process"
            );
            // Full lag: the final route must also equal offline Viterbi.
            let offline = offline_streaming_reference(&ds, traj, k, radius);
            let (_, full_lag_route, _) = stream_session(
                cluster.addr(),
                3000 + i as u64,
                (traj.points.len() + 1) as u32,
                traj,
            );
            assert_eq!(
                full_lag_route, offline,
                "session {session}: sharded full-lag route diverged from offline"
            );
        }

        let report = cluster.shutdown_and_drain();
        assert_eq!(report.in_flight_lost(), 0);
        single.shutdown_and_drain();
    });
}

/// A session that crosses tiles must credit every accepted point to the
/// refresh statistics at finish, as single-process serving does: the
/// home shard holds the whole trip, so both registries end up equal.
#[test]
fn tile_crossing_sessions_feed_the_same_refresh_statistics_as_single_process() {
    let ds = Dataset::generate(&DatasetConfig::tiny_test(502));
    let single_reg = ModelRegistry::new(cheap_model(&ds, 502), "v1");
    let cluster_reg = ModelRegistry::new(cheap_model(&ds, 502), "v1");
    let sessions = SessionPolicy::default();
    let topology = ClusterTopology::build(&ds.network, &ds.index, 2, 2, sessions.radius);
    let trajs: Vec<CellularTrajectory> =
        ds.test.iter().take(4).map(|r| r.cellular.clone()).collect();
    let crossings = trajs
        .iter()
        .flat_map(|t| t.points.windows(2))
        .filter(|w| topology.route(w[0].effective_pos()) != topology.route(w[1].effective_pos()))
        .count();
    assert!(crossings > 0, "seed produced no tile-crossing trajectories");

    thread::scope(|s| {
        let config = ServeConfig {
            sessions,
            ..Default::default()
        };
        let single = ServerHandle::start(
            s,
            ServeCtx {
                ctx: ctx(&ds),
                registry: &single_reg,
                scope: None,
            },
            config.clone(),
        )
        .expect("bind single");
        let cluster = ClusterHandle::start(
            s,
            ServeCtx {
                ctx: ctx(&ds),
                registry: &cluster_reg,
                scope: None,
            },
            &topology,
            ClusterConfig {
                shard: config,
                ..Default::default()
            },
        )
        .expect("bind cluster");
        for (i, traj) in trajs.iter().enumerate() {
            let session = 2500 + i as u64;
            let want = stream_session(single.addr(), session, 4, traj);
            let got = stream_session(cluster.addr(), session, 4, traj);
            assert_eq!(got, want, "session {session}: routes diverged");
        }
        assert_eq!(cluster.shutdown_and_drain().in_flight_lost(), 0);
        single.shutdown_and_drain();
    });

    let want = single_reg.stats();
    assert_eq!(want.observed_matches, trajs.len() as u64);
    assert_eq!(
        cluster_reg.stats(),
        want,
        "cluster refresh statistics diverged from single-process"
    );
}

#[test]
fn shard_crash_mid_stream_recovers_with_nothing_lost() {
    let ds = Dataset::generate(&DatasetConfig::tiny_test(503));
    let registry = ModelRegistry::new(cheap_model(&ds, 503), "v1");
    let topology = ClusterTopology::build(&ds.network, &ds.index, 2, 2, 3000.0);
    let trajs: Vec<CellularTrajectory> =
        ds.test.iter().take(3).map(|r| r.cellular.clone()).collect();

    thread::scope(|s| {
        let serve = ServeCtx {
            ctx: ctx(&ds),
            registry: &registry,
            scope: None,
        };
        let single = ServerHandle::start(s, serve, ServeConfig::default()).expect("bind single");
        let cluster = ClusterHandle::start(s, serve, &topology, ClusterConfig::default())
            .expect("bind cluster");

        for (i, traj) in trajs.iter().enumerate() {
            let session = 4000 + i as u64;
            let want = stream_session(single.addr(), session, 4, traj);

            // Same stream against the cluster, but kill the shard that
            // holds the session (its first push's tile) halfway through.
            let mut client = ServeClient::connect(cluster.addr()).expect("connect");
            client.open(session, 4).expect("open");
            let mut trace = Vec::new();
            let cut = traj.points.len() / 2;
            let home = topology.route(traj.points[0].effective_pos());
            for (j, p) in traj.points.iter().enumerate() {
                if j == cut {
                    assert!(
                        cluster.kill_shard(home),
                        "session {session}: shard {home} was already down"
                    );
                }
                match client.push(session, p) {
                    Ok(committed) => trace.push(Ok(committed)),
                    Err(ClientError::Failed(
                        e @ (MatchError::NoCandidates | MatchError::EmptyLayer { .. }),
                    )) => trace.push(Err(format!("{e:?}"))),
                    Err(e) => panic!("session {session}: push failed after crash: {e}"),
                }
            }
            let reply = client.finish(session).expect("finish after crash");
            let got = (trace, reply.segments, reply.degraded);
            assert_eq!(
                got, want,
                "session {session}: crash recovery diverged from uninterrupted single-process"
            );
        }

        let report = cluster.shutdown_and_drain();
        assert!(report.restarts >= 1, "the supervisor never restarted a shard");
        assert!(report.replays >= 1, "no journal replay happened");
        assert_eq!(
            report.in_flight_lost(),
            0,
            "a crashed shard lost admitted work"
        );
        single.shutdown_and_drain();
    });
}

/// The session's home shard (the tile of its first push) killed
/// right before `finish` of a long session: the router rebuilds the
/// session from its journal on the restarted shard, and the final route
/// still equals offline Viterbi.
#[test]
fn shard_killed_before_finish_of_a_long_session_loses_nothing() {
    let mut config = DatasetConfig::tiny_test(505);
    // Dense cellular sampling: long sessions, so the replay behind the
    // finish carries many journaled pushes.
    config.sampling.cell_interval_mean = 5.0;
    let ds = Dataset::generate(&config);
    let registry = ModelRegistry::new(cheap_model(&ds, 505), "v1");
    let sessions = SessionPolicy::default();
    let (k, radius) = (sessions.k, sessions.radius);
    let topology = ClusterTopology::build(&ds.network, &ds.index, 2, 2, radius);
    let traj = ds
        .test
        .iter()
        .map(|r| &r.cellular)
        .max_by_key(|t| t.len())
        .expect("non-empty test split");
    assert!(traj.len() >= 50, "longest session has {} pushes", traj.len());
    let offline = offline_streaming_reference(&ds, traj, k, radius);
    assert!(!offline.is_empty(), "the offline route is empty");

    thread::scope(|s| {
        let serve = ServeCtx {
            ctx: ctx(&ds),
            registry: &registry,
            scope: None,
        };
        let config = ClusterConfig {
            shard: ServeConfig {
                sessions,
                ..Default::default()
            },
            ..Default::default()
        };
        let cluster = ClusterHandle::start(s, serve, &topology, config).expect("bind cluster");
        let mut client = ServeClient::connect(cluster.addr()).expect("connect");
        let session = 5000;
        // Full lag: nothing commits early, so the finish carries the route.
        client
            .open(session, (traj.len() + 1) as u32)
            .expect("open");
        let mut accepted = 0;
        for p in &traj.points {
            match client.push(session, p) {
                Ok(_) => accepted += 1,
                Err(ClientError::Failed(MatchError::NoCandidates | MatchError::EmptyLayer { .. })) => {}
                Err(e) => panic!("push failed: {e}"),
            }
        }
        assert!(accepted > 0, "no push was accepted");
        // The shard-side session opened on the first push's tile.
        let tile = topology.route(traj.points[0].effective_pos());
        assert!(cluster.kill_shard(tile), "shard {tile} was already down");
        let reply = client.finish(session).expect("finish after kill");
        assert_eq!(reply.segments, offline, "route diverged from offline after the kill");

        let report = cluster.shutdown_and_drain();
        assert!(report.replays >= 1, "the finish did not replay the journal");
        assert_eq!(report.in_flight_lost(), 0, "the kill lost admitted work");
    });
}

/// A replay shed at the target shard leaves a session that no shard
/// holds, only the router's journal. Re-opening its key must still
/// finalize the previous trajectory, as single-process reopen does.
#[test]
fn reopen_after_a_shed_replay_finalizes_the_previous_trajectory() {
    let ds = Dataset::generate(&DatasetConfig::tiny_test(506));
    let registry = ModelRegistry::new(cheap_model(&ds, 506), "v1");
    // One session slot per shard, and no LRU eviction of an active one.
    let sessions = SessionPolicy {
        max_sessions: 1,
        lru_evict_min_idle: Duration::from_secs(3600),
        ..SessionPolicy::default()
    };
    let topology = ClusterTopology::build(&ds.network, &ds.index, 2, 1, sessions.radius);
    let tile_of = |p: &CellularPoint| topology.route(p.effective_pos());
    // A's first trip: the leading tile-0 run of a test trajectory.
    let trip: Vec<CellularPoint> = ds
        .test
        .iter()
        .map(|r| -> Vec<CellularPoint> {
            r.cellular
                .points
                .iter()
                .copied()
                .take_while(|p| tile_of(p) == 0)
                .collect()
        })
        .max_by_key(|run| run.len())
        .expect("non-empty test split");
    assert!(trip.len() >= 2, "no trajectory starts with a tile-0 run");

    thread::scope(|s| {
        let serve = ServeCtx {
            ctx: ctx(&ds),
            registry: &registry,
            scope: None,
        };
        let config = ClusterConfig {
            shard: ServeConfig {
                sessions,
                ..Default::default()
            },
            ..Default::default()
        };
        let cluster = ClusterHandle::start(s, serve, &topology, config).expect("bind cluster");
        let mut client = ServeClient::connect(cluster.addr()).expect("connect");
        let (a, b) = (6001, 6002);
        let lag = (trip.len() + 2) as u32;
        let typed_or_ok = |r: Result<u32, ClientError>| match r {
            Ok(_) => true,
            Err(ClientError::Failed(MatchError::NoCandidates | MatchError::EmptyLayer { .. })) => {
                false
            }
            Err(e) => panic!("push failed: {e}"),
        };

        // A streams all but the last point of its trip on tile 0.
        let (last, head) = trip.split_last().expect("trip has points");
        client.open(a, lag).expect("open A");
        let accepted = head.iter().filter(|p| typed_or_ok(client.push(a, p))).count();
        assert!(accepted >= 1, "no push of A's trip was accepted");
        // Shard 0 dies with A on it; B takes the restarted shard's only
        // slot.
        assert!(cluster.kill_shard(0), "shard 0 was already down");
        client.open(b, lag).expect("open B");
        typed_or_ok(client.push(b, &trip[0]));
        // A's next push finds its session gone, and the replay onto tile 0
        // is shed: the journal is the session's only copy.
        match client.push(a, last) {
            Err(ClientError::Rejected(RejectReason::SessionLimit)) => {}
            other => panic!("expected the replay to be shed, got {other:?}"),
        }
        client.finish(b).expect("finish B");

        // Re-opening A's key finalizes its first trip on tile 0.
        client.open(a, lag).expect("reopen A");
        let reply = client.finish(a).expect("finish A's second trip");
        assert!(reply.segments.is_empty(), "A's second trip pushed nothing");

        let report = cluster.shutdown_and_drain();
        assert_eq!(
            report.merged.sessions_finalized, 2,
            "A's first trip and B's trip must both be finalized"
        );
        assert!(report.replays >= 1, "the reopen did not replay A's journal");
        assert_eq!(report.in_flight_lost(), 0);
    });
}

/// A frame with a retired handoff tag (0x06, once the snapshot request) is
/// malformed: the router ends that connection without a reply and keeps
/// serving everyone else.
#[test]
fn retired_handoff_frames_end_the_connection_at_the_router() {
    let ds = Dataset::generate(&DatasetConfig::tiny_test(504));
    let registry = ModelRegistry::new(cheap_model(&ds, 504), "v1");
    let topology = ClusterTopology::build(&ds.network, &ds.index, 2, 1, 3000.0);

    thread::scope(|s| {
        let cluster = ClusterHandle::start(
            s,
            ServeCtx {
                ctx: ctx(&ds),
                registry: &registry,
                scope: None,
            },
            &topology,
            ClusterConfig::default(),
        )
        .expect("bind cluster");

        let mut stream = TcpStream::connect(cluster.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        // len = 9 | tag 0x06 | client u64 = 7
        let mut frame = 9u32.to_le_bytes().to_vec();
        frame.push(0x06);
        frame.extend_from_slice(&7u64.to_le_bytes());
        stream.write_all(&frame).expect("write");
        let mut reply = Vec::new();
        match stream.read_to_end(&mut reply) {
            Ok(_) => assert!(reply.is_empty(), "router replied to a retired tag: {reply:?}"),
            Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
            Err(e) => panic!("connection did not end: {e}"),
        }

        let mut client = ServeClient::connect(cluster.addr()).expect("connect");
        assert_eq!(client.ping().expect("ping after a retired tag"), 0);
        // An opened-but-never-pushed session finishes with the empty route,
        // exactly like single-process serving.
        client.open(9, 4).expect("open");
        let reply = client.finish(9).expect("finish");
        assert!(reply.segments.is_empty());
        assert!(!reply.degraded);

        let report = cluster.shutdown_and_drain();
        assert_eq!(report.in_flight_lost(), 0);
    });
}
