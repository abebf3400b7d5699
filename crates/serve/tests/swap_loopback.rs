//! Hot-swap-under-load loopback tests — the ISSUE 9 acceptance criteria,
//! over real TCP against both a single-process server and a 4-shard
//! cluster:
//!
//! * **Version pinning**: one-shots admitted before a swap reproduce the
//!   old model's offline verdicts byte-for-byte, one-shots admitted after
//!   reproduce the new model's; streaming sessions opened pre-swap finish
//!   on their admitted version (their completions land in the old
//!   version's report lane, never the new one's) and their final routes
//!   equal the offline full-lag reference.
//! * **Lose-nothing**: `in_flight_lost() == 0` with a swap mid-run.
//! * **No shadow leakage**: with a divergent candidate mirroring every
//!   one-shot, responses still equal the active version's offline
//!   verdicts; divergence shows up only in the shadow telemetry, and the
//!   divergence count equals the offline disagreement count exactly.

use lhmm_cellsim::dataset::{Dataset, DatasetConfig};
use lhmm_cellsim::traj::CellularTrajectory;
use lhmm_core::candidates::{nearest_segments, to_candidates};
use lhmm_core::classic::{ClassicModel, ClassicObservation, ClassicTransition};
use lhmm_core::error::MatchError;
use lhmm_core::lhmm::{LhmmConfig, LhmmModel};
use lhmm_core::registry::{ModelRegistry, ModelVersion};
use lhmm_core::types::{Candidate, MatchContext};
use lhmm_core::viterbi::{EngineConfig, HmmEngine};
use lhmm_geo::Point;
use lhmm_network::graph::SegmentId;
use lhmm_serve::{
    ClientError, ClusterConfig, ClusterHandle, ClusterTopology, ServeClient, ServeConfig,
    ServeCtx, ServerHandle, SessionPolicy,
};
use std::thread;

fn cheap_model(ds: &Dataset, seed: u64) -> LhmmModel {
    let mut cfg = LhmmConfig::fast_test(seed);
    cfg.use_learned_obs = false;
    cfg.use_learned_trans = false;
    LhmmModel::train(ds, cfg)
}

/// A structurally different candidate version: same classic scoring, a
/// narrower candidate budget, so its verdicts genuinely diverge from the
/// incumbent's on some trajectories.
fn narrow_model(ds: &Dataset, seed: u64) -> LhmmModel {
    let mut cfg = LhmmConfig::fast_test(seed);
    cfg.use_learned_obs = false;
    cfg.use_learned_trans = false;
    cfg.k = 3;
    LhmmModel::train(ds, cfg)
}

fn ctx(ds: &Dataset) -> MatchContext<'_> {
    MatchContext {
        net: &ds.network,
        index: &ds.index,
        towers: &ds.towers,
    }
}

type OfflineVerdict = Result<Vec<SegmentId>, MatchError>;

fn offline_verdicts(
    ds: &Dataset,
    model: &LhmmModel,
    trajs: &[CellularTrajectory],
) -> Vec<OfflineVerdict> {
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

/// The offline full-lag reference for a streaming session (same compacted
/// candidate preparation as the session manager; see `loopback.rs`).
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

/// Serves every trajectory as a one-shot and asserts byte-identity with
/// the given offline verdicts.
fn assert_oneshots_match(
    client: &mut ServeClient,
    trajs: &[CellularTrajectory],
    want: &[OfflineVerdict],
    tag: &str,
) {
    for (i, traj) in trajs.iter().enumerate() {
        match (client.one_shot(traj), &want[i]) {
            (Ok(reply), Ok(expected)) => {
                assert_eq!(&reply.segments, expected, "{tag}: traj {i} route diverged");
            }
            (Err(ClientError::Failed(got)), Err(expected)) => {
                assert_eq!(&got, expected, "{tag}: traj {i} error diverged");
            }
            (got, expected) => {
                panic!("{tag}: traj {i} verdict class diverged: {got:?} vs {expected:?}");
            }
        }
    }
}

/// Pushes `points` into an open streaming session, tolerating the typed
/// per-point degradations a live feed survives.
fn push_all(
    client: &mut ServeClient,
    session: u64,
    points: &[lhmm_cellsim::traj::CellularPoint],
) {
    for p in points {
        match client.push(session, p) {
            Ok(_) => {}
            Err(ClientError::Failed(
                MatchError::NoCandidates | MatchError::EmptyLayer { .. },
            )) => {}
            Err(e) => panic!("session {session}: push failed: {e}"),
        }
    }
}

/// Offline shadow-divergence rule, mirroring the scheduler's: verdict
/// classes disagree, or both route but to different segments.
fn diverges(a: &OfflineVerdict, b: &OfflineVerdict) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => x != y,
        (Err(_), Err(_)) => false,
        _ => true,
    }
}

#[test]
fn swap_under_load_pins_versions_and_loses_nothing() {
    let ds = Dataset::generate(&DatasetConfig::tiny_test(601));
    let v1 = cheap_model(&ds, 601);
    let v2 = narrow_model(&ds, 601);
    let trajs: Vec<CellularTrajectory> = ds.test.iter().map(|r| r.cellular.clone()).collect();
    let want_v1 = offline_verdicts(&ds, &v1, &trajs);
    let want_v2 = offline_verdicts(&ds, &v2, &trajs);
    assert!(
        want_v1.iter().zip(&want_v2).any(|(a, b)| diverges(a, b)),
        "candidate model must produce divergent verdicts for this test to bite"
    );

    let sessions = SessionPolicy::default();
    let (k, radius) = (sessions.k, sessions.radius);
    let stream_trajs: Vec<&CellularTrajectory> =
        ds.test.iter().take(2).map(|r| &r.cellular).collect();

    let registry = ModelRegistry::new(v1, "v1");
    let v2_version = registry.register(v2, "v2-narrow", Some(ModelVersion(1)));

    let report = thread::scope(|s| {
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
        let mut client = ServeClient::connect(addr).expect("connect");

        // Streaming sessions admitted on v1 (full lag), half their points in.
        for (i, traj) in stream_trajs.iter().enumerate() {
            let session = 6000 + i as u64;
            client
                .open(session, (traj.points.len() + 1) as u32)
                .expect("open session");
            push_all(&mut client, session, &traj.points[..traj.points.len() / 2]);
        }

        assert_oneshots_match(&mut client, &trajs, &want_v1, "pre-swap");

        // The hot swap. In-flight state above must be unaffected.
        let models = client.swap(v2_version.0).expect("swap");
        assert_eq!(models.active, v2_version.0);
        assert_eq!(models.previous, 1);

        assert_oneshots_match(&mut client, &trajs, &want_v2, "post-swap");

        // Pre-swap sessions stream to completion on their admitted pin and
        // still equal the offline full-lag reference byte-for-byte.
        for (i, traj) in stream_trajs.iter().enumerate() {
            let session = 6000 + i as u64;
            push_all(&mut client, session, &traj.points[traj.points.len() / 2..]);
            let reply = client.finish(session).expect("finish");
            let want = offline_streaming_reference(&ds, traj, k, radius);
            assert_eq!(
                reply.segments, want,
                "session {session}: route diverged after mid-stream swap"
            );
        }

        server.shutdown_and_drain()
    });

    assert_eq!(report.in_flight_lost(), 0, "swap lost admitted work");
    assert_eq!(report.model_swaps, 1);
    assert_eq!(report.total_rejected(), 0);
    // The version lanes prove the pinning: pre-swap one-shots + both
    // streaming finishes on v1, post-swap one-shots on v2, nothing mixed.
    let v1_lane = &report.versions.lanes[&1];
    let v2_lane = &report.versions.lanes[&v2_version.0];
    assert_eq!(v1_lane.served, (trajs.len() + stream_trajs.len()) as u64);
    assert_eq!(v2_lane.served, trajs.len() as u64);
}

#[test]
fn shadow_mirrors_diverge_in_telemetry_but_never_leak_over_the_wire() {
    let ds = Dataset::generate(&DatasetConfig::tiny_test(602));
    let v1 = cheap_model(&ds, 602);
    let v2 = narrow_model(&ds, 602);
    let trajs: Vec<CellularTrajectory> = ds.test.iter().map(|r| r.cellular.clone()).collect();
    let want_v1 = offline_verdicts(&ds, &v1, &trajs);
    let want_v2 = offline_verdicts(&ds, &v2, &trajs);
    let expected_div = want_v1
        .iter()
        .zip(&want_v2)
        .filter(|(a, b)| diverges(a, b))
        .count() as u64;
    assert!(expected_div > 0, "candidate must diverge somewhere");

    let registry = ModelRegistry::new(v1, "v1");
    let v2_version = registry.register(v2, "v2-narrow", Some(ModelVersion(1)));

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
        let mut client = ServeClient::connect(server.addr()).expect("connect");

        // Mirror EVERY one-shot through the candidate.
        let models = client.set_shadow(v2_version.0, 1).expect("set shadow");
        assert_eq!(models.shadow, v2_version.0);
        assert_eq!(models.mirror_every, 1);

        // Responses are the active version's, bit-exactly — the candidate
        // never leaks into a reply.
        assert_oneshots_match(&mut client, &trajs, &want_v1, "shadowed");

        server.shutdown_and_drain()
    });

    assert_eq!(report.in_flight_lost(), 0);
    assert_eq!(report.shadow_served, trajs.len() as u64);
    assert_eq!(
        report.shadow_divergences, expected_div,
        "shadow divergence count must equal the offline disagreement count"
    );
    let lane = &report.versions.lanes[&v2_version.0];
    assert_eq!(lane.shadow_served, trajs.len() as u64);
    assert_eq!(lane.shadow_divergences, expected_div);
}

#[test]
fn cluster_swap_is_atomic_and_sessions_never_mix_versions() {
    let ds = Dataset::generate(&DatasetConfig::tiny_test(603));
    let v1 = cheap_model(&ds, 603);
    let v2 = narrow_model(&ds, 603);
    let trajs: Vec<CellularTrajectory> = ds.test.iter().map(|r| r.cellular.clone()).collect();
    let want_v1 = offline_verdicts(&ds, &v1, &trajs);
    let want_v2 = offline_verdicts(&ds, &v2, &trajs);
    assert!(
        want_v1.iter().zip(&want_v2).any(|(a, b)| diverges(a, b)),
        "candidate model must produce divergent verdicts for this test to bite"
    );

    let sessions = SessionPolicy::default();
    let (k, radius) = (sessions.k, sessions.radius);
    let topology = ClusterTopology::build(&ds.network, &ds.index, 2, 2, radius);
    assert_eq!(topology.num_tiles(), 4);
    let stream_trajs: Vec<&CellularTrajectory> =
        ds.test.iter().take(3).map(|r| &r.cellular).collect();
    // The streams must cross tile boundaries so the replays below land on
    // other shards than the killed homes, not just on restarted ones.
    let crossings: usize = stream_trajs
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

    let registry = ModelRegistry::new(v1, "v1");
    let v2_version = registry.register(v2, "v2-narrow", Some(ModelVersion(1)));

    let report = thread::scope(|s| {
        let cluster = ClusterHandle::start(
            s,
            ServeCtx {
                ctx: ctx(&ds),
                registry: &registry,
                scope: None,
            },
            &topology,
            ClusterConfig {
                shard: ServeConfig {
                    sessions: sessions.clone(),
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .expect("bind cluster");
        let addr = cluster.addr();
        let mut client = ServeClient::connect(addr).expect("connect");

        let mut homes = Vec::new();
        for (i, traj) in stream_trajs.iter().enumerate() {
            let session = 7000 + i as u64;
            client
                .open(session, (traj.points.len() + 1) as u32)
                .expect("open session");
            push_all(&mut client, session, &traj.points[..traj.points.len() / 2]);
            // The shard-side session opens on the first push's tile.
            homes.push(topology.route(traj.points[0].effective_pos()));
        }

        assert_oneshots_match(&mut client, &trajs, &want_v1, "cluster pre-swap");

        // One Swap request against the router promotes the shared registry:
        // every shard sees the new active version at its next admission.
        let models = client.swap(v2_version.0).expect("swap");
        assert_eq!(models.active, v2_version.0);

        assert_oneshots_match(&mut client, &trajs, &want_v2, "cluster post-swap");

        // Kill every stream's home shard: each second half then replays
        // the journal onto a fresh shard under the pre-swap pin.
        homes.sort_unstable();
        homes.dedup();
        for &tile in &homes {
            cluster.kill_shard(tile);
        }

        // Pre-swap sessions finish on their admitted pin — including every
        // one rebuilt by replay after the swap.
        for (i, traj) in stream_trajs.iter().enumerate() {
            let session = 7000 + i as u64;
            push_all(&mut client, session, &traj.points[traj.points.len() / 2..]);
            let reply = client.finish(session).expect("finish");
            let want = offline_streaming_reference(&ds, traj, k, radius);
            assert_eq!(
                reply.segments, want,
                "session {session}: cluster route diverged after mid-stream swap"
            );
        }

        cluster.shutdown_and_drain()
    });

    assert_eq!(report.in_flight_lost(), 0, "cluster swap lost admitted work");
    assert_eq!(report.merged.model_swaps, 1);
    assert!(report.replays > 0, "no replays — the post-swap pin was not exercised");
    // Lanes across all 4 shards: every pre-swap admission (one-shots and
    // all three streaming finishes) on v1, every post-swap one-shot on v2.
    // A single session served by mixed versions would move a finish into
    // the v2 lane and break both equalities.
    let v1_lane = &report.merged.versions.lanes[&1];
    let v2_lane = &report.merged.versions.lanes[&v2_version.0];
    assert_eq!(v1_lane.served, (trajs.len() + stream_trajs.len()) as u64);
    assert_eq!(v2_lane.served, trajs.len() as u64);
}
