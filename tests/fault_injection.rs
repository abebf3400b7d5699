//! Adversarial fault-injection sweep: every corpus input must come back as
//! `Ok` or a typed [`MatchError`] — never a panic — across the serial,
//! parallel and streaming matching modes, and the corpus itself must be
//! byte-reproducible from its seed.

use lhmm::cellsim::faults::{AdversarialCorpus, Fault, FaultPlan};
use lhmm::cellsim::tower::{CellTower, TowerField, TowerId};
use lhmm::cellsim::traj::CellularTrajectory;
use lhmm::core::candidates::{nearest_segments, to_candidates};
use lhmm::core::classic::{ClassicModel, ClassicObservation, ClassicTransition};
use lhmm::core::error::MatchError;
use lhmm::core::streaming::StreamingEngine;
use lhmm::core::types::MatchContext;
use lhmm::core::viterbi::HmmEngine;
use lhmm::network::builder::NetworkBuilder;
use lhmm::network::graph::RoadClass;
use lhmm::network::spatial::SpatialIndex;
use lhmm::prelude::*;

const CORPUS_SEED: u64 = 0xFA57;

fn base_trajs(ds: &Dataset, n: usize) -> Vec<CellularTrajectory> {
    ds.test.iter().take(n).map(|r| r.cellular.clone()).collect()
}

#[test]
fn corpus_is_byte_reproducible_from_its_seed() {
    let ds = Dataset::generate(&DatasetConfig::tiny_test(3001));
    let base = base_trajs(&ds, 3);
    let a = AdversarialCorpus::generate(&base, CORPUS_SEED);
    let b = AdversarialCorpus::generate(&base, CORPUS_SEED);
    assert_eq!(
        a.fingerprint(),
        b.fingerprint(),
        "same seed must reproduce the corpus byte for byte"
    );
    let c = AdversarialCorpus::generate(&base, CORPUS_SEED + 1);
    assert_ne!(a.fingerprint(), c.fingerprint());
    // Case-level reproducibility too, not just the rollup hash.
    for (ca, cb) in a.cases.iter().zip(&b.cases) {
        assert_eq!(ca.plan, cb.plan);
        assert_eq!(ca.traj.len(), cb.traj.len());
    }
}

/// Serial offline matching over the full corpus with the learned scorers.
/// Every case must return `Ok` or a typed error; `Ok` results must be
/// well-formed (valid segments, candidate sets aligned to the input).
#[test]
fn offline_matcher_survives_corpus_with_learned_scoring() {
    let ds = Dataset::generate(&DatasetConfig::tiny_test(3002));
    let base = base_trajs(&ds, 2);
    let corpus = AdversarialCorpus::generate(&base, CORPUS_SEED);
    let ctx = MatchContext {
        net: &ds.network,
        index: &ds.index,
        towers: &ds.towers,
    };
    // Learned observation *and* transition models, so both learned
    // scorers run on every case.
    let lhmm = Lhmm::train(&ds, LhmmConfig::fast_test(3002));
    let model = lhmm.model();
    let mut engine = HmmEngine::new(&ds.network, model.engine_config());
    for case in &corpus.cases {
        let verdict = model.try_match_with_engine_stats(&ctx, &case.traj, &mut engine);
        match verdict {
            Ok((result, stats)) => {
                for &seg in &result.path.segments {
                    assert!(
                        seg.idx() < ds.network.num_segments(),
                        "plan {}: invalid segment",
                        case.plan
                    );
                }
                let sets = result.candidate_sets.expect("LHMM exposes candidate sets");
                assert_eq!(sets.len(), case.traj.len(), "plan {}", case.plan);
                // Degradation accounting must cover every dropped point.
                let kept = sets.iter().filter(|s| !s.is_empty()).count();
                assert!(
                    stats.degradation.dropped_points as usize + kept >= case.traj.len(),
                    "plan {}: drops unaccounted",
                    case.plan
                );
            }
            Err(MatchError::EmptyTrajectory) => {
                assert_eq!(case.traj.len(), 0, "plan {}", case.plan);
            }
            Err(MatchError::NoCandidates) => {
                assert!(!case.traj.is_empty(), "plan {}", case.plan);
            }
            Err(e) => panic!("plan {}: unexpected error {e}", case.plan),
        }
    }
}

/// The expected verdicts for the two extreme plans are pinned: an emptied
/// trajectory is `EmptyTrajectory`, a trajectory teleported 5000 km off the
/// map has no candidates anywhere.
#[test]
fn degenerate_plans_map_to_their_typed_errors() {
    let ds = Dataset::generate(&DatasetConfig::tiny_test(3003));
    let base = base_trajs(&ds, 1);
    let corpus = AdversarialCorpus::generate(&base, CORPUS_SEED);
    let ctx = MatchContext {
        net: &ds.network,
        index: &ds.index,
        towers: &ds.towers,
    };
    let mut cfg = LhmmConfig::fast_test(3003);
    cfg.use_learned_obs = false; // verdicts don't depend on learned scoring
    cfg.use_learned_trans = false;
    let lhmm = Lhmm::train(&ds, cfg);
    let model = lhmm.model();
    let mut engine = HmmEngine::new(&ds.network, model.engine_config());
    for case in &corpus.cases {
        let verdict = model.try_match_with_engine_stats(&ctx, &case.traj, &mut engine);
        match case.plan.as_str() {
            "empty" => assert!(
                matches!(verdict, Err(MatchError::EmptyTrajectory)),
                "empty plan must be EmptyTrajectory"
            ),
            "teleport-off-map" => assert!(
                matches!(verdict, Err(MatchError::NoCandidates)),
                "off-map plan must be NoCandidates"
            ),
            "clean" => assert!(verdict.is_ok(), "clean control must match"),
            _ => {}
        }
    }
    // A refused input leaves the warm engine as it was: the empty
    // trajectory is still `EmptyTrajectory` after the whole corpus, and the
    // clean control then matches to the same route it got in the loop.
    // (Counting a failure as `failed_matches = 1` is the batch worker's
    // policy, pinned by `parallel_batch_survives_corpus_with_deterministic_verdicts`.)
    let clean = corpus
        .cases
        .iter()
        .find(|c| c.plan == "clean")
        .expect("corpus has a clean control");
    let before = model
        .try_match_with_engine_stats(&ctx, &clean.traj, &mut engine)
        .expect("clean control matches")
        .0;
    assert_eq!(
        model
            .try_match_with_engine_stats(&ctx, &CellularTrajectory::default(), &mut engine)
            .err(),
        Some(MatchError::EmptyTrajectory)
    );
    let after = model
        .try_match_with_engine_stats(&ctx, &clean.traj, &mut engine)
        .expect("clean control matches after a refused input")
        .0;
    assert_eq!(after.path.segments, before.path.segments);
}

/// Parallel batch matching over the corpus: no panics, verdicts identical
/// across worker counts, degraded-trajectory accounting consistent.
#[test]
fn parallel_batch_survives_corpus_with_deterministic_verdicts() {
    let ds = Dataset::generate(&DatasetConfig::tiny_test(3004));
    let base = base_trajs(&ds, 2);
    let corpus = AdversarialCorpus::generate(&base, CORPUS_SEED);
    let trajs: Vec<CellularTrajectory> = corpus.cases.iter().map(|c| c.traj.clone()).collect();
    let ctx = MatchContext {
        net: &ds.network,
        index: &ds.index,
        towers: &ds.towers,
    };
    let mut cfg = LhmmConfig::fast_test(3004);
    cfg.use_learned_obs = false; // cheap training; engine paths identical
    cfg.use_learned_trans = false;
    let model = LhmmModel::train(&ds, cfg);

    let (serial, _) = BatchMatcher::new(&model, BatchConfig::with_workers(1))
        .try_match_batch(&ctx, &trajs);
    let (parallel, stats) = BatchMatcher::new(&model, BatchConfig::with_workers(3))
        .try_match_batch(&ctx, &trajs);
    assert_eq!(serial.len(), trajs.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        match (s, p) {
            (Ok(a), Ok(b)) => assert_eq!(
                a.path.segments, b.path.segments,
                "case {i} ({}) differs across worker counts",
                corpus.cases[i].plan
            ),
            (Err(a), Err(b)) => assert_eq!(a, b, "case {i}"),
            _ => panic!("case {i}: verdict depends on worker count"),
        }
    }
    // Worker accounting: every failed case is visible as a degraded one.
    let failures = parallel.iter().filter(|r| r.is_err()).count();
    let degraded: usize = stats.per_worker.iter().map(|w| w.degraded).sum();
    assert!(degraded >= failures, "degraded {degraded} < failures {failures}");
    assert_eq!(
        stats.total().degradation.failed_matches as usize,
        failures
    );
}

/// Streaming over the corpus: empty candidate layers are skipped via the
/// typed error, every other observation streams through, and `finalize`
/// always returns (possibly empty) without panicking.
#[test]
fn streaming_engine_survives_corpus() {
    let ds = Dataset::generate(&DatasetConfig::tiny_test(3005));
    let base = base_trajs(&ds, 2);
    let corpus = AdversarialCorpus::generate(&base, CORPUS_SEED);
    for (ci, case) in corpus.cases.iter().enumerate() {
        let positions = case.traj.effective_positions();
        let mut model = ClassicModel::new(
            ClassicObservation::cellular(),
            ClassicTransition::cellular(),
            positions.clone(),
        );
        let mut stream = StreamingEngine::new(&ds.network, 2);
        let mut pushed = 0usize;
        for (i, p) in case.traj.points.iter().enumerate() {
            let pairs = nearest_segments(&ds.network, &ds.index, positions[i], 10, 3_000.0);
            let layer = to_candidates(&mut model, i, &pairs);
            match stream.push(positions[i], p.t, layer, &mut model) {
                Ok(_) => pushed += 1,
                Err(MatchError::EmptyLayer { .. }) => {} // off-network point: skip
                Err(e) => panic!("case {ci} ({}): unexpected error {e}", case.plan),
            }
        }
        let deg = stream.degradation();
        let path = stream.finalize();
        if pushed > 0 {
            assert!(!path.is_empty(), "case {ci} ({})", case.plan);
        } else {
            assert!(path.is_empty());
            assert!(!deg.any(), "no observations, no degradation events");
        }
    }
}

/// The contraction-hierarchy shortest-path backend must be a drop-in
/// replacement under fault injection: over the full seeded corpus, the
/// serial, parallel-batch, and streaming engines all run panic-free with
/// `SpBackend::Ch` and return verdicts byte-identical to the Dijkstra
/// oracle — paths, candidate sets, and typed errors alike.
#[test]
fn corpus_verdicts_are_identical_under_both_sp_backends() {
    let ds = Dataset::generate(&DatasetConfig::tiny_test(3007));
    let base = base_trajs(&ds, 2);
    let corpus = AdversarialCorpus::generate(&base, CORPUS_SEED);
    let trajs: Vec<CellularTrajectory> = corpus.cases.iter().map(|c| c.traj.clone()).collect();
    let ctx = MatchContext {
        net: &ds.network,
        index: &ds.index,
        towers: &ds.towers,
    };
    let mut cfg = LhmmConfig::fast_test(3007);
    cfg.use_learned_obs = false; // cheap training; engine paths identical
    cfg.use_learned_trans = false;

    // One corpus sweep through the serial and batch engines: verdicts
    // flattened to comparable bytes.
    let sweep = |backend: SpBackend| {
        let mut cfg = cfg.clone();
        cfg.sp_backend = backend;
        let model = LhmmModel::train(&ds, cfg);
        let expected_shortcuts = model.sp_handle().shortcut_count();
        let mut engine = HmmEngine::new(&ds.network, model.engine_config());
        let mut serial = Vec::new();
        for traj in &trajs {
            match model.try_match_with_engine_stats(&ctx, traj, &mut engine) {
                Ok((r, stats)) => {
                    assert_eq!(stats.sp_shortcuts, expected_shortcuts);
                    serial.push(Ok((r.path.segments, r.candidate_sets)));
                }
                Err(e) => serial.push(Err(e)),
            }
        }
        let (batch, _) = BatchMatcher::new(&model, BatchConfig::with_workers(3))
            .try_match_batch(&ctx, &trajs);
        let batch: Vec<_> = batch
            .into_iter()
            .map(|v| v.map(|r| (r.path.segments, r.candidate_sets)))
            .collect();
        (serial, batch, expected_shortcuts)
    };

    let (dij_serial, dij_batch, dij_shortcuts) = sweep(SpBackend::Dijkstra);
    let (ch_serial, ch_batch, ch_shortcuts) = sweep(SpBackend::Ch);
    assert_eq!(dij_shortcuts, 0, "Dijkstra has no preprocessing artifacts");
    assert!(ch_shortcuts > 0, "CH on a real city must add shortcuts");
    for (i, (d, c)) in dij_serial.iter().zip(&ch_serial).enumerate() {
        assert_eq!(d, c, "serial case {i} ({})", corpus.cases[i].plan);
    }
    for (i, (d, c)) in dij_batch.iter().zip(&ch_batch).enumerate() {
        assert_eq!(d, c, "batch case {i} ({})", corpus.cases[i].plan);
    }
    assert_eq!(dij_serial, dij_batch, "serial and batch must agree");

    // Streaming: same committed path under both backends, case by case.
    let ch = SpHandle::build(&ds.network, SpBackend::Ch);
    for (ci, case) in corpus.cases.iter().enumerate() {
        let positions = case.traj.effective_positions();
        let mut paths = Vec::new();
        for handle in [SpHandle::default(), ch.clone()] {
            let mut model = ClassicModel::new(
                ClassicObservation::cellular(),
                ClassicTransition::cellular(),
                positions.clone(),
            );
            let mut stream = StreamingEngine::with_backend(&ds.network, 2, &handle);
            for (i, p) in case.traj.points.iter().enumerate() {
                let pairs = nearest_segments(&ds.network, &ds.index, positions[i], 10, 3_000.0);
                let layer = to_candidates(&mut model, i, &pairs);
                match stream.push(positions[i], p.t, layer, &mut model) {
                    Ok(_) | Err(MatchError::EmptyLayer { .. }) => {}
                    Err(e) => panic!("case {ci} ({}): unexpected error {e}", case.plan),
                }
            }
            paths.push(stream.finalize().segments);
        }
        assert_eq!(
            paths[0], paths[1],
            "case {ci} ({}): streaming path depends on SP backend",
            case.plan
        );
    }
}

/// Satellite: an empty road network is a construction-time error (the
/// matcher never sees one), and a *disconnected* network degrades to a
/// glued route with the gap counted — not a panic, not an empty result.
#[test]
fn disconnected_network_glues_route_and_counts_the_gap() {
    // Two line components 100 km apart with no connecting segment.
    let mut b = NetworkBuilder::new();
    let a0 = b.add_node(Point::new(0.0, 0.0));
    let a1 = b.add_node(Point::new(500.0, 0.0));
    let a2 = b.add_node(Point::new(1_000.0, 0.0));
    let c0 = b.add_node(Point::new(100_000.0, 0.0));
    let c1 = b.add_node(Point::new(100_500.0, 0.0));
    b.add_two_way(a0, a1, RoadClass::Local).expect("edge");
    b.add_two_way(a1, a2, RoadClass::Local).expect("edge");
    b.add_two_way(c0, c1, RoadClass::Local).expect("edge");
    let net = b.build().expect("valid two-component network");
    let index = SpatialIndex::build(&net, 500.0);

    let positions = [Point::new(250.0, 10.0), Point::new(100_250.0, 10.0)];
    let mut model = ClassicModel::new(
        ClassicObservation::cellular(),
        ClassicTransition::cellular(),
        positions.to_vec(),
    );
    let layers: Vec<_> = positions
        .iter()
        .enumerate()
        .map(|(i, &p)| to_candidates(&mut model, i, &nearest_segments(&net, &index, p, 4, 2_000.0)))
        .collect();
    let pts: Vec<(Point, f64)> = positions
        .iter()
        .enumerate()
        .map(|(i, &p)| (p, i as f64 * 60.0))
        .collect();
    let mut engine = HmmEngine::new(&net, Default::default());
    let out = engine
        .try_find_path(&net, &pts, layers, &mut model)
        .expect("disconnection degrades, not fails");
    assert!(!out.path.is_empty());
    assert!(!out.path.is_contiguous(&net), "gap must remain visible");
    let deg = engine.take_degradation();
    assert!(deg.disconnected_joins >= 1, "{deg:?}");

    // An empty network cannot be constructed at all.
    assert!(NetworkBuilder::new().build().is_err());
}

/// Satellite: a fault plan composed only of deterministic injectors is
/// seed-independent, while seeded plans replay exactly per (seed, case).
#[test]
fn fault_plan_streams_are_deterministic_per_seed_and_case() {
    let ds = Dataset::generate(&DatasetConfig::tiny_test(3006));
    let traj = &ds.test[0].cellular;
    let plan = FaultPlan::new(
        "mix",
        vec![
            Fault::Drop { p: 0.4 },
            Fault::Teleport {
                p: 0.3,
                distance: 2_500.0,
            },
        ],
    );
    let a = plan.apply(traj, 9, 0);
    let b = plan.apply(traj, 9, 0);
    let bits = |t: &CellularTrajectory| {
        t.points
            .iter()
            .map(|p| (p.pos.x.to_bits(), p.pos.y.to_bits(), p.t.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(&a), bits(&b));
    // Different case index => different stream.
    let c = plan.apply(traj, 9, 1);
    assert_ne!(bits(&a), bits(&c));

    let truncate = FaultPlan::new("cut", vec![Fault::Truncate { keep: 1 }]);
    assert_eq!(truncate.apply(traj, 1, 0).len(), 1);
    assert_eq!(truncate.apply(traj, 2, 0).len(), 1);

    // Degenerate inputs are safe for every injector.
    let empty = CellularTrajectory::default();
    for f in [
        Fault::Drop { p: 0.5 },
        Fault::Duplicate { p: 0.5 },
        Fault::SwapAdjacent { p: 0.5 },
        Fault::PingPong { p: 0.5 },
        Fault::Teleport {
            p: 0.5,
            distance: 100.0,
        },
        Fault::Truncate { keep: 3 },
        Fault::EqualTimestamps { p: 0.5 },
        Fault::NonMonotoneTimestamps { p: 0.5 },
        Fault::FarFutureTimestamps {
            p: 0.5,
            offset_s: 1e9,
        },
    ] {
        let out = FaultPlan::new("one", vec![f]).apply(&empty, 0, 0);
        assert!(out.is_empty());
    }

    // TowerField sanity used by the corpus cases: towers referenced by the
    // simulator exist. (Guards the corpus against dangling tower ids.)
    let field = TowerField::new(
        vec![CellTower {
            id: TowerId(0),
            pos: Point::new(0.0, 0.0),
            azimuth: 0.0,
            gain_db: 0.0,
            power_db: 0.0,
        }],
        1_000.0,
    );
    assert_eq!(field.len(), 1);
    for case in AdversarialCorpus::generate(std::slice::from_ref(traj), 5).cases {
        for p in &case.traj.points {
            assert!(p.tower.idx() < ds.towers.len(), "plan {}", case.plan);
        }
    }
}
