//! Metamorphic properties of the matching pipeline: relations that must
//! hold between matches of *transformed* inputs, with no reference output
//! needed — observation-duplication invariance, streaming prefix
//! consistency, full-lag/offline equivalence, and noise-monotone shortcut
//! activation.

use lhmm::cellsim::faults::{inject, Fault};
use lhmm::cellsim::traj::CellularTrajectory;
use lhmm::core::candidates::{nearest_segments, to_candidates};
use lhmm::core::classic::{ClassicModel, ClassicObservation, ClassicTransition};
use lhmm::core::streaming::StreamingEngine;
use lhmm::core::types::{Candidate, MatchContext};
use lhmm::core::viterbi::{EngineConfig, HmmEngine};
use lhmm::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn ctx(ds: &Dataset) -> MatchContext<'_> {
    MatchContext {
        net: &ds.network,
        index: &ds.index,
        towers: &ds.towers,
    }
}

/// Duplicating every observation (same tower, position, timestamp — a
/// stuttering collector) must not materially change the matched route.
///
/// Exact path equality is *not* the relation: the Viterbi recursion
/// accumulates `P_T · P_O` terms additively, so a duplicated layer adds one
/// extra zero-length-transition term per chain and re-weights interior
/// candidates; the argmax may legitimately pick a parallel segment. What
/// duplication must never do is degrade the route: quality against ground
/// truth stays within a small band and the segment sets largely agree.
/// Shortcuts are disabled because layer counts feed their qualification
/// heuristic, which duplication intentionally perturbs.
#[test]
fn observation_duplication_preserves_route_quality() {
    let ds = Dataset::generate(&DatasetConfig::tiny_test(3101));
    let mut cfg = LhmmConfig::fast_test(3101);
    cfg.use_learned_obs = false; // classic scoring: duplication-deterministic
    cfg.use_learned_trans = false;
    cfg.shortcut_k = 0;
    let lhmm = Lhmm::train(&ds, cfg);
    let model = lhmm.model();
    let ctx = ctx(&ds);
    let mut rng = StdRng::seed_from_u64(0); // p = 1.0 draws are ignored
    for rec in ds.test.iter().take(4) {
        let doubled = inject(&rec.cellular, &Fault::Duplicate { p: 1.0 }, &mut rng);
        assert_eq!(doubled.len(), 2 * rec.cellular.len());
        let mut engine = HmmEngine::new(&ds.network, model.engine_config());
        let (orig, _) = model
            .try_match_with_engine_stats(&ctx, &rec.cellular, &mut engine)
            .expect("clean input");
        let (dup, _) = model
            .try_match_with_engine_stats(&ctx, &doubled, &mut engine)
            .expect("duplicated input");
        assert!(!dup.path.is_empty());
        let qo = evaluate_path(&ds.network, &orig.path, &rec.truth);
        let qd = evaluate_path(&ds.network, &dup.path, &rec.truth);
        assert!(
            (qd.recall - qo.recall).abs() <= 0.25,
            "duplication shifted recall: {} -> {}",
            qo.recall,
            qd.recall
        );
        let a = orig.path.segment_set();
        let b = dup.path.segment_set();
        let inter = a.intersection(&b).count() as f64;
        let union = a.union(&b).count() as f64;
        assert!(
            inter / union >= 0.5,
            "duplication rewrote the route: Jaccard {}",
            inter / union
        );
    }
}

/// The committed path only ever grows: every snapshot taken after a push is
/// a prefix of the final (flushed) path.
#[test]
fn streaming_commits_are_prefixes_of_the_final_path() {
    let ds = Dataset::generate(&DatasetConfig::tiny_test(3102));
    for (ri, rec) in ds.test.iter().take(3).enumerate() {
        let positions = rec.cellular.effective_positions();
        let mut model = ClassicModel::new(
            ClassicObservation::cellular(),
            ClassicTransition::cellular(),
            positions.clone(),
        );
        let mut stream = StreamingEngine::new(&ds.network, 3);
        let mut snapshots: Vec<Vec<SegmentId>> = Vec::new();
        for (i, p) in rec.cellular.points.iter().enumerate() {
            let pairs = nearest_segments(&ds.network, &ds.index, positions[i], 15, 3_000.0);
            if pairs.is_empty() {
                continue;
            }
            let layer = to_candidates(&mut model, i, &pairs);
            stream
                .push(positions[i], p.t, layer, &mut model)
                .expect("non-empty layer");
            snapshots.push(stream.committed().segments.clone());
        }
        let fin = stream.finalize();
        for (si, snap) in snapshots.iter().enumerate() {
            assert!(
                fin.segments.starts_with(snap),
                "rec {ri}: snapshot {si} is not a prefix of the final path"
            );
        }
    }
}

/// With a lag at least as long as the trajectory, nothing commits early, so
/// fixed-lag streaming is *exactly* offline Viterbi without shortcuts —
/// byte-identical segments, across multiple trajectories.
#[test]
fn full_lag_streaming_byte_matches_offline_matcher() {
    let ds = Dataset::generate(&DatasetConfig::tiny_test(3103));
    for rec in ds.test.iter().take(4) {
        let positions = rec.cellular.effective_positions();
        let mut model = ClassicModel::new(
            ClassicObservation::cellular(),
            ClassicTransition::cellular(),
            positions.clone(),
        );
        let mut kept: Vec<usize> = Vec::new();
        let mut layers: Vec<Vec<Candidate>> = Vec::new();
        for (i, &p) in positions.iter().enumerate() {
            let pairs = nearest_segments(&ds.network, &ds.index, p, 12, 3_000.0);
            if pairs.is_empty() {
                continue;
            }
            kept.push(i);
            layers.push(to_candidates(&mut model, i, &pairs));
        }
        if kept.is_empty() {
            continue;
        }
        let pts: Vec<(Point, f64)> = kept
            .iter()
            .map(|&i| (positions[i], rec.cellular.points[i].t))
            .collect();
        let mut engine = HmmEngine::new(
            &ds.network,
            EngineConfig {
                shortcuts: 0,
                ..Default::default()
            },
        );
        let offline = engine
            .try_find_path(&ds.network, &pts, layers.clone(), &mut model)
            .expect("valid layers");

        let mut stream = StreamingEngine::new(&ds.network, pts.len() + 1);
        for (&(pos, t), layer) in pts.iter().zip(layers) {
            stream
                .push(pos, t, layer, &mut model)
                .expect("non-empty layer");
        }
        assert_eq!(stream.finalize().segments, offline.path.segments);
    }
}

/// More off-road noise must never *reduce* how often Algorithm 2 fires: the
/// total shortcut activations over a test set are monotone between a clean
/// corpus and a heavily teleported one.
#[test]
fn shortcut_activation_is_monotone_in_injected_noise() {
    let ds = Dataset::generate(&DatasetConfig::tiny_test(3104));
    let mut cfg = LhmmConfig::fast_test(3104);
    cfg.use_learned_obs = false; // activation is an engine property
    cfg.use_learned_trans = false;
    let lhmm = Lhmm::train(&ds, cfg);
    let model = lhmm.model();
    let ctx = ctx(&ds);

    let total_activations = |noise: Option<f64>| -> u64 {
        let mut engine = HmmEngine::new(&ds.network, model.engine_config());
        let mut rng = StdRng::seed_from_u64(77);
        let mut total = 0;
        for rec in ds.test.iter().take(6) {
            let traj: CellularTrajectory = match noise {
                None => rec.cellular.clone(),
                Some(p) => inject(
                    &rec.cellular,
                    &Fault::Teleport {
                        p,
                        distance: 1_500.0,
                    },
                    &mut rng,
                ),
            };
            if let Ok((_, stats)) = model.try_match_with_engine_stats(&ctx, &traj, &mut engine) {
                total += stats.shortcut_activations;
            }
        }
        total
    };

    let clean = total_activations(None);
    let noisy = total_activations(Some(0.7));
    assert!(
        noisy >= clean,
        "teleport noise reduced shortcut activations: clean {clean}, noisy {noisy}"
    );
    // And the noisy corpus must actually trigger the mechanism, otherwise
    // this test pins nothing.
    assert!(noisy > 0, "no shortcut ever activated under heavy noise");
}
