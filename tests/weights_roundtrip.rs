//! Weight persistence round-trip: a model rebuilt from exported bytes must
//! score **bit-identically** to the model that produced them.
//!
//! Matching-level equivalence (same routes) already lives in `lhmm-core`'s
//! unit tests; this suite pins the stronger property the vectorized scoring
//! path relies on — `save_weights`/`load_weights` preserve every `f32`
//! exactly, so `P_O` and `P_T` evaluations through the per-trajectory
//! scorers produce the same bit patterns before and after persistence.

use lhmm::prelude::*;
use lhmm_core::transition::TrajTransScorer;
use lhmm_neural::Scratch;

#[test]
fn reloaded_weights_score_bit_identically() {
    let ds = Dataset::generate(&DatasetConfig::tiny_test(181));
    let trained = LhmmModel::train(&ds, LhmmConfig::fast_test(181));
    let bytes = trained.save_weights();
    let loaded =
        LhmmModel::load_weights(&ds, LhmmConfig::fast_test(181), &bytes).expect("load weights");

    let rec = ds
        .test
        .iter()
        .max_by_key(|r| r.cellular.len())
        .expect("non-empty test split");
    let towers = rec.cellular.towers();

    // ---------------- P_O ----------------
    let mut scored_points = 0usize;
    {
        let obs_a = trained.observation_learner().expect("trained P_O");
        let obs_b = loaded.observation_learner().expect("loaded P_O");
        let mut sa = obs_a.traj_scorer(trained.embeddings(), &towers, Scratch::new());
        let mut sb = obs_b.traj_scorer(loaded.embeddings(), &towers, Scratch::new());
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        for (i, p) in rec.cellular.points.iter().enumerate() {
            let pos = p.effective_pos();
            let segs: Vec<SegmentId> = ds
                .index
                .k_nearest(&ds.network, pos, 8, 3_000.0)
                .into_iter()
                .map(|(s, _)| s)
                .collect();
            if segs.is_empty() {
                continue;
            }
            sa.score_into(&ds.network, trained.graph(), pos, p.tower, i, &segs, &mut out_a);
            sb.score_into(&ds.network, loaded.graph(), pos, p.tower, i, &segs, &mut out_b);
            assert_eq!(out_a.len(), out_b.len());
            for (a, b) in out_a.iter().zip(&out_b) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "P_O diverged after reload at point {i}: {a} vs {b}"
                );
            }
            scored_points += 1;
        }
    }
    assert!(scored_points > 0, "no points scored; round-trip untested");

    // ---------------- P_T ----------------
    let trans_a = trained.transition_learner().expect("trained P_T");
    let trans_b = loaded.transition_learner().expect("loaded P_T");
    let mut ta =
        TrajTransScorer::with_scratch(trans_a, trained.embeddings(), &towers, Scratch::new());
    let mut tb =
        TrajTransScorer::with_scratch(trans_b, loaded.embeddings(), &towers, Scratch::new());
    let mut scored_routes = 0usize;
    for window in rec.truth.segments.windows(5).step_by(5).take(10) {
        let a = ta.transition_prob(&ds.network, 650.0, 40.0, 880.0, window);
        let b = tb.transition_prob(&ds.network, 650.0, 40.0, 880.0, window);
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "P_T diverged after reload on route {scored_routes}: {a} vs {b}"
        );
        scored_routes += 1;
    }
    assert!(scored_routes > 0, "no routes scored; round-trip untested");
}
