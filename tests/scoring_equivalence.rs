//! Production scoring against the reference, end to end.
//!
//! Matching computes the learned `P_O` and `P_T` through the fast
//! per-trajectory scorers (batched kernels, scratch arenas, caches,
//! layer-at-a-time transitions). These tests match a whole test corpus on
//! one warm engine and hold every score the matcher produces to the
//! unfused reference functions, bit for bit (see `oracle/mod.rs`). Unit-level
//! checks live next to the kernels (`lhmm-neural`) and the scorers
//! (`lhmm-core`); this suite catches what those miss, e.g. in the wiring of
//! contexts, caches, route forests or scratch reuse across trajectories.

mod oracle;

use lhmm::core::viterbi::HmmEngine;
use lhmm::neural::Scratch;
use lhmm::prelude::*;
use oracle::{check_trajectory, Checked};

/// Checks every test trajectory of `ds` on one engine and one observation
/// arena, both reused across the corpus: warm scratch buffers and
/// shortest-path caches are the state the fast path optimizes for, and
/// the state that must not change answers. Returns the number of matched
/// (non-empty) routes and the check counts.
fn check_corpus(model: &LhmmModel, ds: &Dataset) -> (usize, Checked) {
    let ctx = MatchContext {
        net: &ds.network,
        index: &ds.index,
        towers: &ds.towers,
    };
    let mut engine = HmmEngine::new(&ds.network, model.engine_config());
    let mut obs_scratch = Scratch::new();
    let mut matched = 0;
    let mut total = Checked::default();
    for rec in &ds.test {
        let (verdict, checked) =
            check_trajectory(model, &ctx, &rec.cellular, &mut engine, &mut obs_scratch);
        matched += verdict.is_ok_and(|path| !path.is_empty()) as usize;
        total.add(checked);
    }
    (matched, total)
}

/// Full (non-ablated) LHMM: learned P_O and P_T both active, so every
/// fast code path — context batching, candidate scoring, road relevance,
/// route-forest folds, fusion — is checked on every trajectory.
#[test]
fn full_lhmm_scores_equal_the_reference_bitwise() {
    let ds = Dataset::generate(&DatasetConfig::tiny_test(171));
    let model = LhmmModel::train(&ds, LhmmConfig::fast_test(171));
    let (matched, checked) = check_corpus(&model, &ds);
    assert!(matched > 0, "corpus produced no non-empty matches");
    // Layer pairs come from the forward DP, per-pair calls from
    // Algorithm 2's shortcut search; both must have been compared.
    assert!(
        checked.obs_rows > 0 && checked.layer_pairs > 0 && checked.pair_calls > 0,
        "a scoring path went unchecked: {checked:?}"
    );
}

/// Single-learner ablations: the remaining learned scorer still runs
/// through the fast path and must still equal its reference; the classic
/// half is not checked.
#[test]
fn ablated_variants_score_equal_the_reference_bitwise() {
    let ds = Dataset::generate(&DatasetConfig::tiny_test(172));
    for (obs, trans) in [(true, false), (false, true)] {
        let mut cfg = LhmmConfig::fast_test(172);
        cfg.use_learned_obs = obs;
        cfg.use_learned_trans = trans;
        let model = LhmmModel::train(&ds, cfg);
        let (matched, checked) = check_corpus(&model, &ds);
        assert!(matched > 0, "{}: no non-empty matches", model.name());
        assert_eq!(checked.obs_rows > 0, obs, "{}: {checked:?}", model.name());
        assert_eq!(checked.layer_pairs > 0, trans, "{}: {checked:?}", model.name());
    }
}
