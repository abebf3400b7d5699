//! Score-level pin for layer-at-a-time transition scoring.
//!
//! The LHMM trajectory model overrides
//! [`HmmProbabilities::transition_layer`]: one Eq. 10 batch per layer,
//! Eq. 11 sums and turn accumulators folded along the route forest, and one
//! fuse-MLP call for every pair of the layer. This suite matches the same
//! trajectories twice — once through that override, once through a wrapper
//! that only forwards the per-pair `transition`, so the engine falls back to
//! the per-pair default — and requires the raw engine outputs to agree
//! bitwise: winning score (`to_bits`), matched path and shortcut-added
//! candidates. The route-level suites would miss a score drift that does not
//! flip a verdict; this one does not.

use lhmm::cellsim::faults::AdversarialCorpus;
use lhmm::cellsim::traj::CellularTrajectory;
use lhmm::core::error::MatchError;
use lhmm::core::types::{Candidate, HmmProbabilities, LayerRoutes, RouteInfo};
use lhmm::core::viterbi::{HmmEngine, HmmOutput};
use lhmm::prelude::*;

const SEED: u64 = 0x1A7E;

/// Forwards every method, the layer override included, counting the
/// per-pair calls that still reach the model.
struct Layered<'m> {
    inner: &'m mut dyn HmmProbabilities,
    pair_calls: u64,
}

impl HmmProbabilities for Layered<'_> {
    fn observation(&mut self, i: usize, seg: SegmentId, dist: f64) -> f64 {
        self.inner.observation(i, seg, dist)
    }

    fn transition(
        &mut self,
        i: usize,
        prev: &Candidate,
        cur: &Candidate,
        route: &RouteInfo,
    ) -> f64 {
        self.pair_calls += 1;
        self.inner.transition(i, prev, cur, route)
    }

    fn transition_layer(
        &mut self,
        i: usize,
        prev_layer: &[Candidate],
        cur_layer: &[Candidate],
        routes: &LayerRoutes,
        out: &mut [f64],
    ) {
        self.inner
            .transition_layer(i, prev_layer, cur_layer, routes, out);
    }
}

/// Forwards only the per-pair methods: the engine's layer calls take the
/// trait's default per-pair loop.
struct PerPair<'m> {
    inner: &'m mut dyn HmmProbabilities,
    pair_calls: u64,
}

impl HmmProbabilities for PerPair<'_> {
    fn observation(&mut self, i: usize, seg: SegmentId, dist: f64) -> f64 {
        self.inner.observation(i, seg, dist)
    }

    fn transition(
        &mut self,
        i: usize,
        prev: &Candidate,
        cur: &Candidate,
        route: &RouteInfo,
    ) -> f64 {
        self.pair_calls += 1;
        self.inner.transition(i, prev, cur, route)
    }
}

/// One engine output reduced to comparable bits.
#[derive(Debug, PartialEq, Eq)]
struct Verdict {
    score: u64,
    path: Vec<SegmentId>,
    added: Vec<(usize, SegmentId, u64, u64)>,
    shortcut_points: usize,
}

impl Verdict {
    fn of(out: &HmmOutput) -> Self {
        Verdict {
            score: out.score.to_bits(),
            path: out.path.segments.clone(),
            added: out
                .added_candidates
                .iter()
                .map(|&(i, c)| (i, c.seg, c.t.to_bits(), c.obs.to_bits()))
                .collect(),
            shortcut_points: out.shortcut_points,
        }
    }
}

type Outcome = Result<(Verdict, MatchStats), MatchError>;

/// Matches every trajectory through both model forms on fresh engines;
/// returns `(layered, per_pair, per-pair calls under each)`.
fn sweep(
    model: &LhmmModel,
    ctx: &MatchContext<'_>,
    trajs: &[CellularTrajectory],
) -> (Vec<Outcome>, Vec<Outcome>, u64, u64) {
    let (mut layered_calls, mut per_pair_calls) = (0, 0);
    let mut engine = HmmEngine::new(ctx.net, model.engine_config());
    let layered = trajs
        .iter()
        .map(|t| {
            let mut searches = 0;
            let out = model.try_find_path_with(ctx, t, &mut engine, |e, pts, layers, m| {
                // One forward-DP search per previous-layer candidate.
                searches = layers[..layers.len().saturating_sub(1)]
                    .iter()
                    .map(|l| l.len() as u64)
                    .sum();
                let mut wrapped = Layered {
                    inner: m,
                    pair_calls: 0,
                };
                let out = e.try_find_path(ctx.net, pts, layers, &mut wrapped);
                layered_calls += wrapped.pair_calls;
                out
            });
            if let Ok((_, stats)) = &out {
                assert_eq!(stats.dp_searches, searches, "MatchStats::dp_searches");
            }
            out.map(|(out, stats)| (Verdict::of(&out), stats))
        })
        .collect();
    let mut engine = HmmEngine::new(ctx.net, model.engine_config());
    let per_pair = trajs
        .iter()
        .map(|t| {
            model
                .try_find_path_with(ctx, t, &mut engine, |e, pts, layers, m| {
                    let mut wrapped = PerPair {
                        inner: m,
                        pair_calls: 0,
                    };
                    let out = e.try_find_path(ctx.net, pts, layers, &mut wrapped);
                    per_pair_calls += wrapped.pair_calls;
                    out
                })
                .map(|(out, stats)| (Verdict::of(&out), stats))
        })
        .collect();
    (layered, per_pair, layered_calls, per_pair_calls)
}

fn assert_bitwise_equal(backend: SpBackend, layered: &[Outcome], per_pair: &[Outcome]) {
    assert_eq!(layered.len(), per_pair.len());
    let mut matched = 0;
    for (case, (a, b)) in layered.iter().zip(per_pair).enumerate() {
        match (a, b) {
            (Ok((va, sa)), Ok((vb, sb))) => {
                assert_eq!(va, vb, "{backend:?} case {case}: engine output diverged");
                // Same roads scored, same pairs scored.
                assert_eq!(
                    sa.trans_rows, sb.trans_rows,
                    "{backend:?} case {case}: Eq. 10 rows"
                );
                assert_eq!(
                    sa.trans_calls, sb.trans_calls,
                    "{backend:?} case {case}: P_T pairs"
                );
                if !va.path.is_empty() {
                    matched += 1;
                }
            }
            (Err(ea), Err(eb)) => assert_eq!(ea, eb, "{backend:?} case {case}"),
            _ => panic!("{backend:?} case {case}: {a:?} vs {b:?}"),
        }
    }
    assert!(
        matched > 0,
        "{backend:?}: no case matched; the comparison is vacuous"
    );
}

#[test]
fn layer_scoring_is_bitwise_equal_to_per_pair_scoring_under_both_backends() {
    let ds = Dataset::generate(&DatasetConfig::tiny_test(SEED));
    let mut model = LhmmModel::train(&ds, LhmmConfig::fast_test(SEED));
    assert!(
        model.transition_learner().is_some(),
        "learned P_T must be active"
    );
    let ctx = MatchContext {
        net: &ds.network,
        index: &ds.index,
        towers: &ds.towers,
    };
    let mut trajs: Vec<CellularTrajectory> = ds.test.iter().map(|r| r.cellular.clone()).collect();
    let base: Vec<CellularTrajectory> = trajs.iter().take(2).cloned().collect();
    trajs.extend(
        AdversarialCorpus::generate(&base, SEED)
            .cases
            .into_iter()
            .map(|c| c.traj),
    );

    for backend in [SpBackend::Dijkstra, SpBackend::Ch] {
        model.set_sp_backend(&ds.network, backend);
        let (layered, per_pair, layered_calls, per_pair_calls) = sweep(&model, &ctx, &trajs);
        assert_bitwise_equal(backend, &layered, &per_pair);
        // The override really carried the forward DP: only Algorithm 2's
        // ad-hoc pairs still reach the per-pair method.
        assert!(
            layered_calls * 4 < per_pair_calls,
            "{backend:?}: {layered_calls} per-pair calls with the override vs {per_pair_calls} without"
        );
    }
}
