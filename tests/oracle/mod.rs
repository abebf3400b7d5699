//! Scoring oracle shared by the equivalence suites.
//!
//! Matching scores the learned probabilities through per-trajectory
//! scorers: fused kernels, scratch arenas, memoized attention halves, a
//! road-relevance cache and layer-at-a-time `P_T`. Each has an unfused,
//! stateless reference that matching never calls:
//! [`ObservationLearner::score`] (with contexts from
//! [`ObservationLearner::context_rows`]) for `P_O`, and
//! [`TransitionLearner::score`] for `P_T`. [`check_trajectory`] holds every
//! production value of one trajectory to its reference by `to_bits`, not
//! by a tolerance.

use lhmm::cellsim::tower::TowerId;
use lhmm::cellsim::traj::CellularTrajectory;
use lhmm::core::error::MatchError;
use lhmm::core::transition::TransitionLearner;
use lhmm::core::types::{Candidate, HmmProbabilities, LayerRoutes, RouteInfo};
use lhmm::core::viterbi::HmmEngine;
use lhmm::graph::encoder::Embeddings;
use lhmm::neural::Scratch;
use lhmm::prelude::*;

/// How many production values one check compared with the reference.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Checked {
    /// `P_O` values: every segment within the candidate radius of every
    /// point.
    pub obs_rows: u64,
    /// Routed pairs of the engine's `transition_layer` calls.
    pub layer_pairs: u64,
    /// Per-pair `transition` calls with a route (Algorithm 2's pairs).
    pub pair_calls: u64,
}

impl Checked {
    pub fn add(&mut self, other: Checked) {
        self.obs_rows += other.obs_rows;
        self.layer_pairs += other.layer_pairs;
        self.pair_calls += other.pair_calls;
    }
}

/// Checks every learned score of one trajectory against the reference.
///
/// - `P_O`: one `ObsTrajScorer` built on the warm `obs_scratch` scores every
///   segment within `candidate_radius` of each point. That set contains any
///   candidate pool the matcher can build, so the top-k ranking is pinned
///   too.
/// - `P_T`: the real match runs through [`LhmmModel::try_find_path_with`]
///   with the model wrapped in [`PtOracle`], which recomputes every routed
///   value the engine receives, per layer and per pair.
///
/// Returns the engine's verdict (path segments or typed error) together
/// with the counts.
pub fn check_trajectory(
    model: &LhmmModel,
    ctx: &MatchContext<'_>,
    traj: &CellularTrajectory,
    engine: &mut HmmEngine,
    obs_scratch: &mut Scratch,
) -> (Result<Vec<SegmentId>, MatchError>, Checked) {
    let mut checked = Checked::default();
    let towers = traj.towers();
    if let Some(learner) = model.observation_learner() {
        let emb = model.embeddings();
        let contexts = learner.context_rows(emb, &towers);
        let mut scorer = learner.traj_scorer(emb, &towers, std::mem::take(obs_scratch));
        let mut got = Vec::new();
        for (i, p) in traj.points.iter().enumerate() {
            let pos = p.effective_pos();
            let segs: Vec<SegmentId> = ctx
                .index
                .segments_within(ctx.net, pos, model.config.candidate_radius)
                .into_iter()
                .map(|(s, _)| s)
                .collect();
            scorer.score_into(ctx.net, model.graph(), pos, p.tower, i, &segs, &mut got);
            let want = learner.score(ctx.net, model.graph(), emb, &contexts[i], pos, p.tower, &segs);
            assert_eq!(got.len(), want.len(), "point {i}: P_O batch length");
            for ((seg, g), w) in segs.iter().zip(&got).zip(&want) {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "point {i}, {seg:?}: P_O {g} differs from the reference {w}"
                );
            }
            checked.obs_rows += segs.len() as u64;
        }
        *obs_scratch = scorer.finish().0;
    }

    let verdict = model.try_find_path_with(ctx, traj, engine, |e, pts, layers, m| {
        match model.transition_learner() {
            Some(learner) => {
                let mut oracle = PtOracle {
                    inner: m,
                    learner,
                    net: ctx.net,
                    emb: model.embeddings(),
                    towers: &towers,
                    pts,
                    checked: Checked::default(),
                    buf: Vec::new(),
                };
                let out = e.try_find_path(ctx.net, pts, layers, &mut oracle);
                checked.add(oracle.checked);
                out
            }
            None => e.try_find_path(ctx.net, pts, layers, m),
        }
    });
    (verdict.map(|(out, _)| out.path.segments), checked)
}

/// Forwards every call to the matcher's model and checks each learned
/// `P_T` it returns against [`TransitionLearner::score`]. `d_straight` and
/// `dt` come from the kept points the engine runs on; the towers are the
/// whole trajectory's, as the scorer sees them.
struct PtOracle<'m, 'a> {
    inner: &'m mut dyn HmmProbabilities,
    learner: &'a TransitionLearner,
    net: &'a RoadNetwork,
    emb: &'a Embeddings,
    towers: &'a [TowerId],
    pts: &'a [(Point, f64)],
    checked: Checked,
    buf: Vec<SegmentId>,
}

impl PtOracle<'_, '_> {
    fn assert_reference(&self, i: usize, route: &RouteInfo, got: f64, what: &str) {
        if !route.found {
            assert_eq!(got.to_bits(), 0f64.to_bits(), "{what} at layer {i}: unrouted P_T");
            return;
        }
        let (a, b) = (self.pts[i - 1], self.pts[i]);
        let want = self.learner.score(
            self.net,
            self.emb,
            self.towers,
            a.0.distance(b.0),
            b.1 - a.1,
            route.length,
            route.segments,
        ) as f64;
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{what} at layer {i}, route {:?}: P_T {got} differs from the reference {want}",
            route.segments
        );
    }
}

impl HmmProbabilities for PtOracle<'_, '_> {
    fn observation(&mut self, i: usize, seg: SegmentId, dist: f64) -> f64 {
        self.inner.observation(i, seg, dist)
    }

    fn transition(&mut self, i: usize, prev: &Candidate, cur: &Candidate, route: &RouteInfo) -> f64 {
        let got = self.inner.transition(i, prev, cur, route);
        self.assert_reference(i, route, got, "pair");
        self.checked.pair_calls += route.found as u64;
        got
    }

    fn transition_layer(
        &mut self,
        i: usize,
        prev_layer: &[Candidate],
        cur_layer: &[Candidate],
        routes: &LayerRoutes,
        out: &mut [f64],
    ) {
        self.inner.transition_layer(i, prev_layer, cur_layer, routes, out);
        let mut buf = std::mem::take(&mut self.buf);
        for j in 0..prev_layer.len() {
            for k in 0..cur_layer.len() {
                let route = routes.route(j, k, &mut buf);
                self.assert_reference(i, &route, out[j * cur_layer.len() + k], "layer pair");
                self.checked.layer_pairs += route.found as u64;
            }
        }
        self.buf = buf;
    }
}
