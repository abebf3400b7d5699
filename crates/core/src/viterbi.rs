//! The HMM path-finding engine: Viterbi dynamic programming (Algorithm 1)
//! with shortcut construction (Algorithm 2).
//!
//! The engine is model-agnostic: baselines plug the classic Eq. 2–3
//! probabilities in, LHMM plugs its learned networks in. The path score
//! follows the paper exactly — the *sum* of per-step `W = P_T · P_O`
//! contributions (Eq. 13–14), with `f[c_1] = P_O(c_1)` as initialization.

use crate::error::{sanitize_prob, Degradation, MatchError};
use crate::types::{Candidate, HmmProbabilities, LayerRoutes, RouteInfo};
use lhmm_geo::Point;
use lhmm_network::graph::RoadNetwork;
use lhmm_network::path::Path;
use lhmm_network::backend::{SpEngine, SpHandle};
use lhmm_network::shortest_path::Route;
use lhmm_network::sp_cache::{SpCache, SpCacheStats};
use lhmm_neural::Scratch;
use crate::timing::StageTimer;
use std::cmp::Ordering;

/// Engine parameters.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Route search bound as a multiple of the straight-line hop.
    pub max_route_factor: f64,
    /// Additive slack on the route search bound, meters (covers tower
    /// positioning error).
    pub route_slack: f64,
    /// Number of shortcut predecessors per candidate (the paper's `K`;
    /// 0 disables Algorithm 2, 1 is the paper's recommendation).
    pub shortcuts: usize,
    /// Shortest-path backend handle (Dijkstra, or a shared contraction
    /// hierarchy). Cloning shares preprocessing, never repeats it.
    pub sp: SpHandle,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_route_factor: 4.0,
            route_slack: 3_000.0,
            shortcuts: 1,
            sp: SpHandle::default(),
        }
    }
}

/// Output of a path-finding run.
#[derive(Clone, Debug)]
pub struct HmmOutput {
    /// The matched path.
    pub path: Path,
    /// The winning candidate-path score (Eq. 14).
    pub score: f64,
    /// Number of trajectory points whose layer was bypassed through a
    /// shortcut-created candidate.
    pub shortcut_points: usize,
    /// Candidates the shortcut pass added, as `(layer index, candidate)` —
    /// these extend the effective candidate road sets (the paper's STM+S
    /// hitting-ratio gain comes exactly from them).
    pub added_candidates: Vec<(usize, Candidate)>,
}

/// One forward step of Algorithm 1 — route search from every
/// previous-layer candidate, the layer's transitions, the max-plus update —
/// shared by [`HmmEngine`] and the streaming engine, with the reusable
/// route arena and search state it needs.
pub(crate) struct ForwardStep {
    sp: SpEngine,
    routes: LayerRoutes,
    /// Wall time of building the route arena (the one-to-many searches)
    /// since the last take.
    sp_time_s: f64,
    /// One-to-many searches run since the last take.
    searches: u64,
}

impl ForwardStep {
    pub(crate) fn new(net: &RoadNetwork, sp: &SpHandle) -> Self {
        ForwardStep {
            sp: sp.engine(net),
            routes: LayerRoutes::default(),
            sp_time_s: 0.0,
            searches: 0,
        }
    }

    /// Search wall time accumulated since the last call, resetting it.
    pub(crate) fn take_sp_time(&mut self) -> f64 {
        std::mem::take(&mut self.sp_time_s)
    }

    /// Searches run since the last call, resetting the count.
    pub(crate) fn take_searches(&mut self) -> u64 {
        std::mem::take(&mut self.searches)
    }

    /// Extends the DP from `prev_layer` (scores `f_prev`) to `cur_layer`,
    /// the transition into trajectory point `i`. `w` receives the
    /// row-major `W = P_T · P_O` matrix (Eq. 13, `w[j * |cur| + k]`); the
    /// return value is layer `i`'s scores and best predecessor indices.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run<M: HmmProbabilities + ?Sized>(
        &mut self,
        net: &RoadNetwork,
        model: &mut M,
        i: usize,
        bound: f64,
        prev_layer: &[Candidate],
        f_prev: &[f64],
        cur_layer: &[Candidate],
        w: &mut Vec<f64>,
        deg: &mut Degradation,
    ) -> (Vec<f64>, Vec<Option<usize>>) {
        let t0 = StageTimer::start();
        self.routes
            .build(net, &mut self.sp, prev_layer, cur_layer, bound);
        self.sp_time_s += t0.elapsed_s();
        self.searches += prev_layer.len() as u64;
        let n = cur_layer.len();
        w.clear();
        w.resize(prev_layer.len() * n, 0.0);
        model.transition_layer(i, prev_layer, cur_layer, &self.routes, w);
        let mut f_i = vec![f64::NEG_INFINITY; n];
        let mut pre_i = vec![None; n];
        for (j, row) in w.chunks_exact_mut(n.max(1)).enumerate() {
            for (k, (w_jk, cur)) in row.iter_mut().zip(cur_layer).enumerate() {
                *w_jk = sanitize_prob(*w_jk * cur.obs, deg);
                let cand_score = f_prev[j] + *w_jk;
                if cand_score > f_i[k] {
                    f_i[k] = cand_score;
                    pre_i[k] = Some(j);
                }
            }
        }
        (f_i, pre_i)
    }
}

/// Keeps the `k` best `scores` in `out` as `(score, index)`, descending
/// under `total_cmp` with ties to the lower index — exactly what a stable
/// descending sort truncated to `k` keeps, without allocating (once `out`
/// has grown to `k`) or sorting the whole list.
fn stable_top_k(scores: impl Iterator<Item = f64>, k: usize, out: &mut Vec<(f64, usize)>) {
    out.clear();
    if k == 0 {
        return;
    }
    for (j, s) in scores.enumerate() {
        // The first kept score strictly below `s`: an equal score stays
        // ahead, as it came from a lower index.
        let pos = out
            .iter()
            .position(|&(kept, _)| kept.total_cmp(&s) == Ordering::Less)
            .unwrap_or(out.len());
        if pos >= k {
            continue;
        }
        if out.len() == k {
            out.pop();
        }
        out.insert(pos, (s, j));
    }
}

/// The path-finding engine; holds reusable search state for one network.
pub struct HmmEngine {
    forward: ForwardStep,
    sp_cache: SpCache,
    /// Engine parameters (mutable between runs: `k`/`K` sweeps).
    pub cfg: EngineConfig,
    /// Scratch arenas loaned to the per-trajectory scorers; keeping them
    /// here lets warm buffers carry across trajectories (the zero-alloc
    /// steady state).
    obs_scratch: Scratch,
    trans_scratch: Scratch,
    /// Wall time accumulated in shortest-path cache lookups since the last
    /// [`Self::take_sp_time`] (the forward step keeps its own).
    sp_time_s: f64,
    /// Degradation events accumulated since [`Self::take_degradation`].
    degradation: Degradation,
    /// Eq. 20 ranking buffer, reused across candidates and trajectories.
    rank: Vec<(f64, usize)>,
}

impl HmmEngine {
    /// Default shortest-path cache capacity (node pairs).
    pub const DEFAULT_CACHE_CAPACITY: usize = 200_000;

    /// Creates an engine for `net` with a private shortest-path cache of
    /// [`Self::DEFAULT_CACHE_CAPACITY`] node pairs.
    pub fn new(net: &RoadNetwork, cfg: EngineConfig) -> Self {
        HmmEngine {
            forward: ForwardStep::new(net, &cfg.sp),
            sp_cache: SpCache::with_backend(net, Self::DEFAULT_CACHE_CAPACITY, &cfg.sp),
            cfg,
            obs_scratch: Scratch::new(),
            trans_scratch: Scratch::new(),
            sp_time_s: 0.0,
            degradation: Degradation::default(),
            rank: Vec::new(),
        }
    }

    /// Loans out the observation-scorer scratch arena; pair with
    /// [`Self::put_obs_scratch`].
    pub fn take_obs_scratch(&mut self) -> Scratch {
        std::mem::take(&mut self.obs_scratch)
    }

    /// Returns a loaned observation scratch arena to the engine.
    pub fn put_obs_scratch(&mut self, s: Scratch) {
        self.obs_scratch = s;
    }

    /// Loans out the transition-scorer scratch arena; pair with
    /// [`Self::put_trans_scratch`].
    pub fn take_trans_scratch(&mut self) -> Scratch {
        std::mem::take(&mut self.trans_scratch)
    }

    /// Returns a loaned transition scratch arena to the engine.
    pub fn put_trans_scratch(&mut self, s: Scratch) {
        self.trans_scratch = s;
    }

    /// Shortest-path wall time accumulated since the last call, resetting
    /// the counter (read once per match for [`crate::types::MatchStats`]).
    pub fn take_sp_time(&mut self) -> f64 {
        std::mem::take(&mut self.sp_time_s) + self.forward.take_sp_time()
    }

    /// One-to-many searches the forward DP ran since the last call (one
    /// per previous-layer candidate per layer), resetting the count.
    pub fn take_dp_searches(&mut self) -> u64 {
        self.forward.take_searches()
    }

    /// Degradation events (glued path gaps, clamped scores) accumulated
    /// since the last call, resetting the counters (read once per match for
    /// [`crate::types::MatchStats`]).
    pub fn take_degradation(&mut self) -> Degradation {
        std::mem::take(&mut self.degradation)
    }

    /// Shortest-path cache counters (hits and searches).
    pub fn cache_stats(&self) -> SpCacheStats {
        self.sp_cache.stats()
    }

    /// Runs Algorithm 1 (+ Algorithm 2 when `cfg.shortcuts > 0`).
    ///
    /// `pts` are the effective positions/timestamps of the trajectory points
    /// that survived candidate preparation; `layers[i]` are point `i`'s
    /// candidates. Malformed input is a typed error:
    /// [`MatchError::LayerMismatch`] when `pts` and `layers` disagree in
    /// count, [`MatchError::EmptyTrajectory`] on zero layers, and
    /// [`MatchError::EmptyLayer`] when a supplied layer has no candidate.
    /// What a failure falls back to is the caller's choice.
    ///
    /// Never panics. Degradation events (path gaps glued across unroutable
    /// hops, non-finite model outputs clamped to zero) are accumulated and
    /// read back via [`Self::take_degradation`].
    pub fn try_find_path<M: HmmProbabilities + ?Sized>(
        &mut self,
        net: &RoadNetwork,
        pts: &[(Point, f64)],
        mut layers: Vec<Vec<Candidate>>,
        model: &mut M,
    ) -> Result<HmmOutput, MatchError> {
        if pts.len() != layers.len() {
            return Err(MatchError::LayerMismatch {
                points: pts.len(),
                layers: layers.len(),
            });
        }
        if layers.is_empty() {
            return Err(MatchError::EmptyTrajectory);
        }
        if let Some(empty) = layers.iter().position(Vec::is_empty) {
            return Err(MatchError::EmptyLayer { layer: empty });
        }
        let n_layers = layers.len();
        let mut deg = Degradation::default();

        // ------------------------------------------------------------
        // Algorithm 1: forward DP.
        // ------------------------------------------------------------
        let mut f: Vec<Vec<f64>> = Vec::with_capacity(n_layers);
        let mut pre: Vec<Vec<Option<(usize, usize)>>> = Vec::with_capacity(n_layers);
        f.push(
            layers[0]
                .iter()
                .map(|c| sanitize_prob(c.obs, &mut deg))
                .collect(),
        );
        pre.push(vec![None; layers[0].len()]);

        // Row-major W matrices per transition (layer i-1 -> i), kept for
        // Eq. 20.
        let mut w_all: Vec<Vec<f64>> = Vec::with_capacity(n_layers.saturating_sub(1));

        for i in 1..n_layers {
            let bound = pts[i - 1].0.distance(pts[i].0) * self.cfg.max_route_factor
                + self.cfg.route_slack;
            let mut w_i = Vec::new();
            let (f_i, pre_i) = self.forward.run(
                net,
                model,
                i,
                bound,
                &layers[i - 1],
                &f[i - 1],
                &layers[i],
                &mut w_i,
                &mut deg,
            );
            w_all.push(w_i);
            f.push(f_i);
            pre.push(pre_i.into_iter().map(|j| j.map(|j| (i - 1, j))).collect());
        }

        // ------------------------------------------------------------
        // Algorithm 2: shortcut construction.
        // ------------------------------------------------------------
        let orig_len: Vec<usize> = layers.iter().map(Vec::len).collect();
        let mut added_candidates: Vec<(usize, Candidate)> = Vec::new();
        let mut rank = std::mem::take(&mut self.rank);
        if self.cfg.shortcuts > 0 && n_layers >= 3 {
            for i in 2..n_layers {
                let bound = pts[i - 2].0.distance(pts[i].0) * self.cfg.max_route_factor
                    + self.cfg.route_slack;
                let (n_j, n_l, n_k) = (orig_len[i - 2], orig_len[i - 1], orig_len[i]);
                for k in 0..n_k {
                    // Eq. 20: rank one-hop predecessors j by the best
                    // two-step score through any middle candidate l.
                    let (w_jl, w_lk) = (&w_all[i - 2], &w_all[i - 1]);
                    let scores = (0..n_j).map(|j| {
                        let best = (0..n_l)
                            .map(|l| w_jl[j * n_l + l] + w_lk[l * n_k + k])
                            .fold(f64::NEG_INFINITY, f64::max);
                        f[i - 2][j] + best
                    });
                    stable_top_k(scores, self.cfg.shortcuts, &mut rank);

                    for &(_, j) in &rank {
                        let cj = layers[i - 2][j];
                        let ck = layers[i][k];
                        let Some(route) = self.route_between(net, &cj, &ck, bound) else {
                            continue;
                        };
                        // Project the skipped point onto the shortcut to
                        // restore a middle road (shortcut score setting).
                        let mid_pos = pts[i - 1].0;
                        let Some((u_seg, u_proj)) = route
                            .segments
                            .iter()
                            .map(|&s| (s, net.project(mid_pos, s)))
                            .min_by(|a, b| a.1.distance.total_cmp(&b.1.distance))
                        else {
                            continue;
                        };
                        let obs_u =
                            sanitize_prob(model.observation(i - 1, u_seg, u_proj.distance), &mut deg);
                        let cand_u = Candidate {
                            seg: u_seg,
                            t: u_proj.t,
                            obs: obs_u,
                        };
                        let r_ju = self.route_between(net, &cj, &cand_u, bound);
                        let r_uk = self.route_between(net, &cand_u, &ck, bound);
                        let w1 = sanitize_prob(
                            model.transition(i - 1, &cj, &cand_u, &route_info(&r_ju)) * obs_u,
                            &mut deg,
                        );
                        let w2 = sanitize_prob(
                            model.transition(i, &cand_u, &ck, &route_info(&r_uk)) * ck.obs,
                            &mut deg,
                        );
                        let f_new = f[i - 2][j] + w1 + w2; // Eq. 21
                        if f_new > f[i][k] {
                            layers[i - 1].push(cand_u);
                            added_candidates.push((i - 1, cand_u));
                            let f_u = f[i - 2][j] + w1;
                            f[i - 1].push(f_u);
                            pre[i - 1].push(Some((i - 2, j)));
                            let u_idx = layers[i - 1].len() - 1;
                            f[i][k] = f_new;
                            pre[i][k] = Some((i - 1, u_idx));
                        }
                    }
                }
            }
        }
        self.rank = rank;

        // ------------------------------------------------------------
        // Backtracking and path assembly.
        // ------------------------------------------------------------
        // Layers are validated non-empty above; `unwrap_or` is unreachable.
        let (best_k, best_score) = f[n_layers - 1]
            .iter()
            .enumerate()
            .map(|(k, &s)| (k, s))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap_or((0, f64::NEG_INFINITY));

        let mut chain: Vec<(usize, usize)> = Vec::with_capacity(n_layers);
        let mut cursor = Some((n_layers - 1, best_k));
        while let Some((li, ci)) = cursor {
            chain.push((li, ci));
            cursor = pre[li][ci];
        }
        chain.reverse();

        let shortcut_points = chain
            .iter()
            .filter(|&&(li, ci)| ci >= orig_len[li])
            .count();

        let mut path = Path::empty();
        let mut prev_cand: Option<Candidate> = None;
        for &(li, ci) in &chain {
            let cand = layers[li][ci];
            match prev_cand {
                None => path.segments.push(cand.seg),
                Some(p) => {
                    let bound = 10.0 * self.cfg.route_slack
                        + self.cfg.max_route_factor * net.bbox().width().max(net.bbox().height());
                    match self.route_between(net, &p, &cand, bound) {
                        Some(r) => path.extend_with(&r.segments),
                        None => {
                            // No route within bound: glue the path across
                            // the gap rather than fail the whole match.
                            deg.disconnected_joins += 1;
                            path.segments.push(cand.seg);
                        }
                    }
                }
            }
            prev_cand = Some(cand);
        }
        path.dedup_consecutive();
        self.degradation.merge(&deg);

        Ok(HmmOutput {
            path,
            score: best_score,
            shortcut_points,
            added_candidates,
        })
    }

    /// Point-to-point route between two candidates' projections through
    /// the cache (Algorithm 2 and backtracking), timed as route search.
    fn route_between(
        &mut self,
        net: &RoadNetwork,
        a: &Candidate,
        b: &Candidate,
        bound: f64,
    ) -> Option<Route> {
        let t0 = StageTimer::start();
        let route = self
            .sp_cache
            .route_between_projections(net, a.seg, a.t, b.seg, b.t, bound);
        self.sp_time_s += t0.elapsed_s();
        route
    }
}

/// The transition-model view of a point-to-point route.
fn route_info(route: &Option<Route>) -> RouteInfo<'_> {
    match route {
        Some(r) => RouteInfo {
            found: true,
            length: r.length,
            segments: &r.segments,
        },
        None => RouteInfo::missing(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{distance_layers, nearest_segments, to_candidates};
    use crate::classic::{ClassicModel, ClassicObservation, ClassicTransition};
    use lhmm_network::builder::NetworkBuilder;
    use lhmm_network::graph::RoadClass;
    use lhmm_network::spatial::SpatialIndex;

    /// A simple two-row ladder network:
    ///
    /// ```text
    ///  y=100:  4 -- 5 -- 6 -- 7      (north row)
    ///  y=0:    0 -- 1 -- 2 -- 3      (south row)
    /// ```
    /// with vertical rungs; all two-way, 100 m spacing.
    fn ladder() -> RoadNetwork {
        let mut b = NetworkBuilder::new();
        let mut ids = Vec::new();
        for y in 0..2 {
            for x in 0..4 {
                ids.push(b.add_node(Point::new(x as f64 * 100.0, y as f64 * 100.0)));
            }
        }
        for x in 0..3 {
            b.add_two_way(ids[x], ids[x + 1], RoadClass::Local).unwrap();
            b.add_two_way(ids[4 + x], ids[4 + x + 1], RoadClass::Local)
                .unwrap();
        }
        for x in 0..4 {
            b.add_two_way(ids[x], ids[4 + x], RoadClass::Local).unwrap();
        }
        b.build().unwrap()
    }

    fn classic_for(positions: &[Point]) -> ClassicModel {
        ClassicModel::new(
            ClassicObservation {
                mu: 0.0,
                sigma: 60.0,
            },
            ClassicTransition { beta: 120.0 },
            positions.to_vec(),
        )
    }

    #[test]
    fn matches_a_straight_drive() {
        let net = ladder();
        let index = SpatialIndex::build(&net, 100.0);
        // Points move east along the south row, slightly off-road.
        let positions = vec![
            Point::new(10.0, 12.0),
            Point::new(120.0, -9.0),
            Point::new(230.0, 11.0),
            Point::new(295.0, -5.0),
        ];
        let mut model = classic_for(&positions);
        let (layers, kept) = distance_layers(&net, &index, &positions, 4, 500.0, &mut model);
        assert!(kept.iter().all(|&k| k));
        let pts: Vec<(Point, f64)> = positions
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i as f64 * 30.0))
            .collect();
        let mut engine = HmmEngine::new(&net, EngineConfig::default());
        let out = engine
            .try_find_path(&net, &pts, layers, &mut model)
            .expect("valid layers");
        // The matched path must stay on the south row.
        let poly = out.path.polyline(&net);
        assert!(!out.path.is_empty());
        assert!(
            poly.iter().all(|p| p.y.abs() < 1.0),
            "path strayed north: {poly:?}"
        );
        assert!(out.score > 0.0);
    }

    #[test]
    fn path_is_contiguous_and_monotone_east() {
        let net = ladder();
        let index = SpatialIndex::build(&net, 100.0);
        let positions = vec![
            Point::new(20.0, 40.0),
            Point::new(160.0, 60.0),
            Point::new(290.0, 50.0),
        ];
        let mut model = classic_for(&positions);
        let (layers, _) = distance_layers(&net, &index, &positions, 6, 500.0, &mut model);
        let pts: Vec<(Point, f64)> = positions
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i as f64 * 30.0))
            .collect();
        let mut engine = HmmEngine::new(&net, EngineConfig::default());
        let out = engine
            .try_find_path(&net, &pts, layers, &mut model)
            .expect("valid layers");
        assert!(out.path.is_contiguous(&net), "{:?}", out.path);
    }

    /// Build a scenario where the middle point's candidate set misses the
    /// true road entirely (an unqualified candidate road set): without
    /// shortcuts the path detours north; with shortcuts the detour is
    /// avoided (Observation 1 / Fig. 5).
    #[test]
    fn shortcuts_skip_unqualified_candidate_sets() {
        let net = ladder();
        let index = SpatialIndex::build(&net, 100.0);
        // True drive: straight east along the south row. The middle point is
        // a noisy observation displaced far north.
        let positions = vec![
            Point::new(10.0, 5.0),
            Point::new(150.0, 95.0), // noisy: nearest roads are the north row
            Point::new(290.0, 5.0),
        ];
        let mut model = classic_for(&positions);
        // Handcraft layers: endpoints get south-row candidates, the middle
        // point gets ONLY north-row candidates (unqualified set).
        let south = |pos: Point, model: &mut ClassicModel, i: usize| {
            let pairs: Vec<_> = nearest_segments(&net, &index, pos, 12, 500.0)
                .into_iter()
                .filter(|&(s, _)| {
                    net.segment_midpoint(s).y < 10.0
                })
                .collect();
            to_candidates(model, i, &pairs)
        };
        let north_only = |pos: Point, model: &mut ClassicModel, i: usize| {
            let pairs: Vec<_> = nearest_segments(&net, &index, pos, 12, 500.0)
                .into_iter()
                .filter(|&(s, _)| net.segment_midpoint(s).y > 90.0)
                .collect();
            to_candidates(model, i, &pairs)
        };
        let layers = vec![
            south(positions[0], &mut model, 0),
            north_only(positions[1], &mut model, 1),
            south(positions[2], &mut model, 2),
        ];
        assert!(layers.iter().all(|l| !l.is_empty()));
        let pts: Vec<(Point, f64)> = positions
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i as f64 * 30.0))
            .collect();

        // Without shortcuts: forced through the north row (detour).
        let mut engine_plain = HmmEngine::new(
            &net,
            EngineConfig {
                shortcuts: 0,
                ..Default::default()
            },
        );
        let plain = engine_plain
            .try_find_path(&net, &pts, layers.clone(), &mut model)
            .expect("valid layers");
        let plain_poly = plain.path.polyline(&net);
        assert!(
            plain_poly.iter().any(|p| p.y > 90.0),
            "plain path unexpectedly avoided the detour"
        );

        // With shortcuts: the noisy layer can be bypassed.
        let mut engine_sc = HmmEngine::new(
            &net,
            EngineConfig {
                shortcuts: 1,
                ..Default::default()
            },
        );
        let sc = engine_sc
            .try_find_path(&net, &pts, layers, &mut model)
            .expect("valid layers");
        let sc_poly = sc.path.polyline(&net);
        assert!(
            sc_poly.iter().all(|p| p.y < 90.0),
            "shortcut path still detoured: {sc_poly:?}"
        );
        assert!(sc.shortcut_points >= 1);
        // The shortcut path length is shorter than the detour path.
        assert!(sc.path.length(&net) < plain.path.length(&net));
    }

    #[test]
    fn try_find_path_returns_typed_errors() {
        let net = ladder();
        let mut model = classic_for(&[Point::ORIGIN]);
        let mut engine = HmmEngine::new(&net, EngineConfig::default());
        assert_eq!(
            engine
                .try_find_path(&net, &[(Point::ORIGIN, 0.0)], vec![], &mut model)
                .err(),
            Some(crate::error::MatchError::LayerMismatch {
                points: 1,
                layers: 0
            })
        );
        assert_eq!(
            engine.try_find_path(&net, &[], vec![], &mut model).err(),
            Some(crate::error::MatchError::EmptyTrajectory)
        );
        assert_eq!(
            engine
                .try_find_path(&net, &[(Point::ORIGIN, 0.0)], vec![vec![]], &mut model)
                .err(),
            Some(crate::error::MatchError::EmptyLayer { layer: 0 })
        );
        // A refused input leaves no degradation behind: how a failure is
        // counted is the caller's policy.
        assert!(!engine.take_degradation().any());
    }

    #[test]
    fn non_finite_observations_are_clamped_not_fatal() {
        let net = ladder();
        let index = SpatialIndex::build(&net, 100.0);
        let positions = vec![Point::new(10.0, 5.0), Point::new(150.0, 5.0)];
        let mut model = classic_for(&positions);
        let mut layers = Vec::new();
        for (i, &p) in positions.iter().enumerate() {
            let pairs = nearest_segments(&net, &index, p, 4, 500.0);
            layers.push(to_candidates(&mut model, i, &pairs));
        }
        // Poison one candidate's observation probability.
        layers[0][0].obs = f64::NAN;
        let pts: Vec<(Point, f64)> = positions
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i as f64 * 30.0))
            .collect();
        let mut engine = HmmEngine::new(&net, EngineConfig::default());
        let out = engine
            .try_find_path(&net, &pts, layers, &mut model)
            .expect("clamped, not fatal");
        assert!(!out.path.is_empty());
        assert!(out.score.is_finite());
        let deg = engine.take_degradation();
        assert!(deg.clamped_scores >= 1, "{deg:?}");
        // Counters reset after take.
        assert_eq!(engine.take_degradation(), Degradation::default());
    }

    /// Regression pin for Algorithm 2 (paper §IV-E): a hand-built middle
    /// layer whose candidates are all unqualified (wrong side of the map)
    /// must *activate* a shortcut — adding at least one candidate — and the
    /// final path must still be connected.
    #[test]
    fn all_unqualified_layer_activates_shortcut_with_connected_route() {
        let net = ladder();
        let index = SpatialIndex::build(&net, 100.0);
        let positions = vec![
            Point::new(10.0, 5.0),
            Point::new(150.0, 95.0),
            Point::new(290.0, 5.0),
        ];
        let mut model = classic_for(&positions);
        let south = |pos: Point, model: &mut ClassicModel, i: usize| {
            let pairs: Vec<_> = nearest_segments(&net, &index, pos, 12, 500.0)
                .into_iter()
                .filter(|&(s, _)| net.segment_midpoint(s).y < 10.0)
                .collect();
            to_candidates(model, i, &pairs)
        };
        // The middle layer only carries north-row candidates: every one is
        // unqualified for the true (south-row) drive.
        let north_only = |pos: Point, model: &mut ClassicModel, i: usize| {
            let pairs: Vec<_> = nearest_segments(&net, &index, pos, 12, 500.0)
                .into_iter()
                .filter(|&(s, _)| net.segment_midpoint(s).y > 90.0)
                .collect();
            to_candidates(model, i, &pairs)
        };
        let layers = vec![
            south(positions[0], &mut model, 0),
            north_only(positions[1], &mut model, 1),
            south(positions[2], &mut model, 2),
        ];
        let pts: Vec<(Point, f64)> = positions
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i as f64 * 30.0))
            .collect();
        let mut engine = HmmEngine::new(&net, EngineConfig::default());
        let out = engine
            .try_find_path(&net, &pts, layers, &mut model)
            .expect("unqualified layer must degrade, not fail");
        assert!(
            !out.added_candidates.is_empty(),
            "shortcut construction never activated"
        );
        assert!(out.shortcut_points >= 1);
        assert!(out.path.is_contiguous(&net), "{:?}", out.path);
        // The added candidates sit on the middle layer.
        assert!(out.added_candidates.iter().all(|&(li, _)| li == 1));
    }

    /// What Eq. 20's ranking kept before: a stable descending sort
    /// truncated to `k`.
    fn sorted_top_k(scores: &[f64], k: usize) -> Vec<(f64, usize)> {
        let mut all: Vec<(f64, usize)> = scores.iter().copied().zip(0..).collect();
        all.sort_by(|a, b| b.0.total_cmp(&a.0));
        all.truncate(k);
        all
    }

    fn top_k(scores: &[f64], k: usize) -> Vec<(f64, usize)> {
        let mut out = Vec::new();
        stable_top_k(scores.iter().copied(), k, &mut out);
        out
    }

    #[test]
    fn stable_top_k_keeps_what_the_stable_sort_kept() {
        let tied = [0.5, 0.9, 0.5, 0.9, 0.1, 0.9, f64::NEG_INFINITY, 0.5];
        // K = 0 keeps nothing.
        assert!(top_k(&tied, 0).is_empty());
        // K = 1: the first of three tied maxima.
        assert_eq!(top_k(&tied, 1), vec![(0.9, 1)]);
        // K >= |layer|: everything, ties in index order.
        let all = top_k(&tied, tied.len() + 3);
        assert_eq!(all.len(), tied.len());
        assert_eq!(
            all.iter().map(|&(_, j)| j).collect::<Vec<_>>(),
            vec![1, 3, 5, 0, 2, 7, 4, 6]
        );
        for k in 0..=tied.len() + 1 {
            let (a, b) = (top_k(&tied, k), sorted_top_k(&tied, k));
            assert_eq!(a.len(), b.len(), "k={k}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!((x.0.to_bits(), x.1), (y.0.to_bits(), y.1), "k={k}");
            }
        }
        // All equal: the lowest indices win.
        assert_eq!(top_k(&[0.0; 5], 2), vec![(0.0, 0), (0.0, 1)]);
    }

    #[test]
    fn forward_dp_runs_one_search_per_previous_candidate() {
        let net = ladder();
        let index = SpatialIndex::build(&net, 100.0);
        let positions = vec![
            Point::new(10.0, 12.0),
            Point::new(120.0, -9.0),
            Point::new(230.0, 11.0),
            Point::new(295.0, -5.0),
        ];
        let mut model = classic_for(&positions);
        let (layers, _) = distance_layers(&net, &index, &positions, 5, 500.0, &mut model);
        let expected: u64 = layers[..layers.len() - 1].iter().map(|l| l.len() as u64).sum();
        let pts: Vec<(Point, f64)> = positions
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i as f64 * 30.0))
            .collect();
        let mut engine = HmmEngine::new(&net, EngineConfig::default());
        engine
            .try_find_path(&net, &pts, layers, &mut model)
            .expect("valid layers");
        // Algorithm 2's shortcut queries go through the cache, not here.
        assert_eq!(engine.take_dp_searches(), expected);
        assert_eq!(engine.take_dp_searches(), 0, "take resets the count");
    }

    #[test]
    fn single_point_trajectory_returns_best_candidate() {
        let net = ladder();
        let index = SpatialIndex::build(&net, 100.0);
        let pos = Point::new(150.0, 8.0);
        let mut model = classic_for(&[pos]);
        let pairs = nearest_segments(&net, &index, pos, 5, 500.0);
        let layers = vec![to_candidates(&mut model, 0, &pairs)];
        let mut engine = HmmEngine::new(&net, EngineConfig::default());
        let out = engine
            .try_find_path(&net, &[(pos, 0.0)], layers, &mut model)
            .expect("valid layers");
        assert_eq!(out.path.len(), 1);
        // The single matched segment is at the minimum distance (twin
        // directed segments tie, so compare distances rather than ids).
        let matched_dist = net.distance_to_segment(pos, out.path.segments[0]);
        assert!((matched_dist - pairs[0].1.distance).abs() < 1e-9);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::classic::{ClassicModel, ClassicObservation, ClassicTransition};
    use lhmm_network::generators::{generate_city, GeneratorConfig};
    use lhmm_network::spatial::SpatialIndex;
    use proptest::prelude::*;

    /// Exhaustive path enumeration over small candidate layers: the DP
    /// result (without shortcuts) must equal the best enumerated path.
    fn brute_force_best(
        net: &RoadNetwork,
        pts: &[(Point, f64)],
        layers: &[Vec<Candidate>],
        model: &mut ClassicModel,
        engine: &mut HmmEngine,
    ) -> f64 {
        #[allow(clippy::too_many_arguments)]
        fn recurse(
            net: &RoadNetwork,
            pts: &[(Point, f64)],
            layers: &[Vec<Candidate>],
            model: &mut ClassicModel,
            engine: &mut HmmEngine,
            i: usize,
            prev: usize,
            score: f64,
            best: &mut f64,
        ) {
            if i == layers.len() {
                if score > *best {
                    *best = score;
                }
                return;
            }
            let bound = pts[i - 1].0.distance(pts[i].0) * engine.cfg.max_route_factor
                + engine.cfg.route_slack;
            let prev_cand = layers[i - 1][prev];
            for (k, cur) in layers[i].iter().enumerate() {
                let route = engine.route_between(net, &prev_cand, cur, bound);
                let w = model.transition(i, &prev_cand, cur, &route_info(&route)) * cur.obs;
                recurse(net, pts, layers, model, engine, i + 1, k, score + w, best);
            }
        }
        let mut best = f64::NEG_INFINITY;
        for (j, c) in layers[0].iter().enumerate() {
            recurse(net, pts, layers, model, engine, 1, j, c.obs, &mut best);
        }
        best
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Viterbi (no shortcuts) finds the same optimum as exhaustive
        /// enumeration on tiny candidate sets.
        #[test]
        fn viterbi_matches_brute_force(seed in 0u64..50, px in 0.0..1000.0f64, py in 0.0..1000.0f64) {
            let net = generate_city(&GeneratorConfig::small_test(seed));
            let index = SpatialIndex::build(&net, 200.0);
            // A short synthetic 3-point trajectory moving east.
            let positions = vec![
                Point::new(px, py),
                Point::new(px + 260.0, py + 60.0),
                Point::new(px + 520.0, py - 40.0),
            ];
            let mut model = ClassicModel::new(
                ClassicObservation::cellular(),
                ClassicTransition::cellular(),
                positions.clone(),
            );
            let mut layers = Vec::new();
            for pos in &positions {
                let pairs = crate::candidates::nearest_segments(&net, &index, *pos, 3, 2_000.0);
                prop_assume!(!pairs.is_empty());
                layers.push(crate::candidates::to_candidates(&mut model, 0, &pairs));
            }
            let pts: Vec<(Point, f64)> = positions
                .iter()
                .enumerate()
                .map(|(i, &p)| (p, i as f64 * 30.0))
                .collect();
            let mut engine = HmmEngine::new(&net, EngineConfig { shortcuts: 0, ..Default::default() });
            let out = engine
                .try_find_path(&net, &pts, layers.clone(), &mut model)
                .expect("valid layers");
            let mut engine2 = HmmEngine::new(&net, EngineConfig { shortcuts: 0, ..Default::default() });
            let brute = brute_force_best(&net, &pts, &layers, &mut model, &mut engine2);
            prop_assert!((out.score - brute).abs() < 1e-9,
                "viterbi {} vs brute force {}", out.score, brute);
        }

        /// Adding shortcuts never lowers the winning score.
        #[test]
        fn shortcuts_never_hurt_score(seed in 0u64..50) {
            let net = generate_city(&GeneratorConfig::small_test(seed));
            let index = SpatialIndex::build(&net, 200.0);
            let positions = vec![
                Point::new(300.0, 300.0),
                Point::new(600.0, 350.0),
                Point::new(900.0, 280.0),
                Point::new(1200.0, 320.0),
            ];
            let mut model = ClassicModel::new(
                ClassicObservation::cellular(),
                ClassicTransition::cellular(),
                positions.clone(),
            );
            let mut layers = Vec::new();
            for pos in &positions {
                let pairs = crate::candidates::nearest_segments(&net, &index, *pos, 4, 2_000.0);
                prop_assume!(!pairs.is_empty());
                layers.push(crate::candidates::to_candidates(&mut model, 0, &pairs));
            }
            let pts: Vec<(Point, f64)> = positions
                .iter()
                .enumerate()
                .map(|(i, &p)| (p, i as f64 * 30.0))
                .collect();
            let mut plain = HmmEngine::new(&net, EngineConfig { shortcuts: 0, ..Default::default() });
            let s0 = plain
                .try_find_path(&net, &pts, layers.clone(), &mut model)
                .expect("valid layers").score;
            let mut sc = HmmEngine::new(&net, EngineConfig { shortcuts: 1, ..Default::default() });
            let s1 = sc
                .try_find_path(&net, &pts, layers, &mut model)
                .expect("valid layers").score;
            prop_assert!(s1 >= s0 - 1e-9, "shortcut score {} < plain {}", s1, s0);
        }
    }
}
