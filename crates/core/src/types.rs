//! Shared matching types and traits.

use crate::error::Degradation;
use lhmm_cellsim::tower::TowerField;
use lhmm_cellsim::traj::CellularTrajectory;
use lhmm_geo::Point;
use lhmm_network::backend::SpEngine;
use lhmm_network::graph::{NodeId, RoadNetwork, SegmentId};
use lhmm_network::path::Path;
use lhmm_network::shortest_path::{RouteForest, NO_ENTRY};
use lhmm_network::spatial::SpatialIndex;

/// One candidate road segment for a trajectory point.
#[derive(Clone, Copy, Debug)]
pub struct Candidate {
    /// The candidate road segment.
    pub seg: SegmentId,
    /// Normalized projection position of the trajectory point along the
    /// segment, in `[0, 1]`.
    pub t: f64,
    /// Observation probability `P_O(c | x)` in `[0, 1]`, precomputed during
    /// candidate preparation.
    pub obs: f64,
}

/// The route between two candidates, as handed to transition models.
#[derive(Clone, Copy, Debug)]
pub struct RouteInfo<'a> {
    /// False when no route exists within the search bound.
    pub found: bool,
    /// Route length in meters (including partial first/last segments);
    /// meaningless when `found` is false.
    pub length: f64,
    /// Traversed segments; empty when `found` is false.
    pub segments: &'a [SegmentId],
}

impl RouteInfo<'_> {
    /// The not-found sentinel.
    pub fn missing() -> Self {
        RouteInfo {
            found: false,
            length: f64::INFINITY,
            segments: &[],
        }
    }
}

/// The routes of one layer transition (`layer i-1 → layer i`), reused from
/// layer to layer by the engine.
///
/// All routes out of previous-layer candidate `j` share that candidate's
/// segment as their first segment and the one-to-many search's tree after
/// it, so they are stored as a [`RouteForest`]: a root per `j` with a
/// routed pair (`prev.seg`), the grafted search-tree paths under it, and
/// one leaf per routed pair (`cur.seg`). Pair `(j, k)` points at the entry
/// that ends its route. A route staying on `prev.seg` ends at the root
/// itself.
#[derive(Clone, Debug, Default)]
pub struct LayerRoutes {
    forest: RouteForest,
    /// Row-major `(j, k)`: the entry ending the route (or [`NO_ENTRY`]
    /// when unroutable) and its length in meters.
    pub(crate) pairs: Vec<(u32, f64)>,
    n_cur: usize,
    /// Build buffers: one search's target nodes and answers.
    targets: Vec<Option<NodeId>>,
    inner: Vec<Option<(u32, f64)>>,
}

impl LayerRoutes {
    /// Refills the arena with the routes `prev_layer → cur_layer` within
    /// `bound` meters: per previous candidate, one one-to-many search to the
    /// start nodes of the current candidates, grafted under a root holding
    /// `prev.seg`; per found pair, a leaf holding `cur.seg`. Lengths include
    /// the partial first and last segments. Keeps every buffer's capacity.
    pub fn build(
        &mut self,
        net: &RoadNetwork,
        sp: &mut SpEngine,
        prev_layer: &[Candidate],
        cur_layer: &[Candidate],
        bound: f64,
    ) {
        self.forest.clear();
        self.pairs.clear();
        self.n_cur = cur_layer.len();
        for prev in prev_layer {
            let prev_seg = net.segment(prev.seg);
            let head = prev_seg.length * (1.0 - prev.t);
            // Staying on (or advancing along) the same segment needs no
            // search; every other pair needs its start node reached.
            let stays = |cur: &Candidate| cur.seg == prev.seg && cur.t >= prev.t;
            self.targets.clear();
            self.targets.extend(
                cur_layer
                    .iter()
                    .map(|c| (!stays(c)).then(|| net.segment(c.seg).from)),
            );
            let root_at = self.forest.len();
            let root = self.forest.push(NO_ENTRY, prev.seg);
            sp.tree_to_nodes(
                net,
                prev_seg.to,
                &self.targets,
                bound,
                root,
                &mut self.forest,
                &mut self.inner,
            );
            let mut any_found = false;
            for (cur, inner) in cur_layer.iter().zip(&self.inner) {
                let pair = if stays(cur) {
                    (root, prev_seg.length * (cur.t - prev.t))
                } else if let Some((end, inner_len)) = *inner {
                    let tail = net.segment(cur.seg).length * cur.t;
                    (self.forest.push(end, cur.seg), head + inner_len + tail)
                } else {
                    (NO_ENTRY, f64::INFINITY)
                };
                any_found |= pair.0 != NO_ENTRY;
                self.pairs.push(pair);
            }
            if !any_found {
                // Keep the forest to roads some route uses.
                self.forest.truncate(root_at);
            }
        }
    }

    /// The route prefixes of this layer; parents precede children.
    pub fn forest(&self) -> &RouteForest {
        &self.forest
    }

    /// `(entry ending the route, length)` of pair `(j, k)`, or `None` when
    /// no route exists within the search bound.
    pub fn pair(&self, j: usize, k: usize) -> Option<(u32, f64)> {
        let (e, len) = self.pairs[j * self.n_cur + k];
        (e != NO_ENTRY).then_some((e, len))
    }

    /// The route of pair `(j, k)`, with its segments written into `buf`.
    pub fn route<'b>(&self, j: usize, k: usize, buf: &'b mut Vec<SegmentId>) -> RouteInfo<'b> {
        match self.pair(j, k) {
            Some((e, length)) => {
                self.forest.segments_into(e, buf);
                RouteInfo {
                    found: true,
                    length,
                    segments: buf,
                }
            }
            None => RouteInfo::missing(),
        }
    }
}

/// The two probabilities every HMM matcher plugs into the engine
/// (heuristic for the baselines, learned for LHMM).
pub trait HmmProbabilities {
    /// Observation probability of placing trajectory point `i` on `seg`
    /// with projection distance `dist` meters. Must lie in `[0, 1]`.
    fn observation(&mut self, i: usize, seg: SegmentId, dist: f64) -> f64;

    /// Transition probability of moving from `prev` (point `i - 1`) to
    /// `cur` (point `i`) along `route`. Must lie in `[0, 1]`.
    fn transition(
        &mut self,
        i: usize,
        prev: &Candidate,
        cur: &Candidate,
        route: &RouteInfo,
    ) -> f64;

    /// Transition probabilities for a whole layer, row-major: entry
    /// `j * cur_layer.len() + k` of `out` receives what
    /// `transition(i, &prev_layer[j], &cur_layer[k], route)` returns for
    /// the route `routes` holds for pair `(j, k)`. Overrides must return
    /// exactly those values; they exist to share work across the layer.
    /// The default is the per-pair loop [`transitions_per_pair`].
    fn transition_layer(
        &mut self,
        i: usize,
        prev_layer: &[Candidate],
        cur_layer: &[Candidate],
        routes: &LayerRoutes,
        out: &mut [f64],
    ) {
        transitions_per_pair(self, i, prev_layer, cur_layer, routes, out);
    }
}

/// The reference form of [`HmmProbabilities::transition_layer`]: one
/// [`HmmProbabilities::transition`] call per pair, in row-major order.
pub fn transitions_per_pair<M: HmmProbabilities + ?Sized>(
    model: &mut M,
    i: usize,
    prev_layer: &[Candidate],
    cur_layer: &[Candidate],
    routes: &LayerRoutes,
    out: &mut [f64],
) {
    let mut buf = Vec::new();
    for (j, prev) in prev_layer.iter().enumerate() {
        for (k, cur) in cur_layer.iter().enumerate() {
            let route = routes.route(j, k, &mut buf);
            out[j * cur_layer.len() + k] = model.transition(i, prev, cur, &route);
        }
    }
}

/// Result of matching one trajectory.
#[derive(Clone, Debug)]
pub struct MatchResult {
    /// The matched path (may be empty when matching failed entirely).
    pub path: Path,
    /// Per-point candidate road sets, for hitting-ratio evaluation.
    /// `None` for matchers without a candidate stage (seq2seq baselines).
    pub candidate_sets: Option<Vec<Vec<SegmentId>>>,
}

impl MatchResult {
    /// An empty (failed) result.
    pub fn empty() -> Self {
        MatchResult {
            path: Path::empty(),
            candidate_sets: None,
        }
    }
}

/// Per-trajectory engine telemetry, threaded from the Viterbi engine up
/// through batch matching and evaluation.
///
/// The four stage timers partition one match: candidate preparation
/// (including batched `P_O` scoring), then the path-finding engine, whose
/// wall time further splits into `P_O` re-scoring, `P_T` scoring and
/// shortest-path search (the remainder is the DP itself). The scratch
/// counters prove the allocation-free claim of the vectorized scoring path:
/// on a warm engine `scratch_allocs` stays 0 for every subsequent match.
#[derive(Clone, Copy, Debug, Default)]
pub struct MatchStats {
    /// Wall-clock time of candidate preparation (spatial queries + batched
    /// observation scoring), seconds.
    pub candidate_time_s: f64,
    /// Wall-clock time spent in the path-finding engine, seconds
    /// (candidate preparation excluded).
    pub viterbi_time_s: f64,
    /// Time inside observation (`P_O`) scoring, seconds — both the
    /// candidate-preparation batches and engine re-scores.
    pub obs_time_s: f64,
    /// Time inside transition (`P_T`) scoring, seconds.
    pub trans_time_s: f64,
    /// Time inside shortest-path searches and cache lookups, seconds.
    pub sp_time_s: f64,
    /// Observation scoring calls (candidate batches).
    pub obs_calls: u64,
    /// Candidate rows scored through `P_O`.
    pub obs_rows: u64,
    /// Candidate pairs scored through the learned `P_T` (routed pairs of
    /// the forward DP plus Algorithm 2's ad-hoc pairs).
    pub trans_calls: u64,
    /// Roads scored through the road-relevance batches of `P_T`.
    pub trans_rows: u64,
    /// Fresh scratch-arena buffer allocations during this match (0 on a
    /// warm engine — the zero-allocation invariant of the fast path).
    pub scratch_allocs: u64,
    /// High-water scratch-arena footprint, bytes (max over merges).
    pub scratch_bytes: u64,
    /// One-to-many route searches the forward DP ran (one per
    /// previous-layer candidate per layer). They bypass the shortest-path
    /// cache, so the three cache counters below do not include them.
    pub dp_searches: u64,
    /// Point-to-point route queries of Algorithm 2 and backtracking
    /// answered by the worker's private cache shard.
    pub cache_hits: u64,
    /// Point-to-point route queries of Algorithm 2 and backtracking
    /// answered by the shared warm layer.
    pub cache_warm_hits: u64,
    /// Point-to-point route queries of Algorithm 2 and backtracking that
    /// ran a search.
    pub cache_misses: u64,
    /// One-time shortest-path preprocessing time for the model's backend
    /// (contraction-hierarchy build; 0 for Dijkstra). Per-model constant:
    /// merges take the max instead of summing across workers.
    pub sp_preprocess_time_s: f64,
    /// Shortcut edges the shortest-path preprocessing added (0 for
    /// Dijkstra). Per-model constant: merges take the max.
    pub sp_shortcuts: u64,
    /// Candidates added by shortcut construction (Algorithm 2 activations).
    pub shortcut_activations: u64,
    /// Matched-chain points routed through a shortcut candidate.
    pub shortcut_points: u64,
    /// Graceful-degradation event counters for this match (dropped points,
    /// glued path gaps, clamped scores, failed matches mapped to empty
    /// results). `degradation.any()` flags a best-effort result.
    pub degradation: Degradation,
    /// Name of the SIMD inference kernel that scored this match
    /// (`lhmm_neural::kernel::active().name()`: "scalar", "sse2", "avx2"
    /// or "neon"); `""` until an engine populates it. All kernels are
    /// bit-identical, so this is provenance telemetry, not a result
    /// qualifier.
    pub kernel: &'static str,
    /// Registry version of the model that served this match (0 when the
    /// match ran outside a registry — offline training/eval paths). Set by
    /// the serving layer at admission time, so a rollup exposes which
    /// model version produced each verdict even across a hot swap.
    pub model_version: u32,
}

impl MatchStats {
    /// Accumulates `other` into `self` (per-worker and per-batch rollups).
    pub fn merge(&mut self, other: &MatchStats) {
        self.candidate_time_s += other.candidate_time_s;
        self.viterbi_time_s += other.viterbi_time_s;
        self.obs_time_s += other.obs_time_s;
        self.trans_time_s += other.trans_time_s;
        self.sp_time_s += other.sp_time_s;
        self.obs_calls += other.obs_calls;
        self.obs_rows += other.obs_rows;
        self.trans_calls += other.trans_calls;
        self.trans_rows += other.trans_rows;
        self.scratch_allocs += other.scratch_allocs;
        self.scratch_bytes = self.scratch_bytes.max(other.scratch_bytes);
        self.dp_searches += other.dp_searches;
        self.cache_hits += other.cache_hits;
        self.cache_warm_hits += other.cache_warm_hits;
        self.cache_misses += other.cache_misses;
        self.sp_preprocess_time_s = self.sp_preprocess_time_s.max(other.sp_preprocess_time_s);
        self.sp_shortcuts = self.sp_shortcuts.max(other.sp_shortcuts);
        self.shortcut_activations += other.shortcut_activations;
        self.shortcut_points += other.shortcut_points;
        self.degradation.merge(&other.degradation);
        // Kernel choice is process-wide, so any non-empty name wins; keep
        // the first so rollups over defaulted stats stay stable.
        if self.kernel.is_empty() {
            self.kernel = other.kernel;
        }
        // Version provenance: keep the first non-zero version seen, so a
        // rollup over defaulted stats reports the version that served it.
        if self.model_version == 0 {
            self.model_version = other.model_version;
        }
    }

    /// True when this match (or rollup) produced a best-effort, degraded
    /// result — see [`Degradation`] for what counts.
    pub fn degraded(&self) -> bool {
        self.degradation.any()
    }
}

/// Read-only context a matcher needs at inference time.
#[derive(Clone, Copy)]
pub struct MatchContext<'a> {
    /// The road network.
    pub net: &'a RoadNetwork,
    /// Spatial index over road segments.
    pub index: &'a SpatialIndex,
    /// The tower field (for tower-identity features).
    pub towers: &'a TowerField,
}

/// A cellular-trajectory map matcher. All baselines and LHMM implement this.
pub trait MapMatcher {
    /// Short display name used in result tables ("LHMM", "STM", ...).
    fn name(&self) -> &str;

    /// Matches one trajectory onto the road network.
    fn match_trajectory(&mut self, ctx: &MatchContext<'_>, traj: &CellularTrajectory)
        -> MatchResult;
}

/// Per-point effective positions and timestamps, the engine's view of a
/// trajectory.
pub fn positions_and_times(traj: &CellularTrajectory) -> Vec<(Point, f64)> {
    traj.points
        .iter()
        .map(|p| (p.effective_pos(), p.t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_info_missing_is_inert() {
        let r = RouteInfo::missing();
        assert!(!r.found);
        assert!(r.segments.is_empty());
        assert!(r.length.is_infinite());
    }

    #[test]
    fn merge_sums_dp_searches() {
        let mut a = MatchStats {
            dp_searches: 3,
            ..MatchStats::default()
        };
        a.merge(&MatchStats {
            dp_searches: 4,
            ..MatchStats::default()
        });
        assert_eq!(a.dp_searches, 7);
    }

    #[test]
    fn match_result_empty() {
        let r = MatchResult::empty();
        assert!(r.path.is_empty());
        assert!(r.candidate_sets.is_none());
    }
}
