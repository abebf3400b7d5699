//! Online (streaming) HMM map matching with fixed-lag commitment.
//!
//! The paper's motivating applications (live traffic management, §I) need
//! matches *while the trip is ongoing*. This module runs the same Viterbi
//! recursion as [`crate::viterbi`] layer by layer: each observation extends
//! the DP frontier, and candidates older than a fixed `lag` are committed —
//! the standard fixed-lag smoothing trade-off between latency and accuracy.
//! Shortcuts are not available online (they need the successor layer), which
//! is also why the offline matcher remains the accuracy reference.
//!
//! A session's state is a pure function of the accepted `push` calls: the
//! shortest-path backend, cache temperature and SIMD kernel change speed,
//! never answers. So replaying the same accepted pushes into any engine on
//! the same network rebuilds the session byte-identically, and that replay
//! is the only way a served session moves between processes (the cluster
//! router's journal, `lhmm-serve`'s `cluster` module). The engine exposes
//! no serialized form of its DP state.

use crate::error::{sanitize_prob, Degradation, MatchError};
use crate::types::{Candidate, HmmProbabilities};
use crate::viterbi::{ForwardStep, HmmEngine};
use lhmm_geo::Point;
use lhmm_network::backend::SpHandle;
use lhmm_network::graph::RoadNetwork;
use lhmm_network::path::Path;
use lhmm_network::sp_cache::SpCache;

/// Incremental HMM state over one in-progress trajectory.
pub struct StreamingEngine<'a> {
    net: &'a RoadNetwork,
    /// The forward step [`crate::viterbi::HmmEngine`] runs, so both engines
    /// extend the DP identically.
    forward: ForwardStep,
    /// Reused `W` buffer (streaming has no Algorithm 2 to keep it for).
    w: Vec<f64>,
    sp_cache: SpCache,
    /// Commit lag in observations: a candidate is fixed once `lag` newer
    /// observations have arrived. 0 commits greedily every step.
    pub lag: usize,
    max_route_factor: f64,
    route_slack: f64,
    // DP state.
    layers: Vec<Vec<Candidate>>,
    pts: Vec<(Point, f64)>,
    f: Vec<Vec<f64>>,
    pre: Vec<Vec<Option<usize>>>,
    committed_upto: usize,
    committed_path: Path,
    last_committed: Option<Candidate>,
    degradation: Degradation,
}

impl<'a> StreamingEngine<'a> {
    /// Creates a streaming session on `net` with the given commit lag,
    /// using the default Dijkstra backend.
    pub fn new(net: &'a RoadNetwork, lag: usize) -> Self {
        Self::with_backend(net, lag, &SpHandle::default())
    }

    /// Creates a streaming session whose shortest-path queries run through
    /// `sp` (e.g. a prebuilt contraction hierarchy). Answers are bitwise
    /// identical across backends; only query speed differs.
    pub fn with_backend(net: &'a RoadNetwork, lag: usize, sp: &SpHandle) -> Self {
        StreamingEngine {
            net,
            forward: ForwardStep::new(net, sp),
            w: Vec::new(),
            sp_cache: SpCache::with_backend(net, HmmEngine::DEFAULT_CACHE_CAPACITY, sp),
            lag,
            max_route_factor: 4.0,
            route_slack: 3_000.0,
            layers: Vec::new(),
            pts: Vec::new(),
            f: Vec::new(),
            pre: Vec::new(),
            committed_upto: 0,
            committed_path: Path::empty(),
            last_committed: None,
            degradation: Degradation::default(),
        }
    }

    /// Number of observations consumed so far.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True before the first observation.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The path committed so far (grows as observations arrive).
    pub fn committed(&self) -> &Path {
        &self.committed_path
    }

    /// Degradation events accumulated so far (clamped scores, glued path
    /// gaps). The counters keep accumulating across pushes; a snapshot, not
    /// a drain — streaming sessions are long-lived.
    pub fn degradation(&self) -> Degradation {
        self.degradation
    }

    /// Feeds one observation with its scored candidate layer. Returns the
    /// number of newly committed observations.
    ///
    /// An empty candidate layer is rejected with
    /// [`MatchError::EmptyLayer`] and leaves the session state untouched:
    /// callers skip the unmatched observation and keep streaming (the same
    /// degradation the offline candidate preparation applies by dropping
    /// such points).
    pub fn push<M: HmmProbabilities + ?Sized>(
        &mut self,
        pos: Point,
        t: f64,
        candidates: Vec<Candidate>,
        model: &mut M,
    ) -> Result<usize, MatchError> {
        let i = self.layers.len();
        if candidates.is_empty() {
            return Err(MatchError::EmptyLayer { layer: i });
        }
        if i == 0 {
            let deg = &mut self.degradation;
            self.f
                .push(candidates.iter().map(|c| sanitize_prob(c.obs, deg)).collect());
            self.pre.push(vec![None; candidates.len()]);
        } else {
            let bound =
                self.pts[i - 1].0.distance(pos) * self.max_route_factor + self.route_slack;
            let (f_i, pre_i) = self.forward.run(
                self.net,
                model,
                i,
                bound,
                &self.layers[i - 1],
                &self.f[i - 1],
                &candidates,
                &mut self.w,
                &mut self.degradation,
            );
            self.f.push(f_i);
            self.pre.push(pre_i);
        }
        self.layers.push(candidates);
        self.pts.push((pos, t));
        Ok(self.commit_to(self.layers.len().saturating_sub(self.lag)))
    }

    /// Commits observations with index `< target` by backtracking from the
    /// current best frontier candidate.
    fn commit_to(&mut self, target: usize) -> usize {
        let frontier = self.layers.len() - 1;
        if target <= self.committed_upto {
            return 0;
        }
        // Backtrack the current best chain to find the decided candidates.
        // `push` guarantees every layer is non-empty, so the fallbacks below
        // are unreachable; `total_cmp` keeps the ordering deterministic even
        // if a score went NaN despite sanitization.
        let best_k = (0..self.layers[frontier].len())
            .max_by(|&a, &b| self.f[frontier][a].total_cmp(&self.f[frontier][b]))
            .unwrap_or(0);
        let mut chain = vec![best_k];
        let mut cur = best_k;
        for li in (1..=frontier).rev() {
            cur = self.pre[li][cur].unwrap_or(0);
            chain.push(cur);
        }
        chain.reverse(); // chain[i] = candidate index at layer i

        let mut committed_now = 0;
        while self.committed_upto < target {
            let li = self.committed_upto;
            let cand = self.layers[li][chain[li]];
            match self.last_committed {
                None => self.committed_path.segments.push(cand.seg),
                Some(p) => {
                    let bound = self.pts[li].0.distance(
                        self.pts[li.saturating_sub(1)].0,
                    ) * self.max_route_factor
                        + self.route_slack;
                    match self.sp_cache.route_between_projections(
                        self.net, p.seg, p.t, cand.seg, cand.t, bound,
                    ) {
                        Some(r) => self.committed_path.extend_with(&r.segments),
                        None => {
                            // Unroutable gap: glue the segments directly and
                            // count the discontinuity instead of stalling.
                            self.degradation.disconnected_joins += 1;
                            self.committed_path.segments.push(cand.seg);
                        }
                    }
                }
            }
            self.last_committed = Some(cand);
            self.committed_upto += 1;
            committed_now += 1;
        }
        self.committed_path.dedup_consecutive();
        committed_now
    }

    /// Flushes the remaining lag window, returns the complete path with
    /// the trip's [`Degradation`] (read after the flush, which can itself
    /// glue a disconnected gap, and before the reset), and resets the
    /// session for the next trajectory.
    ///
    /// The engine stays alive, so a long-lived server session (or a pool of
    /// reusable engines) amortizes the shortest-path cache across
    /// trajectories: [`SpCache`] state never changes answers, only speed,
    /// so a reused engine is byte-identical to a fresh one (pinned by
    /// `reused_engine_matches_fresh_engine`).
    pub fn finalize(&mut self) -> (Path, Degradation) {
        if !self.layers.is_empty() {
            self.commit_to(self.layers.len());
        }
        let path = std::mem::replace(&mut self.committed_path, Path::empty());
        let degradation = self.degradation;
        self.reset();
        (path, degradation)
    }

    /// Clears all per-trajectory state (DP frontier, committed prefix,
    /// [`Degradation`] counters) without touching the warm shortest-path
    /// cache. After `reset` the engine behaves exactly like a freshly
    /// constructed one.
    pub fn reset(&mut self) {
        self.layers.clear();
        self.pts.clear();
        self.f.clear();
        self.pre.clear();
        self.committed_upto = 0;
        self.committed_path = Path::empty();
        self.last_committed = None;
        self.degradation = Degradation::default();
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{nearest_segments, to_candidates};
    use crate::classic::{ClassicModel, ClassicObservation, ClassicTransition};
    use crate::viterbi::{EngineConfig, HmmEngine};
    use lhmm_cellsim::dataset::{Dataset, DatasetConfig};
    use lhmm_eval_shim::evaluate_recall;

    /// Tiny local shim to avoid a circular dev-dependency on lhmm-eval.
    mod lhmm_eval_shim {
        use lhmm_network::graph::RoadNetwork;
        use lhmm_network::path::Path;
        pub fn evaluate_recall(net: &RoadNetwork, matched: &Path, truth: &Path) -> f64 {
            let truth_set = truth.segment_set();
            let correct: f64 = matched
                .segment_set()
                .intersection(&truth_set)
                .map(|&s| net.segment(s).length)
                .sum();
            correct / truth.length(net)
        }
    }

    fn run_streaming(ds: &Dataset, rec_idx: usize, lag: usize) -> Path {
        let rec = &ds.test[rec_idx];
        let positions = rec.cellular.effective_positions();
        let mut model = ClassicModel::new(
            ClassicObservation::cellular(),
            ClassicTransition::cellular(),
            positions.clone(),
        );
        let mut stream = StreamingEngine::new(&ds.network, lag);
        for (i, p) in rec.cellular.points.iter().enumerate() {
            let pairs = nearest_segments(&ds.network, &ds.index, positions[i], 20, 3_000.0);
            if pairs.is_empty() {
                continue;
            }
            let layer = to_candidates(&mut model, i, &pairs);
            stream
                .push(positions[i], p.t, layer, &mut model)
                .expect("non-empty layer");
        }
        stream.finalize().0
    }

    #[test]
    fn streaming_produces_a_reasonable_path() {
        let ds = Dataset::generate(&DatasetConfig::tiny_test(201));
        let path = run_streaming(&ds, 0, 3);
        assert!(!path.is_empty());
        let recall = evaluate_recall(&ds.network, &path, &ds.test[0].truth);
        assert!(recall > 0.1, "streaming recall {recall}");
    }

    #[test]
    fn longer_lag_is_at_least_as_good_on_average() {
        let ds = Dataset::generate(&DatasetConfig::tiny_test(202));
        let mut greedy_sum = 0.0;
        let mut lagged_sum = 0.0;
        for i in 0..6 {
            greedy_sum += evaluate_recall(
                &ds.network,
                &run_streaming(&ds, i, 0),
                &ds.test[i].truth,
            );
            lagged_sum += evaluate_recall(
                &ds.network,
                &run_streaming(&ds, i, 4),
                &ds.test[i].truth,
            );
        }
        // Fixed-lag smoothing must not be systematically worse than greedy
        // commitment (it sees strictly more evidence per decision).
        assert!(
            lagged_sum >= greedy_sum - 0.3,
            "lagged {lagged_sum} much worse than greedy {greedy_sum}"
        );
    }

    #[test]
    fn full_lag_matches_offline_engine_without_shortcuts() {
        let ds = Dataset::generate(&DatasetConfig::tiny_test(203));
        let rec = &ds.test[1];
        let positions = rec.cellular.effective_positions();
        let mut model = ClassicModel::new(
            ClassicObservation::cellular(),
            ClassicTransition::cellular(),
            positions.clone(),
        );
        // Streaming with lag >= trajectory length == offline Viterbi.
        let offline_layers: Vec<Vec<Candidate>> = positions
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let pairs = nearest_segments(&ds.network, &ds.index, p, 15, 3_000.0);
                to_candidates(&mut model, i, &pairs)
            })
            .collect();
        let pts: Vec<(Point, f64)> = rec
            .cellular
            .points
            .iter()
            .map(|p| (p.effective_pos(), p.t))
            .collect();
        let mut engine = HmmEngine::new(
            &ds.network,
            EngineConfig {
                shortcuts: 0,
                ..Default::default()
            },
        );
        let offline = engine
            .try_find_path(&ds.network, &pts, offline_layers.clone(), &mut model)
            .expect("valid layers");

        let mut stream = StreamingEngine::new(&ds.network, positions.len() + 1);
        for ((i, p), layer) in rec.cellular.points.iter().enumerate().zip(offline_layers) {
            stream
                .push(positions[i], p.t, layer, &mut model)
                .expect("non-empty layer");
        }
        let (streamed, _) = stream.finalize();
        assert_eq!(streamed.segments, offline.path.segments);
    }

    /// One engine reused across trajectories must carry nothing over:
    /// every per-trajectory counter (Degradation, committed prefix, DP
    /// frontier) resets at `finalize`, so results and telemetry are
    /// byte-identical to fresh engines — the invariant the lhmm-serve
    /// session manager relies on when it pools sessions.
    #[test]
    fn reused_engine_matches_fresh_engine() {
        let ds = Dataset::generate(&DatasetConfig::tiny_test(206));
        let lag = 2;

        // Reference: one fresh engine per trajectory.
        let fresh: Vec<Path> = (0..3).map(|i| run_streaming(&ds, i, lag)).collect();

        // One engine reused across all three, with a degradation event
        // injected between trajectories (a rejected empty layer leaves
        // state untouched, but clamped scores inside a trajectory must not
        // leak into the next one's counters either).
        let mut stream = StreamingEngine::new(&ds.network, lag);
        for (i, want) in fresh.iter().enumerate() {
            let rec = &ds.test[i];
            let positions = rec.cellular.effective_positions();
            let mut model = ClassicModel::new(
                ClassicObservation::cellular(),
                ClassicTransition::cellular(),
                positions.clone(),
            );
            for (pi, p) in rec.cellular.points.iter().enumerate() {
                let pairs =
                    nearest_segments(&ds.network, &ds.index, positions[pi], 20, 3_000.0);
                if pairs.is_empty() {
                    continue;
                }
                let layer = to_candidates(&mut model, pi, &pairs);
                stream
                    .push(positions[pi], p.t, layer, &mut model)
                    .expect("non-empty layer");
            }
            let deg_before_finalize = stream.degradation();
            let (got, deg) = stream.finalize();
            assert_eq!(
                got.segments, want.segments,
                "trajectory {i}: reused engine diverged from fresh engine"
            );
            // finalize() may add disconnected_joins while flushing the lag
            // window, never fewer events than already accumulated.
            assert!(deg.disconnected_joins >= deg_before_finalize.disconnected_joins);
            assert!(stream.degradation() == Degradation::default(),
                "degradation counters leaked across finalize: {:?} (had {:?})",
                stream.degradation(), deg_before_finalize
            );
            assert!(stream.is_empty(), "observations leaked across finalize");
            assert!(
                stream.committed().is_empty(),
                "committed prefix leaked across finalize"
            );
        }
    }

    #[test]
    fn finalize_on_empty_session_is_empty_and_reusable() {
        let ds = Dataset::generate(&DatasetConfig::tiny_test(207));
        let mut stream = StreamingEngine::new(&ds.network, 1);
        assert!(stream.finalize().0.is_empty());
        // Still usable afterwards.
        let path = {
            let rec = &ds.test[0];
            let positions = rec.cellular.effective_positions();
            let mut model = ClassicModel::new(
                ClassicObservation::cellular(),
                ClassicTransition::cellular(),
                positions.clone(),
            );
            for (pi, p) in rec.cellular.points.iter().enumerate() {
                let pairs =
                    nearest_segments(&ds.network, &ds.index, positions[pi], 20, 3_000.0);
                if pairs.is_empty() {
                    continue;
                }
                let layer = to_candidates(&mut model, pi, &pairs);
                stream
                    .push(positions[pi], p.t, layer, &mut model)
                    .expect("non-empty layer");
            }
            stream.finalize().0
        };
        assert!(!path.is_empty());
    }

    #[test]
    fn empty_stream_finishes_empty() {
        let ds = Dataset::generate(&DatasetConfig::tiny_test(204));
        let mut stream = StreamingEngine::new(&ds.network, 2);
        assert!(stream.is_empty());
        assert!(stream.finalize().0.is_empty());
    }

    #[test]
    fn empty_layer_is_rejected_without_corrupting_state() {
        let ds = Dataset::generate(&DatasetConfig::tiny_test(205));
        let rec = &ds.test[0];
        let positions = rec.cellular.effective_positions();
        let mut model = ClassicModel::new(
            ClassicObservation::cellular(),
            ClassicTransition::cellular(),
            positions.clone(),
        );
        let mut stream = StreamingEngine::new(&ds.network, 0);
        let pairs = nearest_segments(&ds.network, &ds.index, positions[0], 10, 3_000.0);
        let layer = to_candidates(&mut model, 0, &pairs);
        stream
            .push(positions[0], rec.cellular.points[0].t, layer.clone(), &mut model)
            .expect("non-empty layer");
        let before = stream.len();
        let err = stream
            .push(positions[0], rec.cellular.points[0].t + 30.0, vec![], &mut model)
            .unwrap_err();
        assert_eq!(err, MatchError::EmptyLayer { layer: 1 });
        // Session untouched: the next real push still works.
        assert_eq!(stream.len(), before);
        stream
            .push(positions[0], rec.cellular.points[0].t + 60.0, layer, &mut model)
            .expect("non-empty layer");
        assert!(!stream.finalize().0.is_empty());
    }
}
