//! Online (streaming) HMM map matching with fixed-lag commitment.
//!
//! The paper's motivating applications (live traffic management, §I) need
//! matches *while the trip is ongoing*. This module runs the same Viterbi
//! recursion as [`crate::viterbi`] layer by layer: each observation extends
//! the DP frontier, and candidates older than a fixed `lag` are committed —
//! the standard fixed-lag smoothing trade-off between latency and accuracy.
//! Shortcuts are not available online (they need the successor layer), which
//! is also why the offline matcher remains the accuracy reference.

use crate::error::{sanitize_prob, Degradation, MatchError};
use crate::types::{Candidate, HmmProbabilities};
use crate::viterbi::ForwardStep;
use lhmm_geo::Point;
use lhmm_network::backend::SpHandle;
use lhmm_network::graph::{RoadNetwork, SegmentId};
use lhmm_network::path::Path;
use lhmm_network::sp_cache::SpCache;
use std::fmt;

/// A serializable photograph of one in-progress streaming session: the DP
/// frontier inside the lag window plus the committed prefix. Restoring it
/// into any [`StreamingEngine`] on the same network — same process or a
/// different shard — continues the session byte-identically to one that was
/// never interrupted, because every field the recursion reads is carried
/// and the shortest-path layer never changes answers (only speed).
///
/// The state is a pure function of the accepted `push` calls, so it carries
/// no engine identity: kernel choice, SP backend, and cache temperature are
/// all excluded by construction.
#[derive(Clone, Debug)]
pub struct BeamState {
    /// Commit lag of the captured session.
    pub lag: usize,
    /// Candidate layers, one per accepted observation.
    pub layers: Vec<Vec<Candidate>>,
    /// Effective position and timestamp per observation.
    pub pts: Vec<(Point, f64)>,
    /// Viterbi log-domain scores per layer.
    pub f: Vec<Vec<f64>>,
    /// Backpointers per layer (`None` on layer 0 and for unreachable
    /// candidates).
    pub pre: Vec<Vec<Option<usize>>>,
    /// Observations already committed (prefix length).
    pub committed_upto: usize,
    /// Segments of the committed path so far.
    pub committed: Vec<SegmentId>,
    /// The candidate the committed path ends on, if any.
    pub last_committed: Option<Candidate>,
    /// Degradation counters accumulated so far.
    pub degradation: Degradation,
}

/// Bitwise equality: `f64` fields compare by bit pattern so two states are
/// equal exactly when a continued session cannot distinguish them. (`NaN ==
/// NaN` under this ordering, `0.0 != -0.0` — the same discipline as the
/// engine's `total_cmp` scoring.)
impl PartialEq for BeamState {
    fn eq(&self, other: &Self) -> bool {
        fn cand_eq(a: &Candidate, b: &Candidate) -> bool {
            a.seg == b.seg && a.t.to_bits() == b.t.to_bits() && a.obs.to_bits() == b.obs.to_bits()
        }
        self.lag == other.lag
            && self.layers.len() == other.layers.len()
            && self
                .layers
                .iter()
                .zip(&other.layers)
                .all(|(x, y)| x.len() == y.len() && x.iter().zip(y).all(|(a, b)| cand_eq(a, b)))
            && self.pts.len() == other.pts.len()
            && self.pts.iter().zip(&other.pts).all(|(a, b)| {
                a.0.x.to_bits() == b.0.x.to_bits()
                    && a.0.y.to_bits() == b.0.y.to_bits()
                    && a.1.to_bits() == b.1.to_bits()
            })
            && self.f.len() == other.f.len()
            && self.f.iter().zip(&other.f).all(|(x, y)| {
                x.len() == y.len() && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
            })
            && self.pre == other.pre
            && self.committed_upto == other.committed_upto
            && self.committed == other.committed
            && match (&self.last_committed, &other.last_committed) {
                (None, None) => true,
                (Some(a), Some(b)) => cand_eq(a, b),
                _ => false,
            }
            && self.degradation == other.degradation
    }
}

impl BeamState {
    /// Effective positions of the captured observations, in push order —
    /// exactly what a position-indexed observation model (e.g.
    /// `ClassicModel`) must be rebuilt with before continuing the session.
    pub fn positions(&self) -> Vec<Point> {
        self.pts.iter().map(|&(p, _)| p).collect()
    }

    /// Checks the structural invariants every state captured from a real
    /// session satisfies: parallel per-layer arrays, non-empty layers,
    /// in-range backpointers, a committed prefix no longer than the
    /// session, and a `last_committed` present exactly when something was
    /// committed. Wire decoders call this so a corrupted frame surfaces as
    /// a typed error, never as a panic inside the engine.
    pub fn validate(&self) -> Result<(), SnapshotError> {
        let n = self.layers.len();
        if self.pts.len() != n || self.f.len() != n || self.pre.len() != n {
            return Err(SnapshotError("per-layer arrays disagree on length"));
        }
        for (i, layer) in self.layers.iter().enumerate() {
            if layer.is_empty() {
                return Err(SnapshotError("empty candidate layer"));
            }
            if self.f[i].len() != layer.len() || self.pre[i].len() != layer.len() {
                return Err(SnapshotError("layer arrays disagree on candidate count"));
            }
            for p in &self.pre[i] {
                match *p {
                    None => {}
                    Some(_) if i == 0 => {
                        return Err(SnapshotError("backpointer on first layer"));
                    }
                    Some(j) if j >= self.layers[i - 1].len() => {
                        return Err(SnapshotError("backpointer out of range"));
                    }
                    Some(_) => {}
                }
            }
        }
        if self.committed_upto > n {
            return Err(SnapshotError("committed prefix longer than session"));
        }
        if self.last_committed.is_some() != (self.committed_upto > 0) {
            return Err(SnapshotError("last_committed disagrees with committed prefix"));
        }
        if self.committed_upto == 0 && !self.committed.is_empty() {
            return Err(SnapshotError("committed segments without committed prefix"));
        }
        Ok(())
    }

    /// [`BeamState::validate`] plus segment-id bounds against a concrete
    /// network — the full check a shard runs before admitting foreign state.
    pub fn validate_for(&self, net: &RoadNetwork) -> Result<(), SnapshotError> {
        self.validate()?;
        let num = net.num_segments();
        let seg_ok = |s: SegmentId| s.idx() < num;
        for layer in &self.layers {
            if !layer.iter().all(|c| seg_ok(c.seg)) {
                return Err(SnapshotError("candidate segment id out of range"));
            }
        }
        if !self.committed.iter().all(|&s| seg_ok(s)) {
            return Err(SnapshotError("committed segment id out of range"));
        }
        if let Some(c) = self.last_committed {
            if !seg_ok(c.seg) {
                return Err(SnapshotError("last committed segment id out of range"));
            }
        }
        Ok(())
    }
}

/// A beam-state snapshot failed validation on restore (or wire decode).
/// The payload names the violated invariant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotError(pub &'static str);

impl fmt::Display for SnapshotError {
    fn fmt(&self, fm: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(fm, "invalid beam state: {}", self.0)
    }
}

impl std::error::Error for SnapshotError {}

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
            sp_cache: SpCache::with_backend(net, 100_000, sp),
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

    /// Flushes the remaining lag window and returns the complete path.
    pub fn finish(mut self) -> Path {
        self.finalize()
    }

    /// Flushes the remaining lag window, returns the complete path, and
    /// resets the session for the next trajectory.
    ///
    /// Unlike [`StreamingEngine::finish`] this keeps the engine alive, so a
    /// long-lived server session (or a pool of reusable engines) amortizes
    /// the shortest-path cache across trajectories: [`SpCache`] state never
    /// changes answers, only speed, so a reused engine is byte-identical to
    /// a fresh one (pinned by `reused_engine_matches_fresh_engine`).
    pub fn finalize(&mut self) -> Path {
        if self.layers.is_empty() {
            self.reset();
            return Path::empty();
        }
        self.commit_to(self.layers.len());
        let path = std::mem::replace(&mut self.committed_path, Path::empty());
        self.reset();
        path
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

    /// Captures the complete per-session state for handoff to another
    /// engine (possibly in another process). Non-destructive: the session
    /// keeps running here unless the caller also [`StreamingEngine::reset`]s
    /// it. The snapshot carries everything `push`/`commit_to` read, so a
    /// restored session continues byte-identically — pinned by the
    /// round-trip tests below across kernels and SP backends.
    pub fn snapshot(&self) -> BeamState {
        BeamState {
            lag: self.lag,
            layers: self.layers.clone(),
            pts: self.pts.clone(),
            f: self.f.clone(),
            pre: self.pre.clone(),
            committed_upto: self.committed_upto,
            committed: self.committed_path.segments.clone(),
            last_committed: self.last_committed,
            degradation: self.degradation,
        }
    }

    /// Replaces this engine's session state with a snapshot captured
    /// elsewhere, after validating it structurally and against this
    /// network's segment-id space. On error the engine is left untouched.
    /// The warm shortest-path cache is kept — cache state never changes
    /// answers, only speed.
    pub fn restore(&mut self, state: BeamState) -> Result<(), SnapshotError> {
        state.validate_for(self.net)?;
        self.lag = state.lag;
        self.layers = state.layers;
        self.pts = state.pts;
        self.f = state.f;
        self.pre = state.pre;
        self.committed_upto = state.committed_upto;
        self.committed_path = Path {
            segments: state.committed,
        };
        self.last_committed = state.last_committed;
        self.degradation = state.degradation;
        Ok(())
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
        stream.finish()
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
        let offline = engine.find_path(&ds.network, &pts, offline_layers.clone(), &mut model);

        let mut stream = StreamingEngine::new(&ds.network, positions.len() + 1);
        for ((i, p), layer) in rec.cellular.points.iter().enumerate().zip(offline_layers) {
            stream
                .push(positions[i], p.t, layer, &mut model)
                .expect("non-empty layer");
        }
        let streamed = stream.finish();
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
            let got = stream.finalize();
            assert_eq!(
                got.segments, want.segments,
                "trajectory {i}: reused engine diverged from fresh engine"
            );
            // finalize() may add disconnected_joins while flushing the lag
            // window, never fewer events than already accumulated.
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
        assert!(stream.finalize().is_empty());
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
            stream.finalize()
        };
        assert!(!path.is_empty());
    }

    #[test]
    fn empty_stream_finishes_empty() {
        let ds = Dataset::generate(&DatasetConfig::tiny_test(204));
        let stream = StreamingEngine::new(&ds.network, 2);
        assert!(stream.is_empty());
        assert!(stream.finish().is_empty());
    }

    /// Per-accepted-push inputs for one trajectory, with model positions
    /// compacted to accepted pushes only (the serve session discipline).
    fn stream_inputs(ds: &Dataset, rec_idx: usize) -> Vec<(Point, f64, Vec<Candidate>)> {
        let rec = &ds.test[rec_idx];
        let positions = rec.cellular.effective_positions();
        let mut model = ClassicModel::new(
            ClassicObservation::cellular(),
            ClassicTransition::cellular(),
            positions.clone(),
        );
        let mut out = Vec::new();
        for (i, p) in rec.cellular.points.iter().enumerate() {
            let pairs = nearest_segments(&ds.network, &ds.index, positions[i], 20, 3_000.0);
            if pairs.is_empty() {
                continue;
            }
            out.push((positions[i], p.t, to_candidates(&mut model, i, &pairs)));
        }
        out
    }

    fn fresh_compact_model() -> ClassicModel {
        ClassicModel::new(
            ClassicObservation::cellular(),
            ClassicTransition::cellular(),
            Vec::new(),
        )
    }

    /// Satellite: snapshot → restore (possibly onto a different SP backend)
    /// → continued pushes are byte-identical to an uninterrupted session.
    /// Compared at full [`BeamState`] granularity after every post-cut push,
    /// not just on the final path.
    #[test]
    fn snapshot_restore_round_trip_is_byte_identical_across_sp_backends() {
        use lhmm_network::backend::SpBackend;
        let ds = Dataset::generate(&DatasetConfig::tiny_test(208));
        let inputs = stream_inputs(&ds, 0);
        assert!(inputs.len() >= 4, "trajectory too short to cut");
        let cut = inputs.len() / 2;
        let lag = 3;

        for (src, dst) in [
            (SpBackend::Dijkstra, SpBackend::Dijkstra),
            (SpBackend::Dijkstra, SpBackend::Ch),
            (SpBackend::Ch, SpBackend::Dijkstra),
        ] {
            let src_sp = SpHandle::build(&ds.network, src);
            let dst_sp = SpHandle::build(&ds.network, dst);

            // Reference: one uninterrupted session on the source backend.
            let mut ref_model = fresh_compact_model();
            let mut reference = StreamingEngine::with_backend(&ds.network, lag, &src_sp);
            // Interrupted twin, cut over to a fresh engine mid-stream.
            let mut cut_model = fresh_compact_model();
            let mut interrupted = StreamingEngine::with_backend(&ds.network, lag, &src_sp);

            for (i, (pos, t, layer)) in inputs.iter().enumerate() {
                if i == cut {
                    let state = interrupted.snapshot();
                    state.validate_for(&ds.network).expect("captured state valid");
                    let mut restored =
                        StreamingEngine::with_backend(&ds.network, lag, &dst_sp);
                    restored.restore(state.clone()).expect("restore");
                    assert_eq!(restored.snapshot(), state, "restore is lossless");
                    interrupted = restored;
                    cut_model = ClassicModel::new(
                        ClassicObservation::cellular(),
                        ClassicTransition::cellular(),
                        state.positions(),
                    );
                }
                ref_model.positions.push(*pos);
                cut_model.positions.push(*pos);
                reference
                    .push(*pos, *t, layer.clone(), &mut ref_model)
                    .expect("non-empty layer");
                interrupted
                    .push(*pos, *t, layer.clone(), &mut cut_model)
                    .expect("non-empty layer");
                assert_eq!(
                    interrupted.snapshot(),
                    reference.snapshot(),
                    "state diverged after push {i} ({src:?} -> {dst:?})"
                );
            }
            let want = reference.finish();
            let got = interrupted.finish();
            assert_eq!(got.segments, want.segments, "{src:?} -> {dst:?}");
        }
    }

    /// Satellite: the snapshot path is invariant under the SIMD kernel in
    /// use — every supported kernel yields the same bytes as the scalar
    /// reference for the interrupted-and-restored session.
    #[test]
    fn snapshot_restore_is_kernel_invariant() {
        use lhmm_neural::kernel::{force_scope, Kernel};
        let ds = Dataset::generate(&DatasetConfig::tiny_test(209));
        let inputs = stream_inputs(&ds, 2);
        assert!(inputs.len() >= 4, "trajectory too short to cut");
        let cut = inputs.len() / 2;
        let lag = 2;

        let run_interrupted = || {
            let mut model = fresh_compact_model();
            let mut stream = StreamingEngine::new(&ds.network, lag);
            for (i, (pos, t, layer)) in inputs.iter().enumerate() {
                if i == cut {
                    let state = stream.snapshot();
                    let mut restored = StreamingEngine::new(&ds.network, lag);
                    restored.restore(state.clone()).expect("restore");
                    stream = restored;
                    model = ClassicModel::new(
                        ClassicObservation::cellular(),
                        ClassicTransition::cellular(),
                        state.positions(),
                    );
                }
                model.positions.push(*pos);
                stream
                    .push(*pos, *t, layer.clone(), &mut model)
                    .expect("non-empty layer");
            }
            let state = stream.snapshot();
            (state, stream.finish())
        };

        let reference = {
            let _g = force_scope(Kernel::Scalar).expect("scalar always available");
            run_interrupted()
        };
        for k in [Kernel::Sse2, Kernel::Avx2, Kernel::Neon] {
            let Some(_g) = force_scope(k) else { continue };
            let (state, path) = run_interrupted();
            assert_eq!(state, reference.0, "final beam state differs under {k:?}");
            assert_eq!(
                path.segments, reference.1.segments,
                "final path differs under {k:?}"
            );
        }
    }

    /// Restore refuses structurally corrupt or out-of-range states with a
    /// typed error and leaves the running session untouched.
    #[test]
    fn restore_rejects_corrupt_states_and_preserves_the_session() {
        use lhmm_network::graph::SegmentId;
        let ds = Dataset::generate(&DatasetConfig::tiny_test(210));
        let inputs = stream_inputs(&ds, 1);
        let lag = 2;
        let mut model = fresh_compact_model();
        let mut stream = StreamingEngine::new(&ds.network, lag);
        for (pos, t, layer) in inputs.iter().take(4) {
            model.positions.push(*pos);
            stream
                .push(*pos, *t, layer.clone(), &mut model)
                .expect("non-empty layer");
        }
        let good = stream.snapshot();
        good.validate_for(&ds.network).expect("captured state valid");

        let corruptions: Vec<(&str, BeamState)> = vec![
            ("array length mismatch", {
                let mut s = good.clone();
                s.f.pop();
                s
            }),
            ("empty layer", {
                let mut s = good.clone();
                s.layers[1].clear();
                s
            }),
            ("candidate count mismatch", {
                let mut s = good.clone();
                s.pre[1].push(None);
                s
            }),
            ("backpointer on first layer", {
                let mut s = good.clone();
                s.pre[0][0] = Some(0);
                s
            }),
            ("backpointer out of range", {
                let mut s = good.clone();
                let m = s.layers[0].len();
                s.pre[1][0] = Some(m);
                s
            }),
            ("committed prefix too long", {
                let mut s = good.clone();
                s.committed_upto = s.layers.len() + 1;
                s
            }),
            ("last_committed mismatch", {
                let mut s = good.clone();
                s.last_committed = None;
                s.committed_upto = s.layers.len().clamp(1, 2);
                s
            }),
            ("segment id out of range", {
                let mut s = good.clone();
                s.layers[0][0].seg = SegmentId(u32::MAX - 1);
                s
            }),
        ];
        for (what, bad) in corruptions {
            // Sanity: the corruption actually broke the invariant.
            assert!(bad.validate_for(&ds.network).is_err(), "{what}: still valid");
            let mut victim = StreamingEngine::new(&ds.network, lag);
            victim.restore(good.clone()).expect("good state restores");
            let err = victim.restore(bad).expect_err(what);
            assert!(!err.0.is_empty(), "{what}: empty reason");
            // The failed restore left the previous session intact.
            assert_eq!(victim.snapshot(), good, "{what}: session clobbered");
        }

        // And the original session kept running as if nothing happened.
        for (pos, t, layer) in inputs.iter().skip(4) {
            model.positions.push(*pos);
            stream
                .push(*pos, *t, layer.clone(), &mut model)
                .expect("non-empty layer");
        }
        assert!(!stream.finish().is_empty());
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
        assert!(!stream.finish().is_empty());
    }
}
