//! The learned transition probability `P_T` (paper §IV-D, Eq. 9–12).
//!
//! For a moving path (the shortest route between two candidates), the
//! learner first scores every road on the route for *belonging to the
//! trajectory*:
//! 1. **Road-conditioned trajectory representation** (Eq. 9): attention
//!    with the road as query over the trajectory's tower embeddings —
//!    points that interact with the road dominate the summary.
//! 2. **Road relevance** (Eq. 10): an MLP over `[road ⊕ summary]` yields
//!    `P(e_l | X)`.
//! 3. **Route relevance** (Eq. 11): the mean of `P(e_l | X)` over the
//!    route's segments flags fine-grained detours.
//! 4. **Fusion** (Eq. 12): a second MLP combines route relevance with the
//!    explicit features — length deviation and turn count — into `P_T`.
//!
//! Training mirrors the paper: stage 1 classifies roads on/off the traveled
//! path; stage 2 fine-tunes the fusion MLP to predict the fraction of a
//! sampled moving path that is actually traveled.

use lhmm_cellsim::tower::TowerId;
use lhmm_cellsim::traj::TrajectoryRecord;
use lhmm_graph::encoder::Embeddings;
use lhmm_network::graph::{RoadNetwork, SegmentId};
use lhmm_geo::polyline::TurnAccumulator;
use lhmm_network::path::total_turn_of;
use lhmm_network::shortest_path::NO_ENTRY;
use lhmm_network::sp_cache::SpCache;
use lhmm_network::spatial::SpatialIndex;
use lhmm_neural::layers::{Activation, AdditiveAttention, Mlp};
use lhmm_neural::loss::bce_with_logits;
use lhmm_neural::optim::{clip_grad_norm, Adam};
use lhmm_neural::tape::{ParamStore, Tape};
use lhmm_neural::{Matrix, Scratch};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

use crate::observation::{tower_rows, ScorerStats};
use crate::types::LayerRoutes;

/// Transition-learner hyperparameters.
#[derive(Clone, Debug)]
pub struct TransConfig {
    /// Relevance-stage training steps.
    pub epochs: usize,
    /// Fusion-stage training steps.
    pub fuse_epochs: usize,
    /// Trajectories sampled per step.
    pub batch_trajs: usize,
    /// Negative roads per positive in stage 1.
    pub neg_per_pos: usize,
    /// Sampling radius for negative roads, meters.
    pub radius: f64,
    /// Hidden width of both MLPs.
    pub hidden: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TransConfig {
    fn default() -> Self {
        TransConfig {
            epochs: 120,
            fuse_epochs: 60,
            batch_trajs: 8,
            neg_per_pos: 2,
            radius: 2_500.0,
            hidden: 64,
            lr: 2e-3,
            seed: 0,
        }
    }
}

/// Number of explicit features in `D_T` (length deviation, turn count,
/// time-progress ratio).
const N_EXPLICIT: usize = 3;

/// The trained transition probability model.
#[derive(Clone)]
pub struct TransitionLearner {
    rel_store: ParamStore,
    fuse_store: ParamStore,
    attention: AdditiveAttention,
    relevance_mlp: Mlp,
    fuse_mlp: Mlp,
    dim: usize,
}

impl TransitionLearner {
    /// Embedding width the learner was built for.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Serializes the learner's weights into the encoder.
    pub fn export_weights(&self, enc: &mut lhmm_neural::persist::Encoder) {
        enc.param_store(&self.rel_store);
        enc.param_store(&self.fuse_store);
    }

    /// Loads weights previously written by [`Self::export_weights`] into a
    /// structurally identical learner.
    pub fn import_weights(
        &mut self,
        dec: &mut lhmm_neural::persist::Decoder<'_>,
    ) -> Result<(), lhmm_neural::persist::DecodeError> {
        dec.param_store_into(&mut self.rel_store)?;
        dec.param_store_into(&mut self.fuse_store)
    }

    /// Trains the learner on the training split.
    pub fn train(
        net: &RoadNetwork,
        index: &SpatialIndex,
        emb: &Embeddings,
        records: &[TrajectoryRecord],
        cfg: &TransConfig,
    ) -> Self {
        let dim = emb.dim;
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(0x7A5));
        let mut rel_store = ParamStore::new();
        let attention = AdditiveAttention::new(&mut rel_store, dim, dim, &mut rng);
        let relevance_mlp = Mlp::new(
            &mut rel_store,
            &[2 * dim, cfg.hidden, 1],
            Activation::Relu,
            &mut rng,
        );
        let mut fuse_store = ParamStore::new();
        let fuse_mlp = Mlp::new(
            &mut fuse_store,
            &[1 + N_EXPLICIT, (cfg.hidden / 2).max(4), 1],
            Activation::Relu,
            &mut rng,
        );

        let mut learner = TransitionLearner {
            rel_store,
            fuse_store,
            attention,
            relevance_mlp,
            fuse_mlp,
            dim,
        };

        // ---------------- Stage 1: road-in-trajectory classifier -------
        let mut opt = Adam::new(cfg.lr, 1e-4);
        for _ in 0..cfg.epochs {
            let mut tape = Tape::new();
            let mut logits_var = None;
            let mut targets: Vec<f32> = Vec::new();
            for _ in 0..cfg.batch_trajs {
                let rec = &records[rng.gen_range(0..records.len())];
                if rec.cellular.is_empty() || rec.truth.is_empty() {
                    continue;
                }
                let (segs, labels) = sample_relevance_roads(net, index, rec, cfg, &mut rng);
                if segs.is_empty() {
                    continue;
                }
                let towers = rec.cellular.towers();
                let keys_m = tower_rows(emb, &towers);
                let keys = tape.constant(keys_m);
                // One attention per sampled road (the road is the query).
                for (&seg, &label) in segs.iter().zip(&labels) {
                    let q = tape.constant(Matrix::row_vector(emb.segment(seg).to_vec()));
                    let (summary, _) = learner.attention.forward(
                        &mut tape,
                        &learner.rel_store,
                        q,
                        keys,
                        keys,
                    );
                    let seg_row =
                        tape.constant(Matrix::row_vector(emb.segment(seg).to_vec()));
                    let cat = tape.concat_cols(seg_row, summary);
                    let logit =
                        learner
                            .relevance_mlp
                            .forward(&mut tape, &learner.rel_store, cat);
                    logits_var = Some(match logits_var {
                        None => logit,
                        Some(acc) => tape.concat_rows(acc, logit),
                    });
                    targets.push(label);
                }
            }
            let Some(lv) = logits_var else { continue };
            let target_m = Matrix::col_vector(targets);
            let (_, grad) = bce_with_logits(tape.value(lv), &target_m, 0.1);
            let grads = tape.backward(lv, grad);
            let mut pg = tape.param_grads(&grads);
            clip_grad_norm(&mut pg, 5.0);
            opt.step(&mut learner.rel_store, &pg);
        }

        // ---------------- Stage 2: fusion fine-tuning ------------------
        // Predict the traveled fraction of sampled moving paths.
        let mut sp = SpCache::new(net, 100_000);
        let mut fuse_opt = Adam::new(cfg.lr, 1e-4);
        for _ in 0..cfg.fuse_epochs {
            let mut inputs: Vec<f32> = Vec::new();
            let mut targets: Vec<f32> = Vec::new();
            let mut rows = 0usize;
            for _ in 0..cfg.batch_trajs {
                let rec = &records[rng.gen_range(0..records.len())];
                if rec.cellular.len() < 2 || rec.truth.is_empty() {
                    continue;
                }
                let i = rng.gen_range(1..rec.cellular.len());
                let a_pos = rec.cellular.points[i - 1].effective_pos();
                let b_pos = rec.cellular.points[i].effective_pos();
                // Sample a candidate pair near the two points.
                let near_a = index.k_nearest(net, a_pos, 8, cfg.radius);
                let near_b = index.k_nearest(net, b_pos, 8, cfg.radius);
                if near_a.is_empty() || near_b.is_empty() {
                    continue;
                }
                let (sa, _) = near_a[rng.gen_range(0..near_a.len())];
                let (sb, _) = near_b[rng.gen_range(0..near_b.len())];
                let ta = net.project(a_pos, sa).t;
                let tb = net.project(b_pos, sb).t;
                let bound = a_pos.distance(b_pos) * 4.0 + 3_000.0;
                let Some(route) = sp.route_between_projections(net, sa, ta, sb, tb, bound)
                else {
                    continue;
                };
                if route.segments.is_empty() {
                    continue;
                }
                let truth = rec.truth.segment_set();
                let purity = route
                    .segments
                    .iter()
                    .filter(|s| truth.contains(s))
                    .count() as f32
                    / route.segments.len() as f32;
                // Purity alone rewards degenerate near-zero routes (staying
                // on one traveled road scores 1.0 even though the user
                // moved). Scale by how much of the *actual* movement the
                // route covers so the learner is taught that transitions
                // must make progress.
                let true_moved =
                    rec.true_positions[i - 1].distance(rec.true_positions[i]);
                let coverage = (route.length / true_moved.max(50.0)).min(1.0) as f32;
                let traveled_frac = purity * coverage;
                let mut scorer = TrajTransScorer::new(&learner, emb, &rec.cellular.towers());
                let relevance = scorer.route_relevance(&route.segments);
                let d_straight = a_pos.distance(b_pos);
                let dt = rec.cellular.points[i].t - rec.cellular.points[i - 1].t;
                let feats =
                    explicit_features(net, d_straight, dt, route.length, &route.segments);
                inputs.push(relevance);
                inputs.extend_from_slice(&feats);
                targets.push(traveled_frac);
                rows += 1;
            }
            if rows == 0 {
                continue;
            }
            let mut tape = Tape::new();
            let x = tape.constant(Matrix::from_vec(rows, 1 + N_EXPLICIT, inputs));
            let logit = learner.fuse_mlp.forward(&mut tape, &learner.fuse_store, x);
            let target_m = Matrix::col_vector(targets);
            let (_, grad) = bce_with_logits(tape.value(logit), &target_m, 0.1);
            let grads = tape.backward(logit, grad);
            let mut pg = tape.param_grads(&grads);
            clip_grad_norm(&mut pg, 5.0);
            fuse_opt.step(&mut learner.fuse_store, &pg);
        }

        learner
    }

    /// Learned `P_T` (Eq. 12) of one moving path, computed unfused: Eq. 9's
    /// attention summary and Eq. 10's relevance one road at a time through
    /// plain matmuls, Eq. 11 as the mean over `route_segs` (0 for an empty
    /// route), then [`explicit_features`] and the fusion MLP.
    ///
    /// This is the reference, the transition twin of
    /// [`crate::observation::ObservationLearner::score`]. Matching scores
    /// through [`TrajTransScorer`], whose per-pair and per-layer answers
    /// must equal it bit for bit; the tests compare the two.
    #[allow(clippy::too_many_arguments)] // mirrors Eq. 12's inputs one-to-one
    pub fn score(
        &self,
        net: &RoadNetwork,
        emb: &Embeddings,
        towers: &[TowerId],
        d_straight: f64,
        dt: f64,
        route_len: f64,
        route_segs: &[SegmentId],
    ) -> f32 {
        let dim = self.dim;
        let keys = tower_rows(emb, towers);
        let projected = self.attention.project_keys(&self.rel_store, &keys);
        let road_relevance = |seg: SegmentId| {
            let q = Matrix::row_vector(emb.segment(seg).to_vec());
            let summary = self
                .attention
                .infer_projected(&self.rel_store, &q, &projected, &keys);
            let mut cat = Matrix::zeros(1, 2 * dim);
            cat.row_mut(0)[..dim].copy_from_slice(emb.segment(seg));
            cat.row_mut(0)[dim..].copy_from_slice(summary.row(0));
            let logit = self.relevance_mlp.infer(&self.rel_store, &cat).data()[0];
            1.0 / (1.0 + (-logit).exp())
        };
        let relevance = if route_segs.is_empty() {
            0.0
        } else {
            route_segs.iter().map(|&s| road_relevance(s)).sum::<f32>() / route_segs.len() as f32
        };
        let feats = explicit_features(net, d_straight, dt, route_len, route_segs);
        let mut x = Matrix::zeros(1, 1 + N_EXPLICIT);
        x.row_mut(0)[0] = relevance;
        x.row_mut(0)[1..].copy_from_slice(&feats);
        let logit = self.fuse_mlp.infer(&self.fuse_store, &x);
        1.0 / (1.0 + (-logit.data()[0]).exp())
    }
}

/// The explicit transition features `D_T`: relative length deviation, route
/// turn count, and the time-progress ratio (all squashed to a small range).
///
/// The progress ratio compares the route length with the movement the
/// elapsed time implies at typical urban speed. It is what lets the learner
/// reject stand-still transitions between *identical* consecutive tower
/// observations — the positions alone say "no movement" while the clock
/// says the vehicle traveled hundreds of meters.
pub fn explicit_features(
    net: &RoadNetwork,
    d_straight: f64,
    dt: f64,
    route_len: f64,
    route_segs: &[SegmentId],
) -> [f32; N_EXPLICIT] {
    features_with_turn(d_straight, dt, route_len, total_turn_of(net, route_segs))
}

/// [`explicit_features`] for a route whose total turn (radians) is already
/// known.
fn features_with_turn(d_straight: f64, dt: f64, route_len: f64, turn: f64) -> [f32; N_EXPLICIT] {
    let dev = ((d_straight - route_len).abs() / d_straight.max(100.0)) as f32;
    let turn = turn as f32;
    /// Typical urban travel speed used to convert elapsed time into an
    /// expected movement, m/s.
    const TYPICAL_SPEED: f64 = 10.0;
    let expected = (dt.max(1.0) * TYPICAL_SPEED).max(50.0);
    let progress = (route_len / expected) as f32;
    [
        dev.min(10.0),
        (turn / std::f32::consts::PI).min(10.0),
        progress.min(4.0),
    ]
}

/// Per-trajectory transition scorer with a road-relevance cache; create one
/// per matched trajectory.
///
/// Scores through batched query projections and scratch-arena buffers, with
/// no steady-state heap allocation. Every value is bit-identical to
/// [`TransitionLearner::score`], the unfused reference; the unit tests below
/// and the repo-level `tests/scoring_equivalence.rs` hold it to that.
pub struct TrajTransScorer<'a> {
    learner: &'a TransitionLearner,
    emb: &'a Embeddings,
    keys: Matrix,
    /// `tanh(keys × W_k)` transposed to `p×n`, computed once per
    /// trajectory: road-relevance attention runs for hundreds of distinct
    /// roads against the same trajectory. It is the memoized key half of
    /// [`AdditiveAttention::attend_tanh`], laid out for the
    /// SIMD-vectorizable score loop of [`AdditiveAttention::attend_tanh_t`].
    projected_keys_t: Matrix,
    cache: HashMap<SegmentId, f32>,
    scratch: Scratch,
    stats: ScorerStats,
    /// Reused between `route_relevance` calls for the missing-road set.
    missing_buf: Vec<SegmentId>,
    /// Per forest entry of the current layer: the Eq. 11 relevance sum and
    /// the turn accumulator of the route prefix ending there.
    rel_prefix: Vec<f32>,
    turn_prefix: Vec<TurnAccumulator>,
}

impl<'a> TrajTransScorer<'a> {
    /// Prepares the scorer for one trajectory (tower id sequence) with a
    /// fresh scratch arena.
    pub fn new(
        learner: &'a TransitionLearner,
        emb: &'a Embeddings,
        towers: &[TowerId],
    ) -> Self {
        Self::with_scratch(learner, emb, towers, Scratch::new())
    }

    /// [`Self::new`] reusing a caller-owned scratch arena (returned by
    /// [`Self::finish`]).
    pub fn with_scratch(
        learner: &'a TransitionLearner,
        emb: &'a Embeddings,
        towers: &[TowerId],
        mut scratch: Scratch,
    ) -> Self {
        let n = towers.len();
        let p = learner.attention.proj_dim();
        let mut keys = scratch.take(n, learner.dim);
        for (r, &t) in towers.iter().enumerate() {
            keys.row_mut(r).copy_from_slice(emb.tower(t));
        }
        let mut projected_keys = scratch.take(n, p);
        learner
            .attention
            .project_keys_into(&learner.rel_store, &keys, &mut projected_keys);
        for v in projected_keys.data_mut() {
            *v = v.tanh();
        }
        let mut projected_keys_t = scratch.take(p, n);
        projected_keys.transpose_into(&mut projected_keys_t);
        scratch.give(projected_keys);
        TrajTransScorer {
            learner,
            emb,
            keys,
            projected_keys_t,
            // Pre-reserve so cache growth during one trajectory's Viterbi
            // pass rarely reallocates.
            cache: HashMap::with_capacity(512),
            scratch,
            stats: ScorerStats::default(),
            missing_buf: Vec::new(),
            rel_prefix: Vec::new(),
            turn_prefix: Vec::new(),
        }
    }

    /// `P(e_l | X)` (Eq. 10) with caching.
    pub fn road_relevance(&mut self, seg: SegmentId) -> f32 {
        if let Some(&v) = self.cache.get(&seg) {
            return v;
        }
        self.compute_batch(&[seg]);
        self.cache[&seg]
    }

    /// Mean relevance over a route (Eq. 11); computes missing roads in one
    /// batch.
    pub fn route_relevance(&mut self, segs: &[SegmentId]) -> f32 {
        if segs.is_empty() {
            return 0.0;
        }
        let mut missing = std::mem::take(&mut self.missing_buf);
        missing.clear();
        missing.extend(segs.iter().copied().filter(|s| !self.cache.contains_key(s)));
        missing.sort_unstable();
        missing.dedup();
        if !missing.is_empty() {
            self.compute_batch(&missing);
        }
        self.missing_buf = missing;
        segs.iter().map(|s| self.cache[s]).sum::<f32>() / segs.len() as f32
    }

    fn compute_batch(&mut self, segs: &[SegmentId]) {
        let n = segs.len();
        let dim = self.learner.dim;
        self.stats.rows += n as u64;
        // Eq. 9: project every road query in one batched matmul, memoize
        // the tanh halves, then attend per row into the concat buffer
        // directly.
        let mut queries = self.scratch.take(n, dim);
        for (r, &seg) in segs.iter().enumerate() {
            queries.row_mut(r).copy_from_slice(self.emb.segment(seg));
        }
        let mut qproj = self
            .scratch
            .take(n, self.learner.attention.proj_dim());
        self.learner.attention.project_queries_into(
            &self.learner.rel_store,
            &queries,
            &mut qproj,
        );
        for v in qproj.data_mut() {
            *v = v.tanh();
        }
        let mut cat = self.scratch.take(n, 2 * dim);
        for r in 0..n {
            let row = cat.row_mut(r);
            row[..dim].copy_from_slice(queries.row(r));
        }
        for r in 0..n {
            self.learner.attention.attend_tanh_t(
                &self.learner.rel_store,
                qproj.row(r),
                &self.projected_keys_t,
                &self.keys,
                &mut self.scratch,
                &mut cat.row_mut(r)[dim..],
            );
        }
        let logits = self.learner.relevance_mlp.infer_with(
            &self.learner.rel_store,
            &cat,
            &mut self.scratch,
        );
        for (&seg, &logit) in segs.iter().zip(logits.data()) {
            self.cache.insert(seg, 1.0 / (1.0 + (-logit).exp()));
        }
        self.scratch.give(logits);
        self.scratch.give(cat);
        self.scratch.give(qproj);
        self.scratch.give(queries);
    }

    /// Final learned `P_T` (Eq. 12) for one moving path.
    pub fn transition_prob(
        &mut self,
        net: &RoadNetwork,
        d_straight: f64,
        dt: f64,
        route_len: f64,
        route_segs: &[SegmentId],
    ) -> f32 {
        let t0 = crate::timing::StageTimer::start();
        let relevance = self.route_relevance(route_segs);
        let feats = explicit_features(net, d_straight, dt, route_len, route_segs);
        let mut x = self.scratch.take(1, 1 + N_EXPLICIT);
        x.row_mut(0)[0] = relevance;
        x.row_mut(0)[1..].copy_from_slice(&feats);
        let logit = self
            .learner
            .fuse_mlp
            .infer_with(&self.learner.fuse_store, &x, &mut self.scratch);
        let p = 1.0 / (1.0 + (-logit.data()[0]).exp());
        self.scratch.give(logit);
        self.scratch.give(x);
        self.stats.calls += 1;
        self.stats.time_s += t0.elapsed_s();
        p
    }

    /// [`Self::transition_prob`] for every routed pair of one layer at
    /// once; `out` is row-major over `(j, k)` like `routes`, and unrouted
    /// pairs get 0. Bit-identical to the per-pair calls:
    ///
    /// - every road the layer's routes touch is scored in one Eq. 10 batch
    ///   (rows are independent, so batch composition never changes a value);
    /// - the Eq. 11 relevance sum and the turn accumulator are folded once
    ///   per forest entry, from the root outward, so each route's sum sees
    ///   the same left-to-right additions `route_relevance` and
    ///   `total_turn_of` make over its segment list;
    /// - all `(1 + 3)`-feature rows go through one fuse-MLP call (output rows
    ///   are independent under the kernel contract).
    ///
    /// Timed once per layer; the route searches happen before the call.
    pub fn transition_layer(
        &mut self,
        net: &RoadNetwork,
        d_straight: f64,
        dt: f64,
        routes: &LayerRoutes,
        out: &mut [f64],
    ) {
        let t0 = crate::timing::StageTimer::start();
        let forest = routes.forest().entries();

        let mut missing = std::mem::take(&mut self.missing_buf);
        missing.clear();
        missing.extend(
            forest
                .iter()
                .map(|e| e.seg)
                .filter(|s| !self.cache.contains_key(s)),
        );
        missing.sort_unstable();
        missing.dedup();
        if !missing.is_empty() {
            self.compute_batch(&missing);
        }
        self.missing_buf = missing;

        // Prefix folds; parents precede children in the forest.
        self.rel_prefix.clear();
        self.turn_prefix.clear();
        for e in forest {
            let rel = self.cache[&e.seg];
            let (sum, mut acc) = match self.rel_prefix.get(e.parent as usize) {
                Some(&parent_sum) => (parent_sum + rel, self.turn_prefix[e.parent as usize].clone()),
                // A one-element `sum`: the same starting value as
                // `route_relevance`'s fold.
                None => (std::iter::once(rel).sum::<f32>(), TurnAccumulator::default()),
            };
            acc.push(net.segment_start(e.seg));
            acc.push(net.segment_end(e.seg));
            self.rel_prefix.push(sum);
            self.turn_prefix.push(acc);
        }

        let rows = routes.pairs.iter().filter(|p| p.0 != NO_ENTRY).count();
        out.fill(0.0);
        if rows > 0 {
            let mut x = self.scratch.take(rows, 1 + N_EXPLICIT);
            let routed = routes.pairs.iter().filter(|p| p.0 != NO_ENTRY);
            for (r, &(e, length)) in routed.enumerate() {
                let at = e as usize;
                let relevance = self.rel_prefix[at] / forest[at].depth as f32;
                let feats = features_with_turn(d_straight, dt, length, self.turn_prefix[at].total());
                let row = x.row_mut(r);
                row[0] = relevance;
                row[1..].copy_from_slice(&feats);
            }
            let logits =
                self.learner
                    .fuse_mlp
                    .infer_with(&self.learner.fuse_store, &x, &mut self.scratch);
            let mut rows_p = logits.data().iter();
            for (o, p) in out.iter_mut().zip(&routes.pairs) {
                if p.0 != NO_ENTRY {
                    if let Some(&logit) = rows_p.next() {
                        *o = (1.0 / (1.0 + (-logit).exp())) as f64;
                    }
                }
            }
            self.scratch.give(logits);
            self.scratch.give(x);
        }
        self.stats.calls += rows as u64;
        self.stats.time_s += t0.elapsed_s();
    }

    /// Cumulative scoring statistics (`rows` counts roads scored through
    /// Eq. 10 batches; `calls` counts scored pairs and `time_s` covers
    /// [`Self::transition_prob`] and [`Self::transition_layer`]).
    pub fn stats(&self) -> ScorerStats {
        self.stats
    }

    /// `(fresh_allocs, high_water_bytes)` of the scratch arena.
    pub fn scratch_stats(&self) -> (u64, u64) {
        (self.scratch.fresh_allocs(), self.scratch.high_water_bytes())
    }

    /// Tears the scorer down, returning its scratch arena (with the key
    /// matrices back in the pool) and the accumulated statistics.
    pub fn finish(mut self) -> (Scratch, ScorerStats) {
        let keys = std::mem::replace(&mut self.keys, Matrix::zeros(0, 0));
        let pkt = std::mem::replace(&mut self.projected_keys_t, Matrix::zeros(0, 0));
        self.scratch.give(keys);
        self.scratch.give(pkt);
        (self.scratch, self.stats)
    }
}

/// Positive roads (on the traveled path) and undersampled negative roads
/// (near the trajectory but untraveled) for stage-1 training.
fn sample_relevance_roads(
    net: &RoadNetwork,
    index: &SpatialIndex,
    rec: &TrajectoryRecord,
    cfg: &TransConfig,
    rng: &mut StdRng,
) -> (Vec<SegmentId>, Vec<f32>) {
    let truth = rec.truth.segment_set();
    let mut segs = Vec::new();
    let mut labels = Vec::new();
    // Two positives per trajectory sample.
    for _ in 0..2 {
        let p = rec.truth.segments[rng.gen_range(0..rec.truth.len())];
        segs.push(p);
        labels.push(1.0);
    }
    // Negatives near a random trajectory point.
    let pt = &rec.cellular.points[rng.gen_range(0..rec.cellular.len())];
    let mut negs: Vec<SegmentId> = index
        .segments_within(net, pt.effective_pos(), cfg.radius)
        .into_iter()
        .map(|(s, _)| s)
        .filter(|s| !truth.contains(s))
        .collect();
    negs.shuffle(rng);
    for &s in negs.iter().take(2 * cfg.neg_per_pos) {
        segs.push(s);
        labels.push(0.0);
    }
    (segs, labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhmm_cellsim::dataset::{Dataset, DatasetConfig};
    use lhmm_graph::encoder::{train_encoder, EncoderConfig, EncoderKind};
    use lhmm_graph::relgraph::MultiRelGraph;

    fn quick_setup() -> (Dataset, Embeddings) {
        let ds = Dataset::generate(&DatasetConfig::tiny_test(51));
        let graph = MultiRelGraph::build(&ds.network, ds.towers.len(), &ds.train);
        let emb = train_encoder(
            &graph,
            &EncoderConfig {
                dim: 16,
                epochs: 60,
                batch_edges: 256,
                kind: EncoderKind::Heterogeneous,
                ..Default::default()
            },
        );
        (ds, emb)
    }

    fn quick_cfg() -> TransConfig {
        TransConfig {
            epochs: 50,
            fuse_epochs: 25,
            batch_trajs: 6,
            ..Default::default()
        }
    }

    #[test]
    fn relevance_separates_traveled_roads() {
        let (ds, emb) = quick_setup();
        let learner = TransitionLearner::train(
            &ds.network,
            &ds.index,
            &emb,
            &ds.train,
            &quick_cfg(),
        );
        let mut on_scores = Vec::new();
        let mut off_scores = Vec::new();
        for rec in ds.test.iter().take(8) {
            let truth = rec.truth.segment_set();
            let mut scorer = TrajTransScorer::new(&learner, &emb, &rec.cellular.towers());
            for &seg in rec.truth.segments.iter().take(10) {
                on_scores.push(scorer.road_relevance(seg));
            }
            // Roads near the trajectory but not traveled.
            let pos = rec.cellular.points[0].effective_pos();
            for (seg, _) in ds
                .index
                .segments_within(&ds.network, pos, 2_000.0)
                .into_iter()
                .filter(|(s, _)| !truth.contains(s))
                .take(10)
            {
                off_scores.push(scorer.road_relevance(seg));
            }
        }
        let on: f32 = on_scores.iter().sum::<f32>() / on_scores.len() as f32;
        let off: f32 = off_scores.iter().sum::<f32>() / off_scores.len() as f32;
        assert!(on > off, "traveled {on} vs untraveled {off}");
    }

    #[test]
    fn transition_prob_is_a_probability_and_cached() {
        let (ds, emb) = quick_setup();
        let learner = TransitionLearner::train(
            &ds.network,
            &ds.index,
            &emb,
            &ds.train,
            &TransConfig {
                epochs: 10,
                fuse_epochs: 10,
                ..quick_cfg()
            },
        );
        let rec = &ds.test[0];
        let mut scorer = TrajTransScorer::new(&learner, &emb, &rec.cellular.towers());
        let segs: Vec<SegmentId> = rec.truth.segments.iter().take(5).copied().collect();
        let p1 = scorer.transition_prob(&ds.network, 500.0, 60.0, 600.0, &segs);
        assert!((0.0..=1.0).contains(&p1));
        // Cached relevance: same call is deterministic.
        let p2 = scorer.transition_prob(&ds.network, 500.0, 60.0, 600.0, &segs);
        assert_eq!(p1, p2);
        // Empty route: still a valid probability.
        let p3 = scorer.transition_prob(&ds.network, 500.0, 60.0, 600.0, &[]);
        assert!((0.0..=1.0).contains(&p3));
    }

    #[test]
    fn scorer_is_bitwise_identical_to_reference() {
        let (ds, emb) = quick_setup();
        let learner = TransitionLearner::train(
            &ds.network,
            &ds.index,
            &emb,
            &ds.train,
            &quick_cfg(),
        );
        let net = &ds.network;
        let mut scratch = Scratch::new();
        for rec in ds.test.iter().take(4) {
            let towers = rec.cellular.towers();
            let mut fast = TrajTransScorer::with_scratch(&learner, &emb, &towers, scratch);
            // One-road routes (singleton Eq. 10 batches), then route
            // prefixes (multi-road batches and the relevance cache), then
            // the empty route.
            let singles = rec.truth.segments.iter().take(6).map(std::slice::from_ref);
            let prefixes = [2usize, 5, rec.truth.len().min(12)]
                .map(|end| &rec.truth.segments[..end.min(rec.truth.len())]);
            for segs in singles.chain(prefixes).chain([&[][..]]) {
                let want = learner.score(net, &emb, &towers, 700.0, 45.0, 900.0, segs);
                let got = fast.transition_prob(net, 700.0, 45.0, 900.0, segs);
                assert_eq!(want.to_bits(), got.to_bits(), "P_T diverged on {segs:?}");
            }
            // The next trajectory reuses the warm arena.
            scratch = fast.finish().0;
        }
    }

    #[test]
    fn warm_scorer_scratch_stops_allocating() {
        let (ds, emb) = quick_setup();
        let learner = TransitionLearner::train(
            &ds.network,
            &ds.index,
            &emb,
            &ds.train,
            &TransConfig {
                epochs: 10,
                fuse_epochs: 10,
                ..quick_cfg()
            },
        );
        let rec = &ds.test[0];
        let segs: Vec<SegmentId> = rec.truth.segments.iter().take(8).copied().collect();
        let mut scratch = Scratch::new();
        // Warm the arena with one full pass, then re-score fresh scorers
        // (empty caches, identical shapes) and expect zero new buffers.
        for round in 0..3 {
            let mut scorer = TrajTransScorer::with_scratch(
                &learner,
                &emb,
                &rec.cellular.towers(),
                scratch,
            );
            let allocs_before = scorer.scratch_stats().0;
            let _ = scorer.transition_prob(&ds.network, 700.0, 45.0, 900.0, &segs);
            let _ = scorer.transition_prob(&ds.network, 700.0, 45.0, 900.0, &segs);
            let allocs_after = scorer.scratch_stats().0;
            if round > 0 {
                assert_eq!(
                    allocs_before, allocs_after,
                    "warm scratch allocated in round {round}"
                );
            }
            let (s, stats) = scorer.finish();
            scratch = s;
            assert!(stats.calls == 2 && stats.rows >= segs.len() as u64);
        }
    }

    #[test]
    fn explicit_features_detect_detours() {
        let (ds, _) = quick_setup();
        // Same straight distance, increasingly long routes => larger dev.
        let segs: Vec<SegmentId> = ds.test[0].truth.segments.iter().take(3).copied().collect();
        let near = explicit_features(&ds.network, 1_000.0, 90.0, 1_050.0, &segs);
        let far = explicit_features(&ds.network, 1_000.0, 90.0, 2_500.0, &segs);
        assert!(far[0] > near[0]);
    }
}
