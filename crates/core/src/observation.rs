//! The learned observation probability `P_O` (paper §IV-C, Eq. 6–8).
//!
//! Pipeline per trajectory point:
//! 1. **Context** (Eq. 6): additive attention over the trajectory's tower
//!    embeddings turns the raw point embedding into a context-aware
//!    representation, so the same tower can match different roads under
//!    different trajectory contexts.
//! 2. **Implicit correlation** (Eq. 7): an MLP over `[road ⊕ context]`
//!    scores how plausible the candidate road is for the point.
//! 3. **Fusion** (Eq. 8): a second MLP combines the implicit score with the
//!    explicit features — normalized point-road distance and co-occurrence
//!    frequency — into the final `P_O`.
//!
//! Training follows the paper's two stages: the implicit classifier learns
//! from positive roads (those the point co-occurs with on the traveled
//! path) against undersampled surrounding negatives; the fusion MLP is then
//! fine-tuned on the same labels with the implicit score treated as a fixed
//! input.

use lhmm_cellsim::tower::TowerId;
use lhmm_cellsim::traj::TrajectoryRecord;
use lhmm_geo::Point;
use lhmm_graph::encoder::Embeddings;
use lhmm_graph::relgraph::MultiRelGraph;
use lhmm_network::graph::{RoadNetwork, SegmentId};
use lhmm_network::spatial::SpatialIndex;
use lhmm_neural::layers::{Activation, AdditiveAttention, Mlp};
use lhmm_neural::loss::bce_with_logits;
use lhmm_neural::optim::{clip_grad_norm, Adam};
use lhmm_neural::tape::{ParamStore, Tape};
use lhmm_neural::{Matrix, Scratch};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Observation-learner hyperparameters.
#[derive(Clone, Debug)]
pub struct ObsConfig {
    /// Implicit-stage training steps.
    pub epochs: usize,
    /// Fusion-stage training steps.
    pub fuse_epochs: usize,
    /// Points sampled per step.
    pub batch_points: usize,
    /// Negative roads per positive (undersampling balance).
    pub neg_per_pos: usize,
    /// Radius for sampling surrounding negative roads, meters.
    pub radius: f64,
    /// Hidden width of both MLPs.
    pub hidden: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            epochs: 150,
            fuse_epochs: 80,
            batch_points: 24,
            neg_per_pos: 3,
            radius: 2_500.0,
            hidden: 64,
            lr: 2e-3,
            seed: 0,
        }
    }
}

/// Normalization statistics for the explicit distance feature
/// (the paper's "batch-normalized Euclidean distance").
#[derive(Clone, Copy, Debug)]
pub struct FeatNorm {
    mean: f32,
    std: f32,
}

impl FeatNorm {
    fn apply(&self, v: f32) -> f32 {
        (v - self.mean) / self.std
    }
}

/// Number of explicit features in `D_O` (distance, co-occurrence).
const N_EXPLICIT: usize = 2;

/// The trained observation probability model.
#[derive(Clone)]
pub struct ObservationLearner {
    implicit_store: ParamStore,
    fuse_store: ParamStore,
    attention: AdditiveAttention,
    implicit_mlp: Mlp,
    fuse_mlp: Mlp,
    dist_norm: FeatNorm,
    dim: usize,
}

impl ObservationLearner {
    /// Embedding width the learner was built for.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Trains the learner on the training split.
    pub fn train(
        net: &RoadNetwork,
        index: &SpatialIndex,
        emb: &Embeddings,
        graph: &MultiRelGraph,
        records: &[TrajectoryRecord],
        cfg: &ObsConfig,
    ) -> Self {
        let dim = emb.dim;
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(0x0B5));
        let mut implicit_store = ParamStore::new();
        let attention = AdditiveAttention::new(&mut implicit_store, dim, dim, &mut rng);
        let implicit_mlp = Mlp::new(
            &mut implicit_store,
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

        let samples = build_point_samples(net, records);
        assert!(!samples.is_empty(), "no training samples for P_O");
        let dist_norm = estimate_dist_norm(net, index, records, cfg, &mut rng);

        let mut learner = ObservationLearner {
            implicit_store,
            fuse_store,
            attention,
            implicit_mlp,
            fuse_mlp,
            dist_norm,
            dim,
        };

        // ---------------- Stage 1: implicit classifier ----------------
        let mut opt = Adam::new(cfg.lr, 1e-4);
        for _ in 0..cfg.epochs {
            let mut tape = Tape::new();
            let mut logits_var = None;
            let mut targets: Vec<f32> = Vec::new();
            for _ in 0..cfg.batch_points {
                let Some((rec_idx, pt_idx, pos_segs)) = pick_sample(&samples, &mut rng)
                else {
                    continue;
                };
                let rec = &records[rec_idx];
                let (segs, labels) =
                    sample_roads(net, index, rec, pt_idx, pos_segs, cfg, &mut rng);
                if segs.is_empty() {
                    continue;
                }
                let towers = rec.cellular.towers();
                let keys_m = tower_rows(emb, &towers);
                let query =
                    tape.constant(Matrix::row_vector(keys_m.row(pt_idx).to_vec()));
                let keys = tape.constant(keys_m);
                let (attended, _) = learner.attention.forward(
                    &mut tape,
                    &learner.implicit_store,
                    query,
                    keys,
                    keys,
                );
                // Residual connection: the context must stay anchored to the
                // *current* point's identity, otherwise near-uniform
                // attention collapses every point of a trajectory to the
                // same representation (and the matched path to one spot).
                let ctx = tape.add(query, attended);
                let n = segs.len();
                let ctx_rep = tape.repeat_row(ctx, n);
                let seg_v = tape.constant(segment_rows(emb, &segs));
                let cat = tape.concat_cols(seg_v, ctx_rep);
                let logit =
                    learner
                        .implicit_mlp
                        .forward(&mut tape, &learner.implicit_store, cat);
                logits_var = Some(match logits_var {
                    None => logit,
                    Some(acc) => tape.concat_rows(acc, logit),
                });
                targets.extend(labels);
            }
            let Some(lv) = logits_var else { continue };
            let target_m = Matrix::col_vector(targets);
            let (_, grad) = bce_with_logits(tape.value(lv), &target_m, 0.1);
            let grads = tape.backward(lv, grad);
            let mut pg = tape.param_grads(&grads);
            clip_grad_norm(&mut pg, 5.0);
            opt.step(&mut learner.implicit_store, &pg);
        }

        // ---------------- Stage 2: fusion fine-tuning ----------------
        let mut fuse_opt = Adam::new(cfg.lr, 1e-4);
        for _ in 0..cfg.fuse_epochs {
            let mut inputs: Vec<f32> = Vec::new();
            let mut targets: Vec<f32> = Vec::new();
            let mut rows = 0usize;
            for _ in 0..cfg.batch_points {
                let Some((rec_idx, pt_idx, pos_segs)) = pick_sample(&samples, &mut rng)
                else {
                    continue;
                };
                let rec = &records[rec_idx];
                let (segs, labels) =
                    sample_roads(net, index, rec, pt_idx, pos_segs, cfg, &mut rng);
                if segs.is_empty() {
                    continue;
                }
                let towers = rec.cellular.towers();
                let ctx = learner.context_row(emb, &towers, pt_idx);
                let implicit = learner.implicit_logits(emb, &ctx, &segs);
                let pos = rec.cellular.points[pt_idx].effective_pos();
                let tower = rec.cellular.points[pt_idx].tower;
                for ((&seg, &imp), &label) in segs.iter().zip(&implicit).zip(&labels) {
                    let feats = learner.explicit_features(net, graph, pos, tower, seg);
                    inputs.push(imp);
                    inputs.extend_from_slice(&feats);
                    targets.push(label);
                    rows += 1;
                }
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

    /// Serializes the learner's weights (both stages plus the distance
    /// normalizer) into the encoder.
    pub fn export_weights(&self, enc: &mut lhmm_neural::persist::Encoder) {
        enc.param_store(&self.implicit_store);
        enc.param_store(&self.fuse_store);
        enc.matrix(&Matrix::row_vector(vec![
            self.dist_norm.mean,
            self.dist_norm.std,
        ]));
    }

    /// Loads weights previously written by [`Self::export_weights`] into a
    /// structurally identical learner.
    pub fn import_weights(
        &mut self,
        dec: &mut lhmm_neural::persist::Decoder<'_>,
    ) -> Result<(), lhmm_neural::persist::DecodeError> {
        dec.param_store_into(&mut self.implicit_store)?;
        dec.param_store_into(&mut self.fuse_store)?;
        let norm = dec.matrix()?;
        if norm.shape() != (1, 2) {
            return Err(lhmm_neural::persist::DecodeError::ShapeMismatch);
        }
        self.dist_norm = FeatNorm {
            mean: norm.data()[0],
            std: norm.data()[1],
        };
        Ok(())
    }

    /// Context-aware point representation (Eq. 6 with a residual anchor),
    /// tape-free.
    pub fn context_row(&self, emb: &Embeddings, towers: &[TowerId], i: usize) -> Vec<f32> {
        let keys = tower_rows(emb, towers);
        let query = Matrix::row_vector(keys.row(i).to_vec());
        let attended = self
            .attention
            .infer(&self.implicit_store, &query, &keys, &keys);
        query.add(&attended).row(0).to_vec()
    }

    /// All per-point contexts of one trajectory; projects the keys once
    /// instead of per point.
    pub fn context_rows(&self, emb: &Embeddings, towers: &[TowerId]) -> Vec<Vec<f32>> {
        let keys = tower_rows(emb, towers);
        let projected = self.attention.project_keys(&self.implicit_store, &keys);
        (0..towers.len())
            .map(|i| {
                let query = Matrix::row_vector(keys.row(i).to_vec());
                let attended = self.attention.infer_projected(
                    &self.implicit_store,
                    &query,
                    &projected,
                    &keys,
                );
                query.add(&attended).row(0).to_vec()
            })
            .collect()
    }

    /// Implicit point-road correlation (Eq. 7) for a candidate batch,
    /// tape-free, as sigmoid probabilities.
    pub fn implicit_scores(
        &self,
        emb: &Embeddings,
        context: &[f32],
        segs: &[SegmentId],
    ) -> Vec<f32> {
        self.implicit_logits(emb, context, segs)
            .into_iter()
            .map(|x| 1.0 / (1.0 + (-x).exp()))
            .collect()
    }

    /// Raw implicit correlation logits (pre-sigmoid). The fusion stage
    /// consumes logits rather than probabilities: near-certain candidates
    /// saturate a sigmoid, destroying the ranking information the fusion
    /// MLP needs.
    pub fn implicit_logits(
        &self,
        emb: &Embeddings,
        context: &[f32],
        segs: &[SegmentId],
    ) -> Vec<f32> {
        if segs.is_empty() {
            return Vec::new();
        }
        let n = segs.len();
        let seg_m = segment_rows(emb, segs);
        let mut cat = Matrix::zeros(n, 2 * self.dim);
        for r in 0..n {
            cat.row_mut(r)[..self.dim].copy_from_slice(seg_m.row(r));
            cat.row_mut(r)[self.dim..].copy_from_slice(context);
        }
        let logits = self.implicit_mlp.infer(&self.implicit_store, &cat);
        logits.data().to_vec()
    }

    /// Explicit features `D_O`: normalized distance + co-occurrence
    /// frequency (Eq. 8).
    pub fn explicit_features(
        &self,
        net: &RoadNetwork,
        graph: &MultiRelGraph,
        pos: Point,
        tower: TowerId,
        seg: SegmentId,
    ) -> [f32; N_EXPLICIT] {
        let dist = net.distance_to_segment(pos, seg) as f32;
        let co = graph.co_frequency(tower, seg);
        [self.dist_norm.apply(dist), co.sqrt()]
    }

    /// Final learned `P_O` (Eq. 8) for a batch of candidate segments of one
    /// trajectory point. `context` comes from [`Self::context_row`] or
    /// [`Self::context_rows`].
    ///
    /// This is the unfused reference: plain matmuls, fresh allocations.
    /// Matching scores through [`ObsTrajScorer::score_into`], which must
    /// return the same bits; the tests compare the two.
    #[allow(clippy::too_many_arguments)] // mirrors Eq. 8's inputs one-to-one
    pub fn score(
        &self,
        net: &RoadNetwork,
        graph: &MultiRelGraph,
        emb: &Embeddings,
        context: &[f32],
        pos: Point,
        tower: TowerId,
        segs: &[SegmentId],
    ) -> Vec<f32> {
        if segs.is_empty() {
            return Vec::new();
        }
        let implicit = self.implicit_logits(emb, context, segs);
        let n = segs.len();
        let mut x = Matrix::zeros(n, 1 + N_EXPLICIT);
        for (r, (&seg, &imp)) in segs.iter().zip(&implicit).enumerate() {
            let feats = self.explicit_features(net, graph, pos, tower, seg);
            x.row_mut(r)[0] = imp;
            x.row_mut(r)[1..].copy_from_slice(&feats);
        }
        let logits = self.fuse_mlp.infer(&self.fuse_store, &x);
        logits
            .data()
            .iter()
            .map(|&v| 1.0 / (1.0 + (-v).exp()))
            .collect()
    }

    /// Builds the per-trajectory scorer: computes every point's attention
    /// context once up front, batched through the fused kernels, and reuses
    /// them for all candidate batches of the trajectory. The scratch arena
    /// is loaned in by the caller and handed back from
    /// [`ObsTrajScorer::finish`], so a warm arena carries across
    /// trajectories.
    pub fn traj_scorer<'a>(
        &'a self,
        emb: &'a Embeddings,
        towers: &[TowerId],
        mut scratch: Scratch,
    ) -> ObsTrajScorer<'a> {
        let n = towers.len();
        let d = self.dim;
        let mut contexts = scratch.take(n, d);
        if n > 0 {
            let mut keys = scratch.take(n, d);
            for (r, &t) in towers.iter().enumerate() {
                keys.row_mut(r).copy_from_slice(emb.tower(t));
            }
            let p = self.attention.proj_dim();
            let mut kproj = scratch.take(n, p);
            self.attention
                .project_keys_into(&self.implicit_store, &keys, &mut kproj);
            // Every point of the trajectory queries the same key set; one
            // batched projection replaces n single-row matmuls
            // (bit-identically — see `project_queries_into`). The tanh
            // halves are memoized up front: n·p evaluations here instead of
            // n²·2p inside the per-query attention (see `attend_tanh`).
            let mut qproj = scratch.take(n, p);
            self.attention
                .project_queries_into(&self.implicit_store, &keys, &mut qproj);
            for v in kproj.data_mut() {
                *v = v.tanh();
            }
            for v in qproj.data_mut() {
                *v = v.tanh();
            }
            // Transpose the memoized key half once (p×n): the restructured
            // score loop in `attend_tanh_t` walks keys contiguously along
            // the key axis, which the SIMD kernels vectorize —
            // bit-identical to `attend_tanh` over the untransposed half.
            let mut kproj_t = scratch.take(p, n);
            kproj.transpose_into(&mut kproj_t);
            for i in 0..n {
                self.attention.attend_tanh_t(
                    &self.implicit_store,
                    qproj.row(i),
                    &kproj_t,
                    &keys,
                    &mut scratch,
                    contexts.row_mut(i),
                );
                // Residual anchor, same operand order as `context_row`'s
                // `query.add(&attended)` — `*o += k` would flip the addends
                // and is not guaranteed bit-identical.
                #[allow(clippy::assign_op_pattern)]
                for (o, &k) in contexts.row_mut(i).iter_mut().zip(keys.row(i)) {
                    *o = k + *o;
                }
            }
            scratch.give(kproj_t);
            scratch.give(qproj);
            scratch.give(kproj);
            scratch.give(keys);
        }
        ObsTrajScorer {
            learner: self,
            emb,
            contexts,
            scratch,
            stats: ScorerStats::default(),
        }
    }
}

/// Timing and volume counters accumulated by a per-trajectory scorer.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScorerStats {
    /// Wall time spent scoring, in seconds.
    pub time_s: f64,
    /// Number of scoring calls (candidate batches or transition pairs).
    pub calls: u64,
    /// Total rows scored across all calls.
    pub rows: u64,
}

/// Per-trajectory observation scorer: the vectorized fast path for `P_O`.
///
/// Holds the trajectory's context matrix (attention evaluated once per
/// point at construction) and a [`Scratch`] arena; [`Self::score_into`]
/// then evaluates whole candidate batches through the fused kernels with
/// zero steady-state heap allocations. Every score is bit-identical to the
/// unfused reference, [`ObservationLearner::context_rows`] followed by
/// [`ObservationLearner::score`]; the tests hold it to that.
pub struct ObsTrajScorer<'a> {
    learner: &'a ObservationLearner,
    emb: &'a Embeddings,
    contexts: Matrix,
    scratch: Scratch,
    stats: ScorerStats,
}

impl<'a> ObsTrajScorer<'a> {
    /// Context row for trajectory point `i` (diagnostics / tests).
    pub fn context(&self, i: usize) -> &[f32] {
        self.contexts.row(i)
    }

    /// Scores all candidate `segs` of trajectory point `point_idx`,
    /// writing `P_O` values into `out` (cleared first).
    #[allow(clippy::too_many_arguments)] // mirrors Eq. 8's inputs one-to-one
    pub fn score_into(
        &mut self,
        net: &RoadNetwork,
        graph: &MultiRelGraph,
        pos: Point,
        tower: TowerId,
        point_idx: usize,
        segs: &[SegmentId],
        out: &mut Vec<f32>,
    ) {
        out.clear();
        if segs.is_empty() {
            return;
        }
        let t0 = crate::timing::StageTimer::start();
        let n = segs.len();
        let d = self.learner.dim;
        let context = self.contexts.row(point_idx);
        let mut cat = self.scratch.take(n, 2 * d);
        for (r, &s) in segs.iter().enumerate() {
            let row = cat.row_mut(r);
            row[..d].copy_from_slice(self.emb.segment(s));
            row[d..].copy_from_slice(context);
        }
        let implicit = self.learner.implicit_mlp.infer_with(
            &self.learner.implicit_store,
            &cat,
            &mut self.scratch,
        );
        let mut x = self.scratch.take(n, 1 + N_EXPLICIT);
        for (r, &seg) in segs.iter().enumerate() {
            let feats = self
                .learner
                .explicit_features(net, graph, pos, tower, seg);
            let row = x.row_mut(r);
            row[0] = implicit.data()[r];
            row[1..].copy_from_slice(&feats);
        }
        let logits =
            self.learner
                .fuse_mlp
                .infer_with(&self.learner.fuse_store, &x, &mut self.scratch);
        out.extend(logits.data().iter().map(|&v| 1.0 / (1.0 + (-v).exp())));
        self.scratch.give(cat);
        self.scratch.give(implicit);
        self.scratch.give(x);
        self.scratch.give(logits);
        self.stats.time_s += t0.elapsed_s();
        self.stats.calls += 1;
        self.stats.rows += segs.len() as u64;
    }

    /// Accumulated timing/volume counters.
    pub fn stats(&self) -> ScorerStats {
        self.stats
    }

    /// `(fresh_allocs, high_water_bytes)` of the loaned scratch arena.
    pub fn scratch_stats(&self) -> (u64, u64) {
        (self.scratch.fresh_allocs(), self.scratch.high_water_bytes())
    }

    /// Returns the scratch arena (with the context matrix recycled into it)
    /// and the accumulated stats.
    pub fn finish(mut self) -> (Scratch, ScorerStats) {
        let contexts = std::mem::replace(&mut self.contexts, Matrix::zeros(0, 0));
        self.scratch.give(contexts);
        (self.scratch, self.stats)
    }
}

/// Stacks tower embedding rows for a trajectory.
pub(crate) fn tower_rows(emb: &Embeddings, towers: &[TowerId]) -> Matrix {
    let mut m = Matrix::zeros(towers.len(), emb.dim);
    for (r, &t) in towers.iter().enumerate() {
        m.row_mut(r).copy_from_slice(emb.tower(t));
    }
    m
}

/// Stacks segment embedding rows.
pub(crate) fn segment_rows(emb: &Embeddings, segs: &[SegmentId]) -> Matrix {
    let mut m = Matrix::zeros(segs.len(), emb.dim);
    for (r, &s) in segs.iter().enumerate() {
        m.row_mut(r).copy_from_slice(emb.segment(s));
    }
    m
}

/// `(record, point, positive segments)` triples with non-empty positives.
type PointSample = (usize, usize, Vec<SegmentId>);

/// Assigns each truth segment to the closest trajectory point (the
/// co-occurrence definition) and keeps points with at least one positive.
fn build_point_samples(net: &RoadNetwork, records: &[TrajectoryRecord]) -> Vec<PointSample> {
    let mut samples = Vec::new();
    for (ri, rec) in records.iter().enumerate() {
        let points = &rec.cellular.points;
        if points.is_empty() {
            continue;
        }
        let mut pos_sets: Vec<Vec<SegmentId>> = vec![Vec::new(); points.len()];
        for &seg in &rec.truth.segments {
            let mid = net.segment_midpoint(seg);
            // `points` is non-empty (checked above), so a minimum always
            // exists; `total_cmp` keeps the choice deterministic.
            let best = points
                .iter()
                .enumerate()
                .map(|(i, p)| (i, p.pos.distance(mid)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .map_or(0, |(i, _)| i);
            pos_sets[best].push(seg);
        }
        for (pi, set) in pos_sets.into_iter().enumerate() {
            if !set.is_empty() {
                samples.push((ri, pi, set));
            }
        }
    }
    samples
}

fn pick_sample<'a>(
    samples: &'a [PointSample],
    rng: &mut StdRng,
) -> Option<(usize, usize, &'a [SegmentId])> {
    if samples.is_empty() {
        return None;
    }
    let (ri, pi, segs) = &samples[rng.gen_range(0..samples.len())];
    Some((*ri, *pi, segs))
}

/// One positive road plus undersampled surrounding negatives for a point.
fn sample_roads(
    net: &RoadNetwork,
    index: &SpatialIndex,
    rec: &TrajectoryRecord,
    pt_idx: usize,
    positives: &[SegmentId],
    cfg: &ObsConfig,
    rng: &mut StdRng,
) -> (Vec<SegmentId>, Vec<f32>) {
    let pos = rec.cellular.points[pt_idx].effective_pos();
    let truth: std::collections::HashSet<SegmentId> = rec.truth.segment_set();
    let mut negs: Vec<SegmentId> = index
        .segments_within(net, pos, cfg.radius)
        .into_iter()
        .map(|(s, _)| s)
        .filter(|s| !truth.contains(s))
        .collect();
    let mut segs = Vec::with_capacity(1 + cfg.neg_per_pos);
    let mut labels = Vec::with_capacity(segs.capacity());
    segs.push(positives[rng.gen_range(0..positives.len())]);
    labels.push(1.0);
    negs.shuffle(rng);
    for &n in negs.iter().take(cfg.neg_per_pos) {
        segs.push(n);
        labels.push(0.0);
    }
    (segs, labels)
}

fn estimate_dist_norm(
    net: &RoadNetwork,
    index: &SpatialIndex,
    records: &[TrajectoryRecord],
    cfg: &ObsConfig,
    rng: &mut StdRng,
) -> FeatNorm {
    let mut dists: Vec<f32> = Vec::new();
    for _ in 0..400 {
        let rec = &records[rng.gen_range(0..records.len())];
        if rec.cellular.is_empty() {
            continue;
        }
        let pi = rng.gen_range(0..rec.cellular.len());
        let pos = rec.cellular.points[pi].effective_pos();
        for (s, _) in index.segments_within(net, pos, cfg.radius).iter().take(10) {
            dists.push(net.distance_to_segment(pos, *s) as f32);
        }
    }
    if dists.is_empty() {
        return FeatNorm {
            mean: 0.0,
            std: 1_000.0,
        };
    }
    let mean = dists.iter().sum::<f32>() / dists.len() as f32;
    let var = dists.iter().map(|d| (d - mean) * (d - mean)).sum::<f32>() / dists.len() as f32;
    FeatNorm {
        mean,
        std: var.sqrt().max(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhmm_cellsim::dataset::{Dataset, DatasetConfig};
    use lhmm_graph::encoder::{train_encoder, EncoderConfig, EncoderKind};

    fn quick_setup() -> (Dataset, MultiRelGraph, Embeddings) {
        let ds = Dataset::generate(&DatasetConfig::tiny_test(41));
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
        (ds, graph, emb)
    }

    fn quick_cfg() -> ObsConfig {
        ObsConfig {
            epochs: 60,
            fuse_epochs: 30,
            batch_points: 12,
            ..Default::default()
        }
    }

    #[test]
    fn training_is_finite_and_scores_are_probabilities() {
        let (ds, graph, emb) = quick_setup();
        let learner = ObservationLearner::train(
            &ds.network,
            &ds.index,
            &emb,
            &graph,
            &ds.train,
            &quick_cfg(),
        );
        let rec = &ds.test[0];
        let towers = rec.cellular.towers();
        let ctx = learner.context_row(&emb, &towers, 0);
        assert_eq!(ctx.len(), 16);
        let pos = rec.cellular.points[0].effective_pos();
        let segs: Vec<SegmentId> = ds
            .index
            .k_nearest(&ds.network, pos, 20, 3_000.0)
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        let scores = learner.score(
            &ds.network,
            &graph,
            &emb,
            &ctx,
            pos,
            rec.cellular.points[0].tower,
            &segs,
        );
        assert_eq!(scores.len(), segs.len());
        assert!(scores
            .iter()
            .all(|&s| (0.0..=1.0).contains(&s) && s.is_finite()));
    }

    #[test]
    fn learned_po_ranks_true_roads_above_other_roads() {
        let (ds, graph, emb) = quick_setup();
        let learner = ObservationLearner::train(
            &ds.network,
            &ds.index,
            &emb,
            &graph,
            &ds.train,
            &quick_cfg(),
        );
        let mut truth_scores = Vec::new();
        let mut other_scores = Vec::new();
        for rec in ds.test.iter().take(8) {
            let towers = rec.cellular.towers();
            let truth = rec.truth.segment_set();
            for (i, p) in rec.cellular.points.iter().enumerate() {
                let ctx = learner.context_row(&emb, &towers, i);
                let pos = p.effective_pos();
                let segs: Vec<SegmentId> = ds
                    .index
                    .segments_within(&ds.network, pos, 2_000.0)
                    .into_iter()
                    .map(|(s, _)| s)
                    .collect();
                if segs.is_empty() {
                    continue;
                }
                let scores =
                    learner.score(&ds.network, &graph, &emb, &ctx, pos, p.tower, &segs);
                for (&s, &sc) in segs.iter().zip(&scores) {
                    if truth.contains(&s) {
                        truth_scores.push(sc);
                    } else {
                        other_scores.push(sc);
                    }
                }
            }
        }
        assert!(!truth_scores.is_empty() && !other_scores.is_empty());
        let tm: f32 = truth_scores.iter().sum::<f32>() / truth_scores.len() as f32;
        let om: f32 = other_scores.iter().sum::<f32>() / other_scores.len() as f32;
        assert!(
            tm > om,
            "learned P_O failed to separate truth ({tm}) from noise ({om})"
        );
    }

    #[test]
    fn traj_scorer_is_bitwise_identical_to_reference() {
        let (ds, graph, emb) = quick_setup();
        let learner = ObservationLearner::train(
            &ds.network,
            &ds.index,
            &emb,
            &graph,
            &ds.train,
            &quick_cfg(),
        );
        let mut scratch = Scratch::new();
        for rec in ds.test.iter().take(4) {
            let towers = rec.cellular.towers();
            if towers.is_empty() {
                continue;
            }
            let contexts = learner.context_rows(&emb, &towers);
            let mut fast = learner.traj_scorer(&emb, &towers, scratch);
            let mut out = Vec::new();
            for (i, p) in rec.cellular.points.iter().enumerate() {
                assert_eq!(
                    contexts[i].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    fast.context(i)
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>(),
                    "context diverged at point {i}"
                );
                let pos = p.effective_pos();
                let segs: Vec<SegmentId> = ds
                    .index
                    .k_nearest(&ds.network, pos, 12, 3_000.0)
                    .into_iter()
                    .map(|(s, _)| s)
                    .collect();
                let want = learner.score(&ds.network, &graph, &emb, &contexts[i], pos, p.tower, &segs);
                fast.score_into(&ds.network, &graph, pos, p.tower, i, &segs, &mut out);
                assert_eq!(want.len(), out.len());
                for (a, b) in want.iter().zip(&out) {
                    assert_eq!(a.to_bits(), b.to_bits(), "P_O diverged at point {i}");
                }
            }
            // The next trajectory reuses the warm arena.
            scratch = fast.finish().0;
        }
    }

    #[test]
    fn empty_candidate_batch_is_safe() {
        let (ds, graph, emb) = quick_setup();
        let learner = ObservationLearner::train(
            &ds.network,
            &ds.index,
            &emb,
            &graph,
            &ds.train,
            &ObsConfig {
                epochs: 5,
                fuse_epochs: 5,
                ..quick_cfg()
            },
        );
        let scores = learner.score(
            &ds.network,
            &graph,
            &emb,
            &[0.0; 16],
            Point::ORIGIN,
            TowerId(0),
            &[],
        );
        assert!(scores.is_empty());
    }
}
