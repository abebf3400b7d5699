//! The LHMM model: training pipeline and matcher (paper §IV).

use crate::candidates::nearest_segments;
use crate::classic::{ClassicObservation, ClassicTransition};
use crate::error::{Degradation, MatchError};
use crate::observation::{ObsConfig, ObsTrajScorer, ObservationLearner};
use crate::transition::{TrajTransScorer, TransConfig, TransitionLearner};
use crate::types::{
    transitions_per_pair, Candidate, HmmProbabilities, LayerRoutes, MapMatcher, MatchContext,
    MatchResult, MatchStats, RouteInfo,
};
use crate::viterbi::{EngineConfig, HmmEngine, HmmOutput};
use std::ops::{Deref, DerefMut};
use crate::timing::StageTimer;
use lhmm_cellsim::dataset::Dataset;
use lhmm_cellsim::tower::TowerId;
use lhmm_cellsim::traj::CellularTrajectory;
use lhmm_geo::Point;
use lhmm_graph::encoder::{train_encoder, Embeddings, EncoderConfig};
use lhmm_graph::relgraph::MultiRelGraph;
use lhmm_network::backend::{SpBackend, SpHandle};
use lhmm_network::graph::SegmentId;
use lhmm_network::RoadNetwork;

/// Full LHMM configuration, including the ablation switches of Table III.
#[derive(Clone, Debug)]
pub struct LhmmConfig {
    /// Het-Graph Encoder settings (`kind` selects LHMM-E / LHMM-H variants).
    pub encoder: EncoderConfig,
    /// Observation-learner settings.
    pub obs: ObsConfig,
    /// Transition-learner settings.
    pub trans: TransConfig,
    /// Candidates per point `k` (paper: 30 for LHMM).
    pub k: usize,
    /// Shortcuts per candidate `K` (paper: 1; 0 = LHMM-S ablation).
    pub shortcut_k: usize,
    /// Use the learned observation probability (false = LHMM-O ablation).
    pub use_learned_obs: bool,
    /// Use the learned transition probability (false = LHMM-T ablation).
    pub use_learned_trans: bool,
    /// Candidate search radius, meters.
    pub candidate_radius: f64,
    /// Max segments scored per point before the top-k cut.
    pub max_scored: usize,
    /// Route-search bound factor/slack (see [`EngineConfig`]).
    pub route_factor: f64,
    /// Additive route-search slack, meters.
    pub route_slack: f64,
    /// Master seed for all learners.
    pub seed: u64,
    /// Shortest-path backend used for transition routing. `Dijkstra` is
    /// the scalar oracle; `Ch` answers the same queries from a contraction
    /// hierarchy, bitwise-identically (pinned by `crates/network/tests/`).
    pub sp_backend: SpBackend,
}

impl Default for LhmmConfig {
    fn default() -> Self {
        LhmmConfig {
            encoder: EncoderConfig::default(),
            obs: ObsConfig::default(),
            trans: TransConfig::default(),
            k: 30,
            shortcut_k: 1,
            use_learned_obs: true,
            use_learned_trans: true,
            candidate_radius: 3_000.0,
            max_scored: 150,
            route_factor: 4.0,
            route_slack: 3_000.0,
            seed: 0,
            sp_backend: SpBackend::Dijkstra,
        }
    }
}

impl LhmmConfig {
    /// A configuration sized for unit tests and small datasets: narrower
    /// embeddings, fewer training steps, smaller k.
    pub fn fast_test(seed: u64) -> Self {
        LhmmConfig {
            encoder: EncoderConfig {
                dim: 16,
                epochs: 60,
                batch_edges: 256,
                seed,
                ..Default::default()
            },
            obs: ObsConfig {
                epochs: 60,
                fuse_epochs: 30,
                batch_points: 12,
                seed,
                ..Default::default()
            },
            trans: TransConfig {
                epochs: 50,
                fuse_epochs: 25,
                batch_trajs: 6,
                seed,
                ..Default::default()
            },
            k: 10,
            candidate_radius: 2_000.0,
            max_scored: 80,
            seed,
            ..Default::default()
        }
    }
}

/// The trained, immutable half of the LHMM matcher: configuration, graph,
/// embeddings and both learned probability networks.
///
/// Contains no search state, so it is `Send + Sync`: one model can serve
/// many [`HmmEngine`]s concurrently (see [`crate::batch`]). The familiar
/// [`Lhmm`] couples a model with one engine for serial use.
///
/// `Clone` is deliberate: the model registry ([`crate::registry`]) derives
/// refreshed candidate versions by cloning the active model and folding new
/// co-occurrence statistics into the copy, leaving the served version
/// untouched.
#[derive(Clone)]
pub struct LhmmModel {
    /// The configuration the model was trained with. `k` and `shortcut_k`
    /// may be changed between matches (parameter sweeps) via
    /// [`Lhmm::set_k`] / [`Lhmm::set_shortcuts`].
    pub config: LhmmConfig,
    graph: MultiRelGraph,
    embeddings: Embeddings,
    obs_learner: Option<ObservationLearner>,
    trans_learner: Option<TransitionLearner>,
    classic_obs: ClassicObservation,
    classic_trans: ClassicTransition,
    name: String,
    sp: SpHandle,
    sp_preprocess_time_s: f64,
}

/// The trained LHMM matcher: a [`LhmmModel`] plus one search engine.
/// Dereferences to the model, so trained state and `config` read through.
pub struct Lhmm {
    model: LhmmModel,
    engine: HmmEngine,
}

impl Deref for Lhmm {
    type Target = LhmmModel;

    fn deref(&self) -> &LhmmModel {
        &self.model
    }
}

impl DerefMut for Lhmm {
    fn deref_mut(&mut self) -> &mut LhmmModel {
        &mut self.model
    }
}

impl LhmmModel {
    /// Trains the full pipeline (encoder → P_O learner → P_T learner) on
    /// the dataset's training split.
    pub fn train(ds: &Dataset, mut config: LhmmConfig) -> Self {
        config.encoder.seed = config.seed;
        config.obs.seed = config.seed;
        config.trans.seed = config.seed;
        let graph = MultiRelGraph::build(&ds.network, ds.towers.len(), &ds.train);
        let embeddings = train_encoder(&graph, &config.encoder);
        let obs_learner = config.use_learned_obs.then(|| {
            ObservationLearner::train(
                &ds.network,
                &ds.index,
                &embeddings,
                &graph,
                &ds.train,
                &config.obs,
            )
        });
        let trans_learner = config.use_learned_trans.then(|| {
            TransitionLearner::train(&ds.network, &ds.index, &embeddings, &ds.train, &config.trans)
        });
        let name = variant_name(&config);
        let sp_timer = StageTimer::start();
        let sp = SpHandle::build(&ds.network, config.sp_backend);
        // Dijkstra has no preprocessing stage; only charge CH construction.
        let sp_preprocess_time_s = match config.sp_backend {
            SpBackend::Dijkstra => 0.0,
            SpBackend::Ch => sp_timer.elapsed_s(),
        };
        LhmmModel {
            config,
            graph,
            embeddings,
            obs_learner,
            trans_learner,
            classic_obs: ClassicObservation::cellular(),
            classic_trans: ClassicTransition::cellular(),
            name,
            sp,
            sp_preprocess_time_s,
        }
    }

    /// The engine parameters this model's configuration implies; every
    /// engine matching on behalf of the model must be built from these.
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            max_route_factor: self.config.route_factor,
            route_slack: self.config.route_slack,
            shortcuts: self.config.shortcut_k,
            sp: self.sp.clone(),
        }
    }

    /// The shortest-path handle every engine serving this model shares.
    pub fn sp_handle(&self) -> &SpHandle {
        &self.sp
    }

    /// Switches the shortest-path backend, rebuilding the preprocessing
    /// stage against `net` (which must be the model's training network).
    /// Results are bitwise-unchanged by construction; only speed differs.
    pub fn set_sp_backend(&mut self, net: &RoadNetwork, backend: SpBackend) {
        self.config.sp_backend = backend;
        let sp_timer = StageTimer::start();
        self.sp = SpHandle::build(net, backend);
        self.sp_preprocess_time_s = match backend {
            SpBackend::Dijkstra => 0.0,
            SpBackend::Ch => sp_timer.elapsed_s(),
        };
    }

    /// Short display name ("LHMM", "LHMM-O", ...).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The multi-relational graph built from the training split.
    pub fn graph(&self) -> &MultiRelGraph {
        &self.graph
    }

    /// The trained embeddings.
    pub fn embeddings(&self) -> &Embeddings {
        &self.embeddings
    }

    /// Serializes every trained weight (embeddings + both learners) to a
    /// standalone byte buffer. Pair with [`Lhmm::load_weights`]; model
    /// *structure* is rebuilt from the config, so only values are stored.
    pub fn save_weights(&self) -> Vec<u8> {
        let mut enc = lhmm_neural::persist::Encoder::new();
        self.embeddings.export_weights(&mut enc);
        if let Some(o) = &self.obs_learner {
            o.export_weights(&mut enc);
        }
        if let Some(t) = &self.trans_learner {
            t.export_weights(&mut enc);
        }
        enc.finish()
    }

    /// Rebuilds a model from its dataset + config (zero training epochs)
    /// and loads previously saved weights into it. The dataset and config
    /// must be identical to the ones the weights were trained with.
    pub fn load_weights(
        ds: &Dataset,
        mut config: LhmmConfig,
        bytes: &[u8],
    ) -> Result<Self, lhmm_neural::persist::DecodeError> {
        // Build the exact same structure without spending training time.
        config.encoder.epochs = 0;
        config.obs.epochs = 0;
        config.obs.fuse_epochs = 0;
        config.trans.epochs = 0;
        config.trans.fuse_epochs = 0;
        let mut model = LhmmModel::train(ds, config);
        let mut dec = lhmm_neural::persist::Decoder::new(bytes)?;
        model.embeddings.import_weights(&mut dec)?;
        if let Some(o) = &mut model.obs_learner {
            o.import_weights(&mut dec)?;
        }
        if let Some(t) = &mut model.trans_learner {
            t.import_weights(&mut dec)?;
        }
        Ok(model)
    }

    /// A copy of this model with freshly observed (tower, matched-segment)
    /// co-occurrence counts folded into its multi-relational graph — the
    /// derive step of the accumulate → refresh → swap loop
    /// ([`crate::registry`]). The receiver is untouched (it may be the
    /// actively served version); the copy re-derives its observation
    /// reach: for learned variants both the co-occurrence candidate
    /// expansion in `LhmmModel::prepare_candidates` and the explicit
    /// co-frequency feature of `P_O` see the new mass. Classic (ablated)
    /// variants carry the updated graph but score distance-only, so their
    /// verdicts are unchanged by construction.
    pub fn refreshed(
        &self,
        counts: &std::collections::BTreeMap<(u32, u32), u64>,
    ) -> LhmmModel {
        let mut next = self.clone();
        next.graph.fold_co(counts);
        next
    }

    /// The trained observation learner (`None` under the LHMM-O ablation).
    pub fn observation_learner(&self) -> Option<&ObservationLearner> {
        self.obs_learner.as_ref()
    }

    /// The trained transition learner (`None` under the LHMM-T ablation).
    pub fn transition_learner(&self) -> Option<&TransitionLearner> {
        self.trans_learner.as_ref()
    }

    /// Builds the per-trajectory observation scorer around a loaned scratch
    /// arena; `None` when the learned observation model is ablated.
    pub(crate) fn obs_scorer_with(
        &self,
        towers: &[TowerId],
        scratch: lhmm_neural::Scratch,
    ) -> Option<ObsTrajScorer<'_>> {
        self.obs_learner
            .as_ref()
            .map(|learner| learner.traj_scorer(&self.embeddings, towers, scratch))
    }

    /// Candidate layers for one trajectory: per kept point, the top-k
    /// segments by (learned or classic) observation probability.
    /// Returns `(kept point indices, layers)`. `obs_scorer` must have been
    /// built from the same trajectory's towers (point indices align).
    ///
    /// Points with no segment inside the candidate radius are *dropped*
    /// (graceful degradation), counted into `deg.dropped_points`.
    pub(crate) fn prepare_candidates(
        &self,
        ctx: &MatchContext<'_>,
        traj: &CellularTrajectory,
        obs_scorer: &mut Option<ObsTrajScorer<'_>>,
        deg: &mut Degradation,
    ) -> (Vec<usize>, Vec<Vec<Candidate>>) {
        let mut kept = Vec::new();
        let mut layers = Vec::new();
        let mut scores: Vec<f32> = Vec::new();
        for (i, p) in traj.points.iter().enumerate() {
            let pos = p.effective_pos();
            let pairs = nearest_segments(
                ctx.net,
                ctx.index,
                pos,
                self.config.max_scored,
                self.config.candidate_radius,
            );
            if pairs.is_empty() {
                deg.dropped_points += 1;
                continue;
            }
            let layer = match obs_scorer.as_mut() {
                Some(scorer) => {
                    // Score the nearest segments plus the tower's
                    // historically co-occurring segments: radio propagation
                    // regularly serves roads that are *not* among the
                    // nearest, and the co-occurrence relation is how the
                    // learned P_O reaches them (paper §IV-B).
                    let mut segs: Vec<SegmentId> = pairs.iter().map(|&(s, _)| s).collect();
                    for (co_seg, _) in self.graph.co_segments(p.tower) {
                        if ctx.net.distance_to_segment(pos, co_seg)
                            <= self.config.candidate_radius
                        {
                            segs.push(co_seg);
                        }
                    }
                    segs.sort_unstable();
                    segs.dedup();
                    let pairs: Vec<(SegmentId, lhmm_geo::Projection)> = segs
                        .iter()
                        .map(|&s| (s, ctx.net.project(pos, s)))
                        .collect();
                    let segs: Vec<SegmentId> = pairs.iter().map(|&(s, _)| s).collect();
                    scorer.score_into(
                        ctx.net,
                        &self.graph,
                        pos,
                        p.tower,
                        i,
                        &segs,
                        &mut scores,
                    );
                    let mut scored: Vec<Candidate> = pairs
                        .iter()
                        .zip(&scores)
                        .map(|(&(seg, proj), &s)| Candidate {
                            seg,
                            t: proj.t,
                            obs: s as f64,
                        })
                        .collect();
                    scored.sort_by(|a, b| b.obs.total_cmp(&a.obs));
                    scored.truncate(self.config.k);
                    scored
                }
                _ => {
                    // Classic distance-based preparation (LHMM-O).
                    let mut layer: Vec<Candidate> = pairs
                        .iter()
                        .map(|&(seg, proj)| Candidate {
                            seg,
                            t: proj.t,
                            obs: self.classic_obs.prob(proj.distance),
                        })
                        .collect();
                    layer.truncate(self.config.k);
                    layer
                }
            };
            if layer.is_empty() {
                deg.dropped_points += 1;
                continue;
            }
            kept.push(i);
            layers.push(layer);
        }
        (kept, layers)
    }
}

fn variant_name(cfg: &LhmmConfig) -> String {
    use lhmm_graph::encoder::EncoderKind;
    let mut tags = Vec::new();
    match cfg.encoder.kind {
        EncoderKind::Heterogeneous => {}
        EncoderKind::Homogeneous => tags.push("H"),
        EncoderKind::MlpEmbedding => tags.push("E"),
    }
    if !cfg.use_learned_obs {
        tags.push("O");
    }
    if !cfg.use_learned_trans {
        tags.push("T");
    }
    if cfg.shortcut_k == 0 {
        tags.push("S");
    }
    if tags.is_empty() {
        "LHMM".to_string()
    } else {
        format!("LHMM-{}", tags.join(""))
    }
}

/// Per-trajectory probability model plugged into the engine.
struct LhmmTrajModel<'a> {
    obs_scorer: Option<ObsTrajScorer<'a>>,
    trans_scorer: Option<TrajTransScorer<'a>>,
    graph: &'a MultiRelGraph,
    classic_obs: ClassicObservation,
    classic_trans: ClassicTransition,
    net: &'a lhmm_network::graph::RoadNetwork,
    /// Per *kept* point: effective position, timestamp and tower.
    positions: Vec<Point>,
    times: Vec<f64>,
    towers: Vec<TowerId>,
    /// Maps kept index to original trajectory index (scorer contexts are
    /// indexed by original position).
    orig_idx: Vec<usize>,
    /// Reused output buffer for single-candidate engine re-scores.
    obs_out: Vec<f32>,
}

impl HmmProbabilities for LhmmTrajModel<'_> {
    fn observation(&mut self, i: usize, seg: SegmentId, dist: f64) -> f64 {
        match self.obs_scorer.as_mut() {
            Some(scorer) => {
                let oi = self.orig_idx[i];
                scorer.score_into(
                    self.net,
                    self.graph,
                    self.positions[i],
                    self.towers[i],
                    oi,
                    &[seg],
                    &mut self.obs_out,
                );
                self.obs_out[0] as f64
            }
            None => self.classic_obs.prob(dist),
        }
    }

    fn transition(
        &mut self,
        i: usize,
        _prev: &Candidate,
        _cur: &Candidate,
        route: &RouteInfo,
    ) -> f64 {
        if !route.found {
            return 0.0;
        }
        let d_straight = self.positions[i - 1].distance(self.positions[i]);
        let dt = self.times[i] - self.times[i - 1];
        match &mut self.trans_scorer {
            Some(scorer) => scorer.transition_prob(
                self.net,
                d_straight,
                dt,
                route.length,
                route.segments,
            ) as f64,
            None => self.classic_trans.prob(d_straight, route.length),
        }
    }

    fn transition_layer(
        &mut self,
        i: usize,
        prev_layer: &[Candidate],
        cur_layer: &[Candidate],
        routes: &LayerRoutes,
        out: &mut [f64],
    ) {
        match self.trans_scorer.as_mut() {
            // The learned scorer shares work across the layer; the classic
            // ablation scores per pair.
            Some(scorer) => {
                let d_straight = self.positions[i - 1].distance(self.positions[i]);
                let dt = self.times[i] - self.times[i - 1];
                scorer.transition_layer(self.net, d_straight, dt, routes, out);
            }
            None => transitions_per_pair(self, i, prev_layer, cur_layer, routes, out),
        }
    }
}

impl LhmmModel {
    /// Matches one trajectory using a caller-provided engine.
    ///
    /// The engine must have been built from [`LhmmModel::engine_config`]
    /// (any cache contents are fine: cache state never changes answers,
    /// only speed — see [`crate::batch`] for the argument). This is the
    /// single matching entry point; [`Lhmm`] and the batch matcher both
    /// route through it.
    pub fn match_with_engine(
        &self,
        ctx: &MatchContext<'_>,
        traj: &CellularTrajectory,
        engine: &mut HmmEngine,
    ) -> MatchResult {
        self.match_with_engine_stats(ctx, traj, engine).0
    }

    /// [`LhmmModel::match_with_engine`] plus per-trajectory engine
    /// telemetry (Viterbi timing, cache layer counters, shortcut activity).
    ///
    /// Infallible wrapper around [`LhmmModel::try_match_with_engine_stats`]:
    /// a typed [`MatchError`] degrades to an empty [`MatchResult`] with
    /// `degradation.failed_matches = 1`, so pipelines that loop over
    /// trajectories keep going and the failure stays visible in the stats.
    pub fn match_with_engine_stats(
        &self,
        ctx: &MatchContext<'_>,
        traj: &CellularTrajectory,
        engine: &mut HmmEngine,
    ) -> (MatchResult, MatchStats) {
        match self.try_match_with_engine_stats(ctx, traj, engine) {
            Ok(pair) => pair,
            Err(_) => {
                let mut stats = MatchStats::default();
                stats.degradation.failed_matches = 1;
                (MatchResult::empty(), stats)
            }
        }
    }

    /// Matches one trajectory, reporting unmatchable inputs as typed
    /// errors.
    ///
    /// Degradation policy (see [`crate::error`]): points without nearby
    /// segments are dropped and counted; an entirely uncovered trajectory is
    /// [`MatchError::NoCandidates`]; an empty trajectory is
    /// [`MatchError::EmptyTrajectory`]. Everything else returns `Ok` with
    /// `stats.degradation` describing any best-effort repairs.
    pub fn try_match_with_engine_stats(
        &self,
        ctx: &MatchContext<'_>,
        traj: &CellularTrajectory,
        engine: &mut HmmEngine,
    ) -> Result<(MatchResult, MatchStats), MatchError> {
        let (out, candidate_sets, stats) = self.match_core(ctx, traj, engine, |e, pts, layers, m| {
            e.try_find_path(ctx.net, pts, layers, m)
        })?;
        let result = MatchResult {
            path: out.path,
            candidate_sets: Some(candidate_sets),
        };
        Ok((result, stats))
    }

    /// [`Self::try_match_with_engine_stats`] with the engine run handed to
    /// `drive`, which receives the engine, the kept points, their candidate
    /// layers and the per-trajectory probability model, and normally calls
    /// [`HmmEngine::try_find_path`]. Returns the engine's raw output
    /// (winning score, added candidates) with the match telemetry.
    /// Harnesses use it to wrap the model, e.g. to pin the layer-at-a-time
    /// [`HmmProbabilities::transition_layer`] against the per-pair default.
    pub fn try_find_path_with<F>(
        &self,
        ctx: &MatchContext<'_>,
        traj: &CellularTrajectory,
        engine: &mut HmmEngine,
        drive: F,
    ) -> Result<(HmmOutput, MatchStats), MatchError>
    where
        F: FnOnce(
            &mut HmmEngine,
            &[(Point, f64)],
            Vec<Vec<Candidate>>,
            &mut dyn HmmProbabilities,
        ) -> Result<HmmOutput, MatchError>,
    {
        let (out, _, stats) = self.match_core(ctx, traj, engine, |e, pts, layers, m| {
            drive(e, pts, layers, m)
        })?;
        Ok((out, stats))
    }

    /// One match: candidate preparation, the engine run `drive` performs
    /// on the per-trajectory model, and the telemetry around both. Returns
    /// the engine output, the per-point candidate road sets (including
    /// shortcut-added candidates) and the stats.
    fn match_core<F>(
        &self,
        ctx: &MatchContext<'_>,
        traj: &CellularTrajectory,
        engine: &mut HmmEngine,
        drive: F,
    ) -> Result<(HmmOutput, Vec<Vec<SegmentId>>, MatchStats), MatchError>
    where
        F: FnOnce(
            &mut HmmEngine,
            &[(Point, f64)],
            Vec<Vec<Candidate>>,
            &mut LhmmTrajModel<'_>,
        ) -> Result<HmmOutput, MatchError>,
    {
        let mut stats = MatchStats {
            sp_preprocess_time_s: self.sp_preprocess_time_s,
            sp_shortcuts: self.sp.shortcut_count(),
            kernel: lhmm_neural::kernel::active().name(),
            ..MatchStats::default()
        };
        if traj.is_empty() {
            return Err(MatchError::EmptyTrajectory);
        }
        let towers = traj.towers();

        let obs_scratch = engine.take_obs_scratch();
        let obs_allocs0 = obs_scratch.fresh_allocs();
        let cand_start = StageTimer::start();
        let mut obs_scorer = self.obs_scorer_with(&towers, obs_scratch);
        let (kept, layers) =
            self.prepare_candidates(ctx, traj, &mut obs_scorer, &mut stats.degradation);
        stats.candidate_time_s = cand_start.elapsed_s();

        // Hand a finished observation scorer's arena/stats back regardless
        // of how the match exits.
        let retire_obs =
            |scorer: Option<ObsTrajScorer<'_>>, engine: &mut HmmEngine, stats: &mut MatchStats| {
                if let Some(s) = scorer {
                    let (scratch, st) = s.finish();
                    stats.obs_time_s += st.time_s;
                    stats.obs_calls += st.calls;
                    stats.obs_rows += st.rows;
                    stats.scratch_allocs += scratch.fresh_allocs() - obs_allocs0;
                    stats.scratch_bytes = stats.scratch_bytes.max(scratch.high_water_bytes());
                    engine.put_obs_scratch(scratch);
                }
            };

        if kept.is_empty() {
            retire_obs(obs_scorer, engine, &mut stats);
            return Err(MatchError::NoCandidates);
        }

        // Candidate sets aligned to the original trajectory (for HR).
        let mut candidate_sets: Vec<Vec<SegmentId>> = vec![Vec::new(); traj.len()];
        for (ki, layer) in kept.iter().zip(&layers) {
            candidate_sets[*ki] = layer.iter().map(|c| c.seg).collect();
        }

        let pts: Vec<(Point, f64)> = kept
            .iter()
            .map(|&i| (traj.points[i].effective_pos(), traj.points[i].t))
            .collect();
        let positions: Vec<Point> = pts.iter().map(|&(p, _)| p).collect();
        let kept_towers: Vec<TowerId> = kept.iter().map(|&i| traj.points[i].tower).collect();

        let trans_scratch = engine.take_trans_scratch();
        let trans_allocs0 = trans_scratch.fresh_allocs();
        // The scratch arena moves into the scorer when the transition
        // learner exists, and stays here otherwise (to hand back at the
        // end); the match statement makes the either-or explicit.
        let (trans_scorer, mut trans_scratch) = match self.trans_learner.as_ref() {
            Some(l) => (
                Some(TrajTransScorer::with_scratch(
                    l,
                    &self.embeddings,
                    &towers,
                    trans_scratch,
                )),
                None,
            ),
            None => (None, Some(trans_scratch)),
        };
        let mut model = LhmmTrajModel {
            obs_scorer,
            trans_scorer,
            graph: &self.graph,
            classic_obs: self.classic_obs,
            classic_trans: self.classic_trans,
            net: ctx.net,
            positions,
            times: pts.iter().map(|&(_, t)| t).collect(),
            towers: kept_towers,
            orig_idx: kept,
            obs_out: Vec::new(),
        };

        let cache_before = engine.cache_stats();
        // Discard any stale accumulation.
        engine.take_sp_time();
        engine.take_dp_searches();
        let viterbi_start = StageTimer::start();
        let out = drive(engine, &pts, layers, &mut model);
        stats.viterbi_time_s = viterbi_start.elapsed_s();
        stats.sp_time_s = engine.take_sp_time();
        stats.dp_searches = engine.take_dp_searches();
        let cache_after = engine.cache_stats();
        stats.cache_hits = cache_after.hits - cache_before.hits;
        stats.cache_misses = cache_after.misses - cache_before.misses;
        stats.degradation.merge(&engine.take_degradation());

        if let Ok(out) = &out {
            stats.shortcut_activations = out.added_candidates.len() as u64;
            stats.shortcut_points = out.shortcut_points as u64;
            // Shortcut-created candidates enlarge the effective candidate
            // road sets (they are real match hypotheses for the skipped
            // points).
            for (layer_idx, cand) in &out.added_candidates {
                let orig = model.orig_idx[*layer_idx];
                candidate_sets[orig].push(cand.seg);
            }
        }

        // Scorers retire (and scratch arenas return to the engine) whether
        // the engine succeeded or not.
        retire_obs(model.obs_scorer.take(), engine, &mut stats);
        if let Some(s) = model.trans_scorer.take() {
            let (scratch, st) = s.finish();
            stats.trans_time_s = st.time_s;
            stats.trans_calls = st.calls;
            stats.trans_rows = st.rows;
            stats.scratch_allocs += scratch.fresh_allocs() - trans_allocs0;
            stats.scratch_bytes = stats.scratch_bytes.max(scratch.high_water_bytes());
            engine.put_trans_scratch(scratch);
        } else if let Some(scratch) = trans_scratch.take() {
            engine.put_trans_scratch(scratch);
        }

        Ok((out?, candidate_sets, stats))
    }
}

impl Lhmm {
    /// Trains the full pipeline (encoder → P_O learner → P_T learner) on
    /// the dataset's training split and couples it with a search engine.
    pub fn train(ds: &Dataset, config: LhmmConfig) -> Self {
        let model = LhmmModel::train(ds, config);
        let engine = HmmEngine::new(&ds.network, model.engine_config());
        Lhmm { model, engine }
    }

    /// See [`LhmmModel::load_weights`]; the loaded model is coupled with a
    /// fresh engine.
    pub fn load_weights(
        ds: &Dataset,
        config: LhmmConfig,
        bytes: &[u8],
    ) -> Result<Self, lhmm_neural::persist::DecodeError> {
        let model = LhmmModel::load_weights(ds, config, bytes)?;
        let engine = HmmEngine::new(&ds.network, model.engine_config());
        Ok(Lhmm { model, engine })
    }

    /// The trained model half, for sharing across batch workers.
    pub fn model(&self) -> &LhmmModel {
        &self.model
    }

    /// Changes the candidate count `k` for subsequent matches (Fig. 8).
    pub fn set_k(&mut self, k: usize) {
        self.model.config.k = k;
    }

    /// Changes the shortcut count `K` for subsequent matches (Fig. 9).
    pub fn set_shortcuts(&mut self, k: usize) {
        self.model.config.shortcut_k = k;
        self.engine.cfg.shortcuts = k;
    }

    /// Switches the shortest-path backend for subsequent matches and
    /// rebuilds the coupled engine so its query state matches. `net` must
    /// be the network the model was trained on.
    pub fn set_sp_backend(&mut self, net: &RoadNetwork, backend: SpBackend) {
        self.model.set_sp_backend(net, backend);
        self.engine = HmmEngine::new(net, self.model.engine_config());
    }
}

impl MapMatcher for Lhmm {
    fn name(&self) -> &str {
        self.model.name()
    }

    fn match_trajectory(
        &mut self,
        ctx: &MatchContext<'_>,
        traj: &CellularTrajectory,
    ) -> MatchResult {
        self.model.match_with_engine(ctx, traj, &mut self.engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhmm_cellsim::dataset::DatasetConfig;

    fn match_all(ds: &Dataset, matcher: &mut Lhmm, n: usize) -> Vec<MatchResult> {
        let ctx = MatchContext {
            net: &ds.network,
            index: &ds.index,
            towers: &ds.towers,
        };
        ds.test
            .iter()
            .take(n)
            .map(|rec| matcher.match_trajectory(&ctx, &rec.cellular))
            .collect()
    }

    #[test]
    fn trained_lhmm_produces_nonempty_paths() {
        let ds = Dataset::generate(&DatasetConfig::tiny_test(61));
        let mut lhmm = Lhmm::train(&ds, LhmmConfig::fast_test(61));
        assert_eq!(lhmm.name(), "LHMM");
        let results = match_all(&ds, &mut lhmm, 6);
        for r in &results {
            assert!(!r.path.is_empty());
            assert!(r.candidate_sets.is_some());
        }
    }

    #[test]
    fn ablation_names_are_distinct() {
        let mut cfg = LhmmConfig::fast_test(0);
        cfg.use_learned_obs = false;
        assert_eq!(variant_name(&cfg), "LHMM-O");
        let mut cfg = LhmmConfig::fast_test(0);
        cfg.shortcut_k = 0;
        assert_eq!(variant_name(&cfg), "LHMM-S");
        let mut cfg = LhmmConfig::fast_test(0);
        cfg.encoder.kind = lhmm_graph::encoder::EncoderKind::MlpEmbedding;
        assert_eq!(variant_name(&cfg), "LHMM-E");
        let mut cfg = LhmmConfig::fast_test(0);
        cfg.encoder.kind = lhmm_graph::encoder::EncoderKind::Homogeneous;
        cfg.use_learned_trans = false;
        assert_eq!(variant_name(&cfg), "LHMM-HT");
    }

    #[test]
    fn k_and_shortcut_sweeps_take_effect() {
        let ds = Dataset::generate(&DatasetConfig::tiny_test(62));
        let mut cfg = LhmmConfig::fast_test(62);
        cfg.use_learned_obs = false; // cheaper training for this test
        cfg.use_learned_trans = false;
        let mut lhmm = Lhmm::train(&ds, cfg);
        lhmm.set_k(3);
        lhmm.set_shortcuts(0); // shortcut additions would exceed k below
        let r3 = match_all(&ds, &mut lhmm, 3);
        for (r, rec) in r3.iter().zip(&ds.test) {
            let sets = r.candidate_sets.as_ref().unwrap();
            assert!(sets.iter().all(|s| s.len() <= 3));
            assert_eq!(sets.len(), rec.cellular.len());
        }
        lhmm.set_shortcuts(0);
        let r0 = match_all(&ds, &mut lhmm, 3);
        assert_eq!(r0.len(), 3);
    }

    #[test]
    fn save_load_roundtrip_preserves_matching() {
        let ds = Dataset::generate(&DatasetConfig::tiny_test(64));
        let mut trained = Lhmm::train(&ds, LhmmConfig::fast_test(64));
        let bytes = trained.save_weights();
        let mut loaded =
            Lhmm::load_weights(&ds, LhmmConfig::fast_test(64), &bytes).expect("load");
        let ctx = MatchContext {
            net: &ds.network,
            index: &ds.index,
            towers: &ds.towers,
        };
        for rec in ds.test.iter().take(4) {
            let a = trained.match_trajectory(&ctx, &rec.cellular);
            let b = loaded.match_trajectory(&ctx, &rec.cellular);
            assert_eq!(a.path.segments, b.path.segments);
        }
        // Garbage rejects cleanly.
        assert!(Lhmm::load_weights(&ds, LhmmConfig::fast_test(64), b"junk").is_err());
    }

    #[test]
    fn lhmm_beats_distance_only_variant_on_matched_coverage() {
        // LHMM (learned P_O) should locate more truth segments in its
        // candidate sets than the distance-only variant (higher HR).
        let ds = Dataset::generate(&DatasetConfig::tiny_test(63));
        let mut full = Lhmm::train(&ds, LhmmConfig::fast_test(63));
        let mut cfg_o = LhmmConfig::fast_test(63);
        cfg_o.use_learned_obs = false;
        cfg_o.use_learned_trans = false;
        let mut ablated = Lhmm::train(&ds, cfg_o);

        let hit_ratio = |results: &[MatchResult], ds: &Dataset| -> f64 {
            let mut hits = 0usize;
            let mut total = 0usize;
            for (r, rec) in results.iter().zip(&ds.test) {
                let truth = rec.truth.segment_set();
                for set in r.candidate_sets.as_ref().unwrap() {
                    total += 1;
                    if set.iter().any(|s| truth.contains(s)) {
                        hits += 1;
                    }
                }
            }
            hits as f64 / total.max(1) as f64
        };
        let n = ds.test.len();
        let r_full = match_all(&ds, &mut full, n);
        let r_abl = match_all(&ds, &mut ablated, n);
        let hr_full = hit_ratio(&r_full, &ds);
        let hr_abl = hit_ratio(&r_abl, &ds);
        // The learned variant must be at least competitive; with the
        // anisotropic attachment model it should be clearly better.
        assert!(
            hr_full + 0.02 >= hr_abl,
            "learned HR {hr_full} << distance HR {hr_abl}"
        );
    }
}
