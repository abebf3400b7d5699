//! Workload definitions and the pieces every workload shares: input
//! generation from the seed, timed model set-up, quality scoring and the
//! matching-layer split taken from `MatchStats`.

use crate::spec::Metrics;
use crate::trace::{Tracer, ROOT};
use lhmm_cellsim::dataset::{Dataset, DatasetConfig};
use lhmm_cellsim::traj::TrajectoryRecord;
use lhmm_core::batch::BatchStats;
use lhmm_core::lhmm::{LhmmConfig, LhmmModel};
use lhmm_core::observation::ObservationLearner;
use lhmm_core::transition::TransitionLearner;
use lhmm_core::types::{MatchResult, MatchStats};
use lhmm_eval::metrics::evaluate_path;
use lhmm_graph::encoder::train_encoder;
use lhmm_graph::relgraph::MultiRelGraph;
use lhmm_network::backend::SpHandle;
use lhmm_network::graph::RoadNetwork;
use std::time::Instant;

/// Seed of the fixed city every workload runs on (road network and tower
/// placement) and its training trips. Held-out trips and load schedules
/// come from `--seed`.
pub const CITY_SEED: u64 = 7;

/// The named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Dense sampling on a small city; learned scoring dominates.
    OfflineDense,
    /// Sparse sampling on a larger city; route search dominates.
    OfflineSparse,
    /// The dense city behind a 2x1 cluster, open-loop one-shots and
    /// streaming sessions on two connections.
    ClusterMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::OfflineDense,
        Workload::OfflineSparse,
        Workload::ClusterMixed,
    ];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflineDense => "offline_dense",
            Workload::OfflineSparse => "offline_sparse",
            Workload::ClusterMixed => "cluster_mixed",
        }
    }

    /// The dataset the workload trains on: the workload's fixed city and
    /// its fixed training trips (both drawn from [`CITY_SEED`]). `smoke`
    /// swaps in the miniature `tiny_test` city, keeping the workload's
    /// sampling change.
    pub fn dataset(self, smoke: bool) -> DatasetConfig {
        let (mut cfg, interval_factor): (DatasetConfig, f64) = match self {
            // ≈18 points per trajectory on ≈1.4k segments.
            // `offline_dense` matches 80 held-out trajectories per pass
            // (≈2.7 s), so a run's median is taken over six or more passes.
            Workload::OfflineDense => {
                let mut cfg = DatasetConfig::hangzhou_like(0.02, CITY_SEED);
                cfg.num_test = 80;
                (cfg, 0.5)
            }
            Workload::ClusterMixed => (DatasetConfig::hangzhou_like(0.02, CITY_SEED), 0.5),
            // ≈5 points per trajectory on ≈3.6k segments. The training
            // split is cut to keep input generation short; training cost
            // is set by epochs, not by split size.
            Workload::OfflineSparse => {
                let mut cfg = DatasetConfig::hangzhou_like(0.05, CITY_SEED);
                cfg.num_train = 1_500;
                (cfg, 4.0)
            }
        };
        if smoke {
            cfg = DatasetConfig::tiny_test(CITY_SEED);
        }
        // The miniature city's trips are too short for 4x sparser
        // sampling to leave 4 points; halve the stretch there.
        let factor = if smoke {
            interval_factor.min(2.0)
        } else {
            interval_factor
        };
        cfg.sampling.cell_interval_mean *= factor;
        cfg
    }

    /// The model configuration: the paper's (k = 30, K = 1, Dijkstra,
    /// learner seed 0), or the small test configuration in smoke mode.
    pub fn model_config(self, smoke: bool) -> LhmmConfig {
        if smoke {
            LhmmConfig::fast_test(0)
        } else {
            LhmmConfig::default()
        }
    }

    /// How many times set-up runs; `setup_s` is the median.
    /// Two full trainings keep every run inside its time budget (training
    /// on the sparse workload's larger city takes ≈12 s).
    pub fn setup_repeats(self, smoke: bool) -> usize {
        if smoke {
            1
        } else {
            2
        }
    }
}

/// Everything one run produced.
pub struct Outcome {
    /// All correctness gates held.
    pub correct: bool,
    /// Human-readable gate failures.
    pub violations: Vec<String>,
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed, were refused, or errored.
    pub failed: u64,
    /// Collected metrics (both tables; the caller picks one).
    pub metrics: Metrics,
    /// Spans of a traced run.
    pub tracer: Tracer,
    /// Whether the peak-RSS watermark could be reset after set-up.
    pub rss_window_scoped: bool,
    /// Extra diagnostics for the diagnostic line (not metrics).
    pub notes: Vec<(&'static str, crate::json::Value)>,
}

impl Outcome {
    /// An empty outcome recording into `tracer`.
    pub fn new(tracer: Tracer) -> Self {
        Outcome {
            correct: true,
            violations: Vec::new(),
            attempted: 0,
            failed: 0,
            metrics: Metrics::default(),
            tracer,
            rss_window_scoped: false,
            notes: Vec::new(),
        }
    }

    /// Records a gate failure.
    pub fn violate(&mut self, why: String) {
        self.correct = false;
        self.violations.push(why);
    }
}

/// Generates the workload's inputs: the fixed city and training split,
/// plus held-out test trips drawn from `seed` on the same city. The model
/// a run trains is therefore the same for every seed; the seed picks what
/// it is asked to match (and, in `cluster_mixed`, when).
pub fn generate(workload: Workload, seed: u64, smoke: bool) -> Dataset {
    let cfg = workload.dataset(smoke);
    let mut ds = Dataset::generate(&cfg);
    let held_out = DatasetConfig {
        num_train: 0,
        num_val: 0,
        seed,
        ..cfg
    };
    ds.test = Dataset::generate(&held_out).test;
    ds
}

/// Trains the model `repeats` times through `LhmmModel::train` and returns
/// the last model with every set-up time in seconds.
pub fn timed_setup(ds: &Dataset, cfg: &LhmmConfig, repeats: usize) -> (LhmmModel, Vec<f64>) {
    let mut times = Vec::with_capacity(repeats);
    let mut model = None;
    for _ in 0..repeats.max(1) {
        // Drop the previous model first so repeats do not stack memory.
        drop(model.take());
        let t = Instant::now();
        let m = LhmmModel::train(ds, cfg.clone());
        times.push(t.elapsed().as_secs_f64());
        model = Some(m);
    }
    (model.expect("at least one set-up ran"), times)
}

/// Traced runs only: calls each public builder in the order
/// `LhmmModel::train` does, with the same seeds, and records one span per
/// builder plus the per-layer set-up metrics.
pub fn traced_builders(ds: &Dataset, cfg: &LhmmConfig, out: &mut Outcome) {
    let mut cfg = cfg.clone();
    cfg.encoder.seed = cfg.seed;
    cfg.obs.seed = cfg.seed;
    cfg.trans.seed = cfg.seed;
    let t = &mut out.tracer;
    let root_start = Instant::now();
    let mut spans: Vec<(&'static str, Instant, Instant)> = Vec::new();

    let s = Instant::now();
    let graph = MultiRelGraph::build(&ds.network, ds.towers.len(), &ds.train);
    spans.push(("graph.relgraph.build", s, Instant::now()));
    let s = Instant::now();
    let emb = train_encoder(&graph, &cfg.encoder);
    spans.push(("graph.encoder.train", s, Instant::now()));
    let s = Instant::now();
    let obs = ObservationLearner::train(&ds.network, &ds.index, &emb, &graph, &ds.train, &cfg.obs);
    spans.push(("core.observation.train", s, Instant::now()));
    let s = Instant::now();
    let trans = TransitionLearner::train(&ds.network, &ds.index, &emb, &ds.train, &cfg.trans);
    spans.push(("core.transition.train", s, Instant::now()));
    let s = Instant::now();
    let sp = SpHandle::build(&ds.network, cfg.sp_backend);
    spans.push(("network.backend.build", s, Instant::now()));
    drop((graph, emb, obs, trans, sp));

    let root = t.record("setup.builders", ROOT, 0, root_start, Instant::now());
    let names = [
        "graph.relgraph.build_s",
        "graph.encoder.train_s",
        "core.observation.train_s",
        "core.transition.train_s",
        "network.backend.build_s",
    ];
    for ((span, start, end), metric) in spans.into_iter().zip(names) {
        t.record(span, root, 0, start, end);
        out.metrics
            .set(metric, end.duration_since(start).as_secs_f64());
    }
}

/// Mean RMF and CMF50 of `results` against the records' ground truth.
pub fn quality(
    net: &RoadNetwork,
    records: &[TrajectoryRecord],
    results: &[MatchResult],
) -> (f64, f64) {
    let mut rmf = 0.0;
    let mut cmf = 0.0;
    for (rec, res) in records.iter().zip(results) {
        let q = evaluate_path(net, &res.path, &rec.truth);
        rmf += q.rmf;
        cmf += q.cmf50;
    }
    let n = records.len().max(1) as f64;
    (rmf / n, cmf / n)
}

/// Sets the matching-layer metrics from the telemetry of `batches`
/// (`match_batch` calls), given the wall time of their spans and the
/// number of trajectories they matched.
pub fn matching_layers(out: &mut Metrics, batches: &[BatchStats], span_s: f64, trajs: usize) {
    let mut total = MatchStats::default();
    let mut warm_s = 0.0;
    let mut warm_entries = 0usize;
    for b in batches {
        total.merge(&b.total());
        warm_s += b.warm_time_s;
        warm_entries += b.warm_entries;
    }
    let calls = batches.len().max(1) as f64;
    let n = trajs.max(1) as f64;
    let per_traj_ms = |s: f64| s * 1e3 / n;
    let lookups = (total.cache_hits + total.cache_warm_hits + total.cache_misses).max(1) as f64;
    out.set("core.batch.warm_s", warm_s / calls);
    out.set("core.batch.warm_entries", warm_entries as f64 / calls);
    out.set("core.batch.span_ms_per_traj", per_traj_ms(span_s));
    out.set(
        "core.candidates.ms_per_traj",
        per_traj_ms(total.candidate_time_s),
    );
    out.set(
        "core.observation.ms_per_traj",
        per_traj_ms(total.obs_time_s),
    );
    out.set("core.observation.rows_per_traj", total.obs_rows as f64 / n);
    out.set(
        "core.transition.ms_per_traj",
        per_traj_ms(total.trans_time_s),
    );
    out.set("core.transition.rows_per_traj", total.trans_rows as f64 / n);
    out.set("network.sp.ms_per_traj", per_traj_ms(total.sp_time_s));
    out.set(
        "network.sp.searches_per_traj",
        total.cache_misses as f64 / n,
    );
    out.set(
        "network.sp_cache.hit_ratio",
        (total.cache_hits + total.cache_warm_hits) as f64 / lookups,
    );
    out.set(
        "network.sp_cache.warm_hit_ratio",
        total.cache_warm_hits as f64 / lookups,
    );
    out.set(
        "core.viterbi.self_ms_per_traj",
        per_traj_ms(total.viterbi_time_s - total.trans_time_s - total.sp_time_s),
    );
    out.set(
        "core.shortcut.activations_per_traj",
        total.shortcut_activations as f64 / n,
    );
    out.set("core.scratch.allocs", total.scratch_allocs as f64);
    out.set(
        "core.unexplained_ms_per_traj",
        per_traj_ms(span_s - warm_s - total.candidate_time_s - total.viterbi_time_s),
    );
}

/// Sets every per-layer metric a workload bypasses to 0, so each traced
/// run reports the full table.
pub fn zero_unset(out: &mut Metrics, table: &[(&'static str, &'static str)]) {
    for &(name, _) in table {
        if out.get(name).is_none() {
            out.set(name, 0.0);
        }
    }
}
