//! The offline workloads: closed-loop passes of `BatchMatcher::match_batch`
//! (one worker) over the held-out split.
//!
//! Every trajectory of a pass is due when the pass starts and its verdict
//! arrives when `match_batch` returns, so each trajectory's and each
//! point's latency is the pass duration. Throughput and latency come from
//! the median pass, leaving out the first: it runs while the host still
//! grants burst clock after set-up pauses, so it is not representative of
//! sustained matching (it still counts for the correctness gate).

use crate::host;
use crate::json::Value;
use crate::stats::median;
use crate::trace::ROOT;
use crate::workload::{self, matching_layers, Outcome, Workload};
use lhmm_core::batch::{BatchConfig, BatchMatcher};
use lhmm_core::types::{MatchContext, MatchResult};
use std::time::{Duration, Instant};

/// Passes a run makes at least (the first one untimed), whatever
/// `--seconds` says, so the median pass and the determinism check always
/// have material.
const MIN_PASSES: usize = 4;

fn same_routes(a: &[MatchResult], b: &[MatchResult]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.path.segments == y.path.segments)
}

/// Runs one offline workload.
pub fn run(w: Workload, seed: u64, window: Duration, smoke: bool, out: &mut Outcome) {
    let ds = workload::generate(w, seed, smoke);
    let cfg = w.model_config(smoke);
    let trajs: Vec<_> = ds.test.iter().map(|r| r.cellular.clone()).collect();
    let ctx = MatchContext {
        net: &ds.network,
        index: &ds.index,
        towers: &ds.towers,
    };

    if out.tracer.enabled() {
        workload::traced_builders(&ds, &cfg, out);
    }
    let (model, setups) = workload::timed_setup(&ds, &cfg, w.setup_repeats(smoke));
    out.metrics.set("setup_s", median(&setups));
    let matcher = BatchMatcher::new(&model, BatchConfig::with_workers(1));
    out.rss_window_scoped = host::reset_peak_rss();

    let start = Instant::now();
    let mut pass_s = Vec::new();
    let mut batches = Vec::new();
    let mut first: Option<Vec<MatchResult>> = None;
    while pass_s.len() < MIN_PASSES || start.elapsed() < window {
        let pass = pass_s.len();
        let t0 = Instant::now();
        let (results, stats) = matcher.match_batch(&ctx, &trajs);
        let t1 = Instant::now();
        let dt = t1.duration_since(t0).as_secs_f64();
        pass_s.push(dt);
        // Traced runs record the span on odd passes only; comparing odd
        // and even timed passes measures what recording costs.
        if pass % 2 == 1 {
            out.tracer
                .record("core.batch.match_batch", ROOT, pass as u64, t0, t1);
        }

        out.attempted += trajs.len() as u64;
        out.failed += stats.total().degradation.failed_matches;
        // Gate: one verdict per trajectory, identical on every pass.
        if results.len() != trajs.len() {
            out.violate(format!(
                "pass {pass}: {} results for {} trajectories",
                results.len(),
                trajs.len()
            ));
        }
        match &first {
            None => first = Some(results),
            Some(f) if !same_routes(f, &results) => {
                out.violate(format!("pass {pass}: verdicts differ from pass 0"));
            }
            Some(_) => {}
        }
        batches.push(stats);
    }
    let peak_rss = host::peak_rss_mb();

    let points: usize = trajs.iter().map(|t| t.len()).sum();
    out.notes
        .push(("held_out_trajectories", trajs.len().into()));
    out.notes.push(("held_out_points", points.into()));
    out.notes.push((
        "pass_s",
        pass_s
            .iter()
            .map(|&s| s.into())
            .collect::<Vec<Value>>()
            .into(),
    ));
    let m = &mut out.metrics;
    let pass_median = median(&pass_s[1..]);
    m.set("traj_per_s", trajs.len() as f64 / pass_median);
    m.set("traj_latency_p50_ms", pass_median * 1e3);
    m.set("point_latency_p50_ms", pass_median * 1e3);
    m.set(
        "ok_ratio",
        (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
    );
    let (rmf, cmf50) = workload::quality(&ds.network, &ds.test, &first.unwrap_or_default());
    m.set("rmf", rmf);
    m.set("cmf50", cmf50);
    m.set("peak_rss_mb", peak_rss);

    let total_s: f64 = pass_s.iter().sum();
    matching_layers(m, &batches, total_s, trajs.len() * pass_s.len());
    m.set("trace.spans", out.tracer.spans().len() as f64);
    // Median of the timed passes with the given index parity.
    let half = |parity: usize| {
        let picked: Vec<f64> = pass_s
            .iter()
            .copied()
            .enumerate()
            .skip(1)
            .filter(|(i, _)| i % 2 == parity)
            .map(|(_, s)| s)
            .collect();
        median(&picked)
    };
    if out.tracer.enabled() {
        m.set("trace.overhead_ratio", half(1) / half(0) - 1.0);
    }
}
