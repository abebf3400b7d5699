//! Batch matching: match a whole trajectory set in parallel, one private
//! shortest-path cache per worker, and inspect the engine telemetry.
//!
//! ```sh
//! cargo run --release --example batch_matching
//! ```

use lhmm::core::types::MatchContext;
use lhmm::eval::runner::evaluate_lhmm_batch;
use lhmm::prelude::*;

fn main() {
    println!("generating dataset ...");
    let ds = Dataset::generate(&DatasetConfig::tiny_test(42));

    println!("training LHMM ...");
    let lhmm = Lhmm::train(&ds, LhmmConfig::fast_test(42));

    // Match the entire held-out split in one call. `workers: 0` uses one
    // worker per CPU; results are byte-identical to a serial loop (see the
    // lhmm_core::batch module docs for the determinism argument).
    let ctx = MatchContext {
        net: &ds.network,
        index: &ds.index,
        towers: &ds.towers,
    };
    let trajs: Vec<_> = ds.test.iter().map(|r| r.cellular.clone()).collect();
    let matcher = BatchMatcher::new(lhmm.model(), BatchConfig::default());
    let (results, stats) = matcher.match_batch(&ctx, &trajs);
    println!(
        "matched {} trajectories on {} workers",
        results.len(),
        stats.per_worker.len()
    );
    let total = stats.total();
    println!(
        "shortest-path queries: {} cache hits, {} searches",
        total.cache_hits, total.cache_misses
    );
    println!(
        "shortcuts: {} activations covering {} points; viterbi {:.1} ms total",
        total.shortcut_activations,
        total.shortcut_points,
        total.viterbi_time_s * 1e3
    );
    for (w, ws) in stats.per_worker.iter().enumerate() {
        println!(
            "  worker {w}: {} trajectories, {} cache hits / {} misses",
            ws.matched, ws.stats.cache_hits, ws.stats.cache_misses
        );
    }

    // The evaluation runner has a batch entry point, too: identical quality
    // metrics to `evaluate_matcher`, parallel wall-clock timing.
    let (report, _) = evaluate_lhmm_batch(&ds, lhmm.model(), &ds.test, BatchConfig::default());
    println!(
        "quality: precision {:.3}, recall {:.3}, CMF50 {:.3} ({:.1} ms/trajectory)",
        report.precision,
        report.recall,
        report.cmf50,
        report.avg_time_s * 1e3
    );
}
