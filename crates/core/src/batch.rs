//! Parallel batch matching over a shared [`LhmmModel`].
//!
//! # Architecture
//!
//! [`BatchMatcher`] matches a slice of trajectories across `N` workers on
//! `std::thread::scope` — no runtime dependencies. The design has two
//! moving parts:
//!
//! * **One route cache per worker.** Each worker owns a private
//!   [`HmmEngine`] whose [`SpCache`](lhmm_network::sp_cache::SpCache) it
//!   alone mutates; there is no locking on the hot path.
//!
//! * **Work stealing.** Workers draw trajectory indices from one shared
//!   `AtomicUsize` (`fetch_add`), so a worker stuck on a long trajectory
//!   never idles the others; there is no static partition to balance.
//!
//! # Determinism guarantee
//!
//! Output order is deterministic by construction: each worker records
//! `(input index, result)` and results are scattered back to their input
//! slot after the join, so `results[i]` always corresponds to `trajs[i]`
//! regardless of which worker matched it or in what order.
//!
//! Result *content* is also bit-identical to a serial
//! [`Lhmm`](crate::lhmm::Lhmm) loop, for a stronger reason than ordering:
//! cache state cannot change answers. A
//! [`SpCache`](lhmm_network::sp_cache::SpCache) entry only answers a query
//! when the answer provably equals what a fresh Dijkstra search bounded by
//! the query's own bound would return, and the
//! [`DijkstraEngine`](lhmm_network::shortest_path::DijkstraEngine) resets
//! per query via epoch stamping. Matching is therefore a pure function of
//! `(model, trajectory)` — worker count, scheduling order, and cache
//! contents only affect speed. `tests/batch_equivalence.rs` verifies this
//! end to end for 1, 2 and 4 workers.

use crate::error::{Degradation, MatchError};
use crate::lhmm::LhmmModel;
use crate::types::{MatchContext, MatchResult, MatchStats};
use crate::viterbi::HmmEngine;
use lhmm_cellsim::traj::CellularTrajectory;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Batch-matching parameters.
#[derive(Clone, Debug, Default)]
pub struct BatchConfig {
    /// Worker threads. `0` means one worker per available CPU.
    pub workers: usize,
}

impl BatchConfig {
    /// A config with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        BatchConfig { workers }
    }

    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// Telemetry for one worker thread.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerStats {
    /// Trajectories this worker matched.
    pub matched: usize,
    /// Trajectories whose result was degraded (any [`Degradation`] event,
    /// including typed failures mapped to empty results).
    pub degraded: usize,
    /// Aggregated per-trajectory engine telemetry.
    pub stats: MatchStats,
}

/// Telemetry for one batch run.
#[derive(Clone, Debug, Default)]
pub struct BatchStats {
    /// One entry per worker, in worker order.
    pub per_worker: Vec<WorkerStats>,
    /// Always 0 since the warm layer was removed; kept for `perfbench`;
    /// retire in the next benchmark PR.
    pub warm_entries: usize,
    /// Always 0 since the warm layer was removed; kept for `perfbench`;
    /// retire in the next benchmark PR.
    pub warm_time_s: f64,
}

impl BatchStats {
    /// All workers' telemetry merged.
    pub fn total(&self) -> MatchStats {
        let mut total = MatchStats::default();
        for w in &self.per_worker {
            total.merge(&w.stats);
        }
        total
    }
}

/// Matches trajectory batches in parallel against one trained model.
pub struct BatchMatcher<'a> {
    model: &'a LhmmModel,
    config: BatchConfig,
}

impl<'a> BatchMatcher<'a> {
    /// Creates a batch matcher over `model`.
    pub fn new(model: &'a LhmmModel, config: BatchConfig) -> Self {
        BatchMatcher { model, config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &BatchConfig {
        &self.config
    }

    /// Matches every trajectory in `trajs`. `results[i]` corresponds to
    /// `trajs[i]`; content is identical to matching serially (see module
    /// docs for the determinism argument).
    ///
    /// Infallible wrapper around [`BatchMatcher::try_match_batch`]:
    /// unmatchable trajectories yield [`MatchResult::empty`], with the
    /// failure visible in the worker stats (`degraded` counter and
    /// `degradation.failed_matches`).
    pub fn match_batch(
        &self,
        ctx: &MatchContext<'_>,
        trajs: &[CellularTrajectory],
    ) -> (Vec<MatchResult>, BatchStats) {
        let (results, stats) = self.try_match_batch(ctx, trajs);
        let results = results
            .into_iter()
            .map(|r| r.unwrap_or_else(|_| MatchResult::empty()))
            .collect();
        (results, stats)
    }

    /// [`BatchMatcher::match_batch`] with per-trajectory error reporting:
    /// `results[i]` is `Err` when trajectory `i` was unmatchable (empty, or
    /// entirely outside network coverage), with the same determinism
    /// guarantees — a trajectory's verdict does not depend on worker count
    /// or scheduling.
    pub fn try_match_batch(
        &self,
        ctx: &MatchContext<'_>,
        trajs: &[CellularTrajectory],
    ) -> (Vec<Result<MatchResult, MatchError>>, BatchStats) {
        let mut stats = BatchStats::default();
        if trajs.is_empty() {
            return (Vec::new(), stats);
        }
        let workers = self.config.effective_workers().min(trajs.len());

        let next = AtomicUsize::new(0);
        let model = self.model;

        let mut worker_outputs: Vec<WorkerOutput> =
            thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        let next = &next;
                        s.spawn(move || {
                            let mut engine = HmmEngine::new(ctx.net, model.engine_config());
                            let mut out = Vec::new();
                            let mut wstats = WorkerStats::default();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= trajs.len() {
                                    break;
                                }
                                let result = model
                                    .try_match_with_engine_stats(ctx, &trajs[i], &mut engine);
                                wstats.matched += 1;
                                let result = match result {
                                    Ok((r, mstats)) => {
                                        if mstats.degraded() {
                                            wstats.degraded += 1;
                                        }
                                        wstats.stats.merge(&mstats);
                                        Ok(r)
                                    }
                                    Err(e) => {
                                        wstats.degraded += 1;
                                        wstats.stats.degradation.merge(&Degradation {
                                            failed_matches: 1,
                                            ..Degradation::default()
                                        });
                                        Err(e)
                                    }
                                };
                                out.push((i, result));
                            }
                            (out, wstats)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    // Re-raise a worker panic on the caller thread with the
                    // original payload (a panicking test/assert inside a
                    // worker must not be swallowed or rewrapped).
                    .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                    .collect()
            });

        // Deterministic scatter: every result lands at its input index.
        let mut results: Vec<Option<Result<MatchResult, MatchError>>> =
            (0..trajs.len()).map(|_| None).collect();
        for (out, wstats) in worker_outputs.drain(..) {
            stats.per_worker.push(wstats);
            for (i, r) in out {
                debug_assert!(results[i].is_none(), "index {i} matched twice");
                results[i] = Some(r);
            }
        }
        let results = results
            .into_iter()
            .enumerate()
            .map(|(i, r)| match r {
                Some(r) => r,
                // The work-stealing counter hands out every index in
                // 0..len exactly once, so an unclaimed slot is impossible.
                None => unreachable!("index {i} never claimed"),
            })
            .collect();
        (results, stats)
    }
}

/// One worker's output: `(input index, verdict)` pairs plus telemetry.
type WorkerOutput = (
    Vec<(usize, Result<MatchResult, MatchError>)>,
    WorkerStats,
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lhmm::{Lhmm, LhmmConfig};
    use crate::types::MapMatcher;
    use lhmm_cellsim::dataset::{Dataset, DatasetConfig};

    fn cheap_config(seed: u64) -> LhmmConfig {
        // Ablated learners make training fast; the engine paths exercised
        // by batching are identical.
        let mut cfg = LhmmConfig::fast_test(seed);
        cfg.use_learned_obs = false;
        cfg.use_learned_trans = false;
        cfg
    }

    #[test]
    fn batch_results_align_with_inputs_and_serial() {
        let ds = Dataset::generate(&DatasetConfig::tiny_test(81));
        let mut serial = Lhmm::train(&ds, cheap_config(81));
        let ctx = MatchContext {
            net: &ds.network,
            index: &ds.index,
            towers: &ds.towers,
        };
        let trajs: Vec<_> = ds.test.iter().map(|r| r.cellular.clone()).collect();
        let batch = BatchMatcher::new(serial.model(), BatchConfig::with_workers(2));
        let (results, stats) = batch.match_batch(&ctx, &trajs);
        assert_eq!(results.len(), trajs.len());
        assert_eq!(stats.per_worker.iter().map(|w| w.matched).sum::<usize>(), trajs.len());
        for (r, traj) in results.iter().zip(&trajs) {
            let s = serial.match_trajectory(&ctx, traj);
            assert_eq!(r.path.segments, s.path.segments);
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let ds = Dataset::generate(&DatasetConfig::tiny_test(82));
        let model = LhmmModel::train(&ds, cheap_config(82));
        let ctx = MatchContext {
            net: &ds.network,
            index: &ds.index,
            towers: &ds.towers,
        };
        let batch = BatchMatcher::new(&model, BatchConfig::default());
        let (results, stats) = batch.match_batch(&ctx, &[]);
        assert!(results.is_empty());
        assert!(stats.per_worker.is_empty());
    }

    #[test]
    fn model_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LhmmModel>();
    }
}
