//! Parallel-vs-serial equivalence for the batch matching engine.
//!
//! The batch matcher's contract (see `lhmm_core::batch`) is that worker
//! count, scheduling and cache state change only speed, never results:
//! `match_batch(trajs)[i]` must be byte-identical to matching `trajs[i]`
//! through a serial [`Lhmm`] loop. These tests pin that contract at 1, 2
//! and 4 workers, and under an adversarial mixed-length workload designed
//! to make work stealing complete trajectories far out of input order.

use lhmm::prelude::*;
use lhmm_core::batch::BatchMatcher;
use lhmm_core::types::MatchContext;

fn cheap_config(seed: u64) -> LhmmConfig {
    // Ablate the learned probabilities: training drops to milliseconds and
    // the engine code paths under test (Viterbi, shortcuts, shortest-path
    // caching) are identical.
    let mut cfg = LhmmConfig::fast_test(seed);
    cfg.use_learned_obs = false;
    cfg.use_learned_trans = false;
    cfg
}

fn context(ds: &Dataset) -> MatchContext<'_> {
    MatchContext {
        net: &ds.network,
        index: &ds.index,
        towers: &ds.towers,
    }
}

fn serial_results(
    ds: &Dataset,
    matcher: &mut Lhmm,
    trajs: &[lhmm::cellsim::traj::CellularTrajectory],
) -> Vec<MatchResult> {
    let ctx = context(ds);
    trajs
        .iter()
        .map(|t| matcher.match_trajectory(&ctx, t))
        .collect()
}

fn assert_identical(serial: &[MatchResult], batch: &[MatchResult], label: &str) {
    assert_eq!(serial.len(), batch.len(), "{label}: length mismatch");
    for (i, (s, b)) in serial.iter().zip(batch).enumerate() {
        assert_eq!(
            s.path, b.path,
            "{label}: path for trajectory {i} differs from serial"
        );
        assert_eq!(
            s.candidate_sets, b.candidate_sets,
            "{label}: candidate sets for trajectory {i} differ from serial"
        );
    }
}

#[test]
fn parallel_matches_serial_at_1_2_4_workers() {
    let ds = Dataset::generate(&DatasetConfig::tiny_test(90));
    let mut serial = Lhmm::train(&ds, cheap_config(90));
    let trajs: Vec<_> = ds.test.iter().map(|r| r.cellular.clone()).collect();
    let expected = serial_results(&ds, &mut serial, &trajs);
    let ctx = context(&ds);

    for workers in [1usize, 2, 4] {
        let matcher = BatchMatcher::new(serial.model(), BatchConfig::with_workers(workers));
        let (results, stats) = matcher.match_batch(&ctx, &trajs);
        assert_identical(&expected, &results, &format!("{workers} workers"));
        assert_eq!(stats.per_worker.len(), workers.min(trajs.len()));
        assert_eq!(
            stats.per_worker.iter().map(|w| w.matched).sum::<usize>(),
            trajs.len()
        );
    }
}

#[test]
fn ordering_is_stable_under_adversarial_mixed_length_workload() {
    // Adversarial schedule: alternate the longest trajectories with
    // stubs of 1-3 points and outright empty ones. Under work stealing
    // the short jobs finish many positions ahead of the long ones, so any
    // index-bookkeeping error shows up as results landing in the wrong
    // slot (which the per-index comparison against serial detects).
    let ds = Dataset::generate(&DatasetConfig::tiny_test(92));
    let mut serial = Lhmm::train(&ds, cheap_config(92));

    let mut by_len: Vec<_> = ds.test.iter().map(|r| r.cellular.clone()).collect();
    by_len.sort_by_key(|t| std::cmp::Reverse(t.len()));
    let mut trajs = Vec::new();
    for (i, traj) in by_len.into_iter().enumerate() {
        let mut stub = traj.clone();
        stub.points.truncate(1 + i % 3);
        trajs.push(traj); // long job...
        trajs.push(stub); // ...followed by a near-instant one
        if i % 3 == 0 {
            trajs.push(lhmm::cellsim::traj::CellularTrajectory::default()); // empty
        }
    }
    let expected = serial_results(&ds, &mut serial, &trajs);
    let ctx = context(&ds);

    let matcher = BatchMatcher::new(serial.model(), BatchConfig::with_workers(4));
    // Repeat: scheduling varies between runs, output must not.
    for round in 0..3 {
        let (results, stats) = matcher.match_batch(&ctx, &trajs);
        assert_identical(&expected, &results, &format!("round {round}"));
        assert_eq!(
            stats.per_worker.iter().map(|w| w.matched).sum::<usize>(),
            trajs.len()
        );
    }
}
