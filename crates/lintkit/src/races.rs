//! `--races` smoke mode: a cheap scheduling-nondeterminism detector.
//!
//! The static rules catch *sources* of nondeterminism; this mode checks
//! the *outcome* end to end. It generates the seeded adversarial fault
//! corpus (the same [`AdversarialCorpus`] the robustness suite uses),
//! matches it through [`BatchMatcher`] at two different worker counts,
//! and fingerprints every per-trajectory verdict — segments, candidate
//! sets, and typed-error discriminants. Any divergence means worker
//! scheduling leaked into results, which the batch engine's contract
//! (PR 1) forbids. A repeat run at the first worker count also pins
//! run-to-run determinism at a fixed schedule width, a run with the
//! SIMD kernel forced to the scalar reference pins kernel neutrality,
//! and a final run with the contraction-hierarchy backend pins
//! SP-backend neutrality.
//!
//! A final pair of runs pushes the corpus through the serving scheduler
//! with a model hot swap fired halfway through admissions, at the same
//! two worker counts: the first half is pinned to v1, the second to a
//! structurally different v2, and the fingerprints (which include each
//! verdict's `model_version` stamp) must agree — any divergence means a
//! swap leaked across the admission pin.
//!
//! The witness lane repeats the wide swap run and checks two things: the
//! fingerprint still matches (the lock-hierarchy bookkeeping in
//! `lhmm_core::sync` must be behaviorally invisible), and — when the
//! witness is compiled in (`debug_assertions` or the `lock-witness`
//! feature) — the acquisition counter actually advanced, proving the
//! serving run was rank-checked rather than silently passthrough.
//!
//! For [`DEFAULT_SEED`] the verdict and swap fingerprints are also pinned
//! to committed constants ([`PINNED_FINGERPRINT`],
//! [`PINNED_SWAP_FINGERPRINT`]), so a change that moves any verdict fails
//! the run even when every lane still agrees with every other. Other
//! seeds are unpinned.
//!
//! The corpus is deliberately tiny (tens of trajectories on a toy city):
//! this is a CI smoke test that runs in well under a second, not a
//! substitute for `tests/batch_equivalence.rs`.

use crate::engine::fnv1a64;
use lhmm_cellsim::dataset::{Dataset, DatasetConfig};
use lhmm_cellsim::faults::AdversarialCorpus;
use lhmm_cellsim::traj::CellularTrajectory;
use lhmm_core::batch::{BatchConfig, BatchMatcher};
use lhmm_core::error::MatchError;
use lhmm_core::lhmm::{Lhmm, LhmmConfig, LhmmModel};
use lhmm_core::registry::{ModelRegistry, ModelVersion};
use lhmm_core::types::{MatchContext, MatchResult};
use lhmm_network::backend::SpBackend;
use lhmm_serve::{BatchPolicy, MicroBatcher, ServeCtx, ServeMetrics};
use std::sync::Arc;
use std::thread;

/// The seed `lhmm-lint --races` runs when none is given (the CI seed).
pub const DEFAULT_SEED: u64 = 0xFA57;

/// Verdict fingerprint of the batch lanes for [`DEFAULT_SEED`]. Change it
/// only together with an intended verdict change recorded in CHANGES.md.
pub const PINNED_FINGERPRINT: u64 = 0x3520_c0ed_6e72_4504;

/// Fingerprint of the swap lanes for [`DEFAULT_SEED`]. Change it only
/// together with an intended verdict change recorded in CHANGES.md.
pub const PINNED_SWAP_FINGERPRINT: u64 = 0xeb39_656f_af49_16d2;

/// Outcome of one races run.
#[derive(Debug)]
pub struct RacesReport {
    pub seed: u64,
    pub cases: usize,
    pub worker_counts: (usize, usize),
    pub fingerprints: (u64, u64),
    /// Fingerprint of the repeat run at the first worker count.
    pub repeat_fingerprint: u64,
    /// Fingerprint of a run with the contraction-hierarchy shortest-path
    /// backend (same worker count as the repeat run). The CH engine is
    /// pinned bitwise-equal to Dijkstra, so this must match too.
    pub ch_fingerprint: u64,
    /// Fingerprint of a run with the SIMD inference kernel forced to the
    /// scalar reference (`LHMM_KERNEL=scalar` equivalent, same worker
    /// count as the repeat run). Every dispatched kernel is pinned
    /// bitwise-equal to scalar, so this must match too.
    pub scalar_kernel_fingerprint: u64,
    /// Fingerprints of the swap-mid-corpus serving runs at the two worker
    /// counts: the first half of the corpus is admitted under v1, a hot
    /// swap promotes v2, the second half is admitted under v2. The
    /// fingerprint covers segments, candidate sets, typed errors, AND the
    /// `model_version` stamp of each verdict, so they only agree when the
    /// admission pin held at every schedule width.
    pub swap_fingerprints: (u64, u64),
    /// Fingerprint of the witness lane: the swap run repeated at the
    /// second worker count. Must equal `swap_fingerprints.1` — the lock
    /// witness may observe, never perturb.
    pub witness_fingerprint: u64,
    /// Whether the runtime lock witness was compiled into this binary.
    pub witness_active: bool,
    /// Rank-checked acquisitions observed during the witness lane.
    pub witness_locks: u64,
}

impl RacesReport {
    /// True when every run produced byte-identical verdicts.
    pub fn deterministic(&self) -> bool {
        self.fingerprints.0 == self.fingerprints.1
            && self.fingerprints.0 == self.repeat_fingerprint
            && self.fingerprints.0 == self.ch_fingerprint
            && self.fingerprints.0 == self.scalar_kernel_fingerprint
            && self.swap_fingerprints.0 == self.swap_fingerprints.1
            && self.witness_fingerprint == self.swap_fingerprints.1
    }

    /// True unless this run used [`DEFAULT_SEED`] and its fingerprints
    /// differ from the pinned ones.
    pub fn matches_pin(&self) -> bool {
        self.seed != DEFAULT_SEED
            || (self.fingerprints == (PINNED_FINGERPRINT, PINNED_FINGERPRINT)
                && self.swap_fingerprints == (PINNED_SWAP_FINGERPRINT, PINNED_SWAP_FINGERPRINT))
    }

    /// True when the witness lane proves coverage: either the witness is
    /// compiled out (plain release), or it observed rank-checked
    /// acquisitions during the serving run.
    pub fn witness_ok(&self) -> bool {
        !self.witness_active || self.witness_locks > 0
    }
}

/// Byte-level fingerprint of a batch of match verdicts.
fn fingerprint(results: &[Result<MatchResult, MatchError>]) -> u64 {
    let mut bytes = Vec::new();
    for r in results {
        fingerprint_verdict(&mut bytes, r);
    }
    fnv1a64(&bytes)
}

/// Appends one verdict's bytes (shared by the batch and serve runs).
fn fingerprint_verdict(bytes: &mut Vec<u8>, r: &Result<MatchResult, MatchError>) {
    match r {
        Ok(m) => {
            bytes.push(1u8);
            bytes.extend((m.path.segments.len() as u64).to_le_bytes());
            for s in &m.path.segments {
                bytes.extend((s.0 as u64).to_le_bytes());
            }
            if let Some(sets) = &m.candidate_sets {
                bytes.push(2u8);
                for set in sets {
                    bytes.extend((set.len() as u64).to_le_bytes());
                    for s in set {
                        bytes.extend((s.0 as u64).to_le_bytes());
                    }
                }
            }
        }
        Err(MatchError::EmptyTrajectory) => bytes.push(10u8),
        Err(MatchError::NoCandidates) => bytes.push(11u8),
        Err(MatchError::LayerMismatch { .. }) => bytes.push(12u8),
        Err(MatchError::EmptyLayer { .. }) => bytes.push(13u8),
    }
}

/// Pushes the corpus through the serving scheduler with a hot swap fired
/// halfway through admissions: first half pinned to v1, second half to
/// v2. Replies are collected in submission order and fingerprinted along
/// with each verdict's `model_version` stamp, so the result only depends
/// on worker count if a pin leaks across the swap.
fn swap_run(
    ctx: MatchContext<'_>,
    trajs: &[CellularTrajectory],
    v1: &LhmmModel,
    v2: &LhmmModel,
    workers: usize,
) -> u64 {
    let registry = ModelRegistry::new(v1.clone(), "races-v1");
    let v2_version = registry.register(v2.clone(), "races-v2", Some(ModelVersion(1)));
    let mut bytes = Vec::new();
    thread::scope(|s| {
        let batcher = MicroBatcher::start(
            s,
            ServeCtx {
                ctx,
                registry: &registry,
                scope: None,
            },
            BatchPolicy {
                max_batch: 4,
                workers,
                ..Default::default()
            },
            Arc::new(ServeMetrics::new()),
        );
        let half = trajs.len() / 2;
        let mut receivers = Vec::with_capacity(trajs.len());
        for (i, t) in trajs.iter().enumerate() {
            if i == half {
                // The swap: everything admitted before this line stays on
                // v1; everything after is pinned to v2 at submit().
                let promoted = registry.promote(v2_version);
                assert!(promoted.is_ok(), "promote registered v2: {promoted:?}");
            }
            let Ok(rx) = batcher.submit(t.clone()) else {
                unreachable!("queue capacity exceeds the smoke corpus")
            };
            receivers.push(rx);
        }
        for rx in receivers {
            // Lose-nothing drain: every admitted job answers its channel.
            let Ok(reply) = rx.recv() else {
                unreachable!("scheduler dropped a reply channel")
            };
            let (verdict, version) = match reply {
                Ok((result, stats)) => (Ok(result), stats.model_version),
                Err(e) => (Err(e), 0),
            };
            bytes.extend(version.to_le_bytes());
            fingerprint_verdict(&mut bytes, &verdict);
        }
        batcher.drain();
    });
    fnv1a64(&bytes)
}

/// Runs the smoke test. Learned scorers are ablated (`use_learned_* =
/// false`): training drops to milliseconds while the engine paths whose
/// scheduling could race — Viterbi, shortcuts, shortest-path caches — are
/// exercised identically.
pub fn run_races(seed: u64, workers: (usize, usize)) -> RacesReport {
    let ds = Dataset::generate(&DatasetConfig::tiny_test(seed));
    let base: Vec<_> = ds
        .test
        .iter()
        .take(4)
        .map(|r| r.cellular.clone())
        .collect();
    let corpus = AdversarialCorpus::generate(&base, seed);
    let trajs: Vec<_> = corpus.cases.iter().map(|c| c.traj.clone()).collect();

    let mut cfg = LhmmConfig::fast_test(seed);
    cfg.use_learned_obs = false;
    cfg.use_learned_trans = false;
    let mut lhmm = Lhmm::train(&ds, cfg);
    let ctx = MatchContext {
        net: &ds.network,
        index: &ds.index,
        towers: &ds.towers,
    };

    let run_at = |lhmm: &Lhmm, w: usize| {
        let matcher = BatchMatcher::new(lhmm.model(), BatchConfig::with_workers(w));
        let (results, _) = matcher.try_match_batch(&ctx, &trajs);
        fingerprint(&results)
    };

    let fingerprints = (run_at(&lhmm, workers.0), run_at(&lhmm, workers.1));
    let repeat_fingerprint = run_at(&lhmm, workers.0);
    let scalar_kernel_fingerprint = {
        let _guard = lhmm_neural::kernel::force_scope(lhmm_neural::Kernel::Scalar);
        run_at(&lhmm, workers.0)
    };

    // Swap-mid-corpus serving runs: v2 narrows the candidate budget so
    // its verdicts genuinely differ from v1's — a leaked pin changes the
    // fingerprint, not just a version stamp.
    let mut cfg2 = LhmmConfig::fast_test(seed);
    cfg2.use_learned_obs = false;
    cfg2.use_learned_trans = false;
    cfg2.k = cfg2.k.saturating_sub(1).max(1);
    let v2 = LhmmModel::train(&ds, cfg2);
    let swap_fingerprints = (
        swap_run(ctx, &trajs, lhmm.model(), &v2, workers.0),
        swap_run(ctx, &trajs, lhmm.model(), &v2, workers.1),
    );

    // Witness lane: same wide swap run, bracketed by the acquisition
    // counter so a passthrough build is told apart from a checked one.
    let locks_before = lhmm_core::sync::witness_acquisitions();
    let witness_fingerprint = swap_run(ctx, &trajs, lhmm.model(), &v2, workers.1);
    let witness_locks = lhmm_core::sync::witness_acquisitions() - locks_before;

    lhmm.set_sp_backend(&ds.network, SpBackend::Ch);
    let ch_fingerprint = run_at(&lhmm, workers.0);

    RacesReport {
        seed,
        cases: trajs.len(),
        worker_counts: workers,
        fingerprints,
        repeat_fingerprint,
        ch_fingerprint,
        scalar_kernel_fingerprint,
        swap_fingerprints,
        witness_fingerprint,
        witness_active: lhmm_core::sync::witness_enabled(),
        witness_locks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn races_smoke_is_deterministic_across_worker_counts() {
        let report = run_races(0x5EED, (1, 3));
        assert!(report.cases > 0);
        assert!(
            report.deterministic(),
            "worker scheduling leaked into results: {report:?}"
        );
        assert!(
            report.witness_ok(),
            "witness compiled in but saw no acquisitions: {report:?}"
        );
        // 0x5EED is not the pinned seed: its fingerprints are free.
        assert!(report.matches_pin());
    }

    #[test]
    fn a_moved_verdict_fails_the_pin_for_the_default_seed() {
        let report = |seed, fp| RacesReport {
            seed,
            cases: 1,
            worker_counts: (1, 4),
            fingerprints: (fp, fp),
            repeat_fingerprint: fp,
            ch_fingerprint: fp,
            scalar_kernel_fingerprint: fp,
            swap_fingerprints: (PINNED_SWAP_FINGERPRINT, PINNED_SWAP_FINGERPRINT),
            witness_fingerprint: PINNED_SWAP_FINGERPRINT,
            witness_active: false,
            witness_locks: 0,
        };
        assert!(report(DEFAULT_SEED, PINNED_FINGERPRINT).matches_pin());
        let moved = report(DEFAULT_SEED, PINNED_FINGERPRINT ^ 1);
        assert!(
            moved.deterministic(),
            "the lanes still agree with each other"
        );
        assert!(!moved.matches_pin());
        assert!(report(DEFAULT_SEED + 1, PINNED_FINGERPRINT ^ 1).matches_pin());
    }
}
