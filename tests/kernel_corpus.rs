//! Corpus-level SIMD-kernel equivalence: a seeded [`AdversarialCorpus`]
//! matched by a fully learned LHMM must produce an **identical**
//! match-result fingerprint under every kernel path this machine supports
//! (scalar, and each of SSE2/AVX2/NEON that is available). This is the
//! integration backstop above `crates/neural/tests/kernel_dispatch.rs`:
//! any bit divergence in the dispatched kernels would change scores,
//! scores change Viterbi verdicts, and the fingerprint catches it.
//!
//! ci.sh additionally re-runs this suite (and the scoring-equivalence and
//! fault-injection suites) once per supported kernel with `LHMM_KERNEL`
//! forced in the environment, covering the startup-env dispatch arm; the
//! in-process sweep here covers the `force_scope` arm.

mod oracle;

use lhmm::cellsim::faults::AdversarialCorpus;
use lhmm::core::error::MatchError;
use lhmm::core::viterbi::HmmEngine;
use lhmm::neural::kernel::{self, Kernel};
use lhmm::neural::Scratch;
use lhmm::prelude::*;
use oracle::{check_trajectory, Checked};

const CORPUS_SEED: u64 = 0x51D3;

/// FNV-1a over the per-case verdicts: route segments, candidate sets,
/// typed-error discriminants (mirrors the `lhmm-lint --races` verdict
/// fingerprint).
fn fingerprint(results: &[Result<(MatchResult, MatchStats), MatchError>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    for r in results {
        match r {
            Ok((m, _)) => {
                eat(1);
                for s in &m.path.segments {
                    for b in (s.0 as u64).to_le_bytes() {
                        eat(b);
                    }
                }
                if let Some(sets) = &m.candidate_sets {
                    eat(2);
                    for set in sets {
                        eat(set.len() as u8);
                        for s in set {
                            for b in (s.0 as u64).to_le_bytes() {
                                eat(b);
                            }
                        }
                    }
                }
            }
            Err(MatchError::EmptyTrajectory) => eat(10),
            Err(MatchError::NoCandidates) => eat(11),
            Err(MatchError::LayerMismatch { .. }) => eat(12),
            Err(MatchError::EmptyLayer { .. }) => eat(13),
        }
    }
    h
}

#[test]
fn adversarial_corpus_fingerprint_is_identical_under_every_kernel() {
    let ds = Dataset::generate(&DatasetConfig::tiny_test(CORPUS_SEED));
    // Learned P_O and P_T both active: every dispatched kernel — matmul,
    // fused linear, attention scores, softmax context — runs on every
    // trajectory of the corpus.
    let model = LhmmModel::train(&ds, LhmmConfig::fast_test(CORPUS_SEED));
    let base: Vec<_> = ds.test.iter().take(3).map(|r| r.cellular.clone()).collect();
    let corpus = AdversarialCorpus::generate(&base, CORPUS_SEED);
    let ctx = MatchContext {
        net: &ds.network,
        index: &ds.index,
        towers: &ds.towers,
    };

    let run = |kern: Kernel| -> (u64, usize) {
        let _guard = kernel::force_scope(kern);
        let mut engine = HmmEngine::new(&ds.network, model.engine_config());
        let results: Vec<_> = corpus
            .cases
            .iter()
            .map(|c| model.try_match_with_engine_stats(&ctx, &c.traj, &mut engine))
            .collect();
        let nonempty = results
            .iter()
            .filter(|r| matches!(r, Ok((m, _)) if !m.path.is_empty()))
            .count();
        // Telemetry must name the forced kernel on every successful match.
        for r in results.iter().flatten() {
            assert_eq!(r.1.kernel, kern.name(), "MatchStats.kernel mismatch");
        }
        (fingerprint(&results), nonempty)
    };

    let (reference, nonempty) = run(Kernel::Scalar);
    assert!(
        nonempty > 0,
        "corpus produced no non-empty matches; kernel equivalence would be vacuous"
    );
    for kern in kernel::supported_kernels() {
        let (fp, _) = run(kern);
        assert_eq!(
            fp, reference,
            "adversarial-corpus fingerprint diverged under {kern:?}"
        );
    }
}

/// The scoring oracle under every kernel: on a second adversarial corpus,
/// every `P_O` and `P_T` value the matcher produces equals the unfused
/// reference bit for bit (see `oracle/mod.rs`), whichever kernel computes
/// it, and the verdicts agree across kernels.
#[test]
fn scoring_oracle_agrees_with_every_kernel() {
    let ds = Dataset::generate(&DatasetConfig::tiny_test(CORPUS_SEED + 1));
    let model = LhmmModel::train(&ds, LhmmConfig::fast_test(CORPUS_SEED + 1));
    let base: Vec<_> = ds.test.iter().take(2).map(|r| r.cellular.clone()).collect();
    let corpus = AdversarialCorpus::generate(&base, CORPUS_SEED + 1);
    let ctx = MatchContext {
        net: &ds.network,
        index: &ds.index,
        towers: &ds.towers,
    };

    let mut reference = None;
    for kern in kernel::supported_kernels() {
        let _guard = kernel::force_scope(kern);
        let mut engine = HmmEngine::new(&ds.network, model.engine_config());
        let mut obs_scratch = Scratch::new();
        let mut checked = Checked::default();
        let verdicts: Vec<_> = corpus
            .cases
            .iter()
            .map(|c| {
                let (verdict, n) =
                    check_trajectory(&model, &ctx, &c.traj, &mut engine, &mut obs_scratch);
                checked.add(n);
                verdict
            })
            .collect();
        assert!(
            checked.obs_rows > 0 && checked.layer_pairs > 0,
            "{kern:?}: nothing was compared: {checked:?}"
        );
        let reference = reference.get_or_insert(verdicts.clone());
        assert_eq!(&verdicts, reference, "verdicts diverged under {kern:?}");
    }
}
