//! Throughput of the learned `P_O` and `P_T` scorers, swept over the
//! candidate-set size `k` and over the SIMD kernels.
//!
//! One iteration = the full per-trajectory scoring workload: build the
//! observation scorer (attention contexts for every point), score every
//! point's `k`-candidate batch, then build the transition scorer (key
//! projections) and evaluate a set of route windows. The sweep runs once
//! per kernel this machine supports (`fused_scalar`, `fused_sse2`,
//! `fused_avx2`, `fused_neon`) via `kernel::force_scope`; all kernels are
//! bit-identical (see `tests/kernel_corpus.rs`), so the bench shows what
//! each one buys in speed alone.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lhmm_cellsim::dataset::{Dataset, DatasetConfig};
use lhmm_cellsim::tower::TowerId;
use lhmm_core::lhmm::{LhmmConfig, LhmmModel};
use lhmm_core::transition::TrajTransScorer;
use lhmm_geo::Point;
use lhmm_network::graph::SegmentId;
use lhmm_neural::kernel;
use lhmm_neural::Scratch;

fn bench_scoring(c: &mut Criterion) {
    let ds = Dataset::generate(&DatasetConfig::tiny_test(107));
    // Weight quality is irrelevant for throughput; shrink training time.
    let mut cfg = LhmmConfig::fast_test(107);
    cfg.obs.epochs = 20;
    cfg.obs.fuse_epochs = 10;
    cfg.trans.epochs = 20;
    cfg.trans.fuse_epochs = 10;
    let model = LhmmModel::train(&ds, cfg);
    let obs = model.observation_learner().expect("learned P_O");
    let trans = model.transition_learner().expect("learned P_T");
    let emb = model.embeddings();

    let rec = ds
        .test
        .iter()
        .max_by_key(|r| r.cellular.len())
        .expect("non-empty test split");
    let towers = rec.cellular.towers();
    let routes: Vec<&[SegmentId]> = rec.truth.segments.windows(5).step_by(5).take(12).collect();

    let mut group = c.benchmark_group("scoring_one_trajectory");
    for k in [4usize, 8, 16, 32] {
        // Each batch keeps its point's trajectory index: `score_into`
        // reads that point's context row, and points with no segment
        // within reach are skipped, not renumbered.
        let batches: Vec<(usize, Point, TowerId, Vec<SegmentId>)> = rec
            .cellular
            .points
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let pos = p.effective_pos();
                let segs: Vec<SegmentId> = ds
                    .index
                    .k_nearest(&ds.network, pos, k, 3_000.0)
                    .into_iter()
                    .map(|(s, _)| s)
                    .collect();
                (i, pos, p.tower, segs)
            })
            .filter(|(_, _, _, segs)| !segs.is_empty())
            .collect();

        for kern in kernel::supported_kernels() {
            group.bench_with_input(
                BenchmarkId::new(format!("fused_{}", kern.name()), k),
                &kern,
                |b, &kern| {
                    let _kernel_guard = kernel::force_scope(kern);
                    // The arena round-trips through `finish` so iterations
                    // after the first run with warm buffers — the batch
                    // matcher's steady state.
                    let mut obs_scratch = Scratch::new();
                    let mut trans_scratch = Scratch::new();
                    let mut out = Vec::new();
                    b.iter(|| {
                        let mut po = obs.traj_scorer(
                            emb,
                            &towers,
                            std::mem::take(&mut obs_scratch),
                        );
                        let mut acc = 0.0f32;
                        for (i, pos, tower, segs) in &batches {
                            po.score_into(
                                &ds.network,
                                model.graph(),
                                *pos,
                                *tower,
                                *i,
                                segs,
                                &mut out,
                            );
                            acc += out.iter().sum::<f32>();
                        }
                        (obs_scratch, _) = po.finish();
                        let mut pt = TrajTransScorer::with_scratch(
                            trans,
                            emb,
                            &towers,
                            std::mem::take(&mut trans_scratch),
                        );
                        for r in &routes {
                            acc += pt.transition_prob(&ds.network, 650.0, 40.0, 880.0, r);
                        }
                        (trans_scratch, _) = pt.finish();
                        acc
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_scoring);
criterion_main!(benches);
