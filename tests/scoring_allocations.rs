//! Zero-allocation proof for the vectorized scoring path.
//!
//! A counting global allocator wraps `System`; after one warm-up pass, a
//! second pass over the same per-point candidate batches and the same
//! transition routes must perform **zero** heap allocations inside the
//! scoring calls. This is the steady state batch matching runs in: scratch
//! arenas are warm, per-trajectory setup (contexts, key projections, the
//! relevance cache) has been paid, and every `P_O`/`P_T` evaluation is pure
//! arithmetic over pooled buffers.
//!
//! One `#[test]` only: the allocation counter is process-global and other
//! tests running concurrently would pollute the delta.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn warm_scoring_path_performs_no_heap_allocations() {
    use lhmm::prelude::*;
    use lhmm_neural::Scratch;

    let ds = Dataset::generate(&DatasetConfig::tiny_test(191));
    // Reduced epochs: weight quality is irrelevant here, only the shapes
    // and code paths matter.
    let mut cfg = LhmmConfig::fast_test(191);
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

    // Pre-compute everything the scoring calls take as input, outside the
    // measured region: candidate batches per point and transition routes.
    let mut point_batches: Vec<(lhmm::geo::Point, lhmm_cellsim::tower::TowerId, Vec<SegmentId>)> =
        rec.cellular
            .points
            .iter()
            .map(|p| {
                let pos = p.effective_pos();
                let segs: Vec<SegmentId> = ds
                    .index
                    .k_nearest(&ds.network, pos, 16, 3_000.0)
                    .into_iter()
                    .map(|(s, _)| s)
                    .collect();
                (pos, p.tower, segs)
            })
            .collect();
    point_batches.retain(|(_, _, segs)| !segs.is_empty());
    assert!(!point_batches.is_empty(), "no candidate batches to score");
    let routes: Vec<Vec<SegmentId>> = rec
        .truth
        .segments
        .chunks(6)
        .filter(|c| c.len() == 6)
        .take(8)
        .map(|c| c.to_vec())
        .collect();
    assert!(!routes.is_empty(), "trajectory too short for route windows");

    // ---------------- P_O ----------------
    let mut obs_scorer = obs.traj_scorer(emb, &towers, Scratch::new(), false);
    let mut out = Vec::with_capacity(32);
    // Warm-up pass: scratch buffers and the output vector get sized.
    for (i, (pos, tower, segs)) in point_batches.iter().enumerate() {
        obs_scorer.score_into(&ds.network, model.graph(), *pos, *tower, i, segs, &mut out);
    }
    let before = allocs();
    for (i, (pos, tower, segs)) in point_batches.iter().enumerate() {
        obs_scorer.score_into(&ds.network, model.graph(), *pos, *tower, i, segs, &mut out);
    }
    let obs_delta = allocs() - before;
    assert_eq!(
        obs_delta, 0,
        "warm P_O scoring allocated {obs_delta} times over {} points",
        point_batches.len()
    );
    let (obs_scratch, obs_stats) = obs_scorer.finish();
    assert!(obs_stats.calls >= 2 * point_batches.len() as u64);
    drop(obs_scratch);

    // ---------------- P_T ----------------
    // Scorer A warms the shared scratch shapes; scorer B then scores *new*
    // (uncached) roads with a warm arena — the per-point steady state.
    use lhmm_core::transition::TrajTransScorer;
    let mut warm = TrajTransScorer::with_scratch(trans, emb, &towers, Scratch::new(), false);
    for r in &routes {
        let _ = warm.transition_prob(&ds.network, 700.0, 45.0, 900.0, r);
    }
    let (scratch, _) = warm.finish();
    let mut scorer = TrajTransScorer::with_scratch(trans, emb, &towers, scratch, false);
    // One priming call: sizes the missing-roads buffer for 6-road routes.
    let _ = scorer.transition_prob(&ds.network, 700.0, 45.0, 900.0, &routes[0]);
    let before = allocs();
    for r in &routes[1..] {
        // Every route is disjoint from the cache: this measures the full
        // compute path (batched attention + both MLPs), not cache hits.
        let _ = scorer.transition_prob(&ds.network, 700.0, 45.0, 900.0, r);
    }
    let trans_delta = allocs() - before;
    assert_eq!(
        trans_delta, 0,
        "warm P_T scoring allocated {trans_delta} times over {} routes",
        routes.len() - 1
    );
    let (allocs_total, high_water) = scorer.scratch_stats();
    assert!(high_water > 0, "scratch arena never used");
    // The arena itself reports the same steady state the allocator saw.
    assert!(allocs_total > 0, "warm-up never allocated — vacuous test");

    // ---------------- P_T, one layer at a time ----------------
    // The engine's forward DP scores whole layers: one Eq. 10 batch, prefix
    // folds over the route forest, one fuse-MLP call. Once the scorer's
    // arena, fold buffers and relevance memo are warm, a layer call is pure
    // arithmetic too.
    use lhmm_core::types::{Candidate, LayerRoutes};
    let net = &ds.network;
    let layers: Vec<Vec<Candidate>> = rec
        .cellular
        .points
        .iter()
        .map(|p| {
            let pos = p.effective_pos();
            ds.index
                .k_nearest(net, pos, 8, 3_000.0)
                .into_iter()
                .map(|(seg, _)| Candidate {
                    seg,
                    t: net.project(pos, seg).t,
                    obs: 1.0,
                })
                .collect::<Vec<_>>()
        })
        .filter(|l| !l.is_empty())
        .collect();
    let mut sp = SpHandle::default().engine(net);
    let arenas: Vec<LayerRoutes> = layers
        .windows(2)
        .map(|w| {
            let mut routes = LayerRoutes::default();
            routes.build(net, &mut sp, &w[0], &w[1], 5_000.0);
            routes
        })
        .collect();
    assert!(!arenas.is_empty(), "trajectory too short for a layer transition");
    let pairs_max = layers.windows(2).map(|w| w[0].len() * w[1].len()).max().unwrap_or(0);
    let mut out = vec![0.0f64; pairs_max];
    let (scratch, _) = scorer.finish();
    let mut scorer = TrajTransScorer::with_scratch(trans, emb, &towers, scratch, false);
    let score_layers = |scorer: &mut TrajTransScorer<'_>, out: &mut [f64]| {
        let mut routed = 0;
        for (routes, w) in arenas.iter().zip(layers.windows(2)) {
            let out = &mut out[..w[0].len() * w[1].len()];
            scorer.transition_layer(net, 700.0, 45.0, routes, out);
            routed += out.iter().filter(|&&p| p > 0.0).count();
        }
        routed
    };
    // Priming pass: sizes the fold buffers and fills the relevance memo.
    let routed = score_layers(&mut scorer, &mut out);
    assert!(routed > 0, "no routed pair scored — vacuous test");
    let before = allocs();
    let routed_warm = score_layers(&mut scorer, &mut out);
    let layer_delta = allocs() - before;
    assert_eq!(routed_warm, routed);
    assert_eq!(
        layer_delta, 0,
        "warm P_T layer scoring allocated {layer_delta} times over {} layers",
        arenas.len()
    );
}
