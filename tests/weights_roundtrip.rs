//! Weight persistence round-trip: a model rebuilt from exported bytes must
//! score **bit-identically** to the model that produced them.
//!
//! Matching-level equivalence (same routes) already lives in `lhmm-core`'s
//! unit tests; this suite pins the stronger property the vectorized scoring
//! path relies on — `save_weights`/`load_weights` preserve every `f32`
//! exactly, so `P_O` and `P_T` evaluations through the per-trajectory
//! scorers produce the same bit patterns before and after persistence.
//!
//! It also pins training itself: the trained weights hash to a constant
//! recorded before the training tape became reusable and multi-threaded,
//! and a tape reused through `reset` yields the gradients of fresh tapes.

use lhmm::prelude::*;
use lhmm_core::transition::TrajTransScorer;
use lhmm_neural::layers::{Activation, AdditiveAttention, Mlp};
use lhmm_neural::{kernel, Matrix, ParamStore, Scratch, SparseMatrix, Tape};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::rc::Rc;

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Training is exact: every weight `LhmmModel::train` produces (encoder
/// embeddings, both learners) is bit-identical to the single-thread,
/// allocate-per-step tape the constant was recorded with, under every
/// kernel.
#[test]
fn trained_weights_hash_is_pinned() {
    let ds = Dataset::generate(&DatasetConfig::tiny_test(181));
    let trained = LhmmModel::train(&ds, LhmmConfig::fast_test(181));
    let hash = fnv1a64(&trained.save_weights());
    assert_eq!(
        hash, 0x478b_52f2_cbd3_35e9,
        "trained weights moved: FNV-1a-64 {hash:016x}"
    );
}

/// One step of a small network touching every tape operator, with `n`
/// input rows; returns the parameter gradients.
fn step_grads(
    tape: &mut Tape,
    store: &ParamStore,
    mlp: &Mlp,
    att: &AdditiveAttention,
    adj: &Rc<SparseMatrix>,
    n: usize,
) -> Vec<(lhmm_neural::ParamId, Matrix)> {
    let x = tape.constant(Matrix::from_vec(
        n,
        6,
        (0..n * 6)
            .map(|i| ((i * 7 + n) as f32 * 0.29).sin())
            .collect(),
    ));
    let h = mlp.forward(tape, store, x); // n×6
    let q = tape.gather_rows(h, &[n - 1]);
    let (ctx, w) = att.forward(tape, store, q, h, h);
    let rep = tape.repeat_row(ctx, n);
    let both = tape.concat_cols(h, rep); // n×12
    let prop = tape.spmm(adj, both);
    let stacked = tape.concat_rows(prop, both);
    let s = tape.softmax_rows(stacked);
    let t = tape.tanh(s);
    let sg = tape.sigmoid(t);
    let d = tape.sub(sg, t);
    let p = tape.mul(d, s);
    let a = tape.affine(p, 1.5, -0.25);
    let r = tape.relu(a);
    let m = tape.mean_rows(r);
    let mt = tape.transpose(m);
    let wt = tape.transpose(w); // 1×n
    let idx: Vec<usize> = (0..n).map(|i| i % 12).collect();
    let col = tape.gather_rows(mt, &idx); // n×1
    let out = tape.matmul(wt, col);
    let seed = Matrix::full(1, 1, 1.0);
    tape.backward(out, &seed);
    tape.param_grads().to_vec()
}

/// A tape reused through `reset` across steps of changing shapes gives the
/// gradients fresh tapes give, bit for bit, and a step that repeats the
/// previous step's shapes allocates nothing.
#[test]
fn reused_tape_gives_the_gradients_of_fresh_tapes() {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(7);
    let mlp = Mlp::new(&mut store, &[6, 9, 6], Activation::Tanh, &mut rng);
    let att = AdditiveAttention::new(&mut store, 6, 5, &mut rng);
    // Ends on a repeated size.
    let sizes = [3usize, 5, 4, 3, 7, 5, 6, 6, 6];
    let mut reused = Tape::new();
    let mut allocs_after_first_six = 0;
    for (step, &n) in sizes.iter().enumerate() {
        // Row r averages itself and row (r + 1) mod n; row 0 repeats a
        // column and the last row is empty.
        let rows: Vec<Vec<(u32, f32)>> = (0..n)
            .map(|r| match r {
                0 => vec![(0, 0.5), (1, 0.25), (1, 0.25)],
                r if r == n - 1 => vec![],
                r => vec![(r as u32, 0.5), (((r + 1) % n) as u32, 0.5)],
            })
            .collect();
        let adj = Rc::new(SparseMatrix::from_rows(n, n, &rows));
        reused.reset();
        let got = step_grads(&mut reused, &store, &mlp, &att, &adj, n);
        let want = step_grads(&mut Tape::new(), &store, &mlp, &att, &adj, n);
        assert_eq!(got.len(), want.len(), "step {step}: parameter count");
        for ((pa, ga), (pb, gb)) in got.iter().zip(&want) {
            assert_eq!(pa, pb, "step {step}: parameter order");
            assert_eq!(ga.shape(), gb.shape());
            for (x, y) in ga.data().iter().zip(gb.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "step {step}: gradient bits");
            }
        }
        if step == sizes.len() - 3 {
            allocs_after_first_six = reused.arena_allocs();
        }
    }
    assert_eq!(
        reused.arena_allocs(),
        allocs_after_first_six,
        "a repeated step shape must not allocate"
    );
}

/// Encoder-sized products run on two threads when the host allows it; the
/// tape's gradients then still equal the one-thread kernels' bit for bit.
#[test]
fn threaded_tape_products_match_the_one_thread_kernels() {
    let (n, d) = (kernel::SPLIT_MIN_MACS / (64 * 64) + 3, 64);
    let x = Matrix::from_vec(n, d, (0..n * d).map(|i| (i as f32 * 0.013).sin()).collect());
    let w = Matrix::from_vec(
        d,
        d,
        (0..d * d).map(|i| (i as f32 * 0.07).cos() * 0.1).collect(),
    );
    let mut tape = Tape::new();
    let xv = tape.constant(x.clone());
    let wv = tape.constant(w.clone());
    let y = tape.matmul(xv, wv);
    let seed = Matrix::from_vec(n, d, (0..n * d).map(|i| (i as f32 * 0.031).cos()).collect());
    tape.backward(y, &seed);

    let k = kernel::active();
    let mut want_y = Matrix::zeros(n, d);
    kernel::matmul_into_with(k, &x, &w, &mut want_y, false);
    let mut want_gx = Matrix::zeros(n, d);
    kernel::matmul_into_with(k, &seed, &w.transpose(), &mut want_gx, false);
    let mut want_gw = Matrix::zeros(d, d);
    kernel::matmul_into_with(k, &x.transpose(), &seed, &mut want_gw, false);
    for (what, got, want) in [
        ("y", tape.value(y), &want_y),
        ("dx", tape.grad(xv).expect("dx"), &want_gx),
        ("dw", tape.grad(wv).expect("dw"), &want_gw),
    ] {
        assert_eq!(got.shape(), want.shape(), "{what}");
        for (a, b) in got.data().iter().zip(want.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{what} diverged");
        }
    }
}

#[test]
fn reloaded_weights_score_bit_identically() {
    let ds = Dataset::generate(&DatasetConfig::tiny_test(181));
    let trained = LhmmModel::train(&ds, LhmmConfig::fast_test(181));
    let bytes = trained.save_weights();
    let loaded =
        LhmmModel::load_weights(&ds, LhmmConfig::fast_test(181), &bytes).expect("load weights");

    let rec = ds
        .test
        .iter()
        .max_by_key(|r| r.cellular.len())
        .expect("non-empty test split");
    let towers = rec.cellular.towers();

    // ---------------- P_O ----------------
    let mut scored_points = 0usize;
    {
        let obs_a = trained.observation_learner().expect("trained P_O");
        let obs_b = loaded.observation_learner().expect("loaded P_O");
        let mut sa = obs_a.traj_scorer(trained.embeddings(), &towers, Scratch::new());
        let mut sb = obs_b.traj_scorer(loaded.embeddings(), &towers, Scratch::new());
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        for (i, p) in rec.cellular.points.iter().enumerate() {
            let pos = p.effective_pos();
            let segs: Vec<SegmentId> = ds
                .index
                .k_nearest(&ds.network, pos, 8, 3_000.0)
                .into_iter()
                .map(|(s, _)| s)
                .collect();
            if segs.is_empty() {
                continue;
            }
            sa.score_into(&ds.network, trained.graph(), pos, p.tower, i, &segs, &mut out_a);
            sb.score_into(&ds.network, loaded.graph(), pos, p.tower, i, &segs, &mut out_b);
            assert_eq!(out_a.len(), out_b.len());
            for (a, b) in out_a.iter().zip(&out_b) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "P_O diverged after reload at point {i}: {a} vs {b}"
                );
            }
            scored_points += 1;
        }
    }
    assert!(scored_points > 0, "no points scored; round-trip untested");

    // ---------------- P_T ----------------
    let trans_a = trained.transition_learner().expect("trained P_T");
    let trans_b = loaded.transition_learner().expect("loaded P_T");
    let mut ta =
        TrajTransScorer::with_scratch(trans_a, trained.embeddings(), &towers, Scratch::new());
    let mut tb =
        TrajTransScorer::with_scratch(trans_b, loaded.embeddings(), &towers, Scratch::new());
    let mut scored_routes = 0usize;
    for window in rec.truth.segments.windows(5).step_by(5).take(10) {
        let a = ta.transition_prob(&ds.network, 650.0, 40.0, 880.0, window);
        let b = tb.transition_prob(&ds.network, 650.0, 40.0, 880.0, window);
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "P_T diverged after reload on route {scored_routes}: {a} vs {b}"
        );
        scored_routes += 1;
    }
    assert!(scored_routes > 0, "no routes scored; round-trip untested");
}
