//! Dispatch-matrix equivalence suite: every kernel path compiled into
//! this binary must be **bitwise**-equal to the scalar reference — on
//! random shapes, on remainder tails (`j % lanes != 0`), on degenerate
//! shapes (`k = 0`, empty rows/columns), and through the full layer and
//! attention entry points. `to_bits` comparisons throughout: the contract
//! is byte identity, not tolerance.

use lhmm_neural::kernel::{self, Kernel};
use lhmm_neural::layers::{Activation, AdditiveAttention, Linear, Mlp};
use lhmm_neural::{Matrix, ParamStore, Scratch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (x, y) in a.data().iter().zip(b.data()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: bit divergence");
    }
}

/// Runs `op` under every supported kernel and asserts its output matches
/// the scalar run bit for bit.
fn check_all_kernels(what: &str, mut op: impl FnMut() -> Matrix) {
    let reference = {
        let _g = kernel::force_scope(Kernel::Scalar);
        op()
    };
    for k in kernel::supported_kernels() {
        let _g = kernel::force_scope(k);
        let got = op();
        assert_bits_eq(&reference, &got, &format!("{what} under {k:?}"));
    }
}

/// `a·b` by the textbook triple loop: every output element starts at
/// `0.0` and adds one rounded product per `k`, ascending — the op
/// sequence every kernel path must reproduce.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut s = 0.0f32;
            for k in 0..a.cols() {
                s += a[(i, k)] * b[(k, j)];
            }
            out[(i, j)] = s;
        }
    }
    out
}

fn mat_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0..10.0f32, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random shapes spanning the interesting boundaries: n crosses both
    /// vector widths (4 and 8) and their remainders, k crosses the 4-step
    /// fusion boundary, m includes 1 (row-vector matmuls).
    #[test]
    fn matmul_bitwise_equal_across_kernels(
        m in 1usize..6,
        kk in 0usize..11,
        n in 1usize..20,
        seed in 0u64..100_000,
    ) {
        let lhs_vals: Vec<f32> = (0..m * kk)
            .map(|i| ((i as f32 + seed as f32 % 97.0) * 0.37).sin() * 4.0)
            .collect();
        let rhs_vals: Vec<f32> = (0..kk * n)
            .map(|i| ((i as f32 - (seed % 13) as f32) * 0.23).cos() * 4.0)
            .collect();
        let a = Matrix::from_vec(m, kk, lhs_vals);
        let b = Matrix::from_vec(kk, n, rhs_vals);
        let reference = naive_matmul(&a, &b);
        for k in kernel::supported_kernels() {
            let mut out = Matrix::full(m, n, f32::NAN); // dirty output buffer
            kernel::matmul_into_with(k, &a, &b, &mut out, false);
            for (x, y) in reference.data().iter().zip(out.data()) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "matmul diverged under {:?}", k);
            }
        }
    }

    /// The fused layer pass (matmul + bias + activation) through the
    /// dispatcher, every activation, including widths that are exact
    /// multiples of the vector lanes (aligned-load path) and not.
    #[test]
    fn linear_infer_into_bitwise_equal_across_kernels(
        rows in 1usize..5,
        in_dim in 1usize..9,
        out_sel in 0usize..6,
        x in mat_strategy(4, 8),
        layer_seed in 0u64..1000,
    ) {
        let out_dim = [1, 3, 4, 8, 11, 16][out_sel];
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(layer_seed);
        let layer = Linear::new(&mut store, in_dim, out_dim, &mut rng);
        let x = Matrix::from_vec(
            rows,
            in_dim,
            (0..rows * in_dim).map(|i| x.data()[i % 32]).collect(),
        );
        for act in [Activation::Identity, Activation::Relu, Activation::Tanh, Activation::Sigmoid] {
            let reference = {
                let _g = kernel::force_scope(Kernel::Scalar);
                let mut out = Matrix::full(rows, out_dim, f32::NAN);
                layer.infer_into(&store, &x, &mut out, act);
                out
            };
            for k in kernel::supported_kernels() {
                let _g = kernel::force_scope(k);
                let mut out = Matrix::full(rows, out_dim, f32::NAN);
                layer.infer_into(&store, &x, &mut out, act);
                for (a, b) in reference.data().iter().zip(out.data()) {
                    prop_assert_eq!(
                        a.to_bits(), b.to_bits(),
                        "infer_into diverged under {:?} ({:?})", k, act
                    );
                }
            }
        }
    }

    /// Attention over memoized tanh halves: both the legacy row-major
    /// entry point and the transposed restructured one, for key-set sizes
    /// crossing the 4- and 8-lane boundaries (the score loop vectorizes
    /// over keys).
    #[test]
    fn attention_bitwise_equal_across_kernels(
        n_keys in 1usize..20,
        seed in 0u64..1000,
    ) {
        let dim = 6;
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let att = AdditiveAttention::new(&mut store, dim, 5, &mut rng);
        let keys = Matrix::from_vec(
            n_keys,
            dim,
            (0..n_keys * dim).map(|i| ((i as f32 + seed as f32) * 0.17).cos()).collect(),
        );
        let query = Matrix::from_vec(1, dim, (0..dim).map(|i| (i as f32 * 0.41).sin()).collect());

        let mut tanh_keys = Matrix::zeros(n_keys, att.proj_dim());
        att.project_keys_into(&store, &keys, &mut tanh_keys);
        for v in tanh_keys.data_mut() {
            *v = v.tanh();
        }
        let tanh_keys_t = tanh_keys.transpose();
        let mut tanh_q = Matrix::zeros(1, att.proj_dim());
        att.project_queries_into(&store, &query, &mut tanh_q);
        for v in tanh_q.data_mut() {
            *v = v.tanh();
        }

        let mut scratch = Scratch::new();
        let mut reference = vec![0.0f32; dim];
        {
            let _g = kernel::force_scope(Kernel::Scalar);
            att.attend_tanh(&store, tanh_q.row(0), &tanh_keys, &keys, &mut scratch, &mut reference);
        }
        let mut ctx = vec![0.0f32; dim];
        for k in kernel::supported_kernels() {
            let _g = kernel::force_scope(k);
            att.attend_tanh(&store, tanh_q.row(0), &tanh_keys, &keys, &mut scratch, &mut ctx);
            for (a, b) in reference.iter().zip(&ctx) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "attend_tanh diverged under {:?}", k);
            }
            att.attend_tanh_t(&store, tanh_q.row(0), &tanh_keys_t, &keys, &mut scratch, &mut ctx);
            for (a, b) in reference.iter().zip(&ctx) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "attend_tanh_t diverged under {:?}", k);
            }
        }
    }
}

/// Degenerate shapes the proptest ranges may undersample: inner dimension
/// zero (result must be exactly the zero matrix on every path), empty row
/// and column extents, and single-lane widths.
#[test]
fn degenerate_shapes_bitwise_equal() {
    for (m, kk, n) in [
        (3usize, 0usize, 5usize), // k = 0: pure fill(0.0)
        (0, 4, 5),                // no output rows
        (2, 7, 1),                // single output column (j tail only)
        (1, 1, 9),                // 8-lane body + 1 tail
        (1, 4, 8),                // exact AVX2 width (aligned path)
        (1, 4, 4),                // exact SSE2/NEON width
    ] {
        let a = Matrix::from_vec(m, kk, (0..m * kk).map(|i| i as f32 * 0.3 - 1.0).collect());
        let b = Matrix::from_vec(kk, n, (0..kk * n).map(|i| 2.0 - i as f32 * 0.2).collect());
        let reference = naive_matmul(&a, &b);
        for k in kernel::supported_kernels() {
            let mut out = Matrix::full(m, n, f32::NAN);
            kernel::matmul_into_with(k, &a, &b, &mut out, false);
            if kk == 0 {
                assert!(out.data().iter().all(|&v| v == 0.0), "k = 0 under {k:?}");
            }
            assert_bits_eq(&reference, &out, &format!("degenerate {m}x{kk}x{n} under {k:?}"));
        }
    }
}

/// A whole MLP forward through `infer_with` (scratch-arena path) must be
/// kernel-invariant — this exercises dispatch on reused, potentially
/// dirty arena buffers rather than fresh matrices.
#[test]
fn mlp_infer_with_is_kernel_invariant() {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(42);
    let mlp = Mlp::new(&mut store, &[7, 12, 5, 1], Activation::Tanh, &mut rng);
    let x = Matrix::from_vec(6, 7, (0..42).map(|i| (i as f32 * 0.19).sin()).collect());
    let mut scratch = Scratch::new();
    check_all_kernels("mlp infer_with", || {
        let out = mlp.infer_with(&store, &x, &mut scratch);
        let copy = out.clone();
        scratch.give(out);
        copy
    });
}

/// `LHMM_KERNEL` parsing contract: every supported name round-trips, junk
/// is rejected (the dispatcher then falls back to detection).
#[test]
fn kernel_names_parse() {
    for k in kernel::supported_kernels() {
        assert_eq!(kernel::Kernel::parse(k.name()), Some(k));
    }
    assert_eq!(kernel::Kernel::parse("fastest"), None);
    assert_eq!(kernel::Kernel::parse(""), None);
}

/// `aᵀ·b` by the textbook triple loop: every output element starts at
/// `0.0` and adds one rounded product per `k`, ascending.
fn naive_at_b(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.cols(), b.cols());
    for i in 0..a.cols() {
        for j in 0..b.cols() {
            let mut s = 0.0f32;
            for k in 0..a.rows() {
                s += a[(k, i)] * b[(k, j)];
            }
            out[(i, j)] = s;
        }
    }
    out
}

fn wavy(rows: usize, cols: usize, phase: f32) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|i| ((i as f32 + phase) * 0.37).sin() * 3.0)
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The k-outer `aᵀ·b` kernel equals the naive triple loop bit for bit
    /// under every kernel (forced in-process), on one thread and on two.
    /// `kk` crosses the k-block (32) and its remainders; `m` is odd and
    /// even.
    #[test]
    fn at_b_equals_naive_triple_loop_under_every_kernel(
        kk in 0usize..80,
        m in 1usize..12,
        n in 1usize..20,
        phase in 0u32..1000,
    ) {
        let a = wavy(kk, m, phase as f32);
        let b = wavy(kk, n, phase as f32 * 0.5 + 3.0);
        let reference = naive_at_b(&a, &b);
        for k in kernel::supported_kernels() {
            let _g = kernel::force_scope(k);
            for split in [false, true] {
                let mut out = Matrix::full(m, n, f32::NAN);
                kernel::matmul_at_b_into(kernel::active(), &a, &b, &mut out, split);
                for (x, y) in reference.data().iter().zip(out.data()) {
                    prop_assert_eq!(
                        x.to_bits(), y.to_bits(),
                        "aᵀ·b diverged under {:?} (split {})", k, split
                    );
                }
            }
        }
    }

    /// The row-split training matmul equals the one-thread dispatched
    /// matmul bit for bit under every kernel, including odd row counts
    /// and single-column outputs.
    #[test]
    fn split_matmul_equals_one_thread_matmul_under_every_kernel(
        m in 1usize..12,
        kk in 0usize..11,
        n in 1usize..20,
        phase in 0u32..1000,
    ) {
        let a = wavy(m, kk, phase as f32);
        let b = wavy(kk, n, phase as f32 + 7.0);
        let reference = naive_matmul(&a, &b);
        for k in kernel::supported_kernels() {
            let _g = kernel::force_scope(k);
            for split in [false, true] {
                let mut out = Matrix::full(m, n, f32::NAN);
                kernel::matmul_into_with(kernel::active(), &a, &b, &mut out, split);
                for (x, y) in reference.data().iter().zip(out.data()) {
                    prop_assert_eq!(
                        x.to_bits(), y.to_bits(),
                        "split matmul diverged under {:?} (split {})", k, split
                    );
                }
            }
        }
    }
}

/// Products on both sides of the threading threshold, shaped like the
/// encoder's (64-wide): the tape's automatic choice, the forced
/// two-thread path and the one-thread path agree bit for bit, and with
/// the naive loops, under every kernel.
#[test]
fn training_products_are_exact_on_both_sides_of_the_threading_threshold() {
    let (kk, n) = (64usize, 64usize);
    let below = kernel::SPLIT_MIN_MACS / (kk * n) - 1;
    for m in [below, below + 2] {
        let macs = m * kk * n;
        assert_eq!(
            macs >= kernel::SPLIT_MIN_MACS,
            m > below,
            "m = {m} straddles the threshold"
        );
        let a = wavy(m, kk, 1.0);
        let b = wavy(kk, n, 2.0);
        let g = wavy(m, n, 3.0);
        let mm_ref = naive_matmul(&a, &b);
        let atb_ref = naive_at_b(&a, &g);
        for k in kernel::supported_kernels() {
            let _g = kernel::force_scope(k);
            for split in [false, true, kernel::split_training(macs)] {
                let mut mm = Matrix::full(m, n, f32::NAN);
                kernel::matmul_into_with(kernel::active(), &a, &b, &mut mm, split);
                assert_bits_eq(
                    &mm_ref,
                    &mm,
                    &format!("matmul m={m} under {k:?} split {split}"),
                );
                let mut atb = Matrix::full(kk, n, f32::NAN);
                kernel::matmul_at_b_into(kernel::active(), &a, &g, &mut atb, split);
                assert_bits_eq(
                    &atb_ref,
                    &atb,
                    &format!("aᵀ·b m={m} under {k:?} split {split}"),
                );
            }
        }
    }
}
