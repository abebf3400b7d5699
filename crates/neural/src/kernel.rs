//! Runtime-dispatched SIMD inference kernels, bitwise-pinned to the
//! scalar reference.
//!
//! The three hot loops of LHMM inference — blocked
//! [`Matrix::matmul_into`], the fused bias pass of `Linear::infer_into`,
//! and the additive-attention score/context loops — all share one shape:
//! independent output elements (the `j`/column dimension), each
//! accumulated over `k` in ascending order. That independence is what
//! makes *bitwise-exact* vectorization possible: a SIMD lane performs the
//! same IEEE-754 multiply and add, in the same per-element order, as the
//! scalar loop — only across several output columns at once. Nothing is
//! reassociated, no FMA contraction is used (fused multiply-add rounds
//! once where the scalar reference rounds twice), and `tanh`/`exp` stay
//! per-element libm calls. Every kernel path therefore produces
//! byte-identical `Matrix` contents; the PR 2 scalar path remains the
//! oracle (see `tests/scoring_equivalence.rs` and
//! `crates/neural/tests/kernel_dispatch.rs`).
//!
//! # Dispatch
//!
//! [`active`] picks the widest supported kernel once per process:
//! AVX2(+FMA present, though unused — see above) or the SSE2 baseline on
//! x86_64, NEON on aarch64, portable scalar everywhere else. The
//! `LHMM_KERNEL=scalar|sse2|avx2|neon` environment variable, read once at
//! startup, forces a specific path for CI; an unsupported or unknown
//! value falls back to detection (matching never fails over a stale CI
//! matrix entry — all paths are bit-identical anyway). Tests and benches
//! that sweep kernels in-process use [`force_scope`], which serializes
//! through a global lock.
//!
//! This module (together with [`crate::avec`]) is the audited home of the
//! crate's `unsafe` and of the `is_x86_feature_detected!`/global
//! `OnceLock` dispatch state; `lhmm-lint` allows those constructs nowhere
//! else (see DESIGN §12).

use crate::matrix::Matrix;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// One inference-kernel implementation tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Kernel {
    /// Portable scalar loops — the PR 2 reference and exactness oracle.
    Scalar = 0,
    /// 128-bit SSE2, the x86_64 baseline (4 f32 lanes).
    Sse2 = 1,
    /// 256-bit AVX2 (8 f32 lanes); selected only when FMA is also present
    /// (the tier the detection contract names), though the kernels use
    /// separate mul+add to preserve scalar rounding.
    Avx2 = 2,
    /// 128-bit NEON, the aarch64 baseline (4 f32 lanes).
    Neon = 3,
}

impl Kernel {
    /// Stable lowercase name (`LHMM_KERNEL` value, telemetry, bench ids).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Sse2 => "sse2",
            Kernel::Avx2 => "avx2",
            Kernel::Neon => "neon",
        }
    }

    /// Parses an `LHMM_KERNEL` value (case-insensitive).
    pub fn parse(s: &str) -> Option<Kernel> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" => Some(Kernel::Scalar),
            "sse2" => Some(Kernel::Sse2),
            "avx2" => Some(Kernel::Avx2),
            "neon" => Some(Kernel::Neon),
            _ => None,
        }
    }

    /// True when this kernel can run on the current machine (compile
    /// target and, for AVX2, runtime CPU features).
    pub fn is_supported(self) -> bool {
        match self {
            Kernel::Scalar => true,
            Kernel::Sse2 => cfg!(target_arch = "x86_64"),
            Kernel::Avx2 => avx2_supported(),
            Kernel::Neon => cfg!(target_arch = "aarch64"),
        }
    }

    fn from_u8(v: u8) -> Kernel {
        match v {
            1 => Kernel::Sse2,
            2 => Kernel::Avx2,
            3 => Kernel::Neon,
            _ => Kernel::Scalar,
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn avx2_supported() -> bool {
    is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_supported() -> bool {
    false
}

/// Every kernel the current machine can run, widest last, always
/// starting with [`Kernel::Scalar`]. CI iterates this list to force each
/// path (`lhmm-lint --kernels`).
pub fn supported_kernels() -> Vec<Kernel> {
    [Kernel::Scalar, Kernel::Sse2, Kernel::Neon, Kernel::Avx2]
        .into_iter()
        .filter(|k| k.is_supported())
        .collect()
}

/// In-process override installed by [`force_scope`]; `0` = none, else
/// `kernel as u8 + 1`. All paths are bit-identical, so a mid-process
/// switch can never change results — only which instructions compute
/// them.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// Resolved startup choice: `LHMM_KERNEL` (if valid and supported) else
/// hardware detection. Read once; see the module docs.
static RESOLVED: OnceLock<Kernel> = OnceLock::new();

/// Serializes [`force_scope`] users so concurrent tests cannot observe
/// each other's override.
static FORCE_LOCK: Mutex<()> = Mutex::new(());

fn detect() -> Kernel {
    if Kernel::Avx2.is_supported() {
        Kernel::Avx2
    } else if Kernel::Sse2.is_supported() {
        Kernel::Sse2
    } else if Kernel::Neon.is_supported() {
        Kernel::Neon
    } else {
        Kernel::Scalar
    }
}

fn resolve() -> Kernel {
    if let Ok(v) = std::env::var("LHMM_KERNEL") {
        if let Some(k) = Kernel::parse(&v) {
            if k.is_supported() {
                return k;
            }
        }
    }
    detect()
}

/// The kernel every dispatched entry point currently uses.
#[inline]
pub fn active() -> Kernel {
    match FORCED.load(Ordering::Relaxed) {
        0 => *RESOLVED.get_or_init(resolve),
        f => Kernel::from_u8(f - 1),
    }
}

/// Scoped in-process kernel override for tests and benches. Returns
/// `None` when `k` is not supported on this machine. The override is
/// global; holders of the returned guard are serialized through a lock,
/// and the override is cleared when the guard drops.
pub fn force_scope(k: Kernel) -> Option<ForceGuard> {
    if !k.is_supported() {
        return None;
    }
    // A poisoned lock only means a previous test panicked while forcing;
    // the stored override is overwritten below either way.
    let lock = FORCE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    FORCED.store(k as u8 + 1, Ordering::Relaxed);
    Some(ForceGuard { _lock: lock })
}

/// Guard returned by [`force_scope`]; restores auto-dispatch on drop.
pub struct ForceGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for ForceGuard {
    fn drop(&mut self) {
        FORCED.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Dispatched operations.
//
// Every operation reduces to two raw per-ISA primitives over row-major
// slices:
//
//   accumulate_rows(coeffs, rows, n, out):
//       for k ascending: out[j] += coeffs[k] * rows[k*n + j]
//       (4-step k fusion, j vectorized; one rounded mul and one rounded
//       add per (k, j), ascending k per output element — exactly the
//       scalar blocked kernel's per-element op sequence)
//
//   add_assign(out, rhs): out[j] += rhs[j]   (j vectorized)
//
// A kernel that is requested but unsupported on this target silently
// degrades to scalar: the result is bit-identical by contract, so this
// is a performance fallback, never a correctness event.
// ---------------------------------------------------------------------------

/// `out = a × rhs` using kernel `k`; shape contract identical to
/// [`Matrix::matmul_into`]. With `split` (training products, see
/// [`split_training`]) the output rows are halved between the caller and
/// one scoped helper thread. Output rows are independent, so the result
/// is bit-identical across every kernel and both thread counts.
pub fn matmul_into_with(k: Kernel, a: &Matrix, rhs: &Matrix, out: &mut Matrix, split: bool) {
    assert_eq!(
        a.cols(),
        rhs.rows(),
        "matmul shape mismatch: {:?} x {:?}",
        a.shape(),
        rhs.shape()
    );
    assert_eq!(
        out.shape(),
        (a.rows(), rhs.cols()),
        "matmul_into output shape mismatch"
    );
    let (m, kk, n) = (a.rows(), a.cols(), rhs.cols());
    for_row_halves(out.data_mut(), n, split.then_some(m / 2), |r0, rows| {
        let r1 = r0 + rows.len().checked_div(n).unwrap_or(0);
        matmul_rows(k, &a.data()[r0 * kk..r1 * kk], kk, rhs, rows);
    });
}

/// `out = a_rows × rhs` over a run of whole rows: `a_rows` holds
/// `out.len() / rhs.cols()` rows of `kk` entries. Every output row is
/// computed on its own, so any partition of the rows gives the same bits.
fn matmul_rows(k: Kernel, a_rows: &[f32], kk: usize, rhs: &Matrix, out: &mut [f32]) {
    let n = rhs.cols();
    if n == 1 && k != Kernel::Scalar {
        // Single output column (the MLP head layers): no lanes to
        // vectorize across, but the per-element add chains of different
        // output *rows* are independent — interleaving four of them hides
        // the serial add latency the row-at-a-time reference pays.
        matmul_rows_n1(a_rows, kk, rhs.data(), out);
        return;
    }
    out.fill(0.0);
    if n == 0 {
        return;
    }
    for (a_row, out_row) in a_rows.chunks_exact(kk.max(1)).zip(out.chunks_exact_mut(n)) {
        accumulate_rows_with(k, a_row, rhs.data(), n, out_row);
    }
}

/// Multiply-adds (non-zeros × columns for a sparse product) below which a
/// training product stays on the calling thread. Spawning and joining a
/// scoped helper costs 30–50 µs on a 2-vCPU x86_64 host; there a 64-wide
/// dense matmul breaks even between 2²⁰ and 1.5·2²⁰ multiply-adds and
/// gains a fifth at 2²¹. Only the encoder's dense products reach this;
/// its SpMMs and every learner product stay below (DESIGN §12).
pub const SPLIT_MIN_MACS: usize = 1 << 21;

/// Whether a training product of `macs` multiply-adds runs on two threads:
/// only at [`SPLIT_MIN_MACS`] and up, and only where the process may use
/// two cores. Exactness never depends on the answer.
pub fn split_training(macs: usize) -> bool {
    static CORES: OnceLock<usize> = OnceLock::new();
    macs >= SPLIT_MIN_MACS
        && *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get())) >= 2
}

/// Runs `f(first_row, rows)` over `out`, a row-major buffer of `cols`-wide
/// rows. With `mid = None` the caller runs every row. With `Some(mid)` one
/// scoped helper thread runs rows `mid..` while the caller runs `..mid`.
/// Each side writes only its own rows of the caller-owned `out`, and the
/// closures the training products pass here never allocate. If the helper
/// cannot be spawned, the caller runs its half afterwards.
pub(crate) fn for_row_halves<F>(out: &mut [f32], cols: usize, mid: Option<usize>, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    let rows = out.len().checked_div(cols).unwrap_or(0);
    let mid = match mid {
        Some(mid) if mid > 0 && mid < rows => mid,
        _ => {
            f(0, out);
            return;
        }
    };
    let split = mid * cols;
    let spawned = std::thread::scope(|s| {
        let (lo, hi) = out.split_at_mut(split);
        let f = &f;
        let spawned = std::thread::Builder::new()
            .spawn_scoped(s, move || f(mid, hi))
            .is_ok();
        f(0, lo);
        spawned
    });
    if !spawned {
        f(mid, &mut out[split..]);
    }
}

/// Rows of `a` and `b` per k-block of [`matmul_at_b_into`]: small enough
/// that a block of both operands and the output stay in L1 while every
/// output row passes over them.
const AT_B_BLOCK: usize = 32;

/// `out = aᵀ × b` without materializing `aᵀ`: `a` is `kk×m`, `b` is
/// `kk×n`, `out` must be `m×n`.
///
/// k-outer: for each block of `AT_B_BLOCK` (32) rows of `a` and `b`, output
/// row `i` gathers column `i` of `a` over the block into coefficients and
/// accumulates the block's rows of `b` with the kernel's
/// `accumulate_rows`. Every output element still starts at `0.0` and
/// receives one rounded multiply and one rounded add per `k`, in ascending
/// `k` — the op sequence of `a.transpose().matmul(b)` — so the result is
/// bit-identical to it under every kernel. With `split`, output rows are
/// halved between the caller and one helper thread.
pub fn matmul_at_b_into(k: Kernel, a: &Matrix, b: &Matrix, out: &mut Matrix, split: bool) {
    assert_eq!(
        a.rows(),
        b.rows(),
        "aᵀ·b shape mismatch: {:?}ᵀ x {:?}",
        a.shape(),
        b.shape()
    );
    assert_eq!(
        out.shape(),
        (a.cols(), b.cols()),
        "aᵀ·b output shape mismatch"
    );
    let (kk, m, n) = (a.rows(), a.cols(), b.cols());
    let mid = split.then_some(m / 2);
    for_row_halves(out.data_mut(), n, mid, |i0, rows| {
        rows.fill(0.0);
        if n == 0 {
            return;
        }
        let mut coeffs = [0.0f32; AT_B_BLOCK];
        let mut k0 = 0;
        while k0 < kk {
            let k1 = (k0 + AT_B_BLOCK).min(kk);
            let block = &b.data()[k0 * n..k1 * n];
            for (di, out_row) in rows.chunks_exact_mut(n).enumerate() {
                let i = i0 + di;
                for (c, kr) in coeffs.iter_mut().zip(k0..k1) {
                    *c = a.data()[kr * m + i];
                }
                accumulate_rows_with(k, &coeffs[..k1 - k0], block, n, out_row);
            }
            k0 = k1;
        }
    });
}

/// Row-broadcast bias add `out[r][j] += bias[j]` using kernel `k`.
/// The activation stays with the caller (per-element, libm) so every
/// kernel path shares one rounding story.
pub fn add_bias_rows_with(k: Kernel, out: &mut Matrix, bias: &[f32]) {
    let n = out.cols();
    debug_assert_eq!(bias.len(), n, "bias width");
    for r in 0..out.rows() {
        add_assign_with(k, out.row_mut(r), bias);
    }
}

/// Additive-attention score column from memoized tanh halves, restructured
/// around the shared query prefix:
///
/// ```text
/// score_j = Σ_{k<p} tanh_q[k]·w[k]  +  Σ_{k<p} tanh_keys_t[k][j]·w[p+k]
/// ```
///
/// The first sum (`qdot`) is the per-element accumulation prefix every
/// score shares — the scalar reference computes the identical first `p`
/// ascending adds per row of the assembled `[tanh_q ⊕ tanh_k_j]` matrix —
/// so seeding the scores with `qdot` and continuing with the key terms in
/// ascending `k` reproduces the scalar op sequence exactly (and halves
/// the multiply-adds). `tanh_keys_t` is the `p×n` *transposed* key half,
/// making the per-`k` pass contiguous in `j` and therefore vectorizable.
pub fn attend_scores_with(
    k: Kernel,
    tanh_q: &[f32],
    w_col: &[f32],
    tanh_keys_t: &Matrix,
    scores: &mut [f32],
) {
    let p = tanh_q.len();
    let n = tanh_keys_t.cols();
    debug_assert_eq!(tanh_keys_t.rows(), p, "transposed key half height");
    debug_assert_eq!(w_col.len(), 2 * p, "score weight length");
    debug_assert_eq!(scores.len(), n, "score column length");
    let mut qdot = 0.0f32;
    for (q, w) in tanh_q.iter().zip(w_col) {
        qdot += q * w;
    }
    scores.fill(qdot);
    accumulate_rows_with(k, &w_col[p..], tanh_keys_t.data(), n, scores);
}

/// Weighted sum of value rows `out[j] = Σ_r weights[r]·values[r][j]`
/// (ascending `r` per element — the softmax-context accumulation order).
pub fn weighted_sum_rows_with(k: Kernel, weights: &[f32], values: &Matrix, out: &mut [f32]) {
    debug_assert_eq!(weights.len(), values.rows(), "one weight per value row");
    debug_assert_eq!(out.len(), values.cols(), "context width");
    out.fill(0.0);
    accumulate_rows_with(k, weights, values.data(), values.cols(), out);
}

/// `out[j] += Σ_k coeffs[k]·rows[k*n + j]`, ascending `k` per element.
fn accumulate_rows_with(k: Kernel, coeffs: &[f32], rows: &[f32], n: usize, out: &mut [f32]) {
    debug_assert!(rows.len() >= coeffs.len() * n);
    debug_assert_eq!(out.len(), n);
    match k {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 presence was verified by `is_supported` (dispatch
        // only reaches this arm through `active()`/`force_scope`, both of
        // which refuse unsupported kernels) or re-checked here.
        Kernel::Avx2 if avx2_supported() => unsafe {
            x86::accumulate_rows_avx2(coeffs, rows, n, out)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86_64 baseline ISA.
        Kernel::Sse2 => unsafe { x86::accumulate_rows_sse2(coeffs, rows, n, out) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is part of the aarch64 baseline ISA.
        Kernel::Neon => unsafe { arm::accumulate_rows_neon(coeffs, rows, n, out) },
        _ => accumulate_rows_scalar(coeffs, rows, n, out),
    }
}

/// `out[j] += rhs[j]`.
fn add_assign_with(k: Kernel, out: &mut [f32], rhs: &[f32]) {
    debug_assert_eq!(out.len(), rhs.len());
    match k {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: see `accumulate_rows_with`.
        Kernel::Avx2 if avx2_supported() => unsafe { x86::add_assign_avx2(out, rhs) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86_64 baseline ISA.
        Kernel::Sse2 => unsafe { x86::add_assign_sse2(out, rhs) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is part of the aarch64 baseline ISA.
        Kernel::Neon => unsafe { arm::add_assign_neon(out, rhs) },
        _ => {
            for (o, &r) in out.iter_mut().zip(rhs) {
                *o += r;
            }
        }
    }
}

/// `n == 1` matmul (`out[i] = Σ_k a[i][k]·b[k]`, ascending `k`), four
/// output rows interleaved. Each output element still receives exactly
/// the scalar reference's op sequence — start at `0.0`, then one rounded
/// mul and one rounded add per ascending `k` — but four independent
/// accumulation chains run at once instead of one, which is what the
/// dot-product-shaped head layers are latency-bound on. Plain safe code:
/// the win is chain interleaving, not instruction width.
fn matmul_rows_n1(av: &[f32], kk: usize, b: &[f32], ov: &mut [f32]) {
    let m = ov.len();
    let mut i = 0;
    while i + 4 <= m {
        let r0 = &av[i * kk..(i + 1) * kk];
        let r1 = &av[(i + 1) * kk..(i + 2) * kk];
        let r2 = &av[(i + 2) * kk..(i + 3) * kk];
        let r3 = &av[(i + 3) * kk..(i + 4) * kk];
        let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for (k, &bv) in b.iter().enumerate() {
            s0 += r0[k] * bv;
            s1 += r1[k] * bv;
            s2 += r2[k] * bv;
            s3 += r3[k] * bv;
        }
        ov[i] = s0;
        ov[i + 1] = s1;
        ov[i + 2] = s2;
        ov[i + 3] = s3;
        i += 4;
    }
    while i < m {
        let r = &av[i * kk..(i + 1) * kk];
        let mut s = 0.0f32;
        for (k, &bv) in b.iter().enumerate() {
            s += r[k] * bv;
        }
        ov[i] = s;
        i += 1;
    }
}

/// Portable reference for `accumulate_rows`: the scalar blocked kernel's
/// op sequence (4-step k fusion, one rounded add per ascending `k`).
fn accumulate_rows_scalar(coeffs: &[f32], rows: &[f32], n: usize, out: &mut [f32]) {
    let kk = coeffs.len();
    let mut k = 0;
    while k + 4 <= kk {
        let (c0, c1, c2, c3) = (coeffs[k], coeffs[k + 1], coeffs[k + 2], coeffs[k + 3]);
        let r0 = &rows[k * n..(k + 1) * n];
        let r1 = &rows[(k + 1) * n..(k + 2) * n];
        let r2 = &rows[(k + 2) * n..(k + 3) * n];
        let r3 = &rows[(k + 3) * n..(k + 4) * n];
        for j in 0..n {
            out[j] = (((out[j] + c0 * r0[j]) + c1 * r1[j]) + c2 * r2[j]) + c3 * r3[j];
        }
        k += 4;
    }
    while k < kk {
        let c = coeffs[k];
        let row = &rows[k * n..(k + 1) * n];
        for (o, &r) in out.iter_mut().zip(row) {
            *o += c * r;
        }
        k += 1;
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! x86_64 kernels. Loads use the aligned form whenever the row stride
    //! keeps every vector access on a 32-byte (AVX2) / 16-byte (SSE2)
    //! boundary — which [`crate::avec::AVec`]-backed matrices guarantee
    //! for base pointers — and the unaligned form otherwise.

    use core::arch::x86_64::*;

    /// True when every `j`-step of a row walk stays `align`-aligned:
    /// aligned base pointers plus a stride that is a whole number of
    /// vectors.
    fn rows_aligned(rows: &[f32], out: &[f32], n: usize, lanes: usize, align: usize) -> bool {
        n.is_multiple_of(lanes)
            && (rows.as_ptr() as usize).is_multiple_of(align)
            && (out.as_ptr() as usize).is_multiple_of(align)
    }

    #[target_feature(enable = "avx2")]
    unsafe fn ld256<const AL: bool>(p: *const f32) -> __m256 {
        if AL {
            _mm256_load_ps(p)
        } else {
            _mm256_loadu_ps(p)
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn st256<const AL: bool>(p: *mut f32, v: __m256) {
        if AL {
            _mm256_store_ps(p, v)
        } else {
            _mm256_storeu_ps(p, v)
        }
    }

    /// # Safety
    /// Caller must ensure AVX2 is available. Slice bounds are the safe
    /// wrapper's contract (`rows.len() >= coeffs.len()*n`,
    /// `out.len() == n`), re-asserted by the debug checks there.
    #[target_feature(enable = "avx2")]
    pub unsafe fn accumulate_rows_avx2(coeffs: &[f32], rows: &[f32], n: usize, out: &mut [f32]) {
        if rows_aligned(rows, out, n, 8, 32) {
            accumulate_rows_avx2_impl::<true>(coeffs, rows, n, out)
        } else {
            accumulate_rows_avx2_impl::<false>(coeffs, rows, n, out)
        }
    }

    /// Register-blocked over `j`: a block of output vectors stays in ymm
    /// registers across the entire ascending-`k` sweep (no memory
    /// round-trip between `k` steps), and the blocks' independent add
    /// chains keep the FP ports busy while each chain waits on its own
    /// previous add. Per output element the op sequence is unchanged —
    /// one rounded mul and one rounded add per ascending `k` — so the
    /// result is bit-identical to the scalar reference.
    #[target_feature(enable = "avx2")]
    unsafe fn accumulate_rows_avx2_impl<const AL: bool>(
        coeffs: &[f32],
        rows: &[f32],
        n: usize,
        out: &mut [f32],
    ) {
        let rp = rows.as_ptr();
        let mut j = 0;
        while j + 32 <= n {
            let po = out.as_mut_ptr().add(j);
            let mut a0 = ld256::<AL>(po);
            let mut a1 = ld256::<AL>(po.add(8));
            let mut a2 = ld256::<AL>(po.add(16));
            let mut a3 = ld256::<AL>(po.add(24));
            for (k, &c) in coeffs.iter().enumerate() {
                let vc = _mm256_set1_ps(c);
                let pr = rp.add(k * n + j);
                a0 = _mm256_add_ps(a0, _mm256_mul_ps(vc, ld256::<AL>(pr)));
                a1 = _mm256_add_ps(a1, _mm256_mul_ps(vc, ld256::<AL>(pr.add(8))));
                a2 = _mm256_add_ps(a2, _mm256_mul_ps(vc, ld256::<AL>(pr.add(16))));
                a3 = _mm256_add_ps(a3, _mm256_mul_ps(vc, ld256::<AL>(pr.add(24))));
            }
            st256::<AL>(po, a0);
            st256::<AL>(po.add(8), a1);
            st256::<AL>(po.add(16), a2);
            st256::<AL>(po.add(24), a3);
            j += 32;
        }
        while j + 16 <= n {
            let po = out.as_mut_ptr().add(j);
            let mut a0 = ld256::<AL>(po);
            let mut a1 = ld256::<AL>(po.add(8));
            for (k, &c) in coeffs.iter().enumerate() {
                let vc = _mm256_set1_ps(c);
                let pr = rp.add(k * n + j);
                a0 = _mm256_add_ps(a0, _mm256_mul_ps(vc, ld256::<AL>(pr)));
                a1 = _mm256_add_ps(a1, _mm256_mul_ps(vc, ld256::<AL>(pr.add(8))));
            }
            st256::<AL>(po, a0);
            st256::<AL>(po.add(8), a1);
            j += 16;
        }
        while j + 8 <= n {
            let po = out.as_mut_ptr().add(j);
            let mut a0 = ld256::<AL>(po);
            for (k, &c) in coeffs.iter().enumerate() {
                a0 = _mm256_add_ps(
                    a0,
                    _mm256_mul_ps(_mm256_set1_ps(c), ld256::<AL>(rp.add(k * n + j))),
                );
            }
            st256::<AL>(po, a0);
            j += 8;
        }
        while j < n {
            let mut acc = out[j];
            let mut base = j;
            for &c in coeffs {
                acc += c * rows[base];
                base += n;
            }
            out[j] = acc;
            j += 1;
        }
    }

    /// # Safety
    /// `out.len() == rhs.len()` (safe wrapper's contract). SSE2/AVX2 per
    /// the enclosing dispatch arm.
    #[target_feature(enable = "avx2")]
    pub unsafe fn add_assign_avx2(out: &mut [f32], rhs: &[f32]) {
        let n = out.len();
        let mut j = 0;
        while j + 8 <= n {
            let v = _mm256_add_ps(
                _mm256_loadu_ps(out.as_ptr().add(j)),
                _mm256_loadu_ps(rhs.as_ptr().add(j)),
            );
            _mm256_storeu_ps(out.as_mut_ptr().add(j), v);
            j += 8;
        }
        while j < n {
            out[j] += rhs[j];
            j += 1;
        }
    }

    /// # Safety
    /// Slice bounds as in [`accumulate_rows_avx2`]; SSE2 is baseline.
    pub unsafe fn accumulate_rows_sse2(coeffs: &[f32], rows: &[f32], n: usize, out: &mut [f32]) {
        if rows_aligned(rows, out, n, 4, 16) {
            accumulate_rows_sse2_impl::<true>(coeffs, rows, n, out)
        } else {
            accumulate_rows_sse2_impl::<false>(coeffs, rows, n, out)
        }
    }

    unsafe fn ld128<const AL: bool>(p: *const f32) -> __m128 {
        if AL {
            _mm_load_ps(p)
        } else {
            _mm_loadu_ps(p)
        }
    }

    unsafe fn st128<const AL: bool>(p: *mut f32, v: __m128) {
        if AL {
            _mm_store_ps(p, v)
        } else {
            _mm_storeu_ps(p, v)
        }
    }

    /// Register-blocked over `j` exactly like the AVX2 impl (see there for
    /// the bitwise argument), with 128-bit blocks.
    unsafe fn accumulate_rows_sse2_impl<const AL: bool>(
        coeffs: &[f32],
        rows: &[f32],
        n: usize,
        out: &mut [f32],
    ) {
        let rp = rows.as_ptr();
        let mut j = 0;
        while j + 16 <= n {
            let po = out.as_mut_ptr().add(j);
            let mut a0 = ld128::<AL>(po);
            let mut a1 = ld128::<AL>(po.add(4));
            let mut a2 = ld128::<AL>(po.add(8));
            let mut a3 = ld128::<AL>(po.add(12));
            for (k, &c) in coeffs.iter().enumerate() {
                let vc = _mm_set1_ps(c);
                let pr = rp.add(k * n + j);
                a0 = _mm_add_ps(a0, _mm_mul_ps(vc, ld128::<AL>(pr)));
                a1 = _mm_add_ps(a1, _mm_mul_ps(vc, ld128::<AL>(pr.add(4))));
                a2 = _mm_add_ps(a2, _mm_mul_ps(vc, ld128::<AL>(pr.add(8))));
                a3 = _mm_add_ps(a3, _mm_mul_ps(vc, ld128::<AL>(pr.add(12))));
            }
            st128::<AL>(po, a0);
            st128::<AL>(po.add(4), a1);
            st128::<AL>(po.add(8), a2);
            st128::<AL>(po.add(12), a3);
            j += 16;
        }
        while j + 8 <= n {
            let po = out.as_mut_ptr().add(j);
            let mut a0 = ld128::<AL>(po);
            let mut a1 = ld128::<AL>(po.add(4));
            for (k, &c) in coeffs.iter().enumerate() {
                let vc = _mm_set1_ps(c);
                let pr = rp.add(k * n + j);
                a0 = _mm_add_ps(a0, _mm_mul_ps(vc, ld128::<AL>(pr)));
                a1 = _mm_add_ps(a1, _mm_mul_ps(vc, ld128::<AL>(pr.add(4))));
            }
            st128::<AL>(po, a0);
            st128::<AL>(po.add(4), a1);
            j += 8;
        }
        while j + 4 <= n {
            let po = out.as_mut_ptr().add(j);
            let mut a0 = ld128::<AL>(po);
            for (k, &c) in coeffs.iter().enumerate() {
                a0 = _mm_add_ps(a0, _mm_mul_ps(_mm_set1_ps(c), ld128::<AL>(rp.add(k * n + j))));
            }
            st128::<AL>(po, a0);
            j += 4;
        }
        while j < n {
            let mut acc = out[j];
            let mut base = j;
            for &c in coeffs {
                acc += c * rows[base];
                base += n;
            }
            out[j] = acc;
            j += 1;
        }
    }

    /// # Safety
    /// `out.len() == rhs.len()`; SSE2 is baseline.
    pub unsafe fn add_assign_sse2(out: &mut [f32], rhs: &[f32]) {
        let n = out.len();
        let mut j = 0;
        while j + 4 <= n {
            let v = _mm_add_ps(
                _mm_loadu_ps(out.as_ptr().add(j)),
                _mm_loadu_ps(rhs.as_ptr().add(j)),
            );
            _mm_storeu_ps(out.as_mut_ptr().add(j), v);
            j += 4;
        }
        while j < n {
            out[j] += rhs[j];
            j += 1;
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod arm {
    //! aarch64 NEON kernels (4 f32 lanes; NEON is baseline, loads handle
    //! any alignment). Same op sequence as the scalar blocked kernel.

    use core::arch::aarch64::*;

    /// # Safety
    /// Slice bounds are the safe wrapper's contract; NEON is baseline.
    pub unsafe fn accumulate_rows_neon(coeffs: &[f32], rows: &[f32], n: usize, out: &mut [f32]) {
        let kk = coeffs.len();
        let mut k = 0;
        while k + 4 <= kk {
            let (c0, c1, c2, c3) = (coeffs[k], coeffs[k + 1], coeffs[k + 2], coeffs[k + 3]);
            let (v0, v1, v2, v3) = (
                vdupq_n_f32(c0),
                vdupq_n_f32(c1),
                vdupq_n_f32(c2),
                vdupq_n_f32(c3),
            );
            let r0 = &rows[k * n..(k + 1) * n];
            let r1 = &rows[(k + 1) * n..(k + 2) * n];
            let r2 = &rows[(k + 2) * n..(k + 3) * n];
            let r3 = &rows[(k + 3) * n..(k + 4) * n];
            let mut j = 0;
            while j + 4 <= n {
                // Separate mul + add (not vfmaq): one rounding per op,
                // matching the scalar reference bit for bit.
                let mut acc = vld1q_f32(out.as_ptr().add(j));
                acc = vaddq_f32(acc, vmulq_f32(v0, vld1q_f32(r0.as_ptr().add(j))));
                acc = vaddq_f32(acc, vmulq_f32(v1, vld1q_f32(r1.as_ptr().add(j))));
                acc = vaddq_f32(acc, vmulq_f32(v2, vld1q_f32(r2.as_ptr().add(j))));
                acc = vaddq_f32(acc, vmulq_f32(v3, vld1q_f32(r3.as_ptr().add(j))));
                vst1q_f32(out.as_mut_ptr().add(j), acc);
                j += 4;
            }
            while j < n {
                out[j] = (((out[j] + c0 * r0[j]) + c1 * r1[j]) + c2 * r2[j]) + c3 * r3[j];
                j += 1;
            }
            k += 4;
        }
        while k < kk {
            let c = coeffs[k];
            let vc = vdupq_n_f32(c);
            let row = &rows[k * n..(k + 1) * n];
            let mut j = 0;
            while j + 4 <= n {
                let acc = vaddq_f32(
                    vld1q_f32(out.as_ptr().add(j)),
                    vmulq_f32(vc, vld1q_f32(row.as_ptr().add(j))),
                );
                vst1q_f32(out.as_mut_ptr().add(j), acc);
                j += 4;
            }
            while j < n {
                out[j] += c * row[j];
                j += 1;
            }
            k += 1;
        }
    }

    /// # Safety
    /// `out.len() == rhs.len()`; NEON is baseline.
    pub unsafe fn add_assign_neon(out: &mut [f32], rhs: &[f32]) {
        let n = out.len();
        let mut j = 0;
        while j + 4 <= n {
            let v = vaddq_f32(
                vld1q_f32(out.as_ptr().add(j)),
                vld1q_f32(rhs.as_ptr().add(j)),
            );
            vst1q_f32(out.as_mut_ptr().add(j), v);
            j += 4;
        }
        while j < n {
            out[j] += rhs[j];
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_parsing_round_trip() {
        for k in [Kernel::Scalar, Kernel::Sse2, Kernel::Avx2, Kernel::Neon] {
            assert_eq!(Kernel::parse(k.name()), Some(k));
            assert_eq!(Kernel::parse(&k.name().to_uppercase()), Some(k));
        }
        assert_eq!(Kernel::parse("avx512"), None);
    }

    #[test]
    fn scalar_is_always_supported_and_listed_first() {
        let ks = supported_kernels();
        assert_eq!(ks.first(), Some(&Kernel::Scalar));
        assert!(ks.iter().all(|k| k.is_supported()));
        assert!(ks.contains(&active()), "active kernel must be supported");
    }

    #[test]
    fn force_scope_overrides_and_restores() {
        let before = active();
        {
            let guard = force_scope(Kernel::Scalar);
            assert!(guard.is_some(), "scalar can always be forced");
            assert_eq!(active(), Kernel::Scalar);
        }
        assert_eq!(active(), before, "dropping the guard restores dispatch");
    }

    #[test]
    fn unsupported_kernel_cannot_be_forced() {
        // At most one of NEON / SSE2 exists on any given target.
        #[cfg(target_arch = "x86_64")]
        assert!(force_scope(Kernel::Neon).is_none());
        #[cfg(not(target_arch = "x86_64"))]
        assert!(force_scope(Kernel::Sse2).is_none());
    }

    #[test]
    fn accumulate_matches_scalar_on_every_kernel() {
        // Shapes chosen to hit the fused body, the k tail, the vector j
        // body and the j tail (n = 11 is neither a multiple of 4 nor 8).
        let kk = 7;
        let n = 11;
        let coeffs: Vec<f32> = (0..kk).map(|i| (i as f32 * 0.7).sin()).collect();
        let rows: Vec<f32> = (0..kk * n).map(|i| (i as f32 * 0.13).cos()).collect();
        let mut reference = vec![0.5f32; n];
        accumulate_rows_scalar(&coeffs, &rows, n, &mut reference);
        for k in supported_kernels() {
            let mut out = vec![0.5f32; n];
            accumulate_rows_with(k, &coeffs, &rows, n, &mut out);
            for (a, b) in reference.iter().zip(&out) {
                assert_eq!(a.to_bits(), b.to_bits(), "kernel {k:?} diverged");
            }
        }
    }
}
