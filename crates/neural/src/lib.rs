//! Minimal neural-network substrate for LHMM.
//!
//! The paper builds its learners on a Python message-passing framework; Rust
//! graph-learning crates are immature, so this crate implements the required
//! subset from scratch:
//!
//! * [`matrix::Matrix`] — row-major `f32` dense matrices,
//! * [`tape::Tape`] — reverse-mode automatic differentiation over matrix ops,
//!   on a reusable, arena-backed tape,
//! * [`layers`] — `Linear`, `Mlp`, `AdditiveAttention` (the Eq. 6/9 form),
//!   `GruCell` (for the seq2seq baselines),
//! * [`loss`] — label-smoothed cross-entropy (paper §IV-D), BCE, MSE,
//! * [`optim::Adam`] — Adam with decoupled weight decay (paper §V-A2),
//! * [`init`] — seeded Xavier/He initialization,
//! * [`kernel`] — runtime-dispatched SIMD inference kernels (AVX2/SSE2/
//!   NEON/scalar), bitwise-pinned to the scalar reference, over
//!   [`avec::AVec`] 32-byte-aligned storage, plus the exact two-thread
//!   training products the tape runs.
//!
//! Everything is deterministic under a fixed seed; tests gradient-check the
//! operators against central differences.
//!
//! ```
//! use lhmm_neural::{Matrix, ParamStore, Tape};
//!
//! // f(w) = sum(relu(x·w)); compute df/dw with the tape.
//! let mut store = ParamStore::new();
//! let w = store.alloc(Matrix::from_vec(2, 1, vec![0.5, -0.25]));
//! let mut tape = Tape::new();
//! let x = tape.constant(Matrix::from_vec(1, 2, vec![2.0, 4.0]));
//! let wv = tape.param(&store, w);
//! let h = tape.matmul(x, wv);
//! let y = tape.relu(h);
//! tape.backward(y, &Matrix::full(1, 1, 1.0));
//! // y = relu(2·0.5 + 4·(-0.25)) = relu(0) = 0, but the gradient flows
//! // through the pre-activation only where it is positive.
//! let dw = tape.param_grads();
//! assert_eq!(dw.len(), 1);
//! // A training loop reuses the tape: `reset` returns every buffer to its
//! // arena for the next step.
//! tape.reset();
//! assert!(tape.is_empty());
//! ```

// `unsafe` is denied crate-wide; the only exceptions are the two audited
// modules below — `avec` (aligned storage, two slice casts) and `kernel`
// (SIMD intrinsics) — each of which carries SAFETY comments per use and
// is additionally fenced by `lhmm-lint`'s dispatch allowlist.
#![deny(unsafe_code)]
// Learned scorers run inside the matcher's inference path:
// a panic in a forward pass voids the panic-free degradation contract,
// so `unwrap`/`expect` are denied outside test builds (ci.sh lints the
// lib target explicitly).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

#[allow(unsafe_code)]
pub mod avec;
pub mod init;
#[allow(unsafe_code)]
pub mod kernel;
pub mod layers;
pub mod loss;
pub mod matrix;
pub mod optim;
pub mod persist;
pub mod scratch;
pub mod sparse;
pub mod tape;

pub use kernel::Kernel;
pub use matrix::Matrix;
pub use scratch::Scratch;
pub use sparse::SparseMatrix;
pub use tape::{ParamId, ParamStore, Tape, Var};
