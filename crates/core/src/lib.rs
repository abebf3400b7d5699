//! LHMM core: the learning-enhanced HMM map matcher (paper §IV).
//!
//! Components, in dependency order:
//!
//! * [`types`] — candidates, match results, the [`types::MapMatcher`] trait
//!   and the [`types::HmmProbabilities`] model interface,
//! * [`error`] — the [`error::MatchError`] taxonomy and
//!   [`error::Degradation`] accounting behind the `try_*` inference APIs,
//! * [`classic`] — the heuristic Gaussian/exponential probabilities of
//!   Eq. 2–3 (used by baselines and by the LHMM-O/LHMM-T ablations),
//! * [`candidates`] — candidate preparation (distance top-k and learned
//!   top-k),
//! * [`viterbi`] — the HMM path-finding engine: Algorithm 1 (Viterbi DP)
//!   plus Algorithm 2 (shortcut construction) behind a single entry point,
//! * [`observation`] — the learned observation probability (Eq. 6–8),
//! * [`transition`] — the learned transition probability (Eq. 9–12),
//! * [`lhmm`] — the [`lhmm::Lhmm`] model: training pipeline and matcher,
//!   with ablation switches ([`lhmm::LhmmConfig`]),
//! * [`batch`] — the parallel [`batch::BatchMatcher`]: work-stealing
//!   workers, each with a private shortest-path cache, bit-identical to
//!   serial matching,
//! * [`registry`] — the versioned [`registry::ModelRegistry`]: atomic hot
//!   swap with version pinning, shadow candidate routing, and online
//!   refresh statistics (accumulate → refresh → swap),
//! * [`sync`] — rank-ordered [`sync::OrderedMutex`]/[`sync::OrderedRwLock`]
//!   wrappers behind the workspace lock hierarchy, with a debug-mode
//!   deadlock witness (DESIGN §15) used by the serving stack.
//!
//! ```no_run
//! use lhmm_cellsim::dataset::{Dataset, DatasetConfig};
//! use lhmm_core::lhmm::{Lhmm, LhmmConfig};
//! use lhmm_core::types::{MapMatcher, MatchContext};
//!
//! let ds = Dataset::generate(&DatasetConfig::tiny_test(1));
//! let mut matcher = Lhmm::train(&ds, LhmmConfig::default());
//! let ctx = MatchContext { net: &ds.network, index: &ds.index, towers: &ds.towers };
//! let result = matcher.match_trajectory(&ctx, &ds.test[0].cellular);
//! println!("matched onto {} segments", result.path.len());
//! ```

#![forbid(unsafe_code)]
// Inference code must degrade through typed `MatchError`s / `Degradation`
// counters, never panic: `unwrap`/`expect` are denied crate-wide outside
// test builds (ci.sh additionally lints the lib target explicitly).
// Training/test code that genuinely wants to assert uses `assert!`/`panic!`
// with a message, which remain available.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod batch;
pub mod candidates;
pub mod classic;
pub mod error;
pub mod lhmm;
pub mod observation;
pub mod registry;
pub mod streaming;
pub mod sync;
pub mod timing;
pub mod transition;
pub mod types;
pub mod viterbi;


pub use batch::{BatchConfig, BatchMatcher, BatchStats, WorkerStats};
pub use error::{Degradation, MatchError};
pub use lhmm::{Lhmm, LhmmConfig, LhmmModel};
pub use registry::{
    ModelManifest, ModelRegistry, ModelVersion, RefreshStats, RegistryError, VersionedModel,
};
pub use streaming::StreamingEngine;
pub use sync::{OrderedMutex, OrderedRwLock};
pub use types::{Candidate, MapMatcher, MatchContext, MatchResult, MatchStats};
