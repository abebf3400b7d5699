//! Typed inference errors and graceful-degradation accounting.
//!
//! Production inputs are hostile: empty trajectories, points teleported off
//! the network, corrupted clocks (see `lhmm_cellsim::faults`). The matching
//! pipeline answers every such input in exactly one of two ways:
//!
//! * **A typed [`MatchError`]** when no result can exist at all (nothing to
//!   match, or no candidate anywhere). The `try_*` entry points return
//!   these, and each caller picks its own fallback (the batch worker loop
//!   counts a failure as `failed_matches = 1`; `Lhmm::match_trajectory`
//!   answers an empty result).
//! * **A degraded `Ok`** when a best-effort result exists: points without
//!   candidates are dropped, unroutable gaps are glued, non-finite
//!   probability outputs are clamped to zero, and unqualified candidate
//!   layers fall back to shortcut construction (Algorithm 2). Every such
//!   event is counted in [`Degradation`], threaded through
//!   [`MatchStats`](crate::types::MatchStats) so batch workers and
//!   `lhmm-eval` can report degradation rates.
//!
//! No matching entry point panics on any input, mismatched layer counts
//! included — `tests/fault_injection.rs` sweeps the adversarial corpus
//! across every mode to pin this.

use std::fmt;

/// Why a match could not be produced at all.
///
/// Everything softer than these conditions degrades instead of failing —
/// see [`Degradation`] for the accounting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MatchError {
    /// The input trajectory had no observations.
    EmptyTrajectory,
    /// No trajectory point had any candidate segment within the search
    /// radius (input far off the road network, or a network with no
    /// coverage near the trajectory).
    NoCandidates,
    /// Candidate layers and trajectory points disagree in count
    /// (caller-constructed input for the engine entry point).
    LayerMismatch {
        /// Number of trajectory points supplied.
        points: usize,
        /// Number of candidate layers supplied.
        layers: usize,
    },
    /// A candidate layer was empty (engine and streaming entry points
    /// require every supplied layer to carry at least one candidate;
    /// candidate preparation drops such points instead).
    EmptyLayer {
        /// Index of the offending layer.
        layer: usize,
    },
}

impl fmt::Display for MatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatchError::EmptyTrajectory => write!(f, "empty trajectory"),
            MatchError::NoCandidates => write!(
                f,
                "no candidates: every trajectory point is outside the \
                 candidate radius of the road network"
            ),
            MatchError::LayerMismatch { points, layers } => write!(
                f,
                "one layer per point: got {points} points but {layers} candidate layers"
            ),
            MatchError::EmptyLayer { layer } => {
                write!(f, "empty candidate layer at index {layer}")
            }
        }
    }
}

impl std::error::Error for MatchError {}

/// Counters for every graceful-degradation event during a match (or a
/// rollup over many matches — the counters add).
///
/// A zero value means the match was clean; [`Degradation::any`] is the
/// "this result is best-effort" flag callers surface to users.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Degradation {
    /// Trajectory points dropped during candidate preparation because no
    /// segment lay within the candidate radius.
    pub dropped_points: u64,
    /// Path joins glued across unroutable gaps: consecutive matched
    /// candidates with no route within the search bound are concatenated
    /// directly, leaving a discontiguous path rather than no path.
    pub disconnected_joins: u64,
    /// Non-finite probability outputs (NaN/inf from corrupted inputs)
    /// clamped to zero before entering the DP.
    pub clamped_scores: u64,
    /// Matches that returned a typed [`MatchError`], counted by the batch
    /// worker loop (`BatchMatcher`).
    pub failed_matches: u64,
}

impl Degradation {
    /// True when any degradation event occurred.
    pub fn any(&self) -> bool {
        self.dropped_points > 0
            || self.disconnected_joins > 0
            || self.clamped_scores > 0
            || self.failed_matches > 0
    }

    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &Degradation) {
        self.dropped_points += other.dropped_points;
        self.disconnected_joins += other.disconnected_joins;
        self.clamped_scores += other.clamped_scores;
        self.failed_matches += other.failed_matches;
    }
}

/// Clamps a probability to a finite value, counting the clamp. All engine
/// score paths route model outputs through this before the DP: one NaN must
/// never poison a whole trajectory.
#[inline]
pub(crate) fn sanitize_prob(p: f64, deg: &mut Degradation) -> f64 {
    if p.is_finite() {
        p
    } else {
        deg.clamped_scores += 1;
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_stable() {
        // Tests (and downstream log scrapers) match on the prefixes.
        assert_eq!(MatchError::EmptyTrajectory.to_string(), "empty trajectory");
        assert!(MatchError::LayerMismatch { points: 3, layers: 2 }
            .to_string()
            .contains("one layer per point"));
        assert!(MatchError::EmptyLayer { layer: 1 }
            .to_string()
            .contains("empty candidate layer"));
        assert!(MatchError::NoCandidates.to_string().contains("no candidates"));
    }

    #[test]
    fn degradation_merges_and_flags() {
        let mut a = Degradation::default();
        assert!(!a.any());
        let b = Degradation {
            dropped_points: 2,
            disconnected_joins: 1,
            clamped_scores: 0,
            failed_matches: 1,
        };
        a.merge(&b);
        a.merge(&b);
        assert!(a.any());
        assert_eq!(a.dropped_points, 4);
        assert_eq!(a.disconnected_joins, 2);
        assert_eq!(a.failed_matches, 2);
    }

    #[test]
    fn sanitize_clamps_only_non_finite() {
        let mut d = Degradation::default();
        assert_eq!(sanitize_prob(0.5, &mut d), 0.5);
        assert_eq!(d.clamped_scores, 0);
        assert_eq!(sanitize_prob(f64::NAN, &mut d), 0.0);
        assert_eq!(sanitize_prob(f64::INFINITY, &mut d), 0.0);
        assert_eq!(d.clamped_scores, 2);
    }
}
