//! The classic heuristic probabilities of HMM map matching (paper Eq. 2–3).
//!
//! These drive the GPS-era baselines (STM, IVMM, …) and stand in for the
//! learned components in the LHMM-O / LHMM-T ablations.

use crate::types::{Candidate, HmmProbabilities, RouteInfo};
use lhmm_geo::Point;
use lhmm_network::graph::SegmentId;

/// Gaussian observation probability over point-to-road distance (Eq. 2).
#[derive(Clone, Copy, Debug)]
pub struct ClassicObservation {
    /// Distance mean μ₁ (0 for GPS; positive for cellular data where the
    /// true road is rarely at the tower).
    pub mu: f64,
    /// Distance standard deviation σ₁ in meters (tens of meters for GPS,
    /// hundreds for cellular).
    pub sigma: f64,
}

impl ClassicObservation {
    /// A GPS-tuned instance (σ = 30 m).
    pub fn gps() -> Self {
        ClassicObservation {
            mu: 0.0,
            sigma: 30.0,
        }
    }

    /// A cellular-tuned instance (σ = 600 m), following the CTMM baselines.
    pub fn cellular() -> Self {
        ClassicObservation {
            mu: 0.0,
            sigma: 600.0,
        }
    }

    /// `P_O` for a projection distance, normalized to a max of 1 at μ.
    #[inline]
    pub fn prob(&self, dist: f64) -> f64 {
        let z = (dist - self.mu) / self.sigma;
        (-0.5 * z * z).exp()
    }
}

/// Exponential transition probability over the difference between the
/// great-circle hop and the route length (Eq. 3).
#[derive(Clone, Copy, Debug)]
pub struct ClassicTransition {
    /// Scale σ₂ in meters.
    pub beta: f64,
}

impl ClassicTransition {
    /// A GPS-tuned instance.
    pub fn gps() -> Self {
        ClassicTransition { beta: 200.0 }
    }

    /// A cellular-tuned instance (larger slack: tower hops are long).
    pub fn cellular() -> Self {
        ClassicTransition { beta: 800.0 }
    }

    /// `P_T` for a straight-line hop of `d_straight` matched to a route of
    /// `route_len` meters.
    #[inline]
    pub fn prob(&self, d_straight: f64, route_len: f64) -> f64 {
        (-((d_straight - route_len).abs()) / self.beta).exp()
    }
}

/// A complete classic HMM model: Eq. 2 + Eq. 3 with the per-point positions
/// needed to evaluate distances.
pub struct ClassicModel {
    /// Observation component.
    pub obs: ClassicObservation,
    /// Transition component.
    pub trans: ClassicTransition,
    /// Effective positions per trajectory point.
    pub positions: Vec<Point>,
    /// Distance from each point to each candidate is recomputed from these
    /// positions via the network; the engine passes the distance directly.
    pub net_distances: (),
}

impl ClassicModel {
    /// Builds the model for one trajectory.
    pub fn new(
        obs: ClassicObservation,
        trans: ClassicTransition,
        positions: Vec<Point>,
    ) -> Self {
        ClassicModel {
            obs,
            trans,
            positions,
            net_distances: (),
        }
    }
}

impl HmmProbabilities for ClassicModel {
    fn observation(&mut self, _i: usize, _seg: SegmentId, dist: f64) -> f64 {
        self.obs.prob(dist)
    }

    fn transition(
        &mut self,
        i: usize,
        _prev: &Candidate,
        _cur: &Candidate,
        route: &RouteInfo,
    ) -> f64 {
        if !route.found {
            return 0.0;
        }
        let d = self.positions[i - 1].distance(self.positions[i]);
        self.trans.prob(d, route.length)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observation_decreases_with_distance() {
        let o = ClassicObservation::cellular();
        assert!(o.prob(0.0) > o.prob(500.0));
        assert!(o.prob(500.0) > o.prob(2_000.0));
        assert!((o.prob(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn transition_peaks_at_equal_lengths() {
        let t = ClassicTransition::cellular();
        assert!((t.prob(1_000.0, 1_000.0) - 1.0).abs() < 1e-12);
        assert!(t.prob(1_000.0, 1_500.0) < 1.0);
        assert!(t.prob(1_000.0, 1_500.0) > t.prob(1_000.0, 3_000.0));
        // Symmetric in the deviation.
        assert_eq!(t.prob(1_000.0, 1_400.0), t.prob(1_400.0, 1_000.0));
    }

    #[test]
    fn model_returns_zero_for_missing_routes() {
        let mut m = ClassicModel::new(
            ClassicObservation::cellular(),
            ClassicTransition::cellular(),
            vec![Point::new(0.0, 0.0), Point::new(1_000.0, 0.0)],
        );
        let c = Candidate {
            seg: SegmentId(0),
            t: 0.5,
            obs: 1.0,
        };
        assert_eq!(m.transition(1, &c, &c, &RouteInfo::missing()), 0.0);
        let ok = RouteInfo {
            found: true,
            length: 1_000.0,
            segments: &[],
        };
        assert!(m.transition(1, &c, &c, &ok) > 0.99);
    }

    #[test]
    fn probabilities_stay_in_unit_interval() {
        let o = ClassicObservation::gps();
        let t = ClassicTransition::gps();
        for d in [0.0, 10.0, 100.0, 1e4, 1e6] {
            assert!((0.0..=1.0).contains(&o.prob(d)));
            assert!((0.0..=1.0).contains(&t.prob(d, 500.0)));
        }
    }
}
