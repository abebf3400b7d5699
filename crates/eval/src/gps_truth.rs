//! Ground-truth derivation from GPS samples (paper §V-A1).
//!
//! The paper labels each cellular trajectory's ground-truth path by running
//! a classical HMM matcher \[8\] over the *GPS* sample sequence of the same
//! trip. The simulator knows the exact traveled path, so this module exists
//! for two purposes:
//!
//! 1. fidelity to the paper's pipeline — experiments can be run against
//!    GPS-derived labels instead of oracle labels, and
//! 2. validating the labeling assumption — tests confirm the GPS-derived
//!    path agrees with the exact path almost everywhere, which is what
//!    makes it usable as ground truth.

use lhmm_cellsim::dataset::Dataset;
use lhmm_cellsim::traj::GpsPoint;
use lhmm_core::candidates::distance_layers;
use lhmm_core::classic::{ClassicModel, ClassicObservation, ClassicTransition};
use lhmm_core::viterbi::{EngineConfig, HmmEngine};
use lhmm_geo::Point;
use lhmm_network::path::Path;

/// A GPS-tuned classic HMM matcher used only for label derivation.
pub struct GpsLabeler {
    engine: HmmEngine,
    /// Candidates per GPS point.
    pub k: usize,
    /// Candidate radius, meters (GPS noise is tens of meters).
    pub radius: f64,
}

impl GpsLabeler {
    /// Creates a labeler for `ds`'s network.
    pub fn new(ds: &Dataset) -> Self {
        GpsLabeler {
            engine: HmmEngine::new(
                &ds.network,
                EngineConfig {
                    // No shortcuts: GPS candidate sets rarely miss the path,
                    // and labels should stay conservative.
                    shortcuts: 0,
                    max_route_factor: 3.0,
                    route_slack: 500.0,
                    ..EngineConfig::default()
                },
            ),
            k: 6,
            radius: 200.0,
        }
    }

    /// Derives the traveled path from a GPS sample sequence.
    pub fn derive(&mut self, ds: &Dataset, gps: &[GpsPoint]) -> Path {
        if gps.is_empty() {
            return Path::empty();
        }
        let positions: Vec<Point> = gps.iter().map(|g| g.pos).collect();
        let mut model = ClassicModel::new(
            ClassicObservation::gps(),
            ClassicTransition::gps(),
            positions.clone(),
        );
        let (layers, kept) = distance_layers(
            &ds.network,
            &ds.index,
            &positions,
            self.k,
            self.radius,
            &mut model,
        );
        if layers.is_empty() {
            return Path::empty();
        }
        // Re-index the model positions to kept points.
        let kept_positions: Vec<Point> = positions
            .iter()
            .zip(&kept)
            .filter(|&(_, &k)| k)
            .map(|(&p, _)| p)
            .collect();
        let pts: Vec<(Point, f64)> = gps
            .iter()
            .zip(&kept)
            .filter(|&(_, &k)| k)
            .map(|(g, _)| (g.pos, g.t))
            .collect();
        model.positions = kept_positions;
        self.engine
            .try_find_path(&ds.network, &pts, layers, &mut model)
            .map_or_else(|_| Path::empty(), |out| out.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::evaluate_path;
    use lhmm_cellsim::dataset::DatasetConfig;

    #[test]
    fn gps_derived_labels_agree_with_exact_truth() {
        let ds = Dataset::generate(&DatasetConfig::tiny_test(301));
        let mut labeler = GpsLabeler::new(&ds);
        let mut recalls = Vec::new();
        let mut cmfs = Vec::new();
        for rec in ds.test.iter().take(10) {
            let derived = labeler.derive(&ds, &rec.gps);
            assert!(!derived.is_empty());
            let q = evaluate_path(&ds.network, &derived, &rec.truth);
            recalls.push(q.recall);
            cmfs.push(q.cmf50);
        }
        let mean_recall: f64 = recalls.iter().sum::<f64>() / recalls.len() as f64;
        let mean_cmf: f64 = cmfs.iter().sum::<f64>() / cmfs.len() as f64;
        // GPS-derived labels must be near-exact — this is what justifies the
        // paper's use of them as ground truth.
        assert!(mean_recall > 0.8, "mean recall {mean_recall}");
        assert!(mean_cmf < 0.15, "mean CMF50 {mean_cmf}");
    }

    #[test]
    fn empty_gps_yields_empty_path() {
        let ds = Dataset::generate(&DatasetConfig::tiny_test(302));
        let mut labeler = GpsLabeler::new(&ds);
        assert!(labeler.derive(&ds, &[]).is_empty());
    }
}
