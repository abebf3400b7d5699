//! Heuristic HMM baselines sharing the engine with method-specific
//! probability presets.
//!
//! The GPS-era and CTMM-era HMM baselines all share the Eq. 2–3 skeleton and
//! differ in which extra heuristics modulate the probabilities — exactly how
//! the original papers position themselves. [`ModelPreset`] captures those
//! knobs; the factory functions ([`stm`], [`ifm`], …) instantiate each
//! published combination.

use lhmm_cellsim::traj::CellularTrajectory;
use lhmm_core::candidates::nearest_segments;
use lhmm_core::classic::{ClassicObservation, ClassicTransition};
use lhmm_core::types::{
    Candidate, HmmProbabilities, MapMatcher, MatchContext, MatchResult, RouteInfo,
};
use lhmm_core::viterbi::{EngineConfig, HmmEngine};
use lhmm_geo::Point;
use lhmm_network::graph::{RoadNetwork, SegmentId};

/// Heuristic knobs distinguishing the baselines.
#[derive(Clone, Debug)]
pub struct ModelPreset {
    /// Gaussian observation (Eq. 2).
    pub obs: ClassicObservation,
    /// Exponential transition (Eq. 3).
    pub trans: ClassicTransition,
    /// Weight of the temporal/speed-consistency factor (STM, IFM). 0 = off.
    pub speed_weight: f64,
    /// Maximum plausible speed, m/s.
    pub max_speed: f64,
    /// Turn penalty per radian of route turning (SnapNet). 0 = off.
    pub turn_penalty: f64,
    /// Reachability pruning: routes longer than
    /// `factor · hop + slack` are rejected (THMM). `INFINITY` = off.
    pub reachability_factor: f64,
    /// Additive reachability slack, meters.
    pub reachability_slack: f64,
    /// Weight of the common-subsequence corridor factor (MCM). 0 = off.
    pub corridor_weight: f64,
    /// Corridor half-width for the MCM factor, meters.
    pub corridor_width: f64,
}

impl Default for ModelPreset {
    fn default() -> Self {
        ModelPreset {
            obs: ClassicObservation::cellular(),
            trans: ClassicTransition::cellular(),
            speed_weight: 0.0,
            max_speed: 34.0,
            turn_penalty: 0.0,
            reachability_factor: f64::INFINITY,
            reachability_slack: 0.0,
            corridor_weight: 0.0,
            corridor_width: 400.0,
        }
    }
}

/// Per-trajectory heuristic model.
struct HeuristicModel<'a> {
    net: &'a RoadNetwork,
    preset: ModelPreset,
    positions: Vec<Point>,
    times: Vec<f64>,
}

impl HmmProbabilities for HeuristicModel<'_> {
    fn observation(&mut self, _i: usize, _seg: SegmentId, dist: f64) -> f64 {
        self.preset.obs.prob(dist)
    }

    fn transition(
        &mut self,
        i: usize,
        _prev: &Candidate,
        cur: &Candidate,
        route: &RouteInfo,
    ) -> f64 {
        if !route.found {
            return 0.0;
        }
        let d = self.positions[i - 1].distance(self.positions[i]);
        // Reachability pruning (THMM).
        if route.length
            > self.preset.reachability_factor * d + self.preset.reachability_slack
        {
            return 0.0;
        }
        let mut p = self.preset.trans.prob(d, route.length);

        // Temporal/speed analysis (STM, IFM): implied speed along the route
        // vs the physically plausible and free-flow speeds.
        if self.preset.speed_weight > 0.0 {
            let dt = (self.times[i] - self.times[i - 1]).max(1.0);
            let v = route.length / dt;
            let over = (v - self.preset.max_speed).max(0.0) / self.preset.max_speed;
            let free_flow = self.net.segment(cur.seg).class.free_flow_speed();
            let mismatch = (v - free_flow).abs() / free_flow;
            let factor = (-over).exp() * (-self.preset.speed_weight * mismatch).exp();
            p *= factor.clamp(0.0, 1.0);
        }

        // Fewer-turns heuristic (SnapNet).
        if self.preset.turn_penalty > 0.0 {
            let turn = lhmm_network::path::total_turn_of(self.net, route.segments);
            p *= (-self.preset.turn_penalty * turn).exp();
        }

        // Common-subsequence corridor factor (MCM): the fraction of the
        // route lying inside a corridor around the straight hop.
        if self.preset.corridor_weight > 0.0 && !route.segments.is_empty() {
            let a = self.positions[i - 1];
            let b = self.positions[i];
            let inside = route
                .segments
                .iter()
                .filter(|&&s| {
                    let mid = self.net.segment_midpoint(s);
                    lhmm_geo::segment::distance_to_segment(mid, a, b)
                        <= self.preset.corridor_width
                })
                .count() as f64
                / route.segments.len() as f64;
            p *= (1.0 - self.preset.corridor_weight) + self.preset.corridor_weight * inside;
        }

        p
    }
}

/// A heuristic HMM baseline: preset + candidate preparation + engine.
pub struct HeuristicHmm {
    name: String,
    preset: ModelPreset,
    /// Candidates per point (paper: 45 for the baselines).
    pub k: usize,
    /// Candidate search radius, meters.
    pub radius: f64,
    /// Extra mean-smoothing window applied to positions (CLSTERS
    /// calibration); 0 = off.
    pub extra_smooth: usize,
    engine: HmmEngine,
}

impl HeuristicHmm {
    /// Builds a baseline from its preset.
    pub fn new(
        net: &RoadNetwork,
        name: impl Into<String>,
        preset: ModelPreset,
        shortcuts: usize,
    ) -> Self {
        HeuristicHmm {
            name: name.into(),
            preset,
            k: 45,
            radius: 3_000.0,
            extra_smooth: 0,
            engine: HmmEngine::new(
                net,
                EngineConfig {
                    shortcuts,
                    ..Default::default()
                },
            ),
        }
    }

    /// Number of shortcut edges per candidate (0 for plain baselines).
    pub fn shortcuts(&self) -> usize {
        self.engine.cfg.shortcuts
    }
}

impl MapMatcher for HeuristicHmm {
    fn name(&self) -> &str {
        &self.name
    }

    fn match_trajectory(
        &mut self,
        ctx: &MatchContext<'_>,
        traj: &CellularTrajectory,
    ) -> MatchResult {
        if traj.is_empty() {
            return MatchResult::empty();
        }
        let mut positions: Vec<Point> = traj.effective_positions();
        if self.extra_smooth > 0 {
            positions = smooth_positions(&positions, self.extra_smooth);
        }
        let times: Vec<f64> = traj.points.iter().map(|p| p.t).collect();

        let mut model = HeuristicModel {
            net: ctx.net,
            preset: self.preset.clone(),
            positions: positions.clone(),
            times: times.clone(),
        };

        // Candidate preparation (distance top-k).
        let mut kept = Vec::new();
        let mut layers = Vec::new();
        for (i, &pos) in positions.iter().enumerate() {
            let pairs = nearest_segments(ctx.net, ctx.index, pos, self.k, self.radius);
            if pairs.is_empty() {
                continue;
            }
            let layer: Vec<Candidate> = pairs
                .iter()
                .map(|&(seg, proj)| Candidate {
                    seg,
                    t: proj.t,
                    obs: model.observation(i, seg, proj.distance),
                })
                .collect();
            kept.push(i);
            layers.push(layer);
        }
        if kept.is_empty() {
            return MatchResult::empty();
        }

        let mut candidate_sets: Vec<Vec<SegmentId>> = vec![Vec::new(); traj.len()];
        for (ki, layer) in kept.iter().zip(&layers) {
            candidate_sets[*ki] = layer.iter().map(|c| c.seg).collect();
        }

        // Re-index the model to the kept points.
        model.positions = kept.iter().map(|&i| positions[i]).collect();
        model.times = kept.iter().map(|&i| times[i]).collect();
        let pts: Vec<(Point, f64)> = model
            .positions
            .iter()
            .zip(&model.times)
            .map(|(&p, &t)| (p, t))
            .collect();

        let Ok(out) = self.engine.try_find_path(ctx.net, &pts, layers, &mut model) else {
            return MatchResult::empty();
        };
        for (layer_idx, cand) in &out.added_candidates {
            candidate_sets[kept[*layer_idx]].push(cand.seg);
        }
        MatchResult {
            path: out.path,
            candidate_sets: Some(candidate_sets),
        }
    }
}

/// Simple centered mean smoothing (the CLSTERS calibration stand-in).
fn smooth_positions(positions: &[Point], window: usize) -> Vec<Point> {
    (0..positions.len())
        .map(|i| {
            let lo = i.saturating_sub(window);
            let hi = (i + window + 1).min(positions.len());
            // The window always contains index `i`, so the centroid
            // exists; keep the raw point if it ever does not.
            lhmm_geo::point::centroid(&positions[lo..hi]).unwrap_or(positions[i])
        })
        .collect()
}

// ---------------------------------------------------------------------
// Factory functions: one per published baseline.
// ---------------------------------------------------------------------

/// ST-Matching \[8\]: topology + temporal (speed) analysis.
pub fn stm(net: &RoadNetwork) -> HeuristicHmm {
    HeuristicHmm::new(
        net,
        "STM",
        ModelPreset {
            speed_weight: 0.3,
            ..Default::default()
        },
        0,
    )
}

/// STM augmented with LHMM's shortcut pass (Table III's STM+S).
pub fn stm_s(net: &RoadNetwork) -> HeuristicHmm {
    HeuristicHmm::new(
        net,
        "STM+S",
        ModelPreset {
            speed_weight: 0.3,
            ..Default::default()
        },
        1,
    )
}

/// IF-Matching \[32\]: stronger speed information fusion.
pub fn ifm(net: &RoadNetwork) -> HeuristicHmm {
    HeuristicHmm::new(
        net,
        "IFM",
        ModelPreset {
            speed_weight: 0.45,
            ..Default::default()
        },
        0,
    )
}

/// MCM \[34\]: common sub-sequence between trajectory and routes.
pub fn mcm(net: &RoadNetwork) -> HeuristicHmm {
    HeuristicHmm::new(
        net,
        "MCM",
        ModelPreset {
            corridor_weight: 0.6,
            corridor_width: 500.0,
            ..Default::default()
        },
        0,
    )
}

/// CLSTERS \[41\]: calibration (extra smoothing) before a classic HMM.
pub fn clsters(net: &RoadNetwork) -> HeuristicHmm {
    let mut m = HeuristicHmm::new(net, "CLSTERS", ModelPreset::default(), 0);
    m.extra_smooth = 2;
    m
}

/// SnapNet \[12\]: digital-map hints with direction/turn heuristics.
pub fn snapnet(net: &RoadNetwork) -> HeuristicHmm {
    HeuristicHmm::new(
        net,
        "SNet",
        ModelPreset {
            turn_penalty: 0.15,
            speed_weight: 0.2,
            ..Default::default()
        },
        0,
    )
}

/// THMM \[42\]: geometric + reachability constraints tailored for cellular
/// data.
pub fn thmm(net: &RoadNetwork) -> HeuristicHmm {
    HeuristicHmm::new(
        net,
        "THMM",
        ModelPreset {
            reachability_factor: 3.0,
            reachability_slack: 2_000.0,
            turn_penalty: 0.08,
            ..Default::default()
        },
        0,
    )
}


#[cfg(test)]
mod tests {
    use super::*;
    use lhmm_cellsim::dataset::{Dataset, DatasetConfig};
    use lhmm_eval::runner::evaluate_matcher;

    fn ds() -> Dataset {
        Dataset::generate(&DatasetConfig::tiny_test(81))
    }

    #[test]
    fn all_heuristic_baselines_produce_paths() {
        let ds = ds();
        let mut matchers = vec![
            stm(&ds.network),
            stm_s(&ds.network),
            ifm(&ds.network),
            mcm(&ds.network),
            clsters(&ds.network),
            snapnet(&ds.network),
            thmm(&ds.network),
        ];
        for m in &mut matchers {
            let report = evaluate_matcher(&ds, m, &ds.test[..6]);
            assert!(
                report.recall > 0.05,
                "{} produced degenerate matches (recall {})",
                report.method,
                report.recall
            );
            assert!(report.hitting_ratio.is_some());
        }
    }

    #[test]
    fn names_are_distinct() {
        let ds = ds();
        let names: Vec<String> = [
            stm(&ds.network),
            stm_s(&ds.network),
            ifm(&ds.network),
            mcm(&ds.network),
            clsters(&ds.network),
            snapnet(&ds.network),
            thmm(&ds.network),
        ]
        .iter()
        .map(|m| m.name().to_string())
        .collect();
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }

    #[test]
    fn stm_s_has_shortcuts_and_stm_does_not() {
        let ds = ds();
        assert_eq!(stm(&ds.network).shortcuts(), 0);
        assert_eq!(stm_s(&ds.network).shortcuts(), 1);
    }

    #[test]
    fn smoothing_reduces_scatter() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(100.0, 500.0), // outlier-ish
            Point::new(200.0, 0.0),
            Point::new(300.0, 0.0),
        ];
        let smoothed = smooth_positions(&pts, 1);
        assert_eq!(smoothed.len(), 4);
        // The spike is pulled toward its neighbors.
        assert!(smoothed[1].y < 500.0 * 0.5);
    }

    #[test]
    fn thmm_rejects_unreachable_routes() {
        let ds = ds();
        let mut model = HeuristicModel {
            net: &ds.network,
            preset: ModelPreset {
                reachability_factor: 2.0,
                reachability_slack: 0.0,
                ..Default::default()
            },
            positions: vec![Point::new(0.0, 0.0), Point::new(1_000.0, 0.0)],
            times: vec![0.0, 60.0],
        };
        let c = Candidate {
            seg: SegmentId(0),
            t: 0.5,
            obs: 1.0,
        };
        let too_long = RouteInfo {
            found: true,
            length: 5_000.0,
            segments: &[],
        };
        assert_eq!(model.transition(1, &c, &c, &too_long), 0.0);
        let fine = RouteInfo {
            found: true,
            length: 1_200.0,
            segments: &[],
        };
        assert!(model.transition(1, &c, &c, &fine) > 0.0);
    }

    #[test]
    fn turn_penalty_prefers_straighter_routes() {
        let ds = ds();
        // Find a straight pair and a turning pair of segments.
        let mut model = HeuristicModel {
            net: &ds.network,
            preset: ModelPreset {
                turn_penalty: 0.5,
                ..Default::default()
            },
            positions: vec![Point::new(0.0, 0.0), Point::new(500.0, 0.0)],
            times: vec![0.0, 60.0],
        };
        let c = Candidate {
            seg: SegmentId(0),
            t: 0.5,
            obs: 1.0,
        };
        // Same length; one route turns (synthesize using real segments with
        // differing heading).
        let straight: Vec<SegmentId> = ds
            .network
            .segment_ids()
            .take(1)
            .collect();
        let find_turn = ds
            .network
            .segment_ids()
            .find(|&s| {
                ds.network
                    .successors(s)
                    .iter()
                    .any(|&n| {
                        lhmm_geo::angle::abs_diff(
                            ds.network.segment_heading(s),
                            ds.network.segment_heading(n),
                        ) > 1.0
                    })
            })
            .map(|s| {
                let n = *ds
                    .network
                    .successors(s)
                    .iter()
                    .find(|&&n| {
                        lhmm_geo::angle::abs_diff(
                            ds.network.segment_heading(s),
                            ds.network.segment_heading(n),
                        ) > 1.0
                    })
                    .unwrap();
                vec![s, n]
            })
            .expect("a turning pair exists");
        let r_straight = RouteInfo {
            found: true,
            length: 500.0,
            segments: &straight,
        };
        let r_turning = RouteInfo {
            found: true,
            length: 500.0,
            segments: &find_turn,
        };
        assert!(
            model.transition(1, &c, &c, &r_straight)
                > model.transition(1, &c, &c, &r_turning)
        );
    }
}
