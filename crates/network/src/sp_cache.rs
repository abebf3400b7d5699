//! Shortest-path result cache.
//!
//! The paper notes (Section V-A2) that "the HMM can use a precomputation
//! table to avoid the bottleneck of repeated shortest path searches" \[11\].
//! [`SpCache`] is that table: a memoized node-pair → route map in front of a
//! shortest-path engine (Dijkstra or contraction hierarchy, selected via
//! [`crate::backend::SpBackend`]). Consecutive trajectory points share most
//! candidate pairs with their neighbors, so hit rates during matching are
//! high.

use crate::backend::{SpEngine, SpHandle};
use crate::graph::{NodeId, RoadNetwork, SegmentId};
use crate::shortest_path::Route;
use std::collections::HashMap;

struct Entry {
    /// The bound the search ran with; a cached miss is only trusted when the
    /// new query's bound does not exceed it.
    bound: f64,
    route: Option<Route>,
}

impl Entry {
    /// The conclusive answer this entry gives for a query bounded by
    /// `max_dist`, or `None` when the entry cannot answer (a cached miss
    /// whose bound was smaller than the query's).
    fn answer(&self, max_dist: f64) -> Option<Option<Route>> {
        match &self.route {
            Some(r) if r.length <= max_dist => Some(Some(r.clone())),
            // Found before but too long for this query's bound.
            Some(_) => Some(None),
            None if self.bound >= max_dist => Some(None),
            None => None,
        }
    }
}

/// Cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpCacheStats {
    /// Queries answered from the map.
    pub hits: u64,
    /// Queries that ran a search.
    pub misses: u64,
}

/// A memoizing shortest-path oracle for one network.
///
/// Each matching engine owns one cache and alone mutates it, so lookups
/// take no lock. A hit answers only when the answer equals what a fresh
/// search bounded by the query's own bound would return; on a miss the
/// search runs and its result lands in the map.
pub struct SpCache {
    engine: SpEngine,
    map: HashMap<(u32, u32), Entry>,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl SpCache {
    /// Creates a cache bounded to `capacity` node pairs. When the capacity
    /// is exceeded the cache is cleared wholesale (matching workloads sweep
    /// through trajectories, so LRU buys little over epoch clearing).
    pub fn new(net: &RoadNetwork, capacity: usize) -> Self {
        Self::with_backend(net, capacity, &SpHandle::Dijkstra)
    }

    /// [`Self::new`] with an explicit shortest-path backend; both
    /// backends return bitwise-identical routes (see `tests/ch_oracle.rs`),
    /// so the choice affects speed only.
    pub fn with_backend(net: &RoadNetwork, capacity: usize, sp: &SpHandle) -> Self {
        SpCache {
            engine: sp.engine(net),
            map: HashMap::new(),
            capacity: capacity.max(1),
            hits: 0,
            misses: 0,
        }
    }

    /// Shortest route from `from` to `to` bounded by `max_dist`, memoized.
    pub fn route(
        &mut self,
        net: &RoadNetwork,
        from: NodeId,
        to: NodeId,
        max_dist: f64,
    ) -> Option<Route> {
        let key = (from.0, to.0);
        if let Some(answer) = self.map.get(&key).and_then(|e| e.answer(max_dist)) {
            self.hits += 1;
            return answer;
        }
        self.misses += 1;
        let route = self.engine.node_to_node(net, from, to, max_dist);
        if self.map.len() >= self.capacity {
            self.map.clear();
        }
        self.map.insert(
            key,
            Entry {
                bound: max_dist,
                route: route.clone(),
            },
        );
        route
    }

    /// Route between projection points on two segments (see
    /// [`crate::shortest_path::route_between_projections`]), memoized on the
    /// inter-node portion.
    pub fn route_between_projections(
        &mut self,
        net: &RoadNetwork,
        from_seg: SegmentId,
        t_from: f64,
        to_seg: SegmentId,
        t_to: f64,
        max_dist: f64,
    ) -> Option<Route> {
        if from_seg == to_seg && t_to >= t_from {
            let len = net.segment(from_seg).length * (t_to - t_from);
            return Some(Route {
                segments: vec![from_seg],
                length: len,
            });
        }
        let from = net.segment(from_seg);
        let to = net.segment(to_seg);
        let head = from.length * (1.0 - t_from);
        let tail = to.length * t_to;
        let inner = self.route(net, from.to, to.from, max_dist)?;
        let mut segments = Vec::with_capacity(inner.segments.len() + 2);
        segments.push(from_seg);
        segments.extend_from_slice(&inner.segments);
        segments.push(to_seg);
        Some(Route {
            segments,
            length: head + inner.length + tail,
        })
    }

    /// Hit and search counters for diagnostics and benches.
    pub fn stats(&self) -> SpCacheStats {
        SpCacheStats {
            hits: self.hits,
            misses: self.misses,
        }
    }

    /// Number of cached node pairs.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drops all cached entries (e.g. between datasets).
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{generate_city, GeneratorConfig};
    use crate::shortest_path::DijkstraEngine;

    #[test]
    fn cache_returns_same_routes_as_engine() {
        let net = generate_city(&GeneratorConfig::small_test(9));
        let mut cache = SpCache::new(&net, 1000);
        let mut eng = DijkstraEngine::new(&net);
        for i in 0..20u32 {
            let from = NodeId(i % net.num_nodes() as u32);
            let to = NodeId((i * 7 + 3) % net.num_nodes() as u32);
            let cached = cache.route(&net, from, to, 1e9);
            let direct = eng.node_to_node(&net, from, to, 1e9);
            assert_eq!(
                cached.as_ref().map(|r| r.length),
                direct.as_ref().map(|r| r.length),
                "{from:?} -> {to:?}"
            );
        }
    }

    #[test]
    fn repeated_queries_hit() {
        let net = generate_city(&GeneratorConfig::small_test(9));
        let mut cache = SpCache::new(&net, 1000);
        cache.route(&net, NodeId(0), NodeId(5), 1e9);
        cache.route(&net, NodeId(0), NodeId(5), 1e9);
        cache.route(&net, NodeId(0), NodeId(5), 1e9);
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 2);
    }

    #[test]
    fn tighter_bound_on_cached_route_misses_correctly() {
        let net = generate_city(&GeneratorConfig::small_test(9));
        let mut cache = SpCache::new(&net, 1000);
        let r = cache.route(&net, NodeId(0), NodeId(30), 1e9).unwrap();
        // Ask again with a bound below the found length: must answer None
        // without recomputing.
        let again = cache.route(&net, NodeId(0), NodeId(30), r.length * 0.5);
        assert!(again.is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn miss_with_larger_bound_recomputes() {
        let net = generate_city(&GeneratorConfig::small_test(9));
        let mut cache = SpCache::new(&net, 1000);
        // Tiny bound: miss.
        assert!(cache.route(&net, NodeId(0), NodeId(30), 1.0).is_none());
        // Large bound must recompute and succeed.
        assert!(cache.route(&net, NodeId(0), NodeId(30), 1e9).is_some());
    }

    #[test]
    fn capacity_clears_instead_of_growing() {
        let net = generate_city(&GeneratorConfig::small_test(9));
        let mut cache = SpCache::new(&net, 4);
        for i in 0..20u32 {
            cache.route(&net, NodeId(0), NodeId(i + 1), 1e9);
        }
        assert!(cache.len() <= 4);
    }

    #[test]
    fn cache_hits_equal_recomputation_at_every_bound() {
        // Regression for the shared UNREACHABLE sentinel: a cached answer
        // (hit or conclusive miss) must be byte-identical to what a fresh
        // engine computes, for bounds below, at, and above the route
        // length — and for truly disconnected pairs probed at the
        // unbounded sentinel. Exercises both backends.
        use crate::backend::{SpBackend, SpHandle};
        use crate::shortest_path::UNREACHABLE;
        let net = generate_city(&GeneratorConfig::small_test(31));
        let n = net.num_nodes() as u32;
        for backend in [SpBackend::Dijkstra, SpBackend::Ch] {
            let sp = SpHandle::build(&net, backend);
            let pairs: Vec<(NodeId, NodeId)> = (0..n)
                .step_by(5)
                .map(|i| (NodeId(i), NodeId((i * 3 + 7) % n)))
                .filter(|(a, b)| a != b)
                .collect();
            let mut cache = SpCache::with_backend(&net, 10_000, &sp);
            for &(from, to) in &pairs {
                let probe = cache.route(&net, from, to, UNREACHABLE);
                let bounds: Vec<f64> = match &probe {
                    Some(r) => vec![r.length.next_down(), r.length, r.length * 2.0, UNREACHABLE],
                    None => vec![100.0, 1e9, UNREACHABLE],
                };
                for bound in bounds {
                    let cached = cache.route(&net, from, to, bound);
                    let fresh = sp.engine(&net).node_to_node(&net, from, to, bound);
                    assert_eq!(
                        cached.as_ref().map(|r| (r.length.to_bits(), r.segments.clone())),
                        fresh.as_ref().map(|r| (r.length.to_bits(), r.segments.clone())),
                        "{backend:?} {from:?}->{to:?} bound {bound}"
                    );
                }
            }
            // Only the unbounded probes searched: an entry stored at the
            // conclusive bound answers every later bound without a
            // recompute.
            let s = cache.stats();
            assert_eq!(
                s.misses,
                pairs.len() as u64,
                "{backend:?}: conclusive entries recomputed"
            );
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::generators::{generate_city, GeneratorConfig};
    use crate::shortest_path::DijkstraEngine;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Bound semantics: a cached miss under bound `b` must never mask a
        /// route shorter than `b` — any query sequence with varying bounds
        /// returns exactly what a fresh engine returns.
        #[test]
        fn cached_misses_never_mask_short_routes(
            seed in 0u64..200,
            bounds in proptest::collection::vec(50.0..4_000.0f64, 4..12),
        ) {
            let net = generate_city(&GeneratorConfig::small_test(seed));
            let n = net.num_nodes() as u32;
            let mut cache = SpCache::new(&net, 100_000);
            let mut eng = DijkstraEngine::new(&net);
            // Hammer a few fixed pairs with shrinking/growing bounds so
            // cached misses and cached routes both get re-queried.
            for (q, &bound) in bounds.iter().enumerate() {
                let from = NodeId((seed as u32 + q as u32) % n);
                let to = NodeId((seed as u32 * 7 + 3) % n);
                let cached = cache.route(&net, from, to, bound);
                let direct = eng.node_to_node(&net, from, to, bound);
                prop_assert_eq!(
                    cached.as_ref().map(|r| r.length),
                    direct.as_ref().map(|r| r.length),
                    "pair {:?}->{:?} bound {}", from, to, bound
                );
                if let Some(r) = &cached {
                    prop_assert!(r.length <= bound);
                }
            }
        }
    }
}
