//! Runtime shortest-path backend selection.
//!
//! Everything downstream of transition scoring — `HmmEngine`, `SpCache`,
//! the batch/streaming/serve engines — consumes shortest paths through
//! the small [`SpEngine`] surface here. The scalar Dijkstra engine
//! remains the oracle; the contraction-hierarchy backend ([`crate::ch`])
//! is pinned bitwise-equal to it by the oracle test suite, so switching
//! backends changes speed, never answers.

use crate::ch::{ChQuery, ContractionHierarchy};
use crate::graph::{NodeId, RoadNetwork};
use crate::shortest_path::{DijkstraEngine, Route, RouteForest};
use std::sync::Arc;

/// Which shortest-path algorithm answers queries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SpBackend {
    /// Scalar bounded Dijkstra — the exactness oracle.
    #[default]
    Dijkstra,
    /// Contraction hierarchy: one-time preprocessing, then bidirectional
    /// upward searches. Bitwise-equal to Dijkstra (see `tests/ch_oracle.rs`).
    Ch,
}

/// A cheaply cloneable handle to backend preprocessing artifacts.
///
/// For [`SpBackend::Dijkstra`] this is empty; for [`SpBackend::Ch`] it
/// shares the built hierarchy behind an [`Arc`], so batch workers and
/// serve sessions reuse one preprocessing pass.
#[derive(Clone, Default)]
pub enum SpHandle {
    /// No preprocessing: queries run scalar Dijkstra.
    #[default]
    Dijkstra,
    /// A shared contraction hierarchy.
    Ch(Arc<ContractionHierarchy>),
}

impl std::fmt::Debug for SpHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpHandle::Dijkstra => write!(f, "SpHandle::Dijkstra"),
            SpHandle::Ch(ch) => {
                let s = ch.stats();
                write!(
                    f,
                    "SpHandle::Ch(nodes={}, base_edges={}, shortcuts={})",
                    s.nodes, s.base_edges, s.shortcuts
                )
            }
        }
    }
}

impl SpHandle {
    /// Runs the preprocessing `backend` requires for `net` (none for
    /// Dijkstra). Deterministic for a given network.
    pub fn build(net: &RoadNetwork, backend: SpBackend) -> Self {
        match backend {
            SpBackend::Dijkstra => SpHandle::Dijkstra,
            SpBackend::Ch => SpHandle::Ch(Arc::new(ContractionHierarchy::build(net))),
        }
    }

    /// The backend this handle answers for.
    pub fn backend(&self) -> SpBackend {
        match self {
            SpHandle::Dijkstra => SpBackend::Dijkstra,
            SpHandle::Ch(_) => SpBackend::Ch,
        }
    }

    /// Shortcut edges added by preprocessing (0 for Dijkstra).
    pub fn shortcut_count(&self) -> u64 {
        match self {
            SpHandle::Dijkstra => 0,
            SpHandle::Ch(ch) => ch.stats().shortcuts as u64,
        }
    }

    /// Creates per-thread mutable query state for this backend.
    pub fn engine(&self, net: &RoadNetwork) -> SpEngine {
        match self {
            SpHandle::Dijkstra => SpEngine::Dijkstra(DijkstraEngine::new(net)),
            SpHandle::Ch(ch) => SpEngine::Ch {
                query: ChQuery::new(ch),
                ch: Arc::clone(ch),
            },
        }
    }
}

/// Mutable per-thread shortest-path query state, one variant per backend.
///
/// Both variants expose the same `node_to_node(s)` contract as
/// [`DijkstraEngine`] and return bitwise-identical answers.
pub enum SpEngine {
    /// Scalar bounded Dijkstra.
    Dijkstra(DijkstraEngine),
    /// Bidirectional upward search over a shared hierarchy.
    Ch {
        /// Reusable epoch-stamped search state.
        query: ChQuery,
        /// The shared preprocessing artifact.
        ch: Arc<ContractionHierarchy>,
    },
}

impl SpEngine {
    /// Shortest route `source → target` within `max_dist` meters.
    pub fn node_to_node(
        &mut self,
        net: &RoadNetwork,
        source: NodeId,
        target: NodeId,
        max_dist: f64,
    ) -> Option<Route> {
        match self {
            SpEngine::Dijkstra(d) => d.node_to_node(net, source, target, max_dist),
            SpEngine::Ch { query, ch } => query.route(ch, net, source, target, max_dist),
        }
    }

    /// One-to-many shortest routes; entry `i` answers `targets[i]`.
    pub fn node_to_nodes(
        &mut self,
        net: &RoadNetwork,
        source: NodeId,
        targets: &[NodeId],
        max_dist: f64,
    ) -> Vec<Option<Route>> {
        match self {
            SpEngine::Dijkstra(d) => d.node_to_nodes(net, source, targets, max_dist),
            SpEngine::Ch { query, ch } => query.node_to_nodes(ch, net, source, targets, max_dist),
        }
    }

    /// One-to-many shortest routes written into a shared [`RouteForest`]
    /// under `root`; `out[i]` is `(last entry, length)` for `targets[i]`
    /// (`None` targets are skipped). Dijkstra grafts its search tree, so
    /// routes share prefixes; CH appends each unpacked route as its own
    /// chain. Same routes as [`Self::node_to_nodes`] either way.
    #[allow(clippy::too_many_arguments)]
    pub fn tree_to_nodes(
        &mut self,
        net: &RoadNetwork,
        source: NodeId,
        targets: &[Option<NodeId>],
        max_dist: f64,
        root: u32,
        forest: &mut RouteForest,
        out: &mut Vec<Option<(u32, f64)>>,
    ) {
        match self {
            SpEngine::Dijkstra(d) => {
                d.tree_to_nodes(net, source, targets, max_dist, root, forest, out)
            }
            SpEngine::Ch { query, ch } => {
                query.tree_to_nodes(ch, net, source, targets, max_dist, root, forest, out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{generate_city, GeneratorConfig};

    #[test]
    fn handle_reports_backend_and_shortcuts() {
        let net = generate_city(&GeneratorConfig::small_test(7));
        let d = SpHandle::build(&net, SpBackend::Dijkstra);
        assert_eq!(d.backend(), SpBackend::Dijkstra);
        assert_eq!(d.shortcut_count(), 0);
        let c = SpHandle::build(&net, SpBackend::Ch);
        assert_eq!(c.backend(), SpBackend::Ch);
        assert!(c.shortcut_count() > 0);
        // Clones share the hierarchy, not rebuild it.
        let c2 = c.clone();
        assert_eq!(c2.shortcut_count(), c.shortcut_count());
    }

    #[test]
    fn engines_agree_through_the_common_surface() {
        let net = generate_city(&GeneratorConfig::small_test(11));
        let mut de = SpHandle::build(&net, SpBackend::Dijkstra).engine(&net);
        let mut ce = SpHandle::build(&net, SpBackend::Ch).engine(&net);
        let n = net.num_nodes() as u32;
        for i in 0..24u32 {
            let s = NodeId((i * 13) % n);
            let t = NodeId((i * 31 + 5) % n);
            let a = de.node_to_node(&net, s, t, 1e12);
            let b = ce.node_to_node(&net, s, t, 1e12);
            match (&a, &b) {
                (Some(x), Some(y)) => {
                    assert_eq!(x.length.to_bits(), y.length.to_bits(), "{s:?}->{t:?}");
                    assert_eq!(x.segments, y.segments, "{s:?}->{t:?}");
                }
                (None, None) => {}
                _ => panic!("{s:?}->{t:?}: {a:?} vs {b:?}"),
            }
        }
    }
}
