//! Bounded Dijkstra searches used for transition evaluation and trip
//! generation.
//!
//! The HMM evaluates, for every pair of consecutive candidate road segments,
//! the shortest route between the two projection points. One Dijkstra per
//! *source* candidate answers all targets of the next trajectory point at
//! once ([`DijkstraEngine::node_to_nodes`]); the engine reuses its internal
//! arrays across queries via epoch stamping so no per-query allocation of
//! O(|V|) memory occurs.

use crate::graph::{NodeId, RoadNetwork, SegmentId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A route through the network: the traversed segments and its length in
/// meters (including partial first/last segments when built from
/// projections).
#[derive(Clone, Debug, PartialEq)]
pub struct Route {
    /// Traversed segments in order.
    pub segments: Vec<SegmentId>,
    /// Total length in meters.
    pub length: f64,
}

/// Sentinel distance for "no route": also the bound to pass for an
/// unbounded search. Shared by every shortest-path consumer
/// ([`DijkstraEngine`], [`crate::ch`], [`crate::sp_cache`]) so bound
/// semantics — "a cached miss at bound `b` is conclusive for any query
/// bound `<= b`" — compare against one constant instead of duplicated
/// magic literals. Any finite distance satisfies `d < UNREACHABLE`.
pub const UNREACHABLE: f64 = f64::INFINITY;

#[derive(Copy, Clone, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance: reverse the comparison. `total_cmp` gives
        // a total order even if a non-finite distance ever slips in.
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.0.cmp(&self.node.0))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

const NO_PARENT: u32 = u32::MAX;

/// Parent of a root entry in a [`RouteForest`].
pub const NO_ENTRY: u32 = u32::MAX;

/// One segment of a route prefix: the prefix ending at this entry is the
/// prefix ending at `parent` extended by `seg`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ForestEntry {
    /// The entry this one extends ([`NO_ENTRY`] for a root).
    pub parent: u32,
    /// The segment the prefix ends on.
    pub seg: SegmentId,
    /// Number of segments in the prefix (1 for a root).
    pub depth: u32,
}

/// Routes stored as a forest of shared prefixes.
///
/// Routes out of one search share their prefixes, so storing them as parent
/// links instead of one `Vec` per route costs one entry per distinct
/// prefix. Every entry is pushed after its parent, so a single in-order
/// pass over [`Self::entries`] can fold any per-prefix quantity from the
/// roots outward. The buffer is meant to be cleared and refilled, keeping
/// its capacity.
#[derive(Clone, Debug, Default)]
pub struct RouteForest {
    entries: Vec<ForestEntry>,
}

impl RouteForest {
    /// Removes every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the forest holds no entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops every entry from index `len` on.
    pub fn truncate(&mut self, len: usize) {
        self.entries.truncate(len);
    }

    /// Appends `seg` as a child of `parent` (or a root when `parent` is
    /// [`NO_ENTRY`]) and returns the new entry's index.
    pub fn push(&mut self, parent: u32, seg: SegmentId) -> u32 {
        let depth = self
            .entries
            .get(parent as usize)
            .map_or(1, |p| p.depth + 1);
        let idx = self.entries.len() as u32;
        self.entries.push(ForestEntry { parent, seg, depth });
        idx
    }

    /// All entries; parents precede their children.
    pub fn entries(&self) -> &[ForestEntry] {
        &self.entries
    }

    /// Writes the route ending at entry `e` into `out`, root first.
    pub fn segments_into(&self, e: u32, out: &mut Vec<SegmentId>) {
        out.clear();
        let mut cur = e;
        while let Some(entry) = self.entries.get(cur as usize) {
            out.push(entry.seg);
            cur = entry.parent;
        }
        out.reverse();
    }
}

/// Reusable Dijkstra state for a fixed network.
pub struct DijkstraEngine {
    dist: Vec<f64>,
    parent_seg: Vec<u32>,
    epoch: Vec<u32>,
    current_epoch: u32,
    heap: BinaryHeap<HeapEntry>,
    /// Per-node label with its own epoch stamp: the number of targets still
    /// waiting on a node during a search, then the node's forest entry
    /// while a search tree is grafted into a [`RouteForest`].
    label: Vec<u32>,
    label_epoch: Vec<u32>,
    current_label: u32,
    /// Segments of the part of a tree path not yet in the forest.
    graft_stack: Vec<SegmentId>,
}

impl DijkstraEngine {
    /// Creates an engine sized for `net`.
    pub fn new(net: &RoadNetwork) -> Self {
        let n = net.num_nodes();
        DijkstraEngine {
            dist: vec![UNREACHABLE; n],
            parent_seg: vec![NO_PARENT; n],
            epoch: vec![0; n],
            current_epoch: 0,
            heap: BinaryHeap::new(),
            label: vec![0; n],
            label_epoch: vec![0; n],
            current_label: 0,
            graft_stack: Vec::new(),
        }
    }

    #[inline]
    fn reset(&mut self) {
        // Epoch stamping: a node's entries are valid only when its epoch
        // matches; wrap-around forces a full clear.
        self.current_epoch = self.current_epoch.wrapping_add(1);
        if self.current_epoch == 0 {
            self.epoch.fill(0);
            self.current_epoch = 1;
        }
        self.heap.clear();
    }

    /// Invalidates every node label (same wrap-around discipline as
    /// [`Self::reset`]).
    #[inline]
    fn reset_labels(&mut self) {
        self.current_label = self.current_label.wrapping_add(1);
        if self.current_label == 0 {
            self.label_epoch.fill(0);
            self.current_label = 1;
        }
    }

    /// The label of `n`, if set since the last [`Self::reset_labels`].
    #[inline]
    fn get_label(&self, n: NodeId) -> Option<u32> {
        (self.label_epoch[n.idx()] == self.current_label).then(|| self.label[n.idx()])
    }

    #[inline]
    fn set_label(&mut self, n: NodeId, v: u32) {
        self.label[n.idx()] = v;
        self.label_epoch[n.idx()] = self.current_label;
    }

    #[inline]
    fn get_dist(&self, n: NodeId) -> f64 {
        if self.epoch[n.idx()] == self.current_epoch {
            self.dist[n.idx()]
        } else {
            UNREACHABLE
        }
    }

    #[inline]
    fn set(&mut self, n: NodeId, d: f64, parent: u32) {
        self.dist[n.idx()] = d;
        self.parent_seg[n.idx()] = parent;
        self.epoch[n.idx()] = self.current_epoch;
    }

    /// Bounded search from `source` that stops once every target has been
    /// settled. Afterwards `get_dist`/`parent_seg` describe the shortest-path
    /// tree for the searched epoch.
    fn search(
        &mut self,
        net: &RoadNetwork,
        source: NodeId,
        targets: impl Iterator<Item = NodeId>,
        max_dist: f64,
    ) {
        self.reset();
        // Each target node's label counts the targets (duplicates allowed)
        // it settles: one lookup per pop instead of a scan over `targets`.
        self.reset_labels();
        let mut remaining = 0usize;
        for t in targets {
            let pending = self.get_label(t).unwrap_or(0);
            self.set_label(t, pending + 1);
            remaining += 1;
        }
        self.set(source, 0.0, NO_PARENT);
        self.heap.push(HeapEntry {
            dist: 0.0,
            node: source,
        });

        while let Some(HeapEntry { dist, node }) = self.heap.pop() {
            if dist > self.get_dist(node) {
                continue; // stale entry
            }
            // Settle any matching targets.
            if let Some(pending) = self.get_label(node).filter(|&p| p > 0) {
                remaining -= pending as usize;
                self.set_label(node, 0);
            }
            if remaining == 0 {
                break;
            }
            if dist > max_dist {
                break;
            }
            for &sid in net.out_segments(node) {
                let seg = net.segment(sid);
                let nd = dist + seg.length;
                if nd < self.get_dist(seg.to) && nd <= max_dist {
                    self.set(seg.to, nd, sid.0);
                    self.heap.push(HeapEntry {
                        dist: nd,
                        node: seg.to,
                    });
                }
            }
        }
    }

    /// One-to-many shortest paths from `source` to every node in `targets`,
    /// bounded by `max_dist` meters. Entry `i` of the result is `None` when
    /// `targets[i]` is unreachable within the bound.
    ///
    /// Each returned route is the segment sequence from `source` to the
    /// target node with its total length.
    pub fn node_to_nodes(
        &mut self,
        net: &RoadNetwork,
        source: NodeId,
        targets: &[NodeId],
        max_dist: f64,
    ) -> Vec<Option<Route>> {
        self.search(net, source, targets.iter().copied(), max_dist);
        targets
            .iter()
            .map(|&t| {
                let d = self.get_dist(t);
                if d < UNREACHABLE {
                    Some(Route {
                        segments: self.reconstruct(net, t),
                        length: d,
                    })
                } else {
                    None
                }
            })
            .collect()
    }

    /// [`Self::node_to_nodes`] writing the routes into `forest` instead of
    /// one `Vec` per target: the search tree's paths to the targets are
    /// grafted under `root` (an existing entry, or [`NO_ENTRY`]), sharing
    /// prefixes. `out[i]` receives `(entry, length)` for `targets[i]`, where
    /// `entry` ends the route (`root` itself for a target equal to
    /// `source`), or `None` when unreachable within the bound or when
    /// `targets[i]` is `None` (a target the caller does not need). The
    /// segments and lengths are exactly those [`Self::node_to_nodes`]
    /// returns.
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
        self.search(net, source, targets.iter().flatten().copied(), max_dist);
        // Labels now map tree nodes to their forest entries.
        self.reset_labels();
        self.set_label(source, root);
        out.clear();
        for &t in targets {
            let found = t.filter(|&t| self.get_dist(t) < UNREACHABLE);
            out.push(found.map(|t| (self.graft(net, t, root, forest), self.get_dist(t))));
        }
    }

    /// Adds the tree path to `node` to `forest`, reusing every prefix
    /// already grafted, and returns the entry that ends it. Walks the same
    /// parent links as [`Self::reconstruct`].
    fn graft(&mut self, net: &RoadNetwork, node: NodeId, root: u32, forest: &mut RouteForest) -> u32 {
        self.graft_stack.clear();
        let mut cur = node;
        let mut entry = loop {
            if let Some(e) = self.get_label(cur) {
                break e;
            }
            let p = self.parent_seg[cur.idx()];
            if self.epoch[cur.idx()] != self.current_epoch || p == NO_PARENT {
                break root;
            }
            let sid = SegmentId(p);
            self.graft_stack.push(sid);
            cur = net.segment(sid).from;
        };
        while let Some(sid) = self.graft_stack.pop() {
            entry = forest.push(entry, sid);
            self.set_label(net.segment(sid).to, entry);
        }
        entry
    }

    /// Single-target convenience wrapper around [`Self::node_to_nodes`].
    pub fn node_to_node(
        &mut self,
        net: &RoadNetwork,
        source: NodeId,
        target: NodeId,
        max_dist: f64,
    ) -> Option<Route> {
        self.node_to_nodes(net, source, &[target], max_dist)
            .pop()
            .flatten()
    }

    /// Distances (no paths) from `source` to all nodes within `max_dist`.
    /// Returns `(node, distance)` pairs in settle order.
    pub fn reachable_within(
        &mut self,
        net: &RoadNetwork,
        source: NodeId,
        max_dist: f64,
    ) -> Vec<(NodeId, f64)> {
        self.reset();
        self.set(source, 0.0, NO_PARENT);
        self.heap.push(HeapEntry {
            dist: 0.0,
            node: source,
        });
        let mut out = Vec::new();
        while let Some(HeapEntry { dist, node }) = self.heap.pop() {
            if dist > self.get_dist(node) {
                continue;
            }
            if dist > max_dist {
                break;
            }
            out.push((node, dist));
            for &sid in net.out_segments(node) {
                let seg = net.segment(sid);
                let nd = dist + seg.length;
                if nd < self.get_dist(seg.to) && nd <= max_dist {
                    self.set(seg.to, nd, sid.0);
                    self.heap.push(HeapEntry {
                        dist: nd,
                        node: seg.to,
                    });
                }
            }
        }
        out
    }

    fn reconstruct(&self, net: &RoadNetwork, target: NodeId) -> Vec<SegmentId> {
        let mut segs = Vec::new();
        let mut cur = target;
        loop {
            let p = self.parent_seg[cur.idx()];
            if self.epoch[cur.idx()] != self.current_epoch || p == NO_PARENT {
                break;
            }
            let sid = SegmentId(p);
            segs.push(sid);
            cur = net.segment(sid).from;
        }
        segs.reverse();
        segs
    }
}

/// Shortest node-to-node route under a caller-supplied segment weight.
///
/// Used by the trip generator to sample *plausible but not strictly shortest*
/// routes (per-trip perturbed weights). Slower than [`DijkstraEngine`]; not
/// for the matching hot path.
pub fn node_to_node_weighted(
    net: &RoadNetwork,
    source: NodeId,
    target: NodeId,
    weight: impl Fn(SegmentId) -> f64,
) -> Option<Route> {
    use std::collections::HashMap;
    let mut dist: HashMap<NodeId, f64> = HashMap::new();
    let mut parent: HashMap<NodeId, SegmentId> = HashMap::new();
    let mut heap = BinaryHeap::new();
    dist.insert(source, 0.0);
    heap.push(HeapEntry {
        dist: 0.0,
        node: source,
    });
    while let Some(HeapEntry { dist: d, node }) = heap.pop() {
        if d > *dist.get(&node).unwrap_or(&UNREACHABLE) {
            continue;
        }
        if node == target {
            break;
        }
        for &sid in net.out_segments(node) {
            let w = weight(sid);
            debug_assert!(w >= 0.0, "segment weights must be non-negative");
            let seg = net.segment(sid);
            let nd = d + w;
            if nd < *dist.get(&seg.to).unwrap_or(&UNREACHABLE) {
                dist.insert(seg.to, nd);
                parent.insert(seg.to, sid);
                heap.push(HeapEntry {
                    dist: nd,
                    node: seg.to,
                });
            }
        }
    }
    if !dist.contains_key(&target) {
        return None;
    }
    let mut segs = Vec::new();
    let mut cur = target;
    while cur != source {
        let sid = *parent.get(&cur)?;
        segs.push(sid);
        cur = net.segment(sid).from;
    }
    segs.reverse();
    let length = segs.iter().map(|&s| net.segment(s).length).sum();
    Some(Route {
        segments: segs,
        length,
    })
}

/// Shortest route between two *projection points* on candidate segments,
/// following the paper's HMM formulation: travel the remainder of `from_seg`
/// after offset `t_from`, the inter-node shortest path, then the onset of
/// `to_seg` up to offset `t_to`.
///
/// `t_from` / `t_to` are normalized positions in `[0, 1]` along the segments.
/// When `from_seg == to_seg` and `t_to >= t_from` the route stays on the
/// segment. Returns `None` when no route exists within `max_dist`.
pub fn route_between_projections(
    net: &RoadNetwork,
    engine: &mut DijkstraEngine,
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
    let inner = engine.node_to_node(net, from.to, to.from, max_dist)?;
    let mut segments = Vec::with_capacity(inner.segments.len() + 2);
    segments.push(from_seg);
    segments.extend_from_slice(&inner.segments);
    segments.push(to_seg);
    Some(Route {
        segments,
        length: head + inner.length + tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use crate::graph::RoadClass;
    use lhmm_geo::Point;

    /// A 3x3 grid with 100 m spacing, all roads two-way.
    fn grid3() -> RoadNetwork {
        let mut b = NetworkBuilder::new();
        let mut ids = Vec::new();
        for y in 0..3 {
            for x in 0..3 {
                ids.push(b.add_node(Point::new(x as f64 * 100.0, y as f64 * 100.0)));
            }
        }
        for y in 0..3 {
            for x in 0..3 {
                let i = y * 3 + x;
                if x + 1 < 3 {
                    b.add_two_way(ids[i], ids[i + 1], RoadClass::Collector).unwrap();
                }
                if y + 1 < 3 {
                    b.add_two_way(ids[i], ids[i + 3], RoadClass::Collector).unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn epoch_wraparound_invalidates_stale_entries() {
        // Regression guard: after 2^32 resets `current_epoch` wraps. The
        // reset path must clear the epoch stamps when that happens —
        // otherwise nodes whose stored epoch happens to equal the wrapped
        // counter would expose garbage distances/parents from an ancient
        // query as if they were current.
        let net = grid3();
        let mut fresh = DijkstraEngine::new(&net);
        let expected = fresh
            .node_to_node(&net, NodeId(0), NodeId(8), 10_000.0)
            .unwrap();

        let mut eng = DijkstraEngine::new(&net);
        // Simulate the state just before wrap-around, with poisoned entries
        // that become "valid" after the wrap if the clear is skipped: stale
        // epochs at both u32::MAX (valid right now) and the small values
        // the counter will pass through next.
        eng.current_epoch = u32::MAX;
        for i in 0..eng.epoch.len() {
            eng.epoch[i] = if i % 2 == 0 { u32::MAX } else { (i % 4) as u32 };
            eng.dist[i] = 0.25; // absurdly short: would hijack any search
            eng.parent_seg[i] = NO_PARENT;
        }
        // Several queries straddling the wrap (epochs MAX → 1 → 2 → 3): all
        // must ignore the poisoned state and reproduce the fresh result.
        for round in 0..3 {
            let r = eng
                .node_to_node(&net, NodeId(0), NodeId(8), 10_000.0)
                .unwrap();
            assert_eq!(r.length, expected.length, "round {round}");
            assert_eq!(r.segments, expected.segments, "round {round}");
        }
        assert!(eng.current_epoch >= 1 && eng.current_epoch < u32::MAX);
    }

    #[test]
    fn diagonal_distance_on_grid() {
        let net = grid3();
        let mut eng = DijkstraEngine::new(&net);
        let r = eng
            .node_to_node(&net, NodeId(0), NodeId(8), 10_000.0)
            .unwrap();
        assert_eq!(r.length, 400.0);
        assert_eq!(r.segments.len(), 4);
        // Route is contiguous.
        for w in r.segments.windows(2) {
            assert_eq!(net.segment(w[0]).to, net.segment(w[1]).from);
        }
        assert_eq!(net.segment(r.segments[0]).from, NodeId(0));
        assert_eq!(net.segment(*r.segments.last().unwrap()).to, NodeId(8));
    }

    #[test]
    fn unreachable_beyond_bound() {
        let net = grid3();
        let mut eng = DijkstraEngine::new(&net);
        assert!(eng.node_to_node(&net, NodeId(0), NodeId(8), 399.0).is_none());
        assert!(eng.node_to_node(&net, NodeId(0), NodeId(8), 400.0).is_some());
    }

    #[test]
    fn one_to_many_matches_individual_queries() {
        let net = grid3();
        let mut eng = DijkstraEngine::new(&net);
        let targets = [NodeId(2), NodeId(4), NodeId(8), NodeId(0)];
        let batch = eng.node_to_nodes(&net, NodeId(0), &targets, 10_000.0);
        let mut eng2 = DijkstraEngine::new(&net);
        for (i, &t) in targets.iter().enumerate() {
            let single = eng2.node_to_node(&net, NodeId(0), t, 10_000.0);
            assert_eq!(
                batch[i].as_ref().map(|r| r.length),
                single.map(|r| r.length)
            );
        }
        assert_eq!(batch[3].as_ref().unwrap().length, 0.0);
    }

    #[test]
    fn duplicate_and_source_targets_settle_once_each() {
        let net = grid3();
        let mut eng = DijkstraEngine::new(&net);
        // Duplicates and the source itself must each be answered; a search
        // that under-counted pending targets would stop before node 8.
        let targets = [NodeId(4), NodeId(4), NodeId(0), NodeId(8), NodeId(4)];
        let batch = eng.node_to_nodes(&net, NodeId(0), &targets, 10_000.0);
        let lengths: Vec<f64> = batch.iter().map(|r| r.as_ref().unwrap().length).collect();
        assert_eq!(lengths, vec![200.0, 200.0, 0.0, 400.0, 200.0]);
        assert!(eng.node_to_nodes(&net, NodeId(0), &[], 10_000.0).is_empty());
    }

    #[test]
    fn forest_shares_prefixes_of_the_search_tree() {
        let net = grid3();
        let mut eng = DijkstraEngine::new(&net);
        let mut forest = RouteForest::default();
        let mut out = Vec::new();
        let targets = [NodeId(8), NodeId(5), NodeId(2), NodeId(0)];
        let wanted: Vec<Option<NodeId>> = targets.iter().copied().map(Some).collect();
        eng.tree_to_nodes(&net, NodeId(0), &wanted, 10_000.0, NO_ENTRY, &mut forest, &mut out);
        let want = eng.node_to_nodes(&net, NodeId(0), &targets, 10_000.0);
        let mut segs = Vec::new();
        let mut total = 0;
        for (got, want) in out.iter().zip(&want) {
            let (entry, len) = got.unwrap();
            let want = want.as_ref().unwrap();
            assert_eq!(len, want.length);
            if entry == NO_ENTRY {
                assert!(want.segments.is_empty());
                continue;
            }
            forest.segments_into(entry, &mut segs);
            assert_eq!(segs, want.segments);
            assert_eq!(forest.entries()[entry as usize].depth as usize, segs.len());
            total += segs.len();
        }
        // The routes to 8, 5 and 2 overlap, so the forest is smaller than
        // their concatenation.
        assert!(forest.len() < total, "{} >= {total}", forest.len());
    }

    #[test]
    fn engine_reuse_is_correct_across_queries() {
        let net = grid3();
        let mut eng = DijkstraEngine::new(&net);
        let a = eng.node_to_node(&net, NodeId(0), NodeId(8), 1e9).unwrap().length;
        let b = eng.node_to_node(&net, NodeId(8), NodeId(0), 1e9).unwrap().length;
        let a2 = eng.node_to_node(&net, NodeId(0), NodeId(8), 1e9).unwrap().length;
        assert_eq!(a, 400.0);
        assert_eq!(b, 400.0);
        assert_eq!(a, a2);
    }

    #[test]
    fn reachable_within_radius() {
        let net = grid3();
        let mut eng = DijkstraEngine::new(&net);
        let reach = eng.reachable_within(&net, NodeId(4), 100.0);
        // Center node + its 4 direct neighbors.
        assert_eq!(reach.len(), 5);
        assert_eq!(reach[0], (NodeId(4), 0.0));
    }

    #[test]
    fn weighted_route_respects_weights() {
        let net = grid3();
        // Make horizontal edges from node 0 very expensive: the route 0 -> 2
        // should detour through the second row.
        let route = node_to_node_weighted(&net, NodeId(0), NodeId(2), |sid| {
            let s = net.segment(sid);
            let horizontal =
                (net.node_pos(s.from).y - net.node_pos(s.to).y).abs() < 1e-9;
            let on_row0 = net.node_pos(s.from).y == 0.0 && net.node_pos(s.to).y == 0.0;
            if horizontal && on_row0 {
                1000.0
            } else {
                s.length
            }
        })
        .unwrap();
        // Real geometric length of the detour is 400 m (up, right, right, down).
        assert_eq!(route.length, 400.0);
        assert_eq!(route.segments.len(), 4);
    }

    #[test]
    fn projection_route_same_segment() {
        let net = grid3();
        let mut eng = DijkstraEngine::new(&net);
        let sid = SegmentId(0);
        let r = route_between_projections(&net, &mut eng, sid, 0.2, sid, 0.7, 1e9).unwrap();
        assert!((r.length - 0.5 * net.segment(sid).length).abs() < 1e-9);
        assert_eq!(r.segments, vec![sid]);
    }

    #[test]
    fn projection_route_backwards_on_same_segment_loops() {
        let net = grid3();
        let mut eng = DijkstraEngine::new(&net);
        let sid = SegmentId(0); // node 0 -> node 1 on the grid
        let r = route_between_projections(&net, &mut eng, sid, 0.8, sid, 0.2, 1e9).unwrap();
        // Must leave the segment and come back: strictly longer than direct.
        assert!(r.length > net.segment(sid).length * 0.2);
        assert!(r.segments.len() > 1);
    }

    #[test]
    fn projection_route_across_segments() {
        let net = grid3();
        let mut eng = DijkstraEngine::new(&net);
        // Segment 0 is node0 -> node1. Find a segment leaving node 1 east.
        let next = *net
            .out_segments(NodeId(1))
            .iter()
            .find(|&&s| net.segment(s).to == NodeId(2))
            .unwrap();
        let r =
            route_between_projections(&net, &mut eng, SegmentId(0), 0.5, next, 0.5, 1e9).unwrap();
        assert!((r.length - 100.0).abs() < 1e-9);
        assert_eq!(r.segments, vec![SegmentId(0), next]);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::generators::{GeneratorConfig, generate_city};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Shortest-path lengths obey the triangle inequality through any
        /// intermediate node.
        #[test]
        fn triangle_inequality(seed in 0u64..1000) {
            let net = generate_city(&GeneratorConfig::small_test(seed));
            let mut eng = DijkstraEngine::new(&net);
            let n = net.num_nodes() as u32;
            let a = NodeId(seed as u32 % n);
            let b = NodeId((seed as u32 * 7 + 3) % n);
            let c = NodeId((seed as u32 * 13 + 5) % n);
            let ab = eng.node_to_node(&net, a, b, 1e12).map(|r| r.length);
            let ac = eng.node_to_node(&net, a, c, 1e12).map(|r| r.length);
            let cb = eng.node_to_node(&net, c, b, 1e12).map(|r| r.length);
            if let (Some(ab), Some(ac), Some(cb)) = (ab, ac, cb) {
                prop_assert!(ab <= ac + cb + 1e-6, "ab={ab} ac={ac} cb={cb}");
            }
        }

        /// Every returned route is contiguous and its stated length matches
        /// the sum of its segment lengths.
        #[test]
        fn route_is_contiguous_and_length_consistent(seed in 0u64..1000) {
            let net = generate_city(&GeneratorConfig::small_test(seed));
            let mut eng = DijkstraEngine::new(&net);
            let n = net.num_nodes() as u32;
            let a = NodeId(seed as u32 % n);
            let b = NodeId((seed as u32 * 31 + 17) % n);
            if let Some(r) = eng.node_to_node(&net, a, b, 1e12) {
                for w in r.segments.windows(2) {
                    prop_assert_eq!(net.segment(w[0]).to, net.segment(w[1]).from);
                }
                let sum: f64 = r.segments.iter().map(|&s| net.segment(s).length).sum();
                prop_assert!((sum - r.length).abs() < 1e-6);
                if a != b {
                    prop_assert_eq!(net.segment(r.segments[0]).from, a);
                    prop_assert_eq!(net.segment(*r.segments.last().unwrap()).to, b);
                }
            }
        }
    }
}
