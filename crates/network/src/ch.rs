//! Contraction-hierarchy (CH) shortest-path preprocessing and queries.
//!
//! The HMM's transition scores are built on road-network shortest-path
//! distances (paper §4), and per-stage timing shows those queries dominate
//! inference cost. This module trades a one-time preprocessing pass for
//! much faster queries: nodes are contracted in importance order
//! (edge-difference + deleted-neighbors heuristic, ties broken by node id),
//! shortcut edges preserve all shortest distances among the remaining
//! nodes, and queries run a bidirectional Dijkstra restricted to *upward*
//! edges (toward higher contraction rank) on the overlay graph.
//!
//! # Exactness contract
//!
//! CH is exact in real arithmetic by construction; this implementation is
//! additionally pinned to be **bitwise** interchangeable with
//! [`DijkstraEngine`](crate::shortest_path::DijkstraEngine):
//!
//! * The overlay's base edges are the per-`(from, to)` minimum original
//!   segments, chosen exactly as Dijkstra's strict `<` relaxation chooses
//!   among parallel edges (lowest length, then lowest segment id).
//! * A query never reports the float sum of shortcut weights. It unpacks
//!   the winning up–down path to the original segment sequence and
//!   re-folds the length left-to-right from the source — the identical
//!   sequence of rounded additions Dijkstra performs along its parent
//!   tree. When the shortest path is unique (any jittered generated
//!   city), the unpacked sequence *is* Dijkstra's path, so length and
//!   segments match bit for bit; on exact-arithmetic networks every
//!   tied fold is exact, so lengths still match bit for bit.
//! * The distance bound is applied to the re-folded length only
//!   (`length <= max_dist`). Folds of non-negative addends are monotone
//!   non-decreasing, so this is equivalent to Dijkstra's per-relaxation
//!   `nd <= max_dist` guard.
//!
//! Witness searches during contraction are bounded and settle-capped; a
//! missed witness only inserts a redundant shortcut and can never change
//! a query answer. The oracle suite in `tests/ch_oracle.rs` and
//! `tests/sp_metamorphic.rs` enforces all of the above against the
//! Dijkstra oracle with `total_cmp`-equality, not tolerances.

use crate::graph::{NodeId, RoadNetwork, SegmentId};
use crate::shortest_path::{Route, RouteForest, UNREACHABLE};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

const NO_EDGE: u32 = u32::MAX;
const NO_NODE: u32 = u32::MAX;

/// Search-space prune bound for a query bound `max_dist`.
///
/// Overlay label sums and the re-folded (reported) length of the same path
/// differ only by accumulated rounding — relatively ~`k · 2⁻⁵²` for `k`
/// segments, orders of magnitude below this margin. Labels above the
/// pruned bound therefore belong to paths whose re-folded length is
/// certainly `> max_dist`, which the query would discard anyway; skipping
/// them early cannot change any answer. (`+1e-9` keeps a nonzero margin
/// for `max_dist = 0`; `∞` stays `∞`.)
#[inline]
fn prune_bound(max_dist: f64) -> f64 {
    max_dist * (1.0 + 1e-9) + 1e-9
}

/// Settle cap per witness search. Conservative: capping the search can
/// only miss witnesses, which adds redundant shortcuts — never wrong
/// distances.
const WITNESS_SETTLE_CAP: usize = 96;

/// What one overlay edge represents.
#[derive(Clone, Copy, Debug)]
enum EdgeKind {
    /// An original road segment.
    Original(SegmentId),
    /// A shortcut replacing `left` then `right` (overlay edge ids).
    Shortcut { left: u32, right: u32 },
}

/// One directed overlay edge (original segment or shortcut).
#[derive(Clone, Copy, Debug)]
struct OverlayEdge {
    from: u32,
    to: u32,
    weight: f64,
    kind: EdgeKind,
}

/// Preprocessing statistics, surfaced through `MatchStats` upstream.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChStats {
    /// Nodes in the hierarchy.
    pub nodes: usize,
    /// Base overlay edges (per-pair-minimum original segments).
    pub base_edges: usize,
    /// Shortcut edges inserted during contraction.
    pub shortcuts: usize,
}

/// A built contraction hierarchy over a fixed [`RoadNetwork`].
///
/// Construction is deterministic: identical networks produce identical
/// ranks, shortcuts, and adjacency orderings.
pub struct ContractionHierarchy {
    num_nodes: usize,
    /// Contraction rank per node (higher = contracted later = "more
    /// important").
    rank: Vec<u32>,
    edges: Vec<OverlayEdge>,
    /// Upward out-edges: CSR over edge ids with `rank[from] < rank[to]`,
    /// **keyed by `rank[from]`**. All query-side adjacency and search
    /// state live in rank space: every upward search climbs into the same
    /// few high-rank nodes, so rank-indexed arrays keep the hot working
    /// set contiguous instead of scattered across node ids.
    fwd_offsets: Vec<u32>,
    fwd_edges: Vec<u32>,
    /// Head **rank** and weight of each `fwd_edges` entry, unpacked into
    /// parallel arrays so the hot relaxation/stall loops scan densely
    /// instead of chasing [`OverlayEdge`] structs.
    fwd_to: Vec<u32>,
    fwd_w: Vec<f64>,
    /// Upward in-edges: CSR keyed by `rank[to]`, edge ids with
    /// `rank[from] > rank[to]` (traversed upward by the backward search).
    bwd_offsets: Vec<u32>,
    bwd_edges: Vec<u32>,
    /// Tail **rank** and weight of each `bwd_edges` entry (parallel arrays).
    bwd_from: Vec<u32>,
    bwd_w: Vec<f64>,
    stats: ChStats,
}

/// Min-heap entry ordered by (`total_cmp` distance, node id).
#[derive(Copy, Clone, PartialEq)]
struct ChHeapEntry {
    dist: f64,
    node: u32,
}

impl Eq for ChHeapEntry {}

impl Ord for ChHeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for ChHeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable epoch-stamped state for bounded witness searches.
struct WitnessSearch {
    dist: Vec<f64>,
    epoch: Vec<u32>,
    current_epoch: u32,
    heap: BinaryHeap<ChHeapEntry>,
}

impl WitnessSearch {
    fn new(n: usize) -> Self {
        WitnessSearch {
            dist: vec![UNREACHABLE; n],
            epoch: vec![0; n],
            current_epoch: 0,
            heap: BinaryHeap::new(),
        }
    }

    #[inline]
    fn reset(&mut self) {
        self.current_epoch = self.current_epoch.wrapping_add(1);
        if self.current_epoch == 0 {
            self.epoch.fill(0);
            self.current_epoch = 1;
        }
        self.heap.clear();
    }

    #[inline]
    fn get(&self, n: u32) -> f64 {
        if self.epoch[n as usize] == self.current_epoch {
            self.dist[n as usize]
        } else {
            UNREACHABLE
        }
    }

    #[inline]
    fn set(&mut self, n: u32, d: f64) {
        self.dist[n as usize] = d;
        self.epoch[n as usize] = self.current_epoch;
    }

    /// Bounded Dijkstra from `source` on the live (uncontracted) overlay,
    /// never entering `skip`. Tentative labels are upper bounds on the
    /// true distance, so `get(w) <= limit` soundly certifies a witness
    /// even when the settle cap stops the search early.
    fn run(
        &mut self,
        edges: &[OverlayEdge],
        out_adj: &[Vec<u32>],
        contracted: &[bool],
        source: u32,
        skip: u32,
        bound: f64,
    ) {
        self.reset();
        self.set(source, 0.0);
        self.heap.push(ChHeapEntry {
            dist: 0.0,
            node: source,
        });
        let mut settles = 0usize;
        while let Some(ChHeapEntry { dist, node }) = self.heap.pop() {
            if dist > self.get(node) {
                continue;
            }
            if dist > bound {
                break;
            }
            settles += 1;
            if settles > WITNESS_SETTLE_CAP {
                break;
            }
            for &eid in &out_adj[node as usize] {
                let e = edges[eid as usize];
                if contracted[e.to as usize] || e.to == skip {
                    continue;
                }
                let nd = dist + e.weight;
                if nd < self.get(e.to) && nd <= bound {
                    self.set(e.to, nd);
                    self.heap.push(ChHeapEntry {
                        dist: nd,
                        node: e.to,
                    });
                }
            }
        }
    }
}

/// Mutable state used only while building the hierarchy.
struct Builder {
    edges: Vec<OverlayEdge>,
    out_adj: Vec<Vec<u32>>,
    in_adj: Vec<Vec<u32>>,
    contracted: Vec<bool>,
    deleted_neighbors: Vec<u32>,
    /// Hierarchy depth: 1 + max level of contracted neighbors. Steers the
    /// order toward balanced hierarchies (nested-dissection-like) on
    /// grid-shaped networks, where pure edge difference degenerates.
    level: Vec<u32>,
    witness: WitnessSearch,
    /// Scratch: per-contraction deduped (neighbor, weight, edge id) lists.
    ins: Vec<(u32, f64, u32)>,
    outs: Vec<(u32, f64, u32)>,
}

impl Builder {
    fn new(net: &RoadNetwork) -> Self {
        let n = net.num_nodes();
        // Base overlay: the per-(from, to) minimum original segment,
        // ordered exactly as Dijkstra's strict `<` relaxation resolves
        // parallel edges (lowest length wins; equal lengths keep the
        // lowest segment id, which relaxes first in CSR order).
        let mut raw: Vec<(u32, u32, f64, u32)> = Vec::with_capacity(net.num_segments());
        for sid in net.segment_ids() {
            let s = net.segment(sid);
            raw.push((s.from.0, s.to.0, s.length, sid.0));
        }
        raw.sort_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| a.1.cmp(&b.1))
                .then_with(|| a.2.total_cmp(&b.2))
                .then_with(|| a.3.cmp(&b.3))
        });
        raw.dedup_by(|next, kept| next.0 == kept.0 && next.1 == kept.1);

        let mut edges = Vec::with_capacity(raw.len());
        let mut out_adj = vec![Vec::new(); n];
        let mut in_adj = vec![Vec::new(); n];
        for &(from, to, weight, sid) in &raw {
            let eid = edges.len() as u32;
            edges.push(OverlayEdge {
                from,
                to,
                weight,
                kind: EdgeKind::Original(SegmentId(sid)),
            });
            out_adj[from as usize].push(eid);
            in_adj[to as usize].push(eid);
        }
        Builder {
            edges,
            out_adj,
            in_adj,
            contracted: vec![false; n],
            deleted_neighbors: vec![0; n],
            level: vec![0; n],
            witness: WitnessSearch::new(n),
            ins: Vec::new(),
            outs: Vec::new(),
        }
    }

    /// Fills `self.ins` / `self.outs` with the live neighbors of `v`,
    /// deduplicated to the minimum-weight edge per neighbor (ties to the
    /// lowest edge id).
    fn gather_neighbors(&mut self, v: u32) {
        self.ins.clear();
        self.outs.clear();
        for &eid in &self.in_adj[v as usize] {
            let e = self.edges[eid as usize];
            if !self.contracted[e.from as usize] && e.from != v {
                self.ins.push((e.from, e.weight, eid));
            }
        }
        for &eid in &self.out_adj[v as usize] {
            let e = self.edges[eid as usize];
            if !self.contracted[e.to as usize] && e.to != v {
                self.outs.push((e.to, e.weight, eid));
            }
        }
        let by_min = |a: &(u32, f64, u32), b: &(u32, f64, u32)| {
            a.0.cmp(&b.0)
                .then_with(|| a.1.total_cmp(&b.1))
                .then_with(|| a.2.cmp(&b.2))
        };
        self.ins.sort_by(by_min);
        self.ins.dedup_by(|next, kept| next.0 == kept.0);
        self.outs.sort_by(by_min);
        self.outs.dedup_by(|next, kept| next.0 == kept.0);
    }

    /// Counts (and with `insert`, adds) the shortcuts required to remove
    /// `v` while preserving all shortest distances among live nodes.
    fn shortcut_work(&mut self, v: u32, insert: bool) -> usize {
        self.gather_neighbors(v);
        if self.ins.is_empty() || self.outs.is_empty() {
            return 0;
        }
        let max_out = self
            .outs
            .iter()
            .map(|&(_, w, _)| w)
            .fold(0.0f64, f64::max);
        let mut added = 0usize;
        let ins = std::mem::take(&mut self.ins);
        let outs = std::mem::take(&mut self.outs);
        for &(u, w_in, e_in) in &ins {
            self.witness.run(
                &self.edges,
                &self.out_adj,
                &self.contracted,
                u,
                v,
                w_in + max_out,
            );
            for &(w, w_out, e_out) in &outs {
                if w == u {
                    continue;
                }
                let via = w_in + w_out;
                // A witness path u→w avoiding v that is no longer than
                // the path through v makes the shortcut redundant.
                if self.witness.get(w) <= via {
                    continue;
                }
                added += 1;
                if insert {
                    let eid = self.edges.len() as u32;
                    self.edges.push(OverlayEdge {
                        from: u,
                        to: w,
                        weight: via,
                        kind: EdgeKind::Shortcut {
                            left: e_in,
                            right: e_out,
                        },
                    });
                    self.out_adj[u as usize].push(eid);
                    self.in_adj[w as usize].push(eid);
                }
            }
        }
        self.ins = ins;
        self.outs = outs;
        added
    }

    /// Contraction priority of `v`: integer-valued so heap ordering never
    /// depends on float rounding. Lower contracts earlier.
    fn priority(&mut self, v: u32) -> i64 {
        let shortcuts = self.shortcut_work(v, false) as i64;
        let removed = (self.ins.len() + self.outs.len()) as i64;
        2 * (shortcuts - removed)
            + i64::from(self.deleted_neighbors[v as usize])
            + i64::from(self.level[v as usize])
    }

    /// Contracts `v`: inserts its shortcuts, marks it contracted, and
    /// bumps the deleted-neighbors counter of its live neighbors.
    fn contract(&mut self, v: u32) {
        self.shortcut_work(v, true);
        self.contracted[v as usize] = true;
        let mut neighbors: Vec<u32> = self
            .ins
            .iter()
            .map(|&(u, _, _)| u)
            .chain(self.outs.iter().map(|&(w, _, _)| w))
            .collect();
        neighbors.sort_unstable();
        neighbors.dedup();
        let lv = self.level[v as usize] + 1;
        for u in neighbors {
            self.deleted_neighbors[u as usize] += 1;
            self.level[u as usize] = self.level[u as usize].max(lv);
        }
    }
}

impl ContractionHierarchy {
    /// Builds the hierarchy for `net`. Deterministic for a given network.
    pub fn build(net: &RoadNetwork) -> Self {
        let n = net.num_nodes();
        let mut b = Builder::new(net);
        let base_edges = b.edges.len();

        // Lazy-update priority queue: pop the apparent minimum, recompute
        // its priority, and reinsert when it no longer beats the new top.
        // (priority, node id) gives a strict total order, so ties contract
        // the lower node id first.
        let mut heap: BinaryHeap<Reverse<(i64, u32)>> = BinaryHeap::with_capacity(n);
        for v in 0..n as u32 {
            let p = b.priority(v);
            heap.push(Reverse((p, v)));
        }

        let mut rank = vec![0u32; n];
        let mut next_rank = 0u32;
        while let Some(Reverse((_, v))) = heap.pop() {
            if b.contracted[v as usize] {
                continue; // stale duplicate from a lazy reinsert
            }
            let p_now = b.priority(v);
            if let Some(&Reverse(top)) = heap.peek() {
                if (p_now, v) > top {
                    heap.push(Reverse((p_now, v)));
                    continue;
                }
            }
            b.contract(v);
            rank[v as usize] = next_rank;
            next_rank += 1;
        }

        // Upward CSR in both directions, keyed by *rank* (see the struct
        // docs: rank-space keeps the hot top-of-hierarchy entries
        // contiguous). Bucket contents stay in edge-id order (ascending
        // construction order) for determinism.
        let edges = b.edges;
        let mut fwd_counts = vec![0u32; n + 1];
        let mut bwd_counts = vec![0u32; n + 1];
        for e in &edges {
            if rank[e.from as usize] < rank[e.to as usize] {
                fwd_counts[rank[e.from as usize] as usize + 1] += 1;
            } else {
                bwd_counts[rank[e.to as usize] as usize + 1] += 1;
            }
        }
        for i in 0..n {
            fwd_counts[i + 1] += fwd_counts[i];
            bwd_counts[i + 1] += bwd_counts[i];
        }
        let fwd_offsets = fwd_counts;
        let bwd_offsets = bwd_counts;
        let mut fwd_cursor: Vec<u32> = fwd_offsets[..n].to_vec();
        let mut bwd_cursor: Vec<u32> = bwd_offsets[..n].to_vec();
        let mut fwd_edges = vec![NO_EDGE; fwd_offsets[n] as usize];
        let mut bwd_edges = vec![NO_EDGE; bwd_offsets[n] as usize];
        for (eid, e) in edges.iter().enumerate() {
            if rank[e.from as usize] < rank[e.to as usize] {
                let r = rank[e.from as usize] as usize;
                fwd_edges[fwd_cursor[r] as usize] = eid as u32;
                fwd_cursor[r] += 1;
            } else {
                let r = rank[e.to as usize] as usize;
                bwd_edges[bwd_cursor[r] as usize] = eid as u32;
                bwd_cursor[r] += 1;
            }
        }
        debug_assert!(fwd_edges.iter().all(|&e| e != NO_EDGE));
        debug_assert!(bwd_edges.iter().all(|&e| e != NO_EDGE));
        let fwd_to: Vec<u32> = fwd_edges
            .iter()
            .map(|&e| rank[edges[e as usize].to as usize])
            .collect();
        let fwd_w: Vec<f64> = fwd_edges
            .iter()
            .map(|&e| edges[e as usize].weight)
            .collect();
        let bwd_from: Vec<u32> = bwd_edges
            .iter()
            .map(|&e| rank[edges[e as usize].from as usize])
            .collect();
        let bwd_w: Vec<f64> = bwd_edges
            .iter()
            .map(|&e| edges[e as usize].weight)
            .collect();

        let stats = ChStats {
            nodes: n,
            base_edges,
            shortcuts: edges.len() - base_edges,
        };
        ContractionHierarchy {
            num_nodes: n,
            rank,
            edges,
            fwd_offsets,
            fwd_edges,
            fwd_to,
            fwd_w,
            bwd_offsets,
            bwd_edges,
            bwd_from,
            bwd_w,
            stats,
        }
    }

    /// Preprocessing statistics.
    pub fn stats(&self) -> ChStats {
        self.stats
    }

    /// Number of nodes the hierarchy was built for.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Contraction rank per node: `rank()[v]` is the position of node `v`
    /// in the contraction order (higher = contracted later = kept in more
    /// searches). A permutation of `0..num_nodes`.
    pub fn rank(&self) -> &[u32] {
        &self.rank
    }

    /// Upward out-adjacency of the node whose contraction rank is `r`.
    #[inline]
    fn fwd_range(&self, r: u32) -> std::ops::Range<usize> {
        self.fwd_offsets[r as usize] as usize..self.fwd_offsets[r as usize + 1] as usize
    }

    /// Upward in-adjacency of the node whose contraction rank is `r`.
    #[inline]
    fn bwd_range(&self, r: u32) -> std::ops::Range<usize> {
        self.bwd_offsets[r as usize] as usize..self.bwd_offsets[r as usize + 1] as usize
    }
}

/// Reusable bidirectional upward-search state for CH queries.
///
/// Mirrors [`DijkstraEngine`](crate::shortest_path::DijkstraEngine)'s
/// epoch-stamped reuse: no per-query O(|V|) allocation, and identical
/// queries return bitwise-identical answers regardless of what ran
/// before.
///
/// All search state is indexed by **contraction rank**, not node id
/// (endpoints are mapped through `ContractionHierarchy::rank` on entry):
/// every query funnels into the same high-rank nodes, so the hot entries
/// of `dist_*`/`epoch_*` sit in a contiguous tail instead of being
/// scattered across the node-id space.
pub struct ChQuery {
    dist_f: Vec<f64>,
    dist_b: Vec<f64>,
    parent_f: Vec<u32>,
    parent_b: Vec<u32>,
    epoch_f: Vec<u32>,
    epoch_b: Vec<u32>,
    current_epoch_f: u32,
    current_epoch_b: u32,
    heap_f: BinaryHeap<ChHeapEntry>,
    heap_b: BinaryHeap<ChHeapEntry>,
    unpack_stack: Vec<u32>,
    /// Overlay-edge chain source → meet → target of the last unpack.
    chain: Vec<u32>,
    /// Original segments of the last unpack.
    unpacked: Vec<SegmentId>,
}

impl ChQuery {
    /// Creates query state sized for `ch`.
    pub fn new(ch: &ContractionHierarchy) -> Self {
        let n = ch.num_nodes;
        ChQuery {
            dist_f: vec![UNREACHABLE; n],
            dist_b: vec![UNREACHABLE; n],
            parent_f: vec![NO_EDGE; n],
            parent_b: vec![NO_EDGE; n],
            epoch_f: vec![0; n],
            epoch_b: vec![0; n],
            current_epoch_f: 0,
            current_epoch_b: 0,
            heap_f: BinaryHeap::new(),
            heap_b: BinaryHeap::new(),
            unpack_stack: Vec::new(),
            chain: Vec::new(),
            unpacked: Vec::new(),
        }
    }

    #[inline]
    fn reset_f(&mut self) {
        self.current_epoch_f = self.current_epoch_f.wrapping_add(1);
        if self.current_epoch_f == 0 {
            self.epoch_f.fill(0);
            self.current_epoch_f = 1;
        }
        self.heap_f.clear();
    }

    #[inline]
    fn reset_b(&mut self) {
        self.current_epoch_b = self.current_epoch_b.wrapping_add(1);
        if self.current_epoch_b == 0 {
            self.epoch_b.fill(0);
            self.current_epoch_b = 1;
        }
        self.heap_b.clear();
    }

    #[inline]
    fn get_f(&self, n: u32) -> f64 {
        if self.epoch_f[n as usize] == self.current_epoch_f {
            self.dist_f[n as usize]
        } else {
            UNREACHABLE
        }
    }

    #[inline]
    fn get_b(&self, n: u32) -> f64 {
        if self.epoch_b[n as usize] == self.current_epoch_b {
            self.dist_b[n as usize]
        } else {
            UNREACHABLE
        }
    }

    /// Stall-on-demand for a settled *forward* label: a strictly shorter
    /// path to `node` arriving through a higher-ranked neighbor proves the
    /// label is not a prefix of any shortest up–down path, so expanding it
    /// cannot change a reported distance (only waste work).
    #[inline]
    fn stalled_f(&self, ch: &ContractionHierarchy, node: u32, dist: f64) -> bool {
        ch.bwd_range(node)
            .any(|i| self.get_f(ch.bwd_from[i]) + ch.bwd_w[i] < dist)
    }

    /// Stall-on-demand for a settled *backward* label (symmetric).
    #[inline]
    fn stalled_b(&self, ch: &ContractionHierarchy, node: u32, dist: f64) -> bool {
        ch.fwd_range(node)
            .any(|i| self.get_b(ch.fwd_to[i]) + ch.fwd_w[i] < dist)
    }

    /// Shortest route `source → target` bounded by `max_dist` meters,
    /// bitwise-equal to the Dijkstra oracle (see module docs).
    pub fn route(
        &mut self,
        ch: &ContractionHierarchy,
        net: &RoadNetwork,
        source: NodeId,
        target: NodeId,
        max_dist: f64,
    ) -> Option<Route> {
        // Mirrors DijkstraEngine: the source settles unconditionally, so
        // a self-query succeeds regardless of the bound.
        if source == target {
            return Some(Route {
                segments: Vec::new(),
                length: 0.0,
            });
        }
        self.reset_f();
        self.reset_b();
        let prune = prune_bound(max_dist);
        let s = ch.rank[source.0 as usize];
        let t = ch.rank[target.0 as usize];
        self.dist_f[s as usize] = 0.0;
        self.parent_f[s as usize] = NO_EDGE;
        self.epoch_f[s as usize] = self.current_epoch_f;
        self.heap_f.push(ChHeapEntry { dist: 0.0, node: s });
        self.dist_b[t as usize] = 0.0;
        self.parent_b[t as usize] = NO_EDGE;
        self.epoch_b[t as usize] = self.current_epoch_b;
        self.heap_b.push(ChHeapEntry { dist: 0.0, node: t });

        let mut best = UNREACHABLE;
        let mut meet = NO_NODE;
        loop {
            let key_f = self.heap_f.peek().map(|e| e.dist);
            let key_b = self.heap_b.peek().map(|e| e.dist);
            let forward = match (key_f, key_b) {
                (None, None) => break,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some(f), Some(b)) => f.total_cmp(&b) != Ordering::Greater,
            };
            let min_key = if forward { key_f } else { key_b };
            if let Some(k) = min_key {
                // Every remaining label on both sides is >= k; once k
                // exceeds the best meeting (or the pruned query bound),
                // no reportable improvement is possible.
                if k.total_cmp(&best) == Ordering::Greater || k > prune {
                    break;
                }
            }
            if forward {
                let Some(ChHeapEntry { dist, node }) = self.heap_f.pop() else {
                    break;
                };
                if dist > self.get_f(node) {
                    continue;
                }
                let other = self.get_b(node);
                if other < UNREACHABLE {
                    let total = dist + other;
                    match total.total_cmp(&best) {
                        Ordering::Less => {
                            best = total;
                            meet = node;
                        }
                        Ordering::Equal => {
                            if node < meet {
                                meet = node;
                            }
                        }
                        Ordering::Greater => {}
                    }
                }
                if self.stalled_f(ch, node, dist) {
                    continue;
                }
                for i in ch.fwd_range(node) {
                    let to = ch.fwd_to[i];
                    let nd = dist + ch.fwd_w[i];
                    if nd <= prune && nd < self.get_f(to) {
                        self.dist_f[to as usize] = nd;
                        self.parent_f[to as usize] = ch.fwd_edges[i];
                        self.epoch_f[to as usize] = self.current_epoch_f;
                        self.heap_f.push(ChHeapEntry { dist: nd, node: to });
                    }
                }
            } else {
                let Some(ChHeapEntry { dist, node }) = self.heap_b.pop() else {
                    break;
                };
                if dist > self.get_b(node) {
                    continue;
                }
                let other = self.get_f(node);
                if other < UNREACHABLE {
                    let total = other + dist;
                    match total.total_cmp(&best) {
                        Ordering::Less => {
                            best = total;
                            meet = node;
                        }
                        Ordering::Equal => {
                            if node < meet {
                                meet = node;
                            }
                        }
                        Ordering::Greater => {}
                    }
                }
                if self.stalled_b(ch, node, dist) {
                    continue;
                }
                for i in ch.bwd_range(node) {
                    let from = ch.bwd_from[i];
                    let nd = dist + ch.bwd_w[i];
                    if nd <= prune && nd < self.get_b(from) {
                        self.dist_b[from as usize] = nd;
                        self.parent_b[from as usize] = ch.bwd_edges[i];
                        self.epoch_b[from as usize] = self.current_epoch_b;
                        self.heap_b.push(ChHeapEntry { dist: nd, node: from });
                    }
                }
            }
        }

        if meet == NO_NODE {
            return None;
        }
        self.unpack(ch, net, meet, max_dist)
    }

    /// Walks both parent chains from `meet` (a contraction rank), unpacks
    /// shortcuts to original segments, and re-folds the length from the
    /// source (the same rounded additions Dijkstra performs). Applies the
    /// bound to the re-folded length.
    fn unpack(
        &mut self,
        ch: &ContractionHierarchy,
        net: &RoadNetwork,
        meet: u32,
        max_dist: f64,
    ) -> Option<Route> {
        let length = self.unpack_into_buffer(ch, net, meet, max_dist)?;
        Some(Route {
            segments: self.unpacked.clone(),
            length,
        })
    }

    /// [`Self::unpack`] into the reusable `unpacked` buffer; returns the
    /// re-folded length, or `None` when it exceeds the bound.
    fn unpack_into_buffer(
        &mut self,
        ch: &ContractionHierarchy,
        net: &RoadNetwork,
        meet: u32,
        max_dist: f64,
    ) -> Option<f64> {
        // Collect the up–down overlay-edge chain source → meet → target.
        self.chain.clear();
        let mut cur = meet;
        loop {
            let p = if self.epoch_f[cur as usize] == self.current_epoch_f {
                self.parent_f[cur as usize]
            } else {
                NO_EDGE
            };
            if p == NO_EDGE {
                break;
            }
            self.chain.push(p);
            cur = ch.rank[ch.edges[p as usize].from as usize];
        }
        self.chain.reverse();
        let mut cur = meet;
        loop {
            let p = if self.epoch_b[cur as usize] == self.current_epoch_b {
                self.parent_b[cur as usize]
            } else {
                NO_EDGE
            };
            if p == NO_EDGE {
                break;
            }
            self.chain.push(p);
            cur = ch.rank[ch.edges[p as usize].to as usize];
        }

        self.unpacked.clear();
        for &eid in &self.chain {
            self.unpack_stack.clear();
            self.unpack_stack.push(eid);
            while let Some(e) = self.unpack_stack.pop() {
                match ch.edges[e as usize].kind {
                    EdgeKind::Original(sid) => self.unpacked.push(sid),
                    EdgeKind::Shortcut { left, right } => {
                        self.unpack_stack.push(right);
                        self.unpack_stack.push(left);
                    }
                }
            }
        }
        let mut length = 0.0f64;
        for &sid in &self.unpacked {
            length += net.segment(sid).length;
        }
        (length <= max_dist).then_some(length)
    }

    /// Settles the complete forward up-cone of `source` within the pruned
    /// query bound `prune` (the shared half of a one-to-many query).
    fn forward_cone(&mut self, ch: &ContractionHierarchy, source: NodeId, prune: f64) {
        self.reset_f();
        let s = ch.rank[source.0 as usize];
        self.dist_f[s as usize] = 0.0;
        self.parent_f[s as usize] = NO_EDGE;
        self.epoch_f[s as usize] = self.current_epoch_f;
        self.heap_f.push(ChHeapEntry { dist: 0.0, node: s });
        while let Some(ChHeapEntry { dist, node }) = self.heap_f.pop() {
            if dist > self.get_f(node) || self.stalled_f(ch, node, dist) {
                continue;
            }
            for i in ch.fwd_range(node) {
                let to = ch.fwd_to[i];
                let nd = dist + ch.fwd_w[i];
                if nd <= prune && nd < self.get_f(to) {
                    self.dist_f[to as usize] = nd;
                    self.parent_f[to as usize] = ch.fwd_edges[i];
                    self.epoch_f[to as usize] = self.current_epoch_f;
                    self.heap_f.push(ChHeapEntry { dist: nd, node: to });
                }
            }
        }
    }

    /// Backward upward search from `target` against the settled forward
    /// cone; returns the meeting rank of the best up–down path, or
    /// `NO_NODE` when none lies within `prune`.
    fn backward_meet(&mut self, ch: &ContractionHierarchy, target: NodeId, prune: f64) -> u32 {
        self.reset_b();
        let t = ch.rank[target.0 as usize];
        self.dist_b[t as usize] = 0.0;
        self.parent_b[t as usize] = NO_EDGE;
        self.epoch_b[t as usize] = self.current_epoch_b;
        self.heap_b.push(ChHeapEntry { dist: 0.0, node: t });
        let mut best = UNREACHABLE;
        let mut meet = NO_NODE;
        while let Some(ChHeapEntry { dist, node }) = self.heap_b.pop() {
            if dist > self.get_b(node) {
                continue;
            }
            // All later labels are >= dist; none can improve best
            // or come in under the pruned query bound.
            if dist.total_cmp(&best) == Ordering::Greater || dist > prune {
                break;
            }
            let other = self.get_f(node);
            if other < UNREACHABLE {
                let total = other + dist;
                match total.total_cmp(&best) {
                    Ordering::Less => {
                        best = total;
                        meet = node;
                    }
                    Ordering::Equal => {
                        if node < meet {
                            meet = node;
                        }
                    }
                    Ordering::Greater => {}
                }
            }
            if self.stalled_b(ch, node, dist) {
                continue;
            }
            for i in ch.bwd_range(node) {
                let from = ch.bwd_from[i];
                let nd = dist + ch.bwd_w[i];
                if nd <= prune && nd < self.get_b(from) {
                    self.dist_b[from as usize] = nd;
                    self.parent_b[from as usize] = ch.bwd_edges[i];
                    self.epoch_b[from as usize] = self.current_epoch_b;
                    self.heap_b.push(ChHeapEntry { dist: nd, node: from });
                }
            }
        }
        meet
    }

    /// One-to-many counterpart of [`Self::route`], mirroring
    /// [`DijkstraEngine::node_to_nodes`](crate::shortest_path::DijkstraEngine::node_to_nodes).
    ///
    /// The forward upward search from `source` is run once to completion
    /// (its stalled up-cone is small) and shared across all targets; each
    /// target then only pays its own backward upward search. Per-pair
    /// answers are identical to [`Self::route`]'s: the forward label set
    /// here is a superset of any partially-run pairwise search, and extra
    /// labels never beat the optimum.
    pub fn node_to_nodes(
        &mut self,
        ch: &ContractionHierarchy,
        net: &RoadNetwork,
        source: NodeId,
        targets: &[NodeId],
        max_dist: f64,
    ) -> Vec<Option<Route>> {
        let prune = prune_bound(max_dist);
        self.forward_cone(ch, source, prune);
        targets
            .iter()
            .map(|&target| {
                if target == source {
                    return Some(Route {
                        segments: Vec::new(),
                        length: 0.0,
                    });
                }
                let meet = self.backward_meet(ch, target, prune);
                if meet == NO_NODE {
                    return None;
                }
                self.unpack(ch, net, meet, max_dist)
            })
            .collect()
    }

    /// [`Self::node_to_nodes`] writing into a [`RouteForest`], with the
    /// contract of
    /// [`DijkstraEngine::tree_to_nodes`](crate::shortest_path::DijkstraEngine::tree_to_nodes).
    /// Unpacked routes carry no shared search tree, so each one becomes its
    /// own chain under `root`.
    #[allow(clippy::too_many_arguments)]
    pub fn tree_to_nodes(
        &mut self,
        ch: &ContractionHierarchy,
        net: &RoadNetwork,
        source: NodeId,
        targets: &[Option<NodeId>],
        max_dist: f64,
        root: u32,
        forest: &mut RouteForest,
        out: &mut Vec<Option<(u32, f64)>>,
    ) {
        let prune = prune_bound(max_dist);
        self.forward_cone(ch, source, prune);
        out.clear();
        for &target in targets {
            let Some(target) = target else {
                out.push(None);
                continue;
            };
            if target == source {
                out.push(Some((root, 0.0)));
                continue;
            }
            let meet = self.backward_meet(ch, target, prune);
            let length = if meet == NO_NODE {
                None
            } else {
                self.unpack_into_buffer(ch, net, meet, max_dist)
            };
            out.push(length.map(|length| {
                let mut entry = root;
                for &sid in &self.unpacked {
                    entry = forest.push(entry, sid);
                }
                (entry, length)
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use crate::graph::RoadClass;
    use crate::shortest_path::DijkstraEngine;
    use lhmm_geo::Point;

    fn grid(n: usize, spacing: f64) -> RoadNetwork {
        let mut b = NetworkBuilder::new();
        let mut ids = Vec::new();
        for y in 0..n {
            for x in 0..n {
                ids.push(b.add_node(Point::new(x as f64 * spacing, y as f64 * spacing)));
            }
        }
        for y in 0..n {
            for x in 0..n {
                let i = y * n + x;
                if x + 1 < n {
                    b.add_two_way(ids[i], ids[i + 1], RoadClass::Collector).unwrap();
                }
                if y + 1 < n {
                    b.add_two_way(ids[i], ids[i + n], RoadClass::Collector).unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn ch_matches_dijkstra_on_grid() {
        let net = grid(5, 100.0);
        let ch = ContractionHierarchy::build(&net);
        let mut q = ChQuery::new(&ch);
        let mut dij = DijkstraEngine::new(&net);
        let n = net.num_nodes() as u32;
        for s in 0..n {
            for t in 0..n {
                let a = q.route(&ch, &net, NodeId(s), NodeId(t), 1e12);
                let b = dij.node_to_node(&net, NodeId(s), NodeId(t), 1e12);
                match (&a, &b) {
                    (Some(x), Some(y)) => {
                        assert!(
                            x.length.total_cmp(&y.length) == std::cmp::Ordering::Equal,
                            "{s}->{t}: ch={} dij={}",
                            x.length,
                            y.length
                        );
                    }
                    (None, None) => {}
                    _ => panic!("{s}->{t}: ch={a:?} dij={b:?}"),
                }
            }
        }
    }

    #[test]
    fn ch_respects_bound_like_dijkstra() {
        let net = grid(3, 100.0);
        let ch = ContractionHierarchy::build(&net);
        let mut q = ChQuery::new(&ch);
        assert!(q.route(&ch, &net, NodeId(0), NodeId(8), 399.0).is_none());
        assert!(q.route(&ch, &net, NodeId(0), NodeId(8), 400.0).is_some());
        // Self-queries succeed regardless of the bound, like Dijkstra.
        let r = q.route(&ch, &net, NodeId(3), NodeId(3), 0.0).unwrap();
        assert!(r.segments.is_empty());
        assert_eq!(r.length, 0.0);
    }

    #[test]
    fn ch_builds_shortcuts_on_grid() {
        let net = grid(6, 150.0);
        let ch = ContractionHierarchy::build(&net);
        let st = ch.stats();
        assert_eq!(st.nodes, 36);
        assert!(st.base_edges > 0);
        // A 2-D grid cannot be contracted without shortcuts.
        assert!(st.shortcuts > 0, "expected shortcuts, got {st:?}");
        // Ranks are a permutation.
        let mut ranks = ch.rank().to_vec();
        ranks.sort_unstable();
        assert_eq!(ranks, (0..36u32).collect::<Vec<_>>());
    }
}
