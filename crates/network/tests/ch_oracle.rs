//! Dijkstra-oracle property suite for the contraction-hierarchy backend.
//!
//! The CH engine is only allowed into the matching pipeline because this
//! suite pins it **bitwise** to the scalar Dijkstra oracle: every
//! distance must be `total_cmp`-equal (not approximately equal), every
//! reachability verdict must agree — including unreachable pairs across
//! disconnected components — and repeated queries must be bitwise
//! deterministic.

use lhmm_geo::Point;
use lhmm_network::backend::{SpBackend, SpHandle};
use lhmm_network::builder::NetworkBuilder;
use lhmm_network::ch::{ChQuery, ContractionHierarchy};
use lhmm_network::generators::{generate_city, GeneratorConfig};
use lhmm_network::graph::RoadClass;
use lhmm_network::shortest_path::{DijkstraEngine, RouteForest, NO_ENTRY, UNREACHABLE};
use lhmm_network::SegmentId;
use lhmm_network::{NodeId, RoadNetwork};
use proptest::prelude::*;
use std::cmp::Ordering;

/// Uniform n×n grid, axis edges only: all arithmetic exact.
fn uniform_grid(n: usize, spacing: f64) -> RoadNetwork {
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

/// Hub-and-spoke: one center, `spokes` rays of `depth` nodes each, plus a
/// ring joining the innermost ring nodes. High-degree hub stresses the
/// contraction order.
fn radial(spokes: usize, depth: usize) -> RoadNetwork {
    let mut b = NetworkBuilder::new();
    let hub = b.add_node(Point::new(0.0, 0.0));
    let mut rings: Vec<Vec<_>> = Vec::new();
    for s in 0..spokes {
        let angle = s as f64 / spokes as f64 * std::f64::consts::TAU;
        let mut prev = hub;
        let mut ray = Vec::new();
        for d in 1..=depth {
            let r = d as f64 * 120.0;
            let id = b.add_node(Point::new(r * angle.cos(), r * angle.sin()));
            b.add_two_way(prev, id, RoadClass::Local).unwrap();
            prev = id;
            ray.push(id);
        }
        rings.push(ray);
    }
    for s in 0..spokes {
        b.add_two_way(rings[s][0], rings[(s + 1) % spokes][0], RoadClass::Collector)
            .unwrap();
    }
    b.build().unwrap()
}

/// Two disjoint 3×3 grids in one network: cross-component queries must be
/// `None` under both backends.
fn two_components() -> RoadNetwork {
    let mut b = NetworkBuilder::new();
    let mut make_grid = |ox: f64| {
        let mut ids = Vec::new();
        for y in 0..3 {
            for x in 0..3 {
                ids.push(b.add_node(Point::new(ox + x as f64 * 100.0, y as f64 * 100.0)));
            }
        }
        for y in 0..3 {
            for x in 0..3 {
                let i = y * 3 + x;
                if x + 1 < 3 {
                    b.add_two_way(ids[i], ids[i + 1], RoadClass::Local).unwrap();
                }
                if y + 1 < 3 {
                    b.add_two_way(ids[i], ids[i + 3], RoadClass::Local).unwrap();
                }
            }
        }
        ids
    };
    let _left = make_grid(0.0);
    let _right = make_grid(1e6);
    b.build().unwrap()
}

/// Asserts CH ≡ Dijkstra for one pair at one bound. Distances compare via
/// `total_cmp`; segment sequences must match when `check_segments`.
#[allow(clippy::too_many_arguments)]
fn assert_pair(
    net: &RoadNetwork,
    ch: &ContractionHierarchy,
    q: &mut ChQuery,
    dij: &mut DijkstraEngine,
    s: NodeId,
    t: NodeId,
    bound: f64,
    check_segments: bool,
) {
    let a = q.route(ch, net, s, t, bound);
    let b = dij.node_to_node(net, s, t, bound);
    match (&a, &b) {
        (Some(x), Some(y)) => {
            assert_eq!(
                x.length.total_cmp(&y.length),
                Ordering::Equal,
                "{s:?}->{t:?}@{bound}: ch={} dij={}",
                x.length,
                y.length
            );
            if check_segments {
                assert_eq!(x.segments, y.segments, "{s:?}->{t:?}@{bound}");
            }
        }
        (None, None) => {}
        _ => panic!(
            "{s:?}->{t:?}@{bound}: ch={:?} dij={:?}",
            a.as_ref().map(|r| r.length),
            b.as_ref().map(|r| r.length)
        ),
    }
}

#[test]
fn degenerate_networks_are_rejected_by_the_builder() {
    // CH never sees an empty or single-node network: the builder refuses
    // to construct one, under both backends equally.
    assert!(NetworkBuilder::new().build().is_err());
    let mut single = NetworkBuilder::new();
    single.add_node(Point::new(0.0, 0.0));
    assert!(single.build().is_err());
    // Self-loops (the only possible single-node edge) are rejected too.
    let mut looped = NetworkBuilder::new();
    let n = looped.add_node(Point::new(0.0, 0.0));
    assert!(looped.add_segment(n, n, RoadClass::Local).is_err());
}

#[test]
fn smallest_valid_network_matches_oracle() {
    let mut b = NetworkBuilder::new();
    let a = b.add_node(Point::new(0.0, 0.0));
    let c = b.add_node(Point::new(300.0, 400.0));
    b.add_two_way(a, c, RoadClass::Local).unwrap();
    let net = b.build().unwrap();
    let ch = ContractionHierarchy::build(&net);
    let mut q = ChQuery::new(&ch);
    let mut dij = DijkstraEngine::new(&net);
    for &(s, t) in &[(a, c), (c, a), (a, a), (c, c)] {
        for &bound in &[0.0, 499.0, 500.0, 1e9, UNREACHABLE] {
            assert_pair(&net, &ch, &mut q, &mut dij, s, t, bound, true);
        }
    }
}

#[test]
fn disconnected_components_are_unreachable_under_both_backends() {
    let net = two_components();
    let ch = ContractionHierarchy::build(&net);
    let mut q = ChQuery::new(&ch);
    let mut dij = DijkstraEngine::new(&net);
    // Node 0..9 left grid, 9..18 right grid.
    for s in 0..9u32 {
        for t in 9..18u32 {
            assert!(q.route(&ch, &net, NodeId(s), NodeId(t), UNREACHABLE).is_none());
            assert!(q.route(&ch, &net, NodeId(t), NodeId(s), UNREACHABLE).is_none());
            assert_pair(
                &net,
                &ch,
                &mut q,
                &mut dij,
                NodeId(s),
                NodeId(t),
                UNREACHABLE,
                true,
            );
        }
    }
    // Within-component queries still work. The uniform grids have tied
    // shortest paths, so only distances are pinned here.
    assert_pair(&net, &ch, &mut q, &mut dij, NodeId(0), NodeId(8), UNREACHABLE, false);
    assert_pair(&net, &ch, &mut q, &mut dij, NodeId(9), NodeId(17), UNREACHABLE, false);
}

#[test]
fn radial_network_matches_oracle_exhaustively() {
    let net = radial(7, 4);
    let ch = ContractionHierarchy::build(&net);
    let mut q = ChQuery::new(&ch);
    let mut dij = DijkstraEngine::new(&net);
    let n = net.num_nodes() as u32;
    for s in 0..n {
        for t in 0..n {
            // Radial geometry is irrational: shortest paths are unique, so
            // segment sequences must match too.
            assert_pair(&net, &ch, &mut q, &mut dij, NodeId(s), NodeId(t), UNREACHABLE, true);
        }
    }
}

#[test]
fn uniform_grid_distances_match_bitwise_despite_ties() {
    // Exact arithmetic: many tied shortest paths, but every tied fold is
    // exact, so distances still agree bitwise (segments may differ).
    let net = uniform_grid(7, 250.0);
    let ch = ContractionHierarchy::build(&net);
    let mut q = ChQuery::new(&ch);
    let mut dij = DijkstraEngine::new(&net);
    let n = net.num_nodes() as u32;
    for s in 0..n {
        for t in 0..n {
            assert_pair(&net, &ch, &mut q, &mut dij, NodeId(s), NodeId(t), UNREACHABLE, false);
        }
    }
}

#[test]
fn query_after_query_is_bitwise_deterministic() {
    let net = generate_city(&GeneratorConfig::small_test(42));
    let ch = ContractionHierarchy::build(&net);
    let mut q = ChQuery::new(&ch);
    let n = net.num_nodes() as u32;
    let mut answered = 0usize;
    for i in 0..60u32 {
        let s = NodeId((i * 37) % n);
        let t = NodeId((i * 101 + 13) % n);
        let first = q.route(&ch, &net, s, t, UNREACHABLE);
        // Interleave an unrelated query to dirty the reusable state.
        let _ = q.route(&ch, &net, NodeId((i * 7 + 3) % n), NodeId(i % n), 2_000.0);
        let second = q.route(&ch, &net, s, t, UNREACHABLE);
        // A fresh query object must agree as well.
        let fresh = ChQuery::new(&ch).route(&ch, &net, s, t, UNREACHABLE);
        match (&first, &second, &fresh) {
            (Some(a), Some(b), Some(c)) => {
                assert_eq!(a.length.to_bits(), b.length.to_bits(), "{s:?}->{t:?}");
                assert_eq!(a.length.to_bits(), c.length.to_bits(), "{s:?}->{t:?}");
                assert_eq!(a.segments, b.segments, "{s:?}->{t:?}");
                assert_eq!(a.segments, c.segments, "{s:?}->{t:?}");
                answered += 1;
            }
            (None, None, None) => {}
            _ => panic!("{s:?}->{t:?}: repeat/fresh queries disagree"),
        }
    }
    assert!(answered > 10, "too few reachable pairs exercised");
}

#[test]
fn rebuilding_the_hierarchy_is_deterministic() {
    let net = generate_city(&GeneratorConfig::small_test(7));
    let a = ContractionHierarchy::build(&net);
    let b = ContractionHierarchy::build(&net);
    assert_eq!(a.stats().shortcuts, b.stats().shortcuts);
    assert_eq!(a.stats().base_edges, b.stats().base_edges);
    let mut qa = ChQuery::new(&a);
    let mut qb = ChQuery::new(&b);
    let n = net.num_nodes() as u32;
    for i in 0..40u32 {
        let s = NodeId((i * 19) % n);
        let t = NodeId((i * 53 + 7) % n);
        let ra = qa.route(&a, &net, s, t, UNREACHABLE);
        let rb = qb.route(&b, &net, s, t, UNREACHABLE);
        assert_eq!(
            ra.as_ref().map(|r| (r.length.to_bits(), r.segments.clone())),
            rb.as_ref().map(|r| (r.length.to_bits(), r.segments.clone())),
            "{s:?}->{t:?}"
        );
    }
}

#[test]
fn one_to_many_matches_oracle_with_duplicates_and_self() {
    let net = generate_city(&GeneratorConfig::small_test(23));
    let sp = SpHandle::build(&net, SpBackend::Ch);
    let mut ce = sp.engine(&net);
    let mut de = SpHandle::build(&net, SpBackend::Dijkstra).engine(&net);
    let n = net.num_nodes() as u32;
    let source = NodeId(3 % n);
    let targets = [
        NodeId(10 % n),
        NodeId(10 % n), // duplicate
        source,         // self
        NodeId((n - 1) % n),
        NodeId(27 % n),
    ];
    for &bound in &[500.0, 3_000.0, UNREACHABLE] {
        let a = ce.node_to_nodes(&net, source, &targets, bound);
        let b = de.node_to_nodes(&net, source, &targets, bound);
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            match (x, y) {
                (Some(x), Some(y)) => {
                    assert_eq!(x.length.to_bits(), y.length.to_bits(), "target {i}@{bound}");
                    assert_eq!(x.segments, y.segments, "target {i}@{bound}");
                }
                (None, None) => {}
                _ => panic!("target {i}@{bound}: {x:?} vs {y:?}"),
            }
        }
    }
}

/// Routes written into a shared forest (Dijkstra grafts its search tree,
/// CH appends unpacked chains) read back bitwise-equal to the one-to-many
/// `Vec` answers, under a caller root and across several searches filling
/// the same forest.
#[test]
fn forest_routes_match_one_to_many_under_both_backends() {
    let net = generate_city(&GeneratorConfig::small_test(29));
    let n = net.num_nodes() as u32;
    for backend in [SpBackend::Dijkstra, SpBackend::Ch] {
        let sp = SpHandle::build(&net, backend);
        let mut eng = sp.engine(&net);
        let mut oracle = SpHandle::build(&net, SpBackend::Dijkstra).engine(&net);
        let mut forest = RouteForest::default();
        let mut out = Vec::new();
        let mut segs = Vec::new();
        for (si, &bound) in [800.0, 3_000.0, UNREACHABLE].iter().enumerate() {
            let source = NodeId((si as u32 * 37 + 3) % n);
            let targets: Vec<NodeId> = (0..12u32)
                .map(|i| NodeId((i * 29 + si as u32 * 11) % n))
                .chain([source, NodeId(5 % n), NodeId(5 % n)])
                .collect();
            // Alternate between a marker root segment and a bare forest.
            let root = if si % 2 == 0 { forest.push(NO_ENTRY, SegmentId(0)) } else { NO_ENTRY };
            let skip = usize::from(root != NO_ENTRY);
            // Every third target is not wanted: it must come back `None`
            // and leave the other answers alone.
            let wanted: Vec<Option<NodeId>> = targets
                .iter()
                .enumerate()
                .map(|(i, &t)| (i % 3 != 1).then_some(t))
                .collect();
            eng.tree_to_nodes(&net, source, &wanted, bound, root, &mut forest, &mut out);
            let want = oracle.node_to_nodes(&net, source, &targets, bound);
            assert_eq!(out.len(), want.len());
            for (i, (got, want)) in out.iter().zip(&want).enumerate() {
                if i % 3 == 1 {
                    assert!(got.is_none(), "{backend:?} unwanted target {i} answered");
                    continue;
                }
                match (got, want) {
                    (Some((entry, len)), Some(r)) => {
                        assert_eq!(len.to_bits(), r.length.to_bits(), "{backend:?} target {i}@{bound}");
                        if *entry == NO_ENTRY {
                            assert!(r.segments.is_empty());
                        } else {
                            forest.segments_into(*entry, &mut segs);
                            assert_eq!(&segs[skip..], &r.segments[..], "{backend:?} target {i}@{bound}");
                        }
                    }
                    (None, None) => {}
                    _ => panic!("{backend:?} target {i}@{bound}: {got:?} vs {want:?}"),
                }
            }
        }
        // Parents precede children, and depths count the prefix.
        for (idx, e) in forest.entries().iter().enumerate() {
            if e.parent == NO_ENTRY {
                assert_eq!(e.depth, 1);
            } else {
                assert!((e.parent as usize) < idx);
                assert_eq!(e.depth, forest.entries()[e.parent as usize].depth + 1);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On jittered generated cities (unique shortest paths) CH must agree
    /// with Dijkstra bitwise — distance AND segment sequence — for every
    /// sampled pair, at an unbounded and a moderate bound.
    #[test]
    fn ch_equals_dijkstra_on_generated_cities(seed in 0u64..1000, salt in 0u64..1000) {
        let net = generate_city(&GeneratorConfig::small_test(seed));
        let ch = ContractionHierarchy::build(&net);
        let mut q = ChQuery::new(&ch);
        let mut dij = DijkstraEngine::new(&net);
        let n = net.num_nodes() as u32;
        for i in 0..12u64 {
            let s = NodeId(((salt.wrapping_mul(31).wrapping_add(i * 17)) % n as u64) as u32);
            let t = NodeId(((salt.wrapping_mul(7).wrapping_add(i * 41 + 5)) % n as u64) as u32);
            assert_pair(&net, &ch, &mut q, &mut dij, s, t, UNREACHABLE, true);
            assert_pair(&net, &ch, &mut q, &mut dij, s, t, 2_500.0, true);
        }
    }

    /// The reachability verdict flips at exactly the same bound for both
    /// backends: `Some` at `length`, `None` one ulp below it.
    #[test]
    fn bound_cutover_is_bitwise_aligned(seed in 0u64..500) {
        let net = generate_city(&GeneratorConfig::small_test(seed));
        let ch = ContractionHierarchy::build(&net);
        let mut q = ChQuery::new(&ch);
        let mut dij = DijkstraEngine::new(&net);
        let n = net.num_nodes() as u32;
        let s = NodeId(seed as u32 % n);
        let t = NodeId((seed as u32 * 29 + 11) % n);
        prop_assume!(s != t);
        let Some(r) = dij.node_to_node(&net, s, t, UNREACHABLE) else {
            // Unreachable: CH must agree at any bound.
            prop_assert!(q.route(&ch, &net, s, t, UNREACHABLE).is_none());
            return Ok(());
        };
        let at = q.route(&ch, &net, s, t, r.length);
        prop_assert!(at.is_some(), "CH misses route at its exact length");
        prop_assert_eq!(at.map(|x| x.length.to_bits()), Some(r.length.to_bits()));
        let below = r.length.next_down();
        prop_assert!(q.route(&ch, &net, s, t, below).is_none());
        prop_assert!(dij.node_to_node(&net, s, t, below).is_none());
    }
}
