//! Road-network substrate for LHMM map matching.
//!
//! This crate provides everything the matcher needs from a digital map:
//!
//! * [`graph::RoadNetwork`] — a directed road graph (intersections + road
//!   segments) with CSR adjacency,
//! * [`builder::NetworkBuilder`] — validated programmatic construction,
//! * [`generators`] — synthetic city generators able to reproduce the scale
//!   and texture of the paper's Hangzhou/Xiamen networks,
//! * [`spatial::SpatialIndex`] — a uniform-grid index for k-nearest-segment
//!   and radius queries (candidate preparation),
//! * [`tile`] — geo-tiling with halo overlap for sharded serving
//!   ([`tile::TileGrid`], [`tile::TileScope`], [`tile::TileNetwork`]),
//! * [`shortest_path`] — bounded Dijkstra with one-to-many target sets (the
//!   transition-probability workhorse),
//! * [`ch`] — contraction-hierarchy preprocessing with bidirectional
//!   upward-search queries, pinned bitwise-equal to Dijkstra,
//! * [`backend`] — the [`backend::SpBackend`] runtime selector between the
//!   two engines,
//! * [`sp_cache::SpCache`] — the precomputation/caching layer the paper uses
//!   to avoid repeated shortest-path searches (Section V-A2); each matching
//!   engine owns one private cache,
//! * [`path::Path`] — road-segment sequences with geometry helpers,
//! * [`io`] — CSV import/export for real map extracts.
//!
//! ```
//! use lhmm_geo::Point;
//! use lhmm_network::builder::NetworkBuilder;
//! use lhmm_network::graph::RoadClass;
//! use lhmm_network::shortest_path::DijkstraEngine;
//!
//! // Two intersections joined by a two-way road.
//! let mut b = NetworkBuilder::new();
//! let a = b.add_node(Point::new(0.0, 0.0));
//! let c = b.add_node(Point::new(300.0, 400.0));
//! b.add_two_way(a, c, RoadClass::Collector).unwrap();
//! let net = b.build().unwrap();
//!
//! let mut dijkstra = DijkstraEngine::new(&net);
//! let route = dijkstra.node_to_node(&net, a, c, 1_000.0).unwrap();
//! assert_eq!(route.length, 500.0);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod backend;
pub mod builder;
pub mod ch;
pub mod generators;
pub mod graph;
pub mod io;
pub mod path;
pub mod shortest_path;
pub mod sp_cache;
pub mod spatial;
pub mod tile;

pub use backend::{SpBackend, SpEngine, SpHandle};
pub use builder::NetworkBuilder;
pub use graph::{NodeId, RoadNetwork, SegmentId};
pub use path::Path;
pub use shortest_path::UNREACHABLE;
pub use spatial::SpatialIndex;
pub use tile::{TileGrid, TileNetwork, TileScope};
