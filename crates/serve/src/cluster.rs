//! Geo-sharded cluster serving: a tile router in front of per-tile shard
//! servers, with sticky streaming sessions, journal replay and crash
//! supervision.
//!
//! ```text
//! clients ──▶ router (TCP front end, same wire protocol)
//!               │  one-shots: routed by the first point's tile
//!               │  sessions:  opened on the tile of the first push and
//!               │             kept there until the finish; the router
//!               │             journals every accepted push
//!               ▼
//!         supervisor ──▶ shard 0 .. shard N-1  (one ServerHandle per tile)
//!               │             each holds the FULL road network (shortest
//!               │             paths legally span the whole map) plus its
//!               │             tile's subset spatial index for in-core
//!               │             streaming candidate lookups
//!               └ health-pings every shard; restarts dead ones with
//!                 bounded backoff
//! ```
//!
//! **Exactness contract.** A cluster produces byte-identical verdicts to a
//! single unsharded server, which itself matches serial offline streaming:
//!
//! * Candidate preparation uses the tile's subset index only for positions
//!   inside the tile core (where the halo provably covers the search
//!   radius); everything else falls back to the full index — see
//!   [`crate::session::SessionManager::with_scope`].
//! * A session stays on the shard that placed it, like a one-shot stays on
//!   the tile of its first point. Every shard holds the full network, so a
//!   push that has left the home tile is matched there through the full
//!   index — the answer any shard would give.
//! * Journal replay is the one way a session moves: after a shard crash,
//!   after a placement that was shed, or when the home shard is gone for
//!   good, the router replays its journal of accepted pushes onto the tile
//!   of the push at hand (the last accepted push's tile for a finish). The
//!   beam state is a pure deterministic function of the accepted
//!   `(position, time, layer)` sequence, so the rebuilt session is
//!   byte-identical to one that never moved, and it holds every accepted
//!   point, so the refresh statistics fed at finish cover the whole trip —
//!   a killed shard loses nothing that was admitted.
//!
//! Known divergence from single-process serving: `Open` is deferred (the
//! tile is unknown until the first located push), so a
//! [`RejectReason::SessionLimit`] shed surfaces at the first `Push` rather
//! than at `Open`.

use crate::admission::RejectReason;
use crate::metrics::{ServeMetrics, ServeReport};
use crate::protocol::{
    read_request, read_response, write_request, write_response, Request, Response,
    WireMatchError,
};
use crate::scheduler::ServeCtx;
use crate::server::{ServeConfig, ServerHandle};
use lhmm_cellsim::traj::CellularPoint;
use lhmm_core::registry::{ModelRegistry, ModelVersion, RegistryError};
use lhmm_geo::Point;
use lhmm_network::graph::RoadNetwork;
use lhmm_network::spatial::SpatialIndex;
use lhmm_network::tile::{TileGrid, TileScope};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use lhmm_core::sync::{rank, OrderedMutex};
use std::sync::Arc;
use std::thread::{Scope, ScopedJoinHandle};
use std::time::Duration;

/// Cluster-wide configuration (the grid itself lives in
/// [`ClusterTopology`], which must outlive the serving scope).
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Per-shard server configuration.
    pub shard: ServeConfig,
    /// Restart budget per shard; once exhausted the tile stays down and
    /// its requests are shed.
    pub max_restarts: u32,
    /// Supervisor health-ping cadence.
    pub ping_interval: Duration,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shard: ServeConfig::default(),
            max_restarts: 4,
            ping_interval: Duration::from_millis(20),
        }
    }
}

/// The immutable sharding plan: a [`TileGrid`] plus one pre-built
/// [`TileScope`] (halo subset index) per tile. Built once outside the
/// serving scope so shard threads can borrow it.
pub struct ClusterTopology {
    grid: TileGrid,
    scopes: Vec<TileScope>,
}

impl ClusterTopology {
    /// Partitions `net` into `cols x rows` tiles with `halo` metres of
    /// overlap, building each tile's subset index at the same cell size as
    /// `index` (identical cell size + origin is what makes subset lookups
    /// byte-identical to full-index lookups for in-core positions).
    pub fn build(
        net: &RoadNetwork,
        index: &SpatialIndex,
        cols: usize,
        rows: usize,
        halo: f64,
    ) -> Self {
        let grid = TileGrid::new(net, cols, rows, halo);
        let scopes = (0..grid.num_tiles())
            .map(|t| TileScope::build(net, &grid, t, index.cell_size()))
            .collect();
        ClusterTopology { grid, scopes }
    }

    /// The tile grid (assignment + geometry).
    pub fn grid(&self) -> &TileGrid {
        &self.grid
    }

    /// Number of tiles (= shards).
    pub fn num_tiles(&self) -> usize {
        self.scopes.len()
    }

    /// The pre-built scope for one tile.
    pub fn scope(&self, tile: usize) -> &TileScope {
        &self.scopes[tile]
    }

    /// The tile a position routes to — a pure function of the position
    /// (boundary ties break to the lower tile id, off-map positions go to
    /// the nearest core).
    pub fn route(&self, pos: Point) -> usize {
        self.grid.assign(pos)
    }
}

fn empty_report() -> ServeReport {
    ServeMetrics::new().snapshot(0, 0)
}

/// One shard slot: the live handle (None while down) and its consumed
/// restart budget.
struct ShardSlot<'scope, 'env> {
    handle: Option<ServerHandle<'scope, 'env>>,
    restarts: u32,
}

/// Spawns, health-checks, kills, and restarts shard servers. Restart state
/// is per-slot behind its own mutex so the router and the monitor thread
/// can both drive recovery without coordinating.
struct Supervisor<'scope, 'env> {
    scope: &'scope Scope<'scope, 'env>,
    serves: Vec<ServeCtx<'env>>,
    shard_config: ServeConfig,
    max_restarts: u32,
    slots: Vec<OrderedMutex<ShardSlot<'scope, 'env>>>,
    /// Final reports of aborted (crashed) shard generations, folded in as
    /// they die so nothing is lost from the cluster rollup.
    dead: OrderedMutex<ServeReport>,
    restarts_total: AtomicU64,
}

impl<'scope, 'env> Supervisor<'scope, 'env> {
    fn start(
        scope: &'scope Scope<'scope, 'env>,
        serves: Vec<ServeCtx<'env>>,
        shard_config: ServeConfig,
        max_restarts: u32,
    ) -> io::Result<Self> {
        let slots = serves
            .iter()
            .map(|serve| {
                let handle = ServerHandle::start(scope, *serve, shard_config.clone())?;
                // Rank-ordered (DESIGN §15): slots sit above the dead
                // rollup and below the router's session/conn locks.
                Ok(OrderedMutex::new(rank::SUPERVISOR_SLOT, "supervisor.slot", ShardSlot {
                    handle: Some(handle),
                    restarts: 0,
                }))
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Supervisor {
            scope,
            serves,
            shard_config,
            max_restarts,
            slots,
            dead: OrderedMutex::new(rank::SUPERVISOR_DEAD, "supervisor.dead", empty_report()),
            restarts_total: AtomicU64::new(0),
        })
    }

    /// Hard-kills the shard serving `tile` (the simulated crash): open
    /// sessions are dropped unfinalized. Returns false when already down.
    fn kill(&self, tile: usize) -> bool {
        let mut slot = self.slots[tile].lock();
        match slot.handle.take() {
            Some(h) => {
                let report = h.abort();
                self.dead.lock().merge(&report);
                true
            }
            None => false,
        }
    }

    /// Returns the address of a live shard for `tile`, restarting a dead
    /// one within the bounded budget (backoff doubles per consumed
    /// restart). `None` means the budget is exhausted and the tile is
    /// permanently down.
    fn ensure_alive(&self, tile: usize) -> Option<SocketAddr> {
        // Claim a restart and compute the backoff with the slot lock held,
        // but SLEEP WITH IT RELEASED: dozing under the guard would stall
        // the monitor and every router call targeting this tile for the
        // whole backoff window (this was a real guard-across-blocking
        // finding; see DESIGN §15).
        let backoff = {
            let mut slot = self.slots[tile].lock();
            if let Some(h) = &slot.handle {
                return Some(h.addr());
            }
            if slot.restarts >= self.max_restarts {
                return None;
            }
            slot.restarts += 1;
            Duration::from_millis(1u64 << slot.restarts.min(6))
        };
        std::thread::sleep(backoff);
        let mut slot = self.slots[tile].lock();
        if let Some(addr) = slot.handle.as_ref().map(|h| h.addr()) {
            // A concurrent caller restarted the shard while we slept:
            // refund the restart we claimed — no generation was consumed.
            slot.restarts -= 1;
            return Some(addr);
        }
        match ServerHandle::start(self.scope, self.serves[tile], self.shard_config.clone()) {
            Ok(h) => {
                self.restarts_total.fetch_add(1, Ordering::Relaxed);
                let addr = h.addr();
                slot.handle = Some(h);
                Some(addr)
            }
            Err(_) => None,
        }
    }

    /// One monitor sweep: ping every shard, tear down any that does not
    /// answer, and restart the dead within budget.
    fn health_check(&self) {
        for tile in 0..self.slots.len() {
            let addr = self.slots[tile]
                .lock()
                .handle
                .as_ref()
                .map(|h| h.addr());
            let alive = match addr {
                Some(a) => ping(a),
                None => false,
            };
            if !alive {
                if addr.is_some() {
                    self.kill(tile);
                }
                let _ = self.ensure_alive(tile);
            }
        }
    }

    /// Live rollup across running shards plus everything already dead.
    fn report(&self) -> ServeReport {
        let mut merged = self.dead.lock().clone();
        for slot in &self.slots {
            let slot = slot.lock();
            if let Some(h) = &slot.handle {
                merged.merge(&h.report());
            }
        }
        merged
    }

    /// Gracefully drains every running shard and returns the full rollup
    /// (drained + previously dead generations).
    fn drain_all(&self) -> ServeReport {
        let mut merged = self.dead.lock().clone();
        for slot in &self.slots {
            let handle = slot.lock().handle.take();
            if let Some(h) = handle {
                merged.merge(&h.shutdown_and_drain());
            }
        }
        merged
    }
}

/// One health ping over a throwaway connection.
fn ping(addr: SocketAddr) -> bool {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return false;
    };
    let _ = stream.set_nodelay(true);
    if write_request(&mut stream, &Request::Ping).is_err() {
        return false;
    }
    matches!(read_response(&mut stream), Ok(Response::Pong { .. }))
}

/// Router-side record of one streaming session.
struct SessionEntry {
    /// The session's home: the shard holding it (`None` until the first
    /// located push, and again once that shard lost the session or a
    /// placement failed — the next push or finish replays the journal).
    tile: Option<usize>,
    /// Fixed lag requested at `Open`, replayed on shard-side opens.
    lag: u32,
    /// Model version the session was pinned to at router admission,
    /// resolved to a concrete number (never 0) so replays onto any shard,
    /// restarted or not, re-open under the *original* pin even if the
    /// active version swapped since — one session, one version, always.
    version: u32,
    /// Every accepted push since `Open`, in order. The beam state is a
    /// pure function of this sequence, so replaying it onto a fresh shard
    /// rebuilds the session byte-exactly. Failed pushes are not recorded
    /// (the shard engine rejected the layer and undid it).
    journal: Vec<CellularPoint>,
}

struct RouterShared<'scope, 'env> {
    topology: &'env ClusterTopology,
    supervisor: Supervisor<'scope, 'env>,
    /// The cluster-wide registry all shards share. Model-plane requests
    /// (swap/shadow/refresh) act on it once, here — every shard observes
    /// the change atomically, so shards can never disagree on the active
    /// version.
    registry: &'env ModelRegistry,
    sessions: OrderedMutex<HashMap<u64, SessionEntry>>,
    /// Router-plane metrics: sheds the router itself issues (shards never
    /// see those requests, so merging with shard reports double-counts
    /// nothing).
    metrics: Arc<ServeMetrics>,
    shutting_down: AtomicBool,
    monitor_stop: AtomicBool,
    /// One pooled connection per shard; session ops are serialized by the
    /// sessions mutex, one-shots serialize per tile on these locks.
    conns: Vec<OrderedMutex<Option<(SocketAddr, TcpStream)>>>,
    peers: OrderedMutex<Vec<TcpStream>>,
    handlers: OrderedMutex<Vec<ScopedJoinHandle<'scope, ()>>>,
    replays: AtomicU64,
}

impl RouterShared<'_, '_> {
    /// One request/response exchange with the shard serving `tile`, over
    /// the pooled connection. A transport failure tears the shard down and
    /// retries (the supervisor restarts it within budget); `None` means
    /// the tile is unreachable for good.
    fn rpc(&self, tile: usize, req: &Request) -> Option<Response> {
        let mut conn = self.conns[tile].lock();
        for _ in 0..3 {
            let addr = self.supervisor.ensure_alive(tile)?;
            if conn.as_ref().map(|(a, _)| *a) != Some(addr) {
                *conn = None;
            }
            if conn.is_none() {
                // The conn mutex EXISTS to serialize this tile's stream;
                // connect is part of the critical section it protects.
                // lint:allow(guard-across-blocking): intended per-tile serialization
                match TcpStream::connect(addr) {
                    Ok(s) => {
                        let _ = s.set_nodelay(true);
                        *conn = Some((addr, s));
                    }
                    Err(_) => {
                        // Live handle, dead listener: the shard is gone.
                        self.supervisor.kill(tile);
                        continue;
                    }
                }
            }
            if let Some((_, stream)) = conn.as_mut() {
                // Request/response pairs on the pooled stream must not
                // interleave across threads; holding the conn guard across
                // the exchange is the point.
                // lint:allow(guard-across-blocking): intended per-tile serialization
                if write_request(stream, req).is_ok() {
                    // lint:allow(guard-across-blocking): same exchange as the write above
                    if let Ok(resp) = read_response(stream) {
                        return Some(resp);
                    }
                }
            }
            // The shard died mid-exchange: drop the connection and let
            // the next attempt restart it.
            *conn = None;
            self.supervisor.kill(tile);
        }
        None
    }

    /// Rebuilds `client`'s session on `tile` by replaying the journal.
    /// Byte-exact: the beam state is a pure function of the accepted push
    /// sequence. Returns the rejection to forward on failure.
    fn replay(
        &self,
        entry: &mut SessionEntry,
        client: u64,
        tile: usize,
    ) -> Result<(), RejectReason> {
        entry.tile = None;
        let open = Request::Open {
            client,
            lag: entry.lag,
            version: entry.version,
        };
        'attempt: for attempt in 0..2 {
            match self.rpc(tile, &open) {
                Some(Response::Pushed { .. }) => {}
                Some(Response::Reject(r)) => return Err(r),
                _ => return Err(RejectReason::ShuttingDown),
            }
            for point in &entry.journal {
                match self.rpc(tile, &Request::Push { client, point: *point }) {
                    Some(Response::Pushed { .. }) => {}
                    Some(Response::Reject(r)) => return Err(r),
                    // A journaled push was accepted once and replay is
                    // deterministic, so EmptyTrajectory (code 0) means the
                    // shard restarted during the replay and lost the
                    // session just opened: start over from `Open` once.
                    Some(Response::Failed(e)) if e.code == 0 && attempt == 0 => {
                        continue 'attempt;
                    }
                    // Anything else is a dead shard.
                    _ => return Err(RejectReason::ShuttingDown),
                }
            }
            if !entry.journal.is_empty() {
                self.replays.fetch_add(1, Ordering::Relaxed);
            }
            entry.tile = Some(tile);
            return Ok(());
        }
        Err(RejectReason::ShuttingDown)
    }

    /// Finalizes `client`'s session on its shard. A journaled session no
    /// shard holds (a crash or a shed replay left it nowhere) is replayed
    /// onto the tile of its last accepted push first.
    fn finish(&self, entry: &mut SessionEntry, client: u64) -> Response {
        let tile = match (entry.tile, entry.journal.last()) {
            (Some(tile), _) => tile,
            (None, Some(last)) => {
                let tile = self.topology.route(last.effective_pos());
                if let Err(reason) = self.replay(entry, client, tile) {
                    return Response::Reject(reason);
                }
                tile
            }
            // Opened but never successfully pushed: the empty route,
            // exactly what finalizing a fresh engine yields.
            (None, None) => {
                return Response::Route {
                    segments: Vec::new(),
                    degraded: false,
                }
            }
        };
        for attempt in 0..2 {
            match self.rpc(tile, &Request::Finish { client }) {
                // The shard restarted and lost the session: rebuild it
                // from the journal and finalize again, once.
                Some(Response::Failed(e)) if e.code == 0 && attempt == 0 => {
                    if let Err(reason) = self.replay(entry, client, tile) {
                        return Response::Reject(reason);
                    }
                }
                Some(resp) => return resp,
                // The home shard is gone for good: a later finish replays
                // onto the tile of the last accepted push.
                None => {
                    entry.tile = None;
                    return Response::Reject(RejectReason::ShuttingDown);
                }
            }
        }
        Response::Reject(RejectReason::ShuttingDown)
    }

    fn respond(&self, req: Request) -> Response {
        if self.shutting_down.load(Ordering::Acquire) {
            if matches!(req, Request::Ping) {
                let sessions = self.sessions.lock().len() as u32;
                return Response::Pong { sessions };
            }
            self.metrics.on_rejected(RejectReason::ShuttingDown);
            return Response::Reject(RejectReason::ShuttingDown);
        }
        match req {
            Request::OneShot { traj } => {
                let tile = traj
                    .points
                    .first()
                    .map(|p| self.topology.route(p.effective_pos()))
                    .unwrap_or(0);
                match self.rpc(tile, &Request::OneShot { traj }) {
                    Some(resp) => resp,
                    None => {
                        self.metrics.on_rejected(RejectReason::ShuttingDown);
                        Response::Reject(RejectReason::ShuttingDown)
                    }
                }
            }
            Request::Open { client, lag, version } => {
                // Pin at router admission: resolve 0 to the concrete
                // active version NOW, so every shard-side open and replay
                // for this session carries the same explicit pin
                // regardless of later swaps.
                let resolved = match self.registry.resolve(version) {
                    Ok(pin) => pin.manifest.version.0,
                    Err(_) => {
                        self.metrics.on_rejected(RejectReason::Invalid);
                        return Response::Reject(RejectReason::Invalid);
                    }
                };
                let mut sessions = self.sessions.lock();
                if let Some(mut old) = sessions.remove(&client) {
                    // Mirror single-process reopen semantics: the previous
                    // trajectory is finalized before the key is reused,
                    // also when no shard holds it (the finish replays its
                    // journal first). Session ops are serialized by
                    // design, as in the Finish arm below.
                    let _ = self.finish(&mut old, client);
                }
                sessions.insert(
                    client,
                    SessionEntry {
                        tile: None,
                        lag,
                        version: resolved,
                        journal: Vec::new(),
                    },
                );
                // Shard-side Open is deferred until the first located
                // push; this ack matches the single-process Open reply.
                Response::Pushed { committed: 0 }
            }
            Request::Push { client, point } => {
                let mut sessions = self.sessions.lock();
                let Some(entry) = sessions.get_mut(&client) else {
                    return Response::Failed(WireMatchError { code: 0, a: 0, b: 0 });
                };
                let target = self.topology.route(point.effective_pos());
                for attempt in 0..2 {
                    // The session's home, else this push's tile after
                    // replaying the journal there (a fresh session's first
                    // push, or one whose home lost it).
                    let tile = match entry.tile {
                        Some(home) => home,
                        None => match self.replay(entry, client, target) {
                            Ok(()) => target,
                            Err(reason) => return Response::Reject(reason),
                        },
                    };
                    // Push/journal/replay for one session must be atomic
                    // wrt other clients of the same key; the session lock
                    // is the serialization point (journal order depends on
                    // it — DESIGN §13).
                    // lint:allow(guard-across-blocking): intended session serialization
                    match self.rpc(tile, &Request::Push { client, point }) {
                        Some(Response::Pushed { committed }) => {
                            entry.journal.push(point);
                            return Response::Pushed { committed };
                        }
                        // EmptyTrajectory (code 0) from the home shard means
                        // it restarted and lost the session: place it again
                        // from the journal and retry once.
                        Some(Response::Failed(e)) if e.code == 0 && attempt == 0 => {
                            entry.tile = None;
                        }
                        // Typed per-point verdicts (NoCandidates, ...) are
                        // forwarded and NOT journaled — the shard engine
                        // rejected and undid the layer.
                        Some(resp) => return resp,
                        // The home shard is gone for good: replay onto this
                        // push's tile, which sheds the push when that tile
                        // is the dead one too.
                        None => entry.tile = None,
                    }
                }
                Response::Reject(RejectReason::ShuttingDown)
            }
            Request::Finish { client } => {
                let mut sessions = self.sessions.lock();
                let Some(entry) = sessions.get_mut(&client) else {
                    return Response::Failed(WireMatchError { code: 0, a: 0, b: 0 });
                };
                // Finalize is a session op: the session lock is held
                // across its shard round trips, as in the Push arm above.
                let reply = self.finish(entry, client);
                // Only a route ends the session: after a reject the entry
                // and its journal stay, so the client can finish again.
                if matches!(reply, Response::Route { .. }) {
                    sessions.remove(&client);
                }
                reply
            }
            Request::Ping => {
                let sessions = self.sessions.lock().len() as u32;
                Response::Pong { sessions }
            }
            // Model plane: one registry serves every shard, so acting on
            // it here swaps the whole cluster atomically — no shard can
            // admit on the old version once the promote returns.
            Request::Swap { version } => {
                let swapped = if version == 0 {
                    self.registry.rollback().map(|_| ())
                } else {
                    self.registry.promote(ModelVersion(version))
                };
                match swapped {
                    Ok(()) => {
                        self.metrics.on_model_swap();
                        self.models_response(0)
                    }
                    Err(_) => {
                        self.metrics.on_rejected(RejectReason::Invalid);
                        Response::Reject(RejectReason::Invalid)
                    }
                }
            }
            Request::Shadow { version, mirror_every } => {
                if version == 0 {
                    self.registry.clear_shadow();
                    return self.models_response(0);
                }
                match self.registry.set_shadow(ModelVersion(version), mirror_every) {
                    Ok(()) => self.models_response(0),
                    Err(_) => {
                        self.metrics.on_rejected(RejectReason::Invalid);
                        Response::Reject(RejectReason::Invalid)
                    }
                }
            }
            Request::Versions => self.models_response(0),
            Request::Refresh => {
                let label = format!("refresh-{}", self.registry.refresh_count() + 1);
                match self.registry.refresh(&label) {
                    Ok(version) => {
                        self.metrics.on_model_refresh();
                        self.models_response(version.0)
                    }
                    Err(RegistryError::EmptyStats) => self.models_response(0),
                    Err(_) => {
                        self.metrics.on_rejected(RejectReason::Invalid);
                        Response::Reject(RejectReason::Invalid)
                    }
                }
            }
        }
    }

    /// Same shape as the single-process server's model-plane answer.
    fn models_response(&self, refreshed: u32) -> Response {
        let (shadow, mirror_every) = match self.registry.shadow_plan() {
            Some((v, n)) => (v.0, n),
            None => (0, 0),
        };
        Response::Models {
            active: self.registry.active_version().0,
            previous: self.registry.previous_version().map_or(0, |v| v.0),
            shadow,
            mirror_every,
            refreshed,
            manifests: self.registry.manifests(),
        }
    }

    fn handle_connection(&self, mut stream: TcpStream) {
        loop {
            let req = match read_request(&mut stream) {
                Ok(r) => r,
                // Disconnect or malformed frame (retired tags included):
                // end the connection. Shut the socket down so the client
                // sees EOF now — the peer list holds a clone of it until
                // drain.
                Err(_) => {
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                    return;
                }
            };
            let resp = self.respond(req);
            if write_response(&mut stream, &resp).is_err() {
                return;
            }
        }
    }
}

/// The cluster rollup: shard reports merged (plus the router's own
/// shed counters) and cluster-plane counters.
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// Merged per-shard report (dead generations included) plus router
    /// sheds.
    pub merged: ServeReport,
    /// Number of tiles (= shard slots).
    pub shards: usize,
    /// Shard restarts performed by the supervisor.
    pub restarts: u64,
    /// Always 0: sessions stay on the shard that placed them, so nothing
    /// hands off. Kept only because the repo benchmark reports it
    /// (`serve.cluster.handoffs_per_session`); retire both together.
    pub handoffs: u64,
    /// Journal replays that rebuilt a session with at least one accepted
    /// push (after a crash, a shed placement, or a lost home shard).
    pub replays: u64,
}

impl ClusterReport {
    /// Requests admitted but never completed — must be 0 after a graceful
    /// drain, even across kills and restarts (the cluster acceptance
    /// criterion).
    pub fn in_flight_lost(&self) -> u64 {
        self.merged.in_flight_lost()
    }

    /// Renders the merged report plus a cluster summary line.
    pub fn render(&self) -> String {
        let mut out = self.merged.render();
        let _ = writeln!(
            out,
            "cluster:  shards {} | restarts {} | replays {}",
            self.shards, self.restarts, self.replays
        );
        out
    }
}

/// A running cluster (router + shards + supervisor) inside a
/// [`std::thread::scope`]. Clients connect to [`ClusterHandle::addr`] and
/// speak the ordinary wire protocol — sharding is invisible on the wire.
pub struct ClusterHandle<'scope, 'env> {
    addr: SocketAddr,
    shared: Arc<RouterShared<'scope, 'env>>,
    accept: OrderedMutex<Option<ScopedJoinHandle<'scope, ()>>>,
    monitor: OrderedMutex<Option<ScopedJoinHandle<'scope, ()>>>,
    drained: AtomicBool,
}

impl<'scope, 'env> ClusterHandle<'scope, 'env> {
    /// Starts one shard per tile of `topology` (each seeing the full
    /// network plus its tile scope), the supervisor monitor, and the
    /// router front end. `serve` is the unsharded serving context the
    /// shards derive theirs from.
    pub fn start(
        scope: &'scope Scope<'scope, 'env>,
        serve: ServeCtx<'env>,
        topology: &'env ClusterTopology,
        config: ClusterConfig,
    ) -> io::Result<Self> {
        let serves: Vec<ServeCtx<'env>> = (0..topology.num_tiles())
            .map(|t| ServeCtx {
                scope: Some(topology.scope(t)),
                ..serve
            })
            .collect();
        let supervisor =
            Supervisor::start(scope, serves, config.shard.clone(), config.max_restarts)?;
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(RouterShared {
            topology,
            supervisor,
            registry: serve.registry,
            // Rank-ordered (DESIGN §15): the session table is the root of
            // every router lock chain (sessions -> conns -> slots -> dead).
            sessions: OrderedMutex::new(rank::ROUTER_SESSIONS, "router.sessions", HashMap::new()),
            metrics: Arc::new(ServeMetrics::new()),
            shutting_down: AtomicBool::new(false),
            monitor_stop: AtomicBool::new(false),
            conns: (0..topology.num_tiles())
                .map(|_| OrderedMutex::new(rank::ROUTER_CONN, "router.conn", None))
                .collect(),
            peers: OrderedMutex::new(rank::SERVER_PEERS, "router.peers", Vec::new()),
            handlers: OrderedMutex::new(rank::SERVER_HANDLERS, "router.handlers", Vec::new()),
            replays: AtomicU64::new(0),
        });

        let monitor = {
            let shared = Arc::clone(&shared);
            let interval = config.ping_interval;
            scope.spawn(move || {
                while !shared.monitor_stop.load(Ordering::Acquire) {
                    shared.supervisor.health_check();
                    std::thread::sleep(interval);
                }
            })
        };

        let accept = {
            let shared = Arc::clone(&shared);
            scope.spawn(move || {
                for incoming in listener.incoming() {
                    if shared.shutting_down.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = incoming else { continue };
                    let _ = stream.set_nodelay(true);
                    let Ok(peer) = stream.try_clone() else { continue };
                    shared.peers.lock().push(peer);
                    let conn_shared = Arc::clone(&shared);
                    let handle = scope.spawn(move || conn_shared.handle_connection(stream));
                    shared.handlers.lock().push(handle);
                }
            })
        };

        Ok(ClusterHandle {
            addr,
            shared,
            accept: OrderedMutex::new(rank::ACCEPT_HANDLE, "router.accept", Some(accept)),
            monitor: OrderedMutex::new(rank::MONITOR_HANDLE, "router.monitor", Some(monitor)),
            drained: AtomicBool::new(false),
        })
    }

    /// The router's loopback address — the cluster's single public
    /// endpoint.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Hard-kills the shard serving `tile` (the simulated crash for
    /// recovery tests): its open sessions are dropped unfinalized and the
    /// supervisor restarts it within budget. Returns false when the shard
    /// was already down.
    pub fn kill_shard(&self, tile: usize) -> bool {
        self.shared.supervisor.kill(tile)
    }

    /// Live cluster rollup.
    pub fn report(&self) -> ClusterReport {
        let shared = &self.shared;
        let mut merged = shared.supervisor.report();
        let router = shared
            .metrics
            .snapshot(0, shared.sessions.lock().len());
        merged.merge(&router);
        ClusterReport {
            merged,
            shards: shared.topology.num_tiles(),
            restarts: shared.supervisor.restarts_total.load(Ordering::Relaxed),
            handoffs: 0,
            replays: shared.replays.load(Ordering::Relaxed),
        }
    }

    /// Graceful cluster drain: stop router admissions, finalize every
    /// routed session on its shard, stop the monitor, drain all shards,
    /// join the router threads, and return the final rollup.
    pub fn shutdown_and_drain(&self) -> ClusterReport {
        self.drained.store(true, Ordering::Release);
        let shared = &self.shared;
        // 1. Stop admissions at the router.
        shared.shutting_down.store(true, Ordering::Release);
        // 2. Finalize every live routed session on its shard (mirrors
        //    single-process finalize_all).
        {
            let mut sessions = shared.sessions.lock();
            for (client, entry) in sessions.drain() {
                if let Some(tile) = entry.tile {
                    // Drain finalizes under the session lock so no handler
                    // can interleave a push with the shutdown finalize of
                    // the same key.
                    // lint:allow(guard-across-blocking): intended session serialization
                    let _ = shared.rpc(tile, &Request::Finish { client });
                }
            }
        }
        // 3. Stop the monitor so it cannot resurrect draining shards.
        shared.monitor_stop.store(true, Ordering::Release);
        let monitor = self.monitor.lock().take();
        if let Some(h) = monitor {
            let _ = h.join();
        }
        // 4. Drain every shard (merges previously dead generations).
        let mut merged = shared.supervisor.drain_all();
        // 5. Unblock and join the router accept loop and handlers.
        let _ = TcpStream::connect(self.addr);
        let accept = self.accept.lock().take();
        if let Some(h) = accept {
            let _ = h.join();
        }
        for peer in shared.peers.lock().drain(..) {
            let _ = peer.shutdown(std::net::Shutdown::Both);
        }
        let handlers = {
            let mut guard = shared.handlers.lock();
            std::mem::take(&mut *guard)
        };
        for h in handlers {
            let _ = h.join();
        }
        merged.merge(&shared.metrics.snapshot(0, 0));
        ClusterReport {
            merged,
            shards: shared.topology.num_tiles(),
            restarts: shared.supervisor.restarts_total.load(Ordering::Relaxed),
            handoffs: 0,
            replays: shared.replays.load(Ordering::Relaxed),
        }
    }
}

impl Drop for ClusterHandle<'_, '_> {
    fn drop(&mut self) {
        if !self.drained.load(Ordering::Acquire) {
            let _ = self.shutdown_and_drain();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhmm_network::generators::{generate_city, GeneratorConfig};

    fn city() -> RoadNetwork {
        generate_city(&GeneratorConfig::small_test(11))
    }

    #[test]
    fn routing_is_a_pure_function_of_position_with_deterministic_ties() {
        let net = city();
        let index = SpatialIndex::build(&net, 250.0);
        let topo = ClusterTopology::build(&net, &index, 2, 2, 500.0);
        let bbox = net.bbox();
        // Dense probe lattice: same position always routes identically,
        // and the route agrees with the grid's assignment.
        for i in 0..24 {
            for j in 0..24 {
                let p = Point {
                    x: bbox.min_x + (bbox.max_x - bbox.min_x) * i as f64 / 23.0,
                    y: bbox.min_y + (bbox.max_y - bbox.min_y) * j as f64 / 23.0,
                };
                let t = topo.route(p);
                assert_eq!(t, topo.route(p));
                assert_eq!(t, topo.grid().assign(p));
                assert!(t < topo.num_tiles());
            }
        }
        // A point exactly on the shared column boundary is in both closed
        // cores; the tie must break to the lower tile id.
        let mid_x = topo.grid().core(1).min_x;
        let on_boundary = Point {
            x: mid_x,
            y: (bbox.min_y + bbox.max_y) / 2.0,
        };
        let t = topo.route(on_boundary);
        assert!(topo.grid().core(t).contains(on_boundary));
        for other in 0..topo.num_tiles() {
            if topo.grid().core(other).contains(on_boundary) {
                assert!(t <= other, "tie must break to the lower tile id");
            }
        }
    }

    #[test]
    fn topology_scopes_match_the_unsharded_index_for_core_positions() {
        let net = city();
        let index = SpatialIndex::build(&net, 250.0);
        // Halo at least the streaming candidate radius used by serving.
        let topo = ClusterTopology::build(&net, &index, 2, 2, 3000.0);
        let bbox = net.bbox();
        for i in 0..12 {
            for j in 0..12 {
                let p = Point {
                    x: bbox.min_x + (bbox.max_x - bbox.min_x) * i as f64 / 11.0,
                    y: bbox.min_y + (bbox.max_y - bbox.min_y) * j as f64 / 11.0,
                };
                let tile = topo.route(p);
                let scope = topo.scope(tile);
                if !scope.core.contains(p) {
                    continue;
                }
                let got = scope.index.k_nearest(&net, p, 12, 3000.0);
                let want = index.k_nearest(&net, p, 12, 3000.0);
                assert_eq!(got, want, "subset index diverged at {p:?}");
            }
        }
    }
}
