//! Multi-tenant streaming sessions: per-client [`StreamingEngine`]s with
//! idle-timeout eviction and an LRU cap.
//!
//! Each session owns a [`StreamingEngine`] (fixed-lag online Viterbi over
//! a warm shortest-path cache) plus the per-trajectory [`ClassicModel`]
//! whose positions grow as observations arrive. Candidate layers are
//! prepared per push with the classic distance-scored preparation — the
//! same construction the offline comparator uses, so a full-lag session is
//! byte-identical to offline Viterbi without shortcuts (pinned by the
//! loopback equivalence test).
//!
//! Capacity policy: at most `max_sessions` live sessions. A new `open`
//! first sweeps sessions idle past `idle_timeout`; if the table is still
//! full it evicts the least-recently-used session *if* that session has
//! been idle at least `lru_evict_min_idle`, otherwise the open is shed with
//! [`RejectReason::SessionLimit`].
//!
//! Every session ends through [`SessionManager::end`] with an
//! [`EndReason`]; only a client finish feeds refresh statistics.
//! [`SessionManager::drop_all`] is the crash path, not an ending.
//!
//! Version pinning: every session carries the [`VersionedModel`] it was
//! admitted under. The pin supplies the shortest-path backend for the
//! session's engine (answers are bitwise identical across backends, so a
//! hot swap never changes a live session's route) and stamps the finished
//! route with the version number, so reports can slice streaming traffic
//! by model version exactly like one-shot traffic.

use crate::admission::RejectReason;
use crate::metrics::ServeMetrics;
use lhmm_cellsim::traj::CellularPoint;
use lhmm_core::candidates::{nearest_segments, to_candidates};
use lhmm_core::classic::{ClassicModel, ClassicObservation, ClassicTransition};
use lhmm_core::error::MatchError;
use lhmm_core::registry::{ModelRegistry, VersionedModel};
use lhmm_core::streaming::StreamingEngine;
use lhmm_network::graph::RoadNetwork;
use lhmm_network::path::Path;
use lhmm_network::spatial::SpatialIndex;
use lhmm_network::tile::TileScope;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Session-table parameters.
#[derive(Clone, Debug)]
pub struct SessionPolicy {
    /// Maximum live sessions.
    pub max_sessions: usize,
    /// A session untouched for this long is evictable (and swept on the
    /// next session operation).
    pub idle_timeout: Duration,
    /// At the cap, the LRU session is evicted for a newcomer only if it
    /// has been idle at least this long; otherwise the open is shed with
    /// [`RejectReason::SessionLimit`]. Protects actively streaming
    /// sessions from being cannibalized under churn.
    pub lru_evict_min_idle: Duration,
    /// Candidates per streaming observation.
    pub k: usize,
    /// Candidate search radius, meters.
    pub radius: f64,
}

impl Default for SessionPolicy {
    fn default() -> Self {
        SessionPolicy {
            max_sessions: 1024,
            idle_timeout: Duration::from_secs(300),
            lru_evict_min_idle: Duration::from_secs(10),
            k: 12,
            radius: 3_000.0,
        }
    }
}

struct Session<'a> {
    engine: StreamingEngine<'a>,
    model: ClassicModel,
    /// Registry entry the session was admitted under; fixed for the
    /// session's lifetime (reopening a key re-pins, because a new trip is
    /// a new admission).
    pin: Arc<VersionedModel>,
    /// Observations this session accepted, kept for refresh statistics
    /// at a client finish.
    points: Vec<CellularPoint>,
    last_touch: Instant,
    /// Monotone use stamp for LRU ordering (ties impossible).
    stamp: u64,
}

/// Why a session ended. See [`SessionManager::end`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EndReason {
    /// The client finished the trip.
    Finish,
    /// The client re-opened its key for a new trip.
    Reopen,
    /// Untouched for `idle_timeout`.
    Idle,
    /// Evicted at the session cap to admit a newcomer.
    Lru,
    /// The server drained.
    Drain,
}

/// Everything an ended session hands back to the serving layer.
#[derive(Clone, Debug)]
pub struct SessionFinish {
    /// The finalized route.
    pub path: Path,
    /// Joins the fixed-lag engine had to bridge across disconnected
    /// candidate layers (degradation counter).
    pub disconnected_joins: u64,
}

/// The session table. Not internally synchronized: the server wraps it in
/// one mutex (streaming pushes serialize on it; the per-push Dijkstra
/// dominates the hold time).
pub struct SessionManager<'a> {
    net: &'a RoadNetwork,
    index: &'a SpatialIndex,
    /// Where a client-finished trip's refresh statistics go.
    registry: &'a ModelRegistry,
    policy: SessionPolicy,
    sessions: HashMap<u64, Session<'a>>,
    next_stamp: u64,
    /// Tile view for sharded serving: positions inside the tile core run
    /// candidate preparation against the tile's subset index (byte-exact
    /// because the halo covers the search radius); positions outside the
    /// core — every push after a session leaves the tile it opened on, or
    /// a teleport fault — fall back to the full index. `None` for
    /// unsharded serving.
    scope: Option<&'a TileScope>,
}

impl<'a> SessionManager<'a> {
    /// An empty table over `net`/`index`, observing finished trips into
    /// `registry`. Each session's shortest-path backend comes from the
    /// [`VersionedModel`] it is opened with.
    pub fn new(
        net: &'a RoadNetwork,
        index: &'a SpatialIndex,
        registry: &'a ModelRegistry,
        policy: SessionPolicy,
    ) -> Self {
        SessionManager {
            net,
            index,
            registry,
            policy,
            sessions: HashMap::new(),
            next_stamp: 0,
            scope: None,
        }
    }

    /// Restricts candidate preparation to a tile scope (sharded serving):
    /// core positions use the tile's subset index, everything else the full
    /// index. Answers are byte-identical either way; the subset just stays
    /// cache-resident per shard.
    pub fn with_scope(mut self, scope: &'a TileScope) -> Self {
        self.scope = Some(scope);
        self
    }

    /// Live session count.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// True when no session is open.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    fn stamp(&mut self) -> u64 {
        self.next_stamp += 1;
        self.next_stamp
    }

    /// Ends `client`'s session for `reason` — the one way a session ends:
    /// flushes the engine and counts the ending. Only
    /// [`EndReason::Finish`] feeds [`ModelRegistry::observe`] and credits
    /// the pinned version's lane, because every other ending cuts the trip
    /// short. `Reopen` keeps the session and its warm engine for the next
    /// trip. `None` when `client` has no session.
    pub fn end(
        &mut self,
        client: u64,
        reason: EndReason,
        metrics: &ServeMetrics,
    ) -> Option<SessionFinish> {
        let session = self.sessions.get_mut(&client)?;
        let path = session.engine.finalize();
        let disconnected_joins = session.engine.degradation().disconnected_joins;
        let points = std::mem::take(&mut session.points);
        let version = session.pin.manifest.version.0;
        if reason != EndReason::Reopen {
            self.sessions.remove(&client);
        }
        match reason {
            EndReason::Finish => {
                self.registry.observe(self.net, &points, &path.segments);
                metrics.on_version_finished(version);
            }
            EndReason::Idle => metrics.on_session_evicted_idle(),
            EndReason::Lru => metrics.on_session_evicted_lru(),
            EndReason::Reopen | EndReason::Drain => {}
        }
        metrics.on_session_finalized();
        Some(SessionFinish {
            path,
            disconnected_joins,
        })
    }

    /// Ends every session idle past the timeout. Returns how many ended.
    pub fn sweep_idle(&mut self, metrics: &ServeMetrics) -> usize {
        let now = Instant::now();
        let timeout = self.policy.idle_timeout;
        let expired: Vec<u64> = self
            .sessions
            .iter()
            .filter(|(_, s)| now.duration_since(s.last_touch) >= timeout)
            .map(|(&id, _)| id)
            .collect();
        for &id in &expired {
            self.end(id, EndReason::Idle, metrics);
        }
        expired.len()
    }

    /// Opens (or replaces) the session keyed `client`, pinned to `pin`
    /// for its whole lifetime. Reopening an existing key ends the previous
    /// trajectory ([`EndReason::Reopen`]) — a client starting a new trip
    /// reuses its warm engine but re-pins (a new trip is a new admission,
    /// so it picks up whatever version is active *now*; backend answers are
    /// bitwise identical across versions, so the warm engine stays valid).
    pub fn open(
        &mut self,
        client: u64,
        lag: usize,
        pin: Arc<VersionedModel>,
        metrics: &ServeMetrics,
    ) -> Result<(), RejectReason> {
        self.sweep_idle(metrics);
        if self.end(client, EndReason::Reopen, metrics).is_some() {
            let stamp = self.stamp();
            if let Some(existing) = self.sessions.get_mut(&client) {
                existing.engine.lag = lag;
                existing.model = fresh_model();
                existing.pin = pin;
                existing.last_touch = Instant::now();
                existing.stamp = stamp;
            }
            metrics.on_session_opened();
            return Ok(());
        }
        if self.sessions.len() >= self.policy.max_sessions {
            // LRU eviction: take the stalest session, but only if it has
            // been idle past the policy threshold — otherwise shed the
            // open rather than cannibalize an active session.
            let lru = self
                .sessions
                .iter()
                .min_by_key(|(_, s)| s.stamp)
                .map(|(&id, s)| (id, s.last_touch));
            match lru {
                Some((id, touched)) if touched.elapsed() >= self.policy.lru_evict_min_idle => {
                    self.end(id, EndReason::Lru, metrics);
                }
                _ => {
                    metrics.on_rejected(RejectReason::SessionLimit);
                    return Err(RejectReason::SessionLimit);
                }
            }
        }
        let stamp = self.stamp();
        let engine = StreamingEngine::with_backend(self.net, lag, pin.model.sp_handle());
        self.sessions.insert(
            client,
            Session {
                engine,
                model: fresh_model(),
                pin,
                points: Vec::new(),
                last_touch: Instant::now(),
                stamp,
            },
        );
        metrics.on_session_opened();
        Ok(())
    }

    /// Feeds one observation into `client`'s session. Returns the newly
    /// committed observation count.
    ///
    /// `Err(NoCandidates)` marks an unmatchable observation (outside
    /// network coverage) — the session is untouched and the client keeps
    /// streaming, mirroring the offline dropped-point degradation.
    /// An unknown `client` is `Err(EmptyTrajectory)` (no session — nothing
    /// is being matched).
    pub fn push(
        &mut self,
        client: u64,
        point: &CellularPoint,
        metrics: &ServeMetrics,
    ) -> Result<usize, MatchError> {
        let stamp = self.stamp();
        let started = Instant::now();
        let session = self
            .sessions
            .get_mut(&client)
            .ok_or(MatchError::EmptyTrajectory)?;
        session.last_touch = Instant::now();
        session.stamp = stamp;
        let pos = point.effective_pos();
        // Core-or-full rule: only positions the tile's halo provably covers
        // use the subset index; anything else gets the full one, so the
        // answer never depends on which shard runs the query.
        let index = match self.scope {
            Some(scope) if scope.core.contains(pos) => &scope.index,
            _ => self.index,
        };
        let pairs = nearest_segments(
            self.net,
            index,
            pos,
            self.policy.k,
            self.policy.radius,
        );
        if pairs.is_empty() {
            return Err(MatchError::NoCandidates);
        }
        // The model's positions must align with the engine's layers: index
        // `i = engine.len()` is the layer this push creates.
        let i = session.engine.len();
        session.model.positions.push(pos);
        let layer = to_candidates(&mut session.model, i, &pairs);
        match session
            .engine
            .push(pos, point.t, layer, &mut session.model)
        {
            Ok(committed) => {
                session.points.push(*point);
                metrics.on_stream_push(started.elapsed().as_secs_f64());
                Ok(committed)
            }
            Err(e) => {
                // Keep positions aligned with the rejected layer undone.
                session.model.positions.pop();
                Err(e)
            }
        }
    }

    /// Ends every open session (graceful drain, [`EndReason::Drain`]).
    /// Returns how many ended.
    pub fn drain(&mut self, metrics: &ServeMetrics) -> usize {
        let ids: Vec<u64> = self.sessions.keys().copied().collect();
        for &id in &ids {
            self.end(id, EndReason::Drain, metrics);
        }
        ids.len()
    }

    /// Drops every session without finalizing — the simulated crash path
    /// (and hard abort): in-flight state is lost exactly as a process kill
    /// would lose it. Returns how many were dropped.
    pub fn drop_all(&mut self) -> usize {
        let n = self.sessions.len();
        self.sessions.clear();
        n
    }
}

fn fresh_model() -> ClassicModel {
    ClassicModel::new(
        ClassicObservation::cellular(),
        ClassicTransition::cellular(),
        Vec::new(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhmm_cellsim::dataset::{Dataset, DatasetConfig};
    use lhmm_core::lhmm::{LhmmConfig, LhmmModel};
    use lhmm_core::registry::RefreshStats;

    fn policy(max: usize, idle_ms: u64) -> SessionPolicy {
        SessionPolicy {
            max_sessions: max,
            idle_timeout: Duration::from_millis(idle_ms),
            lru_evict_min_idle: Duration::from_millis(1),
            ..Default::default()
        }
    }

    /// A registry whose v1 is a cheap classic-only model.
    fn registry_for(ds: &Dataset) -> ModelRegistry {
        let mut cfg = LhmmConfig::fast_test(1);
        cfg.use_learned_obs = false;
        cfg.use_learned_trans = false;
        ModelRegistry::new(LhmmModel::train(ds, cfg), "session-test")
    }

    /// Streams every point of `traj` into `client`'s session; returns the
    /// accepted observations.
    fn push_all(
        mgr: &mut SessionManager<'_>,
        client: u64,
        traj: &[CellularPoint],
        metrics: &ServeMetrics,
    ) -> Vec<CellularPoint> {
        let mut accepted = Vec::new();
        for p in traj {
            match mgr.push(client, p, metrics) {
                Ok(_) => accepted.push(*p),
                Err(MatchError::NoCandidates) => {}
                Err(e) => panic!("unexpected push error {e}"),
            }
        }
        accepted
    }

    #[test]
    fn open_push_finish_roundtrip() {
        let ds = Dataset::generate(&DatasetConfig::tiny_test(311));
        let metrics = ServeMetrics::new();
        let reg = registry_for(&ds);
        let mut mgr = SessionManager::new(&ds.network, &ds.index, &reg, policy(8, 60_000));
        mgr.open(1, 2, reg.active(), &metrics).expect("open");
        let accepted = push_all(&mut mgr, 1, &ds.test[0].cellular.points, &metrics);
        assert!(!accepted.is_empty());
        let fin = mgr.end(1, EndReason::Finish, &metrics).expect("finish");
        assert!(!fin.path.is_empty());
        assert!(mgr.is_empty());
        // Exactly the accepted observations teach the registry, once.
        let mut want = RefreshStats::default();
        want.observe(&ds.network, &accepted, &fin.path.segments);
        assert_eq!(want.observed_matches, 1);
        assert_eq!(reg.stats(), want);
        let report = metrics.snapshot(0, 0);
        assert_eq!(report.sessions_finalized, 1);
        assert_eq!(
            report.versions.lanes[&1].served, 1,
            "credited to the admission version"
        );
    }

    /// Every ending but a client finish cuts the trip short, so none of
    /// them feeds refresh statistics; each still flushes and counts.
    #[test]
    fn only_a_client_finish_teaches_the_registry() {
        let ds = Dataset::generate(&DatasetConfig::tiny_test(317));
        let metrics = ServeMetrics::new();
        let reg = registry_for(&ds);
        let traj = &ds.test[0].cellular.points;
        let mut mgr = SessionManager::new(&ds.network, &ds.index, &reg, policy(8, 60_000));
        let truncating = [EndReason::Reopen, EndReason::Idle, EndReason::Lru, EndReason::Drain];
        for reason in truncating {
            mgr.open(1, 2, reg.active(), &metrics).expect("open");
            assert!(!push_all(&mut mgr, 1, traj, &metrics).is_empty());
            let fin = mgr.end(1, reason, &metrics).expect("open session ends");
            assert!(!fin.path.is_empty(), "{reason:?} flushes the route");
            let kept = usize::from(reason == EndReason::Reopen);
            assert_eq!(mgr.len(), kept, "{reason:?}");
            mgr.end(1, EndReason::Drain, &metrics);
        }
        assert!(reg.stats().is_empty(), "a truncated trip was observed");
        assert_eq!(reg.stats().observed_matches, 0);
        let report = metrics.snapshot(0, 0);
        // Four endings under test plus the Reopen case's clean-up drain.
        assert_eq!(report.sessions_finalized, 5);
        assert_eq!(report.sessions_evicted_idle, 1);
        assert_eq!(report.sessions_evicted_lru, 1);
        assert_eq!(report.versions.lanes.get(&1).map_or(0, |l| l.served), 0);
    }

    /// Re-opening a key ends the old trip but keeps the session's warm
    /// engine: the new trip's route equals a fresh session's.
    #[test]
    fn reopen_ends_the_old_trip_and_reuses_the_session() {
        let ds = Dataset::generate(&DatasetConfig::tiny_test(318));
        let metrics = ServeMetrics::new();
        let reg = registry_for(&ds);
        let (first, second) = (&ds.test[0].cellular.points, &ds.test[1].cellular.points);
        let mut fresh = SessionManager::new(&ds.network, &ds.index, &reg, policy(8, 60_000));
        fresh.open(1, 2, reg.active(), &metrics).expect("open");
        push_all(&mut fresh, 1, second, &metrics);
        let want = fresh.end(1, EndReason::Drain, &metrics).expect("open");

        let metrics = ServeMetrics::new();
        let mut mgr = SessionManager::new(&ds.network, &ds.index, &reg, policy(8, 60_000));
        mgr.open(1, 2, reg.active(), &metrics).expect("open");
        push_all(&mut mgr, 1, &first[..first.len() / 2], &metrics);
        mgr.open(1, 2, reg.active(), &metrics).expect("reopen");
        push_all(&mut mgr, 1, second, &metrics);
        let got = mgr.end(1, EndReason::Finish, &metrics).expect("finish");
        assert_eq!(got.path.segments, want.path.segments);
        let report = metrics.snapshot(0, 0);
        assert_eq!(report.sessions_opened, 2);
        assert_eq!(report.sessions_finalized, 2);
        assert_eq!(reg.stats().observed_matches, 1, "only the finished trip");
    }

    #[test]
    fn unknown_session_is_a_typed_error() {
        let ds = Dataset::generate(&DatasetConfig::tiny_test(312));
        let metrics = ServeMetrics::new();
        let reg = registry_for(&ds);
        let mut mgr = SessionManager::new(&ds.network, &ds.index, &reg, policy(8, 60_000));
        let p = ds.test[0].cellular.points[0];
        assert_eq!(
            mgr.push(77, &p, &metrics),
            Err(MatchError::EmptyTrajectory)
        );
        assert!(mgr.end(77, EndReason::Finish, &metrics).is_none());
        assert_eq!(metrics.snapshot(0, 0).sessions_finalized, 0);
    }

    #[test]
    fn cap_evicts_lru_or_sheds() {
        let ds = Dataset::generate(&DatasetConfig::tiny_test(313));
        let metrics = ServeMetrics::new();
        let reg = registry_for(&ds);
        let pin = reg.active();
        let mut mgr = SessionManager::new(&ds.network, &ds.index, &reg, policy(2, 60_000));
        mgr.open(1, 0, Arc::clone(&pin), &metrics).expect("open 1");
        mgr.open(2, 0, Arc::clone(&pin), &metrics).expect("open 2");
        // Both sessions have a nonzero idle age by now, so the third open
        // evicts the LRU (client 1).
        std::thread::sleep(Duration::from_millis(2));
        mgr.open(3, 0, Arc::clone(&pin), &metrics)
            .expect("open 3 evicts LRU");
        assert_eq!(mgr.len(), 2);
        let p = ds.test[0].cellular.points[0];
        assert_eq!(mgr.push(1, &p, &metrics), Err(MatchError::EmptyTrajectory));
        let report = metrics.snapshot(0, mgr.len());
        assert_eq!(report.sessions_evicted_lru, 1);
    }

    #[test]
    fn active_sessions_are_not_cannibalized_at_the_cap() {
        let ds = Dataset::generate(&DatasetConfig::tiny_test(316));
        let metrics = ServeMetrics::new();
        let reg = registry_for(&ds);
        let pin = reg.active();
        let mut mgr = SessionManager::new(
            &ds.network,
            &ds.index,
            &reg,
            SessionPolicy {
                max_sessions: 1,
                idle_timeout: Duration::from_secs(60),
                // Nothing this young may be LRU-evicted.
                lru_evict_min_idle: Duration::from_secs(60),
                ..Default::default()
            },
        );
        mgr.open(1, 0, Arc::clone(&pin), &metrics).expect("open");
        assert_eq!(
            mgr.open(2, 0, Arc::clone(&pin), &metrics),
            Err(RejectReason::SessionLimit)
        );
        assert_eq!(mgr.len(), 1);
        let report = metrics.snapshot(0, mgr.len());
        assert_eq!(report.rejected_for(RejectReason::SessionLimit), 1);
        assert_eq!(report.sessions_evicted_lru, 0);
    }

    #[test]
    fn idle_sessions_are_swept() {
        let ds = Dataset::generate(&DatasetConfig::tiny_test(314));
        let metrics = ServeMetrics::new();
        let reg = registry_for(&ds);
        let pin = reg.active();
        let mut mgr = SessionManager::new(&ds.network, &ds.index, &reg, policy(8, 5));
        mgr.open(1, 0, Arc::clone(&pin), &metrics).expect("open");
        mgr.open(2, 0, Arc::clone(&pin), &metrics).expect("open");
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(mgr.sweep_idle(&metrics), 2);
        assert!(mgr.is_empty());
        let report = metrics.snapshot(0, 0);
        assert_eq!(report.sessions_evicted_idle, 2);
    }

    #[test]
    fn scoped_manager_matches_unscoped_manager_byte_for_byte() {
        use lhmm_network::tile::{TileGrid, TileScope};
        let ds = Dataset::generate(&DatasetConfig::tiny_test(319));
        // Halo = candidate radius: subset answers provably exact in-core.
        let grid = TileGrid::new(&ds.network, 2, 2, SessionPolicy::default().radius);
        let scopes: Vec<TileScope> = (0..grid.num_tiles())
            .map(|t| TileScope::build(&ds.network, &grid, t, ds.index.cell_size()))
            .collect();
        let metrics = ServeMetrics::new();
        let reg = registry_for(&ds);
        let pin = reg.active();
        for (ci, rec) in ds.test.iter().take(4).enumerate() {
            let client = ci as u64;
            let mut plain = SessionManager::new(&ds.network, &ds.index, &reg, policy(8, 60_000));
            plain.open(client, 2, Arc::clone(&pin), &metrics).expect("open");
            // Pick the tile the trajectory starts in, like the router does.
            let first = rec.cellular.points[0].effective_pos();
            let tile = grid.assign(first);
            let mut scoped =
                SessionManager::new(&ds.network, &ds.index, &reg, policy(8, 60_000))
                    .with_scope(&scopes[tile]);
            scoped.open(client, 2, Arc::clone(&pin), &metrics).expect("open");
            for p in &rec.cellular.points {
                assert_eq!(
                    scoped.push(client, p, &metrics),
                    plain.push(client, p, &metrics),
                    "tile {tile} diverged"
                );
            }
            let want = plain.end(client, EndReason::Finish, &metrics).expect("finish");
            let got = scoped.end(client, EndReason::Finish, &metrics).expect("finish");
            assert_eq!(got.path.segments, want.path.segments);
        }
    }

    #[test]
    fn drop_all_loses_sessions_without_finalizing() {
        let ds = Dataset::generate(&DatasetConfig::tiny_test(320));
        let metrics = ServeMetrics::new();
        let reg = registry_for(&ds);
        let pin = reg.active();
        let mut mgr = SessionManager::new(&ds.network, &ds.index, &reg, policy(8, 60_000));
        mgr.open(1, 0, Arc::clone(&pin), &metrics).expect("open");
        mgr.open(2, 0, Arc::clone(&pin), &metrics).expect("open");
        assert_eq!(mgr.drop_all(), 2);
        assert!(mgr.is_empty());
        // Nothing was finalized — the sessions just vanished (crash
        // semantics).
        assert_eq!(metrics.snapshot(0, 0).sessions_finalized, 0);
    }

    #[test]
    fn drain_ends_every_session() {
        let ds = Dataset::generate(&DatasetConfig::tiny_test(315));
        let metrics = ServeMetrics::new();
        let reg = registry_for(&ds);
        let pin = reg.active();
        let mut mgr = SessionManager::new(&ds.network, &ds.index, &reg, policy(8, 60_000));
        for id in 0..3 {
            mgr.open(id, 1, Arc::clone(&pin), &metrics).expect("open");
        }
        assert_eq!(mgr.drain(&metrics), 3);
        assert!(mgr.is_empty());
        assert_eq!(metrics.snapshot(0, 0).sessions_finalized, 3);
    }
}
