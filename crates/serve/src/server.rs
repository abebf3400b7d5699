//! One map-matching server: a shard's data plane behind the front end it
//! shares with the cluster router (`frontend.rs`).
//!
//! ```text
//! front end ── OneShot ──▶ MicroBatcher (bounded queue → workers)
//!           └─ Open/Push/Finish ──▶ SessionManager (mutexed)
//! ```
//!
//! The front end owns the listener, the connection handlers, the drain
//! gate and the model plane; this module adds the one-shot and session
//! requests and the drain order around them.
//!
//! Shutdown contract ([`ServerHandle::shutdown_and_drain`]): admissions
//! stop first (every subsequent request but `Ping` and `Versions` is shed
//! with [`RejectReason::ShuttingDown`]), then every already-admitted one-shot
//! flushes through the workers, open sessions end with
//! [`EndReason::Drain`], and all threads join before the final
//! [`ServeReport`] snapshot is taken — an admitted request is never dropped
//! (`in_flight_lost() == 0`).
//!
//! Refresh statistics: a successful one-shot and a client `Finish` feed
//! [`ModelRegistry::observe`]; sessions ended any other way (re-open, idle,
//! LRU, drain) do not, because their trips are truncated. The session
//! table applies that rule in its one ending, [`SessionManager::end`].

use crate::admission::RejectReason;
use crate::frontend::{DataPlane, FrontEnd};
use crate::metrics::{ServeMetrics, ServeReport};
use crate::protocol::{Request, Response, WireMatchError};
use crate::scheduler::{BatchPolicy, MicroBatcher, ServeCtx};
use crate::session::{EndReason, SessionManager, SessionPolicy};
use lhmm_core::registry::ModelRegistry;
use lhmm_core::sync::{rank, OrderedMutex};
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::Scope;

/// Full service configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Micro-batch scheduler parameters (one-shot path).
    pub batch: BatchPolicy,
    /// Session-table parameters (streaming path).
    pub sessions: SessionPolicy,
    /// One-shot trajectories with more points than this are shed with
    /// [`RejectReason::Oversized`].
    pub max_points: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            batch: BatchPolicy::default(),
            sessions: SessionPolicy::default(),
            max_points: 100_000,
        }
    }
}

/// A shard's data plane: one-shots through the micro-batcher, sessions
/// through the session table.
pub(crate) struct Shard<'scope, 'env> {
    batcher: MicroBatcher<'scope, 'env>,
    sessions: OrderedMutex<SessionManager<'env>>,
    max_points: usize,
}

impl DataPlane for Shard<'_, '_> {
    fn serve(&self, req: Request, registry: &ModelRegistry, metrics: &ServeMetrics) -> Response {
        match req {
            Request::OneShot { traj } => {
                if traj.points.len() > self.max_points {
                    metrics.on_rejected(RejectReason::Oversized);
                    return Response::Reject(RejectReason::Oversized);
                }
                match self.batcher.submit(traj) {
                    Ok(rx) => match rx.recv() {
                        Ok(Ok((result, stats))) => Response::Route {
                            segments: result.path.segments,
                            degraded: stats.degraded(),
                        },
                        Ok(Err(e)) => Response::Failed(WireMatchError::from(&e)),
                        // The worker pool hung up without replying: only
                        // possible during teardown.
                        Err(_) => Response::Reject(RejectReason::ShuttingDown),
                    },
                    Err(reason) => Response::Reject(reason),
                }
            }
            Request::Open { client, lag, version } => {
                // Admission is the pinning moment: version 0 resolves to
                // whatever is active *now*, an explicit version must exist.
                let Ok(pin) = registry.resolve(version) else {
                    metrics.on_rejected(RejectReason::Invalid);
                    return Response::Reject(RejectReason::Invalid);
                };
                let mut sessions = self.sessions.lock();
                match sessions.open(client, lag as usize, pin, metrics) {
                    Ok(()) => Response::Pushed { committed: 0 },
                    Err(reason) => Response::Reject(reason),
                }
            }
            Request::Push { client, point } => {
                let mut sessions = self.sessions.lock();
                match sessions.push(client, &point, metrics) {
                    Ok(committed) => Response::Pushed {
                        committed: committed as u32,
                    },
                    Err(e) => Response::Failed(WireMatchError::from(&e)),
                }
            }
            Request::Finish { client } => {
                let mut sessions = self.sessions.lock();
                match sessions.end(client, EndReason::Finish, metrics) {
                    Some(fin) => Response::Route {
                        segments: fin.path.segments,
                        degraded: fin.disconnected_joins > 0,
                    },
                    // No such session: the typed "nothing was matched"
                    // verdict (EmptyTrajectory, code 0).
                    None => Response::Failed(WireMatchError { code: 0, a: 0, b: 0 }),
                }
            }
            // The front end answers every other request itself.
            _ => Response::Reject(RejectReason::Invalid),
        }
    }

    fn sessions(&self) -> usize {
        self.sessions.lock().len()
    }
}

/// A running server inside a [`std::thread::scope`].
///
/// Dropping an undrained handle runs the drain: without it, a panic
/// anywhere in the owning scope would leave the accept/scheduler/worker
/// threads running and the scope would never close (a hang instead of a
/// test failure).
pub struct ServerHandle<'scope, 'env> {
    pub(crate) front: FrontEnd<'scope, 'env, Shard<'scope, 'env>>,
}

impl<'scope, 'env> ServerHandle<'scope, 'env> {
    /// Binds a loopback listener and spawns the accept loop, scheduler,
    /// and worker pool into `scope`. The caller must eventually invoke
    /// [`ServerHandle::shutdown_and_drain`] or the scope will not close.
    pub fn start(
        scope: &'scope Scope<'scope, 'env>,
        serve: ServeCtx<'env>,
        config: ServeConfig,
    ) -> io::Result<Self> {
        let metrics = Arc::new(ServeMetrics::new());
        let batcher = MicroBatcher::start(scope, serve, config.batch, Arc::clone(&metrics));
        let mut sessions = SessionManager::new(
            serve.ctx.net,
            serve.ctx.index,
            serve.registry,
            config.sessions,
        );
        if let Some(tile_scope) = serve.scope {
            sessions = sessions.with_scope(tile_scope);
        }
        let shard = Shard {
            batcher,
            // Rank-ordered (DESIGN §15): the session lock is taken above
            // metrics/registry leaves and below nothing else in this shard.
            sessions: OrderedMutex::new(rank::SERVER_SESSIONS, "server.sessions", sessions),
            max_points: config.max_points,
        };
        let front = FrontEnd::start(scope, shard, serve.registry, metrics)?;
        Ok(ServerHandle { front })
    }

    /// The bound loopback address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// Point-in-time metrics snapshot of the running server.
    pub fn report(&self) -> ServeReport {
        let plane = &self.front.plane;
        plane
            .metrics
            .snapshot(plane.data.batcher.queue_depth(), plane.data.sessions())
    }

    /// Graceful drain: stop admissions, flush every admitted one-shot
    /// through the workers, end open sessions ([`EndReason::Drain`]), join
    /// every thread, and return the final metrics snapshot.
    pub fn shutdown_and_drain(&self) -> ServeReport {
        self.stop(false)
    }

    /// Hard abort: the simulated crash path. Open sessions are dropped
    /// without finalizing (their beam state is lost exactly as a process
    /// kill would lose it), then threads are torn down the same way a
    /// drain does so the owning scope can close. Returns the final
    /// snapshot of the dead shard.
    pub fn abort(&self) -> ServeReport {
        self.stop(true)
    }

    fn stop(&self, crash: bool) -> ServeReport {
        let plane = &self.front.plane;
        let shard = &plane.data;
        // 1. Stop admissions: the drain gate sheds all but Ping and
        //    Versions from here on.
        self.front.close_gate();
        // 2. Sessions: a crash loses them; a drain (step 4) ends them.
        if crash {
            let _ = shard.sessions.lock().drop_all();
        }
        // 3. Flush the one-shot pipeline. Handlers blocked on a reply
        //    receive it here (workers answer every admitted job before
        //    exiting).
        shard.batcher.drain();
        // 4. End open streaming sessions (reason Drain: flushed and
        //    counted, not observed — a drained trip is truncated).
        if !crash {
            shard.sessions.lock().drain(&plane.metrics);
        }
        // 5. Join the accept loop and every connection handler.
        self.front.close();
        plane.metrics.snapshot(shard.batcher.queue_depth(), 0)
    }
}

impl Drop for ServerHandle<'_, '_> {
    fn drop(&mut self) {
        if !self.front.is_closed() {
            let _ = self.shutdown_and_drain();
        }
    }
}
