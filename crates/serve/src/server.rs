//! The TCP front end: accept loop, per-connection handlers, and graceful
//! drain.
//!
//! ```text
//! TcpListener ── accept ──▶ handler thread per connection
//!                              │ OneShot ──▶ MicroBatcher (bounded queue → workers)
//!                              │ Open/Push/Finish ──▶ SessionManager (mutexed)
//!                              └ responses framed back on the same stream
//! ```
//!
//! Shutdown contract ([`ServerHandle::shutdown_and_drain`]): admissions
//! stop first (every subsequent request is shed with
//! [`RejectReason::ShuttingDown`]), then every already-admitted one-shot
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
use crate::metrics::{ServeMetrics, ServeReport};
use crate::protocol::{
    read_request, write_response, Request, Response, WireMatchError,
};
use crate::scheduler::{BatchPolicy, MicroBatcher, ServeCtx};
use crate::session::{EndReason, SessionManager, SessionPolicy};
use lhmm_core::registry::{ModelRegistry, ModelVersion, RegistryError};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use lhmm_core::sync::{rank, OrderedMutex};
use std::sync::Arc;
use std::thread::{Scope, ScopedJoinHandle};

/// Full service configuration.
#[derive(Clone, Debug, Default)]
pub struct ServeConfig {
    /// Micro-batch scheduler parameters (one-shot path).
    pub batch: BatchPolicy,
    /// Session-table parameters (streaming path).
    pub sessions: SessionPolicy,
    /// One-shot trajectories with more points than this are shed with
    /// [`RejectReason::Oversized`]. Zero means "use the default".
    pub max_points: usize,
}

impl ServeConfig {
    fn max_points(&self) -> usize {
        if self.max_points == 0 {
            100_000
        } else {
            self.max_points
        }
    }
}

struct Shared<'scope, 'env> {
    batcher: MicroBatcher<'scope, 'env>,
    sessions: OrderedMutex<SessionManager<'env>>,
    registry: &'env ModelRegistry,
    metrics: Arc<ServeMetrics>,
    shutting_down: AtomicBool,
    max_points: usize,
    /// Duplicated handles of accepted streams, so drain can unblock
    /// handlers parked in `read_request`.
    peers: OrderedMutex<Vec<TcpStream>>,
    handlers: OrderedMutex<Vec<ScopedJoinHandle<'scope, ()>>>,
}

impl Shared<'_, '_> {
    fn respond(&self, req: Request) -> Response {
        match req {
            Request::OneShot { traj } => {
                if traj.points.len() > self.max_points {
                    self.metrics.on_rejected(RejectReason::Oversized);
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
                if self.shutting_down.load(Ordering::Acquire) {
                    self.metrics.on_rejected(RejectReason::ShuttingDown);
                    return Response::Reject(RejectReason::ShuttingDown);
                }
                // Admission is the pinning moment: version 0 resolves to
                // whatever is active *now*, an explicit version must exist.
                let Ok(pin) = self.registry.resolve(version) else {
                    self.metrics.on_rejected(RejectReason::Invalid);
                    return Response::Reject(RejectReason::Invalid);
                };
                let mut sessions = self.sessions.lock();
                match sessions.open(client, lag as usize, pin, &self.metrics) {
                    Ok(()) => Response::Pushed { committed: 0 },
                    Err(reason) => Response::Reject(reason),
                }
            }
            Request::Push { client, point } => {
                if self.shutting_down.load(Ordering::Acquire) {
                    self.metrics.on_rejected(RejectReason::ShuttingDown);
                    return Response::Reject(RejectReason::ShuttingDown);
                }
                let mut sessions = self.sessions.lock();
                match sessions.push(client, &point, &self.metrics) {
                    Ok(committed) => Response::Pushed {
                        committed: committed as u32,
                    },
                    Err(e) => Response::Failed(WireMatchError::from(&e)),
                }
            }
            Request::Finish { client } => {
                if self.shutting_down.load(Ordering::Acquire) {
                    self.metrics.on_rejected(RejectReason::ShuttingDown);
                    return Response::Reject(RejectReason::ShuttingDown);
                }
                let mut sessions = self.sessions.lock();
                match sessions.end(client, EndReason::Finish, &self.metrics) {
                    Some(fin) => Response::Route {
                        segments: fin.path.segments,
                        degraded: fin.disconnected_joins > 0,
                    },
                    // No such session: the typed "nothing was matched"
                    // verdict (EmptyTrajectory, code 0).
                    None => Response::Failed(WireMatchError { code: 0, a: 0, b: 0 }),
                }
            }
            // Health plane: always answered, even during drain, so a
            // supervisor can distinguish "draining" from "dead".
            Request::Ping => Response::Pong {
                sessions: self.sessions.lock().len() as u32,
            },
            Request::Swap { version } => {
                if self.shutting_down.load(Ordering::Acquire) {
                    self.metrics.on_rejected(RejectReason::ShuttingDown);
                    return Response::Reject(RejectReason::ShuttingDown);
                }
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
                if self.shutting_down.load(Ordering::Acquire) {
                    self.metrics.on_rejected(RejectReason::ShuttingDown);
                    return Response::Reject(RejectReason::ShuttingDown);
                }
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
            // Introspection plane: like Ping, answered even during drain.
            Request::Versions => self.models_response(0),
            Request::Refresh => {
                if self.shutting_down.load(Ordering::Acquire) {
                    self.metrics.on_rejected(RejectReason::ShuttingDown);
                    return Response::Reject(RejectReason::ShuttingDown);
                }
                let label = format!("refresh-{}", self.registry.refresh_count() + 1);
                match self.registry.refresh(&label) {
                    Ok(version) => {
                        self.metrics.on_model_refresh();
                        self.models_response(version.0)
                    }
                    // No statistics yet: not an error, just nothing new —
                    // the manifest answer carries `refreshed: 0`.
                    Err(RegistryError::EmptyStats) => self.models_response(0),
                    Err(_) => {
                        self.metrics.on_rejected(RejectReason::Invalid);
                        Response::Reject(RejectReason::Invalid)
                    }
                }
            }
        }
    }

    /// The model-plane answer: active/previous/shadow pointers plus every
    /// manifest, with `refreshed` naming a version a Refresh just minted
    /// (0 otherwise).
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
                // Disconnect, malformed frame, or drain-time shutdown of
                // the socket all end the connection; the framing error is
                // the client's to observe, as EOF (the peer list holds a
                // clone of the socket until drain).
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

/// A running server inside a [`std::thread::scope`].
///
/// Dropping an undrained handle runs the drain: without it, a panic
/// anywhere in the owning scope would leave the accept/scheduler/worker
/// threads running and the scope would never close (a hang instead of a
/// test failure).
pub struct ServerHandle<'scope, 'env> {
    addr: SocketAddr,
    shared: Arc<Shared<'scope, 'env>>,
    accept: OrderedMutex<Option<ScopedJoinHandle<'scope, ()>>>,
    drained: AtomicBool,
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
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let metrics = Arc::new(ServeMetrics::new());
        let batcher =
            MicroBatcher::start(scope, serve, config.batch.clone(), Arc::clone(&metrics));
        let mut sessions = SessionManager::new(
            serve.ctx.net,
            serve.ctx.index,
            serve.registry,
            config.sessions.clone(),
        );
        if let Some(tile_scope) = serve.scope {
            sessions = sessions.with_scope(tile_scope);
        }
        let shared = Arc::new(Shared {
            batcher,
            // Rank-ordered (DESIGN §15): the session lock is taken above
            // metrics/registry leaves and below nothing else in this shard.
            sessions: OrderedMutex::new(rank::SERVER_SESSIONS, "server.sessions", sessions),
            registry: serve.registry,
            metrics,
            shutting_down: AtomicBool::new(false),
            max_points: config.max_points(),
            peers: OrderedMutex::new(rank::SERVER_PEERS, "server.peers", Vec::new()),
            handlers: OrderedMutex::new(rank::SERVER_HANDLERS, "server.handlers", Vec::new()),
        });

        let accept = {
            let shared = Arc::clone(&shared);
            scope.spawn(move || {
                for incoming in listener.incoming() {
                    if shared.shutting_down.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = incoming else { continue };
                    // Request/response frames are small; without nodelay,
                    // Nagle + delayed ACK adds ~40 ms per round trip,
                    // which would distort every latency histogram and
                    // idle-based session policy.
                    let _ = stream.set_nodelay(true);
                    // Track a duplicate handle so drain can unblock the
                    // handler; a connection we cannot track we do not
                    // serve (it could park a handler forever).
                    let Ok(peer) = stream.try_clone() else { continue };
                    shared.peers.lock().push(peer);
                    let conn_shared = Arc::clone(&shared);
                    let handle = scope.spawn(move || conn_shared.handle_connection(stream));
                    shared.handlers.lock().push(handle);
                }
            })
        };

        Ok(ServerHandle {
            addr,
            shared,
            accept: OrderedMutex::new(rank::ACCEPT_HANDLE, "server.accept", Some(accept)),
            drained: AtomicBool::new(false),
        })
    }

    /// The bound loopback address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live metrics (shared with scheduler, workers, and sessions).
    pub fn metrics(&self) -> &ServeMetrics {
        &self.shared.metrics
    }

    /// Point-in-time metrics snapshot of the running server.
    pub fn report(&self) -> ServeReport {
        self.shared.metrics.snapshot(
            self.shared.batcher.queue_depth(),
            self.shared.sessions.lock().len(),
        )
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
        self.drained.store(true, Ordering::Release);
        let shared = &self.shared;
        // 1. Stop admissions: handlers shed everything from here on.
        shared.shutting_down.store(true, Ordering::Release);
        // 2. Sessions: a crash loses them; a drain (step 4) ends them.
        if crash {
            let _ = shared.sessions.lock().drop_all();
        }
        // 3. Flush the one-shot pipeline. Handlers blocked on a reply
        //    receive it here (workers answer every admitted job before
        //    exiting).
        shared.batcher.drain();
        // 4. End open streaming sessions (reason Drain: flushed and
        //    counted, not observed — a drained trip is truncated).
        if !crash {
            shared.sessions.lock().drain(&shared.metrics);
        }
        // 5. Unblock the accept loop with a self-connection and join it.
        let _ = TcpStream::connect(self.addr);
        let accept = self.accept.lock().take();
        if let Some(h) = accept {
            let _ = h.join();
        }
        // 6. Unblock handlers parked in read_request and join them.
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
        shared.metrics.snapshot(shared.batcher.queue_depth(), 0)
    }
}

impl Drop for ServerHandle<'_, '_> {
    fn drop(&mut self) {
        if !self.drained.load(Ordering::Acquire) {
            let _ = self.shutdown_and_drain();
        }
    }
}
