//! The one TCP front end behind both serving handles: the loopback
//! listener and accept thread, the per-connection read → respond → write
//! loop, the close sequence, and the request plane every connection
//! shares.
//!
//! ```text
//! TcpListener ── accept ──▶ handler thread per connection
//!                              │ Ping, Versions    answered always, even during drain
//!                              │ ── drain gate ──  anything else is shed as ShuttingDown
//!                              │ Swap/Shadow/Refresh ──▶ model plane (the one registry)
//!                              └ OneShot/Open/Push/Finish ──▶ DataPlane
//! ```
//!
//! [`ServerHandle`](crate::server::ServerHandle) plugs in a shard's data
//! plane (micro-batcher and session table),
//! [`ClusterHandle`](crate::cluster::ClusterHandle) the router's (routing,
//! journal and replay). Each handle keeps its own drain order: it closes
//! the gate, drains its data plane, then runs [`FrontEnd::close`].

use crate::admission::RejectReason;
use crate::metrics::ServeMetrics;
use crate::protocol::{read_request, write_response, Request, Response};
use lhmm_core::registry::{ModelRegistry, ModelVersion, RegistryError};
use lhmm_core::sync::{rank, OrderedMutex};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{Scope, ScopedJoinHandle};

/// What a front end hands on: the one-shot and session requests that
/// passed the drain gate.
pub(crate) trait DataPlane: Send + Sync {
    /// Answers a `OneShot`, `Open`, `Push` or `Finish`.
    fn serve(&self, req: Request, registry: &ModelRegistry, metrics: &ServeMetrics) -> Response;
    /// Live sessions, reported by `Ping`.
    fn sessions(&self) -> usize;
}

/// The request plane shared by one front end's connections.
pub(crate) struct Plane<'scope, 'env, D> {
    pub(crate) data: D,
    registry: &'env ModelRegistry,
    pub(crate) metrics: Arc<ServeMetrics>,
    draining: AtomicBool,
    /// Duplicated handles of accepted streams, so close can unblock
    /// handlers parked in `read_request`.
    peers: OrderedMutex<Vec<TcpStream>>,
    handlers: OrderedMutex<Vec<ScopedJoinHandle<'scope, ()>>>,
}

impl<D: DataPlane> Plane<'_, '_, D> {
    /// The drain gate, then the model plane, then the data plane.
    fn respond(&self, req: Request) -> Response {
        match req {
            // Health and introspection are answered even during drain, so
            // a supervisor can tell "draining" from "dead".
            Request::Ping => {
                return Response::Pong {
                    sessions: self.data.sessions() as u32,
                }
            }
            Request::Versions => {}
            _ if self.draining.load(Ordering::Acquire) => {
                self.metrics.on_rejected(RejectReason::ShuttingDown);
                return Response::Reject(RejectReason::ShuttingDown);
            }
            _ => {}
        }
        model_plane(req, self.registry, &self.metrics)
            .unwrap_or_else(|req| self.data.serve(req, self.registry, &self.metrics))
    }

    fn serve_connection(&self, mut stream: TcpStream) {
        loop {
            let req = match read_request(&mut stream) {
                Ok(r) => r,
                // Disconnect, malformed frame (retired tags included), or
                // the close-time shutdown of the socket end the
                // connection. Shut it down so the client sees EOF now:
                // the peer list holds a clone until close.
                Err(_) => {
                    let _ = stream.shutdown(Shutdown::Both);
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

/// The model plane: `Swap`, `Shadow`, `Versions` and `Refresh` act on the
/// registry once. A cluster's shards share that registry, so a swap at the
/// router is cluster-atomic: no shard can admit on the old version once
/// the promote returns. Any other request is handed back.
fn model_plane(
    req: Request,
    registry: &ModelRegistry,
    metrics: &ServeMetrics,
) -> Result<Response, Request> {
    // Ok(refreshed): the version a Refresh just minted, 0 otherwise.
    let done: Result<u32, RegistryError> = match req {
        Request::Swap { version } => {
            let swapped = if version == 0 {
                registry.rollback().map(|_| ())
            } else {
                registry.promote(ModelVersion(version))
            };
            swapped.map(|()| {
                metrics.on_model_swap();
                0
            })
        }
        Request::Shadow { version: 0, .. } => {
            registry.clear_shadow();
            Ok(0)
        }
        Request::Shadow {
            version,
            mirror_every,
        } => registry
            .set_shadow(ModelVersion(version), mirror_every)
            .map(|()| 0),
        Request::Versions => Ok(0),
        Request::Refresh => {
            let label = format!("refresh-{}", registry.refresh_count() + 1);
            match registry.refresh(&label) {
                Ok(version) => {
                    metrics.on_model_refresh();
                    Ok(version.0)
                }
                // No statistics yet: not an error, just nothing new.
                Err(RegistryError::EmptyStats) => Ok(0),
                Err(e) => Err(e),
            }
        }
        other => return Err(other),
    };
    let Ok(refreshed) = done else {
        metrics.on_rejected(RejectReason::Invalid);
        return Ok(Response::Reject(RejectReason::Invalid));
    };
    let (shadow, mirror_every) = registry.shadow_plan().map_or((0, 0), |(v, n)| (v.0, n));
    Ok(Response::Models {
        active: registry.active_version().0,
        previous: registry.previous_version().map_or(0, |v| v.0),
        shadow,
        mirror_every,
        refreshed,
        manifests: registry.manifests(),
    })
}

/// A bound front end: its address, its request plane and its accept
/// thread.
pub(crate) struct FrontEnd<'scope, 'env, D> {
    addr: SocketAddr,
    pub(crate) plane: Arc<Plane<'scope, 'env, D>>,
    accept: OrderedMutex<Option<ScopedJoinHandle<'scope, ()>>>,
}

impl<'scope, 'env, D: DataPlane + 'scope> FrontEnd<'scope, 'env, D> {
    /// Binds a loopback listener and spawns the accept thread into
    /// `scope`; every accepted connection gets its own handler thread.
    pub(crate) fn start(
        scope: &'scope Scope<'scope, 'env>,
        data: D,
        registry: &'env ModelRegistry,
        metrics: Arc<ServeMetrics>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let plane = Arc::new(Plane {
            data,
            registry,
            metrics,
            draining: AtomicBool::new(false),
            peers: OrderedMutex::new(rank::SERVER_PEERS, "frontend.peers", Vec::new()),
            handlers: OrderedMutex::new(rank::SERVER_HANDLERS, "frontend.handlers", Vec::new()),
        });
        let accept = {
            let plane = Arc::clone(&plane);
            scope.spawn(move || {
                for incoming in listener.incoming() {
                    if plane.draining.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = incoming else { continue };
                    // Request/response frames are small; without nodelay,
                    // Nagle + delayed ACK adds ~40 ms per round trip,
                    // which would distort every latency histogram and
                    // idle-based session policy.
                    let _ = stream.set_nodelay(true);
                    // Track a duplicate handle so close can unblock the
                    // handler; a connection we cannot track we do not
                    // serve (it could park a handler forever).
                    let Ok(peer) = stream.try_clone() else { continue };
                    plane.peers.lock().push(peer);
                    let conn_plane = Arc::clone(&plane);
                    let handle = scope.spawn(move || conn_plane.serve_connection(stream));
                    plane.handlers.lock().push(handle);
                }
            })
        };
        Ok(FrontEnd {
            addr,
            plane,
            accept: OrderedMutex::new(rank::ACCEPT_HANDLE, "frontend.accept", Some(accept)),
        })
    }
}

impl<D> FrontEnd<'_, '_, D> {
    /// The bound loopback address clients connect to.
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Closes the drain gate: from here on every request but `Ping` and
    /// `Versions` is shed with [`RejectReason::ShuttingDown`].
    pub(crate) fn close_gate(&self) {
        self.plane.draining.store(true, Ordering::Release);
    }

    /// True once [`FrontEnd::close`] joined the accept thread.
    pub(crate) fn is_closed(&self) -> bool {
        self.accept.lock().is_none()
    }

    /// The shared tail of every drain: unblock the accept loop with a
    /// self-connection and join it, then shut down every peer socket (so
    /// handlers parked in `read_request` wake) and join the handlers.
    pub(crate) fn close(&self) {
        self.close_gate();
        let _ = TcpStream::connect(self.addr);
        let accept = self.accept.lock().take();
        if let Some(h) = accept {
            let _ = h.join();
        }
        for peer in self.plane.peers.lock().drain(..) {
            let _ = peer.shutdown(Shutdown::Both);
        }
        let handlers = std::mem::take(&mut *self.plane.handlers.lock());
        for h in handlers {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, ClusterHandle, ClusterTopology};
    use crate::scheduler::ServeCtx;
    use crate::server::{ServeConfig, ServerHandle};
    use lhmm_cellsim::dataset::{Dataset, DatasetConfig};
    use lhmm_core::lhmm::{LhmmConfig, LhmmModel};
    use lhmm_core::types::MatchContext;

    /// Closes the gate, then sends one request of every kind: `Ping` and
    /// `Versions` are answered, everything else is shed and counted once.
    fn assert_drain_gate<D: DataPlane>(front: &FrontEnd<'_, '_, D>, requests: &[Request]) {
        front.close_gate();
        let plane = &front.plane;
        let shed = || plane.metrics.snapshot(0, 0).rejected_for(RejectReason::ShuttingDown);
        for req in requests {
            let before = shed();
            let resp = plane.respond(req.clone());
            match req {
                Request::Ping => assert!(matches!(resp, Response::Pong { .. }), "{resp:?}"),
                Request::Versions => assert!(matches!(resp, Response::Models { .. }), "{resp:?}"),
                _ => assert_eq!(resp, Response::Reject(RejectReason::ShuttingDown), "{req:?}"),
            }
            let answered = matches!(req, Request::Ping | Request::Versions);
            assert_eq!(shed() - before, u64::from(!answered), "{req:?}");
        }
    }

    #[test]
    fn drain_gate_answers_ping_and_versions_and_sheds_the_rest_at_both_front_ends() {
        let ds = Dataset::generate(&DatasetConfig::tiny_test(330));
        let mut cfg = LhmmConfig::fast_test(330);
        cfg.use_learned_obs = false;
        cfg.use_learned_trans = false;
        let registry = ModelRegistry::new(LhmmModel::train(&ds, cfg), "v1");
        let serve = ServeCtx {
            ctx: MatchContext {
                net: &ds.network,
                index: &ds.index,
                towers: &ds.towers,
            },
            registry: &registry,
            scope: None,
        };
        let topology = ClusterTopology::build(&ds.network, &ds.index, 1, 1, 3_000.0);
        let traj = ds.test[0].cellular.clone();
        let point = traj.points[0];
        let requests = [
            Request::OneShot { traj },
            Request::Open { client: 1, lag: 2, version: 0 },
            Request::Push { client: 1, point },
            Request::Finish { client: 1 },
            Request::Ping,
            Request::Swap { version: 1 },
            Request::Shadow { version: 1, mirror_every: 2 },
            Request::Versions,
            Request::Refresh,
        ];
        std::thread::scope(|s| {
            let server = ServerHandle::start(s, serve, ServeConfig::default()).expect("bind server");
            assert_drain_gate(&server.front, &requests);
            server.shutdown_and_drain();
            let cluster = ClusterHandle::start(s, serve, &topology, ClusterConfig::default())
                .expect("bind cluster");
            assert_drain_gate(&cluster.front, &requests);
            cluster.shutdown_and_drain();
        });
    }
}
