//! Dynamic micro-batching: size-or-deadline batch formation over a bounded
//! admission queue, dispatched onto a pool of matching workers.
//!
//! # Shape
//!
//! ```text
//! submit() ──try_push──▶ BoundedQueue ──▶ scheduler thread ──▶ dispatch ──▶ worker 0..N
//!    │                     (admission)     forms batches by     channel      own HmmEngine
//!    └── RejectReason on full/closed       size OR deadline                  own SpCache
//! ```
//!
//! The scheduler pulls the first request, then keeps pulling until the
//! batch reaches `max_batch` **or** `max_wait` has elapsed since the batch
//! opened — the standard inference-serving trade-off: under load batches
//! fill instantly (throughput), when idle a lone request waits at most
//! `max_wait` (latency).
//!
//! Workers mirror the batch-matcher design: each owns a private
//! [`HmmEngine`] whose [`SpCache`](lhmm_network::sp_cache::SpCache) it
//! alone mutates and whose scratch arenas recycle across requests, so
//! results are byte-identical to serial matching no matter how requests
//! are batched or interleaved (cache state never changes answers — see
//! `lhmm_core::batch`).

use crate::admission::{BoundedQueue, PushError, RejectReason};
use crate::metrics::ServeMetrics;
use lhmm_cellsim::traj::CellularTrajectory;
use lhmm_core::error::MatchError;
use lhmm_core::registry::{ModelRegistry, VersionedModel};
use lhmm_core::types::{MatchContext, MatchResult, MatchStats};
use lhmm_core::viterbi::HmmEngine;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

use lhmm_core::sync::{rank, OrderedMutex};

/// Everything a worker needs to match on behalf of the service.
#[derive(Clone, Copy)]
pub struct ServeCtx<'a> {
    /// Road network, spatial index, tower field.
    pub ctx: MatchContext<'a>,
    /// The versioned model registry, shared read-only across every thread.
    /// Requests resolve (and pin) the active version at admission, so a
    /// hot swap never changes what an in-flight request serves.
    pub registry: &'a ModelRegistry,
    /// Tile view when this instance serves one shard of a cluster
    /// (`None` for unsharded serving). Streaming candidate preparation for
    /// in-core positions uses the tile's subset index; one-shots and
    /// out-of-core positions always use the full `ctx.index`, so results
    /// are byte-identical to unsharded serving either way.
    pub scope: Option<&'a lhmm_network::tile::TileScope>,
}

/// Micro-batching parameters.
#[derive(Clone, Debug)]
pub struct BatchPolicy {
    /// Maximum requests per dispatched batch.
    pub max_batch: usize,
    /// Maximum time a forming batch waits for more requests.
    pub max_wait: Duration,
    /// Admission-queue capacity (requests waiting for a batch slot).
    pub queue_capacity: usize,
    /// Worker threads (each with a private shortest-path cache). Min 1.
    pub workers: usize,
    /// Artificial per-request service latency, for overload experiments
    /// and scheduler benchmarks (simulates a heavier model; keep
    /// `Duration::ZERO` in production).
    pub service_delay: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 16,
            max_wait: Duration::from_millis(2),
            queue_capacity: 256,
            workers: 2,
            service_delay: Duration::ZERO,
        }
    }
}

/// The verdict a submitted request resolves to.
pub type MatchReply = Result<(MatchResult, MatchStats), MatchError>;

/// One queued one-shot request. The model version is resolved — and
/// thereby pinned — at admission: `pin` keeps its `Arc` alive until the
/// reply is sent, no matter how many swaps happen in between.
struct Job {
    traj: CellularTrajectory,
    enqueued: Instant,
    reply: mpsc::Sender<MatchReply>,
    /// The version this request serves (the active version at admission).
    pin: Arc<VersionedModel>,
    /// Candidate version to mirror this request through (shadow A/B); the
    /// mirrored verdict is compared and recorded, never sent to the client.
    shadow: Option<Arc<VersionedModel>>,
}

/// Handle to a running micro-batch scheduler + worker pool.
///
/// Created by [`MicroBatcher::start`] inside a [`std::thread::scope`]; all
/// threads join in [`MicroBatcher::drain`] (which the caller must invoke
/// before the scope closes, or the scope will block on the scheduler's
/// polling loop until `drain` is called from another thread).
pub struct MicroBatcher<'scope, 'env> {
    queue: Arc<BoundedQueue<Job>>,
    metrics: Arc<ServeMetrics>,
    registry: &'env ModelRegistry,
    draining: Arc<AtomicBool>,
    threads: OrderedMutex<Vec<ScopedJoinHandle<'scope, ()>>>,
    _env: std::marker::PhantomData<&'env ()>,
}

impl<'scope, 'env> MicroBatcher<'scope, 'env> {
    /// Spawns the scheduler thread and `policy.workers` matching workers
    /// into `scope`.
    pub fn start(
        scope: &'scope Scope<'scope, 'env>,
        serve: ServeCtx<'env>,
        policy: BatchPolicy,
        metrics: Arc<ServeMetrics>,
    ) -> Self {
        let queue = Arc::new(BoundedQueue::new(policy.queue_capacity));
        let draining = Arc::new(AtomicBool::new(false));
        let workers = policy.workers.max(1);
        let (dispatch_tx, dispatch_rx) = mpsc::sync_channel::<Vec<Job>>(workers);
        // Rank-ordered (DESIGN §15): workers take this below the queue lock.
        let dispatch_rx = Arc::new(OrderedMutex::new(
            rank::SCHEDULER_DISPATCH,
            "scheduler.dispatch",
            dispatch_rx,
        ));

        let mut threads = Vec::with_capacity(workers + 1);

        // Scheduler: size-or-deadline batch formation.
        {
            let queue = Arc::clone(&queue);
            let metrics = Arc::clone(&metrics);
            let max_batch = policy.max_batch.max(1);
            let max_wait = policy.max_wait;
            threads.push(scope.spawn(move || {
                loop {
                    // Block (with a shutdown-observing timeout) for the
                    // batch's first request.
                    let first = match queue.pop_timeout(Duration::from_millis(20)) {
                        Some(j) => j,
                        None => {
                            if queue.is_closed() && queue.is_empty() {
                                break; // drained
                            }
                            continue;
                        }
                    };
                    let opened = Instant::now();
                    let mut batch = vec![first];
                    while batch.len() < max_batch {
                        let Some(remaining) = max_wait.checked_sub(opened.elapsed()) else {
                            break;
                        };
                        match queue.pop_timeout(remaining) {
                            Some(j) => batch.push(j),
                            None => break, // deadline or closed-and-empty
                        }
                    }
                    metrics.on_batch(batch.len());
                    if dispatch_tx.send(batch).is_err() {
                        break; // workers gone (only during teardown)
                    }
                }
                // Dropping the sender lets workers drain and exit.
                drop(dispatch_tx);
            }));
        }

        // Workers: each owns one engine (private route cache) per model
        // version it has served, built lazily on the first job pinned to
        // that version. Engines borrow only the road network, so they
        // survive swaps; the per-version keying keeps each engine's config
        // and shortest-path backend consistent with the model it serves.
        for _ in 0..workers {
            let dispatch_rx = Arc::clone(&dispatch_rx);
            let metrics = Arc::clone(&metrics);
            let delay = policy.service_delay;
            threads.push(scope.spawn(move || {
                fn engine_for<'m>(
                    engines: &'m mut BTreeMap<u32, HmmEngine>,
                    net: &lhmm_network::graph::RoadNetwork,
                    entry: &VersionedModel,
                ) -> &'m mut HmmEngine {
                    engines
                        .entry(entry.manifest.version.0)
                        .or_insert_with(|| HmmEngine::new(net, entry.model.engine_config()))
                }
                let mut engines: BTreeMap<u32, HmmEngine> = BTreeMap::new();
                loop {
                    let batch = {
                        // Single-consumer hand-off by design: idle workers
                        // serialize on the dispatch mutex and block in
                        // `recv` until the scheduler forms a batch; no
                        // other lock is held.
                        let rx = dispatch_rx.lock();
                        // lint:allow(guard-across-blocking): intended dispatch wait
                        rx.recv()
                    };
                    let Ok(batch) = batch else {
                        break; // scheduler hung up: drain complete
                    };
                    for job in batch {
                        let queue_wait = job.enqueued.elapsed().as_secs_f64();
                        if !delay.is_zero() {
                            std::thread::sleep(delay);
                        }
                        let pinned = job.pin.manifest.version.0;
                        let started = Instant::now();
                        let engine =
                            engine_for(&mut engines, serve.ctx.net, &job.pin);
                        let mut verdict =
                            job.pin
                                .model
                                .try_match_with_engine_stats(&serve.ctx, &job.traj, engine);
                        let service = started.elapsed().as_secs_f64();
                        if let Ok((_, s)) = &mut verdict {
                            s.model_version = pinned;
                        }
                        let stats = match &verdict {
                            Ok((_, s)) => *s,
                            Err(_) => MatchStats {
                                model_version: pinned,
                                ..MatchStats::default()
                            },
                        };
                        metrics.on_completed(queue_wait, service, &stats);
                        // Successful matches feed the online refresh
                        // statistics collector.
                        if let Ok((result, _)) = &verdict {
                            serve.registry.observe(
                                serve.ctx.net,
                                &job.traj.points,
                                &result.path.segments,
                            );
                        }
                        // Shadow A/B: re-match the mirrored request on the
                        // candidate version and record whether its verdict
                        // diverges. The mirror never reaches the client.
                        if let Some(cand) = &job.shadow {
                            let shadow_started = Instant::now();
                            let shadow_engine =
                                engine_for(&mut engines, serve.ctx.net, cand);
                            let shadow_verdict = cand.model.try_match_with_engine_stats(
                                &serve.ctx,
                                &job.traj,
                                shadow_engine,
                            );
                            let shadow_service = shadow_started.elapsed().as_secs_f64();
                            let diverged = match (&verdict, &shadow_verdict) {
                                (Ok((a, _)), Ok((b, _))) => a.path.segments != b.path.segments,
                                (Err(_), Err(_)) => false,
                                _ => true,
                            };
                            metrics.on_shadow(cand.manifest.version.0, shadow_service, diverged);
                        }
                        if job.reply.send(verdict).is_err() {
                            metrics.on_orphaned_reply();
                        }
                    }
                }
            }));
        }

        MicroBatcher {
            queue,
            metrics,
            registry: serve.registry,
            draining,
            threads: OrderedMutex::new(rank::SCHEDULER_THREADS, "scheduler.threads", threads),
            _env: std::marker::PhantomData,
        }
    }

    /// Submits one trajectory for matching. On admission returns the
    /// receiver the reply will arrive on; otherwise the typed shed reason.
    ///
    /// Admission is the pinning moment: the active model version (and the
    /// shadow candidate, on mirrored admissions) is resolved here, so a
    /// swap that lands after this call cannot change what this request
    /// serves.
    pub fn submit(
        &self,
        traj: CellularTrajectory,
    ) -> Result<mpsc::Receiver<MatchReply>, RejectReason> {
        if self.draining.load(Ordering::Acquire) {
            self.metrics.on_rejected(RejectReason::ShuttingDown);
            return Err(RejectReason::ShuttingDown);
        }
        let (tx, rx) = mpsc::channel();
        let job = Job {
            traj,
            enqueued: Instant::now(),
            reply: tx,
            pin: self.registry.active(),
            shadow: self.registry.shadow_pick(),
        };
        match self.queue.try_push(job) {
            Ok(()) => {
                self.metrics.on_admitted(self.queue.len());
                Ok(rx)
            }
            Err((PushError::Full, _)) => {
                self.metrics.on_rejected(RejectReason::QueueFull);
                Err(RejectReason::QueueFull)
            }
            Err((PushError::Closed, _)) => {
                self.metrics.on_rejected(RejectReason::ShuttingDown);
                Err(RejectReason::ShuttingDown)
            }
        }
    }

    /// Instantaneous admission-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Stops admissions, flushes every queued request through the workers,
    /// and joins all scheduler/worker threads. Every admitted request gets
    /// its reply before this returns — nothing in flight is dropped.
    pub fn drain(&self) {
        self.draining.store(true, Ordering::Release);
        self.queue.close();
        let threads = {
            let mut guard = self.threads.lock();
            std::mem::take(&mut *guard)
        };
        for t in threads {
            if t.join().is_err() {
                // A panicked worker is a bug elsewhere; drain keeps going
                // so the remaining threads still join and the report is
                // produced (the panic is visible in the worker's test).
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhmm_cellsim::dataset::{Dataset, DatasetConfig};
    use lhmm_core::lhmm::{LhmmConfig, LhmmModel};
    use std::thread;

    fn cheap_model(ds: &Dataset, seed: u64) -> LhmmModel {
        let mut cfg = LhmmConfig::fast_test(seed);
        cfg.use_learned_obs = false;
        cfg.use_learned_trans = false;
        LhmmModel::train(ds, cfg)
    }

    #[test]
    fn batcher_matches_equal_to_serial_and_drains_clean() {
        let ds = Dataset::generate(&DatasetConfig::tiny_test(301));
        let model = cheap_model(&ds, 301);
        let ctx = MatchContext {
            net: &ds.network,
            index: &ds.index,
            towers: &ds.towers,
        };
        // Serial reference.
        let mut engine = HmmEngine::new(&ds.network, model.engine_config());
        let want: Vec<_> = ds
            .test
            .iter()
            .map(|r| {
                model
                    .try_match_with_engine_stats(&ctx, &r.cellular, &mut engine)
                    .expect("matched")
                    .0
            })
            .collect();

        let registry = ModelRegistry::new(model, "test");
        let metrics = Arc::new(ServeMetrics::new());
        let policy = BatchPolicy {
            max_batch: 4,
            max_wait: Duration::from_millis(1),
            workers: 2,
            ..Default::default()
        };
        let got: Vec<_> = thread::scope(|s| {
            let batcher = MicroBatcher::start(
                s,
                ServeCtx { ctx, registry: &registry, scope: None },
                policy,
                Arc::clone(&metrics),
            );
            let receivers: Vec<_> = ds
                .test
                .iter()
                .map(|r| batcher.submit(r.cellular.clone()).expect("admitted"))
                .collect();
            let got = receivers
                .into_iter()
                .map(|rx| rx.recv().expect("reply").expect("matched").0)
                .collect();
            batcher.drain();
            got
        });
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.path.segments, w.path.segments);
        }
        let report = metrics.snapshot(0, 0);
        assert_eq!(report.admitted, ds.test.len() as u64);
        assert_eq!(report.completed, ds.test.len() as u64);
        assert_eq!(report.in_flight_lost(), 0);
        assert!(report.batches > 0);
        assert!(report.mean_batch_occupancy() >= 1.0);
        assert!(report.queue_wait.count() == ds.test.len() as u64);
    }

    #[test]
    fn submissions_after_drain_are_shed_as_shutting_down() {
        let ds = Dataset::generate(&DatasetConfig::tiny_test(302));
        let model = cheap_model(&ds, 302);
        let ctx = MatchContext {
            net: &ds.network,
            index: &ds.index,
            towers: &ds.towers,
        };
        let registry = ModelRegistry::new(model, "test");
        let metrics = Arc::new(ServeMetrics::new());
        thread::scope(|s| {
            let batcher = MicroBatcher::start(
                s,
                ServeCtx { ctx, registry: &registry, scope: None },
                BatchPolicy::default(),
                Arc::clone(&metrics),
            );
            batcher.drain();
            let err = batcher
                .submit(ds.test[0].cellular.clone())
                .expect_err("must shed");
            assert_eq!(err, RejectReason::ShuttingDown);
        });
        assert_eq!(
            metrics
                .snapshot(0, 0)
                .rejected_for(RejectReason::ShuttingDown),
            1
        );
    }

    #[test]
    fn full_queue_sheds_with_queue_full() {
        let ds = Dataset::generate(&DatasetConfig::tiny_test(303));
        let model = cheap_model(&ds, 303);
        let ctx = MatchContext {
            net: &ds.network,
            index: &ds.index,
            towers: &ds.towers,
        };
        let registry = ModelRegistry::new(model, "test");
        let metrics = Arc::new(ServeMetrics::new());
        let policy = BatchPolicy {
            queue_capacity: 1,
            workers: 1,
            max_batch: 1,
            // Slow service so the queue backs up deterministically.
            service_delay: Duration::from_millis(50),
            ..Default::default()
        };
        thread::scope(|s| {
            let batcher = MicroBatcher::start(
                s,
                ServeCtx { ctx, registry: &registry, scope: None },
                policy,
                Arc::clone(&metrics),
            );
            let mut receivers = Vec::new();
            let mut shed = 0;
            for _ in 0..6 {
                match batcher.submit(ds.test[0].cellular.clone()) {
                    Ok(rx) => receivers.push(rx),
                    Err(reason) => {
                        assert_eq!(reason, RejectReason::QueueFull);
                        shed += 1;
                    }
                }
            }
            assert!(shed > 0, "queue never filled");
            // Every admitted request still completes.
            for rx in receivers {
                let _ = rx.recv().expect("admitted requests are served");
            }
            batcher.drain();
        });
        let report = metrics.snapshot(0, 0);
        assert_eq!(report.in_flight_lost(), 0);
        assert!(report.rejected_for(RejectReason::QueueFull) > 0);
    }

    #[test]
    fn shadow_mirrors_never_leak_and_lanes_slice_by_version() {
        use lhmm_core::registry::ModelVersion;

        let ds = Dataset::generate(&DatasetConfig::tiny_test(304));
        let model = cheap_model(&ds, 304);
        let mut candidate = model.clone();
        // A structurally different candidate set: verdicts may diverge.
        candidate.config.k = 3;
        let ctx = MatchContext {
            net: &ds.network,
            index: &ds.index,
            towers: &ds.towers,
        };
        // Offline references on both versions; the expected divergence
        // count is derived here, not guessed.
        let mut e1 = HmmEngine::new(&ds.network, model.engine_config());
        let want1: Vec<_> = ds
            .test
            .iter()
            .map(|r| {
                model
                    .try_match_with_engine_stats(&ctx, &r.cellular, &mut e1)
                    .expect("matched")
                    .0
                    .path
                    .segments
            })
            .collect();
        let mut e2 = HmmEngine::new(&ds.network, candidate.engine_config());
        let want2: Vec<_> = ds
            .test
            .iter()
            .map(|r| {
                candidate
                    .try_match_with_engine_stats(&ctx, &r.cellular, &mut e2)
                    .expect("matched")
                    .0
                    .path
                    .segments
            })
            .collect();
        let expected_div = want1.iter().zip(&want2).filter(|(a, b)| a != b).count() as u64;

        let registry = ModelRegistry::new(model, "seed");
        let v2 = registry.register(candidate, "candidate", Some(ModelVersion(1)));
        registry.set_shadow(v2, 1).expect("candidate exists");

        let metrics = Arc::new(ServeMetrics::new());
        thread::scope(|s| {
            let batcher = MicroBatcher::start(
                s,
                ServeCtx { ctx, registry: &registry, scope: None },
                BatchPolicy::default(),
                Arc::clone(&metrics),
            );
            let receivers: Vec<_> = ds
                .test
                .iter()
                .map(|r| batcher.submit(r.cellular.clone()).expect("admitted"))
                .collect();
            for (rx, want) in receivers.into_iter().zip(&want1) {
                let (result, stats) = rx.recv().expect("reply").expect("matched");
                // Clients always get the pinned (active) version's verdict.
                assert_eq!(&result.path.segments, want);
                assert_eq!(stats.model_version, 1);
            }
            batcher.drain();
        });
        let report = metrics.snapshot(0, 0);
        let n = ds.test.len() as u64;
        assert_eq!(report.shadow_served, n, "mirror_every=1 mirrors everything");
        assert_eq!(report.shadow_divergences, expected_div);
        assert_eq!(report.versions.lanes[&1].served, n);
        assert_eq!(report.versions.lanes[&2].shadow_served, n);
        // Served matches accumulated refresh statistics.
        let stats = registry.stats();
        assert_eq!(stats.observed_matches, n);
        assert!(!stats.is_empty());
    }
}
