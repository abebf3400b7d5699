//! The `cluster_mixed` workload: the dense city behind a 2x1 cluster
//! (router, two shards, supervisor), driven open loop over loopback TCP by
//! two client threads on seeded Poisson schedules.
//!
//! * The one-shot connection sends whole held-out trajectories. Each
//!   reply must equal, byte for byte, the offline `BatchMatcher` verdict
//!   for the same trajectory, computed in-process before the window.
//! * The streaming connection interleaves open/push/finish for many
//!   concurrent sessions. Session lengths are heavy-tailed (Pareto); a
//!   session replays a held-out trajectory back and forth, so positions
//!   stay continuous and time keeps increasing.
//!
//! Latency is measured from the time each request was due, so a stall
//! also charges the requests queued behind it.

use crate::host;
use crate::json::Value;
use crate::stats::{histogram_quantile_s, median, quantile};
use crate::trace::{Tracer, ROOT};
use crate::workload::{self, matching_layers, Outcome, Workload};
use lhmm_cellsim::traj::{CellularPoint, CellularTrajectory};
use lhmm_core::batch::{BatchConfig, BatchMatcher};
use lhmm_core::lhmm::LhmmModel;
use lhmm_core::registry::ModelRegistry;
use lhmm_core::types::{MatchContext, MatchResult};
use lhmm_serve::protocol::{read_response, write_request, write_response};
use lhmm_serve::{
    ClientError, ClusterConfig, ClusterHandle, ClusterTopology, Request, Response, ServeClient,
    ServeCtx, WireMatchError,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};

/// Offered one-shot rate, requests per second.
const ONESHOT_RATE: f64 = 5.0;
/// Offered streaming rate, operations (open, push or finish) per second.
const STREAM_OP_RATE: f64 = 300.0;
/// Concurrent streaming sessions the schedule keeps open.
const STREAM_SLOTS: usize = 24;
/// Fixed-lag window of every streaming session.
const LAG: u32 = 4;
/// Session length in points: Pareto with this minimum and shape, capped.
const SESSION_MIN_POINTS: f64 = 6.0;
const SESSION_SHAPE: f64 = 1.2;
const SESSION_MAX_POINTS: usize = 400;
/// Tile grid and halo of the cluster.
const GRID: (usize, usize) = (2, 1);
const HALO_M: f64 = 3_000.0;
/// Sequential pings in the traced wire probe.
const PINGS: usize = 200;

/// One streaming operation.
#[derive(Clone, Debug)]
enum Op {
    Open(u64),
    Push(u64, CellularPoint),
    Finish(u64),
}

impl Op {
    fn request(&self) -> Request {
        match self {
            Op::Open(client) => Request::Open {
                client: *client,
                lag: LAG,
                version: 0,
            },
            Op::Push(client, point) => Request::Push {
                client: *client,
                point: *point,
            },
            Op::Finish(client) => Request::Finish { client: *client },
        }
    }
}

/// `n` arrival times of a Poisson process on `[0, seconds)` conditioned
/// on its count: sorted uniform draws. Fixing the count keeps the offered
/// load identical across seeds; only the arrival pattern varies.
fn arrivals(rng: &mut StdRng, n: usize, seconds: f64) -> Vec<f64> {
    let mut t: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * seconds).collect();
    t.sort_by(f64::total_cmp);
    t
}

/// `n` pool indices: seeded shuffles of the whole pool, back to back, so
/// every trajectory is sent equally often (±1) and a run's service-time
/// mix is the pool's, not a resample of it.
fn cycled_picks(rng: &mut StdRng, n: usize, pool: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut round: Vec<usize> = (0..pool).collect();
        for i in (1..round.len()).rev() {
            round.swap(i, rng.gen_range(0..=i));
        }
        out.extend(round);
    }
    out.truncate(n);
    out
}

/// The one-shot schedule: (due second, pool index).
fn oneshot_schedule(rng: &mut StdRng, seconds: f64, pool: usize) -> Vec<(f64, usize)> {
    let n = ((ONESHOT_RATE * seconds).round() as usize).max(1);
    let times = arrivals(rng, n, seconds);
    times.into_iter().zip(cycled_picks(rng, n, pool)).collect()
}

/// Session length (points) at quantile `q` of the capped Pareto.
fn session_len(q: f64) -> usize {
    let len = SESSION_MIN_POINTS * (1.0 - q).powf(-1.0 / SESSION_SHAPE);
    (len as usize).clamp(1, SESSION_MAX_POINTS)
}

/// `m` heavy-tailed session lengths, one per stratum of the length
/// distribution, in seeded order: every seed streams the same multiset
/// of lengths, so the tail is present in every run in the same amount.
fn session_lengths(rng: &mut StdRng, m: usize) -> Vec<usize> {
    let mut lens: Vec<usize> = (0..m)
        .map(|i| session_len((i as f64 + 0.5) / m as f64))
        .collect();
    for i in (1..lens.len()).rev() {
        lens.swap(i, rng.gen_range(0..=i));
    }
    lens
}

/// A session being laid out: which trajectory it replays, how far, and
/// the replayed clock.
struct SessionGen {
    id: u64,
    traj: usize,
    step: usize,
    remaining: usize,
    clock: f64,
}

/// The `step`-th point of a back-and-forth replay of an `n`-point
/// trajectory.
fn ping_pong_index(n: usize, step: usize) -> usize {
    let period = 2 * (n - 1);
    let r = step % period;
    if r < n {
        r
    } else {
        period - r
    }
}

/// The streaming schedule: (due second, op) and the session count.
///
/// Sessions sized by [`session_lengths`] are interleaved over
/// [`STREAM_SLOTS`] concurrent slots: each arrival advances a random slot
/// (opening the next queued session when the slot is free), and once the
/// queue is empty only live slots are drawn, so every session finishes
/// inside the schedule.
fn stream_schedule(
    rng: &mut StdRng,
    seconds: f64,
    pool: &[CellularTrajectory],
) -> (Vec<(f64, Op)>, u64) {
    // Mean operations per session (open + pushes + finish), integrated
    // over fine strata, sets the session count for the target rate.
    const STRATA: usize = 10_000;
    let mean_ops = (0..STRATA)
        .map(|i| session_len((i as f64 + 0.5) / STRATA as f64) + 2)
        .sum::<usize>() as f64
        / STRATA as f64;
    let sessions = ((STREAM_OP_RATE * seconds / mean_ops).round() as usize).max(1);
    let lens = session_lengths(rng, sessions);
    let total_ops: usize = lens.iter().map(|l| l + 2).sum();
    let mut queue = lens.into_iter();

    let mut slots: Vec<Option<SessionGen>> = (0..STREAM_SLOTS).map(|_| None).collect();
    let mut out = Vec::with_capacity(total_ops);
    let mut next_id = 1u64;
    let mut queue_empty = false;
    for t in arrivals(rng, total_ops, seconds) {
        let slot = if queue_empty {
            let live: Vec<usize> = (0..slots.len()).filter(|&i| slots[i].is_some()).collect();
            live[rng.gen_range(0..live.len())]
        } else {
            rng.gen_range(0..slots.len())
        };
        match &mut slots[slot] {
            None => {
                // Non-empty by construction: an empty queue draws live
                // slots only.
                let Some(len) = queue.next() else { break };
                queue_empty = queue.len() == 0;
                let traj = rng.gen_range(0..pool.len());
                out.push((t, Op::Open(next_id)));
                slots[slot] = Some(SessionGen {
                    id: next_id,
                    traj,
                    step: 0,
                    remaining: len,
                    clock: pool[traj].points[0].t,
                });
                next_id += 1;
            }
            Some(g) if g.remaining > 0 => {
                let points = &pool[g.traj].points;
                let idx = ping_pong_index(points.len(), g.step);
                if g.step > 0 {
                    let prev = ping_pong_index(points.len(), g.step - 1);
                    g.clock += (points[idx].t - points[prev].t).abs().max(1.0);
                }
                let point = CellularPoint {
                    t: g.clock,
                    ..points[idx]
                };
                out.push((t, Op::Push(g.id, point)));
                g.step += 1;
                g.remaining -= 1;
            }
            Some(g) => {
                out.push((t, Op::Finish(g.id)));
                slots[slot] = None;
            }
        }
    }
    (out, sessions as u64)
}

/// What one client connection observed.
#[derive(Default)]
struct ClientLog {
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    busy_s: f64,
    attempted: u64,
    failed: u64,
    completed_trajs: u64,
    violations: Vec<String>,
    /// Replies as wire responses (traced runs only, for the decode probe).
    replies: Vec<Response>,
    end: Option<Instant>,
}

impl ClientLog {
    fn observe(&mut self, due: Instant, sent: Instant, done: Instant, traced: bool, timed: bool) {
        let ms = done.duration_since(due).as_secs_f64() * 1e3;
        if timed {
            self.latency_ms.push(ms);
            if traced {
                self.traced_ms.push(ms);
            } else {
                self.untraced_ms.push(ms);
            }
        }
        self.late_ms
            .push(sent.duration_since(due).as_secs_f64() * 1e3);
        self.busy_s += done.duration_since(sent).as_secs_f64();
        self.end = Some(done);
    }
}

fn wait_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        thread::sleep(t - now);
    }
}

/// The wire form of a typed route reply, for verdict comparison.
fn as_response(reply: &Result<lhmm_serve::RouteReply, ClientError>) -> Option<Response> {
    match reply {
        Ok(r) => Some(Response::Route {
            segments: r.segments.clone(),
            degraded: r.degraded,
        }),
        Err(ClientError::Failed(e)) => Some(Response::Failed(WireMatchError::from(e))),
        Err(_) => None,
    }
}

fn encode(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    // Writing into a Vec cannot fail.
    let _ = write_response(&mut buf, resp);
    buf
}

#[allow(clippy::too_many_arguments)]
fn drive_oneshots(
    addr: SocketAddr,
    origin: Instant,
    schedule: &[(f64, usize)],
    pool: &[CellularTrajectory],
    expected: &[Vec<u8>],
    tracer: &mut Tracer,
    keep_replies: bool,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut client = match ServeClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.violations.push(format!("one-shot connect: {e}"));
            return log;
        }
    };
    for (k, &(due_s, idx)) in schedule.iter().enumerate() {
        let due = origin + Duration::from_secs_f64(due_s);
        wait_until(due);
        let sent = Instant::now();
        let reply = client.one_shot(&pool[idx]);
        let done = Instant::now();
        let traced = tracer.enabled() && k % 2 == 1;
        if traced {
            tracer.record("client.oneshot", ROOT, k as u64, sent, done);
        }
        log.attempted += 1;
        match as_response(&reply) {
            Some(resp) => {
                if encode(&resp) != expected[idx] {
                    log.violations.push(format!(
                        "one-shot {k} (trajectory {idx}) differs from the offline verdict"
                    ));
                }
                if matches!(resp, Response::Route { .. }) {
                    log.completed_trajs += 1;
                } else {
                    log.failed += 1;
                }
                log.observe(due, sent, done, traced, true);
                if keep_replies {
                    log.replies.push(resp);
                }
            }
            None => {
                log.failed += 1;
                log.observe(due, sent, done, traced, false);
            }
        }
    }
    log
}

fn drive_stream(
    addr: SocketAddr,
    origin: Instant,
    schedule: &[(f64, Op)],
    tracer: &mut Tracer,
    keep_replies: bool,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut client = match ServeClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.violations.push(format!("stream connect: {e}"));
            return log;
        }
    };
    for (k, (due_s, op)) in schedule.iter().enumerate() {
        let due = origin + Duration::from_secs_f64(*due_s);
        wait_until(due);
        let sent = Instant::now();
        let (name, session, reply) = match op {
            Op::Open(id) => (
                "client.open",
                *id,
                client
                    .open(*id, LAG)
                    .map(|()| Response::Pushed { committed: 0 }),
            ),
            Op::Push(id, p) => (
                "client.push",
                *id,
                client
                    .push(*id, p)
                    .map(|committed| Response::Pushed { committed }),
            ),
            Op::Finish(id) => (
                "client.finish",
                *id,
                client.finish(*id).map(|r| Response::Route {
                    segments: r.segments,
                    degraded: r.degraded,
                }),
            ),
        };
        let done = Instant::now();
        let traced = tracer.enabled() && k % 2 == 1;
        if traced {
            tracer.record(name, ROOT, session, sent, done);
        }
        log.attempted += 1;
        let is_push = matches!(op, Op::Push(..));
        match reply {
            Ok(resp) => {
                if matches!(op, Op::Finish(_)) {
                    log.completed_trajs += 1;
                }
                log.observe(due, sent, done, traced, is_push);
                if keep_replies {
                    log.replies.push(resp);
                }
            }
            Err(e) => {
                log.failed += 1;
                log.observe(due, sent, done, traced, false);
                if !matches!(e, ClientError::Failed(_) | ClientError::Rejected(_)) {
                    log.violations.push(format!("stream op {k}: {e}"));
                }
            }
        }
    }
    log
}

/// Times `write_request` and `read_response` on in-memory buffers of the
/// workload's own frames; returns (encode µs, decode µs) per frame.
fn protocol_probe(requests: &[Request], replies: &[Response]) -> (f64, f64) {
    const MIN_PROBE: Duration = Duration::from_millis(50);
    let mut buf = Vec::with_capacity(64 * 1024);
    let (mut frames, t) = (0usize, Instant::now());
    while frames == 0 || t.elapsed() < MIN_PROBE {
        for req in requests {
            buf.clear();
            let _ = write_request(&mut buf, req);
            frames += 1;
        }
    }
    let encode_us = t.elapsed().as_secs_f64() * 1e6 / frames.max(1) as f64;

    let encoded: Vec<Vec<u8>> = replies.iter().map(encode).collect();
    let (mut frames, t) = (0usize, Instant::now());
    while frames == 0 || t.elapsed() < MIN_PROBE {
        for bytes in &encoded {
            let _ = read_response(&mut bytes.as_slice());
            frames += 1;
        }
        if encoded.is_empty() {
            break;
        }
    }
    let decode_us = t.elapsed().as_secs_f64() * 1e6 / frames.max(1) as f64;
    (encode_us, decode_us)
}

/// Runs the `cluster_mixed` workload.
pub fn run(seed: u64, window: Duration, smoke: bool, out: &mut Outcome) {
    let w = Workload::ClusterMixed;
    let ds = workload::generate(w, seed, smoke);
    let cfg = w.model_config(smoke);
    let pool: Vec<CellularTrajectory> = ds.test.iter().map(|r| r.cellular.clone()).collect();
    let ctx = MatchContext {
        net: &ds.network,
        index: &ds.index,
        towers: &ds.towers,
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC1u64.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let seconds = window.as_secs_f64();
    let oneshots = oneshot_schedule(&mut rng, seconds, pool.len());
    let (stream, sessions) = stream_schedule(&mut rng, seconds, &pool);

    if out.tracer.enabled() {
        workload::traced_builders(&ds, &cfg, out);
    }
    let repeats = w.setup_repeats(smoke);
    let mut setups = Vec::with_capacity(repeats);
    for r in 0..repeats {
        let t0 = Instant::now();
        let registry = ModelRegistry::new(LhmmModel::train(&ds, cfg.clone()), "perfbench");
        let topology = ClusterTopology::build(&ds.network, &ds.index, GRID.0, GRID.1, HALO_M);
        let last = r + 1 == repeats;
        thread::scope(|s| {
            let t_start = Instant::now();
            let serve = ServeCtx {
                ctx,
                registry: &registry,
                scope: None,
            };
            let cluster = match ClusterHandle::start(s, serve, &topology, ClusterConfig::default())
            {
                Ok(c) => c,
                Err(e) => {
                    out.violate(format!("cluster start: {e}"));
                    return;
                }
            };
            setups.push(t0.elapsed().as_secs_f64());
            out.metrics
                .set("serve.cluster.start_s", t_start.elapsed().as_secs_f64());
            if last {
                let client_push_p50_ms = measure(
                    &cluster, &ds.test, &pool, ctx, &registry, &oneshots, &stream, out,
                );
                let report = cluster.shutdown_and_drain();
                serving_layers(out, &report, sessions, client_push_p50_ms);
            } else {
                cluster.shutdown_and_drain();
            }
        });
    }
    out.metrics.set("setup_s", median(&setups));
}

#[allow(clippy::too_many_arguments)]
fn measure(
    cluster: &ClusterHandle<'_, '_>,
    records: &[lhmm_cellsim::traj::TrajectoryRecord],
    pool: &[CellularTrajectory],
    ctx: MatchContext<'_>,
    registry: &ModelRegistry,
    oneshots: &[(f64, usize)],
    stream: &[(f64, Op)],
    out: &mut Outcome,
) -> f64 {
    // Offline verdicts, outside the timed window: one single-trajectory
    // batch per pool entry, so each verdict carries its own stats.
    let active = registry.active();
    let matcher = BatchMatcher::new(&active.model, BatchConfig::with_workers(1));
    let mut expected = Vec::with_capacity(pool.len());
    let mut results = Vec::with_capacity(pool.len());
    let mut batches = Vec::with_capacity(pool.len());
    let mut span_s = 0.0;
    for traj in pool {
        let t0 = Instant::now();
        let (mut res, stats) = matcher.try_match_batch(&ctx, std::slice::from_ref(traj));
        span_s += t0.elapsed().as_secs_f64();
        let verdict = match res.pop() {
            Some(Ok(r)) => {
                let resp = Response::Route {
                    segments: r.path.segments.clone(),
                    degraded: stats.total().degraded(),
                };
                results.push(r);
                resp
            }
            Some(Err(e)) => {
                results.push(MatchResult::empty());
                Response::Failed(WireMatchError::from(&e))
            }
            None => {
                results.push(MatchResult::empty());
                Response::Failed(WireMatchError::from(
                    &lhmm_core::error::MatchError::EmptyTrajectory,
                ))
            }
        };
        expected.push(encode(&verdict));
        batches.push(stats);
    }
    let (rmf, cmf50) = workload::quality(ctx.net, records, &results);
    out.metrics.set("rmf", rmf);
    out.metrics.set("cmf50", cmf50);
    matching_layers(&mut out.metrics, &batches, span_s, pool.len());

    out.rss_window_scoped = host::reset_peak_rss();
    let addr = cluster.addr();
    let trace_on = out.tracer.enabled();
    let mut t_one = out.tracer.fork();
    let mut t_stream = out.tracer.fork();
    // Both threads connect before the common origin, so connection set-up
    // is not charged to the first requests.
    let origin = Instant::now() + Duration::from_millis(20);
    let (one, st) = thread::scope(|s| {
        let a = s.spawn(|| {
            drive_oneshots(
                addr, origin, oneshots, pool, &expected, &mut t_one, trace_on,
            )
        });
        let b = s.spawn(|| drive_stream(addr, origin, stream, &mut t_stream, trace_on));
        (a.join(), b.join())
    });
    let (one, st) = match (one, st) {
        (Ok(a), Ok(b)) => (a, b),
        _ => {
            out.violate("a client thread panicked".into());
            return 0.0;
        }
    };
    let peak_rss = host::peak_rss_mb();
    let end = [one.end, st.end]
        .into_iter()
        .flatten()
        .max()
        .unwrap_or(origin);
    let window_s = end
        .saturating_duration_since(origin)
        .as_secs_f64()
        .max(1e-9);

    for v in one.violations.iter().chain(&st.violations) {
        out.violate(v.clone());
    }
    out.attempted += one.attempted + st.attempted;
    out.failed += one.failed + st.failed;
    let m = &mut out.metrics;
    m.set(
        "traj_per_s",
        (one.completed_trajs + st.completed_trajs) as f64 / window_s,
    );
    m.set("traj_latency_p50_ms", quantile(&one.latency_ms, 0.50));
    m.set("load.oneshot_p95_ms", quantile(&one.latency_ms, 0.95));
    m.set("point_latency_p50_ms", quantile(&st.latency_ms, 0.50));
    m.set("load.push_p99_ms", quantile(&st.latency_ms, 0.99));
    m.set(
        "ok_ratio",
        (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
    );
    m.set("peak_rss_mb", peak_rss);
    let late: Vec<f64> = one.late_ms.iter().chain(&st.late_ms).copied().collect();
    m.set("load.generator_late_p99_ms", quantile(&late, 0.99));
    m.set("load.oneshot_busy_ratio", one.busy_s / window_s);
    m.set("load.stream_busy_ratio", st.busy_s / window_s);
    let spread = |xs: &[f64]| -> Value {
        [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99]
            .iter()
            .map(|&q| Value::from(quantile(xs, q)))
            .collect::<Vec<_>>()
            .into()
    };
    out.notes.push((
        "oneshot_latency_ms_q10_25_50_75_90_95_99",
        spread(&one.latency_ms),
    ));
    out.notes.push((
        "push_latency_ms_q10_25_50_75_90_95_99",
        spread(&st.latency_ms),
    ));
    out.notes
        .push(("stream_late_ms_q10_25_50_75_90_95_99", spread(&st.late_ms)));

    if trace_on {
        // Wire probe through the router, after the window.
        if let Ok(mut c) = ServeClient::connect(addr) {
            let mut rtt = Vec::with_capacity(PINGS);
            for _ in 0..PINGS {
                let t = Instant::now();
                if c.ping().is_ok() {
                    rtt.push(t.elapsed().as_secs_f64() * 1e3);
                }
            }
            m.set("serve.wire.ping_p50_ms", median(&rtt));
        }
        let requests: Vec<Request> = oneshots
            .iter()
            .map(|&(_, i)| Request::OneShot {
                traj: pool[i].clone(),
            })
            .chain(stream.iter().map(|(_, op)| op.request()))
            .collect();
        let replies: Vec<Response> = one.replies.into_iter().chain(st.replies).collect();
        let (enc, dec) = protocol_probe(&requests, &replies);
        m.set("serve.protocol.encode_us", enc);
        m.set("serve.protocol.decode_us", dec);
        if !one.traced_ms.is_empty() && !one.untraced_ms.is_empty() {
            m.set(
                "trace.overhead_ratio",
                median(&one.traced_ms) / median(&one.untraced_ms) - 1.0,
            );
        }
        out.tracer.absorb(t_one);
        out.tracer.absorb(t_stream);
        m.set("trace.spans", out.tracer.spans().len() as f64);
    }
    quantile(&st.latency_ms, 0.50)
}

/// Serving-layer metrics from the drained cluster's rollup, plus the
/// drain gate.
fn serving_layers(
    out: &mut Outcome,
    report: &lhmm_serve::ClusterReport,
    sessions: u64,
    client_push_p50_ms: f64,
) {
    if report.in_flight_lost() != 0 {
        out.violate(format!(
            "drain lost {} admitted requests",
            report.in_flight_lost()
        ));
    }
    let r = &report.merged;
    let m = &mut out.metrics;
    m.set(
        "serve.scheduler.queue_wait_p50_ms",
        histogram_quantile_s(&r.queue_wait, 0.50) * 1e3,
    );
    m.set(
        "serve.scheduler.queue_wait_p99_ms",
        histogram_quantile_s(&r.queue_wait, 0.99) * 1e3,
    );
    m.set("serve.scheduler.batch_occupancy", r.mean_batch_occupancy());
    m.set(
        "serve.scheduler.service_p50_ms",
        histogram_quantile_s(&r.service, 0.50) * 1e3,
    );
    m.set("serve.admission.rejected", r.total_rejected() as f64);
    m.set(
        "serve.admission.peak_queue_depth",
        r.peak_queue_depth as f64,
    );
    let shard_push_p50 = histogram_quantile_s(&r.stream_push, 0.50) * 1e3;
    m.set("serve.session.push_p50_ms", shard_push_p50);
    m.set(
        "serve.session.push_p99_ms",
        histogram_quantile_s(&r.stream_push, 0.99) * 1e3,
    );
    // Client push p50 minus shard push p50: router, RPC and wire time.
    m.set(
        "serve.cluster.router_push_p50_ms",
        client_push_p50_ms - shard_push_p50,
    );
    m.set(
        "serve.cluster.handoffs_per_session",
        report.handoffs as f64 / sessions.max(1) as f64,
    );
    m.set("serve.cluster.replays", report.replays as f64);
}
