//! Serving telemetry: counters, gauges and latency histograms.
//!
//! One [`ServeMetrics`] instance is shared by every thread in the server
//! (admission, scheduler, workers, sessions). Counters are atomics; the
//! latency histograms sit behind one mutex that is touched once per
//! request/batch — far off the per-candidate hot path. A point-in-time
//! [`ServeReport`] snapshot is taken at drain (or any time) and rendered
//! through `lhmm_eval`'s latency-table surface.

use crate::admission::RejectReason;
use lhmm_core::types::MatchStats;
use lhmm_eval::histogram::LatencyHistogram;
use lhmm_eval::report::latency_table;
use lhmm_eval::versioned::VersionTable;
use std::fmt::Write as _;
use lhmm_core::sync::{rank, OrderedMutex};
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared serving counters. All methods are `&self` and thread-safe.
pub struct ServeMetrics {
    /// Requests admitted into the batch queue.
    admitted: AtomicU64,
    /// Requests completed (a response was produced by a worker).
    completed: AtomicU64,
    /// Requests shed, by [`RejectReason::index`].
    rejected: [AtomicU64; RejectReason::COUNT],
    /// Replies that found no receiver (client gone before completion).
    orphaned_replies: AtomicU64,
    /// Batches dispatched to the worker pool.
    batches: AtomicU64,
    /// Sum of batch sizes (occupancy numerator).
    batched_requests: AtomicU64,
    /// Largest batch dispatched.
    max_batch: AtomicU64,
    /// Peak queue depth observed at admission.
    peak_queue_depth: AtomicU64,
    /// Streaming sessions opened.
    sessions_opened: AtomicU64,
    /// Sessions evicted for idling past the timeout.
    sessions_evicted_idle: AtomicU64,
    /// Sessions evicted as least-recently-used at the cap.
    sessions_evicted_lru: AtomicU64,
    /// Sessions ended, for any reason.
    sessions_finalized: AtomicU64,
    /// Observations pushed into streaming sessions.
    stream_pushes: AtomicU64,
    /// Model hot swaps (promote/rollback) executed through this server.
    model_swaps: AtomicU64,
    /// Model refreshes executed through this server.
    model_refreshes: AtomicU64,
    /// Shadow mirrors evaluated on a candidate version.
    shadow_served: AtomicU64,
    /// Shadow mirrors whose verdict diverged from the active version's.
    shadow_divergences: AtomicU64,
    /// Latency histograms (seconds).
    hist: OrderedMutex<Histograms>,
    /// Per-model-version serving lanes (hot swap / shadow A/B slicing).
    versions: OrderedMutex<VersionTable>,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics {
            admitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: Default::default(),
            orphaned_replies: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
            peak_queue_depth: AtomicU64::new(0),
            sessions_opened: AtomicU64::new(0),
            sessions_evicted_idle: AtomicU64::new(0),
            sessions_evicted_lru: AtomicU64::new(0),
            sessions_finalized: AtomicU64::new(0),
            stream_pushes: AtomicU64::new(0),
            model_swaps: AtomicU64::new(0),
            model_refreshes: AtomicU64::new(0),
            shadow_served: AtomicU64::new(0),
            shadow_divergences: AtomicU64::new(0),
            // Rank-ordered (DESIGN §15): histograms may be held while the
            // version-lane lock is taken inside `snapshot`.
            hist: OrderedMutex::new(rank::METRICS_HIST, "metrics.hist", Histograms::default()),
            versions: OrderedMutex::new(
                rank::METRICS_VERSIONS,
                "metrics.versions",
                VersionTable::default(),
            ),
        }
    }
}

#[derive(Default)]
struct Histograms {
    /// Admission to dequeue-by-scheduler.
    queue_wait: LatencyHistogram,
    /// Worker service time per one-shot request (match only).
    service: LatencyHistogram,
    /// Candidate-preparation stage per request (from [`MatchStats`]).
    stage_candidates: LatencyHistogram,
    /// Viterbi/path-finding stage per request (from [`MatchStats`]).
    stage_viterbi: LatencyHistogram,
    /// Per-push streaming latency (candidate prep + DP extension).
    stream_push: LatencyHistogram,
}

impl ServeMetrics {
    /// A fresh, all-zero metrics hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one admitted request and folds the observed queue depth into
    /// the peak gauge.
    pub fn on_admitted(&self, queue_depth: usize) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
        self.peak_queue_depth
            .fetch_max(queue_depth as u64, Ordering::Relaxed);
    }

    /// Counts one shed request.
    pub fn on_rejected(&self, reason: RejectReason) {
        self.rejected[reason.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one dispatched batch of `size` requests.
    pub fn on_batch(&self, size: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests.fetch_add(size as u64, Ordering::Relaxed);
        self.max_batch.fetch_max(size as u64, Ordering::Relaxed);
    }

    /// Records one completed one-shot request: its queue wait, worker
    /// service time and the per-stage times from the match telemetry.
    pub fn on_completed(&self, queue_wait_s: f64, service_s: f64, stats: &MatchStats) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        let mut h = self.hist.lock();
        h.queue_wait.record(queue_wait_s);
        h.service.record(service_s);
        h.stage_candidates.record(stats.candidate_time_s);
        h.stage_viterbi.record(stats.viterbi_time_s);
        drop(h);
        self.versions.lock().record_served(stats.model_version, service_s);
    }

    /// Counts one model hot swap (promote or rollback) this server executed.
    pub fn on_model_swap(&self) {
        self.model_swaps.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one model refresh this server executed.
    pub fn on_model_refresh(&self) {
        self.model_refreshes.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one shadow mirror evaluated on candidate `version`:
    /// its service time and whether its verdict diverged from the active
    /// version's.
    pub fn on_shadow(&self, version: u32, service_s: f64, diverged: bool) {
        self.shadow_served.fetch_add(1, Ordering::Relaxed);
        if diverged {
            self.shadow_divergences.fetch_add(1, Ordering::Relaxed);
        }
        self.versions.lock().record_shadow(version, service_s, diverged);
    }

    /// Records a streaming finish's verdict into its pinned version's lane
    /// (per-push latency was already recorded, so no latency sample here).
    pub fn on_version_finished(&self, version: u32) {
        self.versions.lock().record_finished(version);
    }

    /// Counts a reply whose client had already gone away.
    pub fn on_orphaned_reply(&self) {
        self.orphaned_replies.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a session open.
    pub fn on_session_opened(&self) {
        self.sessions_opened.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an idle-timeout eviction.
    pub fn on_session_evicted_idle(&self) {
        self.sessions_evicted_idle.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an LRU eviction at the session cap.
    pub fn on_session_evicted_lru(&self) {
        self.sessions_evicted_lru.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an ended session (any reason).
    pub fn on_session_finalized(&self) {
        self.sessions_finalized.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one streaming push and its latency.
    pub fn on_stream_push(&self, seconds: f64) {
        self.stream_pushes.fetch_add(1, Ordering::Relaxed);
        self.hist.lock().stream_push.record(seconds);
    }

    /// Requests admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Requests completed so far.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Takes a point-in-time snapshot of everything.
    pub fn snapshot(&self, queue_depth: usize, active_sessions: usize) -> ServeReport {
        let h = self.hist.lock();
        let mut rejected = [0u64; RejectReason::COUNT];
        for (out, src) in rejected.iter_mut().zip(&self.rejected) {
            *out = src.load(Ordering::Relaxed);
        }
        ServeReport {
            admitted: self.admitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            rejected,
            orphaned_replies: self.orphaned_replies.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_requests: self.batched_requests.load(Ordering::Relaxed),
            max_batch: self.max_batch.load(Ordering::Relaxed),
            queue_depth,
            peak_queue_depth: self.peak_queue_depth.load(Ordering::Relaxed),
            active_sessions,
            sessions_opened: self.sessions_opened.load(Ordering::Relaxed),
            sessions_evicted_idle: self.sessions_evicted_idle.load(Ordering::Relaxed),
            sessions_evicted_lru: self.sessions_evicted_lru.load(Ordering::Relaxed),
            sessions_finalized: self.sessions_finalized.load(Ordering::Relaxed),
            stream_pushes: self.stream_pushes.load(Ordering::Relaxed),
            model_swaps: self.model_swaps.load(Ordering::Relaxed),
            model_refreshes: self.model_refreshes.load(Ordering::Relaxed),
            shadow_served: self.shadow_served.load(Ordering::Relaxed),
            shadow_divergences: self.shadow_divergences.load(Ordering::Relaxed),
            versions: self.versions.lock().clone(),
            queue_wait: h.queue_wait.clone(),
            service: h.service.clone(),
            stage_candidates: h.stage_candidates.clone(),
            stage_viterbi: h.stage_viterbi.clone(),
            stream_push: h.stream_push.clone(),
        }
    }
}

/// A point-in-time serving report (what drain returns).
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Requests admitted into the batch queue.
    pub admitted: u64,
    /// Requests a worker completed with a response.
    pub completed: u64,
    /// Shed requests by [`RejectReason::index`].
    pub rejected: [u64; RejectReason::COUNT],
    /// Replies whose client disconnected before completion.
    pub orphaned_replies: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Total requests across all batches.
    pub batched_requests: u64,
    /// Largest dispatched batch.
    pub max_batch: u64,
    /// Queue depth at snapshot time (0 after a drain).
    pub queue_depth: usize,
    /// Peak queue depth observed at admission.
    pub peak_queue_depth: u64,
    /// Open sessions at snapshot time (0 after a drain).
    pub active_sessions: usize,
    /// Sessions opened over the server's lifetime.
    pub sessions_opened: u64,
    /// Idle-timeout evictions.
    pub sessions_evicted_idle: u64,
    /// LRU evictions at the cap.
    pub sessions_evicted_lru: u64,
    /// Ended sessions, whatever the reason (finish, re-open, idle, LRU,
    /// drain); in a cluster also the journal-only trips the router counts.
    pub sessions_finalized: u64,
    /// Streaming observations absorbed.
    pub stream_pushes: u64,
    /// Model hot swaps (promote/rollback) executed.
    pub model_swaps: u64,
    /// Model refreshes executed.
    pub model_refreshes: u64,
    /// Shadow mirrors evaluated on a candidate version.
    pub shadow_served: u64,
    /// Shadow mirrors whose verdict diverged from the active version's.
    pub shadow_divergences: u64,
    /// Per-model-version serving lanes.
    pub versions: VersionTable,
    /// Admission-to-dequeue wait.
    pub queue_wait: LatencyHistogram,
    /// Worker service time per one-shot request.
    pub service: LatencyHistogram,
    /// Candidate-preparation stage time per request.
    pub stage_candidates: LatencyHistogram,
    /// Viterbi stage time per request.
    pub stage_viterbi: LatencyHistogram,
    /// Streaming push latency.
    pub stream_push: LatencyHistogram,
}

impl ServeReport {
    /// Total shed requests across all reasons.
    pub fn total_rejected(&self) -> u64 {
        self.rejected.iter().sum()
    }

    /// Shed count for one reason.
    pub fn rejected_for(&self, reason: RejectReason) -> u64 {
        self.rejected[reason.index()]
    }

    /// Mean requests per dispatched batch (the occupancy the
    /// size-or-deadline policy achieved).
    pub fn mean_batch_occupancy(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.batched_requests as f64 / self.batches as f64
    }

    /// Requests admitted but never completed (must be 0 after a graceful
    /// drain — the acceptance criterion of the drain path).
    pub fn in_flight_lost(&self) -> u64 {
        self.admitted.saturating_sub(self.completed)
    }

    /// Folds another shard's report into this one — the cluster rollup.
    /// Counters and histogram buckets add (histogram merge is exactly
    /// associative and commutative, so the rollup is order-independent);
    /// peaks take the max; point-in-time gauges (queue depth, active
    /// sessions) add across shards.
    pub fn merge(&mut self, other: &ServeReport) {
        self.admitted += other.admitted;
        self.completed += other.completed;
        for (a, b) in self.rejected.iter_mut().zip(&other.rejected) {
            *a += b;
        }
        self.orphaned_replies += other.orphaned_replies;
        self.batches += other.batches;
        self.batched_requests += other.batched_requests;
        self.max_batch = self.max_batch.max(other.max_batch);
        self.queue_depth += other.queue_depth;
        self.peak_queue_depth = self.peak_queue_depth.max(other.peak_queue_depth);
        self.active_sessions += other.active_sessions;
        self.sessions_opened += other.sessions_opened;
        self.sessions_evicted_idle += other.sessions_evicted_idle;
        self.sessions_evicted_lru += other.sessions_evicted_lru;
        self.sessions_finalized += other.sessions_finalized;
        self.stream_pushes += other.stream_pushes;
        self.model_swaps += other.model_swaps;
        self.model_refreshes += other.model_refreshes;
        self.shadow_served += other.shadow_served;
        self.shadow_divergences += other.shadow_divergences;
        self.versions.merge(&other.versions);
        self.queue_wait.merge(&other.queue_wait);
        self.service.merge(&other.service);
        self.stage_candidates.merge(&other.stage_candidates);
        self.stage_viterbi.merge(&other.stage_viterbi);
        self.stream_push.merge(&other.stream_push);
    }

    /// Renders the full report (counters + latency tables).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== serving report ==");
        let _ = writeln!(
            out,
            "one-shot: admitted {} | completed {} | lost {} | orphaned replies {}",
            self.admitted,
            self.completed,
            self.in_flight_lost(),
            self.orphaned_replies
        );
        let _ = writeln!(
            out,
            "shed:     queue_full {} | session_limit {} | shutting_down {} | oversized {} | invalid {}",
            self.rejected_for(RejectReason::QueueFull),
            self.rejected_for(RejectReason::SessionLimit),
            self.rejected_for(RejectReason::ShuttingDown),
            self.rejected_for(RejectReason::Oversized),
            self.rejected_for(RejectReason::Invalid),
        );
        let _ = writeln!(
            out,
            "batching: {} batches | mean occupancy {:.2} | max batch {} | queue depth {} (peak {})",
            self.batches,
            self.mean_batch_occupancy(),
            self.max_batch,
            self.queue_depth,
            self.peak_queue_depth,
        );
        let _ = writeln!(
            out,
            "sessions: active {} | opened {} | finalized {} | evicted idle {} / lru {} | pushes {}",
            self.active_sessions,
            self.sessions_opened,
            self.sessions_finalized,
            self.sessions_evicted_idle,
            self.sessions_evicted_lru,
            self.stream_pushes,
        );
        if self.model_swaps + self.model_refreshes + self.shadow_served > 0
            || !self.versions.is_empty()
        {
            let _ = writeln!(
                out,
                "models:   swaps {} | refreshes {} | shadow {} (div {})",
                self.model_swaps,
                self.model_refreshes,
                self.shadow_served,
                self.shadow_divergences,
            );
            self.versions.render(&mut out);
        }
        out.push_str(&latency_table(
            "latency",
            &[
                ("queue_wait", &self.queue_wait),
                ("service", &self.service),
                ("stage:candidates", &self.stage_candidates),
                ("stage:viterbi", &self.stage_viterbi),
                ("stream:push", &self.stream_push),
            ],
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let m = ServeMetrics::new();
        m.on_admitted(3);
        m.on_admitted(1);
        m.on_rejected(RejectReason::QueueFull);
        m.on_rejected(RejectReason::QueueFull);
        m.on_rejected(RejectReason::Oversized);
        m.on_batch(4);
        m.on_batch(2);
        m.on_completed(0.001, 0.004, &MatchStats::default());
        m.on_session_opened();
        m.on_session_finalized();
        m.on_stream_push(0.0005);
        let r = m.snapshot(1, 1);
        assert_eq!(r.admitted, 2);
        assert_eq!(r.completed, 1);
        assert_eq!(r.in_flight_lost(), 1);
        assert_eq!(r.rejected_for(RejectReason::QueueFull), 2);
        assert_eq!(r.total_rejected(), 3);
        assert_eq!(r.max_batch, 4);
        assert!((r.mean_batch_occupancy() - 3.0).abs() < 1e-12);
        assert_eq!(r.peak_queue_depth, 3);
        assert_eq!(r.queue_wait.count(), 1);
        assert_eq!(r.stage_viterbi.count(), 1);
        assert_eq!(r.stream_push.count(), 1);
        let text = r.render();
        assert!(text.contains("serving report"));
        assert!(text.contains("queue_full 2"));
        assert!(text.contains("stage:viterbi"));
    }

    #[test]
    fn version_lanes_slice_by_model_version() {
        let m = ServeMetrics::new();
        let mut stats = MatchStats {
            model_version: 1,
            ..Default::default()
        };
        m.on_completed(0.001, 0.002, &stats);
        stats.model_version = 2;
        m.on_completed(0.001, 0.003, &stats);
        m.on_version_finished(2);
        m.on_shadow(3, 0.004, true);
        m.on_model_swap();
        m.on_model_refresh();
        let r = m.snapshot(0, 0);
        assert_eq!(r.model_swaps, 1);
        assert_eq!(r.model_refreshes, 1);
        assert_eq!(r.shadow_served, 1);
        assert_eq!(r.shadow_divergences, 1);
        assert_eq!(r.versions.lanes[&1].served, 1);
        assert_eq!(r.versions.lanes[&2].served, 2);
        assert_eq!(r.versions.lanes[&3].shadow_served, 1);
        let text = r.render();
        assert!(text.contains("swaps 1 | refreshes 1 | shadow 1 (div 1)"), "{text}");
        assert!(text.contains("v2: served 2"), "{text}");

        // Lanes merge across shards like every other counter.
        let mut r2 = r.clone();
        r2.merge(&r);
        assert_eq!(r2.versions.lanes[&2].served, 4);
        assert_eq!(r2.model_swaps, 2);
        assert_eq!(r2.shadow_divergences, 2);
    }

    #[test]
    fn reports_merge_across_shards() {
        let a = ServeMetrics::new();
        a.on_admitted(2);
        a.on_completed(0.001, 0.002, &MatchStats::default());
        a.on_rejected(RejectReason::Invalid);
        a.on_stream_push(0.001);
        let b = ServeMetrics::new();
        b.on_admitted(5);
        b.on_batch(3);
        b.on_stream_push(0.002);
        b.on_stream_push(0.004);

        let mut ra = a.snapshot(1, 2);
        let rb = b.snapshot(3, 4);
        // Merge is commutative: both orders agree on every counter.
        let mut rba = rb.clone();
        rba.merge(&ra);
        ra.merge(&rb);
        assert_eq!(ra.admitted, 2);
        assert_eq!(ra.completed, 1);
        assert_eq!(ra.in_flight_lost(), 1);
        assert_eq!(ra.rejected_for(RejectReason::Invalid), 1);
        assert_eq!(ra.queue_depth, 4);
        assert_eq!(ra.active_sessions, 6);
        assert_eq!(ra.stream_pushes, 3);
        assert_eq!(ra.stream_push.count(), 3);
        assert_eq!(rba.admitted, ra.admitted);
        assert_eq!(rba.stream_push.count(), ra.stream_push.count());
        assert_eq!(rba.peak_queue_depth, ra.peak_queue_depth);
    }
}
