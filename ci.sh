#!/usr/bin/env bash
# CI entry point: build, lint, and test the whole workspace.
#
#   ./ci.sh            # everything
#   ./ci.sh --fast     # skip the release build (lint + tests only)
#
# The integration suites run twice: single-threaded (RUST_TEST_THREADS=1)
# to surface ordering assumptions between tests, and with the default
# parallelism to surface shared-state races.
set -euo pipefail
cd "$(dirname "$0")"

fast=0
[ "${1:-}" = "--fast" ] && fast=1

run() {
  echo
  echo "==> $*"
  "$@"
}

if [ "$fast" -eq 0 ]; then
  run cargo build --release
  # Benches must keep compiling (they drive the scorer, shortest-path,
  # encoder, Viterbi and candidate APIs directly).
  run cargo bench --workspace --no-run
fi

run cargo clippy --workspace --all-targets -- -D warnings

# Inference code must degrade through typed errors, never panic: deny
# unwrap/expect on the lhmm-core library target (test code is exempt via
# the crate's cfg_attr; training/test helpers assert with messages).
run cargo clippy -p lhmm-core --lib --no-deps -- -D warnings -D clippy::unwrap_used -D clippy::expect_used

# Same contract for the serving layer: a bad request or a slow client may
# shed or disconnect, but must never panic the server.
run cargo clippy -p lhmm-serve --lib --no-deps -- -D warnings -D clippy::unwrap_used -D clippy::expect_used

# The learned scorers and the experiment runner carry the same no-panic
# contract: a forward pass runs inside matching, and one degenerate
# trajectory must not abort a sweep.
run cargo clippy -p lhmm-neural --lib --no-deps -- -D warnings -D clippy::unwrap_used -D clippy::expect_used
run cargo clippy -p lhmm-eval --lib --no-deps -- -D warnings -D clippy::unwrap_used -D clippy::expect_used

# The shortest-path substrate backs every transition probability; both
# backends must degrade through Option/typed errors, never panic.
run cargo clippy -p lhmm-network --lib --no-deps -- -D warnings -D clippy::unwrap_used -D clippy::expect_used

# Workspace determinism & robustness linter (see DESIGN §10, §15): float
# comparisons, nondeterminism sources, hash iteration, panic paths,
# truncating casts, plus the concurrency pass — lock-order cycles over
# the workspace lock graph, guards held across blocking calls, and the
# unsafe/static fence — with zone policies per crate. New findings fail
# CI; the inference zone must additionally carry zero waived/baselined
# debt, and the lock-order/guard-across-blocking/unsafe-fence rules run
# against an empty baseline in every zone.
run cargo run -q -p lhmm-lint -- --deny

# Scheduling-nondeterminism smoke test: match the seeded adversarial
# corpus at two BatchMatcher worker counts (and once repeated) and require
# identical result fingerprints — including a run with the SIMD kernel
# forced to the scalar reference (kernel neutrality) and a witness lane
# (the swap run repeated under the runtime lock-hierarchy witness, which
# must change nothing and must observe rank-checked acquisitions).
run cargo run -q -p lhmm-lint -- --races

# Rendered API docs must stay warning-free (broken intra-doc links are the
# usual regression).
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

# Unit + doc + integration tests, whole workspace.
run cargo test --workspace -q

# Integration tests under forced serial execution, then full parallelism.
# The parallel-vs-serial equivalence suite in particular must pass both
# ways: worker scheduling may never leak into results.
run env RUST_TEST_THREADS=1 cargo test -q --test batch_equivalence --test end_to_end --test matcher_contract --test layer_transitions
run cargo test -q --test batch_equivalence --test end_to_end --test matcher_contract --test layer_transitions

# Robustness gate: the adversarial fault-injection corpus and metamorphic
# relations must hold in every matching mode (serial/parallel/streaming).
run cargo test -q --test fault_injection --test metamorphic

# SIMD-kernel exactness gate: the scoring-equivalence, fault-injection and
# kernel-corpus suites must pass with every kernel this machine supports
# forced via the LHMM_KERNEL startup env var (the in-process force_scope
# arm is covered by the suites themselves). Every score is pinned bitwise
# to the unfused reference functions, so these runs must be byte-identical
# replays.
for kern in $(cargo run -q -p lhmm-lint -- --kernels); do
  run env LHMM_KERNEL="$kern" cargo test -q --test scoring_equivalence --test fault_injection --test kernel_corpus
done

# Exactness gate for the contraction-hierarchy backend: property-based
# Dijkstra-oracle equivalence (total_cmp equality, not tolerances) plus
# metamorphic shortest-path relations across both backends.
run cargo test -q -p lhmm-network --test ch_oracle --test sp_metamorphic

# Serving gate: real-TCP loopback equivalence (concurrent clients must be
# byte-identical to offline serial matching), typed overload shedding, and
# lose-nothing graceful drain. One front end (accept loop, connection
# loop, drain gate, model plane) serves both the server and the router;
# its unit test holds the drain gate at both: Ping and Versions answered,
# every other request shed as ShuttingDown and counted once.
run cargo test -q -p lhmm-serve

# Cluster gate (DESIGN §13): 4-shard verdict fingerprints byte-identical
# to single-process and offline serial — including sessions that cross
# tiles while staying on their home shard, refresh statistics equal to
# single-process, and a shard killed mid-stream (supervisor restart +
# journal replay, in_flight_lost() == 0) — and session endings matching
# single-process: a key re-opened mid-trip and sessions open at drain
# (equal refresh statistics, sessions_opened and sessions_finalized), a
# trip with no accepted push ended by finish, re-open or drain (counted
# at the router, where no shard sees it), a push to an LRU-evicted
# session (EmptyTrajectory, no replay), and a journal-only trip finalized
# once at re-open or drain. Plus decoder panic-freedom
# fuzzing, retired handoff tags included. Run serially as well: the
# supervisor's restart path must not depend on test scheduling.
run cargo test -q -p lhmm-serve --test cluster_loopback --test protocol_fuzz
run env RUST_TEST_THREADS=1 cargo test -q -p lhmm-serve --test cluster_loopback

# Model-lifecycle gate (DESIGN §14): the registry manifest property suite
# (bit-exact round-trips, typed failure on truncation/corruption, never a
# panic) and the hot-swap-under-load loopback suite (admission-pinned
# versions byte-matching each model's offline verdicts, shadow divergence
# accounting with no wire leakage, cluster-atomic swap across 4 shards,
# in_flight_lost() == 0 with a swap mid-run). The swap suite also runs
# serially: version pinning must not depend on test scheduling.
run cargo test -q -p lhmm-core --test registry_manifest_proptest
run cargo test -q -p lhmm-serve --test swap_loopback
run env RUST_TEST_THREADS=1 cargo test -q -p lhmm-serve --test swap_loopback

# Lock-hierarchy witness gate (DESIGN §15): the runtime twin of the
# lock-order lint. The witness harness proves a seeded inversion panics
# with both acquisition sites, then the serving, cluster, and swap
# suites and the lhmm-serve unit tests (front end and drain gate
# included) run in RELEASE with the witness compiled in (the
# `lock-witness` feature; debug runs above already had it via
# debug_assertions), at one worker and at the default parallelism — every
# acquisition in every scenario is rank-checked, and zero inversions may
# fire.
run cargo test -q -p lhmm-core --release --features lock-witness --test lock_witness
run env RUST_TEST_THREADS=1 cargo test -q -p lhmm-serve --release --features lock-witness --lib --test lock_witness --test loopback --test cluster_loopback --test swap_loopback
run cargo test -q -p lhmm-serve --release --features lock-witness --lib --test lock_witness --test loopback --test cluster_loopback --test swap_loopback

# Benchmark runner gate: perfbench is a separate package that drives the
# crates only through their public APIs (MatchStats, BatchStats, the
# cluster client). Its schema test and smoke runs of every workload fail
# here when a refactor breaks an API it reads, not at the next benchmark.
run cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo
echo "ci: all checks passed"
