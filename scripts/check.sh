#!/usr/bin/env bash
# Tier-1 verification: build, run the full test suite, then build the
# campaign runtime and serving-stack tests under ThreadSanitizer and
# run them, replay the lane-batched solver bit-identity suite, replay
# the faultnet determinism suite under two seeds, run the router
# fleet fault replay, and finish with the kill-resume campaign replay
# (SIGKILL mid-flight, --resume, byte-identical artifacts) under two
# seeds. This is the gate a change must pass before merging.
# (CI additionally runs the serving tests under ASan+UBSan; locally:
#  cmake --preset asan && cmake --build --preset asan &&
#  ctest --preset asan.)
#
# Usage: scripts/check.sh [-j N]
set -euo pipefail

jobs=$(nproc 2>/dev/null || echo 2)
while getopts "j:" opt; do
    case "$opt" in
    j) jobs="$OPTARG" ;;
    *) echo "usage: $0 [-j N]" >&2; exit 2 ;;
    esac
done

cd "$(dirname "$0")/.."

echo "== tier 1: build + full test suite =="
cmake --preset default >/dev/null
cmake --build --preset default -j "$jobs"
ctest --test-dir build --output-on-failure -j "$jobs"

echo "== tier 2: campaign runtime + serving stack under ThreadSanitizer =="
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j "$jobs"
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_runtime
# The loopback listener under every daemon and the fault proxy: its
# accept thread, reaper and stop() race the per-connection threads.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_listener
# Durability: the cache's global corruption counters and the journal
# are shared across campaign threads; the whole suite is kit-free.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_durability
# The factorization cache is the one shared mutable structure in the
# solver layer: campaign threads intern factorizations concurrently
# and then read them lock-free while stepping.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_batched \
    --gtest_filter='FactorizationCacheTest.ConcurrentGetInternsOnePointer'
# The HTTP conformance net exercises the threaded gateway; the metrics
# test is excluded here because it builds a stressmark kit (that path
# is covered by the default-preset run above).
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_http \
    --gtest_filter='HttpConformance.*'
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_json_fuzz
# The resilient client's pool under 16 concurrent callers and the
# faultnet proxy's relay threads are the racy parts; the kit-building
# FaultnetE2E acceptance run stays in the default-preset tier.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_resilient \
    --gtest_filter='Resilient.*:Faultnet.*:FaultnetDeterminism.*'
# Streaming's kit-free parts: the frame helpers and the client's
# reassembly threads against a scripted misbehaving server; the
# kit-building live-stream suites stay in the default-preset tier.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_stream \
    --gtest_filter='StreamProtocol.*:Stream.SequencingViolations*'
# The WFQ itself is lock-free of surprises (the dispatcher serializes
# it), but its accounting invariants must hold under TSan's memory
# model too.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_admission \
    --gtest_filter='Wfq.*'
# The router's control plane: accept loop, health prober, and the
# per-connection reader threads all touch the backend table; the
# kit-building forward/E2E suites stay in the default-preset tier.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_router \
    --gtest_filter='Ring.*:Router.*'

echo "== tier 3: lane-batched solver bit-identity =="
# The batched transient solver must be byte-identical to the scalar
# path for every netlist the chip model builds; a codegen or kernel
# change that breaks this must fail loudly, not as a numeric drift.
./build/tests/test_batched

echo "== tier 4: faultnet determinism under two seeds =="
# The fault-injection harness must replay bit-identically for any
# seed, not just the default one baked into the test.
for seed in 17 42; do
    VNOISE_FAULT_SEED="$seed" ./build/tests/test_resilient \
        --gtest_filter='FaultnetDeterminism.*'
done

echo "== tier 5: router fleet fault replay under two seeds =="
# A 4-backend fleet with seeded faultnet carnage in front of one
# backend must absorb every injected fault (slot retries + ring
# fail-over) and return byte-identical results to the fault-free run.
for seed in 17 42; do
    VNOISE_FAULT_SEED="$seed" ./build/tests/test_router \
        --gtest_filter='RouterFaultReplay.*'
done

echo "== tier 6: streamed-trace faultnet replay under two seeds =="
# A >1 MiB chunked stream severed mid-chunk must surface as exactly
# one io_error and be absorbed by exactly one resilient retry with
# byte-identical reassembly — for any backoff seed, not just the
# default.
for seed in 17 42; do
    VNOISE_FAULT_SEED="$seed" ./build/tests/test_stream \
        --gtest_filter='Stream.MidStreamCut*'
done

echo "== tier 7: durable-campaign kill-resume replay under two seeds =="
# FaultFs torn writes / ENOSPC / bit flips must replay bit-identically
# per seed, and a campaign killed with SIGKILL mid-flight and resumed
# from its journal must produce artifacts byte-identical to an
# uninterrupted run.
for seed in 17 42; do
    VNOISE_FAULT_SEED="$seed" ./build/tests/test_durability \
        --gtest_filter='FaultFsDeterminism.*'
    scripts/kill_resume_replay.sh "$seed"
done

echo "== all checks passed =="
