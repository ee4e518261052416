#!/usr/bin/env bash
# CI entry point: runs the docs check plus the tier-1 verify command
# verbatim (ROADMAP.md). Mirrors .github/workflows/ci.yml for hosts
# without Actions.
#
#   tools/ci.sh          # docs check + tier-1 build & test + serving smoke
#   tools/ci.sh --tsan   # ThreadSanitizer smoke: builds test_thread_pool,
#                        # test_storage, test_topology, test_serve, and
#                        # test_async_io with -fsanitize=thread and runs
#                        # them (work stealing + sharded-cache races +
#                        # per-volume FileStore lanes + concurrent admission
#                        # control + submission-queue workers/completions)
#   tools/ci.sh --asan   # ASan+UBSan smoke: builds test_exec, test_storage,
#                        # test_topology, test_columnar, and test_async_io
#                        # with -fsanitize=address,undefined and runs them
#                        # (arena lifetimes incl. I/O scratch, prefetch
#                        # claim/cancel memory, eviction-tier bookkeeping,
#                        # columnar page decode over corrupted input, and
#                        # async-reader fault injection/teardown)
#   tools/ci.sh --real-io # Wall-clock I/O smoke: gen-catalog to disk, replay
#                        # with --io real over 2 volumes (prefetch on), then
#                        # inspect --verify-checksums. Exercises the pread
#                        # submission queues end to end on a real filesystem.
#   tools/ci.sh --bench-smoke # End-to-end benchmark smoke: configures
#                        # bench_e2e/ into .bench_build (Release) and runs
#                        # `bench_e2e --smoke` — every workload at toy size,
#                        # checked against its modeled oracle; fails on any
#                        # mismatch. Correctness only, no timing asserted.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${1:-}" = "--asan" ]; then
  cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -g" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" \
    -DLIFERAFT_BUILD_BENCH=OFF \
    -DLIFERAFT_BUILD_EXAMPLES=OFF \
    -DLIFERAFT_BUILD_TOOLS=OFF
  cmake --build build-asan -j --target test_exec test_storage test_topology \
    test_columnar test_async_io
  # Leak checking is on by default under ASan; -fno-sanitize-recover
  # already turned every UBSan diagnostic into a hard failure.
  ./build-asan/test_exec
  ./build-asan/test_storage
  ./build-asan/test_topology
  ./build-asan/test_columnar
  ./build-asan/test_async_io
  echo "asan+ubsan smoke OK"
  exit 0
fi

if [ "${1:-}" = "--tsan" ]; then
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -g" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" \
    -DLIFERAFT_BUILD_BENCH=OFF \
    -DLIFERAFT_BUILD_EXAMPLES=OFF \
    -DLIFERAFT_BUILD_TOOLS=OFF
  cmake --build build-tsan -j --target test_thread_pool test_storage test_topology test_serve test_async_io
  # halt_on_error so a reported race fails the job, not just the log.
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/test_thread_pool
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/test_storage
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/test_topology
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/test_serve
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/test_async_io
  echo "tsan smoke OK"
  exit 0
fi

if [ "${1:-}" = "--real-io" ]; then
  cmake -B build -S . && cmake --build build -j --target liferaft_tool
  realio_tmp="$(mktemp -d)"
  trap 'rm -rf "$realio_tmp"' EXIT
  # Small on purpose: the smoke proves the real path (per-volume fds,
  # pread queues, wall-clock telemetry, checksum verification) works end
  # to end; the measured-speedup story lives in the committed bench
  # anchors (docs/BENCHMARKS.md), not in CI timing assertions.
  ./build/liferaft_tool gen-catalog --objects 200000 --per-bucket 5000 \
    --format columnar --seed 7 --out "$realio_tmp/cat.lfr"
  ./build/liferaft_tool gen-trace --queries 16 --seed 11 \
    --out "$realio_tmp/trace.lfr"
  ./build/liferaft_tool replay --store "$realio_tmp/cat.lfr" \
    --trace "$realio_tmp/trace.lfr" --io real --volumes 2 --prefetch 2
  ./build/liferaft_tool inspect --store "$realio_tmp/cat.lfr" \
    --verify-checksums --volumes 2
  echo "real-io smoke OK"
  exit 0
fi

if [ "${1:-}" = "--bench-smoke" ]; then
  cmake -B .bench_build -S bench_e2e -DCMAKE_BUILD_TYPE=Release
  cmake --build .bench_build -j
  ./.bench_build/bench_e2e --smoke
  echo "bench smoke OK"
  exit 0
fi

tools/check_docs.sh

cmake -B build -S . && cmake --build build -j && cd build && \
  ctest --output-on-failure -j

# Serving-mode smoke: the open-loop path (admission control, QoS classes,
# adaptive alpha) end to end — fast and deterministic, so any drift in the
# serving loop fails CI here before the bench gate sees it.
cd .. && ./build/test_serve --gtest_brief=1

# Scenario-matrix smoke (docs/SCENARIOS.md): the declarative grid of
# arrival shape x topology x QoS cells, with machine-checked invariants.
# The runner exits non-zero on any invariant failure; on top of that the
# report must be byte-identical across two runs (same seed => same JSON).
scenario_tmp="$(mktemp -d)"
trap 'rm -rf "$scenario_tmp"' EXIT
./build/scenario_matrix --grid smoke --out "$scenario_tmp/run1.json"
./build/scenario_matrix --grid smoke --out "$scenario_tmp/run2.json"
cmp "$scenario_tmp/run1.json" "$scenario_tmp/run2.json"
echo "scenario smoke OK: grid deterministic, invariants hold"
