#!/usr/bin/env bash
# CI entry point: runs the docs check plus the tier-1 verify command
# verbatim (ROADMAP.md). Mirrors .github/workflows/ci.yml for hosts
# without Actions.
#
#   tools/ci.sh          # docs check + tier-1 build & test + examples +
#                        # serving smoke + scenario smoke
#   tools/ci.sh --tsan   # ThreadSanitizer smoke: builds test_storage,
#                        # test_topology, test_serve, test_async_io, and
#                        # test_columnar with -fsanitize=thread and runs
#                        # them (cache races + concurrent FileStore
#                        # preads + concurrent admission control +
#                        # submission-queue workers/completions + columnar
#                        # pages' position blocks filled by concurrent
#                        # readers; the cache
#                        # stress test races Get/Put/Contains and window
#                        # swaps on the cache's one lock, over two arms at
#                        # different eviction prices so its priced
#                        # (GreedyDual) victim scan and inflation run)
#   tools/ci.sh --asan   # ASan+UBSan smoke: builds test_exec, test_storage,
#                        # test_topology, test_columnar, test_async_io,
#                        # test_core, test_sim, test_serve, test_join,
#                        # test_properties, test_query,
#                        # test_spill, test_htm, test_workload, and
#                        # test_scenarios with
#                        # -fsanitize=address,undefined and
#                        # -D_GLIBCXX_ASSERTIONS (std::vector and std::span
#                        # indexing bounds-checked) and runs them
#                        # (the pipeline's bet claim/drop
#                        # bookkeeping and real-read failures, the cache's priced eviction
#                        # and its window tier, columnar page decode over
#                        # corrupted input and 24k mutated pages, every
#                        # join kernel over
#                        # Encode-built pages,
#                        # async-reader fault injection/teardown, both
#                        # drivers' execution-stack teardown order, and query
#                        # objects moved through admission, spill and
#                        # restore; plus the HTM cover's ID shifts and edge
#                        # tests at levels 0-20 and the trace parser over
#                        # counts that overrun the file, out-of-range
#                        # objects and mutated traces, and the scenario
#                        # spec parser over mutated specs)
#   tools/ci.sh --real-io # Wall-clock I/O smoke: gen-catalog to disk, replay
#                        # with --io real over 2 volumes (prefetch on), then
#                        # inspect --verify-checksums. Exercises the pread
#                        # submission queues end to end on a real filesystem.
#                        # Last, replay --rate 0 must exit 1 (a clean error,
#                        # not an abort), and gen-catalog with a misspelled
#                        # flag must exit 2 and write no file.
#   tools/ci.sh --bench-smoke # End-to-end benchmark smoke: configures
#                        # bench_e2e/ into .bench_build (Release) and runs
#                        # `bench_e2e --smoke` — every workload at toy size,
#                        # checked against its modeled oracle; fails on any
#                        # mismatch. Correctness only, no timing asserted.
set -euo pipefail
cd "$(dirname "$0")/.."

# The sanitizer smokes build their suites as one target, smoke_suites
# (CMakeLists.txt), so make compiles them in parallel: CMake's top-level
# Makefile is .NOTPARALLEL, and N --target goals build one after another.
if [ "${1:-}" = "--asan" ]; then
  suites=(test_exec test_storage test_topology test_columnar test_async_io
    test_core test_sim test_serve test_join test_properties test_query
    test_spill test_htm test_workload test_scenarios)
  cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -D_GLIBCXX_ASSERTIONS -g" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" \
    -DLIFERAFT_BUILD_BENCH=OFF \
    -DLIFERAFT_BUILD_EXAMPLES=OFF \
    -DLIFERAFT_BUILD_TOOLS=OFF \
    -DLIFERAFT_SMOKE_SUITES="$(IFS=';'; echo "${suites[*]}")"
  cmake --build build-asan -j --target smoke_suites
  # Leak checking is on by default under ASan; -fno-sanitize-recover
  # already turned every UBSan diagnostic into a hard failure.
  for suite in "${suites[@]}"; do
    "./build-asan/$suite"
  done
  echo "asan+ubsan smoke OK"
  exit 0
fi

if [ "${1:-}" = "--tsan" ]; then
  suites=(test_storage test_topology test_serve test_async_io test_columnar)
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -g" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" \
    -DLIFERAFT_BUILD_BENCH=OFF \
    -DLIFERAFT_BUILD_EXAMPLES=OFF \
    -DLIFERAFT_BUILD_TOOLS=OFF \
    -DLIFERAFT_SMOKE_SUITES="$(IFS=';'; echo "${suites[*]}")"
  cmake --build build-tsan -j --target smoke_suites
  # halt_on_error so a reported race fails the job, not just the log.
  for suite in "${suites[@]}"; do
    TSAN_OPTIONS="halt_on_error=1" "./build-tsan/$suite"
  done
  echo "tsan smoke OK"
  exit 0
fi

if [ "${1:-}" = "--real-io" ]; then
  cmake -B build -S . && cmake --build build -j --target liferaft_tool
  realio_tmp="$(mktemp -d)"
  trap 'rm -rf "$realio_tmp"' EXIT
  # Small on purpose: the smoke proves the real path (per-volume pread
  # queues, wall-clock telemetry, checksum verification) works end
  # to end; the measured-speedup story lives in the committed bench
  # anchors (docs/BENCHMARKS.md), not in CI timing assertions.
  ./build/liferaft_tool gen-catalog --objects 200000 --per-bucket 5000 \
    --seed 7 --out "$realio_tmp/cat.lfr"
  ./build/liferaft_tool gen-trace --queries 16 --seed 11 \
    --out "$realio_tmp/trace.lfr"
  ./build/liferaft_tool replay --store "$realio_tmp/cat.lfr" \
    --trace "$realio_tmp/trace.lfr" --io real --volumes 2 --prefetch 2
  ./build/liferaft_tool inspect --store "$realio_tmp/cat.lfr" \
    --verify-checksums --volumes 2
  # An arrival rate the generator refuses is a runtime error: exit 1 with
  # a Status on stderr, not an abort.
  rate0_status=0
  ./build/liferaft_tool replay --store "$realio_tmp/cat.lfr" \
    --trace "$realio_tmp/trace.lfr" --rate 0 2> "$realio_tmp/rate0.err" ||
    rate0_status=$?
  if [ "$rate0_status" -ne 1 ]; then
    echo "replay --rate 0 exited $rate0_status, want 1" >&2
    cat "$realio_tmp/rate0.err" >&2
    exit 1
  fi
  # A misspelled flag is a usage error: exit 2 naming it, before any work,
  # so no catalog file is written with the default it stood in for.
  typo_status=0
  ./build/liferaft_tool gen-catalog --objects 20000 --per-buckt 500 \
    --out "$realio_tmp/typo.lfr" 2> "$realio_tmp/typo.err" || typo_status=$?
  if [ "$typo_status" -ne 2 ] || [ -e "$realio_tmp/typo.lfr" ] ||
    ! grep -q -- "unknown flag --per-buckt for gen-catalog" \
      "$realio_tmp/typo.err"; then
    echo "gen-catalog --per-buckt exited $typo_status, want 2 and no file" >&2
    cat "$realio_tmp/typo.err" >&2
    exit 1
  fi
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
cd ..

# Examples: CMake builds every examples/<name>.cpp as build/example_<name>,
# and each must run to completion. The names come from the sources, not
# from build/, where a deleted example's binary can linger.
for example in examples/*.cpp; do
  name="$(basename "$example" .cpp)"
  echo "== example_$name"
  "./build/example_$name"
done

# Serving-mode smoke: the open-loop path (admission control, QoS classes)
# end to end — fast and deterministic, so any drift in the serving loop
# fails CI here before the bench gate sees it.
./build/test_serve --gtest_brief=1

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
