#!/usr/bin/env bash
# Full correctness gauntlet, in the order a CI runner should execute it:
#
#   1. tier-1: strict (-Werror) Release build + the whole ctest suite
#      (includes rpbcm_lint and the header self-containment objects)
#   2. the same suite again with RPBCM_THREADS=4, so every test also runs
#      with the parallel runtime forked (the bitwise-equivalence contract
#      of src/base/parallel.hpp — see docs/parallelism.md)
#   2b. a -DRPBCM_SIMD=OFF build + the full suite: the portable-scalar
#      eMAC configuration must stay a first-class build, and the golden
#      vectors must stay bit-exact without the AVX2 TU (docs/simd.md)
#   3. ASan+UBSan build, `ctest -L san` (full suite — every test is
#      labeled `san` when RPBCM_SANITIZE is set)
#   4. TSan build, `ctest -L san`
#   5. static architecture & concurrency guarantees: rpbcm_deps checks the
#      include graph against the declared layer DAG (and refreshes the
#      committed docs/include_graph.dot), then run_thread_safety.sh builds
#      the tree with Clang so -Wthread-safety verifies the lock
#      annotations (skipped with a notice when clang++ is not installed)
#   6. clang-tidy over the compile database (skipped with a notice when
#      clang-tidy is not installed; any finding is fatal)
#   7. bench smoke: bench_micro_kernels in minimum-time mode, and the
#      --kernels-json baseline writer — fails if BENCH_kernels.json is
#      not produced (catches bit-rot in the benchmark harness itself)
#   8. observability gate: quickstart --smoke with the background exporter
#      enabled, output files validated by perf_gate --check-jsonl /
#      --check-prom, then perf_gate diffs a fresh kernels JSON against the
#      committed baseline (bench/baselines/BENCH_kernels.json) and fails
#      on speedup regressions beyond tolerance (docs/observability.md)
#   9. serving gate: serve_loadgen --smoke under the background exporter
#      (outputs validated like stage 8), then bench_serve_throughput
#      writes a fresh serve JSON and perf_gate enforces both the relative
#      baseline ratio and the absolute batched >= 2x single-request
#      deployment floor (docs/serving.md)
#   10. chaos stage: the fault-injection/recovery kill-tests (fault
#      registry, corrupt-checkpoint corpus + crash-atomic saves, engine
#      self-healing, SEU model) re-run under ASan when available, then
#      serve_loadgen chaos drills with representative RPBCM_FAULTS
#      configs — an injected stage fault must surface as internal>0 with
#      recoveries>0 and a clean exit (docs/robustness.md)
#
# Every stage exits nonzero on any finding. See docs/static_analysis.md.
#
# Env knobs:
#   JOBS=N            parallelism (default: nproc)
#   SKIP_TSAN=1       skip stage 4 (e.g. on machines without TSan runtime)
#   SKIP_ASAN=1       skip stage 3
#   SKIP_SIMD_OFF=1   skip stage 2b (the -DRPBCM_SIMD=OFF build + suite)
#   SKIP_STATIC=1     skip stage 5 (layering + thread-safety build)
#   SKIP_BENCH=1      skip stage 7
#   SKIP_PERF_GATE=1  skip stage 8 (e.g. on heavily loaded machines where
#                     kernel timings are too noisy to gate on)
#   SKIP_SERVE=1      skip stage 9 (serving smoke + throughput gate)
#   SKIP_CHAOS=1      skip stage 10 (fault-injection drills)

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="${JOBS:-$(nproc)}"
cd "$ROOT"

stage() { echo; echo "=== ci.sh: $* ==="; }

stage "tier-1 build (strict, -Werror) + full test suite"
cmake -B build-strict -S . -DCMAKE_BUILD_TYPE=Release -DRPBCM_WERROR=ON \
      -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
cmake --build build-strict -j "$JOBS"
ctest --test-dir build-strict --output-on-failure -j "$JOBS"

stage "full test suite with RPBCM_THREADS=4 (forked parallel runtime)"
RPBCM_THREADS=4 ctest --test-dir build-strict --output-on-failure -j "$JOBS"

if [[ "${SKIP_SIMD_OFF:-0}" != "1" ]]; then
  stage "portable-scalar build (-DRPBCM_SIMD=OFF) + full test suite"
  cmake -B build-nosimd -S . -DCMAKE_BUILD_TYPE=Release -DRPBCM_WERROR=ON \
        -DRPBCM_SIMD=OFF > /dev/null
  cmake --build build-nosimd -j "$JOBS"
  ctest --test-dir build-nosimd --output-on-failure -j "$JOBS"
fi

if [[ "${SKIP_ASAN:-0}" != "1" ]]; then
  stage "ASan+UBSan build + ctest -L san"
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DRPBCM_SANITIZE="address;undefined" > /dev/null
  cmake --build build-asan -j "$JOBS"
  ASAN_OPTIONS="detect_leaks=1:check_initialization_order=1:strict_init_order=1" \
  LSAN_OPTIONS="suppressions=$ROOT/tools/sanitizers/lsan.supp" \
  UBSAN_OPTIONS="print_stacktrace=1" \
    ctest --test-dir build-asan -L san --output-on-failure -j "$JOBS"
fi

if [[ "${SKIP_TSAN:-0}" != "1" ]]; then
  stage "TSan build + ctest -L san"
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DRPBCM_SANITIZE=thread > /dev/null
  cmake --build build-tsan -j "$JOBS"
  TSAN_OPTIONS="suppressions=$ROOT/tools/sanitizers/tsan.supp:halt_on_error=1" \
    ctest --test-dir build-tsan -L san --output-on-failure -j "$JOBS"
fi

if [[ "${SKIP_STATIC:-0}" != "1" ]]; then
  stage "static architecture (rpbcm_deps layering) + Clang thread-safety"
  # Layering: the analyzer was built by stage 1; zero violations required.
  # The DOT snapshot in docs/ is refreshed in place so drift shows up as a
  # dirty git tree in CI.
  build-strict/tools/rpbcm_deps "$ROOT" --verbose \
    --dot="$ROOT/docs/include_graph.dot"
  # Thread-safety: the annotations only analyze under Clang; exit 3 means
  # "no clang++ on this machine", which is a skip, not a failure.
  set +e
  tools/run_thread_safety.sh "$ROOT/build-tsafety"
  tsafety_status=$?
  set -e
  if [[ $tsafety_status -eq 3 ]]; then
    echo "ci.sh: clang++ unavailable — thread-safety stage skipped"
  elif [[ $tsafety_status -ne 0 ]]; then
    exit "$tsafety_status"
  fi
fi

stage "clang-tidy"
set +e
tools/run_tidy.sh -p "$ROOT/build-strict"
tidy_status=$?
set -e
if [[ $tidy_status -eq 3 ]]; then
  echo "ci.sh: clang-tidy unavailable — stage skipped"
elif [[ $tidy_status -ne 0 ]]; then
  exit "$tidy_status"
fi

if [[ "${SKIP_BENCH:-0}" != "1" ]]; then
  stage "bench smoke + kernels baseline JSON"
  # Smoke pass: every benchmark at a tiny min-time. This google-benchmark
  # predates the duration-suffix syntax, so the value is a bare double.
  RPBCM_THREADS=1 build-strict/bench/bench_micro_kernels \
    --benchmark_min_time=0.01 > /dev/null
  bench_json="build-strict/BENCH_kernels.json"
  rm -f "$bench_json"
  RPBCM_THREADS=1 build-strict/bench/bench_micro_kernels \
    --benchmark_filter='NONE' --threads=1 \
    --kernels-json="$bench_json" > /dev/null
  if [[ ! -s "$bench_json" ]]; then
    echo "ci.sh: bench_micro_kernels did not produce $bench_json" >&2
    exit 1
  fi
fi

if [[ "${SKIP_PERF_GATE:-0}" != "1" ]]; then
  stage "observability gate (exporter well-formedness + perf regression)"
  obs_dir="build-strict/obs-gate"
  rm -rf "$obs_dir"
  mkdir -p "$obs_dir"
  build-strict/examples/quickstart --smoke \
    --metrics-jsonl="$obs_dir/metrics.jsonl" \
    --metrics-prom="$obs_dir/metrics.prom" \
    --metrics-period-ms=100 \
    --log-out="$obs_dir/log.jsonl" > /dev/null
  build-strict/tools/perf_gate --check-jsonl="$obs_dir/metrics.jsonl"
  build-strict/tools/perf_gate --check-prom="$obs_dir/metrics.prom"
  # A fresh kernels run at the committed baseline's thread count (stage
  # 6's smoke JSON is --threads=1, which would skew the speedup ratios).
  gate_json="$obs_dir/kernels.json"
  build-strict/bench/bench_micro_kernels \
    --benchmark_filter='NONE' --threads=4 \
    --kernels-json="$gate_json" > /dev/null
  build-strict/tools/perf_gate \
    --baseline=bench/baselines/BENCH_kernels.json --current="$gate_json" \
    --section=kernels --section=emac_simd
fi

if [[ "${SKIP_SERVE:-0}" != "1" ]]; then
  stage "serving gate (loadgen smoke + batched-throughput floor)"
  serve_dir="build-strict/serve-gate"
  rm -rf "$serve_dir"
  mkdir -p "$serve_dir"
  # Deterministic smoke run of the batched engine under the exporter; the
  # loadgen exits nonzero if any request is lost or nothing completes.
  build-strict/examples/serve_loadgen --smoke --threads=4 \
    --metrics-jsonl="$serve_dir/metrics.jsonl" \
    --metrics-prom="$serve_dir/metrics.prom" \
    --metrics-period-ms=50 > /dev/null
  build-strict/tools/perf_gate --check-jsonl="$serve_dir/metrics.jsonl"
  build-strict/tools/perf_gate --check-prom="$serve_dir/metrics.prom"
  # Throughput: fresh serve JSON at the baseline's thread count, gated on
  # the relative ratio AND the absolute 2x deployment floor (docs/serving.md:
  # batched >= 2x single-request at batch 8 on 4 threads).
  serve_json="$serve_dir/serve.json"
  build-strict/bench/bench_serve_throughput --threads=4 --requests=2000 \
    --json="$serve_json" > /dev/null
  build-strict/tools/perf_gate \
    --baseline=bench/baselines/BENCH_kernels.json --current="$serve_json" \
    --section=serve_throughput --min-speedup=2.0
fi

if [[ "${SKIP_CHAOS:-0}" != "1" ]]; then
  stage "chaos (fault injection: kill-tests + self-healing loadgen drills)"
  # Kill-tests under ASan when stage 3 built that tree; otherwise the
  # strict build still exercises the full failure machinery.
  chaos_build="build-strict"
  if [[ "${SKIP_ASAN:-0}" != "1" && -d build-asan ]]; then
    chaos_build="build-asan"
  fi
  ASAN_OPTIONS="detect_leaks=1" \
  LSAN_OPTIONS="suppressions=$ROOT/tools/sanitizers/lsan.supp" \
    ctest --test-dir "$chaos_build" --output-on-failure -j "$JOBS" \
      -R 'FaultSiteName|FaultRegistryTest|FaultPointMacro|CheckpointRecoveryTest|EngineFaultTest|SeuTest'

  # Self-healing drills: representative RPBCM_FAULTS configs through the
  # real serving binary. Each run must answer every request, recover, and
  # report the injected failures on the greppable status line.
  chaos_drill() {
    local faults="$1"
    local out
    echo "ci.sh: chaos drill RPBCM_FAULTS=\"$faults\""
    out="$(RPBCM_FAULTS="$faults" build-strict/examples/serve_loadgen \
             --smoke --threads=4 --recover --stall-ms=2000)"
    echo "$out" | grep ' status: '
    if ! echo "$out" | grep ' status: ' | grep -qE 'internal=[1-9]'; then
      echo "ci.sh: chaos drill did not surface any kInternal failure" >&2
      exit 1
    fi
    if ! echo "$out" | grep ' status: ' | grep -qE 'recoveries=[1-9]'; then
      echo "ci.sh: chaos drill did not recover" >&2
      exit 1
    fi
  }
  chaos_drill "serve.engine.emac:once=5"
  chaos_drill "serve.engine.fft:once=3"
  chaos_drill "serve.engine.emac:once=2;serve.engine.fft:once=40"
fi

stage "all stages passed"
