#!/usr/bin/env bash
# Build the whole tree with AddressSanitizer + UndefinedBehaviorSanitizer and
# run the full ctest suite; then build a ThreadSanitizer configuration
# (TSan excludes ASan, hence its own build dir) and run the concurrency
# suites under it; then build with the obs instrumentation compiled out
# (-DOPENTLA_OBS=OFF) and run the full suite again. Dedicated build
# directories keep all three from polluting (or being polluted by) the
# regular build/.
#
# Usage: tools/ci_sanitize.sh [build-dir [tsan-build-dir [obs-off-build-dir]]]
#   (defaults: build-sanitize, build-tsan, build-obsoff)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build-sanitize}"
tsan_dir="${2:-${repo_root}/build-tsan}"
obsoff_dir="${3:-${repo_root}/build-obsoff}"

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DOPENTLA_SANITIZE=ON
cmake --build "${build_dir}" -j"$(nproc)"

# halt_on_error: fail the test (and hence CI) on the first sanitizer report
# instead of continuing with a poisoned process.
export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"

ctest --test-dir "${build_dir}" --output-on-failure -j"$(nproc)"

echo "--- ThreadSanitizer: parallel exploration suites (${tsan_dir}) ---"
cmake -B "${tsan_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DOPENTLA_TSAN=ON
cmake --build "${tsan_dir}" -j"$(nproc)" \
  --target test_parallel_explore test_differential

export TSAN_OPTIONS="halt_on_error=1"
ctest --test-dir "${tsan_dir}" --output-on-failure -j"$(nproc)" \
  -R 'test_parallel_explore|test_differential'

echo "--- OPENTLA_OBS=OFF: full suite without instrumentation (${obsoff_dir}) ---"
cmake -B "${obsoff_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DOPENTLA_OBS=OFF
cmake --build "${obsoff_dir}" -j"$(nproc)"
ctest --test-dir "${obsoff_dir}" --output-on-failure -j"$(nproc)"
