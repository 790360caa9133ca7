#!/usr/bin/env bash
# The zero-warning gate (DESIGN.md §10): every static and dynamic check the
# concurrency contract depends on, in one command. CI runs exactly this;
# run it locally before sending a PR.
#
# Gates, in order (each prints PASS/SKIP and the script fails on the first
# failure):
#   1. gcc/default build, -Werror, full ctest        (tier-1, always)
#   1b. gcc build with tracing compiled out, -Werror (always)
#   2. clang build with -Wthread-safety -Werror      (skipped if no clang++)
#   3. clang-tidy, repo profile                      (skipped if absent)
#   4. hetsgd-lint over compile_commands.json        (always)
#   4d. hetsgd-analyze semantic invariants           (always; libclang
#       frontend when importable, builtin otherwise)
#   5. TSan: chaos smoke + concurrency suites        (skip with --fast)
#   6. ASan+UBSan ctest                              (skip with --fast)
#
# Usage:
#   scripts/check_all.sh                  # everything
#   scripts/check_all.sh --fast           # static gates only (1-4d)
#   scripts/check_all.sh --require-tools  # SKIPs become failures: gates 2/3
#                                         # need clang/clang-tidy and gate 4d
#                                         # needs libclang (CI uses this)
# Flags combine; order does not matter.
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
REQUIRE_TOOLS=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    --require-tools) REQUIRE_TOOLS=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done
JOBS=${JOBS:-$(nproc)}

note() { printf '\n=== %s ===\n' "$*"; }

# --- 1. default-toolchain build, warnings-as-errors, full test suite -------
note "gate 1: build (-Werror) + ctest"
cmake -B build -S . -DHETSGD_WERROR=ON >/dev/null
cmake --build build -j"$JOBS"
# Which tensor-kernel ISA level (src/tensor/isa.hpp) this host runs.
build/tests/isa_equivalence_test \
  --gtest_filter='IsaDispatch.SelectsTheBestLevelTheCpuReports'
ctest --test-dir build --output-on-failure -j"$JOBS"
echo "gate 1: PASS"

# --- 1b. tracing compiled out, warnings-as-errors ---------------------------
# -DHETSGD_TRACE=OFF removes every probe, which changes what inlines into
# the hot paths and with it GCC's flow-sensitive warnings
# (-Wmaybe-uninitialized fired on msg::Envelope moves only in this
# configuration). Build every target that way too.
note "gate 1b: build with tracing compiled out (-Werror)"
cmake -B build-notrace -S . -DHETSGD_WERROR=ON -DHETSGD_TRACE=OFF >/dev/null
cmake --build build-notrace -j"$JOBS"
echo "gate 1b: PASS"

# --- 2. clang thread-safety analysis ---------------------------------------
# This is the leg that *proves* the GUARDED_BY/REQUIRES annotations:
# removing a MutexLock around any guarded field fails this build.
note "gate 2: clang -Wthread-safety -Werror"
if command -v clang++ >/dev/null 2>&1; then
  cmake -B build-clang -S . \
    -DCMAKE_CXX_COMPILER=clang++ -DHETSGD_WERROR=ON >/dev/null
  cmake --build build-clang -j"$JOBS"
  echo "gate 2: PASS"
elif [[ "$REQUIRE_TOOLS" == "1" ]]; then
  echo "gate 2: FAIL (--require-tools set but clang++ not installed)"
  exit 1
else
  echo "gate 2: SKIP (clang++ not installed; thread-safety attributes are"
  echo "         compiled out under gcc — install clang to enforce them)"
fi

# --- 3. clang-tidy ----------------------------------------------------------
note "gate 3: clang-tidy"
if command -v clang-tidy >/dev/null 2>&1; then
  cmake --build build --target tidy
  echo "gate 3: PASS"
elif [[ "$REQUIRE_TOOLS" == "1" ]]; then
  echo "gate 3: FAIL (--require-tools set but clang-tidy not installed)"
  exit 1
else
  echo "gate 3: SKIP (clang-tidy not installed)"
fi

# --- 4. hetsgd-lint ---------------------------------------------------------
note "gate 4: hetsgd-lint (self-test + tree)"
python3 tools/lint/hetsgd_lint.py --self-test
python3 tools/lint/hetsgd_lint.py \
  --compile-commands build/compile_commands.json
echo "gate 4: PASS"

# --- 4d. hetsgd-analyze ------------------------------------------------------
# Semantic invariants (DESIGN.md §14): lock-acquisition cycles, checkpoint
# field coverage, message-variant exhaustiveness, relaxed-atomic discipline
# and the AST-level core wall-clock ban. Runs everywhere via the builtin
# frontend; under --require-tools the libclang frontend is mandatory so CI
# checks the compiler's view of the record layouts.
note "gate 4d: hetsgd-analyze (self-test + tree)"
ANALYZE_FLAGS=""
if [[ "$REQUIRE_TOOLS" == "1" ]]; then
  ANALYZE_FLAGS="--frontend clang --require-clang"
fi
# shellcheck disable=SC2086  # deliberate word-splitting of the flag list
python3 tools/analyze/hetsgd_analyze.py --self-test $ANALYZE_FLAGS
# shellcheck disable=SC2086
python3 tools/analyze/hetsgd_analyze.py \
  --compile-commands build/compile_commands.json $ANALYZE_FLAGS
echo "gate 4d: PASS"

# --- 4b. tracing overhead ----------------------------------------------------
# micro_trace gates the obs layer's wall-time tax (<3%, DESIGN.md §12)
# using the gate-1 build; bench_smoke.sh re-runs it in the tuned native
# build and records bench_results/BENCH_trace.json.
note "gate 4b: tracing overhead (micro_trace)"
cmake --build build --target micro_trace -j"$JOBS"
build/bench/micro_trace
echo "gate 4b: PASS"

# --- 4c. backend dispatch overhead ------------------------------------------
# micro_backend gates the seam tax of backend::Backend virtual dispatch
# against the direct kernel path (<2%, DESIGN.md §13); bench_smoke.sh
# re-runs it in the native build and records BENCH_backend.json.
note "gate 4c: backend dispatch overhead (micro_backend)"
cmake --build build --target micro_backend -j"$JOBS"
build/bench/micro_backend
echo "gate 4c: PASS"

if [[ "$FAST" == "1" ]]; then
  note "--fast: skipping sanitizer gates (5-6)"
  exit 0
fi

# --- 5. ThreadSanitizer -----------------------------------------------------
# chaos_smoke --tsan builds build-tsan and runs the concurrency, actor and
# fault suites under TSan with scripts/tsan.supp; any unsuppressed report
# fails. The suppression file itself is kept honest by gate 4's
# tsan-supp-stale rule.
note "gate 5: TSan (chaos smoke + concurrency suites)"
scripts/chaos_smoke.sh --tsan
echo "gate 5: PASS"

# --- 6. ASan + UBSan --------------------------------------------------------
note "gate 6: ASan+UBSan ctest"
cmake -B build-asan -S . -DHETSGD_SANITIZE=address,undefined \
  -DHETSGD_BUILD_BENCH=OFF >/dev/null
cmake --build build-asan -j"$JOBS"
ctest --test-dir build-asan --output-on-failure -j"$JOBS"
echo "gate 6: PASS"

note "all gates passed"
