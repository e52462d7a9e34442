#!/usr/bin/env bash
# Repo-wide check gate: format check, the serial-run and layering guards,
# clang-tidy over the static-analysis subsystems, and the test suite in
# both build flavors (default and POLYPROF_SANITIZE), each followed by the
# compaction and transform-replay gates; the default flavor also runs the
# obs overhead and fold regression gates.
#
# clang-format / clang-tidy are optional: when a tool is missing the step
# is reported as SKIPPED instead of failing, so the script stays usable in
# minimal containers that only carry the compiler toolchain.
#
# Usage: scripts/check.sh [--no-tests]
set -u -o pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

RUN_TESTS=1
[[ "${1:-}" == "--no-tests" ]] && RUN_TESTS=0

FAIL=0
note() { printf '== %s\n' "$*"; }

# ---- 1. format check (whole tree, advisory-by-availability) -------------
if command -v clang-format >/dev/null 2>&1; then
  note "clang-format --dry-run over src/ tests/ bench/"
  mapfile -t FILES < <(find src tests bench -name '*.cpp' -o -name '*.hpp')
  if ! clang-format --dry-run --Werror "${FILES[@]}"; then
    note "clang-format: FAILED"
    FAIL=1
  else
    note "clang-format: OK (${#FILES[@]} files)"
  fi
else
  note "clang-format: SKIPPED (not installed)"
fi

# ---- 1b. serial-run guard ------------------------------------------------
# A profiling run is serial and independent runs share nothing (DESIGN.md
# "Concurrency: a run is serial"). No code under src/ may start a thread or
# block on a hand-off, and nothing under src/ may hold state for several
# threads (a lock, an atomic, a thread_local) except the one object a
# caller shares with a run: the CancelToken in src/support/cancel.hpp.
note "serial-run guard: no threads, locks, atomics or thread_local under src/ (atomics only in src/support/cancel.hpp)"
THREAD_HITS="$(
  grep -rnE 'std::thread|std::jthread|std::async|<thread>|<future>|<condition_variable>' \
    src --include='*.cpp' --include='*.hpp'
  grep -rnE 'thread_local|std::mutex|std::shared_mutex|std::atomic|<mutex>|<shared_mutex>|<atomic>' \
    src --include='*.cpp' --include='*.hpp' | grep -v '^src/support/cancel\.hpp:'
)"
if [[ -n "$THREAD_HITS" ]]; then
  printf '%s\n' "$THREAD_HITS"
  note "serial-run guard: FAILED"
  FAIL=1
else
  note "serial-run guard: OK"
fi

# ---- 1c. layering guard --------------------------------------------------
# The scheduler consumes the folder's own piece type (poly::Piece), which
# only works while pp::poly and pp::scheduler stay below the profiler:
# neither may include the folding, DDG or pipeline layers.
note "layering guard: no fold/, ddg/ or core/ includes under src/poly/ or src/scheduler/"
if LAYER_HITS="$(grep -rnE '#include "(fold|ddg|core)/' src/poly src/scheduler)"; then
  printf '%s\n' "$LAYER_HITS"
  note "layering guard: FAILED"
  FAIL=1
else
  note "layering guard: OK"
fi

# ---- 2. clang-tidy on the static-analysis subsystems --------------------
# src/verify (oracle, exact analysis, mutator), src/poly (Omega test,
# simplex, closed-form box bounds, polyhedra) and src/scheduler (legality
# verdicts) carry the correctness-critical arithmetic,
# src/ir/wellformed.cpp holds the structural rules that guard every VM
# construction, and src/ddg holds the stage-2 dependence rules whose
# WAR/WAW edges the transformation engine's legality checks consume;
# warnings there are treated as errors.
if command -v clang-tidy >/dev/null 2>&1; then
  note "clang-tidy over src/verify/ src/poly/ src/scheduler/ src/transform/ src/ddg/ src/ir/wellformed.cpp (compile_commands from build/)"
  if [[ ! -f build/compile_commands.json ]]; then
    cmake -S . -B build -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  fi
  if ! clang-tidy -p build --warnings-as-errors='*' \
      src/verify/*.cpp src/poly/*.cpp src/scheduler/*.cpp \
      src/transform/*.cpp src/ddg/*.cpp src/ir/wellformed.cpp; then
    note "clang-tidy: FAILED"
    FAIL=1
  else
    note "clang-tidy: OK"
  fi
else
  note "clang-tidy: SKIPPED (not installed)"
fi

# ---- 3. build + test, both flavors --------------------------------------
if [[ $RUN_TESTS -eq 1 ]]; then
  flavor() {
    local dir="$1"; shift
    local label="$1"; shift
    note "configure+build+test: $label ($dir)"
    cmake -S . -B "$dir" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_EXPORT_COMPILE_COMMANDS=ON "$@" >/dev/null || { FAIL=1; return; }
    cmake --build "$dir" -j "$(nproc)" >/dev/null || { FAIL=1; return; }
    if ! ctest --test-dir "$dir" --output-on-failure -j "$(nproc)"; then
      note "$label tests: FAILED"
      FAIL=1
    else
      note "$label tests: OK"
    fi
  }
  # ---- 3a. trace compaction gate (run per flavor, below) -----------------
  # bench/trace_compaction checks the PR-9 payoff contract: the Ball-Larus
  # path cache must compress the bulk of the instruction stream on the
  # structurally compressible workloads, beat the uncompacted ddg stage by
  # its committed factor (median paired ratio), and keep full_report
  # byte-identical compaction on/off. Sanitizer builds self-disable the
  # speedup gate (instrumented timing is meaningless) but still enforce
  # byte-identity and compression.
  compaction_gate() {
    local dir="$1"; shift
    local label="$1"; shift
    if [[ -x "$dir/bench/trace_compaction" ]]; then
      note "trace compaction gate ($label): bench/trace_compaction --json"
      if ! "$dir/bench/trace_compaction" --json; then
        note "trace compaction gate ($label): FAILED"
        FAIL=1
      else
        note "trace compaction gate ($label): OK"
      fi
    else
      note "trace compaction gate ($label): SKIPPED ($dir/bench/trace_compaction not built)"
    fi
  }

  # ---- 3a'. transform replay gate (run per flavor, below) ----------------
  # bench/transform_replay closes the loop on the profiler's feedback: it
  # applies every justified schedule on all 19 mini-Rodinia workloads and
  # exits nonzero if any applied schedule breaks the byte-identity
  # contract, or if interchange/tiling/fusion fail to each show a measured
  # simulated speedup > 1.0x somewhere. Speedups come from the VM cost
  # model (deterministic cycle counts), so the gate is sanitizer-safe.
  replay_gate() {
    local dir="$1"; shift
    local label="$1"; shift
    if [[ -x "$dir/bench/transform_replay" ]]; then
      note "transform replay gate ($label): bench/transform_replay --json"
      if ! "$dir/bench/transform_replay" --json; then
        note "transform replay gate ($label): FAILED"
        FAIL=1
      else
        note "transform replay gate ($label): OK"
      fi
    else
      note "transform replay gate ($label): SKIPPED ($dir/bench/transform_replay not built)"
    fi
  }

  flavor build default
  compaction_gate build default
  replay_gate build default

  # ---- 3b. observability overhead gate (default flavor only) -------------
  # pp::obs promises that an enabled-but-idle Session costs at most a few
  # percent of pipeline wall time (DESIGN.md "Observability"). obs_overhead
  # measures the serial backprop pipeline observe-off vs observe-on
  # (median of 121 alternating-order off/on pair ratios) and exits nonzero
  # above its 3% threshold.
  if [[ -x build/bench/obs_overhead ]]; then
    note "obs overhead gate: bench/obs_overhead --json"
    if ! build/bench/obs_overhead --json; then
      note "obs overhead gate: FAILED (enabled-but-idle overhead above threshold)"
      FAIL=1
    else
      note "obs overhead gate: OK"
    fi
  else
    note "obs overhead gate: SKIPPED (build/bench/obs_overhead not built)"
  fi

  # ---- 3c. fold regression gate (default flavor only) --------------------
  # bench/fold_only replays every workload's recorded DDG stream into a
  # FoldingSink and times fold alone; it exits nonzero when the cfd fold
  # wall time exceeds its committed budget (see kCfdBudgetMs), catching
  # folder asymptotic regressions that full-pipeline timing would blur.
  if [[ -x build/bench/fold_only ]]; then
    note "fold regression gate: bench/fold_only --json"
    if ! build/bench/fold_only --json; then
      note "fold regression gate: FAILED (cfd fold wall time above budget)"
      FAIL=1
    else
      note "fold regression gate: OK"
    fi
  else
    note "fold regression gate: SKIPPED (build/bench/fold_only not built)"
  fi
  flavor build-asan sanitize -DPOLYPROF_SANITIZE=ON
  compaction_gate build-asan sanitize
  replay_gate build-asan sanitize
fi

if [[ $FAIL -ne 0 ]]; then
  note "check.sh: FAILURES above"
  exit 1
fi
note "check.sh: all checks passed (skipped steps noted above)"
