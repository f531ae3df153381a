#!/bin/bash
# Run the test suite and regenerate every paper figure/table,
# collecting a machine-readable artifact tree under results/.
#
#   ./run_all.sh [--jobs N] [--out DIR] [--keep-going] [--smoke]
#                [--quiet] [--resume | --no-cache] [--baseline DIR]
#
# --jobs N is passed through to every harness binary: N concurrent
# simulations, 0 = all cores, default = all cores. Results are
# bit-identical for any value (the engine's determinism contract); only
# wall-clock changes.
# --out DIR redirects the artifact tree (default: results/).
# --keep-going runs every step even after a failure and prints a
# failure summary at the end (exit stays non-zero) — useful for seeing
# the full damage of a broken change in one pass. Fault isolation
# inside each binary is finer still: a panicking grid cell produces a
# v2 failure manifest and a non-zero exit, without losing the other
# cells' work.
# --smoke shrinks every binary to the CI-sized config (seconds, not
# minutes) — the interrupted-run CI job uses this.
# --quiet trims the tooling chatter: the diffrun summary and the report
# progress line are silenced (failures still print, exit codes are
# unchanged).
# The binaries share one cell cache, $OUT/.cellcache/, keyed on what a
# cell simulates (workload or microbenchmark point, strategy, config)
# and on a hash of the code: each distinct cell is simulated once, and
# every later binary that needs it (fig7-9 reuse fig6's grid, fig6
# reuses fig1b's and table2's cells) reads it back. Manifests come out
# byte-identical apart from hostPerf, which counts the cached cells.
# By default the cache is cleared before the first binary, so a
# reproduction simulates every distinct cell fresh and its profiles
# describe real work.
# --resume keeps $OUT/.cellcache/ from an earlier (interrupted or
# failed) run, so only the cells it did not finish are simulated.
# --no-cache disables the cell cache entirely: every binary simulates
# its whole grid.
# --baseline DIR diffs this run against a previous artifact tree: after
# validation, diffrun writes $OUT/rundiff.json (gvf.rundiff — semantic /
# performance / coverage drift, every regression attributed), the
# validator checks it, and the report renders it under "What changed
# since the baseline".
#
# Artifacts: $OUT/<bin>.json is each binary's gvf.run-manifest (with an
# embedded gvf.hostperf section), $OUT/<bin>.attrib.json its
# mechanism-attribution report (gvf.attribution), $OUT/<bin>.profile.json
# its host-side span profile (gvf.hostprofile — where the wall-clock
# time went), $OUT/<bin>.audit.json its cycle audit (gvf.cycleaudit —
# how much simulated time was skippable) and $OUT/<bin>.events.jsonl its
# live telemetry stream (gvf.events — sweep/cell lifecycle, heartbeats,
# resource samples; watch a live run with `status --follow`); fig6
# additionally records $OUT/fig6.trace.json (Chrome trace-event /
# Perfetto timeline) and $OUT/fig6.metrics.json (per-epoch metrics).
# Every artifact is re-parsed by the in-repo validator before the run
# counts as green, and each events stream is reconciled 1:1 against its
# binary's manifest.
# The report binary then collates everything into $OUT/REPORT.md.
# To time the reproduction, run the benchmark: `bash perfbench/run.sh`
# (see perfbench/README.md).
set -euo pipefail
cd "$(dirname "$0")"

JOBS=0
OUT=results
KEEP_GOING=0
CACHE_FLAGS=()
RESUME=0
SMOKE_FLAGS=()
QUIET_FLAGS=()
BASELINE=""
while [ $# -gt 0 ]; do
  case "$1" in
    --jobs)
      [ $# -ge 2 ] || { echo "error: --jobs needs a value" >&2; exit 2; }
      JOBS="$2"; shift 2 ;;
    --out)
      [ $# -ge 2 ] || { echo "error: --out needs a value" >&2; exit 2; }
      OUT="$2"; shift 2 ;;
    --baseline)
      [ $# -ge 2 ] || { echo "error: --baseline needs a value" >&2; exit 2; }
      BASELINE="$2"; shift 2 ;;
    --keep-going)
      KEEP_GOING=1; shift ;;
    --smoke)
      SMOKE_FLAGS=(--smoke); shift ;;
    --quiet)
      QUIET_FLAGS=(--quiet); shift ;;
    --resume)
      CACHE_FLAGS=(--resume); RESUME=1; shift ;;
    --no-cache)
      CACHE_FLAGS=(--no-cache); RESUME=0; shift ;;
    *)
      echo "error: unknown argument '$1' (usage: $0 [--jobs N] [--out DIR] [--keep-going] [--smoke] [--quiet] [--resume | --no-cache] [--baseline DIR])" >&2; exit 2 ;;
  esac
done
# The harness block below runs inside a pipe subshell (tee), so
# failures are collected in a file rather than a shell variable.
FAILURES_FILE="$(mktemp)"
trap 'rm -f "$FAILURES_FILE"' EXIT

fail() {
  echo >&2
  echo "run_all.sh: FAILED at step '$1' — see output above." >&2
  echo "Re-run just that step with: $2" >&2
  if [ "$KEEP_GOING" = 1 ]; then
    echo "$1" >> "$FAILURES_FILE"
  else
    exit 1
  fi
}

run_step() {
  local name="$1"; shift
  echo; echo "########## $name ##########"
  "$@" || fail "$name" "$*"
}

mkdir -p "$OUT"

run_step "cargo test" cargo test --workspace 2>&1 | tee test_output.txt

if [ "$RESUME" = 0 ]; then
  rm -rf "$OUT/.cellcache"
fi

{
  echo
  echo "================================================================"
  echo "  PAPER FIGURE / TABLE HARNESS (cargo run -p gvf-bench --bin <x>)"
  echo "================================================================"
  # Every binary sweeps its grid on --jobs threads and drops its run
  # manifest, mechanism-attribution report, host span profile and
  # cycle audit into $OUT/; fig6 also records the observability
  # artifacts from its first grid cell.
  for b in fig1b table1 table2 fig6 fig7 fig8 fig9 fig11 fig12 alloc_init fig10 ablation_lookup generations counters; do
    extra=()
    if [ "$b" = fig6 ]; then
      extra=(--trace-out "$OUT/fig6.trace.json" --metrics-out "$OUT/fig6.metrics.json")
    fi
    run_step "$b" cargo run --release -p gvf-bench --bin "$b" -- \
      --jobs "$JOBS" --json-out "$OUT/$b.json" \
      --attrib-out "$OUT/$b.attrib.json" \
      --profile-out "$OUT/$b.profile.json" \
      --audit-out "$OUT/$b.audit.json" \
      --events-out "$OUT/$b.events.jsonl" \
      "${SMOKE_FLAGS[@]}" "${CACHE_FLAGS[@]}" "${extra[@]}"
  done
  # The glob picks up every per-binary artifact family: .json manifest,
  # .attrib.json, .profile.json, .audit.json (plus fig6's trace and
  # metrics) — the validator dispatches on each file's schema header
  # and, for gvf.cycleaudit, re-checks the epoch accounting invariant.
  run_step "validate artifacts" cargo run --release -p gvf-bench --bin validate_json -- "$OUT"/*.json
  # Cell-cache entries are artifacts too: each carries a content hash
  # that the validator recomputes, so a corrupted or hand-edited entry
  # is caught here rather than silently resumed into a future manifest.
  if compgen -G "$OUT/.cellcache/*.json" > /dev/null; then
    run_step "validate cell cache" cargo run --release -p gvf-bench --bin validate_json -- "$OUT"/.cellcache/*.json
  fi
  # Telemetry streams are artifacts too: validate each against the
  # gvf.events lifecycle invariants, reconcile it 1:1 with its binary's
  # manifest, and print the status console's roll-up (also asserting
  # that `status --summary` sees a cleanly finished run).
  if compgen -G "$OUT/*.events.jsonl" > /dev/null; then
    run_step "validate events" cargo run --release -p gvf-bench --bin validate_json -- "$OUT"/*.events.jsonl
    for ev in "$OUT"/*.events.jsonl; do
      mf="${ev%.events.jsonl}.json"
      [ -f "$mf" ] || continue
      run_step "reconcile $(basename "$ev")" cargo run --release -p gvf-bench --bin validate_json -- --events-reconcile "$ev" "$mf"
    done
    run_step "status" cargo run --release -p gvf-bench --bin status -- --summary "$OUT/fig7.events.jsonl"
  fi

  # Differential observability: diff this tree against the provided
  # baseline tree and validate the artifact. Runs before the report so
  # $OUT/rundiff.json lands in its "What changed since the baseline"
  # section.
  if [ -n "$BASELINE" ]; then
    run_step "diffrun" cargo run --release -p gvf-bench --bin diffrun -- \
      --out "$OUT/rundiff.json" "${QUIET_FLAGS[@]}" "$BASELINE" "$OUT"
    run_step "validate rundiff" cargo run --release -p gvf-bench --bin validate_json -- "$OUT/rundiff.json"
  fi

  # Collate everything into the human-readable reproduction report.
  run_step "report" cargo run --release -p gvf-bench --bin report -- --results "$OUT" "${QUIET_FLAGS[@]}"
} 2>&1 | tee bench_output.txt

if [ -s "$FAILURES_FILE" ]; then
  echo
  echo "run_all.sh: $(wc -l < "$FAILURES_FILE") step(s) FAILED:"
  sed 's/^/  - /' "$FAILURES_FILE"
  exit 1
fi
echo ALL_DONE
