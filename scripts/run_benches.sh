#!/usr/bin/env bash
# Build the Release tree and run every bench binary, emitting one
# BENCH_<name>.json per bench so results can accumulate across PRs.
#
# Usage:
#   scripts/run_benches.sh [output-dir]
#
# Environment:
#   CATSIM_SCALE   experiment scale passed to the benches (default 0.05
#                  here to keep a full sweep under a few minutes; the
#                  benches themselves default to 0.2)
#   CATSIM_JOBS    sweep worker count passed to the benches (default
#                  nproc); recorded in each BENCH_<name>.json so the
#                  parallel speedup shows up in the cross-PR trajectory
#   CATSIM_BASELINE_CACHE  optional dir for baseline stream reuse
#                  across runs (not set by default: trajectory numbers
#                  should include the baseline cost unless asked)
#   CATSIM_CHECKPOINT  optional dir for the crash-safe run journal;
#                  a killed invocation re-run with the same dir resumes
#                  finished sweep cells / Monte-Carlo batches and
#                  prints byte-identical @@METRIC lines (EXPERIMENTS.md
#                  Section 3b)
#   BENCH_FILTER   only run benches whose name matches this grep regex
#   CATSIM_CHECK_METRICS  set to 0 to skip the reference-metric
#                  regression check (scripts/check_metrics.py); the
#                  check auto-skips benches whose scale differs from
#                  the committed reference scale
#   CATSIM_CHECK_PERF  set to 0 to skip the hot-path throughput gate
#                  (scripts/check_perf.py over the micro-bench's
#                  @@METRIC throughputs; auto-skips benches that were
#                  filtered out)
#   CATSIM_PERF_HISTORY  set to 1 to append this run's tracked
#                  throughput metrics to scripts/perf_history.jsonl
#                  (the cross-PR trajectory file; commit the appended
#                  lines with the PR). Off by default so CI reruns do
#                  not fork the history.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${REPO_ROOT}/build"
OUT_DIR="${1:-${REPO_ROOT}/bench-results}"
SCALE="${CATSIM_SCALE:-0.05}"
JOBS="${CATSIM_JOBS:-$(nproc)}"
FILTER="${BENCH_FILTER:-.}"

cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${BUILD_DIR}" -j"$(nproc)"

mkdir -p "${OUT_DIR}"

# Millisecond wall clock: bash 5 EPOCHREALTIME (microseconds) when
# available, second-resolution date otherwise (e.g. macOS bash 3.2).
now_ms() {
    if [ -n "${EPOCHREALTIME:-}" ]; then
        local t="${EPOCHREALTIME/./}"
        echo "$((t / 1000))"
    else
        echo "$(($(date +%s) * 1000))"
    fi
}

json_escape() {
    # Minimal escaper for strings we embed in JSON.
    sed -e 's/\\/\\\\/g' -e 's/"/\\"/g' | tr '\n' ' '
}

status=0
for bench in "${BUILD_DIR}"/bench/bench_*; do
    [ -x "${bench}" ] || continue
    name="$(basename "${bench}")"
    echo "${name}" | grep -qE "${FILTER}" || continue

    log="${OUT_DIR}/${name}.log"
    echo "==> ${name} (scale=${SCALE}, jobs=${JOBS})"
    start="$(now_ms)"
    if CATSIM_SCALE="${SCALE}" CATSIM_JOBS="${JOBS}" \
        CATSIM_CHECKPOINT="${CATSIM_CHECKPOINT:-}" "${bench}" \
        > "${log}" 2>&1; then
        exit_code=0
    else
        exit_code=$?
        status=1
    fi
    end="$(now_ms)"
    elapsed="$((end - start))"

    first_line="$(head -n1 "${log}" | json_escape)"
    # Collect every "@@METRIC <name> <value>" line the bench printed
    # into a JSON object, so per-figure result values (mean CMRPO/ETO
    # per scheme) are tracked across PRs alongside wall time.
    metrics="$(awk '/^@@METRIC /{
        if (n++) printf ",\n";
        printf "    \"%s\": %s", $2, $3
    } END { if (n) printf "\n" }' "${log}")"
    cat > "${OUT_DIR}/BENCH_${name}.json" <<EOF
{
  "bench": "${name}",
  "scale": ${SCALE},
  "jobs": ${JOBS},
  "wall_ms": ${elapsed},
  "exit_code": ${exit_code},
  "log": "${name}.log",
  "title": "${first_line}",
  "metrics": {
${metrics}  }
}
EOF
    echo "    ${elapsed} ms, exit ${exit_code}"
done

# Regression-check the recorded metrics against the committed
# reference values (deterministic given the scale; see
# scripts/reference_metrics.json for tolerances).
REFERENCE="${REPO_ROOT}/scripts/reference_metrics.json"
if [ "${CATSIM_CHECK_METRICS:-1}" != "0" ] && [ -f "${REFERENCE}" ] \
    && command -v python3 > /dev/null; then
    echo "==> checking metrics against $(basename "${REFERENCE}")"
    if ! python3 "${REPO_ROOT}/scripts/check_metrics.py" \
        "${OUT_DIR}" --reference "${REFERENCE}"; then
        echo "::error::bench metrics regressed against reference"
        status=1
    fi
fi

# Gate the hot-path throughput (bundle speedup floors per hardware
# tier, loose absolute sanity floors, and the cross-PR
# trajectory guard; see scripts/reference_perf.json and
# scripts/perf_history.jsonl).
PERF_REFERENCE="${REPO_ROOT}/scripts/reference_perf.json"
if [ "${CATSIM_CHECK_PERF:-1}" != "0" ] && [ -f "${PERF_REFERENCE}" ] \
    && command -v python3 > /dev/null; then
    echo "==> checking throughput against $(basename "${PERF_REFERENCE}")"
    PERF_ARGS=()
    if [ "${CATSIM_PERF_HISTORY:-0}" = "1" ]; then
        PERF_ARGS+=(--update-history)
    fi
    if ! python3 "${REPO_ROOT}/scripts/check_perf.py" \
        "${OUT_DIR}" --reference "${PERF_REFERENCE}" \
        ${PERF_ARGS[@]+"${PERF_ARGS[@]}"}; then
        echo "::error::hot-path throughput regressed against reference"
        status=1
    fi
fi

echo "Results in ${OUT_DIR}/"
exit "${status}"
