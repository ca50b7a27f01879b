#!/usr/bin/env bash
# Integration test for the ttm_cli chiplet-economics contract:
#
#   1. A straight --chiplet-pareto run exits 0, reports at least two
#      frontier points, and its stdout is bitwise identical at 1 and
#      8 threads (same seed, same spec).
#   2. --deadline with --checkpoint exits 3 when the budget expires,
#      leaving a well-formed chiplet_pareto checkpoint.
#   3. --resume from that checkpoint finishes the sweep and produces
#      stdout bitwise identical to the straight run, at 1 and 8
#      threads.
#   4. An explicit --chiplet-config file reproduces across thread
#      counts, and a hostile config is a structured exit-2 error
#      naming every problem, not a crash.
#
# Usage: cli_chiplet_test.sh /path/to/ttm_cli
set -u

CLI="${1:?usage: cli_chiplet_test.sh /path/to/ttm_cli}"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/ttmcas_cli_chiplet.XXXXXX")"
trap 'rm -rf "${WORK}"' EXIT

FAILURES=0
fail() {
    echo "FAIL: $*" >&2
    FAILURES=$((FAILURES + 1))
}

cat > "${WORK}/spec.json" <<'EOF'
{"partitions": [1, 2, 4, 8],
 "nodes": ["7nm", "12nm"],
 "redundancy": [0, 1, 2],
 "split_fractions": [0.6, 1.0],
 "secondary_node": "12nm",
 "cost": {"tier": "interposer"}}
EOF

CHIPLET_ARGS=(--node 7nm --ntt 2.4e9 --nut 2e8 --chips 5e7
              --chiplet-pareto --chiplet-config "${WORK}/spec.json"
              --seed 2023)

# ---------------------------------------------------------------- #
# 1. Straight run: exit 0, >= 2 frontier points, serial == 8 threads
#    bitwise.
# ---------------------------------------------------------------- #
"${CLI}" "${CHIPLET_ARGS[@]}" --threads 1 > "${WORK}/straight.out" \
    2> "${WORK}/straight.err"
code=$?
[ "${code}" -eq 0 ] || fail "straight run exited ${code}, expected 0"
[ -s "${WORK}/straight.out" ] || fail "straight run produced no output"
grep -q '"candidates_requested":48,"candidates_completed":48,' \
    "${WORK}/straight.out" ||
    fail "straight run did not report 48/48 completed candidates"
grep -Eq '^key [0-9a-f]{16}-[0-9a-f]{16}-[0-9a-f]{16}$' \
    "${WORK}/straight.err" ||
    fail "straight run did not print a cache key"
# "frontier":[i,j,...] lists the frontier's point indices.
frontier_points=$(grep -o '"frontier":\[[0-9,]*\]' "${WORK}/straight.out" |
    tr -cd ',[' | wc -c)
[ "${frontier_points}" -ge 2 ] ||
    fail "expected >= 2 frontier points, got ${frontier_points}"

"${CLI}" "${CHIPLET_ARGS[@]}" --threads 8 > "${WORK}/threads8.out" \
    2> /dev/null
code=$?
[ "${code}" -eq 0 ] || fail "8-thread run exited ${code}, expected 0"
cmp -s "${WORK}/straight.out" "${WORK}/threads8.out" ||
    fail "8-thread stdout differs from the serial run"

# ---------------------------------------------------------------- #
# 2. Deadline kill: an already-expired budget stops the sweep before
#    any candidate, exits 3, and still writes a well-formed
#    checkpoint.
# ---------------------------------------------------------------- #
"${CLI}" "${CHIPLET_ARGS[@]}" --threads 1 \
    --deadline 0.000001 \
    --checkpoint "${WORK}/ck.json" \
    --manifest "${WORK}/deadline_manifest.json" \
    > "${WORK}/deadline.out" 2> "${WORK}/deadline.err"
code=$?
[ "${code}" -eq 3 ] || fail "deadline run exited ${code}, expected 3"
[ -s "${WORK}/ck.json" ] || fail "deadline run left no checkpoint"
grep -q '"kernel": *"chiplet_pareto"' "${WORK}/ck.json" ||
    fail "checkpoint does not carry the chiplet_pareto kernel name"
grep -q '"disposition": *"deadline_exceeded"' \
    "${WORK}/deadline_manifest.json" ||
    fail "manifest disposition is not deadline_exceeded"
[ ! -e "${WORK}/ck.json.tmp" ] || fail "staging file survived the rename"

# ---------------------------------------------------------------- #
# 3. Resume parity: finish from the checkpoint; stdout must be
#    bitwise identical to the straight run at 1 and 8 threads.
# ---------------------------------------------------------------- #
for threads in 1 8; do
    "${CLI}" "${CHIPLET_ARGS[@]}" --threads "${threads}" \
        --resume "${WORK}/ck.json" \
        --manifest "${WORK}/resume_manifest_${threads}.json" \
        > "${WORK}/resumed_${threads}.out" 2> /dev/null
    code=$?
    [ "${code}" -eq 0 ] ||
        fail "resume (${threads} threads) exited ${code}, expected 0"
    cmp -s "${WORK}/straight.out" "${WORK}/resumed_${threads}.out" ||
        fail "resumed stdout (${threads} threads) differs from straight run"
    grep -q '"disposition": *"resumed"' \
        "${WORK}/resume_manifest_${threads}.json" ||
        fail "resume manifest (${threads} threads) disposition wrong"
done

# ---------------------------------------------------------------- #
# 4. Defaults and hostility: without a config the sweep still runs
#    (defaultsFor over the design's nodes); a hostile config is a
#    structured exit-2 error naming every problem.
# ---------------------------------------------------------------- #
"${CLI}" --node 7nm --ntt 2.4e9 --nut 2e8 --chips 5e7 \
    --chiplet-pareto --seed 2023 --threads 1 > "${WORK}/default.out" \
    2> /dev/null
code=$?
[ "${code}" -eq 0 ] || fail "default-spec run exited ${code}, expected 0"
grep -q '"candidates_requested":6,"candidates_completed":6,' \
    "${WORK}/default.out" ||
    fail "default spec did not sweep 3 partitions x 2 redundancy"

cat > "${WORK}/hostile.json" <<'EOF'
{"partitions": [0, 1.5],
 "nodes": [],
 "split_fractions": [0.5],
 "cost": {"tier": "ceramic", "spare_chiplets": 2}}
EOF
"${CLI}" --node 7nm --ntt 2.4e9 --nut 2e8 --chips 5e7 \
    --chiplet-pareto --chiplet-config "${WORK}/hostile.json" \
    > "${WORK}/hostile.out" 2> "${WORK}/hostile.err"
code=$?
[ "${code}" -eq 2 ] || fail "hostile config exited ${code}, expected 2"
grep -q 'invalid chiplet config' "${WORK}/hostile.err" ||
    fail "hostile config error does not name the config file"
grep -q 'spare_chiplets' "${WORK}/hostile.err" ||
    fail "hostile config error does not flag the spare_chiplets key"

if [ "${FAILURES}" -ne 0 ]; then
    echo "${FAILURES} check(s) failed" >&2
    exit 1
fi
echo "all CLI chiplet checks passed"
