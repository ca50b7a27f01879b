#!/usr/bin/env bash
# Integration test for the ttm_cli scenario-ensemble contract:
#
#   1. A straight --ensemble run exits 0 and its stdout is bitwise
#      identical at 1 and 8 threads (same seed, same paths).
#   2. --deadline with --checkpoint exits 3 when the budget expires,
#      leaving a well-formed checkpoint (kill-and-... half).
#   3. --resume from that checkpoint finishes the run and produces
#      stdout bitwise identical to the straight run, at 1 and 8
#      threads (...-resume parity half).
#   4. An explicit --ensemble-config file reproduces across runs, and
#      a hostile config is a structured exit-2 error, not a crash.
#   5. Flags an ensemble_ttm request cannot carry (--engineers,
#      --snapshot) are usage errors (exit 2), not silently ignored.
#
# Usage: cli_ensemble_test.sh /path/to/ttm_cli
set -u

CLI="${1:?usage: cli_ensemble_test.sh /path/to/ttm_cli}"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/ttmcas_cli_ensemble.XXXXXX")"
trap 'rm -rf "${WORK}"' EXIT

FAILURES=0
fail() {
    echo "FAIL: $*" >&2
    FAILURES=$((FAILURES + 1))
}

ENSEMBLE_ARGS=(--node 7nm --ntt 2.4e9 --nut 2e8 --chips 5e7
               --ensemble 96 --seed 2023)

# ---------------------------------------------------------------- #
# 1. Straight run: exit 0, and serial == 8 threads bitwise.
# ---------------------------------------------------------------- #
"${CLI}" "${ENSEMBLE_ARGS[@]}" --threads 1 > "${WORK}/straight.out" \
    2> "${WORK}/straight.err"
code=$?
[ "${code}" -eq 0 ] || fail "straight run exited ${code}, expected 0"
[ -s "${WORK}/straight.out" ] || fail "straight run produced no output"
grep -q '"paths_requested":96,"paths_completed":96,' \
    "${WORK}/straight.out" ||
    fail "straight run did not report 96/96 completed paths"
grep -Eq '^key [0-9a-f]{16}-[0-9a-f]{16}-[0-9a-f]{16}$' \
    "${WORK}/straight.err" ||
    fail "straight run did not print a cache key"

"${CLI}" "${ENSEMBLE_ARGS[@]}" --threads 8 > "${WORK}/threads8.out" \
    2> /dev/null
code=$?
[ "${code}" -eq 0 ] || fail "8-thread run exited ${code}, expected 0"
cmp -s "${WORK}/straight.out" "${WORK}/threads8.out" ||
    fail "8-thread stdout differs from the serial run"

# ---------------------------------------------------------------- #
# 2. Deadline kill: an already-expired budget stops the run before
#    any path, exits 3, and still writes a well-formed checkpoint.
# ---------------------------------------------------------------- #
"${CLI}" "${ENSEMBLE_ARGS[@]}" --threads 1 \
    --deadline 0.000001 \
    --checkpoint "${WORK}/ck.json" \
    --manifest "${WORK}/deadline_manifest.json" \
    > "${WORK}/deadline.out" 2> "${WORK}/deadline.err"
code=$?
[ "${code}" -eq 3 ] || fail "deadline run exited ${code}, expected 3"
[ -s "${WORK}/ck.json" ] || fail "deadline run left no checkpoint"
grep -q '"kernel": *"ensemble_ttm"' "${WORK}/ck.json" ||
    fail "checkpoint does not carry the ensemble_ttm kernel name"
grep -q '"disposition": *"deadline_exceeded"' \
    "${WORK}/deadline_manifest.json" ||
    fail "manifest disposition is not deadline_exceeded"
[ ! -e "${WORK}/ck.json.tmp" ] || fail "staging file survived the rename"

# ---------------------------------------------------------------- #
# 3. Resume parity: finish from the checkpoint; stdout must be
#    bitwise identical to the straight run at 1 and 8 threads.
# ---------------------------------------------------------------- #
for threads in 1 8; do
    "${CLI}" "${ENSEMBLE_ARGS[@]}" --threads "${threads}" \
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
# 4. Config file: an explicit spec reproduces bitwise across runs;
#    a hostile spec is a structured exit-2 error naming the problems.
# ---------------------------------------------------------------- #
cat > "${WORK}/spec.json" <<'EOF'
{"horizon_weeks": 52, "step_weeks": 1,
 "nodes": {"7nm": {
    "markov": {"transition": [[0.9,0.08,0.02],
                              [0.2,0.7,0.1],
                              [0.0,0.3,0.7]],
               "capacity": [1.0, 0.5, 0.0],
               "recovery_ramp_weeks": 6,
               "recovery_ramp_steps": 3},
    "hawkes": {"mu": 0.05, "alpha": 0.4, "beta": 0.8,
               "shock_depth": [0.5, 0.9], "shock_weeks": 3}}}}
EOF
"${CLI}" "${ENSEMBLE_ARGS[@]}" --threads 1 \
    --ensemble-config "${WORK}/spec.json" > "${WORK}/config_a.out" \
    2> /dev/null
code=$?
[ "${code}" -eq 0 ] || fail "config run exited ${code}, expected 0"
grep -q '"horizon_weeks":52,' "${WORK}/config_a.out" ||
    fail "config run ignored the configured horizon"
"${CLI}" "${ENSEMBLE_ARGS[@]}" --threads 8 \
    --ensemble-config "${WORK}/spec.json" > "${WORK}/config_b.out" \
    2> /dev/null
cmp -s "${WORK}/config_a.out" "${WORK}/config_b.out" ||
    fail "config run is not reproducible across thread counts"

cat > "${WORK}/hostile.json" <<'EOF'
{"horizon_weeks": -4,
 "nodes": {"7nm": {"markov": {"transition": [[2,-1,0],[0,1,0],[0,0,1]]},
                   "hawkes": {"alpha": 3.0}}}}
EOF
"${CLI}" "${ENSEMBLE_ARGS[@]}" \
    --ensemble-config "${WORK}/hostile.json" \
    > "${WORK}/hostile.out" 2> "${WORK}/hostile.err"
code=$?
[ "${code}" -eq 2 ] || fail "hostile config exited ${code}, expected 2"
grep -q 'invalid ensemble config' "${WORK}/hostile.err" ||
    fail "hostile config error does not name the config file"
grep -q 'transition' "${WORK}/hostile.err" ||
    fail "hostile config error does not name the bad field"

# ---------------------------------------------------------------- #
# 5. Request-less flags: an ensemble_ttm request has no engineer count
#    or technology snapshot, so a batch run must refuse them rather
#    than print the key of a different evaluation.
# ---------------------------------------------------------------- #
for extra in "--engineers 50" "--snapshot ${WORK}/spec.json"; do
    # shellcheck disable=SC2086  # extra is a flag and its value
    "${CLI}" "${ENSEMBLE_ARGS[@]}" ${extra} \
        > "${WORK}/rejected.out" 2> "${WORK}/rejected.err"
    code=$?
    [ "${code}" -eq 2 ] ||
        fail "ensemble with ${extra} exited ${code}, expected 2"
    [ ! -s "${WORK}/rejected.out" ] ||
        fail "ensemble with ${extra} still printed a payload"
done

if [ "${FAILURES}" -ne 0 ]; then
    echo "${FAILURES} check(s) failed" >&2
    exit 1
fi
echo "all CLI ensemble checks passed"
