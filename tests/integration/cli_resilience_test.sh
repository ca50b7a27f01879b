#!/usr/bin/env bash
# Integration test for the ttm_cli resilience contract:
#
#   1. A straight Sobol batch run exits 0, prints the sobol_ttm
#      payload on stdout and its cache key on stderr.
#   2. --deadline with --checkpoint exits 3 when the budget expires,
#      leaving a well-formed checkpoint and manifest
#      (disposition=deadline_exceeded).
#   3. --resume from that checkpoint finishes the run and produces
#      stdout bitwise identical to the straight run, at 1 and 8
#      threads, with manifest disposition=resumed and parent lineage.
#   4. SIGINT mid-run flushes the checkpoint and exits 130.
#
# Usage: cli_resilience_test.sh /path/to/ttm_cli
set -u

CLI="${1:?usage: cli_resilience_test.sh /path/to/ttm_cli}"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/ttmcas_cli_resilience.XXXXXX")"
trap 'rm -rf "${WORK}"' EXIT

FAILURES=0
fail() {
    echo "FAIL: $*" >&2
    FAILURES=$((FAILURES + 1))
}

SOBOL_ARGS=(--sobol 512 --seed 2023)

# ---------------------------------------------------------------- #
# 1. Straight run: exit 0, reference output.
# ---------------------------------------------------------------- #
"${CLI}" "${SOBOL_ARGS[@]}" --threads 1 > "${WORK}/straight.out" \
    2> "${WORK}/straight.err"
code=$?
[ "${code}" -eq 0 ] || fail "straight run exited ${code}, expected 0"
[ -s "${WORK}/straight.out" ] || fail "straight run produced no output"
grep -q '^{"kernel":"sobol_ttm",.*"base_samples":512,' \
    "${WORK}/straight.out" ||
    fail "straight run did not print the sobol_ttm payload"
grep -Eq '^key [0-9a-f]{16}-[0-9a-f]{16}-[0-9a-f]{16}$' \
    "${WORK}/straight.err" ||
    fail "straight run did not print its cache key on stderr"

# ---------------------------------------------------------------- #
# 2. Deadline exit: an already-expired budget must stop the run
#    before any point, exit 3, and still write a well-formed
#    checkpoint + manifest. Deterministic: the deadline is armed
#    before the first chunk is claimed.
# ---------------------------------------------------------------- #
"${CLI}" "${SOBOL_ARGS[@]}" --threads 1 \
    --deadline 0.000001 \
    --checkpoint "${WORK}/ck.json" \
    --manifest "${WORK}/deadline_manifest.json" \
    > "${WORK}/deadline.out" 2> "${WORK}/deadline.err"
code=$?
[ "${code}" -eq 3 ] || fail "deadline run exited ${code}, expected 3"
[ -s "${WORK}/ck.json" ] || fail "deadline run left no checkpoint"
grep -q '"kernel"' "${WORK}/ck.json" ||
    fail "checkpoint is not well-formed JSON"
grep -q '"disposition": *"deadline_exceeded"' \
    "${WORK}/deadline_manifest.json" ||
    fail "manifest disposition is not deadline_exceeded"
# The atomic write never leaves its staging file behind.
[ ! -e "${WORK}/ck.json.tmp" ] || fail "staging file survived the rename"

# ---------------------------------------------------------------- #
# 3. Resume: finish from the checkpoint; stdout must be bitwise
#    identical to the straight run at 1 and 8 threads.
# ---------------------------------------------------------------- #
for threads in 1 8; do
    "${CLI}" "${SOBOL_ARGS[@]}" --threads "${threads}" \
        --resume "${WORK}/ck.json" \
        --checkpoint "${WORK}/ck_resumed_${threads}.json" \
        --manifest "${WORK}/resume_manifest_${threads}.json" \
        > "${WORK}/resumed_${threads}.out" \
        2> "${WORK}/resumed_${threads}.err"
    code=$?
    [ "${code}" -eq 0 ] ||
        fail "resume (${threads} threads) exited ${code}, expected 0"
    cmp -s "${WORK}/straight.out" "${WORK}/resumed_${threads}.out" ||
        fail "resumed stdout (${threads} threads) differs from straight run"
    grep -q '"disposition": *"resumed"' \
        "${WORK}/resume_manifest_${threads}.json" ||
        fail "resume manifest (${threads} threads) disposition wrong"
    grep -q "\"parent_checkpoint\": *\"${WORK}/ck.json\"" \
        "${WORK}/resume_manifest_${threads}.json" ||
        fail "resume manifest (${threads} threads) lost parent lineage"
done

# ---------------------------------------------------------------- #
# 4. SIGINT mid-run: flush the checkpoint, exit 130. Delivered by
#    construction, not by racing a sleep: wait for the first
#    auto-flush (the checkpoint file appears once 1/64 of the run's
#    points are recorded), then freeze the process, queue SIGINT and
#    thaw it; the batch stops at its next chunk boundary.
#    Slack: when the file appears, 63/64 of the 262144 points and 63
#    of the 64 flushes are still to run, about 2.5 s of work on one
#    thread of a 4-core x86 VM, against one 10 ms poll plus two kill
#    calls before SIGSTOP lands.
# ---------------------------------------------------------------- #
"${CLI}" --sobol 32768 --seed 2023 --threads 1 \
    --checkpoint "${WORK}/ck_sigint.json" \
    > "${WORK}/sigint.out" 2> "${WORK}/sigint.err" &
pid=$!
for _ in $(seq 1 6000); do
    [ -e "${WORK}/ck_sigint.json" ] && break
    kill -0 "${pid}" 2> /dev/null || break
    sleep 0.01
done
[ -e "${WORK}/ck_sigint.json" ] ||
    fail "SIGINT run never auto-flushed its checkpoint"
kill -STOP "${pid}" 2> /dev/null
kill -INT "${pid}" 2> /dev/null
kill -CONT "${pid}" 2> /dev/null
wait "${pid}"
code=$?
[ "${code}" -eq 130 ] || fail "SIGINT run exited ${code}, expected 130"
[ -s "${WORK}/ck_sigint.json" ] ||
    fail "SIGINT exit did not flush the checkpoint"
grep -q 'sobol_ttm stopped (cancelled); [0-9]*/262144 points' \
    "${WORK}/sigint.err" ||
    fail "SIGINT run did not report a cancelled partial checkpoint"
[ ! -s "${WORK}/sigint.out" ] || fail "SIGINT run printed a payload"

if [ "${FAILURES}" -ne 0 ]; then
    echo "${FAILURES} check(s) failed" >&2
    exit 1
fi
echo "all CLI resilience checks passed"
