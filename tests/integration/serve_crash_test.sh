#!/usr/bin/env bash
# Crash-safety contract of the ttm_serve result cache (socket mode):
#
#   1. A fresh server answers a query with cache=miss, then cache=hit,
#      and the two result payloads are byte-identical.
#   2. kill -9 while a burst of cache-inserting requests is in flight
#      leaves NO torn cache entry: every *.json entry parses with a
#      self-consistent envelope. (A writer killed between write and
#      rename may leave a *.tmp staging file; that is not an entry.)
#   3. A restarted server (same cache dir, same stale socket path)
#      recovers the cache, deletes every staging file the crash left,
#      and answers the original query with cache=hit, byte-for-byte
#      identical to the pre-crash reply.
#   4. SIGTERM drains the server cleanly: exit code 0 and the drain
#      summary on stderr (the documented exit-code contract).
#
# Usage: serve_crash_test.sh /path/to/ttm_serve /path/to/python3
set -u

SERVE="${1:?usage: serve_crash_test.sh /path/to/ttm_serve /path/to/python3}"
PY="${2:?usage: serve_crash_test.sh /path/to/ttm_serve /path/to/python3}"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/ttmcas_serve_crash.XXXXXX")"
SERVER_PID=""
cleanup() {
    [ -n "${SERVER_PID}" ] && kill -9 "${SERVER_PID}" 2> /dev/null
    rm -rf "${WORK}"
}
trap cleanup EXIT

FAILURES=0
fail() {
    echo "FAIL: $*" >&2
    FAILURES=$((FAILURES + 1))
}

SOCK="${WORK}/serve.sock"
CACHE="${WORK}/cache"

# Minimal NDJSON client: send each stdin line, echo each reply line.
cat > "${WORK}/client.py" <<'PYEOF'
import socket, sys

path = sys.argv[1]
lines = [l for l in sys.stdin.read().split("\n") if l.strip()]
sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
sock.settimeout(60)
sock.connect(path)
stream = sock.makefile("rwb")
for line in lines:
    stream.write(line.encode() + b"\n")
    stream.flush()
    reply = stream.readline()
    if not reply:
        sys.exit(3)  # server vanished mid-conversation
    sys.stdout.write(reply.decode())
PYEOF

# Envelope validator: every *.json cache entry must parse, name its
# own key, and declare its payload's exact byte length.
cat > "${WORK}/validate_cache.py" <<'PYEOF'
import json, pathlib, sys

bad = 0
for path in sorted(pathlib.Path(sys.argv[1]).glob("*.json")):
    try:
        doc = json.loads(path.read_text())
        assert doc["format"] == "ttmcas-serve-cache-v1", "bad format tag"
        assert doc["key"] == path.stem, "key does not match filename"
        assert doc["payload_bytes"] == len(doc["payload"]), "length lies"
        json.loads(doc["payload"])  # the payload itself is valid JSON
    except Exception as error:  # noqa: BLE001 - report and count
        print(f"torn entry {path}: {error}", file=sys.stderr)
        bad += 1
sys.exit(1 if bad else 0)
PYEOF

REQ='{"id":"c1","kind":"mc_ttm","design":{"dies":[{"name":"soc","process":"7nm","total_transistors":2.4e9,"unique_transistors":2e8}]},"samples":32}'

wait_ready() {
    # Readiness line on stdout; 20s budget covers slow CI machines.
    local out="$1" i=0
    while [ "${i}" -lt 200 ]; do
        grep -q "ttm_serve ready" "${out}" 2> /dev/null && return 0
        sleep 0.1
        i=$((i + 1))
    done
    return 1
}

ask() {
    printf '%s\n' "$1" | "${PY}" "${WORK}/client.py" "${SOCK}"
}

# ---------------------------------------------------------------- #
# 1. Fresh server: miss, then byte-identical hit.
# ---------------------------------------------------------------- #
"${SERVE}" --socket "${SOCK}" --cache-dir "${CACHE}" \
    --workers 2 --queue 4 \
    > "${WORK}/server1.out" 2> "${WORK}/server1.err" &
SERVER_PID=$!
wait_ready "${WORK}/server1.out" || fail "server 1 never became ready"
grep -q "recovered=0" "${WORK}/server1.out" ||
    fail "fresh server claims recovered entries"

reply_miss="$(ask "${REQ}")"
case "${reply_miss}" in
*'"cache":"miss"'*) : ;;
*) fail "first query was not a cache miss: ${reply_miss}" ;;
esac
reply_hit="$(ask "${REQ}")"
case "${reply_hit}" in
*'"cache":"hit"'*) : ;;
*) fail "second query was not a cache hit: ${reply_hit}" ;;
esac
[ "${reply_miss#*\"result\":}" = "${reply_hit#*\"result\":}" ] ||
    fail "hit payload differs from the miss that populated it"

# ---------------------------------------------------------------- #
# 2. kill -9 during a burst of cache inserts: no torn entry.
# ---------------------------------------------------------------- #
{
    for seed in $(seq 1 30); do
        printf '{"id":"burst%s","kind":"mc_ttm","design":{"dies":[{"name":"soc","process":"7nm","total_transistors":2.4e9,"unique_transistors":2e8}]},"samples":16,"seed":%s}\n' \
            "${seed}" "${seed}"
    done
} | "${PY}" "${WORK}/client.py" "${SOCK}" > "${WORK}/burst.out" 2>&1 &
BURST_PID=$!
sleep 0.2
kill -9 "${SERVER_PID}" 2> /dev/null
wait "${SERVER_PID}" 2> /dev/null
SERVER_PID=""
wait "${BURST_PID}" 2> /dev/null # the client may die with the server

"${PY}" "${WORK}/validate_cache.py" "${CACHE}" ||
    fail "kill -9 left a torn cache entry"
entry_count="$(find "${CACHE}" -name '*.json' | wc -l)"
[ "${entry_count}" -ge 1 ] || fail "no cache entry survived at all"

# ---------------------------------------------------------------- #
# 3. Restart on the same cache dir and stale socket: recovered
#    cache serves the original query byte-for-byte.
# ---------------------------------------------------------------- #
"${SERVE}" --socket "${SOCK}" --cache-dir "${CACHE}" \
    --workers 2 --queue 4 \
    > "${WORK}/server2.out" 2> "${WORK}/server2.err" &
SERVER_PID=$!
wait_ready "${WORK}/server2.out" || fail "restarted server never became ready"
grep -q "recovered=0" "${WORK}/server2.out" &&
    fail "restarted server recovered nothing"
tmp_count="$(find "${CACHE}" -name '*.tmp' 2> /dev/null | wc -l)"
[ "${tmp_count}" -eq 0 ] ||
    fail "recovery left ${tmp_count} staging file(s) behind"

reply_recovered="$(ask "${REQ}")"
case "${reply_recovered}" in
*'"cache":"hit"'*) : ;;
*) fail "restarted server did not serve from cache: ${reply_recovered}" ;;
esac
[ "${reply_miss#*\"result\":}" = "${reply_recovered#*\"result\":}" ] ||
    fail "recovered payload is not byte-identical to the original"

# ---------------------------------------------------------------- #
# 4. SIGTERM: clean drain, exit 0, summary on stderr.
# ---------------------------------------------------------------- #
kill -TERM "${SERVER_PID}"
wait "${SERVER_PID}"
code=$?
SERVER_PID=""
[ "${code}" -eq 0 ] || fail "SIGTERM drain exited ${code}, expected 0"
grep -q "drained after" "${WORK}/server2.err" ||
    fail "drain summary missing from stderr"
[ -e "${SOCK}" ] && fail "socket file survived the drain"

if [ "${FAILURES}" -ne 0 ]; then
    echo "${FAILURES} check(s) failed" >&2
    exit 1
fi
echo "all serve crash-recovery checks passed"
