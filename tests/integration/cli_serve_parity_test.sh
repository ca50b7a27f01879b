#!/usr/bin/env bash
# End-to-end parity of the two front ends over one request executor:
# for sobol_ttm, ensemble_ttm (default and --ensemble-config spec) and
# chiplet_pareto (default and --chiplet-config spec),
#
#   1. ttm_cli's stdout, at --threads 1 and at --threads 8, is
#      byte-identical to the "result" that `ttm_serve --pipe` returns
#      for the equivalent request line (plus the newline);
#   2. the "key <hex>" ttm_cli prints on stderr equals the reply's
#      "key".
#
# Usage: cli_serve_parity_test.sh /path/to/ttm_cli /path/to/ttm_serve
#                                 /path/to/python3
set -u

CLI="${1:?usage: cli_serve_parity_test.sh ttm_cli ttm_serve python3}"
SERVE="${2:?usage: cli_serve_parity_test.sh ttm_cli ttm_serve python3}"
PYTHON="${3:?usage: cli_serve_parity_test.sh ttm_cli ttm_serve python3}"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/ttmcas_cli_serve_parity.XXXXXX")"
trap 'rm -rf "${WORK}"' EXIT

FAILURES=0
fail() {
    echo "FAIL: $*" >&2
    FAILURES=$((FAILURES + 1))
}

cat > "${WORK}/ensemble.json" <<'EOF'
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
cat > "${WORK}/chiplet.json" <<'EOF'
{"partitions": [1, 2, 4],
 "nodes": ["7nm", "12nm"],
 "redundancy": [0, 1],
 "split_fractions": [0.6, 1.0],
 "secondary_node": "12nm",
 "cost": {"tier": "interposer"}}
EOF

# The design and market the CLI flags below build: a monolithic
# "cli-design" die on 7nm, with --capacity/--queue set on its node.
CLI_DESIGN=(--node 7nm --ntt 2.4e9 --nut 2e8 --chips 5e7 --seed 7
            --capacity 0.8 --queue 2)
DESIGN='"design":{"name":"cli-design","dies":[{"name":"cli-design-die",'
DESIGN+='"process":"7nm","total_transistors":2.4e9,'
DESIGN+='"unique_transistors":2e8}]},'
DESIGN+='"market":{"capacity":{"7nm":0.8},"queue_weeks":{"7nm":2}},'
DESIGN+='"n_chips":5e7,"seed":7'

# check NAME REQUEST_FIELDS CLI_FLAGS...: compare the CLI run against
# the served reply for {"kind":...,<design>,REQUEST_FIELDS}.
check() {
    local name="$1" fields="$2"
    shift 2
    printf '{"id":"%s",%s,%s}\n' "${name}" "${fields}" "${DESIGN}" |
        "${SERVE}" --pipe > "${WORK}/${name}.reply" 2> /dev/null
    # "result" is the reply's last field and embeds the payload
    # verbatim, so its bytes are the reply's tail minus the final '}'.
    if ! "${PYTHON}" - "${WORK}/${name}.reply" "${WORK}/${name}" <<'EOF'
import json
import sys

# The reply is the last stdout line (the first is the ready banner).
line = open(sys.argv[1]).read().splitlines()[-1]
reply = json.loads(line)
if reply.get("status") != "ok":
    sys.exit(f"reply status {reply.get('status')}: {line[:200]}")
marker = '"result":'
payload = line[line.index(marker) + len(marker):-1]
with open(sys.argv[2] + ".result", "w") as out:
    out.write(payload + "\n")
with open(sys.argv[2] + ".key", "w") as out:
    out.write("key " + reply["key"] + "\n")
EOF
    then
        fail "${name}: ttm_serve did not return an ok result"
        return
    fi
    for threads in 1 8; do
        "${CLI}" "${CLI_DESIGN[@]}" "$@" --threads "${threads}" \
            > "${WORK}/${name}_${threads}.out" \
            2> "${WORK}/${name}_${threads}.err"
        local code=$?
        [ "${code}" -eq 0 ] ||
            fail "${name} (${threads} threads): ttm_cli exited ${code}"
        cmp -s "${WORK}/${name}.result" "${WORK}/${name}_${threads}.out" ||
            fail "${name} (${threads} threads): stdout differs from the" \
                 "served result"
        cmp -s "${WORK}/${name}.key" "${WORK}/${name}_${threads}.err" ||
            fail "${name} (${threads} threads): stderr key differs from" \
                 "the reply's key"
    done
}

check sobol '"kind":"sobol_ttm","samples":256' --sobol 256
check ensemble '"kind":"ensemble_ttm","samples":48' --ensemble 48
check ensemble_config \
    "\"kind\":\"ensemble_ttm\",\"samples\":48,\"ensemble\":$(
        tr -d '\n' < "${WORK}/ensemble.json")" \
    --ensemble 48 --ensemble-config "${WORK}/ensemble.json"
check chiplet '"kind":"chiplet_pareto"' --chiplet-pareto
check chiplet_config \
    "\"kind\":\"chiplet_pareto\",\"chiplet\":$(
        tr -d '\n' < "${WORK}/chiplet.json")" \
    --chiplet-pareto --chiplet-config "${WORK}/chiplet.json"

if [ "${FAILURES}" -ne 0 ]; then
    echo "${FAILURES} check(s) failed" >&2
    exit 1
fi
echo "all CLI/serve parity checks passed"
