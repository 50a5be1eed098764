#!/usr/bin/env bash
# End-to-end smoke of the server front-end: checks that rma_server refuses
# a non-numeric or out-of-range flag value with its usage error, starts it
# on an ephemeral port, drives the Fig. 13 and Fig. 15 workloads through
# rma_client, asserts the streamed row counts and plan-cache reuse (also
# from an EXPLAIN ANALYZE spaced unlike the statement it reuses), checks
# statement-level error isolation and that a statement which traps in
# hardware (INT64_MIN % -1) answers without taking the server down, then
# SIGTERMs the server and asserts the drain summary. CI runs this against
# the Release build (.github/workflows/ci.yml, job server-smoke); locally:
#
#   scripts/server_smoke.sh [build-dir]    # default: build
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
SERVER="${BUILD}/tools/rma_server"
CLIENT="${BUILD}/tools/rma_client"
ROWS=4000

if [[ ! -x "${SERVER}" || ! -x "${CLIENT}" ]]; then
  echo "error: ${SERVER} / ${CLIENT} not built (cmake --build ${BUILD})" >&2
  exit 2
fi

echo "--- bad numeric flags ---"
# A value the flag cannot hold is a usage error (exit 2), never narrowed or
# read as 0: --port 65536 must not bind an ephemeral port, --rows abc must
# not start with an empty table. The timeout turns a server that started
# anyway into a failure instead of a hang.
expect_usage_error() {
  local out code
  set +e
  out="$(timeout 10 "${SERVER}" "$@" 2>&1)"
  code=$?
  set -e
  if [[ "${code}" -ne 2 ]] || ! grep -q '^usage: ' <<<"${out}"; then
    echo "FAIL: rma_server $* exited ${code}, want 2 with the usage text" >&2
    echo "${out}" >&2
    exit 1
  fi
  echo "rma_server $*: refused"
}
expect_usage_error --port 65536
expect_usage_error --rows abc

LOG="$(mktemp)"
"${SERVER}" --port 0 --rows "${ROWS}" --cols 4 > "${LOG}" 2>&1 &
SERVER_PID=$!
cleanup() {
  kill -9 "${SERVER_PID}" 2>/dev/null || true
  rm -f "${LOG}"
}
trap cleanup EXIT

# The server prints "rma_server listening on HOST:PORT" once bound.
PORT=""
for _ in $(seq 100); do
  PORT="$(sed -n 's/^rma_server listening on .*:\([0-9][0-9]*\)$/\1/p' "${LOG}")"
  [[ -n "${PORT}" ]] && break
  sleep 0.1
done
if [[ -z "${PORT}" ]]; then
  echo "error: server never printed its listening line" >&2
  cat "${LOG}" >&2
  exit 1
fi
echo "server up on port ${PORT}"

echo "--- fig13 workload (2 reps) ---"
FIG13="$("${CLIENT}" --port "${PORT}" --workload fig13 --reps 2 --counts)"
echo "${FIG13}"
# Per rep: MMU(TRA(m),m) -> 4 rows, CPD(m,m) -> 4 rows, QQR(m) -> ROWS rows.
[[ "$(grep -c '^rows=4 ' <<<"${FIG13}")" -eq 4 ]] \
  || { echo "FAIL: expected 4 Gram-matrix results of 4 rows" >&2; exit 1; }
[[ "$(grep -c "^rows=${ROWS} " <<<"${FIG13}")" -eq 2 ]] \
  || { echo "FAIL: expected 2 QQR results of ${ROWS} rows" >&2; exit 1; }
# The second rep replays identical statements: the shared plan cache must hit.
grep -q "^rows=${ROWS} .*cache=hit" <<<"${FIG13}" \
  || { echo "FAIL: second QQR rep missed the plan cache" >&2; exit 1; }

echo "--- EXPLAIN ANALYZE over the wire ---"
# Spaced differently from fig13's QQR: the plan cache keys statements by
# their tokens, so this still hits the plan fig13 cached, and the op line
# shows the plan the operation ran under.
EXPLAIN="$("${CLIENT}" --port "${PORT}" \
  -e "EXPLAIN ANALYZE SELECT * FROM QQR( m BY id );")"
echo "${EXPLAIN}"
grep -q 'plan cache: hit' <<<"${EXPLAIN}" \
  || { echo "FAIL: EXPLAIN ANALYZE missed the plan fig13 cached" >&2; exit 1; }
grep -q 'op 1: qqr kernel=' <<<"${EXPLAIN}" \
  || { echo "FAIL: EXPLAIN ANALYZE printed no op 1 plan line" >&2; exit 1; }

echo "--- fig15 workload (prepared) ---"
FIG15="$("${CLIENT}" --port "${PORT}" --workload fig15 --counts --prepare)"
echo "${FIG15}"
grep -q '^rows=4 ' <<<"${FIG15}" \
  || { echo "FAIL: OLS result should have one row per regressor" >&2; exit 1; }

echo "--- statement error isolation ---"
# A bad statement must answer with an error yet leave the session usable:
# the client exits non-zero (it saw a failure) but still runs the second
# statement on the same connection.
set +e
ISOLATION="$("${CLIENT}" --port "${PORT}" \
  -e "SELECT * FROM no_such_table;" -e "SELECT * FROM u;" --counts 2>&1)"
ISOLATION_EXIT=$?
set -e
echo "${ISOLATION}"
[[ "${ISOLATION_EXIT}" -ne 0 ]] \
  || { echo "FAIL: client should report the failed statement" >&2; exit 1; }
grep -q 'unknown table' <<<"${ISOLATION}" \
  || { echo "FAIL: server error did not reach the client" >&2; exit 1; }
grep -q '^rows=3 ' <<<"${ISOLATION}" \
  || { echo "FAIL: session did not survive the failed statement" >&2; exit 1; }
# INT64_MIN % -1 traps in hardware (SIGFPE). The evaluator must answer it
# like any statement, 0 on every row, and the server must keep serving.
TRAP="$("${CLIENT}" --port "${PORT}" \
  -e "SELECT (-9223372036854775807 - 1) % -1 AS m FROM u;" --counts 2>&1)" \
  || true
echo "${TRAP}"
grep -q '^rows=3 ' <<<"${TRAP}" \
  || { echo "FAIL: INT64_MIN % -1 did not answer 3 rows" >&2; exit 1; }
AFTER="$("${CLIENT}" --port "${PORT}" -e "SELECT * FROM u;" --counts 2>&1)" \
  || true
echo "${AFTER}"
grep -q '^rows=3 ' <<<"${AFTER}" \
  || { echo "FAIL: no new connection served after the trap" >&2; exit 1; }

echo "--- graceful shutdown ---"
kill -TERM "${SERVER_PID}"
for _ in $(seq 100); do
  kill -0 "${SERVER_PID}" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "${SERVER_PID}" 2>/dev/null; then
  echo "FAIL: server did not exit after SIGTERM" >&2
  exit 1
fi
wait "${SERVER_PID}" 2>/dev/null || true
grep -q 'statements: .* executed' "${LOG}" \
  || { echo "FAIL: no drain summary in server log" >&2; cat "${LOG}" >&2; exit 1; }
grep -q 'sessions: [0-9]* accepted' "${LOG}" \
  || { echo "FAIL: no session summary in server log" >&2; exit 1; }

echo "server smoke: OK"
