#!/usr/bin/env bash
# smoke_fleet.sh — end-to-end smoke test of a mosaicd fleet.
#
# Usage:
#   scripts/smoke_fleet.sh [base-port]
#
# Builds mosaicd, starts a coordinator (durable, -data-dir) plus a worker,
# and walks the fleet serving path with curl: a quick job on the idle fleet
# starts within 100 ms of its submission (the worker's lease request is
# parked at the coordinator, not polling), then submit a batch through the
# coordinator, wait until a job is running on the worker, SIGKILL the worker
# mid-run, assert the lease expires and the job requeues to a second worker,
# every job completes with a report, the fleet metrics show the leases. Then
# the coordinator is SIGKILLed twice and restarted on the same -data-dir —
# once with the worker's long poll parked in it, once with the worker holding
# a running lease — and the worker, never restarted, must find it again, and
# every job must end done exactly once with the report it had before the
# kill. The parked worker and the coordinator holding a parked request each
# drain cleanly within 2 s of SIGTERM, a restarted coordinator serves the
# finished jobs back from disk, and a data directory written by the last
# build whose daemon ran jobs on its own worker pool is served byte for byte.
# Any failure exits non-zero.
set -euo pipefail
cd "$(dirname "$0")/.."

# Body assertions use `grep -q <<<"$VAR"`, never `echo "$VAR" | grep -q`:
# grep -q exits on first match, and under pipefail the echo side's SIGPIPE
# (exit 141) would fail the pipeline even though the pattern matched.

PORT="${1:-18474}"
W1_PORT=$((PORT + 1))
W2_PORT=$((PORT + 2))
BASE="http://127.0.0.1:${PORT}"
BIN="$(mktemp -d)/mosaicd"
DATA="$(mktemp -d)"
CLOG="$(mktemp)" W1LOG="$(mktemp)" W2LOG="$(mktemp)"

COORD_PID="" W1_PID="" W2_PID=""
cleanup() {
  for pid in "$COORD_PID" "$W1_PID" "$W2_PID"; do
    if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
      kill -9 "$pid" 2>/dev/null || true
    fi
  done
  rm -f "$CLOG" "$W1LOG" "$W2LOG"
  rm -rf "$(dirname "$BIN")" "$DATA"
}
trap cleanup EXIT

fail() {
  echo "smoke-fleet: FAIL: $*" >&2
  for log in "$CLOG" "$W1LOG" "$W2LOG"; do
    echo "--- $log ---" >&2
    cat "$log" >&2
  done
  exit 1
}

wait_healthz() {
  local url="$1" pid="$2"
  for i in $(seq 1 50); do
    if curl -fsS "${url}/healthz" >/dev/null 2>&1; then return 0; fi
    kill -0 "$pid" 2>/dev/null || fail "process $pid died during startup"
    sleep 0.1
  done
  fail "healthz never came up at $url"
}

# fetch_status fetches one job's status, retrying transient curl failures
# (assertions on the body are never retried — state is deterministic).
fetch_status() {
  local id="$1" out=""
  for i in $(seq 1 5); do
    if out="$(curl -fsS "${BASE}/v1/jobs/${id}")" && [[ -n "$out" ]]; then
      echo "$out"
      return 0
    fi
    sleep 0.2
  done
  return 1
}

echo "smoke-fleet: building mosaicd..."
go build -o "$BIN" ./cmd/mosaicd

start_coordinator() {
  "$BIN" -role coordinator -addr "127.0.0.1:${PORT}" -data-dir "$DATA" \
    -lease-ttl 2s -queue 16 >>"$CLOG" 2>&1 &
  COORD_PID=$!
  wait_healthz "$BASE" "$COORD_PID"
}

echo "smoke-fleet: starting coordinator on :${PORT} (data-dir $DATA)..."
start_coordinator

echo "smoke-fleet: starting worker w1 on :${W1_PORT}..."
"$BIN" -role worker -addr "127.0.0.1:${W1_PORT}" -coordinator "$BASE" \
  -name w1 -workers 1 -slots 1 >"$W1LOG" 2>&1 &
W1_PID=$!
wait_healthz "http://127.0.0.1:${W1_PORT}" "$W1_PID"

submit() {
  local body="$1"
  local out
  out="$(curl -fsS -X POST "${BASE}/v1/jobs" -H 'Content-Type: application/json' -d "$body")" \
    || fail "submit failed: $body"
  echo "$out" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -1
}

# stamp_ns prints one RFC 3339 timestamp field of a status body in nanoseconds.
stamp_ns() {
  local field="$1" body="$2" ts
  ts="$(sed -n "s/.*\"${field}\": *\"\([^\"]*\)\".*/\1/p" <<<"$body" | head -1)"
  [[ -n "$ts" ]] || fail "status has no ${field}: $body"
  date -d "$ts" +%s%N
}

# term_within_2s SIGTERMs a daemon and requires exit 0 and the clean-drain
# line within two seconds.
term_within_2s() {
  local what="$1" pid="$2" log="$3" t0 code=0
  t0="$(date +%s%N)"
  kill -TERM "$pid"
  wait "$pid" || code=$?
  local ms=$(( ($(date +%s%N) - t0) / 1000000 ))
  [[ "$code" -eq 0 ]] || fail "$what exited $code on SIGTERM"
  grep -q 'drained cleanly' "$log" || fail "$what log missing clean-drain line"
  [[ "$ms" -lt 2000 ]] || fail "$what took ${ms} ms to drain, want under 2000"
  echo "smoke-fleet: $what drained cleanly in ${ms} ms"
}

# Push-based dispatch: w1 is idle, its lease request parked at the
# coordinator, so a job starts when it is queued.
J0="$(submit '{"workload":"sgemm","scale":"tiny"}')"
[[ -n "$J0" ]] || fail "first submission returned no ID"
for i in $(seq 1 100); do
  STATUS0="$(fetch_status "$J0")" || fail "status fetch failed for $J0"
  if grep -q '"state": "done"' <<<"$STATUS0"; then break; fi
  [[ "$i" -lt 100 ]] || fail "$J0 never finished on the idle fleet: $STATUS0"
  sleep 0.1
done
WAIT_MS=$(( ($(stamp_ns started "$STATUS0") - $(stamp_ns submitted "$STATUS0")) / 1000000 ))
[[ "$WAIT_MS" -lt 100 ]] || fail "$J0 waited ${WAIT_MS} ms for a lease on an idle fleet, want under 100"
echo "smoke-fleet: $J0 started ${WAIT_MS} ms after submission"

# Submit a batch through the coordinator: one longer job first (the SIGKILL
# victim), then quick ones behind it.
J1="$(submit '{"workload":"sgemm","scale":"small","tiles":2}')"
J2="$(submit '{"workload":"sgemm","scale":"tiny","tiles":2}')"
J3="$(submit '{"workload":"spmv","scale":"tiny","tiles":2}')"
J4="$(submit '{"workload":"bfs","scale":"tiny","tiles":2}')"
[[ -n "$J1" && -n "$J2" && -n "$J3" && -n "$J4" ]] || fail "submissions returned no IDs"
echo "smoke-fleet: submitted $J1 $J2 $J3 $J4"

# Wait until w1 is executing the long job, then kill it dead — no drain, no
# completion, exactly a crashed machine.
for i in $(seq 1 100); do
  if curl -fsS "${BASE}/v1/jobs/${J1}" | grep -q '"state": "running"'; then break; fi
  [[ "$i" -lt 100 ]] || fail "$J1 never started running on w1"
  sleep 0.1
done
kill -9 "$W1_PID"
W1_PID=""
echo "smoke-fleet: SIGKILLed w1 while $J1 was running"

echo "smoke-fleet: starting worker w2 on :${W2_PORT}..."
# Two slots: with one free while the other runs a job, the coordinator-kill
# leg below can re-grant w2 the very job it is still running.
"$BIN" -role worker -addr "127.0.0.1:${W2_PORT}" -coordinator "$BASE" \
  -name w2 -slots 2 >"$W2LOG" 2>&1 &
W2_PID=$!
wait_healthz "http://127.0.0.1:${W2_PORT}" "$W2_PID"

# Every job must complete: the killed worker's lease expires (2s TTL) and
# its job requeues to w2, which also drains the rest of the batch.
for id in "$J1" "$J2" "$J3" "$J4"; do
  for i in $(seq 1 600); do
    STATUS="$(curl -fsS "${BASE}/v1/jobs/${id}")" || fail "status fetch failed for $id"
    if grep -q '"state": "done"' <<<"$STATUS"; then break; fi
    grep -q '"state": "failed"' <<<"$STATUS" && fail "$id failed: $STATUS"
    [[ "$i" -lt 600 ]] || fail "$id never finished: $STATUS"
    sleep 0.1
  done
  grep -q '"report"' <<<"$STATUS" || fail "done job $id has no report"
done
echo "smoke-fleet: all jobs done"

# The victim ran twice: once on w1 (lost), once on w2.
STATUS1="$(fetch_status "$J1")" || fail "status fetch failed for $J1"
grep -q '"attempts": 2' <<<"$STATUS1" || fail "$J1 not retried after the SIGKILL: $STATUS1"
grep -q '"worker": "w2"' <<<"$STATUS1" || fail "$J1 not completed by w2: $STATUS1"

# Fleet metrics: leases were granted, the lost lease expired and requeued.
METRICS="$(curl -fsS "${BASE}/metrics")" || fail "metrics scrape failed"
for want in \
  'mosaicd_fleet_leases_granted_total' \
  'mosaicd_leases_expired_total 1' \
  'mosaicd_jobs_requeued_total 1' \
  'mosaicd_queue_wait_seconds_count 6' \
  'mosaicd_jobs_total{state="done"} 5'; do
  grep -qF "$want" <<<"$METRICS" || fail "metrics missing '$want'"
done
echo "smoke-fleet: lease expiry and requeue visible in metrics"

# wait_done polls one job to done and prints its final status.
wait_done() {
  local id="$1" status=""
  for i in $(seq 1 600); do
    status="$(fetch_status "$id")" || fail "status fetch failed for $id"
    if grep -q '"state": "done"' <<<"$status"; then echo "$status"; return 0; fi
    grep -q '"state": "\(failed\|cancelled\)"' <<<"$status" && fail "$id ended badly: $status"
    sleep 0.1
  done
  fail "$id never finished: $status"
}

# report_of prints the report block of a (pretty-printed) status body.
report_of() { sed -n '/^  "report": {/,/^  }/p' <<<"$1"; }

# kill_and_restart_coordinator SIGKILLs the coordinator and brings a new one
# up on the same port and data directory. w2 is left alone: it must find the
# new coordinator by itself (its next lease request registers it).
kill_and_restart_coordinator() {
  kill -9 "$COORD_PID"
  wait "$COORD_PID" 2>/dev/null || true
  start_coordinator
  for i in $(seq 1 100); do
    if grep -q '^mosaicd_fleet_workers 1$' <<<"$(curl -fsS "${BASE}/metrics")"; then return 0; fi
    sleep 0.1
  done
  fail "w2 never re-registered with the restarted coordinator"
}

# Coordinator crash, twice. The goldens are reports from before any kill; a
# job with the same spec must get the same bytes after. The long job runs for
# about a second even with w2's caches warm (replay off, so it simulates in
# full every time) — long enough to be caught running.
LONG='{"workload":"histo","scale":"large","tiles":2,"replay":false}'
GOLD_LONG="$(report_of "$(wait_done "$(submit "$LONG")")")"
GOLD_QUICK="$(report_of "$(fetch_status "$J2")")"
[[ -n "$GOLD_LONG" && -n "$GOLD_QUICK" ]] || fail "no pre-kill report to compare against"

# (1) w2 is idle, so its long poll is parked in the coordinator when it dies.
kill_and_restart_coordinator
echo "smoke-fleet: SIGKILLed the coordinator under w2's parked long poll; w2 re-registered"
K1="$(submit '{"workload":"sgemm","scale":"tiny","tiles":2}')"
STATUSK1="$(wait_done "$K1")"
grep -q '"attempts": 1' <<<"$STATUSK1" || fail "$K1 did not run exactly once: $STATUSK1"
[[ "$(report_of "$STATUSK1")" == "$GOLD_QUICK" ]] || fail "$K1 report differs from the pre-kill golden"

# (2) w2 holds a running lease when the coordinator dies. The restarted
# coordinator requeues the job it finds running in the store; w2's heartbeat
# or next event learns its old lease is void, and the job runs again.
K2="$(submit "$LONG")"
for i in $(seq 1 200); do
  if curl -fsS "${BASE}/v1/jobs/${K2}" | grep -q '"state": "running"'; then break; fi
  [[ "$i" -lt 200 ]] || fail "$K2 never started running on w2"
  sleep 0.02
done
kill_and_restart_coordinator
echo "smoke-fleet: SIGKILLed the coordinator while w2 was running $K2; w2 re-registered"
STATUSK2="$(wait_done "$K2")"
grep -q '"attempts": 2' <<<"$STATUSK2" || fail "$K2 should have run once on each side of the crash: $STATUSK2"
[[ "$(report_of "$STATUSK2")" == "$GOLD_LONG" ]] || fail "$K2 report differs from the pre-kill golden"
DONES="$(curl -fsS "${BASE}/v1/jobs/${K2}/events" | grep -c '"state":"done"')"
[[ "$DONES" -eq 1 ]] || fail "$K2 has $DONES done edges, want exactly 1"

# Nothing lost, nothing duplicated: eight submissions, eight distinct IDs,
# all done, none on a third attempt.
LIST="$(curl -fsS "${BASE}/v1/jobs")" || fail "list failed"
IDS="$(sed -n 's/^    "id": "\([^"]*\)",$/\1/p' <<<"$LIST")"
[[ "$(wc -l <<<"$IDS")" -eq 8 && "$(sort -u <<<"$IDS" | wc -l)" -eq 8 ]] || fail "want 8 distinct job IDs, got: $IDS"
[[ "$(grep -c '"state": "done"' <<<"$LIST")" -eq 8 ]] || fail "not every job is done: $LIST"
grep -q '"attempts": [3-9]' <<<"$LIST" && fail "a job needed a third attempt: $LIST"
echo "smoke-fleet: both coordinator kills lost and duplicated nothing"

# Graceful shutdown. w2 is idle, so its lease request is parked: SIGTERM must
# abandon it at once, not wait the hold out.
term_within_2s "idle worker w2" "$W2_PID" "$W2LOG"
W2_PID=""
# The coordinator drains with a lease request parked in it (a raw one, asking
# for 30 s): the drain answers it 204 and does not wait for it.
PARKED_CODE="$(mktemp)"
curl -s -o /dev/null -w '%{http_code}' -X POST "${BASE}/cluster/v1/lease" \
  -d '{"name":"parked","wait":30000000000}' >"$PARKED_CODE" &
CURL_PID=$!
sleep 0.2
term_within_2s "coordinator with a parked lease request" "$COORD_PID" "$CLOG"
COORD_PID=""
wait "$CURL_PID" || true
[[ "$(cat "$PARKED_CODE")" == "204" ]] || fail "parked lease request answered '$(cat "$PARKED_CODE")' at drain, want 204"
rm -f "$PARKED_CODE"

# Durability: a restarted coordinator serves the finished jobs from disk.
"$BIN" -role coordinator -addr "127.0.0.1:${PORT}" -data-dir "$DATA" >"$CLOG" 2>&1 &
COORD_PID=$!
wait_healthz "$BASE" "$COORD_PID"
for id in "$J1" "$J2" "$J3" "$J4"; do
  STATUS="$(fetch_status "$id")" || fail "restarted coordinator lost $id"
  grep -q '"state": "done"' <<<"$STATUS" || fail "recovered $id not done: $STATUS"
  grep -q '"report"' <<<"$STATUS" || fail "recovered $id has no report"
done
STATUS1="$(fetch_status "$J1")" || fail "restarted coordinator lost $J1"
grep -q '"attempts": 2' <<<"$STATUS1" \
  || fail "recovered $J1 lost its attempt history: $STATUS1"
kill -TERM "$COORD_PID"
wait "$COORD_PID" || fail "restarted coordinator did not drain"
COORD_PID=""
echo "smoke-fleet: restart served all jobs from disk"

# A data directory from before this build's dispatch path existed: written by
# the standalone daemon of commit d57d123, SIGKILLed with jobs in every state.
# The terminal jobs' event streams must come back as the bytes on disk.
OLD="internal/jobs/testdata/store_d57d123"
rm -rf "$DATA" && cp -r "$OLD" "$DATA"
"$BIN" -addr "127.0.0.1:${PORT}" -data-dir "$DATA" -workers 1 >"$CLOG" 2>&1 &
COORD_PID=$!
wait_healthz "$BASE" "$COORD_PID"
for id in j000001 j000002 j000003; do
  LOGFILE="$(dirname "$(grep -l "\"id\":\"${id}\"" "$OLD"/jobs/*/job.json)")/events.ndjson"
  curl -fsS "${BASE}/v1/jobs/${id}/events" | cmp -s - "$LOGFILE" \
    || fail "event stream of $id differs from the log the old build wrote ($LOGFILE)"
done
kill -9 "$COORD_PID" # its two resumed jobs are long; nothing more to learn from them
wait "$COORD_PID" 2>/dev/null || true
COORD_PID=""
echo "smoke-fleet: served the old build's store byte for byte"
echo "smoke-fleet: PASS"
