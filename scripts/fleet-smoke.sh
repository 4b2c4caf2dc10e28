#!/usr/bin/env bash
# fleet-smoke.sh — multi-process smoke test of the pier-node daemon.
#
# Launches three pier-node daemons over real TCP on loopback, drives
# them entirely through the HTTP admin plane (register a schema,
# publish rows, run a SQL query across the fleet, stream a continuous
# GROUP BY for three windows, build a range index and query through
# it, run an EXPLAIN TRACE query and re-fetch its distributed trace by
# id), asserts a clean
# /metrics scrape with the transport / query-channel / catalog counter
# families and the latency histogram families, and finally exercises
# graceful SIGTERM shutdown with a live query draining.
set -euo pipefail

BIN=${BIN:-./pier-node}
CURL="curl -sS --max-time 15"
DIR=$(mktemp -d)
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  for n in 1 2 3; do
    echo "--- node$n log ---" >&2
    cat "$DIR/node$n.log" >&2 || true
  done
  exit 1
}

wait_http() { # wait_http <url> — poll until the endpoint answers
  for _ in $(seq 1 100); do
    if $CURL "$1" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  fail "$1 never came up"
}

P1=7301 P2=7302 P3=7303     # overlay TCP ports
A1=7391 A2=7392 A3=7393     # admin HTTP ports

# Node 1 starts the network; 2 and 3 join through it. Node 1 runs no
# statistics maintenance (-stats 0), so its catalog stays cold and the
# range query below keeps the index it was planned with.
"$BIN" -listen 127.0.0.1:$P1 -admin 127.0.0.1:$A1 -stats 0 -drain-timeout 5s > "$DIR/node1.log" 2>&1 &
PIDS+=($!)
wait_http "http://127.0.0.1:$A1/api/status"

"$BIN" -listen 127.0.0.1:$P2 -join 127.0.0.1:$P1 -join-timeout 20s -admin 127.0.0.1:$A2 -drain-timeout 2s > "$DIR/node2.log" 2>&1 &
PIDS+=($!)
"$BIN" -listen 127.0.0.1:$P3 -join 127.0.0.1:$P1 -join-timeout 20s -admin 127.0.0.1:$A3 > "$DIR/node3.log" 2>&1 &
PIDS+=($!)
wait_http "http://127.0.0.1:$A2/api/status"
wait_http "http://127.0.0.1:$A3/api/status"

# All three must report ready (joined, owning key space).
for a in $A1 $A2 $A3; do
  for _ in $(seq 1 100); do
    ready=$($CURL "http://127.0.0.1:$a/api/status" | grep -o '"ready":true' || true)
    [ -n "$ready" ] && break
    sleep 0.1
  done
  [ -n "$ready" ] || fail "node on admin port $a never became ready"
done
echo "ok: 3-node fleet up and ready"

# Register a schema on node 1, publish rows from two different nodes.
$CURL -X POST "http://127.0.0.1:$A1/api/tables" \
  -d '{"name":"fish","key":"name","cols":["name","size"]}' | grep -q '"registered"' \
  || fail "table registration"

publish() { # publish <admin-port> <json-body>
  for _ in $(seq 1 100); do
    if $CURL -X POST "http://127.0.0.1:$1/api/publish" -d "$2" | grep -q '"rid"'; then
      return 0
    fi
    sleep 0.1  # catalog put is async; retry until the schema resolves
  done
  fail "publish to port $1: $2"
}
publish $A1 '{"table":"fish","values":["salmon",7]}'
publish $A2 '{"table":"fish","values":["tuna",140]}'
publish $A3 '{"table":"fish","values":["cod",9]}'
echo "ok: schema registered and 3 rows published via REST"

# SQL over HTTP from node 3: all three rows must come back, meaning the
# query fanned out over real TCP and results flowed through the
# credit-based channel back to the initiator.
rows=0
for _ in $(seq 1 60); do
  out=$($CURL -X POST "http://127.0.0.1:$A3/api/queries" \
    -d '{"sql":"SELECT name, size FROM fish","wait_ms":3000}')
  rows=$(printf '%s\n' "$out" | grep -c '"values"' || true)
  [ "$rows" -ge 3 ] && break
  sleep 0.2
done
[ "$rows" -ge 3 ] || fail "query over HTTP returned $rows/3 rows: $out"
printf '%s\n' "$out" | tail -n 1 | grep -q '"dropped":0' || fail "stream dropped rows: $out"
echo "ok: SQL over HTTP returned $rows rows across the fleet"

# A continuous GROUP BY over REST (§2.1's monitoring, §7's windowed
# streams): node 3 asks for per-name counts every second for three
# windows while nodes 1 and 2 keep publishing (sizes above the range
# query's cutoff below). A continuous query aggregates arrivals, so the
# stream must carry rows of at least three distinct windows.
CQ="SELECT name, count(*) FROM fish GROUP BY name EVERY '1s' WINDOWS 3 WAIT '500ms'"
$CURL -X POST "http://127.0.0.1:$A3/api/queries" \
  -d "{\"sql\":\"$CQ\",\"wait_ms\":6000}" > "$DIR/continuous.out" &
CQPID=$!
sleep 0.3
for i in $(seq 1 20); do
  publish $A1 "{\"table\":\"fish\",\"values\":[\"perch$((i % 3))\",$((100 + i))]}"
  publish $A2 "{\"table\":\"fish\",\"values\":[\"pike$((i % 2))\",$((100 + i))]}"
  sleep 0.2
done
wait "$CQPID" || fail "continuous query request failed: $(cat "$DIR/continuous.out")"
windows=$(grep -o '"window":[0-9]*' "$DIR/continuous.out" | sort -u | wc -l)
[ "$windows" -ge 3 ] || fail "continuous GROUP BY streamed $windows/3 windows: $(cat "$DIR/continuous.out")"
echo "ok: continuous GROUP BY over REST streamed $windows windows"

# A PHT range index over REST: CREATE INDEX on node 1, then a range
# SELECT there must return exactly the rows under the cutoff (the index
# announce, the backfilled entries and the trie walk all crossed TCP),
# and node 1's index reader must count the scan.
scans() { $CURL "http://127.0.0.1:$A1/api/indexes" | grep -o '"scans":[0-9]*' | grep -o '[0-9]*$'; }
scans0=$(scans)
$CURL -X POST "http://127.0.0.1:$A1/api/queries" \
  -d '{"sql":"CREATE INDEX fish_size ON fish (size)"}' | grep -q '"ddl":true' \
  || fail "CREATE INDEX over REST"
rows=0
for _ in $(seq 1 60); do
  out=$($CURL -X POST "http://127.0.0.1:$A1/api/queries" \
    -d '{"sql":"SELECT name, size FROM fish WHERE size < 10","wait_ms":1000}')
  if printf '%s\n' "$out" | grep -q '"tuna"'; then
    fail "range query returned a row above the cutoff: $out"
  fi
  rows=$(printf '%s\n' "$out" | grep -c '"values"' || true)
  [ "$rows" -ge 2 ] && break
  sleep 0.2
done
[ "$rows" -eq 2 ] || fail "range query returned $rows/2 rows: $out"
printf '%s\n' "$out" | grep -q '"salmon"' && printf '%s\n' "$out" | grep -q '"cod"' \
  || fail "range query returned the wrong rows: $out"
scans1=$(scans)
[ "$scans1" -gt "$scans0" ] || fail "node 1 counted no index scan: $scans0 -> $scans1"
echo "ok: CREATE INDEX + range SELECT over REST used the index (scans $scans0 -> $scans1)"

# EXPLAIN TRACE over HTTP: the traced query must answer rows plus an
# assembled trace with per-stage spans, and the same trace must stay
# re-fetchable by id over REST.
tout=$($CURL -X POST "http://127.0.0.1:$A3/api/queries" \
  -d '{"sql":"EXPLAIN TRACE SELECT name, size FROM fish","wait_ms":3000}')
printf '%s\n' "$tout" | grep -q '"rows"' || fail "EXPLAIN TRACE answered no row count: $tout"
printf '%s\n' "$tout" | grep -q '"rendered"' || fail "EXPLAIN TRACE trace not rendered: $tout"
tid=$(printf '%s\n' "$tout" | grep -o '"id":"[0-9]*"' | head -n 1 | grep -o '[0-9]*')
[ -n "$tid" ] || fail "no trace id in EXPLAIN TRACE answer: $tout"
ttrace=$($CURL "http://127.0.0.1:$A3/api/queries/$tid/trace")
printf '%s\n' "$ttrace" | grep -q '"spans"' || fail "GET trace for query $tid: $ttrace"
printf '%s\n' "$ttrace" | grep -q '"stage":"multicast"' || fail "trace $tid has no multicast span: $ttrace"
printf '%s\n' "$ttrace" | grep -q '"stage":"result_flush"' || fail "trace $tid has no result_flush span: $ttrace"
echo "ok: EXPLAIN TRACE answered and trace $tid re-fetched over REST"

# /metrics must expose the transport, query-channel, and catalog
# families, with actual traffic counted.
scrape=$($CURL "http://127.0.0.1:$A3/metrics")
for family in \
  pier_transport_frames_sent_total \
  pier_transport_bytes_sent_total \
  pier_query_result_batches_total \
  pier_query_result_tuples_total \
  pier_query_credit_grants_total \
  pier_catalog_cached_tables \
  pier_softstate_stored_items \
  pier_query_duration_seconds_bucket \
  pier_query_duration_seconds_count \
  pier_result_flush_latency_seconds_bucket \
  pier_trace_span_duration_seconds_bucket \
  pier_ready; do
  printf '%s\n' "$scrape" | grep -q "^$family" || fail "/metrics missing $family"
done
frames=$(printf '%s\n' "$scrape" | awk '/^pier_transport_frames_sent_total /{print $2}')
[ "${frames:-0}" -gt 0 ] || fail "no transport frames counted: $frames"
# The result-tuple counter belongs to the nodes whose executors shipped
# rows, and hashing may place no row on node 3: sum it over the fleet.
tuples=0
for a in $A1 $A2 $A3; do
  n=$($CURL "http://127.0.0.1:$a/metrics" | awk '/^pier_query_result_tuples_total /{print $2}')
  tuples=$((tuples + ${n:-0}))
done
[ "$tuples" -gt 0 ] || fail "no result tuples counted on any node"
qdur=$(printf '%s\n' "$scrape" | awk '/^pier_query_duration_seconds_count /{print $2}')
[ "${qdur:-0}" -gt 0 ] || fail "no query durations observed: $qdur"
printf '%s\n' "$scrape" | grep -q '^pier_query_duration_seconds_bucket{le="+Inf"}' \
  || fail "query duration histogram has no +Inf bucket"
echo "ok: /metrics scrape clean (frames=$frames tuples=$tuples query-durations=$qdur)"

# Graceful shutdown: start a long-running query on node 2, SIGTERM it
# mid-flight, and require a drain + clean exit.
$CURL -X POST "http://127.0.0.1:$A2/api/queries" \
  -d '{"sql":"SELECT name, size FROM fish","wait_ms":30000}' > "$DIR/longquery.out" 2>&1 &
LONGQ=$!
sleep 1
kill -TERM "${PIDS[1]}"
for _ in $(seq 1 100); do
  kill -0 "${PIDS[1]}" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "${PIDS[1]}" 2>/dev/null; then
  fail "node 2 still running 10s after SIGTERM"
fi
rc=0
wait "${PIDS[1]}" 2>/dev/null || rc=$?
[ "$rc" -eq 0 ] || fail "node 2 exited with status $rc after SIGTERM"
grep -q "drained" "$DIR/node2.log" || fail "node 2 log shows no query drain"
grep -q "shutdown complete" "$DIR/node2.log" || fail "node 2 did not complete shutdown"
wait "$LONGQ" 2>/dev/null || true
echo "ok: SIGTERM drained live queries and exited cleanly"

# The survivors still answer after the departure.
$CURL "http://127.0.0.1:$A1/api/status" | grep -q '"ready":true' || fail "node 1 unhealthy after peer left"
$CURL "http://127.0.0.1:$A3/api/status" | grep -q '"ready":true' || fail "node 3 unhealthy after peer left"
echo "ok: survivors healthy after graceful leave"

echo "PASS: fleet smoke"
