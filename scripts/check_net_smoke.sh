#!/bin/sh
# End-to-end smoke of the network front end: builds vbr_server and
# vbr_loadgen, serves the car-loc-part example on ephemeral ports, drives
# it open-loop over the binary protocol, and lets the loadgen's own
# checks gate the result:
#   - every request answered exactly once (lost == duplicated == 0)
#   - service accounting balances (submitted == admitted + rejected, and
#     completed + shed never exceeds admitted), scraped from the
#     HTTP /statz endpoint via --check-statz.
# It then POSTs a comparison query and an unsafe query to /plan (both must
# be answered 400) and checks /healthz still answers 200.  Last, a second
# server serves the two views of examples/data/self_join_chain.views, over
# which CoreCover's only cover of the self-join chain query fails
# certification: POST /plan under m1, m2 and m3 must each answer 200 with
# status "no equivalent rewriting", and /healthz must still answer 200.
#
# Usage: scripts/check_net_smoke.sh
# The build tree is build/ (shared with the regular build).
set -eu
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" --target vbr_server vbr_loadgen

PORTS_FILE=$(mktemp)
BODY_FILE=$(mktemp)
SERVER_PID=
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  rm -f "$PORTS_FILE" "$BODY_FILE"
}
trap cleanup EXIT INT TERM

# Starts vbr_server on ephemeral ports with the given arguments and sets
# SERVER_PID, BINARY_PORT and HTTP_PORT: the server prints
# "binary_port=P" / "http_port=P" on stdout once both listeners are up.
start_server() {
  "$BUILD_DIR"/examples/vbr_server --port 0 --http-port 0 --workers 2 \
    "$@" > "$PORTS_FILE" &
  SERVER_PID=$!
  for _ in $(seq 1 50); do
    grep -q '^http_port=' "$PORTS_FILE" 2>/dev/null && break
    kill -0 "$SERVER_PID" 2>/dev/null || {
      echo "check_net_smoke: server exited early" >&2
      cat "$PORTS_FILE" >&2
      exit 1
    }
    sleep 0.1
  done
  BINARY_PORT=$(sed -n 's/^binary_port=//p' "$PORTS_FILE")
  HTTP_PORT=$(sed -n 's/^http_port=//p' "$PORTS_FILE")
  [ -n "$BINARY_PORT" ] && [ -n "$HTTP_PORT" ] || {
    echo "check_net_smoke: could not scrape ports" >&2
    exit 1
  }
}

stop_server() {
  kill "$SERVER_PID" 2>/dev/null || true
  wait "$SERVER_PID" 2>/dev/null || true
  SERVER_PID=
}

start_server --data examples/data/car_loc_part.facts \
  examples/data/car_loc_part.program

# Paced run with deadlines (exercises admission control), then a short
# flood (exercises shedding); both must account for every request.
"$BUILD_DIR"/examples/vbr_loadgen --port "$BINARY_PORT" \
  --queries examples/data/car_loc_part.replay \
  --connections 4 --qps 200 --requests 500 --deadline-ms 100 \
  --check-statz "$HTTP_PORT"
"$BUILD_DIR"/examples/vbr_loadgen --port "$BINARY_PORT" \
  --queries examples/data/car_loc_part.replay \
  --connections 8 --qps 0 --requests 1000 --deadline-ms 50 \
  --check-statz "$HTTP_PORT"

# Handle-caching run: after each query's first response the loadgen sends
# the server-issued handle instead of the text, and byte-compares every
# handle-path response against the text path (exit 4 on divergence).
"$BUILD_DIR"/examples/vbr_loadgen --port "$BINARY_PORT" \
  --queries examples/data/car_loc_part.replay \
  --connections 4 --qps 200 --requests 400 --certificate --handles \
  --check-statz "$HTTP_PORT"

# Queries the planner does not take (a comparison subgoal, an unsafe head)
# are answered 400 on POST /plan, and the server keeps serving /healthz.
# A process abort shows up as curl's code 000.
http_code() {
  curl -s -o /dev/null -w '%{http_code}' "$@" || true
}
for QUERY in 'q(X) :- p(X,Y), X < 3' 'q(X,Z) :- p(X,Y)'; do
  CODE=$(http_code -X POST --data "{\"query\":\"$QUERY\"}" \
    "http://127.0.0.1:$HTTP_PORT/plan")
  [ "$CODE" = 400 ] || {
    echo "check_net_smoke: POST /plan '$QUERY' answered $CODE, want 400" >&2
    exit 1
  }
done
CODE=$(http_code "http://127.0.0.1:$HTTP_PORT/healthz")
[ "$CODE" = 200 ] || {
  echo "check_net_smoke: /healthz answered $CODE after rejected queries" >&2
  exit 1
}
stop_server

# The self-join chain whose only CoreCover cover is not equivalent: every
# cost model answers 200 with "no equivalent rewriting", and the server
# keeps serving.
start_server examples/data/self_join_chain.views
QUERY='q(X0,X4) :- p1(X0,X1), p0(X1,X2), p1(X2,X3), p1(X3,X4).'
for MODEL in m1 m2 m3; do
  CODE=$(curl -s -o "$BODY_FILE" -w '%{http_code}' -X POST \
    --data "{\"query\":\"$QUERY\",\"options\":{\"model\":\"$MODEL\"}}" \
    "http://127.0.0.1:$HTTP_PORT/plan" || true)
  [ "$CODE" = 200 ] && grep -q '"status":"no equivalent rewriting"' "$BODY_FILE" || {
    echo "check_net_smoke: self-join chain under $MODEL answered $CODE:" >&2
    cat "$BODY_FILE" >&2
    exit 1
  }
done
CODE=$(http_code "http://127.0.0.1:$HTTP_PORT/healthz")
[ "$CODE" = 200 ] || {
  echo "check_net_smoke: /healthz answered $CODE after the self-join chain" >&2
  exit 1
}
stop_server

echo "check_net_smoke: wire accounting clean (no lost/duplicated responses); bad and uncertifiable queries answered, server healthy"
