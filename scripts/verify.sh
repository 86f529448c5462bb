#!/bin/sh
# Tier-1 verification: the full build + test suite, then a live-metrics
# smoke (ldp_serve + ldp_replay_trace with --metrics-out: snapshots must
# parse and the final row must reconcile with the report), the threaded
# subsystems (sharded server, batched sockets, realtime replay, response
# cache, TLS transport) again under ThreadSanitizer (-DLDP_SANITIZE=thread),
# and the connection-lifetime tests (TCP reconnect, destroy-in-callback,
# timer wheel expiry, TLS handshake/resumption, sharded TCP accept, distrib
# agents, relay flow sockets, flood source rotation) under AddressSanitizer (-DLDP_SANITIZE=address) together with the
# zone index (zone_test, lookup oracle, wire byte identity), and the whole
# suite under UndefinedBehaviorSanitizer (-DLDP_SANITIZE=undefined, every
# report fatal).
#
#   scripts/verify.sh [--skip-tsan]   # skips the three sanitizer stages
set -eu

cd "$(dirname "$0")/.."

echo "== tier 1: build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j2

echo "== metrics smoke: live JSONL snapshots reconcile =="
SMOKE=$(mktemp -d)
SERVE_PID=""
PROXY_PID=""
ATTACK_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
  [ -n "$PROXY_PID" ] && kill "$PROXY_PID" 2>/dev/null || true
  [ -n "$ATTACK_PID" ] && kill "$ATTACK_PID" 2>/dev/null || true
  rm -rf "$SMOKE"
}
trap cleanup EXIT
cat > "$SMOKE/zone.db" <<'EOF'
$ORIGIN example.com.
@ 3600 IN SOA ns1 admin 1 2 3 4 300
@ IN NS ns1
ns1 IN A 192.0.2.53
www IN A 192.0.2.200
EOF
awk 'BEGIN { for (i = 0; i < 2000; i++)
  printf "%d.%09d 10.0.0.%d:5000 127.0.0.1:5353 udp www.example.com. IN A %d - 1232\n",
         int(i / 500), (i % 500) * 2000000, i % 200 + 1, i % 65536 }' \
  > "$SMOKE/trace.txt"
./build/tools/ldp_serve --listen 127.0.0.1:0 --stats-interval-s 0 \
  --metrics-out "$SMOKE/server_metrics.jsonl" --metrics-interval-ms 200 \
  "$SMOKE/zone.db" > "$SMOKE/serve.out" 2>&1 &
SERVE_PID=$!
i=0
while [ "$i" -lt 50 ]; do
  grep -q "serving on" "$SMOKE/serve.out" 2>/dev/null && break
  sleep 0.1
  i=$((i + 1))
done
PORT=$(sed -n 's/.*serving on [0-9.]*:\([0-9]*\).*/\1/p' "$SMOKE/serve.out")
[ -n "$PORT" ] || { echo "metrics smoke: server never came up"; exit 1; }
./build/tools/ldp_replay_trace --trace "$SMOKE/trace.txt" \
  --server "127.0.0.1:$PORT" --fast \
  --metrics-out "$SMOKE/replay_metrics.jsonl" --metrics-interval-ms 200 \
  > "$SMOKE/replay.out" 2>&1
grep -q "reconcile: OK" "$SMOKE/replay.out" || {
  echo "metrics smoke: replay reconcile failed"; cat "$SMOKE/replay.out"
  exit 1
}
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=""
python3 - "$SMOKE/replay_metrics.jsonl" "$SMOKE/server_metrics.jsonl" <<'EOF'
import json, sys
for path in sys.argv[1:]:
    rows = [json.loads(line) for line in open(path)]
    assert rows, path + ": no snapshot rows"
    for i, row in enumerate(rows):
        assert row["seq"] == i, path + ": seq gap"
        for name, c in row["counters"].items():
            assert c["total"] >= 0 and c["delta"] >= 0, (path, name)
        for name, h in row["histograms"].items():
            assert h["p50"] <= h["p95"] <= h["p99"], (path, name)
last = [json.loads(line) for line in open(sys.argv[1])][-1]["counters"]
sent = last["replay.sent"]["total"]
acct = (last["replay.answered"]["total"] + last["replay.timed_out"]["total"]
        + last["replay.send_failed"]["total"])
assert sent == acct, "sent %d != accounted %d" % (sent, acct)
print("metrics smoke: %d sent, fully accounted; all rows parse" % sent)
EOF

echo "== hierarchy smoke: replay through ldp_proxy, zero loss =="
./build/tools/ldp_zone_tool hierarchy "$SMOKE/hier" \
  --tlds 2 --slds 2 --hosts 2 --queries 400 --qps 2000
./build/tools/ldp_serve --listen 127.0.0.1:0 --views "$SMOKE/hier/views.txt" \
  --threads 1 --stats-interval-s 0 > "$SMOKE/hier_serve.out" 2>&1 &
SERVE_PID=$!
i=0
while [ "$i" -lt 50 ]; do
  grep -q "serving on" "$SMOKE/hier_serve.out" 2>/dev/null && break
  sleep 0.1
  i=$((i + 1))
done
META_PORT=$(sed -n 's/.*serving on [0-9.]*:\([0-9]*\).*/\1/p' \
  "$SMOKE/hier_serve.out")
[ -n "$META_PORT" ] || { echo "hierarchy smoke: meta server never came up"
  cat "$SMOKE/hier_serve.out"; exit 1; }
./build/tools/ldp_proxy --meta "127.0.0.1:$META_PORT" \
  --views "$SMOKE/hier/views.txt" --loopback-alias \
  --stats-interval-s 0 > "$SMOKE/hier_proxy.out" 2>&1 &
PROXY_PID=$!
i=0
while [ "$i" -lt 50 ]; do
  grep -q "proxying" "$SMOKE/hier_proxy.out" 2>/dev/null && break
  sleep 0.1
  i=$((i + 1))
done
RELAY_PORT=$(sed -n 's/.*on port \([0-9]*\).*/\1/p' "$SMOKE/hier_proxy.out")
[ -n "$RELAY_PORT" ] || { echo "hierarchy smoke: proxy never came up"
  cat "$SMOKE/hier_proxy.out"; exit 1; }
./build/tools/ldp_replay_trace --trace "$SMOKE/hier/queries.txt" \
  --server "127.0.0.1:$META_PORT" --follow-dst --loopback-dst \
  --dst-port "$RELAY_PORT" --distributors 1 --queriers 1 \
  --timeout-ms 2000 --retransmits 2 \
  --metrics-out "$SMOKE/hier_replay.jsonl" \
  > "$SMOKE/hier_replay.out" 2>&1
grep -q "reconcile: OK" "$SMOKE/hier_replay.out" || {
  echo "hierarchy smoke: replay reconcile failed"
  cat "$SMOKE/hier_replay.out"; exit 1
}
SENT=$(sed -n 's/^sent \([0-9]*\), answered.*/\1/p' "$SMOKE/hier_replay.out")
ANSWERED=$(sed -n 's/^sent [0-9]*, answered \([0-9]*\).*/\1/p' \
  "$SMOKE/hier_replay.out")
[ -n "$SENT" ] && [ "$SENT" = "$ANSWERED" ] || {
  echo "hierarchy smoke: lost queries (sent=$SENT answered=$ANSWERED)"
  cat "$SMOKE/hier_replay.out" "$SMOKE/hier_proxy.out"; exit 1
}
kill -TERM "$PROXY_PID"; wait "$PROXY_PID"; PROXY_PID=""
kill -TERM "$SERVE_PID"; wait "$SERVE_PID"; SERVE_PID=""
echo "hierarchy smoke: $SENT queries proxied, all answered"

echo "== scenario smoke: attack overlay + anycast catchment =="
# Same hierarchy testbed, but the proxy emulates two anycast sites: the
# catchment map routes the legit client group (127.77/16) to "far" (25 ms
# injected RTT) and everything else — including the attack replay from
# 127.0.0.1 — to "near". A bounded NXDOMAIN flood rides alongside; at
# smoke rates the legit traffic must still see zero loss, and the per-site
# split must be visible offline via ldp_trace_stats --by-site.
./build/tools/ldp_serve --listen 127.0.0.1:0 --views "$SMOKE/hier/views.txt" \
  --threads 1 --stats-interval-s 0 > "$SMOKE/sc_serve.out" 2>&1 &
SERVE_PID=$!
i=0
while [ "$i" -lt 50 ]; do
  grep -q "serving on" "$SMOKE/sc_serve.out" 2>/dev/null && break
  sleep 0.1
  i=$((i + 1))
done
META_PORT=$(sed -n 's/.*serving on [0-9.]*:\([0-9]*\).*/\1/p' \
  "$SMOKE/sc_serve.out")
[ -n "$META_PORT" ] || { echo "scenario smoke: meta server never came up"
  cat "$SMOKE/sc_serve.out"; exit 1; }
cat > "$SMOKE/catchment.txt" <<'EOF'
route 127.77.0.0/16 far
default near
EOF
./build/tools/ldp_proxy --meta "127.0.0.1:$META_PORT" \
  --views "$SMOKE/hier/views.txt" --loopback-alias \
  --sites near:0,far:25 --catchment "$SMOKE/catchment.txt" \
  --metrics-out "$SMOKE/sc_proxy.jsonl" --metrics-interval-ms 200 \
  --stats-interval-s 0 > "$SMOKE/sc_proxy.out" 2>&1 &
PROXY_PID=$!
i=0
while [ "$i" -lt 50 ]; do
  grep -q "proxying" "$SMOKE/sc_proxy.out" 2>/dev/null && break
  sleep 0.1
  i=$((i + 1))
done
RELAY_PORT=$(sed -n 's/.*on port \([0-9]*\).*/\1/p' "$SMOKE/sc_proxy.out")
[ -n "$RELAY_PORT" ] || { echo "scenario smoke: proxy never came up"
  cat "$SMOKE/sc_proxy.out"; exit 1; }
grep -q "anycast sites" "$SMOKE/sc_proxy.out" || {
  echo "scenario smoke: proxy did not announce its anycast sites"
  cat "$SMOKE/sc_proxy.out"; exit 1; }
# Attack-only trace (--sample 0): a bounded random-subdomain flood shaped
# against the same testbed, replayed in the background as a second client.
./build/tools/ldp_mutate_trace --in "$SMOKE/hier/queries.txt" \
  --out "$SMOKE/attack.txt" --sample 0 \
  --attack nxdomain --attack-qps 500 --attack-duration-s 1 \
  > "$SMOKE/sc_mutate.out" 2>&1 || {
  echo "scenario smoke: attack trace generation failed"
  cat "$SMOKE/sc_mutate.out"; exit 1; }
./build/tools/ldp_replay_trace --trace "$SMOKE/attack.txt" \
  --server "127.0.0.1:$META_PORT" --follow-dst --loopback-dst \
  --dst-port "$RELAY_PORT" --distributors 1 --queriers 1 \
  --timeout-ms 2000 --retransmits 2 > "$SMOKE/sc_attack.out" 2>&1 &
ATTACK_PID=$!
./build/tools/ldp_replay_trace --trace "$SMOKE/hier/queries.txt" \
  --server "127.0.0.1:$META_PORT" --follow-dst --loopback-dst \
  --dst-port "$RELAY_PORT" --local-addr 127.77.0.9 \
  --distributors 1 --queriers 1 --timeout-ms 2000 --retransmits 2 \
  > "$SMOKE/sc_legit.out" 2>&1
wait "$ATTACK_PID" || { ATTACK_PID=""; echo "scenario smoke: attack replay failed"
  cat "$SMOKE/sc_attack.out"; exit 1; }
ATTACK_PID=""
SENT=$(sed -n 's/^sent \([0-9]*\), answered.*/\1/p' "$SMOKE/sc_legit.out")
ANSWERED=$(sed -n 's/^sent [0-9]*, answered \([0-9]*\).*/\1/p' \
  "$SMOKE/sc_legit.out")
[ -n "$SENT" ] && [ "$SENT" = "$ANSWERED" ] || {
  echo "scenario smoke: legit traffic lost under bounded flood" \
       "(sent=$SENT answered=$ANSWERED)"
  cat "$SMOKE/sc_legit.out" "$SMOKE/sc_proxy.out"; exit 1
}
kill -TERM "$PROXY_PID"; wait "$PROXY_PID"; PROXY_PID=""
kill -TERM "$SERVE_PID"; wait "$SERVE_PID"; SERVE_PID=""
./build/tools/ldp_trace_stats --by-site "$SMOKE/sc_proxy.jsonl" \
  > "$SMOKE/sc_bysite.out" 2>&1 || {
  echo "scenario smoke: --by-site failed"; cat "$SMOKE/sc_bysite.out"; exit 1; }
# Both sites must have caught traffic: far = the legit group the catchment
# routed there, near = the attack replay under the default route.
awk '/site (near|far)/ { if ($4 + 0 > 0) seen++ } END { exit seen == 2 ? 0 : 1 }' \
  "$SMOKE/sc_bysite.out" || {
  echo "scenario smoke: per-site load split not visible"
  cat "$SMOKE/sc_bysite.out"; exit 1
}
echo "scenario smoke: $SENT legit queries answered under flood," \
     "both sites caught traffic"

echo "== distrib smoke: 2-agent replay, zero loss, merged metrics =="
./build/tools/ldp_serve --listen 127.0.0.1:0 --stats-interval-s 0 \
  "$SMOKE/zone.db" > "$SMOKE/dist_serve.out" 2>&1 &
SERVE_PID=$!
i=0
while [ "$i" -lt 50 ]; do
  grep -q "serving on" "$SMOKE/dist_serve.out" 2>/dev/null && break
  sleep 0.1
  i=$((i + 1))
done
PORT=$(sed -n 's/.*serving on [0-9.]*:\([0-9]*\).*/\1/p' "$SMOKE/dist_serve.out")
[ -n "$PORT" ] || { echo "distrib smoke: server never came up"; exit 1; }
# Trace timing (not --fast): the zero-loss assertion needs the paced rate,
# not a 1-core burst that overflows receive buffers.
./build/tools/ldp_replay_trace --trace "$SMOKE/trace.txt" \
  --server "127.0.0.1:$PORT" --agents 2 \
  --metrics-out "$SMOKE/dist_metrics.jsonl" --metrics-interval-ms 200 \
  > "$SMOKE/dist_replay.out" 2>&1
grep -q "reconcile: OK" "$SMOKE/dist_replay.out" || {
  echo "distrib smoke: reconcile failed"; cat "$SMOKE/dist_replay.out"
  exit 1
}
MERGED_SENT=$(sed -n 's/^merged: sent \([0-9]*\),.*/\1/p' \
  "$SMOKE/dist_replay.out")
MERGED_ANSWERED=$(sed -n 's/^merged: sent [0-9]*, answered \([0-9]*\).*/\1/p' \
  "$SMOKE/dist_replay.out")
[ "$MERGED_SENT" = "2000" ] && [ "$MERGED_ANSWERED" = "2000" ] || {
  echo "distrib smoke: lost queries (sent=$MERGED_SENT answered=$MERGED_ANSWERED)"
  cat "$SMOKE/dist_replay.out"; exit 1
}
kill -TERM "$SERVE_PID"; wait "$SERVE_PID"; SERVE_PID=""
# Offline fold of the per-agent streams must agree with the live merge.
./build/tools/ldp_trace_stats merge --out "$SMOKE/dist_folded.jsonl" \
  "$SMOKE/dist_metrics.agent0.jsonl" "$SMOKE/dist_metrics.agent1.jsonl"
python3 - "$SMOKE/dist_folded.jsonl" <<'EOF'
import json, sys
rows = [json.loads(line) for line in open(sys.argv[1])]
assert rows, "no folded rows"
sent = rows[-1]["counters"]["replay.sent"]["total"]
assert sent == 2000, "folded sent %d != 2000" % sent
print("distrib smoke: 2 agents, 2000 sent, 2000 answered, fold agrees")
EOF

echo "== datapath smoke: serve+replay through each backend =="
# Paced replay (not --fast) with a retransmit budget, like the other
# smokes: the zero-loss assertion must measure the datapath, not a 1-core
# burst overflowing buffers. Both sides ride the same backend — mixed
# epoll/afpacket over loopback needs route_localnet (DESIGN.md §12).
datapath_smoke() {
  DP="$1"
  ./build/tools/ldp_serve --listen 127.0.0.1:0 --stats-interval-s 0 \
    --datapath "$DP" "$SMOKE/zone.db" > "$SMOKE/dp_serve.$DP.out" 2>&1 &
  SERVE_PID=$!
  i=0
  while [ "$i" -lt 50 ]; do
    grep -q "serving on" "$SMOKE/dp_serve.$DP.out" 2>/dev/null && break
    sleep 0.1
    i=$((i + 1))
  done
  PORT=$(sed -n 's/.*serving on [0-9.]*:\([0-9]*\).*/\1/p' \
    "$SMOKE/dp_serve.$DP.out")
  [ -n "$PORT" ] || { echo "datapath smoke ($DP): server never came up"
    cat "$SMOKE/dp_serve.$DP.out"; exit 1; }
  grep -q "datapath $DP" "$SMOKE/dp_serve.$DP.out" || {
    echo "datapath smoke ($DP): server not on the requested backend"
    cat "$SMOKE/dp_serve.$DP.out"; exit 1; }
  # --metrics-out makes the tool print "reconcile: OK/FAIL" (snapshot
  # counters vs final report); without it no reconcile line exists and the
  # grep below could never pass.
  ./build/tools/ldp_replay_trace --trace "$SMOKE/trace.txt" \
    --server "127.0.0.1:$PORT" --datapath "$DP" \
    --timeout-ms 2000 --retransmits 2 \
    --metrics-out "$SMOKE/dp_metrics.$DP.jsonl" \
    > "$SMOKE/dp_replay.$DP.out" 2>&1
  grep -q "reconcile: OK" "$SMOKE/dp_replay.$DP.out" || {
    echo "datapath smoke ($DP): replay reconcile failed"
    cat "$SMOKE/dp_replay.$DP.out"; exit 1
  }
  SENT=$(sed -n 's/^sent \([0-9]*\), answered.*/\1/p' \
    "$SMOKE/dp_replay.$DP.out")
  ANSWERED=$(sed -n 's/^sent [0-9]*, answered \([0-9]*\).*/\1/p' \
    "$SMOKE/dp_replay.$DP.out")
  [ "$SENT" = "2000" ] && [ "$SENT" = "$ANSWERED" ] || {
    echo "datapath smoke ($DP): lost queries (sent=$SENT answered=$ANSWERED)"
    cat "$SMOKE/dp_replay.$DP.out"; exit 1
  }
  kill -TERM "$SERVE_PID"; wait "$SERVE_PID"; SERVE_PID=""
  echo "datapath smoke ($DP): $SENT queries, all answered"
}
datapath_smoke epoll
if ./build/tools/ldp_datapath_probe > "$SMOKE/dp_probe.out" 2>&1; then
  datapath_smoke afpacket
else
  echo "datapath smoke: afpacket skipped ($(cat "$SMOKE/dp_probe.out"))"
fi

echo "== tls smoke: serve+replay over DoT, zero loss =="
# Same shape as the datapath smoke, but the replay rides DNS-over-TLS to
# the server's DoT listener (session resumption included: the querier
# redials per source). Skips cleanly on builds without OpenSSL.
if ./build/tools/ldp_datapath_probe --tls > "$SMOKE/tls_probe.out" 2>&1; then
  ./build/tools/ldp_serve --listen 127.0.0.1:0 --tls --stats-interval-s 0 \
    "$SMOKE/zone.db" > "$SMOKE/tls_serve.out" 2>&1 &
  SERVE_PID=$!
  i=0
  while [ "$i" -lt 50 ]; do
    grep -q "tls on" "$SMOKE/tls_serve.out" 2>/dev/null && break
    sleep 0.1
    i=$((i + 1))
  done
  PORT=$(sed -n 's/.*serving on [0-9.]*:\([0-9]*\).*/\1/p' \
    "$SMOKE/tls_serve.out")
  TLS_PORT=$(sed -n 's/^tls on [0-9.]*:\([0-9]*\).*/\1/p' \
    "$SMOKE/tls_serve.out")
  [ -n "$PORT" ] && [ -n "$TLS_PORT" ] || {
    echo "tls smoke: server never published its DoT port"
    cat "$SMOKE/tls_serve.out"; exit 1; }
  ./build/tools/ldp_replay_trace --trace "$SMOKE/trace.txt" \
    --server "127.0.0.1:$PORT" --tls --tls-port "$TLS_PORT" \
    --timeout-ms 2000 \
    --metrics-out "$SMOKE/tls_metrics.jsonl" \
    > "$SMOKE/tls_replay.out" 2>&1
  grep -q "reconcile: OK" "$SMOKE/tls_replay.out" || {
    echo "tls smoke: replay reconcile failed"
    cat "$SMOKE/tls_replay.out"; exit 1
  }
  SENT=$(sed -n 's/^sent \([0-9]*\), answered.*/\1/p' "$SMOKE/tls_replay.out")
  ANSWERED=$(sed -n 's/^sent [0-9]*, answered \([0-9]*\).*/\1/p' \
    "$SMOKE/tls_replay.out")
  [ "$SENT" = "2000" ] && [ "$SENT" = "$ANSWERED" ] || {
    echo "tls smoke: lost queries (sent=$SENT answered=$ANSWERED)"
    cat "$SMOKE/tls_replay.out"; exit 1
  }
  kill -TERM "$SERVE_PID"; wait "$SERVE_PID"; SERVE_PID=""
  echo "tls smoke: $SENT queries over DoT, all answered"
else
  echo "tls smoke: skipped ($(cat "$SMOKE/tls_probe.out"))"
fi

echo "== docs: EXPERIMENTS.md command lines match tool --help =="
python3 - <<'EOF'
import re, subprocess, sys

text = open("EXPERIMENTS.md").read()
known = {}
failures = []
# Every ./build/tools/ldp_* invocation inside a code block: each --flag it
# passes must be advertised by that tool's --help (stale docs fail here).
for line in text.splitlines():
    m = re.search(r"(?:\./)?build/tools/(ldp_\w+)", line)
    if not m or line.lstrip().startswith("#"):
        continue
    tool = m.group(1)
    if tool not in known:
        out = subprocess.run(["./build/tools/" + tool, "--help"],
                             capture_output=True, text=True)
        known[tool] = set(re.findall(r"--[\w-]+", out.stdout + out.stderr))
    for flag in re.findall(r"--[\w-]+", line.split(m.group(0), 1)[1]):
        if flag not in known[tool]:
            failures.append("%s: %s not in --help (line: %s)"
                            % (tool, flag, line.strip()))
# The scenario cookbook must keep exercising the attack/anycast surface:
# if these flags disappear from EXPERIMENTS.md the cookbook has gone stale
# (the generic check above only validates lines that exist).
for needed in ["--attack", "--sites", "--catchment", "--by-site",
               "--local-addr"]:
    if needed not in text:
        failures.append("EXPERIMENTS.md: scenario cookbook no longer uses "
                        + needed)
if failures:
    print("\n".join(failures))
    sys.exit(1)
print("docs: %d tool invocations checked against --help" % len(known))
EOF

echo "== fuzz: ASan harnesses, corpus replay + bounded runs =="
# Builds the fuzz preset (libFuzzer under clang, bundled standalone driver
# under gcc) and gives each harness a bounded -runs budget over its
# checked-in corpus, so any new crash — including a regression on a landed
# reproducer — fails verification. Skips only if the preset cannot build.
if cmake -B build-fuzz -S . -DLDP_SANITIZE=address -DLDP_FUZZ=ON \
     > "$SMOKE/fuzz_configure.out" 2>&1 \
   && cmake --build build-fuzz -j"$(nproc)" --target \
        fuzz_wire fuzz_zone fuzz_framing fuzz_distrib \
        > "$SMOKE/fuzz_build.out" 2>&1; then
  for target in wire zone framing distrib; do
    ./build-fuzz/tests/fuzz/fuzz_$target "tests/fuzz/corpus/$target" \
      -runs=20000 -max_len=4096 -artifact_prefix="$SMOKE/" \
      > "$SMOKE/fuzz_$target.out" 2>&1 || {
      echo "fuzz smoke: fuzz_$target failed"
      tail -20 "$SMOKE/fuzz_$target.out"
      exit 1
    }
  done
  echo "fuzz smoke: 4 harnesses, corpus replay + 20000 bounded runs, clean"
else
  echo "fuzz smoke: skipped (fuzz preset failed to configure or build)"
  tail -5 "$SMOKE/fuzz_build.out" "$SMOKE/fuzz_configure.out" 2>/dev/null || true
fi

if [ "${1:-}" = "--skip-tsan" ]; then
  echo "== sanitizers: skipped =="
  exit 0
fi

echo "== tsan: threaded subsystems =="
cmake -B build-tsan -S . -DLDP_SANITIZE=thread >/dev/null
cmake --build build-tsan -j"$(nproc)" --target \
  net_test sharded_server_test response_cache_test \
  server_test replay_realtime_test metrics_test stats_test proxy_relay_test \
  distrib_test hashring_test packet_codec_test datapath_test tls_test \
  scenario_test
ctest --test-dir build-tsan --output-on-failure \
  -R 'net_test|sharded_server_test|response_cache_test|server_test|replay_realtime_test|metrics_test|stats_test|proxy_relay_test|distrib_test|hashring_test|packet_codec_test|datapath_test|tls_test|scenario_test'

echo "== asan: socket + replay lifetime paths, distrib agents, zone index =="
# The zone index hands out offsets into its key arena and references into
# shared zone storage; zone_test, the lookup oracle and the wire byte-identity
# test walk those under ASan. distrib_test covers agents, which decode HELLO
# from the network and run the replay querier. proxy_relay_test and
# scenario_test open and close datagram sockets on the hot path (relay flows,
# rotating flood sources).
cmake -B build-asan -S . -DLDP_SANITIZE=address >/dev/null
cmake --build build-asan -j"$(nproc)" --target \
  net_test replay_realtime_test packet_codec_test datapath_test \
  tls_test sharded_server_test zone_test lookup_oracle_test \
  wire_identity_test distrib_test proxy_relay_test scenario_test
ctest --test-dir build-asan --output-on-failure \
  -R 'net_test|replay_realtime_test|packet_codec_test|datapath_test|tls_test|sharded_server_test|zone_test|lookup_oracle_test|wire_identity_test|distrib_test|proxy_relay_test|scenario_test'

echo "== ubsan: full suite, reports fatal =="
# CMakeLists.txt adds -fno-sanitize-recover=undefined for this sanitizer,
# so a UBSan report aborts the test instead of printing and passing.
cmake -B build-ubsan -S . -DLDP_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j"$(nproc)"
ctest --test-dir build-ubsan --output-on-failure -j2

echo "verify: OK"
