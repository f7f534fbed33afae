#!/usr/bin/env sh
# Local CI: configure, build and run the full tier-1 suite twice --
# once in the default RelWithDebInfo configuration (NDEBUG: the corpus
# tests exercise release-build error paths) and once under
# AddressSanitizer, which catches the class of bug the fault layer is
# designed to keep out (empty-vector reads on uncalibrated ops, parsers
# reading past a malformed frame or file, batch state outliving its
# predict_all call).  Then: a standalone-header pass, a
# logsimd/logsim_client serve smoke (ephemeral port, scripted session,
# clean SIGTERM), the benchmark's self-test (logbench built in Release
# against these sources, every workload's small mode with its oracle
# checks), the serving and batch-runtime tests under ThreadSanitizer, and
# the Release perf gate (perf_regression + serve_throughput into
# BENCH_perf.json).
#
# Usage: tools/ci.sh [build-dir-prefix]
#   LOGSIM_CI_SANITIZER=undefined tools/ci.sh   # swap ASan for UBSan
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
prefix=${1:-"$repo_root/build-ci"}
sanitizer=${LOGSIM_CI_SANITIZER:-address}
jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)

run_pass() {
  pass_name=$1
  build_dir=$2
  shift 2
  echo "==> [$pass_name] configure: $build_dir"
  cmake -S "$repo_root" -B "$build_dir" "$@" >/dev/null
  echo "==> [$pass_name] build"
  cmake --build "$build_dir" -j "$jobs"
  echo "==> [$pass_name] ctest"
  ctest --test-dir "$build_dir" -j "$jobs" --output-on-failure
}

run_pass default "$prefix-default"
run_pass "$sanitizer" "$prefix-$sanitizer" "-DLOGSIM_SANITIZE=$sanitizer"

# Header self-sufficiency: every public <logsim/*.hpp> module header must
# compile standalone (own includes only, nothing leaked from a sibling).
# Catches a header that silently relies on the umbrella's include order.
echo "==> [headers] compile each include/logsim/*.hpp standalone"
for hdr in "$repo_root"/include/logsim/*.hpp; do
  rel=${hdr#"$repo_root/include/"}
  printf '    %s\n' "$rel"
  printf '#include <%s>\n' "$rel" |
    ${CXX:-c++} -std=c++20 -fsyntax-only -x c++ \
      -I "$repo_root/include" -I "$repo_root/src" -
done
echo "==> [headers] all public headers self-sufficient"

# Serve smoke: start the daemon on an ephemeral port -- with two epoll
# reactors and a coalescing window, so the DESIGN.md
# §14 paths are live -- then run one scripted client session (ping,
# predict, batch, stats), a protocol-v2 pass (--binary predict must print
# the same numbers as the v1 text predict), a registered-handle pass
# (register, predict --handle, again the same numbers), and finally
# assert a clean SIGTERM shutdown.  Exercises the real binaries end to
# end where serve_test covers the library in-process.
echo "==> [serve] smoke: logsimd + logsim_client round trip"
serve_dir="$prefix-default"
smoke_tmp=$(mktemp -d)
logsimd_pid=""
cleanup_smoke() {
  [ -n "$logsimd_pid" ] && kill "$logsimd_pid" 2>/dev/null
  rm -rf "$smoke_tmp"
}
trap cleanup_smoke EXIT
cat > "$smoke_tmp/prog.txt" <<'EOF'
procs 4
op mult
cost 0 16 250.5
cost 0 32 500.25
compute
item 0 0 16
item 1 0 32
item 2 0 16
item 3 0 16
comm
msg 0 1 1024
msg 2 3 2048
msg 1 2 512
compute
item 1 0 16
item 3 0 32
EOF
"$serve_dir/tools/logsimd" --port 0 --reactors 2 \
  --coalesce-window-us 100 > "$smoke_tmp/logsimd.log" 2>&1 &
logsimd_pid=$!
port=""
tries=0
while [ $tries -lt 100 ]; do
  port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' \
    "$smoke_tmp/logsimd.log")
  [ -n "$port" ] && break
  tries=$((tries + 1))
  sleep 0.1
done
if [ -z "$port" ]; then
  echo "==> [serve] logsimd did not start" >&2
  cat "$smoke_tmp/logsimd.log" >&2
  exit 1
fi
client="$serve_dir/tools/logsim_client"
"$client" --server "127.0.0.1:$port" ping
"$client" --server "127.0.0.1:$port" predict "$smoke_tmp/prog.txt"
"$client" --server "127.0.0.1:$port" batch "$smoke_tmp/prog.txt" \
  "$smoke_tmp/prog.txt"
"$client" --server "127.0.0.1:$port" stats | grep -q "serve.requests" || {
  echo "==> [serve] stats verb missing serve.requests" >&2
  exit 1
}
# Protocol v2: the binary codec must produce byte-identical prediction
# lines (the %.17g rendering and the raw-bits path agree exactly).
text_pred=$("$client" --server "127.0.0.1:$port" predict "$smoke_tmp/prog.txt")
bin_pred=$("$client" --server "127.0.0.1:$port" --binary predict \
  "$smoke_tmp/prog.txt")
[ "$text_pred" = "$bin_pred" ] || {
  echo "==> [serve] v1/v2 predictions differ:" >&2
  printf '    v1: %s\n    v2: %s\n' "$text_pred" "$bin_pred" >&2
  exit 1
}
# Registered handles: REGISTER once, predict by handle, same numbers
# again (the label before ':' differs by design; compare the payload).
handle=$("$client" --server "127.0.0.1:$port" --binary register \
  "$smoke_tmp/prog.txt" | sed 's/.*handle //')
[ -n "$handle" ] || {
  echo "==> [serve] register printed no handle" >&2
  exit 1
}
# First handle predict fills the per-program memo ("simulated"); the
# second is the steady-state hot path and must match the cached text
# prediction word for word.
"$client" --server "127.0.0.1:$port" --binary predict \
  --handle "$handle" > /dev/null
reg_pred=$("$client" --server "127.0.0.1:$port" --binary predict \
  --handle "$handle")
[ "${text_pred#*:}" = "${reg_pred#*:}" ] || {
  echo "==> [serve] handle prediction differs from text prediction:" >&2
  printf '    text:   %s\n    handle: %s\n' "$text_pred" "$reg_pred" >&2
  exit 1
}
"$client" --server "127.0.0.1:$port" stats | grep -q "serve.registered" || {
  echo "==> [serve] stats missing serve.registered after REGISTER" >&2
  exit 1
}
# Topology smoke: the same incast program predicted flat, then over a
# torus and a fat-tree, locally and through the daemon (protocol v3's
# TOPOLOGY field).  The receiver computes after the incast, so the
# shaped totals must come out strictly larger than the flat one; local
# and remote paths must agree bit for bit; a bogus spec must be refused.
echo "==> [topology] smoke: logsim_cli --topology local + remote"
cli="$serve_dir/tools/logsim_cli"
cat > "$smoke_tmp/hot.txt" <<'EOF'
procs 4
op mult
cost 0 16 250.5
compute
item 0 0 16
item 1 0 16
item 2 0 16
item 3 0 16
comm
msg 1 0 4096
msg 2 0 4096
msg 3 0 4096
compute
item 0 0 16
EOF
topo_total() {
  sed -n 's/predicted total: \([0-9.]*\).*/\1/p'
}
flat_us=$("$cli" predict "$smoke_tmp/hot.txt" | topo_total)
torus_us=$("$cli" predict "$smoke_tmp/hot.txt" --topology torus:2x2 \
  | topo_total)
fattree_us=$("$cli" predict "$smoke_tmp/hot.txt" --topology fattree:2,2/1,1 \
  | topo_total)
awk -v f="$flat_us" -v t="$torus_us" -v ft="$fattree_us" \
  'BEGIN { exit !(f > 0 && t > f && ft > f) }' || {
  echo "==> [topology] shaped predictions not above flat:" \
    "flat=$flat_us torus=$torus_us fattree=$fattree_us" >&2
  exit 1
}
for spec in torus:2x2 fattree:2,2/1,1; do
  local_pred=$("$cli" predict "$smoke_tmp/hot.txt" --topology "$spec" \
    | topo_total)
  remote_pred=$("$cli" predict "$smoke_tmp/hot.txt" --topology "$spec" \
    --server "127.0.0.1:$port" | topo_total)
  [ "$local_pred" = "$remote_pred" ] || {
    echo "==> [topology] local/remote disagree on $spec:" \
      "local=$local_pred remote=$remote_pred" >&2
    exit 1
  }
done
if "$cli" predict "$smoke_tmp/hot.txt" --topology hypercube:4 \
  > /dev/null 2>&1; then
  echo "==> [topology] bogus spec was accepted" >&2
  exit 1
fi
# A block size that does not fit an int must be refused, not narrowed
# (4294967300 would wrap to 4), both in-process and by the daemon's parser.
sed 's/^item 0 0 16$/item 0 0 4294967300/' "$smoke_tmp/hot.txt" \
  > "$smoke_tmp/wide_block.txt"
for remote in "" "--server 127.0.0.1:$port"; do
  # shellcheck disable=SC2086 # $remote is empty or two words on purpose
  if "$cli" predict "$smoke_tmp/wide_block.txt" $remote > /dev/null 2>&1; then
    echo "==> [topology] block 4294967300 was accepted${remote:+ ($remote)}" >&2
    exit 1
  fi
done
# A pattern tag that does not fit an int64 must be refused, not clamped.
printf 'procs 2\nmsg 0 1 8 99999999999999999999\n' > "$smoke_tmp/wide_tag.txt"
if "$cli" simulate "$smoke_tmp/wide_tag.txt" > /dev/null 2>&1; then
  echo "==> [topology] pattern tag 99999999999999999999 was accepted" >&2
  exit 1
fi
echo "==> [topology] smoke OK (flat=$flat_us torus=$torus_us" \
  "fattree=$fattree_us us)"

kill -TERM "$logsimd_pid"
wait "$logsimd_pid" || {
  echo "==> [serve] logsimd did not shut down cleanly" >&2
  exit 1
}
logsimd_pid=""
echo "==> [serve] smoke OK (port $port, clean shutdown)"

# Benchmark self-test: logbench/ compiles against the library's runtime
# API (prediction keys, the cache, the registry memo), so a library change
# can break the benchmark's build or its bit-identity checks without
# failing a test above.  Builds a Release tree under .bench_build/.
echo "==> [logbench] selftest: every workload's small mode"
(cd "$repo_root" && python3 logbench/selftest.py)
echo "==> [logbench] selftest OK"

# The serving layer is the most concurrency-dense code in the repo (N
# epoll reactors, a worker pool, cross-connection coalescing, a shared
# registry), and the batch runtime under it shares a stack-owned batch
# state with its pool workers; run those test binaries under
# ThreadSanitizer specifically, whatever LOGSIM_CI_SANITIZER picked for
# the full-suite pass above.
if [ "$sanitizer" = "thread" ]; then
  echo "==> [serve-tsan] full suite already ran under TSan; skipping"
else
  tsan_dir="$prefix-serve-tsan"
  echo "==> [serve-tsan] configure: $tsan_dir (LOGSIM_SANITIZE=thread)"
  cmake -S "$repo_root" -B "$tsan_dir" -DLOGSIM_SANITIZE=thread >/dev/null
  echo "==> [serve-tsan] build serve, wire and batch-runtime tests"
  cmake --build "$tsan_dir" --target serve_test wire_corrupt_test \
    runtime_test hardened_runtime_test -j "$jobs"
  echo "==> [serve-tsan] run"
  "$tsan_dir/tests/serve_test"
  "$tsan_dir/tests/wire_corrupt_test"
  "$tsan_dir/tests/runtime_test"
  "$tsan_dir/tests/hardened_runtime_test"
  echo "==> [serve-tsan] clean"
fi

# Perf smoke: a Release build of the regression harness must run, emit a
# schema-valid BENCH_perf.json, and -- when a baseline has been checked in
# under bench/baselines/ -- stay within 25% of it on every benchmark.
# serve_throughput then merges its serve_* rows into the same file
# (schema v4, --binary --register so the protocol-v2 registered-handle
# phase is measured): throughput rows go through the same 25% gate;
# latency p50/p99 rows gate lower-is-better at a wide allowance (tails
# jitter, the gate catches order-of-magnitude blowups); and --check
# asserts the acceptance bars (warm served within 2x of the direct
# in-process reference, registered hot path >= 5x the v1 text warm row).
# The harness is built with tracing compiled in; LOGSIM_TRACE is unset so
# the gate asserts the compiled-in-but-disabled overhead stays in budget.
# Skippable for quick local iterations with LOGSIM_CI_SKIP_PERF=1.
if [ "${LOGSIM_CI_SKIP_PERF:-0}" != "1" ]; then
  perf_dir="$prefix-perf"
  echo "==> [perf] configure: $perf_dir (Release)"
  cmake -S "$repo_root" -B "$perf_dir" -DCMAKE_BUILD_TYPE=Release >/dev/null
  echo "==> [perf] build perf_regression + serve_throughput"
  cmake --build "$perf_dir" --target perf_regression serve_throughput \
    -j "$jobs"
  echo "==> [perf] run --quick"
  perf_json="$repo_root/BENCH_perf.json"
  baseline="$repo_root/bench/baselines/BENCH_perf_baseline.json"
  if [ -f "$baseline" ]; then
    env -u LOGSIM_TRACE "$perf_dir/bench/perf_regression" --quick \
      --out "$perf_json" --baseline "$baseline" --max-regress 0.25
    env -u LOGSIM_TRACE "$perf_dir/bench/serve_throughput" --quick --check \
      --binary --register --merge "$perf_json" --baseline "$baseline" \
      --max-regress 0.25
  else
    echo "==> [perf] no baseline at $baseline; running ungated"
    env -u LOGSIM_TRACE "$perf_dir/bench/perf_regression" --quick \
      --out "$perf_json"
    env -u LOGSIM_TRACE "$perf_dir/bench/serve_throughput" --quick --check \
      --binary --register --merge "$perf_json"
  fi
  grep -q '"schema": "logsim-perf-v4"' "$perf_json" || {
    echo "==> [perf] BENCH_perf.json failed schema check" >&2
    exit 1
  }
  for row in comm_standard_flatnet_p8 serve_warm_p99_us serve_reg_p99_us; do
    grep "\"name\": \"$row\"" "$perf_json" | grep -qv '"value": 0.0,' || {
      echo "==> [perf] BENCH_perf.json missing a non-empty $row row" >&2
      exit 1
    }
  done
  echo "==> [perf] BENCH_perf.json OK"
fi

echo "==> ci.sh: all passes green"
