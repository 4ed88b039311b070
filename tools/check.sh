#!/usr/bin/env bash
# Tier-1 verification: configure, build and run the full test suite, then
# run the durable-store suites (store_test, recovery_test) under
# AddressSanitizer + UBSan — the WAL/snapshot layer does raw byte-level
# I/O and crash-path truncation, exactly where the sanitizers earn their
# keep.  The cache side's cache_fast_path_test and lease_client_test ride
# in the same leg: the fast path reads untrusted request bytes and does
# the per-entry client-rate arithmetic on every hit.  Unless --no-e2e,
# runtime_test and e2e_daemons_test join them: the worker pool under both
# daemons binds sockets, loops and drains there.  --sanitize widens the
# sanitizer leg to the whole tree.
#
# Tests are labeled unit / sim / e2e / push / planner / cachestore (see
# tests/CMakeLists.txt).
# The default run executes the in-process labels first, then the TCP
# subscription plane (`-L push`), then the real-socket e2e leg on its
# own (`-L e2e`) so a socket-environment failure is immediately
# distinguishable from a logic failure.  --no-e2e skips both
# socket-bound legs entirely (for sandboxes without working loopback).
#
# The multi-threaded serving runtime gets its own legs:
#   --tsan         build runtime_test + udp_transport_test +
#                  e2e_daemons_test + the push-plane and planner suites
#                  under ThreadSanitizer and fail on any report — the
#                  worker / journal-writer / push-channel / planner
#                  thread interplay is where a data race would hide;
#                  then, where dnsflood --probe-io-backend finds
#                  io_uring, runtime_test + e2e_daemons_test +
#                  io_backend_parity_test again on the uring backend
#                  (eventfd wake-ups from the push and control threads
#                  into a worker waiting on its ring);
#   --planner      the lease-planner leg: the planner-labeled suites in
#                  Release, the online-vs-offline ablation gate
#                  (bench/ablation_online_policy fails when the planner
#                  path strays more than 1% from the offline optimum's
#                  message rate or over its storage budget), planner_test
#                  under ASan/UBSan (the demand table's index is raw
#                  open-addressed indexing, rebuilt and freed as it
#                  grows), then a planner-enabled dnscupd under TSan with
#                  a 1024-pair ceiling and 1 s leases, driven by two
#                  dnsflood passes on fresh ports — growth, the ceiling,
#                  reclamation and the hazard-slot handoff under real
#                  load; it fails unless the final metrics dump shows
#                  planner_reclaimed > 0;
#   --bench-smoke  Release build, assert both daemons' serve hot paths
#                  are allocation-free (hot_path_alloc_test: dnscupd's
#                  query fast path and dnscached's cache-hit fast path),
#                  then start a 2-worker dnscupd on loopback and drive it
#                  with dnsflood for 2 s, then put a dnscached with a
#                  --cache-dir in front of it and drive that for 2 s with
#                  plain queries over 200 names (every query after the
#                  first pass is a hit); each flood fails on more than 1%
#                  lost answers or none answered.  The flooded dnscached
#                  then restarts warm from its --cache-dir and fails
#                  unless its banner reports all 200 names reloaded (the
#                  line perfbench's cache_hit waits for).  The JSON
#                  results are kept under build/bench/.
#   --wire-micro   Release build, run the wire encode/decode
#                  microbenchmark with its cache-hit and zone-lookup
#                  rows; it self-fails if the arena encode, the view
#                  decode or a cache hit allocates in steady state.  JSON
#                  archived under build/bench/.
#   --io-matrix    run the unit + sim + e2e suite once per datagram I/O
#                  backend (DNSCUP_IO_BACKEND=portable, then =uring).
#                  The uring leg probes kernel support first (dnsflood
#                  --probe-io-backend) and prints an explicit SKIP — not
#                  a failure — where io_uring is unavailable.
#   --cachestore   the persistent cache-store leg: the cachestore-labeled
#                  suites in Release (backend and image equivalence, warm
#                  reload, corruption fallback, fork + kill -9 torn-file
#                  recovery, warm-restart e2e), then cachestore_test +
#                  cachestore_kill_test under ASan/UBSan — the store is
#                  raw mmap'd byte layout with CRC plumbing, exactly
#                  where the sanitizers earn their keep; that leg includes
#                  the seeded byte-mutation loop over a written image and
#                  the resident-pages bound on a reopened 256 MiB image.
#
# Usage:
#   tools/check.sh                # Release build + ctest + store sanitizers
#   tools/check.sh --no-e2e      # same, skipping the real-socket leg
#   tools/check.sh --sanitize    # sanitize the full suite, not just store
#   tools/check.sh --tsan        # ThreadSanitizer leg only
#   tools/check.sh --planner     # lease-planner leg only
#   tools/check.sh --bench-smoke # serving-runtime load smoke only
#   tools/check.sh --wire-micro  # wire hot-path microbenchmark only
#   tools/check.sh --io-matrix   # full suite under each I/O backend
#   tools/check.sh --cachestore  # persistent cache-store leg only
#   JOBS=4 tools/check.sh        # override build parallelism
set -euo pipefail

repo_root=$(cd "$(dirname "$0")/.." && pwd)
jobs=${JOBS:-$(nproc)}
mode=${1:-}

run_suite() {
  local build_dir=$1
  local run_e2e=$2
  shift 2
  cmake -B "$build_dir" -S "$repo_root" "$@"
  cmake --build "$build_dir" -j "$jobs"
  echo "-- unit + sim labels --"
  ctest --test-dir "$build_dir" -LE 'e2e|push|cachestore' \
    --output-on-failure -j "$jobs"
  if [ "$run_e2e" = yes ]; then
    echo "-- cachestore label (persistent store, kill -9 recovery) --"
    ctest --test-dir "$build_dir" -L cachestore --output-on-failure \
      -j "$jobs"
    echo "-- push label (TCP subscription channel, loopback) --"
    ctest --test-dir "$build_dir" -L push --output-on-failure -j "$jobs"
    echo "-- e2e label (real loopback sockets, daemon pairs) --"
    ctest --test-dir "$build_dir" -L e2e --output-on-failure -j "$jobs"
  else
    # The warm-restart e2e needs loopback sockets; the rest of the
    # cachestore label is file-only and still runs.
    echo "-- cachestore label (file-only subset; --no-e2e) --"
    ctest --test-dir "$build_dir" -L cachestore \
      -E '^warm_restart_e2e_test$' --output-on-failure -j "$jobs"
    echo "-- push + e2e labels skipped (--no-e2e) --"
  fi
}

run_tsan() {
  echo "== threaded runtime under ThreadSanitizer (portable backend) =="
  local build_dir="$repo_root/build-tsan"
  cmake -B "$build_dir" -S "$repo_root" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DDNSCUP_SANITIZE=thread
  cmake --build "$build_dir" -j "$jobs" \
    --target runtime_test udp_transport_test e2e_daemons_test \
             io_backend_parity_test push_channel_test e2e_push_test \
             planner_test planner_runtime_test warm_restart_e2e_test \
             cachestore_test dnsflood
  # halt_on_error turns any race report into a test failure.  The
  # backend is pinned to portable so the leg is deterministic; the
  # parity test still exercises the uring backend explicitly where the
  # kernel supports it, and the uring pass below covers the runtimes.
  # The push suites put the epoll server thread / client threads /
  # submitter cross-talk under TSan.
  # warm_restart_e2e_test rides in the TSan leg: the one-shot survivor
  # snapshot handoff (start thread → push I/O thread) and the readopt
  # fan-out (push I/O thread → worker threads) are cross-thread seams.
  tsan_tests='runtime_test|udp_transport_test|e2e_daemons_test'
  tsan_tests="$tsan_tests|io_backend_parity_test"
  tsan_tests="$tsan_tests|push_channel_test|e2e_push_test"
  tsan_tests="$tsan_tests|planner_test|planner_runtime_test"
  tsan_tests="$tsan_tests|warm_restart_e2e_test|cachestore_test"
  TSAN_OPTIONS="halt_on_error=1" DNSCUP_IO_BACKEND=portable \
    ctest --test-dir "$build_dir" \
    -R "^($tsan_tests)\$" \
    --output-on-failure
  # Workers that wait on their ring: push- and control-thread eventfd
  # wake-ups into a uring worker are a cross-thread path of their own.
  if "$build_dir/tools/dnsflood" --probe-io-backend; then
    echo "-- threaded runtime under ThreadSanitizer (uring backend) --"
    TSAN_OPTIONS="halt_on_error=1" DNSCUP_IO_BACKEND=uring \
      ctest --test-dir "$build_dir" \
      -R "^(runtime_test|e2e_daemons_test|io_backend_parity_test)\$" \
      --output-on-failure
  else
    echo "-- uring TSan pass SKIP (kernel lacks io_uring support) --"
  fi
}

run_io_matrix() {
  echo "== I/O backend matrix: unit + sim + e2e per backend =="
  local build_dir="$repo_root/build"
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build_dir" -j "$jobs"
  echo "-- backend: portable --"
  DNSCUP_IO_BACKEND=portable ctest --test-dir "$build_dir" -LE e2e \
    --output-on-failure -j "$jobs"
  if [ "$e2e" = yes ]; then
    DNSCUP_IO_BACKEND=portable ctest --test-dir "$build_dir" -L e2e \
      --output-on-failure -j "$jobs"
  fi
  if "$build_dir/tools/dnsflood" --probe-io-backend; then
    echo "-- backend: uring --"
    DNSCUP_IO_BACKEND=uring ctest --test-dir "$build_dir" -LE e2e \
      --output-on-failure -j "$jobs"
    if [ "$e2e" = yes ]; then
      DNSCUP_IO_BACKEND=uring ctest --test-dir "$build_dir" -L e2e \
        --output-on-failure -j "$jobs"
    fi
  else
    echo "-- backend: uring SKIP (kernel lacks io_uring support;" \
         "portable leg above is authoritative) --"
  fi
}

run_wire_micro() {
  echo "== wire hot-path microbenchmark (self-asserts 0 allocs/op) =="
  local build_dir="$repo_root/build"
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build_dir" -j "$jobs" --target wire_micro
  mkdir -p "$build_dir/bench"
  "$build_dir/bench/wire_micro" --out "$build_dir/bench/wire-micro.json"
  echo "wire micro ok; result archived at $build_dir/bench/wire-micro.json"
}

# Fails when a dnsflood result lost more than 1% of its answered-or-
# timed-out queries, or answered none.
check_flood() {
  python3 - "$1" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    result = json.load(f)
loss = result["loss_rate"]
print(f"achieved {result['achieved_qps']:.0f} q/s, "
      f"p99 {result['p99_us']} us, loss {100 * loss:.3f}%")
if loss > 0.01:
    sys.exit(f"FAIL: loss rate {loss:.4f} exceeds 1%")
if result["answered"] == 0:
    sys.exit("FAIL: no queries answered")
EOF
}

run_bench_smoke() {
  echo "== serving-runtime load smoke (dnscupd, then dnscached; 2 s each) =="
  local build_dir="$repo_root/build"
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build_dir" -j "$jobs" \
    --target dnscupd dnscached dnsflood hot_path_alloc_test
  local bench_dir="$build_dir/bench"
  mkdir -p "$bench_dir"

  # Steady-state serving must not touch the heap on either daemon: the
  # counting-allocator suite fails if an authority query or a cache hit
  # allocates after warm-up.
  echo "-- hot-path allocation contract (dnscupd and dnscached) --"
  ctest --test-dir "$build_dir" -R '^hot_path_alloc_test$' \
    --output-on-failure

  local zone="$bench_dir/smoke.zone"
  {
    echo '$ORIGIN example.com.'
    echo '@ IN SOA ns1.example.com. admin.example.com. 1 7200 900 604800 300'
    echo '@ 300 IN NS ns1.example.com.'
    echo 'ns1 300 IN A 10.0.0.1'
    for i in $(seq 0 199); do
      echo "w$i 300 IN A 10.1.$((i / 256)).$((i % 256))"
    done
  } > "$zone"

  local port=$(( 20000 + RANDOM % 10000 ))
  local cache_port=$(( port + 1 ))
  local cache=""
  "$build_dir/tools/dnscupd" --port "$port" \
    --zone "example.com=$zone" --workers 2 \
    > "$bench_dir/smoke-dnscupd.log" 2>&1 &
  local daemon=$!
  trap 'kill "$daemon" $cache 2>/dev/null || true' RETURN
  sleep 0.5
  kill -0 "$daemon" || {
    echo "dnscupd failed to start:"; cat "$bench_dir/smoke-dnscupd.log"
    return 1
  }

  echo "-- dnscupd --"
  local out="$bench_dir/smoke-flood.json"
  "$build_dir/tools/dnsflood" --server "127.0.0.1:$port" --duration 2 \
    --sockets 4 --concurrency 16 --names 200 --workers-label 2 \
    --out "$out"
  check_flood "$out"

  # The cache side over real sockets: plain queries (no EXT) over the
  # zone's 200 names, so after the first pass every query is a cache hit
  # answered by dnscached's fast path.  The cache persists to a
  # --cache-dir, so the restart below comes back warm.
  echo "-- dnscached in front of dnscupd --"
  local cache_dir="$bench_dir/smoke-cache-dir"
  rm -rf "$cache_dir"
  "$build_dir/tools/dnscached" --port "$cache_port" \
    --upstream "127.0.0.1:$port" --workers 1 --cache-dir "$cache_dir" \
    > "$bench_dir/smoke-dnscached.log" 2>&1 &
  cache=$!
  sleep 0.5
  kill -0 "$cache" || {
    echo "dnscached failed to start:"; cat "$bench_dir/smoke-dnscached.log"
    return 1
  }
  local cache_out="$bench_dir/smoke-cache-flood.json"
  "$build_dir/tools/dnsflood" --server "127.0.0.1:$cache_port" --duration 2 \
    --sockets 4 --concurrency 16 --names 200 --lease-fraction 0 \
    --workers-label 1 --out "$cache_out"
  kill -TERM "$cache" 2>/dev/null || true
  wait "$cache" 2>/dev/null || true
  check_flood "$cache_out"

  # Warm restart from the same --cache-dir: the banner must report every
  # flooded name reloaded — the line perfbench's cache_hit waits for.
  echo "-- dnscached warm restart --"
  local warm_log="$bench_dir/smoke-dnscached-warm.log"
  "$build_dir/tools/dnscached" --port "$cache_port" \
    --upstream "127.0.0.1:$port" --workers 1 --cache-dir "$cache_dir" \
    > "$warm_log" 2>&1 &
  cache=$!
  sleep 0.5
  kill -TERM "$cache" "$daemon" 2>/dev/null || true
  wait "$cache" 2>/dev/null || true
  wait "$daemon" 2>/dev/null || true
  local reloaded
  reloaded=$(sed -n 's/.*warm restart: \([0-9]*\) entries reloaded.*/\1/p' \
    "$warm_log")
  if [ -z "$reloaded" ] || [ "$reloaded" -lt 200 ]; then
    echo "FAIL: warm restart reloaded ${reloaded:-no} entries, want all 200" \
         "names:"
    cat "$warm_log"
    return 1
  fi
  echo "warm restart: $reloaded entries reloaded (200 names flooded)"
  echo "bench smoke ok; results archived at $out and $cache_out"
}

run_planner() {
  echo "== lease-planner leg =="
  local build_dir="$repo_root/build"
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build_dir" -j "$jobs" \
    --target planner_test planner_runtime_test dnsflood \
             ablation_online_policy
  echo "-- planner label (Release) --"
  ctest --test-dir "$build_dir" -L planner --output-on-failure -j "$jobs"
  ctest --test-dir "$build_dir" -R '^planner_runtime_test$' \
    --output-on-failure

  echo "-- online planner vs offline optimum (ablation gate) --"
  # Seeded and deterministic: exits non-zero when, at any budget, the
  # online message rate is more than 1% from the offline optimum or mean
  # live leases exceed the budget by more than 1%.
  "$build_dir/bench/ablation_online_policy"

  echo "-- planner_test under address,undefined sanitizers --"
  # The demand table is raw open-addressed indexing whose retired
  # generations are freed behind lock-free readers: ASan/UBSan is where
  # an off-by-one probe, a use-after-free or a misaligned bit_cast would
  # surface.
  cmake -B "$repo_root/build-store-sanitize" -S "$repo_root" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DDNSCUP_SANITIZE=address,undefined
  cmake --build "$repo_root/build-store-sanitize" -j "$jobs" \
    --target planner_test
  ctest --test-dir "$repo_root/build-store-sanitize" \
    -R '^planner_test$' --output-on-failure

  echo "-- planner-enabled dnscupd under ThreadSanitizer + dnsflood --"
  # Real load across the full planner seam: worker threads observing into
  # the MPSC queues and probing planned_bits while the planner thread
  # plans, publishes, replans, grows the table and reclaims lapsed pairs.
  local tsan_dir="$repo_root/build-tsan"
  cmake -B "$tsan_dir" -S "$repo_root" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DDNSCUP_SANITIZE=thread
  cmake --build "$tsan_dir" -j "$jobs" --target dnscupd
  local bench_dir="$build_dir/bench"
  mkdir -p "$bench_dir"
  local zone="$bench_dir/planner-smoke.zone"
  {
    echo '$ORIGIN example.com.'
    echo '@ IN SOA ns1.example.com. admin.example.com. 1 7200 900 604800 300'
    echo '@ 300 IN NS ns1.example.com.'
    echo 'ns1 300 IN A 10.0.0.1'
    for i in $(seq 0 199); do
      echo "w$i 300 IN A 10.1.$((i / 256)).$((i % 256))"
    done
  } > "$zone"
  local port=$(( 20000 + RANDOM % 10000 ))
  local metrics="$bench_dir/planner-smoke-metrics.json"
  rm -f "$metrics"
  # A 1024-pair ceiling under two passes of up to 1600 pairs each, and
  # 1 s maximal leases: the first pass grows the table into the ceiling,
  # the second (fresh ports, like a restarted cache) must reclaim the
  # first pass's lapsed pairs.
  TSAN_OPTIONS="halt_on_error=1" "$tsan_dir/tools/dnscupd" --port "$port" \
    --zone "example.com=$zone" --workers 2 \
    --lease-storage-budget 100 --replan-interval 1 \
    --planner-capacity 1024 --max-lease 1 --metrics-out "$metrics" \
    > "$bench_dir/planner-smoke-dnscupd.log" 2>&1 &
  local daemon=$!
  trap 'kill "$daemon" 2>/dev/null || true' RETURN
  # TSan-instrumented startup is slow, especially on busy hosts: poll
  # for the planner banner instead of a fixed sleep.
  local waited=0
  until grep -q "dnscup planner: mode=storage" \
      "$bench_dir/planner-smoke-dnscupd.log" 2>/dev/null; do
    kill -0 "$daemon" 2>/dev/null || {
      echo "planner dnscupd died during startup:"
      cat "$bench_dir/planner-smoke-dnscupd.log"
      return 1
    }
    if [ "$waited" -ge 60 ]; then
      echo "planner banner missing after ${waited}s:"
      cat "$bench_dir/planner-smoke-dnscupd.log"
      return 1
    fi
    sleep 1
    waited=$(( waited + 1 ))
  done
  local pass
  for pass in 1 2; do
    # Each dnsflood run binds fresh source ports: new lease identities.
    "$build_dir/tools/dnsflood" --server "127.0.0.1:$port" --duration 2 \
      --sockets 8 --concurrency 8 --names 200 --lease-fraction 0.5 \
      --planner-label storage \
      --out "$bench_dir/planner-smoke-flood-$pass.json"
    # Past the 1 s maximal lease, so the first pass's pairs lapse.
    if [ "$pass" = 1 ]; then sleep 2; fi
  done
  kill -TERM "$daemon" 2>/dev/null || true
  if ! wait "$daemon"; then
    echo "FAIL: planner-enabled dnscupd exited non-zero (TSan report?)"
    cat "$bench_dir/planner-smoke-dnscupd.log"
    return 1
  fi
  # dnscupd writes a final metrics dump on clean shutdown.
  python3 - "$metrics" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    snapshot = json.load(f)
def total(name):
    return sum(m["value"] for m in snapshot["metrics"] if m["name"] == name)
reclaimed = total("planner_reclaimed")
print(f"planner: {total('planner_pairs'):.0f} pairs, "
      f"{reclaimed} reclaimed, {total('planner_table_full')} refused at "
      f"the ceiling, {total('planner_table_bytes'):.0f} table bytes")
if reclaimed <= 0:
    sys.exit("FAIL: no planner pair was reclaimed across the two passes")
EOF
  echo "planner leg ok; smoke results under $bench_dir/"
}

run_cachestore() {
  echo "== persistent cache-store leg =="
  local build_dir="$repo_root/build"
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build_dir" -j "$jobs" \
    --target cachestore_test cachestore_kill_test warm_restart_e2e_test
  echo "-- cachestore label (Release) --"
  ctest --test-dir "$build_dir" -L cachestore --output-on-failure -j "$jobs"

  echo "-- cachestore suites under address,undefined sanitizers --"
  # The store is a raw mmap'd image: fixed-offset slot packing, bump
  # allocation, memmove compaction, CRC windows — ASan/UBSan is where an
  # off-by-one slab bound or misaligned read would surface.  The kill
  # suite reopens truly torn files under the same instrumentation.
  cmake -B "$repo_root/build-store-sanitize" -S "$repo_root" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DDNSCUP_SANITIZE=address,undefined
  cmake --build "$repo_root/build-store-sanitize" -j "$jobs" \
    --target cachestore_test cachestore_kill_test
  ctest --test-dir "$repo_root/build-store-sanitize" \
    -R '^(cachestore_test|cachestore_kill_test)$' \
    --output-on-failure -j "$jobs"
  echo "cachestore leg ok"
}

e2e=yes
if [ "$mode" = --no-e2e ]; then
  e2e=no
  mode=""
fi

case "$mode" in
  --tsan)
    run_tsan
    ;;
  --planner)
    run_planner
    ;;
  --bench-smoke)
    run_bench_smoke
    ;;
  --wire-micro)
    run_wire_micro
    ;;
  --io-matrix)
    run_io_matrix
    ;;
  --cachestore)
    run_cachestore
    ;;
  --sanitize)
    echo "== tier-1: release build + ctest =="
    run_suite "$repo_root/build" "$e2e"
    echo "== tier-1 under address,undefined sanitizers =="
    run_suite "$repo_root/build-sanitize" "$e2e" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DDNSCUP_SANITIZE=address,undefined
    ;;
  *)
    echo "== tier-1: release build + ctest =="
    run_suite "$repo_root/build" "$e2e"
    echo "== durable store + wire parser + cache side + daemon pair under" \
         "address,undefined sanitizers =="
    # malformed_packet_test rides along: the hostile-input wire-decoder
    # suite is the other place raw byte handling hides memory bugs.
    # cache_fast_path_test drives the cache-hit fast path over untrusted
    # request bytes, and with lease_client_test the per-entry client-rate
    # arithmetic (RRC reads, re-negotiation) that runs on every hit.
    # e2e_daemons_test and runtime_test put both daemons' runtimes under
    # ASan/UBSan too: the worker pool's socket binding, loop and bounded
    # drain, and the authority's sharded journaling; io_backend_parity_test
    # covers the backends' buffer-ownership edges (recycling after
    # partial pulls, stop/restart leaks).
    cmake -B "$repo_root/build-store-sanitize" -S "$repo_root" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DDNSCUP_SANITIZE=address,undefined
    cmake --build "$repo_root/build-store-sanitize" -j "$jobs" \
      --target store_test recovery_test malformed_packet_test \
               cache_fast_path_test lease_client_test \
               e2e_daemons_test runtime_test io_backend_parity_test
    sanitize_tests='store_test|recovery_test|malformed_packet_test'
    sanitize_tests="$sanitize_tests|cache_fast_path_test|lease_client_test"
    if [ "$e2e" = yes ]; then
      sanitize_tests="$sanitize_tests|e2e_daemons_test|runtime_test"
      sanitize_tests="$sanitize_tests|io_backend_parity_test"
    fi
    ctest --test-dir "$repo_root/build-store-sanitize" \
      -R "^($sanitize_tests)\$" \
      --output-on-failure -j "$jobs"
    ;;
esac

echo "== all checks passed =="
