#!/usr/bin/env bash
# Tier-1 verification: configure, build and run the full test suite, first
# in the normal Release configuration, then (unless --no-sanitize) again
# under ASan + UBSan (-DUNCHAINED_SANITIZE=ON), and finally (unless
# --no-tsan) the threaded suites under ThreadSanitizer
# (-DUNCHAINED_TSAN=ON) — the stable-model fan-out, the server, the store
# and the observability rings are the racy surfaces, so the TSan pass
# filters to the eval/engine/server suites to stay fast.
# Each configuration uses its own build tree.
#
# Usage: tools/check.sh [--no-sanitize] [--no-tsan] [-j N]

set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
sanitize=1
tsan=1

while [[ $# -gt 0 ]]; do
  case "$1" in
    --no-sanitize) sanitize=0; shift ;;
    --no-tsan) tsan=0; shift ;;
    -j) jobs="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

run_suite() {
  local build_dir="$1"; shift
  local filter=""
  if [[ "${1:-}" == --tests-regex=* ]]; then
    filter="${1#--tests-regex=}"; shift
  fi
  echo "==> configure ${build_dir} ($*)"
  cmake -B "${build_dir}" -S "${repo}" "$@" >/dev/null
  echo "==> build ${build_dir}"
  cmake --build "${build_dir}" -j "${jobs}"
  echo "==> ctest ${build_dir}"
  if [[ -n "${filter}" ]]; then
    (cd "${build_dir}" && ctest --output-on-failure -j "${jobs}" \
      --tests-regex "${filter}")
  else
    (cd "${build_dir}" && ctest --output-on-failure -j "${jobs}")
  fi
}

# Fixed-seed differential fuzzing sweep (docs/testing.md): all oracle
# pairs + metamorphic mutants over 200 cases; any disagreement fails.
fuzz_smoke() {
  local build_dir="$1"
  echo "==> fuzz-smoke ${build_dir}"
  "${build_dir}/tools/unchained_fuzz" --cases=200 --seed=1 --quiet \
    --artifacts="${build_dir}/fuzz-artifacts"
}

# Incremental-maintenance smoke (docs/incremental.md): a focused
# incremental-vs-scratch sweep (oracle pair #9 — the default fuzz_smoke
# sweep covers it too, this lane goes deeper on the one pair), plus the
# maintenance-vs-from-scratch bench with its built-in byte-identity
# self-check and its single-fact work bar.
incremental_smoke() {
  local build_dir="$1"
  echo "==> incremental-smoke ${build_dir}"
  "${build_dir}/tools/unchained_fuzz" --cases=400 --seed=11 --quiet \
    --mutants=0 --pairs=incremental-vs-scratch \
    --artifacts="${build_dir}/fuzz-artifacts-incremental"
}

# Maintenance bench (docs/incremental.md): every row self-checks the
# maintained model byte-identical to from-scratch re-evaluation, and the
# binary fails unless each single-fact batch finds at most 1/10 of the
# recomputation's instantiations (a work count, so host speed cannot
# decide it; the timings are printed, not gated).
bench_incremental() {
  local build_dir="$1"
  echo "==> bench-incremental ${build_dir}"
  "${build_dir}/bench/incremental_updates" \
    --json="${build_dir}/BENCH_incremental.json" >/dev/null
}

# Server smoke (docs/server.md): a focused server-vs-library sweep
# (oracle pair #10) — published snapshot bytes per epoch vs a sequential
# IncrementalView replay, per-session epoch monotonicity, reclamation
# quiescence. Runs in the plain and ASan lanes; the threaded server
# suites run under TSan via run_suite's filter.
server_smoke() {
  local build_dir="$1"
  echo "==> server-smoke ${build_dir}"
  "${build_dir}/tools/unchained_fuzz" --cases=400 --seed=11 --quiet \
    --mutants=0 --pairs=server-vs-library \
    --artifacts="${build_dir}/fuzz-artifacts-server"
}

# Durability smoke (docs/durability.md): a focused crash-recover-vs-replay
# sweep (oracle pair #11) — every generated case carries a seeded crash
# schedule, and recovery must land in the bounded-loss window with bytes
# identical to a sequential replay of the surviving commit prefix — plus
# the fsync-policy bench (its rows self-check a fresh-engine recovery)
# and the real kill -9 smoke, run from a scratch CWD so the WAL paths
# stay CWD-independent.
durability_smoke() {
  local build_dir="$1"
  echo "==> durability-smoke ${build_dir}"
  "${build_dir}/tools/unchained_fuzz" --cases=400 --seed=13 --quiet \
    --mutants=0 --pairs=crash-recover-vs-replay \
    --artifacts="${build_dir}/fuzz-artifacts-durability"
}

# WAL bench (docs/durability.md): commit throughput vs fsync policy;
# every durable row self-checks a fresh-engine recovery byte-identical to
# the sequential replay.
bench_wal() {
  local build_dir="$1"
  echo "==> bench-wal ${build_dir}"
  "${build_dir}/bench/wal_throughput" \
    --json="${build_dir}/BENCH_wal.json" >/dev/null
}

# Real-process crash smoke (docs/durability.md#kill-smoke): the serve
# tool forks a child, SIGKILLs it mid-commit, recovers the directory and
# checks byte-identity against replay — from a scratch CWD so relative
# --wal paths keep working.
kill_recover_smoke() {
  local build_dir="$1"
  echo "==> kill-recover-smoke ${build_dir}"
  local scratch="${build_dir}/kill-smoke-cwd"
  mkdir -p "${scratch}"
  (cd "${scratch}" && "${build_dir}/tools/unchained_serve" \
    --program="${repo}/tools/testdata/server_tc.dl" \
    --facts="${repo}/tools/testdata/server_tc_facts.dl" \
    --wal=kill-smoke-store --snap-every=3 --kill-smoke >/dev/null)
}

# Benchmark self-test (perfbench/README.md): tiny runs of every workload,
# clean and with a planted bug each must catch. The only check that
# drives the threaded server over real sockets with server-publish-stale
# planted and requires the torn publish to be caught. perfbench builds
# src/ through its own CMake project, here into the plain build tree.
perfbench_selftest() {
  local build_dir="$1"
  echo "==> perfbench-selftest ${build_dir}"
  (cd "${repo}" && CARGO_TARGET_DIR="${build_dir}/perfbench-selftest" \
    python3 perfbench/run.py --selftest)
}

# Traced end-to-end run (docs/observability.md): --trace must produce a
# Chrome trace file that the schema/monotonic-timestamp checker accepts.
trace_check() {
  local build_dir="$1"
  echo "==> trace-check ${build_dir}"
  "${build_dir}/tools/unchained_cli" --semantics=datalog \
    --program="${repo}/tools/testdata/tc.dl" \
    --facts="${repo}/tools/testdata/tc_facts.dl" \
    --trace="${build_dir}/check_tc_trace.json" >/dev/null
  "${build_dir}/tools/unchained_trace_check" \
    "${build_dir}/check_tc_trace.json"
}

# Fault-injection bench (docs/distribution.md): reliable vs faulty
# transport overhead and checkpoint cost; every row self-checks CALM
# convergence, and the JSON lands next to the other BENCH_ artifacts.
bench_peer_faults() {
  local build_dir="$1"
  echo "==> bench-peer-faults ${build_dir}"
  "${build_dir}/bench/peer_faults" \
    --json="${build_dir}/BENCH_peer_faults.json" >/dev/null
}

run_suite "${repo}/build"
fuzz_smoke "${repo}/build"
incremental_smoke "${repo}/build"
server_smoke "${repo}/build"
durability_smoke "${repo}/build"
trace_check "${repo}/build"
bench_peer_faults "${repo}/build"
bench_incremental "${repo}/build"
bench_wal "${repo}/build"
kill_recover_smoke "${repo}/build"
perfbench_selftest "${repo}/build"
if [[ "${sanitize}" -eq 1 ]]; then
  # The dist suite (PeersFault/Snapshot/FaultSpec + Deadline) runs in the
  # full ctest sweep, so ASan covers the transport/crash-recovery paths.
  # The incremental sweep repeats under ASan because maintenance is where
  # the erase journals recycle tuple nodes — the use-after-free surface.
  # The durability sweep repeats under ASan because recovery replays
  # attacker-shaped (torn, bit-flipped) WAL bytes — the parser surface.
  run_suite "${repo}/build-asan" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DUNCHAINED_SANITIZE=ON
  fuzz_smoke "${repo}/build-asan"
  incremental_smoke "${repo}/build-asan"
  server_smoke "${repo}/build-asan"
  durability_smoke "${repo}/build-asan"
  trace_check "${repo}/build-asan"
  bench_peer_faults "${repo}/build-asan"
fi
if [[ "${tsan}" -eq 1 ]]; then
  # The evaluation-layer tests exercise the one parallel evaluation path,
  # the stable-model candidate fan-out (ParallelChunksTest its
  # ParallelChunks substrate), and run every engine at 1/2/8 threads to
  # show the rest stay on one thread;
  # Trace/Obs covers the observability ring buffers and shard merges;
  # Peers/Dist/Fault/Deadline/Cancel covers the fault-tolerant peer runs
  # and the deadline/cancellation checks before every stable-model
  # candidate, made from every ParallelChunks worker;
  # RowSet covers the flat row sets of incremental maintenance
  # (docs/storage.md);
  # Incremental/Retract/Dred/Counting covers IncrementalView maintenance
  # and the erase-journal index replay (the IncrementalRandomSweep drives
  # its scratch reference engines at 1/2/8 threads);
  # Server/Session/Epoch/Reclaim covers the concurrent Datalog server
  # (docs/server.md) — the writer role passed between update callers'
  # threads, reads served on 1/2/8 client threads and on connection pumps
  # while a caller publishes and Stop closes the pumps and drains the
  # queue, MVCC snapshot pin/unpin reclamation, the gather-write framing
  # over sockets and the in-process pair, the wire/session parsers, and
  # mutated request streams fed through Serve;
  # Wal/Snapshotter/Recover/Durab covers the durability layer
  # (docs/durability.md) — the WAL appends and compaction made by
  # whichever caller holds the writer role, against concurrent readers
  # and against clients interning fresh values into the shared symbol
  # table, and the restart/recovery paths;
  # Tuple|Matcher covers the inline-storage Tuple and the rule matcher's
  # match states, recycled through per-thread free lists, which the
  # stable-model workers run concurrently over one shared input instance.
  run_suite "${repo}/build-tsan" \
    "--tests-regex=Tuple|Matcher|Parallel|Datalog|Stratified|WellFounded|Inflationary|NonInflationary|Stable|Engine|SemiNaive|Naive|RandomProgram|Trace|Obs|Metrics|Tracer|Peer|Dist|Deadline|Cancel|Fault|Snapshot|RowSet|Incremental|Retract|Dred|Counting|Server|Session|Epoch|Reclaim|Wal|Snapshotter|Recover|Durab" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DUNCHAINED_TSAN=ON
  # The role hand-off between update callers is where a race would hide,
  # and one clean run of a racy interleaving proves little, so the
  # threaded server and durability suites run ten more times.
  echo "==> ctest ${repo}/build-tsan (threaded server suites, 10 repeats)"
  (cd "${repo}/build-tsan" && ctest --output-on-failure -j "${jobs}" \
    --repeat until-fail:10 --tests-regex "ServerThreaded|ServerDurability")
fi

echo "==> all checks passed"
