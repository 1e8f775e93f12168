#!/bin/sh
# Local CI driver: the checks a change must pass before it merges.
#
#   1. tier-1: configure + build with warnings as errors + full
#      ctest suite;
#   2. source hygiene (tools/check_format.sh);
#   3. corpus static analysis: `rememberr check` against the
#      accepted-findings baseline (tools/check.baseline) — fails on
#      any finding not already baselined — plus a strict-JSON
#      validation of the SARIF artifact via jsonl_check --single;
#   4. snapshot determinism: write the binary snapshot at
#      --threads 1 and --threads 8, require byte-identical files,
#      then smoke a query through the --snapshot fast path;
#   5. live observability: a pipeline command run with
#      --metrics-interval 50 --log-json, with the JSONL metrics
#      series and the structured log stream both validated by
#      tools/jsonl_check;
#   6. tokenizer equivalence: `bench_parse --smoke` asserts the
#      table-driven tokenizer reproduces the cctype reference
#      hash-for-hash (tier-1's test_regex_pin pins the regex
#      decisions and spans);
#   7. serve daemon: start `rememberr serve` on an ephemeral port
#      against the snapshot from step 4, run `bench_serve --smoke`
#      (daemon responses must be bit-identical to in-process query
#      execution over cache miss, hit and pipelined paths), validate
#      the BENCH_serve.json schema with jsonl_check --single, then
#      SIGTERM the daemon and require a clean (graceful-drain) exit;
#   8. perfbench correctness gates: every workload for 2 s, which
#      fails on the pinned output hashes, parallel bit-identity,
#      serve responses byte-compared with in-process execution and
#      the cache hit-rate regimes (timings are printed, not judged);
#   9. clang-tidy via the check_tidy target (skips when clang-tidy
#      is not installed);
#  10. a ThreadSanitizer build running the concurrency-sensitive
#      tests (parallel executor, observability including the sharded
#      quantiles and the exporter thread, the literal prefilter
#      differential, the regex differential against the test-only
#      backtracking oracle — whose shared lazy-DFA cache is built
#      under concurrent scans — the
#      similarity kernels, which are scanned/scored concurrently
#      from dedup and foureyes shards, the serve stack, whose
#      sharded LRU cache and worker pool are hammered by concurrent
#      clients, and the automata decision procedures);
#  11. an AddressSanitizer + UndefinedBehaviorSanitizer build
#      running the whole tier-1 suite under ctest, with UBSan
#      findings fatal (halt_on_error): the parsers, the linear regex
#      engines and the test-only backtracking oracle, the similarity
#      kernels' window masks, the snapshot reader and
#      the query plan's mask walks and buffer appends all run
#      instrumented.
#
# Usage: tools/ci.sh [build-dir]   (default: build-ci)
# Exit status: nonzero on the first failing step.

set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-build-ci}
tsan_build=${build}-tsan
asan_build=${build}-asan
jobs=$(nproc 2>/dev/null || echo 4)

# The TSan target list, shared by the build and run loops below so
# the two can never drift apart.
tsan_tests="test_parallel test_obs test_obs_live
    test_similarity_kernels test_regex_differential test_serve
    test_automata"

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

step() {
    printf '\n==== ci: %s ====\n' "$*"
}

step "tier-1 build (${build})"
cmake -B "$root/$build" -S "$root" -DREMEMBERR_WERROR=ON > /dev/null
cmake --build "$root/$build" -j "$jobs"

step "tier-1 tests"
(cd "$root/$build" && ctest --output-on-failure -j "$jobs")

step "format check"
(cd "$root" && sh tools/check_format.sh)

step "corpus static analysis (rememberr check)"
"$root/$build/tools/rememberr_cli" check \
    --baseline="$root/tools/check.baseline" --threads=0
"$root/$build/tools/rememberr_cli" check \
    --baseline="$root/tools/check.baseline" --threads=0 \
    --format=sarif --out="$scratch/check.sarif"
"$root/$build/tools/jsonl_check" --single \
    --require '$schema',version,runs "$scratch/check.sarif"

step "snapshot determinism + --snapshot smoke"
snapdir="$scratch"
"$root/$build/tools/rememberr_cli" snapshot \
    --out="$snapdir/t1.snap" --threads=1
"$root/$build/tools/rememberr_cli" snapshot \
    --out="$snapdir/t8.snap" --threads=8
cmp "$snapdir/t1.snap" "$snapdir/t8.snap"
"$root/$build/tools/rememberr_cli" stats \
    --snapshot="$snapdir/t1.snap" > /dev/null
"$root/$build/tools/rememberr_cli" query \
    --snapshot="$snapdir/t1.snap" --vendor=amd --limit=1 > /dev/null

step "live observability (--metrics-interval, --log-json)"
"$root/$build/tools/rememberr_cli" stats \
    --seed=7 --metrics-interval=50 --log-json --verbose \
    --metrics-out="$snapdir/series.jsonl" \
    > /dev/null 2> "$snapdir/log.jsonl"
"$root/$build/tools/jsonl_check" \
    --require seq,elapsed_ms,counters,gauges,histograms,quantiles \
    "$snapdir/series.jsonl"
"$root/$build/tools/jsonl_check" \
    --require ts_us,level,thread,span,msg \
    "$snapdir/log.jsonl"
"$root/$build/tools/rememberr_cli" profile \
    --snapshot="$snapdir/t1.snap" > /dev/null

step "tokenizer equivalence (bench_parse --smoke)"
"$root/$build/bench/bench_parse" --smoke

step "serve daemon (equivalence, schema, graceful shutdown)"
"$root/$build/tools/rememberr_cli" serve \
    --snapshot="$snapdir/t1.snap" --port=0 \
    --port-file="$snapdir/port" > "$snapdir/serve.log" 2>&1 &
serve_pid=$!
tries=0
while [ ! -f "$snapdir/port" ] && [ "$tries" -lt 100 ]; do
    sleep 0.1
    tries=$((tries + 1))
done
[ -f "$snapdir/port" ] || {
    echo "serve daemon never published its port" >&2
    cat "$snapdir/serve.log" >&2
    exit 1
}
(cd "$snapdir" && "$root/$build/bench/bench_serve" --smoke \
    --port "$(cat "$snapdir/port")")
"$root/$build/tools/jsonl_check" --single \
    --require schema,equivalent,qps,latency_us,queries,cache,elided \
    "$snapdir/BENCH_serve.json"
kill -TERM "$serve_pid"
wait "$serve_pid"
grep -q "^served " "$snapdir/serve.log"

step "perfbench correctness gates (no timing verdict)"
(cd "$root" && python3 perfbench/run.py --workload all --seconds 2 \
    --trace 0)

step "clang-tidy"
cmake --build "$root/$build" --target check_tidy

step "thread-sanitizer build (${tsan_build})"
cmake -B "$root/$tsan_build" -S "$root" \
    -DREMEMBERR_SANITIZE=thread > /dev/null
# shellcheck disable=SC2086
cmake --build "$root/$tsan_build" -j "$jobs" --target $tsan_tests

step "thread-sanitizer tests"
for t in $tsan_tests; do
    "$root/$tsan_build/tests/$t"
done

step "address+undefined-behavior-sanitizer build (${asan_build})"
cmake -B "$root/$asan_build" -S "$root" \
    -DREMEMBERR_SANITIZE=address,undefined > /dev/null
cmake --build "$root/$asan_build" -j "$jobs"

step "address+undefined-behavior-sanitizer tests (whole tier-1 suite)"
(cd "$root/$asan_build" &&
    UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
        ctest --output-on-failure -j "$jobs")

step "all checks passed"
