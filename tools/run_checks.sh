#!/usr/bin/env bash
# run_checks.sh: tier-1 tests in the default configuration, usage-error
# checks of lls_opt and lls_fuzz (an unknown option, a bad --flow value, an
# option outside the mode or flow that reads it, a removed --cache-mode
# value or fault kind, or two --batch --out-dir inputs with one basename
# exits 2 and names the argument before any input is read; an unreadable
# input exits before the memo store is opened; an output file that cannot
# be written exits 15; --flow abc with --jobs reports no job count and no
# engine memo), nine suites (SAT, CEC,
# SOP, truth-table, AIG and cuts, lookahead, simulation, network and SPCF)
# in a Debug build (the only stage where the LLS_DCHECK invariant checks
# run, among them the index checks of inline truth-table words and cut
# leaves),
# a budgeted determinism check of the CLI (same circuit + work budget at
# several --jobs values must produce byte-identical outputs), a batch invariance
# check (outputs byte-identical across --jobs 1/2/4 x cold/warm persistent
# store while the items split --jobs between their own pools, a one-item
# batch at --jobs 4 equal to the serial one, and stores seeded at --jobs 1
# and 4 holding the same shard contents), fault-injection checks of the
# containment subsystem (outputs and fault journals identical across
# --jobs) with the full suite re-run under AddressSanitizer,
# checkpoint/resume checks (a journal cut back to its first entry resumes
# byte-identically, also with more threads than items, then a resume with
# nothing left to run; a failed journal append exits 15 and resumes),
# persistent-memo-store checks (cold stores
# with the same shard contents at --jobs 1 and 4, warm runs byte-identical
# to cold across --jobs, with the same per-round log and fault lines;
# corrupted stores and stores of an older format version degrade to cold
# start), graceful-shutdown
# checks (SIGTERM while the input is read from a FIFO must exit 30 at once
# with the metrics written and no output; after the end-of-run epilogue a
# first signal changes nothing and a second kills; SIGTERM mid-batch must
# exit 30, leave a journal of whole lines and a flushed store, and --resume
# must warm-start and reproduce the uninterrupted bytes), then the
# concurrency-sensitive engine/shutdown/parse/io/persist tests — including
# the nested-parallel_for deadlock regressions in test_thread_pool and the
# forked signal-thread children of test_shutdown — under ThreadSanitizer.
#
#   tools/run_checks.sh [--skip-tsan]
#
# Exit code is nonzero if any stage fails.
set -euo pipefail

cd "$(dirname "$0")/.."
REPO="$PWD"
JOBS="$(nproc 2>/dev/null || echo 2)"
SKIP_TSAN=0
[[ "${1:-}" == "--skip-tsan" ]] && SKIP_TSAN=1

echo "== stage 1: tier-1 tests (RelWithDebInfo) =="
cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure -j "$JOBS")

echo "== stage 1a: usage errors name the rejected argument =="
# Each exits 2 with the usage text and names the bad argument on stderr: an
# unknown lls_opt option (the deleted per-cone watchdog flag), a bad --flow
# value (rejected while parsing, before the input is read, so nothing is
# printed on stdout), --cache-dir with a flow that never reads the engine's
# memos, and an unknown lls_fuzz option (not read as the iteration count).
# Then every lls_opt option that its mode or flow would ignore, the removed
# --cache-mode values, fault specs outside the kind@site grammar (the
# retired crash hook, a count, the removed `cancel` kind and its `cancelled`
# spelling, an unknown site), and a second --batch --out-dir input with the
# basename of an earlier one: each is rejected before the input is read, so
# a missing input does not turn them into an I/O error (15).
WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT
expect_usage_error() {  # <rejected argument> <command...>
    local rejected="$1" rc=0
    shift
    "$@" > "$WORKDIR/usage.out" 2> "$WORKDIR/usage.err" || rc=$?
    [[ "$rc" == 2 ]] || { echo "expected exit 2 from '$*', got $rc"; exit 1; }
    grep -qF -- "'$rejected'" "$WORKDIR/usage.err" || {
        echo "stderr of '$*' does not name '$rejected'"; cat "$WORKDIR/usage.err"; exit 1; }
    grep -q '^usage:' "$WORKDIR/usage.err" || { echo "no usage text from '$*'"; exit 1; }
}
# The per-round log and fault lines of an lls_opt log (iter lines need --stats).
journal() { grep -E '^  iter |fault\(s\) contained|^  fault ' "$1" || true; }
# The sorted content hashes of a store's shards: equal for two stores that
# hold the same shards under different (entropy-unique) names.
store_contents() { (cd "$1" && sha1sum -- *.shard | cut -d' ' -f1 | sort); }
expect_usage_error --cone-deadline ./build/tools/lls_opt --cone-deadline 30s \
    tests/data/rca16.blif "$WORKDIR/usage.blif"
expect_usage_error xyz ./build/tools/lls_opt --flow xyz tests/data/rca16.blif "$WORKDIR/usage.blif"
[[ ! -s "$WORKDIR/usage.out" ]] || { echo "--flow xyz printed on stdout"; exit 1; }
expect_usage_error --cache-dir ./build/tools/lls_opt --flow abc --cache-dir "$WORKDIR/usage_cache" \
    tests/data/rca16.blif "$WORKDIR/usage.blif"
expect_usage_error --deadline ./build/tools/lls_fuzz --deadline 1
MISSING="$WORKDIR/missing.blif"
for flow in sis abc dc; do
    expect_usage_error --batch ./build/tools/lls_opt --flow "$flow" --batch "$MISSING"
done
expect_usage_error --iterations ./build/tools/lls_opt --flow abc --iterations 3 "$MISSING"
expect_usage_error --work-budget ./build/tools/lls_opt --flow sis --work-budget 5 "$MISSING"
expect_usage_error --time-budget ./build/tools/lls_opt --flow dc --time-budget 5s "$MISSING"
expect_usage_error --fault-inject ./build/tools/lls_opt --flow abc \
    --fault-inject resource@decompose "$MISSING"
expect_usage_error --out-dir ./build/tools/lls_opt --out-dir "$WORKDIR/usage_out" "$MISSING"
[[ ! -e "$WORKDIR/usage_out" ]] || { echo "a rejected --out-dir was created"; exit 1; }
expect_usage_error --checkpoint ./build/tools/lls_opt --checkpoint "$WORKDIR/usage.ckpt" "$MISSING"
for spec in fatal@batch:1 resource@decompose:1 cancel@decompose cancelled@decompose \
    resource@decompse; do
    expect_usage_error --fault-inject ./build/tools/lls_opt --fault-inject "$spec" "$MISSING"
done
expect_usage_error "$WORKDIR/b/x.blif" ./build/tools/lls_opt --batch --out-dir "$WORKDIR/usage_out" \
    "$WORKDIR/a/x.blif" "$WORKDIR/b/x.blif"
expect_usage_error --resume ./build/tools/lls_opt --batch --resume "$MISSING"
expect_usage_error --aiger ./build/tools/lls_opt --batch --aiger "$WORKDIR/usage.aag" "$MISSING"
expect_usage_error --verilog ./build/tools/lls_opt --batch --verilog "$WORKDIR/usage.v" "$MISSING"
expect_usage_error --map ./build/tools/lls_opt --batch --map "$MISSING"
expect_usage_error --stats ./build/tools/lls_opt --batch --stats "$MISSING"
expect_usage_error --cache-mode ./build/tools/lls_opt --cache-mode read "$MISSING"
for mode in off write; do
    expect_usage_error --cache-mode ./build/tools/lls_opt --cache-dir "$WORKDIR/usage_cache" \
        --cache-mode "$mode" "$MISSING"
done
# --jobs is accepted with every flow (scripts pass it), but sis|abc|dc run
# on one thread and consult no engine memo: their summary names no job
# count and --metrics lists no memo.
./build/tools/lls_opt --flow abc --jobs 4 --metrics tests/data/rca16.blif "$WORKDIR/usage.blif" \
    > "$WORKDIR/usage.out"
! grep -qE 'jobs\)|decompose_memo' "$WORKDIR/usage.out" || {
    echo "--flow abc reports a job count or an engine memo"; cat "$WORKDIR/usage.out"; exit 1; }
# An unreadable input is an I/O error (15), reported before the memo store
# is opened: no store load, no persist: line.
rc=0
./build/tools/lls_opt --cache-dir "$WORKDIR/usage_cache" "$WORKDIR/missing.blif" \
    > "$WORKDIR/usage.out" 2> /dev/null || rc=$?
[[ "$rc" == 15 ]] && ! grep -q '^persist:' "$WORKDIR/usage.out" || {
    echo "a missing input must exit 15 before the store opens (exit $rc)"; exit 1; }
# An output file that cannot be opened (a missing directory) or written
# whole (/dev/full) is an I/O error (15), for each of the three outputs.
for target in "$WORKDIR/no_such_dir/out" /dev/full; do
    for output in blif --aiger --verilog; do
        out_args=("$WORKDIR/usage.blif")
        if [[ "$output" == blif ]]; then out_args=("$target"); else out_args+=("$output" "$target"); fi
        rc=0
        ./build/tools/lls_opt --iterations 1 tests/data/rca16.blif "${out_args[@]}" \
            > /dev/null 2> "$WORKDIR/usage.err" || rc=$?
        [[ "$rc" == 15 ]] || {
            echo "expected exit 15 writing $output to $target, got $rc"; cat "$WORKDIR/usage.err"; exit 1; }
    done
done
echo "usage errors exit 2 and name the rejected argument; a missing input opens no store;" \
    "unwritable outputs exit 15"

echo "== stage 1b: LLS_DCHECK invariants (Debug) =="
# Every other stage builds with NDEBUG, which compiles LLS_DCHECK out. These
# suites reach the solver's watch, trail and order-heap checks, the
# truth-table and SOP internals (the index checks of inline truth-table
# words and of cut leaves, which no standard-library assertion covers:
# test_tt, test_aig), the SAT sweep's on-demand encoder, which must encode
# every node after both of its fanins (test_cec), and the bit-sliced
# timing simulation's no-overflow
# check (test_sim, test_spcf) next to the word-parallel node evaluation
# (test_network); the stage takes under a minute on 4 cores.
DEBUG_TESTS=(test_sat test_cec test_sop test_tt test_aig test_lookahead test_sim test_network
             test_spcf)
cmake -B build-debug -S . -DCMAKE_BUILD_TYPE=Debug
cmake --build build-debug -j "$JOBS" --target "${DEBUG_TESTS[@]}"
for t in "${DEBUG_TESTS[@]}"; do
    "build-debug/tests/$t" --gtest_brief=1
done

echo "== stage 2: budgeted determinism across job counts =="
# The core claim of the deterministic work budget: exhausting it must cut
# the run at the same round on every thread schedule, so the output files
# are byte-identical across --jobs. Checked on both regression circuits.
for circuit in tests/data/rca16.blif tests/data/control24.blif; do
    name="$(basename "$circuit" .blif)"
    for j in 1 2 4; do
        ./build/tools/lls_opt --work-budget 200 --jobs "$j" --iterations 6 \
            "$circuit" "$WORKDIR/$name.j$j.blif" > /dev/null
    done
    cmp "$WORKDIR/$name.j1.blif" "$WORKDIR/$name.j2.blif"
    cmp "$WORKDIR/$name.j1.blif" "$WORKDIR/$name.j4.blif"
    echo "$name: budgeted outputs identical for --jobs 1/2/4"
done

echo "== stage 2c: batch outputs are invariant across --jobs x cold/warm store =="
# How a batch splits --jobs between its items, the intra-cone fan-out and
# the persistent memo store are execution details: batch outputs must be
# byte-identical across --jobs 1/2/4, cold or replayed from a store. --jobs
# 1 cold is the strictly serial reference; at --jobs 4 each of the two
# items fans its cones and per-cube SAT proofs out on two threads, and a
# one-item batch fans out on all four.
for j in 1 2 4; do
    ./build/tools/lls_opt --batch --jobs "$j" --out-dir "$WORKDIR/batch.j$j" \
        tests/data/rca16.blif tests/data/control24.blif > /dev/null
done
./build/tools/lls_opt --batch --jobs 4 --out-dir "$WORKDIR/batch.one.j4" \
    tests/data/rca16.blif > /dev/null
cmp "$WORKDIR/batch.j1/rca16.blif" "$WORKDIR/batch.one.j4/rca16.blif"
# Seed a store with a --jobs 1 run, then replay it read-only at every job
# count. A second store seeded at --jobs 4, where the items flush
# concurrently, must hold the same shard contents.
BATCHCACHE="$WORKDIR/batch_cache"
./build/tools/lls_opt --batch --jobs 1 --cache-dir "$BATCHCACHE" \
    --out-dir "$WORKDIR/batch.seed" tests/data/rca16.blif tests/data/control24.blif > /dev/null
./build/tools/lls_opt --batch --jobs 4 --cache-dir "$WORKDIR/batch_cache.j4" \
    --out-dir "$WORKDIR/batch.seed.j4" tests/data/rca16.blif tests/data/control24.blif > /dev/null
store_contents "$BATCHCACHE" > "$WORKDIR/batch_cache.contents"
store_contents "$WORKDIR/batch_cache.j4" | cmp "$WORKDIR/batch_cache.contents" - || {
    echo "stores seeded at --jobs 1 and 4 hold different shards"; exit 1; }
for j in 1 2 4; do
    ./build/tools/lls_opt --batch --jobs "$j" --cache-dir "$BATCHCACHE" --cache-mode read \
        --out-dir "$WORKDIR/batch.j$j.warm" \
        tests/data/rca16.blif tests/data/control24.blif > "$WORKDIR/batch.j$j.warm.log"
    grep -q "persist: warm start" "$WORKDIR/batch.j$j.warm.log" || {
        echo "expected a warm start from the seeded store at --jobs $j"; exit 1; }
done
for name in rca16 control24; do
    for out in batch.j2 batch.j4 batch.seed batch.seed.j4 batch.j1.warm batch.j2.warm \
        batch.j4.warm; do
        cmp "$WORKDIR/batch.j1/$name.blif" "$WORKDIR/$out/$name.blif"
    done
done
echo "batch outputs identical across --jobs 1/2/4 x cold/warm and for a one-item batch;" \
    "seeded stores identical"

echo "== stage 3: fault injection never aborts and stays jobs-invariant =="
# Every engine site class, injected on the regression circuits: the run must
# exit 0 (contained, not crashed), verify equivalence, and produce the same
# bytes and fault summary lines at every --jobs value. The decompose and spcf
# sites are reached by every cone, so those runs must also report at least
# one contained fault — proof that the injection fired. Plus a short fuzz run
# with injection enabled.
for spec in resource@decompose invariant@spcf solver@sat verify@cec; do
    for circuit in tests/data/rca16.blif tests/data/control24.blif; do
        name="$(basename "$circuit" .blif)"
        tag="${spec//@/_}"
        for j in 1 2 4; do
            ./build/tools/lls_opt --fault-inject "$spec" --jobs "$j" --iterations 6 \
                "$circuit" "$WORKDIR/$name.$tag.j$j.blif" > "$WORKDIR/$name.$tag.j$j.log"
            journal "$WORKDIR/$name.$tag.j$j.log" > "$WORKDIR/$name.$tag.j$j.faults"
        done
        for j in 2 4; do
            cmp "$WORKDIR/$name.$tag.j1.blif" "$WORKDIR/$name.$tag.j$j.blif"
            cmp "$WORKDIR/$name.$tag.j1.faults" "$WORKDIR/$name.$tag.j$j.faults"
        done
        if [[ "$spec" == resource@decompose || "$spec" == invariant@spcf ]]; then
            grep -q "/$name\.blif: [1-9][0-9]* fault(s) contained" "$WORKDIR/$name.$tag.j1.log" || {
                echo "expected $spec to fire on at least one cone of $name"; exit 1; }
        fi
        echo "$name: $spec contained, outputs and fault lines identical for --jobs 1/2/4"
    done
done
# From inside WORKDIR so a failure's fuzz_corpus/ lands in the temp dir.
(cd "$WORKDIR" && "$REPO/build/tools/lls_fuzz" 3 4242 --fault-inject resource@decompose)
# Store-file mutation fuzzing: random corruption of published shards must
# always degrade to a byte-identical cold recompute, never a crash.
(cd "$WORKDIR" && "$REPO/build/tools/lls_fuzz" --mutate-store 3 4242)
# The full test suite again under AddressSanitizer: the per-cone fault
# boundary's throw/catch/degrade path, injected std::bad_alloc included,
# must be leak- and corruption-free, not just functionally right. The address
# build also bounds-checks std::vector and std::span indexing
# (_GLIBCXX_ASSERTIONS), which covers the truth-table kernels' word
# arithmetic (they index the table's own words through a span); the inline
# words and cut leaves are plain arrays inside their objects, so their
# accessors' index checks run in stage 1b instead.
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DLLS_SANITIZE=address
cmake --build build-asan -j "$JOBS"
(cd build-asan && ctest --output-on-failure -j "$JOBS")

echo "== stage 4: interrupted checkpoint + resume is byte-identical =="
# Run the journaled batch to completion; then make the state a crash after
# one journaled circuit leaves behind: cut the journal back to its header
# and first entry, and delete the other item's output. Resuming must skip
# the journaled item and re-run the other to the uninterrupted bytes, at
# --jobs 2 and at --jobs 4 (more threads than items, so the resumed item
# runs alone on all four).
./build/tools/lls_opt --batch tests/data/rca16.blif tests/data/control24.blif \
    --out-dir "$WORKDIR/full" --jobs 2 --checkpoint "$WORKDIR/full-ckpt.txt" > /dev/null
for j in 2 4; do
    cp -r "$WORKDIR/full" "$WORKDIR/resumed-j$j"
    head -n 2 "$WORKDIR/full-ckpt.txt" > "$WORKDIR/ckpt-j$j.txt"
    first="$(sed -n 2p "$WORKDIR/ckpt-j$j.txt" | cut -f1)"
    for name in rca16 control24; do
        [[ "$first" == "tests/data/$name.blif" ]] || rm "$WORKDIR/resumed-j$j/$name.blif"
    done
    ./build/tools/lls_opt --batch tests/data/rca16.blif tests/data/control24.blif \
        --out-dir "$WORKDIR/resumed-j$j" --jobs "$j" --checkpoint "$WORKDIR/ckpt-j$j.txt" \
        --resume > "$WORKDIR/resumed-j$j.log"
    grep -qF "$first: skipped (already journaled)" "$WORKDIR/resumed-j$j.log" || {
        echo "expected the journaled $first to be skipped at --jobs $j"; exit 1; }
    cmp "$WORKDIR/full/rca16.blif" "$WORKDIR/resumed-j$j/rca16.blif"
    cmp "$WORKDIR/full/control24.blif" "$WORKDIR/resumed-j$j/control24.blif"
done
echo "checkpoint/resume outputs identical to uninterrupted run at --jobs 2 and 4"
# Resuming once more finds every item journaled: the batch is empty, exits
# 0, skips both inputs and leaves their outputs as they were.
./build/tools/lls_opt --batch tests/data/rca16.blif tests/data/control24.blif \
    --out-dir "$WORKDIR/resumed-j4" --jobs 4 \
    --checkpoint "$WORKDIR/ckpt-j4.txt" --resume > "$WORKDIR/resumed-empty.log"
for name in rca16 control24; do
    grep -qF "tests/data/$name.blif: skipped (already journaled)" "$WORKDIR/resumed-empty.log" || {
        echo "expected $name to be skipped on a fully journaled resume"
        cat "$WORKDIR/resumed-empty.log"; exit 1; }
    cmp "$WORKDIR/full/$name.blif" "$WORKDIR/resumed-j4/$name.blif"
done
echo "fully journaled --resume runs an empty batch: exit 0, both inputs skipped"

echo "== stage 4a: a failed journal append exits 15 and --resume completes =="
# 30 circuits with 210-character stems under an 8 KiB file-size limit: every
# output (7249 bytes at --iterations 2) fits, but the journal's 30th line
# crosses the limit and its append fails mid-line. The batch must stop with
# the I/O exit code (15), not abort; --resume drops the torn line, re-runs
# that item and leaves all 30 outputs byte-identical to an uninterrupted
# run; one more --resume skips every input. The limit sits in a subshell,
# so it binds only that run.
APPEND="$WORKDIR/append"
mkdir -p "$APPEND/in"
STEM="$(printf 'a%.0s' $(seq 1 208))"
for i in $(seq -w 1 30); do cp tests/data/rca16.blif "$APPEND/in/$STEM$i.blif"; done
append_batch() {  # <out-dir> <option...>
    local out="$1"
    shift
    (cd "$APPEND" && "$REPO/build/tools/lls_opt" --batch --jobs 2 --iterations 2 \
        --out-dir "$out" "$@" in/*.blif)
}
append_batch full > /dev/null
rc=0
(trap '' XFSZ; ulimit -f 8; append_batch out --checkpoint ckpt.txt > /dev/null \
    2> "$APPEND/err.txt") || rc=$?
[[ "$rc" == 15 ]] || { echo "expected a failed journal append to exit 15, got $rc"
    cat "$APPEND/err.txt"; exit 1; }
grep -q 'error writing checkpoint' "$APPEND/err.txt" || {
    echo "missing the journal write error"; cat "$APPEND/err.txt"; exit 1; }
[[ -n "$(tail -c 1 "$APPEND/ckpt.txt")" ]] || { echo "expected a torn last journal line"; exit 1; }
append_batch out --checkpoint ckpt.txt --resume > /dev/null
[[ "$(ls "$APPEND/full" | wc -l)" == 30 ]] || { echo "expected 30 uninterrupted outputs"; exit 1; }
for f in "$APPEND"/full/*.blif; do cmp "$f" "$APPEND/out/$(basename "$f")"; done
append_batch out --checkpoint ckpt.txt --resume > "$APPEND/resume-empty.log"
[[ "$(grep -c 'skipped (already journaled)' "$APPEND/resume-empty.log")" == 30 ]] || {
    echo "expected all 30 inputs skipped on a fully journaled resume"; exit 1; }
echo "failed journal append: exit 15, torn line dropped, resumed outputs byte-identical"

echo "== stage 4b: persistent store warm runs are byte-identical =="
# Cold run populates the cache directory; a cold run at --jobs 4 must
# write the same shard contents. Warm runs at several --jobs values must
# replay to byte-identical AIGER output, the same per-round `iter` log
# lines and fault lines, with warm hits > 0.
CACHE="$WORKDIR/memo_cache"
./build/tools/lls_opt --cache-dir "$CACHE" --jobs 1 --iterations 6 --stats \
    --aiger "$WORKDIR/persist.cold.aag" \
    tests/data/rca16.blif "$WORKDIR/persist.cold.blif" > "$WORKDIR/persist.cold.log"
./build/tools/lls_opt --cache-dir "$WORKDIR/memo_cache.j4" --jobs 4 --iterations 6 \
    tests/data/rca16.blif "$WORKDIR/persist.cold.j4.blif" > /dev/null
cmp "$WORKDIR/persist.cold.blif" "$WORKDIR/persist.cold.j4.blif"
store_contents "$CACHE" | cmp - <(store_contents "$WORKDIR/memo_cache.j4") || {
    echo "cold stores written at --jobs 1 and 4 hold different shards"; exit 1; }
journal "$WORKDIR/persist.cold.log" > "$WORKDIR/persist.cold.journal"
grep -q '^  iter ' "$WORKDIR/persist.cold.journal" || { echo "no iter lines from --stats"; exit 1; }
for j in 1 2 4; do
    ./build/tools/lls_opt --cache-dir "$CACHE" --cache-mode read --jobs "$j" \
        --iterations 6 --stats --aiger "$WORKDIR/persist.warm.j$j.aag" \
        --metrics-json "$WORKDIR/persist.warm.j$j.json" \
        tests/data/rca16.blif "$WORKDIR/persist.warm.j$j.blif" > "$WORKDIR/persist.warm.j$j.log"
    cmp "$WORKDIR/persist.cold.aag" "$WORKDIR/persist.warm.j$j.aag"
    journal "$WORKDIR/persist.warm.j$j.log" | cmp "$WORKDIR/persist.cold.journal" -
    grep -q '"persist.warm_hits":0' "$WORKDIR/persist.warm.j$j.json" && {
        echo "expected persist.warm_hits > 0 at --jobs $j"; exit 1; }
    grep -q '"persist.warm_hits":' "$WORKDIR/persist.warm.j$j.json" || {
        echo "persist.warm_hits missing from metrics JSON"; exit 1; }
done
echo "cold stores identical for --jobs 1/4"
echo "warm outputs, iter and fault lines identical to cold for --jobs 1/2/4, warm hits recorded"

echo "== stage 4c: corrupted or stale store degrades to cold start, not failure =="
# Truncate and bit-flip every shard: the run must exit 0, report a cold
# start, and still produce the same bytes (recomputed).
CORRUPT="$WORKDIR/memo_corrupt"
cp -r "$CACHE" "$CORRUPT"
for f in "$CORRUPT"/*.shard; do
    size=$(stat -c %s "$f")
    head -c "$((size / 2))" "$f" > "$f.t" && mv "$f.t" "$f"
    printf '\377' | dd of="$f" bs=1 seek=12 conv=notrunc status=none
done
./build/tools/lls_opt --cache-dir "$CORRUPT" --cache-mode read --jobs 2 \
    --iterations 6 --aiger "$WORKDIR/persist.corrupt.aag" \
    tests/data/rca16.blif "$WORKDIR/persist.corrupt.blif" > "$WORKDIR/persist.corrupt.log"
grep -q "persist: cold start" "$WORKDIR/persist.corrupt.log" || {
    echo "expected cold-start fallback on corrupted store"; exit 1; }
cmp "$WORKDIR/persist.cold.aag" "$WORKDIR/persist.corrupt.aag"
echo "corrupted store contained: cold start, byte-identical output"
# A store written by a build of format version 1 holds cone costs this
# build would charge differently: every shard must be rejected by name and
# the run must start cold, with the same bytes.
STALE="$WORKDIR/memo_stale"
cp -r "$CACHE" "$STALE"
for f in "$STALE"/*.shard; do
    printf '\x01\x00\x00\x00' | dd of="$f" bs=1 seek=8 conv=notrunc status=none
done
./build/tools/lls_opt --cache-dir "$STALE" --cache-mode read --jobs 2 \
    --iterations 6 --aiger "$WORKDIR/persist.stale.aag" \
    tests/data/rca16.blif "$WORKDIR/persist.stale.blif" \
    > "$WORKDIR/persist.stale.log" 2> "$WORKDIR/persist.stale.err"
grep -q "persist: cold start" "$WORKDIR/persist.stale.log" || {
    echo "expected cold-start fallback on a version-1 store"; exit 1; }
grep -q "^persist: rejected shard: .*format version 1, expected 2" "$WORKDIR/persist.stale.err" || {
    echo "expected a format-version rejection note"; cat "$WORKDIR/persist.stale.err"; exit 1; }
cmp "$WORKDIR/persist.cold.aag" "$WORKDIR/persist.stale.aag"
echo "version-1 store rejected by name: cold start, byte-identical output"

echo "== stage 4d: SIGTERM ends the run at once; mid-batch it is resumable =="
# A signal is handled by lls_opt's signal thread, not polled by the
# library, so it ends a run that is still reading its input: lls_opt blocks
# reading a FIFO once the shell's open for writing has returned, and SIGTERM
# must end it within a second with exit 30, the shutdown line and the
# metrics file, and no output written.
FIFO="$WORKDIR/sig-fifo.blif"
mkfifo "$FIFO"
./build/tools/lls_opt --metrics-json "$WORKDIR/sig-fifo.json" "$FIFO" "$WORKDIR/sig-fifo.out.blif" \
    > "$WORKDIR/sig-fifo.log" 2>&1 &
FIFO_PID=$!
exec 3> "$FIFO"
kill -TERM "$FIFO_PID"
deadline=$(( $(date +%s%N) + 1000000000 ))
while kill -0 "$FIFO_PID" 2>/dev/null && (( $(date +%s%N) < deadline )); do sleep 0.01; done
if kill -0 "$FIFO_PID" 2>/dev/null; then
    echo "lls_opt still running 1 s after SIGTERM while reading a FIFO"
    exec 3>&-
    wait "$FIFO_PID" || true
    exit 1
fi
rc=0
wait "$FIFO_PID" || rc=$?
exec 3>&-
[[ "$rc" == 30 ]] || { echo "expected exit 30 from a FIFO read, got $rc"; cat "$WORKDIR/sig-fifo.log"; exit 1; }
grep -q "terminated by signal 15" "$WORKDIR/sig-fifo.log" || {
    echo "missing shutdown diagnostic"; cat "$WORKDIR/sig-fifo.log"; exit 1; }
[[ -s "$WORKDIR/sig-fifo.json" ]] || { echo "metrics not written on shutdown"; exit 1; }
[[ ! -e "$WORKDIR/sig-fifo.out.blif" ]] || { echo "an output was written on shutdown"; exit 1; }
echo "SIGTERM during a FIFO read: exit 30 within 1 s, metrics written, no output"
# After the end-of-run epilogue (the metrics file is written) the run is
# disarmed: lls_opt blocks opening an output FIFO that nobody reads, a
# SIGTERM there changes nothing, and a second signal (SIGINT) must still
# kill it (exit 130) within a second.
OUT_FIFO="$WORKDIR/sig-out-fifo.blif"
mkfifo "$OUT_FIFO"
./build/tools/lls_opt --metrics-json "$WORKDIR/sig-out.json" tests/data/rca16.blif "$OUT_FIFO" \
    > "$WORKDIR/sig-out.log" 2>&1 &
OUT_PID=$!
while [[ ! -s "$WORKDIR/sig-out.json" ]] && kill -0 "$OUT_PID" 2>/dev/null; do sleep 0.01; done
kill -TERM "$OUT_PID" 2>/dev/null || true
sleep 0.3
kill -0 "$OUT_PID" 2>/dev/null || {
    rc=0; wait "$OUT_PID" || rc=$?
    echo "a disarmed lls_opt ended on its first signal (exit $rc)"; cat "$WORKDIR/sig-out.log"; exit 1; }
kill -INT "$OUT_PID"
deadline=$(( $(date +%s%N) + 1000000000 ))
while kill -0 "$OUT_PID" 2>/dev/null && (( $(date +%s%N) < deadline )); do sleep 0.01; done
if kill -0 "$OUT_PID" 2>/dev/null; then
    echo "a disarmed lls_opt still running 1 s after a second signal"
    kill -KILL "$OUT_PID"; wait "$OUT_PID" || true
    exit 1
fi
rc=0
wait "$OUT_PID" || rc=$?
[[ "$rc" == 130 ]] || { echo "expected exit 130 from the second signal, got $rc"; exit 1; }
echo "after the epilogue: a first signal changes nothing, a second kills (exit 130)"
# A larger batch (distinct copies so names stay unique in the journal and
# out-dir) with a persistent store, killed with SIGTERM mid-flight: the
# process must exit with the documented resumable-shutdown code (30), leave
# a journal of whole lines, one per finished item, and a flushed store, and
# --resume must warm-start from it and complete the batch with outputs
# byte-identical to an uninterrupted run. The signal goes out once the
# journal holds its first finished circuit (a tab-separated entry line), not
# after a fixed sleep, which the whole batch can outrun.
SIG_INPUTS=()
for i in 1 2 3 4 5 6; do
    cp tests/data/rca16.blif "$WORKDIR/sig_rca$i.blif"
    cp tests/data/control24.blif "$WORKDIR/sig_ctl$i.blif"
    SIG_INPUTS+=("$WORKDIR/sig_rca$i.blif" "$WORKDIR/sig_ctl$i.blif")
done
./build/tools/lls_opt --batch --jobs 2 --iterations 6 \
    --out-dir "$WORKDIR/sig-full" "${SIG_INPUTS[@]}" > /dev/null
SIG_RUN=(./build/tools/lls_opt --batch --jobs 2 --iterations 6 --cache-dir "$WORKDIR/sig-cache"
         --out-dir "$WORKDIR/sig-resumed" --checkpoint "$WORKDIR/sig-ckpt.txt")
rc=0
"${SIG_RUN[@]}" "${SIG_INPUTS[@]}" > "$WORKDIR/sig.log" 2>&1 &
SIG_PID=$!
while ! grep -q $'\t' "$WORKDIR/sig-ckpt.txt" 2>/dev/null && kill -0 "$SIG_PID" 2>/dev/null; do
    sleep 0.01
done
kill -TERM "$SIG_PID" 2>/dev/null || true
wait "$SIG_PID" || rc=$?
[[ "$rc" == 30 ]] || { echo "expected signal-shutdown exit 30, got $rc"; cat "$WORKDIR/sig.log"; exit 1; }
grep -q "terminated by signal 15" "$WORKDIR/sig.log" || {
    echo "missing shutdown diagnostic"; cat "$WORKDIR/sig.log"; exit 1; }
[[ -f "$WORKDIR/sig-ckpt.txt" && -z "$(tail -c 1 "$WORKDIR/sig-ckpt.txt")" ]] || {
    echo "journal missing or torn after shutdown"; exit 1; }
compgen -G "$WORKDIR/sig-cache/*.shard" > /dev/null || { echo "no store shards after shutdown"; exit 1; }
"${SIG_RUN[@]}" --resume "${SIG_INPUTS[@]}" > "$WORKDIR/sig-resume.log"
grep -q "persist: warm start" "$WORKDIR/sig-resume.log" || {
    echo "expected --resume to warm-start from the flushed store"; exit 1; }
for i in 1 2 3 4 5 6; do
    cmp "$WORKDIR/sig-full/sig_rca$i.blif" "$WORKDIR/sig-resumed/sig_rca$i.blif"
    cmp "$WORKDIR/sig-full/sig_ctl$i.blif" "$WORKDIR/sig-resumed/sig_ctl$i.blif"
done
echo "SIGTERM mid-batch: exit 30, journal whole, store flushed, resumed outputs byte-identical"

if [[ "$SKIP_TSAN" == 1 ]]; then
    echo "== stage 5: skipped (--skip-tsan) =="
    exit 0
fi

echo "== stage 5: engine + shutdown + persist tests under ThreadSanitizer =="
# test_engine includes the concurrent-items test: five batch items at once,
# each fanning its cones and per-cube SAT proofs out on a pool of its own
# while they share the process-wide memos. test_shutdown forks single-threaded
# and runs its signal thread in the children; TSan needs no die_after_fork=0
# for that.
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DLLS_SANITIZE=thread
cmake --build build-tsan -j "$JOBS" \
    --target test_thread_pool test_engine test_parse test_shutdown test_io \
             test_cache test_persist
(cd build-tsan && ctest -R 'test_thread_pool|test_engine|test_parse|test_shutdown|test_io|test_cache|test_persist' \
    --output-on-failure)

echo "== all checks passed =="
