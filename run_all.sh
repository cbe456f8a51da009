#!/bin/bash
# Usage: run_all.sh [--sanitize|--tsan|--chaos|--chaos-nightly [count]|--bench [tag]|--profile|--crash-restart|--docs-check [flag_table]]
#   default     run the test suite + every bench from build/
#   --sanitize  configure build-asan with -DSANITIZE=ON and run the
#               test suite under AddressSanitizer + UBSan
#   --tsan      configure build-tsan with -DSANITIZE=thread and run
#               the concurrency-sensitive suites (streaming obs sink
#               flusher thread, membership/fencing, thread pool, the
#               parallel determinism harness, the sharded
#               parameter-server suite, the conv kernels, whose
#               chunk and GEMM row fan-outs run from the main thread,
#               the tensor suite, whose GEMM differential test runs
#               the row fan-out over per-thread transpose scratch at
#               1 and 4 threads, the quant and nn suites, whose
#               INT8 and FP32 steps run at the same time as the two
#               halves of a group step, and the trainer and mixed-
#               precision suites, whose per-epoch alpha probe runs its
#               FP32 and INT8 passes as two pool items) under
#               ThreadSanitizer
#   --bench [tag]
#               build Release into build-rel, run bench_e2e_throughput
#               and fig10_scalability, write BENCH_<tag>.json (tag
#               defaults to the current commit's short hash), and fail
#               if epochs/sec regresses more than 10% against the
#               committed BENCH_baseline.json; then build the standalone
#               benchmark/ project into build-bench and run its ctests
#               (the traced binary's link-time --wrap of every layer
#               entry point is the first thing a renamed entry point
#               breaks)
#   --chaos     run the fault + streaming-obs + membership + parallel
#               determinism + fleet topology + sharded-PS suites
#               under ASan+UBSan with 10 fixed chaos seeds
#               (SOCFLOW_CHAOS_SEED); fails on any sanitizer report,
#               non-deterministic replay (the ChaosReplay tests hash
#               each seed's fault timeline -- including partition,
#               heal, and rejoin events -- and re-run it, so same seed
#               must give the same hash), or a liveness violation (the
#               seeded churn and crash-restart runs of
#               test_parallel_determinism check after every epoch that
#               no group member is dead per the fault model and, once
#               no board is cut, that every live SoC is a member).
#               Each seed also drives the multi-rack batch:
#               SeededFleetChurnBitExact draws a
#               seeded fault plan with a rack cut, a crash, and a
#               rejoin on a 4-rack fleet and replays it at 1/2/5/8
#               threads, and test_fleet_topology replays a rack-cut ->
#               park -> heal round trip, so rack-granular faults get
#               the same per-seed determinism gate as board faults
#   --chaos-nightly [count]
#               like --chaos but with `count` (default 10) *fresh*
#               random seeds, each with the crash flight recorder
#               armed (SOCFLOW_POSTMORTEM); failing seeds and their
#               post-mortem dump paths append to chaos_failures.txt
#               so a failure found tonight can be replayed tomorrow
#   --profile   run the profiler test suite plus a profiled harvest
#               day: fail if the wall-time conservation invariant
#               breaks (every epoch's exclusive phases must sum to
#               its wall seconds) or if the profiled run's timeline
#               hash diverges from a SOCFLOW_PROFILE=0 rerun -- the
#               zero-perturbation guarantee checked end to end
#   --crash-restart
#               run the replicated-checkpoint suites (test_ckpt,
#               test_checkpoint, the crash-restart determinism
#               scenarios) plus the crash_restart example: a 2-rack
#               fleet loses power mid-epoch AND the primary replica's
#               rack loses durable storage; the run must restore from
#               the surviving cross-rack copy and the resumed
#               timeline hash must equal a resume from the original
#               blob (the invariant DESIGN.md ch. 13 promises)
#   --docs-check [flag_table]
#               fail if the README.md flag table (between the
#               bench-flags markers) differs from the output of the
#               flag_table program (default build/bench/flag_table,
#               generated from bench/bench_common.cc's flag table),
#               or if a backticked lowerCamel
#               or Type::member identifier in README.md or DESIGN.md
#               names nothing in src/, bench/, tests/, examples/ or
#               benchmark/ (registered as the docs_check ctest)
cd "$(dirname "$0")" || exit 1
# Outputs land in this checkout; builds use at most 4 jobs, as
# benchmark/run.sh does.
root="$(pwd)"
jobs=4

chaos_targets="test_fault test_fault_step test_obs_stream test_membership test_parallel_determinism test_fleet_topology test_ps test_profiler test_ckpt"
chaos_regex='test_(fault($|_step)|obs_stream$|membership$|parallel_determinism$|fleet_topology$|ps$|profiler$|ckpt$)'

run_chaos_seed() {
    # $1 = seed, $2 = optional post-mortem dump path
    env ASAN_OPTIONS=detect_leaks=0 \
        UBSAN_OPTIONS=halt_on_error=1 \
        SOCFLOW_CHAOS_SEED="$1" \
        ${2:+SOCFLOW_POSTMORTEM="$2"} \
        ctest --test-dir build-asan --output-on-failure \
            -R "$chaos_regex"
}

if [ "$1" = "--chaos" ]; then
    cmake -B build-asan -S . -DSANITIZE=ON || exit 1
    cmake --build build-asan -j $jobs --target $chaos_targets || exit 1
    status=0
    for seed in 11 42 137 271 828 1729 2024 31337 65537 99991; do
        echo "== chaos seed $seed =="
        if ! run_chaos_seed $seed; then
            echo "CHAOS_SEED_FAILED seed=$seed"
            status=1
        fi
    done
    if [ $status -eq 0 ]; then
        echo "CHAOS_RUN_COMPLETE"
    else
        echo "CHAOS_RUN_FAILED"
    fi
    exit $status
fi

if [ "$1" = "--chaos-nightly" ]; then
    count=${2:-10}
    cmake -B build-asan -S . -DSANITIZE=ON || exit 1
    cmake --build build-asan -j $jobs --target $chaos_targets || exit 1
    status=0
    for i in $(seq 1 "$count"); do
        seed=$(( (RANDOM << 15 | RANDOM) + 1 ))
        dump=$root/build-asan/postmortem_seed${seed}.json
        echo "== chaos-nightly seed $seed ($i/$count) =="
        if ! run_chaos_seed $seed "$dump"; then
            echo "CHAOS_SEED_FAILED seed=$seed dump=$dump"
            echo "seed=$seed dump=$dump" >> "$root/chaos_failures.txt"
            status=1
        fi
    done
    if [ $status -eq 0 ]; then
        echo "CHAOS_NIGHTLY_COMPLETE"
    else
        echo "CHAOS_NIGHTLY_FAILED (failing seeds in chaos_failures.txt)"
    fi
    exit $status
fi

if [ "$1" = "--tsan" ]; then
    tsan_targets="test_obs_stream test_membership test_thread_pool test_parallel_determinism test_ps test_profiler test_ckpt test_conv test_tensor test_quant test_nn test_trainer test_mixed_precision"
    cmake -B build-tsan -S . -DSANITIZE=thread || exit 1
    cmake --build build-tsan -j $jobs --target $tsan_targets || exit 1
    ( set -o pipefail
      TSAN_OPTIONS=halt_on_error=1 \
          ctest --test-dir build-tsan --output-on-failure \
              -R 'test_(obs_stream|membership|thread_pool|parallel_determinism|ps|profiler|ckpt|conv|tensor|quant|nn|trainer|mixed_precision)$' 2>&1 |
          tee "$root/tsan_output.txt" ) || exit 1
    echo "TSAN_RUN_COMPLETE"
    exit 0
fi

if [ "$1" = "--bench" ]; then
    tag=${2:-$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo local)}
    cmake -B build-rel -S . -DCMAKE_BUILD_TYPE=Release || exit 1
    cmake --build build-rel -j $jobs \
        --target bench_e2e_throughput fig10_scalability || exit 1
    out=$root/BENCH_${tag}.json
    baseline=$root/BENCH_baseline.json
    baseline_arg=""
    [ -f "$baseline" ] && baseline_arg="--baseline=$baseline"
    if ! ./build-rel/bench/bench_e2e_throughput \
            --bench-json="$out" $baseline_arg; then
        echo "BENCH_RUN_FAILED (regression vs $baseline or divergence)"
        exit 1
    fi
    ./build-rel/bench/fig10_scalability || exit 1
    cmake -S benchmark -B build-bench -DCMAKE_BUILD_TYPE=Release || exit 1
    cmake --build build-bench -j $jobs || exit 1
    ctest --test-dir build-bench --output-on-failure || exit 1
    echo "BENCH_RUN_COMPLETE (wrote $out)"
    exit 0
fi

if [ "$1" = "--profile" ]; then
    cmake -B build -S . || exit 1
    cmake --build build -j $jobs --target test_profiler harvest_day \
        fig12_breakdown || exit 1
    # Unit + integration conservation/attribution suite.
    ctest --test-dir build --output-on-failure \
        -R 'test_profiler$' || exit 1
    # Profiled harvest day: the perf-doctor JSON must certify the
    # conservation invariant held for every epoch of the day.
    prof_json=$root/build/profile_harvest.json
    ./build/examples/harvest_day \
        --profile-out "$prof_json" > build/profile_on.txt || exit 1
    if ! grep -q '"conservation_ok":true' "$prof_json"; then
        echo "PROFILE_RUN_FAILED (conservation invariant violated;"\
             "see $prof_json)"
        exit 1
    fi
    # Zero perturbation: rerun with the profiler disabled; the
    # simulated day must replay to the identical timeline hash.
    SOCFLOW_PROFILE=0 ./build/examples/harvest_day \
        > build/profile_off.txt || exit 1
    hash_on=$(grep '^timeline hash:' build/profile_on.txt)
    hash_off=$(grep '^timeline hash:' build/profile_off.txt)
    if [ -z "$hash_on" ] || [ "$hash_on" != "$hash_off" ]; then
        echo "PROFILE_RUN_FAILED (profiling perturbed the timeline:"\
             "'$hash_on' vs '$hash_off')"
        exit 1
    fi
    # Cross-check against the bench's own breakdown accounting
    # (fig12_breakdown exits non-zero if the profiler disagrees by
    # more than 5% or claims a comm-bound model overlaps well).
    ./build/bench/fig12_breakdown --smoke > /dev/null || exit 1
    echo "PROFILE_RUN_COMPLETE (report: $prof_json)"
    exit 0
fi

if [ "$1" = "--crash-restart" ]; then
    cmake -B build -S . || exit 1
    cmake --build build -j $jobs --target test_ckpt test_checkpoint \
        test_parallel_determinism crash_restart || exit 1
    # Unit layer: placement, envelope/manifest fuzz, quorum restore,
    # rack-survival of acked writes.
    ctest --test-dir build --output-on-failure \
        -R 'test_(ckpt|checkpoint)$' || exit 1
    # Determinism layer: crash + restore replays bit-exactly at
    # 1/2/5/8 threads, and a resumed run matches an uninterrupted
    # one from the same checkpoint.
    ./build/tests/test_parallel_determinism \
        --gtest_filter='*CrashRestart*:*Resumed*' || exit 1
    # End to end: power loss + rack storage loss + restore + resume.
    out=build/crash_restart.txt
    if ! ./build/examples/crash_restart > "$out"; then
        echo "CRASH_RESTART_FAILED (recovery run exited non-zero;"\
             "see $out)"
        exit 1
    fi
    hashes=$(grep '^timeline hash:' "$out" | awk '{print $3}' | sort -u)
    if [ "$(echo "$hashes" | wc -l)" != 1 ] || [ -z "$hashes" ]; then
        echo "CRASH_RESTART_FAILED (resumed and reference timelines"\
             "diverged: $hashes)"
        exit 1
    fi
    echo "CRASH_RESTART_COMPLETE"
    exit 0
fi

if [ "$1" = "--docs-check" ]; then
    # The README flag table is generated: the block between the
    # bench-flags markers must equal the flag table program's output
    # (argument 2, default build/bench/flag_table) byte for byte.
    status=0
    table=${2:-build/bench/flag_table}
    if ! diff <(sed -n '/<!-- bench-flags:begin -->/,/<!-- bench-flags:end -->/p' README.md |
                    sed '1d;$d') <("$table"); then
        echo "DOCS_CHECK_FLAG_TABLE_DIFFERS (README.md vs $table output)"
        status=1
    fi
    # Every backticked identifier span (`fooBar`, `fooBar()`,
    # `Type::member`) must still name something in the code, so a
    # rename or deletion cannot leave the docs pointing at nothing.
    # A Type::member resolves when `member` occurs in a file that
    # mentions `Type` (fields are rarely spelled qualified).
    code="src bench tests examples benchmark"
    words=$(grep -rhoE '[A-Za-z_][A-Za-z0-9_]*' $code | sort -u)
    for id in $(grep -ohE '`[^`]+`' README.md DESIGN.md | tr -d '`' |
                    sed -E 's/\(.*\)$//' |
                    grep -xE '[a-z][a-z0-9]*([A-Z][A-Za-z0-9]*)+|[A-Z][A-Za-z0-9]*::~?[A-Za-z_][A-Za-z0-9_]*' |
                    sort -u); do
        case $id in
          *::*)
            member=${id##*::}
            grep -rlw -e "${id%%::*}" $code |
                xargs grep -qw -e "${member#\~}" && continue ;;
          *)
            grep -qxF -e "$id" <<<"$words" && continue ;;
        esac
        echo "DOCS_CHECK_STALE_IDENTIFIER $id"
        status=1
    done
    if [ $status -eq 0 ]; then
        echo "DOCS_CHECK_COMPLETE"
    else
        echo "DOCS_CHECK_FAILED (README.md flag table differs from the flag table program, or identifiers above missing from the code)"
    fi
    exit $status
fi

if [ "$1" = "--sanitize" ]; then
    cmake -B build-asan -S . -DSANITIZE=ON || exit 1
    cmake --build build-asan -j $jobs || exit 1
    ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
        ctest --test-dir build-asan --output-on-failure 2>&1 |
        tee "$root/sanitize_output.txt"
    # Exercise the streaming sink + NDJSON series end to end under
    # the sanitizers (tiny rotation limit forces several segments).
    ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
        ./build-asan/examples/harvest_day \
        --trace-out build-asan/harvest_stream.json \
        --trace-rotate-mb 1 --metrics-out build-asan/harvest_series.ndjson \
        --metrics-interval 2 >/dev/null || exit 1
    echo "SANITIZE_RUN_COMPLETE"
    exit 0
fi

rm -rf .bench_cache
ctest --test-dir build 2>&1 | tee "$root/test_output.txt"
for b in build/bench/*; do $b; done 2>&1 | tee "$root/bench_output.txt"
echo "ALL_RUNS_COMPLETE"
