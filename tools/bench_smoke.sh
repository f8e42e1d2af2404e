#!/bin/sh
# Smoke-check the Section 5.2 shootdown bench: run it against a scratch
# JSON file, make sure every expected cell is present, and fail if the
# batched IPI counts regress above their recorded baselines (or the
# unbatched ones mysteriously shrink below them, which would mean the
# A/B comparison no longer measures anything).
#
# Also smoke-checks the fault-injection subsystem:
#   - the chaos bench (seeded pager failure under memory pressure) must
#     end with a dead pager, rescued pages, zero corruption, zero
#     task-visible errors, and a bounded retry count;
#   - machsim --chaos must replay the identical failure sequence twice;
#   - with injection disabled the shootdown elapsed_ms cells (fully
#     deterministic simulated time) must match the committed
#     BENCH_vm.json exactly — the injection hooks cost nothing when off.
#
# And the clustered-paging bench:
#   - every cluster cell must be present;
#   - at cluster_max=1 the clustered read path must cost *exactly* what
#     the hand-rolled pre-clustering loop costs (zero prefetch overhead
#     when clustering is off);
#   - read-ahead must flip the Table 7-1 first-read cells: Mach below
#     UNIX on both the 2.5M and the 50K cold file read.
#
# And the async disk model:
#   - every synchronous cluster elapsed_ms cell must match the committed
#     BENCH_vm.json to the digit (the submit/wait protocol is free when
#     the async model is off);
#   - async must beat sync on the sequential read once the window is
#     wide enough to overlap (w >= 8), and change nothing at w = 1
#     (no prefetch tail, nothing to overlap);
#   - machsim --chaos --async-disk must replay identically, stdout and
#     stats JSON both (injection is decided at submit time, so replay
#     cannot depend on when completions are reaped).
#
# And the multiprocessor fault bench:
#   - the private-object configuration must scale: faults/sec monotone
#     non-decreasing from 1 to 2 to 4 CPUs (per-CPU work is fixed, so
#     flat elapsed time means linear throughput);
#   - the shared-object configuration must show contention: a non-zero
#     lock-stall share at 4 CPUs;
#   - burst=1 (machinery on, demand page only) must cost exactly what
#     the legacy fault path costs, to the digit, and burst=8 must beat
#     legacy;
#   - every cell the -cpus 4 subset produces must match the committed
#     BENCH_vm.json to the digit (the run is deterministic).
#
# And the concurrent-streams bench:
#   - with 8 stream slots, 8 readers sharing one file must beat the
#     single-cursor configuration (per-reader ramp restored), with fewer
#     pager requests, non-zero slot hits and zero slot steals;
#   - at K=1 the slotted run must cost exactly what the single-cursor
#     run costs, to the digit (one reader never notices the slots);
#   - machsim --chaos must replay identically with --streams 8
#     --free-behind on, stdout and stats JSON both;
#   - every streams cell must match the committed BENCH_vm.json to the
#     digit, and the 198 cells that predate the streams experiment must
#     all still be present in the committed file.
#
# And the cycle-attribution profiler:
#   - machsim --profile must report exact conservation (every CPU's
#     per-category totals sum to its clock) and drop no events at the
#     default ring size;
#   - the stats JSON must carry the attribution object with its
#     aggregate totals, per-CPU breakdown and top spans;
#   - the stats JSON of machsim stats must carry reactivations and
#     object_cache_hits in its vm object, and that of machsim compile
#     must carry a vm object;
#   - the cluster bench's attribution cells must be present, with the
#     async run showing a smaller disk-wait share than sync, and the
#     tracing-off timing cells above must still match BENCH_vm.json to
#     the digit (attribution is free when no tracer is installed).
#
# And the host-time sampler: tools/hostprof must sample about 1 s of
# mp_shared's measured phase and write non-empty folded stacks with at
# least one pmap or VM frame in them.  Its --top table of the 10
# heaviest frames, by self and by inclusive share, is printed as is.
#
# And, last, one comparison of every cell: a full bench run must write
# all 224 cells string-equal to the committed BENCH_vm.json, names,
# measured values and paper references alike.  The subset runs above stay:
# they also show that each subset replays independently of the rest.
#
# And a kernel owns everything it creates:
#   - table7_2 run twice in one process must write two halves string-equal
#     to each other and to the committed table7_2 cells (the bench itself
#     also fails any experiment that leaves more than 65536 live words);
#   - no lib/**/*.ml file may bind a top-level `ref` or `Hashtbl.create`,
#     the process-global state that outlived every kernel before.
set -eu

cd "$(dirname "$0")/.."
out=$(mktemp /tmp/bench_smoke.XXXXXX.json)
chaos_out=$(mktemp /tmp/bench_smoke_chaos.XXXXXX.json)
cluster_out=$(mktemp /tmp/bench_smoke_cluster.XXXXXX.json)
run_a=$(mktemp /tmp/bench_smoke_run_a.XXXXXX)
run_b=$(mktemp /tmp/bench_smoke_run_b.XXXXXX)
prof_out=$(mktemp /tmp/bench_smoke_prof.XXXXXX)
prof_stats=$(mktemp /tmp/bench_smoke_prof.XXXXXX.json)
mp_out=$(mktemp /tmp/bench_smoke_mp.XXXXXX.json)
pr_out=$(mktemp /tmp/bench_smoke_pr.XXXXXX.json)
st_out=$(mktemp /tmp/bench_smoke_st.XXXXXX.json)
all_out=$(mktemp /tmp/bench_smoke_all.XXXXXX.json)
all_cells=$(mktemp /tmp/bench_smoke_all_cells.XXXXXX)
base_cells=$(mktemp /tmp/bench_smoke_base_cells.XXXXXX)
folded=$(mktemp /tmp/bench_smoke_folded.XXXXXX)
vm_stats=$(mktemp /tmp/bench_smoke_vm.XXXXXX.json)
twice_out=$(mktemp /tmp/bench_smoke_twice.XXXXXX.json)
twice_cells=$(mktemp /tmp/bench_smoke_twice_cells.XXXXXX)
t72_base=$(mktemp /tmp/bench_smoke_t72.XXXXXX)
trap 'rm -f "$out" "$chaos_out" "$cluster_out" "$run_a" "$run_b" "$prof_out" "$prof_stats" "$mp_out" "$pr_out" "$st_out" "$all_out" "$all_cells" "$base_cells" "$folded" "$vm_stats" "$twice_out" "$twice_cells" "$t72_base"' EXIT

dune exec bench/main.exe -- -e shootdown -json "$out" >/dev/null

fail=0

# The bench writes compact JSON: "name":"...","measured_ms":<value>,
cell() {
    sed -n "s/.*\"name\":\"$(echo "$1" | sed 's|/|\\/|g')\",\"measured_ms\":\([0-9.e+-]*\).*/\1/p" "$out"
}

require_cell() {
    v=$(cell "$1")
    if [ -z "$v" ]; then
        echo "bench-smoke: FAIL missing cell $1" >&2
        fail=1
    fi
}

# Baselines: one IPI round per target CPU per operation (2 ops x 30
# rounds x 3 remote CPUs = 180) when batched; one per page (256 pages x
# 180 = 46080) when not.
check_max() { # name max
    v=$(cell "$1")
    if [ -z "$v" ]; then
        echo "bench-smoke: FAIL missing cell $1" >&2
        fail=1
    elif ! awk "BEGIN { exit !($v <= $2) }"; then
        echo "bench-smoke: FAIL $1 = $v regressed above baseline $2" >&2
        fail=1
    fi
}

check_min() { # name min
    v=$(cell "$1")
    if [ -z "$v" ]; then
        echo "bench-smoke: FAIL missing cell $1" >&2
        fail=1
    elif ! awk "BEGIN { exit !($v >= $2) }"; then
        echo "bench-smoke: FAIL $1 = $v below expected floor $2" >&2
        fail=1
    fi
}

for strategy in immediate deferred lazy; do
    for mode in unbatched batched; do
        for metric in ipis deferred_flushes stale_tlb_uses elapsed_ms; do
            require_cell "shootdown/$strategy/$mode/$metric"
        done
    done
done

# Batched IPI/deferred-flush counts must stay at the one-round-per-target
# baseline; unbatched ones must stay per-page.
check_max shootdown/immediate/batched/ipis 180
check_min shootdown/immediate/unbatched/ipis 46080
check_max shootdown/deferred/batched/deferred_flushes 180
check_max shootdown/lazy/batched/deferred_flushes 180

# Immediacy means no stale windows, batched or not.
check_max shootdown/immediate/batched/stale_tlb_uses 0
check_max shootdown/immediate/unbatched/stale_tlb_uses 0

# ---- zero-overhead guard -------------------------------------------------
# Injection disabled is the default; simulated elapsed time is fully
# deterministic, so the scratch run's Section 5.2 timing cells must match
# the committed BENCH_vm.json bit-for-bit.  A drift here means the fault
# hooks charge cycles even when no injector is attached.
baseline_cell() {
    sed -n "s/.*\"name\":\"$(echo "$1" | sed 's|/|\\/|g')\",\"measured_ms\":\([0-9.e+-]*\).*/\1/p" BENCH_vm.json
}

for strategy in immediate deferred lazy; do
    for mode in unbatched batched; do
        name="shootdown/$strategy/$mode/elapsed_ms"
        now=$(cell "$name")
        base=$(baseline_cell "$name")
        if [ -z "$base" ]; then
            echo "bench-smoke: FAIL no committed baseline for $name" >&2
            fail=1
        elif ! awk "BEGIN { d = $now - $base; if (d < 0) d = -d; exit !(d <= 0.005) }"; then
            echo "bench-smoke: FAIL $name = $now drifted from committed $base (fault hooks must be free when disabled)" >&2
            fail=1
        fi
    done
done

# ---- chaos smoke ---------------------------------------------------------
dune exec bench/main.exe -- -e chaos -json "$chaos_out" >/dev/null

chaos_cell() {
    sed -n "s/.*\"name\":\"chaos\\/$1\",\"measured_ms\":\([0-9.e+-]*\).*/\1/p" "$chaos_out"
}

chaos_check() { # metric test value
    v=$(chaos_cell "$1")
    if [ -z "$v" ]; then
        echo "bench-smoke: FAIL missing cell chaos/$1" >&2
        fail=1
    elif ! awk "BEGIN { exit !($v $2 $3) }"; then
        echo "bench-smoke: FAIL chaos/$1 = $v, expected $2 $3" >&2
        fail=1
    fi
}

chaos_check corrupt_pages == 0
chaos_check memory_errors == 0
chaos_check pager_deaths ">=" 1
chaos_check rescued_pages ">=" 1
chaos_check pageout_failures ">=" 1
chaos_check pager_retries ">=" 1
chaos_check pager_retries "<=" 64   # bounded, not unbounded re-requesting

# ---- clustered paging ----------------------------------------------------
dune exec bench/main.exe -- -e cluster -e table7_1_files -json "$cluster_out" >/dev/null

cluster_cell() {
    sed -n "s/.*\"name\":\"$(echo "$1" | sed 's|/|\\/|g')\",\"measured_ms\":\([0-9.e+-]*\).*/\1/p" "$cluster_out"
}

for w in 1 2 4 8 16 32 64; do
    for metric in seq_read_2M rand_read_256x4K writeback_1M; do
        name="cluster/$metric/w$w"
        if [ -z "$(cluster_cell "$name")" ]; then
            echo "bench-smoke: FAIL missing cell $name" >&2
            fail=1
        fi
    done
    for metric in seq_read_2M writeback_1M; do
        name="cluster/$metric/w${w}_async"
        if [ -z "$(cluster_cell "$name")" ]; then
            echo "bench-smoke: FAIL missing cell $name" >&2
            fail=1
        fi
    done
done

# Synchronous-mode guard: with the async model off the cluster cells are
# fully deterministic and the submit/wait protocol must be free, so the
# scratch run must match the committed BENCH_vm.json to the digit.
for w in 1 2 4 8 16 32 64; do
    for metric in seq_read_2M rand_read_256x4K writeback_1M; do
        name="cluster/$metric/w$w"
        now=$(cluster_cell "$name")
        base=$(baseline_cell "$name")
        if [ -z "$base" ]; then
            echo "bench-smoke: FAIL no committed baseline for $name" >&2
            fail=1
        elif [ "$now" != "$base" ]; then
            echo "bench-smoke: FAIL $name = $now drifted from committed $base (sync disk model must be unchanged)" >&2
            fail=1
        fi
    done
done

# Zero overhead when clustering is off: the w=1 run and the hand-rolled
# pre-clustering loop are the same deterministic charge sequence, so
# their elapsed times must be identical, not merely close.
w1=$(cluster_cell cluster/seq_read_2M/w1)
legacy=$(cluster_cell cluster/seq_read_2M/legacy)
if [ -z "$w1" ] || [ -z "$legacy" ] || [ "$w1" != "$legacy" ]; then
    echo "bench-smoke: FAIL cluster_max=1 read ($w1 ms) != legacy per-page read ($legacy ms); clustering must be free when off" >&2
    fail=1
fi

# Read-ahead must actually pay: the full window beats the single-page
# path on a cold sequential read, and the first-read Table 7-1 cells
# flip below UNIX.
w8=$(cluster_cell cluster/seq_read_2M/w8)
if ! awk "BEGIN { exit !($w8 < $w1) }"; then
    echo "bench-smoke: FAIL cluster/seq_read_2M/w8 = $w8 not below w1 = $w1" >&2
    fail=1
fi

# The async model must actually overlap: at w >= 8 the submitted
# prefetch tail hides device time behind the copy loop, so async beats
# sync; at w = 1 there is no tail and the two models are identical.
for w in 8 16 32 64; do
    sync_ms=$(cluster_cell "cluster/seq_read_2M/w$w")
    async_ms=$(cluster_cell "cluster/seq_read_2M/w${w}_async")
    if ! awk "BEGIN { exit !($async_ms < $sync_ms) }"; then
        echo "bench-smoke: FAIL cluster/seq_read_2M/w${w}_async = $async_ms not below sync $sync_ms (no overlap)" >&2
        fail=1
    fi
done
w1_async=$(cluster_cell cluster/seq_read_2M/w1_async)
if [ -z "$w1_async" ] || [ "$w1_async" != "$w1" ]; then
    echo "bench-smoke: FAIL cluster/seq_read_2M/w1_async ($w1_async ms) != w1 ($w1 ms); async must be a no-op without a prefetch tail" >&2
    fail=1
fi

flip_check() { # op
    m=$(cluster_cell "table7_1_files/$1/mach")
    u=$(cluster_cell "table7_1_files/$1/unix")
    if [ -z "$m" ] || [ -z "$u" ]; then
        echo "bench-smoke: FAIL missing table7_1_files/$1 cells" >&2
        fail=1
    elif ! awk "BEGIN { exit !($m < $u) }"; then
        echo "bench-smoke: FAIL table7_1_files/$1: mach = $m not below unix = $u" >&2
        fail=1
    fi
}
flip_check read_2.5M_1st
flip_check read_50K_1st

# ---- machsim --chaos replay identity -------------------------------------
dune exec bin/machsim.exe -- compile --chaos 42:flaky >"$run_a" 2>&1
dune exec bin/machsim.exe -- compile --chaos 42:flaky >"$run_b" 2>&1
if ! cmp -s "$run_a" "$run_b"; then
    echo "bench-smoke: FAIL machsim --chaos 42:flaky is not replay-identical" >&2
    diff "$run_a" "$run_b" >&2 || true
    fail=1
fi
if ! grep -q '^chaos: seed=42 profile=flaky' "$run_a"; then
    echo "bench-smoke: FAIL machsim --chaos did not print its chaos summary" >&2
    fail=1
fi

# Same replay guarantee with the async disk model on: stdout and the
# exported stats JSON (queue depth / completion / wait histograms
# included) must both be run-to-run identical.
dune exec bin/machsim.exe -- compile --chaos 42:flaky --async-disk --stats "$run_a.stats" 2>&1 |
    grep -v '^stats: ->' >"$run_a"
dune exec bin/machsim.exe -- compile --chaos 42:flaky --async-disk --stats "$run_b.stats" 2>&1 |
    grep -v '^stats: ->' >"$run_b"
if ! cmp -s "$run_a" "$run_b"; then
    echo "bench-smoke: FAIL machsim --chaos --async-disk is not replay-identical" >&2
    diff "$run_a" "$run_b" >&2 || true
    fail=1
fi
if ! cmp -s "$run_a.stats" "$run_b.stats"; then
    echo "bench-smoke: FAIL machsim --chaos --async-disk stats JSON differs between replays" >&2
    fail=1
fi
rm -f "$run_a.stats" "$run_b.stats"

# And with per-CPU magazines in front of the free queue: they sit on
# the same virtual clocks, so chaos injection must still replay
# identically, stdout and stats JSON both.
dune exec bin/machsim.exe -- compile --chaos 42:flaky --alloc-cache 8 \
    --stats "$run_a.stats" 2>&1 |
    grep -v '^stats: ->' >"$run_a"
dune exec bin/machsim.exe -- compile --chaos 42:flaky --alloc-cache 8 \
    --stats "$run_b.stats" 2>&1 |
    grep -v '^stats: ->' >"$run_b"
if ! cmp -s "$run_a" "$run_b"; then
    echo "bench-smoke: FAIL machsim --chaos --alloc-cache 8 is not replay-identical" >&2
    diff "$run_a" "$run_b" >&2 || true
    fail=1
fi
if ! cmp -s "$run_a.stats" "$run_b.stats"; then
    echo "bench-smoke: FAIL machsim --chaos --alloc-cache 8 stats JSON differs between replays" >&2
    fail=1
fi
rm -f "$run_a.stats" "$run_b.stats"

# ---- profiler smoke ------------------------------------------------------
# machsim --profile must conserve cycles exactly (every CPU's category
# totals sum to its clock), keep the attribution object in the stats
# JSON, and drop nothing at the default ring size.
dune exec bin/machsim.exe -- compile --profile --stats "$prof_stats" >"$prof_out" 2>&1

if ! grep -q '^profile conservation: ok' "$prof_out"; then
    echo "bench-smoke: FAIL machsim --profile did not report 'profile conservation: ok'" >&2
    fail=1
fi
if ! grep -q '^profile: events seen=[0-9]* retained=[0-9]* dropped=0$' "$prof_out"; then
    echo "bench-smoke: FAIL machsim --profile dropped events at the default ring size" >&2
    fail=1
fi
for key in '"attribution":' '"clock_total":' '"conserved":true' '"per_cpu":' '"top_spans":' '"user_compute":' '"disk_wait":' '"events_dropped":0'; do
    if ! grep -q "$key" "$prof_stats"; then
        echo "bench-smoke: FAIL stats JSON missing $key" >&2
        fail=1
    fi
done

# Every vm_statistics entry reaches the stats JSON: the stats workload's
# vm object carries the counters it once left out, and compile under
# Mach writes a vm object at all.
dune exec bin/machsim.exe -- stats --stats "$vm_stats" >/dev/null 2>&1
for key in '"reactivations"' '"object_cache_hits"'; do
    if ! grep -q "$key" "$vm_stats"; then
        echo "bench-smoke: FAIL machsim stats --stats JSON missing $key" >&2
        fail=1
    fi
done
if ! grep -q '"vm"' "$prof_stats"; then
    echo "bench-smoke: FAIL machsim compile --stats JSON has no \"vm\" object" >&2
    fail=1
fi

# The JSON must agree with itself: attribution total == sum of the CPU
# clocks the exporter saw == machine max_cycles.
attr_total=$(sed -n 's/.*"attribution":{"total":\([0-9]*\).*/\1/p' "$prof_stats")
clock_total=$(sed -n 's/.*"clock_total":\([0-9]*\).*/\1/p' "$prof_stats")
if [ -z "$attr_total" ] || [ "$attr_total" != "$clock_total" ]; then
    echo "bench-smoke: FAIL attribution total ($attr_total) != clock total ($clock_total)" >&2
    fail=1
fi

# Cluster attribution cells: present, conserved, and the async run must
# spend a strictly smaller fraction of its cycles stalled on the disk.
attr_sync=$(cluster_cell cluster/attr_disk_wait_frac/w8)
attr_async=$(cluster_cell cluster/attr_disk_wait_frac/w8_async)
attr_ok=$(cluster_cell cluster/attr_conserved/w8)
if [ -z "$attr_sync" ] || [ -z "$attr_async" ] || [ -z "$attr_ok" ]; then
    echo "bench-smoke: FAIL missing cluster attribution cells" >&2
    fail=1
else
    if ! awk "BEGIN { exit !($attr_ok == 1) }"; then
        echo "bench-smoke: FAIL cluster/attr_conserved/w8 = $attr_ok (attribution must partition the clock)" >&2
        fail=1
    fi
    if ! awk "BEGIN { exit !($attr_async < $attr_sync) }"; then
        echo "bench-smoke: FAIL async disk-wait share $attr_async not below sync $attr_sync" >&2
        fail=1
    fi
    if ! awk "BEGIN { exit !(0 < $attr_sync && $attr_sync < 1) }"; then
        echo "bench-smoke: FAIL cluster/attr_disk_wait_frac/w8 = $attr_sync out of (0,1)" >&2
        fail=1
    fi
fi

# ---- multiprocessor faults -----------------------------------------------
# The 1/2/4/8-CPU subset (8 CPUs so the free-page allocator ablation is
# exercised where contention bites); each configuration runs
# independently, so its cells must match the full committed run to the
# digit.
dune exec bench/main.exe -- -e mpfault -cpus 8 -json "$mp_out" >/dev/null

mp_cell() {
    sed -n "s/.*\"name\":\"$(echo "$1" | sed 's|/|\\/|g')\",\"measured_ms\":\([0-9.e+-]*\).*/\1/p" "$mp_out"
}

for share in private shared; do
    for c in 1 2 4; do
        for metric in faults_per_sec elapsed_ms lock_stall_share; do
            name="mpfault/$share/c$c/$metric"
            if [ -z "$(mp_cell "$name")" ]; then
                echo "bench-smoke: FAIL missing cell $name" >&2
                fail=1
            fi
        done
    done
done

# Weak scaling on private objects: fixed per-CPU work, so faults/sec
# must be monotone non-decreasing as CPUs are added.
fps1=$(mp_cell mpfault/private/c1/faults_per_sec)
fps2=$(mp_cell mpfault/private/c2/faults_per_sec)
fps4=$(mp_cell mpfault/private/c4/faults_per_sec)
if ! awk "BEGIN { exit !($fps1 <= $fps2 && $fps2 <= $fps4) }"; then
    echo "bench-smoke: FAIL private mpfault throughput not monotone: c1=$fps1 c2=$fps2 c4=$fps4" >&2
    fail=1
fi

# Sharing one object must cost something: non-zero lock-stall share at
# 4 CPUs (and exactly zero with private objects, where no two CPUs ever
# take the same object lock).
stall_shared=$(mp_cell mpfault/shared/c4/lock_stall_share)
stall_private=$(mp_cell mpfault/private/c4/lock_stall_share)
if ! awk "BEGIN { exit !($stall_shared > 0) }"; then
    echo "bench-smoke: FAIL shared-object run shows no lock stalls at 4 CPUs ($stall_shared)" >&2
    fail=1
fi
if ! awk "BEGIN { exit !($stall_private == 0) }"; then
    echo "bench-smoke: FAIL private-object run shows lock stalls ($stall_private); private locks are never contended" >&2
    fail=1
fi

# Burst faulting must be free when it maps nothing: burst=1 runs the
# collection machinery but only the demand page, so it must cost what
# the legacy path costs, to the digit.  The full window must then pay.
b_legacy=$(mp_cell mpfault/burst/legacy/elapsed_ms)
b1=$(mp_cell mpfault/burst/b1/elapsed_ms)
b8=$(mp_cell mpfault/burst/b8/elapsed_ms)
if [ -z "$b_legacy" ] || [ "$b1" != "$b_legacy" ]; then
    echo "bench-smoke: FAIL mpfault burst=1 ($b1 ms) != legacy ($b_legacy ms); bursting must be free when off" >&2
    fail=1
fi
if ! awk "BEGIN { exit !($b8 < $b_legacy) }"; then
    echo "bench-smoke: FAIL mpfault burst=8 = $b8 not below legacy = $b_legacy" >&2
    fail=1
fi

# ---- free-page allocator ablation ----------------------------------------
# Every allocator variant's cells must be present, and the magazines
# must actually pay off where contention bites: at 8 CPUs the per-CPU
# magazine allocator must meet or beat the single contended
# queue on throughput and never stall more.
for variant in global pcpu; do
    for c in 1 2 4 8; do
        for metric in faults_per_sec stall_share; do
            name="mpfault/alloc/$variant/c$c/$metric"
            if [ -z "$(mp_cell "$name")" ]; then
                echo "bench-smoke: FAIL missing cell $name" >&2
                fail=1
            fi
        done
    done
done

fps_global=$(mp_cell mpfault/alloc/global/c8/faults_per_sec)
fps_pcpu=$(mp_cell mpfault/alloc/pcpu/c8/faults_per_sec)
if ! awk "BEGIN { exit !($fps_pcpu >= $fps_global) }"; then
    echo "bench-smoke: FAIL pcpu throughput $fps_pcpu below global $fps_global at 8 CPUs" >&2
    fail=1
fi
stall_global=$(mp_cell mpfault/alloc/global/c8/stall_share)
stall_pcpu=$(mp_cell mpfault/alloc/pcpu/c8/stall_share)
if ! awk "BEGIN { exit !($stall_pcpu <= $stall_global) }"; then
    echo "bench-smoke: FAIL pcpu stall share $stall_pcpu above global $stall_global at 8 CPUs" >&2
    fail=1
fi

# Determinism: every cell the subset produced must match the committed
# BENCH_vm.json to the digit.  This includes every 1-CPU allocator cell:
# the seed queue and the magazines must both replay exactly.
for name in $(tr ',' '\n' <"$mp_out" | sed -n 's/.*"name":"\(mpfault\/[^"]*\)".*/\1/p'); do
    now=$(mp_cell "$name")
    base=$(baseline_cell "$name")
    if [ -z "$base" ]; then
        echo "bench-smoke: FAIL no committed baseline for $name" >&2
        fail=1
    elif [ "$now" != "$base" ]; then
        echo "bench-smoke: FAIL $name = $now drifted from committed $base (mpfault must replay to the digit)" >&2
        fail=1
    fi
done

# ---- memory pressure -----------------------------------------------------
# The overcommit sweep must complete without any uncaught exception (a
# raised Out_of_memory would kill the bench process before it writes its
# cells); at 1x demand the reserves and OOM policy must stay silent; at
# 4x the policy must have killed at least one task and left at least one
# survivor; and every pressure cell must match the committed
# BENCH_vm.json to the digit — the whole escalation (backpressure,
# swap exhaustion, victim choice) replays deterministically.
dune exec bench/main.exe -- -e pressure -json "$pr_out" >/dev/null

pr_cell() {
    sed -n "s/.*\"name\":\"$(echo "$1" | sed 's|/|\\/|g')\",\"measured_ms\":\([0-9.e+-]*\).*/\1/p" "$pr_out"
}

for x in 1 2 3 4; do
    for metric in elapsed_ms oom_kills alloc_waits pageouts survivors; do
        name="pressure/x$x/$metric"
        if [ -z "$(pr_cell "$name")" ]; then
            echo "bench-smoke: FAIL missing cell $name" >&2
            fail=1
        fi
    done
done

oom1=$(pr_cell pressure/x1/oom_kills)
oom4=$(pr_cell pressure/x4/oom_kills)
surv4=$(pr_cell pressure/x4/survivors)
if ! awk "BEGIN { exit !($oom1 == 0) }"; then
    echo "bench-smoke: FAIL pressure/x1/oom_kills = $oom1; the OOM policy must be silent when demand fits" >&2
    fail=1
fi
if ! awk "BEGIN { exit !($oom4 > 0) }"; then
    echo "bench-smoke: FAIL pressure/x4/oom_kills = $oom4; 4x overcommit past memory+swap must kill" >&2
    fail=1
fi
if ! awk "BEGIN { exit !($surv4 >= 1) }"; then
    echo "bench-smoke: FAIL pressure/x4/survivors = $surv4; the kernel must keep serving someone" >&2
    fail=1
fi

pr_attr=$(pr_cell pressure/attr_conserved/x4)
if [ -z "$pr_attr" ] || ! awk "BEGIN { exit !($pr_attr == 1) }"; then
    echo "bench-smoke: FAIL pressure/attr_conserved/x4 = $pr_attr (Mem_wait must stay inside the cycle ledger)" >&2
    fail=1
fi

for name in $(tr ',' '\n' <"$pr_out" | sed -n 's/.*"name":"\(pressure\/[^"]*\)".*/\1/p'); do
    now=$(pr_cell "$name")
    base=$(baseline_cell "$name")
    if [ -z "$base" ]; then
        echo "bench-smoke: FAIL no committed baseline for $name" >&2
        fail=1
    elif [ "$now" != "$base" ]; then
        echo "bench-smoke: FAIL $name = $now drifted from committed $base (pressure must replay to the digit)" >&2
        fail=1
    fi
done

# ---- concurrent streams --------------------------------------------------
# The K<=8 subset of the shared-file interference sweep; each (k, config)
# run boots its own machine, so its cells must match the full committed
# run to the digit.
dune exec bench/main.exe -- -e streams -cpus 8 -json "$st_out" >/dev/null

st_cell() {
    sed -n "s/.*\"name\":\"$(echo "$1" | sed 's|/|\\/|g')\",\"measured_ms\":\([0-9.e+-]*\).*/\1/p" "$st_out"
}

for k in 1 2 4 8; do
    for config in slotted unslotted fb; do
        name="streams/k$k/$config"
        if [ -z "$(st_cell "$name")" ]; then
            echo "bench-smoke: FAIL missing cell $name" >&2
            fail=1
        fi
    done
done

# Stream slots must fix the interference: 8 readers of one shared file
# beat the single-cursor configuration, with fewer pager requests,
# slot hits on re-faults, and no slot stealing (8 readers, 8 slots).
sl8=$(st_cell streams/k8/slotted)
un8=$(st_cell streams/k8/unslotted)
if ! awk "BEGIN { exit !($sl8 < $un8) }"; then
    echo "bench-smoke: FAIL streams/k8/slotted = $sl8 not below unslotted = $un8 (readers must ramp independently)" >&2
    fail=1
fi
reads_sl=$(st_cell streams/pager_reads/k8_slotted)
reads_un=$(st_cell streams/pager_reads/k8_unslotted)
if ! awk "BEGIN { exit !($reads_sl < $reads_un) }"; then
    echo "bench-smoke: FAIL slotted pager reads $reads_sl not below unslotted $reads_un at 8 readers" >&2
    fail=1
fi
hits8=$(st_cell streams/stream_hits/k8_slotted)
resets8=$(st_cell streams/stream_resets/k8_slotted)
if ! awk "BEGIN { exit !($hits8 > 0) }"; then
    echo "bench-smoke: FAIL streams/stream_hits/k8_slotted = $hits8; ramped readers must re-find their slot" >&2
    fail=1
fi
if ! awk "BEGIN { exit !($resets8 == 0) }"; then
    echo "bench-smoke: FAIL streams/stream_resets/k8_slotted = $resets8; 8 readers must fit in 8 slots" >&2
    fail=1
fi

# One reader never notices the slots: K=1 slotted must cost exactly what
# the single-cursor configuration costs, to the digit.
sl1=$(st_cell streams/k1/slotted)
un1=$(st_cell streams/k1/unslotted)
if [ -z "$sl1" ] || [ "$sl1" != "$un1" ]; then
    echo "bench-smoke: FAIL streams/k1/slotted ($sl1 ms) != unslotted ($un1 ms); slots must be free for a lone reader" >&2
    fail=1
fi

# Free-behind must not slow the sweep down (clean wake pages are
# deactivated, never unmapped, so re-reads still hit).
fb8=$(st_cell streams/k8/fb)
if ! awk "BEGIN { exit !($fb8 <= $sl8) }"; then
    echo "bench-smoke: FAIL streams/k8/fb = $fb8 above slotted = $sl8 (free-behind must be transparent here)" >&2
    fail=1
fi
fb_pages=$(st_cell streams/free_behind_pages/k8_fb)
if ! awk "BEGIN { exit !($fb_pages > 0) }"; then
    echo "bench-smoke: FAIL streams/free_behind_pages/k8_fb = $fb_pages; free-behind never fired" >&2
    fail=1
fi

# Determinism: every cell the subset produced must match the committed
# BENCH_vm.json to the digit.
for name in $(tr ',' '\n' <"$st_out" | sed -n 's/.*"name":"\(streams\/[^"]*\)".*/\1/p'); do
    now=$(st_cell "$name")
    base=$(baseline_cell "$name")
    if [ -z "$base" ]; then
        echo "bench-smoke: FAIL no committed baseline for $name" >&2
        fail=1
    elif [ "$now" != "$base" ]; then
        echo "bench-smoke: FAIL $name = $now drifted from committed $base (streams must replay to the digit)" >&2
        fail=1
    fi
done

# The streams experiment rides alongside the 198 older cells; none of
# them may be dropped or renamed.
pre_cells=$(tr ',' '\n' <BENCH_vm.json | sed -n 's/.*"name":"\([^"]*\)".*/\1/p' | grep -cv '^streams/')
if [ "$pre_cells" -ne 198 ]; then
    echo "bench-smoke: FAIL BENCH_vm.json carries $pre_cells non-stream cells, expected 198" >&2
    fail=1
fi

# Replay identity with stream slots and free-behind on: chaos injection
# is keyed to the virtual clocks, which the slot bookkeeping must not
# perturb, so stdout and the stats JSON must both be run-to-run
# identical.
dune exec bin/machsim.exe -- compile --chaos 42:flaky --streams 8 \
    --free-behind --stats "$run_a.stats" 2>&1 |
    grep -v '^stats: ->' >"$run_a"
dune exec bin/machsim.exe -- compile --chaos 42:flaky --streams 8 \
    --free-behind --stats "$run_b.stats" 2>&1 |
    grep -v '^stats: ->' >"$run_b"
if ! cmp -s "$run_a" "$run_b"; then
    echo "bench-smoke: FAIL machsim --chaos --streams 8 --free-behind is not replay-identical" >&2
    diff "$run_a" "$run_b" >&2 || true
    fail=1
fi
if ! cmp -s "$run_a.stats" "$run_b.stats"; then
    echo "bench-smoke: FAIL machsim --chaos --streams 8 --free-behind stats JSON differs between replays" >&2
    fail=1
fi
# The compile stats JSON carries per-kind event counts; the new stream
# events must be exported, and free-behind must actually have fired on
# the compiler's sequential source reads.
for key in '"stream_reset":' '"free_behind":'; do
    if ! grep -q "$key" "$run_a.stats"; then
        echo "bench-smoke: FAIL stats JSON missing $key" >&2
        fail=1
    fi
done
fb_events=$(sed -n 's/.*"free_behind":\([0-9]*\).*/\1/p' "$run_a.stats")
if [ -z "$fb_events" ] || [ "$fb_events" -eq 0 ]; then
    echo "bench-smoke: FAIL no free_behind events under --free-behind" >&2
    fail=1
fi
rm -f "$run_a.stats" "$run_b.stats"

# ---- host-time sampler ---------------------------------------------------
dune exec tools/hostprof/hostprof.exe -- --workload mp_shared --seconds 1 \
    -o "$folded" --top 10 2>/dev/null
if [ ! -s "$folded" ]; then
    echo "bench-smoke: FAIL hostprof wrote no stacks" >&2
    fail=1
elif ! grep -Eq 'Pmap|Vm_' "$folded"; then
    echo "bench-smoke: FAIL hostprof stacks have no Pmap/Vm_ frame" >&2
    fail=1
fi

# ---- every cell ----------------------------------------------------------
# One full run, one cell per line, compared as strings with the committed
# file: any drift in any experiment fails here, not only in the cells the
# checks above pick out.
dune exec bench/main.exe -- -json "$all_out" >/dev/null

one_cell_per_line() {
    sed 's/},{/}\
{/g' "$1"
}
one_cell_per_line "$all_out" >"$all_cells"
one_cell_per_line BENCH_vm.json >"$base_cells"
n_base=$(grep -c '"name":' "$base_cells" || true)
n_now=$(grep -c '"name":' "$all_cells" || true)
if [ "$n_base" -ne 224 ] || [ "$n_now" -ne 224 ]; then
    echo "bench-smoke: FAIL expected 224 cells, committed BENCH_vm.json has $n_base and the full run wrote $n_now" >&2
    fail=1
fi
if ! cmp -s "$base_cells" "$all_cells"; then
    echo "bench-smoke: FAIL full bench run differs from the committed BENCH_vm.json (committed <, now >):" >&2
    diff "$base_cells" "$all_cells" | head -20 >&2 || true
    fail=1
fi

# ---- one process, many kernels -------------------------------------------
# Cells one per line without the enclosing {"cells":[ ... ]}, so the same
# cell reads the same wherever it sits in its file.
bare_cells() {
    one_cell_per_line "$1" | sed 's/^{"cells":\[//; s/\]}$//'
}
dune exec bench/main.exe -- -e table7_2 -e table7_2 -json "$twice_out" >/dev/null
bare_cells "$twice_out" >"$twice_cells"
bare_cells BENCH_vm.json | grep '^{"name":"table7_2/' >"$t72_base" || true
n_t72=$(wc -l <"$t72_base")
if [ "$n_t72" -eq 0 ] || [ "$(wc -l <"$twice_cells")" -ne $((2 * n_t72)) ]; then
    echo "bench-smoke: FAIL table7_2 twice wrote $(wc -l <"$twice_cells") cells, expected 2 x $n_t72" >&2
    fail=1
elif ! head -n "$n_t72" "$twice_cells" | cmp -s - "$t72_base" \
        || ! tail -n "$n_t72" "$twice_cells" | cmp -s - "$t72_base"; then
    echo "bench-smoke: FAIL table7_2 run twice in one process differs from the committed cells (committed <, now >):" >&2
    diff "$t72_base" "$twice_cells" | head -20 >&2 || true
    fail=1
fi

# No process-global mutable state in lib/: a top-level value bound to a
# ref or a fresh hash table, on one line or with the right-hand side on
# the next.
globals=$(find lib -name '*.ml' | sort | xargs awk '
    FNR == 1 { pending = 0 }
    /^let [a-z_][A-Za-z0-9_'"'"']*( *:[^=]*)? *= *(ref[ (]|Hashtbl\.create)/ {
        print FILENAME ":" FNR ": " $0
    }
    pending && /^[ \t]+(ref[ (]|Hashtbl\.create)/ {
        print FILENAME ":" FNR - 1 ": " prev
    }
    { pending = ($0 ~ /^let [a-z_][A-Za-z0-9_'"'"']*( *:[^=]*)? *=[ \t]*$/); prev = $0 }')
if [ -n "$globals" ]; then
    echo "bench-smoke: FAIL process-global mutable state in lib/ (a kernel must own it):" >&2
    echo "$globals" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "bench-smoke: OK (24 shootdown cells at baseline, zero-overhead guards clean, chaos run deterministic with 0 corrupt pages — also under --alloc-cache 8, clustered read-ahead beats UNIX on cold reads and is free at cluster_max=1, async disk overlaps at w>=8 and replays under chaos, profiler conserves every cycle with 0 dropped events, stats and compile JSON carry the vm_statistics object, mpfault scales on private objects and stalls on shared ones with burst=1 free to the digit, per-CPU magazines meet or beat the global queue at 8 CPUs, pressure sweep survives 4x overcommit with deterministic OOM kills, stream slots un-interfere 8 shared-file readers and are free to the digit for one, chaos replays with --streams 8 --free-behind, all 198 pre-stream cells intact, hostprof samples mp_shared and prints its top frames, all 224 cells of a full run equal to BENCH_vm.json, table7_2 twice in one process equal to them, no process-global state in lib/)"
