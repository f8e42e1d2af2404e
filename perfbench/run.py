#!/usr/bin/env python3
"""Benchmark of the Mach VM simulator: three seeded workloads, two clocks.

Run from the repository root:

    python3 perfbench/run.py --workload fork_compile --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload, tracing off

The runner builds perfbench/main.exe with dune into .bench_build, then runs
it as separate processes (one boot and one measured phase each) until
--seconds have passed, and aggregates: simulated metrics must be identical
in every process, host metrics are medians over processes.  With --trace 1
it alternates untraced and traced processes and reports the per-layer
metrics.  The last line of standard output is one JSON object.  See
perfbench/README.md for every metric.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ["fork_compile", "mp_shared", "overcommit"]
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
SPANS_DIR = ".bench_out"
MIN_PROCS = 3
PROC_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 800

UNITS = {"sim_ms": "ms", "sim_op_p50_us": "us", "sim_op_p99_us": "us",
         "host_cost": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    die("dune not found")


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            die(f"{need} not found: run from the root of the repository")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            dune_command() + ["build", "--root", ".", "--build-dir", BUILD_DIR,
                              "./perfbench/main.exe"],
            env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if r.returncode != 0 or not os.path.exists(EXE):
        die("build failed")


def run_proc(workload, seed, traced, spans=None):
    cmd = [EXE, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    if spans:
        cmd += ["--spans", spans]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=PROC_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: process timed out")
    if r.returncode != 0:
        raise BenchError(f"{workload}: process exited {r.returncode}: "
                         f"{r.stderr.strip()[-500:]}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def collect(workload, seed, seconds, traced):
    """Run processes until [seconds] have passed; returns (untraced, traced)."""
    deadline = time.monotonic() + seconds
    plain, with_trace = [], []
    spans = None
    if traced:
        os.makedirs(SPANS_DIR, exist_ok=True)
        spans = os.path.join(SPANS_DIR, f"spans-{workload}.json")
    while True:
        plain.append(run_proc(workload, seed, False))
        if traced:
            with_trace.append(run_proc(workload, seed, True, spans))
        enough = len(plain) >= (2 if traced else MIN_PROCS)
        if enough and time.monotonic() >= deadline:
            return plain, with_trace


def check(plain, with_trace):
    """The guards: returns a list of problems, empty when the run holds."""
    problems = []
    ref = plain[0]["sim"]
    for r in plain + with_trace:
        if r["sim"] != ref:
            kind = "traced" if r["traced"] else "untraced"
            problems.append(f"{kind} process disagrees on simulated results")
            break
    if len({json.dumps(r["attr_cycles"], sort_keys=True) for r in with_trace}) > 1:
        problems.append("traced processes disagree on attribution")
    if ref["sim.ops_beyond_p99"] < 10:
        problems.append("fewer than 10 op samples beyond p99")
    if any(not r["attr_conserved"] for r in with_trace):
        problems.append("attribution does not sum to the CPU clocks")
    for r in plain + with_trace:
        if r["failed"]:
            problems.append(f"{r['failed']} failed ops, first: {r['first_error']}")
            break
    return problems


def host(rows, f):
    """Median over processes of f(host figures of one process)."""
    return statistics.median(f(r["host"]) for r in rows)


def host_cost(h):
    return h["lib_ns"] / h["calib_ns"]


def end_to_end(plain):
    sim = plain[0]["sim"]
    cpm = sim["sim.cycles_per_ms"]
    return {
        "sim_ms": sim["sim.max_cycles"] / cpm,
        "sim_op_p50_us": sim["sim.op_p50_cycles"] * 1000 / cpm,
        "sim_op_p99_us": sim["sim.op_p99_cycles"] * 1000 / cpm,
        "host_cost": host(plain, host_cost),
        "setup_s": host(plain, lambda h: h["setup_ns"] / 1e9),
        "peak_rss_mb": host(plain, lambda h: h["peak_rss_kb"] / 1024),
    }


def per_layer(plain, with_trace):
    c = plain[0]["sim"]
    ops = c["sim.measured_ops"]

    def ratio(a, b):
        return a / b if b else 0.0

    def ns(key):
        return statistics.median(
            ratio(r["layer_ns"][key]["sum"], r["layer_ns"][key]["count"])
            if key in r["layer_ns"] else 0.0
            for r in with_trace)

    attr_cycles = with_trace[0]["attr_cycles"]
    attr_total = sum(attr_cycles.values())

    def attr(cat):
        return ratio(attr_cycles[cat], attr_total)

    m = {
        # hw: Machine, Tlb, Phys_mem
        "hw.touch_hit_ns": (ns("hw.touch_hit_ns"), "ns"),
        "hw.tlb_miss_ratio": (ratio(c["hw.tlb_misses"],
                                    c["hw.tlb_hits"] + c["hw.tlb_misses"]), "ratio"),
        "hw.ipis": (c["hw.ipis"], "count"),
        "hw.shootdowns": (c["hw.shootdowns"], "count"),
        "attr.user_compute": (attr("user_compute"), "ratio"),
        # pmap
        "pmap.remove_ns": (ns("pmap.remove_ns"), "ns"),
        "pmap.enters": (c["pmap.enters"], "count"),
        "pmap.removals": (c["pmap.removals"], "count"),
        "attr.pmap": (attr("pmap"), "ratio"),
        "attr.shootdown_ipi": (attr("shootdown_ipi"), "ratio"),
        # fault: Vm_fault
        "fault.touch_fault_ns": (ns("fault.touch_fault_ns"), "ns"),
        "fault.faults": (c["fault.faults"], "count"),
        "fault.zero_fills": (c["fault.zero_fills"], "count"),
        "fault.cow_copies": (c["fault.cow_copies"], "count"),
        "fault.fast_reloads": (c["fault.fast_reloads"], "count"),
        "fault.burst_mapped": (c["fault.burst_mapped"], "count"),
        "attr.fault_service": (attr("fault_service"), "ratio"),
        "attr.zero_fill": (attr("zero_fill"), "ratio"),
        "attr.cow_copy": (attr("cow_copy"), "ratio"),
        # object: Vm_object
        "object.fork_ns": (ns("object.fork_ns"), "ns"),
        "object.shadows_created": (c["object.shadows_created"], "count"),
        "object.collapses": (c["object.collapses"], "count"),
        "object.cache_hit_ratio": (ratio(c["object.cache_hits"],
                                         c["object.cache_hits"] + c["object.cache_misses"]),
                                   "ratio"),
        "object.lock_stalls": (c["object.lock_stalls"], "count"),
        "attr.lock_wait": (attr("lock_wait"), "ratio"),
        # map: Vm_map, Vm_user
        "map.allocate_ns": (ns("map.allocate_ns"), "ns"),
        "map.deallocate_ns": (ns("map.deallocate_ns"), "ns"),
        "map.exec_ns": (ns("map.exec_ns"), "ns"),
        # resident
        "resident.pcpu_hits": (c["resident.pcpu_hits"], "count"),
        "resident.page_steals": (c["resident.page_steals"], "count"),
        "resident.free_pages_min": (c["resident.free_pages_min"], "count"),
        # pageout: Vm_pageout
        "pageout.pageouts": (c["pageout.pageouts"], "count"),
        "pageout.reactivations": (c["pageout.reactivations"], "count"),
        "pageout.clustered": (c["pageout.clustered"], "count"),
        "pageout.alloc_waits": (c["pageout.alloc_waits"], "count"),
        "pageout.oom_kills": (c["pageout.oom_kills"], "count"),
        "attr.pageout_daemon": (attr("pageout_daemon"), "ratio"),
        "attr.mem_wait": (attr("mem_wait"), "ratio"),
        # cluster: Vm_cluster
        "cluster.prefetch_issued": (c["cluster.prefetch_issued"], "count"),
        "cluster.prefetch_hit_ratio": (ratio(c["cluster.prefetch_hits"],
                                             c["cluster.prefetch_issued"]), "ratio"),
        "cluster.prefetch_wasted": (c["cluster.prefetch_wasted"], "count"),
        "cluster.stream_resets": (c["cluster.stream_resets"], "count"),
        # pager: Pager_guard, Swap_pager, Vnode_pager, Simfs
        "pager.read_ns": (ns("pager.read_ns"), "ns"),
        "pager.reads": (c["pager.reads"], "count"),
        "pager.retries": (c["pager.retries"], "count"),
        "pager.swap_used_mb": (c["pager.swap_used"] / 1048576, "MB"),
        "attr.pager_wait": (attr("pager_wait"), "ratio"),
        "attr.retry_backoff": (attr("retry_backoff"), "ratio"),
        # disk: Simdisk
        "disk.ops": (c["disk.ops"], "count"),
        "disk.bytes": (c["disk.bytes"], "bytes"),
        "disk.wait_cycles": (c["disk.wait_cycles"], "cycles"),
        "attr.disk_wait": (attr("disk_wait"), "ratio"),
        # gc: the OCaml runtime, from untraced processes
        "gc.alloc_words_per_op": (plain[0]["host"]["lib_minor_words"] / ops,
                                  "words/op"),
        "gc.top_heap_mb": (host(plain, lambda h: h["gc_top_heap_words"] * 8 / 1048576),
                           "MB"),
        "gc.major_collections": (host(plain, lambda h: h["gc_major_collections"]),
                                 "count"),
        # obs: guards of the traced run
        "obs.trace_overhead": (host(with_trace, host_cost) / host(plain, host_cost),
                               "ratio"),
        "obs.attr_conserved": (int(all(r["attr_conserved"] for r in with_trace)),
                               "bool"),
        # raw host figures, for context only: they do not repeat closely
        "host.wall_s": (host(plain, lambda h: h["lib_ns"] / 1e9), "s"),
        "host.ops_per_s": (host(plain, lambda h: ops * 1e9 / h["lib_ns"]), "1/s"),
        # what host_cost leaves out (the benchmark's own work between
        # library calls) and what it cannot (its clock reads)
        "host.harness_share": (host(plain, lambda h: 1 - h["lib_ns"] / h["run_ns"]),
                               "ratio"),
        "host.timer_share": (host(plain, lambda h: h["lib_calls"] * h["empty_lib_ps"]
                                  / 1000 / h["lib_ns"]), "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def bench(workload, seed, seconds, traced):
    plain, with_trace = collect(workload, seed, seconds, traced)
    problems = check(plain, with_trace)
    rows = plain + with_trace
    attempted = sum(r["attempted"] for r in rows)
    failed = sum(r["failed"] for r in rows)
    if traced:
        metrics = per_layer(plain, with_trace)
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]}
                   for k, v in end_to_end(plain).items()}
    for k, v in metrics.items():
        print(f"{workload:13s} {k:28s} {v['value']:.6g} {v['unit']}")
    print(f"{workload:13s} {'fail_frac':28s} {failed / attempted:.6g} ratio "
          f"({failed}/{attempted} ops over {len(rows)} processes)")
    for p in problems:
        print(f"{workload}: FAILED CHECK: {p}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    build()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    try:
        results = {w: bench(w, args.seed, args.seconds, args.trace == 1)
                   for w in names}
    except BenchError as e:
        die(str(e))
    if args.workload == "all":
        ok = all(r["correct"] for r in results.values())
        print(json.dumps({"correct": ok, "workloads": results}))
    else:
        result = results[args.workload]
        ok = result["correct"]
        print(json.dumps(result))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
