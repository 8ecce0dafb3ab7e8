#!/usr/bin/env python3
"""Real-core benchmark for the unison simulation kernel.

    python3 perfbench/run.py --workload fattree-web --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The first call builds the library
and the workload runner from source into .bench_build/
(perfbench/CMakeLists.txt); later calls rebuild incrementally.

One call:
  1. runs each of the call's input sets (derived from --seed) once on the
     sequential kernel of the same build: the correctness oracle
     (FlowMonitor fingerprint + event count) and the sequential speed
     reference;
  2. for --seconds, runs the input sets on the unison kernel in turn, each
     run in a fresh process, and checks every run against its oracle;
  3. prints every metric by name with its unit, and as its last stdout line
     one JSON object {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics from untraced runs. --trace 1
alternates untraced and traced runs (SimConfig::trace plus benchmark-side
spans), adds the FEL and combining-barrier microloops, and reports the
per-layer metrics. A run whose fingerprint or event count differs from the
oracle counts as failed and makes the call exit 1. Per-call reports go to
.bench_out/, with the latest traced call's spans and RunTrace JSON per
workload.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_BIN = BUILD_DIR / "perfbench_workload"

WORKLOADS = ("fattree-web", "fattree-incast", "wan-sync", "wan-spec")
# Input sets per call: set i runs with workload seed --seed * INPUTS + i. The
# end-to-end metrics are quartiles or medians over the runs of all sets (see
# main); peak RSS and the per-layer metrics are per-set medians averaged over
# the sets. Several
# traffic draws per call keep one seed's heavy-tailed flow mix from setting a
# call's figures. Each set is run at least once (twice when traced) even when
# --seconds is already spent.
INPUTS = 4
RUN_TIMEOUT_S = 60

# Which end-to-end metric each per-layer metric should move, and on which
# workloads. Written into every traced report next to the values.
LAYER_TARGETS = {
    "topo.build_ms": ("setup_s", "all"),
    "net.finalize_ms": ("setup_s", "all"),
    "traffic.install_ms": ("setup_s", "all"),
    "partition.lps": ("setup_s", "all"),
    "partition.cut_edges": ("setup_s", "all"),
    "core.events": ("events_per_s", "fattree-web"),
    "core.fel_push_pop_ns": ("events_per_s", "fattree-web"),
    "core.closure_fallbacks": ("events_per_s", "fattree-web"),
    "kernel.p_s": ("events_per_s", "fattree-web, fattree-incast"),
    "kernel.m_s": ("events_per_s", "fattree-web, fattree-incast"),
    "kernel.p_ns_per_event": ("events_per_s", "fattree-web, fattree-incast"),
    "kernel.rounds": ("events_per_s", "fattree-web, fattree-incast"),
    "kernel.events_per_round": ("events_per_s", "fattree-web, fattree-incast"),
    "kernel.imbalance": ("events_per_s", "fattree-incast"),
    "kernel.seq_events_per_s": ("events_per_s", "fattree-web, fattree-incast"),
    "sched.s_s": ("events_per_s, cpu_s", "wan-sync"),
    "sched.barrier_ns_per_round": ("events_per_s, cpu_s", "wan-sync"),
    "sched.parks_per_round": ("events_per_s, cpu_s", "wan-sync"),
    "sched.crossing_ns": ("events_per_s, cpu_s", "wan-sync"),
    "spec.rounds": ("events_per_s", "wan-spec"),
    "spec.hits": ("events_per_s", "wan-spec"),
    "spec.misses": ("events_per_s", "wan-spec"),
    "spec.rollback_ms": ("events_per_s", "wan-spec"),
    "spec.capture_us": ("events_per_s", "wan-spec"),
    "spec.checkpoint_bytes": ("events_per_s", "wan-spec"),
    "trace.overhead_pct": (None, "all"),
    "kernel.unaccounted_s": (None, "all"),
    "host.invol_ctx_switches": (None, "all"),
    "host.slow_run_share": (None, "all"),
    "mismatch_rate": (None, "all"),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"perfbench: no unison source tree under {ROOT}; nothing to build")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return False
    return WORKLOAD_BIN.is_file()


def run_workload(args):
    """Runs the workload binary once; returns its JSON object, or None on failure."""
    try:
        proc = subprocess.run([str(WORKLOAD_BIN), *args], capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: workload run timed out: {' '.join(args)}")
        return None
    if proc.returncode != 0:
        log(f"perfbench: workload run exited {proc.returncode}: {' '.join(args)}\n{proc.stderr}")
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log(f"perfbench: unreadable workload output: {proc.stdout[-500:]}")
        return None


def read_steal_ticks():
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def cmake_cache(key):
    try:
        with open(BUILD_DIR / "CMakeCache.txt") as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def compiler_version():
    cxx = cmake_cache("CMAKE_CXX_COMPILER")
    if not cxx:
        return ""
    try:
        out = subprocess.run([cxx, "--version"], capture_output=True, text=True, timeout=10)
        return out.stdout.splitlines()[0] if out.stdout else cxx
    except (OSError, subprocess.TimeoutExpired):
        return cxx


def rate(run):
    return run["events"] / run["run_s"]


def slow_run_share(runs):
    """Share of runs below two thirds of the fastest run's throughput.

    Parallel run times on a shared host come in regimes: for seconds at a
    time a run takes up to twice as long while other tenants load the host.
    This share tells such host noise from a change in the code."""
    best = max(rate(r) for r in runs)
    return sum(1 for r in runs if rate(r) * 1.5 < best) / len(runs)


def quartiles(values):
    """(lower quartile, median, upper quartile) of values."""
    values = list(values)
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def over_inputs(runs, value):
    """Median of value(run) within each input set, averaged over the sets."""
    groups = {}
    for r in runs:
        groups.setdefault(r["input"], []).append(value(r))
    return statistics.fmean(statistics.median(v) for v in groups.values())


def self_times(spans):
    """Self time (ms) per span name: duration minus what child spans cover."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    out = {}
    for s, covered in zip(spans, child_ns):
        dur = s["end_ns"] - s["start_ns"]
        out[s["name"]] = out.get(s["name"], 0.0) + (dur - covered) * 1e-6
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 0 <= args.seed < 2**60:
        ap.error("--seed must be in [0, 2^60)")

    if not build():
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    steal0 = read_steal_ticks()
    load0 = os.getloadavg()[0]
    children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t_begin = time.monotonic()

    def args_for(i):
        return [f"--workload={args.workload}", f"--seed={args.seed * INPUTS + i}"]

    oracles = [run_workload(args_for(i) + ["--kernel=sequential"]) for i in range(INPUTS)]
    if None in oracles:
        log("perfbench: a sequential oracle run failed")
        return 2

    runs = []
    attempted = failed = 0
    tracing = args.trace == 1
    min_runs = INPUTS * (2 if tracing else 1)
    deadline = time.monotonic() + args.seconds
    # A traced call runs (untraced, traced) pairs on one input set at a time,
    # so the trace overhead compares runs made under the same host conditions.
    while attempted < min_runs or time.monotonic() < deadline or (tracing and attempted % 2):
        i = (attempted // 2 if tracing else attempted) % INPUTS
        use_trace = tracing and attempted % 2 == 1
        extra = []
        if use_trace:
            # The call's first traced run keeps its spans next to its RunTrace
            # JSON (one pair per workload, overwritten by the next traced
            # call); later runs overwrite a scratch spans file.
            first = not any(r["traced"] for r in runs)
            stem = OUT_DIR / args.workload
            spans_path = Path(f"{stem}.spans{'' if first else '.last'}.json")
            extra = ["--trace", f"--spans-out={spans_path}"]
            if first:
                extra.append(f"--trace-out={stem}.runtrace.json")
        run = run_workload(args_for(i) + extra)
        attempted += 1
        ref = oracles[i]
        if run is None or run["fingerprint"] != ref["fingerprint"] \
                or run["events"] != ref["events"]:
            failed += 1
            if run is not None:
                log(f"perfbench: MISMATCH run {attempted} (seed {run['seed']}): fingerprint "
                    f"{run['fingerprint']} events {run['events']}, sequential "
                    f"{ref['fingerprint']} / {ref['events']}")
            continue
        run["input"] = i
        run["traced"] = use_trace
        if use_trace:
            with open(spans_path) as f:
                run["self_ms"] = self_times(json.load(f))
        runs.append(run)
    plain = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    if not plain or (tracing and not traced):
        log("perfbench: no successful measured run")
        return 1

    micro = None
    if tracing:
        depth = max(1, round(over_inputs(traced, lambda r: r["fel_depth"])))
        micro = run_workload([f"--seed={args.seed}", "--micro", f"--fel-depth={depth}",
                        f"--parties={plain[0]['threads']}"])
        if micro is None:
            log("perfbench: microloop run failed")
            return 1

    children1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    provenance = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "compiler": compiler_version(),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "loadavg_1m_start": load0,
        "loadavg_1m_end": os.getloadavg()[0],
        "steal_s": (read_steal_ticks() - steal0) / os.sysconf("SC_CLK_TCK"),
        "vol_ctx_switches": children1.ru_nvcsw - children0.ru_nvcsw,
        "invol_ctx_switches": children1.ru_nivcsw - children0.ru_nivcsw,
        "wall_s": time.monotonic() - t_begin,
    }

    mismatch_rate = failed / attempted
    medians = {}
    if not tracing:
        # Throughput is the upper quartile over the runs of all input sets,
        # CPU time the lower quartile: for seconds at a time the shared host
        # runs two busy threads at half speed (CPU per event doubles, the
        # sequential oracle is unaffected), and a call that caught such a
        # stretch in over half its runs moved the median by 2x. Host
        # interference only slows a run, so the faster quarter measures the
        # program; the median is kept in the report. CPU time grows with a
        # set's event count, so it is taken per event and scaled to the mean
        # set.
        mean_events = statistics.fmean(o["events"] for o in oracles)
        rates = quartiles(rate(r) for r in plain)
        cpu_per_event = quartiles(r["cpu_s"] / r["events"] for r in plain)
        medians = {"events_per_s": rates[1], "cpu_s": cpu_per_event[1] * mean_events}
        metrics = {
            "events_per_s": (rates[2], "1/s"),
            "setup_s": (statistics.median(r["setup_s"] for r in plain), "s"),
            "cpu_s": (cpu_per_event[0] * mean_events, "s"),
            "peak_rss_mb": (over_inputs(plain, lambda r: r["peak_rss_mb"]), "MiB"),
        }
    else:
        def per_round(r):
            return r["events"] / r["rounds"] if r["rounds"] else 0.0

        metrics = {
            "topo.build_ms": (over_inputs(runs, lambda r: r["topo_ms"]), "ms"),
            "net.finalize_ms": (over_inputs(runs, lambda r: r["finalize_ms"]), "ms"),
            "traffic.install_ms": (over_inputs(runs, lambda r: r["install_ms"]), "ms"),
            "partition.lps": (traced[0]["lps"], "count"),
            "partition.cut_edges": (traced[0]["cut_edges"], "count"),
            "core.events": (over_inputs(traced, lambda r: r["events"]), "count"),
            "core.fel_push_pop_ns": (micro["fel_push_pop_ns"], "ns"),
            "core.closure_fallbacks": (max(r["closure_fallbacks"] for r in runs), "count"),
            "kernel.p_s": (over_inputs(traced, lambda r: r["p_ns"] * 1e-9), "s"),
            "kernel.m_s": (over_inputs(traced, lambda r: r["m_ns"] * 1e-9), "s"),
            "kernel.p_ns_per_event": (over_inputs(traced, lambda r: r["p_ns"] / r["events"]), "ns"),
            "kernel.rounds": (over_inputs(traced, lambda r: r["rounds"]), "count"),
            "kernel.events_per_round": (over_inputs(traced, per_round), "count"),
            "kernel.imbalance": (over_inputs(traced, lambda r: r["imbalance"]), "ratio"),
            "kernel.seq_events_per_s":
                (statistics.fmean(o["events"] / o["run_s"] for o in oracles), "1/s"),
            "sched.s_s": (over_inputs(traced, lambda r: r["s_ns"] * 1e-9), "s"),
            "sched.barrier_ns_per_round":
                (over_inputs(traced, lambda r: r["barrier_ns_per_round"]), "ns"),
            "sched.parks_per_round": (over_inputs(traced, lambda r: r["parks_per_round"]), "count"),
            "sched.crossing_ns": (micro["crossing_ns"], "ns"),
            "spec.rounds": (over_inputs(traced, lambda r: r["spec_rounds"]), "count"),
            "spec.hits": (over_inputs(traced, lambda r: r["spec_hits"]), "count"),
            "spec.misses": (over_inputs(traced, lambda r: r["spec_misses"]), "count"),
            "spec.rollback_ms": (over_inputs(traced, lambda r: r["rollback_ns"] * 1e-6), "ms"),
            "spec.capture_us": (over_inputs(traced, lambda r: r["capture_us"]), "us"),
            "spec.checkpoint_bytes": (over_inputs(traced, lambda r: r["checkpoint_bytes"]), "bytes"),
            # Median throughput, untraced over traced, as events_per_s.
            "trace.overhead_pct":
                ((statistics.median(rate(r) for r in plain) /
                  statistics.median(rate(r) for r in traced) - 1.0) * 100.0, "%"),
            "kernel.unaccounted_s":
                (over_inputs(traced, lambda r: r["executors"] * r["run_s"] -
                             (r["p_ns"] + r["s_ns"] + r["m_ns"]) * 1e-9), "s"),
            "host.invol_ctx_switches": (over_inputs(runs, lambda r: r["invol_cs"]), "count"),
            "host.slow_run_share": (slow_run_share(plain), "ratio"),
            "mismatch_rate": (mismatch_rate, "ratio"),
        }

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": provenance,
        "attempted": attempted,
        "failed": failed,
        "mismatch_rate": mismatch_rate,
        "oracles": oracles,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "run_medians": medians,
        "runs": runs,
    }
    if tracing:
        report["layer_targets"] = {
            k: {"moves": t, "workloads": w} for k, (t, w) in LAYER_TARGETS.items()}
        names = sorted({n for r in traced for n in r["self_ms"]})
        report["span_self_ms"] = {
            n: over_inputs(traced, lambda r, n=n: r["self_ms"].get(n, 0.0)) for n in names}
        report["micro"] = micro
    with open(OUT_DIR / (tag + ".report.json"), "w") as f:
        json.dump(report, f, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} runs over {INPUTS} input sets, {failed} mismatched vs sequential "
          f"(mismatch_rate {mismatch_rate:.4f})")
    print("provenance: " + json.dumps(provenance))
    if tracing:
        print("span self time (ms): " +
              json.dumps({k: round(v, 4) for k, v in report["span_self_ms"].items()}))
    for name, (value, unit) in metrics.items():
        target = LAYER_TARGETS.get(name)
        note = f"  -> {target[0]} on {target[1]}" if target and target[0] else ""
        print(f"  {name:28s} {value:16.6g} {unit}{note}")
    for name, value in medians.items():
        print(f"  {name + ' (run median)':28s} {value:16.6g} {metrics[name][1]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
