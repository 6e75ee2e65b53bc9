#!/usr/bin/env python3
"""Flotilla host-cost benchmark: host time per simulated task through the
serial RP stack, on four paper-shaped workloads, with per-layer attribution.

    python3 perfbench/run.py --workload flux-null --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload recover --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --self-check --seed 1

Run it from the root of a checkout. It builds perfbench/ (which compiles
src/) into .bench_build/, runs each repetition of the workload as its own
single-threaded process, checks the outputs, and prints one JSON object as
the last line of stdout (with --workload all, one per workload in turn).
--trace 0 reports the end-to-end metrics of BENCHMARK.json (medians over
repetitions, tracing off), with host_us_per_task and setup_s at the
reference speed (perfbench/reference.hpp, at_reference below) and the raw
wall times printed beside them; --trace 1 reports the per-layer metrics
from a separate traced run plus the isolated per-layer families. --self-check
injects a 1.5x slowdown into one layer and checks that the metrics
attribute it. perfbench/layers.json records which end-to-end metric each
per-layer metric should move, and on which workload.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "flotilla-perfbench"
SPANS = ROOT / ".bench_build" / "perfbench-spans"  # span logs of traced runs
WORKLOADS = ("flux-null", "flux-saturated", "hybrid-service", "recover")

MIN_REPS = 3  # untraced repetitions per run, however short --seconds is
MIN_PAIRS = 2  # untraced/traced pairs behind obs.overhead_ratio
# --self-check: slowed/normal pairs of flux-null for the layer metric, and
# for host_us_per_task, whose single runs differ by ~1 us/task (more than
# the ~0.7 us injected), so it needs many pairs to resolve the rise.
SELF_CHECK_PAIRS = 6
SELF_CHECK_HOST_PAIRS = 80
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "core" / "session.hpp").is_file():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4"])
    # Compiler temporaries stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, capture_output=True, text=True,
                              env=env)
        if proc.returncode != 0:
            log(proc.stdout[-4000:], proc.stderr[-4000:])
            raise BenchError(f"build step failed: {' '.join(step)}")


def child(*args):
    """Runs one benchmark process and returns its JSON result."""
    cmd = [str(BINARY), *[str(a) for a in args]]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"timed out: {' '.join(cmd)}") from e
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode}: {' '.join(cmd)}\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def produce_journal(work, seed):
    path = work / f"hybrid-service-{seed}.journal"
    child("journal", "--seed", seed, "--out", path)
    return path


def run_args(workload, seed, journal, *extra):
    args = ["run", "--workload", workload, "--seed", seed, *extra]
    if journal is not None:
        args += ["--journal", journal]
    return args


def per_task(run):
    return max(run["done"] + run["failed"], 1)


def at_reference(run, seconds):
    """Host seconds of `run` at the reference speed: scaled by how much
    slower than nominal the reference workload ran beside them. A shared
    host's co-tenants slow the program and the reference alike, so this
    compares across host states where raw wall time does not."""
    return seconds * run["nominal_ref_s"] / run["ref_slice_s"]


def host_us(run):
    """host_us_per_task of one run, at the reference speed."""
    return at_reference(run, run["timed_s"]) * 1e6 / per_task(run)


def wall_us(run):
    """Raw wall-clock host time per task of one run."""
    return run["timed_s"] * 1e6 / per_task(run)


def check_run(run, label, errors):
    for e in run["errors"]:
        errors.append(f"{label}: {e}")


def check_same(reference, run, label, errors, overhead=False):
    """The virtual-time results of one seed do not depend on what is
    measured: every repetition, traced or not, must agree exactly."""
    if run["virt"] != reference["virt"]:
        diff = sorted(k for k in set(run["virt"]) | set(reference["virt"])
                      if run["virt"].get(k) != reference["virt"].get(k))
        errors.append(f"{label}: virtual results differ in {diff}")
    if run["journal_fnv"] != reference["journal_fnv"]:
        errors.append(f"{label}: journal differs")
    if overhead and run["overhead"] != reference["overhead"]:
        errors.append(f"{label}: OverheadReport categories differ")


def operations(run):
    """Operations attempted and failed: tasks, or offers with ingress."""
    return run["offered"], run["failed"] + run["rejected"]


def end_to_end(workload, seed, seconds, work):
    journal = produce_journal(work, seed) if workload == "recover" else None
    reps, took = [], []
    start = time.monotonic()
    # Stop before a repetition that would overrun the budget.
    while (len(reps) < MIN_REPS
           or time.monotonic() - start + median(took) <= seconds):
        began = time.monotonic()
        reps.append(child(*run_args(workload, seed, journal)))
        took.append(time.monotonic() - began)
    errors = []
    for i, run in enumerate(reps):
        check_run(run, f"rep {i}", errors)
        check_same(reps[0], run, f"rep {i}", errors)
    virt = reps[0]["virt"]
    metrics = {
        "host_us_per_task": median([host_us(r) for r in reps]),
        "setup_s": median([at_reference(r, r["setup_s"]) for r in reps]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "sim_tasks_per_s": virt["sim_tasks_per_s"],
        "sim_makespan_s": virt["sim_makespan_s"],
        "sim_core_utilization": virt["sim_core_utilization"],
        "sim_submit_launch_p50_s": virt["sim_submit_launch_p50_s"],
        "sim_submit_launch_p999_s": virt["sim_submit_launch_p999_s"],
    }
    attempted = sum(operations(r)[0] for r in reps)
    failed = sum(operations(r)[1] for r in reps)
    notes = [f"{len(reps)} repetitions of {per_task(reps[0])} tasks; "
             f"submit->launch over {int(virt['submit_launch_samples'])} "
             f"samples",
             f"host times at reference speed; raw wall time "
             f"{median([wall_us(r) for r in reps]):.4g} us/task, setup "
             f"{median([r['setup_s'] for r in reps]):.4g} s, reference "
             f"slice {median([r['ref_slice_s'] for r in reps]) * 1e3:.4g} "
             f"ms (nominal {reps[0]['nominal_ref_s'] * 1e3:.4g} ms)"]
    if "ingress_offer_launch_p50_s" in virt:
        notes.append(f"ingress offer->launch histogram: "
                     f"p50 {virt['ingress_offer_launch_p50_s']:.6g} s, "
                     f"p999 {virt['ingress_offer_launch_p999_s']:.6g} s")
    if "journal_prefix_records" in virt:
        notes.append(f"recovered from {int(virt['journal_prefix_records'])} "
                     f"of {int(virt['journal_records'])} journal records")
    return metrics, attempted, failed, errors, notes


trace_records_per_task = 32.0  # ring size guess, raised on overflow


def traced_child(args):
    """A traced run whose ring holds every record: a run that overflows
    the ring is repeated with the ring sized from its count."""
    global trace_records_per_task
    while True:
        run = child(*args, "--tracing", "--trace-records-per-task",
                    f"{trace_records_per_task:.3f}")
        if run["layer"]["obs.dropped"] == 0:
            return run
        trace_records_per_task = (
            run["layer"]["obs.recorded"] / per_task(run) * 1.02 + 1)


def traced(workload, seed, seconds, work, inject_ns=0.0):
    """Untraced, traced, and instrumented runs of one seed, then the
    isolated families. Returns the per-layer metrics."""
    start = time.monotonic()
    SPANS.mkdir(parents=True, exist_ok=True)
    spans_csv = SPANS / f"{workload}-{seed}.csv"
    journal = produce_journal(work, seed)
    wl_journal = journal if workload == "recover" else None
    inst = traced_child(run_args(workload, seed, wl_journal, "--stack",
                                 "forward", "--spans", "--inject-ns", inject_ns,
                                 "--spans-csv", spans_csv))
    # Untraced and traced runs alternate in pairs for half the budget; the
    # tracing overhead is the median of the pairs' ratios.
    pairs = []
    while len(pairs) < MIN_PAIRS or time.monotonic() - start < seconds / 2:
        plain = child(*run_args(workload, seed, wl_journal))
        tracing = traced_child(run_args(workload, seed, wl_journal))
        pairs.append((plain, tracing))
    plain, tracing = pairs[0]
    remaining = max(3.0, seconds - (time.monotonic() - start))
    iso = child("isolated", "--seed", seed, "--journal", journal,
                "--seconds", f"{remaining:.3f}")

    errors = []
    for i, (p, t) in enumerate(pairs):
        check_run(p, f"untraced {i}", errors)
        check_run(t, f"traced {i}", errors)
        check_same(plain, p, f"untraced {i}", errors)
        check_same(tracing, t, f"traced {i}", errors, overhead=True)
    check_run(inst, "instrumented", errors)
    check_same(plain, tracing, "traced vs untraced", errors)
    check_same(plain, inst, "instrumented vs untraced", errors)
    check_same(tracing, inst, "instrumented vs traced", errors, overhead=True)
    for label, run in (("traced", tracing), ("instrumented", inst)):
        if run["layer"]["obs.dropped"] != 0:
            errors.append(f"{label}: trace ring dropped records")

    tasks = per_task(inst)
    virt = inst["virt"]
    layer = inst["layer"]
    offered = virt.get("ingress_offered", 0)
    metrics = {name: layer[name] for name in (
        "sim.events_per_task", "sim.peak_pending", "sim.self_us_per_task",
        "sched.placement_attempts_per_task", "core.submit_us_per_task",
        "core.handler_us_per_task", "alloc.count_per_task",
        "alloc.bytes_per_task", "flux.submit_us_per_task",
        "dragon.submit_us_per_task", "obs.records_per_task", "obs.dropped",
        "model.rp_core_s_per_task", "model.scheduler_wait_s_per_task",
        "model.launch_s_p99")}
    metrics.update(iso)
    metrics.update({
        "ingress.offers_per_batch":
            offered / virt["ingress_batches"] if offered else 0.0,
        "ingress.deferred_fraction":
            virt["ingress_deferred"] / offered if offered else 0.0,
        "ingress.rejected_fraction":
            virt["ingress_rejected"] / offered if offered else 0.0,
        "journal.records_per_task": virt.get("journal_records", 0) / tasks,
        "journal.bytes_per_task": virt.get("journal_bytes", 0) / tasks,
        "obs.overhead_ratio": median(
            [host_us(t) / host_us(p) for p, t in pairs]),
        "host.wall_us_per_task": median([wall_us(p) for p, _ in pairs]),
        "host.ref_slice_ms": median(
            [p["ref_slice_s"] * 1e3 for p, _ in pairs]),
    })
    attempted, failed = operations(inst)
    notes = [f"{len(pairs)} untraced/traced pairs; instrumented run: "
             f"{tasks} tasks, "
             f"{inst['timed_s']:.3f} s timed; span log {spans_csv}"]
    return metrics, attempted, failed, errors, notes


def declared_metrics(key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[key]]


def report(metrics, key, attempted, failed, errors, notes):
    declared = declared_metrics(key)
    missing = [name for name, _ in declared if name not in metrics]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    for note in notes:
        print(note)
    for name, unit in declared:
        print(f"  {name:36s} {metrics[name]:>16.6g} {unit}")
    for e in errors:
        print(f"CHECK FAILED: {e}")
    print(json.dumps({
        "correct": not errors,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared},
    }))


def self_check(seed, work):
    """Injects a seeded busy-wait of half flux.submit_us_per_task into every
    flux submit (a 1.5x slowdown of that layer) through the benchmark's own
    forwarding backend, and checks that the per-layer metric attributes it,
    that host_us_per_task on flux-null rises by about the injected time,
    and that recover's journal counts and model metrics do not move."""
    def layer_us(inject_us):
        run = traced_child(run_args("flux-null", seed, None, "--stack",
                                    "forward", "--spans", "--inject-ns",
                                    inject_us * 1e3))
        return run["layer"]["flux.submit_us_per_task"]

    # The busy-wait takes the same wall time whatever the host's speed,
    # so its rise is measured in wall time, not at the reference speed.
    def wall_us_with(inject_us):
        run = child(*run_args("flux-null", seed, None, "--stack", "forward",
                              "--inject-ns", inject_us * 1e3))
        return wall_us(run)

    inject_us = 0.5 * median([layer_us(0.0) for _ in range(3)])

    def paired(measure, pairs):
        """Alternates which side runs first; returns each pair's values."""
        out = []
        for i in range(pairs):
            sides = (0.0, inject_us) if i % 2 == 0 else (inject_us, 0.0)
            out.append({x: measure(x) for x in sides})
        return out

    layer_ratios = [p[inject_us] / p[0.0]
                    for p in paired(layer_us, SELF_CHECK_PAIRS)]
    host_deltas = [p[inject_us] - p[0.0]
                   for p in paired(wall_us_with, SELF_CHECK_HOST_PAIRS)]
    layer_ratio = median(layer_ratios)
    rise = median(host_deltas)
    rec_base, _, _, errors, _ = traced("recover", seed, 10, work)
    rec_slow, _, _, more, _ = traced("recover", seed, 10, work,
                                     inject_ns=inject_us * 1e3)
    errors += more

    results = {
        "injected_us_per_task": inject_us,
        "flux_layer_ratio": layer_ratio,
        "flux_layer_ratios": layer_ratios,
        "host_us_per_task_rise": rise,
        "rise_over_injected": rise / inject_us,
        "host_deltas_us": host_deltas,
        "recover.flux.submit_us_per_task": [
            rec_base["flux.submit_us_per_task"],
            rec_slow["flux.submit_us_per_task"]],
    }
    if not 1.3 <= layer_ratio <= 1.7:
        errors.append(f"flux.submit_us_per_task moved {layer_ratio:.2f}x, "
                      f"not ~1.5x")
    if not 0.5 <= rise / inject_us <= 1.5:
        errors.append(f"host_us_per_task rose {rise:.3f} us for "
                      f"{inject_us:.3f} us injected")
    if rec_slow["flux.submit_us_per_task"] <= rec_base["flux.submit_us_per_task"]:
        errors.append("recover: flux.submit_us_per_task did not rise")
    # The journal records the simulation, which a host busy-wait cannot
    # change, so its counts must not move at all. The isolated journal
    # timings come from a process that is never given the injection, so
    # they are unaffected by construction and not compared.
    for name in ("journal.records_per_task", "journal.bytes_per_task",
                 "model.rp_core_s_per_task",
                 "model.scheduler_wait_s_per_task", "model.launch_s_p99"):
        results[f"recover.{name}"] = [rec_base[name], rec_slow[name]]
        if rec_base[name] != rec_slow[name]:
            errors.append(f"recover {name} moved under a flux slowdown")
    for e in errors:
        print(f"CHECK FAILED: {e}")
    print(json.dumps({"sensitivity_ok": not errors, "results": results}))
    return 0 if not errors else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        help="one workload, or all four in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run the layer-attribution sensitivity check")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")

    work = ROOT / ".bench_build" / f"perfbench-work-{os.getpid()}"
    try:
        build()
        work.mkdir(parents=True, exist_ok=True)
        if args.self_check:
            return self_check(args.seed, work)
        measure, key = ((traced, "per_layer") if args.trace
                        else (end_to_end, "end_to_end"))
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        for name in names:
            print(f"== {name} (seed {args.seed})")
            metrics, attempted, failed, errors, notes = measure(
                name, args.seed, args.seconds, work)
            report(metrics, key, attempted, failed, errors, notes)
        return 0
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
