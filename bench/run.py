#!/usr/bin/env python3
"""qdifab benchmark: the sweep, stream and audit workloads.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all                # all three, untraced
    python3 bench/run.py --workload all --trace 1      # per-layer metrics

Each workload runs in its own process with one closed-loop caller and no
threads.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run and the tracing overhead.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are for people.  See
bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Metric names, units and their order come from here.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Set-ups per untraced run: one before the timed phase, the rest spread
# evenly over it, so that their mean sees the same host as the timed work.
SETUP_REPEATS = 9
PACKAGE_MODULES = ("netlist", "simulator", "bitstream", "progchain", "trace",
                   "sidechannel", "cli")

clock = time.perf_counter  # paces the run; timed calls use hostspeed.clock


def import_package() -> SimpleNamespace:
    """Import qdifab from scratch, so that set-up time includes the import."""
    for name in [m for m in sys.modules if m == "qdifab" or m.startswith("qdifab.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"qdifab.{m}")
                              for m in PACKAGE_MODULES})


def run_units(wl, seconds: float, min_units: int, tracer=None,
              between=None, every: float = 0.0) -> List[workloads.UnitResult]:
    """Closed loop over the workload's units until ``seconds`` have passed
    and at least ``min_units`` units have run.  ``between``, if given, is
    called after the first unit that ends ``every`` seconds or more after its
    last call (or the start).  Each unit's timed intervals are then scaled to
    the reference host."""
    results: List[workloads.UnitResult] = []
    start = clock()
    last = start
    while len(results) < min_units or clock() - start < seconds:
        before = tracer.calls("plb.step") if tracer else 0
        res = wl.run_unit(len(results) % len(wl.units))
        if tracer:
            res.plb_steps = tracer.calls("plb.step") - before
        results.append(res)
        if between is not None and clock() - last >= every:
            between()
            last = clock()
    wl.speed.catch_up(1)  # the sample after the last interval
    for r in results:
        r.seconds = sum(wl.speed.scaled(*span) for span in r.spans)
        r.check_seconds = sum(wl.speed.scaled(*span) for span in r.check_spans)
    return results


def nondeterminism(results: List[workloads.UnitResult]) -> List[str]:
    first: Dict[int, tuple] = {}
    out = []
    for r in results:
        exact = r.exact()
        if first.setdefault(r.unit, exact) != exact:
            out.append(f"unit {r.unit} did not repeat its first run exactly")
    return out


def unit_times(results, part=lambda r: r.seconds + r.check_seconds) -> Dict[int, float]:
    """Mean scaled time of each unit over its runs.  What the scaling
    leaves of the host's speed swings, a mean averages over where a median
    would jump from one side to the other.  Keying by unit keeps the result
    independent of which units the seed's order happened to repeat."""
    by_unit: Dict[int, List[float]] = collections.defaultdict(list)
    for r in results:
        by_unit[r.unit].append(part(r))
    return {k: statistics.fmean(v) for k, v in by_unit.items()}


def end_to_end(results, n_units: int, setup_times: List[float]) -> Dict[str, float]:
    """One pass's counts over one pass's scaled time.  Checked transactions
    are over the time in the checkers; every other count is over the rest."""
    first = results[:n_units]
    wall = sum(unit_times(results).values())  # one full pass
    checking = sum(unit_times(results, lambda r: r.check_seconds).values())

    def rate(count: str, seconds: float = wall - checking) -> float:
        return sum(getattr(r, count) for r in first) / seconds

    return {
        "setup_s": statistics.fmean(setup_times),
        "wall_s": wall,
        "sims_per_s": rate("sims"),
        "values_per_s": rate("values"),
        "events_per_s": rate("events"),
        "checked_txns_per_s": rate("checked_txns", checking),
        "ticks_per_value": (sum(r.uniform_ticks for r in first)
                            / sum(r.uniform_values for r in first)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def tracing_overhead(untraced, traced, n_units: int) -> float:
    """Traced minus untraced scaled time of one pass, over the units both ran."""
    before, after = unit_times(untraced), unit_times(traced)
    common = before.keys() & after.keys()
    return sum(after[k] - before[k] for k in common) * n_units / len(common)


def pass_counters(wl, results, n_units: int) -> Dict[str, object]:
    """Exact counters of the first full pass; they repeat bit for bit."""
    first = results[:n_units]
    h = hashlib.sha256()
    for r in first:
        h.update(r.digest.encode())
    return {
        "ops": sum(r.attempted for r in first),
        "failed": sum(len(r.failures) for r in first),
        "sim.events": sum(r.events for r in first),
        "sim.ticks": sum(r.ticks for r in first),
        "traces_sha256": h.hexdigest(),
        "bitstreams_sha256": wl.bitstream_sha256,
    }


def report(name: str, results, problems: List[str], metrics: Dict[str, float],
           units: Dict[str, str], counters: Dict[str, object]) -> dict:
    attempted = sum(r.attempted for r in results)
    failures = [f for r in results for f in r.failures]
    known = sum(1 for f in failures if f[2])
    print(f"workload {name}: {len(results)} units run")
    for metric, value in metrics.items():
        print(f"  {metric:<44} {value:>16.6f} {units[metric]}")
    print(f"ops attempted {attempted}, failed {len(failures)} "
          f"({known} on a known defect, {len(failures) - known} unexpected)")
    for (reason, defect), count in sorted(
            collections.Counter((f[1], f[2]) for f in failures).items(), key=str):
        tag = f"known defect: {defect}" if defect else "UNEXPECTED"
        print(f"  failed x{count}: {reason} [{tag}]")
    if known:
        print(f"  known defect share of ops: {known / attempted:.4f}")
    for p in problems:
        print(f"problem: {p}")
    print("counters: " + json.dumps(counters, sort_keys=True))
    correct = not problems and known == len(failures)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def run_workload(args, workdir: str) -> dict:
    cls = workloads.WORKLOADS[args.workload]
    speed = hostspeed.Speedometer()

    def build(q):
        wl = cls(q, args.seed, args.size, workdir, speed)
        wl.setup()
        return wl

    if not args.trace:
        setup_times = []

        def timed_setup():
            speed.catch_up(1)
            t0 = hostspeed.clock()
            wl = build(import_package())
            t1 = hostspeed.clock()
            speed.catch_up(1)
            setup_times.append(speed.scaled(t0, t1))
            return wl

        wl = timed_setup()
        wl.reference()
        n = len(wl.units)
        # The set-ups made during the timed phase are thrown away; the
        # workload keeps running on the first one.  Their mean, like the unit
        # times, averages over what scaling leaves of the host's swings.
        results = run_units(wl, args.seconds, n, between=timed_setup,
                            every=args.seconds / (SETUP_REPEATS - 1))
        metrics = end_to_end(results, n, setup_times)
        print("set-up times: " + " ".join(f"{t:.4f}" for t in setup_times) + " s")
        print(f"host speed: median reference sample {speed.median_cost() * 1e3:.3f} ms "
              f"of CPU time; times are scaled to {hostspeed.REFERENCE_S * 1e3:.3f} ms")
        problems = [p for r in results for p in r.problems] + nondeterminism(results)
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        ordered = {m: metrics[m] for m in units}
        return report(args.workload, results, problems, ordered, units,
                      pass_counters(wl, results, n))

    # Traced run: an untraced stretch for the overhead baseline, then the same
    # corpus with every layer wrapped (including its set-up).
    q = import_package()
    wl = build(q)
    wl.reference()
    n = len(wl.units)
    untraced = run_units(wl, args.seconds / 2, 1)
    tracer = tracing.Tracer()
    tracer.install(q)
    try:
        wl = build(q)
        wl.reference()
        traced = run_units(wl, args.seconds / 2, n, tracer)
    finally:
        problems = [f"wrapper not restored: {a}" for a in tracer.restore()]
    results = untraced + traced
    problems += [p for r in results for p in r.problems] + nondeterminism(results)
    problems += [f"layer {s} recorded no calls (missing)"
                 for s in tracing.missing_spans(tracer, args.workload)]
    counters = pass_counters(wl, traced, n)
    counters["plb.steps"] = sum(r.plb_steps for r in traced[:n])
    metrics = tracing.layer_metrics(tracer)
    metrics.update({f"{m}.scale2x": 0.0 for m in tracing.SCALE_METRICS})
    if args.workload == "audit":
        metrics.update(wl.scale2x())
    metrics["sim.events"] = counters["sim.events"]
    metrics["sim.ticks"] = counters["sim.ticks"]
    metrics["plb.steps"] = counters["plb.steps"]
    metrics["tracing.overhead_s"] = tracing_overhead(untraced, traced, n)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    ordered = {m: metrics[m] for m in units}
    print(f"tracing overhead: {metrics['tracing.overhead_s']:.4f} s per pass, traced "
          f"wall_s {sum(unit_times(traced).values()):.4f} s")
    return report(args.workload, results, problems, ordered, units, counters)


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every corpus for smoke tests")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "qdifab" / "__init__.py").is_file():
        print(f"error: no qdifab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload == "all":
        return run_all(args)

    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        result = run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
