#!/usr/bin/env python3
"""Run-to-run stability of the benchmark.

Runs ``bench/run.py`` once per seed and workload, one run at a time, and
prints for every end-to-end metric the spread between the first and third
quartile as a share of the median, next to the metric's bound in
BENCHMARK.json.  With ``--sets 2`` it repeats the whole set with the same
seeds, checks that each second median is within the bound of the first, and
that the exact counters (events, ticks, trace and bitstream digests) repeat
bit for bit for every seed.

    python3 bench/stability.py --workloads stream --seeds 5
    python3 bench/stability.py --seeds 10 --sets 2 --out results.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    counters = next(json.loads(line[len("counters: "):]) for line in lines
                    if line.startswith("counters: "))
    result = json.loads(lines[-1])
    return {"seed": seed, "elapsed_s": elapsed, "counters": counters,
            "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {m: v["value"] for m, v in result["metrics"].items()}}


def spread(values) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", help="write every run and summary here as JSON")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(1, args.seeds + 1))
    runs = {w: [[one_run(w, s, args.seconds) for s in seeds] for _ in range(args.sets)]
            for w in args.workloads}
    ok = True
    summary = {}
    for w, sets in runs.items():
        print(f"{w}:")
        summary[w] = {}
        for metric, bound in bounds.items():
            per_set = [[r["metrics"][metric] for r in runs_] for runs_ in sets]
            spreads = [spread(v) for v in per_set]
            medians = [statistics.median(v) for v in per_set]
            line = (f"  {metric:<20} median {medians[0]:>14.6f}  spread "
                    + " / ".join(f"{s:.4f}" for s in spreads) + f"  bound {bound}")
            if any(s > bound for s in spreads):
                ok, line = False, line + "  SPREAD OVER BOUND"
            if len(sets) == 2:
                # Every metric is better lower or higher; worse by more than
                # the bound in either direction counts against it.
                change = medians[1] / medians[0] - 1
                line += f"  second/first {change:+.4f}"
                if abs(change) > bound:
                    ok, line = False, line + "  MEDIANS DISAGREE"
            print(line)
            summary[w][metric] = {"medians": medians, "spreads": spreads, "bound": bound}
        for r in (r for s in sets for r in s):
            if not r["correct"]:
                ok = False
                print(f"  seed {r['seed']}: correct is false")
        if len(sets) == 2:
            differ = [a["seed"] for a, b in zip(*sets) if a["counters"] != b["counters"]]
            ok &= not differ
            print(f"  exact counters differ between sets for seeds {differ}" if differ
                  else "  exact counters repeat across sets for every seed")
        fails = [r["failed"] / r["attempted"] for s in sets for r in s]
        print(f"  failed share of ops: min {min(fails):.4f} max {max(fails):.4f}")
        elapsed = [r["elapsed_s"] for s in sets for r in s]
        print(f"  elapsed per run: mean {statistics.fmean(elapsed):.1f} s, "
              f"max {max(elapsed):.1f} s")
    if args.out:
        Path(args.out).write_text(json.dumps({"summary": summary, "runs": runs}, indent=1))
    print("stable" if ok else "NOT STABLE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
