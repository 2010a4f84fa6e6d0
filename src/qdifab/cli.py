"""Command-line driver: map, sim, check.

Exit codes are a stable contract: 0 success, 1 property violation or
simulation diagnostic, 2 input or usage error.  The default jitter seed
comes from the QDIFAB_SEED environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional

from .bitstream import BitstreamError, read_bitstream, write_bitstream
from .mapper import MappingError
from .netlist import NetlistError, parse_netlist
from .sidechannel import (
    AnalysisError,
    ComparisonError,
    dpa_difference_of_means,
    level_value_correlation,
    timing_spread,
    toggle_count_profile,
)
from .simulator import (
    DelayModel,
    SimulationInputError,
    check_no_early_evaluation,
    check_single_toggle,
    fabric_from_netlist,
    run,
)
from .trace import Trace

OK, VIOLATION, USAGE = 0, 1, 2


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return USAGE


def _parse_delays(spec: str) -> DelayModel:
    if spec == "uniform":
        return DelayModel()
    if spec == "jitter" or spec.startswith("jitter:"):
        if ":" in spec:
            seed = int(spec.split(":", 1)[1])
        else:
            seed = int(os.environ.get("QDIFAB_SEED", "0"))
        return DelayModel(mode="jitter", seed=seed)
    raise ValueError(f"unknown delay model {spec!r} (use uniform or jitter[:seed])")


def _parse_stimulus(text: str) -> Dict[str, List[int]]:
    stim: Dict[str, List[int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ValueError(f"stimulus line {lineno}: expected '<signal>: v1,v2,...'")
        name, values = line.split(":", 1)
        vals = [v.strip() for v in values.split(",") if v.strip()]
        try:
            stim[name.strip()] = [int(v) for v in vals]
        except ValueError:
            raise ValueError(f"stimulus line {lineno}: values must be integers") from None
    return stim


def cmd_map(args) -> int:
    try:
        with open(args.netlist) as fh:
            text = fh.read()
    except OSError as exc:
        return _fail(str(exc))
    try:
        net = parse_netlist(text)
        fabric = fabric_from_netlist(net)
    except (NetlistError, MappingError, ValueError) as exc:
        return _fail(str(exc))
    out = write_bitstream(fabric)
    with open(args.output, "w") as fh:
        fh.write(out)
    print(f"wrote {args.output}: {sum(len(mg.plbs) for mg in fabric.mapped)} block(s)")
    return OK


def cmd_sim(args) -> int:
    try:
        with open(args.bitstream) as fh:
            fabric = read_bitstream(fh.read())
    except OSError as exc:
        return _fail(str(exc))
    except BitstreamError as exc:  # names the line
        return _fail(f"{args.bitstream}: {exc}")
    try:
        with open(args.stimulus) as fh:
            stimulus = _parse_stimulus(fh.read())
        delays = _parse_delays(args.delays)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    try:
        trace = run(fabric, stimulus, delays=delays, max_time=args.max_time,
                    ack_delay=args.ack_delay)
    except SimulationInputError as exc:
        return _fail(str(exc))
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write(trace.to_csv())
    txns = sum(len(v) for s, v in trace.records.items()
               if s in fabric.primary_outputs())
    print(f"simulated to t={trace.end_time()}: {len(trace.events)} events, "
          f"{txns} output transaction(s)")
    for d in trace.diagnostics:
        print(f"diagnostic: {d}")
    if trace.deadlock or trace.diagnostics:
        return VIOLATION
    return OK


def _group_key(trace: Trace, select: Optional[str]):
    if select:
        return tuple(trace.values_of(select))
    produced = {g.output for g in trace.gates}
    ins = sorted(
        s for g in trace.gates for s in g.inputs if s not in produced
    )
    return tuple((s, tuple(trace.values_of(s))) for s in ins)


def cmd_check(args) -> int:
    traces = []
    for path in args.traces:
        try:
            with open(path) as fh:
                traces.append(Trace.from_csv(fh.read()))
        except OSError as exc:
            return _fail(str(exc))
        except ValueError as exc:  # TraceFormatError names the line
            return _fail(f"{path}: {exc}")
    prop = args.property
    report_rows: List[str] = []
    failed = False

    try:
        if prop == "single-toggle":
            for path, tr in zip(args.traces, traces):
                for sig, (ok, msg) in sorted(check_single_toggle(tr).items()):
                    status = "pass" if ok else "FAIL"
                    print(f"{path}: {sig}: {status} ({msg})")
                    report_rows.append(f"{path},{sig},{status},{msg}")
                    failed |= not ok
        elif prop == "no-early-eval":
            for path, tr in zip(args.traces, traces):
                ok, violations = check_no_early_evaluation(tr)
                print(f"{path}: {'pass' if ok else 'FAIL'}")
                for v in violations:
                    print(f"  {v}")
                report_rows.append(f"{path},{'pass' if ok else 'FAIL'}")
                failed |= not ok
        elif prop == "toggle-count":
            groups = {}
            for tr in traces:
                groups.setdefault(_group_key(tr, args.select), tr)
            profile = toggle_count_profile(groups)
            depth = min((len(v) for v in profile.values()), default=0)
            constant = len({v[:depth] for v in profile.values()}) <= 1
            for key, counts in sorted(profile.items(), key=lambda kv: str(kv[0])):
                print(f"value {key}: toggles per transaction {list(counts)}")
                report_rows.append(f"\"{key}\",{';'.join(map(str, counts))}")
            print(f"constant across values: {'pass' if constant else 'FAIL'}")
            failed |= not constant
        elif prop == "timing":
            groups = {}
            for tr in traces:
                groups.setdefault(_group_key(tr, args.select), tr)
            spread = timing_spread(groups)
            print(f"timing spread: {spread} tick(s): {'pass' if spread == 0 else 'FAIL'}")
            report_rows.append(f"spread,{spread}")
            failed |= spread != 0
        elif prop == "dpa":
            if not args.select:
                return _fail("--property dpa needs --select <signal>")
            series = dpa_difference_of_means(traces, args.select)
            peak = max((abs(x) for x in series), default=0.0)
            print(f"dpa difference-of-means peak: {peak:g}: "
                  f"{'pass' if peak == 0 else 'FAIL'}")
            report_rows.append("tick,difference")
            report_rows += [f"{t},{x:g}" for t, x in enumerate(series)]
            failed |= peak != 0
        elif prop == "ledr-risk":
            for path, tr in zip(args.traces, traces):
                for sig in sorted(tr.signals):
                    if not tr.records.get(sig):
                        continue
                    corr = level_value_correlation(tr, sig)
                    flag = " (level reveals value)" if corr >= 1.0 else ""
                    print(f"{path}: {sig}: correlation {corr:.1f}{flag}")
                    report_rows.append(f"{path},{sig},{corr:.1f}")
        else:
            return _fail(f"unknown property {prop!r}")
    except (AnalysisError, ComparisonError) as exc:
        return _fail(str(exc))

    if args.report:
        with open(args.report, "w") as fh:
            fh.write("\n".join(report_rows) + "\n")
    return VIOLATION if failed else OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qdifab",
        description="Asynchronous logic-block mapper, simulator and "
                    "side-channel property checker",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    m = sub.add_parser("map", help="compile a netlist to a bitstream")
    m.add_argument("netlist")
    m.add_argument("-o", "--output", required=True)
    m.set_defaults(func=cmd_map)

    s = sub.add_parser("sim", help="simulate a bitstream against a stimulus")
    s.add_argument("bitstream")
    s.add_argument("--stimulus", required=True)
    s.add_argument("--delays", default="uniform",
                   help="uniform | jitter[:seed] (default seed: $QDIFAB_SEED)")
    s.add_argument("--max-time", type=int, default=20000)
    s.add_argument("--ack-delay", type=int, default=1)
    s.add_argument("--trace", help="write the event trace CSV here")
    s.set_defaults(func=cmd_sim)

    c = sub.add_parser("check", help="verify properties over trace files")
    c.add_argument("traces", nargs="+")
    c.add_argument("--property", required=True,
                   choices=["single-toggle", "no-early-eval", "toggle-count",
                            "timing", "dpa", "ledr-risk"])
    c.add_argument("--select", help="signal whose value partitions the traces")
    c.add_argument("--report", help="write a machine-readable report here")
    c.set_defaults(func=cmd_check)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
