"""Command-line driver: map, sim, check.

``check`` runs one of the ``PROPERTIES`` over trace files: ``single-toggle``
(one wire change per value, two for four-phase), ``no-early-eval`` (no gate
output ahead of its rendez-vous), ``toggle-count`` and ``timing`` (toggles per
transaction and completion times do not depend on the value of ``--select``,
or else of the primary inputs), ``dpa`` (a flat difference-of-means power
series, partitioned on ``--select``) and ``ledr-risk`` (signals whose resting
levels reveal their value).

Exit codes are a stable contract: 0 success, 1 property violation or
simulation diagnostic, 2 input or usage error, an unreadable or unwritable
file included.  ``--delays jitter`` is ``jitter:0``.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from typing import Dict, List, Optional

from .bitstream import BitstreamError, read_bitstream, write_bitstream
from .mapper import MappingError
from .netlist import NetlistError, _natural, parse_netlist, primary_signals
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


def _warn(message, *_) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _parse_delays(spec: str) -> DelayModel:
    if spec == "uniform":
        return DelayModel()
    if spec == "jitter":
        return DelayModel(mode="jitter", seed=0)
    if spec.startswith("jitter:"):
        return DelayModel(mode="jitter", seed=_natural(spec.split(":", 1)[1], "jitter seed"))
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
        name = name.strip()
        if name in stim:
            raise ValueError(f"stimulus line {lineno}: signal {name!r} given twice")
        vals = stim[name] = []
        for i, v in enumerate(filter(None, map(str.strip, values.split(",")))):
            try:
                vals.append(_natural(v, "value"))
            except NetlistError:
                raise ValueError(f"stimulus line {lineno}: {name!r}: value {v} at index {i} "
                                 "is not an integer of 0 or more") from None
    return stim


def cmd_map(args) -> int:
    with open(args.netlist) as fh:
        text = fh.read()
    try:
        # The warning filters decide whether a warning shows; one that does
        # is a single line.  One raised as an error (-W error) is an input
        # error.  Without -W each shows once, also where the CLI does not
        # run as ``__main__`` and default filters would hide it.
        with warnings.catch_warnings():
            warnings.showwarning = _warn
            if not sys.warnoptions:
                warnings.simplefilter("default")
            fabric = fabric_from_netlist(parse_netlist(text))
    except (NetlistError, MappingError, ValueError, DeprecationWarning) as exc:
        return _fail(str(exc))
    _write(args.output, write_bitstream(fabric))
    print(f"wrote {args.output}: {sum(len(mg.plbs) for mg in fabric.mapped)} block(s)")
    return OK


def cmd_sim(args) -> int:
    try:
        with open(args.bitstream) as fh:
            fabric = read_bitstream(fh.read())
    except BitstreamError as exc:  # names the line
        return _fail(f"{args.bitstream}: {exc}")
    try:
        with open(args.stimulus) as fh:
            stimulus = _parse_stimulus(fh.read())
        delays = _parse_delays(args.delays)
    except ValueError as exc:
        return _fail(str(exc))
    try:
        trace = run(fabric, stimulus, delays=delays, max_time=args.max_time)
    except SimulationInputError as exc:
        return _fail(str(exc))
    if args.trace:
        _write(args.trace, trace.to_csv())
    txns = sum(len(trace.records.get(s, ())) for s in fabric.primary_outputs())
    print(f"simulated to t={trace.end_time()}: {len(trace.events)} events, "
          f"{txns} output transaction(s)")
    for d in trace.diagnostics:
        print(f"diagnostic: {d}")
    if trace.deadlock or trace.diagnostics:
        return VIOLATION
    return OK


def _status(ok: bool) -> str:
    return "pass" if ok else "FAIL"


# Each property checker takes the trace paths, the traces and --select, and
# returns (the lines it prints, its report rows, whether the property failed).
def _single_toggle(paths, traces, select):
    lines, rows, failed = [], [], False
    for path, tr in zip(paths, traces):
        for sig, (ok, msg) in sorted(check_single_toggle(tr).items()):
            lines.append(f"{path}: {sig}: {_status(ok)} ({msg})")
            rows.append(f"{path},{sig},{_status(ok)},{msg}")
            failed |= not ok
    return lines, rows, failed


def _no_early_eval(paths, traces, select):
    lines, rows, failed = [], [], False
    for path, tr in zip(paths, traces):
        ok, violations = check_no_early_evaluation(tr)
        lines += [f"{path}: {_status(ok)}", *(f"  {v}" for v in violations)]
        rows.append(f"{path},{_status(ok)}")
        failed |= not ok
    return lines, rows, failed


def _groups(paths, traces, select):
    """The trace per value of ``select``, or else of the primary inputs;
    AnalysisError if two traces carry the same value."""
    groups, path_of = {}, {}
    for path, tr in zip(paths, traces):
        if select:
            key = tuple(tr.values_of(select))
        else:
            ins = sorted(primary_signals(tr.signals, tr.gates)[0])
            key = tuple((s, tuple(tr.values_of(s))) for s in ins)
        if key in groups:
            raise AnalysisError(
                f"{path_of[key]} and {path} carry the same values of "
                f"{select or 'the primary inputs'}; give one trace per value")
        groups[key], path_of[key] = tr, path
    return groups


def _toggle_count(paths, traces, select):
    profile = toggle_count_profile(_groups(paths, traces, select))
    depth = min((len(v) for v in profile.values()), default=0)
    constant = len({v[:depth] for v in profile.values()}) <= 1
    lines, rows = [], []
    for key, counts in sorted(profile.items(), key=lambda kv: str(kv[0])):
        lines.append(f"value {key}: toggles per transaction {list(counts)}")
        rows.append(f"\"{key}\",{';'.join(map(str, counts))}")
    lines.append(f"constant across values: {_status(constant)}")
    return lines, rows, not constant


def _timing(paths, traces, select):
    spread = timing_spread(_groups(paths, traces, select))
    return ([f"timing spread: {spread} tick(s): {_status(spread == 0)}"],
            [f"spread,{spread}"], spread != 0)


def _dpa(paths, traces, select):
    if not select:
        raise AnalysisError("--property dpa needs --select <signal>")
    series = dpa_difference_of_means(traces, select)
    peak = max((abs(x) for x in series), default=0.0)
    rows = ["tick,difference", *(f"{t},{x:g}" for t, x in enumerate(series))]
    return [f"dpa difference-of-means peak: {peak:g}: {_status(peak == 0)}"], rows, peak != 0


def _ledr_risk(paths, traces, select):
    lines, rows = [], []
    for path, tr in zip(paths, traces):
        for sig in sorted(s for s in tr.signals if tr.records.get(s)):
            corr = level_value_correlation(tr, sig)
            flag = " (level reveals value)" if corr >= 1.0 else ""
            lines.append(f"{path}: {sig}: correlation {corr:.1f}{flag}")
            rows.append(f"{path},{sig},{corr:.1f}")
    return lines, rows, False


PROPERTIES = {
    "single-toggle": _single_toggle,
    "no-early-eval": _no_early_eval,
    "toggle-count": _toggle_count,
    "timing": _timing,
    "dpa": _dpa,
    "ledr-risk": _ledr_risk,
}


def cmd_check(args) -> int:
    traces = []
    for path in args.traces:
        try:
            with open(path) as fh:
                traces.append(Trace.from_csv(fh.read()))
        except ValueError as exc:  # TraceFormatError names the line
            return _fail(f"{path}: {exc}")
        if args.select and args.select not in traces[-1].signals:
            return _fail(f"{path}: --select {args.select!r} is not a signal of the trace")
    try:
        lines, rows, failed = PROPERTIES[args.property](args.traces, traces, args.select)
    except (AnalysisError, ComparisonError) as exc:
        return _fail(str(exc))
    for line in lines:
        print(line)
    if args.report:
        _write(args.report, "\n".join(rows) + "\n")
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
                   help="uniform | jitter[:seed] (default seed: 0)")
    s.add_argument("--max-time", type=int, default=20000)
    s.add_argument("--trace", help="write the event trace CSV here")
    s.set_defaults(func=cmd_sim)

    c = sub.add_parser("check", help="verify properties over trace files")
    c.add_argument("traces", nargs="+")
    c.add_argument("--property", required=True, choices=list(PROPERTIES))
    c.add_argument("--select", help="signal whose value partitions the traces")
    c.add_argument("--report", help="write a machine-readable report here")
    c.set_defaults(func=cmd_check)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:  # a file that cannot be read or written
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
