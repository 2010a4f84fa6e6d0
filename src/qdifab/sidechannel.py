"""Observable-quantity analyses over traces.

The power proxy is the number of wire toggles per tick (a unit-weight
Hamming-distance model); routing and transistor matching are abstracted
into the per-wire delays of the simulation.  Transactions are aligned with
the boundary markers the simulator emits, never by re-alignment heuristics.

The data-independence checks mirror what the logic family promises: under
matched (uniform) delays the toggle count per transaction, the transaction
completion times, and the difference-of-means power series must not depend
on the data values.  A separate check flags signals whose resting wire
levels reveal the transmitted value, the known weakness of the
level-encoded two-phase code.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .trace import Trace, window_counts


class ComparisonError(ValueError):
    """Traces being compared do not share a configuration and routing."""


class AnalysisError(ValueError):
    """Analysis preconditions not met (for instance an empty partition)."""


def _boundary_signal(trace: Trace, signal: Optional[str]) -> str:
    if signal is not None:
        return signal
    if trace.gates:
        return trace.gates[-1].output
    marked = sorted({s for _, s, _ in trace.markers})
    if not marked:
        raise AnalysisError("trace has no transaction markers")
    return marked[0]


def _routing(trace: Trace) -> str:
    """The trace's delay model, with its seed under jitter."""
    delays = trace.meta.get("delays", "?")
    return f"jitter:{trace.meta.get('seed', '?')}" if delays == "jitter" else delays


def _check_same_fabric(traces: Iterable[Trace]) -> None:
    """Traces compared must share a configuration (the ``fabric`` meta) and
    a routing (the ``delays`` meta and, under jitter, the ``seed``)."""
    traces = list(traces)
    prints = {t.meta.get("fabric", "?") for t in traces}
    if len(prints) > 1:
        raise ComparisonError(f"traces from different configurations: {sorted(prints)}")
    routings = set(map(_routing, traces))
    if len(routings) > 1:
        raise ComparisonError(f"traces under different delays: {sorted(routings)}")


def toggles_per_transaction(
    trace: Trace, boundary: Optional[str] = None, wires: Optional[Sequence[str]] = None
) -> List[int]:
    """Wire toggles inside each completed transaction window, in
    completion order (:func:`qdifab.trace.window_counts`)."""
    b = _boundary_signal(trace, boundary)
    events = trace.events if wires is None else trace.events_for(wires)
    return window_counts(sorted(e.time for e in events),
                         sorted(t for t, s, _ in trace.markers if s == b))


def toggle_count_profile(
    traces_by_value: Mapping[object, Trace],
    boundary: Optional[str] = None,
    wires: Optional[Sequence[str]] = None,
) -> Dict[object, Tuple[int, ...]]:
    """Per-value toggle counts per transaction; input traces must come from
    one configuration and one shared routing: one delay model and, under
    jitter, one seed."""
    _check_same_fabric(traces_by_value.values())
    return {
        value: tuple(toggles_per_transaction(tr, boundary, wires))
        for value, tr in traces_by_value.items()
    }


def timing_spread(
    traces_by_value: Mapping[object, Trace], boundary: Optional[str] = None
) -> int:
    """max - min of transaction completion times across the value groups."""
    _check_same_fabric(traces_by_value.values())
    per_group: Dict[object, List[int]] = {}
    for value, tr in traces_by_value.items():
        b = _boundary_signal(tr, boundary)
        per_group[value] = sorted(t for t, s, _ in tr.markers if s == b)
    if not per_group:
        return 0
    depth = min(len(v) for v in per_group.values())
    spread = 0
    for k in range(depth):
        times = [v[k] for v in per_group.values()]
        spread = max(spread, max(times) - min(times))
    return spread


def power_series(trace: Trace, length: Optional[int] = None) -> List[int]:
    """Toggles per tick from reset to the end of the trace."""
    end = trace.end_time() if length is None else length
    series = [0] * (end + 1)
    for e in trace.events:
        t = e.time
        if t <= end:
            series[t] += 1
    return series


def dpa_difference_of_means(
    traces: Sequence[Trace], signal: str, txn_index: int = 0
) -> List[float]:
    """Mean power series of the value-1 partition minus the value-0 one.

    Traces are partitioned on the decoded value of ``signal`` in
    transaction ``txn_index``; both partitions need at least one trace.
    """
    _check_same_fabric(traces)
    parts: Dict[int, List[Trace]] = {0: [], 1: []}
    for tr in traces:
        values = tr.values_of(signal)
        if txn_index >= len(values):
            raise AnalysisError(
                f"trace has no transaction {txn_index} on {signal}"
            )
        parts[1 if values[txn_index] else 0].append(tr)
    if not parts[0] or not parts[1]:
        raise AnalysisError("a selection partition is empty")
    horizon = max(tr.end_time() for tr in traces)

    def mean(trs: List[Trace]) -> List[float]:
        acc = [0.0] * (horizon + 1)
        for tr in trs:
            for t, n in enumerate(power_series(tr, horizon)):
                acc[t] += n
        return [a / len(trs) for a in acc]

    hi, lo = mean(parts[1]), mean(parts[0])
    return [a - b for a, b in zip(hi, lo)]


def _levels_at_markers(trace: Trace, signal: str) -> List[Tuple[int, Tuple[int, ...]]]:
    """(value, resting wire levels) at each completed transaction."""
    wires = trace.signals[signal].wire_names()
    levels = dict.fromkeys(wires, 0)
    evs = sorted((e for e in trace.events if e.wire in levels), key=attrgetter("time"))
    marks = sorted((t, i) for t, s, i in trace.markers if s == signal)
    values = trace.records.get(signal, [])
    out = []
    k = 0
    for t, idx in marks:
        while k < len(evs) and evs[k].time <= t:
            levels[evs[k].wire] = evs[k].new
            k += 1
        if idx < len(values):
            out.append((values[idx][0], tuple(levels[w] for w in wires)))
    return out


def level_value_correlation(trace: Trace, signal: str) -> float:
    """1.0 when some wire's resting level always equals the value (or its
    complement) across transactions, 0.0 otherwise.

    A constant value sequence carries no evidence, so it reports 0.0; feed
    stimuli that exercise both values.
    """
    samples = _levels_at_markers(trace, signal)
    if len({v for v, _ in samples}) < 2:
        return 0.0
    width = len(samples[0][1])
    for w in range(width):
        if all(lv[w] == v for v, lv in samples):
            return 1.0
        if all(lv[w] == (v ^ 1) for v, lv in samples):
            return 1.0
    return 0.0
