"""Observable-quantity analyses over traces.

The power proxy is the number of wire toggles per tick (a unit-weight
Hamming-distance model); routing and transistor matching are abstracted
into the per-wire delays of the simulation.  Transactions are aligned on
the completion times of the records (``Trace.records``) of every primary
output of the trace's design (:func:`qdifab.netlist.primary_signals` over
``Trace.signals`` and ``Trace.gates``), never by re-alignment heuristics;
an output that completes no transaction raises :class:`AnalysisError`.

The data-independence checks mirror what the logic family promises: under
matched (uniform) delays the toggle count per transaction, the transaction
completion times, and the difference-of-means power series must not depend
on the data values.  A separate check flags signals whose resting wire
levels reveal the transmitted value, the known weakness of the
level-encoded two-phase code.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from .netlist import primary_signals
from .trace import Trace, window_counts


class ComparisonError(ValueError):
    """Traces being compared do not share a configuration and routing."""


class AnalysisError(ValueError):
    """Analysis preconditions not met (for instance an empty partition)."""


def _routing(trace: Trace) -> str:
    """The trace's delay model, with its seed under jitter."""
    delays = trace.meta.get("delays", "?")
    return f"jitter:{trace.meta.get('seed', '?')}" if delays == "jitter" else delays


def _check_same_fabric(traces: Iterable[Trace]) -> None:
    """Traces compared must share a configuration (the ``fabric`` meta and
    the primary outputs, which a trace without meta also has) and a
    routing (the ``delays`` meta and, under jitter, the ``seed``)."""
    traces = list(traces)
    prints = {t.meta.get("fabric", "?") for t in traces}
    if len(prints) > 1:
        raise ComparisonError(f"traces from different configurations: {sorted(prints)}")
    outputs = {tuple(primary_signals(t.signals, t.gates)[1]) for t in traces}
    if len(outputs) > 1:
        raise ComparisonError(f"traces with different primary outputs: {sorted(outputs)}")
    routings = set(map(_routing, traces))
    if len(routings) > 1:
        raise ComparisonError(f"traces under different delays: {sorted(routings)}")


def _output_completions(trace: Trace) -> List[Tuple[str, List[int]]]:
    """(output, sorted completion times) of each primary output, in
    :func:`qdifab.netlist.primary_signals` order; AnalysisError for an
    output with no completed transaction."""
    out = []
    for signal in primary_signals(trace.signals, trace.gates)[1]:
        times = sorted(t for _, t in trace.records.get(signal, ()))
        if not times:
            raise AnalysisError(f"primary output {signal!r} completes no transaction")
        out.append((signal, times))
    return out


def toggle_count_profile(
    traces_by_value: Mapping[object, Trace],
) -> Dict[object, Tuple[Tuple[str, Tuple[int, ...]], ...]]:
    """Per value, one (output, toggle counts per transaction) pair per
    primary output; input traces must come from one configuration and one
    shared routing: one delay model and, under jitter, one seed."""
    _check_same_fabric(traces_by_value.values())
    profile = {}
    for value, tr in traces_by_value.items():
        times = sorted(e[0] for e in tr.events)
        profile[value] = tuple((signal, tuple(window_counts(times, ends)))
                               for signal, ends in _output_completions(tr))
    return profile


def _aligned(per_value: Iterable[Iterable[Tuple[str, Sequence[int]]]]) -> List[tuple]:
    """The values' (output, per-transaction quantities) pairs, as one column
    per primary output and transaction index that every value completes."""
    per_output: Dict[str, List[Sequence[int]]] = {}
    for pairs in per_value:
        for signal, xs in pairs:
            per_output.setdefault(signal, []).append(xs)
    return [col for groups in per_output.values() for col in zip(*groups)]


def toggle_count_constant(profile: Mapping[object, Iterable[Tuple[str, Sequence[int]]]]) -> bool:
    """Whether each column of a :func:`toggle_count_profile` holds one count."""
    return all(len(set(col)) == 1 for col in _aligned(profile.values()))


def timing_spread(traces_by_value: Mapping[object, Trace]) -> int:
    """max - min of transaction completion times across the value groups,
    the largest over the columns of every primary output."""
    _check_same_fabric(traces_by_value.values())
    cols = _aligned(map(_output_completions, traces_by_value.values()))
    return max((max(ts) - min(ts) for ts in cols), default=0)


def power_series(trace: Trace, end: int) -> List[int]:
    """Toggles per tick from reset to ``end``."""
    series = [0] * (end + 1)
    for e in trace.events:
        t = e[0]
        if t <= end:
            series[t] += 1
    return series


def dpa_difference_of_means(traces: Sequence[Trace], signal: str) -> List[float]:
    """Mean power series of the value-1 partition minus the value-0 one.

    Traces are partitioned on the decoded value of ``signal`` in its first
    transaction; both partitions need at least one trace.
    """
    _check_same_fabric(traces)
    parts: Dict[int, List[Trace]] = {0: [], 1: []}
    for tr in traces:
        values = tr.values_of(signal)
        if not values:
            raise AnalysisError(f"trace has no transaction 0 on {signal}")
        parts[1 if values[0] else 0].append(tr)
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


def _levels_at_completions(trace: Trace, signal: str) -> List[Tuple[int, Tuple[int, ...]]]:
    """(value, resting wire levels) at each completed transaction, in
    completion order."""
    wires = trace.signals[signal].wire_names()
    levels = dict.fromkeys(wires, 0)
    evs = sorted((e for e in trace.events if e[1] in levels), key=itemgetter(0))
    recs = trace.records.get(signal, ())
    out = []
    k = 0
    for t, _, value in sorted((t, i, v) for i, (v, t) in enumerate(recs)):
        while k < len(evs) and evs[k][0] <= t:
            levels[evs[k][1]] = evs[k][3]
            k += 1
        out.append((value, tuple(levels[w] for w in wires)))
    return out


def level_value_correlation(trace: Trace, signal: str) -> float:
    """1.0 when some wire's resting level always equals the value (or its
    complement) across transactions, 0.0 otherwise.

    A constant value sequence carries no evidence, so it reports 0.0; feed
    stimuli that exercise both values.
    """
    samples = _levels_at_completions(trace, signal)
    if len({v for v, _ in samples}) < 2:
        return 0.0
    for w in range(len(samples[0][1])):
        if all(lv[w] == v for v, lv in samples) or all(lv[w] == v ^ 1 for v, lv in samples):
            return 1.0
    return 0.0
