"""The trace CSV writer matches the sort-based first version byte for byte on
random traces, and a well-formed trace reads back to the same text and the
same records.

The random traces hold events and records out of time order, many on one
tick, completion times below 0, bool levels, diagnostics and the deadlock
flag.

The reader is also fuzzed: a golden-corpus trace with one line mutated either
reads or fails naming a line, and every ``qdifab check`` property keeps the
exit-code contract on it."""

import contextlib
import dataclasses
import functools
import io
import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qdifab.cli import PROPERTIES, main
from qdifab.encodings import Protocol, SignalSpec
from qdifab.trace import GateInfo, Trace, TraceEvent, TraceFormatError, record_markers

from . import _oracles
from .test_golden_traces import DESIGNS, FAULTS, _trace

# Times come from a small range so that events and records often share a
# tick; a well-formed trace has no time below 0.
TIMES = st.integers(min_value=-2, max_value=8)
WELL_FORMED_TIMES = st.integers(min_value=0, max_value=8)
BITS = st.integers(min_value=0, max_value=1)
PROTOCOLS = st.sampled_from(list(Protocol))
NAMES = ["a", "b", "o"]
TOKENS = st.text(alphabet="abz019_.:=", min_size=1, max_size=4)
DIAGNOSTICS = st.lists(st.sampled_from(
    ["g: output forbidden at t=5", "x: input forbidden at t=3", "stalled at t=9"]), max_size=3)


def _signals(draw):
    return {n: SignalSpec(n, draw(PROTOCOLS), 2) for n in NAMES}


def _gates(draw):
    return [GateInfo(f"g{k}", draw(PROTOCOLS), tuple(draw(st.lists(
                st.sampled_from(NAMES), min_size=1, max_size=3))),
                     draw(st.sampled_from(NAMES)), draw(st.booleans()))
            for k in range(draw(st.integers(min_value=0, max_value=2)))]


@st.composite
def traces(draw):
    """Any trace: events and records drawn apart from each other."""
    wires = st.sampled_from(["a.0", "a.1", "o.0", "o.1"]) | TOKENS
    levels = BITS | st.booleans()
    return Trace(
        events=draw(st.lists(st.builds(TraceEvent, TIMES, wires, levels, levels),
                             max_size=30)),
        records=draw(st.dictionaries(st.sampled_from(NAMES),
                                     st.lists(st.tuples(BITS, TIMES), max_size=4))),
        signals=_signals(draw),
        gates=_gates(draw),
        diagnostics=draw(DIAGNOSTICS),
        deadlock=draw(st.booleans()),
        meta=draw(st.dictionaries(st.sampled_from(["delays", "fabric", "seed"]), TOKENS)),
    )


@st.composite
def well_formed_traces(draw):
    """A trace that the reader gives back: event and record times of 0 or
    more; per signal, no records or records drawn freely but for their
    completion times, which do not decrease; events in any order.  The
    gates keep the per-gate rules: one protocol for every signal and gate,
    and one gate per output."""
    tr = draw(traces())
    proto = draw(PROTOCOLS)
    tr.signals = {n: SignalSpec(n, proto, 2) for n in NAMES}
    tr.gates = [dataclasses.replace(g, protocol=proto, output=out)
                for g, out in zip(tr.gates, draw(st.permutations(NAMES)))]
    tr.events = [e._replace(time=draw(WELL_FORMED_TIMES), old=int(e.old), new=int(e.new))
                 for e in tr.events]
    tr.records = {}
    for name in NAMES:
        times = sorted(draw(st.lists(WELL_FORMED_TIMES, max_size=4)))
        if times:
            tr.records[name] = [(draw(BITS), t) for t in times]
    return tr


@given(traces())
def test_to_csv_matches_sort_based_oracle(tr):
    assert tr.to_csv() == _oracles.trace_to_csv(tr)


@given(well_formed_traces())
def test_to_csv_reads_back_to_the_same_text(tr):
    text = tr.to_csv()
    assert Trace.from_csv(text).to_csv() == text


@given(well_formed_traces())
def test_records_read_back_from_csv(tr):
    # The records are the transactions: a record with no marker is written
    # and read back, and the markers are their view.
    back = Trace.from_csv(tr.to_csv())
    assert back.records == tr.records
    assert back.markers == record_markers(tr.records)


@functools.lru_cache(maxsize=None)
def _golden_lines(case: str):
    """The lines of a golden trace: a design's under uniform delays, or a
    fault run's."""
    design, inject = FAULTS.get(case, (case, None))
    return tuple(_trace(design, "uniform", inject).to_csv().splitlines())


# Words a key or a tag may be renamed to: the grammar's own and one unknown.
_KEYS = ["signal", "gate", "meta", "diagnostic", "transaction", "record", "proto", "arity",
         "wires", "in", "out", "ack", "fabric", "4ph", "ledr", "edge", "deadlock", "zz"]


@st.composite
def mutated_traces(draw):
    """A golden trace with one line mutated: a token (a run of characters
    between whitespace, ``,`` and ``=``) dropped, duplicated, swapped with
    another or renamed to a key, or a digit changed."""
    lines = list(_golden_lines(draw(st.sampled_from(sorted(DESIGNS) + sorted(FAULTS)))))
    headers = [i for i, ln in enumerate(lines) if ln.startswith("#")]
    at = draw(st.sampled_from(headers) | st.integers(0, len(lines) - 1))
    parts = re.split(r"([\s,=])", lines[at])  # tokens at even positions
    i = 2 * draw(st.integers(0, len(parts) // 2))
    kind = draw(st.sampled_from(["drop", "duplicate", "swap", "digit", "key"]))
    if kind == "drop":
        del parts[max(i - 1, 0):i + 1]
    elif kind == "duplicate":
        parts[i:i] = [parts[i], parts[i - 1] if i else " "]
    elif kind == "swap":
        j = 2 * draw(st.integers(0, len(parts) // 2))
        parts[i], parts[j] = parts[j], parts[i]
    elif kind == "key":
        parts[i] = draw(st.sampled_from(_KEYS))
    line = "".join(parts)
    digits = [k for k, c in enumerate(line) if c.isdigit()]
    if kind == "digit" and digits:
        k = draw(st.sampled_from(digits))
        line = line[:k] + draw(st.sampled_from("0123456789-+_ x\u0663")) + line[k + 1:]
    lines[at] = line
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=mutated_traces())
def test_mutated_golden_trace_reads_or_names_its_line(tmp_path, text):
    try:
        Trace.from_csv(text)
    except TraceFormatError as exc:
        lineno = re.match(r"line (\d+): ", str(exc))
        assert lineno and 1 <= int(lineno[1]) <= text.count("\n"), str(exc)
    path = tmp_path / "mutated.csv"
    path.write_text(text)
    for prop in PROPERTIES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = main(["check", str(path), "--property", prop])
        assert rc in (0, 1, 2), (prop, rc, out.getvalue())
