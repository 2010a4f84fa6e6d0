"""Simulation traces: ordered wire events plus one record per transaction.

The CSV form is self contained: comment headers describe the signals and
gates so the property checkers can run on a file alone.  When a signal
completes a value/acknowledge cycle, a ``# transaction`` line names the
transaction and the ``# record`` line right after it keeps its decoded
value and completion time.

:meth:`Trace.from_csv` accepts these lines, in any order but for the event
rows, whose times do not decrease from one row to the next, and the
transaction pairs; blank lines and whitespace around a line are ignored::

    # signal <name> proto=<4ph|ledr|edge> arity=<int> wires=<name>.0,<name>.1,...
    # gate <name> proto=<4ph|ledr|edge> in=<signal>,... out=<signal> ack=<0|1>
    # meta <key>=<value>                   (fabric, delays, seed; see below)
    # diagnostic <text>                    (text "deadlock" sets the flag)
    # transaction <signal> <index>         (a pair: the record line comes next,
    # record <signal> <index> <value> <time>  blank lines aside)
    time,wire,old,new                      (column header, skipped)
    <time>,<wire>,<old>,<new>              (event row; old and new are 0 or 1;
                                            time >= 0 and >= the previous row's)

Signal and gate fields may come in any order, each key once, and unknown
``key=value`` fields are ignored.  A signal is declared once, as a valid
:class:`qdifab.encodings.SignalSpec` (arity 2 to 4, and 2 under LEDR) whose
wire names, ``<name>.0,<name>.1,...``, are its ``wires`` exactly: every
wire is a rail of one signal.  Gates keep the per-gate rules of netlists
(:func:`qdifab.netlist.check_gates`: unique names, declared signals, one
driver per signal, ``proto`` that of its signals); there may be none.  A
gate's ``ack`` is 1 when it reads its consumer's acknowledge, and only then
does the no-early-evaluation check hold the gate's output to that
acknowledge, whatever its protocol.  Every other integer (an arity, a time,
an index, a value) is ASCII decimal digits.  Event rows come in
non-decreasing time order, as the property checkers replay them in file
order; in a row the wire is a name without whitespace, and the levels
old and new are each the digit 0 or 1: every wire is binary, and the
property checkers rely on it.  A transaction line and its record line are
one pair, with the same signal and index; a lone transaction or record line
is an error.  Pairs name declared signals, the records of a signal come
with indices 0, 1, 2, ... in file order and completion times that do not
decrease, and a record's value is below its signal's arity.  Any other line
starting with ``#`` is a comment.  A line that breaks these rules raises
:class:`TraceFormatError`, whose message starts with ``line <n>:``.

The simulator writes three meta keys: ``delays`` (``uniform`` or
``jitter``), ``seed`` (the jitter seed) and ``fabric``, the configuration's
identity: the first 16 hex digits of the sha256 of its bitstream
(:meth:`qdifab.bitstream.Fabric.fingerprint`).  Traces compared by the
side-channel analyses must agree on all three (``seed`` under jitter only).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

from .encodings import EncodingError, Protocol, SignalSpec
from .netlist import NetlistError, _fields, _natural, check_gates

_COLUMNS = "time,wire,old,new"
_LEVELS = {"0": 0, "1": 1}  # an event level or a gate's ack, as written
_ROW = "%s,%s,%s,%s\n"  # an event row, as written
_time = itemgetter(0)  # of an event
_completion = itemgetter(1)  # of a record

# The `# gate` line, which traces and bitstreams share.
GATE_USAGE = "# gate <name> proto=<4ph|ledr|edge> in=<signal>,... out=<signal> ack=<0|1>"

_USAGE = {
    "signal": "# signal <name> proto=<4ph|ledr|edge> arity=<int> wires=<name>.0,<name>.1,...",
    "gate": GATE_USAGE,
    "meta": "# meta <key>=<value>",
    "transaction": "# transaction <signal> <index>",
}


class TraceFormatError(ValueError):
    """A trace CSV line that breaks the grammar in the module docstring."""

    def __init__(self, lineno: int, msg: str):
        super().__init__(f"line {lineno}: {msg}")


class TraceEvent(NamedTuple):
    time: int
    wire: str
    old: int
    new: int


@dataclass(frozen=True)
class GateInfo:
    name: str
    protocol: Protocol
    inputs: Tuple[str, ...]
    output: str
    ack: bool

    def header(self) -> str:
        """The `# gate` line (see ``GATE_USAGE``), without a newline."""
        return (f"# gate {self.name} proto={self.protocol.value} in={','.join(self.inputs)} "
                f"out={self.output} ack={int(self.ack)}")

    @classmethod
    def from_header(cls, toks: List[str]) -> "GateInfo":
        """Inverse of :meth:`header` over its whitespace-split tokens, the
        leading ``#`` removed; fields in any order, unknown ones ignored.
        IndexError, KeyError or ValueError on a malformed line."""
        name, kv = _named_fields(toks)
        return cls(name, Protocol(kv["proto"]), tuple(kv["in"].split(",")),
                   kv["out"], bool(_LEVELS[kv["ack"]]))


@dataclass
class Trace:
    events: List[TraceEvent] = field(default_factory=list)
    # (time, signal, index) of every record, sorted (:func:`record_markers`):
    # a view of ``records`` that only the benchmark reads.
    markers: List[Tuple[int, str, int]] = field(default_factory=list)
    # signal -> [(value, completion time)] in transaction order: the one
    # model of a transaction, which the writer and every analysis read.
    records: Dict[str, List[Tuple[int, int]]] = field(default_factory=dict)
    signals: Dict[str, SignalSpec] = field(default_factory=dict)
    gates: List[GateInfo] = field(default_factory=list)
    diagnostics: List[str] = field(default_factory=list)
    deadlock: bool = False
    meta: Dict[str, str] = field(default_factory=dict)

    def events_for(self, wires: Tuple[str, ...]) -> List[TraceEvent]:
        wset = set(wires)
        return [e for e in self.events if e.wire in wset]

    def values_of(self, signal: str) -> List[int]:
        return [v for v, _ in self.records.get(signal, [])]

    def end_time(self) -> int:
        """The time of the last event or the latest completion, or 0."""
        last = self.events[-1].time if self.events else 0
        return max(last, 0, *(max(map(_completion, recs))
                              for recs in self.records.values() if recs))

    # -- CSV ------------------------------------------------------------

    def to_csv(self) -> str:
        """The CSV form (see the module docstring), in this order: the
        ``# qdifab-trace v1`` line, the meta lines sorted by key, the
        signals, the gates, the diagnostics (``deadlock`` last), the column
        header, then the events and the transaction pairs merged by time.
        Events are sorted stably by time, and the records by
        :func:`record_markers`; a pair comes after every event of its
        tick."""
        out = ["# qdifab-trace v1\n"]
        out += [f"# meta {k}={v}\n" for k, v in sorted(self.meta.items())]
        out += [f"# signal {s.name} proto={s.protocol.value} arity={s.arity} "
                f"wires={','.join(s.wire_names())}\n" for s in self.signals.values()]
        out += [g.header() + "\n" for g in self.gates]
        out += [f"# diagnostic {d}\n" for d in self.diagnostics]
        if self.deadlock:
            out.append("# diagnostic deadlock\n")
        out.append(_COLUMNS + "\n")

        events = sorted(self.events, key=_time)
        times = list(map(_time, events))
        rows = list(map(_ROW.__mod__, events))
        records = self.records
        start = 0
        for t, sig, idx in record_markers(records):
            end = bisect_right(times, t, start)
            out += rows[start:end]
            start = end
            out.append(f"# transaction {sig} {idx}\n"
                       f"# record {sig} {idx} {records[sig][idx][0]} {t}\n")
        out += rows[start:]
        return "".join(out)

    @classmethod
    def from_csv(cls, text: str) -> "Trace":
        tr = cls()
        rows: List[str] = []
        gate_lines: List[int] = []
        # signal -> the tokens and the line number of its record lines.
        pairs: Dict[str, List[list]] = {}
        numbered = enumerate(text.splitlines(), start=1)
        for lineno, raw in numbered:
            line = raw.strip()
            if line[:1] != "#":
                if line and line != _COLUMNS:
                    rows.append(line)
                continue
            toks = line[1:].split()
            tag = toks[0] if toks else ""
            try:
                if tag == "transaction":
                    _, sig, idx = toks
                    rec = ""
                    for rec_lineno, rec in numbered:  # its record line, blank lines aside
                        rec = rec.strip()
                        if rec:
                            break
                    rtoks = rec[1:].split()
                    if (len(rtoks) != 5 or rtoks[0] != "record" or rtoks[1] != sig
                            or rtoks[2] != idx or rec[0] != "#"):
                        raise TraceFormatError(
                            lineno, f"transaction {sig} {idx} is not followed by its "
                                    f"'# record {sig} {idx} <value> <time>' line")
                    rtoks.append(rec_lineno)
                    pairs.setdefault(sig, []).append(rtoks)
                    continue
                if tag == "record":
                    raise TraceFormatError(
                        lineno, "a record line that does not follow its "
                                "'# transaction <signal> <index>' line")
                if tag == "signal":
                    name, kv = _named_fields(toks)
                    spec = SignalSpec(name, Protocol(kv["proto"]),
                                      _natural(kv["arity"], "arity", lineno))
                    wires, own = kv["wires"], ",".join(spec.wire_names())
                    if wires != own:
                        raise TraceFormatError(
                            lineno, f"signal {name!r}: wires={wires}, where its wires are {own}")
                    if name in tr.signals:
                        raise TraceFormatError(lineno, f"signal {name!r} declared twice")
                    tr.signals[name] = spec
                elif tag == "gate":
                    tr.gates.append(GateInfo.from_header(toks))
                    gate_lines.append(lineno)
                elif tag == "meta":
                    k, v = toks[1].split("=", 1)
                    tr.meta[k] = v
                elif tag == "diagnostic":
                    text_d = " ".join(toks[1:])
                    if text_d == "deadlock":
                        tr.deadlock = True
                    else:
                        tr.diagnostics.append(text_d)
            except TraceFormatError:
                raise
            except NetlistError as exc:  # a key given twice, a bad arity
                raise TraceFormatError(lineno, exc.message) from None
            except EncodingError as exc:  # a signal that no SignalSpec admits
                raise TraceFormatError(lineno, str(exc)) from None
            except (IndexError, KeyError, ValueError):
                raise TraceFormatError(lineno, f"expected '{_USAGE[tag]}'") from None
        try:
            check_gates(tr.signals, tr.gates, gate_lines)
        except NetlistError as exc:
            raise TraceFormatError(exc.line, exc.message) from None
        tr.records = _parse_records(pairs, tr.signals)
        tr.markers = record_markers(tr.records)
        try:
            tr.events = _parse_events(rows)
        except ValueError:
            _raise_bad_event_row(text)
            raise
        return tr


def record_markers(records: Dict[str, List[Tuple[int, int]]]) -> List[Tuple[int, str, int]]:
    """(completion time, signal, index) of every record, sorted: the order
    of the transaction pairs in the CSV form, and ``Trace.markers``."""
    return sorted((t, sig, i) for sig, recs in records.items()
                  for i, (_, t) in enumerate(recs))


def window_counts(times: Sequence[int], ends: Iterable[int]) -> List[int]:
    """How many of the sorted ``times`` fall in each transaction window, one
    window per end time in the order given: from the previous end (or -1)
    exclusive to this one inclusive; a window that ends before it starts is
    empty."""
    counts = []
    start = bisect_right(times, -1)
    for t in ends:
        end = bisect_right(times, t)
        counts.append(end - start if end > start else 0)
        start = end
    return counts


def _named_fields(toks: List[str]) -> Tuple[str, Dict[str, str]]:
    """``<tag> <name> key=value ...`` -> (name, {key: value})."""
    return toks[1], _fields(toks[2:])


def _parse_events(rows: List[str]) -> List[TraceEvent]:
    """Event rows converted column by column; ValueError unless every row
    is four fields: integer of 0 or more, wire name, 0 or 1, 0 or 1, and
    the times do not decrease from row to row."""
    if not rows:
        return []
    if set(map(str.count, rows, repeat(","))) - {3}:
        raise ValueError("event rows need four fields")
    fields = ",".join(rows).split(",")
    wires = fields[1::4]
    if any(w.split() != [w] for w in set(wires)):
        raise ValueError("bad wire name")
    old, new = fields[2::4], fields[3::4]
    if not set(old).union(new) <= _LEVELS.keys():
        raise ValueError("a level other than 0 or 1")
    # int() also takes signs, "_", spaces and other scripts' digits; every
    # time is ASCII decimal digits if their concatenation is (one C-level
    # pass), and int() refuses an empty one.
    stamps = fields[0::4]
    if not "".join(stamps).encode("ascii", "replace").isdigit():
        raise ValueError("a time other than ASCII decimal digits")
    times = list(map(int, stamps))
    if times != sorted(times):
        raise ValueError("event rows out of time order")
    level = _LEVELS.__getitem__
    columns = zip(times, wires, map(level, old), map(level, new))
    # TraceEvent._make without its length check, which a 4-tuple cannot
    # fail; twice as fast as calling the class.
    return list(map(tuple.__new__, repeat(TraceEvent), columns))


def _parse_records(pairs: Dict[str, List[list]],
                   signals: Dict[str, SignalSpec]) -> Dict[str, List[Tuple[int, int]]]:
    """Each signal's record lines, as ``[record, signal, index, value,
    time, line number]``, converted column by column into its records.  A
    signal's first line that breaks a rule (a declared signal, indices 0, 1,
    2, ..., values and times integers of 0 or more, values below the
    arity, times that do not decrease) raises TraceFormatError."""
    records = {}
    for sig, recs in pairs.items():
        _, _, indices, values, stamps, _ = zip(*recs)
        arity = signals[sig].arity if sig in signals else 0
        # As for event times: every token is ASCII decimal digits if their
        # concatenation is, none being empty.
        if (indices == tuple(map(str, range(len(recs))))
                and "".join(values + stamps).encode("ascii", "replace").isdigit()):
            ints, times = list(map(int, values)), list(map(int, stamps))
            if max(ints) < arity and times == sorted(times):
                records[sig] = list(zip(ints, times))
                continue
        last = 0  # Some line breaks a rule: find the first.
        for n, (_, _, idx, value, t, lineno) in enumerate(recs):
            if not arity:
                raise TraceFormatError(lineno, f"{sig!r} is not a declared signal")
            if idx != str(n):
                raise TraceFormatError(lineno, f"record {idx} of {sig!r} where record {n} is next")
            try:
                value = _natural(value, "record value", lineno)
                t = _natural(t, "record time", lineno)
            except NetlistError as exc:
                raise TraceFormatError(lineno, exc.message) from None
            if value >= arity:
                raise TraceFormatError(lineno, f"record value {value} of {sig!r} is outside "
                                               f"0..{arity - 1}")
            if t < last:
                raise TraceFormatError(lineno, f"record {n} of {sig!r} completes at time {t}, "
                                               f"before record {n - 1} at {last}")
            last = t
    return records


def _raise_bad_event_row(text: str) -> None:
    """Raises TraceFormatError for the first event row of ``text`` that
    does not parse on its own or whose time is below the previous row's."""
    prev = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line[:1] == "#" or not line or line == _COLUMNS:
            continue
        try:
            t = _parse_events([line])[0].time
        except ValueError:
            raise TraceFormatError(
                lineno, f"expected an event row '{_COLUMNS}' of integer of 0 or "
                        f"more, wire name, 0 or 1, 0 or 1, got {line!r}") from None
        if prev is not None and t < prev:
            raise TraceFormatError(
                lineno, f"event at time {t} after an event at time {prev}; "
                        f"event rows come in non-decreasing time order")
        prev = t
