"""Simulation traces: ordered wire events plus transaction bookkeeping.

The CSV form is self contained: comment headers describe the signals and
gates so the property checkers can run on a file alone.  A
``# transaction`` marker line is emitted when a signal completes a
value/acknowledge cycle, and a ``# record`` line keeps the decoded value
alongside it.

:meth:`Trace.from_csv` accepts these lines, in any order but for the event
rows, whose times do not decrease from one row to the next; blank lines and
whitespace around a line are ignored::

    # signal <name> proto=<4ph|ledr|edge> arity=<int> wires=<name>.0,<name>.1,...
    # gate <name> proto=<4ph|ledr|edge> in=<signal>,... out=<signal> ack=<0|1>
    # meta <key>=<value>                   (fabric, delays, seed; see below)
    # diagnostic <text>                    (text "deadlock" sets the flag)
    # transaction <signal> <index>
    # record <signal> <index> <value> <time>
    time,wire,old,new                      (column header, skipped)
    <time>,<wire>,<old>,<new>              (event row; old and new are 0 or 1;
                                            time >= 0 and >= the previous row's)

Signal and gate fields may come in any order and unknown ``key=value``
fields are ignored.  A signal is declared once, as a valid
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
property checkers rely on it.  Transaction and record lines name declared
signals, the records of a signal come with indices 0, 1, 2, ... in file
order, and a record's value is below its signal's arity.  A record gives
the completion time to the preceding transaction marker with the same
signal and index; a marker without a record keeps time -1.  Any other line
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
from .netlist import NetlistError, check_gates

_COLUMNS = "time,wire,old,new"
_LEVELS = {"0": 0, "1": 1}  # an event level or a gate's ack, as written
_ROW = "%s,%s,%s,%s\n"  # an event row, as written
_time = itemgetter(0)  # of an event or a marker

# The `# gate` line, which traces and bitstreams share.
GATE_USAGE = "# gate <name> proto=<4ph|ledr|edge> in=<signal>,... out=<signal> ack=<0|1>"

_USAGE = {
    "signal": "# signal <name> proto=<4ph|ledr|edge> arity=<int> wires=<name>.0,<name>.1,...",
    "gate": GATE_USAGE,
    "meta": "# meta <key>=<value>",
    "transaction": "# transaction <signal> <index>",
    "record": "# record <signal> <index> <value> <time>",
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
    # (time, signal, index): transaction `index` of `signal` completed.
    markers: List[Tuple[int, str, int]] = field(default_factory=list)
    # signal -> [(value, completion_time)] in transaction order.
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
        last = 0
        if self.events:
            last = max(last, self.events[-1].time)
        if self.markers:
            last = max(last, max(m[0] for m in self.markers))
        return last

    # -- CSV ------------------------------------------------------------

    def to_csv(self) -> str:
        """The CSV form (see the module docstring), in this order: the
        ``# qdifab-trace v1`` line, the meta lines sorted by key, the
        signals, the gates, the diagnostics (``deadlock`` last), the column
        header, then the events and markers merged by time.  Events and
        markers are each sorted stably by time, and a marker comes after
        every event of its tick.  A marker with a record is followed by its
        ``# record`` line, which carries the marker's time; a record with no
        marker is not written."""
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
        values = {(sig, idx): value for sig, pairs in self.records.items()
                  for idx, (value, _) in enumerate(pairs)}
        start = 0
        for t, sig, idx in sorted(self.markers, key=_time):
            end = bisect_right(times, t, start)
            out += rows[start:end]
            start = end
            out.append(f"# transaction {sig} {idx}\n")
            if (sig, idx) in values:
                out.append(f"# record {sig} {idx} {values[sig, idx]} {t}\n")
        out += rows[start:]
        return "".join(out)

    @classmethod
    def from_csv(cls, text: str) -> "Trace":
        tr = cls()
        markers, records = tr.markers, tr.records
        rows: List[str] = []
        gate_lines: List[int] = []
        # Each signal a transaction or record line names -> the first such line.
        named: Dict[str, int] = {}
        # (signal, index) -> position in tr.markers of the marker whose
        # completion time the matching record line supplies.
        awaiting: Dict[Tuple[str, int], int] = {}
        # (signal, value above 1) -> the first record line with that value.
        valued: Dict[Tuple[str, int], int] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
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
                    idx = _natural(idx, lineno, "transaction index")
                    awaiting[sig, idx] = len(markers)
                    markers.append((-1, sig, idx))
                    named.setdefault(sig, lineno)
                    continue
                if tag == "record":
                    _, sig, idx, value, t = toks
                    idx = _natural(idx, lineno, "record index")
                    value = _natural(value, lineno, "record value")
                    t = _natural(t, lineno, "record time")
                    recs = records.get(sig)
                    if recs is None:
                        recs = records[sig] = []
                        named.setdefault(sig, lineno)
                    if idx != len(recs):
                        raise TraceFormatError(
                            lineno, f"record {idx} of {sig!r} where record {len(recs)} is next")
                    recs.append((value, t))
                    if value > 1:  # every arity admits 0 and 1
                        valued.setdefault((sig, value), lineno)
                    pos = awaiting.pop((sig, idx), None)
                    if pos is not None:
                        markers[pos] = (t, sig, idx)
                    continue
                if tag == "signal":
                    name, kv = _named_fields(toks)
                    spec = SignalSpec(name, Protocol(kv["proto"]),
                                      _natural(kv["arity"], lineno, "arity"))
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
            except EncodingError as exc:  # a signal that no SignalSpec admits
                raise TraceFormatError(lineno, str(exc)) from None
            except (IndexError, KeyError, ValueError):
                raise TraceFormatError(lineno, f"expected '{_USAGE[tag]}'") from None
        try:
            check_gates(tr.signals, tr.gates, gate_lines)
        except NetlistError as exc:
            raise TraceFormatError(exc.line, exc.message) from None
        for sig, lineno in named.items():
            if sig not in tr.signals:
                raise TraceFormatError(lineno, f"{sig!r} is not a declared signal")
        bad = [(lineno, sig, value) for (sig, value), lineno in valued.items()
               if value >= tr.signals[sig].arity]
        if bad:
            lineno, sig, value = min(bad)
            raise TraceFormatError(lineno, f"record value {value} of {sig!r} is outside "
                                           f"0..{tr.signals[sig].arity - 1}")
        try:
            tr.events = _parse_events(rows)
        except ValueError:
            _raise_bad_event_row(text)
            raise
        return tr


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


def _natural(text: str, lineno: int, what: str) -> int:
    """``text``, ASCII decimal digits, as an int; else TraceFormatError."""
    if text.isascii() and text.isdigit():
        return int(text)
    raise TraceFormatError(lineno, f"{what} {text!r} is not an integer of 0 or more")


def _named_fields(toks: List[str]) -> Tuple[str, Dict[str, str]]:
    """``<tag> <name> key=value ...`` -> (name, {key: value})."""
    return toks[1], dict(t.split("=", 1) for t in toks[2:])


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
