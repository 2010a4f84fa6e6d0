"""Netlist text format, and the mapping of its gates onto blocks.

The format is line oriented and diff friendly:

    # comment
    signal <name> proto=<4ph|ledr|edge> arity=<n>
    gate <name> fn=<hex truth table> in=<sig,...> out=<sig>

Every declared signal must connect to a gate, as an input or as the output.
A signal or gate name holds no ``,`` or ``;``, the list separators of
traces and bitstreams, and no signal has the name of a gate's internal
signal (``mapper.MappedGate.internal_signals``).
A ``key=`` is given once per line, and an arity is ASCII decimal digits.
The truth table ``fn`` is ASCII hex digits, indexed in mixed radix with the
first listed input as the least significant digit.  Binary-output gates use
one bit per entry (AND2 is 8, XOR2 is 6); ternary- and quaternary-output
gates use two bits per entry.  The table sets no bit past its last entry,
and no entry is at or above the output's arity.  :func:`map_gate` compiles
a gate through ``mapper.SHAPES``, the one list of the gate shapes the block
accepts; each shape decides whether the gate reads its consumer's
acknowledge.  A legacy ``ack`` token on a gate line is accepted and ignored,
with one ``DeprecationWarning`` per netlist that names the first line
carrying it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import prod
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .encodings import Protocol, SignalSpec
from . import mapper
from .mapper import MappedGate, MappingError


class NetlistError(ValueError):
    """Parse or consistency error, carrying a line number."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f"line {line}"
            if column is not None:
                loc += f", column {column}"
            loc += ": "
        super().__init__(loc + message)
        self.message = message
        self.line = line
        self.column = column


@dataclass(frozen=True)
class GateDecl:
    name: str
    fn: int
    inputs: Tuple[str, ...]
    output: str
    line: int


def primary_signals(signals: Iterable[str], gates) -> Tuple[List[str], List[str]]:
    """The boundary between a design and its environment: its primary
    inputs (driven by no gate) and primary outputs (read by no gate), each
    in ``signals`` order.  ``gates`` need ``inputs`` and ``output``.  The
    one boundary of netlists, fabrics and traces, for the simulator and the
    side-channel analyses alike."""
    driven = {g.output for g in gates}
    read = {s for g in gates for s in g.inputs}
    return [s for s in signals if s not in driven], [s for s in signals if s not in read]


def ack_source(signal: str, readers: Sequence) -> str:
    """The wire that acknowledges ``signal`` to its driver.  ``readers``
    holds the gate reading it at each of its input positions (a gate that
    reads it twice is listed twice).  With no reader the environment's
    ``<signal>.cack`` acknowledges it, with one that gate's ``<output>.sout``,
    and with several the join of their ``.sout`` wires, ``<signal>.ackin``."""
    if not readers:
        return f"{signal}.cack"
    if len(readers) == 1:
        return f"{readers[0].output}.sout"
    return f"{signal}.ackin"


@dataclass
class Netlist:
    signals: Dict[str, SignalSpec] = field(default_factory=dict)
    gates: List[GateDecl] = field(default_factory=list)

    def primary_inputs(self) -> List[str]:
        return primary_signals(self.signals, self.gates)[0]

    def primary_outputs(self) -> List[str]:
        return primary_signals(self.signals, self.gates)[1]


_DIGITS = {10: frozenset("0123456789"), 16: frozenset("0123456789abcdefABCDEF")}


def _natural(text: str, what: str, line: Optional[int] = None, base: int = 10) -> int:
    """``text``, ASCII digits of ``base`` (10 or 16), as an int; else a
    NetlistError naming ``line``.  The one integer rule of every reader:
    ``int()`` also takes signs, ``_``, ``0x``, spaces and other scripts'
    digits."""
    if text and _DIGITS[base].issuperset(text):
        return int(text, base)
    kind = "an integer of 0 or more" if base == 10 else "ASCII hex digits"
    raise NetlistError(f"{what} {text!r} is not {kind}", line)


def _fields(toks: Sequence[str], line: Optional[int] = None) -> Dict[str, str]:
    """``key=value`` tokens as a dict; a token without ``=`` or a key given
    twice raises NetlistError.  Every reader's rule for its fields."""
    kv: Dict[str, str] = {}
    for tok in toks:
        k, eq, v = tok.partition("=")
        if not eq or k in kv:
            raise NetlistError(f"{k}= given twice" if eq else f"expected key=value, got {tok!r}",
                               line)
        kv[k] = v
    return kv


def parse_netlist(text: str) -> Netlist:
    net = Netlist()
    declared: Dict[str, int] = {}  # signal -> its line
    legacy_ack = 0  # the first line carrying the legacy token
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        kind = toks[0]
        if kind in ("signal", "gate") and len(toks) > 1 and {",", ";"} & set(toks[1]):
            raise NetlistError(f"{kind} name {toks[1]!r} holds ',' or ';'", lineno)
        if kind == "signal":
            if len(toks) < 4:
                raise NetlistError("signal needs a name, proto= and arity=", lineno)
            name = toks[1]
            if name in net.signals:
                raise NetlistError(f"signal {name!r} declared twice", lineno)
            kv = _fields(toks[2:], lineno)
            proto = kv.get("proto")
            try:
                protocol = Protocol(proto)
            except ValueError:
                raise NetlistError(f"unknown protocol {proto!r}", lineno) from None
            arity = _natural(kv.get("arity", ""), "arity", lineno)
            try:
                net.signals[name] = SignalSpec(name, protocol, arity)
            except ValueError as exc:
                raise NetlistError(str(exc), lineno) from None
            declared[name] = lineno
        elif kind == "gate":
            if len(toks) < 5:
                raise NetlistError("gate needs a name, fn=, in= and out=", lineno)
            name = toks[1]
            if not legacy_ack and "ack" in toks[2:]:
                legacy_ack = lineno
            kv = _fields([t for t in toks[2:] if t != "ack"], lineno)
            if "fn" not in kv:
                raise NetlistError("gate needs fn=<hex>", lineno)
            fn = _natural(kv["fn"], "fn", lineno, 16)
            if "in" not in kv or "out" not in kv:
                raise NetlistError("gate needs in=<sig,...> and out=<sig>", lineno)
            inputs = tuple(s for s in kv["in"].split(",") if s)
            net.gates.append(GateDecl(name, fn, inputs, kv["out"], lineno))
        else:
            raise NetlistError(f"unknown directive {kind!r}", lineno, raw.index(kind) + 1)

    if legacy_ack:
        warnings.warn(f"line {legacy_ack}: the 'ack' gate token is ignored: every gate "
                      "shape decides its own acknowledge", DeprecationWarning, stacklevel=2)
    _check(net.signals, declared, net.gates, [g.line for g in net.gates])
    for g in net.gates:
        _check_table(g, net.signals)
    return net


def _check_table(gate: GateDecl, signals: Dict[str, SignalSpec]) -> None:
    """``gate.fn`` sets no bit past its last entry and holds no entry at or
    above its output's arity; else NetlistError naming the gate's line."""
    entries = prod(signals[s].arity for s in gate.inputs)
    out_arity = signals[gate.output].arity
    width = 1 if out_arity == 2 else 2
    if gate.fn >> (width * entries):
        raise NetlistError(f"gate {gate.name!r}: fn={gate.fn:x} sets bits past its "
                           f"{entries}-entry table", gate.line)
    for i in range(entries):
        entry = (gate.fn >> (width * i)) & ((1 << width) - 1)
        if entry >= out_arity:
            raise NetlistError(f"gate {gate.name!r}: fn entry {i} is {entry}, outside "
                               f"0..{out_arity - 1}", gate.line)


def check_gates(signals: Dict[str, SignalSpec], gates: Sequence,
                gate_lines: Sequence[int]) -> Tuple[Dict[str, str], Dict[str, int]]:
    """The per-gate rules of :func:`_check` and ``Trace.from_csv``: unique
    names, declared signals, one driver per signal, one protocol per gate
    (its ``protocol``, if declared).  Returns (signal -> driver, gate ->
    line); a broken rule raises :class:`NetlistError` naming the gate's line."""
    drivers: Dict[str, str] = {}
    line_of: Dict[str, int] = {}
    for g, line in zip(gates, gate_lines):
        if g.name in line_of:
            raise NetlistError(f"gate {g.name!r} declared twice", line)
        for s in (*g.inputs, g.output):
            if s not in signals:
                raise NetlistError(f"gate {g.name!r} references unknown signal {s!r}", line)
        if g.output in drivers:
            raise NetlistError(
                f"signal {g.output!r} driven by both {drivers[g.output]!r} and {g.name!r}",
                line,
            )
        drivers[g.output] = g.name
        line_of[g.name] = line
        protos = {signals[s].protocol for s in (*g.inputs, g.output)}
        if len(protos) > 1:
            raise NetlistError(f"gate {g.name!r} mixes protocols", line)
        declared = getattr(g, "protocol", None)
        if declared is not None and {declared} != protos:
            raise NetlistError(
                f"gate {g.name!r} declares proto={declared.value} but its signals are "
                f"{protos.pop().value}", line)
    return drivers, line_of


def _check(signals: Dict[str, SignalSpec], signal_lines: Dict[str, int],
           gates: Sequence, gate_lines: Sequence[int]) -> None:
    """The design rules of :func:`parse_netlist` and ``bitstream.read_bitstream``:
    :func:`check_gates`, every declared signal connects to a gate and the
    gates form a DAG.  The first rule broken raises :class:`NetlistError`
    naming the line, from ``signal_lines`` (signal -> line) or ``gate_lines``."""
    drivers, line_of = check_gates(signals, gates, gate_lines)
    connected = {s for g in gates for s in (*g.inputs, g.output)}
    for s, line in signal_lines.items():
        if s not in connected:
            raise NetlistError(f"signal {s!r} connects to no gate", line)

    # Data connections must form a DAG; rings would need explicitly declared
    # feedback, which this fabric does not expose.
    adj = {g.name: [drivers[s] for s in g.inputs if s in drivers] for g in gates}
    state: Dict[str, int] = {}

    def visit(v: str) -> None:
        state[v] = 1
        for u in adj[v]:
            if state.get(u) == 1:
                raise NetlistError(f"combinational cycle through gate {v!r}", line_of[v])
            if state.get(u, 0) == 0:
                visit(u)
        state[v] = 2

    for g in gates:
        if state.get(g.name, 0) == 0:
            visit(g.name)


def gate_function(gate: GateDecl, net: Netlist) -> Callable[..., int]:
    """Truth-table accessor over logical input values."""
    arities = [net.signals[s].arity for s in gate.inputs]
    out_arity = net.signals[gate.output].arity
    per_entry = 1 if out_arity == 2 else 2
    mask = (1 << per_entry) - 1

    def f(*vals: int) -> int:
        idx = 0
        scale = 1
        for v, a in zip(vals, arities):
            idx += v * scale
            scale *= a
        return (gate.fn >> (per_entry * idx)) & mask

    return f


def map_gate(gate: GateDecl, net: Netlist) -> MappedGate:
    """Compile one netlist gate; errors name the gate and its line."""
    out = net.signals[gate.output]
    arities = tuple(net.signals[s].arity for s in gate.inputs)
    shape = mapper.SHAPES.get((out.protocol, arities, out.arity))
    if shape is None:
        raise MappingError(f"line {gate.line}: gate {gate.name!r}: unsupported "
                           f"{out.protocol.value} shape {list(arities)} -> {out.arity}")
    mg = shape(gate.name, gate_function(gate, net), gate.inputs, gate.output)
    for name, _ in mg.internal_signals:
        if name in net.signals:
            raise MappingError(f"line {gate.line}: gate {gate.name!r}: its internal signal "
                               f"{name!r} has the name of a signal")
    return mg


def map_netlist(net: Netlist) -> List[MappedGate]:
    return [map_gate(g, net) for g in net.gates]
