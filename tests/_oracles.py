"""Independent reference models for the C-element, the handshake
equations, the trace analyses, the programming chain and the bitstream's hex
packing.

The handshake models deliberately avoid the table/block evaluation path:
they are direct transcriptions of the output-wire case equations.  The trace
analysis models are the direct quadratic forms, which count every event again
for every transaction window.  The four-phase decode and the rendez-vous
check are the first versions, which classify every wire pattern afresh.  The
programming-chain models move every stage on every tick, which costs time
quadratic in the chain length, and read a block's chain without the
chain's own code.  The logic block's step is the first version, one branch
per memory-point mode, settling its LUTs on per-pin tuples through
``_util.lut_eval``.  The hex packing model builds each digit from its
four bits.  The trace writer is the first version, which sorts every event
and transaction pair on a composite key.  The stimulus producer is the first
version, which computes each next code of its signal with its own copy of
the first encoders and drives the wire on which it differs from the last
one.  The event kernel is the first version, one heap of every scheduled
event kept in same-tick insertion order by a rising sequence number.  All
are used as oracles.
"""

from __future__ import annotations

import io
from heapq import heappop, heappush
from itertools import count
from typing import Dict, List, Optional, Sequence, Tuple

from qdifab.encodings import (
    CodeKind,
    Protocol,
    SignalSpec,
    ValueCode,
    signal_parity,
)
from qdifab.plb import ITERATION_BOUND, OscillationError, PlbConfig, PlbState
from qdifab.progchain import Block, ProgrammingError, ReconfigLog
from qdifab.simulator import _IDLE, Simulation, SimulationInputError
from qdifab.trace import GateInfo, Trace, TraceEvent, record_markers

from ._util import lut_eval


def c_element_mux(prev: int, inputs: Sequence[int]) -> int:
    """The multiplexer form the logic block wires up, Z = (Z and OR(I)) or
    AND(I), which ``plb.c_element`` must match."""
    any_i = 1 if any(inputs) else 0
    all_i = 1 if all(inputs) else 0
    return (prev & any_i) | all_i


def all_16_functions():
    """Every two-input Boolean function, keyed by truth-table bits."""
    return {bits: (lambda x, y, b=bits: (b >> (x + 2 * y)) & 1) for bits in range(16)}


class FourPhase2InOracle:
    """Case equation for a dual-rail two-input gate with memory effect."""

    def __init__(self, f, with_ack: bool = True):
        self.f = f
        self.with_ack = with_ack
        self.o = (0, 0)

    def step(self, x: Optional[int], y: Optional[int], ack: int):
        valid = x is not None and y is not None
        null = x is None and y is None
        if valid and (not self.with_ack or ack == 0):
            v = self.f(x, y)
            self.o = (1 if v == 0 else 0, 1 if v == 1 else 0)
        elif null and (not self.with_ack or ack == 1):
            self.o = (0, 0)
        return self.o


class FourPhase3InOracle:
    def __init__(self, f):
        self.f = f
        self.o = (0, 0)

    def step(self, x, y, z):
        if x is not None and y is not None and z is not None:
            v = self.f(x, y, z)
            self.o = (1 if v == 0 else 0, 1 if v == 1 else 0)
        elif x is None and y is None and z is None:
            self.o = (0, 0)
        return self.o


class Ternary2InOracle:
    def __init__(self, f):
        self.f = f
        self.o = (0, 0, 0)

    def step(self, x, y):
        if x is not None and y is not None:
            v = self.f(x, y)
            self.o = tuple(1 if v == i else 0 for i in range(3))
        elif x is None and y is None:
            self.o = (0, 0, 0)
        return self.o


class Ledr2InOracle:
    """Case equation for the level-encoded dual-rail two-input gate."""

    def __init__(self, f):
        self.f = f
        self.od = 0
        self.orr = 0

    def step(self, xd, xr, yd, yr, ack):
        px, py = xd ^ xr, yd ^ yr
        if px == 0 and py == 0 and ack == 1:
            v = self.f(xd, yd)
            self.od, self.orr = v, v
        elif px == 1 and py == 1 and ack == 0:
            v = self.f(xd, yd)
            self.od, self.orr = v, v ^ 1
        return self.od, self.orr


# -- four-phase decoding and the rendez-vous, decoding every wire list ---------


def decode_4ph(wires: Sequence[int]) -> ValueCode:
    """Classify a one-of-n wire pattern.

    All-zero is NULL, a single 1 at index i is Valid(i), anything else is
    Forbidden.  Forbidden is returned as a value rather than raised so a
    simulation can log the pattern and keep running.
    """
    bits = tuple(int(b) for b in wires)
    weight = sum(bits)
    if weight == 0:
        return ValueCode(CodeKind.NULL, None)
    if weight == 1:
        return ValueCode(CodeKind.VALID, bits.index(1))
    return ValueCode(CodeKind.FORBIDDEN, None)


def check_no_early_evaluation(trace: Trace) -> Tuple[bool, List[str]]:
    """No gate output event may precede its rendez-vous condition.

    Replays the trace and, at every output-signal event, re-evaluates the
    firing rule of the driving gate on the then-current wire levels.  Valid
    under the uniform delay model, where an output event always lands after
    the inputs that caused it.
    """
    levels: Dict[str, int] = {}
    out_wire_gate: Dict[str, GateInfo] = {}
    for g in trace.gates:
        info = trace.signals.get(g.output)
        if info:
            for w in info.wire_names():
                out_wire_gate[w] = g
    consumers_of: Dict[str, List[GateInfo]] = {}
    for g in trace.gates:
        for s in g.inputs:
            consumers_of.setdefault(s, []).append(g)

    def ack_level(g: GateInfo) -> int:
        sinks = consumers_of.get(g.output, [])
        if len(sinks) == 1:
            return levels.get(f"{sinks[0].output}.sout", 0)
        if not sinks:
            return levels.get(f"{g.output}.cack", 0)
        return levels.get(f"{g.output}.ackin", 0)  # the join of the consumers' acks

    def sig_levels(name: str) -> List[int]:
        return [levels.get(w, 0) for w in trace.signals[name].wire_names()]

    toggles: Dict[str, int] = {}
    violations: List[str] = []
    for e in trace.events:
        wire = e.wire
        levels[wire] = e.new
        toggles[wire] = toggles.get(wire, 0) + 1
        g = out_wire_gate.get(wire)
        if g is None:
            continue
        if g.protocol is Protocol.FOUR_PHASE:
            out_code = decode_4ph(sig_levels(g.output))
            ins = [decode_4ph(sig_levels(s)).kind for s in g.inputs]
            a = ack_level(g) if g.ack else None
            if out_code.kind is CodeKind.VALID:
                if any(k is not CodeKind.VALID for k in ins) or (a == 1):
                    violations.append(
                        f"{g.name}: output valid at t={e.time} before rendez-vous"
                    )
            elif out_code.kind is CodeKind.NULL:
                if any(k is not CodeKind.NULL for k in ins) or (a == 0):
                    violations.append(
                        f"{g.name}: output cleared at t={e.time} before rendez-vous"
                    )
            else:
                violations.append(f"{g.name}: output forbidden at t={e.time}")
        elif g.protocol is Protocol.LEDR:
            # The event flipped the output phase; the inputs must already
            # carry that phase and the acknowledge the old one.
            new_phase = signal_parity(sig_levels(g.output))
            in_phases = {signal_parity(sig_levels(s)) for s in g.inputs}
            a = ack_level(g) if g.ack else None
            if in_phases != {new_phase}:
                violations.append(
                    f"{g.name}: output phase flip at t={e.time} before input phases"
                )
            elif a is not None and a != (new_phase ^ 1):
                violations.append(
                    f"{g.name}: output phase flip at t={e.time} before acknowledge"
                )
        else:  # edge: count-based rendez-vous
            out_count = sum(
                toggles.get(w, 0) for w in trace.signals[g.output].wire_names()
            )
            for s in g.inputs:
                in_count = sum(toggles.get(w, 0) for w in trace.signals[s].wire_names())
                if in_count < out_count:
                    violations.append(
                        f"{g.name}: output toggle {out_count} at t={e.time} "
                        f"before input {s}"
                    )
    return not violations, violations


# -- trace analyses, window by window ------------------------------------------


def toggles_per_transaction(trace: Trace, boundary: str) -> List[int]:
    """Wire toggles inside each window between successive completion times
    of ``boundary``, the first window opening at -1."""
    counts = []
    prev = -1
    for hi in sorted(t for _, t in trace.records.get(boundary, ())):
        counts.append(sum(1 for e in trace.events if prev < e.time <= hi))
        prev = hi
    return counts


def single_toggle_verdicts(trace: Trace) -> Dict[str, Tuple[bool, str]]:
    """Per-signal verdicts of the single-toggle property: the four-phase
    decode walk, then the change count of each window in transaction
    order."""
    verdicts: Dict[str, Tuple[bool, str]] = {}
    for name, info in trace.signals.items():
        wires = set(info.wire_names())
        evs = [e for e in trace.events if e.wire in wires]
        ok, msg = True, "ok"
        if info.protocol is Protocol.FOUR_PHASE:
            levels = {w: 0 for w in info.wire_names()}
            state = "null"
            for e in evs:
                levels[e.wire] = e.new
                code = decode_4ph([levels[w] for w in info.wire_names()])
                if code.kind is CodeKind.FORBIDDEN:
                    ok, msg = False, f"forbidden pattern at t={e.time}"
                    break
                if code.kind is CodeKind.VALID and state == "valid":
                    ok, msg = False, f"valid-to-valid jump at t={e.time}"
                    break
                state = "valid" if code.kind is CodeKind.VALID else "null"
        if ok:
            expected = 2 if info.protocol is Protocol.FOUR_PHASE else 1
            prev = -1
            for _, b in trace.records.get(name, ()):
                n = sum(1 for e in evs if prev < e.time <= b)
                if n != expected:
                    ok, msg = False, (
                        f"{n} wire changes in transaction ending t={b} "
                        f"(expected {expected})"
                    )
                    break
                prev = b
        verdicts[name] = (ok, msg)
    return verdicts


def level_value_correlation(trace: Trace, signal: str) -> float:
    """1.0 when some wire's level at every completed transaction of
    ``signal`` equals the value or its complement, given two values."""
    info = trace.signals[signal]
    samples = []
    for t, _, value in sorted((t, i, v) for i, (v, t) in enumerate(trace.records.get(signal, ()))):
        levels = {w: 0 for w in info.wire_names()}
        for e in sorted(trace.events, key=lambda e: e.time):
            if e.time <= t and e.wire in levels:
                levels[e.wire] = e.new
        samples.append((value, tuple(levels[w] for w in info.wire_names())))
    if len({v for v, _ in samples}) < 2:
        return 0.0
    for w in range(len(info.wire_names())):
        if all(lv[w] == v for v, lv in samples) or all(lv[w] == v ^ 1 for v, lv in samples):
            return 1.0
    return 0.0


# -- programming chain, stage by stage ----------------------------------------


def snapshot(block: Block) -> Tuple[Optional[int], ...]:
    """The chain's stages, head to tail; None is an empty stage."""
    return tuple(block.stages)


def stored_bits(block: Block) -> Tuple[int, ...]:
    """The stored bits in arrival order (tail first)."""
    return tuple(b for b in reversed(block.stages) if b is not None)


def rails(block: Block) -> Tuple[Tuple[int, int], ...]:
    """Each stage's dual-rail pair, head to tail: (0, 0) when empty."""
    return tuple((0, 0) if b is None else ((1, 0) if b == 0 else (0, 1))
                 for b in block.stages)


def chain_shift_tick(block: Block, feed: Optional[int]) -> Optional[int]:
    """One settle tick: bits move one stage tailward, a fed bit enters the
    head if it is free.  Returns the bit still waiting at the input."""
    for k in range(block.length - 1, 0, -1):
        if block.stages[k] is None and block.stages[k - 1] is not None:
            block.stages[k] = block.stages[k - 1]
            block.stages[k - 1] = None
    if feed is not None and block.stages[0] is None:
        block.stages[0] = feed
        return None
    return feed


def chain_settle(block: Block) -> None:
    while True:
        before = snapshot(block)
        chain_shift_tick(block, None)
        if snapshot(block) == before:
            return


def chain_load_block(block: Block, bits: Sequence[int]) -> Block:
    """Stream NULL-separated bits into a reset chain with the tail held.

    Refuses more bits than stages; zero bits leave the block unconfigured.
    """
    if any(b is not None for b in block.stages):
        raise ProgrammingError("chain must be drained before loading")
    if len(bits) > block.length:
        raise ProgrammingError(
            f"{len(bits)} bits overflow a {block.length}-stage chain"
        )
    if not bits:
        return block
    pending = list(bits)
    waiting: Optional[int] = None
    guard = 0
    while pending or waiting is not None:
        if waiting is None:
            waiting = pending.pop(0)
        waiting = chain_shift_tick(block, waiting)
        guard += 1
        if guard > 4 * block.length * (len(bits) + 1):
            raise ProgrammingError("chain did not accept all bits")
    chain_settle(block)
    return block


def chain_drain_block(block: Block) -> Tuple[int, ...]:
    """Release the tail acknowledge and collect the bits in FIFO order."""
    out: List[int] = []
    while any(b is not None for b in block.stages):
        if block.stages[-1] is not None:
            out.append(block.stages[-1])
            block.stages[-1] = None
        chain_shift_tick(block, None)
    return tuple(out)


def chain_reconfigure_block(block: Block, new_bits: Sequence[int]) -> ReconfigLog:
    """Drain a configured block, stream the new bits, re-hold the tail.

    The block's logic outputs read 0 on every tick of the operation; the
    switchboxes stay insulated until the load commits.
    """
    if not block.configured:
        raise ProgrammingError("block is not configured")
    if len(new_bits) > block.length:
        raise ProgrammingError(
            f"{len(new_bits)} bits overflow a {block.length}-stage chain"
        )
    # The block programs from the drain's first tick to the final settle,
    # and its logic outputs are forced to 0 while it programs.
    programming = True
    zero_log: List[bool] = []

    drained: List[int] = []
    while any(b is not None for b in block.stages):
        if block.stages[-1] is not None:
            drained.append(block.stages[-1])
            block.stages[-1] = None
        chain_shift_tick(block, None)
        zero_log.append(programming)

    pending = list(new_bits)
    waiting: Optional[int] = None
    while pending or waiting is not None:
        if waiting is None:
            waiting = pending.pop(0)
        waiting = chain_shift_tick(block, waiting)
        zero_log.append(programming)
    chain_settle(block)
    zero_log.append(programming)

    return ReconfigLog(
        drained=tuple(drained),
        ticks=len(zero_log),
        outputs_zero_every_tick=all(zero_log),
    )


# -- the logic block, one branch per memory-point mode ------------------------


def _settle_luts(
    config: PlbConfig, start: Sequence[int], network: Sequence[int]
) -> Tuple[int, ...]:
    cur = tuple(start)
    for _ in range(ITERATION_BOUND):
        nxt = []
        for k in range(4):
            # Pins 0..3 take feedback; L2 and L3 read the second group of six.
            base, sel = (0 if k < 2 else 6), config.feedback_sel[k]
            pins = tuple(cur[i] if (i < 4 and sel[i]) else network[base + i]
                         for i in range(6))
            nxt.append(lut_eval(config.luts[k], pins))
        nxt = tuple(nxt)
        if nxt == cur:
            return cur
        cur = nxt
    raise OscillationError("LUT feedback loop did not settle")


def plb_step(
    config: PlbConfig, state: PlbState, network_inputs: Sequence[int]
) -> PlbState:
    """Settle the block against the given 12 network input levels.

    Raises :class:`OscillationError` when the internal feedback oscillates;
    the caller is expected to turn that into a simulation diagnostic.
    """
    network = tuple(int(b) for b in network_inputs)
    if len(network) != 12:
        raise ValueError(f"expected 12 network inputs, got {len(network)}")

    lut_out = _settle_luts(config, state.lut_out, network)
    or6_lo = 1 if any(network[0:6]) else 0
    or6_hi = 1 if any(network[6:12]) else 0

    cross_a, cross_b = config.or6_bypass_sel
    mem = list(state.mem_out)

    def c_step(prev: int, a: int, b: int) -> int:
        return c_element_mux(prev, (a, b))

    # Memory point A guards (L0, L1), B guards (L2, L3).
    if cross_a:
        # A's companions are the opposite pair's LUTs; B is parked.
        if config.mem_bypass[0]:
            mem[0], mem[1] = lut_out[0], lut_out[1]
        else:
            mem[0] = c_step(mem[0], lut_out[0], lut_out[2])
            mem[1] = c_step(mem[1], lut_out[1], lut_out[3])
        mem[2] = mem[3] = 0
    elif cross_b:
        if config.mem_bypass[1]:
            mem[2], mem[3] = lut_out[2], lut_out[3]
        else:
            mem[2] = c_step(mem[2], lut_out[2], lut_out[0])
            mem[3] = c_step(mem[3], lut_out[3], lut_out[1])
        mem[0] = mem[1] = 0
    else:
        if config.mem_bypass[0]:
            mem[0], mem[1] = lut_out[0], lut_out[1]
        else:
            mem[0] = c_step(mem[0], lut_out[0], or6_lo)
            mem[1] = c_step(mem[1], lut_out[1], or6_lo)
        if config.mem_bypass[1]:
            mem[2], mem[3] = lut_out[2], lut_out[3]
        else:
            mem[2] = c_step(mem[2], lut_out[2], or6_hi)
            mem[3] = c_step(mem[3], lut_out[3], or6_hi)

    return PlbState(lut_out=lut_out, mem_out=tuple(mem))


def bits_to_hex(bits: Sequence[int]) -> str:
    """Bits zero-padded to whole hex digits, first bit most significant."""
    padded = list(bits) + [0] * (-len(bits) % 4)
    digits = []
    for i in range(0, len(padded), 4):
        b0, b1, b2, b3 = padded[i : i + 4]
        digits.append(format((b0 << 3) | (b1 << 2) | (b2 << 1) | b3, "x"))
    return "".join(digits)


def trace_to_csv(trace: Trace) -> str:
    """The CSV form of a trace, which ``Trace.to_csv`` must match byte for
    byte: every event and record sorted on (time, events before records,
    position), the position of a record being (signal, index); a record
    is written as its transaction and record lines."""
    out = io.StringIO()
    out.write("# qdifab-trace v1\n")
    for k, v in sorted(trace.meta.items()):
        out.write(f"# meta {k}={v}\n")
    for s in trace.signals.values():
        out.write(
            f"# signal {s.name} proto={s.protocol.value} arity={s.arity} "
            f"wires={','.join(s.wire_names())}\n"
        )
    for g in trace.gates:
        out.write(g.header() + "\n")
    for d in trace.diagnostics:
        out.write(f"# diagnostic {d}\n")
    if trace.deadlock:
        out.write("# diagnostic deadlock\n")
    out.write("time,wire,old,new\n")

    # Merge events and records chronologically, records after the events
    # they conclude.
    ev = [(e.time, 0, i, e) for i, e in enumerate(trace.events)]
    rc = [(t, 1, (sig, idx), value) for sig, pairs in trace.records.items()
          for idx, (value, t) in enumerate(pairs)]
    for t, kind, pos, item in sorted(ev + rc, key=lambda x: (x[0], x[1], x[2])):
        if kind == 0:
            e = item
            out.write(f"{e.time},{e.wire},{e.old},{e.new}\n")
        else:
            sig, idx = pos
            out.write(f"# transaction {sig} {idx}\n")
            out.write(f"# record {sig} {idx} {item} {t}\n")
    return out.getvalue()


def _encode_4ph(value: int, arity: int) -> Tuple[int, ...]:
    """One-hot vector for ``value``; wire ``value`` carries the 1."""
    bits = [0] * arity
    bits[value] = 1
    return tuple(bits)


def _ledr_next(current: Sequence[int], value: int) -> Tuple[int, ...]:
    """Next (data, repeat) pair after transmitting ``value``: a changed
    value toggles the data wire, a repeated one the repeat wire."""
    d, r = current
    return (value, r) if value != d else (d, r ^ 1)


def _edge_next(current: Sequence[int], value: int) -> Tuple[int, ...]:
    """Toggle wire ``value``; all other wires are unchanged."""
    bits = list(current)
    bits[value] ^= 1
    return tuple(bits)


class Producer:
    """Drives one primary input signal, as the kernel's producer must, with
    the same ``react(sim, t, wire)`` and ``_send(sim, t)`` entry points: a
    four-phase producer sends a valid code, NULL on the acknowledge's rise
    and the next value on its fall; a two-phase producer sends the next
    value on each acknowledge toggle.  ``sim`` needs ``levels``,
    ``drive(t, wire, level)`` and ``records``."""

    IDLE, SENT, NULL_SENT = 0, 1, 2

    def __init__(self, spec: SignalSpec, wires: Tuple[int, ...], values: List[int]):
        self.name = spec.name
        self.wires = wires
        self.values = list(values)
        self.idx = 0
        self.stage = self.IDLE
        self.levels: Tuple[int, ...] = (0,) * len(wires)  # as last driven
        # The NULL code of a four-phase signal; None for a two-phase one.
        self.null: Optional[Tuple[int, ...]] = None
        if spec.protocol is Protocol.FOUR_PHASE:
            codes = [_encode_4ph(v, spec.arity) for v in range(spec.arity)]
            self.next_code = lambda _levels, v: codes[v]
            self.null = (0,) * spec.arity
        else:
            self.next_code = _ledr_next if spec.protocol is Protocol.LEDR else _edge_next

    def _drive(self, sim, levels: Tuple[int, ...], t: int):
        """Drive the wire on which ``levels`` differs from the last levels
        driven; each step of every code changes exactly one wire."""
        old, self.levels = self.levels, levels
        i = 0
        while old[i] == levels[i]:
            i += 1
        sim.drive(t, self.wires[i], levels[i])

    def _send(self, sim, t: int):
        self.stage = self.SENT
        self._drive(sim, self.next_code(self.levels, self.values[self.idx]), t)

    def react(self, sim, t: int, wire: int):
        if self.null is None:  # two-phase: any toggle acknowledges the value
            if self.stage == self.SENT:
                self._complete(sim, t)
        elif sim.levels[wire]:
            if self.stage == self.SENT:
                self.stage = self.NULL_SENT
                self._drive(sim, self.null, t)
        elif self.stage == self.NULL_SENT:
            self._complete(sim, t)

    def _complete(self, sim, t: int):
        sim.records.setdefault(self.name, []).append((self.values[self.idx], t))
        self.idx += 1
        if self.idx < len(self.values):
            self._send(sim, t)
        else:
            self.stage = self.IDLE


class HeapSimulation(Simulation):
    """The event kernel with one heap of (time, sequence number, wire,
    level): the unique, rising sequence number keeps same-tick events in
    insertion order.  The elements, the elaboration and the trace are the
    kernel's own."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.queue: List[Tuple[int, int, int, int]] = []
        self._seq = count(1)

    def inject(self, time: int, wire_name: str, level: int):
        wire = self.elab.index.get(wire_name)
        if wire is None:
            raise SimulationInputError(f"cannot inject on unknown wire {wire_name!r}")
        if type(time) is not int or time < 0:
            raise SimulationInputError(f"cannot inject at time {time!r} on wire "
                                       f"{wire_name!r}; a time is an integer of 0 or more")
        if type(level) is not int or level not in (0, 1):
            raise SimulationInputError(
                f"cannot inject level {level!r} on wire {wire_name!r}; a level is 0 or 1"
            )
        heappush(self.queue, (time, next(self._seq), wire, level))

    def drive(self, t: int, wire: int, level: int):
        heappush(self.queue, (t + 1 + self.wire_delays[wire], next(self._seq), wire, level))

    def run(self) -> Trace:
        for p in self.producers:
            if p.values:
                p._send(self, 0)
        queue, levels = self.queue, self.levels
        names, groups, group_of = self.elab.wire_names, self.elab.groups, self.elab.group_of
        timed_out = False
        while queue:
            t, _seq, wire, level = heappop(queue)
            if t > self.max_time:
                timed_out = True
                break
            old = levels[wire]
            if old == level:
                continue
            levels[wire] = level
            self.events.append(TraceEvent(t, names[wire], old, level))
            group = group_of[wire]
            if group is not None:
                self.weights[group] += level - old
                if self.weights[group] > 1:
                    signal, rails = groups[group]
                    self.diagnostics.append(f"forbidden state on {signal} at t={t}: "
                                            f"{tuple(levels[w] for w in rails)}")
            for react in self.sinks[wire]:
                react(self, t, wire)

        starved = sorted(p.name for p in self.producers if p.stage != _IDLE)
        if timed_out:
            self.diagnostics.append(f"max_time {self.max_time} reached while active")
        elif starved:
            self.diagnostics.append(
                f"handshake stalled; unfinished producers: {', '.join(starved)}")
        return Trace(
            events=self.events,
            markers=record_markers(self.records),
            records=self.records,
            signals=dict(self.fabric.signals),
            gates=list(self.fabric.gates),
            diagnostics=self.diagnostics,
            deadlock=timed_out or bool(starved),
            meta={"fabric": self.elab.fingerprint, "delays": self.delays.mode,
                  "seed": str(self.delays.seed)},
        )
