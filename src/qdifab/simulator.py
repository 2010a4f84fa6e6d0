"""Event-driven kernel for fabrics of mapped blocks.

Time is discrete; every scheduled event is a single wire changing level.
Events at the same tick are processed in insertion order, and the
delay-insensitivity property tests guard against anything depending on that
order.  Reset is an instantaneous force-to-zero at time 0, not a wire.

Environment drivers play the handshake roles: a producer per primary input
feeds the stimulus values (four-phase producers interleave NULL and wait for
both acknowledge edges; two-phase producers wait for one acknowledge toggle
per value), and a consumer per primary output acknowledges every value a
tick after it arrives and records the decoded sequence with its completion
time.

Every element output goes through :meth:`Simulation.drive`, which lands it
one tick after the reaction plus the wire's delay; only it and
:meth:`Simulation.inject` schedule events.  An element decides what to drive
from its own state alone, never from the level of a wire it drives.

Building a simulation has two parts.  The elaboration depends on the
fabric alone: the wire names and the four-phase groups; per placed block its
name, configuration, reset state (one ``plb_reset`` per block), the pins each
wire feeds and the wires it drives; the acknowledge joins; the producer and
consumer specs; the primary inputs; the signal table and the fingerprint
that go into the trace.  It names every wire by an index.  The first
:class:`Simulation` of a :class:`Fabric` stores it in the fabric's
``elaboration``, so a fabric is not changed once it has been simulated.
Everything else is per run and built from the elaboration by each
:class:`Simulation`: the wires with this run's delays, the joins, producers,
consumers and block instances, the name map :meth:`Simulation.inject` uses,
and the per-run state below (the memos, the levels, the weights, the
diagnostics).  The stimulus is checked when the simulation is built: every
value must be an integer from 0 to its signal's arity minus one, and
``max_time`` must not be negative.

Each wire holds the bound ``react(sim, t, wire)`` of every element it feeds,
so the kernel calls them without a lookup; a producer's or consumer's
``react`` is that of its protocol, chosen when it is built.  Every wire
level is 0 or 1 (:meth:`Simulation.inject` refuses anything else), which
keeps three running summaries exact:

* Each block instance holds its 12 input levels as a pin word, bit ``i``
  being pin ``i``; a wire change flips the bits of the pins that wire feeds.
  The instance memoises its reactions for the run: a dict from its state to
  the levels that state drives (computed once per state, all 0 at reset)
  and a dict from its pin word to (next state, the driven wires whose level
  differs between the two states, each with its new level).  The memo is
  exact because ``plb_step`` is a pure function of the block's
  configuration, state and inputs and ``PlbState`` is frozen, so a hit
  returns what recomputing would.  It lives and dies with one
  :class:`Simulation`, and an oscillating step is never stored: the next
  reaction recomputes it, and the block reports the oscillation once.  A
  reaction that leaves every driven level as it was drives nothing.
* Each acknowledge join counts its inputs that are high (a source it lists
  k times counts k times) and drives ``plb.c_element`` of that count when
  it changes: it rises when all are high, falls when none is and holds
  otherwise.
* Each four-phase signal keeps the weight of its rails, the number that are
  high.  Only a weight above 1 can be a forbidden pattern, so only then is
  the pattern classified with ``decode_4ph`` and reported.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from heapq import heappush, heappop
from itertools import count
from typing import Dict, List, Optional, Tuple

from .encodings import (
    CodeKind,
    Protocol,
    SignalSpec,
    decode_4ph,
    edge_next,
    encode_4ph,
    encode_4ph_null,
    ledr_next,
)
from .bitstream import Fabric, reads_ack
from .netlist import Netlist, ack_source, map_netlist, primary_signals
from .plb import (
    OscillationError,
    PlbConfig,
    PlbState,
    ack_outputs,
    c_element,
    plb_reset,
    plb_step,
)
from .trace import GateInfo, SignalInfo, Trace, TraceEvent, _event_from_tuple, window_counts


class SimulationInputError(ValueError):
    """Bad stimulus or fabric input from the caller."""


@dataclass
class DelayModel:
    """Wire delays in ticks; every block, join, producer and consumer drives
    its output one tick after the input change it reacts to.

    Uniform mode models the matched-routing conditions (every wire takes
    one tick); jitter mode violates them with a seeded per-wire draw from
    ``jitter_range``.  Explicit per-wire overrides win in either mode.
    """

    mode: str = "uniform"  # "uniform" | "jitter"
    seed: int = 0
    jitter_range: Tuple[int, int] = (1, 3)
    overrides: Dict[str, int] = field(default_factory=dict)

    def wire_delay(self, name: str) -> int:
        if name in self.overrides:
            return self.overrides[name]
        if self.mode == "uniform":
            return 1
        lo, hi = self.jitter_range
        digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
        return lo + int.from_bytes(digest[:4], "big") % (hi - lo + 1)


def fabric_from_netlist(net: Netlist) -> Fabric:
    mapped = map_netlist(net)
    gates = [
        GateInfo(g.name, net.signals[g.output].protocol.value, g.inputs, g.output,
                 reads_ack(mg, g.output))
        for g, mg in zip(net.gates, mapped)
    ]
    return Fabric(net.signals, mapped, gates)


# -- elaboration ---------------------------------------------------------------


class _Elaboration:
    """The part of building a :class:`Simulation` that no delay model,
    stimulus or run changes; every wire is an index into ``wire_names``."""

    def __init__(self, fabric: Fabric):
        index: Dict[str, int] = {}
        self.wire_names: List[str] = []

        def wire(name: str) -> int:
            i = index.get(name)
            if i is None:
                i = index[name] = len(self.wire_names)
                self.wire_names.append(name)
            return i

        # Each signal's rails, and (signal, its rails) per four-phase signal.
        rails_of: Dict[str, Tuple[int, ...]] = {}
        self.groups: List[Tuple[str, Tuple[int, ...]]] = []
        for s, spec in fabric.signals.items():
            rails_of[s] = rails = tuple(wire(wn) for wn in spec.wire_names())
            if spec.protocol is Protocol.FOUR_PHASE:
                self.groups.append((spec.name, rails))
        for mg in fabric.mapped:
            for name, width in mg.internal_signals:
                for i in range(width):
                    wire(f"{name}.{i}")

        readers: Dict[str, List[GateInfo]] = {s: [] for s in fabric.signals}
        for g in fabric.gates:
            for s in g.inputs:
                readers[s].append(g)
        self.inputs, env_consumed = primary_signals(fabric.signals, fabric.gates)

        # Each signal's acknowledge feed, and the joins of several readers'
        # acknowledges as (source wires, output wire).
        resolution: Dict[str, int] = {}
        self.joins: List[Tuple[Tuple[int, ...], int]] = []
        for s, rs in readers.items():
            feed = resolution[f"{s}.ackin"] = wire(ack_source(s, rs))
            if len(rs) > 1:
                self.joins.append((tuple(wire(f"{g.output}.sout") for g in rs), feed))

        def resolve(name: str) -> int:
            i = resolution.get(name)
            return wire(name) if i is None else i

        # Per placed block: its name, configuration and reset state, each
        # connected pin wire with the bits of the pins it feeds, and the
        # connected wires among O0..O3, ack A, ack B with their positions.
        self.blocks: List[Tuple[str, PlbConfig, PlbState, Tuple[Tuple[int, int], ...],
                                Tuple[int, ...], Tuple[int, ...]]] = []
        for mg in fabric.mapped:
            for unit in mg.plbs:
                masks: Dict[int, int] = {}
                for i, ref in enumerate(unit.config.input_assignment):
                    if ref is not None:
                        w = resolve(str(ref))
                        masks[w] = masks.get(w, 0) | 1 << i
                outs = [None if ref is None else wire(str(ref))
                        for ref in (*unit.output_map, *unit.sout_map)]
                drive_pos = tuple(i for i, w in enumerate(outs) if w is not None)
                self.blocks.append((
                    f"{mg.name}/{unit.role}", unit.config, plb_reset(unit.config),
                    tuple(masks.items()), drive_pos, tuple(outs[i] for i in drive_pos),
                ))

        # (spec, rails, acknowledge feed) per primary input and
        # (spec, rails, acknowledge) per signal the environment consumes.
        self.producers: List[Tuple[SignalSpec, Tuple[int, ...], int]] = []
        for s in self.inputs:
            self.producers.append((fabric.signals[s], rails_of[s], resolution[f"{s}.ackin"]))
        self.consumers: List[Tuple[SignalSpec, Tuple[int, ...], int]] = []
        for s in env_consumed:
            self.consumers.append((fabric.signals[s], rails_of[s], wire(f"{s}.cack")))

        self.signals = {
            s: SignalInfo(s, spec.protocol.value, spec.arity, spec.wire_names())
            for s, spec in fabric.signals.items()
        }
        self.fingerprint = fabric.fingerprint()


# -- runtime pieces -----------------------------------------------------------


class _Wire:
    __slots__ = ("name", "level", "delay", "sinks", "group")

    def __init__(self, name: str, delay: int):
        self.name = name
        self.level = 0
        self.delay = delay
        # The bound ``react(sim, t, wire)`` of each element the wire feeds.
        self.sinks: List[object] = []
        # The four-phase signal the wire is a rail of, if any.
        self.group: Optional[_Group] = None


class _Group:
    """The rails of one four-phase signal and how many of them are high."""

    __slots__ = ("signal", "wires", "weight")

    def __init__(self, signal: str, wires: List[_Wire]):
        self.signal = signal
        self.wires = wires
        self.weight = 0


# A reaction: (next state, the reactions of that state, the (wire, level)
# pairs on which the driven levels of the next state differ from those of
# the current one).  The alias names no class of this module: typing caches
# every subscription, so ``_Wire`` there would keep this module alive after
# it is imported afresh.
_Reaction = Tuple[PlbState, dict, tuple]


class _PlbInst:
    def __init__(self, name: str, config: PlbConfig, state: PlbState,
                 mask_of: Dict[_Wire, int], drive_pos: Tuple[int, ...],
                 drives: List[_Wire]):
        self.name = name
        self.config = config
        self.state = state
        # The 12 pin levels, pin i at bit i: all 0 at reset, and an
        # unconnected pin stays 0.
        self.word = 0
        # Each connected wire -> the bits of the pins it feeds.
        self.mask_of = mask_of
        # The connected wires among O0..O3, ack A, ack B, and their
        # positions there.
        self.drive_pos = drive_pos
        self.drives = drives
        self.osc_reported = False
        # Each state reached -> (the levels it drives on ``drives``, its
        # reactions by pin word).  The reset state drives all 0, as
        # ``plb.program_rules`` requires, which is every wire's first level.
        self.memo: Dict[PlbState, Tuple[Tuple[int, ...], Dict[int, _Reaction]]] = {
            state: ((0,) * len(drives), {})}
        self.reactions = self.memo[state][1]  # those of the current state

    def _settle(self, sim: "Simulation", t: int, word: int) -> Optional[_Reaction]:
        config = self.config
        try:
            state = plb_step(config, self.state, tuple((word >> i) & 1 for i in range(12)))
        except OscillationError:
            if not self.osc_reported:
                sim.diagnostics.append(f"oscillation in block {self.name} at t={t}")
                self.osc_reported = True
            return None
        entry = self.memo.get(state)
        if entry is None:
            six = state.mem_out + ack_outputs(config, state)
            entry = self.memo[state] = (tuple(six[i] for i in self.drive_pos), {})
        old = self.memo[self.state][0]
        reaction = self.reactions[word] = (state, entry[1], tuple(
            (out, level) for out, was, level in zip(self.drives, old, entry[0])
            if level != was))
        return reaction

    def react(self, sim: "Simulation", t: int, wire: _Wire):
        self.word = word = self.word ^ self.mask_of[wire]
        reaction = self.reactions.get(word)
        if reaction is None:
            reaction = self._settle(sim, t, word)
            if reaction is None:
                return
        self.state, self.reactions, changes = reaction
        for out, level in changes:
            sim.drive(t, out, level)


class _CJoin:
    """Rendez-vous of several acknowledge wires into one: a C-element that
    counts its inputs that are high; a source listed k times counts k times."""

    __slots__ = ("n", "out", "high", "output")

    def __init__(self, n: int, out: _Wire):
        self.n = n
        self.out = out
        self.high = 0
        self.output = 0

    def react(self, sim: "Simulation", t: int, wire: _Wire):
        self.high += 1 if wire.level else -1
        level = c_element(self.output, self.high, self.n)
        if level != self.output:
            self.output = level
            sim.drive(t, self.out, level)


# Producer stages: idle (before the first value and after the last), a
# value sent, its NULL sent (4ph).
_IDLE, _SENT, _NULL_SENT = 0, 1, 2


class _Producer:
    """Drives one primary input signal with the ``react`` of its protocol: a
    four-phase producer sends a valid code, NULL on the acknowledge's rise
    and the next value on its fall; a two-phase producer sends the next
    value on each acknowledge toggle."""

    def __init__(self, spec: SignalSpec, wires: List[_Wire], values: List[int]):
        self.name = spec.name
        self.wires = wires
        self.values = vs = list(values)
        # Two built-in passes check a long stimulus quickly; only a bad one
        # is scanned value by value, to name its first bad value.
        if vs and (set(map(type, vs)) != {int} or not set(vs) <= set(range(spec.arity))):
            i, v = next((i, v) for i, v in enumerate(vs)
                        if type(v) is not int or not 0 <= v < spec.arity)
            raise SimulationInputError(
                f"stimulus for {spec.name!r}: value {v!r} at index {i} "
                f"is not an integer in 0..{spec.arity - 1}"
            )
        self.idx = 0
        self.stage = _IDLE
        self.levels: Tuple[int, ...] = (0,) * len(wires)  # as last driven
        if spec.protocol is Protocol.FOUR_PHASE:
            codes = [encode_4ph(v, spec.arity) for v in range(spec.arity)]
            self.next_code = lambda _levels, v: codes[v]
            self.null = encode_4ph_null(spec.arity)
            self.react = self._react_4ph
        else:
            self.next_code = ledr_next if spec.protocol is Protocol.LEDR else edge_next
            self.react = self._react_2ph

    def _drive(self, sim: "Simulation", levels: Tuple[int, ...], t: int):
        """Drive the wire on which ``levels`` differs from the last levels
        driven; each step of every code changes exactly one wire."""
        old, self.levels = self.levels, levels
        i = 0
        while old[i] == levels[i]:
            i += 1
        sim.drive(t, self.wires[i], levels[i])

    def _send(self, sim: "Simulation", t: int):
        self.stage = _SENT
        self._drive(sim, self.next_code(self.levels, self.values[self.idx]), t)

    def _react_4ph(self, sim: "Simulation", t: int, wire: _Wire):
        if wire.level:
            if self.stage == _SENT:
                self.stage = _NULL_SENT
                self._drive(sim, self.null, t)
        elif self.stage == _NULL_SENT:
            self._complete(sim, t)

    def _react_2ph(self, sim: "Simulation", t: int, wire: _Wire):
        if self.stage == _SENT:
            self._complete(sim, t)

    def _complete(self, sim: "Simulation", t: int):
        recs = sim.records.setdefault(self.name, [])
        sim.markers.append((t, self.name, len(recs)))
        recs.append((self.values[self.idx], t))
        self.idx += 1
        if self.idx < len(self.values):
            self._send(sim, t)
        else:
            self.stage = _IDLE


class _Consumer:
    """Observes one primary output signal and acknowledges every value, with
    the ``react`` of its protocol."""

    def __init__(self, spec: SignalSpec, wires: List[_Wire], ack: _Wire):
        self.name = spec.name
        self.wires = wires
        self.ack = ack
        self.ack_level = 0
        self.pending: Optional[int] = None  # the four-phase value held, if any
        self.react = {Protocol.FOUR_PHASE: self._react_4ph, Protocol.LEDR: self._react_ledr,
                      Protocol.EDGE: self._react_edge}[spec.protocol]

    def _acknowledge(self, sim: "Simulation", t: int, value: Optional[int]):
        """Toggle the acknowledge in reaction at tick ``t`` and, unless
        ``value`` is None, record the value as completed a tick later."""
        self.ack_level ^= 1
        sim.drive(t, self.ack, self.ack_level)
        if value is not None:
            t += 1
            recs = sim.records.setdefault(self.name, [])
            sim.markers.append((t, self.name, len(recs)))
            recs.append((value, t))

    def _react_4ph(self, sim: "Simulation", t: int, wire: _Wire):
        code = decode_4ph([w.level for w in self.wires])
        if code.kind is CodeKind.VALID:
            if self.pending is None:
                self.pending = code.value
                self._acknowledge(sim, t, None)
        elif code.kind is CodeKind.NULL and self.pending is not None:
            self._acknowledge(sim, t, self.pending)
            self.pending = None
        # Forbidden patterns are logged by the kernel; hold the handshake.

    def _react_ledr(self, sim: "Simulation", t: int, wire: _Wire):
        self._acknowledge(sim, t, self.wires[0].level)

    def _react_edge(self, sim: "Simulation", t: int, wire: _Wire):
        self._acknowledge(sim, t, self.wires.index(wire))  # the toggled wire


# -- kernel --------------------------------------------------------------------


class Simulation:
    def __init__(
        self,
        fabric: Fabric,
        delays: Optional[DelayModel] = None,
        stimulus: Optional[Dict[str, List[int]]] = None,
        max_time: int = 20000,
    ):
        if max_time < 0:
            raise SimulationInputError(f"max_time {max_time} is negative")
        self.fabric = fabric
        self.delays = delays or DelayModel()
        self.max_time = max_time
        # (time, sequence number, wire, level); the unique, rising sequence
        # number keeps same-tick events in insertion order.
        self.queue: List[Tuple[int, int, _Wire, int]] = []
        self._seq = count(1)
        self.events: List[TraceEvent] = []
        self.markers: List[Tuple[int, str, int]] = []
        self.records: Dict[str, List[Tuple[int, int]]] = {}
        self.diagnostics: List[str] = []
        self.producers: List[_Producer] = []
        self._build(stimulus or {})

    # construction ------------------------------------------------------

    def _build(self, stimulus: Dict[str, List[int]]):
        """Instantiate the fabric's elaboration for this run."""
        elab = self.fabric.elaboration
        if elab is None:
            elab = self.fabric.elaboration = _Elaboration(self.fabric)
        unknown = set(stimulus) - set(elab.inputs)
        if unknown:
            raise SimulationInputError(
                f"stimulus for unknown or non-input signal(s): {sorted(unknown)}"
            )
        wire_delay = self.delays.wire_delay
        wires = [_Wire(name, wire_delay(name)) for name in elab.wire_names]
        self.wires = dict(zip(elab.wire_names, wires))
        for signal, rails in elab.groups:
            group = _Group(signal, [wires[i] for i in rails])
            for w in group.wires:
                w.group = group
        for sources, out in elab.joins:
            react = _CJoin(len(sources), wires[out]).react
            for i in sources:
                wires[i].sinks.append(react)
        for name, config, reset, masks, drive_pos, drives in elab.blocks:
            inst = _PlbInst(name, config, reset, {wires[i]: m for i, m in masks},
                            drive_pos, [wires[i] for i in drives])
            for w in inst.mask_of:
                w.sinks.append(inst.react)
        for spec, rails, feed in elab.producers:
            prod = _Producer(spec, [wires[i] for i in rails], stimulus.get(spec.name, []))
            wires[feed].sinks.append(prod.react)
            self.producers.append(prod)
        for spec, rails, cack in elab.consumers:
            cons = _Consumer(spec, [wires[i] for i in rails], wires[cack])
            for w in cons.wires:
                w.sinks.append(cons.react)

    # runtime -----------------------------------------------------------

    def inject(self, time: int, wire_name: str, level: int):
        """Force a raw wire event; used by fault-injection tests."""
        wire = self.wires.get(wire_name)
        if wire is None:
            raise SimulationInputError(f"cannot inject on unknown wire {wire_name!r}")
        if type(level) is not int or level not in (0, 1):
            raise SimulationInputError(
                f"cannot inject level {level!r} on wire {wire_name!r}; a level is 0 or 1"
            )
        heappush(self.queue, (time, next(self._seq), wire, level))

    def drive(self, t: int, wire: _Wire, level: int):
        """Schedule ``level`` on ``wire`` for an element that reacted at tick
        ``t``: it lands one tick later plus the wire's delay.  The one place
        an element output is scheduled."""
        heappush(self.queue, (t + 1 + wire.delay, next(self._seq), wire, level))

    def _check_forbidden(self, group: _Group, t: int):
        levels = [w.level for w in group.wires]
        if decode_4ph(levels).kind is CodeKind.FORBIDDEN:
            self.diagnostics.append(
                f"forbidden state on {group.signal} at t={t}: {tuple(levels)}"
            )

    def run(self) -> Trace:
        for p in self.producers:
            if p.values:
                p._send(self, 0)
        queue, max_time = self.queue, self.max_time
        append, make_event = self.events.append, _event_from_tuple
        timed_out = False
        while queue:
            t, _seq, wire, level = heappop(queue)
            if t > max_time:
                timed_out = True
                break
            old = wire.level
            if old == level:
                continue
            wire.level = level
            append(make_event((t, wire.name, old, level)))
            group = wire.group
            if group is not None:
                group.weight += level - old
                if group.weight > 1:
                    self._check_forbidden(group, t)
            for react in wire.sinks:
                react(self, t, wire)

        starved = sorted(p.name for p in self.producers if p.stage != _IDLE)
        if timed_out:
            self.diagnostics.append(f"max_time {self.max_time} reached while active")
        elif starved:
            self.diagnostics.append(
                f"handshake stalled; unfinished producers: {', '.join(starved)}")
        return self._trace(deadlock=timed_out or bool(starved))

    def _trace(self, deadlock: bool) -> Trace:
        elab = self.fabric.elaboration
        meta = {
            "fabric": elab.fingerprint,
            "delays": self.delays.mode,
            "seed": str(self.delays.seed),
        }
        return Trace(
            events=self.events,
            markers=sorted(self.markers),
            records=self.records,
            signals=dict(elab.signals),
            gates=list(self.fabric.gates),
            diagnostics=self.diagnostics,
            deadlock=deadlock,
            meta=meta,
        )


def run(
    fabric: Fabric,
    stimulus: Dict[str, List[int]],
    delays: Optional[DelayModel] = None,
    max_time: int = 20000,
    inject: Optional[List[Tuple[int, str, int]]] = None,
) -> Trace:
    sim = Simulation(fabric, delays, stimulus, max_time)
    for t, wname, level in inject or []:
        sim.inject(t, wname, level)
    return sim.run()


# -- trace properties ----------------------------------------------------------


# Both checkers replay a trace once, in trace order, with a running state
# per signal instead of decoding wire lists: the number of its rails that
# are high and, where needed, the number of changes on its wires.  With 0/1
# levels the rails high give the four-phase kind (0 NULL, 1 VALID, more
# FORBIDDEN) and, by their parity, the LEDR phase; the changes count the
# edges of an edge signal.  A wire that a signal lists k times counts k
# times in both, as it does in the signal's pattern.


def _replay_index(trace: Trace, states: Dict[str, list],
                  extra_wires=()) -> Dict[str, list]:
    """Each wire of a signal of ``trace``, and each of ``extra_wires``, to
    its running record ``[level, sinks, None]``: the wire's level, 0 at the
    start, and ``(state, k)`` for each signal that lists the wire k times,
    its state taken from ``states``.  The last item is the caller's."""
    records: Dict[str, list] = {w: [0, [], None] for w in extra_wires}
    for name, info in trace.signals.items():
        state = states[name]
        for w in set(info.wires):
            rec = records.get(w)
            if rec is None:
                rec = records[w] = [0, [], None]
            rec[1].append((state, info.wires.count(w)))
    return records


def check_single_toggle(trace: Trace) -> Dict[str, Tuple[bool, str]]:
    """Exactly one wire change per transmitted value, per signal.

    Four-phase transactions carry two changes (the valid rise and the NULL
    fall); two-phase transactions carry one.  The four-phase decode walk
    additionally requires strict NULL/valid alternation, which catches
    double toggles that land on distinct wires.

    One replay of the events walks each four-phase signal by the number of
    its rails that are high, which is its pattern's kind only when every
    event level is 0 or 1 (:meth:`Trace.from_csv` ensures it), and collects
    each signal's event times; :func:`qdifab.trace.window_counts` then
    counts its windows in marker order.
    """
    # Per signal: rails high, its event times, whether its four-phase walk
    # goes on, and the failure that stopped the walk.
    states = {name: [0, [], info.protocol == "4ph", None]
              for name, info in trace.signals.items()}
    records = _replay_index(trace, states)
    for e in trace.events:
        # e[0] is the time, e[1] the wire and e[3] the new level; index
        # reads are faster than named-tuple attribute reads.
        rec = records.get(e[1])
        if rec is None:
            continue
        new = e[3]
        d = new - rec[0]
        rec[0] = new
        for st, k in rec[1]:
            st[1].append(e[0])
            if st[2]:
                before = st[0]
                high = st[0] = before + d * k
                if high > 1:
                    st[2], st[3] = False, f"forbidden pattern at t={e[0]}"
                elif high == 1 and before == 1:
                    st[2], st[3] = False, f"valid-to-valid jump at t={e[0]}"
    ends_of: Dict[str, List[int]] = {}  # signal -> its marker times
    for t, s, _ in trace.markers:
        ends_of.setdefault(s, []).append(t)
    verdicts: Dict[str, Tuple[bool, str]] = {}
    for name, info in trace.signals.items():
        _, times, _, failure = states[name]
        ok, msg = failure is None, failure or "ok"
        if ok:
            expected = 2 if info.protocol == "4ph" else 1
            times.sort()
            ends = ends_of.get(name, ())
            for n, b in zip(window_counts(times, ends), ends):
                if n != expected:
                    ok, msg = False, (
                        f"{n} wire changes in transaction ending t={b} "
                        f"(expected {expected})"
                    )
                    break
        verdicts[name] = (ok, msg)
    return verdicts


def check_no_early_evaluation(trace: Trace) -> Tuple[bool, List[str]]:
    """No gate output event may precede its rendez-vous condition.

    Replays the trace and, at every output-signal event, re-evaluates the
    firing rule of the driving gate on the then-current wire levels.  Valid
    under the uniform delay model, where an output event always lands after
    the inputs that caused it.  A four-phase output that goes forbidden is
    a violation whatever the inputs.  A gate's acknowledge is part of its
    rule only when its ``ack`` is 1.

    The replay is one pass with a running state per signal (rails high and
    wire changes) and each gate's output wires mapped, once, to the states
    of its inputs and to its acknowledge wire; an event costs O(1), an
    output event O(inputs).  The rails high decide the four-phase kind and
    the LEDR phase only when every event level is 0 or 1
    (:meth:`Trace.from_csv` ensures it).
    """
    states = {name: [0, 0] for name in trace.signals}
    readers: Dict[str, List[GateInfo]] = {}
    for g in trace.gates:
        for s in g.inputs:
            readers.setdefault(s, []).append(g)
    driven = [(g, ack_source(g.output, readers.get(g.output, ())))
              for g in trace.gates if g.output in trace.signals]
    records = _replay_index(trace, states, [a for _, a in driven])
    for g, ack in driven:
        # The acknowledge's record, or None where the gate does not read it.
        ack_rec = records[ack] if g.ack else None
        gate = (g, states[g.output], [(s, states[s]) for s in g.inputs], ack_rec)
        for w in trace.signals[g.output].wires:
            records[w][2] = gate  # a later gate driving the wire wins

    violations: List[str] = []
    for e in trace.events:
        # e[0] is the time, e[1] the wire and e[3] the new level; index
        # reads are faster than named-tuple attribute reads.
        rec = records.get(e[1])
        if rec is None:
            continue
        new = e[3]
        d = new - rec[0]
        rec[0] = new
        for st, k in rec[1]:
            st[0] += d * k
            st[1] += k
        if rec[2] is None:
            continue
        g, out, ins, ack = rec[2]
        if g.protocol == "4ph":
            high = out[0]
            if high == 1:
                if any(st[0] != 1 for _, st in ins) or (ack is not None and ack[0] == 1):
                    violations.append(
                        f"{g.name}: output valid at t={e[0]} before rendez-vous"
                    )
            elif high == 0:
                if any(st[0] != 0 for _, st in ins) or (ack is not None and ack[0] == 0):
                    violations.append(
                        f"{g.name}: output cleared at t={e[0]} before rendez-vous"
                    )
            else:  # more than one rail high
                violations.append(f"{g.name}: output forbidden at t={e[0]}")
        elif g.protocol == "ledr":
            # The event flipped the output phase; the inputs must already
            # carry that phase and the acknowledge the old one.
            phase = out[0] & 1
            if any((st[0] & 1) != phase for _, st in ins):
                violations.append(
                    f"{g.name}: output phase flip at t={e[0]} before input phases"
                )
            elif ack is not None and ack[0] != phase ^ 1:
                violations.append(
                    f"{g.name}: output phase flip at t={e[0]} before acknowledge"
                )
        else:  # edge: count-based rendez-vous
            out_count = out[1]
            for s, st in ins:
                if st[1] < out_count:
                    violations.append(
                        f"{g.name}: output toggle {out_count} at t={e[0]} "
                        f"before input {s}"
                    )
    return not violations, violations
