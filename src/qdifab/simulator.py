"""Event-driven kernel for fabrics of mapped blocks.

Time is discrete; every scheduled event is a single wire changing level.
The kernel is a calendar queue: ``buckets`` holds each tick's (wire, level)
pairs in insertion order and ``ticks`` is a heap of the ticks with a bucket.
A bucket is complete when its tick is popped, as a reaction at tick t lands
at t + 1 or later and injections come before :meth:`Simulation.run`, so
same-tick events apply in insertion order; the delay-insensitivity property
tests guard against anything depending on that order.  Reset is an
instantaneous force-to-zero at time 0, not a wire.

Environment drivers play the handshake roles: a producer per primary input
feeds the stimulus values, and a consumer per primary output acknowledges
every value a tick after it arrives and records the decoded sequence with
its completion time.  A producer toggles one wire per handshake step, the
wire of its protocol's send rule (:func:`qdifab.encodings.send_wire`) to
send a value; 4ph drops that rail (NULL) on the acknowledge's rise and sends
the next value on its fall, two-phase sends a value per acknowledge toggle.

Every element output goes through :meth:`Simulation.drive`, which lands it
one tick after the reaction plus the wire's delay; only it and
:meth:`Simulation.inject` schedule events.  An element decides what to drive
from its own state alone, never from the level of a wire it drives.

Building a simulation has two parts.  The elaboration depends on the
fabric alone: the wire names, the name map :meth:`Simulation.inject` uses,
the four-phase groups and each wire's group; per placed block its name,
configuration, reset state (one ``plb_reset`` per block), the pins each
wire feeds and the wires it drives; the acknowledge joins; the producer and
consumer specs; the primary inputs; the fingerprint that goes into the
trace.  The first :class:`Simulation` of a
:class:`Fabric` stores it in the fabric's ``elaboration``, so a fabric is
not changed once it has been simulated.  Everything else is per run and
built from the elaboration by each :class:`Simulation`: this run's wire
delays, the joins, producers, consumers and block instances, and the
per-run state below (the memos, the levels, the weights, the diagnostics).
The stimulus and the delays are checked when the simulation is built:
every value must be an integer from 0 to its signal's arity minus one,
neither ``max_time`` nor a delay (an integer) may be negative, and the
delay model must name a known mode and a non-empty jitter range
(:meth:`DelayModel.check`); an injection's time is an integer of 0 or more.

A wire is its elaboration index, in the elaboration and in the run alike.
A run keeps flat lists indexed by wire (its level, its delay and the
``react(sim, t, wire)`` of every element it feeds, which the kernel calls
without a lookup) and one weight per four-phase group.  Every element
holds wire indexes and none holds the run, so reference counting frees a
finished run and its elements; only a block's memo, whose reactions refer
to one another, waits for the cyclic collector.  Every wire level is 0 or
1 (:meth:`Simulation.inject` refuses anything else), which keeps three
running summaries exact:

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
  high.  A weight above 1 is a forbidden pattern, which is reported.

The kernel builds each :class:`TraceEvent` with ``tuple.__new__``, which
skips the named tuple's own ``__new__`` and its argument handling.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from heapq import heappush, heappop
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from .encodings import CodeKind, Protocol, SignalSpec, decode_4ph, send_wire
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
from .trace import GateInfo, Trace, TraceEvent, record_markers, window_counts

# The last simulated tick, unless the caller names another.
MAX_TIME = 20000


class SimulationInputError(ValueError):
    """Bad stimulus or fabric input from the caller; ``signal`` names the
    stimulus signal at fault, if one is."""

    def __init__(self, message: str, signal: Optional[str] = None):
        super().__init__(message)
        self.signal = signal


@dataclass
class DelayModel:
    """Wire delays in ticks; every block, join, producer and consumer drives
    its output one tick after the input change it reacts to.

    Uniform mode models the matched-routing conditions (every wire takes
    one tick); jitter mode violates them with a seeded per-wire draw from
    ``jitter_range``, both ends included.  Explicit per-wire overrides win
    in either mode.  A delay is an integer of 0 or more.
    """

    mode: str = "uniform"  # "uniform" | "jitter"
    seed: int = 0
    jitter_range: Tuple[int, int] = (1, 3)
    overrides: Dict[str, int] = field(default_factory=dict)

    def check(self):
        """Raise :class:`SimulationInputError` unless the model is valid."""
        lo, hi = self.jitter_range
        bad = [f"delay override {d!r} on wire {w!r} is not an integer of 0 or more"
               for w, d in self.overrides.items() if type(d) is not int or d < 0]
        if type(lo) is not int or type(hi) is not int or not 0 <= lo <= hi:
            bad.append(f"jitter_range {self.jitter_range!r} is not integers 0 <= lo <= hi")
        if self.mode not in ("uniform", "jitter"):
            bad.append(f"delay mode {self.mode!r} is neither 'uniform' nor 'jitter'")
        if bad:
            raise SimulationInputError("; ".join(bad))

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
        GateInfo(g.name, net.signals[g.output].protocol, g.inputs, g.output,
                 reads_ack(mg, g.output))
        for g, mg in zip(net.gates, mapped)
    ]
    return Fabric(net.signals, mapped, gates)


# -- elaboration ---------------------------------------------------------------


class _Elaboration:
    """The part of building a :class:`Simulation` that no delay model,
    stimulus or run changes.  A wire is an index: ``wire_names[w]`` is the
    name of wire ``w``, ``index`` maps each name back to its wire, and
    ``group_of[w]`` is the position in ``groups`` of the four-phase signal
    that ``w`` is a rail of, or None.  Every other table holds indexes."""

    def __init__(self, fabric: Fabric):
        self.index: Dict[str, int] = {}
        self.wire_names: List[str] = []

        def wire(name: str) -> int:
            i = self.index.get(name)
            if i is None:
                i = self.index[name] = len(self.wire_names)
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
        # connected pin wire to the bits of the pins it feeds, and the
        # connected wires among O0..O3, ack A, ack B with their positions.
        self.blocks: List[Tuple[str, PlbConfig, PlbState, Dict[int, int],
                                Tuple[int, ...], Tuple[int, ...]]] = []
        for mg in fabric.mapped:
            for unit in mg.plbs:
                masks: Dict[int, int] = {}
                for i, ref in enumerate(unit.input_map):
                    if ref is not None:
                        w = resolve(str(ref))
                        masks[w] = masks.get(w, 0) | 1 << i
                outs = [None if ref is None else wire(str(ref))
                        for ref in (*unit.output_map, *unit.sout_map)]
                drive_pos = tuple(i for i, w in enumerate(outs) if w is not None)
                self.blocks.append((
                    f"{mg.name}/{unit.role}", unit.config, plb_reset(unit.config),
                    masks, drive_pos, tuple(outs[i] for i in drive_pos),
                ))

        # (spec, rails, acknowledge feed) per primary input and
        # (spec, rails, acknowledge) per signal the environment consumes.
        self.producers: List[Tuple[SignalSpec, Tuple[int, ...], int]] = []
        for s in self.inputs:
            self.producers.append((fabric.signals[s], rails_of[s], resolution[f"{s}.ackin"]))
        self.consumers: List[Tuple[SignalSpec, Tuple[int, ...], int]] = []
        for s in env_consumed:
            self.consumers.append((fabric.signals[s], rails_of[s], wire(f"{s}.cack")))

        self.group_of: List[Optional[int]] = [None] * len(self.wire_names)
        for g, (_, rails) in enumerate(self.groups):
            for w in rails:
                self.group_of[w] = g
        self.fingerprint = fabric.fingerprint()


# -- runtime pieces -----------------------------------------------------------


class _PlbInst:
    def __init__(self, name: str, config: PlbConfig, state: PlbState,
                 masks: Dict[int, int], drive_pos: Tuple[int, ...],
                 drives: Tuple[int, ...]):
        self.name = name
        self.config = config
        self.state = state
        # The 12 pin levels, pin i at bit i: all 0 at reset, and an
        # unconnected pin stays 0.
        self.word = 0
        # Each connected wire -> the bits of the pins it feeds.
        self.masks = masks
        # The connected wires among O0..O3, ack A, ack B, and their
        # positions there.
        self.drive_pos = drive_pos
        self.drives = drives
        self.osc_reported = False
        # Each state reached -> (the levels it drives on ``drives``, its
        # reactions by pin word).  A reaction is (next state, the reactions
        # of that state, the (wire, level) pairs on which the driven levels
        # of the next state differ from those of the current one).  The
        # reset state drives all 0, as ``plb.program_rules`` requires, which
        # is every wire's first level.
        self.memo: Dict[PlbState, Tuple[Tuple[int, ...], Dict[int, tuple]]] = {
            state: ((0,) * len(drives), {})}
        self.reactions = self.memo[state][1]  # those of the current state

    def react(self, sim: "Simulation", t: int, wire: int):
        self.word = word = self.word ^ self.masks[wire]
        reaction = self.reactions.get(word)
        if reaction is None:
            config = self.config
            try:
                state = plb_step(config, self.state, tuple((word >> i) & 1 for i in range(12)))
            except OscillationError:
                if not self.osc_reported:
                    sim.diagnostics.append(f"oscillation in block {self.name} at t={t}")
                    self.osc_reported = True
                return
            entry = self.memo.get(state)
            if entry is None:
                six = state.mem_out + ack_outputs(config, state)
                entry = self.memo[state] = (tuple(six[i] for i in self.drive_pos), {})
            old = self.memo[self.state][0]
            reaction = self.reactions[word] = (state, entry[1], tuple(
                (out, level) for out, was, level in zip(self.drives, old, entry[0])
                if level != was))
        self.state, self.reactions, changes = reaction
        for out, level in changes:
            sim.drive(t, out, level)


class _CJoin:
    """Rendez-vous of several acknowledge wires into one: a C-element that
    counts its inputs that are high; a source listed k times counts k times."""

    __slots__ = ("n", "out", "high", "output")

    def __init__(self, n: int, out: int):
        self.n = n
        self.out = out
        self.high = 0
        self.output = 0

    def react(self, sim: "Simulation", t: int, wire: int):
        self.high += 1 if sim.levels[wire] else -1
        level = c_element(self.output, self.high, self.n)
        if level != self.output:
            self.output = level
            sim.drive(t, self.out, level)


# Producer stages: idle (before the first value and after the last), a
# value sent, its NULL sent (4ph).
_IDLE, _SENT, _NULL_SENT = 0, 1, 2


class _Producer:
    """Drives one primary input signal by its protocol's producer rule (see
    the module docstring)."""

    def __init__(self, spec: SignalSpec, wires: Tuple[int, ...], values: List[int]):
        self.name = spec.name
        self.protocol = spec.protocol.value  # a str: an Enum member lookup is slower
        self.wires = wires
        self.values = vs = list(values)
        # Two built-in passes check a long stimulus quickly; only a bad one
        # is scanned value by value, to name its first bad value.
        if vs and (set(map(type, vs)) != {int} or not set(vs) <= set(range(spec.arity))):
            i, v = next((i, v) for i, v in enumerate(vs)
                        if type(v) is not int or not 0 <= v < spec.arity)
            raise SimulationInputError(
                f"stimulus for {spec.name!r}: value {v!r} at index {i} "
                f"is not an integer in 0..{spec.arity - 1}", spec.name)
        self.send_wire = send_wire(spec.protocol)
        self.idx = 0
        self.stage = _IDLE
        self.levels = [0] * len(wires)  # as last driven
        self.records: Optional[List[Tuple[int, int]]] = None  # taken at the first value

    def _send(self, sim: "Simulation", t: int):
        self.stage = _SENT
        w = self.send_wire(self.levels, self.values[self.idx])
        self.levels[w] = level = self.levels[w] ^ 1
        sim.drive(t, self.wires[w], level)

    def react(self, sim: "Simulation", t: int, wire: int):
        if self.protocol != "4ph":  # two-phase: any toggle acknowledges the value
            if self.stage != _SENT:
                return
        elif sim.levels[wire]:
            if self.stage == _SENT:  # NULL: rail v drops
                self.stage = _NULL_SENT
                v = self.values[self.idx]
                self.levels[v] = 0
                sim.drive(t, self.wires[v], 0)
            return
        elif self.stage != _NULL_SENT:
            return
        # The value completes: record it, then send the next one.
        recs = self.records
        if recs is None:
            recs = self.records = sim.records.setdefault(self.name, [])
        recs.append((self.values[self.idx], t))
        self.idx += 1
        if self.idx < len(self.values):
            self._send(sim, t)
        else:
            self.stage = _IDLE


class _Consumer:
    """Observes one primary output signal and acknowledges every value and,
    four-phase, its NULL; a value completes a tick after its acknowledge."""

    def __init__(self, spec: SignalSpec, wires: Tuple[int, ...], ack: int):
        self.name = spec.name
        self.protocol = spec.protocol.value  # a str: an Enum member lookup is slower
        self.wires = wires
        self.rail_levels = itemgetter(*wires)  # of the run's levels, as a tuple
        self.ack = ack
        self.ack_level = 0
        self.pending: Optional[int] = None  # the four-phase value held, if any
        self.records: Optional[List[Tuple[int, int]]] = None  # taken at the first value

    def react(self, sim: "Simulation", t: int, wire: int):
        if self.protocol == "4ph":
            code = decode_4ph(self.rail_levels(sim.levels))
            if code.kind is CodeKind.VALID and self.pending is None:
                self.pending, value = code.value, None
            elif code.kind is CodeKind.NULL and self.pending is not None:
                value, self.pending = self.pending, None
            else:  # no new value or NULL, or a forbidden pattern: hold
                return
        elif self.protocol == "ledr":
            value = sim.levels[self.wires[0]]
        else:
            value = self.wires.index(wire)  # the toggled wire
        self.ack_level ^= 1
        sim.drive(t, self.ack, self.ack_level)
        if value is not None:
            t += 1
            recs = self.records
            if recs is None:
                recs = self.records = sim.records.setdefault(self.name, [])
            recs.append((value, t))


# -- kernel --------------------------------------------------------------------


class Simulation:
    def __init__(
        self,
        fabric: Fabric,
        delays: Optional[DelayModel] = None,
        stimulus: Optional[Dict[str, List[int]]] = None,
        max_time: int = MAX_TIME,
    ):
        if max_time < 0:
            raise SimulationInputError(f"max_time {max_time} is negative")
        self.fabric = fabric
        self.delays = delays or DelayModel()
        self.delays.check()
        self.max_time = max_time
        self.buckets: Dict[int, List[Tuple[int, int]]] = {}
        self.ticks: List[int] = []
        self.events: List[TraceEvent] = []
        self.records: Dict[str, List[Tuple[int, int]]] = {}
        self.diagnostics: List[str] = []
        self.producers: List[_Producer] = []
        # Instantiate the fabric's elaboration for this run.
        stimulus = stimulus or {}
        if fabric.elaboration is None:
            fabric.elaboration = _Elaboration(fabric)
        elab = self.elab = fabric.elaboration
        unknown = set(stimulus) - set(elab.inputs)
        if unknown:
            raise SimulationInputError(
                f"stimulus for unknown or non-input signal(s): {sorted(unknown)}",
                next(s for s in stimulus if s in unknown))
        if self.delays.overrides:
            unknown = self.delays.overrides.keys() - elab.index.keys()
            if unknown:
                raise SimulationInputError(
                    f"delay override for unknown wire(s): {sorted(unknown)}")
        # Per wire: its level, its delay, and the ``react`` of each element
        # it feeds; per four-phase group: how many of its rails are high.
        self.levels = [0] * len(elab.wire_names)
        self.wire_delays = list(map(self.delays.wire_delay, elab.wire_names))
        self.sinks = sinks = [[] for _ in elab.wire_names]
        self.weights = [0] * len(elab.groups)
        for sources, out in elab.joins:
            react = _CJoin(len(sources), out).react
            for w in sources:
                sinks[w].append(react)
        for block in elab.blocks:
            inst = _PlbInst(*block)
            for w in inst.masks:
                sinks[w].append(inst.react)
        for spec, rails, feed in elab.producers:
            prod = _Producer(spec, rails, stimulus.get(spec.name, []))
            sinks[feed].append(prod.react)
            self.producers.append(prod)
        for spec, rails, cack in elab.consumers:
            cons = _Consumer(spec, rails, cack)
            for w in rails:
                sinks[w].append(cons.react)

    # runtime -----------------------------------------------------------

    def inject(self, time: int, wire_name: str, level: int):
        """Force a wire event at tick ``time``, before :meth:`run`: injections
        at one tick apply in call order, before the drives landing there."""
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
        # Lands at ``time``; not an override of drive: it is no element output.
        Simulation.drive(self, time - 1 - self.wire_delays[wire], wire, level)

    def drive(self, t: int, wire: int, level: int):
        """Schedule ``level`` on ``wire`` for an element that reacted at tick
        ``t``: it lands one tick later plus the wire's delay, in that tick's
        bucket.  The one place an element output is scheduled."""
        t += 1 + self.wire_delays[wire]
        bucket = self.buckets.get(t)
        if bucket is None:
            bucket = self.buckets[t] = []
            heappush(self.ticks, t)
        bucket.append((wire, level))

    def run(self) -> Trace:
        for p in self.producers:
            if p.values:
                p._send(self, 0)
        buckets, ticks, max_time = self.buckets, self.ticks, self.max_time
        levels, sinks, weights = self.levels, self.sinks, self.weights
        names, groups, group_of = self.elab.wire_names, self.elab.groups, self.elab.group_of
        append, tuple_new, event = self.events.append, tuple.__new__, TraceEvent
        timed_out = False
        while ticks:
            t = heappop(ticks)
            if t > max_time:
                timed_out = True
                break
            for wire, level in buckets.pop(t):
                old = levels[wire]
                if old == level:
                    continue
                levels[wire] = level
                append(tuple_new(event, (t, names[wire], old, level)))
                group = group_of[wire]
                if group is not None:
                    weights[group] += level - old
                    if weights[group] > 1:  # more than one rail high
                        signal, rails = groups[group]
                        self.diagnostics.append(f"forbidden state on {signal} at t={t}: "
                                                f"{tuple(levels[w] for w in rails)}")
                for react in sinks[wire]:
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


def run(
    fabric: Fabric,
    stimulus: Dict[str, List[int]],
    delays: Optional[DelayModel] = None,
    max_time: int = MAX_TIME,
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
# edges of an edge signal.  A signal's wires are its spec's wire names, so
# every wire is a rail of one signal at most, and a record per wire holds
# its level, 0 at the start, and the state of its signal.


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
    counts its windows in transaction order.
    """
    # Per signal: rails high, its event times, whether its four-phase walk
    # goes on, and the failure that stopped the walk.
    states = {name: [0, [], spec.protocol is Protocol.FOUR_PHASE, None]
              for name, spec in trace.signals.items()}
    records = {w: [0, states[name]]
               for name, spec in trace.signals.items() for w in spec.wire_names()}
    for e in trace.events:
        # e[0] is the time, e[1] the wire and e[3] the new level; index
        # reads are faster than named-tuple attribute reads.
        rec = records.get(e[1])
        if rec is None:
            continue
        new = e[3]
        d = new - rec[0]
        rec[0] = new
        st = rec[1]
        st[1].append(e[0])
        if st[2]:
            before = st[0]
            high = st[0] = before + d
            if high > 1:
                st[2], st[3] = False, f"forbidden pattern at t={e[0]}"
            elif high == 1 and before == 1:
                st[2], st[3] = False, f"valid-to-valid jump at t={e[0]}"
    verdicts: Dict[str, Tuple[bool, str]] = {}
    for name, (_, times, four_phase, failure) in states.items():
        ok, msg = failure is None, failure or "ok"
        if ok:
            expected = 2 if four_phase else 1
            times.sort()
            ends = [t for _, t in trace.records.get(name, ())]
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
    wire changes) and each gate's output wires mapped, once, to the list of
    its inputs' states and to its acknowledge wire.  An event reads its
    wire's record once and costs O(1).  An output event then evaluates the
    gate's rule in a plain loop over that list, which stops at the first
    input out of step, so it costs O(inputs).  The rails high decide the
    four-phase kind and the LEDR phase only when every event level is 0 or
    1 (:meth:`Trace.from_csv` ensures it).
    """
    states = {name: [0, 0] for name in trace.signals}
    readers: Dict[str, List[GateInfo]] = {}
    for g in trace.gates:
        for s in g.inputs:
            readers.setdefault(s, []).append(g)
    driven = [(g, ack_source(g.output, readers.get(g.output, ())))
              for g in trace.gates if g.output in trace.signals]
    # The record of an acknowledge wire has no state; each record's last
    # item is the gate that drives the wire, if any.
    records = {a: [0, None, None] for _, a in driven}
    records.update({w: [0, states[name], None]
                    for name, spec in trace.signals.items() for w in spec.wire_names()})
    for g, ack in driven:
        # The acknowledge's record, or None where the gate does not read it.
        ack_rec = records[ack] if g.ack else None
        gate = (g.name, g.protocol, states[g.output], [states[s] for s in g.inputs],
                ack_rec, g.inputs)
        for w in trace.signals[g.output].wire_names():
            records[w][2] = gate  # a later gate driving the wire wins

    four_phase, ledr = Protocol.FOUR_PHASE, Protocol.LEDR
    violations: List[str] = []
    for e in trace.events:
        # e[0] is the time, e[1] the wire and e[3] the new level; index
        # reads are faster than named-tuple attribute reads.
        rec = records.get(e[1])
        if rec is None:
            continue
        old, st, gate = rec
        new = rec[0] = e[3]
        if st is not None:
            st[0] += new - old
            st[1] += 1
        if gate is None:
            continue
        name, protocol, out, ins, ack, inputs = gate
        if protocol is four_phase:
            # The rails high: 1 a valid code, 0 null, more forbidden.  The
            # output may take a kind once every input has it, while the
            # acknowledge still holds the other level.
            high = out[0]
            if high > 1:
                violations.append(f"{name}: output forbidden at t={e[0]}")
                continue
            if ack is None or ack[0] != high:
                for in_st in ins:
                    if in_st[0] != high:
                        break
                else:
                    continue
            violations.append(f"{name}: output {'valid' if high else 'cleared'} "
                              f"at t={e[0]} before rendez-vous")
        elif protocol is ledr:
            # The event flipped the output phase; the inputs must already
            # carry that phase and the acknowledge the old one.
            phase = out[0] & 1
            for in_st in ins:
                if in_st[0] & 1 != phase:
                    violations.append(
                        f"{name}: output phase flip at t={e[0]} before input phases"
                    )
                    break
            else:
                if ack is not None and ack[0] != phase ^ 1:
                    violations.append(
                        f"{name}: output phase flip at t={e[0]} before acknowledge"
                    )
        else:  # edge: count-based rendez-vous
            out_count = out[1]
            for s, in_st in zip(inputs, ins):
                if in_st[1] < out_count:
                    violations.append(
                        f"{name}: output toggle {out_count} at t={e[0]} "
                        f"before input {s}"
                    )
    return not violations, violations
