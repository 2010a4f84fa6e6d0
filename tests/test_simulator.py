import functools
import gc
import weakref
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qdifab.encodings import Protocol, SignalSpec
from qdifab.mapper import MappedGate, PlbUnit
from qdifab.netlist import parse_netlist
from qdifab.plb import LutTable, PlbConfig, WireRef
from qdifab.simulator import (
    DelayModel,
    Fabric,
    Simulation,
    SimulationInputError,
    _CJoin,
    _Producer,
    check_no_early_evaluation,
    check_single_toggle,
    fabric_from_netlist,
    run,
)
from qdifab.trace import GateInfo, Trace, TraceEvent
from . import _oracles
from ._oracles import all_16_functions, c_element_mux
from .test_golden_traces import CASES as GOLDEN_CASES
from .test_golden_traces import DESIGNS as GOLDEN_DESIGNS
from .test_golden_traces import FAULTS
from .test_golden_traces import _delays as golden_delays
from .test_golden_traces import _stimulus as golden_stimulus
from .test_golden_traces import _trace as golden_trace

AND_NET = """
signal x proto=4ph arity=2
signal y proto=4ph arity=2
signal o proto=4ph arity=2
gate g fn=8 in=x,y out=o
"""

LEDR_BUF_NET = """
signal x proto=ledr arity=2
signal y proto=ledr arity=2
signal o proto=ledr arity=2
gate g fn=a in=x,y out=o
"""  # fn 0xa: f(x, y) = x

EDGE_AND_NET = """
signal a proto=edge arity=2
signal b proto=edge arity=2
signal o proto=edge arity=2
gate g fn=8 in=a,b out=o
"""


def fab(src):
    return fabric_from_netlist(parse_netlist(src))


def test_4ph_and_single_transaction_shape():
    tr = run(fab(AND_NET), {"x": [1], "y": [1]})
    assert not tr.deadlock and not tr.diagnostics
    o_events = tr.events_for(("o.0", "o.1"))
    assert [(e.wire, e.old, e.new) for e in o_events] == [
        ("o.1", 0, 1), ("o.1", 1, 0),
    ]
    acks = tr.events_for(("o.cack",))
    assert [(e.old, e.new) for e in acks] == [(0, 1), (1, 0)]
    rise, fall = o_events
    ack_up, ack_down = acks
    assert rise.time < ack_up.time < fall.time < ack_down.time
    assert tr.values_of("o") == [1]


def test_ledr_buffer_data_then_repeat_toggle():
    tr = run(fab(LEDR_BUF_NET), {"x": [1, 1], "y": [0, 0]})
    o_events = tr.events_for(("o.0", "o.1"))
    assert [e.wire for e in o_events] == ["o.0", "o.1"]
    assert tr.values_of("o") == [1, 1]


def test_empty_stimulus_empty_trace():
    tr = run(fab(AND_NET), {"x": [], "y": []})
    assert tr.events == []
    assert not tr.deadlock


def test_stimulus_unknown_signal_rejected():
    with pytest.raises(SimulationInputError):
        run(fab(AND_NET), {"x": [1], "y": [1], "nope": [0]})


def test_stimulus_out_of_range_value():
    with pytest.raises(SimulationInputError):
        run(fab(AND_NET), {"x": [2], "y": [1]})


LEDR_XOR_NET = """
signal x proto=ledr arity=2
signal y proto=ledr arity=2
signal o proto=ledr arity=2
gate g fn=6 in=x,y out=o
"""


@pytest.mark.parametrize("proto, stimulus, signal, index, value", [
    ("4ph", {"x": [-1, 1], "y": [1, 1]}, "x", 0, "-1"),
    ("4ph", {"x": [0, 1], "y": [1, 0, 2]}, "y", 2, "2"),
    ("ledr", {"x": [-1, 1], "y": [1, 1]}, "x", 0, "-1"),
    ("ledr", {"x": [1, 0], "y": [0, 1.0]}, "y", 1, "1.0"),
    ("edge", {"a": [0, 1, -2], "b": [1, 1, 1]}, "a", 2, "-2"),
    ("edge", {"a": [0], "b": [True]}, "b", 0, "True"),
])
def test_stimulus_value_outside_arity_rejected_at_build(proto, stimulus, signal, index, value):
    # Checked for the whole stimulus before anything runs, so a bad value
    # late in a sequence is refused as early as one at its head.
    net = {"4ph": AND_NET, "ledr": LEDR_XOR_NET, "edge": EDGE_AND_NET}[proto]
    with pytest.raises(SimulationInputError,
                       match=rf"'{signal}': value {value} at index {index} "):
        Simulation(fab(net), stimulus=stimulus)


@pytest.mark.parametrize("delays, message", [
    (DelayModel(overrides={"o.0": -3}), "delay override -3 on wire 'o.0'"),
    (DelayModel(mode="jitter", jitter_range=(3, 2)), r"jitter_range \(3, 2\)"),
    (DelayModel(mode="jitter", jitter_range=(-1, 2)), r"jitter_range \(-1, 2\)"),
    (DelayModel(mode="jiter"), "delay mode 'jiter'"),
    (DelayModel(overrides={"o.9": 1, "o.0": 2, "nope.0": 5}),
     r"^delay override for unknown wire\(s\): \['nope.0', 'o.9'\]$"),
    (DelayModel(overrides={"o.0": 1.5}), "^delay override 1.5 on wire 'o.0' is not an integer"),
    (DelayModel(overrides={"o.0": "2"}), "^delay override '2' on wire 'o.0' is not an integer"),
    (DelayModel(mode="jitter", jitter_range=(1.5, 3)), r"^jitter_range \(1.5, 3\) .* integers"),
    (DelayModel(jitter_range=(1, 3.0)), r"^jitter_range \(1, 3.0\) .* integers"),
], ids=["negative-override", "empty-jitter-range", "negative-jitter-range", "unknown-mode",
        "unknown-wire", "fractional-override", "str-override", "fractional-jitter-lo",
        "fractional-jitter-hi"])
def test_bad_delay_model_rejected_at_build(delays, message):
    # A negative delay would land events before the reaction that drives
    # them, an empty range has no delay to draw, and an override on a wire
    # the fabric lacks, a misspelt name, would be ignored.  A delay that is
    # not an integer would put events on fractional ticks, which no trace
    # can hold.
    with pytest.raises(SimulationInputError, match=message):
        Simulation(fab(AND_NET), delays, {"x": [1], "y": [1]})


@pytest.mark.parametrize("net", [AND_NET, LEDR_XOR_NET, EDGE_AND_NET],
                         ids=["4ph", "ledr", "edge"])
def test_finished_run_is_freed_by_reference_counting(net):
    # Elements hold wire indexes and none holds the run, so dropping the
    # run frees every producer, consumer and block instance at once.
    fabric = fab(net)
    stimulus = {s: [1, 0, 1] for s in fabric.primary_inputs()}
    gc.disable()
    try:
        sim = Simulation(fabric, None, stimulus)
        assert sim.run().records
        elements = {id(r.__self__): r.__self__ for sinks in sim.sinks for r in sinks
                    if not isinstance(r.__self__, _CJoin)}
        kinds = sorted({type(e).__name__ for e in elements.values()})
        refs = [weakref.ref(e) for e in elements.values()]
        del sim, elements
        assert kinds == ["_Consumer", "_PlbInst", "_Producer"]
        assert [r for r in refs if r() is not None] == []
    finally:
        gc.enable()


def test_deadlock_on_starved_input():
    tr = run(fab(AND_NET), {"x": [1], "y": []})
    assert tr.deadlock
    assert any("stalled" in d for d in tr.diagnostics)


def test_max_time_deadlock():
    tr = run(fab(AND_NET), {"x": [1, 0, 1], "y": [1, 1, 1]}, max_time=5)
    assert tr.deadlock
    assert any("max_time" in d for d in tr.diagnostics)


def test_event_at_max_time_is_applied_and_the_next_tick_times_out():
    # x.1 and y.1 land at t=2 = max_time and are applied; the block's
    # reaction lands at t=4, the next tick, which ends the run.
    tr = run(fab(AND_NET), {"x": [1], "y": [1]}, max_time=2)
    assert tr.events == [TraceEvent(2, "x.1", 0, 1), TraceEvent(2, "y.1", 0, 1)]
    assert tr.diagnostics == ["max_time 2 reached while active"]
    assert tr.deadlock


def test_two_injections_on_one_wire_at_one_tick_apply_in_call_order():
    # Up then down at t=5 is a zero-width pulse: two events at one tick.
    # Down then up drops the first, which changes nothing, and keeps the rise.
    pulse = run(fab(AND_NET), {}, inject=[(5, "x.0", 1), (5, "x.0", 0)])
    assert pulse.events == [TraceEvent(5, "x.0", 0, 1), TraceEvent(5, "x.0", 1, 0)]
    rise = run(fab(AND_NET), {}, inject=[(5, "x.0", 0), (5, "x.0", 1)])
    assert rise.events == [TraceEvent(5, "x.0", 0, 1)]


def test_delay_override_of_0_lands_one_tick_after_the_reaction():
    # The producers send at t=0: x.1, with no wire delay, lands at t=1 and
    # y.1, with the uniform one tick, at t=2.
    tr = run(fab(AND_NET), {"x": [1], "y": [1]}, delays=DelayModel(overrides={"x.1": 0}))
    assert tr.events[:2] == [TraceEvent(1, "x.1", 0, 1), TraceEvent(2, "y.1", 0, 1)]
    assert tr.values_of("o") == [1]


def test_forbidden_injection_logged_and_continues():
    tr = run(fab(AND_NET), {"x": [1], "y": [1]}, inject=[(3, "x.0", 1)])
    assert any("forbidden state on x" in d for d in tr.diagnostics)


def test_no_forbidden_in_clean_runs():
    tr = run(fab(AND_NET), {"x": [1, 0, 1, 0], "y": [1, 1, 0, 0]})
    assert not any("forbidden" in d for d in tr.diagnostics)


def test_single_toggle_passes_on_mapped_fabric():
    tr = run(fab(AND_NET), {"x": [1, 0, 1], "y": [1, 1, 0]})
    verdicts = check_single_toggle(tr)
    assert all(ok for ok, _ in verdicts.values()), verdicts


def test_single_toggle_detects_injected_double_toggle():
    tr = run(fab(AND_NET), {"x": [1, 0], "y": [1, 1]})
    # Duplicate the first x event onto the other rail a tick later:
    first = next(e for e in tr.events if e.wire == "x.1")
    tr.events.append(type(first)(first.time + 1, "x.0", 0, 1))
    tr.events.append(type(first)(first.time + 2, "x.0", 1, 0))
    tr.events.sort(key=lambda e: e.time)
    verdicts = check_single_toggle(tr)
    ok, msg = verdicts["x"]
    assert not ok and ("forbidden" in msg or "changes" in msg)


def test_single_toggle_2ph_counts_one_per_transaction():
    tr = run(fab(LEDR_BUF_NET), {"x": [1, 0, 0], "y": [1, 1, 0]})
    verdicts = check_single_toggle(tr)
    assert all(ok for ok, _ in verdicts.values()), verdicts


def test_no_early_evaluation_passes_and_late_input_drives_timing():
    delays = DelayModel(overrides={"y.0": 6, "y.1": 6})
    tr = run(fab(AND_NET), {"x": [1, 1], "y": [1, 0]}, delays=delays)
    ok, violations = check_no_early_evaluation(tr)
    assert ok, violations
    x_rise = next(e.time for e in tr.events if e.wire == "x.1")
    y_rise = next(e.time for e in tr.events if e.wire == "y.1")
    o_rise = next(e.time for e in tr.events if e.wire == "o.1")
    assert y_rise > x_rise
    assert o_rise > y_rise  # output waits for the late input


def test_no_early_evaluation_flags_injected_or_gate():
    # Synthetic trace: the output goes valid on the first input alone,
    # OR-gate style, while y is still NULL.
    delays = DelayModel(overrides={"y.0": 6, "y.1": 6})
    tr = run(fab(AND_NET), {"x": [1], "y": [1]}, delays=delays)
    base = Trace(
        events=[e for e in tr.events if not e.wire.startswith("o.")],
        signals=tr.signals,
        gates=tr.gates,
    )
    x_rise = next(e for e in tr.events if e.wire == "x.1")
    base.events.append(type(x_rise)(x_rise.time + 1, "o.1", 0, 1))
    base.events.sort(key=lambda e: e.time)
    ok, violations = check_no_early_evaluation(base)
    assert not ok
    assert any("before rendez-vous" in v for v in violations)


def test_no_early_evaluation_reads_a_joined_acknowledge():
    # p feeds g2 and g3, so g1's acknowledge is the join p.ackin.  Without
    # its first rise, g1 clears its output while the join still reads 0.
    tr = golden_trace("dag_4ph", "uniform")
    assert check_no_early_evaluation(tr) == (True, [])
    rise = next(e for e in tr.events if e.wire == "p.ackin" and e.new == 1)
    cut = Trace(events=[e for e in tr.events if e is not rise],
                signals=tr.signals, gates=tr.gates)
    assert check_no_early_evaluation(cut) == (
        False, ["g1: output cleared at t=12 before rendez-vous"])


def test_no_early_evaluation_flags_an_output_going_forbidden():
    # o carries 0 over t=4..8 and 12..16; o.1 pulses high over t=5..7 and
    # 13..15, into (1, 1) and back to valid without a rendez-vous.
    design, inject = FAULTS["fault_output_forbidden_twice"]
    assert check_no_early_evaluation(golden_trace(design, "uniform", inject)) == (False, [
        "g: output forbidden at t=5", "g: output valid at t=7 before rendez-vous",
        "g: output forbidden at t=13", "g: output valid at t=15 before rendez-vous",
    ])


def test_no_early_evaluation_reads_a_ledr_acknowledge_only_with_ack():
    # x flips its phase at t=2 and 6, o follows at t=4 and 8; o.cack never
    # rises, so o's second flip comes before its acknowledge.  Only a gate
    # whose `ack` is 1 waits for it.
    events = [TraceEvent(2, "x.0", 0, 1), TraceEvent(4, "o.0", 0, 1),
              TraceEvent(6, "x.1", 0, 1), TraceEvent(8, "o.1", 0, 1)]
    signals = {n: SignalSpec(n, Protocol.LEDR, 2) for n in "ox"}
    for ack, verdict in [(False, (True, [])),
                         (True, (False, ["g: output phase flip at t=8 before acknowledge"]))]:
        tr = Trace(events=events, signals=signals,
                   gates=[GateInfo("g", Protocol.LEDR, ("x",), "o", ack)])
        assert check_no_early_evaluation(tr) == verdict
        assert _oracles.check_no_early_evaluation(tr) == verdict


# A join's inputs as source indices, where a source may be listed more than
# once, and a sequence of source toggles.
_JOIN_CASES = st.lists(st.integers(0, 3), min_size=1, max_size=6).flatmap(
    lambda listing: st.tuples(st.just(listing),
                              st.lists(st.sampled_from(sorted(set(listing))), max_size=40)))


@given(_JOIN_CASES)
@example(([0, 0], [0, 0, 0]))
@example(([2, 0, 2, 1], [2, 0, 1, 2, 0, 2, 1, 1]))
def test_counted_join_matches_c_element_mux(case):
    # The kernel calls a join once per time it lists the toggled wire, after
    # setting that wire's level; the join drives its output wire (index 4,
    # past every source) through the kernel exactly when it changes.
    listing, toggles = case
    driven = []
    sim = SimpleNamespace(levels=[0] * 5,
                          drive=lambda t, wire, level: driven.append((t, wire, level)))
    join = _CJoin(len(listing), 4)
    out, changes = 0, []
    for t, i in enumerate(toggles):
        sim.levels[i] ^= 1
        for _ in range(listing.count(i)):
            join.react(sim, t, i)
        level = c_element_mux(out, [sim.levels[j] for j in listing])
        if level != out:
            changes.append((t, 4, level))
        out = level
        assert join.output == level
    assert driven == changes


# A producer's signal, its stimulus and, per acknowledge toggle, the ticks
# that pass before it: four-phase of arity 2..4, LEDR binary, edge 2..4.
_PRODUCER_CASES = st.sampled_from([(p, n) for p in Protocol for n in range(2, 5)
                                   if p is not Protocol.LEDR or n == 2]).flatmap(
    lambda shape: st.tuples(st.just(shape),
                            st.lists(st.integers(0, shape[1] - 1), max_size=12),
                            st.lists(st.integers(0, 3), max_size=30)))


@given(_PRODUCER_CASES)
@example(((Protocol.LEDR, 2), [1, 1, 0, 0, 1], [1] * 6))
@example(((Protocol.FOUR_PHASE, 3), [2, 0, 2], [0, 1, 2, 0, 1, 2]))
@example(((Protocol.EDGE, 4), [3, 3, 0], [1, 1, 1, 1]))
def test_producer_matches_next_code_oracle(case):
    # Both producers see the same acknowledge toggles on wire n, past their
    # n wires; they must drive the same (tick, wire, level) steps and record
    # the same values at the same ticks.
    (protocol, arity), values, gaps = case
    spec = SignalSpec("x", protocol, arity)
    wires = tuple(range(spec.wire_count))
    ack = len(wires)
    runs = []
    for make in (_Producer, _oracles.Producer):
        drives = []
        sim = SimpleNamespace(levels=[0] * (ack + 1), records={},
                              drive=lambda t, wire, level, d=drives: d.append((t, wire, level)))
        prod = make(spec, wires, values)
        if values:
            prod._send(sim, 0)
        t = 0
        for gap in gaps:
            t += gap
            sim.levels[ack] ^= 1
            prod.react(sim, t, ack)
        runs.append((drives, sim.records, prod.idx))
    assert runs[0] == runs[1]


class _RecordingSimulation(Simulation):
    """A kernel that keeps every drive, as (arrival tick, wire name, level)."""

    def __init__(self, *args):
        self.drives = []
        super().__init__(*args)

    def drive(self, t, wire, level):
        self.drives.append((t + 1 + self.wire_delays[wire],
                            self.elab.wire_names[wire], level))
        super().drive(t, wire, level)


@pytest.mark.parametrize("case", [c for c, (_, delays, _) in GOLDEN_CASES.items()
                                  if delays in ("uniform", "jitter1")])
def test_kernel_schedules_every_element_output(case):
    # Every trace event is an injection or a drive landing on its tick:
    # no element schedules an output any other way.
    design, delays, inject = GOLDEN_CASES[case]
    net, stim = golden_stimulus(design)
    sim = _RecordingSimulation(fabric_from_netlist(net), golden_delays(delays), stim)
    for t, name, level in inject or []:
        sim.inject(t, name, level)
    tr = sim.run()
    pending = Counter(sim.drives) + Counter(inject or [])
    for e in tr.events:
        key = (e.time, e.wire, e.new)
        assert pending[key] > 0, e
        pending[key] -= 1


def test_4ph_alternation_of_decoded_values():
    tr = run(fab(AND_NET), {"x": [1, 0, 1, 1], "y": [1, 1, 0, 1]})
    from qdifab.encodings import decode_4ph, CodeKind

    for name, info in tr.signals.items():
        levels = {w: 0 for w in info.wire_names()}
        states = []
        for e in tr.events_for(info.wire_names()):
            levels[e.wire] = e.new
            code = decode_4ph([levels[w] for w in info.wire_names()])
            assert code.kind is not CodeKind.FORBIDDEN
            if not states or states[-1] != code.kind:
                states.append(code.kind)
        kinds = [k.value for k in states]
        assert all(a != b for a, b in zip(kinds, kinds[1:]))


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_delay_insensitivity_sample(seed):
    stim = {"x": [1, 0, 1, 0], "y": [1, 1, 0, 0]}
    base = run(fab(AND_NET), stim).values_of("o")
    jit = run(fab(AND_NET), stim, delays=DelayModel(mode="jitter", seed=seed))
    assert jit.values_of("o") == base == [1, 0, 0, 0]
    assert not jit.deadlock


def test_jitter_reproducible():
    stim = {"x": [1, 0], "y": [1, 1]}
    d = DelayModel(mode="jitter", seed=9)
    t1 = run(fab(AND_NET), stim, delays=d)
    t2 = run(fab(AND_NET), stim, delays=d)
    assert [(e.time, e.wire, e.new) for e in t1.events] == [
        (e.time, e.wire, e.new) for e in t2.events
    ]


def test_edge_gate_against_function_oracle():
    funcs = all_16_functions()
    stim_x = [1, 0, 1, 1]
    stim_y = [1, 1, 0, 1]
    for bits in (8, 6, 14, 1):
        src = EDGE_AND_NET.replace("fn=8", f"fn={bits:x}")
        tr = run(fab(src), {"a": stim_x, "b": stim_y})
        f = funcs[bits]
        assert tr.values_of("o") == [f(x, y) for x, y in zip(stim_x, stim_y)]
        assert not tr.deadlock


def test_pipeline_two_gates():
    src = """
signal a proto=4ph arity=2
signal b proto=4ph arity=2
signal c proto=4ph arity=2
signal m proto=4ph arity=2
signal o proto=4ph arity=2
gate g1 fn=8 in=a,b out=m
gate g2 fn=6 in=m,c out=o
"""
    stim = {"a": [1, 1, 0, 1], "b": [1, 0, 1, 1], "c": [0, 1, 1, 0]}
    tr = run(fab(src), stim)
    expect = [(x & y) ^ z for x, y, z in zip(stim["a"], stim["b"], stim["c"])]
    assert tr.values_of("o") == expect
    assert all(ok for ok, _ in check_single_toggle(tr).values())
    ok, v = check_no_early_evaluation(tr)
    assert ok, v


def test_fanout_with_ack_join():
    # One signal feeding two gates: the producer side needs the rendez-vous
    # of both acknowledges.
    src = """
signal a proto=4ph arity=2
signal b proto=4ph arity=2
signal o1 proto=4ph arity=2
signal o2 proto=4ph arity=2
gate g1 fn=8 in=a,b out=o1
gate g2 fn=6 in=a,b out=o2
"""
    stim = {"a": [1, 0, 1], "b": [1, 1, 0]}
    tr = run(fab(src), stim)
    assert tr.values_of("o1") == [1, 0, 0]
    assert tr.values_of("o2") == [0, 1, 1]
    assert not tr.deadlock


def test_trace_csv_roundtrip():
    jitter = DelayModel(mode="jitter", seed=3)
    cases = [
        run(fab(AND_NET), {"x": [1, 0], "y": [1, 1]}),
        run(fab(LEDR_BUF_NET), {"x": [1, 1, 0], "y": [0, 1, 1]}),
        run(fab(EDGE_AND_NET), {"a": [1, 0, 1], "b": [1, 1, 0]}),
        # A forbidden-state diagnostic, then a stall on the starved input.
        run(fab(AND_NET), {"x": [1, 0], "y": [1]}, delays=jitter,
            inject=[(3, "x.0", 1)]),
    ]
    assert cases[-1].deadlock and len(cases[-1].diagnostics) >= 2
    for tr in cases:
        text = tr.to_csv()
        back = Trace.from_csv(text)
        assert back.to_csv() == text
        assert back.events == tr.events
        assert back.markers == tr.markers
        assert back.records == tr.records
        assert back.signals == tr.signals
        assert back.gates == tr.gates
        assert back.diagnostics == tr.diagnostics
        assert back.deadlock == tr.deadlock
        assert back.meta == tr.meta
        assert check_single_toggle(back) == check_single_toggle(tr)
    for tr in cases[:3]:
        verdicts = check_single_toggle(Trace.from_csv(tr.to_csv()))
        assert all(ok for ok, _ in verdicts.values()), verdicts


def _oscillating_fabric():
    """One block whose L0 feeds back on itself as ``(x.0 or x.1) and not
    L0``: quiet at reset, oscillating whenever a rail of x is high."""
    no_fb = (False,) * 6
    config = PlbConfig(
        luts=(LutTable.from_function(lambda l0, a, b, *_: (a | b) & (1 - l0)),
              LutTable.zero(), LutTable.zero(), LutTable.zero()),
        feedback_sel=((True,) + (False,) * 5, no_fb, no_fb, no_fb),
        input_assignment=(None, WireRef("x", 1, 2), WireRef("x", 0, 2)) + (None,) * 9,
    )
    unit = PlbUnit("main", config, (WireRef("o", 0, 2), WireRef("o", 1, 2), None, None),
                   ("o.sout", None))
    signals = {s: SignalSpec(s, Protocol.FOUR_PHASE, 2) for s in "xo"}
    return Fabric(signals, [MappedGate("g", (unit,))],
                  [GateInfo("g", Protocol.FOUR_PHASE, ("x",), "o", True)])


def test_oscillating_block_reported_once_through_the_kernel():
    # x.1 rises and the block oscillates; it settles when x.1 falls (a step
    # the block keeps), and oscillates again when x.0 rises.  The kernel
    # reports the first oscillation only and drives nothing for either.
    tr = run(_oscillating_fabric(), {"x": [1]}, inject=[(5, "x.1", 0), (8, "x.0", 1)])
    osc = [d for d in tr.diagnostics if d.startswith("oscillation")]
    assert osc == ["oscillation in block g/main at t=2"]
    assert tr.diagnostics == osc + ["handshake stalled; unfinished producers: x"]
    assert [tuple(e) for e in tr.events] == [
        (2, "x.1", 0, 1), (5, "x.1", 1, 0), (8, "x.0", 0, 1),
    ]
    assert tr.deadlock


def test_negative_max_time_rejected_when_built():
    with pytest.raises(SimulationInputError, match="^max_time -1 is negative$"):
        Simulation(fab(AND_NET), stimulus={"x": [1], "y": [1]}, max_time=-1)


XOR_NET = """
signal x proto=4ph arity=2
signal y proto=4ph arity=2
signal o proto=4ph arity=2
gate g fn=6 in=x,y out=o
"""


@pytest.mark.parametrize("delay", [10, 20])
def test_4ph_gate_waits_for_its_consumer_under_a_slow_rail(delay):
    # Under a slow o.0, a gate that does not wait for its consumer's
    # acknowledge fires the second value before the first has cleared: it
    # decodes [1, 0] at a delay of 20, and [1] with a forbidden (1, 1) on o
    # at 10.
    tr = run(fab(XOR_NET), {"x": [0, 1], "y": [0, 0]},
             delays=DelayModel(overrides={"o.0": delay}))
    assert tr.values_of("o") == [0, 1]
    assert not tr.diagnostics and not tr.deadlock


def test_inject_on_unknown_wire_rejected():
    with pytest.raises(SimulationInputError, match="nope"):
        run(fab(AND_NET), {"x": [1], "y": [1]}, inject=[(3, "nope", 1)])


@pytest.mark.parametrize("level", [2, -1, 0.5, True])
def test_inject_level_other_than_0_or_1_rejected(level):
    with pytest.raises(SimulationInputError, match=r"level .* on wire 'x\.0'"):
        run(fab(AND_NET), {"x": [1], "y": [1]}, inject=[(3, "x.0", level)])


@pytest.mark.parametrize("time", [2.5, -3, True, "3"])
def test_inject_time_other_than_an_integer_of_0_or_more_rejected(time):
    # A fractional tick makes a trace the reader rejects, and a negative one
    # an event before reset.
    with pytest.raises(SimulationInputError,
                       match=rf"^cannot inject at time {time!r} on wire 'x\.0'; "):
        run(fab(AND_NET), {"x": [1], "y": [1]}, inject=[(time, "x.0", 1)])


def test_trace_without_events_roundtrips():
    for tr in (Trace(), run(fab(AND_NET), {"x": [], "y": []})):
        text = tr.to_csv()
        back = Trace.from_csv(text)
        assert back.events == [] and back.to_csv() == text
        assert back.signals == tr.signals and back.gates == tr.gates


def test_4ph_run_evaluates_blocks_and_classifies_through_module_globals(monkeypatch):
    # Profilers and the benchmark's tracer wrap these two names in the
    # simulator module; the kernel must call them there.
    from qdifab import simulator

    calls = {"plb_step": [], "decode_4ph": []}

    def counting(name):
        real = getattr(simulator, name)

        def wrapper(*args):
            calls[name].append(args)
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(simulator, name, counting(name))
    tr = run(fab(AND_NET), {"x": [1, 0], "y": [1, 1]})
    assert tr.values_of("o") == [1, 0]
    assert calls["plb_step"] and calls["decode_4ph"]
    # A forbidden pattern is told by its group's weight alone: the input x
    # has no consumer, so its (1, 1) is reported without a decode_4ph call.
    calls["decode_4ph"].clear()
    tr = run(fab(AND_NET), {"x": [1, 0], "y": [1, 1]}, inject=[(3, "x.0", 1)])
    assert "forbidden state on x at t=3: (1, 1)" in tr.diagnostics
    assert ((1, 1),) not in calls["decode_4ph"]


@functools.lru_cache(maxsize=None)
def _golden_fabric(design):
    net, stim = golden_stimulus(design)
    return fabric_from_netlist(net), stim


def _run_kernel(kernel, fabric, delays, stim, max_time, inject):
    sim = kernel(fabric, delays, stim, max_time)
    for t, name, level in inject:
        sim.inject(t, name, level)
    tr = sim.run()
    return tr.to_csv(), tr.deadlock, tr.diagnostics


@st.composite
def _kernel_cases(draw):
    """A golden design and a prefix of its stimulus; uniform, jittered or
    overridden delays (0 included); injections at tick 0, on the ticks the
    producers' first sends land, several on one tick and past ``max_time``;
    a ``max_time`` that is often an event tick."""
    design = draw(st.sampled_from(sorted(GOLDEN_DESIGNS)))
    fabric, stim = _golden_fabric(design)
    n = draw(st.integers(0, 12))
    stim = {s: vs[:n] for s, vs in stim.items()}
    wires = Simulation(fabric).elab.wire_names
    delays = draw(st.one_of(
        st.just(DelayModel()),
        st.builds(lambda seed: DelayModel(mode="jitter", seed=seed), st.integers(1, 10)),
        st.builds(lambda mode, overrides: DelayModel(mode=mode, seed=1, overrides=overrides),
                  st.sampled_from(["uniform", "jitter"]),
                  st.dictionaries(st.sampled_from(wires), st.integers(0, 3),
                                  min_size=1, max_size=4)),
    ))
    sim = Simulation(fabric, delays, stim)
    sends = [1 + sim.wire_delays[w] for p in sim.producers for w in p.wires]
    same = draw(st.integers(0, 40))
    ticks = st.sampled_from([0, same, *sends]) | st.integers(0, 40)
    injections = st.lists(st.tuples(ticks, st.sampled_from(wires), st.integers(0, 1)),
                          max_size=6)
    inject = draw(injections)
    times = sorted({e.time for e in _oracles.HeapSimulation(fabric, delays, stim).run().events}
                   | {t for t, _, _ in inject})
    max_time = draw(st.sampled_from(times) | st.integers(0, 200) if times
                    else st.integers(0, 200))
    late = st.tuples(st.integers(max_time + 1, max_time + 5), st.sampled_from(wires),
                     st.integers(0, 1))
    inject += draw(st.lists(late, max_size=2))
    return fabric, delays, stim, max_time, inject


@given(_kernel_cases())
def test_calendar_kernel_matches_heap_kernel_oracle(case):
    # Same trace text, deadlock flag and diagnostics as the kernel that
    # orders one heap of events by (tick, sequence number).
    assert (_run_kernel(Simulation, *case)
            == _run_kernel(_oracles.HeapSimulation, *case))
