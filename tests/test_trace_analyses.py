"""The one-pass trace analyses and property checkers agree with the
reference forms on random traces: events out of time order, events exactly
on window bounds, empty windows, completion times in any order, and gates
of every protocol with 1-3 inputs, with and without an acknowledge, whose
outputs fan out."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdifab.encodings import Protocol, SignalSpec
from qdifab.netlist import primary_signals
from qdifab.sidechannel import (
    AnalysisError,
    level_value_correlation,
    toggle_count_profile,
)
from qdifab.simulator import check_no_early_evaluation, check_single_toggle
from qdifab.trace import GateInfo, Trace, TraceEvent

from . import _oracles

# Times come from a small range so that events and records often share a tick.
TIMES = st.integers(min_value=-2, max_value=12)
BITS = st.integers(min_value=0, max_value=1)
PROTOCOLS = st.sampled_from(list(Protocol))


@st.composite
def traces(draw):
    tr = Trace()
    for k in range(draw(st.integers(min_value=1, max_value=4))):
        name = f"s{k}"
        proto = draw(PROTOCOLS)
        arity = (draw(st.integers(min_value=2, max_value=3))
                 if proto is Protocol.FOUR_PHASE else 2)
        tr.signals[name] = SignalSpec(name, proto, arity)
    names = sorted(tr.signals)
    # A gate's protocol need not match its signals'; a signal that several
    # gates read fans out.
    for k in range(draw(st.integers(min_value=0, max_value=4))):
        ins = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3))
        tr.gates.append(GateInfo(f"g{k}", draw(PROTOCOLS), tuple(ins),
                                 draw(st.sampled_from(names)), draw(st.booleans())))
    # The acknowledge wires belong to no signal: a consuming gate's `.sout`,
    # the environment's `.cack` and the join of several consumers, `.ackin`.
    acks = [f"{name}.{kind}" for name in names for kind in ("sout", "cack", "ackin")]
    wires = sorted(w for spec in tr.signals.values() for w in spec.wire_names()) + acks
    tr.events = draw(st.lists(
        st.builds(TraceEvent, TIMES, st.sampled_from(wires), BITS, BITS),
        max_size=30))
    # Records drawn freely: completion times in any order, also before 0.
    for name in names:
        tr.records[name] = draw(st.lists(st.tuples(BITS, TIMES), max_size=6))
    return tr


@settings(max_examples=300, deadline=None)
@given(tr=traces())
def test_one_pass_analyses_match_quadratic_oracles(tr):
    for name in tr.signals:
        assert level_value_correlation(tr, name) == \
            _oracles.level_value_correlation(tr, name)
    # The profile windows one event-time list on every primary output.
    outputs = primary_signals(tr.signals, tr.gates)[1]
    if all(tr.records[s] for s in outputs):
        assert toggle_count_profile({0: tr}) == {0: tuple(
            (s, tuple(_oracles.toggles_per_transaction(tr, s))) for s in outputs)}
    else:
        with pytest.raises(AnalysisError):
            toggle_count_profile({0: tr})
    assert check_single_toggle(tr) == _oracles.single_toggle_verdicts(tr)



@settings(max_examples=300, deadline=None)
@given(tr=traces())
def test_no_early_evaluation_matches_oracle(tr):
    # The verdict and every violation, in order.
    assert check_no_early_evaluation(tr) == _oracles.check_no_early_evaluation(tr)
