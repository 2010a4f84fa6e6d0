"""The one-pass trace analyses agree with the quadratic reference forms on
random traces: events out of time order, events exactly on window bounds,
empty windows, wire subsets and markers in any order."""

from hypothesis import given, settings
from hypothesis import strategies as st

from qdifab.sidechannel import level_value_correlation, toggles_per_transaction
from qdifab.simulator import check_single_toggle
from qdifab.trace import SignalInfo, Trace, TraceEvent

from . import _oracles

# Times come from a small range so that events and markers often share a tick.
TIMES = st.integers(min_value=-2, max_value=12)
BITS = st.integers(min_value=0, max_value=1)


@st.composite
def traces(draw):
    tr = Trace()
    for k in range(draw(st.integers(min_value=1, max_value=3))):
        name = f"s{k}"
        proto = draw(st.sampled_from(["4ph", "ledr", "edge"]))
        arity = draw(st.integers(min_value=2, max_value=3)) if proto == "4ph" else 2
        tr.signals[name] = SignalInfo(
            name, proto, arity, tuple(f"{name}.{j}" for j in range(arity)))
    # An acknowledge wire belongs to no signal.
    wires = [w for info in tr.signals.values() for w in info.wires] + ["s0.cack"]
    tr.events = draw(st.lists(
        st.builds(TraceEvent, TIMES, st.sampled_from(wires), BITS, BITS),
        max_size=30))
    names = sorted(tr.signals)
    tr.markers = draw(st.lists(
        st.tuples(TIMES, st.sampled_from(names), st.integers(0, 6)), max_size=12))
    for name in names:
        values = draw(st.lists(BITS, max_size=6))
        tr.records[name] = [(v, i) for i, v in enumerate(values)]
    return tr, wires


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_one_pass_analyses_match_quadratic_oracles(data):
    tr, wires = data.draw(traces())
    subset = data.draw(st.none() | st.lists(st.sampled_from(wires), unique=True))
    for name in tr.signals:
        assert toggles_per_transaction(tr, name, subset) == \
            _oracles.toggles_per_transaction(tr, name, subset)
        assert level_value_correlation(tr, name) == \
            _oracles.level_value_correlation(tr, name)
    assert check_single_toggle(tr) == _oracles.single_toggle_verdicts(tr)

