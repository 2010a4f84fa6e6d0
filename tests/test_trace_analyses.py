"""The one-pass trace analyses and property checkers agree with the
reference forms on random traces: events out of time order, events exactly
on window bounds, empty windows, wire subsets, markers in any order, and
gates of every protocol with 1-3 inputs, with and without an acknowledge,
whose outputs fan out."""

from hypothesis import given, settings
from hypothesis import strategies as st

from qdifab.encodings import Protocol, SignalSpec
from qdifab.sidechannel import level_value_correlation, toggles_per_transaction
from qdifab.simulator import check_no_early_evaluation, check_single_toggle
from qdifab.trace import GateInfo, Trace, TraceEvent

from . import _oracles

# Times come from a small range so that events and markers often share a tick.
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



@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_no_early_evaluation_matches_oracle(data):
    tr, _ = data.draw(traces())
    # The verdict and every violation, in order.
    assert check_no_early_evaluation(tr) == _oracles.check_no_early_evaluation(tr)
