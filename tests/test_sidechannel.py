import itertools

import pytest

from qdifab.cli import PROPERTIES
from qdifab.encodings import Protocol, SignalSpec
from qdifab.netlist import parse_netlist
from qdifab.sidechannel import (
    AnalysisError,
    ComparisonError,
    dpa_difference_of_means,
    level_value_correlation,
    timing_spread,
    toggle_count_profile,
    toggles_per_transaction,
)
from qdifab.simulator import DelayModel, fabric_from_netlist, run
from qdifab.trace import Trace, TraceEvent

AND_NET = """
signal x proto=4ph arity=2
signal y proto=4ph arity=2
signal o proto=4ph arity=2
gate g fn=8 in=x,y out=o
"""

LEDR_AND_NET = AND_NET.replace("proto=4ph", "proto=ledr")
EDGE_AND_NET = """
signal x proto=edge arity=2
signal y proto=edge arity=2
signal o proto=edge arity=2
gate g fn=8 in=x,y out=o
"""


def fab(src):
    return fabric_from_netlist(parse_netlist(src))


def traces_per_value(src, repeat=2):
    out = {}
    f = fab(src)
    for vx, vy in itertools.product(range(2), repeat=2):
        out[(vx, vy)] = run(f, {"x": [vx] * repeat, "y": [vy] * repeat})
    return out


def test_4ph_output_toggles_twice_per_transaction_either_value():
    f = fab(AND_NET)
    for vx, vy in itertools.product(range(2), repeat=2):
        tr = run(f, {"x": [vx, vx], "y": [vy, vy]})
        counts = toggles_per_transaction(tr, wires=("o.0", "o.1"))
        assert counts == [2, 2]


def test_ledr_output_toggles_once_per_transaction():
    f = fab(LEDR_AND_NET)
    for vx, vy in itertools.product(range(2), repeat=2):
        tr = run(f, {"x": [vx, vx], "y": [vy, vy]})
        counts = toggles_per_transaction(tr, wires=("o.0", "o.1"))
        assert counts == [1, 1]


def test_empty_trace_zero_counts():
    tr = run(fab(AND_NET), {"x": [], "y": []})
    assert toggles_per_transaction(tr) == []


def test_toggle_profile_constant_across_values():
    profile = toggle_count_profile(traces_per_value(AND_NET))
    assert len(set(profile.values())) == 1


def test_toggle_profile_rejects_mixed_configs():
    t1 = run(fab(AND_NET), {"x": [1], "y": [1]})
    t2 = run(fab(LEDR_AND_NET), {"x": [1], "y": [1]})
    with pytest.raises(ComparisonError):
        toggle_count_profile({"a": t1, "b": t2})


def test_timing_spread_zero_under_uniform_delays():
    assert timing_spread(traces_per_value(AND_NET)) == 0


def test_timing_spread_positive_with_unequal_rail_delays():
    f = fab(AND_NET)
    delays = DelayModel(overrides={"x.0": 4})  # x.0 slower than x.1
    groups = {
        vx: run(f, {"x": [vx, vx], "y": [1, 1]}, delays=delays) for vx in (0, 1)
    }
    assert timing_spread(groups) > 0


def test_timing_spread_single_trace_zero():
    tr = run(fab(AND_NET), {"x": [1], "y": [1]})
    assert timing_spread({"only": tr}) == 0


def test_dpa_balanced_fabric_is_flat_zero():
    f = fab(AND_NET)
    traces = []
    for vx, vy in itertools.product(range(2), repeat=2):
        traces.append(run(f, {"x": [vx, vx], "y": [vy, vy]}))
    diff = dpa_difference_of_means(traces, "x")
    assert all(d == 0 for d in diff)


def _single_rail_trace(values, fabric_tag="naked"):
    """Reference unprotected gate: one wire, s.0, whose level equals the
    value; s.1 stays 0."""
    tr = Trace(meta={"fabric": fabric_tag})
    tr.signals["s"] = SignalSpec("s", Protocol.FOUR_PHASE, 2)
    level = 0
    t = 0
    for v in values:
        t += 2
        if v != level:
            tr.events.append(TraceEvent(t, "s.0", level, v))
            level = v
        tr.records.setdefault("s", []).append((v, t + 1))
    return tr


def test_dpa_single_rail_reference_leaks():
    # The unprotected gate toggles only when the value changes: partitioning
    # by the first value separates the traces at the evaluation tick.
    traces = [_single_rail_trace(vals) for vals in ([0, 0], [0, 1], [1, 0], [1, 1])]
    diff = dpa_difference_of_means(traces, "s")
    assert any(d != 0 for d in diff)


def test_dpa_identical_partitions_zero():
    tr0 = _single_rail_trace([0, 1])
    tr1 = _single_rail_trace([1, 1])
    diff = dpa_difference_of_means([tr0, tr1, tr0, tr1], "s")
    tr0b = _single_rail_trace([0, 1])
    assert dpa_difference_of_means([tr0, tr0b, tr1, tr1], "s") == diff


def test_dpa_empty_partition_rejected():
    traces = [_single_rail_trace([1, 0]), _single_rail_trace([1, 1])]
    with pytest.raises(AnalysisError):
        dpa_difference_of_means(traces, "s")


def test_ledr_level_risk_flagged():
    tr = run(fab(LEDR_AND_NET), {"x": [1, 1, 0, 0, 1, 0], "y": [1, 0, 1, 0, 1, 1]})
    assert level_value_correlation(tr, "x") == 1.0
    assert level_value_correlation(tr, "o") == 1.0


def test_4ph_and_edge_signals_not_flagged():
    tr4 = run(fab(AND_NET), {"x": [1, 1, 0, 0, 1, 0], "y": [1, 0, 1, 0, 1, 1]})
    assert level_value_correlation(tr4, "x") == 0.0
    assert level_value_correlation(tr4, "o") == 0.0
    tre = run(fab(EDGE_AND_NET), {"x": [1, 1, 0, 0, 1, 0], "y": [1, 0, 1, 0, 1, 1]})
    assert level_value_correlation(tre, "x") == 0.0
    assert level_value_correlation(tre, "o") == 0.0


def test_constant_value_reports_zero():
    tr = run(fab(LEDR_AND_NET), {"x": [1, 1], "y": [1, 1]})
    assert level_value_correlation(tr, "x") == 0.0  # no evidence either way


def test_check_path_verdicts_on_matched_traces():
    # The check path's data-independence verdicts, as ``qdifab check`` runs them.
    traces = list(traces_per_value(AND_NET).values())
    f = fab(AND_NET)
    dpa_traces = [run(f, {"x": [vx, vx], "y": [1, 1]}) for vx in (0, 1, 0, 1)]
    lines, _, failed = PROPERTIES["toggle-count"]([], traces, None)
    assert not failed and lines[-1] == "constant across values: pass"
    lines, _, failed = PROPERTIES["timing"]([], traces, None)
    assert not failed and lines == ["timing spread: 0 tick(s): pass"]
    _, rows, failed = PROPERTIES["dpa"]([], dpa_traces, "x")
    assert not failed and rows[0] == "tick,difference"
