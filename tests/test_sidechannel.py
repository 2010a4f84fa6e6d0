import contextlib
import io
import itertools
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdifab.cli import PROPERTIES, main
from qdifab.encodings import Protocol, SignalSpec
from qdifab.netlist import parse_netlist
from qdifab.sidechannel import (
    AnalysisError,
    ComparisonError,
    dpa_difference_of_means,
    level_value_correlation,
    power_series,
    timing_spread,
    toggle_count_constant,
    toggle_count_profile,
)
from qdifab.simulator import DelayModel, check_single_toggle, fabric_from_netlist, run
from qdifab.trace import Trace, TraceEvent

from .test_check_output import FANOUT_NET

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
    # check_single_toggle holds each four-phase transaction to two output
    # wire changes, the valid rise and the NULL return.
    f = fab(AND_NET)
    for vx, vy in itertools.product(range(2), repeat=2):
        tr = run(f, {"x": [vx, vx], "y": [vy, vy]})
        assert len(tr.records["o"]) == 2
        assert check_single_toggle(tr)["o"] == (True, "ok")


def test_ledr_output_toggles_once_per_transaction():
    f = fab(LEDR_AND_NET)
    for vx, vy in itertools.product(range(2), repeat=2):
        tr = run(f, {"x": [vx, vx], "y": [vy, vy]})
        assert len(tr.records["o"]) == 2
        assert check_single_toggle(tr)["o"] == (True, "ok")


def test_empty_trace_zero_counts():
    tr = run(fab(AND_NET), {"x": [], "y": []})
    assert tr.events == [] and power_series(tr, 0) == [0]
    # An output with no completed transaction has nothing to compare.
    for analysis in (toggle_count_profile, timing_spread):
        with pytest.raises(AnalysisError, match="^primary output 'o' completes no transaction$"):
            analysis({"only": tr})


def test_toggle_profile_constant_across_values():
    profile = toggle_count_profile(traces_per_value(AND_NET))
    assert len(set(profile.values())) == 1
    assert toggle_count_constant(profile)


def test_toggle_count_constant_per_output_on_shared_transactions():
    # Each output compares across values on the transactions that all of
    # them complete; a count on another output or index is no witness.
    assert toggle_count_constant({0: (("q", (4, 4)), ("r", (6,))),
                                  1: (("q", (4,)), ("r", (6, 2)))})
    assert not toggle_count_constant({0: (("q", (4, 4)), ("r", (6,))),
                                      1: (("q", (4, 5)), ("r", (6,)))})
    assert not toggle_count_constant({0: (("q", (4,)), ("r", (6,))),
                                      1: (("q", (4,)), ("r", (4,)))})
    assert toggle_count_constant({})


def test_toggle_profile_rejects_mixed_configs():
    t1 = run(fab(AND_NET), {"x": [1], "y": [1]})
    t2 = run(fab(LEDR_AND_NET), {"x": [1], "y": [1]})
    with pytest.raises(ComparisonError):
        toggle_count_profile({"a": t1, "b": t2})
    # Without meta, the primary outputs still tell two designs apart.
    t3 = run(fab(AND_NET.replace(" o ", " p ").replace("out=o", "out=p")), {"x": [1], "y": [0]})
    for tr in (t1, t3):
        tr.meta.clear()
    for analysis in (toggle_count_profile, timing_spread):
        with pytest.raises(ComparisonError, match=r"^traces with different primary outputs: "
                                                  r"\[\('o',\), \('p',\)\]$"):
            analysis({"a": t1, "b": t3})


def test_traces_under_two_routings_are_not_compared():
    # Jitter under two seeds, or jitter and uniform delays, are two routings.
    f = fab(AND_NET)
    t1, t2 = (run(f, {"x": [1], "y": [1]}, delays=DelayModel(mode="jitter", seed=seed))
              for seed in (1, 2))
    uniform = run(f, {"x": [1], "y": [1]})
    for other, routings in ((t2, "'jitter:1', 'jitter:2'"), (uniform, "'jitter:1', 'uniform'")):
        with pytest.raises(ComparisonError,
                           match=f"^{re.escape(f'traces under different delays: [{routings}]')}$"):
            timing_spread({0: t1, 1: other})


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


def test_timing_spread_of_no_values_is_zero():
    # No value, so no column to take a spread over.
    assert timing_spread({}) == 0


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


def test_dpa_difference_of_means_per_tick():
    # The value-1 traces toggle at t=2 and at t=2 and 4, the value-0 trace
    # at t=4; each ends at t=5.
    traces = [_single_rail_trace(vals) for vals in ([0, 1], [1, 1], [1, 0])]
    assert dpa_difference_of_means(traces, "s") == [0.0, 0.0, 1.0, 0.0, -0.5, 0.0]


def test_power_series_counts_toggles_per_tick_up_to_end():
    tr = Trace(events=[TraceEvent(0, "s.0", 0, 1), TraceEvent(2, "s.0", 1, 0),
                       TraceEvent(2, "s.1", 0, 1), TraceEvent(4, "s.1", 1, 0)])
    assert power_series(tr, 3) == [1, 0, 2, 0]
    assert power_series(tr, 4) == [1, 0, 2, 0, 1]


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
    paths = [f"t{i}.csv" for i in range(len(traces))]
    lines, rows, failed = PROPERTIES["toggle-count"](paths, traces, None)
    assert not failed and lines[-1] == "constant across values: pass"
    # One row per value, each naming the output.
    assert len(rows) == 4 and all(r.endswith(")\",o,9;10") for r in rows)
    lines, _, failed = PROPERTIES["timing"](paths, traces, None)
    assert not failed and lines == ["timing spread: 0 tick(s): pass"]
    _, rows, failed = PROPERTIES["dpa"](paths, dpa_traces, "x")
    assert not failed and rows[0] == "tick,difference"


# Two gates in a chain; listed in reverse, the last gate's output is the
# internal signal a, not the primary output o.
CHAIN_NET = (
    "".join(f"signal {n} proto=4ph arity=2\n" for n in "xyzao")
    + "gate g1 fn=8 in=x,y out=a\n"
    + "gate g2 fn=6 in=a,z out=o\n"
)
CHAIN_STIMULI = ("x: 0,1,1\ny: 1,1,0\nz: 0,0,1\n", "x: 1,1,1\ny: 1,1,0\nz: 1,0,1\n")

# A DAG with two primary outputs, q and r; p fans out to both.
TWO_OUTPUT_NET = (
    "".join(f"signal {n} proto=4ph arity=2\n" for n in "abcdpqr")
    + "gate g1 fn=6 in=a,b out=p\n"
    + "gate g2 fn=e8 in=p,b,c out=q\n"
    + "gate g3 fn=8 in=p,d out=r\n"
)


def _split_gates(net):
    """(signal lines, gate lines) of ``net``."""
    lines = net.splitlines(keepends=True)
    gates = [ln for ln in lines if ln.startswith("gate ")]
    return [ln for ln in lines if ln not in gates], gates


def _cli_verdicts(net, stimuli, delays):
    """``qdifab map`` of ``net``, ``sim --delays <delays>`` of each stimulus,
    then ``check`` of toggle-count and timing over the traces, in a fresh
    directory:
    {property: (exit code, stdout, stderr, report or None)}."""
    verdicts = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        tmp = Path(tmp)
        (tmp / "d.net").write_text(net)
        assert main(["map", str(tmp / "d.net"), "-o", str(tmp / "d.bit")]) == 0
        traces = []
        for i, stim in enumerate(stimuli):
            (tmp / f"{i}.stim").write_text(stim)
            traces.append(str(tmp / f"{i}.csv"))
            main(["sim", str(tmp / "d.bit"), "--stimulus", str(tmp / f"{i}.stim"),
                  "--delays", delays, "--trace", traces[-1]])
        for prop in ("toggle-count", "timing"):
            report = tmp / f"{prop}.report"
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(["check", *traces, "--property", prop, "--report", str(report)])
            verdicts[prop] = (rc, out.getvalue(), err.getvalue(),
                              report.read_text() if report.exists() else None)
    return verdicts


def test_both_gate_orders_judge_the_primary_output():
    signals, gates = _split_gates(CHAIN_NET)
    listed = _cli_verdicts(CHAIN_NET, CHAIN_STIMULI, "jitter:3")
    assert _cli_verdicts("".join(signals + gates[::-1]), CHAIN_STIMULI, "jitter:3") == listed
    assert listed["toggle-count"][:3] == (1, (
        "value (('x', (0, 1, 1)), ('y', (1, 1, 0)), ('z', (0, 0, 1))): o: "
        "toggles per transaction [17, 19, 11]\n"
        "value (('x', (1, 1, 1)), ('y', (1, 1, 0)), ('z', (1, 0, 1))): o: "
        "toggles per transaction [16, 20, 11]\n"
        "constant across values: FAIL\n"), "")
    assert listed["timing"] == (1, "timing spread: 3 tick(s): FAIL\n", "", "spread,3\n")


def test_two_output_design_is_judged_on_both_outputs():
    # Under jitter:16 these two values of c leave r's toggle counts and
    # completion times equal; only q shows that c is not hidden.
    base = "a: 0,1,1\nb: 1,1,0\nd: 1,0,1\n"
    verdicts = _cli_verdicts(TWO_OUTPUT_NET, (base + "c: 0,1,1\n", base + "c: 1,0,1\n"),
                             "jitter:16")
    rc, out, err, report = verdicts["toggle-count"]
    assert (rc, err) == (1, "")
    rows = [row.rsplit(",", 2)[1:] for row in report.splitlines()]
    assert rows == [["q", "25;28;27"], ["r", "25;26;29"], ["q", "25;26;29"], ["r", "25;26;29"]]
    assert out.count(": q: toggles per transaction") == out.count(": r: toggles") == 2
    assert verdicts["timing"] == (1, "timing spread: 1 tick(s): FAIL\n", "", "spread,1\n")


def test_output_without_transaction_exits_2(tmp_path, capsys):
    # The second trace loses o's records: its output completes nothing, so
    # there is nothing to compare, not an empty comparison that passes.
    paths = []
    for vx in (0, 1):
        tr = run(fab(AND_NET), {"x": [vx], "y": [1]})
        if vx:
            del tr.records["o"]
        paths.append(tmp_path / f"{vx}.csv")
        paths[-1].write_text(tr.to_csv())
    for prop in ("toggle-count", "timing"):
        assert main(["check", *map(str, paths), "--property", prop]) == 2
        assert capsys.readouterr() == (
            "", f"error: {paths[1]}: primary output 'o' completes no transaction\n")


PERMUTED_DESIGNS = {"fanout": FANOUT_NET, "chain": CHAIN_NET, "two-output": TWO_OUTPUT_NET}


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_gate_order_leaves_side_channel_verdicts_unchanged(data):
    # The verdicts are made on the design's boundary, which the order of
    # its gate lines does not move.
    net = PERMUTED_DESIGNS[data.draw(st.sampled_from(sorted(PERMUTED_DESIGNS)))]
    signals, gates = _split_gates(net)
    permuted = "".join(signals + data.draw(st.permutations(gates)))
    inputs = parse_netlist(net).primary_inputs()
    stimulus = st.tuples(*[st.lists(st.integers(0, 1), min_size=3, max_size=3)
                           .map(lambda vs, s=s: f"{s}: {','.join(map(str, vs))}\n")
                           for s in inputs]).map("".join)
    stimuli = data.draw(st.lists(stimulus, min_size=2, max_size=3, unique=True))
    delays = data.draw(st.just("uniform") | st.integers(0, 20).map("jitter:{}".format))
    assert _cli_verdicts(permuted, stimuli, delays) == _cli_verdicts(net, stimuli, delays)
