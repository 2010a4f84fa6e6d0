import contextlib
import functools
import io
import os
import re
import subprocess
import sys
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qdifab
from qdifab.bitstream import (
    CONFIG_BITS,
    bits_to_hex,
    config_bits,
    config_from_bits,
    hex_to_bits,
    read_bitstream,
    write_bitstream,
)
from qdifab.cli import PROPERTIES, main
from qdifab.mapper import map_4ph_2in
from qdifab.netlist import parse_netlist
from qdifab.simulator import fabric_from_netlist, run
from qdifab.trace import Trace, TraceFormatError

from . import _oracles
from .test_golden_traces import DESIGNS as GOLDEN_DESIGNS
from .test_golden_traces import _stimulus as golden_stimulus

THREE_GATE_NET = """
# half adder plus a carry tap
signal a proto=4ph arity=2
signal b proto=4ph arity=2
signal s proto=4ph arity=2
signal t proto=4ph arity=2
signal o proto=4ph arity=2
gate g1 fn=6 in=a,b out=s
gate g2 fn=8 in=a,b out=t
gate g3 fn=e in=s,t out=o
"""

SEVEN_WIRE_NET = """
signal x proto=4ph arity=3
signal y proto=4ph arity=2
signal z proto=4ph arity=2
signal o proto=4ph arity=3
gate wide fn=0 in=x,y,z out=o
"""

STIM = "a: 1,0,1,1\nb: 1,1,0,1\n"

# The directory holding the qdifab package these tests import.
SRC = os.path.dirname(os.path.dirname(qdifab.__file__))


@pytest.fixture
def files(tmp_path):
    net = tmp_path / "design.net"
    net.write_text(THREE_GATE_NET)
    stim = tmp_path / "in.stim"
    stim.write_text(STIM)
    return tmp_path, net, stim


def test_config_bits_roundtrip():
    unit = map_4ph_2in("g", lambda x, y: x & y).plbs[0]
    bits = config_bits(unit.config)
    assert len(bits) == CONFIG_BITS
    hx = bits_to_hex(bits)
    assert len(hx) == 70
    assert hex_to_bits(hx)[:CONFIG_BITS] == bits
    back = config_from_bits(bits, unit.config.input_assignment)
    assert back == unit.config


@given(st.lists(st.integers(0, 1), max_size=300))
@example([])  # no bits, no digits
def test_bits_to_hex_matches_oracle(bits):
    assert bits_to_hex(bits) == _oracles.bits_to_hex(bits)


def test_bitstream_roundtrip_preserves_behaviour():
    fab = fabric_from_netlist(parse_netlist(THREE_GATE_NET))
    text = write_bitstream(fab)
    fab2 = read_bitstream(text)
    stim = {"a": [1, 0, 1, 1], "b": [1, 1, 0, 1]}
    assert run(fab, stim).values_of("o") == run(fab2, stim).values_of("o")
    assert write_bitstream(fab2) == text


def test_bitstream_roundtrip_edge_gate_with_internals():
    src = (
        "signal a proto=edge arity=2\nsignal b proto=edge arity=2\n"
        "signal o proto=edge arity=2\ngate g fn=6 in=a,b out=o\n"
    )
    fab = fabric_from_netlist(parse_netlist(src))
    fab2 = read_bitstream(write_bitstream(fab))
    assert fab2.mapped[0].internal_signals == fab.mapped[0].internal_signals
    assert len(fab2.mapped[0].plbs) == 2
    stim = {"a": [1, 0, 1], "b": [1, 1, 0]}
    assert run(fab2, stim).values_of("o") == [1 ^ 1, 0 ^ 1, 1 ^ 0]


def test_map_writes_deterministic_bitstream(files, capsys):
    tmp, net, _ = files
    out1, out2 = tmp / "a.bit", tmp / "b.bit"
    assert main(["map", str(net), "-o", str(out1)]) == 0
    assert main(["map", str(net), "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert "3 block(s)" in capsys.readouterr().out


def test_map_seven_wire_gate_fails_naming_gate(tmp_path, capsys):
    net = tmp_path / "wide.net"
    net.write_text(SEVEN_WIRE_NET)
    rc = main(["map", str(net), "-o", str(tmp_path / "x.bit")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: gate 'wide': unsupported 4ph shape [3, 2, 2] -> 3\n"


def test_map_parse_error_reports_line(tmp_path, capsys):
    net = tmp_path / "bad.net"
    net.write_text("signal a proto=4ph arity=2\nbogus line here\n")
    assert main(["map", str(net), "-o", str(tmp_path / "x.bit")]) == 2
    assert "line 2" in capsys.readouterr().err


def test_map_legacy_ack_token_warns_in_one_line(files, capsys):
    tmp, net, _ = files
    net.write_text(THREE_GATE_NET.replace("out=t\n", "out=t ack\n"))
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        assert main(["map", str(net), "-o", str(tmp / "x.bit")]) == 0
    assert capsys.readouterr().err == (
        "warning: line 9: the 'ack' gate token is ignored: every gate shape "
        "decides its own acknowledge\n")
    assert (tmp / "x.bit").exists()


def test_map_legacy_ack_token_under_warnings_as_errors_exits_2(files, capsys, monkeypatch):
    tmp, net, _ = files
    net.write_text(THREE_GATE_NET.replace("out=t\n", "out=t ack\n")
                   .replace("out=o\n", "out=o ack\n"))
    # What -W error does: an "error" filter, and the option in sys.warnoptions.
    monkeypatch.setattr(sys, "warnoptions", ["error"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["map", str(net), "-o", str(tmp / "x.bit")]) == 2
    assert capsys.readouterr().err == (
        "error: line 9: the 'ack' gate token is ignored: every gate shape "
        "decides its own acknowledge\n")
    assert not (tmp / "x.bit").exists()


@pytest.mark.parametrize("options, rc", [([], 0), (["-W", "error"], 2)],
                         ids=["default-filters", "W-error"])
def test_map_legacy_ack_token_through_main_in_a_fresh_interpreter(tmp_path, options, rc):
    # The installed console script calls main() from a module that is not
    # the CLI's, so the default filters alone would hide the warning there.
    net = tmp_path / "legacy.net"
    net.write_text("signal x proto=edge arity=2\nsignal y proto=edge arity=2\n"
                   "signal o proto=edge arity=2\ngate g fn=8 in=x,y out=o ack\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    script = ("import sys; from qdifab.cli import main; "
              f"sys.exit(main(['map', {str(net)!r}, '-o', {str(tmp_path / 'o.bit')!r}]))")
    proc = subprocess.run([sys.executable, *options, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == rc, proc.stderr
    lines = proc.stderr.splitlines()
    prefix = "warning: line 4: " if rc == 0 else "error: line 4: "
    assert len(lines) == 1 and lines[0].startswith(prefix), proc.stderr


def test_fresh_imports_do_not_keep_the_last_one_alive():
    # The benchmark imports the package afresh at each set-up.  A module-level
    # alias that subscripts a typing generic with a package class is cached
    # by typing, and would keep each earlier import alive.  Run apart, since
    # re-importing here would change the class identities other tests use.
    script = """
import gc, importlib, sys, types
def fresh_import():
    for name in [m for m in sys.modules if m == "qdifab" or m.startswith("qdifab.")]:
        del sys.modules[name]
    for m in ("netlist", "simulator", "bitstream", "progchain", "trace", "sidechannel", "cli"):
        importlib.import_module("qdifab." + m)
def live_functions():
    gc.collect()
    return sum(1 for o in gc.get_objects() if isinstance(o, types.FunctionType)
               and (o.__module__ or "").startswith("qdifab"))
fresh_import()
once = live_functions()
for _ in range(5):
    fresh_import()
print(once, live_functions())
"""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    once, after = map(int, proc.stdout.split())
    assert once > 0 and after == once


def test_sim_writes_trace_with_transactions(files, capsys):
    tmp, net, stim = files
    bit = tmp / "d.bit"
    assert main(["map", str(net), "-o", str(bit)]) == 0
    tracef = tmp / "out.csv"
    rc = main(["sim", str(bit), "--stimulus", str(stim), "--trace", str(tracef)])
    assert rc == 0
    tr = Trace.from_csv(tracef.read_text())
    assert len(tr.records["o"]) == 4
    assert tr.values_of("o") == [(a ^ b) | (a & b) for a, b in
                                 zip([1, 0, 1, 1], [1, 1, 0, 1])]


def test_map_unconnected_signal_exits_2_naming_line(files, capsys):
    tmp, net, _ = files
    net.write_text(THREE_GATE_NET.replace("signal o ", "signal z proto=4ph arity=2\nsignal o "))
    assert main(["map", str(net), "-o", str(tmp / "x.bit")]) == 2
    assert capsys.readouterr().err == "error: line 7: signal 'z' connects to no gate\n"


def test_sim_bitstream_with_unconnected_signal_exits_2_naming_line(files, capsys):
    tmp, net, stim = files
    bit = tmp / "d.bit"
    assert main(["map", str(net), "-o", str(bit)]) == 0
    lines = bit.read_text().splitlines()
    lines.insert(1, "# signal z proto=4ph arity=2")
    bit.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["sim", str(bit), "--stimulus", str(stim)]) == 2
    assert capsys.readouterr().err == (
        f"error: {bit}: line 2: signal 'z' connects to no gate\n")


def test_map_unwritable_output_exits_2(files, capsys):
    tmp, net, _ = files
    assert main(["map", str(net), "-o", str(tmp / "missing" / "x.bit")]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 2] No such file or directory")


def test_sim_unwritable_trace_exits_2(files, capsys):
    tmp, net, stim = files
    bit = tmp / "d.bit"
    assert main(["map", str(net), "-o", str(bit)]) == 0
    capsys.readouterr()
    assert main(["sim", str(bit), "--stimulus", str(stim),
                 "--trace", str(tmp / "missing" / "t.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 2] No such file or directory")


def test_check_unwritable_report_exits_2(files, capsys):
    tmp, net, _ = files
    paths = _trace_files(tmp, net, count=1)
    capsys.readouterr()
    assert main(["check", *paths, "--property", "single-toggle",
                 "--report", str(tmp / "missing" / "r.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 2] No such file or directory")


@pytest.mark.parametrize("flag, value", [("--max-time", "-1")])
def test_sim_negative_time_exits_2(files, capsys, flag, value):
    tmp, net, stim = files
    bit, tracef = tmp / "d.bit", tmp / "out.csv"
    assert main(["map", str(net), "-o", str(bit)]) == 0
    capsys.readouterr()
    assert main(["sim", str(bit), "--stimulus", str(stim), flag, value,
                 "--trace", str(tracef)]) == 2
    name = flag[2:].replace("-", "_")
    assert capsys.readouterr().err == f"error: {name} {value} is negative\n"
    assert not tracef.exists()


def test_sim_repeated_stimulus_signal_exits_2_naming_line(files, capsys):
    tmp, net, _ = files
    bit, stim = tmp / "d.bit", tmp / "twice.stim"
    assert main(["map", str(net), "-o", str(bit)]) == 0
    stim.write_text("a: 0,1,1\nb: 1,1,0\n# again\na: 1\n")
    capsys.readouterr()
    assert main(["sim", str(bit), "--stimulus", str(stim)]) == 2
    assert capsys.readouterr().err == "error: stimulus line 4: signal 'a' given twice\n"


def test_sim_unknown_stimulus_signal(files, capsys):
    tmp, net, _ = files
    bit = tmp / "d.bit"
    main(["map", str(net), "-o", str(bit)])
    bad = tmp / "bad.stim"
    bad.write_text("a: 1\nb: 1\nzz: 0\n")
    assert main(["sim", str(bit), "--stimulus", str(bad)]) == 2


@pytest.mark.parametrize("proto, fn", [("4ph", "8"), ("ledr", "6"), ("edge", "8")])
def test_sim_negative_stimulus_value_exits_2(tmp_path, capsys, proto, fn):
    net = tmp_path / "g.net"
    net.write_text("".join(f"signal {s} proto={proto} arity=2\n" for s in "xyo")
                   + f"gate g fn={fn} in=x,y out=o\n")
    bit, stim = tmp_path / "g.bit", tmp_path / "neg.stim"
    assert main(["map", str(net), "-o", str(bit)]) == 0
    stim.write_text("x: -1,1\ny: 1,1\n")
    capsys.readouterr()
    assert main(["sim", str(bit), "--stimulus", str(stim)]) == 2
    assert "'x': value -1 at index 0 " in capsys.readouterr().err


# The tests below give integers that int() reads and the formats refuse:
# signs, underscores, a hex prefix and Arabic-Indic digits.
@pytest.mark.parametrize("value", ["+1", "\u0661", "-1", "1_0", "0x1"])
def test_sim_stimulus_value_other_than_ascii_digits_exits_2(files, capsys, value):
    tmp, net, _ = files
    bit, stim = tmp / "d.bit", tmp / "bad.stim"
    assert main(["map", str(net), "-o", str(bit)]) == 0
    stim.write_text(f"a: 1,0\nb: 1,{value}\n")
    capsys.readouterr()
    assert main(["sim", str(bit), "--stimulus", str(stim)]) == 2
    assert capsys.readouterr().err == (f"error: stimulus line 2: 'b': value {value} at index 1 "
                                       "is not an integer of 0 or more\n")


@pytest.mark.parametrize("seed", ["+3", "\u0663", "-1", ""])
def test_sim_jitter_seed_other_than_ascii_digits_exits_2(files, capsys, seed):
    tmp, net, stim = files
    bit = tmp / "d.bit"
    assert main(["map", str(net), "-o", str(bit)]) == 0
    capsys.readouterr()
    assert main(["sim", str(bit), "--stimulus", str(stim), "--delays", f"jitter:{seed}"]) == 2
    assert capsys.readouterr().err == (
        f"error: jitter seed {seed!r} is not an integer of 0 or more\n")


@pytest.mark.parametrize("arity", ["\u0662", "+2"])
def test_map_netlist_arity_other_than_ascii_digits_exits_2(tmp_path, capsys, arity):
    net = tmp_path / "bad.net"
    net.write_text(THREE_GATE_NET.replace("arity=2", f"arity={arity}", 1))
    capsys.readouterr()
    assert main(["map", str(net), "-o", str(tmp_path / "bad.bit")]) == 2
    assert capsys.readouterr().err == (
        f"error: line 3: arity {arity!r} is not an integer of 0 or more\n")


@pytest.mark.parametrize("design, old, new", [
    ("4ph_2in", "arity=2", "arity=\u0662"),
    ("4ph_2in", "arity=2", "arity=+2"),
    ("4ph_2in", "x:0:2", "x:+0:2"),  # a binding's index
    ("4ph_2in", "x:0:2", "x:\u0660:2"),
    ("4ph_2in", "x:0:2", "x:0:+2"),  # its width
    ("edge_2in", "g.c 4", "g.c +4"),  # an `# internal` width
    ("edge_2in", "g.c 4", "g.c \u0664"),
    ("4ph_2in", "0000000000", "000000000\u0660"),  # a block line
], ids=["arity-non-ascii", "arity-sign", "index-sign", "index-non-ascii", "width-sign",
        "internal-sign", "internal-non-ascii", "block-non-ascii"])
def test_sim_bitstream_integer_other_than_ascii_digits_exits_2(tmp_path, capsys, design,
                                                                old, new):
    lines, stim = _golden_bitstream(design)
    text = "\n".join(lines) + "\n"
    assert old in text
    bad, stim_path = tmp_path / "bad.bit", tmp_path / "in.stim"
    bad.write_text(text.replace(old, new, 1))
    stim_path.write_text(stim)
    where = next(i for i, ln in enumerate(bad.read_text().splitlines(), 1) if new in ln)
    capsys.readouterr()
    assert main(["sim", str(bad), "--stimulus", str(stim_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: line {where}: expected ")


@pytest.mark.parametrize("old, new", [
    ("# signal x proto=4ph arity=2", "# signal x proto=ledr arity=2 proto=4ph"),
    ("# plb 0 gate=g ", "# plb 0 gate=zz gate=g "),
], ids=["signal", "plb"])
def test_sim_bitstream_key_given_twice_exits_2(tmp_path, capsys, old, new):
    # Read as its last value, a key given twice made a second file of one
    # fabric.
    lines, stim = _golden_bitstream("4ph_2in")
    text = "\n".join(lines) + "\n"
    assert old in text
    bad, stim_path = tmp_path / "bad.bit", tmp_path / "in.stim"
    bad.write_text(text.replace(old, new, 1))
    stim_path.write_text(stim)
    where = next(i for i, ln in enumerate(bad.read_text().splitlines(), 1) if new in ln)
    capsys.readouterr()
    assert main(["sim", str(bad), "--stimulus", str(stim_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: line {where}: expected ")


def test_map_ternary_table_entry_3_exits_2(tmp_path, capsys):
    # Entry 0 of fn=12267 is 3, which no ternary output can carry: the
    # gate once mapped and then stalled its handshake.
    net = tmp_path / "ter.net"
    net.write_text("".join(f"signal {s} proto=4ph arity=3\n" for s in "tuv")
                   + "gate g fn=12267 in=t,u out=v\n")
    capsys.readouterr()
    assert main(["map", str(net), "-o", str(tmp_path / "ter.bit")]) == 2
    assert capsys.readouterr().err == "error: line 4: gate 'g': fn entry 0 is 3, outside 0..2\n"


def test_sim_deadlock_sets_exit_one(files, capsys):
    tmp, net, _ = files
    bit = tmp / "d.bit"
    main(["map", str(net), "-o", str(bit)])
    starve = tmp / "starve.stim"
    starve.write_text("a: 1\nb:\n")
    rc = main(["sim", str(bit), "--stimulus", str(starve)])
    assert rc == 1
    assert "stalled" in capsys.readouterr().out


def test_sim_jitter_seed_reproducible(files):
    tmp, net, stim = files
    bit = tmp / "d.bit"
    main(["map", str(net), "-o", str(bit)])
    t1, t2 = tmp / "t1.csv", tmp / "t2.csv"
    assert main(["sim", str(bit), "--stimulus", str(stim),
                 "--delays", "jitter:5", "--trace", str(t1)]) == 0
    assert main(["sim", str(bit), "--stimulus", str(stim),
                 "--delays", "jitter:5", "--trace", str(t2)]) == 0
    assert t1.read_text() == t2.read_text()


def test_sim_jitter_is_jitter_seed_0(files):
    tmp, net, stim = files
    bit = tmp / "d.bit"
    main(["map", str(net), "-o", str(bit)])
    t1, t2 = tmp / "t1.csv", tmp / "t2.csv"
    assert main(["sim", str(bit), "--stimulus", str(stim),
                 "--delays", "jitter", "--trace", str(t1)]) == 0
    assert main(["sim", str(bit), "--stimulus", str(stim),
                 "--delays", "jitter:0", "--trace", str(t2)]) == 0
    assert t1.read_text() == t2.read_text()


def _trace_files(tmp, net, count=4):
    bit = tmp / "d.bit"
    main(["map", str(net), "-o", str(bit)])
    paths = []
    combos = [(0, 0), (0, 1), (1, 0), (1, 1)][:count]
    for i, (a, b) in enumerate(combos):
        stim = tmp / f"s{i}.stim"
        stim.write_text(f"a: {a},{a}\nb: {b},{b}\n")
        out = tmp / f"t{i}.csv"
        assert main(["sim", str(bit), "--stimulus", str(stim),
                     "--trace", str(out)]) == 0
        paths.append(str(out))
    return paths


def test_check_single_toggle_and_timing_pass(files, capsys):
    tmp, net, _ = files
    paths = _trace_files(tmp, net)
    assert main(["check", *paths, "--property", "single-toggle"]) == 0
    assert main(["check", *paths, "--property", "timing"]) == 0
    out = capsys.readouterr().out
    assert "timing spread: 0" in out


def test_check_toggle_count_constant(files):
    tmp, net, _ = files
    paths = _trace_files(tmp, net)
    assert main(["check", *paths, "--property", "toggle-count"]) == 0


def test_check_dpa_flat(files):
    tmp, net, _ = files
    paths = _trace_files(tmp, net)
    assert main(["check", *paths, "--property", "dpa", "--select", "a"]) == 0


def test_check_timing_fails_on_perturbed_trace(files, capsys):
    tmp, net, _ = files
    paths = _trace_files(tmp, net, count=2)
    # Shift every record and event of one trace: a value-correlated delay.
    with open(paths[1]) as fh:
        tr = Trace.from_csv(fh.read())
    tr.events = [type(e)(e.time + 3, e.wire, e.old, e.new) for e in tr.events]
    tr.records = {s: [(v, t + 3) for v, t in rs] for s, rs in tr.records.items()}
    with open(paths[1], "w") as fh:
        fh.write(tr.to_csv())
    rc = main(["check", *paths, "--property", "timing"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def _long_block_line(lines):
    lines[-1] += "0000"
    return len(lines)


def _padding_bit_set(lines):
    lines[-1] = lines[-1][:-1] + format(int(lines[-1][-1], 16) | 1, "x")
    return len(lines)


def _uppercase_block_line(lines):
    lines[-1] = lines[-1].upper()
    return len(lines)


def _extra_hex_line(lines):
    lines.append(lines[-1])
    return len(lines)


def _missing_hex_line(lines):
    del lines[-1]
    return next(i for i, ln in enumerate(lines, 1) if ln.startswith("# plb "))


@pytest.mark.parametrize("edit, message", [
    (_long_block_line, "expected 70 lowercase hex digits whose last 3 bits are 0"),
    (_padding_bit_set, "expected 70 lowercase hex digits whose last 3 bits are 0"),
    (_uppercase_block_line, "expected 70 lowercase hex digits whose last 3 bits are 0"),
    (_extra_hex_line, "1 block headers but 2 hex lines"),
    (_missing_hex_line, "1 block headers but 0 hex lines"),
], ids=["long-line", "padding-bit", "uppercase", "extra-hex-line", "missing-hex-line"])
def test_sim_non_canonical_block_lines_exit_2_naming_the_line(tmp_path, capsys, edit, message):
    # Each of these once read as the fabric of the unedited file, so two
    # files named one design.
    (tmp_path / "and.net").write_text(AND_NET)
    (tmp_path / "and.stim").write_text("x: 0,1\ny: 1,1\n")
    good, bad = tmp_path / "and.bit", tmp_path / "bad.bit"
    assert main(["map", str(tmp_path / "and.net"), "-o", str(good)]) == 0
    lines = good.read_text().splitlines()
    where = edit(lines)
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["sim", str(bad), "--stimulus", str(tmp_path / "and.stim")]) == 2
    assert capsys.readouterr().err == f"error: {bad}: line {where}: {message}\n"


@pytest.mark.parametrize("prop", ["toggle-count", "timing", "dpa"])
def test_check_unknown_select_exits_2(files, capsys, prop):
    tmp, net, _ = files
    paths = _trace_files(tmp, net)
    capsys.readouterr()
    assert main(["check", *paths, "--property", prop, "--select", "zz"]) == 2
    assert capsys.readouterr().err == (
        f"error: {paths[0]}: --select 'zz' is not a signal of the trace\n")


def test_check_missing_property_flag_usage_error(files, capsys):
    tmp, net, _ = files
    paths = _trace_files(tmp, net, count=1)
    with pytest.raises(SystemExit) as exc:
        main(["check", *paths])
    assert exc.value.code == 2


def test_check_ledr_risk_reports(tmp_path, capsys):
    net = tmp_path / "l.net"
    net.write_text(
        "signal x proto=ledr arity=2\nsignal y proto=ledr arity=2\n"
        "signal o proto=ledr arity=2\ngate g fn=8 in=x,y out=o\n"
    )
    bit = tmp_path / "l.bit"
    assert main(["map", str(net), "-o", str(bit)]) == 0
    stim = tmp_path / "l.stim"
    stim.write_text("x: 1,0,1,0\ny: 1,1,0,0\n")
    out = tmp_path / "l.csv"
    assert main(["sim", str(bit), "--stimulus", str(stim), "--trace", str(out)]) == 0
    assert main(["check", str(out), "--property", "ledr-risk"]) == 0
    txt = capsys.readouterr().out
    assert "x: correlation 1.0" in txt
    assert "level reveals value" in txt


GOOD_TRACE = """# qdifab-trace v1
# signal x proto=4ph arity=2 wires=x.0,x.1
# signal o proto=4ph arity=2 wires=o.0,o.1
# gate g proto=4ph in=x out=o ack=0
time,wire,old,new
2,x.1,0,1
"""


@pytest.mark.parametrize("bad_line", [
    "# signal y proto=4ph wires=y.0,y.1",  # no arity
    "# signal y proto=zz arity=2 wires=y.0,y.1",
    "# record o 0 1",  # no completion time
    "# transaction o first",
    "# gate h proto=4ph in=zz,x out=o ack=0",  # undeclared input
    "# signal x proto=edge arity=2 wires=x.0,x.1",  # x declared again
    "# meta fabric",
    "3,x.1,1",  # three fields
    "3,x.1,1,0,0",
    "3,x 1,1,0",
    "t3,x.1,1,0",
    "3,,1,0",
    "# transaction zz 0",  # undeclared signal
    "# record zz 0 1 5",
    "# record o 1 1 5",  # o's first record, but index 1
    "# record o 0 1 -5",
    "# signal y proto=4ph arity=7 wires=y.0,y.1",
    "# signal y proto=4ph arity=2 wires=y.0",
    "# signal y proto=ledr arity=3 wires=y.0,y.1",
    "# signal y proto=4ph arity=2 wires=x.0,x.1",  # x's wires
    "# signal y proto=4ph arity=+2 wires=y.0,y.1",
    "1_0,x.1,1,0",
    "+3,x.1,1,0",
    " 3 ,x.1,1,0",
    "\u0663,x.1,1,0",  # an Arabic-Indic digit 3
    "# transaction o -1",
    "# record o +0 1 5",
    "# record o 0 0_1 5",
    "# record o 0 1 5_0",
    "# record o 0 1 \u0665",  # an Arabic-Indic digit 5
    "# record o 0 2 5",  # o is binary
    "# gate h proto=4ph in=x out=o ack=2",
    "# signal y proto=4ph arity=2 wires=y.0,y.1 proto=edge",
], ids=["signal-no-arity", "signal-bad-proto", "record-short", "transaction-index",
        "gate-undeclared-input", "signal-twice", "meta-no-value", "row-3-fields",
        "row-5-fields", "row-wire-space", "row-time", "row-no-wire",
        "transaction-undeclared-signal", "record-undeclared-signal", "record-index-order",
        "record-time-below-0", "signal-arity-7-on-2-wires", "signal-missing-wire",
        "signal-ledr-ternary", "signal-others-wires", "signal-arity-sign",
        "row-time-underscore", "row-time-sign", "row-time-spaces", "row-time-non-ascii",
        "transaction-below-0", "record-index-sign", "record-value-underscore",
        "record-time-underscore", "record-time-non-ascii", "record-value-not-below-arity",
        "gate-ack-2", "signal-key-twice"])
def test_check_malformed_trace_exits_2_naming_line(tmp_path, capsys, bad_line):
    good = tmp_path / "good.csv"
    good.write_text(GOOD_TRACE)
    assert main(["check", str(good), "--property", "no-early-eval"]) == 0
    bad = tmp_path / "bad.csv"
    bad.write_text(GOOD_TRACE + bad_line + "\n")
    capsys.readouterr()
    assert main(["check", str(good), str(bad), "--property", "no-early-eval"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: line 7: ")


def test_trace_markers_and_records_in_any_line_order():
    # A transaction pair may come before its signal's declaration and blank
    # lines may part it; records run 0, 1, 2, ... per signal, and the
    # markers are their view, sorted by completion time.
    text = ("# transaction o 0\n# record o 0 1 5\n# transaction p 0\n\n# record p 0 1 3\n"
            "# signal o proto=4ph arity=2 wires=o.0,o.1\n"
            "# transaction o 1\n# record o 1 0 9\n"
            "# signal p proto=4ph arity=2 wires=p.0,p.1\n")
    tr = Trace.from_csv(text)
    assert tr.records == {"o": [(1, 5), (0, 9)], "p": [(1, 3)]}
    assert tr.markers == [(3, "p", 0), (5, "o", 0), (9, "o", 1)]
    # Indices are compared as written, not as the numbers they spell.
    for idx in ("0", "01"):
        with pytest.raises(TraceFormatError,
                           match=f"^line 8: record {idx} of 'o' where record 1 is next$"):
            Trace.from_csv(text.replace("o 1\n# record o 1 ", f"o {idx}\n# record o {idx} "))
    # A record value is held to its signal's arity once every line is read.
    with pytest.raises(TraceFormatError,
                       match=r"^line 2: record value 2 of 'o' is outside 0\.\.1$"):
        Trace.from_csv(text.replace("# record o 0 1 5", "# record o 0 2 5"))
    # A signal's transactions complete in order.
    with pytest.raises(TraceFormatError, match="^line 8: record 1 of 'o' completes at time 4, "
                                               "before record 0 at 5$"):
        Trace.from_csv(text.replace("# record o 1 0 9", "# record o 1 0 4"))
    # Either line of a pair alone is an error naming it.
    with pytest.raises(TraceFormatError, match="^line 7: transaction o 1 is not followed by "
                                               "its '# record o 1 <value> <time>' line$"):
        Trace.from_csv(text.replace("# record o 1 0 9\n", ""))
    with pytest.raises(TraceFormatError, match="^line 3: transaction p 0 is not followed by "):
        Trace.from_csv(text.replace("\n\n", "\n# comment\n"))
    with pytest.raises(TraceFormatError, match="^line 7: a record line that does not follow "):
        Trace.from_csv(text.replace("# transaction o 1\n", ""))


@pytest.mark.parametrize("prop", sorted(PROPERTIES))
@pytest.mark.parametrize("lone", ["transaction", "record"])
def test_check_lone_transaction_or_record_line_exits_2(tmp_path, capsys, prop, lone):
    # A transaction line and its record line are one pair; either alone is
    # an input error for every property, naming its line.
    paths = [_sim_trace(tmp_path, f"t{i}", AND_NET, f"x: {i}\ny: 1\n") for i in range(2)]
    select = ["--select", "x"] if prop == "dpa" else []
    lines = (tmp_path / "t0.csv").read_text().splitlines()
    first = next(i for i, ln in enumerate(lines) if ln.startswith("# transaction "))
    pair = lines[first].split()[2:]
    if lone == "transaction":
        del lines[first + 1]
        message = (f"transaction {' '.join(pair)} is not followed by its "
                   f"'# record {' '.join(pair)} <value> <time>' line")
    else:
        del lines[first]
        message = "a record line that does not follow its '# transaction <signal> <index>' line"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check", str(bad), paths[1], "--property", prop, *select]) == 2
    assert capsys.readouterr().err == f"error: {bad}: line {first + 1}: {message}\n"


@pytest.mark.parametrize("bad_line", [
    "# signal y proto=zz arity=2",
    "# signal y proto=4ph",  # no arity
    "# signal y proto=4ph arity=two",
    "# signal y proto=4ph arity",  # not key=value
    "# signal y proto=4ph arity=9",  # arity out of range
    "# signal proto=4ph arity=2",  # no name
    "# gate h proto=zz in=a,b out=s ack=0",
    "# gate h proto=4ph in=a,b out=s",  # no ack
    "# gate h proto=4ph in=zz,b out=s ack=0",  # undeclared input
    "# internal c",
    "# plb 9 gate=g role=main",  # no pin bindings
    "# plb 9 gate=g role=main in=- out=-;-;-;- sout=-;-",  # one pin of 12
    "# plb 9 gate=g role=main in=" + ";".join(["a:x:2"] * 12) + " out=-;-;-;- sout=-;-",
    "0123456789abcdefzz",  # a block line that is not hex
    "0123456789abcdef",  # a block line that is too short
], ids=["signal-bad-proto", "signal-no-arity", "signal-arity-text", "signal-bare-key",
        "signal-arity-range", "signal-no-name", "gate-bad-proto", "gate-no-ack",
        "gate-undeclared-input", "internal-no-width", "plb-no-fields", "plb-pin-count",
        "plb-bad-ref", "hex-digit", "hex-short"])
def test_sim_malformed_bitstream_exits_2_naming_line(files, capsys, bad_line):
    tmp, net, stim = files
    good = tmp / "good.bit"
    assert main(["map", str(net), "-o", str(good)]) == 0
    assert main(["sim", str(good), "--stimulus", str(stim)]) == 0
    lines = good.read_text().splitlines()
    if bad_line.startswith("#"):
        lines.insert(1, bad_line)
        where = 2
    else:  # in place of the first block line, so the counts still match
        where = next(i for i, ln in enumerate(lines, 1) if not ln.startswith("#"))
        lines[where - 1] = bad_line
    bad = tmp / "bad.bit"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["sim", str(bad), "--stimulus", str(stim)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: line {where}: ")


@pytest.mark.parametrize("ack", ["2", "+1", "01"])
def test_sim_gate_ack_other_than_0_or_1_exits_2(tmp_path, capsys, ack):
    # ack=2 read as ack=1 made a second file of one fabric.
    (tmp_path / "and.net").write_text(AND_NET)
    (tmp_path / "and.stim").write_text("x: 0,1\ny: 1,1\n")
    good, bad = tmp_path / "and.bit", tmp_path / "bad.bit"
    assert main(["map", str(tmp_path / "and.net"), "-o", str(good)]) == 0
    lines = good.read_text().splitlines()
    where = next(i for i, ln in enumerate(lines, 1) if ln.startswith("# gate g "))
    assert lines[where - 1].endswith(" ack=1")
    lines[where - 1] = lines[where - 1][:-1] + ack
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["sim", str(bad), "--stimulus", str(tmp_path / "and.stim")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: line {where}: expected ")


@pytest.mark.parametrize("old, new", [
    ("a:0:2", "zz:0:2"),  # a pin reading an undeclared signal
    ("s.ackin:0:1", "zz.ackin:0:1"),  # the acknowledge of one
    ("out=s:0:2", "out=zz:0:2"),  # an output driving one
    ("sout=s.sout", "sout=zz.sout"),
    ("sout=s.sout", "sout=s"),  # a data signal where an ack wire belongs
    ("a:0:2", "t:0:2"),  # a declared signal, but not one of the gate's
    ("out=s:0:2", "out=t:0:2"),  # another gate's output
    ("sout=s.sout", "sout=t.sout"),  # another gate's acknowledge
    ("gate=g1", "gate=zz"),  # a gate with no `# gate` line
    ("a:1:2", "a:7:2"),  # a wire past the signal's width
    ("a:1:2", "a:1:4"),  # a width other than the signal's
    ("s.ackin:0:1", "s.ackin:1:2"),  # an acknowledge is one wire
    ("# plb 1 ", None),  # g2 without its block: its `# gate` line is named
], ids=["pin", "pin-ack", "output", "sout", "sout-not-ack", "pin-other-gate",
        "output-other-gate", "sout-other-gate", "gate-without-header", "pin-index",
        "pin-width", "ack-width", "gate-without-block"])
def test_sim_block_binding_undeclared_signal_exits_2(files, capsys, old, new):
    tmp, net, stim = files
    good = tmp / "good.bit"
    assert main(["map", str(net), "-o", str(good)]) == 0
    lines = good.read_text().splitlines()
    if new is None:  # delete the block: its header and its hex line
        block = next(i for i, ln in enumerate(lines) if ln.startswith(old))
        del lines[block], lines[-2]
        where = next(i for i, ln in enumerate(lines, 1) if ln.startswith("# gate g2 "))
        new = "g2"
    else:
        where = next(i for i, ln in enumerate(lines, 1) if ln.startswith("# plb 0 "))
        assert old in lines[where - 1]
        lines[where - 1] = lines[where - 1].replace(old, new, 1)
    bad = tmp / "bad.bit"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["sim", str(bad), "--stimulus", str(stim)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: line {where}: ")
    assert repr(new.split("=")[-1].split(":")[0]) in err


@pytest.mark.parametrize("old, new, named", [
    # a signal declared twice: the second declaration is named
    ("# signal t proto=4ph arity=2", "# signal t proto=4ph arity=2\n# signal s proto=4ph arity=2",
     "# signal s proto=4ph arity=2"),
    # two gates driving s
    ("in=a,b out=t", "in=a,b out=s", "# gate g2 proto=4ph in=a,b out=s ack=1"),
    # a `# gate proto=` that disagrees with its signals
    ("# gate g1 proto=4ph", "# gate g1 proto=ledr", "# gate g1 proto=ledr in=a,b out=s ack=1"),
    # a gate cycle, g1 reading o: named at the gate that closes it
    ("in=a,b out=s", "in=a,o out=s", "# gate g3 proto=4ph in=s,t out=o ack=1"),
    # g1's header reads t, but its block reads b: named at the block
    ("in=a,b out=s", "in=a,t out=s", "# plb 0 "),
    # two gates named g1
    ("# gate g2 ", "# gate g1 ", "# gate g1 proto=4ph in=a,b out=t"),
    # an `ack=` that disagrees with the blocks, which read s.ackin
    ("out=s ack=1", "out=s ack=0", "# gate g1 proto=4ph in=a,b out=s ack=0"),
], ids=["signal-twice", "two-drivers", "gate-proto", "cycle", "gate-inputs-vs-pins",
        "gate-twice", "gate-ack"])
def test_sim_bitstream_breaking_a_design_rule_exits_2_naming_line(
        files, capsys, old, new, named):
    tmp, net, stim = files
    good = tmp / "good.bit"
    assert main(["map", str(net), "-o", str(good)]) == 0
    text = good.read_text()
    assert old in text
    bad = tmp / "bad.bit"
    bad.write_text(text.replace(old, new, 1))
    where = max(i for i, ln in enumerate(bad.read_text().splitlines(), 1)
                if ln.startswith(named))
    capsys.readouterr()
    assert main(["sim", str(bad), "--stimulus", str(stim)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: line {where}: ")


def _sim_trace(tmp, name, net, stim, delays="uniform"):
    """Maps ``net``, simulates ``stim`` on it and returns the trace path."""
    (tmp / f"{name}.net").write_text(net)
    (tmp / f"{name}.stim").write_text(stim)
    bit, trace = tmp / f"{name}.bit", tmp / f"{name}.csv"
    assert main(["map", str(tmp / f"{name}.net"), "-o", str(bit)]) == 0
    assert main(["sim", str(bit), "--stimulus", str(tmp / f"{name}.stim"),
                 "--delays", delays, "--trace", str(trace)]) == 0
    return str(trace)


AND_NET = (
    "".join(f"signal {n} proto=4ph arity=2\n" for n in "xyo") + "gate g fn=8 in=x,y out=o\n"
)


def test_fingerprint_is_the_bitstream_identity(tmp_path, capsys):
    # AND is symmetric, so only the pin bindings tell the two fabrics apart.
    swapped = AND_NET.replace("in=x,y", "in=y,x")
    fabrics = [fabric_from_netlist(parse_netlist(n)) for n in (AND_NET, swapped)]
    assert fabrics[0].fingerprint() != fabrics[1].fingerprint()
    for fabric in fabrics:
        assert read_bitstream(write_bitstream(fabric)).fingerprint() == fabric.fingerprint()
    paths = [_sim_trace(tmp_path, f"and{i}", net, f"x: {i}\ny: 1\n")
             for i, net in enumerate((AND_NET, swapped))]
    capsys.readouterr()
    assert main(["check", *paths, "--property", "dpa", "--select", "x"]) == 2
    assert "different configurations" in capsys.readouterr().err


def _both_or_bypasses(bits):
    bits[274] = bits[275] = 1


def _ring_on_l0(bits):
    # L0 = NOT pin 0 (entry i is bit i of the stream), with pin 0 fed back
    # from L0 itself (bit 256): the block cannot settle from reset.
    bits[0:64] = [1 - (i & 1) for i in range(64)]
    bits[256] = 1


@pytest.mark.parametrize("edit, broken", [
    (_both_or_bypasses, "or6 bypass engaged on both memory points"),
    (_ring_on_l0, "block oscillates in the all-zero reset state"),
], ids=["both-or-bypasses", "oscillating-reset"])
def test_sim_block_breaking_a_block_rule_exits_2_naming_its_line(
        tmp_path, capsys, edit, broken):
    (tmp_path / "and.net").write_text(AND_NET)
    (tmp_path / "and.stim").write_text("x: 0,1\ny: 1,1\n")
    good, bad = tmp_path / "and.bit", tmp_path / "bad.bit"
    assert main(["map", str(tmp_path / "and.net"), "-o", str(good)]) == 0
    lines = good.read_text().splitlines()
    bits = hex_to_bits(lines[-1])  # the one block line is the last
    edit(bits)
    lines[-1] = bits_to_hex(bits)
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["sim", str(bad), "--stimulus", str(tmp_path / "and.stim")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: line {len(lines)}: block breaks the block rules: ")
    assert broken in err


@pytest.mark.parametrize("prop", ["toggle-count", "timing", "dpa"])
@pytest.mark.parametrize("delays", [("uniform", "jitter:3"), ("jitter:3", "jitter:4")],
                         ids=["uniform-and-jitter", "two-jitter-seeds"])
def test_check_traces_under_different_delays_exits_2(tmp_path, capsys, prop, delays):
    paths = [_sim_trace(tmp_path, f"t{i}", AND_NET, f"x: {i}\ny: 1\n", d)
             for i, d in enumerate(delays)]
    select = ["--select", "x"] if prop == "dpa" else []
    capsys.readouterr()
    assert main(["check", *paths, "--property", prop, *select]) == 2
    assert "traces under different delays" in capsys.readouterr().err


@pytest.mark.parametrize("prop", ["toggle-count", "timing", "dpa"])
def test_check_traces_under_one_jitter_seed_are_compared(tmp_path, prop):
    paths = [_sim_trace(tmp_path, f"t{i}", AND_NET, f"x: {i}\ny: 1\n", "jitter:3")
             for i in range(2)]
    select = ["--select", "x"] if prop == "dpa" else []
    assert main(["check", *paths, "--property", prop, *select]) in (0, 1)


@pytest.mark.parametrize("select", [[], ["--select", "x"]], ids=["inputs", "select"])
def test_check_timing_two_traces_of_one_value_exits_2(tmp_path, capsys, select):
    paths = [_sim_trace(tmp_path, f"t{i}", AND_NET, "x: 1\ny: 1\n") for i in range(2)]
    capsys.readouterr()
    assert main(["check", *paths, "--property", "timing", *select]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {paths[0]} and {paths[1]} carry the same values")


@pytest.mark.parametrize("prop", sorted(PROPERTIES))
def test_check_event_level_not_a_bit_exits_2(tmp_path, capsys, prop):
    # The checkers count a signal's rails high, which needs 0/1 levels.
    paths = [_sim_trace(tmp_path, f"t{i}", AND_NET, f"x: {i}\ny: 1\n") for i in range(2)]
    select = ["--select", "x"] if prop == "dpa" else []
    assert main(["check", *paths, "--property", prop, *select]) == 0
    lines = (tmp_path / "t0.csv").read_text().splitlines()
    lineno = next(i for i, ln in enumerate(lines, 1)
                  if len(ln.split(",")) == 4 and ln.split(",")[1] in ("o.0", "o.1"))
    t, wire, old, new = lines[lineno - 1].split(",")
    for row in (f"{t},{wire},{old},2", f"{t},{wire},{old},-1", f"{t},{wire},2,{new}",
                f"{t},{wire},0{old},{new}"):
        lines[lineno - 1] = row
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["check", str(bad), paths[1], "--property", prop, *select]) == 2, row
        assert capsys.readouterr().err.startswith(f"error: {bad}: line {lineno}: "), row


@pytest.mark.parametrize("prop", sorted(PROPERTIES))
def test_check_event_rows_out_of_time_order_exit_2(tmp_path, capsys, prop):
    # The checkers replay rows in file order, so a swapped pair would be
    # read as another history; the second row of the pair is named.
    paths = [_sim_trace(tmp_path, f"t{i}", AND_NET, f"x: {i}\ny: 1\n") for i in range(2)]
    select = ["--select", "x"] if prop == "dpa" else []
    lines = (tmp_path / "t0.csv").read_text().splitlines()
    times = {i: ln.split(",")[0] for i, ln in enumerate(lines) if ln[:1].isdigit()}
    # The last two adjacent event rows of different times, so that rows
    # sharing a tick come before them.
    i = max(i for i in times if times.get(i + 1, times[i]) != times[i])
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check", str(bad), paths[1], "--property", prop, *select]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: line {i + 2}: event at time {times[i]} after an event at "
        f"time {times[i + 1]}; event rows come in non-decreasing time order\n")


def _shift_times(line, by):
    """An event row or ``# record`` line with its time moved by ``by``;
    any other line as it is."""
    fields = line.split(",")
    if len(fields) == 4 and fields[0].isdigit():
        return ",".join([str(int(fields[0]) + by), *fields[1:]])
    if line.startswith("# record "):
        *head, t = line.split()
        return " ".join([*head, str(int(t) + by)])
    return line


@pytest.mark.parametrize("prop", sorted(PROPERTIES))
def test_check_times_below_0_exit_2(tmp_path, capsys, prop):
    # Nothing happens before reset at time 0.  A trace shifted 10 ticks
    # back read as another history: single-toggle failed a transaction
    # "ending t=-1", toggle-count passed and dpa indexed its power series
    # from the end.  The error names a line whose time is below 0.
    paths = [_sim_trace(tmp_path, f"t{i}", AND_NET, f"x: {i}\ny: 1\n") for i in range(2)]
    select = ["--select", "x"] if prop == "dpa" else []
    lines = (tmp_path / "t0.csv").read_text().splitlines()
    first_row = next(i for i, ln in enumerate(lines) if ln[:1].isdigit())
    first_record = next(i for i, ln in enumerate(lines) if ln.startswith("# record "))
    corruptions = {
        "shifted": [_shift_times(ln, -10) for ln in lines],
        "first row": [_shift_times(ln, -int(ln.split(",")[0]) - 1) if i == first_row else ln
                      for i, ln in enumerate(lines)],
        "first record": [_shift_times(ln, -int(ln.split()[-1]) - 1) if i == first_record
                         else ln for i, ln in enumerate(lines)],
    }
    for name, bad_lines in corruptions.items():
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(bad_lines) + "\n")
        capsys.readouterr()
        assert main(["check", str(bad), paths[1], "--property", prop, *select]) == 2, name
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: line "), (name, err)
        lineno = int(err[len(f"error: {bad}: line "):].split(":")[0])
        named = bad_lines[lineno - 1]
        time = named.split(",")[0] if named[:1] != "#" else named.split()[-1]
        assert int(time) < 0, (name, named)
        assert "below 0" in err or "integer of 0 or more" in err, (name, err)


LEDR_3IN_NET = (
    "".join(f"signal {n} proto=ledr arity=2\n" for n in "xyzo")
    + "gate g fn=e8 in=x,y,z out=o\n"
)


@pytest.mark.parametrize("design", [*GOLDEN_DESIGNS, "ledr_3in"])
def test_bitstream_of_every_mapper_shape_loads(design):
    text = LEDR_3IN_NET if design == "ledr_3in" else GOLDEN_DESIGNS[design]
    fabric = fabric_from_netlist(parse_netlist(text))
    bits = write_bitstream(fabric)
    assert write_bitstream(read_bitstream(bits)) == bits


def test_sim_empty_stimulus_trace_checks(files, capsys):
    tmp, net, _ = files
    bit, empty, tracef = tmp / "d.bit", tmp / "empty.stim", tmp / "out.csv"
    assert main(["map", str(net), "-o", str(bit)]) == 0
    empty.write_text("")
    assert main(["sim", str(bit), "--stimulus", str(empty), "--trace", str(tracef)]) == 0
    assert Trace.from_csv(tracef.read_text()).events == []
    assert main(["check", str(tracef), "--property", "single-toggle"]) == 0


def test_check_no_early_eval_flags_forbidden_output(tmp_path, capsys):
    # o.0 rises at t=5 while o.1 is high and x has not changed: the output
    # goes forbidden, a violation whatever the inputs.
    trace = tmp_path / "forbidden.csv"
    trace.write_text(GOOD_TRACE + "4,o.1,0,1\n5,o.0,0,1\n")
    assert main(["check", str(trace), "--property", "no-early-eval"]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == ["  g: output forbidden at t=5"]


@pytest.mark.parametrize("prop", sorted(PROPERTIES))
def test_check_signal_listing_a_wire_twice_exits_2(tmp_path, capsys, prop):
    paths = [_sim_trace(tmp_path, f"t{i}", AND_NET, f"x: {i}\ny: 1\n") for i in range(2)]
    select = ["--select", "x"] if prop == "dpa" else []
    lines = (tmp_path / "t0.csv").read_text().splitlines()
    lineno = lines.index("# signal x proto=4ph arity=2 wires=x.0,x.1") + 1
    lines[lineno - 1] = "# signal x proto=4ph arity=2 wires=x.0,x.0"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check", str(bad), paths[1], "--property", prop, *select]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: line {lineno}: signal 'x': wires=x.0,x.0, where its wires are x.0,x.1\n")


@pytest.mark.parametrize("prop", sorted(PROPERTIES))
@pytest.mark.parametrize("declared, message", [
    ("proto=4ph arity=7 wires=o.0,o.1", "signal 'o': arity 7 outside 2..4"),
    ("proto=4ph arity=2 wires=o.0", "signal 'o': wires=o.0, where its wires are o.0,o.1"),
    ("proto=ledr arity=3 wires=o.0,o.1", "signal 'o': LEDR is restricted to binary signals"),
    ("proto=4ph arity=2 wires=x.0,x.1", "signal 'o': wires=x.0,x.1, where its wires are o.0,o.1"),
], ids=["arity-7-on-2-wires", "one-wire-of-2", "ledr-ternary", "another-signals-wires"])
def test_check_malformed_signal_declaration_exits_2(tmp_path, capsys, prop, declared, message):
    # A `# signal` line is read as a SignalSpec: its arity range and the
    # LEDR binary rule hold, and its wires are exactly the spec's.
    paths = [_sim_trace(tmp_path, f"t{i}", AND_NET, f"x: {i}\ny: 1\n") for i in range(2)]
    select = ["--select", "x"] if prop == "dpa" else []
    lines = (tmp_path / "t0.csv").read_text().splitlines()
    lineno = lines.index("# signal o proto=4ph arity=2 wires=o.0,o.1") + 1
    lines[lineno - 1] = f"# signal o {declared}"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check", str(bad), paths[1], "--property", prop, *select]) == 2
    assert capsys.readouterr().err == f"error: {bad}: line {lineno}: {message}\n"



@pytest.mark.parametrize("prop", sorted(PROPERTIES))
@pytest.mark.parametrize("edit, message", [
    ("proto", "gate 'g' declares proto=ledr but its signals are 4ph"),
    ("twice", "gate 'g' declared twice"),
], ids=["proto-other-than-its-signals", "gate-twice"])
def test_check_gate_breaking_a_gate_rule_exits_2(tmp_path, capsys, prop, edit, message):
    # A `# gate` line keeps the per-gate rules of netlists and bitstreams:
    # read as a LEDR gate, the 4ph AND would be judged by the phase rule.
    paths = [_sim_trace(tmp_path, f"t{i}", AND_NET, f"x: {i}\ny: 1\n") for i in range(2)]
    select = ["--select", "x"] if prop == "dpa" else []
    lines = (tmp_path / "t0.csv").read_text().splitlines()
    lineno = next(i for i, ln in enumerate(lines, 1) if ln.startswith("# gate g "))
    if edit == "proto":
        lines[lineno - 1] = lines[lineno - 1].replace("proto=4ph", "proto=ledr")
    else:
        lines.insert(lineno, lines[lineno - 1])
        lineno += 1
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check", str(bad), paths[1], "--property", prop, *select]) == 2
    assert capsys.readouterr().err == f"error: {bad}: line {lineno}: {message}\n"


@pytest.mark.parametrize("prop", sorted(PROPERTIES))
def test_check_gate_less_trace_is_valid(tmp_path, prop):
    paths = [_sim_trace(tmp_path, f"t{i}", AND_NET, f"x: {i}\ny: 1\n") for i in range(2)]
    select = ["--select", "x"] if prop == "dpa" else []
    for path in paths:
        with open(path) as f:
            lines = [ln for ln in f if not ln.startswith("# gate ")]
        with open(path, "w") as f:
            f.writelines(lines)
    assert main(["check", *paths, "--property", prop, *select]) == 0



@functools.lru_cache(maxsize=None)
def _golden_bitstream(design):
    """A golden design's bitstream lines and the first four values of its
    golden stimulus, as a stimulus file."""
    net, stim = golden_stimulus(design)
    bits = write_bitstream(fabric_from_netlist(net))
    return tuple(bits.splitlines()), "".join(
        f"{s}: {','.join(map(str, vs[:4]))}\n" for s, vs in stim.items())


# Words a key or a tag may be renamed to: the format's own and one unknown.
_BITSTREAM_KEYS = ["signal", "gate", "plb", "internal", "proto", "arity", "in", "out",
                   "sout", "ack", "role", "main", "4ph", "ledr", "edge", "-", "zz"]


def _mutated_line(draw, line: str, separators: str, keys) -> str:
    """``line`` with one token (a run of characters between whitespace and
    ``separators``) dropped, duplicated, swapped with another or renamed to
    one of ``keys``, or one character of a digit or a hex digit changed."""
    parts = re.split(f"([\\s{separators}])", line)  # tokens at even positions
    i = 2 * draw(st.integers(0, len(parts) // 2))
    kind = draw(st.sampled_from(["drop", "duplicate", "swap", "char", "key"]))
    if kind == "drop":
        del parts[max(i - 1, 0):i + 1]
    elif kind == "duplicate":
        parts[i:i] = [parts[i], parts[i - 1] if i else " "]
    elif kind == "swap":
        j = 2 * draw(st.integers(0, len(parts) // 2))
        parts[i], parts[j] = parts[j], parts[i]
    elif kind == "key":
        parts[i] = draw(st.sampled_from(keys))
    line = "".join(parts)
    hexes = [k for k, c in enumerate(line) if c in "0123456789abcdef"]
    if kind == "char" and hexes:
        k = draw(st.sampled_from(hexes))
        line = line[:k] + draw(st.sampled_from("0123456789abcdefF-+_ x\u0663")) + line[k + 1:]
    return line


@st.composite
def mutated_bitstreams(draw):
    """A golden design's bitstream with one line mutated (``_mutated_line``,
    tokens split at ``,``, ``;``, ``:`` and ``=`` too)."""
    design = draw(st.sampled_from(sorted(GOLDEN_DESIGNS)))
    lines, stim = _golden_bitstream(design)
    lines = list(lines)
    at = draw(st.integers(0, len(lines) - 1))
    lines[at] = _mutated_line(draw, lines[at], ",;:=", _BITSTREAM_KEYS)
    return "\n".join(lines) + "\n", stim


def _run_main(*args):
    """``main(args)``'s exit code and everything it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = main(list(args))
    return rc, out.getvalue()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=mutated_bitstreams())
def test_mutated_golden_bitstream_sims_or_exits_2(tmp_path, case):
    # A mutated bitstream is simulated or refused naming a line: exit 0, 1
    # or 2, never a traceback.
    text, stim = case
    bit, stim_path = tmp_path / "mutated.bit", tmp_path / "in.stim"
    bit.write_text(text)
    stim_path.write_text(stim)
    rc, out = _run_main("sim", str(bit), "--stimulus", str(stim_path))
    assert rc in (0, 1, 2), (rc, out)
    if rc == 2:
        assert re.match(f"error: {re.escape(str(bit))}: line \\d+: ", out), out


# Words a netlist or stimulus token may be renamed to: the formats' own and
# one unknown.
_NETLIST_KEYS = ["signal", "gate", "proto", "arity", "fn", "in", "out", "ack", "4ph", "ledr",
                 "edge", "x", "o", "zz"]


@st.composite
def mutated_designs(draw):
    """A golden design's netlist and stimulus (its first four values per
    input), one line of one of them mutated (``_mutated_line``, tokens
    split at ``,``, ``:`` and ``=`` too)."""
    design = draw(st.sampled_from(sorted(GOLDEN_DESIGNS)))
    texts = [GOLDEN_DESIGNS[design], _golden_bitstream(design)[1]]
    k = draw(st.integers(0, 1))
    lines = texts[k].splitlines()
    at = draw(st.integers(0, len(lines) - 1))
    lines[at] = _mutated_line(draw, lines[at], ",:=", _NETLIST_KEYS)
    texts[k] = "\n".join(lines) + "\n"
    return texts


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=mutated_designs())
def test_mutated_golden_netlist_and_stimulus_map_and_sim_or_exit_2(tmp_path, case):
    # map exits 0 or 2 and sim 0, 1 or 2 on a mutated netlist or stimulus;
    # neither raises.
    net, stim = tmp_path / "mutated.net", tmp_path / "mutated.stim"
    net.write_text(case[0])
    stim.write_text(case[1])
    bit = tmp_path / "mutated.bit"
    rc, out = _run_main("map", str(net), "-o", str(bit))
    assert rc in (0, 2), (rc, out)
    if rc == 0:
        rc, out = _run_main("sim", str(bit), "--stimulus", str(stim))
        assert rc in (0, 1, 2), (rc, out)
