import dataclasses
import warnings

import pytest

from qdifab.bitstream import read_bitstream, write_bitstream
from qdifab.encodings import Protocol
from qdifab.mapper import SHAPES, MappingError
from qdifab.netlist import (
    GateDecl,
    NetlistError,
    ack_source,
    gate_function,
    map_netlist,
    parse_netlist,
    primary_signals,
)
from qdifab.simulator import fabric_from_netlist, run


def test_parse_minimal():
    net = parse_netlist(
        "# a comment\n"
        "signal x proto=4ph arity=2\n"
        "signal y proto=4ph arity=2\n"
        "signal o proto=4ph arity=2\n"
        "gate g fn=8 in=x,y out=o\n"
    )
    assert set(net.signals) == {"x", "y", "o"}
    assert net.primary_inputs() == ["x", "y"]
    assert net.primary_outputs() == ["o"]
    assert net.gates == [GateDecl("g", 8, ("x", "y"), "o", 5)]
    with pytest.raises(dataclasses.FrozenInstanceError):
        net.gates[0].fn = 6


def test_unconnected_signal_rejected_naming_its_line():
    # Without the check, z would be both a primary input and a primary output.
    with pytest.raises(NetlistError, match=r"^line 3: signal 'z' connects to no gate$"):
        parse_netlist(
            "signal x proto=4ph arity=2\nsignal y proto=4ph arity=2\n"
            "signal z proto=4ph arity=2\nsignal o proto=4ph arity=2\n"
            "gate g fn=8 in=x,y out=o\n"
        )


def test_netlist_and_fabric_share_one_boundary():
    # b and p each feed two gates; q and r are read by no gate.
    net = parse_netlist(
        "".join(f"signal {n} proto=4ph arity=2\n" for n in "abcdpqr")
        + "gate g1 fn=6 in=a,b out=p\n"
        + "gate g2 fn=e8 in=p,b,c out=q\n"
        + "gate g3 fn=8 in=p,d out=r\n"
    )
    fabric = fabric_from_netlist(net)
    boundary = (["a", "b", "c", "d"], ["q", "r"])
    assert (net.primary_inputs(), net.primary_outputs()) == boundary
    for design in (net, fabric, run(fabric, dict.fromkeys("abcd", [1]))):
        assert primary_signals(design.signals, design.gates) == boundary


def test_parse_error_carries_line():
    with pytest.raises(NetlistError) as exc:
        parse_netlist("signal x proto=4ph arity=2\nwat x\n")
    assert "line 2" in str(exc.value)
    # An unknown directive also names its column.
    with pytest.raises(NetlistError) as exc:
        parse_netlist("signal x proto=4ph arity=2\n  wat x\n")
    assert str(exc.value) == "line 2, column 3: unknown directive 'wat'"


def test_ack_source_follows_the_readers():
    # The environment, one reader's acknowledge XOR, or the join of several.
    g, h = (GateDecl(n, 8, ("x", "y"), f"{n}o", 1) for n in "gh")
    assert ack_source("x", []) == "x.cack"
    assert ack_source("x", [g]) == "go.sout"
    assert ack_source("x", [g, h]) == ack_source("x", [g, g]) == "x.ackin"


def test_unknown_protocol_and_bad_arity():
    with pytest.raises(NetlistError):
        parse_netlist("signal x proto=sync arity=2\n")
    with pytest.raises(NetlistError):
        parse_netlist("signal x proto=4ph arity=five\n")
    with pytest.raises(NetlistError) as exc:
        parse_netlist("signal x proto=4ph arity=5\n")
    assert "arity" in str(exc.value)


def test_ledr_restricted_to_binary():
    with pytest.raises(NetlistError):
        parse_netlist("signal x proto=ledr arity=3\n")


def test_duplicate_signal_and_double_driver():
    with pytest.raises(NetlistError):
        parse_netlist(
            "signal x proto=4ph arity=2\nsignal x proto=4ph arity=2\n"
        )
    src = (
        "signal a proto=4ph arity=2\nsignal b proto=4ph arity=2\n"
        "signal o proto=4ph arity=2\n"
        "gate g1 fn=8 in=a,b out=o\ngate g2 fn=6 in=a,b out=o\n"
    )
    with pytest.raises(NetlistError) as exc:
        parse_netlist(src)
    assert "driven by both" in str(exc.value)


def test_duplicate_gate_name_rejected():
    # Its bitstream would file both blocks under one gate.
    src = (
        "".join(f"signal {n} proto=4ph arity=2\n" for n in "abst")
        + "gate g fn=6 in=a,b out=s\ngate g fn=8 in=a,b out=t\n"
    )
    with pytest.raises(NetlistError) as exc:
        parse_netlist(src)
    assert str(exc.value) == "line 6: gate 'g' declared twice"


def test_unknown_signal_reference():
    with pytest.raises(NetlistError) as exc:
        parse_netlist(
            "signal a proto=4ph arity=2\nsignal o proto=4ph arity=2\n"
            "gate g fn=8 in=a,zz out=o\n"
        )
    assert "zz" in str(exc.value)


def test_mixed_protocols_rejected():
    src = (
        "signal a proto=4ph arity=2\nsignal b proto=ledr arity=2\n"
        "signal o proto=4ph arity=2\ngate g fn=8 in=a,b out=o\n"
    )
    with pytest.raises(NetlistError) as exc:
        parse_netlist(src)
    assert "mixes protocols" in str(exc.value)


def test_combinational_cycle_rejected():
    src = (
        "signal a proto=4ph arity=2\nsignal m proto=4ph arity=2\n"
        "signal o proto=4ph arity=2\n"
        "gate g1 fn=8 in=a,o out=m\n"
        "gate g2 fn=6 in=m,a out=o\n"
    )
    with pytest.raises(NetlistError) as exc:
        parse_netlist(src)
    # Named at g2, the gate whose input closes the cycle.
    assert str(exc.value) == "line 5: combinational cycle through gate 'g2'"


def test_gate_function_binary_and_ternary():
    net = parse_netlist(
        "signal x proto=4ph arity=2\nsignal y proto=4ph arity=2\n"
        "signal o proto=4ph arity=2\ngate g fn=8 in=x,y out=o\n"
    )
    f = gate_function(net.gates[0], net)
    assert [f(x, y) for y in range(2) for x in range(2)] == [0, 0, 0, 1]

    fn = sum(min(x, y) << (2 * (x + 3 * y)) for x in range(3) for y in range(3))
    net3 = parse_netlist(
        f"signal x proto=4ph arity=3\nsignal y proto=4ph arity=3\n"
        f"signal o proto=4ph arity=3\ngate g fn={fn:x} in=x,y out=o\n"
    )
    g = gate_function(net3.gates[0], net3)
    assert g(2, 1) == 1 and g(2, 2) == 2 and g(0, 2) == 0


def test_budget_error_names_gate():
    # A one-of-3 input and two dual-rail inputs need 7 wires; no shape
    # accepts them, and every shape's inputs fit the block's 6.
    src = (
        "signal x proto=4ph arity=3\nsignal y proto=4ph arity=2\n"
        "signal z proto=4ph arity=2\nsignal o proto=4ph arity=3\n"
        "gate wide fn=0 in=x,y,z out=o\n"
    )
    net = parse_netlist(src)
    with pytest.raises(MappingError) as exc:
        map_netlist(net)
    assert str(exc.value) == "line 5: gate 'wide': unsupported 4ph shape [3, 2, 2] -> 3"
    assert all(sum(arities) <= 6 for _, arities, _ in SHAPES)


def test_unsupported_shape_named():
    src = (
        "signal x proto=4ph arity=2\nsignal y proto=4ph arity=3\n"
        "signal o proto=4ph arity=2\ngate odd fn=0 in=x,y out=o\n"
    )
    with pytest.raises(MappingError) as exc:
        map_netlist(parse_netlist(src))
    assert str(exc.value) == "line 4: gate 'odd': unsupported 4ph shape [2, 3] -> 2"


def _shape_id(key) -> str:
    return f"{key[0].value}-{'x'.join(map(str, key[1]))}-{key[2]}"


def _one_gate_netlist(key, fn: int = 1, token: str = "") -> str:
    proto, arities, out_arity = key
    names = [f"i{k}" for k in range(len(arities))]
    src = "".join(f"signal {n} proto={proto.value} arity={a}\n"
                  for n, a in zip(names, arities))
    src += f"signal o proto={proto.value} arity={out_arity}\n"
    return src + f"gate g fn={fn:x} in={','.join(names)} out=o{token}\n"


@pytest.mark.parametrize("key", list(SHAPES), ids=_shape_id)
def test_every_shape_maps_and_round_trips(key):
    text = write_bitstream(fabric_from_netlist(parse_netlist(_one_gate_netlist(key))))
    assert write_bitstream(read_bitstream(text)) == text


# The shapes with no wire left for the consumer's acknowledge.
NO_ACK_SHAPES = {(Protocol.FOUR_PHASE, (2, 2, 2), 2), (Protocol.FOUR_PHASE, (3, 3), 3)}


@pytest.mark.parametrize("key", list(SHAPES), ids=_shape_id)
def test_legacy_ack_token_keeps_the_bitstream(key):
    # An AND-like table (fn=8) with and without the old flag: one mapping,
    # one fingerprint, and `ack=` records whether the block reads o.ackin.
    with pytest.warns(DeprecationWarning, match="'ack' gate token is ignored"):
        legacy = fabric_from_netlist(parse_netlist(_one_gate_netlist(key, 8, " ack")))
    fabric = fabric_from_netlist(parse_netlist(_one_gate_netlist(key, 8)))
    assert write_bitstream(legacy) == write_bitstream(fabric)
    assert legacy.fingerprint() == fabric.fingerprint()
    assert fabric.gates[0].ack == (key not in NO_ACK_SHAPES)


def test_legacy_ack_token_warns_once_per_netlist():
    src = (
        "".join(f"signal {n} proto=4ph arity=2\n" for n in "abst")
        + "gate g1 fn=6 in=a,b out=s ack\ngate g2 fn=8 in=a,b out=t ack\n"
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        net = parse_netlist(src)
    assert [w.category for w in caught] == [DeprecationWarning]
    assert str(caught[0].message).startswith("line 5: ")  # the first of the two
    assert [g.name for g in net.gates] == ["g1", "g2"]


def test_legacy_ack_token_right_after_the_gate_name_warns():
    src = (
        "".join(f"signal {n} proto=4ph arity=2\n" for n in "abst")
        + "gate g1 fn=6 in=a,b out=s\ngate g2 ack fn=8 in=a,b out=t\n"
    )
    with pytest.warns(DeprecationWarning, match="^line 6: the 'ack' gate token is ignored") as rec:
        net = parse_netlist(src)
    assert net.gates[1] == GateDecl("g2", 8, ("a", "b"), "t", 6)
    # The warning is attributed to the caller of parse_netlist, here this file.
    assert rec[0].filename == __file__


@pytest.mark.parametrize("tail, message", [
    ("fn=8 in=x,y zz=1", "gate needs in=<sig,...> and out=<sig>"),
    ("fn=8 out=o zz=1", "gate needs in=<sig,...> and out=<sig>"),
    ("in=x,y out=o zz=1", "gate needs fn=<hex>"),
    ("fn=8 in=x,y", "gate needs a name, fn=, in= and out="),
], ids=["no-out", "no-in", "no-fn", "too-few-fields"])
def test_gate_without_its_fields_rejected(tail, message):
    with pytest.raises(NetlistError) as exc:
        parse_netlist(_BINARY_AND + f"gate g {tail}\n")
    assert str(exc.value) == f"line 4: {message}"


_BINARY_AND = "".join(f"signal {s} proto=4ph arity=2\n" for s in "xyo")


@pytest.mark.parametrize("tail, message", [
    ("fn=-8 in=x,y out=o", "fn '-8' is not ASCII hex digits"),
    ("fn=0x8 in=x,y out=o", "fn '0x8' is not ASCII hex digits"),
    ("fn=+8 in=x,y out=o", "fn '+8' is not ASCII hex digits"),
    ("fn=\u0668 in=x,y out=o", "fn '\u0668' is not ASCII hex digits"),
    ("fn= in=x,y out=o", "fn '' is not ASCII hex digits"),
    ("fn=1f8 in=x,y out=o", "gate 'g': fn=1f8 sets bits past its 4-entry table"),
    ("fn=10 in=x,y out=o", "gate 'g': fn=10 sets bits past its 4-entry table"),
    ("fn=8 in=x,y out=o fn=6", "fn= given twice"),
    ("fn=8 in=x,y in=y,x out=o", "in= given twice"),
], ids=["sign", "hex-prefix", "plus", "non-ascii", "empty", "bits-past-table",
        "bit-4", "fn-twice", "in-twice"])
def test_gate_table_other_than_its_hex_digits_rejected(tail, message):
    # Each of these once mapped as fn=8 or fn=6: int(fn, 16) took the sign
    # and the prefix, the block read only the table's own bits, and the
    # last key given won.
    with pytest.raises(NetlistError) as exc:
        parse_netlist(_BINARY_AND + f"gate g {tail}\n")
    assert str(exc.value) == f"line 4: {message}"


@pytest.mark.parametrize("fn, message", [
    (0x12267, "gate 'g': fn entry 0 is 3, outside 0..2"),
    (0x3 << 16, "gate 'g': fn entry 8 is 3, outside 0..2"),
    (1 << 18, "gate 'g': fn=40000 sets bits past its 9-entry table"),
], ids=["first-entry-3", "last-entry-3", "bits-past-table"])
def test_ternary_table_entry_outside_the_output_rejected(fn, message):
    src = "".join(f"signal {s} proto=4ph arity=3\n" for s in "tuv")
    with pytest.raises(NetlistError) as exc:
        parse_netlist(src + f"gate g fn={fn:x} in=t,u out=v\n")
    assert str(exc.value) == f"line 4: {message}"


def test_quaternary_table_takes_every_entry():
    src = "".join(f"signal {s} proto=4ph arity=4\n" for s in "tv")
    assert parse_netlist(src + "gate g fn=e4 in=t out=v\n").gates[0].fn == 0xE4


def test_signal_arity_error_states_the_integer_rule():
    with pytest.raises(NetlistError) as exc:
        parse_netlist("signal x proto=4ph arity=+2\n")
    assert str(exc.value) == "line 1: arity '+2' is not an integer of 0 or more"


@pytest.mark.parametrize("arity", ["\u0662", "+2", "2 arity=3"])
def test_signal_arity_other_than_ascii_digits_rejected(arity):
    with pytest.raises(NetlistError) as exc:
        parse_netlist(f"signal x proto=4ph arity={arity}\n")
    assert str(exc.value).startswith("line 1: arity")
