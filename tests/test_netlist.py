import warnings

import pytest

from qdifab.bitstream import read_bitstream, write_bitstream
from qdifab.encodings import Protocol
from qdifab.mapper import SHAPES, MappingError
from qdifab.netlist import (
    NetlistError,
    gate_function,
    map_netlist,
    parse_netlist,
)
from qdifab.simulator import fabric_from_netlist


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
    assert net.primary_inputs() == fabric.primary_inputs() == ["a", "b", "c", "d"]
    assert net.primary_outputs() == fabric.primary_outputs() == ["q", "r"]


def test_parse_error_carries_line():
    with pytest.raises(NetlistError) as exc:
        parse_netlist("signal x proto=4ph arity=2\nwat x\n")
    assert "line 2" in str(exc.value)


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
    assert str(exc.value) == "gate 'wide': unsupported 4ph shape [3, 2, 2] -> 3"
    assert all(sum(arities) <= 6 for _, arities, _ in SHAPES)


def test_unsupported_shape_named():
    src = (
        "signal x proto=4ph arity=2\nsignal y proto=4ph arity=3\n"
        "signal o proto=4ph arity=2\ngate odd fn=0 in=x,y out=o\n"
    )
    with pytest.raises(MappingError) as exc:
        map_netlist(parse_netlist(src))
    assert str(exc.value) == "gate 'odd': unsupported 4ph shape [2, 3] -> 2"


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
    assert [g.name for g in net.gates] == ["g1", "g2"]
