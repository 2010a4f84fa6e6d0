import dataclasses
import itertools
import re

import pytest

from qdifab.encodings import (
    MAX_ARITY,
    CodeKind,
    EncodingError,
    Protocol,
    SignalSpec,
    decode_4ph,
    send_wire,
    signal_parity,
)

from . import _oracles
from ._util import sent


def test_decode_4ph():
    assert decode_4ph((0, 1)).value == 1
    assert decode_4ph((0, 0)).kind is CodeKind.NULL
    assert decode_4ph((1, 1)).kind is CodeKind.FORBIDDEN


def test_decode_4ph_table_matches_oracle_exhaustively():
    for n in range(MAX_ARITY + 1):
        for bits in itertools.product((0, 1), repeat=n):
            for wires in (bits, list(bits), tuple(map(bool, bits)), iter(bits)):
                assert decode_4ph(wires) == _oracles.decode_4ph(bits), wires
            # A 0/1 pattern decodes to one shared, frozen instance.
            assert decode_4ph(bits) is decode_4ph(list(bits))
    with pytest.raises(dataclasses.FrozenInstanceError):
        decode_4ph((0, 1)).value = 0


@pytest.mark.parametrize("wires", [
    (2, 0), (-1, 1), (0, 3, 0), (5,), (0,) * (MAX_ARITY + 1), (1,) + (0,) * MAX_ARITY,
    ("0", "1"), (0.5, 1), [None, 1],
])
def test_decode_4ph_refuses_a_pattern_outside_its_table(wires):
    message = f"wire pattern {tuple(wires)} is not 0/1 on up to {MAX_ARITY} wires"
    with pytest.raises(EncodingError, match=f"^{re.escape(message)}$"):
        decode_4ph(wires)


# Named examples of the send rule, one protocol each; the property test
# below covers every state.


def test_encode_4ph_binary():
    assert sent(Protocol.FOUR_PHASE, (0, 0), 0) == (1, 0)
    assert sent(Protocol.FOUR_PHASE, (0, 0), 1) == (0, 1)


def test_encode_4ph_ternary_one_hot():
    assert sent(Protocol.FOUR_PHASE, (0, 0, 0), 2) == (0, 0, 1)


def test_decode_encode_roundtrip():
    for n in range(2, MAX_ARITY + 1):
        for v in range(n):
            code = decode_4ph(sent(Protocol.FOUR_PHASE, (0,) * n, v))
            assert code.kind is CodeKind.VALID and code.value == v


def test_ledr_next():
    assert sent(Protocol.LEDR, (0, 0), 1) == (1, 0)
    assert sent(Protocol.LEDR, (1, 0), 1) == (1, 1)
    assert sent(Protocol.LEDR, (1, 1), 0) == (0, 1)


def test_edge_next():
    assert sent(Protocol.EDGE, (0, 0), 1) == (0, 1)
    assert sent(Protocol.EDGE, (0, 1), 1) == (0, 0)
    assert sent(Protocol.EDGE, (1, 0, 0), 0) == (0, 0, 0)


def test_parity_toggles_with_each_value():
    for proto, levels, values in ((Protocol.LEDR, (0, 0), (0, 1, 1, 0, 1)),
                                  (Protocol.EDGE, (0, 0, 0), (0, 2, 2, 1))):
        for v in values:
            nxt = sent(proto, levels, v)
            assert signal_parity(nxt) == signal_parity(levels) ^ 1
            levels = nxt


def test_single_wire_change_everywhere():
    # Every protocol, arity, level state and value.
    for proto in Protocol:
        for arity in (2,) if proto is Protocol.LEDR else range(2, MAX_ARITY + 1):
            n = SignalSpec("s", proto, arity).wire_count
            for levels in itertools.product((0, 1), repeat=n):
                for v in range(arity):
                    after = sent(proto, levels, v)
                    assert sum(a != b for a, b in zip(levels, after)) == 1
                    assert signal_parity(after) == signal_parity(levels) ^ 1
                    if proto is Protocol.LEDR:
                        # The data wire ends at the value; a repeat toggles the repeat wire.
                        assert after[0] == v
                        assert send_wire(proto)(levels, v) == int(levels[0] == v)
                    else:
                        # Edge toggles wire v; 4ph from NULL gives the one-hot code of v.
                        assert send_wire(proto)(levels, v) == v
                        if proto is Protocol.FOUR_PHASE and not any(levels):
                            assert decode_4ph(after) == _oracles.decode_4ph(after)
                            assert decode_4ph(after).value == v
                            assert after == tuple(int(i == v) for i in range(n))


def test_signal_parity():
    assert signal_parity((0, 0)) == 0
    assert signal_parity((1, 0)) == 1
    assert signal_parity((1, 1)) == 0
    assert signal_parity((1, 1, 0, 0)) == 0


def test_all_zero_reset_has_even_phase():
    for spec in (
        SignalSpec("a", Protocol.FOUR_PHASE, 2),
        SignalSpec("b", Protocol.LEDR, 2),
        SignalSpec("c", Protocol.EDGE, 3),
    ):
        assert signal_parity((0,) * spec.wire_count) == 0


def test_signal_spec_invariants():
    assert SignalSpec("x", Protocol.FOUR_PHASE, 3).wire_count == 3
    assert SignalSpec("x", Protocol.LEDR, 2).wire_count == 2
    for proto in (Protocol.FOUR_PHASE, Protocol.EDGE):
        assert SignalSpec("x", proto, MAX_ARITY).wire_names() == ("x.0", "x.1", "x.2", "x.3")
        for arity in (1, MAX_ARITY + 1):
            with pytest.raises(EncodingError):
                SignalSpec("x", proto, arity)
    with pytest.raises(EncodingError):
        SignalSpec("x", Protocol.LEDR, 3)
    spec = SignalSpec("x", Protocol.LEDR, 2)
    assert {spec: 1}[SignalSpec("x", Protocol.LEDR, 2)] == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.arity = 3
