import itertools

import pytest

from qdifab.encodings import (
    MAX_ARITY,
    CodeKind,
    EncodingError,
    Protocol,
    SignalSpec,
    decode_4ph,
    edge_next,
    encode_4ph,
    encode_4ph_null,
    ledr_next,
    signal_parity,
)

from . import _oracles


def test_encode_4ph_binary():
    assert encode_4ph(0, 2) == (1, 0)
    assert encode_4ph(1, 2) == (0, 1)
    assert encode_4ph_null(2) == (0, 0)


def test_encode_4ph_ternary_one_hot():
    assert encode_4ph(2, 3) == (0, 0, 1)


def test_encode_4ph_out_of_range():
    with pytest.raises(EncodingError):
        encode_4ph(2, 2)


def test_decode_4ph():
    assert decode_4ph((0, 1)).value == 1
    assert decode_4ph((0, 0)).kind is CodeKind.NULL
    assert decode_4ph((1, 1)).kind is CodeKind.FORBIDDEN


def _same_code(got, want):
    """Equal codes whose wires are plain ints, as the oracle's are
    (``(True, False) == (1, 0)``, so equality alone would not tell)."""
    return got == want and all(type(b) is int for b in got.wires)


def test_decode_4ph_table_matches_oracle_exhaustively():
    for n in range(1, MAX_ARITY + 1):
        for bits in itertools.product((0, 1), repeat=n):
            for wires in (bits, list(bits), tuple(map(bool, bits)), list(map(bool, bits))):
                assert _same_code(decode_4ph(wires), _oracles.decode_4ph(wires)), wires
            # A 0/1 pattern decodes to one shared instance.
            assert decode_4ph(bits) is decode_4ph(list(bits))
    # Outside the table: other ints, longer patterns, other element types.
    for wires in [(2, 0), (-1, 1), (0, 3, 0), (1, -1, 1), (5,), (0,) * (MAX_ARITY + 1),
                  (0, 1) + (0,) * MAX_ARITY, (1, 1) * MAX_ARITY, (), [],
                  ("0", "1"), (1.0, 0.0), (0.5, 1)]:
        assert _same_code(decode_4ph(wires), _oracles.decode_4ph(wires)), wires
    assert decode_4ph(iter((0, 1))) == _oracles.decode_4ph((0, 1))


def test_decode_encode_roundtrip():
    for n in range(2, 5):
        for v in range(n):
            code = decode_4ph(encode_4ph(v, n))
            assert code.kind is CodeKind.VALID and code.value == v


def test_ledr_next():
    assert ledr_next((0, 0), 1) == (1, 0)
    assert ledr_next((1, 0), 1) == (1, 1)
    assert ledr_next((1, 1), 0) == (0, 1)


def test_edge_next():
    assert edge_next((0, 0), 1) == (0, 1)
    assert edge_next((0, 1), 1) == (0, 0)
    first = edge_next((0, 0), 0)
    assert first == (1, 0)
    assert edge_next(first, 0) == (0, 0)


def test_edge_next_out_of_range():
    with pytest.raises(EncodingError):
        edge_next((0, 0), 2)


def test_signal_parity():
    assert signal_parity((0, 0)) == 0
    assert signal_parity((1, 0)) == 1
    assert signal_parity((1, 1)) == 0
    assert signal_parity((1, 1, 0, 0)) == 0


def test_single_wire_change_everywhere():
    # Any transmitted value changes exactly one wire, whatever the state.
    for state in itertools.product((0, 1), repeat=2):
        for v in (0, 1):
            nxt = ledr_next(state, v)
            assert sum(a != b for a, b in zip(state, nxt)) == 1
            assert nxt[0] == v
    for n in (2, 3, 4):
        for state in itertools.product((0, 1), repeat=n):
            for v in range(n):
                nxt = edge_next(state, v)
                assert sum(a != b for a, b in zip(state, nxt)) == 1
    for n in (2, 3, 4):
        for v in range(n):
            null = encode_4ph_null(n)
            hot = encode_4ph(v, n)
            assert sum(a != b for a, b in zip(null, hot)) == 1


def test_parity_toggles_with_each_value():
    state = (0, 0)
    for v in (0, 1, 1, 0, 1):
        nxt = ledr_next(state, v)
        assert signal_parity(nxt) == signal_parity(state) ^ 1
        state = nxt
    state = (0, 0, 0)
    for v in (0, 2, 2, 1):
        nxt = edge_next(state, v)
        assert signal_parity(nxt) == signal_parity(state) ^ 1
        state = nxt


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
    with pytest.raises(EncodingError):
        SignalSpec("x", Protocol.LEDR, 3)
    with pytest.raises(EncodingError):
        SignalSpec("x", Protocol.FOUR_PHASE, 5)
