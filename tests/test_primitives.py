import itertools

from qdifab.encodings import signal_parity
from qdifab.plb import LutTable, PlbConfig, PlbState, ack_outputs, c_element

from ._oracles import c_element_mux


def test_c_element_basic():
    assert c_element(0, 2, 2) == 1  # (1, 1)
    assert c_element(1, 1, 2) == 1  # (1, 0)
    assert c_element(1, 0, 2) == 0  # (0, 0)


def test_c_element_matches_mux_form():
    # Both realisations agree over every (previous, inputs) combination.
    for p in range(1, 7):
        for prev in (0, 1):
            for ins in itertools.product((0, 1), repeat=p):
                assert c_element(prev, sum(ins), p) == c_element_mux(prev, ins)


def test_c_element_no_glitch_within_half_cycle():
    # Monotone input raises: output changes at most once.
    for p in range(1, 7):
        for order in itertools.permutations(range(p)):
            ins = [0] * p
            out = changes = 0
            for i in order:
                ins[i] = 1
                new = c_element(out, sum(ins), p)
                if new != out:
                    changes += 1
                out = new
            assert changes == 1
            assert out == 1


def test_ack_xor():
    # The acknowledge XOR is encodings.signal_parity; the block's ack
    # outputs take it over each memory pair, or over all four when grouped.
    assert signal_parity((0, 0)) == 0
    assert signal_parity((0, 1)) == 1
    assert signal_parity((1, 1, 0, 0)) == 0
    luts = (LutTable.zero(),) * 4
    state = PlbState(mem_out=(0, 1, 1, 1))
    assert ack_outputs(PlbConfig(luts=luts), state) == (1, 0)
    assert ack_outputs(PlbConfig(luts=luts, combine_sel=True), state) == (1, 0)
    state = PlbState(mem_out=(1, 1, 0, 1))
    assert ack_outputs(PlbConfig(luts=luts), state) == (0, 1)
    assert ack_outputs(PlbConfig(luts=luts, combine_sel=True), state) == (1, 0)


def test_or_equals_xor_on_one_hot_domain():
    # On the reachable four-phase patterns (all-zero or one-hot) the
    # acknowledge XOR and an inclusive OR agree.
    for width in range(1, 5):
        vectors = [(0,) * width] + [
            tuple(1 if i == v else 0 for i in range(width)) for v in range(width)
        ]
        for vec in vectors:
            assert signal_parity(vec) == (1 if any(vec) else 0)

