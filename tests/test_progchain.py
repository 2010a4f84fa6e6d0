import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdifab.progchain import (
    Block,
    ProgrammingError,
    drain_block,
    load_block,
    reconfigure_block,
)

from . import _oracles


def test_load_fills_all_stages_and_reads_back():
    block = Block(8)
    bits = [1, 0, 1, 1, 0, 0, 1, 0]
    load_block(block, bits)
    assert block.configured
    assert all(s is not None for s in block.stages)
    assert _oracles.stored_bits(block) == tuple(bits)
    assert drain_block(block) == tuple(bits)


def test_zero_bits_leaves_unconfigured():
    block = Block(4)
    load_block(block, [])
    assert not block.configured
    assert _oracles.stored_bits(block) == ()


def test_overflow_rejected():
    with pytest.raises(ProgrammingError):
        load_block(Block(8), [1] * 9)


def test_load_requires_drained_chain():
    block = load_block(Block(4), [1, 0])
    with pytest.raises(ProgrammingError):
        load_block(block, [1])


def test_fifo_order_exhaustive_short_sequences():
    for n in range(0, 9):
        for bits in itertools.product((0, 1), repeat=n):
            block = Block(8)
            load_block(block, list(bits))
            assert _oracles.stored_bits(block) == bits
            assert drain_block(block) == bits


def test_fifo_order_randomized_long_sequences():
    rng = random.Random(20080131)
    for _ in range(1000):
        length = rng.randint(9, 64)
        block = Block(length)
        bits = [rng.randint(0, 1) for _ in range(rng.randint(0, length))]
        load_block(block, bits)
        assert drain_block(block) == tuple(bits)


def test_dual_rail_view_is_one_hot():
    block = load_block(Block(4), [1, 0, 1])
    for rails, bit in zip(_oracles.rails(block), block.stages):
        if bit is None:
            assert rails == (0, 0)
        else:
            assert rails == ((0, 1) if bit else (1, 0))


def test_reconfigure_inverted_bits():
    bits = [1, 0, 1, 1, 0]
    block = load_block(Block(8), bits)
    log = reconfigure_block(block, [b ^ 1 for b in bits])
    assert log.drained == tuple(bits)
    assert _oracles.stored_bits(block) == tuple(b ^ 1 for b in bits)
    assert log.outputs_zero_every_tick


def test_reconfigure_same_bits_idempotent():
    bits = [0, 1, 1, 0]
    block = load_block(Block(6), bits)
    before = _oracles.snapshot(block)
    reconfigure_block(block, bits)
    assert _oracles.snapshot(block) == before
    assert block.configured


def test_drain_without_reload_leaves_block_dark():
    block = load_block(Block(4), [1, 1, 0])
    log = reconfigure_block(block, [])
    assert log.drained == (1, 1, 0)
    assert not block.configured


def test_reconfigure_requires_configured_block():
    with pytest.raises(ProgrammingError):
        reconfigure_block(Block(4), [1])


def test_outputs_zero_during_whole_operation():
    block = load_block(Block(8), [1] * 8)
    log = reconfigure_block(block, [0] * 8)
    assert log.ticks > 0
    assert log.outputs_zero_every_tick


def test_partial_reconfiguration_isolation():
    a = load_block(Block(8), [1, 0, 1, 0, 1, 0, 1, 0])
    b = load_block(Block(8), [0, 0, 1, 1, 0, 0, 1, 1])
    before_b = _oracles.snapshot(b)
    reconfigure_block(a, [1] * 8)
    assert _oracles.snapshot(b) == before_b
    assert _oracles.stored_bits(b) == (0, 0, 1, 1, 0, 0, 1, 1)
    before_a = _oracles.snapshot(a)
    reconfigure_block(b, [1, 1, 1, 0, 0, 0, 1, 1])
    assert _oracles.snapshot(a) == before_a


@pytest.mark.parametrize("bits, position, shown", [
    ([1, None, 0], 1, "None"),
    ([0, 1, 2], 2, "2"),
    ([-1], 0, "-1"),
    ([1, True], 1, "True"),
])
def test_bit_other_than_0_or_1_rejected(bits, position, shown):
    with pytest.raises(ProgrammingError, match=f"bit {position} is {shown};"):
        load_block(Block(4), bits)
    block = load_block(Block(4), [1, 0, 1])
    before = _oracles.snapshot(block)
    with pytest.raises(ProgrammingError, match=f"bit {position} is {shown};"):
        reconfigure_block(block, bits)
    # A refused reconfiguration leaves the block as it was.
    assert _oracles.snapshot(block) == before and block.configured


def test_full_chain_reconfigure_takes_2L_plus_1_ticks():
    rng = random.Random(2216)
    bits = [rng.randint(0, 1) for _ in range(2216)]
    block = load_block(Block(len(bits)), bits)
    new = [b ^ 1 for b in bits]
    log = reconfigure_block(block, new)
    assert log.ticks == 2 * len(bits) + 1
    assert log.drained == tuple(bits)
    assert _oracles.stored_bits(block) == tuple(new)


def test_gapped_chain_reconfigure_drains_from_the_head_most_bit():
    # The filled stage nearest the head is stage 1, so the drain takes
    # 8 - 1 = 7 ticks; three new bits and the settle add 3 + 1.
    stages = (None, 1, None, None, 0, None, None, 1)
    block = Block(8, stages=list(stages))
    ref = Block(8, stages=list(stages))
    log = reconfigure_block(block, [0, 1, 1])
    assert log.drained == (1, 0, 1)
    assert log.ticks == 11
    assert log == _oracles.chain_reconfigure_block(ref, [0, 1, 1])
    assert _oracles.snapshot(block) == _oracles.snapshot(ref) == (None,) * 5 + (1, 1, 0)


# -- the closed-form chain against the stage-by-stage oracle --------------------

OPS = {
    "load": (load_block, _oracles.chain_load_block),
    "drain": (drain_block, _oracles.chain_drain_block),
    "reconfigure": (reconfigure_block, _oracles.chain_reconfigure_block),
}


@st.composite
def chains(draw):
    """A block in any state: a random length, and either an empty chain or
    a random stage pattern."""
    length = draw(st.integers(min_value=0, max_value=24))
    stage = st.sampled_from([None, 0, 1])
    stages = draw(st.one_of(
        st.just([None] * length),
        st.lists(stage, min_size=length, max_size=length),
    ))
    return length, stages


def _apply(fn, block, op, bits):
    try:
        result = fn(block, bits) if op != "drain" else fn(block)
    except ProgrammingError as exc:
        result = ("ProgrammingError", str(exc))
    if result is block:
        result = "the block"
    return result, _oracles.snapshot(block), block.configured


@settings(max_examples=400, deadline=None)
@given(chains(), st.lists(st.tuples(
    st.sampled_from(sorted(OPS)),
    st.lists(st.integers(min_value=0, max_value=1), max_size=28),
), min_size=1, max_size=4))
def test_chain_matches_stage_by_stage_oracle(chain, ops):
    length, stages = chain
    new = Block(length, stages=list(stages))
    old = Block(length, stages=list(stages))
    for op, bits in ops:
        fn, oracle = OPS[op]
        # Results (stored or drained bits, ticks, whether outputs read 0 on
        # every tick, or the error) and the block afterwards all agree.
        assert _apply(fn, new, op, bits) == _apply(oracle, old, op, bits)
