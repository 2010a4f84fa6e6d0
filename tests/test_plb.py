import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from qdifab.mapper import SHAPES, map_4ph_2in, map_ledr_2in
from qdifab.plb import (
    LutTable,
    OscillationError,
    PlbConfig,
    PlbState,
    WireRef,
    ack_outputs,
    plb_reset,
    plb_step,
    program_rules,
    validate_config,
)
from . import _oracles
from ._util import lut_eval, one_hot, step_unit

AND2 = lambda x, y: x & y
XOR2 = lambda x, y: x ^ y


def test_lut_eval_all_zero_table():
    t = LutTable.zero()
    for combo in itertools.product((0, 1), repeat=6):
        assert lut_eval(t, combo) == 0


def test_lut_eval_identity_on_i0():
    t = LutTable.from_function(lambda *p: p[0])
    assert lut_eval(t, (1, 0, 0, 0, 0, 0)) == 1
    assert lut_eval(t, (0, 1, 1, 1, 1, 1)) == 0


def test_lut_eval_and_of_i4_i5():
    # Expected table built by independent enumeration.
    expected = 0
    for idx in range(64):
        if (idx >> 4) & 1 and (idx >> 5) & 1:
            expected |= 1 << idx
    t = LutTable.from_function(lambda *p: p[4] & p[5])
    assert t.bits == expected
    assert lut_eval(t, (0, 0, 0, 0, 1, 1)) == 1
    assert lut_eval(t, (1, 1, 1, 1, 1, 0)) == 0


def test_lut_table_wider_than_64_bits_is_refused():
    LutTable((1 << 64) - 1)
    with pytest.raises(ValueError, match="wider than 64 bits"):
        LutTable(1 << 64)


def test_block_values_are_hashable_and_immutable():
    # The kernel's memo and the benchmark's distinct-step count hash them.
    values = [LutTable(1), WireRef("x", 0, 2), PlbConfig(luts=(LutTable(1),) * 4), PlbState()]
    assert len(set(values)) == 4
    for v in values:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(v, dataclasses.fields(v)[0].name, None)


def test_config_of_tables_alone_has_every_point_off():
    luts = (LutTable(1),) * 4
    assert PlbConfig(luts=luts) == PlbConfig(
        luts=luts, feedback_sel=((False,) * 4,) * 4, mem_bypass=(False, False),
        or6_bypass_sel=(False, False), combine_sel=False)


def test_wire_ref_names_its_wire():
    # A one-wire signal (an acknowledge) goes by its bare name.
    assert str(WireRef("x", 1, 2)) == "x.1"
    assert str(WireRef("o.ackin", 0, 1)) == "o.ackin"


def test_plb_reset_quiescent_and_step_identity():
    unit = map_4ph_2in("g", AND2).plbs[0]
    st = plb_reset(unit.config)
    assert st.mem_out == (0, 0, 0, 0)
    again = plb_step(unit.config, st, (0,) * 12)
    assert again == st


def test_plb_4ph_and_fires_and_acks():
    unit = map_4ph_2in("g", AND2).plbs[0]
    st = plb_reset(unit.config)
    st = step_unit(
        unit, st,
        **{"x": one_hot(1, 2), "y": one_hot(1, 2), "ack": (0,)},
    )
    assert st.mem_out[:2] == (0, 1)
    assert ack_outputs(unit.config, st)[0] == 1
    # Inputs back to NULL with the acknowledge high: output clears.
    st = step_unit(
        unit, st,
        **{"x": (0, 0), "y": (0, 0), "ack": (1,)},
    )
    assert st.mem_out[:2] == (0, 0)
    assert ack_outputs(unit.config, st)[0] == 0


def test_plb_ledr_xor_phase_advance():
    unit = map_ledr_2in("g", XOR2).plbs[0]
    st = plb_reset(unit.config)
    # Both inputs at odd phase carrying (1, 1), acknowledge low, output even.
    st = step_unit(
        unit, st,
        **{"x": (1, 0), "y": (1, 0), "ack": (0,)},
    )
    od, orr = st.mem_out[0], st.mem_out[1]
    assert (od ^ orr) == 1  # output phase became odd
    assert od == 0  # xor(1, 1)


def test_memory_point_bypass_makes_it_transparent():
    # L0 reads 1 on an all-zero group, where the OR companion reads 0: a
    # bypassed memory point passes L0 through, an active one holds its 0.
    luts = (LutTable.from_function(lambda *p: 1 - p[0]),) + (LutTable.zero(),) * 3
    for bypass, out in ((True, 1), (False, 0)):
        cfg = PlbConfig(luts=luts, mem_bypass=(bypass, bypass))
        st = plb_step(cfg, PlbState(), (0,) * 12)
        assert st.mem_out == (out, 0, 0, 0)
        assert ack_outputs(cfg, st) == (out, 0)


def test_memory_point_latches_against_the_or_companion():
    # L0 = pin 0 and L1 = pin 2; pin 1 only lifts the OR companion, so O0
    # rises with L0, holds while the OR stays high and falls with the group.
    luts = (LutTable.from_function(lambda *p: p[0]), LutTable.from_function(lambda *p: p[2]),
            LutTable.zero(), LutTable.zero())
    cfg = PlbConfig(luts=luts)
    st = PlbState()
    for pins, out in (((1, 0, 0), (1, 0)), ((0, 1, 0), (1, 0)), ((0, 0, 0), (0, 0))):
        st = plb_step(cfg, st, pins + (0,) * 9)
        assert st.mem_out[:2] == out
        assert ack_outputs(cfg, st)[0] == out[0] ^ out[1]


def test_plb_reset_settles_from_zero_against_zero_inputs():
    # Self-holding LUTs keep the LUT outputs they start from, and
    # constant-1 LUTs keep the memory outputs they start from while their
    # group is quiet: both reset to all 0.
    hold = tuple(LutTable.from_function(lambda *p, k=k: p[k]) for k in range(4))
    fb = tuple(tuple(i == k for i in range(4)) for k in range(4))
    for cfg in (PlbConfig(luts=hold, feedback_sel=fb, mem_bypass=(True, True)),
                PlbConfig(luts=(LutTable((1 << 64) - 1),) * 4)):
        assert plb_reset(cfg).mem_out == (0, 0, 0, 0)


@pytest.mark.parametrize("pin, mem_out", [(0, (1, 0, 0, 0)), (6, (0, 0, 1, 0))])
def test_or_companion_reads_the_first_pin_of_its_group(pin, mem_out):
    # L0 and L2 read the first pin of their group; only that pin is high,
    # so only its group's OR companion lets its memory point rise.
    first = LutTable.from_function(lambda *p: p[0])
    cfg = PlbConfig(luts=(first, LutTable.zero(), first, LutTable.zero()))
    levels = [0] * 12
    levels[pin] = 1
    assert plb_step(cfg, PlbState(), levels).mem_out == mem_out


def test_plb_step_deterministic():
    unit = map_4ph_2in("g", XOR2).plbs[0]
    st = plb_reset(unit.config)
    ins = (0, 0, 1, 0, 0, 1) + (0,) * 6
    a = plb_step(unit.config, st, ins)
    b = plb_step(unit.config, st, ins)
    assert a == b
    with pytest.raises(ValueError, match="expected 12 network inputs, got 6"):
        plb_step(unit.config, st, ins[:6])


def test_plb_oscillation_diagnostic():
    # A LUT inverting its own feedback cannot settle.
    ring = PlbConfig(
        luts=(LutTable.from_function(lambda *p: 1 ^ p[0]),) + (LutTable.zero(),) * 3,
        feedback_sel=((True, False, False, False),) + ((False,) * 4,) * 3,
        mem_bypass=(True, True),
    )
    with pytest.raises(OscillationError):
        plb_reset(ring)
    assert program_rules(ring) == ["block oscillates in the all-zero reset state"]


def test_validate_config_accepts_mapped():
    for unit in (map_4ph_2in("g", AND2).plbs[0], map_ledr_2in("g", XOR2).plbs[0]):
        assert validate_config(unit.config, unit.input_map) == []


def test_validate_config_load_balance():
    # x.0 on three pins and x.1 on two, or x.1 on none: distinguishable
    # loads.
    for loads in ((3, 2), (1, 0)):
        pins = sum(((WireRef("x", i, 2),) * n for i, n in enumerate(loads)), ())
        pins += (None,) * (12 - len(pins))
        assert validate_config(PlbConfig(luts=(LutTable.zero(),) * 4), pins) == [
            f"signal x: unbalanced pin loads {list(loads)} across its wires"]


def test_validate_config_illegal_feedback_pin():
    # Pins 4 and 5 have no feedback point: a selection that names them is
    # refused, not cut to pins 0..3.
    sel = [(False,) * 4] * 4
    sel[2] = (False,) * 5 + (True,)
    cfg = PlbConfig(luts=(LutTable.zero(),) * 4, feedback_sel=tuple(sel))
    assert program_rules(cfg) == ["L2: feedback selection must cover pins 0..3"]


def test_validate_config_cross_mode_requires_memory():
    cfg = PlbConfig(
        luts=(LutTable.zero(),) * 4,
        mem_bypass=(True, True),
        or6_bypass_sel=(True, False),
    )
    diags = validate_config(cfg, (None,) * 12)
    assert any("requires its memory point active" in d for d in diags)


def test_cross_mode_pair_a_rule_reads_pair_a_memory_point():
    # Pair A's OR bypass needs memory point A active; B's may be bypassed.
    for mem_bypass, diags in (((True, False), ["or6 bypass on pair A requires its memory "
                                               "point active"]),
                              ((False, True), [])):
        cfg = PlbConfig(luts=(LutTable.zero(),) * 4, mem_bypass=mem_bypass,
                        or6_bypass_sel=(True, False))
        assert program_rules(cfg) == diags


def test_cross_mode_pair_b_rule_reads_pair_b_memory_point():
    # Pair B's OR bypass needs memory point B active; A's may be bypassed.
    for mem_bypass, diags in (((False, True), ["or6 bypass on pair B requires its memory "
                                               "point active"]),
                              ((True, False), [])):
        cfg = PlbConfig(luts=(LutTable.zero(),) * 4, mem_bypass=mem_bypass,
                        or6_bypass_sel=(False, True))
        assert program_rules(cfg) == diags


@pytest.mark.parametrize("consts, or6_bypass_sel, mem_out", [
    # Pair B's memory point latches L2 against L0 and L3 against L1; pair A
    # is parked.
    ((1, 0, 1, 1), (False, True), (0, 0, 1, 0)),
    # Pair A's memory point latches L0 against L2 and L1 against L3; pair B
    # is parked.
    ((1, 1, 1, 0), (True, False), (1, 0, 0, 0)),
])
def test_or6_bypass_pairs_each_lut_with_its_opposite(consts, or6_bypass_sel, mem_out):
    # Constant LUTs whose four outputs differ tell every companion apart.
    luts = tuple(LutTable((1 << 64) - 1 if c else 0) for c in consts)
    cfg = PlbConfig(luts=luts, or6_bypass_sel=or6_bypass_sel)
    st = plb_step(cfg, PlbState(), (0,) * 12)
    assert st.lut_out == consts
    assert st.mem_out == mem_out


def _reachable_env_states(f):
    """Breadth-first exploration of the block under a well-formed
    four-phase environment; yields every reached block state."""
    unit = map_4ph_2in("g", f).plbs[0]
    null = (0, 0)
    init = (null, null, 0, plb_reset(unit.config))
    seen = {repr(init)}
    frontier = [init]
    while frontier:
        x, y, ack, st = frontier.pop()
        yield st
        sout = ack_outputs(unit.config, st)[0]
        moves = []
        if x == null and sout == 0:
            moves += [("x", one_hot(v, 2)) for v in (0, 1)]
        if x != null and sout == 1:
            moves.append(("x", null))
        if y == null and sout == 0:
            moves += [("y", one_hot(v, 2)) for v in (0, 1)]
        if y != null and sout == 1:
            moves.append(("y", null))
        if ack == 0 and sout == 1:
            moves.append(("ack", 1))
        if ack == 1 and sout == 0:
            moves.append(("ack", 0))
        for kind, val in moves:
            nx, ny, nack = x, y, ack
            if kind == "x":
                nx = val
            elif kind == "y":
                ny = val
            else:
                nack = val
            nst = plb_step(
                unit.config, st,
                (nack, nack, nx[0], nx[1], ny[0], ny[1]) + (0,) * 6,
            )
            key = repr((nx, ny, nack, nst))
            if key not in seen:
                seen.add(key)
                frontier.append((nx, ny, nack, nst))


@pytest.mark.parametrize("fn_bits", range(16))
def test_4ph_output_pair_never_forbidden(fn_bits):
    f = lambda x, y: (fn_bits >> (x + 2 * y)) & 1
    for st in _reachable_env_states(f):
        assert st.mem_out[:2] != (1, 1)


# -- every pin word against the oracle, on named blocks -------------------------


def _settled(step, config, state, levels):
    try:
        return step(config, state, levels)
    except OscillationError:
        return "OscillationError"


def _feedback(*pins_per_lut):
    return tuple(tuple(i in pins for i in range(4)) for pins in pins_per_lut)


def _mapped_blocks():
    """(id, config) of every block of every ``mapper.SHAPES`` shape."""
    blocks = []
    for (proto, arities, out), route in SHAPES.items():
        ins = tuple(f"i{k}" for k in range(len(arities)))
        mg = route("g", lambda *v, m=out: sum(v) % m, ins, "o")
        shape = f"{proto.value}-{'x'.join(map(str, arities))}-{out}"
        blocks += [(f"{shape}-{u.role}", u.config) for u in mg.plbs]
    return blocks


# Four tables that read all six pins, so that each bit of a group word and
# of the LUT word picks its own half of every table.
SCRAMBLED = tuple(LutTable(b) for b in (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
                                        0x165667B19E3779F9, 0xD6E8FEB86659FD93))
# L0 = not pin 4 and L1 = pin 0 fed back from L0, xor pin 5: from reset on
# quiet pins L0 rises in the first round and L1 in the second.
TWO_ROUNDS = (LutTable.from_function(lambda *p: 1 - p[4]),
              LutTable.from_function(lambda *p: p[0] ^ p[5]))
HAND_BUILT = [
    ("scrambled", PlbConfig(luts=SCRAMBLED)),
    # Each LUT reads the LUTs below it, or above it: together every
    # feedback point but a LUT's own (the edge decision-wait block sets
    # those), and neither oscillates.
    ("feedback-from-below", PlbConfig(
        luts=SCRAMBLED, feedback_sel=_feedback((), (0,), (0, 1), (0, 1, 2)))),
    ("feedback-from-above", PlbConfig(
        luts=SCRAMBLED, feedback_sel=_feedback((1, 2, 3), (2, 3), (3,), ()),
        or6_bypass_sel=(False, True))),
    ("two-rounds", PlbConfig(luts=TWO_ROUNDS + SCRAMBLED[2:],
                             feedback_sel=_feedback((), (0,), (), ()))),
    # L0 toggles its own feedback while pins 4 and 5 are high and holds it
    # otherwise: a quarter of the pin words oscillate.
    ("ring", PlbConfig(luts=(LutTable.from_function(lambda *p: p[0] ^ (p[4] & p[5])),)
                       + SCRAMBLED[1:], feedback_sel=_feedback((0,), (), (), ()),
                       or6_bypass_sel=(True, False))),
]
BLOCKS = _mapped_blocks() + HAND_BUILT
NON_RESET = PlbState(lut_out=(1, 0, 1, 1), mem_out=(1, 1, 0, 1))


def test_two_round_block_settles_in_its_second_round_and_ring_oscillates():
    blocks, quiet = dict(HAND_BUILT), (0,) * 12
    assert plb_step(blocks["two-rounds"], PlbState(), quiet).lut_out[:2] == (1, 1)
    assert plb_step(blocks["ring"], PlbState(), quiet).lut_out[0] == 0
    with pytest.raises(OscillationError):
        plb_step(blocks["ring"], PlbState(), (0,) * 4 + (1, 1) + (0,) * 6)


@pytest.mark.parametrize("config", [c for _, c in BLOCKS], ids=[name for name, _ in BLOCKS])
def test_plb_step_matches_oracle_on_every_pin_word(config):
    # From reset and from one other state, every level of the 12 pins.
    for state in (plb_reset(config), NON_RESET):
        for word in range(1 << 12):
            levels = tuple((word >> i) & 1 for i in range(12))
            assert _settled(plb_step, config, state, levels) == \
                _settled(_oracles.plb_step, config, state, levels), (state, levels)


# -- one memory-point rule against the branch-per-mode step ---------------------

level = hst.integers(min_value=0, max_value=1)


@hst.composite
def configs(draw):
    """Any LUT tables, feedback on pins 0..3, and every bypass and selector
    setting, both OR bypasses together included."""
    two = hst.tuples(hst.booleans(), hst.booleans())
    return PlbConfig(
        luts=tuple(LutTable(draw(hst.integers(0, (1 << 64) - 1))) for _ in range(4)),
        feedback_sel=tuple(draw(hst.tuples(*[hst.booleans()] * 4)) for _ in range(4)),
        mem_bypass=draw(two),
        or6_bypass_sel=draw(two),
        combine_sel=draw(hst.booleans()),
    )


@settings(max_examples=400, deadline=None)
@given(configs(),
       hst.builds(PlbState, hst.tuples(*[level] * 4), hst.tuples(*[level] * 4)),
       hst.tuples(*[level] * 12))
def test_plb_step_matches_branch_per_mode_oracle(config, state, levels):
    assert _settled(plb_step, config, state, levels) == \
        _settled(_oracles.plb_step, config, state, levels)
