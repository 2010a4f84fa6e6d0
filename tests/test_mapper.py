import itertools

import pytest

from qdifab.encodings import Protocol
from qdifab.mapper import (
    MappingError,
    map_4ph_2in,
    map_4ph_3in,
    map_4ph_ter_2in,
    map_edge_2in,
    map_ledr_2in,
    map_ledr_3in,
)
from qdifab.plb import WireRef, plb_reset, validate_config
from ._oracles import (
    FourPhase2InOracle,
    FourPhase3InOracle,
    Ledr2InOracle,
    Ternary2InOracle,
    all_16_functions,
)
from ._util import lut_eval, one_hot, sent, step_unit, unit_sout

AND2 = lambda x, y: x & y
XOR2 = lambda x, y: x ^ y
NULL2 = (0, 0)


def _cycle_4ph(unit, state, x, y):
    """One full four-phase handshake; returns (state, fired output pair)."""
    state = step_unit(unit, state, x=one_hot(x, 2), y=one_hot(y, 2), ack=(0,))
    fired = state.mem_out[:2]
    state = step_unit(unit, state, x=NULL2, y=NULL2, ack=(1,))
    assert state.mem_out[:2] == (0, 0)
    return state, fired


# -- four-phase two-input -----------------------------------------------------

def test_map_4ph_2in_and_examples():
    unit = map_4ph_2in("g", AND2).plbs[0]
    st = plb_reset(unit.config)
    st = step_unit(unit, st, x=one_hot(1, 2), y=one_hot(1, 2), ack=(0,))
    assert st.mem_out[:2] == (0, 1)
    st = step_unit(unit, st, x=NULL2, y=NULL2, ack=(1,))
    assert st.mem_out[:2] == (0, 0)


def test_map_4ph_2in_xor_logical_zero():
    unit = map_4ph_2in("g", XOR2).plbs[0]
    st = plb_reset(unit.config)
    st = step_unit(unit, st, x=one_hot(1, 2), y=one_hot(1, 2), ack=(0,))
    assert st.mem_out[:2] == (1, 0)


@pytest.mark.parametrize("bits,f", sorted(all_16_functions().items()))
def test_map_4ph_2in_matches_equation_oracle(bits, f):
    unit = map_4ph_2in("g", f).plbs[0]
    oracle = FourPhase2InOracle(f)
    st = plb_reset(unit.config)
    for x, y in itertools.product(range(2), repeat=2):
        st = step_unit(unit, st, x=one_hot(x, 2), y=one_hot(y, 2), ack=(0,))
        assert st.mem_out[:2] == oracle.step(x, y, 0)
        st = step_unit(unit, st, x=NULL2, y=NULL2, ack=(1,))
        assert st.mem_out[:2] == oracle.step(None, None, 1)


def test_map_4ph_2in_hold_outside_conditions():
    unit = map_4ph_2in("g", AND2).plbs[0]
    st = plb_reset(unit.config)
    st = step_unit(unit, st, x=one_hot(1, 2), y=one_hot(1, 2), ack=(0,))
    held = st.mem_out[:2]
    # Acknowledge arrives but inputs still valid: hold.
    st = step_unit(unit, st, x=one_hot(1, 2), y=one_hot(1, 2), ack=(1,))
    assert st.mem_out[:2] == held
    # Inputs NULL but acknowledge still low: hold.
    st = step_unit(unit, st, x=NULL2, y=NULL2, ack=(0,))
    assert st.mem_out[:2] == held


def test_map_4ph_2in_tables_match_direct_enumeration():
    # Independent enumeration of the case equation over the decodable pin
    # patterns (the multi-hot patterns are don't-care and excluded).
    unit = map_4ph_2in("g", AND2).plbs[0]

    def decode(b0, b1):
        if (b0, b1) == (0, 0):
            return "null"
        if (b0, b1) == (1, 1):
            return "forbidden"
        return b1

    for idx in range(64):
        p = tuple((idx >> i) & 1 for i in range(6))
        x, y = decode(p[2], p[3]), decode(p[4], p[5])
        if x == "forbidden" or y == "forbidden":
            continue
        for wire, lut, ack_pin, fb_pin in ((0, 0, 1, 0), (1, 1, 0, 1)):
            ack, fb = p[ack_pin], p[fb_pin]
            if x != "null" and y != "null" and ack == 0:
                expected = 1 if AND2(x, y) == wire else 0
            elif x == "null" and y == "null" and ack == 1:
                expected = 0
            else:
                expected = fb
            assert lut_eval(unit.config.luts[lut], p) == expected


def test_map_4ph_2in_without_ack():
    # No caller can leave out the acknowledge: the block reads o.ackin on
    # both feedback-free pins and waits for it in both phases.
    unit = map_4ph_2in("g", AND2).plbs[0]
    assert unit.input_map[:2] == (WireRef("o.ackin", 0, 1),) * 2
    st = plb_reset(unit.config)
    st = step_unit(unit, st, x=one_hot(0, 2), y=one_hot(1, 2), ack=(1,))
    assert st.mem_out[:2] == (0, 0)
    st = step_unit(unit, st, x=one_hot(0, 2), y=one_hot(1, 2), ack=(0,))
    assert st.mem_out[:2] == (1, 0)
    st = step_unit(unit, st, x=NULL2, y=NULL2, ack=(0,))
    assert st.mem_out[:2] == (1, 0)
    st = step_unit(unit, st, x=NULL2, y=NULL2, ack=(1,))
    assert st.mem_out[:2] == (0, 0)


# -- four-phase three-input ---------------------------------------------------

MAJ3 = lambda x, y, z: 1 if x + y + z >= 2 else 0
NULL_IN3 = dict(x=NULL2, y=NULL2, z=NULL2)


def test_map_4ph_3in_majority():
    unit = map_4ph_3in("g", MAJ3).plbs[0]
    st = plb_reset(unit.config)
    st = step_unit(unit, st, x=one_hot(1, 2), y=one_hot(1, 2), z=one_hot(1, 2))
    assert st.mem_out[:2] == (0, 1)
    assert unit_sout(unit, st)[0] == 1


def test_map_4ph_3in_return_to_null():
    unit = map_4ph_3in("g", MAJ3).plbs[0]
    st = plb_reset(unit.config)
    st = step_unit(unit, st, x=one_hot(0, 2), y=one_hot(1, 2), z=one_hot(0, 2))
    assert st.mem_out[:2] == (1, 0)
    st = step_unit(unit, st, **NULL_IN3)
    assert st.mem_out[:2] == (0, 0)


@pytest.mark.parametrize("f", [MAJ3, lambda x, y, z: x ^ y ^ z])
def test_map_4ph_3in_matches_oracle(f):
    unit = map_4ph_3in("g", f).plbs[0]
    oracle = FourPhase3InOracle(f)
    st = plb_reset(unit.config)
    for x, y, z in itertools.product(range(2), repeat=3):
        st = step_unit(
            unit, st, x=one_hot(x, 2), y=one_hot(y, 2), z=one_hot(z, 2)
        )
        assert st.mem_out[:2] == oracle.step(x, y, z)
        st = step_unit(unit, st, **NULL_IN3)
        assert st.mem_out[:2] == oracle.step(None, None, None)


# -- four-phase ternary -------------------------------------------------------

TMIN = lambda x, y: min(x, y)


def test_map_ter_min_example():
    unit = map_4ph_ter_2in("g", TMIN).plbs[0]
    st = plb_reset(unit.config)
    st = step_unit(unit, st, x=one_hot(2, 3), y=one_hot(1, 3))
    assert st.mem_out == (0, 1, 0, 0)
    assert unit_sout(unit, st)[0] == 1  # grouped ack over all four outputs
    st = step_unit(unit, st, x=(0, 0, 0), y=(0, 0, 0))
    assert st.mem_out == (0, 0, 0, 0)


def test_map_ter_covers_all_nine_combinations():
    unit = map_4ph_ter_2in("g", TMIN).plbs[0]
    oracle = Ternary2InOracle(TMIN)
    st = plb_reset(unit.config)
    for x, y in itertools.product(range(3), repeat=2):
        st = step_unit(unit, st, x=one_hot(x, 3), y=one_hot(y, 3))
        assert st.mem_out[:3] == oracle.step(x, y)
        assert st.mem_out[3] == 0
        st = step_unit(unit, st, x=(0, 0, 0), y=(0, 0, 0))
        oracle.step(None, None)


# -- LEDR two-input -----------------------------------------------------------

def test_map_ledr_2in_and_example():
    unit = map_ledr_2in("g", AND2).plbs[0]
    st = plb_reset(unit.config)
    assert st.mem_out[:2] == (0, 0)
    # Odd input phases carrying (1,1), acknowledge low, output even.
    st = step_unit(unit, st, x=(1, 0), y=(1, 0), ack=(0,))
    od, orr = st.mem_out[:2]
    assert od == 1 and (od ^ orr) == 1


def test_map_ledr_2in_phase_mismatch_holds():
    unit = map_ledr_2in("g", AND2).plbs[0]
    st = plb_reset(unit.config)
    st = step_unit(unit, st, x=(1, 0), y=(0, 0), ack=(0,))
    assert st.mem_out[:2] == (0, 0)


@pytest.mark.parametrize("bits,f", sorted(all_16_functions().items()))
def test_map_ledr_2in_matches_equation_oracle(bits, f):
    unit = map_ledr_2in("g", f).plbs[0]
    oracle = Ledr2InOracle(f)
    st = plb_reset(unit.config)
    x = y = (0, 0)
    ack = 0
    for vx, vy in itertools.product(range(2), repeat=2):
        x, y = sent(Protocol.LEDR, x, vx), sent(Protocol.LEDR, y, vy)
        st = step_unit(unit, st, x=x, y=y, ack=(ack,))
        assert st.mem_out[:2] == oracle.step(x[0], x[1], y[0], y[1], ack)
        ack = st.mem_out[0] ^ st.mem_out[1]  # consumer tracks output phase


# -- LEDR three-input ---------------------------------------------------------

XOR3 = lambda x, y, z: x ^ y ^ z


def _ledr3_pins(unit, x, y, z, ack):
    sig = {"x": x, "y": y, "z": z, "o.ackin": (ack,)}
    return tuple(
        0 if ref is None else sig[ref.signal][ref.index]
        for ref in unit.input_map
    )


def test_map_ledr_3in_fires_on_matching_phases():
    unit = map_ledr_3in("g", XOR3).plbs[0]
    st = plb_reset(unit.config)
    # All phases odd, acknowledge 0 (opposite), inputs (1,1,0).
    st = step_unit(unit, st, x=(1, 0), y=(1, 0), z=(0, 1), ack=(0,))
    od, orr = st.mem_out[:2]
    assert od == 0  # xor(1,1,0)
    assert od ^ orr == 1


def test_map_ledr_3in_locks_outside_conditions():
    unit = map_ledr_3in("g", XOR3).plbs[0]
    st = plb_reset(unit.config)
    before = st.mem_out[:2]
    # Acknowledge disagrees: L0 low, L2 high, output locked.
    pins = _ledr3_pins(unit, (1, 0), (1, 0), (1, 0), 1)
    from qdifab.plb import plb_step

    st2 = plb_step(unit.config, st, pins)
    assert st2.lut_out[0] == 0 and st2.lut_out[2] == 1
    assert st2.mem_out[:2] == before


def test_map_ledr_3in_lock_is_pointwise_on_the_equations():
    # Over all 2**7 wire states, outside the two transition rows the
    # rendez-vous partners must disagree (0 against 1) so the C-elements
    # cannot move.
    f = XOR3
    unit = map_ledr_3in("g", f).plbs[0]
    for bits in range(128):
        xd, xr, yd, yr, zd, zr, ack = [(bits >> i) & 1 for i in range(7)]
        px, py, pz = xd ^ xr, yd ^ yr, zd ^ zr
        in_condition = (px == py == pz) and ack != px
        lo = (ack, xd, yd, yr, zd, zr)
        hi = (xr, xd, yd, yr, zd, zr)
        l0 = lut_eval(unit.config.luts[0], lo)
        l1 = lut_eval(unit.config.luts[1], lo)
        l2 = lut_eval(unit.config.luts[2], hi)
        l3 = lut_eval(unit.config.luts[3], hi)
        if in_condition:
            v = f(xd, yd, zd)
            assert l0 == l2 == v
            assert l1 == l3 == v ^ px
        else:
            cond_lo = (py == pz) and ack != py
            cond_hi = px == py == pz
            if not cond_lo and not cond_hi:
                assert (l0, l2) == (0, 1)
                assert (l1, l3) == (0, 1)


def test_map_ledr_3in_quiet_at_reset():
    unit = map_ledr_3in("g", lambda x, y, z: 1 ^ (x & y & z)).plbs[0]  # f(0,0,0) = 1
    st = plb_reset(unit.config)
    assert st.mem_out == (0, 0, 0, 0)


# -- edge ----------------------------------------------------------------------

EDGE_TABLE_ROWS = {
    "AND": ([(1, 1)], [(0, 0), (0, 1), (1, 0)]),
    "NAND": ([(0, 0), (0, 1), (1, 0)], [(1, 1)]),
    "OR": ([(1, 1), (0, 1), (1, 0)], [(0, 0)]),
    "NOR": ([(0, 0)], [(1, 1), (0, 1), (1, 0)]),
    "XOR": ([(0, 1), (1, 0)], [(0, 0), (1, 1)]),
    "NXOR": ([(0, 0), (1, 1)], [(0, 1), (1, 0)]),
}

EDGE_FUNCS = {
    "AND": lambda x, y: x & y,
    "NAND": lambda x, y: 1 ^ (x & y),
    "OR": lambda x, y: x | y,
    "NOR": lambda x, y: 1 ^ (x | y),
    "XOR": lambda x, y: x ^ y,
    "NXOR": lambda x, y: 1 ^ x ^ y,
}


def _parity_table(cells):
    bits = 0
    for idx in range(64):
        acc = 0
        for (i, j) in cells:
            acc ^= (idx >> (2 * i + j)) & 1
        if acc:
            bits |= 1 << idx
    return bits


@pytest.mark.parametrize("name", sorted(EDGE_TABLE_ROWS))
def test_edge_gate_table_rows(name):
    ones, zeros = EDGE_TABLE_ROWS[name]
    mg = map_edge_2in("g", EDGE_FUNCS[name])
    comp = mg.plbs[1]
    assert comp.config.luts[0].bits == _parity_table(ones)
    assert comp.config.luts[1].bits == _parity_table(zeros)


def test_edge_two_blocks():
    mg = map_edge_2in("g", AND2)
    assert len(mg.plbs) == 2
    assert mg.plbs[0].role == "decision_wait"
    assert mg.plbs[1].role == "main"


def _dw_cell_inputs(state, a, b):
    """(u, v) pair of each decision-wait C cell under inputs a, b."""
    c = state.mem_out
    pairs = []
    for cell, (i, j) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        u = a[i] ^ c[2 * i + (1 - j)]
        v = b[j] ^ c[2 * (1 - i) + j]
        pairs.append((u, v))
    return pairs


def test_dw_single_cell_toggles_and_quiesces():
    mg = map_edge_2in("g", AND2)
    dw = mg.plbs[0]
    st = plb_reset(dw.config)
    # Value 0 on port A, value 1 on port B: wires a.0 and b.1 toggle.
    st = step_unit(dw, st, a=(1, 0), b=(0, 0))
    assert st.mem_out == (0, 0, 0, 0)  # waits for the column
    st = step_unit(dw, st, a=(1, 0), b=(0, 1))
    assert st.mem_out == (0, 1, 0, 0)  # exactly C(0,1)
    for u, v in _dw_cell_inputs(st, (1, 0), (0, 1)):
        assert u == v  # rendez-vous inputs equal again: quiescent
    again = step_unit(dw, st, a=(1, 0), b=(0, 1))
    assert again == st


def test_dw_exhaustive_both_phases():
    mg = map_edge_2in("g", XOR2)
    dw = mg.plbs[0]
    for i, j in itertools.product(range(2), repeat=2):
        st = plb_reset(dw.config)
        a = [0, 0]
        b = [0, 0]
        for phase in range(2):
            before = st.mem_out
            a[i] ^= 1
            st = step_unit(dw, st, a=tuple(a), b=tuple(b))
            assert st.mem_out == before  # row alone must not fire
            b[j] ^= 1
            st = step_unit(dw, st, a=tuple(a), b=tuple(b))
            cell = 2 * i + j
            diff = [x ^ y for x, y in zip(before, st.mem_out)]
            assert diff == [1 if k == cell else 0 for k in range(4)]
            for u, v in _dw_cell_inputs(st, tuple(a), tuple(b)):
                assert u == v


def test_edge_rejects_non_binary():
    with pytest.raises(MappingError):
        from qdifab.netlist import parse_netlist, map_netlist

        net = parse_netlist(
            "signal a proto=edge arity=3\n"
            "signal b proto=edge arity=2\n"
            "signal o proto=edge arity=2\n"
            "gate g fn=8 in=a,b out=o\n"
        )
        map_netlist(net)


# -- cross-cutting -------------------------------------------------------------

def test_emit_truth_tables_deterministic():
    for build in (lambda: map_4ph_2in("g", AND2).plbs[0].config.luts,
                  lambda: map_ledr_2in("g", AND2).plbs[0].config.luts,
                  lambda: map_edge_2in("g", AND2).plbs[1].config.luts):
        assert [t.bits for t in build()] == [t.bits for t in build()]


def test_constant_zero_function_tables():
    unit = map_4ph_2in("g", lambda x, y: 0).plbs[0]
    # The 1-wire never fires on the valid region.
    for x, y in itertools.product(range(2), repeat=2):
        st = plb_reset(unit.config)
        st = step_unit(unit, st, x=one_hot(x, 2), y=one_hot(y, 2), ack=(0,))
        assert st.mem_out[1] == 0
        assert st.mem_out[0] == 1


def test_every_emitted_config_validates():
    units = [
        map_4ph_2in("g", AND2).plbs[0],
        map_4ph_2in("g", XOR2).plbs[0],
        map_4ph_3in("g", MAJ3).plbs[0],
        map_4ph_ter_2in("g", TMIN).plbs[0],
        map_ledr_2in("g", AND2).plbs[0],
    ]
    mg = map_edge_2in("g", AND2)
    units.extend(mg.plbs)
    for unit in units:
        assert validate_config(unit.config, unit.input_map) == [], unit.role


def test_ledr_3in_known_load_diagnostic():
    # Seven wires over twelve pins cannot balance the first repeat wire;
    # the legality check reports it and nothing else.
    unit = map_ledr_3in("g", XOR3).plbs[0]
    diags = validate_config(unit.config, unit.input_map)
    assert len(diags) == 1
    assert "unbalanced" in diags[0] and "x" in diags[0]
