"""Compilation of logical gates onto the programmable logic block.

``SHAPES`` is the one list of the gate shapes the block accepts.  It maps
(protocol, input arities, output arity) to the routine that compiles that
shape.  Every routine takes ``(name, f, inputs, out)``: the gate's name, its
truth function over logical values, and the names of its input and output
signals.  It returns a :class:`MappedGate`: per block, its programming
bits (a ``plb.PlbConfig``) and its routing, the wire on each of its pins
and outputs (a :class:`PlbUnit`).  The four-phase two-input, LEDR and edge
routines read the consumer's acknowledge on ``<out>.ackin``; the four-phase
three-input and ternary ones have no wire left for it.  The conventions:

* Four-phase gates fire when every data input has left NULL and the
  acknowledge input (when present) is 0, and return to NULL when every input
  is NULL and the acknowledge is 1.  Two-input gates keep the memory points
  transparent and hold their outputs through the LUTs' own feedback; wider
  gates use the memory-point C-elements with the 6-input OR as the
  return-to-NULL companion, which leaves no wire budget for an acknowledge
  input.
* LEDR gates fire when both input phases agree and oppose the acknowledge.
* Edge gates take two blocks: a 2x2 decision-wait that decodes input
  transitions into one of four rendez-vous outputs, and a computation block
  whose memory C-elements double as the 2x1 decision-wait.

Input patterns that decode as forbidden (multi-hot one-of-n) never fire a
LUT: transparent-style gates hold their previous output, memory-style gates
emit the inactive level so the C-elements freeze.  The block refuses to act
on corrupt data instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from .encodings import CodeKind, Protocol, decode_4ph
from .plb import NC, LutTable, PlbConfig, WireRef

GateFn = Callable[..., int]


class MappingError(ValueError):
    """Gate shape or wire budget that the block cannot accommodate."""


def _refs(signal: str, width: int) -> Tuple[WireRef, ...]:
    """Every wire of a signal, in index order."""
    return tuple(WireRef(signal, i, width) for i in range(width))


def _feedback(pins_per_lut: Sequence[Sequence[int]]) -> Tuple[Tuple[bool, ...], ...]:
    return tuple(tuple(i in pins for i in range(4)) for pins in pins_per_lut)


@dataclass(frozen=True)
class PlbUnit:
    """One placed block of a mapped gate: its programming bits and its
    routing."""

    role: str  # "main" or "decision_wait"
    config: PlbConfig
    # Signal wire read by network pins group' 0..5, group'' 0..5.
    input_map: Tuple[Optional[WireRef], ...]
    output_map: Tuple[Optional[WireRef], ...]  # signal wire driven by O0..O3
    sout_map: Tuple[Optional[str], Optional[str]]  # wires driven by the ack XORs


@dataclass(frozen=True)
class MappedGate:
    name: str
    plbs: Tuple[PlbUnit, ...]
    # Wires that exist only between the blocks of this gate.
    internal_signals: Tuple[Tuple[str, int], ...] = ()


def _fires(func: GateFn, for_wire: int, *inputs: Sequence[int]) -> int:
    """The LUT rule of the memory-style four-phase gates: 1 when every input
    slice decodes valid and ``func`` of their values is ``for_wire``, else
    the inactive 0 (NULL, partial and forbidden inputs alike)."""
    codes = [decode_4ph(wires) for wires in inputs]
    if all(c.kind is CodeKind.VALID for c in codes):
        return 1 if func(*(c.value for c in codes)) == for_wire else 0
    return 0


def _one_block(name: str, config: PlbConfig, pins: Tuple[Optional[WireRef], ...],
               out: str, width: int) -> MappedGate:
    """A one-block gate reading ``pins`` and driving the ``width`` wires of
    ``out`` from O0 upwards, with its acknowledge on the first XOR."""
    outputs = _refs(out, width) + (None,) * (4 - width)
    return MappedGate(name, (PlbUnit("main", config, pins, outputs, (f"{out}.sout", None)),))


def _two_input_block(name: str, lut: Callable[[int], LutTable],
                     inputs: Sequence[str], out: str) -> MappedGate:
    """The wiring plan of the two-input dual-rail and LEDR gates.

    ``lut(w)`` is the table of Lw, which drives wire w of ``out`` through a
    transparent memory point.  The memory effect lives in the LUTs' own
    feedback (pin 0 for L0, pin 1 for L1); the acknowledge wire is
    duplicated on the two pins each LUT gives up to its feedback, which keeps
    the data wires' loads equal.
    """
    xn, yn = inputs
    ack_ref = WireRef(f"{out}.ackin", 0, 1)
    config = PlbConfig(
        luts=(lut(0), lut(1), LutTable.zero(), LutTable.zero()),
        feedback_sel=_feedback([(0,), (1,), (), ()]),
        mem_bypass=(True, True),
    )
    pins = (ack_ref, ack_ref) + _refs(xn, 2) + _refs(yn, 2) + (NC,) * 6
    return _one_block(name, config, pins, out, 2)


# -- four-phase, one-of-2, two inputs ---------------------------------------

def map_4ph_2in(
    name: str,
    f: GateFn,
    inputs: Tuple[str, str] = ("x", "y"),
    out: str = "o",
) -> MappedGate:
    """Two-input dual-rail gate: L0 computes the 0-wire and L1 the 1-wire."""

    def lut(for_wire: int) -> LutTable:
        def fn(*p: int) -> int:
            hold = p[0] if for_wire == 0 else p[1]
            a = p[1] if for_wire == 0 else p[0]
            x, y = decode_4ph(p[2:4]), decode_4ph(p[4:6])
            if x.kind is y.kind is CodeKind.VALID and a == 0:
                return 1 if f(x.value, y.value) == for_wire else 0
            if x.kind is y.kind is CodeKind.NULL and a == 1:
                return 0
            return hold

        return LutTable.from_function(fn)

    return _two_input_block(name, lut, inputs, out)


# -- four-phase, one-of-2, three inputs --------------------------------------

def map_4ph_3in(
    name: str,
    f: GateFn,
    inputs: Tuple[str, str, str] = ("x", "y", "z"),
    out: str = "o",
) -> MappedGate:
    """Three-input dual-rail gate using the memory points and the 6-input OR.

    The three inputs consume the whole 6-wire budget, so the gate has no
    acknowledge input.  The LUTs compute the input rendez-vous fused
    with the function, the OR detects the return to NULL, and the memory
    C-elements hold in between.
    """

    def lut(for_wire: int) -> LutTable:
        def fn(*p: int) -> int:
            return _fires(f, for_wire, p[0:2], p[2:4], p[4:6])

        return LutTable.from_function(fn)

    data = sum((_refs(s, 2) for s in inputs), ())
    config = PlbConfig(
        luts=(lut(0), lut(1), LutTable.zero(), LutTable.zero()),
        mem_bypass=(False, True),
    )
    return _one_block(name, config, data + (NC,) * 6, out, 2)


# -- four-phase, one-of-3, two inputs ----------------------------------------

def map_4ph_ter_2in(
    name: str,
    f: GateFn,
    inputs: Tuple[str, str] = ("x", "y"),
    out: str = "o",
) -> MappedGate:
    """Two-input ternary gate: three LUTs drive one wire each, L3 stays 0.

    The two one-of-3 inputs consume the whole 6-wire budget, so the gate has
    no acknowledge input, as for :func:`map_4ph_3in`.  Both input groups carry
    the same six wires so every wire is loaded twice, and the two 6-input ORs
    therefore agree.  The grouping selector collects all four memory outputs
    under a single acknowledge XOR.
    """

    def lut(for_wire: int) -> LutTable:
        def fn(*p: int) -> int:
            return _fires(f, for_wire, p[0:3], p[3:6])

        return LutTable.from_function(fn)

    data = _refs(inputs[0], 3) + _refs(inputs[1], 3)
    config = PlbConfig(
        luts=(lut(0), lut(1), lut(2), LutTable.zero()),
        combine_sel=True,
    )
    return _one_block(name, config, data + data, out, 3)


# -- LEDR, two inputs ---------------------------------------------------------

def map_ledr_2in(
    name: str,
    f: GateFn,
    inputs: Tuple[str, str] = ("x", "y"),
    out: str = "o",
) -> MappedGate:
    """Two-input LEDR gate on the dual-rail two-input wiring plan.

    The output pair transitions when both input phases agree and oppose the
    acknowledge: to (f, f) when the common phase is even, to (f, not f) when
    odd, so the output phase always ends up matching the inputs'.
    """

    def lut(for_wire: int) -> LutTable:
        def fn(*p: int) -> int:
            hold = p[0] if for_wire == 0 else p[1]
            a = p[1] if for_wire == 0 else p[0]
            xd, xr, yd, yr = p[2], p[3], p[4], p[5]
            px, py = xd ^ xr, yd ^ yr
            if px == 0 and py == 0 and a == 1:
                v = f(xd, yd)
                return v
            if px == 1 and py == 1 and a == 0:
                v = f(xd, yd)
                return v if for_wire == 0 else v ^ 1
            return hold

        return LutTable.from_function(fn)

    return _two_input_block(name, lut, inputs, out)


# -- LEDR, three inputs -------------------------------------------------------

def map_ledr_3in(
    name: str,
    f: GateFn,
    inputs: Tuple[str, str, str] = ("x", "y", "z"),
    out: str = "o",
) -> MappedGate:
    """Three-input LEDR gate split across both LUT pairs.

    With three LEDR inputs plus the acknowledge the transition condition
    reads seven wires, one more than a LUT sees, so the data wire of the
    output is built as rendez-vous(L0, L2) and the repeat wire as
    rendez-vous(L1, L3).  Outside their transition conditions L0/L1 sit at 0
    and L2/L3 at 1, which parks the C-elements.

    Pin split: L0/L1 (which gate the rises) see the acknowledge, both data
    wires of the second and third inputs, and the first input's data wire;
    they fire only when the second and third phases agree against the
    acknowledge, so they are quiet at reset and blind only to the first
    input's phase.  L2/L3 (which gate the falls) see all six data wires and
    require the three phases to agree.  The conjunction the C-elements
    enforce is the full firing rule whenever the first input has settled,
    which the environment's emission order guarantees under matched delays;
    the first input's phase is the one unavoidable blind spot of a 7-wire
    condition split over 6-wire tables.  Its repeat wire also carries a
    single load where every other wire carries two, which the legality
    check reports on purpose.
    """
    xn, yn, zn = inputs

    # Pins 1..5 on both sides: xd, yd, yr, zd, zr.  Pin 0 differs: the
    # acknowledge on the low side, the first repeat wire on the high side.
    def lut_lo(repeat_wire: bool) -> LutTable:
        def fn(*p: int) -> int:
            a, xd, yd, yr, zd, zr = p
            py, pz = yd ^ yr, zd ^ zr
            if py == pz and a != py:
                return f(xd, yd, zd) ^ (py if repeat_wire else 0)
            return 0

        return LutTable.from_function(fn)

    def lut_hi(repeat_wire: bool) -> LutTable:
        def fn(*p: int) -> int:
            xr, xd, yd, yr, zd, zr = p
            px, py, pz = xd ^ xr, yd ^ yr, zd ^ zr
            if px == py == pz:
                return f(xd, yd, zd) ^ (px if repeat_wire else 0)
            return 1

        return LutTable.from_function(fn)

    ack = WireRef(f"{out}.ackin", 0, 1)
    shared = (WireRef(xn, 0, 2),) + _refs(yn, 2) + _refs(zn, 2)
    config = PlbConfig(
        luts=(lut_lo(False), lut_lo(True), lut_hi(False), lut_hi(True)),
        or6_bypass_sel=(True, False),
    )
    return _one_block(name, config, (ack,) + shared + (WireRef(xn, 1, 2),) + shared, out, 2)


# -- edge protocol, two inputs ------------------------------------------------

# Decision-wait cell index: C(i,j) sits at 2*i + j.
_DW_CELLS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _dw_lut(cell: int) -> LutTable:
    """C(i,j) = rendez-vous(A_i xor C(i,1-j), B_j xor C(1-i,j)).

    Pin layout per cell follows the block's feedback reach: each cell reads
    itself and its two neighbours on the feedback pins, its B wire on the
    remaining low pin, and A0/A1 on pins 4/5.  The unused A wire is part of
    the input map (equal loading) but ignored by the table.
    """
    i, j = _DW_CELLS[cell]

    def fn(*p: int) -> int:
        if cell == 0:  # pins: C00 C01 C10 B0 A0 A1
            self_, row_n, col_n, b, a = p[0], p[1], p[2], p[3], p[4]
        elif cell == 1:  # pins: C00 C01 B1 C11 A0 A1
            self_, row_n, col_n, b, a = p[1], p[0], p[3], p[2], p[4]
        elif cell == 2:  # pins: C00 B0 C10 C11 A0 A1
            self_, row_n, col_n, b, a = p[2], p[3], p[0], p[1], p[5]
        else:  # pins: B1 C01 C10 C11 A0 A1
            self_, row_n, col_n, b, a = p[3], p[2], p[1], p[0], p[5]
        u = a ^ row_n
        v = b ^ col_n
        return (u & v) | (self_ & (u | v))

    return LutTable.from_function(fn)


def map_edge_2in(
    name: str,
    f: GateFn,
    inputs: Tuple[str, str] = ("a", "b"),
    out: str = "o",
) -> MappedGate:
    """Two-input edge-signalling gate; always two blocks.

    The first block is the 2x2 decision-wait: its four LUTs hold the C(i,j)
    rendez-vous cells through cross feedback, memory points transparent.
    The second block computes the output toggles as XORs of the C cells
    (wire 1 collects the cells where f is 1, wire 0 the others) and reuses
    its memory C-elements as the 2x1 decision-wait that withholds the
    output until the acknowledge has toggled.  The wires between the two
    blocks are ``<name>.c``.
    """
    an, bn = inputs
    cn = f"{name}.c"

    b_swapped = (WireRef(bn, 1, 2), WireRef(bn, 0, 2))
    dw_config = PlbConfig(
        luts=tuple(_dw_lut(c) for c in range(4)),
        feedback_sel=_feedback([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]),
        mem_bypass=(True, True),
    )
    dw = PlbUnit(
        role="decision_wait",
        config=dw_config,
        input_map=(NC, NC) + b_swapped + _refs(an, 2) + b_swapped + (NC, NC) + _refs(an, 2),
        output_map=_refs(cn, 4),
        sout_map=(None, None),
    )

    ones = [c for c, (i, j) in enumerate(_DW_CELLS) if f(i, j) == 1]
    zeros = [c for c, (i, j) in enumerate(_DW_CELLS) if f(i, j) == 0]

    def parity_lut(cells: Sequence[int]) -> LutTable:
        def fn(*p: int) -> int:
            acc = 0
            for c in cells:
                acc ^= p[c]
            return acc

        return LutTable.from_function(fn)

    def dw21_lut(loop_pin: int) -> LutTable:
        # not(output xor acknowledge); re-arms the C-elements after the ack.
        def fn(*p: int) -> int:
            return 1 ^ p[loop_pin] ^ p[4]

        return LutTable.from_function(fn)

    comp_config = PlbConfig(
        luts=(parity_lut(ones), parity_lut(zeros), dw21_lut(0), dw21_lut(1)),
        or6_bypass_sel=(True, False),
    )
    # O0 = C(L0, L2) carries the 1-wire, O1 = C(L1, L3) the 0-wire.
    comp = PlbUnit(
        role="main",
        config=comp_config,
        input_map=_refs(cn, 4) + (NC, NC)
        + _refs(out, 2) + (NC, NC, WireRef(f"{out}.ackin", 0, 1), NC),
        output_map=_refs(out, 2)[::-1] + (None, None),
        sout_map=(f"{out}.sout", None),
    )
    return MappedGate(name, (dw, comp), internal_signals=((cn, 4),))


# The shapes the block accepts, as (protocol, input arities, output arity).
SHAPES: Dict[Tuple[Protocol, Tuple[int, ...], int], Callable[..., MappedGate]] = {
    (Protocol.FOUR_PHASE, (2, 2), 2): map_4ph_2in,
    (Protocol.FOUR_PHASE, (2, 2, 2), 2): map_4ph_3in,
    (Protocol.FOUR_PHASE, (3, 3), 3): map_4ph_ter_2in,
    (Protocol.LEDR, (2, 2), 2): map_ledr_2in,
    (Protocol.LEDR, (2, 2, 2), 2): map_ledr_3in,
    (Protocol.EDGE, (2, 2), 2): map_edge_2in,
}
