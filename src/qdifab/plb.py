"""Structural model of one programmable logic block.

The block holds four 6-input LUTs (L0..L3).  L0 and L1 read the first group
of six network inputs, L2 and L3 the second group.  Input pins 0..3 of every
LUT can be switched, one programming point each, from the network wire to the
output of the same-numbered LUT, which provides the internal feedback paths.
Pins 4 and 5 are network-only.  A LUT reads its table at the 6-bit index
whose bit i is the level on its pin i: network pin i of its group, or the
output of LUT i where that pin's feedback point is set.  With a group's six
levels packed into its group word and the four LUT outputs into the LUT
word (pin i, and Li, at bit i), LUT k's index is
``(group_word & ~fb_k) | (lut_word & fb_k)``, ``fb_k`` being the 4-bit
mask of its set feedback points.

Behind the LUTs sit two memory points (a pair of C-elements plus an ack XOR
each).  The companion input of each C-element is normally the 6-input OR of
the group's network pins (the return-to-NULL detector): 1 when the group word
is not 0.  A programming point per memory point replaces that companion with
the opposite pair's LUT outputs, turning O0 into rendez-vous(L0, L2) and O1
into rendez-vous(L1, L3); the opposite memory point is parked at 0 while its
LUTs are borrowed.  A final selector groups the four memory outputs under a
single acknowledge XOR instead of one XOR per pair.

So every memory output follows one rule.  Its companion is the group's OR,
the opposite pair's LUT under the memory point's ``or6_bypass_sel``, or
none when the point is parked.  The output is then 0 when parked, its own
LUT when the point is bypassed (``mem_bypass``), and otherwise
``c_element(prev, lut + companion, 2)``.  :func:`c_element` is the one
C-element of the package: the simulator's acknowledge joins use it too.
Both OR bypasses set is illegal (:func:`program_rules`); :func:`plb_step`
then follows A's.

A :class:`PlbConfig` is exactly the block's 277 programming bits, in
bitstream order: ``luts`` (four 64-bit tables), ``feedback_sel`` (pins 0..3
of each LUT), ``mem_bypass`` (A, B), ``or6_bypass_sel`` (A, B) and
``combine_sel``.  Which wire drives each pin is routing, not programming:
it lives on ``mapper.PlbUnit``.

Everything is evaluated with zero internal delay inside one step.  Internal
feedback is settled by iterating the LUT stage to a fixpoint; a step that
fails to settle within ITERATION_BOUND rounds reports an oscillation
diagnostic instead of silently picking a state.  A block with no feedback
point set settles in one round, as its LUT outputs then read the network
alone.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from .encodings import signal_parity

ITERATION_BOUND = 16

LUT_INPUTS = 6
LUT_SIZE = 1 << LUT_INPUTS


@dataclass(frozen=True)
class LutTable:
    """64-entry truth table; input pin i contributes 2**i to the index."""

    bits: int

    def __post_init__(self):
        if not 0 <= self.bits < (1 << LUT_SIZE):
            raise ValueError("LUT table wider than 64 bits")

    @classmethod
    def from_function(cls, fn: Callable[..., int]) -> "LutTable":
        bits = 0
        for idx in range(LUT_SIZE):
            pins = tuple((idx >> i) & 1 for i in range(LUT_INPUTS))
            if fn(*pins):
                bits |= 1 << idx
        return cls(bits)

    @classmethod
    def zero(cls) -> "LutTable":
        return cls(0)


@dataclass(frozen=True)
class WireRef:
    """Network pin binding: which wire of which signal drives the pin."""

    signal: str
    index: int
    width: int

    def __str__(self):
        # Single-wire signals (acknowledges) go by their bare name.
        if self.width == 1:
            return self.signal
        return f"{self.signal}.{self.index}"


# An unconnected pin reads constant 0 but still presents its input load.
NC = None


@dataclass(frozen=True)
class PlbConfig:
    luts: Tuple[LutTable, LutTable, LutTable, LutTable]
    # feedback_sel[k][i]: pin i of Lk reads Li's output.
    feedback_sel: Tuple[Tuple[bool, ...], ...] = ((False,) * 4,) * 4
    mem_bypass: Tuple[bool, bool] = (False, False)
    or6_bypass_sel: Tuple[bool, bool] = (False, False)
    combine_sel: bool = False


@dataclass(frozen=True)
class PlbState:
    """Settled values of the block: LUT outputs and memory C-element outputs."""

    lut_out: Tuple[int, int, int, int] = (0, 0, 0, 0)
    mem_out: Tuple[int, int, int, int] = (0, 0, 0, 0)  # O0..O3


class OscillationError(RuntimeError):
    """Internal feedback failed to settle within the iteration bound."""


def c_element(prev: int, high: int, n: int) -> int:
    """The C-element (Muller rendez-vous) of ``n`` inputs, ``high`` of them
    at 1: 1 when all are high, 0 when none is, ``prev`` otherwise."""
    if high == n:
        return 1
    return prev if high else 0


def _memory_point(prev: int, lut: int, companion: Optional[int], bypass: bool) -> int:
    """One memory output: 0 when parked (no companion), its LUT when the
    memory point is bypassed, else the C-element of (LUT, companion)."""
    if companion is None:
        return 0
    if bypass:
        return lut
    return c_element(prev, lut + companion, 2)


def plb_step(
    config: PlbConfig, state: PlbState, network_inputs: Sequence[int]
) -> PlbState:
    """Settle the block against the given 12 network input levels.

    Raises :class:`OscillationError` when the internal feedback oscillates;
    the caller is expected to turn that into a simulation diagnostic.
    """
    n = tuple(network_inputs)
    if len(n) != 12:
        raise ValueError(f"expected 12 network inputs, got {len(n)}")
    # The group words and the feedback masks (module docstring).
    lo = hi = 0
    for i in range(6):
        lo |= n[i] << i
        hi |= n[6 + i] << i
    masks = [s[0] | s[1] << 1 | s[2] << 2 | s[3] << 3 for s in config.feedback_sel]
    groups = (lo, lo, hi, hi)
    cur = state.lut_out
    for _ in range(ITERATION_BOUND):
        word = cur[0] | cur[1] << 1 | cur[2] << 2 | cur[3] << 3
        lut_out = tuple((lut.bits >> ((group & ~fb) | (word & fb))) & 1
                        for lut, group, fb in zip(config.luts, groups, masks))
        if lut_out == cur or not any(masks):
            break
        cur = lut_out
    else:
        raise OscillationError("LUT feedback loop did not settle")
    # Memory point A guards (L0, L1), B guards (L2, L3); None marks a
    # parked output.
    cross_a, cross_b = config.or6_bypass_sel
    if cross_a:
        companions = (lut_out[2], lut_out[3], None, None)
    elif cross_b:
        companions = (None, None, lut_out[0], lut_out[1])
    else:
        lo, hi = lo != 0, hi != 0
        companions = (lo, lo, hi, hi)
    by_a, by_b = config.mem_bypass
    m = state.mem_out
    mem = (
        _memory_point(m[0], lut_out[0], companions[0], by_a),
        _memory_point(m[1], lut_out[1], companions[1], by_a),
        _memory_point(m[2], lut_out[2], companions[2], by_b),
        _memory_point(m[3], lut_out[3], companions[3], by_b),
    )
    return PlbState(lut_out=lut_out, mem_out=mem)


def plb_reset(config: PlbConfig) -> PlbState:
    """State after the global reset: every wire 0, combinational nets settled.

    The reset wire forces all stateful nodes to 0; combinational LUT outputs
    then take whatever their tables say for all-zero inputs (some tables are
    1 there by design, e.g. locked rendez-vous companions).  The block's
    outputs must still read 0.
    """
    return plb_step(config, PlbState(), (0,) * 12)


def ack_outputs(config: PlbConfig, state: PlbState) -> Tuple[int, int]:
    """Acknowledge-out values (pair A, pair B).

    With the grouping selector set, pair A carries the XOR of all four
    memory outputs and pair B is unused (held 0).
    """
    o = state.mem_out
    if config.combine_sel:
        return signal_parity(o), 0
    return signal_parity(o[0:2]), signal_parity(o[2:4])


def program_rules(config: PlbConfig) -> List[str]:
    """Diagnostics on a block's programming points alone; empty means legal.

    Each LUT has one feedback point per pin 0..3, the mode selectors are
    mutually consistent, and the block is quiescent at reset.  A bitstream
    block is held to these (``bitstream.read_bitstream``).
    """
    diags = [f"L{k}: feedback selection must cover pins 0..3"
             for k, sel in enumerate(config.feedback_sel) if len(sel) != 4]
    if diags:
        return diags

    cross_a, cross_b = config.or6_bypass_sel
    if cross_a and cross_b:
        diags.append("or6 bypass engaged on both memory points")
    if cross_a and config.mem_bypass[0]:
        diags.append("or6 bypass on pair A requires its memory point active")
    if cross_b and config.mem_bypass[1]:
        diags.append("or6 bypass on pair B requires its memory point active")

    try:
        st = plb_reset(config)
        if any(st.mem_out):
            diags.append("block emits nonzero outputs in the all-zero reset state")
    except OscillationError:
        diags.append("block oscillates in the all-zero reset state")

    return diags


def validate_config(config: PlbConfig, pins: Sequence[Optional[WireRef]]) -> List[str]:
    """Legality diagnostics for a block configuration whose 12 network pins
    read ``pins``; empty means legal.

    The :func:`program_rules`, and every wire of a multi-wire signal
    presents the same number of network pin loads: otherwise its
    transitions become distinguishable.  A one-wire signal has one count,
    which is always balanced.
    """
    diags = program_rules(config)
    loads = Counter(ref for ref in pins if ref is not NC)
    for sig, width in {ref.signal: ref.width for ref in loads}.items():
        counts = [loads[WireRef(sig, i, width)] for i in range(width)]
        if len(set(counts)) > 1:
            diags.append(f"signal {sig}: unbalanced pin loads {counts} across its wires")
    return diags
