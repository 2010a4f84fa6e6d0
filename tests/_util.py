"""Shared helpers for driving mapped blocks outside the event kernel."""

from __future__ import annotations

from qdifab.encodings import Protocol, send_wire
from qdifab.plb import plb_step, plb_reset, ack_outputs


def sent(protocol, levels, value):
    """The wire levels after sending ``value`` from ``levels``: the wire of
    the protocol's send rule toggled."""
    out = list(levels)
    out[send_wire(protocol)(levels, value)] ^= 1
    return tuple(out)


def one_hot(value, arity):
    """The four-phase code of ``value``, sent from NULL."""
    return sent(Protocol.FOUR_PHASE, (0,) * arity, value)


def lut_eval(table, pins):
    """A LUT table's output for its six pin levels; pin i contributes 2**i
    to the index."""
    idx = 0
    for i, b in enumerate(pins):
        idx |= (b & 1) << i
    return (table.bits >> idx) & 1


def step_unit(unit, state, **signals):
    """Evaluate a mapped block against named signal wire values.

    ``signals`` maps signal name to a tuple of wire levels, ``ack`` standing
    for the block's acknowledge input ``<out>.ackin``; unbound pins read 0.
    """
    values = []
    for ref in unit.input_map:
        if ref is None:
            values.append(0)
        else:
            name = "ack" if ref.signal.endswith(".ackin") else ref.signal
            values.append(signals[name][ref.index])
    return plb_step(unit.config, state, values)


def unit_outputs(unit, state):
    """Wire values driven by the block, keyed by signal wire name."""
    out = {}
    for i, ref in enumerate(unit.output_map):
        if ref is not None:
            out[str(ref)] = state.mem_out[i]
    return out


def unit_sout(unit, state):
    return ack_outputs(unit.config, state)
