"""Delay-insensitive signal encodings.

A logical signal travels over several physical wires so that every new value
changes exactly one wire.  Three codings are supported:

* four-phase one-of-n: one wire per value, values separated by the
  all-zero spacer (NULL); the (1,1) pattern on a dual-rail pair is a
  forbidden state that indicates a malfunction or an attack;
* LEDR: two wires (data, repeat); the data wire level is the value;
* edge: one wire per value; instantaneous levels carry no meaning.

The send rule (:func:`send_wire`) gives the one wire a producer toggles to
send value v from the current wire levels: wire v under four-phase (from
NULL) and edge; under LEDR the data wire (0) when v differs from its level,
the repeat wire (1) otherwise.  The four-phase decode (:func:`decode_4ph`)
reads a 0/1 pattern of up to ``MAX_ARITY`` wires: all-zero is NULL, a
single 1 on wire i is Valid(i), anything else is Forbidden.

Wire index 0 is the least significant position of every bit vector.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

Bits = Tuple[int, ...]

MAX_ARITY = 4


class Protocol(enum.Enum):
    FOUR_PHASE = "4ph"
    LEDR = "ledr"
    EDGE = "edge"


class CodeKind(enum.Enum):
    NULL = "null"
    VALID = "valid"
    FORBIDDEN = "forbidden"


class EncodingError(ValueError):
    """Raised when a value or signal shape is outside its legal domain."""


@dataclass(frozen=True)
class SignalSpec:
    """Shape of one logical signal: protocol, value count and wire count."""

    name: str
    protocol: Protocol
    arity: int

    def __post_init__(self):
        if not 2 <= self.arity <= MAX_ARITY:
            raise EncodingError(
                f"signal {self.name!r}: arity {self.arity} outside 2..{MAX_ARITY}"
            )
        if self.protocol is Protocol.LEDR and self.arity != 2:
            raise EncodingError(
                f"signal {self.name!r}: LEDR is restricted to binary signals"
            )
        # Built once, as every trace replay asks for them.
        object.__setattr__(self, "_wires", tuple(
            f"{self.name}.{i}" for i in range(self.wire_count)))

    @property
    def wire_count(self) -> int:
        # One wire per value for one-of-n and edge; LEDR is the (data, repeat) pair.
        return 2 if self.protocol is Protocol.LEDR else self.arity

    def wire_names(self) -> Tuple[str, ...]:
        return self._wires


@dataclass(frozen=True)
class ValueCode:
    """Decoded state of a one-of-n signal: its kind and, if valid, its value."""

    kind: CodeKind
    value: int | None


def _classify_4ph(bits: Bits) -> ValueCode:
    weight = sum(bits)
    if weight == 0:
        return ValueCode(CodeKind.NULL, None)
    if weight == 1:
        return ValueCode(CodeKind.VALID, bits.index(1))
    return ValueCode(CodeKind.FORBIDDEN, None)


# The code of every 0/1 pattern of up to MAX_ARITY wires, built once.
_CODES_4PH = {
    bits: _classify_4ph(bits)
    for n in range(MAX_ARITY + 1)
    for bits in itertools.product((0, 1), repeat=n)
}


def decode_4ph(wires: Sequence[int]) -> ValueCode:
    """The shared, frozen code of a one-of-n wire pattern.  Forbidden is
    returned rather than raised so a simulation can log the pattern and
    keep running; a pattern that is not 0/1 on up to ``MAX_ARITY`` wires
    raises EncodingError."""
    key = tuple(wires)
    try:
        return _CODES_4PH[key]
    except KeyError:
        raise EncodingError(f"wire pattern {key} is not 0/1 on up to {MAX_ARITY} wires") from None


def send_wire(protocol: Protocol) -> Callable[[Sequence[int], int], int]:
    """The send rule of ``protocol``: ``rule(levels, value)`` is the index
    of the one wire to toggle to send ``value`` from ``levels``."""
    if protocol is Protocol.LEDR:  # a repeated value toggles the repeat wire
        return lambda levels, value: int(value == levels[0])
    return lambda levels, value: value


def signal_parity(wires: Sequence[int]) -> int:
    """Parity of the Hamming weight; the phase of a two-phase signal."""
    p = 0
    for b in wires:
        p ^= int(b)
    return p
