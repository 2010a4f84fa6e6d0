"""Delay-insensitive signal encodings.

A logical signal travels over several physical wires so that every new value
changes exactly one wire.  Three codings are supported:

* four-phase one-of-n: value i puts a 1 on wire i, values are separated by
  the all-zero spacer (NULL), and the (1,1) pattern on a dual-rail pair is a
  forbidden state that indicates a malfunction or an attack;
* LEDR: two wires (data, repeat); the data wire level is the value, a
  repeated value toggles the repeat wire instead;
* edge: value i toggles wire i, instantaneous levels carry no meaning.

Wire index 0 is the least significant position of every bit vector.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Sequence, Tuple

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
    """Decoded state of a one-of-n signal."""

    kind: CodeKind
    value: int | None
    wires: Bits

    def __repr__(self):
        if self.kind is CodeKind.VALID:
            return f"Valid({self.value})"
        return self.kind.name.capitalize()


def encode_4ph(value: int, arity: int) -> Bits:
    """One-hot vector for ``value``; wire ``value`` carries the 1."""
    if not 0 <= value < arity:
        raise EncodingError(f"value {value} out of range for arity {arity}")
    bits = [0] * arity
    bits[value] = 1
    return tuple(bits)


def encode_4ph_null(arity: int) -> Bits:
    """The all-zero spacer separating valid four-phase values."""
    return (0,) * arity


def _classify_4ph(bits: Bits) -> ValueCode:
    weight = sum(bits)
    if weight == 0:
        return ValueCode(CodeKind.NULL, None, bits)
    if weight == 1:
        return ValueCode(CodeKind.VALID, bits.index(1), bits)
    return ValueCode(CodeKind.FORBIDDEN, None, bits)


# The code of every 0/1 pattern of up to MAX_ARITY wires, built once.
_CODES_4PH = {
    bits: _classify_4ph(bits)
    for n in range(MAX_ARITY + 1)
    for bits in itertools.product((0, 1), repeat=n)
}


def decode_4ph(wires: Sequence[int]) -> ValueCode:
    """Classify a one-of-n wire pattern.

    All-zero is NULL, a single 1 at index i is Valid(i), anything else is
    Forbidden.  Forbidden is returned as a value rather than raised so a
    simulation can log the pattern and keep running.  A 0/1 pattern of up to
    ``MAX_ARITY`` wires returns a shared, frozen instance from a table built
    at import; any other input is classified by the same rule, its wires
    converted with ``int``.
    """
    key = tuple(wires)
    code = _CODES_4PH.get(key)
    if code is None:
        code = _classify_4ph(tuple(int(b) for b in key))
    return code


def ledr_next(current: Sequence[int], value: int) -> Bits:
    """Next (data, repeat) pair after transmitting ``value``.

    A changed value toggles the data wire; a repeated value toggles the
    repeat wire.  Exactly one wire differs from ``current``.
    """
    if value not in (0, 1):
        raise EncodingError(f"LEDR value {value} is not a bit")
    d, r = current
    if value != d:
        return (value, r)
    return (d, r ^ 1)


def edge_next(current: Sequence[int], value: int) -> Bits:
    """Toggle wire ``value``; all other wires are unchanged."""
    if not 0 <= value < len(current):
        raise EncodingError(f"edge value {value} out of range for {len(current)} wires")
    bits = list(current)
    bits[value] ^= 1
    return tuple(bits)


def signal_parity(wires: Sequence[int]) -> int:
    """Parity of the Hamming weight; the phase of a two-phase signal."""
    p = 0
    for b in wires:
        p ^= int(b)
    return p
