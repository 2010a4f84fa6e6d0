"""Handshake building blocks: C-element, memory point, acknowledge logic.

All primitives are pure transition functions.  Sequencing and delays live in
the event kernel; a primitive computes its next output from an explicit
previous state, which keeps it deterministic and testable in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple


class StructuralError(ValueError):
    """Input shape does not match the element's declared shape."""


MAX_C_INPUTS = 6


@dataclass(frozen=True)
class CElementState:
    output: int = 0
    input_count: int = 2

    def __post_init__(self):
        if not 1 <= self.input_count <= MAX_C_INPUTS:
            raise StructuralError(f"C-element with {self.input_count} inputs")


def c_element_step(state: CElementState, inputs: Sequence[int]) -> int:
    """Rendez-vous of the inputs.

    Output rises when every input is 1, falls when every input is 0 and
    holds otherwise.
    """
    if len(inputs) != state.input_count:
        raise StructuralError(
            f"C-element expects {state.input_count} inputs, got {len(inputs)}"
        )
    if all(inputs):
        return 1
    if not any(inputs):
        return 0
    return state.output


def c_element_mux(prev: int, inputs: Sequence[int]) -> int:
    """Multiplexer realisation: Z = (Z and OR(I)) or AND(I).

    Behaviourally identical to :func:`c_element_step`; kept as the form the
    logic block actually wires up, and as an independent cross-check.
    """
    any_i = 1 if any(inputs) else 0
    all_i = 1 if all(inputs) else 0
    return (prev & any_i) | all_i


def ack_xor(output_wires: Sequence[int]) -> int:
    """Acknowledge-out: XOR of the wires carrying the output signal."""
    acc = 0
    for b in output_wires:
        acc ^= int(b)
    return acc


def or6(inputs: Sequence[int]) -> int:
    """Return-to-NULL detector: inclusive OR of the six group inputs."""
    if len(inputs) != 6:
        raise StructuralError(f"or6 expects 6 inputs, got {len(inputs)}")
    return 1 if any(inputs) else 0


@dataclass(frozen=True)
class MemoryPointState:
    """Pair of C-elements guarding one dual-rail output, plus its ack XOR.

    ``bypass`` is the single programming point that makes both C-elements
    transparent (output follows the first input of each pair combinationally).
    Both outputs reset to 0, consistent with the global all-zero reset.
    """

    out_a: int = 0
    out_b: int = 0
    bypass: int = 0


def memory_point_step(
    state: MemoryPointState, in_pairs: Tuple[Tuple[int, int], Tuple[int, int]]
) -> Tuple[int, int, int]:
    """Step both C-elements; returns (O_a, O_b, ack_out)."""
    (a0, a1), (b0, b1) = in_pairs
    if state.bypass:
        oa, ob = a0, b0
    else:
        oa = c_element_step(CElementState(state.out_a, 2), (a0, a1))
        ob = c_element_step(CElementState(state.out_b, 2), (b0, b1))
    return oa, ob, oa ^ ob
