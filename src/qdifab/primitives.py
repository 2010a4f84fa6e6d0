"""Handshake building blocks: the C-element and the return-to-NULL OR.

All primitives are pure transition functions.  Sequencing and delays live in
the event kernel; a primitive computes its next output from an explicit
previous state, which keeps it deterministic and testable in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


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


def or6(inputs: Sequence[int]) -> int:
    """Return-to-NULL detector: inclusive OR of the six group inputs."""
    if len(inputs) != 6:
        raise StructuralError(f"or6 expects 6 inputs, got {len(inputs)}")
    return 1 if any(inputs) else 0
