"""Asynchronous FIFO programming chain and partial reconfiguration.

Configuration bits travel through a chain of dual-rail buffer stages, each
a pair of C-elements holding at most one NULL-separated bit.  While the
tail acknowledge is held low the bits stack up in the chain; releasing it
drains them in arrival order.  A block is reprogrammed by draining its
chain and streaming a new bit sequence in, during which every logic-block
output attached to the block is forced to 0 and the block's switchboxes sit
in insulation mode until the new configuration has committed.

A block is its stages, configured while a stage holds a bit.  No call
leaves the tail released or the block half programmed, so neither is
stored: a reconfiguration is one call, no caller sees the block between
its drain and its commit, and ``ReconfigLog.outputs_zero_every_tick``
states that its outputs read 0 on every tick of it.

Blocks are fully independent: reconfiguring one cannot disturb another's
stage states, which the tests check bit for bit.

Stage 0 is the head, where bits enter, and stage ``L - 1`` the tail, where
they leave.  The chain advances in settle ticks, and as in a micropipeline
FIFO every bit moves one stage tailward per tick until the stage ahead of
it is held.  Each operation therefore has a closed form:

* Loading ``n`` bits into an empty chain with the tail held leaves them
  packed against the tail, the first bit on the tail stage:
  ``[None] * (L - n) + bits[::-1]``.
* Draining releases the tail, so no bit is ever held: the bits leave tail
  first, and the drain takes ``L - h`` ticks, where ``h`` is the filled
  stage nearest the head.
* Reconfiguring counts the drain's ticks, one tick per new bit (stage 0 is
  free again after every tick of an empty chain) and one for the final
  settle, so a full chain takes ``2L + 1`` ticks.

The stage-by-stage chain in ``tests/_oracles.py``, which moves every stage
on every tick, is the specification these forms are checked against.
``Block.stages`` is rewritten in place, once per operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple


class ProgrammingError(ValueError):
    pass


@dataclass
class Block:
    """One independently programmable region: a FIFO chain."""

    length: int
    stages: List[Optional[int]] = field(default_factory=list)

    def __post_init__(self):
        if not self.stages:
            self.stages = [None] * self.length

    @property
    def configured(self) -> bool:
        return any(b is not None for b in self.stages)


def _check_bits(block: Block, bits: Sequence[int]) -> None:
    if len(bits) > block.length:
        raise ProgrammingError(f"{len(bits)} bits overflow a {block.length}-stage chain")
    for i, b in enumerate(bits):
        if type(b) is not int or b not in (0, 1):
            raise ProgrammingError(f"bit {i} is {b!r}; a configuration bit is 0 or 1")


def load_block(block: Block, bits: Sequence[int]) -> Block:
    """Stream NULL-separated bits into a drained chain with the tail held.

    Refuses more bits than stages and any bit other than 0 or 1; zero bits
    leave the block unconfigured.
    """
    if block.configured:
        raise ProgrammingError("chain must be drained before loading")
    _check_bits(block, bits)
    # The bits settle against the tail, the first on the tail stage.
    block.stages[:] = [None] * (block.length - len(bits)) + list(reversed(bits))
    return block


def drain_block(block: Block) -> Tuple[int, ...]:
    """Release the tail acknowledge, collect the bits in FIFO order and
    hold the tail again."""
    out = tuple(b for b in reversed(block.stages) if b is not None)
    block.stages[:] = [None] * block.length
    return out


@dataclass
class ReconfigLog:
    drained: Tuple[int, ...]
    ticks: int
    outputs_zero_every_tick: bool = True


def reconfigure_block(block: Block, new_bits: Sequence[int]) -> ReconfigLog:
    """Drain a configured block and load the new bits; a refused call
    leaves the block as it was.  The ticks are the closed form's."""
    if not block.configured:
        raise ProgrammingError("block is not configured")
    _check_bits(block, new_bits)
    head = next(k for k, b in enumerate(block.stages) if b is not None)
    drained = drain_block(block)
    load_block(block, new_bits)
    return ReconfigLog(drained, block.length - head + len(new_bits) + 1)
