"""Asynchronous FIFO programming chain and partial reconfiguration.

Configuration bits travel through a chain of dual-rail buffer stages, each
a pair of C-elements holding at most one NULL-separated bit.  While the
tail acknowledge is held low the bits stack up in the chain; releasing it
drains them in arrival order.  A block is reprogrammed by draining its
chain and streaming a new bit sequence in, during which every logic-block
output attached to the block is forced to 0 and the block's switchboxes sit
in insulation mode until the new configuration has committed.

Blocks are fully independent: reconfiguring one cannot disturb another's
stage states, which the tests check bit for bit.

The chain advances in settle ticks.  Stage 0 is the head, where bits
enter, and stage ``length - 1`` the tail, where they leave.  A run is a
maximal stretch of filled stages.  In one tick every run whose tail-side
neighbour stage is empty at the start of the tick moves one stage tailward
(only a run that ends on the tail stage stays), and then a bit waiting at
the input enters stage 0 if that stage is empty.  While draining, the bit on
the tail stage, if any, leaves just before each tick.  A chain settles when
no run can move, i.e. when its bits sit packed against the tail.

Bits never overtake one another, so an operation keeps the stored bits as
one queue (tail first, which is arrival order) and the runs as
(first stage, length) pairs.  A tick then costs time in proportion to the
number of runs, not to the chain length.  Loading fills the chain as one
run and settling leaves one run, so loading, draining or reconfiguring a
block programmed that way takes time linear in its length (a hand-made
stage pattern of k runs drains in at most k times that).
``Block.stages`` is rewritten once, when the operation ends.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Sequence, Tuple


class ProgrammingError(ValueError):
    pass


@dataclass
class Block:
    """One independently programmable region: a FIFO chain."""

    length: int
    stages: List[Optional[int]] = field(default_factory=list)
    tail_held: bool = True
    state: str = "unconfigured"  # unconfigured | programming | active

    def __post_init__(self):
        if not self.stages:
            self.stages = [None] * self.length

    @property
    def configured(self) -> bool:
        return self.state == "active"

    def outputs_forced_zero(self) -> bool:
        return self.state != "active"


class _Runs:
    """A block's chain during one operation: its bits, tail first, and its
    runs as [first stage, length], tail first."""

    def __init__(self, block: Block):
        self.block = block
        self.last = block.length - 1  # the tail stage
        self.bits: Deque[int] = deque()
        self.runs: List[List[int]] = []
        for k in range(block.length - 1, -1, -1):
            bit = block.stages[k]
            if bit is None:
                continue
            run = self.runs[-1] if self.runs else None
            if run is not None and run[0] == k + 1:
                run[0] = k
                run[1] += 1
            else:
                self.runs.append([k, 1])
            self.bits.append(bit)

    def tick(self, feed: Optional[int] = None) -> Optional[int]:
        """One settle tick; returns ``feed`` if stage 0 could not take it."""
        runs = self.runs
        held = bool(runs) and runs[0][0] + runs[0][1] > self.last
        for run in runs[held:]:
            run[0] += 1
        if held and len(runs) > 1 and runs[1][0] + runs[1][1] == runs[0][0]:
            runs[0][0] = runs[1][0]
            runs[0][1] += runs[1][1]
            del runs[1]
        if feed is None or (runs and runs[-1][0] == 0):
            return feed
        if runs and runs[-1][0] == 1:
            runs[-1][0] = 0
            runs[-1][1] += 1
        else:
            runs.append([0, 1])
        self.bits.append(feed)
        return None

    def drain(self) -> Tuple[Tuple[int, ...], int]:
        """With the tail released, take the bit on the tail stage, if any,
        and tick, until the chain is empty: (the bits out, the ticks)."""
        runs, out, ticks = self.runs, [], 0
        while runs:
            tail = runs[0]
            if tail[0] + tail[1] > self.last:
                out.append(self.bits.popleft())
                tail[1] -= 1
                if not tail[1]:
                    del runs[0]
            self.tick()
            ticks += 1
        return tuple(out), ticks

    def feed(self, bits: Sequence[int]) -> int:
        """Stream ``bits`` in, one tick per attempt: returns the ticks.

        Only called on an empty chain with no more bits than stages, where
        stage 0 is free again after every tick.
        """
        ticks = 0
        for bit in bits:
            while bit is not None:
                bit = self.tick(bit)
                ticks += 1
        return ticks

    def settle(self) -> None:
        """Tick until nothing moves: every bit packed against the tail."""
        if self.bits:
            self.runs = [[self.last + 1 - len(self.bits), len(self.bits)]]

    def commit(self) -> None:
        """Write the chain back into ``block.stages`` (the same list)."""
        stages: List[Optional[int]] = [None] * self.block.length
        bits = iter(self.bits)
        for start, n in self.runs:
            for k in range(start + n - 1, start - 1, -1):
                stages[k] = next(bits)
        self.block.stages[:] = stages


def _check_bits(block: Block, bits: Sequence[int]) -> None:
    if len(bits) > block.length:
        raise ProgrammingError(
            f"{len(bits)} bits overflow a {block.length}-stage chain"
        )
    for i, b in enumerate(bits):
        if type(b) is not int or b not in (0, 1):
            raise ProgrammingError(f"bit {i} is {b!r}; a configuration bit is 0 or 1")


def load_block(block: Block, bits: Sequence[int]) -> Block:
    """Stream NULL-separated bits into a reset chain with the tail held.

    Refuses more bits than stages and any bit other than 0 or 1; zero bits
    leave the block unconfigured.
    """
    if any(b is not None for b in block.stages):
        raise ProgrammingError("chain must be drained before loading")
    if not block.tail_held:
        raise ProgrammingError("tail acknowledge must be held during loading")
    _check_bits(block, bits)
    if not bits:
        block.state = "unconfigured"
        return block
    block.state = "programming"
    chain = _Runs(block)
    chain.feed(bits)
    chain.settle()
    chain.commit()
    block.state = "active"
    return block


def _drain(block: Block) -> Tuple[_Runs, Tuple[int, ...], int]:
    """Release the tail acknowledge, drain the chain and hold the tail
    again: (the empty chain, the bits in FIFO order, the ticks taken)."""
    block.tail_held = False
    block.state = "programming"
    chain = _Runs(block)
    out, ticks = chain.drain()
    block.tail_held = True
    return chain, out, ticks


def drain_block(block: Block) -> Tuple[int, ...]:
    """Release the tail acknowledge and collect the bits in FIFO order."""
    chain, out, _ticks = _drain(block)
    chain.commit()
    block.state = "unconfigured"
    return out


@dataclass
class ReconfigLog:
    drained: Tuple[int, ...]
    ticks: int
    outputs_zero_every_tick: bool


def reconfigure_block(block: Block, new_bits: Sequence[int]) -> ReconfigLog:
    """Drain a configured block, stream the new bits, re-hold the tail.

    Every drain tick and every feed tick counts, and the final settle counts
    as one, so a full chain of L stages takes 2L + 1 ticks.  The block's
    logic outputs read 0 on every tick of the operation, because its state
    stays "programming" until the last one; the switchboxes stay insulated
    until the load commits.
    """
    if not block.configured:
        raise ProgrammingError("block is not configured")
    _check_bits(block, new_bits)
    chain, drained, ticks = _drain(block)
    ticks += chain.feed(new_bits) + 1
    zero = block.outputs_forced_zero()
    chain.settle()
    chain.commit()
    block.state = "active" if new_bits else "unconfigured"
    return ReconfigLog(drained=drained, ticks=ticks, outputs_zero_every_tick=zero)
