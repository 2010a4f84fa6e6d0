"""Designs, seeded stimuli and the reference evaluator of the benchmark.

Everything here is plain data or pure functions of a ``random.Random``, so
the same seed always yields the same netlists, stimuli and expected outputs.
The program under test receives only the generated netlist text and the
stimulus values.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

PROTOCOLS = ("4ph", "ledr", "edge")

# Why a failing design stays in the benchmark: it is the mapper's documented
# blind spot (ROADMAP open item 4), and hiding it would make a later fix
# invisible.  Its failed ops are counted, reported and never dropped.
LEDR_3IN_DEFECT = (
    "ledr_3in is blind to the first input's phase (mapper.map_ledr_3in); "
    "ROADMAP open item 4"
)


@dataclass(frozen=True)
class Design:
    name: str
    text: str
    known_defect: Optional[str] = None
    # Failure reasons the defect produces; any other failure is unexpected.
    symptoms: Tuple[str, ...] = ()


def two_input_netlist(proto: str, bits: int) -> str:
    """One two-input gate computing truth table ``bits`` (criterion 1)."""
    ack = " ack" if proto in ("4ph", "edge") else ""
    return (
        f"signal x proto={proto} arity=2\n"
        f"signal y proto={proto} arity=2\n"
        f"signal o proto={proto} arity=2\n"
        f"gate g fn={bits:x} in=x,y out=o{ack}\n"
    )


def ternary_table(f: Callable[[int, int], int]) -> int:
    """Two-bit-per-entry truth table of a ternary two-input function."""
    return sum(f(x, y) << (2 * (x + 3 * y)) for x in range(3) for y in range(3))


def _signals(proto: str, names: str, arity: int = 2) -> str:
    return "".join(f"signal {n} proto={proto} arity={arity}\n" for n in names)


# One DAG per protocol; together they cover every shape the mapper accepts:
# 4ph 2-in with ack, 3-in and ternary 2-in; LEDR 2-in and 3-in; edge 2-in.
# Each has fanout that reconverges further down.
STREAM_DESIGNS = (
    Design(
        "dag4ph",
        _signals("4ph", "abcdpqr")
        + _signals("4ph", "tuvw", 3)
        + "gate g1 fn=6 in=a,b out=p ack\n"          # p = a xor b
        + "gate g2 fn=e8 in=p,b,c out=q\n"           # q = maj(p, b, c)
        + "gate g3 fn=8 in=p,d out=r ack\n"          # r = p and d
        + f"gate g4 fn={ternary_table(lambda x, y: (x + y) % 3):x} in=t,u out=v\n"
        + f"gate g5 fn={ternary_table(max):x} in=v,t out=w\n",
    ),
    Design(
        "dagledr",
        _signals("ledr", "xyzao")
        + "gate g1 fn=6 in=x,y out=a\n"              # a = x xor y
        + "gate g2 fn=e8 in=a,y,z out=o\n",          # o = maj(a, y, z)
        known_defect=LEDR_3IN_DEFECT,
        # Extra outputs under any delays; under some jitter draws the extra
        # acknowledges also stall the handshake.
        symptoms=("spurious outputs", "deadlock"),
    ),
    Design(
        "dagedge",
        _signals("edge", "xyzabo")
        + "gate g1 fn=6 in=x,y out=a ack\n"          # a = x xor y
        + "gate g2 fn=8 in=a,z out=b ack\n"          # b = a and z
        + "gate g3 fn=e in=b,x out=o ack\n",         # o = b or x
    ),
)

# The side-channel flow audits designs whose uniform traces pass every
# property, so each check has a definite expected verdict.
AUDIT_DESIGNS = (
    Design(
        "aud4ph",
        _signals("4ph", "abcdpqr")
        + "gate g1 fn=6 in=a,b out=p ack\n"
        + "gate g2 fn=e8 in=p,b,c out=q\n"
        + "gate g3 fn=8 in=p,d out=r ack\n",
    ),
    Design(
        "audledr",
        _signals("ledr", "xyzao")
        + "gate g1 fn=6 in=x,y out=a\n"
        + "gate g2 fn=8 in=a,z out=o\n",
    ),
    Design(
        "audedge",
        _signals("edge", "xyzao")
        + "gate g1 fn=6 in=x,y out=a ack\n"
        + "gate g2 fn=e in=a,z out=o ack\n",
    ),
)


def length4_sequences() -> List[Tuple[List[int], List[int]]]:
    """All 256 (x, y) input sequences of length 4 (criterion 1)."""
    steps = list(itertools.product(range(2), repeat=2))
    return [
        ([p[0] for p in seq], [p[1] for p in seq])
        for seq in itertools.product(steps, repeat=4)
    ]


def random_stimulus(
    rng: random.Random, net, inputs: Sequence[str], n: int
) -> Dict[str, List[int]]:
    """``n`` uniformly drawn values per primary input."""
    return {s: [rng.randrange(net.signals[s].arity) for _ in range(n)] for s in inputs}


def reference_outputs(
    net, gate_function: Callable, stimulus: Dict[str, List[int]]
) -> Dict[str, List[int]]:
    """Expected value sequence of every primary output.

    Composes the gates' truth tables in topological order, value index by
    value index; this is what a delay-insensitive pipeline must deliver.
    """
    values: Dict[str, List[int]] = {s: list(v) for s, v in stimulus.items()}
    pending = list(net.gates)
    while pending:
        ready = [g for g in pending if all(s in values for s in g.inputs)]
        if not ready:
            raise ValueError("netlist inputs without stimulus or a cycle")
        for g in ready:
            f = gate_function(g, net)
            values[g.output] = [f(*vals) for vals in zip(*(values[s] for s in g.inputs))]
            pending.remove(g)
    return {s: values[s] for s in net.primary_outputs()}
