"""Independent reference models for the handshake equations and the trace
analyses.

The handshake models deliberately avoid the table/block evaluation path:
they are direct transcriptions of the output-wire case equations.  The trace
analysis models are the direct quadratic forms, which count every event again
for every transaction window.  Both are used as oracles.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from qdifab.encodings import CodeKind, decode_4ph
from qdifab.trace import Trace


def all_16_functions():
    """Every two-input Boolean function, keyed by truth-table bits."""
    return {bits: (lambda x, y, b=bits: (b >> (x + 2 * y)) & 1) for bits in range(16)}


class FourPhase2InOracle:
    """Case equation for a dual-rail two-input gate with memory effect."""

    def __init__(self, f, with_ack: bool = True):
        self.f = f
        self.with_ack = with_ack
        self.o = (0, 0)

    def step(self, x: Optional[int], y: Optional[int], ack: int):
        valid = x is not None and y is not None
        null = x is None and y is None
        if valid and (not self.with_ack or ack == 0):
            v = self.f(x, y)
            self.o = (1 if v == 0 else 0, 1 if v == 1 else 0)
        elif null and (not self.with_ack or ack == 1):
            self.o = (0, 0)
        return self.o


class FourPhase3InOracle:
    def __init__(self, f):
        self.f = f
        self.o = (0, 0)

    def step(self, x, y, z):
        if x is not None and y is not None and z is not None:
            v = self.f(x, y, z)
            self.o = (1 if v == 0 else 0, 1 if v == 1 else 0)
        elif x is None and y is None and z is None:
            self.o = (0, 0)
        return self.o


class Ternary2InOracle:
    def __init__(self, f):
        self.f = f
        self.o = (0, 0, 0)

    def step(self, x, y):
        if x is not None and y is not None:
            v = self.f(x, y)
            self.o = tuple(1 if v == i else 0 for i in range(3))
        elif x is None and y is None:
            self.o = (0, 0, 0)
        return self.o


class Ledr2InOracle:
    """Case equation for the level-encoded dual-rail two-input gate."""

    def __init__(self, f):
        self.f = f
        self.od = 0
        self.orr = 0

    def step(self, xd, xr, yd, yr, ack):
        px, py = xd ^ xr, yd ^ yr
        if px == 0 and py == 0 and ack == 1:
            v = self.f(xd, yd)
            self.od, self.orr = v, v
        elif px == 1 and py == 1 and ack == 0:
            v = self.f(xd, yd)
            self.od, self.orr = v, v ^ 1
        return self.od, self.orr


def toggles_per_transaction(
    trace: Trace, boundary: str, wires: Optional[Sequence[str]] = None
) -> List[int]:
    """Wire toggles inside each window between successive ``boundary``
    markers, the first window opening at -1."""
    wset = set(wires) if wires is not None else None
    counts = []
    prev = -1
    for hi in sorted(t for t, s, _ in trace.markers if s == boundary):
        counts.append(sum(
            1 for e in trace.events
            if prev < e.time <= hi and (wset is None or e.wire in wset)
        ))
        prev = hi
    return counts


def single_toggle_verdicts(trace: Trace) -> Dict[str, Tuple[bool, str]]:
    """Per-signal verdicts of the single-toggle property: the four-phase
    decode walk, then the change count of each window in marker order."""
    verdicts: Dict[str, Tuple[bool, str]] = {}
    for name, info in trace.signals.items():
        evs = trace.events_for(info.wires)
        ok, msg = True, "ok"
        if info.protocol == "4ph":
            levels = {w: 0 for w in info.wires}
            state = "null"
            for e in evs:
                levels[e.wire] = e.new
                code = decode_4ph([levels[w] for w in info.wires])
                if code.kind is CodeKind.FORBIDDEN:
                    ok, msg = False, f"forbidden pattern at t={e.time}"
                    break
                if code.kind is CodeKind.VALID and state == "valid":
                    ok, msg = False, f"valid-to-valid jump at t={e.time}"
                    break
                state = "valid" if code.kind is CodeKind.VALID else "null"
        if ok:
            expected = 2 if info.protocol == "4ph" else 1
            prev = -1
            for b in [t for t, s, _ in trace.markers if s == name]:
                n = sum(1 for e in evs if prev < e.time <= b)
                if n != expected:
                    ok, msg = False, (
                        f"{n} wire changes in transaction ending t={b} "
                        f"(expected {expected})"
                    )
                    break
                prev = b
        verdicts[name] = (ok, msg)
    return verdicts


def level_value_correlation(trace: Trace, signal: str) -> float:
    """1.0 when some wire's level at every completed transaction of
    ``signal`` equals the value or its complement, given two values."""
    info = trace.signals[signal]
    values = trace.records.get(signal, [])
    samples = []
    for t, idx in sorted((t, i) for t, s, i in trace.markers if s == signal):
        if idx < len(values):
            levels = {w: 0 for w in info.wires}
            for e in sorted(trace.events, key=lambda e: e.time):
                if e.time <= t and e.wire in levels:
                    levels[e.wire] = e.new
            samples.append((values[idx][0], tuple(levels[w] for w in info.wires)))
    if len({v for v, _ in samples}) < 2:
        return 0.0
    for w in range(len(info.wires)):
        if all(lv[w] == v for v, lv in samples) or all(lv[w] == v ^ 1 for v, lv in samples):
            return 1.0
    return 0.0
