"""Bit-exact configuration serialization.

Per logic block, in placement order: the four LUT tables (64 bits each,
entry 0 first, input pin 0 as the least significant bit of the entry
index), then the programming points in fixed order: feedback selection for
input pins 0..3 (for each pin, LUTs 0..3), the two memory-point bypasses,
the two OR-bypass selectors and the output-grouping selector.  277 bits per
block, zero-padded to 280 and written as lowercase hex, one block per
line; the first bit of the stream is the most significant bit of the first
hex digit.

The pin and output wiring of each block travels in comment headers above
the hex lines, so a bitstream file is a complete, simulatable design.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .encodings import Protocol, SignalSpec
from .mapper import MappedGate, PlbUnit
from .plb import NC, LutTable, PlbConfig, WireRef
from .simulator import Fabric
from .trace import GateInfo

CONFIG_BITS = 4 * 64 + 16 + 2 + 2 + 1  # 277


class BitstreamError(ValueError):
    pass


def config_bits(config: PlbConfig) -> List[int]:
    bits: List[int] = []
    for lut in config.luts:
        bits.extend((lut.bits >> i) & 1 for i in range(64))
    for pin in range(4):
        for k in range(4):
            bits.append(1 if config.feedback_sel[k][pin] else 0)
    bits.extend(1 if b else 0 for b in config.mem_bypass)
    bits.extend(1 if b else 0 for b in config.or6_bypass_sel)
    bits.append(1 if config.combine_sel else 0)
    assert len(bits) == CONFIG_BITS
    return bits


def config_from_bits(bits: Sequence[int], assignment) -> PlbConfig:
    if len(bits) < CONFIG_BITS:
        raise BitstreamError(f"expected {CONFIG_BITS} bits, got {len(bits)}")
    pos = 0
    luts = []
    for _ in range(4):
        value = 0
        for i in range(64):
            value |= (bits[pos] & 1) << i
            pos += 1
        luts.append(LutTable(value))
    fb = [[False] * 6 for _ in range(4)]
    for pin in range(4):
        for k in range(4):
            fb[k][pin] = bool(bits[pos])
            pos += 1
    mem = (bool(bits[pos]), bool(bits[pos + 1]))
    pos += 2
    orb = (bool(bits[pos]), bool(bits[pos + 1]))
    pos += 2
    combine = bool(bits[pos])
    return PlbConfig(
        luts=tuple(luts),
        feedback_sel=tuple(tuple(r) for r in fb),
        mem_bypass=mem,
        or6_bypass_sel=orb,
        combine_sel=combine,
        input_assignment=assignment,
    )


def bits_to_hex(bits: Sequence[int]) -> str:
    padded = list(bits) + [0] * (-len(bits) % 4)
    digits = []
    for i in range(0, len(padded), 4):
        b0, b1, b2, b3 = padded[i : i + 4]
        digits.append(format((b0 << 3) | (b1 << 2) | (b2 << 1) | b3, "x"))
    return "".join(digits)


def hex_to_bits(text: str) -> List[int]:
    bits: List[int] = []
    for ch in text.strip():
        v = int(ch, 16)
        bits.extend(((v >> 3) & 1, (v >> 2) & 1, (v >> 1) & 1, v & 1))
    return bits


def _ref_str(ref: Optional[WireRef]) -> str:
    if ref is NC or ref is None:
        return "-"
    return f"{ref.signal}:{ref.index}:{ref.width}"


def _ref_parse(tok: str) -> Optional[WireRef]:
    if tok == "-":
        return NC
    sig, idx, width = tok.rsplit(":", 2)
    return WireRef(sig, int(idx), int(width))


def write_bitstream(fabric: Fabric) -> str:
    lines = ["# qdifab-bitstream v1"]
    for name in sorted(fabric.signals):
        spec = fabric.signals[name]
        lines.append(
            f"# signal {name} proto={spec.protocol.value} arity={spec.arity}"
        )
    for g in fabric.gates:
        lines.append(
            f"# gate {g.name} proto={g.protocol} in={','.join(g.inputs)} "
            f"out={g.output} ack={int(g.ack)}"
        )
    hex_lines = []
    idx = 0
    for mg in fabric.mapped:
        for name, width in mg.internal_signals:
            lines.append(f"# internal {name} {width}")
        for unit in mg.plbs:
            ins = ";".join(_ref_str(r) for r in unit.config.input_assignment)
            outs = ";".join(_ref_str(r) for r in unit.output_map)
            souts = ";".join(s if s else "-" for s in unit.sout_map)
            lines.append(
                f"# plb {idx} gate={mg.name} role={unit.role} "
                f"in={ins} out={outs} sout={souts}"
            )
            hex_lines.append(bits_to_hex(config_bits(unit.config)))
            idx += 1
    return "\n".join(lines + hex_lines) + "\n"


_USAGE = {
    "signal": "# signal <name> proto=<4ph|ledr|edge> arity=<int>",
    "gate": "# gate <name> proto=<4ph|ledr|edge> in=<signal>,... out=<signal> ack=<int>",
    "internal": "# internal <signal> <width>",
    "plb": "# plb <index> gate=<name> role=<role> in=<12 pins> out=<4 pins> sout=<2 wires>"
           " (a pin is - or <signal>:<index>:<width>, pins and wires joined by ;)",
    "hex": "<hex digits of one block>",
}


def read_bitstream(text: str) -> Fabric:
    """Inverse of :func:`write_bitstream`.

    A malformed line, such as an unknown protocol, a missing or malformed
    ``key=value`` field, a bad pin binding or hex digit, a gate naming an
    undeclared signal or a signal that no gate connects, raises
    :class:`BitstreamError` whose message starts with ``line <n>:``.  So
    does a block binding a wire of anything but a declared or ``# internal``
    signal; besides those, a pin may read ``<signal>.ackin`` and an ack
    output (``sout``) may drive ``<signal>.sout``, for a declared signal.
    """
    signals: dict[str, SignalSpec] = {}
    signal_lines: dict[str, int] = {}
    gates: List[GateInfo] = []
    gate_lines: List[int] = []
    plb_meta: List[dict] = []
    hex_lines: List[Tuple[int, List[int]]] = []
    pending_internals: List[Tuple[str, int]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            toks = line[1:].split()
            tag = toks[0] if toks else ""
        else:
            tag = "hex"
        try:
            if tag == "hex":
                hex_lines.append((lineno, hex_to_bits(line)))
            elif tag == "signal":
                kv = dict(t.split("=", 1) for t in toks[2:])
                signals[toks[1]] = SignalSpec(
                    toks[1], Protocol(kv["proto"]), int(kv["arity"])
                )
                signal_lines[toks[1]] = lineno
            elif tag == "gate":
                kv = dict(t.split("=", 1) for t in toks[2:])
                gates.append(GateInfo(
                    toks[1], Protocol(kv["proto"]).value, tuple(kv["in"].split(",")),
                    kv["out"], bool(int(kv["ack"])),
                ))
                gate_lines.append(lineno)
            elif tag == "internal":
                _, name, width = toks
                pending_internals.append((name, int(width)))
            elif tag == "plb":
                kv = dict(t.split("=", 1) for t in toks[2:])
                assignment = tuple(_ref_parse(t) for t in kv["in"].split(";"))
                outs = tuple(_ref_parse(t) for t in kv["out"].split(";"))
                souts = tuple(None if t == "-" else t for t in kv["sout"].split(";"))
                if (len(assignment), len(outs), len(souts)) != (12, 4, 2):
                    raise ValueError("wrong number of bindings")
                plb_meta.append(dict(
                    lineno=lineno, gate=kv["gate"], role=kv["role"], assignment=assignment,
                    outs=outs, souts=souts, internals=tuple(pending_internals),
                ))
                pending_internals = []
        except (IndexError, KeyError, ValueError):
            raise BitstreamError(f"line {lineno}: expected '{_USAGE[tag]}'") from None

    for lineno, g in zip(gate_lines, gates):
        for sig in (*g.inputs, g.output):
            if sig not in signals:
                raise BitstreamError(
                    f"line {lineno}: gate {g.name}: {sig!r} is not a declared signal")
    connected = {s for g in gates for s in (*g.inputs, g.output)}
    for sig, lineno in signal_lines.items():
        if sig not in connected:
            raise BitstreamError(f"line {lineno}: signal {sig!r} connects to no gate")
    wire_names = set(signals)
    for meta in plb_meta:
        wire_names.update(name for name, _ in meta["internals"])
    pin_names = wire_names | {f"{s}.ackin" for s in signals}
    sout_names = {f"{s}.sout" for s in signals}
    for meta in plb_meta:
        bound = [(ref.signal, pin_names) for ref in meta["assignment"] if ref is not None]
        bound += [(ref.signal, wire_names) for ref in meta["outs"] if ref is not None]
        bound += [(name, sout_names) for name in meta["souts"] if name is not None]
        for name, legal in bound:
            if name not in legal:
                raise BitstreamError(
                    f"line {meta['lineno']}: block binds {name!r}, which is not "
                    f"a declared or internal signal or its acknowledge")
    if len(hex_lines) != len(plb_meta):
        raise BitstreamError(
            f"{len(plb_meta)} block headers but {len(hex_lines)} hex lines"
        )

    by_gate: dict[str, List[PlbUnit]] = {}
    gate_internals: dict[str, Tuple[Tuple[str, int], ...]] = {}
    for meta, (lineno, bits) in zip(plb_meta, hex_lines):
        try:
            config = config_from_bits(bits, meta["assignment"])
        except BitstreamError as exc:
            raise BitstreamError(f"line {lineno}: {exc}") from None
        gname = meta["gate"]
        by_gate.setdefault(gname, []).append(
            PlbUnit(meta["role"], config, meta["outs"], meta["souts"]))
        if meta["internals"]:
            gate_internals[gname] = meta["internals"]

    proto_of = {g.name: g.protocol for g in gates}
    mapped = [
        MappedGate(
            name=gname,
            protocol=Protocol(proto_of.get(gname, "4ph")),
            plbs=tuple(units),
            internal_signals=gate_internals.get(gname, ()),
        )
        for gname, units in by_gate.items()
    ]
    return Fabric(signals, mapped, gates)
