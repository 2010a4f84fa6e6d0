"""Bit-exact configuration serialization, and the fabric it describes.

Per logic block, in placement order: the four LUT tables (64 bits each,
entry 0 first, input pin 0 as the least significant bit of the entry
index), then the programming points in fixed order: feedback selection for
input pins 0..3 (for each pin, LUTs 0..3), the two memory-point bypasses,
the two OR-bypass selectors and the output-grouping selector.  277 bits per
block, zero-padded to 280 and written as lowercase hex, one block per
line; the first bit of the stream is the most significant bit of the first
hex digit.  A hex line is one ``plb.PlbConfig``, bit for bit.

The signals, the gates and the routing of each block travel in comment
headers above the hex lines, so a bitstream file is a complete, simulatable
design.  A ``# plb`` header is one ``mapper.PlbUnit``'s routing: ``in=``,
``out=`` and ``sout=`` are its ``input_map``, ``output_map`` and
``sout_map``.  Its text is the design's identity:
:meth:`Fabric.fingerprint` hashes it, and every trace names that hash.

The writer is the format: :func:`read_bitstream` accepts exactly the text
that :func:`write_bitstream` writes for the fabric it reads, line for line
(only the line-ending convention is free), so one fabric has one file.
Before that comparison it holds the file to the design rules of a netlist,
through the one function that checks both (``netlist._check``): gate names
are unique, every gate signal is declared, each signal has one
driver, a gate uses one protocol, the one its ``# gate`` line declares,
every declared signal connects to a gate, and the gates form a DAG.  On
top of those, a name is declared once in the file, as a ``# signal`` or as
an ``# internal`` signal; every ``# plb`` names a gate that has a
``# gate`` line; no two block outputs (O0..O3) or ``sout`` bindings in the
file drive one wire; and a block binds nothing outside its own gate: its
pins read only the gate's inputs, its output, its ``# internal`` signals
(declared above one of the gate's blocks) and ``<output>.ackin``; its
outputs drive only the output or the internal signals, and its ``sout``
only ``<output>.sout``.  A block of its gate binds every ``# internal``
line.  A binding ``<signal>:<index>:<width>`` has the width of its signal
(its wire count, the width of an ``# internal`` line, or 1 for
``<output>.ackin``) and an index below it.  Every gate has at least one
block, and its ``ack=`` says whether one of them reads ``<output>.ackin``
(:func:`reads_ack`).  Each block keeps the rules of ``plb.program_rules``:
at most one OR bypass, set only on an active memory point, and a reset
that settles with every output at 0.  The load-balance rule of
``plb.validate_config`` is left out: ``mapper.map_ledr_3in`` breaks it by
design.  A ``key=`` comes once per line, and every integer (an arity, a
binding's index and width, an ``# internal`` width) is ASCII decimal
digits; a malformed integer or a key given twice is refused with its
reason, as ``netlist.parse_netlist`` refuses it.  A file that breaks one of
these rules is refused by that rule, whatever else differs from the
writer's text.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Dict, List, Optional, Sequence, Tuple

from .encodings import EncodingError, Protocol, SignalSpec
from .mapper import MappedGate, PlbUnit
from .netlist import NetlistError, _check, _fields, _natural
from .plb import NC, LutTable, PlbConfig, WireRef, program_rules
from .trace import GATE_USAGE, GateInfo

CONFIG_BITS = 4 * 64 + 16 + 2 + 2 + 1  # 277


class BitstreamError(ValueError):
    pass


@dataclass
class Fabric:
    """Static description of a mapped design.

    Its signals are kept in name order, the order of the bitstream, so that
    every fabric with one fingerprint writes the same traces.  A fabric is
    not changed once it has been simulated: its first
    ``simulator.Simulation`` stores the fabric's elaboration in
    ``elaboration``, and every later one builds from that.
    """

    signals: Dict[str, SignalSpec]
    mapped: List[MappedGate]
    gates: List[GateInfo]
    elaboration: object = field(default=None, compare=False)

    def __post_init__(self):
        self.signals = dict(sorted(self.signals.items()))

    def fingerprint(self) -> str:
        """The first 16 hex digits of the sha256 of the fabric's bitstream."""
        return hashlib.sha256(write_bitstream(self).encode()).hexdigest()[:16]


def reads_ack(mg: MappedGate, output: str) -> bool:
    """Whether a block of ``mg`` reads ``<output>.ackin``, the ``ack=`` of
    its gate."""
    feed = f"{output}.ackin"
    return any(ref is not None and ref.signal == feed
               for unit in mg.plbs for ref in unit.input_map)


# Bit characters to bit values and back.
_TO_BITS = bytes.maketrans(b"01", b"\0\1")
_TO_CHARS = bytes.maketrans(b"\0\1", b"01")


def config_bits(config: PlbConfig) -> List[int]:
    luts = "".join(f"{lut.bits:064b}"[::-1] for lut in config.luts)
    bits = list(luts.encode().translate(_TO_BITS))
    flags = [config.feedback_sel[k][pin] for pin in range(4) for k in range(4)]
    flags += [*config.mem_bypass, *config.or6_bypass_sel, config.combine_sel]
    bits.extend(1 if b else 0 for b in flags)
    assert len(bits) == CONFIG_BITS
    return bits


def config_from_bits(bits: Sequence[int]) -> PlbConfig:
    """Inverse of :func:`config_bits` over bits of 0 and 1; bits past
    ``CONFIG_BITS`` are padding."""
    if len(bits) < CONFIG_BITS:
        raise BitstreamError(f"expected {CONFIG_BITS} bits, got {len(bits)}")
    luts = bytes(bits).translate(_TO_CHARS).decode()
    flags = [bool(b) for b in bits[256:CONFIG_BITS]]
    return PlbConfig(
        luts=tuple(LutTable(int(luts[i:i + 64][::-1], 2)) for i in range(0, 256, 64)),
        feedback_sel=tuple(tuple(flags[k:16:4]) for k in range(4)),
        mem_bypass=tuple(flags[16:18]),
        or6_bypass_sel=tuple(flags[18:20]),
        combine_sel=flags[20],
    )


def bits_to_hex(bits: Sequence[int]) -> str:
    """Bits of 0 and 1, zero-padded to whole hex digits, first bit most
    significant."""
    chars = bytes(bits).translate(_TO_CHARS) + b"0" * (-len(bits) % 4)
    return f"{int(chars, 2):0{len(chars) // 4}x}" if chars else ""


def hex_to_bits(text: str) -> List[int]:
    """Inverse of :func:`bits_to_hex` over ASCII hex digits."""
    return list(f"{int(text, 16):0{4 * len(text)}b}".encode().translate(_TO_BITS))


def _ref_str(ref: Optional[WireRef]) -> str:
    if ref is NC:
        return "-"
    return f"{ref.signal}:{ref.index}:{ref.width}"


def _ref_parse(tok: str) -> Optional[WireRef]:
    if tok == "-":
        return NC
    sig, idx, width = tok.rsplit(":", 2)
    return WireRef(sig, _natural(idx, "index"), _natural(width, "width"))


def write_bitstream(fabric: Fabric) -> str:
    lines = ["# qdifab-bitstream v1"]
    lines += [f"# signal {name} proto={spec.protocol.value} arity={spec.arity}"
              for name, spec in fabric.signals.items()]
    lines += [g.header() for g in fabric.gates]
    hex_lines = []
    for mg in fabric.mapped:
        lines += [f"# internal {name} {width}" for name, width in mg.internal_signals]
        for unit in mg.plbs:
            ins = ";".join(_ref_str(r) for r in unit.input_map)
            outs = ";".join(_ref_str(r) for r in unit.output_map)
            souts = ";".join(s if s else "-" for s in unit.sout_map)
            lines.append(f"# plb {len(hex_lines)} gate={mg.name} role={unit.role} "
                         f"in={ins} out={outs} sout={souts}")
            hex_lines.append(bits_to_hex(config_bits(unit.config)))
    return "\n".join(lines + hex_lines) + "\n"


_USAGE = {
    "signal": "# signal <name> proto=<4ph|ledr|edge> arity=<int>",
    "gate": GATE_USAGE,
    "internal": "# internal <signal> <width>",
    "plb": "# plb <index> gate=<name> role=<role> in=<12 pins> out=<4 pins> sout=<2 wires>"
           " (a pin is - or <signal>:<index>:<width>, pins and wires joined by ;)",
}


def read_bitstream(text: str) -> Fabric:
    """Inverse of :func:`write_bitstream`.  A malformed line, a broken rule
    of the module docstring or, past those, the first line that differs
    from the fabric's own text raises :class:`BitstreamError`, whose
    message starts with ``line <n>:``."""
    signals: Dict[str, SignalSpec] = {}
    declared: Dict[str, Tuple[str, int]] = {}  # signal or internal -> its kind, its line
    gates: List[GateInfo] = []
    gate_lines: List[int] = []
    plb_meta: List[dict] = []
    hex_lines: List[Tuple[int, PlbConfig]] = []
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
                _natural(line, "block", base=16)  # int() also reads signs, _ and 0x
                hex_lines.append((lineno, config_from_bits(hex_to_bits(line))))
            elif tag == "signal":
                kv = _fields(toks[2:])
                spec = SignalSpec(toks[1], Protocol(kv["proto"]), _natural(kv["arity"], "arity"))
            elif tag == "gate":
                gates.append(GateInfo.from_header(toks))
                gate_lines.append(lineno)
            elif tag == "internal":
                _, name, width = toks
                pending_internals.append((name, _natural(width, "width")))
            elif tag == "plb":
                kv = _fields(toks[2:])
                ins = tuple(_ref_parse(t) for t in kv["in"].split(";"))
                outs = tuple(_ref_parse(t) for t in kv["out"].split(";"))
                souts = tuple(None if t == "-" else t for t in kv["sout"].split(";"))
                if (len(ins), len(outs), len(souts)) != (12, 4, 2):
                    raise ValueError("wrong number of bindings")
                plb_meta.append(dict(
                    lineno=lineno, gate=kv["gate"], role=kv["role"], ins=ins,
                    outs=outs, souts=souts, internals=tuple(pending_internals),
                ))
                pending_internals = []
        # A signal that no SignalSpec admits, a key given twice, a
        # malformed integer or a short block line: its reason.
        except (EncodingError, NetlistError, BitstreamError) as exc:
            raise BitstreamError(f"line {lineno}: {exc}") from None
        except (IndexError, KeyError, ValueError):
            raise BitstreamError(f"line {lineno}: expected '{_USAGE[tag]}'") from None
        if tag in ("signal", "internal"):
            name, kind = toks[1], ("signal" if tag == "signal" else "internal signal")
            if name in declared:
                first, first_line = declared[name]
                raise BitstreamError(f"line {lineno}: {kind} {name!r} " + (
                    "declared twice" if first == kind
                    else f"has the name of the {first} on line {first_line}"))
            declared[name] = kind, lineno
            if tag == "signal":
                signals[name] = spec

    try:
        _check(signals, {name: declared[name][1] for name in signals}, gates, gate_lines)
    except NetlistError as exc:
        raise BitstreamError(str(exc)) from None
    gate_of = {g.name: g for g in gates}
    internals: Dict[str, Tuple[Tuple[str, int], ...]] = {}
    driven: Dict[str, int] = {}  # every wire a block drives -> the block's line
    bound_by: Dict[str, set] = {}  # gate -> the signals its blocks bind
    for meta in plb_meta:
        g = gate_of.get(meta["gate"])
        if g is None:
            raise BitstreamError(f"line {meta['lineno']}: block of gate {meta['gate']!r}, "
                                 f"which has no '# gate' line")
        internals[g.name] = internals.get(g.name, ()) + meta["internals"]
        # The width of each signal the block may drive, and may read.
        drives = {g.output: signals[g.output].wire_count, **dict(internals[g.name])}
        reads = {**drives, **{s: signals[s].wire_count for s in g.inputs},
                 f"{g.output}.ackin": 1}
        bound = [(ref, reads) for ref in meta["ins"] if ref is not None]
        bound += [(ref, drives) for ref in meta["outs"] if ref is not None]
        bound += [(WireRef(name, 0, 1), {f"{g.output}.sout": 1})
                  for name in meta["souts"] if name is not None]
        bound_by.setdefault(g.name, set()).update(ref.signal for ref, _ in bound)
        for ref, widths in bound:
            if ref.signal not in widths:
                raise BitstreamError(
                    f"line {meta['lineno']}: block binds {ref.signal!r}, which is not a "
                    f"signal of gate {g.name!r} or its acknowledge")
            if ref.width != widths[ref.signal] or not 0 <= ref.index < ref.width:
                raise BitstreamError(
                    f"line {meta['lineno']}: block binds {_ref_str(ref)}, but "
                    f"{ref.signal!r} has width {widths[ref.signal]}")
        for wire in ([_ref_str(ref) for ref in meta["outs"] if ref is not None]
                     + [name for name in meta["souts"] if name is not None]):
            if wire in driven:
                raise BitstreamError(f"line {meta['lineno']}: block drives {wire}, "
                                     f"already driven by line {driven[wire]}")
            driven[wire] = meta["lineno"]
    for g, lineno in zip(gates, gate_lines):
        if g.name not in internals:
            raise BitstreamError(f"line {lineno}: gate {g.name!r} has no '# plb' block")
    for gname, names in internals.items():
        for name, _ in names:
            if name not in bound_by[gname]:
                raise BitstreamError(f"line {declared[name][1]}: internal signal {name!r} is "
                                     f"bound by no block of gate {gname!r}")
    if len(hex_lines) != len(plb_meta):
        # The first hex line past the headers, or header past the hex lines.
        lineno = min([ln for ln, _ in hex_lines[len(plb_meta):]]
                     + [meta["lineno"] for meta in plb_meta[len(hex_lines):]])
        raise BitstreamError(
            f"line {lineno}: {len(plb_meta)} block headers but {len(hex_lines)} hex lines")

    by_gate: Dict[str, List[PlbUnit]] = {}
    for meta, (lineno, config) in zip(plb_meta, hex_lines):
        broken = program_rules(config)
        if broken:
            raise BitstreamError(f"line {lineno}: block breaks the block rules: "
                                 + "; ".join(broken))
        by_gate.setdefault(meta["gate"], []).append(
            PlbUnit(meta["role"], config, meta["ins"], meta["outs"], meta["souts"]))
    mapped = {gname: MappedGate(gname, tuple(units), internals[gname])
              for gname, units in by_gate.items()}
    for g, lineno in zip(gates, gate_lines):
        if g.ack != reads_ack(mapped[g.name], g.output):
            raise BitstreamError(
                f"line {lineno}: gate {g.name!r} has ack={int(g.ack)}, but its blocks "
                f"{'do not read' if g.ack else 'read'} {g.output}.ackin")
    fabric = Fabric(signals, list(mapped.values()), gates)
    # The writer is the format: so that one fabric has one file.
    for lineno, (line, canonical) in enumerate(
            zip_longest(text.splitlines(), write_bitstream(fabric).splitlines()), start=1):
        if line != canonical:
            raise BitstreamError(f"line {lineno}: expected " + (
                f"'{canonical}'" if canonical is not None else "the end of the file"))
    return fabric
