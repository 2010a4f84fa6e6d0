"""The benchmark's workloads: sweep, stream and audit.

Each workload is built from a seed by ``setup``, which makes the stimuli and
does all of the program's own preparation, and ``reference`` then computes
the expected outputs, which is the benchmark's work and so is not part of
set-up time.  A workload runs unit by unit; ``units`` lists one pass over its
fixed corpus.  Only the program's own calls are timed: reference checks,
digests and file reads for verification happen outside the timer.  A timed
call is recorded as an interval of process CPU time; between calls the
workload lets its ``hostspeed.Speedometer`` take a reference sample, by which
the benchmark later scales each interval (see hostspeed.py).  Time in the
property checkers is kept apart from the rest, so that the simulation rates
do not include it.  Every call into the program goes through a module
attribute (``q.simulator.run``, ``q.cli.main`` ...) so that the traced run's
wrappers see it.

An op is one simulation in ``sweep``, one design x delay-model run in
``stream`` and one CLI command in ``audit``.  A failed op is recorded with its
reason and never dropped; ops on a design with a documented defect are
marked as expected failures only when they show one of that defect's
symptoms.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import re
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import designs
import hostspeed

clock = hostspeed.clock


@dataclass
class UnitResult:
    unit: int
    # (start, end) clock readings of program calls, checkers excluded, and of
    # property checker calls
    spans: List[Tuple[float, float]] = field(default_factory=list)
    check_spans: List[Tuple[float, float]] = field(default_factory=list)
    seconds: float = 0.0  # spans scaled to the reference host, summed
    check_seconds: float = 0.0  # check_spans likewise
    attempted: int = 0
    # (op, reason, the known defect it shows or None)
    failures: List[Tuple[str, str, Optional[str]]] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)  # integrity errors that are not ops
    sims: int = 0
    values: int = 0  # primary-input values whose producer handshake completed
    events: int = 0
    ticks: int = 0  # summed end times of every run
    uniform_ticks: int = 0
    uniform_values: int = 0  # values per input, summed over uniform-delay runs
    checked_txns: int = 0
    digest: str = ""
    plb_steps: int = 0  # filled in by the traced run

    def fail(self, op: str, reason: str, design: designs.Design) -> None:
        known = reason.startswith(design.symptoms)
        self.failures.append((op, reason, design.known_defect if known else None))

    def exact(self) -> tuple:
        """Everything that must repeat bit for bit when the unit runs again."""
        return (self.attempted, self.failures, self.problems, self.sims, self.values,
                self.events, self.ticks, self.uniform_ticks, self.checked_txns,
                self.digest)


def run_problem(trace, expected: Dict[str, List[int]]) -> Optional[str]:
    """Why a simulation failed, or None.  The kernel flags a timeout as a
    deadlock too; its ``max_time ... reached`` diagnostic tells them apart."""
    if any(d.startswith("max_time") for d in trace.diagnostics):
        return "timeout"
    if trace.deadlock:
        return "deadlock"
    wrong = [s for s, vals in expected.items() if trace.values_of(s) != vals]
    if wrong:
        kind = ("spurious outputs" if all(_inserts_only(expected[s], trace.values_of(s))
                                          for s in wrong) else "mismatch")
        return f"{kind} on " + ",".join(wrong)
    if trace.diagnostics:
        return "diagnostic: " + trace.diagnostics[0].split(" at t=")[0]
    return None


def _inserts_only(expected: List[int], got: List[int]) -> bool:
    """``got`` is ``expected`` with extra values inserted."""
    it = iter(got)
    return len(got) > len(expected) and all(any(g == e for g in it) for e in expected)


def digest_trace(h, trace) -> None:
    h.update("".join(f"{e.time},{e.wire},{e.new};" for e in trace.events).encode())
    h.update(repr(sorted(trace.records.items())).encode())
    h.update(repr(trace.diagnostics).encode())


def tally(res: UnitResult, trace, inputs, n: int, uniform: bool) -> None:
    res.sims += 1
    res.values += sum(len(trace.records.get(s, ())) for s in inputs)
    res.events += len(trace.events)
    res.ticks += trace.end_time()
    if uniform:
        res.uniform_ticks += trace.end_time()
        res.uniform_values += n


class Workload:
    name = ""

    def __init__(self, q, seed: int, size: str, workdir: str,
                 speed: hostspeed.Speedometer):
        self.q = q
        self.speed = speed
        self.seed = seed
        self.tiny = size == "tiny"
        self.workdir = workdir
        self.units: List[object] = []
        self.bitstream_sha256 = ""

    def setup(self) -> None:
        raise NotImplementedError

    def reference(self) -> None:
        raise NotImplementedError

    def run_unit(self, k: int) -> UnitResult:
        raise NotImplementedError


class Sweep(Workload):
    """Criterion-1 sweep: 16 two-input functions x {4ph, ledr, edge} x all
    256 length-4 sequences under uniform delays.  One unit is one function
    under all three protocols; before it, each protocol's block is
    reprogrammed through the programming chain."""

    name = "sweep"

    def setup(self) -> None:
        q, rng = self.q, random.Random(self.seed)
        funcs, seqs = list(range(16)), designs.length4_sequences()
        if self.tiny:
            funcs, seqs = rng.sample(funcs, 2), rng.sample(seqs, 8)
        self.units = rng.sample(funcs, len(funcs))
        self.sequences = rng.sample(seqs, len(seqs))
        h = hashlib.sha256()
        self.cases = {}
        for proto in designs.PROTOCOLS:
            for fn in funcs:
                net = q.netlist.parse_netlist(designs.two_input_netlist(proto, fn))
                fabric = q.simulator.fabric_from_netlist(net)
                h.update(q.bitstream.write_bitstream(fabric).encode())
                bits = [b for mg in fabric.mapped for unit in mg.plbs
                        for b in q.bitstream.config_bits(unit.config)]
                self.cases[(proto, fn)] = (net, fabric, bits)
        self.bitstream_sha256 = h.hexdigest()
        self.blocks: Dict[str, object] = {}
        self.loaded: Dict[str, List[int]] = {}

    def reference(self) -> None:
        gate_function = self.q.netlist.gate_function
        self.expected = {
            key: [designs.reference_outputs(net, gate_function, {"x": xs, "y": ys})
                  for xs, ys in self.sequences]
            for key, (net, _fabric, _bits) in self.cases.items()
        }

    def _program(self, res: UnitResult, proto: str, bits: List[int], k: int) -> None:
        chain = self.q.progchain
        self.speed.catch_up()
        try:
            t0 = clock()
            if k == 0:
                block = chain.load_block(chain.Block(len(bits)), bits)
            else:
                block = self.blocks[proto]
                log = chain.reconfigure_block(block, bits)
            res.spans.append((t0, clock()))
        except chain.ProgrammingError as exc:
            res.problems.append(f"progchain {proto}: {exc}")
            return
        if k > 0 and (log.drained != tuple(self.loaded[proto])
                      or not log.outputs_zero_every_tick):
            res.problems.append(f"progchain {proto}: drained bits differ from "
                                "the previous configuration")
        self.blocks[proto], self.loaded[proto] = block, bits

    def run_unit(self, k: int) -> UnitResult:
        q, fn = self.q, self.units[k]
        res, h = UnitResult(k), hashlib.sha256()
        design = designs.Design(f"fn={fn:x}", designs.two_input_netlist("4ph", fn))
        for proto in designs.PROTOCOLS:
            _net, fabric, bits = self.cases[(proto, fn)]
            self._program(res, proto, bits, k)
            for (xs, ys), exp in zip(self.sequences, self.expected[(proto, fn)]):
                op = f"{proto}/fn={fn:x}/x={xs}/y={ys}"
                res.attempted += 1
                self.speed.catch_up()
                try:
                    t0 = clock()
                    trace = q.simulator.run(fabric, {"x": xs, "y": ys})
                    t1 = clock()
                    self.speed.catch_up()
                    t2 = clock()
                    verdicts = q.simulator.check_single_toggle(trace)
                    res.check_spans.append((t2, clock()))
                    res.spans.append((t0, t1))
                except Exception as exc:  # an op boundary: record and go on
                    res.fail(op, f"exception {type(exc).__name__}", design)
                    continue
                tally(res, trace, ("x", "y"), len(xs), uniform=True)
                res.checked_txns += len(trace.markers)
                digest_trace(h, trace)
                reason = run_problem(trace, exp)
                if reason is None and not all(ok for ok, _ in verdicts.values()):
                    reason = "single-toggle verdict FAIL"
                if reason:
                    res.fail(op, reason, design)
        res.digest = h.hexdigest()
        return res


class Stream(Workload):
    """A few long runs: one multi-gate DAG per protocol, >= 1,000 seeded
    values per input, under uniform delays and under one jitter seed.  One
    unit is the whole pass of six runs."""

    name = "stream"

    def setup(self) -> None:
        q, rng = self.q, random.Random(self.seed)
        n = 20 if self.tiny else 1000
        self.n = n
        self.max_time = 100 * n + 1000  # several times the slowest cycle
        h = hashlib.sha256()
        self.cases = []
        for design in designs.STREAM_DESIGNS:
            net = q.netlist.parse_netlist(design.text)
            fabric = q.simulator.fabric_from_netlist(net)
            h.update(q.bitstream.write_bitstream(fabric).encode())
            inputs = net.primary_inputs()
            stim = designs.random_stimulus(rng, net, inputs, n)
            jitter_seed = rng.randrange(1, 1 << 30)
            self.cases.append((design, net, fabric, inputs, stim, jitter_seed))
        self.bitstream_sha256 = h.hexdigest()
        self.units = ["pass"]

    def reference(self) -> None:
        self.expected = [designs.reference_outputs(net, self.q.netlist.gate_function, stim)
                         for _design, net, _fabric, _inputs, stim, _seed in self.cases]

    def run_unit(self, k: int) -> UnitResult:
        q = self.q
        res, h = UnitResult(k), hashlib.sha256()
        for (design, _net, fabric, inputs, stim, jitter_seed), expected in zip(
                self.cases, self.expected):
            for uniform in (True, False):
                delays = (q.simulator.DelayModel() if uniform else
                          q.simulator.DelayModel(mode="jitter", seed=jitter_seed))
                op = f"{design.name}/{delays.mode}"
                res.attempted += 1
                self.speed.catch_up()
                try:
                    t0 = clock()
                    trace = q.simulator.run(fabric, stim, delays=delays,
                                            max_time=self.max_time)
                    t1 = clock()
                    self.speed.catch_up()
                    t2 = clock()
                    # The early-evaluation replay is only valid under
                    # uniform delays.
                    verdict = (q.simulator.check_no_early_evaluation(trace)
                               if uniform else (True, []))
                    res.check_spans.append((t2, clock()))
                    res.spans.append((t0, t1))
                except Exception as exc:  # an op boundary: record and go on
                    res.fail(op, f"exception {type(exc).__name__}", design)
                    continue
                tally(res, trace, inputs, self.n, uniform)
                if uniform:
                    res.checked_txns += len(trace.markers)
                digest_trace(h, trace)
                reason = run_problem(trace, expected)
                if reason is None and not verdict[0]:
                    reason = "no-early-eval verdict FAIL"
                if reason:
                    res.fail(op, reason, design)
        res.digest = h.hexdigest()
        return res


SIM_LINE = re.compile(r"simulated to t=(\d+): (\d+) events")
UNIFORM_GROUPS = 4  # uniform traces per design, plus one jittered pair


@dataclass
class _SimCase:
    stim_path: str
    csv_path: str
    stim: Dict[str, List[int]]
    uniform: bool
    expected: Dict[str, List[int]] = field(default_factory=dict)


@dataclass
class _AuditCase:
    design: designs.Design
    net: object
    net_path: str
    bit_path: str
    inputs: List[str]
    ledr: bool
    jitter_seed: int
    sims: List[_SimCase]


def read_csv_summary(text: str) -> Tuple[Dict[str, List[int]], int]:
    """Decoded values per signal and the transaction count of a trace CSV,
    read independently of the program's parser."""
    records: Dict[str, List[int]] = {}
    txns = 0
    for line in text.splitlines():
        if line.startswith("# record "):
            _, _, sig, _idx, value, _t = line.split()
            records.setdefault(sig, []).append(int(value))
        elif line.startswith("# transaction "):
            txns += 1
    return records, txns


def truncate(trace_cls, tr):
    """The first half (in simulated time) of a trace."""
    cut = tr.end_time() // 2
    return trace_cls(
        events=[e for e in tr.events if e.time <= cut],
        markers=[m for m in tr.markers if m[0] <= cut],
        records={s: [r for r in recs if r[1] <= cut] for s, recs in tr.records.items()},
        signals=tr.signals, gates=tr.gates, meta=tr.meta,
    )


class Audit(Workload):
    """The side-channel CLI flow in-process through ``qdifab.cli.main`` on
    files in a scratch directory: map each design, simulate one trace per
    input-value group plus a jittered pair, then check every property over
    those files.  One unit is the whole pass."""

    name = "audit"

    def setup(self) -> None:
        q, rng = self.q, random.Random(self.seed)
        n = 12 if self.tiny else 200
        self.n = n
        self.max_time = 100 * n + 1000
        self.cases: List[_AuditCase] = []
        for design in designs.AUDIT_DESIGNS:
            base = os.path.join(self.workdir, design.name)
            with open(base + ".net", "w") as fh:
                fh.write(design.text)
            net = q.netlist.parse_netlist(design.text)
            inputs = net.primary_inputs()
            sims = []
            for g in range(UNIFORM_GROUPS + 2):
                stim = designs.random_stimulus(rng, net, inputs, n)
                # Both partitions of the DPA selection must be non-empty,
                # and the jittered pair must carry different data.
                stim[inputs[0]][0] = g % 2
                stim_path = f"{base}.{g}.stim"
                with open(stim_path, "w") as fh:
                    fh.writelines(f"{s}: {','.join(map(str, v))}\n" for s, v in stim.items())
                sims.append(_SimCase(stim_path, f"{base}.{g}.csv", stim, g < UNIFORM_GROUPS))
            ledr = all(spec.protocol.value == "ledr" for spec in net.signals.values())
            self.cases.append(_AuditCase(design, net, base + ".net", base + ".bit", inputs,
                                         ledr, self._mismatched_seed(rng, net), sims))
        self.units = ["pass"]

    def reference(self) -> None:
        for case in self.cases:
            for sim in case.sims:
                sim.expected = designs.reference_outputs(
                    case.net, self.q.netlist.gate_function, sim.stim)

    def _mismatched_seed(self, rng: random.Random, net) -> int:
        """A jitter seed under which the wires of every signal get pairwise
        different delays.  A draw that happens to match them is matched
        routing, under which the timing check rightly passes."""
        while True:
            seed = rng.randrange(1, 1 << 30)
            delays = self.q.simulator.DelayModel(mode="jitter", seed=seed)
            if all(len({delays.wire_delay(w) for w in spec.wire_names()}) == spec.wire_count
                   for spec in net.signals.values()):
                return seed

    def _cli(self, res: UnitResult, design, op: str, argv: List[str],
             expect: int) -> Optional[str]:
        """Run one CLI command; returns its output, or None if the op failed.
        The time of a ``check`` command counts as checker time."""
        res.attempted += 1
        buf = io.StringIO()
        self.speed.catch_up()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                t0 = clock()
                try:
                    rc = self.q.cli.main(argv)
                except SystemExit as exc:  # argparse usage errors
                    rc = exc.code
                (res.check_spans if argv[0] == "check" else res.spans).append((t0, clock()))
        except Exception as exc:  # an op boundary: record and go on
            res.fail(op, f"exception {type(exc).__name__}", design)
            return None
        if rc != expect:
            res.fail(op, f"exit code {rc}, expected {expect}", design)
            return None
        return buf.getvalue()

    def run_unit(self, k: int) -> UnitResult:
        res, h, hb = UnitResult(k), hashlib.sha256(), hashlib.sha256()
        for case in self.cases:
            d = case.design
            if self._cli(res, d, f"{d.name}/map",
                         ["map", case.net_path, "-o", case.bit_path], 0) is not None:
                with open(case.bit_path, "rb") as fh:
                    hb.update(fh.read())
            txns: Dict[str, int] = {}
            varied: Dict[str, int] = {}  # signals whose values vary, per trace
            for g, sim in enumerate(case.sims):
                delays = "uniform" if sim.uniform else f"jitter:{case.jitter_seed}"
                op = f"{d.name}/sim{g}"
                out = self._cli(res, d, op, [
                    "sim", case.bit_path, "--stimulus", sim.stim_path, "--delays", delays,
                    "--max-time", str(self.max_time), "--trace", sim.csv_path], 0)
                if out is None:
                    continue
                with open(sim.csv_path, "rb") as fh:
                    data = fh.read()
                h.update(data)
                records, txns[sim.csv_path] = read_csv_summary(data.decode())
                varied[sim.csv_path] = sum(1 for v in records.values() if len(set(v)) > 1)
                m = SIM_LINE.search(out)
                end, events = (int(m.group(1)), int(m.group(2))) if m else (0, 0)
                res.sims += 1
                res.values += sum(len(records.get(s, ())) for s in case.inputs)
                res.events += events
                res.ticks += end
                if sim.uniform:
                    res.uniform_ticks += end
                    res.uniform_values += self.n
                wrong = [s for s, v in sim.expected.items() if records.get(s) != v]
                if wrong:
                    res.fail(op, "mismatch on " + ",".join(wrong), d)
            uni = [s.csv_path for s in case.sims if s.uniform]
            jit = [s.csv_path for s in case.sims if not s.uniform]
            checks = [
                ("single-toggle", uni, [], 0),
                ("no-early-eval", uni, [], 0),
                ("toggle-count", uni, [], 0),
                ("timing", uni, [], 0),
                ("timing", jit, [], 1),  # mismatched delays must show
                ("dpa", uni, ["--select", case.inputs[0]], 0),
                ("ledr-risk", uni, [], 0),
            ]
            for prop, files, extra, expect in checks:
                op = f"{d.name}/check-{prop}" + ("-jitter" if files is jit else "")
                if any(f not in txns for f in files):
                    res.attempted += 1
                    res.fail(op, "input trace missing", d)
                    continue
                out = self._cli(res, d, op, ["check", *files, "--property", prop, *extra],
                                expect)
                res.checked_txns += sum(txns[f] for f in files)
                if out is not None and prop == "ledr-risk":
                    # A constant value sequence carries no evidence, so only
                    # signals whose values vary can be flagged.
                    flagged = out.count("(level reveals value)")
                    expected = sum(varied[f] for f in files) if case.ledr else 0
                    if flagged != expected:
                        res.fail(op, f"{flagged} signals flagged, expected {expected}", d)
        res.digest = h.hexdigest()
        self.bitstream_sha256 = hb.hexdigest()
        return res

    def scale2x(self, reps: int = 3) -> Dict[str, float]:
        """Time of each analysis at full trace length over its time at half
        length: about 2 when linear, about 4 when quadratic."""
        q = self.q
        sim, sc = q.simulator, q.sidechannel
        full, half = [], []
        for case in self.cases:
            trs = []
            for s in case.sims:
                if s.uniform:
                    with open(s.csv_path) as fh:
                        trs.append(q.trace.Trace.from_csv(fh.read()))
            full.append((trs, case.inputs[0]))
            half.append(([truncate(q.trace.Trace, t) for t in trs], case.inputs[0]))
        probes = {
            "check.single_toggle_us_per_txn":
                lambda trs, sel: [sim.check_single_toggle(t) for t in trs],
            "check.no_early_eval_us_per_txn":
                lambda trs, sel: [sim.check_no_early_evaluation(t) for t in trs],
            "sidechannel.toggle_profile_us_per_txn":
                lambda trs, sel: sc.toggle_count_profile(dict(enumerate(trs))),
            "sidechannel.timing_spread_us_per_txn":
                lambda trs, sel: sc.timing_spread(dict(enumerate(trs))),
            "sidechannel.dpa_us_per_txn":
                lambda trs, sel: sc.dpa_difference_of_means(trs, sel),
            "sidechannel.level_corr_us_per_txn":
                lambda trs, sel: [sc.level_value_correlation(t, s) for t in trs
                                  for s in t.signals if t.records.get(s)],
        }

        def timed(probe, sets) -> float:
            samples = []
            for _ in range(reps):
                t0 = clock()
                for trs, sel in sets:
                    probe(trs, sel)
                samples.append(clock() - t0)
            return statistics.median(samples)

        return {f"{metric}.scale2x": timed(p, full) / timed(p, half)
                for metric, p in probes.items()}


WORKLOADS = {w.name: w for w in (Sweep, Stream, Audit)}
