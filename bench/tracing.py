"""Per-layer spans recorded from outside the program.

A span wraps one public function at the module or class attribute its
callers look up (``qdifab.simulator.plb_step``, ``qdifab.cli.run``,
``Trace.to_csv`` ...), so the program itself is unchanged.  Spans nest: a
span's self time is its duration minus the time of the spans it encloses.
A span's work count is taken after its clock stops, and the time that takes
counts as the span's for its parent, so no span's self time includes it.
Stats stay in memory; ``restore`` puts every wrapped attribute back and
reports any that did not come back identical.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Tuple

KERNEL = "simulator.kernel"


class Stat:
    __slots__ = ("calls", "total_ns", "self_ns", "work")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.work = 0  # span-specific work count: events, bytes, txns, blocks


def _txns(trace) -> int:
    return len(trace.markers)


def _events(_args, result) -> int:
    return len(result.events)


def _first_trace_txns(args, _result) -> int:
    return _txns(args[0])


def _group_txns(args, _result) -> int:
    return sum(_txns(t) for t in args[0].values())


def _list_txns(args, _result) -> int:
    return sum(_txns(t) for t in args[0])


def _signal_txns(args, _result) -> int:
    trace, signal = args[0], args[1]
    return sum(1 for m in trace.markers if m[1] == signal)


def _csv_out_bytes(_args, result) -> int:
    return len(result)


def _csv_in_bytes(args, _result) -> int:
    return len(args[1])  # (cls, text) for the classmethod


def _cli_name(args) -> str:
    return f"cli.{args[0][0]}"


class _DistinctSteps:
    """Distinct (configuration, state, input levels) triples seen by plb_step.

    Configurations are keyed by value, with an identity cache so the
    frozen dataclass is hashed once per object.
    """

    def __init__(self):
        self._by_id: Dict[int, int] = {}
        self._by_value: Dict[object, int] = {}
        self._alive: List[object] = []  # keeps ids in _by_id unique
        self.seen = set()

    def __call__(self, args, _result) -> int:
        config, state, levels = args[0], args[1], args[2]
        idx = self._by_id.get(id(config))
        if idx is None:
            idx = self._by_value.setdefault(config, len(self._by_value))
            self._by_id[id(config)] = idx
            self._alive.append(config)
        self.seen.add((idx, state, tuple(levels)))
        return 0


class Tracer:
    def __init__(self):
        self.stats: Dict[str, Stat] = {}
        self.distinct = _DistinctSteps()
        self._stack: List[list] = []  # [span name, child ns]
        self._saved: List[Tuple[object, str, object]] = []

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def calls(self, name: str) -> int:
        st = self.stats.get(name)
        return st.calls if st else 0

    # -- wrapping ---------------------------------------------------------

    def _span(self, fn: Callable, name, measure) -> Callable:
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            frame = [label, 0]
            stack.append(frame)
            done = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                dt = clock() - t0
                stack.pop()
                st = self.stat(label)
                st.calls += 1
                st.total_ns += dt
                st.self_ns += dt - frame[1]
                if done and measure is not None:
                    st.work += measure(args, result)
                if stack:
                    stack[-1][1] += clock() - t0
            return result

        return wrapper

    def _kernel_counter(self, fn: Callable, name: str) -> Callable:
        """Counts calls made directly from the kernel; adds no span, so the
        callee's time stays in the kernel's self time."""
        stack, st = self._stack, self.stat(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == KERNEL:
                st.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, owner, attr: str, make: Callable[[Callable], Callable]):
        # An entry point that no longer exists is left alone; its layer then
        # records no calls and is reported missing.
        space = vars(owner)
        if attr not in space:
            return
        if isinstance(owner, type):
            original = space[attr]
            if isinstance(original, classmethod):
                new = classmethod(make(original.__func__))
            else:
                new = make(original)
        else:
            original = getattr(owner, attr)
            new = make(original)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, new)

    def install(self, q) -> None:
        """Wrap every layer boundary of the imported package ``q``."""
        sim, cli = q.simulator, q.cli

        def blocks(args, _result) -> int:
            return len(args[1]) // q.bitstream.CONFIG_BITS

        spans = [
            (q.netlist, "parse_netlist", "netlist.parse", None),
            (cli, "parse_netlist", "netlist.parse", None),
            (q.netlist, "map_netlist", "mapper.map_netlist", None),
            (sim, "map_netlist", "mapper.map_netlist", None),
            (q.bitstream, "write_bitstream", "bitstream.write", None),
            (cli, "write_bitstream", "bitstream.write", None),
            (q.bitstream, "read_bitstream", "bitstream.read", None),
            (cli, "read_bitstream", "bitstream.read", None),
            (q.progchain, "reconfigure_block", "progchain.reconfigure", blocks),
            (sim, "run", "simulator.run", None),
            (cli, "run", "simulator.run", None),
            (sim.Simulation, "__init__", "simulator.build", None),
            (sim.Simulation, "run", KERNEL, _events),
            (sim, "plb_step", "plb.step", self.distinct),
            (sim, "check_single_toggle", "check.single_toggle", _first_trace_txns),
            (cli, "check_single_toggle", "check.single_toggle", _first_trace_txns),
            (sim, "check_no_early_evaluation", "check.no_early_eval", _first_trace_txns),
            (cli, "check_no_early_evaluation", "check.no_early_eval", _first_trace_txns),
            (cli, "toggle_count_profile", "sidechannel.toggle_profile", _group_txns),
            (cli, "timing_spread", "sidechannel.timing_spread", _group_txns),
            (cli, "dpa_difference_of_means", "sidechannel.dpa", _list_txns),
            (cli, "level_value_correlation", "sidechannel.level_corr", _signal_txns),
            (q.trace.Trace, "to_csv", "trace.to_csv", _csv_out_bytes),
            (q.trace.Trace, "from_csv", "trace.from_csv", _csv_in_bytes),
            (cli, "main", _cli_name, None),
        ]
        for owner, attr, name, measure in spans:
            self._replace(owner, attr, lambda fn, n=name, m=measure: self._span(fn, n, m))
        self._replace(sim, "decode_4ph",
                      lambda fn: self._kernel_counter(fn, "encodings.decode_4ph"))

    def restore(self) -> List[str]:
        """Undo every wrap; returns the attributes that did not come back."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        broken = []
        for owner, attr, original in self._saved:
            if vars(owner).get(attr) is not original:
                broken.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        self._saved = []
        return broken


# -- per-layer metrics --------------------------------------------------------

SCALE_METRICS = (
    "check.single_toggle_us_per_txn",
    "check.no_early_eval_us_per_txn",
    "sidechannel.toggle_profile_us_per_txn",
    "sidechannel.timing_spread_us_per_txn",
    "sidechannel.dpa_us_per_txn",
    "sidechannel.level_corr_us_per_txn",
)

# Span behind each us-per-txn metric.
_TXN_SPANS = dict(zip(SCALE_METRICS, (
    "check.single_toggle", "check.no_early_eval", "sidechannel.toggle_profile",
    "sidechannel.timing_spread", "sidechannel.dpa", "sidechannel.level_corr",
)))

_BASE = ("netlist.parse", "mapper.map_netlist", "bitstream.write",
         "simulator.run", "simulator.build", KERNEL, "plb.step",
         "encodings.decode_4ph")

# Spans a workload must record; zero calls there means a broken wrapper or a
# renamed entry point, reported as missing rather than as fast.
EXPECTED_SPANS = {
    "sweep": _BASE + ("progchain.reconfigure", "check.single_toggle"),
    "stream": _BASE + ("check.no_early_eval",),
    "audit": _BASE + ("bitstream.read", "trace.to_csv", "trace.from_csv",
                      "cli.map", "cli.sim", "cli.check", *_TXN_SPANS.values()),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer values from the recorded spans; 0 where a layer was not
    exercised (see ``EXPECTED_SPANS`` for where that is an error)."""
    s = tracer.stat
    kernel = s(KERNEL)
    events = kernel.work
    plb = s("plb.step")

    def mean(name: str, scale: float) -> float:
        st = s(name)
        return _ratio(st.total_ns / scale, st.calls)

    def self_mean(name: str) -> float:
        st = s(name)
        return _ratio(st.self_ns / 1e6, st.calls)

    out = {
        "netlist.parse_ms": mean("netlist.parse", 1e6),
        "mapper.map_netlist_ms": mean("mapper.map_netlist", 1e6),
        "bitstream.write_ms": mean("bitstream.write", 1e6),
        "bitstream.read_ms": mean("bitstream.read", 1e6),
        "progchain.reconfigure_ms_per_block": _ratio(
            s("progchain.reconfigure").total_ns / 1e6, s("progchain.reconfigure").work),
        "simulator.build_us": mean("simulator.build", 1e3),
        "simulator.kernel_ns_per_event": _ratio(kernel.self_ns, events),
        "plb.step_ns": mean("plb.step", 1.0),
        "plb.steps_per_event": _ratio(plb.calls, events),
        "plb.distinct_ratio": _ratio(len(tracer.distinct.seen), plb.calls),
        "encodings.decode_4ph_per_event": _ratio(s("encodings.decode_4ph").calls, events),
        "trace.to_csv_MBps": _ratio(s("trace.to_csv").work * 1e3, s("trace.to_csv").total_ns),
        "trace.from_csv_MBps": _ratio(s("trace.from_csv").work * 1e3, s("trace.from_csv").total_ns),
        "cli.map_self_ms": self_mean("cli.map"),
        "cli.sim_self_ms": self_mean("cli.sim"),
        "cli.check_self_ms": self_mean("cli.check"),
    }
    for metric, span in _TXN_SPANS.items():
        out[metric] = _ratio(s(span).total_ns / 1e3, s(span).work)
    return out


def missing_spans(tracer: Tracer, workload: str) -> List[str]:
    return [n for n in EXPECTED_SPANS[workload] if tracer.calls(n) == 0]

