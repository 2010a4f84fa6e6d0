"""Self-tests of the benchmark.  Run from the repository root with

    python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT)]

import designs  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tests._oracles import all_16_functions  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_reference_agrees_with_oracle_on_all_16_functions():
    q = run.import_package()
    xs, ys = [0, 1, 0, 1], [0, 0, 1, 1]
    for bits, f in all_16_functions().items():
        for proto in designs.PROTOCOLS:
            net = q.netlist.parse_netlist(designs.two_input_netlist(proto, bits))
            got = designs.reference_outputs(net, q.netlist.gate_function, {"x": xs, "y": ys})
            assert got == {"o": [f(x, y) for x, y in zip(xs, ys)]}, (proto, bits)


def _inputs_of(name: str, seed: int, workdir: Path):
    q = run.import_package()
    wl = workloads.WORKLOADS[name](q, seed, "tiny", str(workdir), hostspeed.Speedometer())
    wl.setup()
    if name == "sweep":
        return wl.units, wl.sequences
    if name == "stream":
        return [(c[0].name, c[4], c[5]) for c in wl.cases]
    return [(c.jitter_seed, [Path(s.stim_path).read_text() for s in c.sims])
            for c in wl.cases]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seeded_generators_are_deterministic(name, tmp_path):
    first = _inputs_of(name, 7, tmp_path)
    assert _inputs_of(name, 7, tmp_path) == first
    assert _inputs_of(name, 8, tmp_path) != first


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_has_no_unexpected_failure(name, trace):
    t0 = time.monotonic()
    proc = _run("--workload", name, "--seed", "3", "--seconds", "0.5",
                "--trace", str(trace), "--size", "tiny")
    assert time.monotonic() - t0 < 60
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in listed] == list(result["metrics"])
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_scaled_time_divides_out_the_host_speed():
    speed = hostspeed.Speedometer()
    speed._end, speed._cost = [1.0, 2.0, 3.0], [0.001, 0.003, 0.002]
    ref = hostspeed.REFERENCE_S
    # Between two samples: scaled by their mean cost.
    assert speed.scaled(1.2, 1.5) == pytest.approx(0.3 * ref / 0.002)
    # Across a sample: that one counts too.
    assert speed.scaled(1.5, 2.5) == pytest.approx(1.0 * ref / 0.002)
    # Half the host speed doubles the cost of every sample and the length
    # of every interval; the scaled time stays the same.
    speed._end, speed._cost = [2.0, 4.0, 6.0], [0.002, 0.006, 0.004]
    assert speed.scaled(3.0, 5.0) == pytest.approx(1.0 * ref / 0.002)


def test_tracer_restores_attributes_and_flags_silent_layers():
    q = run.import_package()
    before = {(m, a): getattr(getattr(q, m), a)
              for m, a in [("simulator", "plb_step"), ("cli", "run"), ("cli", "main")]}
    init, from_csv = vars(q.simulator.Simulation)["__init__"], vars(q.trace.Trace)["from_csv"]
    tracer = tracing.Tracer()
    tracer.install(q)
    assert q.simulator.plb_step is not before[("simulator", "plb_step")]
    assert tracer.restore() == []
    for (m, a), fn in before.items():
        assert getattr(getattr(q, m), a) is fn
    assert vars(q.simulator.Simulation)["__init__"] is init
    assert vars(q.trace.Trace)["from_csv"] is from_csv
    assert tracing.missing_spans(tracer, "sweep") == list(tracing.EXPECTED_SPANS["sweep"])


def test_timeout_and_deadlock_are_told_apart():
    q = run.import_package()
    net = q.netlist.parse_netlist(designs.two_input_netlist("4ph", 8))
    fabric = q.simulator.fabric_from_netlist(net)
    stim = {"x": [1, 0, 1], "y": [1, 1, 0]}
    expected = designs.reference_outputs(net, q.netlist.gate_function, stim)
    assert workloads.run_problem(q.simulator.run(fabric, stim), expected) is None
    cut = q.simulator.run(fabric, stim, max_time=5)
    assert cut.deadlock
    assert workloads.run_problem(cut, expected) == "timeout"
    stalled = q.trace.Trace(deadlock=True, diagnostics=["handshake stalled; unfinished producers: x"])
    assert workloads.run_problem(stalled, expected) == "deadlock"
