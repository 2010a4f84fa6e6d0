"""Pinned output of ``qdifab check``: stdout, exit code and report, byte for byte.

Each design is mapped and simulated through the CLI on four fixed stimuli;
every property then runs over the four traces with ``--report``, ``dpa``
partitioned on the design's first input.  The expected text is
``tests/check_output.golden``; a change that is meant to alter what ``check``
prints must say so and record the file again with
``PYTHONPATH=src python -m tests.test_check_output > tests/check_output.golden``.
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile
from pathlib import Path

from qdifab.cli import main

GOLDEN = Path(__file__).with_name("check_output.golden")

PROPERTIES = ("single-toggle", "no-early-eval", "toggle-count", "timing", "dpa", "ledr-risk")

# Half adder plus a carry tap: a and b each feed two gates.
FANOUT_NET = (
    "".join(f"signal {n} proto=4ph arity=2\n" for n in "absto")
    + "gate g1 fn=6 in=a,b out=s\n"
    + "gate g2 fn=8 in=a,b out=t\n"
    + "gate g3 fn=e in=s,t out=o\n"
)

# (netlist, its two primary inputs, delay model).
DESIGNS = {
    "4ph_fanout": (FANOUT_NET, "ab", "uniform"),
    "4ph_fanout_jitter": (FANOUT_NET, "ab", "jitter:3"),
    "ledr_2in": (
        "".join(f"signal {n} proto=ledr arity=2\n" for n in "xyo")
        + "gate g fn=6 in=x,y out=o\n",
        "xy", "uniform"),
    "edge_2in": (
        "".join(f"signal {n} proto=edge arity=2\n" for n in "xyo")
        + "gate g fn=8 in=x,y out=o\n",
        "xy", "uniform"),
}


def _quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv


def render() -> str:
    """Every design's check output, run in the current directory."""
    sections = []
    for design, (net, (p, q), delays) in DESIGNS.items():
        Path(f"{design}.net").write_text(net)
        _quiet(["map", f"{design}.net", "-o", f"{design}.bit"])
        traces = []
        for i, (x, y) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            stim = f"{design}.{i}.stim"
            Path(stim).write_text(f"{p}: {x},{1 - x},1\n{q}: {y},{y},{1 - y}\n")
            traces.append(f"{design}.{i}.csv")
            _quiet(["sim", f"{design}.bit", "--stimulus", stim, "--delays", delays,
                    "--trace", traces[-1]])
        for prop in PROPERTIES:
            report = f"{design}.{prop}.report"
            argv = ["check", *traces, "--property", prop, "--report", report]
            if prop == "dpa":
                argv += ["--select", p]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
            sections.append(f"== {design} {prop} exit={rc}\n-- stdout\n{out.getvalue()}"
                            f"-- stderr\n{err.getvalue()}"
                            f"-- report\n{Path(report).read_text()}")
    return "".join(sections)


def test_check_output_matches_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert render() == GOLDEN.read_text()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        print(render(), end="")
