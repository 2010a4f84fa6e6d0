"""Mutation harness: how many small faults in a module its tests catch.

Each mutant changes one site of one ``src/qdifab`` module: a comparison,
arithmetic, bitwise or boolean operator swapped for its neighbour, a ``not``
dropped, ``True`` and ``False`` exchanged, or 1 added to an integer constant
(annotations are never mutated).  Every mutant is written with
``ast.unparse`` into a scratch copy of ``src/`` and ``tests/`` and the
module's test files are run against it in a subprocess, under hypothesis
seed 0 and, if it survives that, seed 4242; a failing or timed-out run kills
it.  The unmutated module, unparsed the same way, must pass first.

Survivors listed in ``tests/mutants_equivalent.txt`` (one
``<file>:<line>:<col>: <mutation>  # <reason>`` per line) are mutants that
no test can kill; any other survivor makes the exit status 1.

    python tests/mutants.py encodings sidechannel

The file name does not match ``test_*``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EQUIVALENT = Path(__file__).with_name("mutants_equivalent.txt")
SEEDS = (0, 4242)

# The test files that answer for each module.
TESTS = {
    "bitstream": ["test_cli.py"],
    "cli": ["test_cli.py", "test_check_output.py"],
    "encodings": ["test_encodings.py", "test_primitives.py"],
    "mapper": ["test_mapper.py"],
    "netlist": ["test_netlist.py"],
    "plb": ["test_plb.py", "test_primitives.py"],
    "progchain": ["test_progchain.py"],
    "sidechannel": ["test_sidechannel.py", "test_trace_analyses.py"],
    "simulator": ["test_simulator.py", "test_trace_analyses.py", "test_golden_traces.py"],
    "trace": ["test_trace_csv.py", "test_trace_analyses.py"],
}

_SWAP = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
    ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add, ast.FloorDiv: ast.Mult,
    ast.Div: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift, ast.And: ast.Or, ast.Or: ast.And,
}
_SYMBOL = {
    ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in", ast.Add: "+",
    ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//", ast.Div: "/", ast.Mod: "%",
    ast.Pow: "**", ast.BitAnd: "&", ast.BitOr: "|", ast.BitXor: "^", ast.LShift: "<<",
    ast.RShift: ">>", ast.And: "and", ast.Or: "or",
}


def _sites(tree: ast.Module):
    """(node, apply, label) of every mutation site, in a fixed order;
    ``apply()`` mutates ``node`` in place."""
    skip = set()
    for node in ast.walk(tree):
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if ann is not None:
                skip.update(map(id, ast.walk(ann)))
    out = []

    def swap(node, key, op):
        new = _SWAP[type(op)]

        def apply():
            if key is None:
                node.op = new()
            else:
                node.ops[key] = new()
        # A chained comparison numbers its operators.
        at = f" (operator {key + 1})" if key is not None and len(node.ops) > 1 else ""
        out.append((node, apply, f"{_SYMBOL[type(op)]} -> {_SYMBOL[new]}{at}"))

    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, (ast.BinOp, ast.BoolOp, ast.AugAssign)) and type(node.op) in _SWAP:
            swap(node, None, node.op)
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                swap(node, i, op)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            def drop_not(n=node):  # ``not not x`` has the truth value of ``x``
                n.operand = ast.UnaryOp(ast.Not(), n.operand)
            out.append((node, drop_not, "not x -> x"))
        elif isinstance(node, ast.Constant) and type(node.value) in (bool, int):
            new = (not node.value) if type(node.value) is bool else node.value + 1
            out.append((node, lambda n=node, v=new: setattr(n, "value", v),
                        f"{node.value!r} -> {new!r}"))
    return out


def _mutants(source: str, name: str):
    """(label, mutated source) of every site of a module, in source order."""
    sites = _sites(ast.parse(source))
    order = sorted(range(len(sites)), key=lambda k: (sites[k][0].lineno, sites[k][0].col_offset))
    for k in order:
        node, _, label = sites[k]
        tree = ast.parse(source)
        _sites(tree)[k][1]()
        yield f"{name}:{node.lineno}:{node.col_offset}: {label}", ast.unparse(tree)


def _killed(work: Path, tests, timeout: float) -> bool:
    """Whether a test fails (or the run times out) under either seed."""
    for seed in SEEDS:
        shutil.rmtree(work / ".hypothesis", ignore_errors=True)
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               f"--hypothesis-seed={seed}", *tests]
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            rc = subprocess.run(cmd, cwd=work, env=env, capture_output=True,
                                timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            return True
        if rc:
            return True
    return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", choices=sorted(TESTS))
    args = parser.parse_args(argv)
    equivalent = {line.split("  #")[0].strip() for line in EQUIVALENT.read_text().splitlines()
                  if line.strip() and not line.startswith("#")}
    unexpected = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(ROOT / "src", work / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", work / "tests", ignore=ignore)
        for name in args.modules:
            path = work / "src" / "qdifab" / f"{name}.py"
            source = path.read_text()
            tests = [f"tests/{t}" for t in TESTS[name]]
            path.write_text(ast.unparse(ast.parse(source)))
            start = time.monotonic()
            if _killed(work, tests, timeout=600):
                print(f"{name}: the unmutated module fails its tests")
                return 2
            timeout = 10 * (time.monotonic() - start) + 30
            killed, survivors = 0, []
            for label, mutated in _mutants(source, f"{name}.py"):
                path.write_text(mutated)
                if _killed(work, tests, timeout):
                    killed += 1
                else:
                    survivors.append(label)
            path.write_text(source)
            print(f"{name}: {killed}/{killed + len(survivors)} killed")
            for label in survivors:
                listed = label in equivalent
                unexpected += not listed
                print(f"  survived {label}{'  (equivalent)' if listed else ''}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
