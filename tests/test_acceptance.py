"""Acceptance suite: one test per release criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass line per
criterion.  Everything here is desk scale and deterministic; the whole
module is expected to finish well inside a minute.
"""

import itertools
import random
import time

import pytest

from qdifab.encodings import decode_4ph, CodeKind, signal_parity
from qdifab.mapper import map_edge_2in
from qdifab.netlist import parse_netlist
from qdifab.plb import c_element, plb_reset
from qdifab.progchain import Block, drain_block, load_block, reconfigure_block
from qdifab.sidechannel import (
    dpa_difference_of_means,
    level_value_correlation,
    timing_spread,
    toggle_count_profile,
)
from qdifab.simulator import (
    DelayModel,
    check_single_toggle,
    fabric_from_netlist,
    run,
)
from ._oracles import all_16_functions, c_element_mux, snapshot
from ._util import step_unit

PROTOCOLS = ("4ph", "ledr", "edge")
STIM_Y = [1, 0, 1, 1]  # arbitrary fixed partner sequence for sizing runs


def two_input_fabric(proto: str, bits: int):
    src = (
        f"signal x proto={proto} arity=2\n"
        f"signal y proto={proto} arity=2\n"
        f"signal o proto={proto} arity=2\n"
        f"gate g fn={bits:x} in=x,y out=o\n"
    )
    return fabric_from_netlist(parse_netlist(src))


@pytest.fixture(scope="module")
def functional_sweep():
    """Criterion-1 sweep, shared with the forbidden-state criterion.

    All 16 two-input functions under each protocol, against every input
    value sequence of length 4 (256 sequences per function and protocol).
    """
    funcs = all_16_functions()
    pair_steps = list(itertools.product(range(2), repeat=2))
    sequences = [
        ([p[0] for p in seq], [p[1] for p in seq])
        for seq in itertools.product(pair_steps, repeat=4)
    ]
    assert len(sequences) == 256
    mismatches = []
    forbidden = []
    fabrics = {}
    t0 = time.time()
    for proto in PROTOCOLS:
        for bits, f in funcs.items():
            fabric = two_input_fabric(proto, bits)
            fabrics[(proto, bits)] = fabric
            for xs, ys in sequences:
                trace = run(fabric, {"x": xs, "y": ys})
                expect = [f(a, b) for a, b in zip(xs, ys)]
                got = trace.values_of("o")
                if got != expect or trace.deadlock:
                    mismatches.append((proto, bits, xs, ys, got, expect))
                forbidden.extend(
                    d for d in trace.diagnostics if "forbidden" in d
                )
    return {
        "mismatches": mismatches,
        "forbidden": forbidden,
        "fabrics": fabrics,
        "seconds": time.time() - t0,
    }


def test_criterion_01_functional_equivalence(functional_sweep):
    assert functional_sweep["mismatches"] == []
    assert functional_sweep["seconds"] < 60
    print(
        f"\ncriterion  1 PASS functional equivalence: 16 functions x 3 "
        f"protocols x 256 sequences in {functional_sweep['seconds']:.1f}s"
    )


def test_criterion_02_c_element_forms_agree():
    checked = 0
    for p in range(1, 7):
        for prev in (0, 1):
            for ins in itertools.product((0, 1), repeat=p):
                a = c_element(prev, sum(ins), p)
                b = c_element_mux(prev, ins)
                assert a == b
                checked += 1
    print(f"criterion  2 PASS C-element behavioural and MUX forms agree "
          f"on {checked} states")


def test_criterion_03_or_equals_xor_on_reachable_domain():
    checked = 0
    for width in range(1, 5):
        vectors = [(0,) * width] + [
            tuple(1 if i == v else 0 for i in range(width)) for v in range(width)
        ]
        for vec in vectors:
            assert signal_parity(vec) == (1 if any(vec) else 0)
            checked += 1
    print(f"criterion  3 PASS OR and XOR agree on all {checked} "
          f"all-zero/one-hot vectors up to width 4")


def test_criterion_04_single_toggle_randomized():
    rng = random.Random(31415)
    transactions = 0
    sims = 0
    while transactions < 10_000:
        proto = rng.choice(PROTOCOLS)
        bits = rng.randrange(16)
        fabric = two_input_fabric(proto, bits)
        n = rng.randint(4, 8)
        stim = {
            "x": [rng.randint(0, 1) for _ in range(n)],
            "y": [rng.randint(0, 1) for _ in range(n)],
        }
        trace = run(fabric, stim)
        assert not trace.deadlock
        verdicts = check_single_toggle(trace)
        assert all(ok for ok, _ in verdicts.values()), (proto, bits, verdicts)
        transactions += sum(len(v) for v in trace.records.values())
        sims += 1
    # An injected double toggle must be caught.
    fabric = two_input_fabric("4ph", 8)
    trace = run(fabric, {"x": [1, 0], "y": [1, 1]}, inject=[(3, "x.0", 1), (4, "x.0", 0)])
    verdicts = check_single_toggle(trace)
    assert not verdicts["x"][0]
    print(f"criterion  4 PASS single-toggle: 0 violations in {transactions} "
          f"transactions over {sims} randomized gates; injected fault detected")


def test_criterion_05_forbidden_state_safety(functional_sweep):
    assert functional_sweep["forbidden"] == []
    fabric = two_input_fabric("4ph", 8)
    trace = run(fabric, {"x": [1], "y": [1]}, inject=[(3, "x.0", 1)])
    assert any("forbidden state on x" in d for d in trace.diagnostics)
    print("criterion  5 PASS forbidden state never reached; injected (1,1) "
          "raises the diagnostic")


def test_criterion_06_decision_wait_exhaustive():
    dw = map_edge_2in("g", lambda x, y: x & y).plbs[0]
    cells = ((0, 0), (0, 1), (1, 0), (1, 1))
    checked = 0
    for i, j in itertools.product(range(2), repeat=2):
        st = plb_reset(dw.config)
        a, b = [0, 0], [0, 0]
        for _phase in range(2):  # rising edges, then falling edges
            before = st.mem_out
            a[i] ^= 1
            st = step_unit(dw, st, a=tuple(a), b=tuple(b))
            assert st.mem_out == before
            b[j] ^= 1
            st = step_unit(dw, st, a=tuple(a), b=tuple(b))
            cell = 2 * i + j
            assert [x ^ y for x, y in zip(before, st.mem_out)] == [
                1 if k == cell else 0 for k in range(4)
            ]
            # Quiescence restored: every rendez-vous sees equal inputs.
            for c, (ci, cj) in enumerate(cells):
                u = a[ci] ^ st.mem_out[2 * ci + (1 - cj)]
                v = b[cj] ^ st.mem_out[2 * (1 - ci) + cj]
                assert u == v
            checked += 1
    assert checked == 8
    print("criterion  6 PASS 2x2 decision-wait: all 4 cells x both phases "
          "toggle exactly one output and restore quiescence")


def test_criterion_07_edge_gate_table():
    rows = {
        "AND": ([(1, 1)], [(0, 0), (0, 1), (1, 0)]),
        "NAND": ([(0, 0), (0, 1), (1, 0)], [(1, 1)]),
        "OR": ([(1, 1), (0, 1), (1, 0)], [(0, 0)]),
        "NOR": ([(0, 0)], [(1, 1), (0, 1), (1, 0)]),
        "XOR": ([(0, 1), (1, 0)], [(0, 0), (1, 1)]),
        "NXOR": ([(0, 0), (1, 1)], [(0, 1), (1, 0)]),
    }
    funcs = {
        "AND": lambda x, y: x & y,
        "NAND": lambda x, y: 1 ^ (x & y),
        "OR": lambda x, y: x | y,
        "NOR": lambda x, y: 1 ^ (x | y),
        "XOR": lambda x, y: x ^ y,
        "NXOR": lambda x, y: 1 ^ x ^ y,
    }

    def parity_bits(cells):
        bits = 0
        for idx in range(64):
            acc = 0
            for (i, j) in cells:
                acc ^= (idx >> (2 * i + j)) & 1
            if acc:
                bits |= 1 << idx
        return bits

    for name, (ones, zeros) in rows.items():
        comp = map_edge_2in("g", funcs[name]).plbs[1]
        assert comp.config.luts[0].bits == parity_bits(ones), name
        assert comp.config.luts[1].bits == parity_bits(zeros), name
    print("criterion  7 PASS edge-gate XOR compositions match the table for "
          "AND NAND OR NOR XOR NXOR")


def _value_group_traces(fabric, input_names, arity=2, repeat=2):
    groups = {}
    for combo in itertools.product(range(arity), repeat=len(input_names)):
        stim = {s: [v] * repeat for s, v in zip(input_names, combo)}
        groups[combo] = run(fabric, stim)
    return groups


def test_criterion_08_sidechannel_data_independence():
    gates = []
    for proto in PROTOCOLS:
        for bits in range(16):
            gates.append((f"{proto}/{bits:x}", two_input_fabric(proto, bits),
                          ("x", "y"), 2))
    tern = (
        "signal x proto=4ph arity=3\nsignal y proto=4ph arity=3\n"
        "signal o proto=4ph arity=3\n"
        f"gate g fn={sum(min(x, y) << (2 * (x + 3 * y)) for x in range(3) for y in range(3)):x} "
        "in=x,y out=o\n"
    )
    gates.append(("4ph/ternary-min", fabric_from_netlist(parse_netlist(tern)),
                  ("x", "y"), 3))
    maj = (
        "signal x proto=4ph arity=2\nsignal y proto=4ph arity=2\n"
        "signal z proto=4ph arity=2\nsignal o proto=4ph arity=2\n"
        "gate g fn=e8 in=x,y,z out=o\n"
    )
    gates.append(("4ph/majority3", fabric_from_netlist(parse_netlist(maj)),
                  ("x", "y", "z"), 2))

    for name, fabric, inputs, arity in gates:
        groups = _value_group_traces(fabric, inputs, arity)
        profile = toggle_count_profile(groups)
        assert len(set(profile.values())) == 1, (name, profile)
        assert timing_spread(groups) == 0, name
        diff = dpa_difference_of_means(list(groups.values()), inputs[0])
        assert all(d == 0 for d in diff), name

    # Violating the matched-routing condition must surface as spread > 0.
    fabric = two_input_fabric("4ph", 8)
    spread = 0
    for seed in range(1, 11):
        jit = DelayModel(mode="jitter", seed=seed)
        groups = {
            vx: run(fabric, {"x": [vx, vx], "y": [1, 1]}, delays=jit)
            for vx in (0, 1)
        }
        spread = timing_spread(groups)
        if spread > 0:
            break
    assert spread > 0
    print(f"criterion  8 PASS toggle counts constant, spread 0 and flat DPA "
          f"for {len(gates)} gates under matched delays; jitter reports "
          f"spread {spread} > 0")


def test_criterion_09_delay_insensitivity(functional_sweep):
    stim = {"x": [1, 0, 1, 0], "y": STIM_Y}
    checked = 0
    for (proto, bits), fabric in functional_sweep["fabrics"].items():
        baseline = run(fabric, stim).values_of("o")
        for seed in range(1, 101):
            tr = run(fabric, stim, delays=DelayModel(mode="jitter", seed=seed))
            assert not tr.deadlock, (proto, bits, seed)
            assert tr.values_of("o") == baseline, (proto, bits, seed)
            checked += 1
    print(f"criterion  9 PASS decoded outputs identical across uniform and "
          f"100 seeded delay assignments for all 48 fabrics ({checked} runs)")


def test_criterion_10_programming_chain():
    # Exhaustive load/readback identity for every sequence up to length 8.
    for n in range(0, 9):
        for bits in itertools.product((0, 1), repeat=n):
            block = Block(8)
            load_block(block, list(bits))
            assert drain_block(block) == bits
    rng = random.Random(27182)
    for _ in range(1000):
        length = rng.randint(9, 48)
        block = Block(length)
        bits = [rng.randint(0, 1) for _ in range(rng.randint(9, length))]
        load_block(block, bits)
        assert drain_block(block) == tuple(bits)
    # Partial reconfiguration: neighbour untouched, outputs held at 0.
    a = load_block(Block(8), [1, 0, 1, 0, 1, 0, 1, 0])
    b = load_block(Block(8), [0, 1, 1, 0, 0, 1, 1, 0])
    before = snapshot(b)
    log = reconfigure_block(a, [1, 1, 0, 0, 1, 1, 0, 0])
    assert snapshot(b) == before
    assert log.outputs_zero_every_tick and log.ticks > 0
    print("criterion 10 PASS FIFO identity exhaustive to length 8 plus 1000 "
          "random sequences; reconfiguration isolated with outputs at 0")


def test_criterion_11_ledr_level_risk_flag():
    stim = {"x": [1, 1, 0, 0, 1, 0], "y": [1, 0, 1, 0, 1, 1]}
    results = {}
    for proto in PROTOCOLS:
        fabric = two_input_fabric(proto, 8)
        tr = run(fabric, stim)
        results[proto] = {
            s: level_value_correlation(tr, s) for s in ("x", "y", "o")
        }
    assert all(v == 1.0 for v in results["ledr"].values()), results["ledr"]
    assert all(v == 0.0 for v in results["4ph"].values()), results["4ph"]
    assert all(v == 0.0 for v in results["edge"].values()), results["edge"]
    print("criterion 11 PASS resting-level/value correlation 1.0 for LEDR "
          "signals, 0.0 for four-phase and edge")
