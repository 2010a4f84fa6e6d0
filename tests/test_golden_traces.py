"""Golden traces: the kernel's output on a fixed corpus, byte for byte.

Each case maps one netlist, runs it on seeded stimuli (50 values per input)
under uniform delays and under jitter seeds 1..10, and compares the sha256 of
``Trace.to_csv()`` with the digest recorded here.  The corpus is every shape
the mapper accepts except the LEDR 3-input gate (its phase blind spot is due
to be remapped, which will change its traces), a DAG with fan-out per
protocol, and five fault injections under uniform delays (see ``FAULTS``).
Every case runs again on fabrics shared by all the cases of a design, which
checks that no run leaves state behind on its fabric.

A change that is meant to alter simulated behaviour must say so and record
new digests; print them with ``PYTHONPATH=src python -m tests.test_golden_traces``.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from qdifab.netlist import parse_netlist
from qdifab.simulator import DelayModel, fabric_from_netlist, run

VALUES = 50
JITTER_SEEDS = range(1, 11)


def _signals(proto: str, names: str, arity: int = 2) -> str:
    return "".join(f"signal {n} proto={proto} arity={arity}\n" for n in names)


# f(x, y) = (x + y) mod 3, two bits per entry x + 3y.
_TER_SUM = sum(((x + y) % 3) << (2 * (x + 3 * y)) for x in range(3) for y in range(3))

DESIGNS = {
    "4ph_2in_ack": _signals("4ph", "xyo") + "gate g fn=6 in=x,y out=o ack\n",
    "4ph_2in": _signals("4ph", "xyo") + "gate g fn=8 in=x,y out=o\n",
    "4ph_3in": _signals("4ph", "abco") + "gate g fn=e8 in=a,b,c out=o\n",
    "4ph_ter": _signals("4ph", "tuv", 3) + f"gate g fn={_TER_SUM:x} in=t,u out=v\n",
    "ledr_2in": _signals("ledr", "xyo") + "gate g fn=6 in=x,y out=o\n",
    "edge_2in": _signals("edge", "xyo") + "gate g fn=8 in=x,y out=o ack\n",
    # Fan-out DAGs: b, p, y and x each feed two gates.
    "dag_4ph": _signals("4ph", "abcdpqr")
    + "gate g1 fn=6 in=a,b out=p ack\n"
    + "gate g2 fn=e8 in=p,b,c out=q\n"
    + "gate g3 fn=8 in=p,d out=r ack\n",
    "dag_ledr": _signals("ledr", "xyzabo")
    + "gate g1 fn=6 in=x,y out=a\n"
    + "gate g2 fn=8 in=a,z out=b\n"
    + "gate g3 fn=e in=b,y out=o\n",
    "dag_edge": _signals("edge", "xyzabo")
    + "gate g1 fn=6 in=x,y out=a ack\n"
    + "gate g2 fn=8 in=a,z out=b ack\n"
    + "gate g3 fn=e in=b,x out=o ack\n",
}

# (design, forced wire events):
# - fault_input_rail raises x.1 while the producer holds x.0 high (t=2..6):
#   x enters the forbidden state, never leaves it, and the handshake stalls;
# - fault_rail_pulse raises b.0, which the producer already holds high
#   (t=2..10), so only its fall at t=9, a tick before the producer's, changes
#   a wire; the run completes without a diagnostic;
# - fault_block_output pulls o.0 up at t=2, two ticks before its block drives
#   it, and the consumer records one spurious value (51 for 50 inputs);
# - the *_forbidden_twice runs pulse a second rail twice under a valid value,
#   once on an input group (b carries 0 over t=2..10 and 18..26) and once on
#   an output group (o carries 0 over t=4..8 and 12..16), so the group enters
#   and leaves the forbidden state twice.
FAULTS = {
    "fault_input_rail": ("4ph_2in_ack", [(3, "x.1", 1)]),
    "fault_rail_pulse": ("dag_4ph", [(5, "b.0", 1), (9, "b.0", 0)]),
    "fault_block_output": ("4ph_2in_ack", [(2, "o.0", 1)]),
    "fault_input_forbidden_twice": (
        "dag_4ph", [(3, "b.1", 1), (7, "b.1", 0), (19, "b.1", 1), (23, "b.1", 0)]),
    "fault_output_forbidden_twice": (
        "4ph_2in_ack", [(5, "o.1", 1), (7, "o.1", 0), (13, "o.1", 1), (15, "o.1", 0)]),
}


def _delays(case: str) -> DelayModel:
    if case == "uniform":
        return DelayModel()
    return DelayModel(mode="jitter", seed=int(case.removeprefix("jitter")))


def _trace(design: str, delays: str, inject=None, fabric=None):
    """A golden run, on ``fabric`` if given (it must be the design's)."""
    net = parse_netlist(DESIGNS[design])
    rng = random.Random(f"golden:{design}")
    stim = {
        s: [rng.randrange(net.signals[s].arity) for _ in range(VALUES)]
        for s in net.primary_inputs()
    }
    fabric = fabric or fabric_from_netlist(net)
    return run(fabric, stim, delays=_delays(delays), inject=inject)


def _cases():
    delays = ["uniform"] + [f"jitter{s}" for s in JITTER_SEEDS]
    for design in DESIGNS:
        for d in delays:
            yield f"{design}-{d}", (design, d, None)
    for name, (design, inject) in FAULTS.items():
        yield f"{name}-uniform", (design, "uniform", inject)


CASES = dict(_cases())


def _digest(case: str, fabric=None) -> str:
    trace = _trace(*CASES[case], fabric=fabric)
    return hashlib.sha256(trace.to_csv().encode()).hexdigest()


GOLDEN = {
    '4ph_2in_ack-uniform': 'c37e794dbd7dc7ab1143f9ae4bf2f514dd6ae72039b29fee884534f6fdfd1fc8',
    '4ph_2in_ack-jitter1': '54e62d88c2be44f874ba80010465262450cb1f4dc191a5060ba742b1a0bdf388',
    '4ph_2in_ack-jitter2': 'aba5f08b5ab8213d669b59c10e563da0f34503a463fc67ff887a29099882fdf7',
    '4ph_2in_ack-jitter3': '1a4eb2b254ebd63c027ae9c2e92ad13eb6e286b81e1ed292a04cc5085d8ebac5',
    '4ph_2in_ack-jitter4': '883cc420d25d35666d6867fb5cc2eea0cf898cad08f39403d6839d89cfd940e8',
    '4ph_2in_ack-jitter5': 'bd3ca68d417dbe405caf45efd184797d24a2725b4022003cc0563357196fdde6',
    '4ph_2in_ack-jitter6': 'e656b0624f89ea317f4a989b36cffe08069b05e409c96fb2bd35b22a2c8e9cc5',
    '4ph_2in_ack-jitter7': 'c79840afd172471806415aa9e665a268ad34ab410815edee958c957db540e734',
    '4ph_2in_ack-jitter8': '52efb7b89cdb2195a7b87ce3e1ca7023d1a6bab1c3ca8e7a58c46519a5a413e9',
    '4ph_2in_ack-jitter9': '07a8955c3b6c2908ae5e4549771440b4bbfa5b11293a09d54f0adc50971c1cf4',
    '4ph_2in_ack-jitter10': 'e2ca163310c04b917ff52ae0cf6a3b98f77cdc95075eaee030949aeac6b40d94',
    '4ph_2in-uniform': '37be94ead0503e044d37915ab4ed4a62a9c77770befa25d0f9caa7c5bd85979a',
    '4ph_2in-jitter1': 'a3aa765bf6766b8f6b0e58357e4c31a7b66437932fdf49770991705aedb1fe08',
    '4ph_2in-jitter2': '9e8e400c7a1c7d8348078c9063b7f74ab2819831d3816309d20192acc0b73933',
    '4ph_2in-jitter3': 'a7e9ff295eb1dd64269294451b42aabb939429f9c142891db8294854e8c612cf',
    '4ph_2in-jitter4': '2cfcf51d70788dcc134b8d280cc328227a5904bd75a6d4aefbbbea57523f8749',
    '4ph_2in-jitter5': 'a9a11e9573d63f5342dfc45c1f0ed185b2e5c0e8fd0c55764c61c8e6ce9de3b0',
    '4ph_2in-jitter6': '29b5e610500c9f0da906b3c87c458b246e91120f63262b57a9198f15cd08f18f',
    '4ph_2in-jitter7': '9bf80416bdf4ae38c86dade29ddd6585b8570862765acc46e76333dea5e03bd2',
    '4ph_2in-jitter8': 'cdcd11e942fd177d23aec7c8b81423802fa1f07f744c166c24d1ea096970e28b',
    '4ph_2in-jitter9': 'd304cb0112d89dcd4bf22bec68866ce999b35650810411a8dd55385b020cf096',
    '4ph_2in-jitter10': '7fef6c9924d7a223f8aa118a0ffaf8f6483f939c546e1ab146b61577282fa921',
    '4ph_3in-uniform': 'a340dc391c12f00fc9007632bbcf702c19068f925b1b6f8e6248e8715d4e6fcc',
    '4ph_3in-jitter1': '1ba361aa22e1de5c469eed8cdfbb81e86a00156246b2a3e69835901c3fcaee11',
    '4ph_3in-jitter2': 'f978a37a00e7496125c74f8e376221e52135c4d6eaaa3008fdcaac0517b8851a',
    '4ph_3in-jitter3': '5c245da29ab9ef415846ab7202e6935dc6e839dbd0948f8e09c3b01ae3abc263',
    '4ph_3in-jitter4': '78aea2c083c4174aeee4f92232ce186a05a599b2ee8008d4b0841bc84644f3d1',
    '4ph_3in-jitter5': '853f01a628f10e4d0365138b018fa9982ad455566f684d6338af0ca4700b8197',
    '4ph_3in-jitter6': 'f0134fc3f1483d6aebf93138771295431acfa744ce13631cd2b094d1ff100e1e',
    '4ph_3in-jitter7': 'f1a8e64738e43c34be4afdfb956e850f6132058d8679db2764e564d6c94509f8',
    '4ph_3in-jitter8': '4d182f9f8942f1053112bac164f61bedb535d4bf0236db1d5d9ec7ade760b966',
    '4ph_3in-jitter9': '743329c3c4c0200683ec251437901ff020b747befa86035b052b209e79ae17ff',
    '4ph_3in-jitter10': '010680e752f696948e9b10501874401f2cd4e2c8d32f90fdf85a076c0e14c0fd',
    '4ph_ter-uniform': '55d89c89be24c771637de8206a765185e09f6b680eea91dfa6f1d5c0142595bc',
    '4ph_ter-jitter1': '19b1ecc1a7ecd96f1aea11c49b55b4a9b8b9fd7f9800d96028e715bc9db0f98b',
    '4ph_ter-jitter2': 'ced3de1ff734a310d4a9e414d65e02a9bf4b2b5e330d51b43d8b2f22a3a83a03',
    '4ph_ter-jitter3': 'e2ce5f672c2223663d6b3a585e324729e5be08b7f9aa28a94a1af32d71714324',
    '4ph_ter-jitter4': 'c74a09813a8f7bdb9051189bafd1495fd79e96c3997f005a29862becd7883703',
    '4ph_ter-jitter5': '3e49ffc7a823763ad4d2f717a7e101892eea7db6c8941740056eadbc2bb4730b',
    '4ph_ter-jitter6': '644243a103ca7c6473ecab80a9dd183966ee8855b1d82666ffadd4256cc72737',
    '4ph_ter-jitter7': '79291b4633bd4016bcdb72dc8ffeac03b9deedeb4f482dc20c3ff25d95adf8fb',
    '4ph_ter-jitter8': '88d6cf3927596f9f72cb24db86d9717bc79f42af97c782af557276785edd5c16',
    '4ph_ter-jitter9': '2f2e7a93d0390cd35800fcea9a946c2d0cb83e761302b96bcfe5cf8f6b826c5d',
    '4ph_ter-jitter10': '95e017b79c1e9a951880f376fbc0a84dc684604c19504e488f91450cf0842d01',
    'ledr_2in-uniform': 'f9f5524f7c8eb3e19db147de8969a79cf9c5918cb71f3571d3dbe34be89f1e38',
    'ledr_2in-jitter1': '2e304f196f1eaed0fb6ddc0ad79728e2bcc0dee614d0626fd100fde9d3c5fd79',
    'ledr_2in-jitter2': 'dc21617e6c935be61a13380c330162e59a3624c211df90a83bb54a449350f1f9',
    'ledr_2in-jitter3': '36976eadb88e3a4e301e497e9ee2ad1404c100cd66ccb0908d39edf1a0af1fbb',
    'ledr_2in-jitter4': 'a85814a94a6c53f488903a056b5aaaab0a93910330c64cea2bbe597245bef33d',
    'ledr_2in-jitter5': '1ca530e25f3f8c6159b511804811370f78fd59084db47d6de1b5c26bc3f3d71e',
    'ledr_2in-jitter6': '1eb91fc3981e8cc5fe70d51d808cdc3dd07e73f47e45c7d9b84616fef287eb29',
    'ledr_2in-jitter7': 'f35427ccf6bf5ca5ff417b1b941a05f00d035d9e658761da96da06dcb60b6847',
    'ledr_2in-jitter8': '9288fd34e1dd2bf084d271421c30455703a5b73f43f54c597125147a6b72fe8e',
    'ledr_2in-jitter9': '87fe155b696910c5a0d3bc9d8ebf1911b76423eddd17da84406c8f46cf45d9aa',
    'ledr_2in-jitter10': 'e94b48808a9beed770499683e6dddd255222eb78ee4775e285741c05f7df5153',
    'edge_2in-uniform': 'd8146a9c47764048867534cccf7f604547f446ab0ab7c32ecf418d22db1435ad',
    'edge_2in-jitter1': '0ebb9ed060352460d231f65f8cd276b9921aa12ef422c42a1d0c8e81e142e47a',
    'edge_2in-jitter2': '19fc03e5d1010f67956fa9d60cd98dcffcb7e9cb709bdde7b5695e7ba8eb5f4c',
    'edge_2in-jitter3': '1da65869591724985dab7b4de78494d9e7ac858ba341522dd1ed9a82a179afbe',
    'edge_2in-jitter4': '5a22aae41af606ce030eda1aa44cd4b7641b8d094df42a42a81e1ff05919ecb5',
    'edge_2in-jitter5': '1bda5969f2b98cfc67d55be10fc7cf251fa59ad2d46d95281b501414e8dc6ce7',
    'edge_2in-jitter6': 'a6e16cf57d5e4b53c124ce486d066cf001bfb8f815af967f441f0077af124b5d',
    'edge_2in-jitter7': '593b324b4a8fae8fdf5f629ac3c25c64b5277ef4fcb77663d3f81a839ce5f810',
    'edge_2in-jitter8': 'c5375abd2f1a50424559f82e1b038d4e67b4c13416d3a53aec80b2dfac4373b6',
    'edge_2in-jitter9': '28c170b3556cc6c35fdc482e431e04316de29e24a634ea66aa5ff5bc7ce84e73',
    'edge_2in-jitter10': '1ec9ca4a15faf82d2b06a15a386794dac02b6e1dd2b47fd898f29d595958dfc0',
    'dag_4ph-uniform': '7fc717080bc98e090e0c5e5bb012fe7263a9b4e4dc8e0aaeab96f5d60bc203c6',
    'dag_4ph-jitter1': '126ca4242f2820e710f3d572040a0381bd14cd5be79ed7095e78eda118af94dd',
    'dag_4ph-jitter2': '937daebdfe9acfbb6c0b676f1ff0a04f190b67ffa1f4970a72376f2c86eeded0',
    'dag_4ph-jitter3': 'e783fec968d615a4820bd44ea7375d061417246c54b106a16e1ac9a6e00f464e',
    'dag_4ph-jitter4': 'e82c906bb66c97ab08cf0e3b7c70cb17756137e5c8b1497116531adb8f36ff72',
    'dag_4ph-jitter5': '9a5fa1566d9762a98fa32897f4cb1940b90d0e67b19e7ea760fca6cae52e1897',
    'dag_4ph-jitter6': 'ef24af8abffad822b908b70a247435acafed7d169b7a72c57d0ab815fe0b9adb',
    'dag_4ph-jitter7': 'ede6fd4f221fe492ad03767f93d7bc61cb20fd2a9441549d05da73b48b0dec29',
    'dag_4ph-jitter8': '3784ee4a8c7b9d41dedeee2e240b750e0445ed727b6faadcc3b48a2328cfa32d',
    'dag_4ph-jitter9': '0759a7288094a7a1a7cef17beb1eddb13ed92c0f80a7f0e5451e2f7402ed6167',
    'dag_4ph-jitter10': '7d215587cdeed92743d7dc5a4fce7cf9492fb1f2070a7ed6e95b32e2a0841e41',
    'dag_ledr-uniform': 'fb147f4d46534ea1e469d377a68a01545b89bffc6ed74f36546c09973096cc1f',
    'dag_ledr-jitter1': 'dea3e7a391c51370e03682254379f949e330bea7bfef1e1e9a68f949ee362f74',
    'dag_ledr-jitter2': 'ff930eebddee97ecc263230c090042760578dee55282cdd8e2ef85799be3e9c7',
    'dag_ledr-jitter3': '3598410c8ad3c2b8714bf09574427f07211d9ada4959fba5a3de70e24f3b627c',
    'dag_ledr-jitter4': '7f1275c4e40594acb0b912a0daa496f73169e0a32bf841e84242646c60d77c9b',
    'dag_ledr-jitter5': 'b3c062ecb4369bff6948e96ff79854cf5d527e548f0e2ffa6750f8de8a8c26d0',
    'dag_ledr-jitter6': '7079bfbf03636be54cb2eb02d03bfd4d064737cc30e9cecb0ceacf308163e8a1',
    'dag_ledr-jitter7': 'eacd0ed319545ec90633edef7f7f40d25fd56a0539cdd8fc99e5cf70ef90bf79',
    'dag_ledr-jitter8': '1b7cfb2c2ca5ab73b69e7c82f9ef2f86576176d96130ef7fa1558e0278356d3b',
    'dag_ledr-jitter9': 'ab4908f3de5dab66b935986057e511c31e95a89db7e276278cc413118d58b834',
    'dag_ledr-jitter10': '4a46f8fcd7eee6f331f370c4a0245e8d87e3a50822d82edc20aa317ac0e421b2',
    'dag_edge-uniform': '9c15aac4eb94860d5ceba44e7afff426aa693119c888ace1f0046f7288d09774',
    'dag_edge-jitter1': 'e1579e680d694eca4e82d01abfc31c6e0c46bab87ea72dfdce96a9681f6a073a',
    'dag_edge-jitter2': '97e3a50a6e998490f9d7c32ec7797b01c96324fbdcc9dede41cbaaf7f89eb426',
    'dag_edge-jitter3': '1156ea7b9b5c7f73fd7665ba6740201afd1388239990d777d382c38a62248003',
    'dag_edge-jitter4': '310eebf6e3805ca92db14e4d03a4cda48aa73a90ac3f6ced5e0b67000e56e727',
    'dag_edge-jitter5': '3fcb495326a0ab9d0e950678f79b5e7eb40d58e5a02e34aeca66c2833ce5c4d5',
    'dag_edge-jitter6': '49e5afd34d3d63957d71411f27b2d08a30f73c6e494a18bf827790e5969b7dce',
    'dag_edge-jitter7': 'eb22db7d573e83f64b207971230c89d9ec1f44ba93bda238d92ea6fdec65057e',
    'dag_edge-jitter8': '0b9d2ff038a78fdf2daf0769b17b4a51b1596db24e6395efd1c9c6f5af2c97a4',
    'dag_edge-jitter9': '6ba94f4b0dc292f52f5414ee09703e337a97aa1996c2d0e6f9972eaec91fc31b',
    'dag_edge-jitter10': '2160fcfe6d727a09d62a121e2f05f69ecc22ebc6044f092eaa5c50e4cd9ba0c5',
    'fault_input_rail-uniform': 'ec472bcac2dc6fffbe32eff6430097b5816675ae1b916e55be13d0d264d57f6d',
    'fault_rail_pulse-uniform': '9050d222a7766fbc1d3bd570d724764daef4e8dd9f61f952964d29420cc853d0',
    'fault_block_output-uniform': '1a20ddeefca3636887bc72efd125e079de2acf1b266ed864518fa83724820c8d',
    'fault_input_forbidden_twice-uniform': 'a9f70ddff96ce4afa2e7b5f4b019fae8dc38828d53c78b310a496adb6cddc1b8',
    'fault_output_forbidden_twice-uniform': '7429c72f754f270fd186a9febae9e36b6be3dc33483876b83778e2e7339f6c6b',
}


@pytest.mark.parametrize("case", list(CASES))
def test_trace_is_golden(case):
    assert _digest(case) == GOLDEN[case]


@pytest.mark.parametrize("fault, signal", [
    ("fault_input_forbidden_twice", "b"),
    ("fault_output_forbidden_twice", "o"),
])
def test_fault_enters_forbidden_state_twice(fault, signal):
    design, inject = FAULTS[fault]
    tr = _trace(design, "uniform", inject)
    entries = [d for d in tr.diagnostics if d.startswith(f"forbidden state on {signal} ")]
    assert len(entries) == 2, tr.diagnostics
    assert all(d.endswith(": (1, 1)") for d in entries)


def test_fault_input_rail_is_forbidden_and_stalls():
    design, inject = FAULTS["fault_input_rail"]
    tr = _trace(design, "uniform", inject)
    assert tr.diagnostics[0] == "forbidden state on x at t=3: (1, 1)"
    assert tr.deadlock and "stalled" in tr.diagnostics[-1]


def test_reused_fabrics_stay_golden():
    # One fabric per design serves all of its cases, each twice, in a seeded
    # order that interleaves the designs; state a run left on its fabric,
    # such as the elaboration cached there, would change a later digest.
    fabrics = {d: fabric_from_netlist(parse_netlist(src)) for d, src in DESIGNS.items()}
    order = list(CASES) * 2
    random.Random("golden:reuse").shuffle(order)
    for case in order:
        assert _digest(case, fabrics[CASES[case][0]]) == GOLDEN[case], case


def test_corpus_runs_complete():
    # The corpus is only worth its digests if the clean runs finish.
    for design in DESIGNS:
        tr = _trace(design, "uniform")
        assert not tr.deadlock and not tr.diagnostics, design


if __name__ == "__main__":
    for case in CASES:
        print(f"    {case!r}: {_digest(case)!r},")
