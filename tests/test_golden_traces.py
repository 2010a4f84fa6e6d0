"""Golden traces: the kernel's output on a fixed corpus, byte for byte.

Each case maps one netlist, runs it on seeded stimuli (50 values per input)
under uniform delays and under jitter seeds 1..10, and compares the sha256 of
``Trace.to_csv()`` with the digest recorded here.  The corpus is every shape
the mapper accepts except the LEDR 3-input gate (its phase blind spot is due
to be remapped, which will change its traces), a DAG with fan-out per
protocol, a four-phase DAG whose acknowledge joins list a source twice and
join three sources, and five fault injections under uniform delays (see
``FAULTS``).
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
from qdifab.simulator import (
    DelayModel,
    check_no_early_evaluation,
    check_single_toggle,
    fabric_from_netlist,
    run,
)

from . import _oracles

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
    # g1 reads x twice, so x's acknowledge join lists o.sout twice; o feeds
    # three gates, so o's acknowledge join has three sources.
    "dag_4ph_join": _signals("4ph", "xycopqr")
    + "gate g1 fn=8 in=x,x out=o ack\n"
    + "gate g2 fn=8 in=o,y out=p ack\n"
    + "gate g3 fn=6 in=o,y out=q ack\n"
    + "gate g4 fn=e in=o,c out=r\n",
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
    '4ph_2in_ack-uniform': 'b75a8e85a4ee8d1c1d67eb3f082035045320f25d773136ddf9d932144da38b14',
    '4ph_2in_ack-jitter1': '73477efbcb396191e631c9ffed1fd2b3f22f76d3186ea0e4995c1ded8bfa1063',
    '4ph_2in_ack-jitter2': 'b65ddcfa10fd048549d07a91652ba3e7dd482aa72a7d61388c1e54a17afe01d2',
    '4ph_2in_ack-jitter3': 'c1db7af763dc46f682f22562f6019b61753caf8808e2bc1f9ec1ecac73ca5e53',
    '4ph_2in_ack-jitter4': '29bf1ced4c1be997e294878864bd77d80b42249990d23fdb2b3ab86f06f30091',
    '4ph_2in_ack-jitter5': '84932bff402fc8d6c9c944da037f3d78a827e369a4b4d9a0614fe34c136d6753',
    '4ph_2in_ack-jitter6': '9f5d4eefae4db579fac21de59fd6ecca952788afe8620cb2de363cd774a7d6fc',
    '4ph_2in_ack-jitter7': '223e3c9982da9ea8e0e5f7c6b79044b334566ad16d42061bb4be2a71ad33db1e',
    '4ph_2in_ack-jitter8': '151c67af9b8abd0362c83c247a4ba5080c50cd3955e6e361219eb7924ff38f4b',
    '4ph_2in_ack-jitter9': '404453899f34369a33446de8755fc5739ce3e115f8fd7433bd4dbe9dbcdcd1a5',
    '4ph_2in_ack-jitter10': '845df6660ea810a8f4e68134cca1204009e38f0e409a58157910fdbf9b897925',
    '4ph_2in-uniform': '98948ac3d4863ed37c47e93d82fd74ed675ed673f7aff36d5dccc4eea60f5fad',
    '4ph_2in-jitter1': '648b610a17a65adc691ac867ea6efa3f1b5ca461fe7f83e9222566e85ad79e50',
    '4ph_2in-jitter2': '9bfcecf7bc18d96bf3c333fe924cc8645837ad654219936e85db3978d3dcf562',
    '4ph_2in-jitter3': '351bee79420cf466d4a37398756295a248b5a663edde1428194fe12df262a182',
    '4ph_2in-jitter4': '3178e55045cae862021021c3e33994263c01c63d944db126b8eca86ceee49151',
    '4ph_2in-jitter5': 'ecb9776b06dd3eed7a2e8872fe7ac45dda51c9c024bf769a08a24f952eb20ad5',
    '4ph_2in-jitter6': 'b4153f1456855ec59b5c1cda778aa0ff9851774738e08a6c8e78b077cfa382d2',
    '4ph_2in-jitter7': '6a4fe3d4e36ec5fe57730854df477d1498671106002804fac6e05954e8772d54',
    '4ph_2in-jitter8': 'd04e3dbec847be17d1e0012f5ab5cf1386710d55962311932d6553ea6055523f',
    '4ph_2in-jitter9': 'f90358d42f46cf1a624f0445afddd4a0745dd2b2110d3c3898fb9aa58a4918f9',
    '4ph_2in-jitter10': 'cad9e214200cb27f12133869f2be11e44cda2090a7e86829fa0f0263141a79f9',
    '4ph_3in-uniform': 'f2ff54c9c64c2bcc5fba7a8edbeba80e13528b838b0b77b63c33b4853b6b09e0',
    '4ph_3in-jitter1': '30c73a5cf049132b3e5f21916293ed32a0de589ed2baadf0456825bf0fa80a55',
    '4ph_3in-jitter2': '04d76ef233e2c7837c79115812ac6554f11dc883156a1b62744fcc423b5f6e46',
    '4ph_3in-jitter3': 'f2d19d97bcefce68ecde16e481b71b219bfe0c1ccdc0cd0a15c7f8f03ac72bf2',
    '4ph_3in-jitter4': '9a8bc7291669e8931afb3e330c7b24b8081bc333dd6bc0aaf192a719b47993e5',
    '4ph_3in-jitter5': '0250ee47443c2dc19f8ee72b0fc8ba1eabd9a63fdf0105e27feea8d92391c71c',
    '4ph_3in-jitter6': 'ed3643717e0c4de6b70a1c7033ea1c556ba1c352714eb832e198795983b60f59',
    '4ph_3in-jitter7': '2af5bbe35f97c0efccbe823d5d42bb51a8b3c91998b14e7184aefce76069f508',
    '4ph_3in-jitter8': '4ed07b5933c546b689ea7bcb5923287fbfc5002690d4920947a6ad6ecee408ac',
    '4ph_3in-jitter9': 'e407e906e39f13960c24302b412ac7f86f616b43921a956780b0f2b9fa14965b',
    '4ph_3in-jitter10': '98563266850fa597e7cde2dd414c48d8303b1681cda21432140940a32d48ade3',
    '4ph_ter-uniform': 'aca51544ce48d6bbdded516192a445b2198d58d57b7786959fdb39f420f8abdd',
    '4ph_ter-jitter1': '7908e84b753fe8513a170d1b11af75ea0c7906f8031dd0e87004e46a3d04b46e',
    '4ph_ter-jitter2': 'bc1f0260855086098a1a2d4e34127b7f99fdc1d4aac9c70a68811add29047a7b',
    '4ph_ter-jitter3': '7a5f4975b409fe2fc9ea95a3fc114334ed48c0491ee3e864f73cf9a4aa939317',
    '4ph_ter-jitter4': 'cb50ed20e5dc9d45ddeb4bdf8c45cfa1dc3f2027fcc26df67414fb996b24b5f8',
    '4ph_ter-jitter5': '72498467aed9e8051272d9190568326481bf16882b16b2e8653f75ed71602494',
    '4ph_ter-jitter6': '96cbddff3c415fe4112c9274fbcf60078517ef23e07cd6c59cecc8dc682fb49c',
    '4ph_ter-jitter7': '0e4ed0ef7dff04bb9357696da7c90365230ce31c70d7abc82e4e8c6179116593',
    '4ph_ter-jitter8': 'd321338817cea809b29ecb7931aa63f6dfc5156a624abb2928a8435f724aab30',
    '4ph_ter-jitter9': '6fa7bdfac17537ab9fac3d0bedaa7ea57b4539e3d316bb882dbd1fcc7f35133f',
    '4ph_ter-jitter10': '3df74c6b8bcb0a6f79a794b5f946688a6af8be7013c18028669aeb0d1cb76ed2',
    'ledr_2in-uniform': 'ed8d85d1ecfdfbef075c2e1356c01e3e14334c1f2c33028794410a451d727f98',
    'ledr_2in-jitter1': 'd84a348913006605f4b9733e8667ca15941042b3a7d458d79993b38e1f23782c',
    'ledr_2in-jitter2': '0bba52ff4d99f834204de2ce1345c449eafa4f6bb451ce5e4eb21f4cfabf3bd1',
    'ledr_2in-jitter3': '421e7ac60fc295b222d64ddc1b49c96dba4118631c34db279de4d03feb666105',
    'ledr_2in-jitter4': '4f048e62d8dc01cbf1b2dc463ed9f59933055ce959ea8278d1e76623253f5e84',
    'ledr_2in-jitter5': '3d5a8d0f9dd443a60c619c865eee09b9fc0f48049225bf4ba453f0b3812acf1c',
    'ledr_2in-jitter6': '24c89c7b0242d6e066a6cd5efeaaa2448648cf928176edd68da63cb041ae6758',
    'ledr_2in-jitter7': '0bab9a9dfb00d1160a2c5f208e2d7ce9ce82e7dee98fc7893db47e4cc0923135',
    'ledr_2in-jitter8': '7cfdd871f4d77b2a673bb99cc744a8087211a76d405045d5535e660fc8b1d55a',
    'ledr_2in-jitter9': 'b5216d1434e520a55519a681c1558baeacf1d007e0a167b5febf52fd65d88bb0',
    'ledr_2in-jitter10': '59add9cb7a73b27d7b87c15c1ff2ef49874cb8a649242ce074280f6ac730fcd3',
    'edge_2in-uniform': '5d61a8e76fecbc8e2c9af0f17728eba5b5755e950895c1f22ceb78c6b57f5173',
    'edge_2in-jitter1': 'fc552efd9573fbb1bb73c00cc990b6eb1986462c9f7dc6472d6414aadbf2d40b',
    'edge_2in-jitter2': '639e99877699b90399c3896c333c06e7a3edc60afaae84cb08910ce36ed32e70',
    'edge_2in-jitter3': '00f153e152c8f299864aa58de5fc61f8812969e85f42aa4ee940c06afabe5c1f',
    'edge_2in-jitter4': 'be80628cfd5a1b56eddae1e6b8e5a146919913857db1ecf3ee1ac92e830baa19',
    'edge_2in-jitter5': '0f46a071dafaa42a3e46bd3436221b5c0c12e767c30796068669ea5c616196df',
    'edge_2in-jitter6': 'c4ffdc98c4e01d286260cff3f2fd81b9342f003a3cefd75c8f8d7de5d7bdd7ac',
    'edge_2in-jitter7': 'a736f19b7f86737f2dea585f45ee27b80602b7fd51f61496975651ee2f00f6db',
    'edge_2in-jitter8': '05857861b8f0d0be16d6bd90eeb79940e716d678b25b070e6d71eb3b3b1c5519',
    'edge_2in-jitter9': 'f3192d13b7fb48a42c2ac87247d41fc3e57f4c77d8465d638be3c61c00c03d4d',
    'edge_2in-jitter10': '875054bb85b66008a2c971a38d089966cbf91850d05a0bca52e89d77eab7ca9f',
    'dag_4ph-uniform': 'd6ef5aef7ed6d37bd0ec5866454652f43bec2d69af039ed088a15a66990ea72b',
    'dag_4ph-jitter1': 'fe94eff906c37c8205198ead32e481f8679304124cff628bfb33ee58665b32a9',
    'dag_4ph-jitter2': '0180b314934004d50469cbbdc77529cc62dcf00bb906f56a090e912f8aaef8c8',
    'dag_4ph-jitter3': 'ca283e92996858ef6ed898e44387994739c6f9bcd5b970d4cd9ab0a51bc6281c',
    'dag_4ph-jitter4': '57737487adef721e9642ce76062d5ea54c97ecf966f8b30842eb16960f3ebb6a',
    'dag_4ph-jitter5': '9362b7aa42683570574d3b1289411a10ff41f91569e941d86fe4e666bf5ce660',
    'dag_4ph-jitter6': '7e6138e31d29204fb21bec6dd25fb62a188032d778ab238d19e29893d5228d32',
    'dag_4ph-jitter7': 'b5624ae89b88e57be90e94a702a1020182eb101f060418e0cd582bf3b1061742',
    'dag_4ph-jitter8': '89bb9d49956bf749bb04e5df4a744781695991d9c3add02b3e83abea91e34264',
    'dag_4ph-jitter9': 'a4486ee8fc9b9e7b35389331fee5772f42c2fe6030c0ecd2362b1bed4d5c5aac',
    'dag_4ph-jitter10': '7914e88b90e99eb300e32640745b0c3e695bfd75f375103303e662208778c9b3',
    'dag_ledr-uniform': 'e60a157ecc3471a5e93121e9767200afd1b02dede7295d23a84d397c9b992413',
    'dag_ledr-jitter1': '73bcef874570335cc7dbeac0abe5fb1735c5f662fe23fbdb411eebd6fb04c392',
    'dag_ledr-jitter2': 'ea677ca3e7567517c3c54a6ec07d865ba25e326bb0d2e688df1b35857c962bc6',
    'dag_ledr-jitter3': '65416f142e483ed86f55cbe9a5ada5c780c90a4c265f553af3b710529c1b2c3c',
    'dag_ledr-jitter4': '17c62478477ff996d3b3ddb41a79a6752c88947c8fbb77988a912f965f63868f',
    'dag_ledr-jitter5': 'b4dd396f84a5107ea24c55982ad6adabd9f8c89adb1912fe3d064f50970dc84d',
    'dag_ledr-jitter6': '3a25ff4a2b65952acd0a698321d1930ead07096826dd9160bf79c5b3bbfc7243',
    'dag_ledr-jitter7': 'c17ca0341a608173ecc6c16d2f55de511cd7c988f4d6be270ecf4e844ab658a4',
    'dag_ledr-jitter8': 'c47677f7cf5c5a6963060b1efc2d132fd23870201067bdc361ccbc3cfdf2f228',
    'dag_ledr-jitter9': '723f533c09cb9d0572d5aa9366bd3a93822874a2a5460c3ed36650a44140601f',
    'dag_ledr-jitter10': '11af089c79c3fd2a01e7b0c47112ac4092292c3520aa58cf217ca4735893e30b',
    'dag_edge-uniform': 'f08ffb4fc82958adae5bdd2469c997792c755430127440bef450aafb3412dc49',
    'dag_edge-jitter1': '818920e086c29aa94d6eba8674b316320b8cae755fb45722997a6130c8e48d13',
    'dag_edge-jitter2': '948494ccd80076da1909d487c65e47613e90c2f5e61b959aca7ae5b2616d9cf4',
    'dag_edge-jitter3': '6f5d4258eaca458f7689ffdb57e4e7c6fc694894bfb2a65ae3eca9cdaaa1526b',
    'dag_edge-jitter4': '07c0f3b7ba86400b2baeebd0d31cdad6031d3544e4e9297cc85a252d074f84d1',
    'dag_edge-jitter5': 'c9007679e877c3d1ece80e745f00ed7ede5f8a77eb45fc596f11ebe7aea63c3d',
    'dag_edge-jitter6': '19b02137fefde99a72d8eae0c84b980f46b348380e06be71fbadb00fc6fdeb73',
    'dag_edge-jitter7': '9a3d6ac0fc2fda96e513ad972dba360854a2f384d5d6ccbe7739bdbe05a25157',
    'dag_edge-jitter8': '9210c09e480d8ca20ea52ba1f5603cf57bbe566aefc548ec7f8cc7826e9d23ea',
    'dag_edge-jitter9': 'ffc77273740fa1876411c4d020b3990985b47d28b8589446adcab4f9cf3194bc',
    'dag_edge-jitter10': '9acd2850201b0fe3f3251869d3cdb4c7a541250e2af02aad296c5fe83d138b65',
    'dag_4ph_join-uniform': '9bbfc30edec15aa975b079e5b128d40cc539dde36f13119909d0507f3eec8470',
    'dag_4ph_join-jitter1': '7884e9189d884e2ab281b1503821f0b56a6f537ae8da9304e8857a2b134b37e0',
    'dag_4ph_join-jitter2': '42da86538ca5fb482c677676512ef5fbe17af5cb30cf6b064c9c30e51f7780c4',
    'dag_4ph_join-jitter3': '4b6de61bb5280f09fa97078b10332372b04edbc213867f57f6923e61ea057169',
    'dag_4ph_join-jitter4': '7272cc1f6060478b3cee544769823f416d46628069dee734937e88b60898e58e',
    'dag_4ph_join-jitter5': '5d511c97b7550f4342c2bce77b75cb3582cf756d0d088747c66d6b51e96add85',
    'dag_4ph_join-jitter6': 'cd25f820fce09eaf08a367d0bac7ca511c8ef6edfea52e4a8bc86ed093d6698f',
    'dag_4ph_join-jitter7': 'adc296388541c974fa49d8cec895f721922f1aacfda1e58c5f55ebb574b7109b',
    'dag_4ph_join-jitter8': '676ca693d866eedc270bf6aef11b700c19c964b99a413cc758d64679c2112822',
    'dag_4ph_join-jitter9': '93e3bc2898cb9580436fcde388ffe0446b3467456282f5e31bcba214beee1aa5',
    'dag_4ph_join-jitter10': 'b64604625dd2e42ebbdb11b9f6afa18d9c2a4670fdf96d90e69a6a4c0efea1d8',
    'fault_input_rail-uniform': '2325b4c455ece5f4f2ebf2c088dc6a19af7725221d4d97af75b56dc997a7d962',
    'fault_rail_pulse-uniform': '25e77f51f41501795a833f3ce047aefbdb185352bebdde221a39921cf5647273',
    'fault_block_output-uniform': '915752590fb7a0a76234f6e25f4a7ad643a7366a059bd8f1586c1e5047778547',
    'fault_input_forbidden_twice-uniform': '209ddec8f2540eb683c26463a2579a193d05321a6ca8710201ab9ff140f3635d',
    'fault_output_forbidden_twice-uniform': '4ef6938a427800c0c30de43abcbc60df35f4ab00d0f4b164da1f1f686ade52fe',
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


def test_checkers_match_oracles_on_corpus():
    # Both checkers pass and fail on real traces: some jittered runs break
    # the rendez-vous and the faults break single-toggle.
    verdicts = set()
    for case, args in CASES.items():
        tr = _trace(*args)
        no_early = check_no_early_evaluation(tr)
        assert no_early == _oracles.check_no_early_evaluation(tr), case
        single = check_single_toggle(tr)
        assert single == _oracles.single_toggle_verdicts(tr), case
        verdicts |= {("no-early-eval", no_early[0]),
                     *(("single-toggle", ok) for ok, _ in single.values())}
    assert len(verdicts) == 4, verdicts


if __name__ == "__main__":
    for case in CASES:
        print(f"    {case!r}: {_digest(case)!r},")
