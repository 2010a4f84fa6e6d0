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

from qdifab.bitstream import read_bitstream, write_bitstream
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

# Every gate reads its consumer's acknowledge where its shape has a wire
# for it; 4ph_2in_ack (XOR) keeps the name it had when that took a flag.
DESIGNS = {
    "4ph_2in_ack": _signals("4ph", "xyo") + "gate g fn=6 in=x,y out=o\n",
    "4ph_2in": _signals("4ph", "xyo") + "gate g fn=8 in=x,y out=o\n",
    "4ph_3in": _signals("4ph", "abco") + "gate g fn=e8 in=a,b,c out=o\n",
    "4ph_ter": _signals("4ph", "tuv", 3) + f"gate g fn={_TER_SUM:x} in=t,u out=v\n",
    "ledr_2in": _signals("ledr", "xyo") + "gate g fn=6 in=x,y out=o\n",
    "edge_2in": _signals("edge", "xyo") + "gate g fn=8 in=x,y out=o\n",
    # Fan-out DAGs: b, p, y and x each feed two gates.
    "dag_4ph": _signals("4ph", "abcdpqr")
    + "gate g1 fn=6 in=a,b out=p\n"
    + "gate g2 fn=e8 in=p,b,c out=q\n"
    + "gate g3 fn=8 in=p,d out=r\n",
    "dag_ledr": _signals("ledr", "xyzabo")
    + "gate g1 fn=6 in=x,y out=a\n"
    + "gate g2 fn=8 in=a,z out=b\n"
    + "gate g3 fn=e in=b,y out=o\n",
    "dag_edge": _signals("edge", "xyzabo")
    + "gate g1 fn=6 in=x,y out=a\n"
    + "gate g2 fn=8 in=a,z out=b\n"
    + "gate g3 fn=e in=b,x out=o\n",
    # g1 reads x twice, so x's acknowledge join lists o.sout twice; o feeds
    # three gates, so o's acknowledge join has three sources.
    "dag_4ph_join": _signals("4ph", "xycopqr")
    + "gate g1 fn=8 in=x,x out=o\n"
    + "gate g2 fn=8 in=o,y out=p\n"
    + "gate g3 fn=6 in=o,y out=q\n"
    + "gate g4 fn=e in=o,c out=r\n",
}

# (design, forced wire events):
# - fault_input_rail raises x.1 while the producer holds x.0 high (t=2..6):
#   x enters the forbidden state, never leaves it, and the handshake stalls;
# - fault_rail_pulse raises b.0, which the producer already holds high
#   (t=2..10), so only its fall at t=9, a tick before the producer's, changes
#   a wire; the run completes without a diagnostic;
# - fault_block_output pulls o.0 up at t=2, two ticks before its block drives
#   it up; the block drives from its own state, not the forced level, so its
#   drive at t=4 changes nothing and the consumer records one value per input;
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


def _stimulus(design: str):
    """The design's netlist and its golden stimulus."""
    net = parse_netlist(DESIGNS[design])
    rng = random.Random(f"golden:{design}")
    return net, {
        s: [rng.randrange(net.signals[s].arity) for _ in range(VALUES)]
        for s in net.primary_inputs()
    }


def _trace(design: str, delays: str, inject=None, fabric=None):
    """A golden run, on ``fabric`` if given (it must be the design's)."""
    net, stim = _stimulus(design)
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
    '4ph_2in_ack-uniform': 'c8cbb799289704d50554bd75767d01c0028979e0d6c2c8eb78eea95d4bc92293',
    '4ph_2in_ack-jitter1': 'c0d284a02a49bd49126b5eaff795e5bed3f09f714fcffa2cf2a432de4ab54e03',
    '4ph_2in_ack-jitter2': '1a3bf7eb68437cd047a28fd1baff7471c75b3db50b6e8a5ee319e8b8ad7b14e9',
    '4ph_2in_ack-jitter3': '7adf3a4c4e52dfe264589628c761d7910d62e8fcc53d902d077265e6b04c53de',
    '4ph_2in_ack-jitter4': '356e7c684af4f43567f32fbe62093f72fcb09fbf2fe76a4f0d7c25e753a52fa4',
    '4ph_2in_ack-jitter5': '293769e96c8a76cbc2febe3c31f83ff0dc618c941a3a2f5633c4d32b5d0e5b6e',
    '4ph_2in_ack-jitter6': '2f492d8c0e8d637a2ea1474aec6a593213425b07aaedcd37c64837188138d8e2',
    '4ph_2in_ack-jitter7': '3fa4a72a93ac3137a72cfa28b707bf6b9505ced826ff4516951df1f75558ba66',
    '4ph_2in_ack-jitter8': 'bd8f1320f29fde2535f96349e91ba61342e65003323f0050102409d3f5e3cbab',
    '4ph_2in_ack-jitter9': '56b67a711023bc9fa0ba4aab3c8d4476e96db89e8d0e055eaf4813fb9cc32181',
    '4ph_2in_ack-jitter10': 'a066f106b6d04b3ca5ceb4e4e3ac5e4062b85ed192d06f0723b4d1a9e13e8015',
    '4ph_2in-uniform': '78d3435e6cce6425919bb44b1b6f4b77ca2ee3159f2bd912c8655b9e4ac93640',
    '4ph_2in-jitter1': '73fc40e0c682dd2617be5ce829b930c8eb77441a6e70679c6a5a35225be7ca99',
    '4ph_2in-jitter2': 'eced779a3a607b2a100de06a3b6cfceb40e0e11a7a250c564df31d5f9c537acc',
    '4ph_2in-jitter3': '59605313bc7f81f8a8b847bed827438e07551063e184d42087b1db060ad76876',
    '4ph_2in-jitter4': '3de65489d4780de56a31a2d87c88449f2d56e08f2a3d293210ba42ef4d07efb4',
    '4ph_2in-jitter5': '1760a71165f490a6aa931a7e422e6ea2d7ebb594c26eaa7a0faf76ae0362cc77',
    '4ph_2in-jitter6': 'cc67c4b7ecffdb8b7282987c7a9c1e1a2ed8654b6945cf12d35f10abafb8ae40',
    '4ph_2in-jitter7': '00b8977db15264132f90f12c9e2e6b024333d6e4a13cd38ab7521875f86da40c',
    '4ph_2in-jitter8': 'd1aa07e802dbeecc07b4e044a84eb809c9d662ffee57f2d5c35841940899ccc0',
    '4ph_2in-jitter9': '10ec48fc4c8a49d4091503c498b94821d8312515ea9b635c7b88d6c9f2fd5c20',
    '4ph_2in-jitter10': '940b90ac3b9a3a0b6a5aab2d76a9267566e5430966f79f26d299b41bfc72c1d9',
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
    'ledr_2in-uniform': '8a92795d437206fb92817ffb7193c731172bbcc917291be186f200ab7c75f2c7',
    'ledr_2in-jitter1': 'aed132fc45cdd2f033e84f55c217410c2d93ae8ae5665fe76c7d8814744c5b2b',
    'ledr_2in-jitter2': '19ee4d50dae13a21d335f1e84b3a0ccccb76b2f512560405d4ea70b22c5bc2d9',
    'ledr_2in-jitter3': '1f8f64b8bbcc1e98e49c915f58c0dd15c144811f96a34ed90b710d18d6c8d908',
    'ledr_2in-jitter4': '2670fe869142acf0003cb68e64b31c9254754f7722180d41df91be224aa92744',
    'ledr_2in-jitter5': '11b87f2abc09eadc060d2accf7352174ac5d9632d451e3f05d4dfb9788d1caed',
    'ledr_2in-jitter6': '1aaa7ebb0adc2b6b44c372197cf3df7a1b97618ec692b7509259c11eb90646a6',
    'ledr_2in-jitter7': '478ea4555c1544117d612a255802a1a76a14e19dca46501ebb928df812f958fd',
    'ledr_2in-jitter8': 'f24eb50e9b19d827c6e46e1f16c2d9dd80e648b15f33173093961e871ede5816',
    'ledr_2in-jitter9': '4d873e76de5c523c32d865aa4cbeff8fa1295d6a0c8aaa4e2baa4aab723d603f',
    'ledr_2in-jitter10': '4c802531368411e9ec0fc68da6ab61897588a0ea08879ad1b86a07f45257e4f7',
    'edge_2in-uniform': 'aa5660fed652efbcc30b70875643d95f26775fc5e9ca4d3b5d97b0480d9e92d6',
    'edge_2in-jitter1': '7f6d8120b1b37dd850715201bc23f609b75f2b477552002b9e7887943d711dd4',
    'edge_2in-jitter2': 'a1e00869827bae4c76f6095bb568d8f6bd8b1b9e0b7a5da10d518675adacbd9e',
    'edge_2in-jitter3': '352a6ee603a5185f4c8791488047926d620b87c478ac6bd90fa71dacbcb8f956',
    'edge_2in-jitter4': '48a9e251be6dc92d84e195db38d6dc17e39d4ee111910d3da9e997b4c73dfd0d',
    'edge_2in-jitter5': '0ed6409554472e96437c01dabe8e09532141787a356e49196da2598a9ebeb9c1',
    'edge_2in-jitter6': '802881a6db777ac4647bff3fcde505a70ba8746143176914ef2b9ba86fac5c24',
    'edge_2in-jitter7': '9cfa8e301a72a3ee2c785a4be7f123c839e62b0ddfaeb830b7da60e9dca644fe',
    'edge_2in-jitter8': 'fa6c43448711ddc7b16a0d02e9fd9f87b902909926f7d4387588d8af67b18beb',
    'edge_2in-jitter9': 'b0771d338188ecc5c9d5127f9071aad9badef11051295e32b94ee873adb82879',
    'edge_2in-jitter10': '2a8c58cf88d7231cccb026ea8f07b4cdcc51461037ad0f02837af01b3d09adbd',
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
    'dag_ledr-uniform': 'be6c9456b61c42dcc532d6d8d5f7b224ef367372fddf69c0d8131defbe44b5b4',
    'dag_ledr-jitter1': 'dead8c057906975e53941eefc9f0b9a599868ae9e6149fe0b9c02b31b197e83b',
    'dag_ledr-jitter2': '7f1aed385bd9bccab9fd63f8a8a056d06ca5f57d746cdbcf7c34d382360d556f',
    'dag_ledr-jitter3': '76ed6fc3cf7a73251114e631498e5619ca62467ebc882b26183cbefbfd3eb7ec',
    'dag_ledr-jitter4': '8aad520816acc1ab716511ee7f1923d1d5fe42d7976abcfacf51dce4abf67a47',
    'dag_ledr-jitter5': '542a29f253ee27682a47314ea1a7f788638577563e7400c1d4ef975c231ea386',
    'dag_ledr-jitter6': '11ab14b348555bfb361c307104c8160840c125de7f78ce655b7234f76250483c',
    'dag_ledr-jitter7': 'c8a6b604aeb208cc203127cb32ce2267f0d5a3f0cb5b096617006e55dcdfa4bd',
    'dag_ledr-jitter8': '6229d6e759726deb6772870a0922dedb2d2ec273cde1d44ceb89538f0decc159',
    'dag_ledr-jitter9': '048ddcf7380a818ea7bbc2fe23f874d944d122a794e2cb0a523e0c967d853368',
    'dag_ledr-jitter10': '251fa7d49bc153a5405b0549ae5e4a195cf76ed13831de672580f5839e1b6d13',
    'dag_edge-uniform': 'e6287677b8f84e66878a344ea7504cdbf4bf5f8255165e163f4d6ef84f46b694',
    'dag_edge-jitter1': 'af8b942af0a8794eb6ff0c7ab5a88b62c45bc2dfee1daee6f618700b18d9ce94',
    'dag_edge-jitter2': '14dba7e9aace07ae090b65c91c2792f88b792e9aecfca931e4a27eb5650e7c83',
    'dag_edge-jitter3': '0c9ef98a813d2118a95b0abf4617c403544281d223053d6605874038b95c1031',
    'dag_edge-jitter4': 'fa6d09edb5f09b71c24c4044b6bd0b89702a4a1694de842df5be7a196c9e5ddc',
    'dag_edge-jitter5': 'cb4d544bca4e804fbb024afcb9200694ff3d54327f4abf3fc38ee7e24bba7f5f',
    'dag_edge-jitter6': '1787a914595c7ffa7ed795d5c410f260c36b0e319f373ca38a90c49764cda97c',
    'dag_edge-jitter7': '956212e48be6dd161996f90273c4834a289645fb39238ef94614702e825bfa72',
    'dag_edge-jitter8': 'df69cd42f583554b9898561e4aebfa9adf1e92ac7dac92a79a22b6af7986587c',
    'dag_edge-jitter9': 'adcefb2952f994ed780c95f769ace4d20300e50e5cb3f032ccbd31d5d99b62c5',
    'dag_edge-jitter10': 'a5c04d4c72d6cb4439cd27722703858e17afa87e4e9a56ddd15e587544c9e8be',
    'dag_4ph_join-uniform': 'd64840b9dc6c23af7d64aa37b86ba6c31842c2839101fbfffb5f957dd30334ba',
    'dag_4ph_join-jitter1': '8dd80c48e733f3e385992d7578794194a7cd7f5f453fa6a901b2c3e8e56397f6',
    'dag_4ph_join-jitter2': 'abb89104f60a07924d3338a6d5b7103e3d298ac37e59837a0ab0596e16087e74',
    'dag_4ph_join-jitter3': 'e8f21256062207b962f573c2b7d1f4b8bb113b07ed5254cf88f2fd002b862e78',
    'dag_4ph_join-jitter4': 'ad21f8eecd353b2146719c57fc85be1f636448785a358592e899091423c69ef9',
    'dag_4ph_join-jitter5': '4364f7ee859de87c42b3ac03a9f0a87be1896d44d7b79fd437215d2a9ebb4019',
    'dag_4ph_join-jitter6': '1870f4e85b5c94559279f05b488160744ad0646cc06492537df64f4050d9bd06',
    'dag_4ph_join-jitter7': '5ea34a6a51a5775afcb9d97837704504b19d5ff2f4e2b0489d012a40e04225e2',
    'dag_4ph_join-jitter8': '9ecf7eb0793bb5328a301be476b2ffb798c2d0de4bcf692eb114039a34d04b20',
    'dag_4ph_join-jitter9': 'a4ca301e65ae55797415a7518373b2601dcb34782cc16b7b1907c610036e4a2f',
    'dag_4ph_join-jitter10': '258e05dd4a276419aa86079cbd077f242f13f306b4a65dabc906e559475b7742',
    'fault_input_rail-uniform': '0300ba9193ad9a661c2a0fe9f9493eebe60da14c6a7e072fc4c8c54d0486b7c4',
    'fault_rail_pulse-uniform': '25e77f51f41501795a833f3ce047aefbdb185352bebdde221a39921cf5647273',
    'fault_block_output-uniform': 'a520aa9ebb256a9fec589ba125b3af64ed3242d8f258a289e0a2305f5ff1d54c',
    'fault_input_forbidden_twice-uniform': '209ddec8f2540eb683c26463a2579a193d05321a6ca8710201ab9ff140f3635d',
    'fault_output_forbidden_twice-uniform': '4bb9851b1712c63b33c87a37d60e24bf4870da59162d42cde6361a5607905e02',
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


def test_fault_block_output_records_one_value_per_input():
    # The block drives what its own state says, whatever level the forced
    # o.0 holds, so the pulled-up rail adds no value and changes none.
    design, inject = FAULTS["fault_block_output"]
    values = _trace(design, "uniform", inject).values_of("o")
    assert len(values) == VALUES
    assert values == _trace(design, "uniform").values_of("o")


def test_reused_fabrics_stay_golden():
    # One fabric per design serves all of its cases, each twice, in a seeded
    # order that interleaves the designs; state a run left on its fabric,
    # such as the elaboration cached there, would change a later digest.
    fabrics = {d: fabric_from_netlist(parse_netlist(src)) for d, src in DESIGNS.items()}
    order = list(CASES) * 2
    random.Random("golden:reuse").shuffle(order)
    for case in order:
        assert _digest(case, fabrics[CASES[case][0]]) == GOLDEN[case], case


@pytest.mark.parametrize("design", list(DESIGNS))
def test_bitstream_round_trip_writes_the_same_trace(design):
    # One fingerprint, one trace: the netlist's fabric and the fabric read
    # back from its bitstream write the same bytes.
    fabric = fabric_from_netlist(parse_netlist(DESIGNS[design]))
    loaded = read_bitstream(write_bitstream(fabric))
    for delays in ("uniform", "jitter3"):
        assert (_trace(design, delays, fabric=fabric).to_csv()
                == _trace(design, delays, fabric=loaded).to_csv()), delays


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
