"""Golden output bytes: sha256 digests of the instance file and of every
report's JSON for a fixed subset of the seeded corpus, plus the three
degradations of one of its members.  Any drift in the bytes a user sees
(file format, canonical bases, witnesses, verdicts) fails here.  The
complement systems of the same corpus members are pinned the same way, and
so is the identity suite, together with its failing checks on the hand-made
non-distributive fixture.  The grid report and identity suite of two exact,
non-distributive series pin the strict side of the codim-sum criterion.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from llschain import lls_core, simple_basis
from llschain.exactla import Subspace
from llschain.generator import degrade

from conftest import CORPUS_SIZE, abstract_nondistributive_instance, one_node_instance, rescaled
from complements import (
    build_complement_system,
    certificate_complement_systems,
    certificate_push_candidates,
    growth_report,
    structure_report,
)

GOLDEN_INDICES = range(0, CORPUS_SIZE, 5)  # 20 instances, every (d, r) combo
DEGRADED_FROM = 3  # a d=2, r=1 corpus member
DEGRADE_MODES = ("shrink-V", "break-linking", "break-exactness")


def _digest(data: dict) -> str:
    text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def golden_instances(corpus) -> list[tuple[str, object]]:
    out = [(f"corpus[{k}]", corpus[k].instance) for k in GOLDEN_INDICES]
    base = corpus[DEGRADED_FROM].instance
    out += [(f"corpus[{DEGRADED_FROM}]/{mode}", degrade(base, mode, seed=1).instance)
            for mode in DEGRADE_MODES]
    return out


def golden_digests(corpus) -> dict[str, dict[str, str]]:
    out = {}
    for label, inst in golden_instances(corpus):
        exact = lls_core.exactness(inst)
        row = {
            "instance": _digest(lls_core.instance_to_json(inst)),
            "validate": _digest(lls_core.validate(inst).to_json()),
            "exactness": _digest(exact.to_json()),
            "is_simple": _digest(simple_basis.is_simple(inst).to_json()),
        }
        if exact.exact:
            row["codim_report"] = _digest(lls_core.codim_report(inst).to_json())
        out[label] = row
    return out


# Recorded with the Fraction Gauss-Jordan elimination that preceded the
# integer one; the canonical RREF makes every byte independent of it.
GOLDEN = {
    'corpus[0]': {
        'instance': '81a2f33817360c4ac8447b93f90130ed0c04783183217dcc072e11ececbc101b',
        'validate': '7e4bbee3892d39c5c8fc726c86996477282e22c33f15d1d845e4370ee818544c',
        'exactness': '7cd577560533d1cf2dde1a10e33f54311fbb0b73fdccfd2b13f4f5253153c869',
        'is_simple': '649e78e3df4761b9f7b395275f5a3287f57fa05ddf6b2ee1cb80c6415f4ae264',
        'codim_report': 'e64ff8d28dcbc3f9e47646a84709e2261c337f7d76f635882675e11dac59e6d3',
    },
    'corpus[5]': {
        'instance': 'ee6554cae9779f635369c20a4167014ed6f8637d4eff104a49570bebd76e7448',
        'validate': '7e4bbee3892d39c5c8fc726c86996477282e22c33f15d1d845e4370ee818544c',
        'exactness': '8faee8a1a86ce6c6f63186b824210d38ca9f9b46b4036c61dbf2614aeb73ad74',
        'is_simple': 'f9f29e9a889a0f07973c4b9e3ac34cbed12933b796dad1d2599a2beb2e96a383',
        'codim_report': '548bee43c20ae00307fa2351da061932367c6fb9e923e29fb8cdb2a8eef71ab5',
    },
    'corpus[10]': {
        'instance': '041cb82511ad7efa73556451d62de28ff0e402fe7d0b26de0941b9a4fe1c0170',
        'validate': '7e4bbee3892d39c5c8fc726c86996477282e22c33f15d1d845e4370ee818544c',
        'exactness': '0fa8251bd46d8af9bf18a68dd43d71a117e58260c41a2426b56d7ec177312fb6',
        'is_simple': 'd7a19f7c5cd3ca678364c992dce8fe2b8ab78b9cf2d19de56d682d5babbb9457',
        'codim_report': 'ba645e172ebd90a926642e957d27aeef65db1775e61f93178a9f5e9ee53954b0',
    },
    'corpus[15]': {
        'instance': 'd4a1b05bb54cc848b7960d4ef7bbbf279e22609a17e981f7adb7d56df68947be',
        'validate': '7e4bbee3892d39c5c8fc726c86996477282e22c33f15d1d845e4370ee818544c',
        'exactness': '7166cdc1c867b3926b8dbb49451056b1de620912f98b45396334b96a8bb5b860',
        'is_simple': 'fd975a8087fb001d2c32ccb53162468e1382b8d967dfadc5dd073e6e246afab9',
        'codim_report': 'e3a34a49e4676f0639f607cff817ee1e0a21b2bc00730bf70e11bad7ad58a1e0',
    },
    'corpus[20]': {
        'instance': '1f79752fe2895efaf5fb4e1440eb34c227e257d754ab6ed6e80576e3d4c7a12d',
        'validate': '7e4bbee3892d39c5c8fc726c86996477282e22c33f15d1d845e4370ee818544c',
        'exactness': '887d037591f1fedebee7861fa1b5f5eda2136bccd37cb014c81a0617b34e2229',
        'is_simple': '54c4e05af876c1c6cec2f48957026b2e0d81e0f25cd3ca9d27b49629032cda25',
        'codim_report': 'bc599aa96192825c6f8dc6b34ef439e4c02332d6b602a106d60ecfb5c6288a04',
    },
    'corpus[25]': {
        'instance': 'c19ee21bea183ca6ebf11f810441be4bf181ef2c1d65ac176c0e4d2ffc40bfb6',
        'validate': '7e4bbee3892d39c5c8fc726c86996477282e22c33f15d1d845e4370ee818544c',
        'exactness': '7470f29ed9383ceb3565bd6b9df4738a04f5f1e2d57c7127011d163ece2d6336',
        'is_simple': '50e446ff35f5aeff5ec03f38b5009286516023cc4e5e2541874b906058f8e250',
        'codim_report': 'f6682e28cc1d8bb803cf077732fde23f84d38110637889b803cc3ec21f464213',
    },
    'corpus[30]': {
        'instance': '3e55f41c417cfeb1ca7b16751eba4b983fccaad08f5292edf3f5de8ad486ec19',
        'validate': '7e4bbee3892d39c5c8fc726c86996477282e22c33f15d1d845e4370ee818544c',
        'exactness': 'c471542f89c291428f1368850ddcbb4729afdf6b21b92bca194e120921bb078f',
        'is_simple': '5f880a0c69bcd9d2505da3d5d68c7ba69ea4d2438f6f434bcd947998247c4c49',
        'codim_report': 'ad8d5b4153477a9cdd6c26edfb5ae894689fbf2e931abad53add4059f0f83ede',
    },
    'corpus[35]': {
        'instance': '0fb63a3699c7ad41495ae7ccad0da366be07445da83af8338d33dfa09e13b80b',
        'validate': '7e4bbee3892d39c5c8fc726c86996477282e22c33f15d1d845e4370ee818544c',
        'exactness': '05d06a64227306f667389f551855613dca096cb5cbe9590ae96e32caa338a756',
        'is_simple': '43bf1ef507d766c858bfa9b39d58087aaf18b783422ce92e9b81215acf40bd94',
        'codim_report': 'b0b13d528364539f86de30bd608a8712923c85e17f8c402e0ad2e553caa807bc',
    },
    'corpus[40]': {
        'instance': '837b70aa84084b62a04537acb21a2969247dd3407cae1a1f27d3b77bdab885b7',
        'validate': '7e4bbee3892d39c5c8fc726c86996477282e22c33f15d1d845e4370ee818544c',
        'exactness': '8b0610a596e8bd7d89a1dc762d31c877a249895d32403152e4ffa64031a9d2cc',
        'is_simple': '76877608f786bd8bdc7a033a0d6004bd6ed515000145a3ac26b4c233cdb08edb',
        'codim_report': 'ce5bf7d68f7aebb201a4f4274df0d6d1c5bc69e3e0a0f90647136e6bf311c4b8',
    },
    'corpus[45]': {
        'instance': '8aa7909cdfd524edfa685bed148192ce8b1480d2ce69414875b4572e4ba316c3',
        'validate': '7e4bbee3892d39c5c8fc726c86996477282e22c33f15d1d845e4370ee818544c',
        'exactness': '5f481a4ea802bb118111c2a0abee36d675997260e20c9ca9568f8daf74f3757e',
        'is_simple': '16895da1762e0d2746c6cd783c105a98855b7371be48930e31a0d9d27f695ddf',
        'codim_report': '3f160a3c9eeaf620f2a74fde9dd25773a4d7de354a30e31ff406fe5e8c3e6513',
    },
    'corpus[50]': {
        'instance': 'deca7438ecba397e4cceaa901e282162746ca167e229258ef2d7abd36ff65007',
        'validate': '7e4bbee3892d39c5c8fc726c86996477282e22c33f15d1d845e4370ee818544c',
        'exactness': '9c7a693156c48eb741f12f1ed5b47dc81788c50e513101c837543394808eede2',
        'is_simple': '0a9b9e1af5361efcacde3e91837ab68bc0cb8807feb3a99f099bb0fd2921ccb4',
        'codim_report': 'c0703e0529cda897c1820ece05ba1c34e751ce30fb8feb5ca81d4f75aa278f01',
    },
    'corpus[55]': {
        'instance': 'c5f07018de82db60321d7721ed735fa4a8e8ffd11efd51161de38f7e21d3db82',
        'validate': '7e4bbee3892d39c5c8fc726c86996477282e22c33f15d1d845e4370ee818544c',
        'exactness': 'e81ba81cd0c25cd653a6193114d0ab2e5ed31e2231dd2d163fffc79f97c3b977',
        'is_simple': 'eb8d5a93246d47d033303689fa69e55497a5f590a7d04a46a5099d6bd405b5b7',
        'codim_report': '5fa2dc1dbe4b7b61e54adadc94730c348563dbb76a5957ae0aa5245082ea4d2a',
    },
    'corpus[60]': {
        'instance': 'b57ebc5aab360499ff07c22e11dfce479a9de13ea98206b63f433aa7bb5de97d',
        'validate': '7e4bbee3892d39c5c8fc726c86996477282e22c33f15d1d845e4370ee818544c',
        'exactness': '2999e5921ef3d1e4ae733dd12461eb0021a2f01be83e1bddefbd38159b9f53ce',
        'is_simple': 'a75c28edafd40a88d329855ce7fa04d47c4eb8caf0270a144abf28962795d04e',
        'codim_report': '2021b6b0baba34732757f15c0a990ff4c6c25be46a156a4d778853a085b6a079',
    },
    'corpus[65]': {
        'instance': '0aef4d88886bfda5ed9b8923c7251c6852f1bec0facbe3231f0f9c9301fbe92a',
        'validate': '7e4bbee3892d39c5c8fc726c86996477282e22c33f15d1d845e4370ee818544c',
        'exactness': 'de054a32785338dd58ae9203ae0792bcf9003afdb7c6bb056185bed63a469c43',
        'is_simple': '78fea12d7736c0228a70e17d828e046b9004f66512c3ed5d95601c4987316e50',
        'codim_report': '4a07327b8f11b8a1d948f06f9de1554e59d0519f3b8e69f64fcb665d50a09a11',
    },
    'corpus[70]': {
        'instance': '4e30f15124531ce169aee773e1c606e22a6d276a4770ee688f6df7e5a36aedfb',
        'validate': '7e4bbee3892d39c5c8fc726c86996477282e22c33f15d1d845e4370ee818544c',
        'exactness': '46e71f31cdeea28e2aad2a6f579b0929689af4c9e524e5cbe5b26e0491a5bd72',
        'is_simple': '1d7744fa51374a6383568c55225c225a6e73e3ea6aada41dc73e65007d982592',
        'codim_report': '9149df1428636cf5b59b6eda723a682206ca9e85db60d016d4094285ea2c8afc',
    },
    'corpus[75]': {
        'instance': '7d89c47b062d3cd2cde750251e3268d0cff23fe94ab33649a27f51cca677acb3',
        'validate': '7e4bbee3892d39c5c8fc726c86996477282e22c33f15d1d845e4370ee818544c',
        'exactness': 'b00cb7840b563635819f6378a08a1bfc79cd84a3af24cd1083d169397cc67ab0',
        'is_simple': 'f659fc7ec0e57c118ba9abc7b7f4bc3b84a8e893686f55a876da87c0513196f2',
        'codim_report': 'dba12f8a71153adf029e6d24f98988eb0510193c4095b6f707bd9b9fd8d3f46e',
    },
    'corpus[80]': {
        'instance': '26560c87e02580452a866527458bcc80bb4a496957f333dae3708d52a30801d8',
        'validate': '7e4bbee3892d39c5c8fc726c86996477282e22c33f15d1d845e4370ee818544c',
        'exactness': '92ecf55607cb6a6c90cff45ebb700b6fc785b48ec56bbb6834333798112b4def',
        'is_simple': 'b11ddd249a46a1092a6b08cedb22dea65277a9838392f2ec770c9dd4d7e8d2d3',
        'codim_report': '74954b3d93d28ef240480003a357c0aa01794d65f74b7ea6daedf35381865313',
    },
    'corpus[85]': {
        'instance': '40bfc6c46d04ca466c1569699874edd91589c8918b7452aa4cc52c5dcdb78c4e',
        'validate': '7e4bbee3892d39c5c8fc726c86996477282e22c33f15d1d845e4370ee818544c',
        'exactness': '7166cdc1c867b3926b8dbb49451056b1de620912f98b45396334b96a8bb5b860',
        'is_simple': 'fd975a8087fb001d2c32ccb53162468e1382b8d967dfadc5dd073e6e246afab9',
        'codim_report': 'e3a34a49e4676f0639f607cff817ee1e0a21b2bc00730bf70e11bad7ad58a1e0',
    },
    'corpus[90]': {
        'instance': '870f3d759f94c16bfc3b7b209b495b1eea841aeeb373f92ad1a135658e608b10',
        'validate': '7e4bbee3892d39c5c8fc726c86996477282e22c33f15d1d845e4370ee818544c',
        'exactness': '8621580bb839d12a0763dcaa0be417ffbf330b35ab08625f128edcc963065ac0',
        'is_simple': '9674e25e5873ebddd69794ea86179b7838f73a0ecb7156c5f21151fc289dd00c',
        'codim_report': '5117440d75b5a93ff38f4bc3998f6f90dcd7077e1823c2e737f9b69b4de3eae7',
    },
    'corpus[95]': {
        'instance': '27ddcbbf620c71b7817c86145b0800f61e60c9642f490fe06edf95507d621c96',
        'validate': '7e4bbee3892d39c5c8fc726c86996477282e22c33f15d1d845e4370ee818544c',
        'exactness': 'ef5a2e967c34b0072b417982de8ccc1ed318ca0215ea5d9eba37e5be92a9df9e',
        'is_simple': '862bd48cc0a53add116ac0833ae6fe1ed501aec13f40be5ffdd2431c2c4e202f',
        'codim_report': 'a804c46d590cb6d89094b140efb0cb42b041cc778106a57d6c26e64128822603',
    },
    'corpus[3]/shrink-V': {
        'instance': 'cbf6a07c287a03c3206490aee852ab277a403482fb4c4e749b849132f7d30f4d',
        'validate': '1b446bebab39c26a7f45b4388f08d028f9dc7cb4852e4d906e9fc730b731121a',
        'exactness': '5f17869c0673119859aead25eebe2ee051ae0ace37f6297d65d664fcf62908b2',
        'is_simple': '62e1ba30f01ae47151c56eba04bcbeefb85b7f5e133aa16c00389ad96ed0462d',
    },
    'corpus[3]/break-linking': {
        'instance': '0d5e09ab0cef542554244a6b67ab94aebfa79ad22fbe208c4d73cedde4a15a7f',
        'validate': 'd8dd421c7a94d7c3250f1a0db827a52e8cc148867b95542785ebbb6edf3e611d',
        'exactness': '52b17ee13634934e4c118860526dec3de3d74e3891a01a411aaf2b2819300d25',
        'is_simple': '529ffd422f233c455848d328a8fd598d86d1e8d83d29c8a496a55a2bbbf71d13',
    },
    'corpus[3]/break-exactness': {
        'instance': '44208a68114d18a2783a44360cf15b208b2293221dcff6d78ec344b989c1d640',
        'validate': '7e4bbee3892d39c5c8fc726c86996477282e22c33f15d1d845e4370ee818544c',
        'exactness': '3a8d384fff146d7bc435d9fea0b5cf865117812fcc59ce308b564f9ad95b135e',
        'is_simple': '90324144664d6b230593eca76e593947ba0f6b2bdcd822ebd0d5f3a069f1a821',
    },
}


@pytest.fixture(scope="module")
def digests(corpus):
    return golden_digests(corpus)


def test_golden_labels(digests):
    assert list(digests) == list(GOLDEN)


@pytest.mark.parametrize("label", list(GOLDEN))
def test_golden_bytes(digests, label):
    assert digests[label] == GOLDEN[label]


def _system_json(inst, system) -> dict:
    return {f"{md.i},{md.l}": [[str(e) for e in vec] for vec in system.basis[md]]
            for md in inst.multidegrees}


def complement_digests(corpus) -> dict[str, dict[str, str]]:
    """Digests of the complement systems of the golden corpus members: the
    swept bases with and without pushed certificate sections preferred,
    the systems read off the certificate, the structure report and the
    sorted growth entries of the plain sweep."""
    out = {}
    for k in GOLDEN_INDICES:
        inst = corpus[k].instance
        cert = simple_basis.extract_certificate(inst)
        preferred = certificate_push_candidates(inst, cert)
        built = [build_complement_system(inst, q) for q in (1, 2, 3)]
        row = {}
        for system in built:
            q = system.component
            row[f"W{q}"] = _digest(_system_json(inst, system))
            favoured = build_complement_system(inst, q, preferred=preferred)
            row[f"W{q}-preferred"] = _digest(_system_json(inst, favoured))
        read_off = certificate_complement_systems(inst, cert)
        row["certificate"] = _digest({f"W{s.component}": _system_json(inst, s)
                                      for s in read_off})
        row["structure"] = _digest(structure_report(inst, built).to_json())
        growth = sorted([s.component, label, source.to_json(), target.to_json(), ok]
                        for s in built
                        for label, source, target, ok in growth_report(inst, s))
        row["growth"] = _digest({"entries": growth})
        out[f"corpus[{k}]"] = row
    return out


# Recorded from the per-component sweep that preceded the feeder table.
GOLDEN_COMPLEMENTS = {
    'corpus[0]': {
        'W1': '7a0f29b6444d796b51d62f319b36bd80b90b3ddbe8acd6c5eda59745c77a065b',
        'W1-preferred': '7a0f29b6444d796b51d62f319b36bd80b90b3ddbe8acd6c5eda59745c77a065b',
        'W2': 'a137f4946e1b5ca1e3cb2c9e463f3de3afbc8711a51aea3672f75ce35645136a',
        'W2-preferred': 'a137f4946e1b5ca1e3cb2c9e463f3de3afbc8711a51aea3672f75ce35645136a',
        'W3': 'da79ebfef9001a9fd4b375891cbd890d2a1bd1cf0be74ac49f72aa8603350ef2',
        'W3-preferred': 'da79ebfef9001a9fd4b375891cbd890d2a1bd1cf0be74ac49f72aa8603350ef2',
        'certificate': '82af5ce2976327163a0d28476b2c99bca33e0bb156667f30751a046c89d8ccc8',
        'structure': 'e60cc68dc89de765a5bcfbfb261677b120554d696994dfc831d837abbfc6605b',
        'growth': '4388d81b93c17d9165d3c22cdfa3d91c8f83e743edc6a1389650aa3f46113cd6',
    },
    'corpus[5]': {
        'W1': '92e43b7835de77ccc8db7e3638ca52dbf66447ee310c8ce9fa14b8e05272f26e',
        'W1-preferred': '92e43b7835de77ccc8db7e3638ca52dbf66447ee310c8ce9fa14b8e05272f26e',
        'W2': '458a2e36a6ea87bd09ebb37df3b1f81f4930a4fc18e3ca3aca467ea902427d5d',
        'W2-preferred': '458a2e36a6ea87bd09ebb37df3b1f81f4930a4fc18e3ca3aca467ea902427d5d',
        'W3': 'f7046fabb0009be3b4d4266daecae9573fbe537d446ac8bad02b66fb63d643d7',
        'W3-preferred': 'f7046fabb0009be3b4d4266daecae9573fbe537d446ac8bad02b66fb63d643d7',
        'certificate': 'b2c37a24cc157f5099cf4fb5a485169a192b1a2edd1073cb33b8ef9ad00c454d',
        'structure': '894bbb8a15eca11cc28cdcabfdf1d373757c2155fe3bd4fedde6f521e2a0fa22',
        'growth': '8fc64915d6e8eefba95d0792e3c8afa8f92472fd614828c4241b243c688a27aa',
    },
    'corpus[10]': {
        'W1': '973e42aab48cd805aaf4c3a3fcf2ee081813dd058eaabe03e6ee9dc9b900e43e',
        'W1-preferred': '973e42aab48cd805aaf4c3a3fcf2ee081813dd058eaabe03e6ee9dc9b900e43e',
        'W2': 'f248a7264141a00f96fe921ce15531af13d52419d2ae9bc04557d134445f4cfa',
        'W2-preferred': 'f248a7264141a00f96fe921ce15531af13d52419d2ae9bc04557d134445f4cfa',
        'W3': '6ea1e5a4e8c2e36f6c970c3cdafa53bccf3efd43ec63eebbff5fae15e705a1c9',
        'W3-preferred': '6ea1e5a4e8c2e36f6c970c3cdafa53bccf3efd43ec63eebbff5fae15e705a1c9',
        'certificate': '8a265e947832dd8e4e42dd1bbe73068f4ae25e87155e26ed4a411eb36a6ea5de',
        'structure': '87d35b29fb13508878da9386399d3cc9f003f36bedbe3216001d1bbb512e9580',
        'growth': '9ae35bd20080d480739ecd57db227e5a07fb54fcbb153f3c9fa095b7cfcb9f56',
    },
    'corpus[15]': {
        'W1': '2e5a6d2bb2e74f0b397283b3685666dfcab28eb0685e6476e6fd793644066afe',
        'W1-preferred': '2e5a6d2bb2e74f0b397283b3685666dfcab28eb0685e6476e6fd793644066afe',
        'W2': '4e6128c7f012bcb422c5e71581157093f57fe800a00eb3c1361b74e764410d59',
        'W2-preferred': '4e6128c7f012bcb422c5e71581157093f57fe800a00eb3c1361b74e764410d59',
        'W3': 'f797ef8ab7bdd31cce05ddb08688328999ee8ca7715c5aa2c6397ac4bad23cd1',
        'W3-preferred': 'f797ef8ab7bdd31cce05ddb08688328999ee8ca7715c5aa2c6397ac4bad23cd1',
        'certificate': 'd373b76c3db491ebd206db619638c8c3748a42541c9e8b94fbd4ea0769ab4249',
        'structure': 'e60cc68dc89de765a5bcfbfb261677b120554d696994dfc831d837abbfc6605b',
        'growth': '4388d81b93c17d9165d3c22cdfa3d91c8f83e743edc6a1389650aa3f46113cd6',
    },
    'corpus[20]': {
        'W1': 'e1823fec0c752c403cd34bbf4122834092283ee9fb91ba37158746f337a8cd74',
        'W1-preferred': 'e1823fec0c752c403cd34bbf4122834092283ee9fb91ba37158746f337a8cd74',
        'W2': '834710241cf3005d2e3ed8523e99d7f81a45ef71df17a05c2afdea7b939b1a85',
        'W2-preferred': '834710241cf3005d2e3ed8523e99d7f81a45ef71df17a05c2afdea7b939b1a85',
        'W3': '005e88a8ad41729abec617cb4be99228280540398a0c3f87be3dce255c973503',
        'W3-preferred': '005e88a8ad41729abec617cb4be99228280540398a0c3f87be3dce255c973503',
        'certificate': '8417b1afc9d210f2efb04ecf0521d2098de309f1cc5f481a5bde9713634b2b2d',
        'structure': '894bbb8a15eca11cc28cdcabfdf1d373757c2155fe3bd4fedde6f521e2a0fa22',
        'growth': '8fc64915d6e8eefba95d0792e3c8afa8f92472fd614828c4241b243c688a27aa',
    },
    'corpus[25]': {
        'W1': 'c7cb79747c77d478496a5ba8c429ccf05fd11356c66c388f4d3ab2a8464e47d5',
        'W1-preferred': 'c7cb79747c77d478496a5ba8c429ccf05fd11356c66c388f4d3ab2a8464e47d5',
        'W2': '8fadc07c0845e1a52146950b3a2ece5062c23d541dabfe29153eb04cd77dd685',
        'W2-preferred': '8fadc07c0845e1a52146950b3a2ece5062c23d541dabfe29153eb04cd77dd685',
        'W3': '34e33e10c14fdb7b818d63cf7a81a4536850b85e6c7b6d893efe3daf13893029',
        'W3-preferred': '34e33e10c14fdb7b818d63cf7a81a4536850b85e6c7b6d893efe3daf13893029',
        'certificate': '172127c0605ed279dd99ee1c0dc554df375468300b5480fa15b17ca85cfc4154',
        'structure': 'e49ac69b552f1f1d624073425a50ec83c3c85fd4d3c660572485453713c9a587',
        'growth': '621c4d442ea5f2b1b5ce2b82eabd4378d4ecf9fb7320fb58b9fe24fc66740fd1',
    },
    'corpus[30]': {
        'W1': 'a4de697e22b29ffcbe6d529015ac7592c66f711507bfe5d4d06dfdf817190c3e',
        'W1-preferred': 'a4de697e22b29ffcbe6d529015ac7592c66f711507bfe5d4d06dfdf817190c3e',
        'W2': 'a8998d246b319a77d02e69f834f48c79b9a9d345c755a8311e4b9be02a366d0e',
        'W2-preferred': 'a8998d246b319a77d02e69f834f48c79b9a9d345c755a8311e4b9be02a366d0e',
        'W3': '99bee82adb67791941984633e5a1efdc115de0dfeaf09530cd76a829b8961c07',
        'W3-preferred': '99bee82adb67791941984633e5a1efdc115de0dfeaf09530cd76a829b8961c07',
        'certificate': 'de2c8c64697e55280c542e92bc30aafdb429ea8c9635ba3bca3730ef786b072b',
        'structure': '6660ea3fc7ac2ba3edeee94d567e748b8294044bdb36e96ef48b8591619ee74a',
        'growth': '51bc6d15f829b40296837f6658999a3c7ca60f19cd7620ae335d80007cf4803b',
    },
    'corpus[35]': {
        'W1': '18cc9919b8bda3112623f77f14d68f5c33ec7c841f54546505fcb35d941d292d',
        'W1-preferred': '18cc9919b8bda3112623f77f14d68f5c33ec7c841f54546505fcb35d941d292d',
        'W2': '7c549d92d396b63d058640ac42df6d398cee31be414abd70f6643a7b9b17f39e',
        'W2-preferred': '7c549d92d396b63d058640ac42df6d398cee31be414abd70f6643a7b9b17f39e',
        'W3': '3bd2a07cfeb787a7561844f6b9c1aa6cf7eed73eb88c775aeb60865c3277f4b6',
        'W3-preferred': '3bd2a07cfeb787a7561844f6b9c1aa6cf7eed73eb88c775aeb60865c3277f4b6',
        'certificate': '8fe0758a3d25bac757fdaa4f78510be1e1ab015c26933a87f46cc9166a3ba207',
        'structure': '894bbb8a15eca11cc28cdcabfdf1d373757c2155fe3bd4fedde6f521e2a0fa22',
        'growth': '8fc64915d6e8eefba95d0792e3c8afa8f92472fd614828c4241b243c688a27aa',
    },
    'corpus[40]': {
        'W1': '2c8e2f564081287d34660b7f8d87d64e431148ac51cac9b091cdc7d7d5250888',
        'W1-preferred': '2c8e2f564081287d34660b7f8d87d64e431148ac51cac9b091cdc7d7d5250888',
        'W2': '324fb2df977866990e5c76f102aef0ecfdab38f2ed6e381c64c1ed1b805d931a',
        'W2-preferred': '324fb2df977866990e5c76f102aef0ecfdab38f2ed6e381c64c1ed1b805d931a',
        'W3': 'ce56b2d70a6752196d695278dc3e2c12cc152147bf21e1790344dc2379a7b2e8',
        'W3-preferred': 'ce56b2d70a6752196d695278dc3e2c12cc152147bf21e1790344dc2379a7b2e8',
        'certificate': '0c041ac5b329dc134e0dcb75312439a7d603b2c462af32c3c68430a6d18546c5',
        'structure': 'e49ac69b552f1f1d624073425a50ec83c3c85fd4d3c660572485453713c9a587',
        'growth': '621c4d442ea5f2b1b5ce2b82eabd4378d4ecf9fb7320fb58b9fe24fc66740fd1',
    },
    'corpus[45]': {
        'W1': 'c755d105caab87b85ccfe2bd650af769e599f1a39794e5e7733d7f88af539fd5',
        'W1-preferred': 'c755d105caab87b85ccfe2bd650af769e599f1a39794e5e7733d7f88af539fd5',
        'W2': '3e44a76381f06380129d2a5d716a967f4ecfc5d4c08addec913d663fd86a5f3b',
        'W2-preferred': '3e44a76381f06380129d2a5d716a967f4ecfc5d4c08addec913d663fd86a5f3b',
        'W3': '27f6f2cfbf87513a7b1aa7744fab541080a038247a1428fd98296cff7d6a5d27',
        'W3-preferred': '27f6f2cfbf87513a7b1aa7744fab541080a038247a1428fd98296cff7d6a5d27',
        'certificate': '9f4a3fba13c5c55264cc692f10a8a1d2a0d976113660aaba8481c05d3c561a7f',
        'structure': '6660ea3fc7ac2ba3edeee94d567e748b8294044bdb36e96ef48b8591619ee74a',
        'growth': '51bc6d15f829b40296837f6658999a3c7ca60f19cd7620ae335d80007cf4803b',
    },
    'corpus[50]': {
        'W1': '201cb45ed638edfb17b58a0df83a063626fd375f506e77b4a83dcd33c3fc5218',
        'W1-preferred': '201cb45ed638edfb17b58a0df83a063626fd375f506e77b4a83dcd33c3fc5218',
        'W2': '7db6944aab8d2c20eebcfebb9bb6134fa3955864afdf1c51ddc0367edf64b4c5',
        'W2-preferred': '7db6944aab8d2c20eebcfebb9bb6134fa3955864afdf1c51ddc0367edf64b4c5',
        'W3': 'cd0ee93f7c3770a873dbf171439ade544ba7c07fe10f2e5906fdc6f7c03b8133',
        'W3-preferred': 'cd0ee93f7c3770a873dbf171439ade544ba7c07fe10f2e5906fdc6f7c03b8133',
        'certificate': '8d508eb463244731f3d0494cf0711fee7ecc09a9d651585baa2be71007ab5dea',
        'structure': '87d35b29fb13508878da9386399d3cc9f003f36bedbe3216001d1bbb512e9580',
        'growth': '9ae35bd20080d480739ecd57db227e5a07fb54fcbb153f3c9fa095b7cfcb9f56',
    },
    'corpus[55]': {
        'W1': 'da3973a9a753d084953f31151b075c5ca964cde7af33a665eaec1d87bdcbf4ef',
        'W1-preferred': 'da3973a9a753d084953f31151b075c5ca964cde7af33a665eaec1d87bdcbf4ef',
        'W2': 'a4f39f8f91869d9d17a45027c3934cdb586ac8790e9fcf2eba4edb287407d085',
        'W2-preferred': 'a4f39f8f91869d9d17a45027c3934cdb586ac8790e9fcf2eba4edb287407d085',
        'W3': '9eda109d0a5ef650a411599f68b726da76cd3560ad3a80d4bc70a0355785d322',
        'W3-preferred': '9eda109d0a5ef650a411599f68b726da76cd3560ad3a80d4bc70a0355785d322',
        'certificate': '9b1636449892508300b322dd84770b221b6e569eb5c5f5c9cbdd2bd5ba31aef6',
        'structure': 'e49ac69b552f1f1d624073425a50ec83c3c85fd4d3c660572485453713c9a587',
        'growth': '621c4d442ea5f2b1b5ce2b82eabd4378d4ecf9fb7320fb58b9fe24fc66740fd1',
    },
    'corpus[60]': {
        'W1': '8fcba662bfa6fbc9f04144d1bd77d05cfd58b8444121c416117e36f0cf4684c4',
        'W1-preferred': '8fcba662bfa6fbc9f04144d1bd77d05cfd58b8444121c416117e36f0cf4684c4',
        'W2': '6205861b227e3960f0918e34a965136de17c225d07171b1edee624983ec04a00',
        'W2-preferred': '6205861b227e3960f0918e34a965136de17c225d07171b1edee624983ec04a00',
        'W3': '58faef3b1a55483a1d80936a5dcaaa8efaec4c59131e4b747bf79264fad3bc58',
        'W3-preferred': '58faef3b1a55483a1d80936a5dcaaa8efaec4c59131e4b747bf79264fad3bc58',
        'certificate': '1406289dcee17cb12a66093bb8256d2290cd346fc1d000b35367ba8de05eff6d',
        'structure': '6660ea3fc7ac2ba3edeee94d567e748b8294044bdb36e96ef48b8591619ee74a',
        'growth': '51bc6d15f829b40296837f6658999a3c7ca60f19cd7620ae335d80007cf4803b',
    },
    'corpus[65]': {
        'W1': '55951f79f07eb71214390b81a013733a96dd9ab429e09c5ef60f416920432528',
        'W1-preferred': '55951f79f07eb71214390b81a013733a96dd9ab429e09c5ef60f416920432528',
        'W2': 'd66b166debd800a40a806539a1119105df022237d07133fda9dff4eb0641729e',
        'W2-preferred': 'd66b166debd800a40a806539a1119105df022237d07133fda9dff4eb0641729e',
        'W3': '3bd9a49cb0b92368f2eb600ec0fda613db314b30660b429554b32b7d7835b434',
        'W3-preferred': '3bd9a49cb0b92368f2eb600ec0fda613db314b30660b429554b32b7d7835b434',
        'certificate': 'e9f69f8ce4a239785a6622286949dba76b47d2ec553e3f636579bb844f40a343',
        'structure': '87d35b29fb13508878da9386399d3cc9f003f36bedbe3216001d1bbb512e9580',
        'growth': '9ae35bd20080d480739ecd57db227e5a07fb54fcbb153f3c9fa095b7cfcb9f56',
    },
    'corpus[70]': {
        'W1': '8045b30b37440390d2355f88063147dc5f93b9465d0b73b2003241382c7565d1',
        'W1-preferred': '8045b30b37440390d2355f88063147dc5f93b9465d0b73b2003241382c7565d1',
        'W2': '3af0a09162fa2b1e36d967473532e340c05c87ee26785b86849008219a865452',
        'W2-preferred': '3af0a09162fa2b1e36d967473532e340c05c87ee26785b86849008219a865452',
        'W3': '0aaba699c82d61428707f9eef4cb5b97f14b92c8b11634b842aac6e5ead34b81',
        'W3-preferred': '0aaba699c82d61428707f9eef4cb5b97f14b92c8b11634b842aac6e5ead34b81',
        'certificate': '9e2fc207624468cbc6546204f69ab04b822d7ae88c5dfeb03104b1da2e7b22ae',
        'structure': 'e60cc68dc89de765a5bcfbfb261677b120554d696994dfc831d837abbfc6605b',
        'growth': '4388d81b93c17d9165d3c22cdfa3d91c8f83e743edc6a1389650aa3f46113cd6',
    },
    'corpus[75]': {
        'W1': '0c73405c1723b64bf867312d863770a8bbea22e503b697e42d1b7f708a4ac80c',
        'W1-preferred': '0c73405c1723b64bf867312d863770a8bbea22e503b697e42d1b7f708a4ac80c',
        'W2': '4142f737d4917b977ed348fd30fef3676fa827fb3a21a71b6ee5f17fb2c7ff98',
        'W2-preferred': '4142f737d4917b977ed348fd30fef3676fa827fb3a21a71b6ee5f17fb2c7ff98',
        'W3': '1e101f053eebfb64b03cff396aaa10ded866af9cc4a69c4dcfbf2da76df8ca89',
        'W3-preferred': '1e101f053eebfb64b03cff396aaa10ded866af9cc4a69c4dcfbf2da76df8ca89',
        'certificate': '56dee4709b046f571181a9600d0682a0e65f4f4dd4ef1c87f2225b63c426ed88',
        'structure': '894bbb8a15eca11cc28cdcabfdf1d373757c2155fe3bd4fedde6f521e2a0fa22',
        'growth': '8fc64915d6e8eefba95d0792e3c8afa8f92472fd614828c4241b243c688a27aa',
    },
    'corpus[80]': {
        'W1': '3194465825e9fd954a5a418e7f1494258aff9550b76e6b87f0bcc26fbffc8acf',
        'W1-preferred': '3194465825e9fd954a5a418e7f1494258aff9550b76e6b87f0bcc26fbffc8acf',
        'W2': '2795153eabc1eff2ec2939ac5de886d93b3ff9d6c8ab7111fb102c8d220b06e2',
        'W2-preferred': '2795153eabc1eff2ec2939ac5de886d93b3ff9d6c8ab7111fb102c8d220b06e2',
        'W3': '6188a7faa5102c07eef11546938ddbf202aed3ec276ca8c824466a79856dd7ca',
        'W3-preferred': '6188a7faa5102c07eef11546938ddbf202aed3ec276ca8c824466a79856dd7ca',
        'certificate': 'f5766e87d19842de6fd7a145b4bba6a02421c114cc52eb473a4682f4d1d73cf1',
        'structure': '87d35b29fb13508878da9386399d3cc9f003f36bedbe3216001d1bbb512e9580',
        'growth': '9ae35bd20080d480739ecd57db227e5a07fb54fcbb153f3c9fa095b7cfcb9f56',
    },
    'corpus[85]': {
        'W1': '2e5a6d2bb2e74f0b397283b3685666dfcab28eb0685e6476e6fd793644066afe',
        'W1-preferred': '2e5a6d2bb2e74f0b397283b3685666dfcab28eb0685e6476e6fd793644066afe',
        'W2': '4e6128c7f012bcb422c5e71581157093f57fe800a00eb3c1361b74e764410d59',
        'W2-preferred': '4e6128c7f012bcb422c5e71581157093f57fe800a00eb3c1361b74e764410d59',
        'W3': 'f797ef8ab7bdd31cce05ddb08688328999ee8ca7715c5aa2c6397ac4bad23cd1',
        'W3-preferred': 'f797ef8ab7bdd31cce05ddb08688328999ee8ca7715c5aa2c6397ac4bad23cd1',
        'certificate': 'd373b76c3db491ebd206db619638c8c3748a42541c9e8b94fbd4ea0769ab4249',
        'structure': 'e60cc68dc89de765a5bcfbfb261677b120554d696994dfc831d837abbfc6605b',
        'growth': '4388d81b93c17d9165d3c22cdfa3d91c8f83e743edc6a1389650aa3f46113cd6',
    },
    'corpus[90]': {
        'W1': 'cce2fb5ee4fb7e9b227c359e7dd3b4e6ae02ce4fd2856e7feeaee8e596cedc90',
        'W1-preferred': 'cce2fb5ee4fb7e9b227c359e7dd3b4e6ae02ce4fd2856e7feeaee8e596cedc90',
        'W2': '5eadaa7eb2d6ef377fb577221dbb947322ac2991b9654720388e5e63f2118ad6',
        'W2-preferred': '5eadaa7eb2d6ef377fb577221dbb947322ac2991b9654720388e5e63f2118ad6',
        'W3': '99ee4837cbd066cb3fbea79a645ee04a09c41cf75d03e55ef6d08e7ea64cd461',
        'W3-preferred': '99ee4837cbd066cb3fbea79a645ee04a09c41cf75d03e55ef6d08e7ea64cd461',
        'certificate': 'c62d716bf8fe5998f272d90a6d051d663337bd106689f5edd83c8b58f8e6236a',
        'structure': '894bbb8a15eca11cc28cdcabfdf1d373757c2155fe3bd4fedde6f521e2a0fa22',
        'growth': '8fc64915d6e8eefba95d0792e3c8afa8f92472fd614828c4241b243c688a27aa',
    },
    'corpus[95]': {
        'W1': '7f9919575065c35e884673bda8c23cdbb6465761db016822630441071bae983e',
        'W1-preferred': '7f9919575065c35e884673bda8c23cdbb6465761db016822630441071bae983e',
        'W2': 'e085b4b1d2ee8fd45ee1284cd40bb4da7f0028486966428d5d1ff22398eefb35',
        'W2-preferred': 'e085b4b1d2ee8fd45ee1284cd40bb4da7f0028486966428d5d1ff22398eefb35',
        'W3': '4f00446d5569b9a4efb51905b4f0eb92afe3d7f292564b8fe05216a4e4b8f1bd',
        'W3-preferred': '4f00446d5569b9a4efb51905b4f0eb92afe3d7f292564b8fe05216a4e4b8f1bd',
        'certificate': 'a357173d59c061da0d137709bd037ab4da46f9e4f9735b7d5af39ad8295a92a7',
        'structure': 'e49ac69b552f1f1d624073425a50ec83c3c85fd4d3c660572485453713c9a587',
        'growth': '621c4d442ea5f2b1b5ce2b82eabd4378d4ecf9fb7320fb58b9fe24fc66740fd1',
    },
}


@pytest.fixture(scope="module")
def complements(corpus):
    return complement_digests(corpus)


def test_complement_labels(complements):
    assert list(complements) == list(GOLDEN_COMPLEMENTS)


@pytest.mark.parametrize("label", list(GOLDEN_COMPLEMENTS))
def test_complement_bytes(complements, label):
    assert complements[label] == GOLDEN_COMPLEMENTS[label]


def identity_digests(corpus) -> dict[str, str]:
    out = {label: _digest(lls_core.identity_suite(inst).to_json())
           for label, inst in golden_instances(corpus)}
    out["abstract-nondistributive"] = _digest(
        lls_core.identity_suite(abstract_nondistributive_instance()).to_json())
    return out


GOLDEN_IDENTITIES = {
    'corpus[0]': 'ce192890d953f9c1c4ebcda0df4f688db0738bf4b7939a7b75d9dabc67e126d8',
    'corpus[5]': '9509f1a4856aab57f27f495cd43973eb69015d9bf74801012528aa49107f2c5e',
    'corpus[10]': 'e0be04a25e612f22ac47fc224fe55d8328377516e1e3f473671af7b8ec8f5b64',
    'corpus[15]': '4831c1b4a64a9eb914fee50334d643d8420bae6388b69a6f89f373c1a1e7bf8e',
    'corpus[20]': '79c3ece09ca62af50cdb63c0418be00266255e82a6fd0f97568afdd33a5e439b',
    'corpus[25]': '80d8ea192a241d807b899dcf743366851bf9ab09a6187e9234816221a1d29e3b',
    'corpus[30]': 'fb95e47aebdd43c4ea875d9885f319cc0ff545536ca0f4f6c385822c69fb3e57',
    'corpus[35]': 'bbd8ba5b6410fa5ea416fc74b8c90a5b20b6839783112c15b06a4824972906ff',
    'corpus[40]': '8574d59057e9b9fade5a91f4111fc9225153dc3cd22fb9f533cb14040498d7a7',
    'corpus[45]': '2e1ebf0c67a2c7030f6164bedbfbb775cd9cbf60cdde999188fc5d8fa1d59cf2',
    'corpus[50]': '01fb0a8f61ab0f0f489a39dd6743b9c214ab0d47d156ca4cf0859c5234467192',
    'corpus[55]': 'cc9ae74e390c653a1b3226ca263f893597baf9b30084b3d3c9e7510056867f63',
    'corpus[60]': '9b8b5b9403cd6436dcc7f56a626ad26364fa6e9cab70ef296d8b272f91fe929d',
    'corpus[65]': '5f0f9a457721e6d66ee279974d6dee8cd52d63cf8e815b5ee11f25baea657837',
    'corpus[70]': 'aadc011d2eff2147da651b1483b607a0a3e41eee14665ae72a18b2e69999b242',
    'corpus[75]': '3304536a0c51a4c34a892a940809d92b83075dd21c96c9a37440f1217db224f3',
    'corpus[80]': 'b0b9b3a8201c17235aa226a0a437e844bbecf11dbedebf66089f9ba1728bb299',
    'corpus[85]': '4831c1b4a64a9eb914fee50334d643d8420bae6388b69a6f89f373c1a1e7bf8e',
    'corpus[90]': '412b958a49e7ebec55bab2cfbbde4856774acef3c7b48db9fb47643c21b3d18f',
    'corpus[95]': '26694cb0ff40766ea4ac2800bae10d9cc231d2333797dae1b597a6dbd47b9b0c',
    'corpus[3]/shrink-V': '9514fae4e20c9c991ede6282417c288655ec81521187da80b25a0608fea490ff',
    'corpus[3]/break-linking': 'f35da3d25f9487fd376c635bdc233572fb9d4d7fb0dff1c8c00c5ebdee14445c',
    'corpus[3]/break-exactness': 'c39483d955645190a453a88957d7c2fcc1c3befe0efc193e429eb0e8e9689f22',
    'abstract-nondistributive': '25f418c39932ed3a11026031d7ecd25074bc15bb84f96155c890a052fa651d60',
}


def test_identity_bytes(corpus):
    assert identity_digests(corpus) == GOLDEN_IDENTITIES


def strict_instances() -> dict[str, object]:
    """Exact series that are not distributive, so their codim sum exceeds
    ``r+1``: the hand-made fixture and a degree-0 node whose vanishing
    spaces are three distinct lines of a plane in Q^3."""
    lines = [Subspace.span([v], 3) for v in ((1, 0, 0), (0, 1, 0), (1, 1, 0))]
    return {"abstract-nondistributive": abstract_nondistributive_instance(),
            "one-node-lines": one_node_instance(*lines)}


def strict_digests() -> dict[str, dict[str, str]]:
    return {label: {"codim_report": _digest(lls_core.codim_report(inst).to_json()),
                    "identity_suite": _digest(lls_core.identity_suite(inst).to_json())}
            for label, inst in strict_instances().items()}


GOLDEN_STRICT = {
    'abstract-nondistributive': {
        'codim_report': '466596f80915c11430494ce06b9f3bfe534cfb457fd89fe017bbfba6a76e38fd',
        'identity_suite': '25f418c39932ed3a11026031d7ecd25074bc15bb84f96155c890a052fa651d60',
    },
    'one-node-lines': {
        'codim_report': '52142aebaf35783a4f09053553bae4b919bdde70bf0e3288ee7774a597ba5e86',
        'identity_suite': '498f52b7eb81d166ca8418ff7df30809a34dc2edb7880b5656bb20801387b095',
    },
}


def test_strict_side_bytes():
    assert strict_digests() == GOLDEN_STRICT


# Golden members with their toward maps ``rescaled`` by non-integer factors
# of both signs.  Rescaling keeps every verdict (see the chain_model
# docstring), and the maps then carry rows with denominators, so these
# digests pin the elimination paths that clear them; the corpus maps above
# are all integer.
RESCALED_SCALES = (Fraction(-1, 2), Fraction(7), Fraction(3, 4))
RESCALED_FROM = ("corpus[10]", "corpus[20]", "corpus[40]", "corpus[55]",
                 f"corpus[{DEGRADED_FROM}]/break-exactness")


def rescaled_digests(corpus) -> dict[str, dict[str, str]]:
    members = dict(golden_instances(corpus))
    out = {}
    for label in RESCALED_FROM:
        base = members[label]
        inst = rescaled(base, RESCALED_SCALES)
        exact = lls_core.exactness(inst)
        row = {
            "validate": _digest(lls_core.validate(inst).to_json()),
            "exactness": _digest(exact.to_json()),
            "identity_suite": _digest(lls_core.identity_suite(inst).to_json()),
            "is_simple": _digest(simple_basis.is_simple(inst).to_json()),
        }
        if exact.exact:
            row["codim_report"] = _digest(lls_core.codim_report(inst).to_json())
        out[label] = row
    return out


GOLDEN_RESCALED = {
    'corpus[10]': {
        'validate': '7e4bbee3892d39c5c8fc726c86996477282e22c33f15d1d845e4370ee818544c',
        'exactness': '0fa8251bd46d8af9bf18a68dd43d71a117e58260c41a2426b56d7ec177312fb6',
        'identity_suite': 'e0be04a25e612f22ac47fc224fe55d8328377516e1e3f473671af7b8ec8f5b64',
        'is_simple': 'd7a19f7c5cd3ca678364c992dce8fe2b8ab78b9cf2d19de56d682d5babbb9457',
        'codim_report': 'ba645e172ebd90a926642e957d27aeef65db1775e61f93178a9f5e9ee53954b0',
    },
    'corpus[20]': {
        'validate': '7e4bbee3892d39c5c8fc726c86996477282e22c33f15d1d845e4370ee818544c',
        'exactness': '887d037591f1fedebee7861fa1b5f5eda2136bccd37cb014c81a0617b34e2229',
        'identity_suite': '79c3ece09ca62af50cdb63c0418be00266255e82a6fd0f97568afdd33a5e439b',
        'is_simple': '54c4e05af876c1c6cec2f48957026b2e0d81e0f25cd3ca9d27b49629032cda25',
        'codim_report': 'bc599aa96192825c6f8dc6b34ef439e4c02332d6b602a106d60ecfb5c6288a04',
    },
    'corpus[40]': {
        'validate': '7e4bbee3892d39c5c8fc726c86996477282e22c33f15d1d845e4370ee818544c',
        'exactness': '8b0610a596e8bd7d89a1dc762d31c877a249895d32403152e4ffa64031a9d2cc',
        'identity_suite': '8574d59057e9b9fade5a91f4111fc9225153dc3cd22fb9f533cb14040498d7a7',
        'is_simple': '76877608f786bd8bdc7a033a0d6004bd6ed515000145a3ac26b4c233cdb08edb',
        'codim_report': 'ce5bf7d68f7aebb201a4f4274df0d6d1c5bc69e3e0a0f90647136e6bf311c4b8',
    },
    'corpus[55]': {
        'validate': '7e4bbee3892d39c5c8fc726c86996477282e22c33f15d1d845e4370ee818544c',
        'exactness': 'e81ba81cd0c25cd653a6193114d0ab2e5ed31e2231dd2d163fffc79f97c3b977',
        'identity_suite': 'cc9ae74e390c653a1b3226ca263f893597baf9b30084b3d3c9e7510056867f63',
        'is_simple': 'eb8d5a93246d47d033303689fa69e55497a5f590a7d04a46a5099d6bd405b5b7',
        'codim_report': '5fa2dc1dbe4b7b61e54adadc94730c348563dbb76a5957ae0aa5245082ea4d2a',
    },
    'corpus[3]/break-exactness': {
        'validate': '7e4bbee3892d39c5c8fc726c86996477282e22c33f15d1d845e4370ee818544c',
        'exactness': '3a8d384fff146d7bc435d9fea0b5cf865117812fcc59ce308b564f9ad95b135e',
        'identity_suite': 'c39483d955645190a453a88957d7c2fcc1c3befe0efc193e429eb0e8e9689f22',
        'is_simple': '90324144664d6b230593eca76e593947ba0f6b2bdcd822ebd0d5f3a069f1a821',
    },
}


def test_rescaled_bytes(corpus):
    assert rescaled_digests(corpus) == GOLDEN_RESCALED
