"""Golden output bytes: sha256 digests of the instance file and of every
report's JSON for a fixed subset of the seeded corpus, plus the three
degradations of one of its members.  Any drift in the bytes a user sees
(file format, canonical bases, witnesses, verdicts) fails here.
"""

import hashlib
import json

import pytest

from llschain import lls_core, simple_basis
from llschain.generator import degrade

from conftest import CORPUS_SIZE

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
