"""Decision-level pins: one fixed 256-frame chunk per (code, order, nr)
cell, decided by the simulator's own chunk path, hashes to its digest.

A simulate CSV holds error counts only, so a change that swaps decisions
without changing a count, or that moves decisions in a cell no pinned curve
runs, passes the CSV pins. These digests cover every decided rail of every
cell within the group candidate cap: the 10 catalog codes at 4- to 256-QAM
and nr = 1 and 2, except T8_CR at 64- and 256-QAM (76 cells). Each chunk is
drawn by ``simulate._chunk_rng`` and decided by ``simulate._decide_chunk``,
the helper ``simulate._simulate_chunk`` itself calls. The seeds and SNRs
were fixed before any digest was read; at these SNRs every cell decides
some frames wrongly, so wrong decisions are pinned too.

A random chunk holds no exact metric tie, so the digests cannot see how
ties are broken. Planted ties on the same route
(:meth:`decoder.DetectionPlan.detect`) do: a zero channel ties every
candidate, and a zero codeword sent without noise gives z = 0, so every
candidate ties with its negation.
"""

import hashlib
import math

import numpy as np
import pytest

from qostbc import simulate
from qostbc.catalog import CODE_NAMES, build
from qostbc.decoder import detection_plan
from qostbc.modem import make_qam

FRAMES = 256
SEED = 26
ORDERS = (4, 16, 64, 256)
SNR_DB = {4: 3.0, 16: 9.0, 64: 15.0, 256: 21.0}

#: SHA-256 of the decided rails (float64 bytes) of each cell's chunk
DIGESTS = {
    ('Q4', 4, 1): "f49d21433cc389810dc4873921403ddb9aa299cffc5788e41c3dc0a06e995282",
    ('Q4', 4, 2): "907d705958814a37f4f6a90f4dab9336ddb2dfd870b3822b819d0b57200ab15a",
    ('Q4', 16, 1): "fc7ccf56e9a7dac53b00b778a973150afac0348932892a48ed5db1fb93d8cccf",
    ('Q4', 16, 2): "a028195a3c88aa5c24088f7483bdeb8856aeec49ba9d1ce574b7e829649b1260",
    ('Q4', 64, 1): "70bc2de807a16444139a0831cfffd46514b46363e98c6353ab45d799261b87f0",
    ('Q4', 64, 2): "18174416b06ab39fbf0f85d5b310ed9f3b4315447bcdc09cc49e188474222f8e",
    ('Q4', 256, 1): "da3dafc7b0ef488d4f964b4b0c91686e5f62a344990f489ad073f5ebd0ae094e",
    ('Q4', 256, 2): "517a38283a49ea32ed476428cbfdefb8de771baef0b74d488d43782c04d26865",
    ('Q4_CR', 4, 1): "c542d33542fc31d963e3ccb8aa9b76d975d431194f470255f9f718159256ad75",
    ('Q4_CR', 4, 2): "6d7ef4a2ef98ddaa3626ee3a777338e09b2e538317b5b6e737a19887a481ad09",
    ('Q4_CR', 16, 1): "6001ed3073b4bfae5ac430ddcb560a8d1c50ef0d83c836a2fac8e4d9b0f0368f",
    ('Q4_CR', 16, 2): "4d70f13ab27d66e4e4f8f974502ce05337ae3970532016296ac7ffeb1cd134a8",
    ('Q4_CR', 64, 1): "b0c97852c5d9f986641425196d87c7f8f90603277f56cfe35917588cd6855375",
    ('Q4_CR', 64, 2): "2d9f26ccf1589dc1635a770a645caadb4907880449632993072ec69d85c29138",
    ('Q4_CR', 256, 1): "7ee4cf70434968e2e1257b960fab5d085adce92876be31a8a3d6943a99eaf26b",
    ('Q4_CR', 256, 2): "6395a1d5737a1034c431d596216993f7de398db738182a7d30439c44eb9837a9",
    ('Q4_LT', 4, 1): "e700bb7a0ad639eb501d5e334fca0528c74bf9d63442f60377bf0261c241b501",
    ('Q4_LT', 4, 2): "704b2340775d9ed7e412efceb52cd42cab5272d1d36b1ad5ed8f80d03b9ba6ce",
    ('Q4_LT', 16, 1): "ae282250b5c386d192e0c6e8658ca2eecf342ca5b038e6941657eb33bdec9223",
    ('Q4_LT', 16, 2): "730d43d913412ab019e88caca933402f30704862e7d7d706c23f7fa5090286df",
    ('Q4_LT', 64, 1): "47e9f0f2cf5a7cf24220d16fda63e5df162f613f4b19a5743e468a9e2b60d6df",
    ('Q4_LT', 64, 2): "70a21910e77636ec36df4b72126c1566052e525c15eb643be63cb7559a419792",
    ('Q4_LT', 256, 1): "28ebb77adb8571cfe9a68ddb08a48fd9cb99b8ad65ecf929b1b644387abcdde7",
    ('Q4_LT', 256, 2): "747b8ee15250ff3953f51f7e652b82634ff109f206d255f48e92bd7d7a8efb7f",
    ('Q8', 4, 1): "66f70f0a99e586295edeab61808403f10821a10d27767f18b0e0e03c55b90f92",
    ('Q8', 4, 2): "49ea0867dd2560f4eb4682da7a328da13bb2390470174d5a844e9b98b90659b4",
    ('Q8', 16, 1): "80ee09f61379d65d5ba24071cda7ed29a25fc9b692b99c4860c3b41f45f93bc9",
    ('Q8', 16, 2): "5f78e3e081a026b1e203bce6112f539e9f2779c66c90fbbcd3dfc803fa331c67",
    ('Q8', 64, 1): "cb69bd11279f20613c50b5e76da4086294257aec28e7238b14bbb2f943b9318e",
    ('Q8', 64, 2): "55087ce64715528d351bddfc9e102995be3be751dc63cf5e40a3b8dcb02518af",
    ('Q8', 256, 1): "618d86f57a298dc3cc3d7e636336a0e6b71a0b458cb551f4f807b2f4e94ad27a",
    ('Q8', 256, 2): "0c6e195f647826260a89133af93df1fd445db0893ffae865ed5d960eacb3baf1",
    ('Q8_CR', 4, 1): "25d4f1d7748df5c2590586963fca6e682e2d9a7cb089a39ef9ae62384d6c2cf8",
    ('Q8_CR', 4, 2): "45f02cca90e07865fe8e544c241594ab56d1a40acf5f5994a7d0a8677b7b8e22",
    ('Q8_CR', 16, 1): "361f9fca39e6ca975dcc1359d0d1ba65f3e98d27474e78aee9e18d592b0f7bf6",
    ('Q8_CR', 16, 2): "c992b6130de1574539da60a1971b527ec4d0a1e98ac8bccf417f38cb619ee5ab",
    ('Q8_CR', 64, 1): "bb25305309445b93200a78834831f797dac20363ae06f979b77ef630438fe140",
    ('Q8_CR', 64, 2): "5bf5cb2ed6bf0a8e1999a85bbc2568de89a5df591759eefb3a1ee49e3e023b8f",
    ('Q8_CR', 256, 1): "96e12c92c5505a4d8b3ab98549c64bd6f36361d34930af234351b26301809048",
    ('Q8_CR', 256, 2): "4f8b88ec6cb58188706406be381fef1a3c821f361ac67406f04d7fdbb6112fc6",
    ('Q8_LT', 4, 1): "eb8b5493efc784ded2b1f46d4a371785b761a75f2b8d04c3aecc456cc9f0742b",
    ('Q8_LT', 4, 2): "0a222f68bbcea7f1aa896245b90bc73162d2661d1dd6327d7232aa8c7a1bc3b4",
    ('Q8_LT', 16, 1): "0425b5b290d36f11ae79194f1a72730354125ccab453b5d61c78dfc6a2ec97a9",
    ('Q8_LT', 16, 2): "f81e56190b4f4159f24c41cf8eb250509138d994aed736e2174ec33318ad44f6",
    ('Q8_LT', 64, 1): "a6094467cc8b7d09cb314c9cd94da0484296dc2bd4aa8c8778892d39f72c6647",
    ('Q8_LT', 64, 2): "c7ee8b9ea30c7b09aadb67304eaae5d58ee53734a75a17877ecb816c246b8528",
    ('Q8_LT', 256, 1): "08b1d03a530041bfdc079d22e17b32759dcdd7b2470d662773748fb84579a58a",
    ('Q8_LT', 256, 2): "f7ae6b87a4d59fe2369898e1d87f0467b30b35b57dbde5e4b7bc67a0666ec93f",
    ('T8', 4, 1): "581dc4e88227ac4abb1ef10d43a1e7f8ea7228fb6afc9304cbaf80ad795a08f6",
    ('T8', 4, 2): "358f3fca615d369a83f05558afca465929120769d5feade39675807724116d89",
    ('T8', 16, 1): "073b20bda4d9bda33ca6a340fd3161273b38dc70a167c529e295f5d695f7e872",
    ('T8', 16, 2): "8a3a674bf1f02f2f7e552a5866fa4b670de111471f5e761e1e9279db57169c50",
    ('T8', 64, 1): "536575aedfe912c5210b4c209c25981e7cc3869b2788ddb5893f3190f489f420",
    ('T8', 64, 2): "737168cc2e4d89538d68be38d12f0bf7521da0f6cdbd01f096cbf0ba17ca52ae",
    ('T8', 256, 1): "1fff095a78c207ee9287aa8f9c3fd03dda4d2f2d3f30edbafaa5d33a2aaa2063",
    ('T8', 256, 2): "7ca2d8853bacbd8bfc47c49a20c0d78b0a7a449a8218ddfcc6d68ae139ddbdc6",
    ('T8_CR', 4, 1): "37f03c85d87204cb62472753970c31c28101c481b88848b64d46b6ad6012d2fa",
    ('T8_CR', 4, 2): "5698812a07768f28eb8d3d596c71524fd30620592fc63b64813c4117904a427a",
    ('T8_CR', 16, 1): "a6840453d9084bff63d0ce5984cc5e5da86497b8cbbf2bbfd1b92e9f8d7069f8",
    ('T8_CR', 16, 2): "b80f96793320618022400906adb5315ed9eff3c3803d3620a1870bc939f39347",
    ('T8_LT', 4, 1): "6e96aeb19810a1bc613e9bebff678499237df1f6701824ba5e87d2648fe16ea6",
    ('T8_LT', 4, 2): "8ced946c6c7df116e576236766292fb6856029cf141adf29eaf63ce7d5109d5a",
    ('T8_LT', 16, 1): "645710b99ddb1d035dcdb7d5db8e5741bde89dabdab5f53d730c49ba0965f2eb",
    ('T8_LT', 16, 2): "752ab7d98ecc96e534ed317a3411e927ae1cfdc3dcf82b391e0a6a777034142f",
    ('T8_LT', 64, 1): "61fc24f88fb89049ea1e5c18ad0877430c4c6ed2f41a11db073118ffeae1267f",
    ('T8_LT', 64, 2): "f31f79031edad42de8e4ceaff157b07194edfa8bf84959b9788adab509b4080a",
    ('T8_LT', 256, 1): "8b1630a41fe92551f8e3316700494baa687ed8d829caa1fa24e3590280fdddd2",
    ('T8_LT', 256, 2): "c15e2fb92fa494b988ff433ed2c287eb09fb25e54a8dcee839dc49fb9af40d1f",
    ('G4C', 4, 1): "05b93b07e33138e22b237c1a57fb98d85bbb07ff7be916f9f8ddb52882d66f5b",
    ('G4C', 4, 2): "45f1ff2f6b9bc41f2ce7b0334a1c27777b6de20d9ac1248cfde45143843d47f6",
    ('G4C', 16, 1): "f20fc6e2669ad9f191eb9cbb76b0dfaa4186181a42418ec20196b792a1bd758d",
    ('G4C', 16, 2): "1bde3d51638dba75cfb85663aec0375a2ac764ee7b027e2ff4aefb867af7f271",
    ('G4C', 64, 1): "324d8e8364a582a89f6c464d1a97a96858fea0a8c4f3d77d85120337287a9cdd",
    ('G4C', 64, 2): "e711068ea6034862d65c13cfd38e72b523978aa5c2ba07dafed78f0330331068",
    ('G4C', 256, 1): "c7afd2a87ae6f9e90b65ce96afc851b53d804e11d001d44005df4e4074bd4526",
    ('G4C', 256, 2): "c9d09418442f85857e08b7a98ab3c73e23d3cac002e9437d4dd2602e96474937",
}


def test_every_cell_within_the_candidate_cap_is_pinned():
    cells = {(name, order, nr) for name in CODE_NAMES for order in ORDERS
             for nr in (1, 2)}
    over_cap = {("T8_CR", order, nr) for order in (64, 256) for nr in (1, 2)}
    assert set(DIGESTS) == cells - over_cap
    assert len(DIGESTS) == 76


@pytest.mark.parametrize("name, order, nr", list(DIGESTS))
def test_chunk_decisions_match_their_digest(name, order, nr):
    code, qam = build(name), make_qam(order)
    rng = simulate._chunk_rng(SEED, CODE_NAMES.index(name),
                              2 * ORDERS.index(order) + nr - 1)
    bits, decided = simulate._decide_chunk(code, qam, nr,
                                           10.0 ** (SNR_DB[order] / 10.0),
                                           rng, FRAMES)
    assert decided.shape == (FRAMES, 2 * code.K)
    assert np.any(qam.demap(decided) != bits)
    assert hashlib.sha256(decided.tobytes()).hexdigest() == \
        DIGESTS[name, order, nr]


TIE_FRAMES = 3
QAM4 = make_qam(4)


@pytest.mark.parametrize("nr", [1, 2])
@pytest.mark.parametrize("name", CODE_NAMES)
def test_zero_channels_decide_the_lowest_level(name, nr):
    code = build(name)
    rng = np.random.default_rng([67, len(name), code.K])
    s = QAM4.modulate(rng.integers(0, 2, (TIE_FRAMES, 2 * code.K)))
    noise = rng.standard_normal((TIE_FRAMES, 2 * code.T * nr))
    h = np.zeros((TIE_FRAMES, code.nt, nr), dtype=complex)
    decided = detection_plan(code, QAM4).detect(h, noise, s, 1.0)
    assert np.all(decided == np.min(QAM4.pam_levels))


@pytest.mark.parametrize("nr", [1, 2])
@pytest.mark.parametrize("name", CODE_NAMES)
def test_zero_signal_keeps_the_first_of_each_mirror_pair(name, nr):
    # with z = 0 each group's metric is even in s, so its first minimum ties
    # exactly with its negation and has a negative first rail. The metric is
    # this route's own; the equivalent-channel route may settle other exact
    # ties of the CR codes differently, by last-bit differences.
    code = build(name)
    rng = np.random.default_rng([67, len(name), code.K])
    h = simulate.draw_channel(rng, code.nt, nr, TIE_FRAMES)
    noise = np.zeros((TIE_FRAMES, 2 * code.T * nr))
    s = np.zeros((TIE_FRAMES, 2 * code.K))
    plan = detection_plan(code, QAM4)
    decided = plan.detect(h, noise, s, 1.0)
    values, z = plan.statistics(h, noise, s, 1.0)
    assert not z.any()
    weights = np.empty((TIE_FRAMES, plan.width))
    weights[:, plan.class_cols] = math.sqrt(1.0 / code.nt) * values
    weights[:, plan.rail_cols] = -2.0 * z[:, plan.rails]
    for idx, cands, features, cols in plan.groups:
        for frame, metric in enumerate(weights[:, cols] @ features):
            pick = np.flatnonzero(metric == metric.min())[0]
            mirror = np.flatnonzero((cands == -cands[pick]).all(axis=1))[0]
            assert np.array_equal(decided[frame, idx], cands[pick])
            assert metric[mirror] == metric[pick]
            assert cands[pick][0] < 0
