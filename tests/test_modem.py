"""QAM rail constellation tests."""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qostbc import modem


@pytest.mark.parametrize("order,d_min", [
    (4, np.sqrt(2.0)),
    (16, np.sqrt(6.0 / 15.0)),
    (64, np.sqrt(6.0 / 63.0)),
    (256, np.sqrt(6.0 / 255.0)),
])
def test_minimum_distance(order, d_min):
    assert modem.make_qam(order).d_min == pytest.approx(d_min, rel=1e-14)


def test_4qam_levels():
    qam = modem.make_qam(4)
    assert np.allclose(sorted(qam.pam_levels), [-1 / np.sqrt(2), 1 / np.sqrt(2)])


@pytest.mark.parametrize("order", modem.SUPPORTED_ORDERS)
def test_unit_average_energy(order):
    qam = modem.make_qam(order)
    pts = qam.pam_levels[:, None] + 1j * qam.pam_levels[None, :]
    assert np.mean(np.abs(pts) ** 2) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("order", modem.SUPPORTED_ORDERS)
def test_levels_uniformly_spaced_and_symmetric(order):
    qam = modem.make_qam(order)
    lv = np.sort(qam.pam_levels)
    assert np.allclose(np.diff(lv), qam.d_min, atol=1e-14)
    assert np.allclose(lv, -lv[::-1], atol=1e-14)


@pytest.mark.parametrize("order", modem.SUPPORTED_ORDERS)
def test_gray_adjacency(order):
    # neighbouring PAM levels carry bit labels differing in exactly one bit
    qam = modem.make_qam(order)
    b = qam.bits_per_rail
    eye_bits = []
    for level in qam.pam_levels:  # descending walk
        rails = np.concatenate([[level], [qam.pam_levels[0]]])
        bits = qam.demap(rails)[:b]
        eye_bits.append(bits)
    for first, second in zip(eye_bits, eye_bits[1:]):
        assert int(np.sum(first != second)) == 1


def test_all_zero_bits_hit_positive_corner():
    qam = modem.make_qam(4)
    rails = qam.modulate(np.zeros(2, dtype=int))
    assert np.allclose(rails, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_round_trip_exhaustive_4qam_four_symbols():
    qam = modem.make_qam(4)
    for bits in itertools.product((0, 1), repeat=8):
        bits = np.array(bits)
        assert np.array_equal(qam.demap(qam.modulate(bits)), bits)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       order=st.sampled_from(modem.SUPPORTED_ORDERS))
def test_round_trip_random(seed, order):
    rng = np.random.default_rng(seed)
    qam = modem.make_qam(order)
    bits = rng.integers(0, 2, size=(5, 6 * qam.bits_per_symbol))
    assert np.array_equal(qam.demap(qam.modulate(bits)), bits)


def test_demap_tolerates_tiny_perturbation():
    qam = modem.make_qam(16)
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, size=4 * qam.bits_per_symbol)
    rails = qam.modulate(bits)
    wobble = rails + rng.uniform(-1e-9, 1e-9, rails.shape)
    assert np.array_equal(qam.demap(wobble), bits)


def argmin_demap(qam, rails):
    """Nearest-level slicing by an argmin over every level (ties to the
    first, i.e. higher, level): the reference for the arithmetic slicer."""
    rails = np.asarray(rails, dtype=np.float64)
    K = rails.shape[-1] // 2
    pos = np.argmin(np.abs(rails[..., None] - qam.pam_levels), axis=-1)
    codes = pos ^ (pos >> 1)
    b = qam.bits_per_rail
    bit_rows = (codes[..., None] >> np.arange(b - 1, -1, -1)) & 1
    symbol_bits = np.concatenate(
        [bit_rows[..., :K, :], bit_rows[..., K:, :]], axis=-1
    )
    return symbol_bits.reshape(*rails.shape[:-1], K * 2 * b)


@pytest.mark.parametrize("order", modem.SUPPORTED_ORDERS)
class TestArithmeticDemap:
    def test_off_grid_rails(self, order):
        qam = modem.make_qam(order)
        top = qam.pam_levels[0]
        rails = np.random.default_rng(order).uniform(-1.2 * top, 1.2 * top,
                                                     (2000, 12))
        assert np.array_equal(qam.demap(rails), argmin_demap(qam, rails))

    def test_rails_beyond_the_outer_levels(self, order):
        qam = modem.make_qam(order)
        top = qam.pam_levels[0]
        out = top + np.array([0.0, 1e-12, qam.d_min / 2, qam.d_min, 10.0,
                              1e3])
        rails = np.stack([out, -out], axis=-1)
        assert np.array_equal(qam.demap(rails), argmin_demap(qam, rails))

    def test_exact_midpoints_go_to_the_higher_level(self, order):
        qam = modem.make_qam(order)
        lv = qam.pam_levels
        mids = (lv[:-1] + lv[1:]) / 2
        exact = np.array([2 * Fraction(m) == Fraction(a) + Fraction(b)
                          for m, a, b in zip(mids, lv[:-1], lv[1:])])
        assert exact.any()
        rails = np.repeat(mids[exact], 2).reshape(-1, 2)
        higher = np.repeat(lv[:-1][exact], 2).reshape(-1, 2)
        assert np.array_equal(qam.demap(rails), qam.demap(higher))
        assert np.array_equal(qam.demap(rails), argmin_demap(qam, rails))

    def test_rounded_midpoints_and_their_neighbours(self, order):
        qam = modem.make_qam(order)
        lv = qam.pam_levels
        mids = (lv[:-1] + lv[1:]) / 2
        for rails in (mids, np.nextafter(mids, np.inf),
                      np.nextafter(mids, -np.inf)):
            rails = np.resize(rails, (len(rails), 2))
            assert np.array_equal(qam.demap(rails), argmin_demap(qam, rails))


def test_constellations_compare_and_hash_by_their_order():
    # the levels follow from the order and take no part in == or hash()
    assert (modem.make_qam(4) == modem.make_qam(4)) is True
    assert (modem.make_qam(4) == modem.make_qam(16)) is False
    assert hash(modem.make_qam(16)) == hash(modem.make_qam(16))
    assert len({modem.make_qam(order) for order in (4, 16, 4)}) == 2


def test_demap_rejects_nan():
    qam = modem.make_qam(16)
    with pytest.raises(ValueError, match="NaN"):
        qam.demap(np.array([np.nan, 0.1]))


@pytest.mark.parametrize("order", [4, 16])
def test_rail_independence(order):
    # the I rail of a symbol depends only on the first half of its bits
    qam = modem.make_qam(order)
    b = qam.bits_per_rail
    for i_bits in itertools.product((0, 1), repeat=b):
        i_rails = set()
        for q_bits in itertools.product((0, 1), repeat=b):
            rails = qam.modulate(np.array(i_bits + q_bits))
            i_rails.add(float(rails[0]))
        assert len(i_rails) == 1


def test_bit_count_validation():
    qam = modem.make_qam(4)
    with pytest.raises(ValueError, match="multiple"):
        qam.modulate(np.zeros(3, dtype=int))


@pytest.mark.parametrize("order", [4, 16])
@pytest.mark.parametrize("bad", [-1, 3])
def test_bit_value_validation(order, bad):
    qam = modem.make_qam(order)
    with pytest.raises(ValueError, match=f"0 or 1.*{bad}"):
        qam.modulate(np.array([bad, 0, 0, 0]))


def test_unsupported_order_rejected():
    with pytest.raises(ValueError, match="unsupported"):
        modem.make_qam(32)


def test_constellation_init_field_is_the_order():
    assert [f.name for f in dataclasses.fields(modem.Constellation)
            if f.init] == ["order"]


def test_constellation_rejects_an_unsupported_order_by_name():
    with pytest.raises(ValueError, match="unsupported QAM order 8;"):
        modem.Constellation(8)


@pytest.mark.parametrize("order", modem.SUPPORTED_ORDERS)
def test_constellation_is_built_from_its_order_with_read_only_tables(order):
    qam = modem.Constellation(order)
    assert qam == modem.make_qam(order)
    assert qam.bits_per_symbol == round(math.log2(order))
    for table in (qam.pam_levels, qam._level_of_label, qam._label_bits):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = table[-1]


def test_parse_modulation():
    assert modem.parse_modulation("16qam").order == 16
    assert modem.parse_modulation(" 4QAM ").order == 4
    with pytest.raises(ValueError):
        modem.parse_modulation("8psk")


# --------------------------------------------------------------------------
# the table-driven modem against the modem it replaced

def matmul_modulate(qam, bits):
    """The modulator the label table replaced: an int64 matmul reads each
    rail's Gray label, a prefix xor turns it into the level's position, and
    the I/Q rails are sliced apart and concatenated."""
    bits = np.asarray(bits, dtype=np.int64)
    K = bits.shape[-1] // qam.bits_per_symbol
    b = qam.bits_per_rail
    rows = bits.reshape(*bits.shape[:-1], 2 * K, b)
    weights = 1 << np.arange(b - 1, -1, -1)
    gray = rows @ weights
    pos = gray.copy()
    shift = 1
    while shift <= b:  # Gray-to-binary prefix xor
        pos ^= pos >> shift
        shift *= 2
    rails_iq = qam.pam_levels[pos]  # (..., 2K) in I1,Q1,I2,Q2,... order
    return np.concatenate([rails_iq[..., 0::2], rails_iq[..., 1::2]], axis=-1)


def neighbour_demap(qam, real_symbols):
    """The slicer that compared distances on every rail: the arithmetic
    index, then one comparison with each neighbouring level."""
    rails = np.asarray(real_symbols, dtype=np.float64)
    K = rails.shape[-1] // 2
    L = qam.levels_per_rail
    top, bottom = qam.pam_levels[0], qam.pam_levels[-1]
    x = np.clip(rails, bottom, top)
    pos = np.ceil((top - x) / qam.d_min - 0.5).astype(np.intp) + 1
    padded = np.concatenate([[np.nan], qam.pam_levels, [np.nan]])
    here = np.abs(x - padded.take(pos))
    pos -= np.abs(x - padded.take(pos - 1)) <= here
    pos += np.abs(x - padded.take(pos + 1)) < here
    pos -= 1
    b = qam.bits_per_rail
    gray = np.arange(L) ^ (np.arange(L) >> 1)
    labels = (gray[:, None] >> np.arange(b - 1, -1, -1)) & 1
    iq = np.stack([pos[..., :K], pos[..., K:]], axis=-1)
    return labels.take(iq, axis=0).reshape(*rails.shape[:-1], K * 2 * b)


def adversarial_rails(qam):
    """Every level, every midpoint and its float neighbours, points at
    shrinking offsets from each midpoint on both sides of the band where
    demap compares distances, and values at and beyond the outer levels."""
    lv = qam.pam_levels
    mids = (lv[:-1] + lv[1:]) / 2
    offsets = qam.d_min * modem.MIDPOINT_TOL * 2.0 ** np.arange(-14, 15)
    offsets = np.concatenate([offsets, -offsets])
    top = lv[0]
    far = top + np.array([0.0, 1e-12, qam.d_min / 2, qam.d_min, 10.0, 1e3,
                          1e300, np.inf])
    return np.concatenate([
        lv, mids, np.nextafter(mids, np.inf), np.nextafter(mids, -np.inf),
        (mids[:, None] + offsets).ravel(), far, -far,
    ])


@pytest.mark.parametrize("order", modem.SUPPORTED_ORDERS)
class TestAgainstTheReplacedModem:
    def test_modulate_random_bits(self, order):
        qam = modem.make_qam(order)
        bits = np.random.default_rng(order).integers(
            0, 2, size=(4096, 8 * qam.bits_per_symbol))
        got = qam.modulate(bits)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert np.array_equal(got, matmul_modulate(qam, bits))

    def test_modulate_every_label(self, order):
        qam = modem.make_qam(order)
        bits = np.array(list(itertools.product(
            (0, 1), repeat=qam.bits_per_symbol)))
        assert np.array_equal(qam.modulate(bits), matmul_modulate(qam, bits))

    def test_demap_random_rails(self, order):
        qam = modem.make_qam(order)
        top = qam.pam_levels[0]
        rails = np.random.default_rng(order).uniform(-1.3 * top, 1.3 * top,
                                                     (4096, 16))
        got = qam.demap(rails)
        assert got.dtype == np.int64
        assert np.array_equal(got, neighbour_demap(qam, rails))

    def test_demap_adversarial_rails(self, order):
        qam = modem.make_qam(order)
        rails = adversarial_rails(qam)
        rails = np.stack([rails, rails[::-1]], axis=-1)  # as (I, Q) pairs
        got = qam.demap(rails)
        assert np.array_equal(got, neighbour_demap(qam, rails))
        # every distance to a level rounds to the same float far out
        finite = (np.abs(rails) <= 1e3).all(axis=-1)
        assert np.array_equal(got[finite], argmin_demap(qam, rails[finite]))

    def test_demap_of_modulated_bits(self, order):
        qam = modem.make_qam(order)
        bits = np.random.default_rng(order + 1).integers(
            0, 2, size=(512, 4, 2 * qam.bits_per_symbol))
        assert np.array_equal(qam.demap(qam.modulate(bits)), bits)
