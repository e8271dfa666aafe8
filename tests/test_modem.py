"""QAM rail constellation tests."""

import itertools
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


def test_unsupported_order_rejected():
    with pytest.raises(ValueError, match="unsupported"):
        modem.make_qam(32)


def test_parse_modulation():
    assert modem.parse_modulation("16qam").order == 16
    assert modem.parse_modulation(" 4QAM ").order == 4
    with pytest.raises(ValueError):
        modem.parse_modulation("8psk")
