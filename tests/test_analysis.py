"""Quasi-orthogonality analysis tests: pair-check tables, grouping
regressions, and the matched-filter Gram structure."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qostbc import analysis
from qostbc.analysis import real_expansion
from qostbc.catalog import CODE_NAMES, build

from closed_form import (matched_filter_terms, stack_received,
                         unstack_received)
from pair_reference import dfs_components, mixed_codes

# non-orthogonal (X) cells of the pair-check table for the base
# four-antenna code, 1-based column indices per row
Q4_TABLE_X = {
    1: {1, 4}, 2: {2, 3}, 3: {2, 3}, 4: {1, 4},
    5: {5, 8}, 6: {6, 7}, 7: {6, 7}, 8: {5, 8},
}

# the same for the rotated variant, derived from its dispersion matrices
# (frozen as a regression fixture; the connected components are the two
# four-rail groups)
Q4CR_TABLE_X = {
    1: {1, 4, 8}, 2: {2, 3, 7}, 3: {2, 3, 6}, 4: {1, 4, 5},
    5: {4, 5, 8}, 6: {3, 6, 7}, 7: {2, 6, 7}, 8: {1, 5, 8},
}


class TestPairCheck:
    def test_orthogonal_pair(self):
        assert analysis.qo_table(build("Q4"))[0, 1]

    def test_coupled_pair(self):
        assert not analysis.qo_table(build("Q4"))[0, 3]

    def test_rotated_code_coupled_pair(self):
        assert not analysis.qo_table(build("Q4_CR"))[3, 4]

    @pytest.mark.parametrize("name,expected", [
        ("Q4", Q4_TABLE_X), ("Q4_CR", Q4CR_TABLE_X),
    ])
    def test_full_table(self, name, expected):
        table = analysis.qo_table(build(name))
        for p in range(1, 9):
            for q in range(1, 9):
                fulfilled = q not in expected[p]
                assert table[p - 1, q - 1] == fulfilled, (p, q)


class TestGrouping:
    @pytest.mark.parametrize("name,expected", [
        ("Q4", ((1, 4), (2, 3), (5, 8), (6, 7))),
        ("Q4_CR", ((1, 4, 5, 8), (2, 3, 6, 7))),
        ("Q8", ((1, 10), (2, 11), (3, 12), (4, 7), (5, 8), (6, 9))),
        ("T8", ((1, 4, 6, 7), (2, 3, 5, 8), (9, 12, 14, 15),
                (10, 11, 13, 16))),
        ("G4C", tuple((i,) for i in range(1, 9))),
    ])
    def test_discovered_partitions(self, name, expected):
        code = build(name)
        assert analysis.components_from_stack(code.dispersion) == expected

    def test_mixed_code_keeps_base_partition(self):
        assert analysis.components_from_stack(build("Q4_LT").dispersion) \
            == analysis.components_from_stack(build("Q4").dispersion)

    def test_scaling_invariance(self):
        code = build("Q4_CR")
        scaled = 3.7 * code.dispersion
        assert analysis.components_from_stack(scaled) == code.grouping

    @pytest.mark.parametrize("name,size", [
        ("Q4", 2), ("Q4_CR", 4), ("Q4_LT", 2),
        ("Q8", 2), ("Q8_CR", 4), ("Q8_LT", 2),
        ("T8", 4), ("T8_CR", 8), ("T8_LT", 4),
        ("G4C", 1),
    ])
    def test_joint_detection_sizes(self, name, size):
        assert analysis.joint_detection_size(build(name)) == size


class TestTransitiveClosure:
    """The closure's groupings equal the depth-first search's, as tuples of
    Python ints."""

    @staticmethod
    def assert_closure_matches(stack):
        got = analysis.components_from_stack(stack)
        assert got == dfs_components(stack)
        assert all(type(rail) is int for group in got for rail in group)

    @pytest.mark.parametrize("name", CODE_NAMES)
    def test_catalog_and_permuted_rails(self, name):
        # permuting the rails relabels the groups and reorders them
        stack = build(name).dispersion
        self.assert_closure_matches(stack)
        rng = np.random.default_rng([CODE_NAMES.index(name), 7])
        for _ in range(4):
            self.assert_closure_matches(stack[rng.permutation(len(stack))])

    @pytest.mark.parametrize("name", ["Q4", "Q8", "T8"])
    def test_random_mixes_and_rotations(self, name):
        gclt, cr = mixed_codes(name, 20, CODE_NAMES.index(name))
        for code in gclt + cr:
            self.assert_closure_matches(code.dispersion)

    def test_pair_products(self):
        stack = build("Q4_CR").dispersion
        prods = analysis.pair_products(stack)
        assert prods.shape == (8, 8, 4, 4)
        for a in range(8):
            for b in range(8):
                assert np.allclose(prods[a, b], stack[a].conj().T @ stack[b],
                                   rtol=0, atol=1e-15)


class TestSkewSymmetry:
    def test_orthogonal_pairs_pass(self):
        # for every pair the table marks orthogonal, in every catalog code,
        # Re(A_p^H A_q) is skew and Im(A_p^H A_q) symmetric: what forces the
        # real expansions to anticommute and the Gram to be block-diagonal
        for name in CODE_NAMES:
            code = build(name)
            p, q = np.nonzero(analysis.qo_table(code))
            assert len(p), name
            m = np.einsum("rji,rjk->rik", code.dispersion[p].conj(),
                          code.dispersion[q])
            re, im = m.real, m.imag
            assert np.abs(re + re.transpose(0, 2, 1)).max() < 1e-12, name
            assert np.abs(im - im.transpose(0, 2, 1)).max() < 1e-12, name

    def test_expansion_anticommutes_for_orthogonal_pairs(self):
        # the real expansions of an orthogonal pair anticommute, which is
        # what zeroes the cross blocks of the matched-filter Gram
        q4 = build("Q4")
        e1 = real_expansion(q4.dispersion[0])
        e2 = real_expansion(q4.dispersion[1])
        assert np.abs(e1.T @ e2 + e2.T @ e1).max() < 1e-12


def test_skew_quadratic_form_vanishes():
    rng = np.random.default_rng(123)
    for n in (2, 4, 8):
        for _ in range(30):
            a = rng.standard_normal((n, n))
            m = a - a.T
            v = rng.standard_normal(n)
            bound = 1e-12 * np.linalg.norm(m) * np.linalg.norm(v) ** 2
            assert abs(v @ m @ v) <= max(bound, 1e-15)


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestRealExpansion:
    def test_imaginary_unit(self):
        assert np.array_equal(real_expansion([[1j]]),
                              [[0.0, -1.0], [1.0, 0.0]])

    def test_identity(self):
        assert np.array_equal(real_expansion(np.eye(4)), np.eye(8))

    def test_real_matrix_block_diagonal(self):
        a4 = build("Q4").dispersion[3]  # purely real
        out = real_expansion(a4)
        assert np.array_equal(out[:4, :4], a4.real)
        assert np.array_equal(out[4:, 4:], a4.real)
        assert np.all(out[:4, 4:] == 0) and np.all(out[4:, :4] == 0)

    def test_stack_expands_matrix_by_matrix(self):
        stack = build("T8_CR").dispersion
        out = real_expansion(stack)
        assert out.shape == (16, 16, 16)
        for a, e in zip(stack, out):
            assert np.array_equal(e, np.block([[a.real, -a.imag],
                                               [a.imag, a.real]]))


# hypothesis draws a seed; the matrices come from a seeded generator so the
# cases shrink to reproducible examples
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_real_expansion_is_ring_homomorphism(seed):
    rng = np.random.default_rng(seed)
    a = random_complex(rng, 3, 4)
    b = random_complex(rng, 4, 2)
    lhs = real_expansion(a @ b)
    rhs = real_expansion(a) @ real_expansion(b)
    assert np.abs(lhs - rhs).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6))
def test_expansion_determinant_is_squared_magnitude(seed, n):
    rng = np.random.default_rng(seed)
    a = random_complex(rng, n, n)
    det_a = np.linalg.det(a)
    det_exp = np.linalg.det(real_expansion(a))
    assert det_exp.real == pytest.approx(abs(det_a) ** 2, rel=1e-9)
    assert abs(det_exp.imag) < 1e-9 * abs(det_a) ** 2 + 1e-12


class TestEquivalentChannel:
    def test_unit_channel_selects_first_columns(self):
        code = build("Q4")
        h = np.zeros((1, 4, 1), dtype=complex)
        h[0, 0, 0] = 1.0
        H = analysis.equivalent_channel(code, h)[0]
        for p in range(8):
            exp = real_expansion(code.dispersion[p])
            assert np.allclose(H[:, p], exp[:, 0], atol=1e-15)

    def test_zero_channel(self):
        H = analysis.equivalent_channel(build("Q4"), np.zeros((1, 4, 1)))
        assert H.shape == (1, 8, 8) and np.all(H == 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="transmit"):
            analysis.equivalent_channel(build("Q4"), np.zeros((1, 3, 1)))

    def test_shape_with_two_receive_antennas(self):
        code = build("Q8")
        rng = np.random.default_rng(5)
        h = (rng.standard_normal((3, 8, 2))
             + 1j * rng.standard_normal((3, 8, 2)))
        H = analysis.equivalent_channel(code, h)
        assert H.shape == (3, 2 * 8 * 2, 12)

    @pytest.mark.parametrize("shape", [(4, 1), (4,), (1, 1, 4, 1)])
    def test_rejects_a_channel_that_is_not_a_batch(self, shape):
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            analysis.equivalent_channel(build("Q4"), np.zeros(shape))

    def test_matched_filter_reproduces_metric_terms(self):
        # H^T r equals the real/imaginary parts of the per-symbol matched
        # filter terms used by the closed-form decoder metrics
        code = build("Q4")
        rng = np.random.default_rng(31)
        for _ in range(100):
            h = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
            r = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
            H = analysis.equivalent_channel(code, h[None])[0]
            z = H.T @ stack_received(r)
            alpha, beta, chi, delta, _, _, _ = matched_filter_terms(h, r)
            assert z[0] == pytest.approx(-alpha.real, abs=1e-10)
            assert z[3] == pytest.approx(-beta.real, abs=1e-10)
            assert z[1] == pytest.approx(-chi.real, abs=1e-10)
            assert z[2] == pytest.approx(-delta.real, abs=1e-10)
            assert z[4] == pytest.approx(alpha.imag, abs=1e-10)
            assert z[7] == pytest.approx(beta.imag, abs=1e-10)
            assert z[5] == pytest.approx(chi.imag, abs=1e-10)
            assert z[6] == pytest.approx(delta.imag, abs=1e-10)


def gram(code, h):
    """The matched-filter Gram H^T H of one (Nt, Nr) channel."""
    H = analysis.equivalent_channel(code, h[None])[0]
    return H.T @ H


def max_off_group(code, g):
    """Largest |entry| of ``g`` whose rails lie in different groups."""
    label = np.empty(len(g), dtype=np.intp)
    for gi, group in enumerate(code.grouping):
        label[np.array(group) - 1] = gi
    return np.abs(g[label[:, None] != label[None, :]]).max()


class TestGramBlockReport:
    def test_q4_block_diagonal_over_random_channels(self):
        code = build("Q4")
        rng = np.random.default_rng(7)
        for _ in range(100):
            h = (rng.standard_normal((4, 1))
                 + 1j * rng.standard_normal((4, 1))) / np.sqrt(2)
            assert max_off_group(code, gram(code, h)) < 1e-10

    def test_diagonal_is_channel_energy(self):
        code = build("Q4")
        rng = np.random.default_rng(11)
        h = (rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1)))
        g = gram(code, h)
        energy = float(np.sum(np.abs(h) ** 2))
        assert np.allclose(np.diag(g), energy, rtol=1e-12)

    def test_orthogonal_design_gram_is_diagonal(self):
        code = build("G4C")
        rng = np.random.default_rng(13)
        h = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
        g = gram(code, h)
        off_diag = g - np.diag(np.diag(g))
        assert np.abs(off_diag).max() < 1e-10


def test_block_diagonality_all_codes_both_antenna_counts():
    rng = np.random.default_rng(17)
    for name in CODE_NAMES:
        code = build(name)
        for nr in (1, 2):
            for _ in range(20):
                h = (rng.standard_normal((code.nt, nr))
                     + 1j * rng.standard_normal((code.nt, nr))) / np.sqrt(2)
                g = gram(code, h)
                assert max_off_group(code, g) < 1e-10 * np.abs(g).max()


class TestReceivedStacking:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        r = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        stacked = stack_received(r)
        assert stacked.shape == (16,)
        back = unstack_received(stacked, 4)
        assert np.abs(back - r).max() < 1e-15

    def test_layout_real_block_then_imag_block_per_antenna(self):
        r = np.array([[1 + 5j], [2 + 6j], [3 + 7j], [4 + 8j]])
        assert np.array_equal(stack_received(r),
                              [1, 2, 3, 4, 5, 6, 7, 8])
