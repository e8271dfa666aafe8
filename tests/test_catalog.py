"""Catalog construction tests against hand-built codeword matrices and
frozen dispersion-matrix fixtures."""

import dataclasses
import math

import numpy as np
import pytest

from qostbc import catalog
from qostbc.analysis import components_from_stack
from qostbc.catalog import (CodeDefinition, build, code_to_dict, encode,
                            validate_power)

from closed_form import decode_code_json

C = np.conj
RT2 = math.sqrt(2.0)


def q4_codeword(x):
    """Independent hand-typed codeword of the base four-antenna code."""
    x1, x2, x3, x4 = x
    return np.array([
        [x1, x2, x3, x4],
        [-C(x2), C(x1), -C(x4), C(x3)],
        [-C(x3), -C(x4), C(x1), C(x2)],
        [x4, -x3, -x2, x1],
    ])


def q4cr_codeword(x):
    """Hand-typed codeword of the rotated variant (x3, x4 rotated 45 deg)."""
    x1, x2 = x[0], x[1]
    x3 = x[2] * np.exp(1j * np.pi / 4)
    x4 = x[3] * np.exp(1j * np.pi / 4)
    return np.array([
        [x1, x2, x3, x4],
        [-C(x2), C(x1), -C(x4), C(x3)],
        [-C(x3), -C(x4), C(x1), C(x2)],
        [x4, -x3, -x2, x1],
    ])


#: (T, Nt, K, rate) of every catalog code, as in the README table
SIZES = {
    "Q4": (4, 4, 4, "1"), "Q4_CR": (4, 4, 4, "1"), "Q4_LT": (4, 4, 4, "1"),
    "Q8": (8, 8, 6, "3/4"), "Q8_CR": (8, 8, 6, "3/4"),
    "Q8_LT": (8, 8, 6, "3/4"), "T8": (8, 8, 8, "1"), "T8_CR": (8, 8, 8, "1"),
    "T8_LT": (8, 8, 8, "1"), "G4C": (8, 4, 4, "1/2"),
}


def rails_of(x):
    return np.concatenate([np.real(x), np.imag(x)])


class TestBuild:
    def test_unknown_name_lists_valid(self):
        with pytest.raises(ValueError, match="Q4_LT"):
            build("Q5")

    def test_dimensions_and_rates(self):
        # every catalog code's size and rate, as in the README table
        for name, (T, nt, K, rate) in SIZES.items():
            code = build(name)
            assert (code.T, code.nt, code.K) == (T, nt, K)
            assert str(code.rate) == rate

    def test_q4_first_dispersion_is_identity(self):
        assert np.array_equal(build("Q4").dispersion[0], np.eye(4))

    def test_q4_last_dispersion_is_imaginary_antidiagonal(self):
        expected = 1j * np.fliplr(np.eye(4))
        assert np.array_equal(build("Q4").dispersion[7], expected)

    def test_dispersion_is_read_only(self):
        code = build("Q4")
        with pytest.raises(ValueError):
            code.dispersion[0, 0, 0] = 5.0


class TestCodeDefinition:
    """A code is its name and its dispersion stack; the sizes and the
    grouping are read off the stack."""

    def test_init_fields_are_name_and_dispersion(self):
        assert [f.name for f in dataclasses.fields(CodeDefinition)
                if f.init] == ["name", "dispersion"]

    @pytest.mark.parametrize("shape", [(8, 4), (3, 4, 4), (0, 4, 4)])
    def test_rejects_a_shape_that_is_not_2k_t_nt(self, shape):
        with pytest.raises(ValueError, match="not a \\(2K, T, Nt\\) stack"):
            CodeDefinition("x", np.ones(shape))

    def test_rejects_a_non_finite_entry(self):
        stack = np.array(build("Q4").dispersion)
        stack[3, 1, 2] = complex(0.0, np.inf)
        with pytest.raises(ValueError, match="finite"):
            CodeDefinition("x", stack)

    def test_copies_its_input(self):
        stack = np.array(build("Q4").dispersion)
        code = CodeDefinition("x", stack)
        stack[0, 0, 0] = 5.0
        assert np.array_equal(code.dispersion, build("Q4").dispersion)
        assert not code.dispersion.flags.writeable
        assert code.dispersion.dtype == np.complex128

    @pytest.mark.parametrize("name", catalog.CODE_NAMES)
    def test_grouping_follows_the_stack(self, name):
        code = build(name)
        assert CodeDefinition("x", code.dispersion).grouping == code.grouping

    def test_codes_compare_and_hash_by_identity(self):
        # transformed codes share their base's name, so equal names and
        # equal stacks do not make two codes the same
        code = build("Q4")
        twin = CodeDefinition("Q4", code.dispersion)
        assert (code == twin) is False
        assert (code == build("Q4")) is True
        assert len({code, twin, build("Q4")}) == 2
        assert hash(code) == hash(build("Q4"))


class TestEncode:
    @pytest.mark.parametrize("name", catalog.CODE_NAMES)
    def test_unit_vectors_reproduce_dispersion(self, name):
        code = build(name)
        for p in range(2 * code.K):
            e = np.zeros(2 * code.K)
            e[p] = 1.0
            assert np.array_equal(encode(code, e), code.dispersion[p])

    def test_real_unit_symbol(self):
        code = build("Q4")
        s = np.zeros(8)
        s[0] = 1.0
        assert np.array_equal(encode(code, s), np.eye(4))

    def test_imaginary_unit_symbol(self):
        code = build("Q4")
        s = np.zeros(8)
        s[4] = 1.0
        assert np.array_equal(encode(code, s), code.dispersion[4])

    @pytest.mark.parametrize("name", catalog.CODE_NAMES)
    def test_linearity(self, name):
        code = build(name)
        rng = np.random.default_rng(7)
        s, t = rng.standard_normal((2, 2 * code.K))
        lhs = encode(code, s + t)
        rhs = encode(code, s) + encode(code, t)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            encode(build("Q4"), np.zeros(6))

    def test_q4_codeword_matches_hand_built_matrix(self):
        code = build("Q4")
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            assert np.abs(encode(code, rails_of(x)) - q4_codeword(x)).max() < 1e-12

    def test_q4cr_codeword_matches_rotated_matrix(self):
        # encoding the unrotated rails through the rotated dispersion set
        # reproduces the codeword with x3, x4 rotated by 45 degrees
        code = build("Q4_CR")
        rng = np.random.default_rng(13)
        for _ in range(100):
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            assert np.abs(encode(code, rails_of(x)) - q4cr_codeword(x)).max() < 1e-12

    def test_g4c_is_orthogonal_design(self):
        code = build("G4C")
        rng = np.random.default_rng(17)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        cw = encode(code, rails_of(x))
        gram = cw.conj().T @ cw
        expected = 2.0 * float(np.sum(np.abs(x) ** 2)) * np.eye(4)
        assert np.abs(gram - expected).max() < 1e-12


class TestPower:
    @pytest.mark.parametrize("name,target", [
        ("Q4", 4.0), ("Q4_CR", 4.0), ("Q4_LT", 4.0),
        ("Q8", 32.0 / 3.0), ("Q8_CR", 32.0 / 3.0), ("Q8_LT", 32.0 / 3.0),
        ("T8", 8.0), ("T8_CR", 8.0), ("T8_LT", 8.0),
        ("G4C", 8.0),
    ])
    def test_traces(self, name, target):
        code = build(name)
        traces, ok = validate_power(code)
        assert ok
        assert np.allclose(traces, target, atol=1e-12)
        assert code.power_target == pytest.approx(target)


# dispersion matrices of the rotated four-antenna code (regression fixtures;
# the first two and the fifth/sixth equal the base code's)
A_CR3 = np.array([
    [0, 0, 1 + 1j, 0],
    [0, 0, 0, 1 - 1j],
    [-1 + 1j, 0, 0, 0],
    [0, -1 - 1j, 0, 0],
]) / RT2
A_CR4 = np.array([
    [0, 0, 0, 1 + 1j],
    [0, 0, -1 + 1j, 0],
    [0, -1 + 1j, 0, 0],
    [1 + 1j, 0, 0, 0],
]) / RT2
A_CR7 = 1j / RT2 * np.array([
    [0, 0, 1 + 1j, 0],
    [0, 0, 0, -1 + 1j],
    [1 - 1j, 0, 0, 0],
    [0, -1 - 1j, 0, 0],
])
A_CR8 = 1j / RT2 * np.array([
    [0, 0, 0, 1 + 1j],
    [0, 0, 1 - 1j, 0],
    [0, 1 - 1j, 0, 0],
    [1 + 1j, 0, 0, 0],
])


class TestRotatedFixtures:
    def test_unrotated_matrices_unchanged(self):
        q4, q4cr = build("Q4"), build("Q4_CR")
        for p in (0, 1, 4, 5):
            assert np.abs(q4cr.dispersion[p] - q4.dispersion[p]).max() < 1e-15

    @pytest.mark.parametrize("index,fixture", [
        (2, A_CR3), (3, A_CR4), (6, A_CR7), (7, A_CR8),
    ])
    def test_rotated_matrices(self, index, fixture):
        assert np.abs(build("Q4_CR").dispersion[index] - fixture).max() < 1e-12


def mixed_fixtures():
    """Dispersion matrices of the group-mixed four-antenna code."""
    a = math.cos(0.5 * math.atan(0.5))
    b = math.sin(0.5 * math.atan(0.5))
    j = 1j
    return [
        np.array([[a, 0, 0, b], [0, a, -b, 0], [0, -b, a, 0], [b, 0, 0, a]]),
        np.array([[0, a, b, 0], [-a, 0, 0, b], [-b, 0, 0, a], [0, -b, -a, 0]]),
        np.array([[0, -b, a, 0], [b, 0, 0, a], [-a, 0, 0, -b], [0, -a, b, 0]]),
        np.array([[-b, 0, 0, a], [0, -b, -a, 0], [0, -a, -b, 0], [a, 0, 0, -b]]),
        np.array([[j * a, 0, 0, j * b], [0, -j * a, j * b, 0],
                  [0, j * b, -j * a, 0], [j * b, 0, 0, j * a]]),
        np.array([[0, j * a, j * b, 0], [j * a, 0, 0, -j * b],
                  [j * b, 0, 0, -j * a], [0, -j * b, -j * a, 0]]),
        np.array([[0, -j * b, j * a, 0], [-j * b, 0, 0, -j * a],
                  [j * a, 0, 0, j * b], [0, -j * a, j * b, 0]]),
        np.array([[-j * b, 0, 0, j * a], [0, j * b, j * a, 0],
                  [0, j * a, j * b, 0], [j * a, 0, 0, -j * b]]),
    ]


class TestMixedFixtures:
    def test_all_eight_matrices(self):
        code = build("Q4_LT")
        for got, want in zip(code.dispersion, mixed_fixtures()):
            assert np.abs(got - want).max() < 1e-12


class TestEightAntennaStructure:
    def test_q8_grouping_pairs(self):
        assert build("Q8").grouping == (
            (1, 10), (2, 11), (3, 12), (4, 7), (5, 8), (6, 9)
        )

    def test_t8_grouping_quadruples(self):
        assert build("T8").grouping == (
            (1, 4, 6, 7), (2, 3, 5, 8), (9, 12, 14, 15), (10, 11, 13, 16)
        )

    def test_t8_cr_merges_family_rails(self):
        assert build("T8_CR").grouping == (
            (1, 4, 6, 7, 9, 12, 14, 15), (2, 3, 5, 8, 10, 11, 13, 16)
        )

    def test_mixed_variants_keep_base_grouping(self):
        assert build("Q8_LT").grouping == build("Q8").grouping
        assert build("T8_LT").grouping == build("T8").grouping


class TestSerialization:
    @pytest.mark.parametrize("name", ["Q4", "Q8_LT", "G4C"])
    def test_round_trip(self, name):
        code = build(name)
        data = code_to_dict(code)
        assert set(data) == {"name", "T", "Nt", "K", "matrices", "grouping"}
        dispersion, grouping = decode_code_json(data)
        assert grouping == code.grouping
        assert components_from_stack(dispersion) == code.grouping
        assert np.abs(dispersion - code.dispersion).max() < 1e-15

    def test_matrix_entries_are_re_im_pairs(self):
        data = code_to_dict(build("Q4"))
        assert data["matrices"][4][0][0] == [0.0, 1.0]  # leading entry of A_5
